//! The benchmark's exact counts repeat bit for bit: two runs of one seed
//! move the same words and messages and count the same flops per op,
//! ALS reaches the same losses, and `fused-comm` moves the same words
//! over sockets as in process. A difference is a defect in the program.
//!
//! Every run here is small (side 2¹⁰) and short; each workload lives in
//! its own test so that socket rank processes re-run only their test.

use distributed_sparse_kernels::comm::launch::is_worker_process;
use distributed_sparse_kernels::prelude::BackendKind;
use perfbench::measure::{FINAL_LOSS_SWEEPS, LOSS_REPEAT_TOL};
use perfbench::workload::Workload;
use perfbench::{run, Config, Record};

fn small(workload: Workload, backend: BackendKind) -> Config {
    let mut cfg = Config::new(workload, 11, 0.4, false);
    cfg.scale = 10;
    cfg.setup_reps = 1;
    cfg.backend = backend;
    cfg
}

fn assert_same_counts(a: &Record, b: &Record, what: &str) {
    assert!(a.per_op.ops > 0 && b.per_op.ops > 0);
    assert_eq!(a.per_op.words, b.per_op.words, "{what}: words per op");
    assert_eq!(a.per_op.msgs, b.per_op.msgs, "{what}: messages per op");
    assert_eq!(a.per_op.flops, b.per_op.flops, "{what}: flops per op");
    assert_eq!(
        a.per_op.words.fract(),
        0.0,
        "{what}: every op moves the same words"
    );
    assert_eq!(
        (a.failed, b.failed),
        (0, 0),
        "{what}: checks failed (losses {:?} / {:?})",
        a.losses,
        b.losses
    );
}

#[test]
fn fused_compute_counts_repeat() {
    let w = Workload::FusedCompute;
    let a = run(&small(w, w.backend())).unwrap();
    let b = run(&small(w, w.backend())).unwrap();
    assert_same_counts(&a, &b, "fused-compute");
}

#[test]
fn als_counts_and_losses_repeat() {
    let w = Workload::AlsRmat;
    let a = run(&small(w, w.backend())).unwrap();
    let b = run(&small(w, w.backend())).unwrap();
    assert_same_counts(&a, &b, "als-rmat");
    let common = a.losses.len().min(b.losses.len());
    assert!(common >= 2, "at least the warm-up sweep's loss");
    let through_final = a.losses.iter().zip(&b.losses).take(FINAL_LOSS_SWEEPS + 1);
    for (i, (x, y)) in through_final.enumerate() {
        assert!(
            (x - y).abs() <= LOSS_REPEAT_TOL * x.abs(),
            "loss after sweep {i}: {x} vs {y}"
        );
    }
}

#[test]
fn fused_comm_counts_repeat_and_match_in_process() {
    let w = Workload::FusedComm;
    // Socket runs first: spawned rank processes replay this test and
    // must meet the same sequence of socket epochs, then stop.
    let a = run(&small(w, BackendKind::Socket));
    let b = run(&small(w, BackendKind::Socket));
    if is_worker_process() {
        return;
    }
    let (a, b) = (a.unwrap(), b.unwrap());
    assert_same_counts(&a, &b, "fused-comm over sockets");
    let inproc = run(&small(w, BackendKind::InProc)).unwrap();
    assert_same_counts(&a, &inproc, "fused-comm socket vs in-process");
    assert!(a.per_op.wire_bytes > 0.0, "socket frames are counted");
}
