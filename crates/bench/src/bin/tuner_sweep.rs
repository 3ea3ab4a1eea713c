//! Tuner smoke sweep: measure every local-kernel variant for every
//! local op on a bench-grid shape, run the runtime tuner on the
//! same block, and check its pick against `Naive` **on the same
//! measurement harness**. CI runs `--smoke` as the `tuner-smoke` step:
//! the process exits nonzero if any tuned pick measures slower than the
//! naive reference beyond a noise tolerance. Pick and naive are timed
//! in back-to-back pairs that alternate which runs first, and the gate
//! reads the median pair ratio: a kernel's speed drifts by up to 1.5×
//! between separate measurement windows on a shared host, which no
//! comparison of unpaired medians can tell from a real difference.
//!
//! ```text
//! tuner_sweep [--smoke | --quick]
//! ```
//!
//! Output is the usual microbench table (GFLOP/s via the
//! `dsk_kernels::*_flops` helpers), one group per (format, op), plus a
//! per-op summary line naming the tuner's pick and its paired speedup
//! over naive.

use dsk_bench::microbench::{header, measure, row};
use dsk_dense::Mat;
use dsk_kernels as kern;
use dsk_kernels::{LocalKernel, LocalOp, LocalTuning, SparseFormat, TuneRequest};
use dsk_sparse::{gen, CooMatrix, CsrMatrix};
use std::time::Instant;

/// A tuned pick may re-measure slower than naive by this factor before
/// the sweep calls it a regression (microbench noise, not a bad pick).
const NOISE_TOL: f64 = 1.10;
/// (pick, naive) timing pairs behind each verdict.
const PAIRS: usize = 9;

fn op_flops(op: LocalOp, nnz: usize, r: usize) -> u64 {
    match op {
        LocalOp::Spmm | LocalOp::SpmmT => kern::spmm_flops(nnz, r),
        LocalOp::Sddmm => kern::sddmm_flops(nnz, r),
        LocalOp::Fused => kern::fused_flops(nnz, r),
    }
}

/// Scratch buffers shared by every measured iteration (allocation stays
/// out of the timed closure; the accumulating output is fine for timing).
struct Scratch {
    out: Mat,
    acc: Vec<f64>,
}

fn run_csr(v: LocalKernel, op: LocalOp, s: &CsrMatrix, a: &Mat, b: &Mat, w: &mut Scratch) {
    match op {
        LocalOp::Spmm => v.spmm_csr(&mut w.out, s, b),
        LocalOp::SpmmT => v.spmm_csr_t(&mut w.out, s, a),
        LocalOp::Sddmm => v.sddmm_csr(&mut w.acc, s, a, b, kern::SddmmCombine::Dot),
        LocalOp::Fused => v.fused_csr(&mut w.out, s, a, b),
    }
}

fn run_coo(v: LocalKernel, op: LocalOp, s: &CooMatrix, a: &Mat, b: &Mat, w: &mut Scratch) {
    match op {
        LocalOp::Spmm => v.spmm_coo(&mut w.out, s, b),
        LocalOp::SpmmT => v.spmm_coo_t(&mut w.out, s, a),
        LocalOp::Sddmm => v.sddmm_coo(&mut w.acc, s, a, b, kern::SddmmCombine::Dot),
        LocalOp::Fused => unreachable!("no COO fused kernel"),
    }
}

/// Sweep one (format, op), `name` in the table: time every variant for
/// the table, then the tuner's pick against naive in pairs, and return
/// the [`paired_ratio`] and `fastest`, the table's argmin over the
/// variants.
fn sweep_op(
    name: &str,
    op: LocalOp,
    nnz: usize,
    r: usize,
    mut run: impl FnMut(LocalKernel),
    pick: LocalKernel,
) -> (f64, LocalKernel) {
    let flops = op_flops(op, nnz, r);
    let mut timings: Vec<(LocalKernel, f64)> = Vec::new();
    for v in LocalKernel::ALL {
        let s_per_iter = measure(|| run(v));
        row(
            name,
            &format!("{}/r={r}", v.label()),
            s_per_iter,
            Some(flops),
        );
        timings.push((v, s_per_iter));
    }
    let fastest = timings
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap()
        .0;
    (paired_ratio(run, pick), fastest)
}

/// The median over [`PAIRS`] back-to-back (pick, naive) timings of
/// pick ÷ naive, alternating which runs first so that neither always
/// runs on caches the other just warmed. Each timing is a batch of calls
/// sized to ~10 ms, after one warm-up batch of the pick. A `Naive` pick
/// is the reference itself: 1.
fn paired_ratio(mut run: impl FnMut(LocalKernel), pick: LocalKernel) -> f64 {
    if pick == LocalKernel::Naive {
        return 1.0;
    }
    let mut time = |v: LocalKernel, batch: usize| {
        let t0 = Instant::now();
        for _ in 0..batch {
            run(v);
        }
        t0.elapsed().as_secs_f64()
    };
    let batch = ((0.01 / time(LocalKernel::Naive, 1).max(1e-9)) as usize).clamp(1, 1_000_000);
    time(pick, batch);
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|k| {
            if k % 2 == 0 {
                let pick_s = time(pick, batch);
                pick_s / time(LocalKernel::Naive, batch)
            } else {
                let naive_s = time(LocalKernel::Naive, batch);
                time(pick, batch) / naive_s
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[PAIRS / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke" || a == "--quick");
    let (n, nnz_row, r) = if smoke {
        (1 << 11, 8, 32)
    } else {
        (1 << 12, 8, 32)
    };

    let coo = gen::erdos_renyi(n, n, nnz_row, 11);
    let s = CsrMatrix::from_coo(&coo);
    let a = Mat::random(n, r, 1);
    let b = Mat::random(n, r, 2);
    let nnz = s.nnz();

    header(&format!(
        "tuner sweep (n = {n}, {nnz_row} nnz/row, r = {r})"
    ));

    let tuning = LocalTuning::new();
    let mut summaries: Vec<(String, LocalKernel, f64, LocalKernel)> = Vec::new();

    let csr_ops = LocalOp::ALL.map(|op| (SparseFormat::Csr, op));
    let coo_ops = [LocalOp::Spmm, LocalOp::SpmmT, LocalOp::Sddmm].map(|op| (SparseFormat::Coo, op));
    for (format, op) in csr_ops.into_iter().chain(coo_ops) {
        let req = TuneRequest {
            op,
            format,
            rows: n,
            nnz,
            r,
        };
        let (label, pick) = match format {
            SparseFormat::Csr => ("csr", tuning.tune_csr(req, &s)),
            SparseFormat::Coo => ("coo", tuning.tune_coo(req, &coo)),
        };
        let name = format!("{label}/{}", op.label());
        let mut w = Scratch {
            out: Mat::zeros(n, r),
            acc: vec![0.0; nnz],
        };
        let run = |v| match format {
            SparseFormat::Csr => run_csr(v, op, &s, &a, &b, &mut w),
            SparseFormat::Coo => run_coo(v, op, &coo, &a, &b, &mut w),
        };
        let (ratio, fastest) = sweep_op(&name, op, nnz, r, run, pick);
        summaries.push((name, pick, ratio, fastest));
    }

    println!();
    let mut failed = false;
    let mut beat_naive = false;
    for (name, pick, ratio, fastest) in &summaries {
        let speedup = 1.0 / ratio;
        let verdict = if *ratio > NOISE_TOL {
            failed = true;
            "SLOWER THAN NAIVE"
        } else {
            "ok"
        };
        if *pick != LocalKernel::Naive && speedup > 1.0 {
            beat_naive = true;
        }
        println!(
            "tuned {name:<12} -> {:<12} {speedup:>6.2}x vs naive (measured fastest: {:<12}) {verdict}",
            pick.label(),
            fastest.label(),
        );
    }
    if beat_naive {
        println!("tuner picked a non-naive variant measurably faster than naive on this shape");
    }
    if failed {
        eprintln!(
            "tuner_sweep: a tuned pick measured slower than naive (beyond {NOISE_TOL}x tolerance)"
        );
        std::process::exit(1);
    }
}
