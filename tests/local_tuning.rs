//! Integration: the two-level tuning wiring. The local-kernel variant
//! choice is a *computation* concern — it must never change what is
//! communicated (words and messages are variant-invariant by
//! construction), the tuning cost must sit in its own phase bucket with
//! zero traffic and zero modeled time, and a pinned variant must flow
//! through the planner's scoreboard and the built worker untouched.
//! CI runs this file under every `DSK_COMM_BACKEND` leg.

use std::sync::Arc;

use distributed_sparse_kernels::core::{GlobalProblem, StagedProblem};
use distributed_sparse_kernels::kernels::LocalKernel;
use distributed_sparse_kernels::prelude::*;

#[test]
fn tuning_cost_sits_in_its_own_phase_with_zero_traffic() {
    let prob = Arc::new(GlobalProblem::erdos_renyi(256, 256, 16, 4, 7101));
    let staged = Arc::new(StagedProblem::new(Arc::clone(&prob)));
    let builder = KernelBuilder::from_staged(&staged).max_replication(4);
    let world = SimWorld::new(8, MachineModel::cori_knl());
    let out = world.run(move |comm| {
        let mut w = builder.build(comm);
        let elision = w.plan().elision;
        let local = w.fused_mm_b(None, elision, Sampling::Values);
        local.as_slice().iter().map(|v| v * v).sum::<f64>()
    });
    for o in &out {
        let t = o.stats.phase(Phase::LocalTuning);
        assert_eq!(t.words_sent, 0, "tuning must not communicate");
        assert_eq!(t.words_recv, 0);
        assert_eq!(t.msgs_sent, 0);
        assert_eq!(t.msgs_recv, 0);
        assert_eq!(t.flops, 0, "tuning reps are not modeled computation");
        assert_eq!(t.modeled_s, 0.0, "tuning never carries modeled cost");
    }
    // The microbenchmarks really ran somewhere: at least one rank spent
    // wall time in the bucket (the cache serializes the rest away).
    assert!(
        out.iter()
            .any(|o| o.stats.phase(Phase::LocalTuning).wall_s > 0.0),
        "no rank recorded local-tuning wall time"
    );
}

/// Pinning different variants (the planner obeys programmatic pins and
/// `DSK_LOCAL_KERNEL` identically) must leave the answer and the entire
/// communication profile untouched — only local wall time may move.
#[test]
fn pinned_variants_change_nothing_but_the_local_kernel() {
    let prob = Arc::new(GlobalProblem::erdos_renyi(192, 192, 8, 6, 7102));
    let mut sums: Vec<f64> = Vec::new();
    let mut traffic: Vec<(u64, u64)> = Vec::new();
    for pin in LocalKernel::ALL {
        let staged = Arc::new(StagedProblem::new(Arc::clone(&prob)));
        staged.local_tuning().set_pin(Some(pin));
        let builder = KernelBuilder::from_staged(&staged).max_replication(4);
        // The scoreboard reports the pin on every row.
        let cands = builder.plan_candidates(8);
        assert!(!cands.is_empty());
        for cand in &cands {
            assert_eq!(
                cand.local_variant, pin,
                "{:?}: the scoreboard ignored the pin",
                cand.algorithm
            );
        }
        let world = SimWorld::new(8, MachineModel::cori_knl());
        let out = world.run(move |comm| {
            let mut w = builder.build(comm);
            let elision = w.plan().elision;
            let local = w.fused_mm_b(None, elision, Sampling::Values);
            local.as_slice().iter().map(|v| v * v).sum::<f64>()
        });
        sums.push(out.iter().map(|o| o.value).sum::<f64>());
        let t = out.iter().fold((0u64, 0u64), |acc, o| {
            let tot = o.stats.total();
            (acc.0 + tot.words_sent, acc.1 + tot.msgs_sent)
        });
        traffic.push(t);
    }
    let scale = sums[0].abs().max(1.0);
    assert!(
        (sums[0] - sums[1]).abs() <= 1e-9 * scale,
        "pinned variants disagree on the answer: {} vs {}",
        sums[0],
        sums[1]
    );
    assert_eq!(
        traffic[0], traffic[1],
        "variant choice changed the communication profile"
    );
}

/// Re-planning is deterministic: two successive scoreboard queries on
/// the same staged problem resolve identical variants row for row
/// (cache or heuristic — never a fresh measurement at plan time).
#[test]
fn replanning_resolves_identical_variants() {
    let prob = Arc::new(GlobalProblem::erdos_renyi(256, 256, 16, 6, 7103));
    let staged = Arc::new(StagedProblem::new(Arc::clone(&prob)));
    let builder = KernelBuilder::from_staged(&staged).max_replication(4);
    let world = SimWorld::new(4, MachineModel::cori_knl());
    let b2 = KernelBuilder::from_staged(&staged).max_replication(4);
    let _ = world.run(move |comm| {
        let mut w = b2.build(comm);
        let elision = w.plan().elision;
        let _ = w.fused_mm_b(None, elision, Sampling::Values);
    });
    for p in [4usize, 8, 16] {
        let first = builder.plan_candidates(p);
        let second = builder.plan_candidates(p);
        assert_eq!(first.len(), second.len());
        for (x, y) in first.iter().zip(&second) {
            assert_eq!(x.algorithm, y.algorithm);
            assert_eq!(x.local_variant, y.local_variant, "{:?}", x.algorithm);
        }
    }
}
