//! Per-family reference and traffic suite, driven through the public
//! construction path (`DistWorker::from_global` / `KernelBuilder`).
//!
//! The reference half is table-driven: every case builds one kernel on
//! a deliberately awkward shape (ragged blocks such as 25×19, `c = 1`,
//! `c = p`, `p = 6` with `c = 3`, 2.5D grids up to 27 ranks) and checks
//! SDDMM, the R-valued SpMMA, both SpMMs and every admissible FusedMM
//! elision elementwise against the shared-memory `reference_*` kernels.
//! The traffic half pins each family's characteristic word and message
//! counts.

use std::sync::Arc;

use distributed_sparse_kernels::core::layout::{gather_dense, DenseLayout};
use distributed_sparse_kernels::dense::ops::max_abs_diff;
use distributed_sparse_kernels::prelude::*;

/// One kernel on one problem: `kernel` is a family, or `None` for the
/// 1D baseline.
#[derive(Debug, Clone, Copy)]
struct Case {
    kernel: Option<AlgorithmFamily>,
    p: usize,
    c: usize,
    m: usize,
    n: usize,
    r: usize,
    nnz_per_row: usize,
    seed: u64,
}

const fn case(
    kernel: Option<AlgorithmFamily>,
    (p, c): (usize, usize),
    (m, n, r): (usize, usize, usize),
    nnz_per_row: usize,
    seed: u64,
) -> Case {
    Case {
        kernel,
        p,
        c,
        m,
        n,
        r,
        nnz_per_row,
        seed,
    }
}

const DS15: Option<AlgorithmFamily> = Some(AlgorithmFamily::DenseShift15);
const SS15: Option<AlgorithmFamily> = Some(AlgorithmFamily::SparseShift15);
const DR25: Option<AlgorithmFamily> = Some(AlgorithmFamily::DenseRepl25);
const SR25: Option<AlgorithmFamily> = Some(AlgorithmFamily::SparseRepl25);
const BASELINE: Option<AlgorithmFamily> = None;

const DENSE_SHIFT_15: &[Case] = &[
    case(DS15, (4, 2), (25, 19, 5), 3, 42),
    case(DS15, (6, 2), (24, 24, 4), 3, 42),
    case(DS15, (4, 1), (16, 20, 3), 3, 42),
    case(DS15, (4, 4), (17, 23, 3), 3, 42),
    case(DS15, (6, 3), (22, 26, 4), 3, 7),
    case(DS15, (8, 2), (24, 32, 4), 4, 11),
    case(DS15, (4, 2), (21, 18, 3), 3, 13),
];

const SPARSE_SHIFT_15: &[Case] = &[
    case(SS15, (4, 1), (26, 22, 8), 3, 51),
    case(SS15, (4, 2), (26, 22, 8), 3, 51),
    case(SS15, (8, 2), (26, 22, 8), 3, 51),
    case(SS15, (6, 3), (26, 22, 8), 3, 51),
    case(SS15, (8, 8), (26, 22, 8), 3, 51),
    case(SS15, (6, 2), (20, 24, 7), 3, 52),
    case(SS15, (8, 2), (26, 18, 8), 4, 53),
    case(SS15, (4, 2), (17, 23, 6), 3, 54),
    case(SS15, (6, 3), (24, 21, 6), 3, 55),
];

const DENSE_REPL_25: &[Case] = &[
    case(DR25, (4, 1), (26, 29, 8), 3, 61),
    case(DR25, (8, 2), (26, 29, 8), 3, 61),
    case(DR25, (18, 2), (26, 29, 8), 3, 61),
    case(DR25, (16, 1), (26, 29, 8), 3, 61),
    case(DR25, (16, 4), (26, 29, 8), 3, 61),
    case(DR25, (8, 2), (24, 26, 7), 3, 62),
    case(DR25, (18, 2), (30, 24, 9), 4, 63),
    case(DR25, (8, 2), (22, 21, 6), 3, 64),
];

const SPARSE_REPL_25: &[Case] = &[
    case(SR25, (4, 1), (27, 24, 13), 3, 71),
    case(SR25, (8, 2), (27, 24, 13), 3, 71),
    case(SR25, (18, 2), (27, 24, 13), 3, 71),
    case(SR25, (16, 4), (27, 24, 13), 3, 71),
    case(SR25, (27, 3), (27, 24, 13), 3, 71),
    case(SR25, (8, 2), (25, 22, 11), 3, 72),
    case(SR25, (18, 2), (24, 27, 12), 4, 73),
];

const BASELINE_1D: &[Case] = &[
    case(BASELINE, (1, 1), (24, 21, 5), 4, 81),
    case(BASELINE, (2, 1), (24, 21, 5), 4, 81),
    case(BASELINE, (5, 1), (24, 21, 5), 4, 81),
    case(BASELINE, (8, 1), (24, 21, 5), 4, 81),
];

/// Build `kernel` on this rank, dense-routed.
fn build(
    comm: &Comm,
    kernel: Option<AlgorithmFamily>,
    c: usize,
    prob: &GlobalProblem,
) -> DistWorker {
    match kernel {
        Some(family) => DistWorker::from_global(comm, family, c, prob),
        None => KernelBuilder::new(prob).baseline().build(comm),
    }
}

/// The elisions `kernel` admits, in `Elision::ALL` order.
fn elisions(kernel: Option<AlgorithmFamily>) -> Vec<Elision> {
    Elision::ALL
        .into_iter()
        .filter(|&e| kernel.map_or(e == Elision::None, |f| f.supports(e)))
        .collect()
}

/// Max-abs error of a distributed dense result against `expect`,
/// gathered at rank 0 (0 elsewhere).
fn gathered_err(
    comm: &Comm,
    local: &Mat,
    layout_of: impl Fn(usize) -> DenseLayout,
    expect: &Mat,
) -> f64 {
    gather_dense(comm, 0, local, layout_of, expect.nrows(), expect.ncols())
        .map_or(0.0, |got| max_abs_diff(&got, expect))
}

/// Run every reference check of `case` and assert each error < 1e-9.
fn check(case: Case) {
    let prob = Arc::new(GlobalProblem::erdos_renyi(
        case.m,
        case.n,
        case.r,
        case.nnz_per_row,
        case.seed,
    ));
    let mut labels = vec!["sddmm", "spmm_a_with(R)", "rhs_a", "rhs_b"];
    for e in elisions(case.kernel) {
        labels.push(match e {
            Elision::None => "fused_a/none",
            Elision::ReplicationReuse => "fused_a/reuse",
            Elision::LocalKernelFusion => "fused_a/lkf",
        });
        labels.push(match e {
            Elision::None => "fused_b/none",
            Elision::ReplicationReuse => "fused_b/reuse",
            Elision::LocalKernelFusion => "fused_b/lkf",
        });
    }
    let sddmm = prob.reference_sddmm().to_coo().to_dense();
    let (spmm_a, spmm_b) = (prob.reference_spmm_a(), prob.reference_spmm_b());
    let (fused_a, fused_b) = (prob.reference_fused_a(), prob.reference_fused_b());
    let out = SimWorld::new(case.p, MachineModel::bandwidth_only()).run(move |comm| {
        let mut w = build(comm, case.kernel, case.c, &prob);
        let mut errs = Vec::new();
        w.sddmm();
        let r = w.gather_r(comm).map(|r| r.to_dense());
        errs.push(r.map_or(0.0, |r| {
            r.iter()
                .zip(&sddmm)
                .map(|(g, e)| (g - e).abs())
                .fold(0.0, f64::max)
        }));
        let with_r = w.spmm_a_with(&w.b_iterate());
        errs.push(gathered_err(
            comm,
            &with_r,
            |g| w.spmm_a_with_layout_of(g),
            &fused_a,
        ));
        let got = w.rhs_a(comm);
        errs.push(gathered_err(
            comm,
            &got,
            |g| w.a_iterate_layout_of(g),
            &spmm_a,
        ));
        let got = w.rhs_b(comm);
        errs.push(gathered_err(
            comm,
            &got,
            |g| w.b_iterate_layout_of(g),
            &spmm_b,
        ));
        for e in elisions(case.kernel) {
            let got = w.fused_mm_a(None, e, Sampling::Values);
            errs.push(gathered_err(
                comm,
                &got,
                |g| w.a_iterate_layout_of(g),
                &fused_a,
            ));
            let got = w.fused_mm_b(None, e, Sampling::Values);
            errs.push(gathered_err(
                comm,
                &got,
                |g| w.b_iterate_layout_of(g),
                &fused_b,
            ));
        }
        errs
    });
    let errs = &out[0].value;
    assert_eq!(errs.len(), labels.len());
    for (label, err) in labels.iter().zip(errs) {
        assert!(*err < 1e-9, "{label} mismatch ({err:e}) for {case:?}");
    }
}

#[test]
fn dense_shift_15_matches_reference() {
    DENSE_SHIFT_15.iter().copied().for_each(check);
}

#[test]
fn sparse_shift_15_matches_reference() {
    SPARSE_SHIFT_15.iter().copied().for_each(check);
}

#[test]
fn dense_repl_25_matches_reference() {
    DENSE_REPL_25.iter().copied().for_each(check);
}

#[test]
fn sparse_repl_25_matches_reference() {
    SPARSE_REPL_25.iter().copied().for_each(check);
}

#[test]
fn baseline_1d_matches_reference() {
    BASELINE_1D.iter().copied().for_each(check);
}

/// Per-rank `phase` counters of one fused call.
fn fused_stats(
    case: Case,
    b_side: bool,
    elision: Elision,
    phase: Phase,
) -> Vec<distributed_sparse_kernels::comm::PhaseCounters> {
    let prob = Arc::new(GlobalProblem::erdos_renyi(
        case.m,
        case.n,
        case.r,
        case.nnz_per_row,
        case.seed,
    ));
    let out = SimWorld::new(case.p, MachineModel::bandwidth_only()).run(move |comm| {
        let mut w = build(comm, case.kernel, case.c, &prob);
        if b_side {
            w.fused_mm_b(None, elision, Sampling::Values);
        } else {
            w.fused_mm_a(None, elision, Sampling::Values);
        }
    });
    out.iter().map(|o| *o.stats.phase(phase)).collect()
}

fn total_words(stats: &[distributed_sparse_kernels::comm::PhaseCounters]) -> u64 {
    stats.iter().map(|s| s.words_sent).sum()
}

#[test]
fn sampling_ones_ignores_s_values() {
    // FusedMM with Sampling::Ones must equal the reference on a problem
    // whose S values are all 1 — even though our S has random values.
    let (p, c, m, r) = (4, 2, 16, 3);
    let prob = GlobalProblem::erdos_renyi(m, 16, r, 2, 17);
    let mut ones = prob.clone();
    ones.s.fill_values(1.0);
    let expect = ones.reference_fused_a();
    let prob = Arc::new(prob);
    let out = SimWorld::new(p, MachineModel::bandwidth_only()).run(move |comm| {
        let mut w = DistWorker::from_global(comm, AlgorithmFamily::DenseShift15, c, &prob);
        let got = w.fused_mm_a(None, Elision::LocalKernelFusion, Sampling::Ones);
        gathered_err(comm, &got, |g| w.a_iterate_layout_of(g), &expect)
    });
    assert!(out[0].value < 1e-9);
}

#[test]
fn lkf_halves_propagation_words() {
    let ds = case(DS15, (8, 2), (32, 32, 4), 3, 29);
    let none = fused_stats(ds, false, Elision::None, Phase::Propagation);
    let lkf = fused_stats(ds, false, Elision::LocalKernelFusion, Phase::Propagation);
    assert_eq!(
        none[0].words_sent,
        2 * lkf[0].words_sent,
        "LKF must halve propagation volume"
    );
}

#[test]
fn replication_reuse_performs_single_fiber_collective() {
    // Reuse performs one all-gather (c-1 sends per rank), no-elision
    // FusedMMB two.
    let ds = case(DS15, (8, 4), (32, 32, 4), 3, 23);
    let c = ds.c as u64;
    for (elision, expected) in [
        (Elision::ReplicationReuse, c - 1),
        (Elision::None, 2 * (c - 1)),
    ] {
        for (rank, s) in fused_stats(ds, true, elision, Phase::Replication)
            .iter()
            .enumerate()
        {
            assert_eq!(s.msgs_sent, expected, "elision={elision:?} rank={rank}");
        }
    }
}

#[test]
fn sparse_shift_words_are_3_per_nonzero() {
    // Two rounds of q shifts each; every shift carries one column block
    // at 3 words per nonzero: 2 · q · 3 · nnz across all ranks.
    let ss = case(SS15, (8, 2), (32, 32, 8), 4, 56);
    let nnz = GlobalProblem::erdos_renyi(ss.m, ss.n, ss.r, ss.nnz_per_row, ss.seed).nnz();
    let q = ss.p / ss.c;
    let stats = fused_stats(ss, true, Elision::ReplicationReuse, Phase::Propagation);
    assert_eq!(total_words(&stats), (2 * q * 3 * nnz) as u64);
}

#[test]
fn reuse_halves_replication_volume() {
    let ss = case(SS15, (8, 4), (32, 32, 8), 3, 57);
    let none = fused_stats(ss, true, Elision::None, Phase::Replication);
    let reuse = fused_stats(ss, true, Elision::ReplicationReuse, Phase::Replication);
    assert_eq!(total_words(&none), 2 * total_words(&reuse));
}

#[test]
fn reuse_saves_one_fiber_allgather() {
    let dr = case(DR25, (8, 2), (32, 32, 8), 3, 65);
    let none = fused_stats(dr, true, Elision::None, Phase::Replication);
    let reuse = fused_stats(dr, true, Elision::ReplicationReuse, Phase::Replication);
    assert_eq!(total_words(&none), 2 * total_words(&reuse));
}

#[test]
fn propagation_carries_sparse_and_dense() {
    // FusedMM runs two travel rounds; each step shifts one sparse block
    // (3 words/nz) and one dense panel: 2·q·3·nnz + 2·q·n·r words.
    let dr = case(DR25, (16, 4), (32, 32, 8), 4, 66);
    let nnz = GlobalProblem::erdos_renyi(dr.m, dr.n, dr.r, dr.nnz_per_row, dr.seed).nnz() as u64;
    let q = 2; // √(16/4)
    let stats = fused_stats(dr, true, Elision::ReplicationReuse, Phase::Propagation);
    assert_eq!(
        total_words(&stats),
        2 * q * 3 * nnz + 2 * q * (dr.n * dr.r) as u64
    );
}

#[test]
fn elision_is_rejected() {
    let prob = Arc::new(GlobalProblem::erdos_renyi(16, 16, 4, 2, 74));
    let out = SimWorld::new(4, MachineModel::bandwidth_only()).run(move |comm| {
        let mut w = DistWorker::from_global(comm, AlgorithmFamily::SparseRepl25, 1, &prob);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.fused_mm_a(None, Elision::ReplicationReuse, Sampling::Values)
        }))
        .is_err()
    });
    assert!(out.iter().all(|o| o.value));
}

#[test]
fn fiber_traffic_is_values_only() {
    // Replication traffic is proportional to nnz, not to the dense
    // matrices: per fiber of c ranks, an allgather, a reduce-scatter and
    // an allgather of the block's values — 3·(c-1)/c·nnz words in total,
    // bounded by 3·nnz independently of r.
    let sr = case(SR25, (8, 2), (32, 32, 16), 4, 75);
    let nnz = GlobalProblem::erdos_renyi(sr.m, sr.n, sr.r, sr.nnz_per_row, sr.seed).nnz() as u64;
    let total = total_words(&fused_stats(sr, false, Elision::None, Phase::Replication));
    assert!(total <= 3 * nnz, "fiber words {total} > {}", 3 * nnz);
    assert!(total > 0);
}

/// Max per-rank propagation words of one baseline SpMMA at `p` ranks.
fn baseline_spmm_words(prob: &Arc<GlobalProblem>, p: usize, fused: bool) -> Vec<u64> {
    let prob = Arc::clone(prob);
    let out = SimWorld::new(p, MachineModel::bandwidth_only()).run(move |comm| {
        let mut w = KernelBuilder::new(&prob).baseline().build(comm);
        if fused {
            w.fused_mm_a(None, Elision::None, Sampling::Values);
        } else {
            w.spmm_a(false);
        }
    });
    out.iter()
        .map(|o| o.stats.phase(Phase::Propagation).words_sent)
        .collect()
}

#[test]
fn traffic_grows_with_processor_count() {
    // The baseline's defining weakness: per-call fetch volume grows with
    // p on a matrix with scattered columns.
    let prob = Arc::new(GlobalProblem::erdos_renyi(64, 64, 8, 8, 82));
    let max_words = |p| *baseline_spmm_words(&prob, p, false).iter().max().unwrap();
    let (at2, at8) = (max_words(2), max_words(8));
    assert!(at8 > at2, "fetch volume should grow with p: {at2} -> {at8}");
}

#[test]
fn baseline_fused_call_pays_two_scatters() {
    // The paper benchmarks the baseline's FusedMM as two back-to-back
    // kernels with no reuse: SDDMM and SpMM each pay the full scatter.
    let prob = Arc::new(GlobalProblem::erdos_renyi(16, 16, 4, 3, 83));
    let single: u64 = baseline_spmm_words(&prob, 4, false).iter().sum();
    let fused: u64 = baseline_spmm_words(&prob, 4, true).iter().sum();
    assert_eq!(fused, 2 * single);
}
