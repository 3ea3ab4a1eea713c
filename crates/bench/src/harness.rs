//! Experiment harness: run FusedMM workloads under any algorithm and
//! collect phase-tagged results.

use std::sync::Arc;

use dsk_comm::{AggregateStats, BackendKind, MachineModel, Phase, SimWorld};
use dsk_core::common::Routing;
use dsk_core::kernel::{KernelBuilder, KernelPlan};
use dsk_core::theory::Algorithm;
use dsk_core::{GlobalProblem, Sampling, StagedProblem};

/// One experiment row: an algorithm at a replication factor on a
/// problem, with modeled time broken down the way the paper's figures
/// report it.
#[derive(Debug, Clone)]
pub struct FusedRow {
    /// Algorithm label (paper legend style).
    pub algorithm: String,
    /// Communication backend the row was measured under.
    pub backend: &'static str,
    /// Rank count.
    pub p: usize,
    /// Replication factor used.
    pub c: usize,
    /// Shift routing the row ran under (dense full-row schedules or
    /// pattern-routed needed-rows-only).
    pub routing: Routing,
    /// FusedMM calls timed.
    pub calls: usize,
    /// Modeled replication time (max over ranks), seconds.
    pub repl_s: f64,
    /// Modeled propagation time, seconds.
    pub prop_s: f64,
    /// Modeled computation time, seconds.
    pub comp_s: f64,
    /// Modeled total, seconds.
    pub total_s: f64,
    /// Real wall-clock of the busiest rank, seconds (diagnostic only).
    pub wall_s: f64,
    /// Words sent by the busiest rank during replication.
    pub max_words_repl: u64,
    /// Words sent by the busiest rank during propagation.
    pub max_words_prop: u64,
    /// Messages sent by the busiest rank (all comm phases).
    pub max_msgs: u64,
    /// Encoded bytes handed to the wire across all ranks and non-setup
    /// phases (zero under the in-process backend).
    pub wire_bytes: u64,
}

impl FusedRow {
    fn from_stats(
        algorithm: String,
        backend: &'static str,
        p: usize,
        c: usize,
        routing: Routing,
        calls: usize,
        agg: &AggregateStats,
    ) -> Self {
        let repl_s = agg.modeled_s(Phase::Replication);
        let prop_s = agg.modeled_s(Phase::Propagation);
        let comp_s = agg.modeled_s(Phase::Computation);
        let wall_s = Phase::ALL
            .iter()
            .filter(|ph| **ph != Phase::Setup)
            .map(|ph| agg.max_wall_s[ph.index()])
            .sum();
        FusedRow {
            algorithm,
            backend,
            p,
            c,
            routing,
            calls,
            repl_s,
            prop_s,
            comp_s,
            total_s: repl_s + prop_s + comp_s,
            wall_s,
            max_words_repl: agg.max_words(Phase::Replication),
            max_words_prop: agg.max_words(Phase::Propagation),
            max_msgs: agg.max_msgs_sent[Phase::Replication.index()]
                + agg.max_msgs_sent[Phase::Propagation.index()],
            wire_bytes: agg.wire_bytes_total(),
        }
    }

    /// Modeled communication time (replication + propagation).
    pub fn comm_s(&self) -> f64 {
        self.repl_s + self.prop_s
    }

    /// One JSON object per row (the `DSK_JSON` dump format). Hand-rolled
    /// so the workspace stays dependency-free; every field is a number or
    /// a string without embedded quotes.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"algorithm\":\"{}\",\"backend\":\"{}\",\"p\":{},\"c\":{},\"routing\":\"{}\",\
             \"calls\":{},\
             \"repl_s\":{:e},\"prop_s\":{:e},\"comp_s\":{:e},\"total_s\":{:e},\
             \"wall_s\":{:e},\"max_words_repl\":{},\"max_words_prop\":{},\"max_msgs\":{},\
             \"wire_bytes\":{}}}",
            self.algorithm.replace('"', "'"),
            self.backend,
            self.p,
            self.c,
            self.routing.label(),
            self.calls,
            self.repl_s,
            self.prop_s,
            self.comp_s,
            self.total_s,
            self.wall_s,
            self.max_words_repl,
            self.max_words_prop,
            self.max_msgs,
            self.wire_bytes,
        )
    }
}

/// Run `calls` FusedMMB executions of `alg` at replication factor `c`,
/// on the backend selected by `DSK_COMM_BACKEND` (in-process default).
/// Always the paper's dense schedules; routed rows come from
/// [`run_fused_on`] with an explicit [`Routing::Pattern`].
pub fn run_fused(
    prob: &Arc<GlobalProblem>,
    model: MachineModel,
    p: usize,
    alg: Algorithm,
    c: usize,
    calls: usize,
) -> FusedRow {
    let staged = Arc::new(StagedProblem::new(Arc::clone(prob)));
    run_fused_on(
        &staged,
        model,
        p,
        alg,
        Routing::Dense,
        c,
        calls,
        BackendKind::from_env(),
    )
}

/// [`run_fused`] on an explicit communication backend and routing, over
/// shared staging (the regret sweep measures every candidate under both
/// `inproc` and `wire-delay` without re-partitioning the sparse matrix
/// per run). The routing is pinned on the builder: a pinned
/// reconstruction must measure exactly the candidate row asked for,
/// never a silent variant swap.
#[allow(clippy::too_many_arguments)]
pub fn run_fused_on(
    staged: &Arc<StagedProblem>,
    model: MachineModel,
    p: usize,
    alg: Algorithm,
    routing: Routing,
    c: usize,
    calls: usize,
    backend: BackendKind,
) -> FusedRow {
    let world = SimWorld::new(p, model).backend(backend);
    let outcomes = world.run(move |comm| {
        let mut worker = KernelBuilder::from_staged(staged)
            .algorithm(alg)
            .replication(c)
            .routing(routing)
            .build(comm);
        for _ in 0..calls {
            let _ = worker.fused_mm_b(None, alg.elision, Sampling::Values);
        }
    });
    let stats: Vec<_> = outcomes.into_iter().map(|o| o.stats).collect();
    let agg = AggregateStats::from_ranks(&stats);
    FusedRow::from_stats(alg.label(), backend.label(), p, c, routing, calls, &agg)
}

/// Run `calls` FusedMMB executions of whatever the planner picks
/// (`KernelBuilder::auto` under `model`, capped at `c_max`), returning
/// the resolved plan alongside the measured row. This exercises the
/// real plan → build → run path the applications use, not a pinned
/// reconstruction of it.
pub fn run_planned_on(
    staged: &Arc<StagedProblem>,
    model: MachineModel,
    p: usize,
    c_max: usize,
    calls: usize,
    backend: BackendKind,
) -> (KernelPlan, FusedRow) {
    let builder = KernelBuilder::from_staged(staged)
        .auto()
        .model(model)
        .max_replication(c_max);
    let plan = builder.plan(p);
    let world = SimWorld::new(p, model).backend(backend);
    let outcomes = world.run(|comm| {
        let mut worker = builder.build(comm);
        assert_eq!(
            worker.plan(),
            plan,
            "built worker diverged from the world-free plan"
        );
        let elision = worker.plan().elision;
        for _ in 0..calls {
            let _ = worker.fused_mm_b(None, elision, Sampling::Values);
        }
    });
    let stats: Vec<_> = outcomes.into_iter().map(|o| o.stats).collect();
    let agg = AggregateStats::from_ranks(&stats);
    let row = FusedRow::from_stats(
        plan.id.label().to_string(),
        backend.label(),
        p,
        plan.c,
        plan.routing,
        calls,
        &agg,
    );
    (plan, row)
}

/// Run `alg` over replication factors and keep the fastest (the paper
/// reports "the best observed replication factor at each processor
/// count").
///
/// Up to `p = 32` every admissible factor is tried, exactly like the
/// paper's sweep. Beyond that, candidates are restricted to the
/// neighborhood (½×, 1×, 2×) of the Table IV optimum — the full-sweep
/// runs of `fig7_replication_factors` and `table4_optimal_c` verify
/// independently that the observed optimum sits in that neighborhood,
/// and clearly mis-replicated configurations (e.g. c = 1 at p = 256 for
/// sparse shifting) would only burn hours confirming the theory's
/// "don't do this".
pub fn run_fused_best_c(
    prob: &Arc<GlobalProblem>,
    model: MachineModel,
    p: usize,
    alg: Algorithm,
    c_max: usize,
    calls: usize,
) -> Option<FusedRow> {
    let valid = dsk_core::theory::valid_replication_factors(alg, p, c_max);
    if valid.is_empty() {
        return None;
    }
    let candidates: Vec<usize> = if p <= 32 {
        valid
    } else {
        let phi = prob.phi();
        let c_star = dsk_core::theory::optimal_c_formula(alg, p, phi).clamp(1.0, c_max as f64);
        let nearest = |target: f64| -> usize {
            *valid
                .iter()
                .min_by(|&&a, &&b| {
                    let da = (a as f64 - target).abs();
                    let db = (b as f64 - target).abs();
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap()
        };
        let mut cs = vec![
            nearest(c_star / 2.0),
            nearest(c_star),
            nearest(c_star * 2.0),
        ];
        cs.sort_unstable();
        cs.dedup();
        cs
    };
    let staged = Arc::new(StagedProblem::new(Arc::clone(prob)));
    let mut best: Option<FusedRow> = None;
    for c in candidates {
        let row = run_fused_on(
            &staged,
            model,
            p,
            alg,
            Routing::Dense,
            c,
            calls,
            BackendKind::from_env(),
        );
        if best.as_ref().is_none_or(|b| row.total_s < b.total_s) {
            best = Some(row);
        }
    }
    best
}

/// Run the PETSc-like 1D baseline: `spmm_calls` back-to-back SpMMs (the
/// paper uses two per FusedMM).
pub fn run_baseline(
    prob: &Arc<GlobalProblem>,
    model: MachineModel,
    p: usize,
    spmm_calls: usize,
) -> FusedRow {
    let staged = Arc::new(StagedProblem::new(Arc::clone(prob)));
    let world = SimWorld::new(p, model);
    let backend = world.backend_kind().label();
    let outcomes = world.run(|comm| {
        let mut worker = KernelBuilder::from_staged(&staged).baseline().build(comm);
        for _ in 0..spmm_calls {
            let _ = worker.spmm_a(false);
        }
    });
    let stats: Vec<_> = outcomes.into_iter().map(|o| o.stats).collect();
    let agg = AggregateStats::from_ranks(&stats);
    FusedRow::from_stats(
        "PETSc-like 1D (baseline)".to_string(),
        backend,
        p,
        1,
        Routing::Dense,
        spmm_calls,
        &agg,
    )
}

/// Render rows as a markdown table (the binaries' standard output).
pub fn print_rows(title: &str, rows: &[FusedRow]) {
    println!("\n### {title}\n");
    println!(
        "| {:<42} | {:>4} | {:>2} | {:>10} | {:>10} | {:>10} | {:>10} |",
        "algorithm", "p", "c", "repl (s)", "prop (s)", "comp (s)", "total (s)"
    );
    println!(
        "|{:-<44}|{:-<6}|{:-<4}|{:-<12}|{:-<12}|{:-<12}|{:-<12}|",
        "", "", "", "", "", "", ""
    );
    for r in rows {
        println!(
            "| {:<42} | {:>4} | {:>2} | {:>10.4} | {:>10.4} | {:>10.4} | {:>10.4} |",
            r.algorithm, r.p, r.c, r.repl_s, r.prop_s, r.comp_s, r.total_s
        );
    }
}

/// Emit rows as JSON lines when `DSK_JSON` names a file (appended).
pub fn maybe_dump_json(rows: &[FusedRow]) {
    if let Ok(path) = std::env::var("DSK_JSON") {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .expect("cannot open DSK_JSON file");
        for r in rows {
            writeln!(f, "{}", r.to_json()).unwrap();
        }
    }
}

/// `--quick` flag: smaller sizes for smoke runs.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsk_core::common::{AlgorithmFamily, Elision};

    #[test]
    fn harness_runs_and_reports_nonzero_comm() {
        let prob = Arc::new(GlobalProblem::erdos_renyi(64, 64, 8, 4, 500));
        let alg = Algorithm::new(AlgorithmFamily::DenseShift15, Elision::ReplicationReuse);
        let row = run_fused(&prob, MachineModel::cori_knl(), 8, alg, 2, 2);
        assert!(row.total_s > 0.0);
        assert!(row.prop_s > 0.0);
        assert!(row.comp_s > 0.0);
        assert_eq!(row.p, 8);
        assert_eq!(row.c, 2);
    }

    #[test]
    fn best_c_picks_minimum() {
        let prob = Arc::new(GlobalProblem::erdos_renyi(64, 64, 8, 4, 501));
        let alg = Algorithm::new(AlgorithmFamily::DenseShift15, Elision::None);
        let best = run_fused_best_c(&prob, MachineModel::cori_knl(), 8, alg, 8, 1).unwrap();
        for c in [1usize, 2, 4, 8] {
            let row = run_fused(&prob, MachineModel::cori_knl(), 8, alg, c, 1);
            assert!(best.total_s <= row.total_s + 1e-12);
        }
    }

    #[test]
    fn baseline_runs() {
        let prob = Arc::new(GlobalProblem::erdos_renyi(64, 64, 8, 4, 502));
        let row = run_baseline(&prob, MachineModel::cori_knl(), 4, 2);
        assert!(row.total_s > 0.0);
        assert!(row.prop_s > 0.0, "baseline must fetch remote rows");
    }
}
