//! One epoch of the end-to-end measurement: build the workload on every
//! rank and, in a measured epoch, run a warm-up op and a timed closed
//! loop of ops, checking outputs against the serial reference.
//!
//! Everything here is SPMD: under the socket backend the benchmark
//! binary is re-executed once per extra rank, and every process must
//! issue the same sequence of `SimWorld::run` epochs. Epoch counts
//! therefore never depend on time; the timed loop ends by a collective
//! vote inside one epoch.

use std::sync::Arc;
use std::time::Instant;

use distributed_sparse_kernels::apps::{AlsSolver, AppEngine};
use distributed_sparse_kernels::comm::{
    Payload, PhaseCounters, RankOutcome, RankStats, WirePayload, WireReader,
};
use distributed_sparse_kernels::core::layout::gather_dense;
use distributed_sparse_kernels::prelude::*;

use crate::spans::{self, span};
use crate::workload::{Workload, ALS};

/// Largest accepted `max |got − ref| / max |ref|` for a fused output.
pub const FUSED_REL_TOL: f64 = 1e-9;
/// Largest accepted relative rise of the ALS loss from one sweep to the
/// next.
pub const LOSS_RISE_TOL: f64 = 1e-9;
/// Largest accepted relative difference between the ALS losses of two
/// set-ups of one seed after the same number of sweeps. Set-ups may tune
/// different local variants, which sum in different orders; ALS
/// amplifies those rounding differences to about 1e-4 within three
/// sweeps on `als-rmat` (measured), while the same variants reproduce
/// the losses bit for bit.
pub const LOSS_REPEAT_TOL: f64 = 1e-3;
/// Sweeps (the warm-up included) through which set-ups must agree, and
/// after which `apps.final_loss` is read: the differences keep growing
/// with more sweeps.
pub const FINAL_LOSS_SWEEPS: usize = 3;

/// A built, ready-to-run rank.
enum Live {
    Fused {
        worker: DistWorker,
        elision: Elision,
    },
    Als {
        engine: Box<AppEngine>,
        solver: AlsSolver,
    },
}

impl Live {
    fn build(w: Workload, staged: &Arc<StagedProblem>, comm: &Comm) -> Live {
        let _s = span("core.build");
        match w {
            Workload::AlsRmat => {
                let session = Session::builder_staged(Arc::clone(staged))
                    .auto()
                    .build(comm);
                Live::Als {
                    engine: Box::new(AppEngine::new(session)),
                    solver: AlsSolver::new(ALS),
                }
            }
            _ => {
                let worker = w.builder(Arc::clone(staged)).build(comm);
                let elision = worker.plan().elision;
                Live::Fused { worker, elision }
            }
        }
    }

    fn plan(&self) -> KernelPlan {
        match self {
            Live::Fused { worker, .. } => worker.plan(),
            Live::Als { engine, .. } => engine.session().plan(),
        }
    }

    /// One op. Returns the fused output (fused workloads) or the last CG
    /// phase residual (ALS).
    fn op(&mut self) -> Result<Mat, f64> {
        match self {
            Live::Fused { worker, elision } => {
                let _s = span("core.fused_mm_b");
                Ok(worker.fused_mm_b(None, *elision, Sampling::Values))
            }
            Live::Als { engine, solver } => {
                let _s = span("apps.als_sweep");
                let report = solver.solve(engine);
                Err(report.phase_residuals.last().copied().unwrap_or(f64::NAN))
            }
        }
    }

    /// The ALS loss, outside the accounting.
    fn loss(&mut self, comm: &Comm) -> f64 {
        match self {
            Live::Als { engine, .. } => {
                let _s = span("apps.loss");
                let _p = comm.paused_stats();
                engine.loss()
            }
            Live::Fused { .. } => f64::NAN,
        }
    }

    /// Gather a fused output to rank 0 and compare it with `reference`.
    /// Returns the relative error on rank 0 (`0` elsewhere).
    fn fused_error(&self, comm: &Comm, out: &Mat, reference: Option<&Mat>) -> f64 {
        let Live::Fused { worker, .. } = self else {
            return 0.0;
        };
        let _s = span("core.gather_dense");
        let k = worker.kernel();
        let dims = k.dims();
        let got = gather_dense(comm, 0, out, |g| k.b_iterate_layout_of(g), dims.n, dims.r);
        match (got, reference) {
            (Some(got), Some(want)) => {
                let scale = want.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
                let diff = got
                    .as_slice()
                    .iter()
                    .zip(want.as_slice())
                    .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
                if diff.is_finite() {
                    diff / scale.max(f64::MIN_POSITIVE)
                } else {
                    f64::INFINITY
                }
            }
            _ => 0.0,
        }
    }
}

/// What one epoch reports per rank (rank 0's timings are the ones
/// used).
#[derive(Clone, Debug, Default)]
pub struct EpochOut {
    /// Seconds from the start of staging to every rank ready to run.
    pub ready_s: f64,
    /// Milliseconds this rank spent building its kernel.
    pub build_ms: f64,
    /// Untraced timed ops, milliseconds each.
    pub op_ms: Vec<f64>,
    /// Traced timed ops, milliseconds each.
    pub traced_op_ms: Vec<f64>,
    /// Outcome of each check: 1 passed, 0 failed.
    pub checks: Vec<u64>,
    /// Largest relative error of a checked fused output.
    pub max_rel_err: f64,
    /// ALS loss before the warm-up sweep, then after every sweep.
    pub losses: Vec<f64>,
    /// Last CG phase residual of the last ALS sweep.
    pub residual: f64,
    /// Counters right after the build.
    pub built: RankStats,
    /// Counters after the warm-up op.
    pub warm: RankStats,
    /// Counters after the last timed op.
    pub end: RankStats,
    /// The plan the rank built.
    pub plan: Option<KernelPlan>,
}

impl Payload for EpochOut {
    fn words(&self) -> usize {
        8 + self.op_ms.len() + self.traced_op_ms.len() + self.checks.len() + self.losses.len()
    }
}

impl WirePayload for EpochOut {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.ready_s.encode(buf);
        self.build_ms.encode(buf);
        self.op_ms.encode(buf);
        self.traced_op_ms.encode(buf);
        self.checks.encode(buf);
        self.max_rel_err.encode(buf);
        self.losses.encode(buf);
        self.residual.encode(buf);
        self.built.encode(buf);
        self.warm.encode(buf);
        self.end.encode(buf);
        self.plan.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        EpochOut {
            ready_s: f64::decode(r),
            build_ms: f64::decode(r),
            op_ms: Vec::<f64>::decode(r),
            traced_op_ms: Vec::<f64>::decode(r),
            checks: Vec::<u64>::decode(r),
            max_rel_err: f64::decode(r),
            losses: Vec::<f64>::decode(r),
            residual: f64::decode(r),
            built: RankStats::decode(r),
            warm: RankStats::decode(r),
            end: RankStats::decode(r),
            plan: Option::<KernelPlan>::decode(r),
        }
    }
}

/// How long an epoch runs ops after building.
#[derive(Clone, Copy, Debug)]
pub enum Ops {
    /// Build only (a set-up repetition).
    None,
    /// Warm up, then run untraced ops for `untraced_s` seconds and
    /// traced ops for `traced_s` seconds.
    Timed { untraced_s: f64, traced_s: f64 },
}

/// Everything an epoch closure needs, shared by every rank.
pub struct EpochCtx<'a> {
    /// The workload.
    pub workload: Workload,
    /// Fresh staging for this epoch.
    pub staged: Arc<StagedProblem>,
    /// The serial reference fused output (rank 0's process only).
    pub reference: Option<&'a Mat>,
    /// When staging started.
    pub t0: Instant,
    /// What to run after building.
    pub ops: Ops,
}

/// The body of one epoch on one rank.
/// `parent` is the span that launched the world.
pub fn epoch(ctx: &EpochCtx<'_>, comm: &Comm, parent: Option<usize>) -> EpochOut {
    let rank0 = comm.rank() == 0;
    let _adopt = rank0.then(|| spans::adopt(parent));
    let _rank = span("bench.rank0");
    let tb = Instant::now();
    let mut live = Live::build(ctx.workload, &ctx.staged, comm);
    let build_ms = tb.elapsed().as_secs_f64() * 1e3;
    {
        let _p = comm.paused_stats();
        comm.barrier();
    }
    let mut out = EpochOut {
        ready_s: ctx.t0.elapsed().as_secs_f64(),
        build_ms,
        plan: Some(live.plan()),
        built: comm.stats_snapshot(),
        ..EpochOut::default()
    };
    let Ops::Timed {
        untraced_s,
        traced_s,
    } = ctx.ops
    else {
        return out;
    };

    let als = ctx.workload == Workload::AlsRmat;
    if als {
        out.losses.push(live.loss(comm));
    }
    {
        let _s = span("bench.warmup");
        if let Err(resid) = live.op() {
            out.residual = resid;
        }
    }
    if als {
        out.losses.push(live.loss(comm));
    }
    out.warm = comm.stats_snapshot();

    for (budget_s, traced) in [(untraced_s, false), (traced_s, true)] {
        if budget_s <= 0.0 {
            continue;
        }
        let samples = {
            let _s = span(if traced {
                "bench.traced_ops"
            } else {
                "bench.untraced_ops"
            });
            // Recording is process-wide; only rank 0 switches it.
            let recording = spans::is_enabled();
            if rank0 {
                spans::enable(recording && traced);
            }
            let samples = timed_loop(comm, &mut live, budget_s, ctx.reference, &mut out);
            if rank0 {
                spans::enable(recording);
            }
            samples
        };
        if traced {
            out.traced_op_ms = samples;
        } else {
            out.op_ms = samples;
        }
    }
    out.end = comm.stats_snapshot();
    out
}

/// Run ops back to back until any rank's clock passes `budget_s`; the
/// stop vote is an all-reduce outside the accounting, so it also makes
/// each op's time the slowest rank's. Checks the first and last fused
/// output, and the loss after every ALS sweep.
fn timed_loop(
    comm: &Comm,
    live: &mut Live,
    budget_s: f64,
    reference: Option<&Mat>,
    out: &mut EpochOut,
) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let (result, stop) = {
            let _op = span("bench.op");
            let t = Instant::now();
            let result = live.op();
            let stop = {
                let _s = span("comm.allreduce");
                let _p = comm.paused_stats();
                let late = start.elapsed().as_secs_f64() >= budget_s;
                comm.allreduce_scalar(if late { 1.0 } else { 0.0 }) > 0.0
            };
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            (result, stop)
        };
        match result {
            Ok(fused) => {
                if samples.len() == 1 || stop {
                    let err = live.fused_error(comm, &fused, reference);
                    out.max_rel_err = out.max_rel_err.max(err);
                    out.checks.push(u64::from(err <= FUSED_REL_TOL));
                }
            }
            Err(resid) => {
                out.residual = resid;
                let prev = *out.losses.last().expect("loss recorded before the warm-up");
                let loss = live.loss(comm);
                out.losses.push(loss);
                let ok = loss.is_finite() && loss <= prev * (1.0 + LOSS_RISE_TOL);
                out.checks.push(u64::from(ok));
            }
        }
        if stop {
            return samples;
        }
    }
}

/// Counters of `end − start`, phase by phase.
pub fn delta(start: &RankStats, end: &RankStats, phase: Phase) -> PhaseCounters {
    let (a, b) = (start.phase(phase), end.phase(phase));
    PhaseCounters {
        msgs_sent: b.msgs_sent - a.msgs_sent,
        words_sent: b.words_sent - a.words_sent,
        msgs_recv: b.msgs_recv - a.msgs_recv,
        words_recv: b.words_recv - a.words_recv,
        wire_bytes_sent: b.wire_bytes_sent - a.wire_bytes_sent,
        flops: b.flops - a.flops,
        modeled_s: b.modeled_s - a.modeled_s,
        wall_s: b.wall_s - a.wall_s,
        stall_s: b.stall_s - a.stall_s,
    }
}

/// Run `f` as an epoch of `world` under a `comm.run` span, handing each
/// rank that span as its parent.
pub fn run_epoch<T: WirePayload>(
    world: &SimWorld,
    f: impl Fn(&mut Comm, Option<usize>) -> T + Sync,
) -> Vec<RankOutcome<T>> {
    let _s = span("comm.run");
    let parent = spans::current();
    world.run(|comm| f(comm, parent))
}
