//! Wall-clock benchmark of record for `distributed-sparse-kernels`.
//!
//! [`run`] measures one workload end to end through the program's public
//! entry points and, in a traced run, adds the per-layer probes; the
//! binary (`src/main.rs`) prints the result. See `README.md` for the
//! metrics and the workloads.

pub mod layers;
pub mod measure;
pub mod report;
pub mod spans;
pub mod summary;
pub mod workload;

use std::sync::Arc;
use std::time::Instant;

use distributed_sparse_kernels::comm::launch::is_worker_process;
use distributed_sparse_kernels::kernels::{fused_flops, LocalKernel};
use distributed_sparse_kernels::prelude::*;

use layers::{CommProbe, KernelProbe};
use measure::{epoch, run_epoch, EpochCtx, EpochOut, Ops};
use spans::span;
use summary::median;
use workload::{Workload, P, SCALE};

/// Set-up-only epochs per run (every measured epoch adds one more
/// set-up sample).
pub const SETUP_REPS: usize = 4;
/// Empty epochs per run; the first one creates the world (for sockets,
/// the process pool).
pub const EMPTY_EPOCHS: usize = 3;

/// What to run.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed ops.
    pub seconds: f64,
    /// Traced run: per-layer probes and spans.
    pub trace: bool,
    /// Log₂ of the matrix side ([`SCALE`] for the record; tests use
    /// less).
    pub scale: u32,
    /// Set-up-only epochs before the measured ones.
    pub setup_reps: usize,
    /// Measured epochs; `seconds` is split evenly among them.
    pub epochs: usize,
    /// The backend the worlds run on (the workload's own for the
    /// record; tests cross-check another).
    pub backend: BackendKind,
}

impl Config {
    /// The benchmark's configuration for `workload` at full scale.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            scale: SCALE,
            setup_reps: SETUP_REPS,
            epochs: workload.epochs(),
            backend: workload.backend(),
        }
    }
}

/// Per-op counters of the measured epochs: sums over ranks for counts,
/// maxima over ranks for times.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PerOp {
    /// Timed ops the counters cover.
    pub ops: usize,
    /// Words sent, all ranks, per op.
    pub words: f64,
    /// Messages sent, all ranks, per op.
    pub msgs: f64,
    /// Encoded bytes sent, all ranks, per op.
    pub wire_bytes: f64,
    /// Flops counted by the program, all ranks, per op.
    pub flops: f64,
    /// Receive stall, slowest rank, ms per op.
    pub stall_ms: f64,
    /// Measured wall per phase (slowest rank), ms per op, in
    /// [`REPORTED_PHASES`] order.
    pub wall_ms: [f64; 5],
    /// Modeled time per phase (slowest rank), ms per op.
    pub modeled_ms: [f64; 5],
    /// Measured wall of every other non-setup phase, ms per op.
    pub other_wall_ms: f64,
}

/// The phases the per-op breakdown reports (paper Fig. 5 and Fig. 9).
pub const REPORTED_PHASES: [Phase; 5] = [
    Phase::Replication,
    Phase::Propagation,
    Phase::Computation,
    Phase::OutsideComm,
    Phase::OutsideCompute,
];

impl PerOp {
    /// Counters of the timed ops of the measured epochs, from every
    /// rank's snapshots: each rank's deltas are summed over the epochs,
    /// then counts are summed and times maximized over ranks.
    pub fn from_epochs(epochs: &[Vec<EpochOut>]) -> PerOp {
        let ops: usize = epochs
            .iter()
            .map(|outs| outs[0].op_ms.len() + outs[0].traced_op_ms.len())
            .sum();
        let n = ops.max(1) as f64;
        let mut per = PerOp {
            ops,
            ..PerOp::default()
        };
        // Counts add up as integers and divide once, so equal totals give
        // bit-identical per-op values.
        let (mut words, mut msgs, mut wire, mut flops) = (0u64, 0u64, 0u64, 0u64);
        for rank in 0..epochs[0].len() {
            let mut stall = 0.0;
            let mut other = 0.0;
            let mut wall = [0.0; 5];
            let mut modeled = [0.0; 5];
            for outs in epochs {
                let o = &outs[rank];
                for phase in Phase::ALL {
                    let d = measure::delta(&o.warm, &o.end, phase);
                    words += d.words_sent;
                    msgs += d.msgs_sent;
                    wire += d.wire_bytes_sent;
                    flops += d.flops;
                    stall += d.stall_s;
                    match REPORTED_PHASES.iter().position(|&p| p == phase) {
                        Some(i) => {
                            wall[i] += d.wall_s;
                            modeled[i] += d.modeled_s;
                        }
                        None if phase != Phase::Setup => other += d.wall_s,
                        None => {}
                    }
                }
            }
            for i in 0..5 {
                per.wall_ms[i] = per.wall_ms[i].max(wall[i] * 1e3 / n);
                per.modeled_ms[i] = per.modeled_ms[i].max(modeled[i] * 1e3 / n);
            }
            per.stall_ms = per.stall_ms.max(stall * 1e3 / n);
            per.other_wall_ms = per.other_wall_ms.max(other * 1e3 / n);
        }
        per.words = words as f64 / n;
        per.msgs = msgs as f64 / n;
        per.wire_bytes = wire as f64 / n;
        per.flops = flops as f64 / n;
        per
    }
}

/// Everything one run measured (rank 0's process).
#[derive(Clone, Debug)]
pub struct Record {
    /// The configuration run.
    pub cfg: Config,
    /// Matrix rows, columns, nonzeros and dense width.
    pub shape: (usize, usize, usize, usize),
    /// Set-up samples, seconds (staging through every rank ready).
    pub setup_s: Vec<f64>,
    /// Staging samples, ms.
    pub stage_ms: Vec<f64>,
    /// Build samples on rank 0, ms.
    pub build_ms: Vec<f64>,
    /// Local-tuning phase wall of each build (slowest rank), ms.
    pub local_tuning_ms: Vec<f64>,
    /// Pattern-exchange phase wall of each build (slowest rank), ms.
    pub pattern_exchange_ms: Vec<f64>,
    /// Empty-epoch samples, ms; the first includes world creation.
    pub empty_epoch_ms: Vec<f64>,
    /// Untraced timed ops, ms.
    pub op_ms: Vec<f64>,
    /// Traced timed ops, ms (traced runs only).
    pub traced_op_ms: Vec<f64>,
    /// Median op of each measured epoch, ms.
    pub epoch_op_p50_ms: Vec<f64>,
    /// Checks made and checks failed.
    pub checked: usize,
    /// Checks failed.
    pub failed: usize,
    /// Largest relative error of a checked fused output.
    pub max_rel_err: f64,
    /// ALS losses of the first measured epoch: before the warm-up
    /// sweep, then after every sweep.
    pub losses: Vec<f64>,
    /// Last CG residual (ALS).
    pub residual: f64,
    /// Per-op counters.
    pub per_op: PerOp,
    /// Useful flops per op.
    pub useful_flops_per_op: f64,
    /// Peak resident memory of the rank-0 process after the measurement
    /// epoch, MiB.
    pub peak_rss_mb: f64,
    /// The plan built.
    pub plan: KernelPlan,
    /// The plan's local variant as `plan_candidates` resolves it after
    /// each measured epoch's build.
    pub plan_local_variants: Vec<LocalKernel>,
    /// Time of one `KernelBuilder::plan`, ms.
    pub plan_ms: f64,
    /// One serial reference FusedMM-B, ms (NaN when not timed).
    pub serial_ref_ms: f64,
    /// Traced-run extras.
    pub traced: Option<Traced>,
}

/// What only the traced run measures.
#[derive(Clone, Debug)]
pub struct Traced {
    /// Local kernels on the rank-0 block.
    pub kernels: Vec<KernelProbe>,
    /// Point-to-point and collective costs.
    pub comm: CommProbe,
    /// Memory copy bandwidth, GB/s.
    pub copy_gbps: f64,
    /// Bytes of each copy array.
    pub copy_bytes: usize,
    /// Self time per layer over the whole run, ms.
    pub self_ms: Vec<(&'static str, f64)>,
    /// Self time per layer within the traced ops (`bench.op` spans),
    /// ms per traced op.
    pub op_self_ms: Vec<(&'static str, f64)>,
    /// Spans recorded.
    pub spans: Vec<spans::Span>,
}

impl Record {
    /// Median set-up time, seconds.
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_s)
    }

    /// Median untraced op time, ms.
    pub fn op_p50_ms(&self) -> f64 {
        median(&self.op_ms)
    }

    /// Useful GFLOP/s over the untraced timed ops.
    pub fn gflops(&self) -> f64 {
        let secs: f64 = self.op_ms.iter().sum::<f64>() * 1e-3;
        self.useful_flops_per_op * self.op_ms.len() as f64 / secs * 1e-9
    }

    /// Failed checks over checks made.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.checked.max(1) as f64
    }
}

/// The local variant `plan_candidates` resolves for `plan` from a built
/// staging's tuning cache, and the time of one `KernelBuilder::plan`, ms.
fn plan_variant(
    w: Workload,
    staged: &Arc<StagedProblem>,
    plan: Option<KernelPlan>,
) -> (LocalKernel, f64) {
    let plan = plan.expect("every rank builds a plan");
    let builder = w.builder(Arc::clone(staged));
    let t = Instant::now();
    {
        let _s = span("core.plan");
        builder.plan(P);
    }
    let plan_ms = t.elapsed().as_secs_f64() * 1e3;
    let variant = builder
        .plan_candidates(P)
        .into_iter()
        .find(|c| {
            Some(c.algorithm) == plan.algorithm() && c.c == plan.c && c.routing == plan.routing
        })
        .map_or(LocalKernel::Naive, |c| c.local_variant);
    (variant, plan_ms)
}

/// Run one workload. Returns `None` in spawned socket rank processes,
/// which only take part in the epochs.
pub fn run(cfg: &Config) -> Option<Record> {
    let w = cfg.workload;
    let rank0_process = !is_worker_process();
    spans::enable(cfg.trace);
    let _adopt = spans::adopt(None);
    let root = span("bench.run");
    // Modeled time is charged with the planner's default machine model.
    let world = SimWorld::new(P, MachineModel::cori_knl()).backend(cfg.backend);

    let mut empty_epoch_ms = Vec::new();
    for _ in 0..EMPTY_EPOCHS {
        let t = Instant::now();
        run_epoch(&world, |_, _| ());
        empty_epoch_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    let prob = {
        let _s = span("bench.inputs");
        Arc::new(w.problem(cfg.scale, cfg.seed))
    };
    let (m, n, r, nnz) = (prob.dims.m, prob.dims.n, prob.dims.r, prob.nnz());
    let needs_reference = w != Workload::AlsRmat || cfg.trace;
    let (reference, serial_ref_ms) = if rank0_process && needs_reference {
        let t = Instant::now();
        let reference = {
            let _s = span("core.reference_fused_b");
            prob.reference_fused_b()
        };
        (Some(reference), t.elapsed().as_secs_f64() * 1e3)
    } else {
        (None, f64::NAN)
    };

    let mut setup_s = Vec::new();
    let mut stage_ms = Vec::new();
    let mut build_ms = Vec::new();
    let mut local_tuning_ms = Vec::new();
    let mut pattern_exchange_ms = Vec::new();
    let phase_ms = |outs: &[EpochOut], phase: Phase| {
        outs.iter()
            .map(|o| o.built.phase(phase).wall_s * 1e3)
            .fold(0.0, f64::max)
    };
    // Each measured epoch stages and builds afresh, so its ops run on an
    // independent set-up (tuner picks included); ops pool across them.
    let slice_s = cfg.seconds / cfg.epochs as f64;
    let mut epochs: Vec<Vec<EpochOut>> = Vec::new();
    let mut plan_local_variants = Vec::new();
    let mut plan_ms = f64::NAN;
    for e in 0..cfg.setup_reps + cfg.epochs {
        let measure = e >= cfg.setup_reps;
        let t0 = Instant::now();
        let staged = {
            let _s = span("core.stage");
            Arc::new(StagedProblem::new(Arc::clone(&prob)))
        };
        stage_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let ctx = EpochCtx {
            workload: w,
            staged: Arc::clone(&staged),
            reference: reference.as_ref().filter(|_| w != Workload::AlsRmat),
            t0,
            ops: match (measure, cfg.trace) {
                (false, _) => Ops::None,
                (true, false) => Ops::Timed {
                    untraced_s: slice_s,
                    traced_s: 0.0,
                },
                (true, true) => Ops::Timed {
                    untraced_s: slice_s / 2.0,
                    traced_s: slice_s / 2.0,
                },
            },
        };
        let outs: Vec<EpochOut> = run_epoch(&world, |comm, parent| epoch(&ctx, comm, parent))
            .into_iter()
            .map(|o| o.value)
            .collect();
        setup_s.push(outs[0].ready_s);
        build_ms.push(outs[0].build_ms);
        local_tuning_ms.push(phase_ms(&outs, Phase::LocalTuning));
        pattern_exchange_ms.push(phase_ms(&outs, Phase::PatternExchange));
        if measure {
            if rank0_process {
                let (variant, ms) = plan_variant(w, &staged, outs[0].plan);
                plan_local_variants.push(variant);
                plan_ms = ms;
            }
            epochs.push(outs);
        }
    }
    let peak_rss_mb = layers::peak_rss_mb();

    let tile_len = m.div_ceil(P) * r;
    let comm_probe = cfg.trace.then(|| {
        let v = run_epoch(&world, |comm, parent| {
            let _adopt = (comm.rank() == 0).then(|| spans::adopt(parent));
            layers::probe_comm(comm, tile_len)
        });
        let v = &v[0].value;
        CommProbe {
            alpha_us: v[0],
            tile_ms: v[1],
            tile_bytes: (tile_len * 8) as f64,
            allgather_ms: v[2],
        }
    });
    if !rank0_process {
        return None;
    }

    let plan = epochs[0][0].plan.expect("every rank builds a plan");
    assert!(
        epochs.iter().all(|outs| outs[0].plan == Some(plan)),
        "the planner is deterministic"
    );
    let rank0: Vec<&EpochOut> = epochs.iter().map(|outs| &outs[0]).collect();
    let mut checks: Vec<u64> = rank0
        .iter()
        .flat_map(|o| o.checks.iter().copied())
        .collect();
    // ALS from the same seed must retrace the same losses in every
    // independent set-up, through the sweep `apps.final_loss` is read at.
    let losses: Vec<Vec<f64>> = rank0.iter().map(|o| o.losses.clone()).collect();
    for other in losses.iter().skip(1).filter(|_| w == Workload::AlsRmat) {
        let same = losses[0]
            .iter()
            .zip(other)
            .take(measure::FINAL_LOSS_SWEEPS + 1)
            .all(|(a, b)| (a - b).abs() <= measure::LOSS_REPEAT_TOL * a.abs());
        checks.push(u64::from(same));
    }
    let failed = checks.iter().filter(|&&c| c == 0).count();
    let per_op = PerOp::from_epochs(&epochs);
    let useful_flops_per_op = match w {
        Workload::AlsRmat => per_op.flops,
        _ => fused_flops(nnz, r) as f64,
    };
    let op_ms: Vec<f64> = rank0.iter().flat_map(|o| o.op_ms.iter().copied()).collect();
    let epoch_op_p50_ms = rank0
        .iter()
        .map(|o| {
            median(if o.op_ms.is_empty() {
                &o.traced_op_ms
            } else {
                &o.op_ms
            })
        })
        .collect();
    let traced_op_ms: Vec<f64> = rank0
        .iter()
        .flat_map(|o| o.traced_op_ms.iter().copied())
        .collect();

    let traced = cfg.trace.then(|| {
        let kernels = {
            let _s = span("bench.kernel_probes");
            layers::probe_kernels(&layers::rank0_block(&prob, P), r)
        };
        let copy_bytes = 4 * layers::llc_bytes();
        let copy_gbps = layers::copy_gbps(copy_bytes);
        drop(root);
        let spans = spans::take();
        let self_ms = spans::self_ms_by_layer(&spans).into_iter().collect();
        let traced_ops = traced_op_ms.len().max(1) as f64;
        let op_self_ms = spans::self_ms_by_layer_within(&spans, "bench.op")
            .into_iter()
            .map(|(layer, ms)| (layer, ms / traced_ops))
            .collect();
        Traced {
            kernels,
            comm: comm_probe.unwrap_or_default(),
            copy_gbps,
            copy_bytes,
            self_ms,
            op_self_ms,
            spans,
        }
    });

    Some(Record {
        cfg: cfg.clone(),
        shape: (m, n, nnz, r),
        setup_s,
        stage_ms,
        build_ms,
        local_tuning_ms,
        pattern_exchange_ms,
        empty_epoch_ms,
        op_ms,
        traced_op_ms,
        epoch_op_p50_ms,
        checked: checks.len(),
        failed,
        max_rel_err: rank0.iter().map(|o| o.max_rel_err).fold(0.0, f64::max),
        losses: losses.into_iter().next().unwrap_or_default(),
        residual: rank0.last().map_or(f64::NAN, |o| o.residual),
        per_op,
        useful_flops_per_op,
        peak_rss_mb,
        plan,
        plan_local_variants,
        plan_ms,
        serial_ref_ms,
        traced,
    })
}
