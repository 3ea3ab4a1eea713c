//! The three workloads: their inputs (a pure function of the seed), the
//! backend they run on, and how each configures the program.
//!
//! * `fused-compute` — the planner's own pick for a compute-heavy
//!   FusedMM-B (φ = 0.25, r = 64). At p = 2 the pick replicates the
//!   sparse matrix and shifts nothing, so local kernels and the tuner
//!   dominate and the transport is bypassed.
//! * `fused-comm` — the paper's Alg. 1 (1.5D dense shifting with local
//!   kernel fusion) pinned at c = 1 on a very sparse input (φ = 1/64,
//!   r = 128) with every rank its own process on the socket backend:
//!   propagation and replication dominate, computation is small.
//! * `als-rmat` — one ALS sweep (paper §VI-E, Fig. 9) on the heavy-tailed
//!   amazon-large R-MAT surrogate through an auto-planned session: the
//!   same kernel and comm layers on skewed rows, plus application work
//!   outside the kernels.

use std::sync::Arc;

use distributed_sparse_kernels::apps::AlsConfig;
use distributed_sparse_kernels::prelude::*;
use distributed_sparse_kernels::sparse::gen::PAPER_MATRICES;

/// Ranks per world: one per core of the 2-core host the record was
/// taken on.
pub const P: usize = 2;

/// Log₂ of the side of every workload's sparse matrix.
pub const SCALE: u32 = 15;

/// The ALS configuration of the `als-rmat` op: one sweep of 10 + 10 CG
/// iterations (the paper's Fig. 9 setting).
pub const ALS: AlsConfig = AlsConfig {
    lambda: 0.05,
    cg_iters: 10,
    sweeps: 1,
    track_loss: false,
};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Auto-planned FusedMM-B, compute-bound.
    FusedCompute,
    /// Pinned 1.5D dense shift + local kernel fusion over sockets,
    /// communication-bound.
    FusedComm,
    /// One ALS sweep on the R-MAT surrogate.
    AlsRmat,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::FusedCompute,
        Workload::FusedComm,
        Workload::AlsRmat,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FusedCompute => "fused-compute",
            Workload::FusedComm => "fused-comm",
            Workload::AlsRmat => "als-rmat",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The backend the workload's worlds run on.
    pub fn backend(self) -> BackendKind {
        match self {
            Workload::FusedComm => BackendKind::Socket,
            _ => BackendKind::InProc,
        }
    }

    /// Generate the workload's input at side `2^scale` from `seed`.
    pub fn problem(self, scale: u32, seed: u64) -> GlobalProblem {
        let side = 1usize << scale;
        match self {
            Workload::FusedCompute => GlobalProblem::erdos_renyi(side, side, 64, 16, seed),
            Workload::FusedComm => GlobalProblem::erdos_renyi(side, side, 128, 2, seed),
            Workload::AlsRmat => {
                dsk_bench::workloads::strong_surrogate(&PAPER_MATRICES[0], scale, seed)
            }
        }
    }

    /// The kernel builder the workload plans and builds with.
    pub fn builder(self, staged: Arc<StagedProblem>) -> KernelBuilder<'static> {
        let b = KernelBuilder::from_staged_arc(staged);
        match self {
            Workload::FusedComm => b
                .family(AlgorithmFamily::DenseShift15)
                .elision(Elision::LocalKernelFusion)
                .replication(1)
                .routing(Routing::Dense),
            _ => b.auto(),
        }
    }

    /// Measured epochs per run: each stages and builds afresh. ALS
    /// sweeps are long, so it gets fewer, longer epochs.
    pub fn epochs(self) -> usize {
        match self {
            Workload::AlsRmat => 5,
            _ => 8,
        }
    }

    /// FusedMM calls per op.
    pub fn fused_calls_per_op(self) -> usize {
        match self {
            Workload::AlsRmat => 2 * ALS.cg_iters,
            _ => 1,
        }
    }
}
