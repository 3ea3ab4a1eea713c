//! # dsk-core — distributed-memory SDDMM, SpMM, and FusedMM
//!
//! The paper's contribution, implemented end to end behind one
//! abstraction: sparsity-agnostic distributed algorithms for
//!
//! * **SDDMM** — `R = S ∗ (A·Bᵀ)`,
//! * **SpMMA** — `S·B` (A-shaped output) and **SpMMB** — `Sᵀ·A`
//!   (B-shaped output),
//! * **FusedMM** — SDDMM immediately followed by an SpMM on its output,
//!
//! in the four algorithm families of the paper's Figure 2 / Table II,
//! each a crate-private module holding one `impl DistKernel` (built
//! through [`kernel::KernelBuilder`], never named outside the crate):
//!
//! | module | family | stays put | travels the ring | replicated on the fiber |
//! |--------|--------|-----------|------------------|-------------------------|
//! | `ds15` | 1.5D dense-shifting | `S` | one dense matrix | the other dense matrix |
//! | `ss15` | 1.5D sparse-shifting | one dense matrix | `S` | the other dense matrix |
//! | `dr25` | 2.5D dense-replicating | — | `S` and one dense matrix | the other dense matrix |
//! | `sr25` | 2.5D sparse-replicating | the `S` pattern | both dense matrices | `S` values |
//!
//! plus the PETSc-like 1D block-row `baseline`.
//!
//! ## Architecture: one trait, one planner, one plan view
//!
//! All five implementations sit behind the [`kernel::DistKernel`]
//! trait, which captures the entire surface applications need — the
//! kernels themselves, the communication-eliding FusedMM variants, the
//! generalized-combine SDDMM used by graph attention, the R-value
//! manipulation pipeline (map / row-sum / scale / loss), iterate
//! layouts, distribution shifts, and row-sharing groups. A family
//! implements only what differs between families — its schedules and
//! its R storage. What is the same in every kernel is a provided trait
//! method: `supports`, `gather_r`, and the layout, pattern-bound and
//! row-group descriptors, which all read the kernel's
//! [`planview::PlanView`]. Harness and application code holds a
//! [`worker::DistWorker`] (a `Box<dyn DistKernel>` plus its
//! construction plan) and never names a concrete family type; dispatch
//! happens once, at construction.
//!
//! Construction goes through [`kernel::KernelBuilder`], the planning
//! layer on top of [`theory`]: `.auto()` (the default) evaluates the
//! paper's Table III/IV cost model — the Figure 6 phase diagram — and
//! picks the predicted-cheapest algorithm, replication factor `c`, and
//! elision for the problem shape at hand; `.family(f)`,
//! `.replication(c)`, `.elision(e)`, and `.baseline()` pin any subset
//! of the decision explicitly. The decision itself
//! ([`kernel::KernelBuilder::plan`]) is a pure function of the problem
//! statistics, so it is unit-testable without spinning up a simulated
//! world.
//!
//! ## Paper section ↔ trait method map
//!
//! | paper | trait surface |
//! |-------|---------------|
//! | §III kernel definitions | [`DistKernel::sddmm`], [`spmm_a`](kernel::DistKernel::spmm_a), [`spmm_b`](kernel::DistKernel::spmm_b) |
//! | §IV FusedMM & elision (Fig. 3) | [`fused_mm_a`](kernel::DistKernel::fused_mm_a), [`fused_mm_b`](kernel::DistKernel::fused_mm_b), [`supports`](kernel::DistKernel::supports), [`Elision`] |
//! | §V per-family algorithms (Table II) | the `impl DistKernel` blocks in `ds15`, `ss15`, `dr25`, `sr25`, `baseline` |
//! | §V-E communication analysis (Tables III & IV) | [`theory`] — consumed by [`kernel::KernelBuilder::plan`] |
//! | §VI-C best-algorithm prediction (Fig. 6) | [`kernel::KernelBuilder::auto`] / [`theory::predict_best`] |
//! | §VI-E generalized SDDMM (GAT logits) | [`sddmm_general`](kernel::DistKernel::sddmm_general), [`kernel::CombineSpec`] |
//! | §VI-E softmax & ALS plumbing | [`map_r`](kernel::DistKernel::map_r), [`r_row_sums`](kernel::DistKernel::r_row_sums), [`scale_r_rows`](kernel::DistKernel::scale_r_rows), [`spmm_a_with`](kernel::DistKernel::spmm_a_with), [`sq_loss_local`](kernel::DistKernel::sq_loss_local) |
//! | Fig. 9 distribution shifts & row-sharing dots | [`set_a`](kernel::DistKernel::set_a)/[`set_b`](kernel::DistKernel::set_b), [`rhs_a`](kernel::DistKernel::rhs_a)/[`rhs_b`](kernel::DistKernel::rhs_b), [`row_group_a`](kernel::DistKernel::row_group_a)/[`row_group_b`](kernel::DistKernel::row_group_b) |
//! | Table II data distributions | [`view`](kernel::DistKernel::view) ([`planview::PlanView`]), [`a_iterate_layout_of`](kernel::DistKernel::a_iterate_layout_of) et al., [`layout`] |
//!
//! Each family supports the communication-eliding strategies the paper
//! allows for it ([`Elision`]): *replication reuse* (one replication
//! serves both kernels) and — for 1.5D dense shifting only — *local
//! kernel fusion* (one propagation round computing the fused kernel).

// Indexed `for i in 0..n` loops over CSR index structures are the
// domain idiom throughout this workspace; the iterator rewrites
// clippy suggests obscure the sparse-index arithmetic.
#![allow(clippy::needless_range_loop)]

pub(crate) mod baseline;
pub mod common;
pub(crate) mod dr25;
pub(crate) mod ds15;
pub mod global;
pub mod kernel;
pub mod layout;
pub mod planview;
pub mod session;
pub(crate) mod sr25;
pub(crate) mod ss15;
pub mod staged;
pub mod theory;
pub mod wire;
pub mod worker;

pub use common::{
    AlgorithmFamily, Elision, InFlight, MatInFlight, ProblemDims, Routing, Sampling, ShiftMode,
    ShiftModeGuard, ShiftPipeline, SHIFT_MODE_ENV_VAR,
};
pub use global::GlobalProblem;
pub use kernel::{CombineSpec, DistKernel, KernelBuilder, KernelId, KernelPlan};
pub use planview::PlanView;
pub use session::{ReplanEvent, ReplanPolicy, Session, SessionBuilder};
pub use staged::StagedProblem;
pub use worker::DistWorker;
