//! The unified distributed-kernel abstraction: the [`DistKernel`] trait
//! every algorithm family (and the 1D baseline) implements, and the
//! [`KernelBuilder`] planner that picks the theory-predicted cheapest
//! algorithm and replication factor for a problem shape.
//!
//! Before this module existed, each family struct exposed a near-
//! duplicate but incompatible API and every consumer (`DistWorker`, the
//! application engines, the benchmark harness) hand-dispatched with
//! `match` blocks over concrete types. The trait first sat on top of
//! those inherent APIs as a forwarding layer; today each family is a
//! single crate-private `impl DistKernel` with private round loops, and
//! everything the families share is provided here: `supports` (from
//! [`DistKernel::id`]), `gather_r` (over [`DistKernel::export_r`]), and
//! every layout, pattern-bound and row-group descriptor (from the one
//! required [`DistKernel::view`]). [`DistKernel`] captures the full
//! shared surface once:
//!
//! | paper section | trait methods |
//! |---------------|---------------|
//! | §III kernels (SDDMM, SpMMA/B) | [`DistKernel::sddmm`], [`DistKernel::spmm_a`], [`DistKernel::spmm_b`] |
//! | §IV FusedMM + elision | [`DistKernel::fused_mm_a`], [`DistKernel::fused_mm_b`], [`DistKernel::supports`] |
//! | §VI-E generalized SDDMM (GAT logits) | [`DistKernel::sddmm_general`], [`CombineSpec`] |
//! | §VI-E softmax / ALS loss plumbing | [`DistKernel::map_r`], [`DistKernel::r_row_sums`], [`DistKernel::scale_r_rows`], [`DistKernel::sq_loss_local`] |
//! | §VI-E convolution (`α·(H·W)`) | [`DistKernel::spmm_a_with`] |
//! | Table II data distributions | [`DistKernel::view`], [`DistKernel::a_iterate_layout_of`], [`DistKernel::b_iterate_layout_of`], [`DistKernel::spmm_a_with_layout_of`] |
//! | Fig. 9 distribution shifts | [`DistKernel::set_a`], [`DistKernel::set_b`], [`DistKernel::rhs_a`], [`DistKernel::rhs_b`] |
//! | Fig. 9 row-sharing dot products | [`DistKernel::row_group_a`], [`DistKernel::row_group_b`] |
//! | verification | [`DistKernel::gather_r`], [`DistKernel::dims`] |
//!
//! [`KernelBuilder`] sits on top: it resolves a *plan* — which kernel,
//! which replication factor `c`, which elision — either explicitly
//! (`.family(f)`, `.replication(c)`) or automatically (`.auto()`, the
//! default) from the paper's Table III/IV cost model in [`theory`],
//! reproducing the Figure 6 phase-diagram decision at construction time.
//!
//! # R-value mutability contract
//!
//! Trait methods that only *read* the stored R values take `&self`
//! ([`DistKernel::r_row_sums`], [`DistKernel::spmm_a_with`],
//! [`DistKernel::sq_loss_local`], [`DistKernel::gather_r`],
//! [`DistKernel::export_r`]); methods that *write* them take
//! `&mut self` ([`DistKernel::sddmm`], [`DistKernel::sddmm_general`],
//! [`DistKernel::map_r`], [`DistKernel::scale_r_rows`],
//! [`DistKernel::import_r`]). Kernel executions that consume operands
//! without touching R state also stay `&mut self` (they may reuse
//! internal buffers). The trait holds this invariant uniformly so
//! callers can share a worker immutably between R reads.
//!
//! # Runtime re-planning and live migration
//!
//! Construction is no longer the only decision point: a
//! [`Session`](crate::session::Session) can re-run the planner against
//! the *observed* problem (the nonzero count left after `map_r`
//! pruning) and migrate live state to a better family mid-run. The
//! migration state machine:
//!
//! ```text
//!            KernelBuilder::plan            Session::replan(policy)
//!   problem ───────────────────▶ RUNNING ◀───────────────────────┐
//!   shape                          │  │                          │
//!                        observe   │  │ predicted win            │ stay
//!                        nnz(R≠0)  │  │ ≥ hysteresis             │ (win below
//!                                  ▼  ▼                          │ threshold or
//!                               OBSERVED ──────────────────────────┘ same plan)
//!                                     │ migrate
//!                                     ▼
//!                 ┌─ export_r ─ a_iterate/b_iterate ─┐   (old worker)
//!                 │   repartition_dense old → new    │   Phase::Migration
//!                 └─ import_r ─ set_a/set_b ─────────┘   (new worker)
//!                                     │
//!                                     ▼
//!                                  RUNNING   (new family, same iterates,
//!                                             same R values, same loss)
//! ```
//!
//! The moved state is exactly the application surface below: iterates
//! travel through the [`DistKernel::a_iterate_layout_of`] /
//! [`DistKernel::b_iterate_layout_of`] descriptors, and R values
//! through the [`DistKernel::export_r`] / [`DistKernel::import_r`]
//! pair in global coordinates, so no optimizer state is lost.

use std::ops::Range;
use std::sync::Arc;

use dsk_comm::{Comm, MachineModel, Phase};
use dsk_dense::Mat;
use dsk_kernels as kern;
use dsk_sparse::{CooMatrix, CsrMatrix};

use crate::baseline::Baseline1D;
use crate::common::{AlgorithmFamily, Elision, ProblemDims, Routing, Sampling};
use crate::dr25::DenseRepl25;
use crate::ds15::DenseShift15;
use crate::global::GlobalProblem;
use crate::layout::DenseLayout;
use crate::planview::{PlanView, Side};
use crate::sr25::SparseRepl25;
use crate::ss15::SparseShift15;
use crate::staged::StagedProblem;
use crate::theory::{self, Algorithm};
use crate::worker::DistWorker;

/// Owned description of the per-nonzero SDDMM combine, sliceable per
/// r-slice (travel rounds on different fibers see different column
/// slices of the dense operands).
#[derive(Clone)]
pub enum CombineSpec {
    /// Standard dot product.
    Dot,
    /// GAT attention logits: full-width weight vectors, sliced to match
    /// each panel.
    Affine {
        /// Source-side weights (length r).
        w_src: Vec<f64>,
        /// Destination-side weights (length r).
        w_dst: Vec<f64>,
    },
}

impl CombineSpec {
    /// The kernel-level combine restricted to one r-slice.
    pub fn for_slice(&self, slice: std::ops::Range<usize>) -> kern::SddmmCombine<'_> {
        match self {
            CombineSpec::Dot => kern::SddmmCombine::Dot,
            CombineSpec::Affine { w_src, w_dst } => kern::SddmmCombine::AffinePair {
                w_src: &w_src[slice.clone()],
                w_dst: &w_dst[slice],
            },
        }
    }
}

/// Which concrete implementation backs a [`DistKernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelId {
    /// One of the paper's four sparsity-agnostic families.
    Family(AlgorithmFamily),
    /// The PETSc-like 1D block-row baseline.
    Baseline1D,
}

impl KernelId {
    /// Table/legend label.
    pub fn label(&self) -> &'static str {
        match self {
            KernelId::Family(f) => f.label(),
            KernelId::Baseline1D => "PETSc-like 1D (baseline)",
        }
    }

    /// The family, when this is one of the four families.
    pub fn family(&self) -> Option<AlgorithmFamily> {
        match self {
            KernelId::Family(f) => Some(*f),
            KernelId::Baseline1D => None,
        }
    }
}

/// The full shared surface of the distributed algorithms: one SDDMM /
/// SpMM / FusedMM engine per rank, with the iterate-layout plumbing the
/// applications need. Implemented by all four families of the paper's
/// Figure 2 and by the 1D baseline ([`KernelId`]).
///
/// # Layout contract
///
/// Each implementation has *native* layouts for `A`-shaped and
/// `B`-shaped dense matrices — the **iterate layouts** described by
/// [`DistKernel::a_iterate_layout_of`] / [`DistKernel::b_iterate_layout_of`].
/// `fused_mm_a`/`fused_mm_b` consume and produce iterates in exactly
/// those layouts (iterate in, iterate out — the property batched CG
/// relies on), as do [`DistKernel::rhs_a`] / [`DistKernel::rhs_b`] and
/// [`DistKernel::set_a`] / [`DistKernel::set_b`] (which pay whatever
/// internal distribution shift the family requires, charged to
/// [`Phase::OutsideComm`] as in the paper's Fig. 9 accounting).
///
/// # R values
///
/// [`DistKernel::sddmm`] / [`DistKernel::sddmm_general`] store the
/// distributed SDDMM result `R` inside the worker. `map_r`,
/// `r_row_sums`, `scale_r_rows` (indexed consistently with each other),
/// `spmm_a_with`, `sq_loss_local`, and `gather_r` then operate on it.
pub trait DistKernel: Send {
    /// Which implementation this is.
    fn id(&self) -> KernelId;

    /// The kernel's own plan as a world-free [`PlanView`]: the single
    /// definition of its data distributions, from which the layout,
    /// pattern-bound and row-group methods below are provided.
    fn view(&self) -> PlanView;

    /// Global problem dimensions.
    fn dims(&self) -> ProblemDims {
        self.view().dims
    }

    /// Whether this kernel admits the elision strategy (paper §IV-B).
    fn supports(&self, elision: Elision) -> bool {
        match self.id() {
            KernelId::Family(f) => f.supports(elision),
            KernelId::Baseline1D => elision == Elision::None,
        }
    }

    /// Distributed SDDMM on the stored operands; the result is held as
    /// the worker's R values.
    fn sddmm(&mut self);

    /// Generalized SDDMM (paper §VI-E): store *raw* accumulations of
    /// `combine` as the R values, without sampling.
    fn sddmm_general(&mut self, combine: &CombineSpec);

    /// Distributed SpMMA `S·B` (or `R·B` when `use_r`), in the native
    /// SpMMA output layout. Not every kernel supports `use_r = true`
    /// (use [`DistKernel::spmm_a_with`] for the R-valued product in the
    /// iterate layout).
    fn spmm_a(&mut self, use_r: bool) -> Mat;

    /// Distributed SpMMB `Sᵀ·A` (or `Rᵀ·A` when `use_r`), in the
    /// native SpMMB output layout.
    fn spmm_b(&mut self, use_r: bool) -> Mat;

    /// FusedMMA = `SpMMA(SDDMM(x, B, S), B)`. `x` (defaulting to the
    /// stored `A`) and the result are in the `A`-iterate layout.
    fn fused_mm_a(&mut self, x: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat;

    /// FusedMMB = `SpMMB(SDDMM(A, y, S), A)`. `y` (defaulting to the
    /// stored `B`) and the result are in the `B`-iterate layout.
    fn fused_mm_b(&mut self, y: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat;

    /// Map every stored R value in place (local; all replicas apply the
    /// same deterministic map).
    fn map_r(&mut self, f: &mut dyn FnMut(f64) -> f64);

    /// Row sums of the stored R values, reduced over whichever ranks
    /// share those rows, indexed exactly as
    /// [`DistKernel::scale_r_rows`] expects. `comm` is the world
    /// communicator (used by kernels whose sparse rows span the world);
    /// the reduction is charged to `phase`.
    fn r_row_sums(&self, comm: &Comm, phase: Phase) -> Vec<f64>;

    /// Scale each stored R row by `scale[i]` (see
    /// [`DistKernel::r_row_sums`] for the indexing contract).
    fn scale_r_rows(&mut self, scale: &[f64]);

    /// SpMMA with the stored R values against an explicit `B`-iterate
    /// operand (the GAT convolution `α·(H·W)`), returned in the
    /// [`DistKernel::spmm_a_with_layout_of`] layout. Reads R only, so
    /// it takes `&self` (see the module's mutability contract).
    fn spmm_a_with(&self, y: &Mat) -> Mat;

    /// Local contribution to `‖S − R‖²` after a raw
    /// [`DistKernel::sddmm_general`] — the ALS squared loss. Summed
    /// across ranks, every nonzero is counted exactly once.
    fn sq_loss_local(&self) -> f64;

    /// Gather the stored R values to communicator rank 0 in global
    /// coordinates (verification; statistics paused).
    fn gather_r(&self, comm: &Comm) -> Option<CooMatrix> {
        let local = self.export_r().expect("no SDDMM result");
        let d = self.dims();
        crate::layout::gather_coo(comm, 0, local, d.m, d.n)
    }

    /// This rank's share of the stored R values as **global**-coordinate
    /// triplets, or `None` when no SDDMM has populated them (no
    /// communication). Kernels that replicate R across ranks export
    /// from exactly one replica, so the union over all ranks covers
    /// each stored nonzero exactly once — the contract live migration
    /// ([`crate::session::Session::replan`]) relies on.
    fn export_r(&self) -> Option<CooMatrix>;

    /// Install R values from global-coordinate triplets covering this
    /// rank's sparsity pattern — the inverse of [`DistKernel::export_r`]
    /// after a cross-rank union (no communication; the caller moves the
    /// triplets). Entries outside the local pattern are ignored.
    ///
    /// # Panics
    ///
    /// Panics when a local pattern nonzero has no value in `r` — the
    /// source and destination kernels were not built from the same
    /// sparse matrix.
    fn import_r(&mut self, r: &CooMatrix);

    /// Global bounding rectangle `(rows, cols)` of rank `g`'s stored-R
    /// sparsity pattern — the region [`DistKernel::import_r`] reads
    /// values from on that rank. Pure grid arithmetic (no
    /// communication, callable for any rank); a conservative superset
    /// of the true pattern is allowed. Live migration
    /// ([`crate::session::Session`]) uses the *destination* kernel's
    /// bounds to route each exported triplet only to the ranks that
    /// need it — an owner-targeted alltoallv moving `O(c·nnz)` words
    /// instead of the `O(p·nnz)` allgather.
    fn r_pattern_bounds_of(&self, g: usize) -> (Range<usize>, Range<usize>) {
        self.view().r_bounds_of(g)
    }

    /// The stored `A` operand in the iterate layout.
    fn a_iterate(&self) -> Mat;

    /// The stored `B` operand in the iterate layout.
    fn b_iterate(&self) -> Mat;

    /// Replace the stored `A` operand with an `A`-iterate, paying
    /// whatever distribution shift the family requires (charged to
    /// [`Phase::OutsideComm`]).
    fn set_a(&mut self, comm: &Comm, x: &Mat);

    /// Replace the stored `B` operand with a `B`-iterate.
    fn set_b(&mut self, comm: &Comm, y: &Mat);

    /// ALS right-hand side for the `A` phase — `S·B` with the sampling
    /// values — delivered in the `A`-iterate layout (2.5D dense
    /// replication pays a distribution shift here).
    fn rhs_a(&mut self, comm: &Comm) -> Mat;

    /// ALS right-hand side for the `B` phase — `Sᵀ·A` — in the
    /// `B`-iterate layout.
    fn rhs_b(&mut self, comm: &Comm) -> Mat;

    /// The `A`-iterate layout of communicator rank `g`.
    fn a_iterate_layout_of(&self, g: usize) -> DenseLayout {
        self.view().a_layout_of(g)
    }

    /// The `B`-iterate layout of communicator rank `g`.
    fn b_iterate_layout_of(&self, g: usize) -> DenseLayout {
        self.view().b_layout_of(g)
    }

    /// The layout in which [`DistKernel::spmm_a_with`] returns its
    /// result on rank `g`.
    fn spmm_a_with_layout_of(&self, g: usize) -> DenseLayout {
        self.view().spmm_a_with_layout_of(g)
    }

    /// Row-sharing color for `A`-iterates: ranks with equal color hold
    /// pieces of the same iterate rows and must reduce per-row dot
    /// products among themselves. Whole-row kernels color every rank
    /// distinctly (groups of one).
    fn row_group_a(&self, g: usize) -> u64 {
        self.view().row_group(Side::A, g)
    }

    /// Row-sharing color for `B`-iterates.
    fn row_group_b(&self, g: usize) -> u64 {
        self.view().row_group(Side::B, g)
    }
}

/// A resolved construction decision: which kernel, at which replication
/// factor, with which (recommended) elision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelPlan {
    /// Which implementation to build.
    pub id: KernelId,
    /// Replication factor.
    pub c: usize,
    /// The elision strategy the planner recommends for fused calls.
    pub elision: Elision,
    /// Whether propagation ships full dense tiles or pattern-routed
    /// row subsets (always [`Routing::Dense`] for the baseline).
    pub routing: Routing,
    /// Modeled communication seconds of one FusedMM under the plan
    /// (`None` for the baseline, which the theory does not model).
    pub predicted_comm_s: Option<f64>,
}

impl KernelPlan {
    /// The planned algorithm, when the plan is one of the four
    /// families.
    pub fn algorithm(&self) -> Option<Algorithm> {
        self.id.family().map(|f| Algorithm::new(f, self.elision))
    }
}

/// One scored planner candidate: an algorithm at its resolved
/// replication factor, with every modeled quantity the planner ranks
/// by. Returned by [`KernelBuilder::plan_candidates`] so harnesses and
/// tests can interrogate the planner's whole scoreboard instead of
/// re-deriving [`theory`] internals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedCandidate {
    /// The candidate algorithm (family + elision).
    pub algorithm: Algorithm,
    /// Its resolved replication factor (the pinned `c`, or the Table IV
    /// optimum under the admissibility constraints).
    pub c: usize,
    /// Dense-shift or pattern-routed propagation (the un-elided
    /// variants are scored both ways, so they appear as two rows).
    pub routing: Routing,
    /// Modeled words sent by the busiest processor per FusedMM
    /// (Table III).
    pub words_per_proc: f64,
    /// Modeled messages sent by the busiest processor per FusedMM
    /// (Table III).
    pub msgs_per_proc: f64,
    /// Modeled communication seconds per FusedMM under the α-β model —
    /// the quantity the planner minimizes.
    pub predicted_comm_s: f64,
    /// Modeled computation seconds per FusedMM (identical across
    /// candidates: flops are family-invariant and load-balanced).
    pub predicted_comp_s: f64,
    /// The local microkernel variant resolved for the family's dominant
    /// local op (SpMM on the family's block format): the staging's
    /// tuned pick when one is cached, else the `DSK_LOCAL_KERNEL` pin
    /// or the shape heuristic. The second level of the two-level plan —
    /// it never affects the modeled numbers above (variant choice
    /// changes neither flops nor traffic), only local wall time.
    pub local_variant: kern::LocalKernel,
}

impl PlannedCandidate {
    /// Modeled communication + computation seconds per FusedMM.
    pub fn predicted_total_s(&self) -> f64 {
        self.predicted_comm_s + self.predicted_comp_s
    }
}

/// The [`kern::TuneRequest`] describing the representative sparse block
/// a kernel's local ops run on at `(p, c)`. Shape estimates only —
/// the tuner buckets them into coarse shape classes — but crucially the
/// **same** function produces the cache keys at build time (when the
/// kernel measures on its actual blocks) and at plan time (when the
/// world-free scoreboard looks picks up), so the two levels of the plan
/// always agree on what was tuned.
pub(crate) fn local_tune_request(
    id: KernelId,
    op: kern::LocalOp,
    p: usize,
    c: usize,
    dims: ProblemDims,
    nnz: usize,
) -> kern::TuneRequest {
    use kern::SparseFormat;
    let p = p.max(1);
    let c = c.max(1);
    let side = (p / c).max(1).isqrt().max(1);
    let (format, rows, block_nnz) = match id {
        // 1.5D: a layer of p/c ranks splits S into (p/c)² blocks of
        // m·c/p rows each. Dense-shifting keeps them in CSR (stationary,
        // reused every shift); sparse-shifting ships them as COO.
        KernelId::Family(AlgorithmFamily::DenseShift15) => {
            (SparseFormat::Csr, dims.m * c / p, nnz * c * c / (p * p))
        }
        KernelId::Family(AlgorithmFamily::SparseShift15) => {
            (SparseFormat::Coo, dims.m * c / p, nnz * c * c / (p * p))
        }
        // 2.5D: a √(p/c) × √(p/c) layer tiles S; each tile has
        // m/√(p/c) rows and nnz·c/p nonzeros. Dense replication moves
        // the tiles (COO); sparse replication keeps the pattern
        // stationary in CSR.
        KernelId::Family(AlgorithmFamily::DenseRepl25) => {
            (SparseFormat::Coo, dims.m / side, nnz * c / p)
        }
        KernelId::Family(AlgorithmFamily::SparseRepl25) => {
            (SparseFormat::Csr, dims.m / side, nnz * c / p)
        }
        // The 1D baseline: a p-way row split of S kept in CSR.
        KernelId::Baseline1D => (SparseFormat::Csr, dims.m / p, nnz / p),
    };
    kern::TuneRequest {
        op,
        format,
        rows: rows.max(1),
        nnz: block_nnz,
        r: dims.r,
    }
}

/// The representative sparse block a kernel's local ops run on, in the
/// format the kernel stores it.
pub(crate) enum TuneBlock<'a> {
    Csr(&'a CsrMatrix),
    Coo(&'a CooMatrix),
}

/// Resolve a kernel's local-kernel variants against the staging's
/// shared tuning cache, microbenchmarking the `ops` it runs on `block`
/// when their shape class is new; ops it never runs stay naive. Wall
/// time lands in [`Phase::LocalTuning`]; no communication, no flop
/// accounting — modeled numbers are untouched whatever wins.
fn tune_local(
    staged: &StagedProblem,
    comm: &Comm,
    plan: &KernelPlan,
    (block, ops): (TuneBlock<'_>, &[kern::LocalOp]),
) -> kern::LocalPicks {
    let _t = comm.phase(Phase::LocalTuning);
    let tuning = staged.local_tuning();
    let (p, dims, nnz) = (comm.size(), staged.prob.dims, staged.prob.nnz());
    let pick = |op| {
        let req = local_tune_request(plan.id, op, p, plan.c, dims, nnz);
        match block {
            _ if !ops.contains(&op) => kern::LocalKernel::Naive,
            TuneBlock::Csr(b) => tuning.tune_csr(req, b),
            TuneBlock::Coo(b) => tuning.tune_coo(req, b),
        }
    };
    kern::LocalPicks {
        spmm: pick(kern::LocalOp::Spmm),
        spmm_t: pick(kern::LocalOp::SpmmT),
        sddmm: pick(kern::LocalOp::Sddmm),
        fused: pick(kern::LocalOp::Fused),
    }
}

#[derive(Clone)]
enum Source<'a> {
    Owned(Arc<StagedProblem>),
    Borrowed(&'a StagedProblem),
    /// Problem shape only — planning without materialized operands
    /// (cost exploration at paper scale; cannot build workers).
    Shape(ProblemDims, usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Selection {
    Auto,
    Family(AlgorithmFamily),
    Baseline,
}

/// Planner + factory for [`DistKernel`] workers.
///
/// ```ignore
/// // Fully automatic: theory picks family, c, and elision (Fig. 6).
/// let mut worker = KernelBuilder::new(&prob).auto().build(comm);
/// // Pinned family at an explicit replication factor:
/// let mut worker = KernelBuilder::new(&prob)
///     .family(AlgorithmFamily::SparseShift15)
///     .replication(4)
///     .build(comm);
/// ```
///
/// The decision logic is pure ([`KernelBuilder::plan`] takes only the
/// rank count), so tests can verify planning against
/// [`theory::predict_best`] without spinning up a world.
#[derive(Clone)]
pub struct KernelBuilder<'a> {
    source: Source<'a>,
    selection: Selection,
    c: Option<usize>,
    c_max: usize,
    elision: Option<Elision>,
    routing: Option<Routing>,
    /// Planner cost model. `None` (the default) means "use the
    /// communicator's model at build time" — [`KernelBuilder::plan`]
    /// falls back to Cori-like constants when called without a world.
    model: Option<MachineModel>,
}

impl<'a> KernelBuilder<'a> {
    fn with_source(source: Source<'a>) -> Self {
        KernelBuilder {
            source,
            selection: Selection::Auto,
            c: None,
            c_max: 16,
            elision: None,
            routing: None,
            model: None,
        }
    }

    /// Build from a borrowed global problem (staged ephemerally; test
    /// and example convenience).
    pub fn new(prob: &GlobalProblem) -> KernelBuilder<'static> {
        KernelBuilder::with_source(Source::Owned(Arc::new(StagedProblem::ephemeral(prob))))
    }

    /// Build from a shared global problem (the staging is created once
    /// and shared by every worker this builder constructs).
    pub fn from_arc(prob: Arc<GlobalProblem>) -> KernelBuilder<'static> {
        KernelBuilder::with_source(Source::Owned(Arc::new(StagedProblem::new(prob))))
    }

    /// Build from shared staging (the benchmark path: the expensive
    /// sparse partition is computed once per world, not once per rank).
    pub fn from_staged(staged: &'a StagedProblem) -> KernelBuilder<'a> {
        KernelBuilder::with_source(Source::Borrowed(staged))
    }

    /// Build from owned shared staging (the adaptive-session path: the
    /// session keeps the `Arc` so it can rebuild workers for other
    /// families when it migrates mid-run).
    pub fn from_staged_arc(staged: Arc<StagedProblem>) -> KernelBuilder<'static> {
        KernelBuilder::with_source(Source::Owned(staged))
    }

    /// The owned staging behind this builder, when it owns one (`None`
    /// for borrowed staging and planning-only shapes).
    pub fn staged_arc(&self) -> Option<Arc<StagedProblem>> {
        match &self.source {
            Source::Owned(s) => Some(Arc::clone(s)),
            _ => None,
        }
    }

    /// The pinned machine model, when one was set via
    /// [`KernelBuilder::model`].
    pub fn pinned_model(&self) -> Option<MachineModel> {
        self.model
    }

    /// A planning-only builder for a problem *shape* — nothing is
    /// materialized, so paper-scale shapes (n = 2²², say) can be
    /// planned and scored instantly. [`KernelBuilder::plan`] and
    /// [`KernelBuilder::plan_candidates`] work; calling
    /// [`KernelBuilder::build`] panics.
    pub fn for_shape(dims: ProblemDims, nnz: usize) -> KernelBuilder<'static> {
        KernelBuilder::with_source(Source::Shape(dims, nnz))
    }

    /// Let the planner pick family, replication factor, and elision
    /// from the paper's cost model (the default).
    pub fn auto(mut self) -> Self {
        self.selection = Selection::Auto;
        self
    }

    /// Pin the algorithm family (replication factor and elision are
    /// still planned unless pinned too).
    pub fn family(mut self, family: AlgorithmFamily) -> Self {
        self.selection = Selection::Family(family);
        self
    }

    /// Pin family and elision at once.
    pub fn algorithm(mut self, alg: Algorithm) -> Self {
        self.selection = Selection::Family(alg.family);
        self.elision = Some(alg.elision);
        self
    }

    /// Build the PETSc-like 1D block-row baseline instead of a 2D/3D
    /// family.
    pub fn baseline(mut self) -> Self {
        self.selection = Selection::Baseline;
        self
    }

    /// Pin the replication factor `c`.
    pub fn replication(mut self, c: usize) -> Self {
        self.c = Some(c);
        self
    }

    /// Cap the planner's replication-factor search (default 16, the
    /// paper's memory-limit sweep bound).
    pub fn max_replication(mut self, c_max: usize) -> Self {
        self.c_max = c_max;
        self
    }

    /// Pin the elision strategy used for fused calls.
    pub fn elision(mut self, elision: Elision) -> Self {
        self.elision = Some(elision);
        self
    }

    /// Pin the propagation routing. [`Routing::Pattern`] restricts the
    /// candidate set to the un-elided variants (the only schedules
    /// whose receivers touch tile subsets); the default scores each
    /// candidate both ways and lets the model decide.
    pub fn routing(mut self, routing: Routing) -> Self {
        self.routing = Some(routing);
        self
    }

    /// Pin the machine model for the planner's time predictions. When
    /// not pinned, [`KernelBuilder::build`] plans under the
    /// communicator's own model, and the world-free
    /// [`KernelBuilder::plan`] falls back to Cori-like constants.
    pub fn model(mut self, model: MachineModel) -> Self {
        self.model = Some(model);
        self
    }

    fn staged(&self) -> &StagedProblem {
        match &self.source {
            Source::Owned(s) => s,
            Source::Borrowed(s) => s,
            Source::Shape(..) => {
                panic!("planning-only builder (for_shape) cannot build workers")
            }
        }
    }

    /// Problem shape the planner scores against.
    fn shape(&self) -> (ProblemDims, usize) {
        match &self.source {
            Source::Owned(s) => (s.prob.dims, s.prob.nnz()),
            Source::Borrowed(s) => (s.prob.dims, s.prob.nnz()),
            Source::Shape(dims, nnz) => (*dims, *nnz),
        }
    }

    /// Candidate algorithms compatible with the pinned constraints,
    /// each with its resolved replication factor (the pinned `c`, or
    /// the Table IV optimum for the algorithm).
    fn candidates(&self, p: usize) -> Vec<(Algorithm, usize)> {
        let fams: Vec<AlgorithmFamily> = match self.selection {
            Selection::Family(f) => vec![f],
            _ => AlgorithmFamily::ALL.to_vec(),
        };
        let (dims, nnz) = self.shape();
        Algorithm::all_benchmarked()
            .into_iter()
            .filter(|alg| fams.contains(&alg.family))
            .filter(|alg| self.elision.is_none_or(|e| alg.elision == e))
            .filter_map(|alg| match self.c {
                Some(c) => alg.family.valid_c(p, c).then_some((alg, c)),
                None => theory::optimal_c_search(alg, p, dims, nnz, self.c_max).map(|c| (alg, c)),
            })
            .collect()
    }

    /// Resolve the construction decision for a world of `p` ranks
    /// without building anything. Pure: depends only on the problem
    /// shape, the machine model (the pinned one, else Cori-like
    /// constants), and the pinned constraints — this is the paper's
    /// Figure 6 "Predicted" panel as an API.
    ///
    /// # Panics
    ///
    /// Panics when the pinned constraints are unsatisfiable (e.g. a
    /// replication factor the family's grid cannot realize at `p`).
    pub fn plan(&self, p: usize) -> KernelPlan {
        self.plan_with(p, self.model.unwrap_or_else(MachineModel::cori_knl))
    }

    /// [`KernelBuilder::plan`] under an explicit machine model.
    pub fn plan_with(&self, p: usize, model: MachineModel) -> KernelPlan {
        if self.selection == Selection::Baseline {
            assert!(
                self.c.unwrap_or(1) == 1,
                "the 1D baseline does not replicate (c must be 1)"
            );
            assert!(
                self.elision.is_none_or(|e| e == Elision::None),
                "the 1D baseline admits no communication elision"
            );
            assert!(
                self.routing.is_none_or(|r| r == Routing::Dense),
                "the 1D baseline has no shift schedule to pattern-route"
            );
            return KernelPlan {
                id: KernelId::Baseline1D,
                c: 1,
                elision: Elision::None,
                routing: Routing::Dense,
                predicted_comm_s: None,
            };
        }
        let candidates = self.plan_candidates_with(p, model);
        assert!(
            !candidates.is_empty(),
            "no admissible algorithm for p={p}, c={:?}, elision={:?}, family={:?}",
            self.c,
            self.elision,
            self.selection,
        );
        let best = candidates[0];
        KernelPlan {
            id: KernelId::Family(best.algorithm.family),
            c: best.c,
            elision: best.algorithm.elision,
            routing: best.routing,
            predicted_comm_s: Some(best.predicted_comm_s),
        }
    }

    /// Every admissible candidate the planner scored for a world of `p`
    /// ranks, sorted by modeled communication time — index 0 is exactly
    /// what [`KernelBuilder::plan`] picks. Pinned constraints (family,
    /// elision, replication factor) restrict the set; the baseline
    /// selection yields an empty set (the theory does not model the 1D
    /// baseline). The sort is stable, so ties keep the paper's Figure 4
    /// presentation order.
    pub fn plan_candidates(&self, p: usize) -> Vec<PlannedCandidate> {
        self.plan_candidates_with(p, self.model.unwrap_or_else(MachineModel::cori_knl))
    }

    /// [`KernelBuilder::plan_candidates`] under an explicit machine
    /// model.
    pub fn plan_candidates_with(&self, p: usize, model: MachineModel) -> Vec<PlannedCandidate> {
        if self.selection == Selection::Baseline {
            return Vec::new();
        }
        let (dims, nnz) = self.shape();
        let comp_s = theory::predicted_comp_time(&model, p, dims, nnz);
        // Local-variant resolution is lookup-only (pin → cached pick →
        // shape heuristic): planning must stay cheap enough for
        // world-free sweeps, so the scoreboard never microbenchmarks.
        // Shape-only builders have no staging (and so no tuned cache);
        // a fresh empty cache gives them the pin/heuristic path.
        let no_staging = kern::LocalTuning::new();
        let tuning = match &self.source {
            Source::Owned(s) => s.local_tuning(),
            Source::Borrowed(s) => s.local_tuning(),
            Source::Shape(..) => &no_staging,
        };
        let mut scored: Vec<PlannedCandidate> = Vec::new();
        for (alg, c) in self.candidates(p) {
            for routing in Routing::ALL {
                if self.routing.is_some_and(|r| r != routing) || !alg.admits(routing) {
                    continue;
                }
                // `admits` guarantees the routed model exists.
                let words = theory::words_for_routing(alg, routing, p, c, dims, nnz).unwrap();
                let msgs = theory::messages_for_routing(alg, routing, p, c).unwrap();
                let id = KernelId::Family(alg.family);
                let req = local_tune_request(id, kern::LocalOp::Spmm, p, c, dims, nnz);
                scored.push(PlannedCandidate {
                    algorithm: alg,
                    c,
                    routing,
                    words_per_proc: words,
                    msgs_per_proc: msgs,
                    predicted_comm_s: model.alpha_s * msgs + model.beta_s_per_word * words,
                    predicted_comp_s: comp_s,
                    local_variant: tuning.resolve(req),
                });
            }
        }
        scored.sort_by(|a, b| a.predicted_comm_s.partial_cmp(&b.predicted_comm_s).unwrap());
        scored
    }

    /// Build this rank's worker, resolving the plan from
    /// `comm.size()` under the communicator's machine model (unless a
    /// model was pinned). Must be called by every rank of the
    /// communicator (the plan is deterministic, so all ranks agree
    /// without communication).
    pub fn build(&self, comm: &Comm) -> DistWorker {
        let model = self.model.unwrap_or(*comm.model());
        let plan = self.plan_with(comm.size(), model);
        self.build_planned(comm, &plan)
    }

    /// Build this rank's worker for an already-resolved plan.
    ///
    /// A pattern-routed plan fetches the world-free need sets from the
    /// staging's [`StagedProblem::plan_patterns`] cache (computed once
    /// per `(family, p, c)` and shared by every worker built from the
    /// same staging) and then lets the kernel all-gather them over its
    /// rings — real traffic, charged to `Phase::PatternExchange`.
    pub fn build_planned(&self, comm: &Comm, plan: &KernelPlan) -> DistWorker {
        let staged = self.staged();
        let (p, c) = (comm.size(), plan.c);
        // Construct → pattern-route → tune, the one sequencing every
        // family shares.
        macro_rules! family {
            ($ty:ty, $fam:expr) => {{
                let mut k = <$ty>::new(comm, c, staged);
                if plan.routing == Routing::Pattern {
                    let pats =
                        staged.plan_patterns($fam, p, c, || <$ty>::derive_needs(staged, p, c));
                    k.enable_pattern_routing(&pats);
                }
                k.local = tune_local(staged, comm, plan, k.tune_target());
                Box::new(k) as Box<dyn DistKernel>
            }};
        }
        let kernel: Box<dyn DistKernel> = match plan.id {
            KernelId::Family(AlgorithmFamily::DenseShift15) => {
                family!(DenseShift15, AlgorithmFamily::DenseShift15)
            }
            KernelId::Family(AlgorithmFamily::SparseShift15) => {
                family!(SparseShift15, AlgorithmFamily::SparseShift15)
            }
            KernelId::Family(AlgorithmFamily::DenseRepl25) => {
                family!(DenseRepl25, AlgorithmFamily::DenseRepl25)
            }
            KernelId::Family(AlgorithmFamily::SparseRepl25) => {
                family!(SparseRepl25, AlgorithmFamily::SparseRepl25)
            }
            KernelId::Baseline1D => {
                assert_eq!(
                    plan.routing,
                    Routing::Dense,
                    "the 1D baseline has no shift schedule to pattern-route"
                );
                let mut k = Baseline1D::new(comm, staged);
                k.local = tune_local(staged, comm, plan, k.tune_target());
                Box::new(k)
            }
        };
        DistWorker::from_parts(kernel, *plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn er_prob(n: usize, r: usize, nnz_per_row: usize, seed: u64) -> GlobalProblem {
        GlobalProblem::erdos_renyi(n, n, r, nnz_per_row, seed)
    }

    #[test]
    fn auto_plan_matches_theory_predict_best() {
        // The planner must agree with theory::predict_best across
        // problem shapes (the Figure 6 regimes are exercised in the
        // integration test suite at realistic sizes).
        let prob = er_prob(256, 16, 4, 1);
        let builder = KernelBuilder::new(&prob);
        for p in [8usize, 16, 32] {
            let plan = builder.plan(p);
            let expect = theory::predict_best(
                &MachineModel::cori_knl(),
                &Algorithm::all_benchmarked(),
                p,
                prob.dims,
                prob.nnz(),
                16,
            );
            assert_eq!(plan.algorithm().unwrap(), expect.algorithm, "p={p}");
            assert_eq!(plan.c, expect.c, "p={p}");
            assert_eq!(plan.routing, expect.routing, "p={p}");
            assert!((plan.predicted_comm_s.unwrap() - expect.time_s).abs() < 1e-15);
        }
    }

    #[test]
    fn pinned_family_plans_optimal_c() {
        let prob = er_prob(128, 8, 4, 2);
        let p = 16;
        let plan = KernelBuilder::new(&prob)
            .family(AlgorithmFamily::DenseShift15)
            .plan(p);
        assert_eq!(plan.id, KernelId::Family(AlgorithmFamily::DenseShift15));
        // Best among the three ds15 elisions at their own optimal c.
        let model = MachineModel::cori_knl();
        let best = theory::predict_best(
            &model,
            &[
                Algorithm::new(AlgorithmFamily::DenseShift15, Elision::None),
                Algorithm::new(AlgorithmFamily::DenseShift15, Elision::ReplicationReuse),
                Algorithm::new(AlgorithmFamily::DenseShift15, Elision::LocalKernelFusion),
            ],
            p,
            prob.dims,
            prob.nnz(),
            16,
        );
        assert_eq!(plan.elision, best.algorithm.elision);
        assert_eq!(plan.c, best.c);
    }

    #[test]
    fn pinned_replication_is_respected() {
        let prob = er_prob(128, 8, 4, 3);
        let plan = KernelBuilder::new(&prob)
            .family(AlgorithmFamily::SparseShift15)
            .replication(4)
            .elision(Elision::ReplicationReuse)
            .plan(8);
        assert_eq!(plan.c, 4);
        assert_eq!(plan.elision, Elision::ReplicationReuse);
    }

    #[test]
    fn pinned_routing_restricts_the_scoreboard() {
        let prob = er_prob(256, 16, 4, 8);
        let builder = KernelBuilder::new(&prob);
        let p = 16;
        let dense_only = builder.clone().routing(Routing::Dense).plan_candidates(p);
        assert!(dense_only.iter().all(|c| c.routing == Routing::Dense));
        assert_eq!(dense_only.len(), Algorithm::all_benchmarked().len());
        let routed_only = builder.clone().routing(Routing::Pattern).plan_candidates(p);
        assert!(!routed_only.is_empty());
        assert!(routed_only
            .iter()
            .all(|c| c.routing == Routing::Pattern && c.algorithm.elision == Elision::None));
        let plan = builder.clone().routing(Routing::Pattern).plan(p);
        assert_eq!(plan.routing, Routing::Pattern);
        // An un-routable pin combination has no candidates.
        let mixed = builder
            .clone()
            .routing(Routing::Pattern)
            .elision(Elision::LocalKernelFusion)
            .plan_candidates(p);
        assert!(mixed.is_empty());
    }

    #[test]
    fn baseline_plan_is_fixed() {
        let prob = er_prob(64, 8, 4, 4);
        let plan = KernelBuilder::new(&prob).baseline().plan(8);
        assert_eq!(plan.id, KernelId::Baseline1D);
        assert_eq!(plan.c, 1);
        assert_eq!(plan.elision, Elision::None);
        assert_eq!(plan.routing, Routing::Dense);
        assert!(plan.predicted_comm_s.is_none());
    }

    #[test]
    fn plan_candidates_sorted_and_headed_by_the_plan() {
        let prob = er_prob(256, 16, 4, 6);
        let builder = KernelBuilder::new(&prob);
        for p in [8usize, 16, 32] {
            let cands = builder.plan_candidates(p);
            assert!(!cands.is_empty());
            assert!(
                cands
                    .windows(2)
                    .all(|w| w[0].predicted_comm_s <= w[1].predicted_comm_s),
                "candidates must be sorted by modeled comm time"
            );
            let plan = builder.plan(p);
            assert_eq!(plan.algorithm().unwrap(), cands[0].algorithm, "p={p}");
            assert_eq!(plan.c, cands[0].c, "p={p}");
            assert_eq!(plan.routing, cands[0].routing, "p={p}");
            assert_eq!(plan.predicted_comm_s, Some(cands[0].predicted_comm_s));
            // Every candidate's score must be the theory's, recomputed
            // under its own routing.
            let model = MachineModel::cori_knl();
            for cand in &cands {
                let t = theory::predicted_comm_time_for(
                    &model,
                    cand.algorithm,
                    cand.routing,
                    p,
                    cand.c,
                    prob.dims,
                    prob.nnz(),
                )
                .unwrap();
                assert!((cand.predicted_comm_s - t).abs() <= 1e-15 * t.max(1e-30));
            }
        }
    }

    #[test]
    fn baseline_selection_scores_no_candidates() {
        let prob = er_prob(64, 8, 4, 7);
        assert!(KernelBuilder::new(&prob)
            .baseline()
            .plan_candidates(8)
            .is_empty());
    }

    #[test]
    fn for_shape_plans_paper_scale_instantly() {
        // Nothing materializes: a 2²²-row problem plans fine.
        let dims = ProblemDims::new(1 << 22, 1 << 22, 256);
        let nnz = (1usize << 22) * 32;
        let builder = KernelBuilder::for_shape(dims, nnz);
        let cands = builder.plan_candidates(256);
        // Eight dense rows (Figure 4) plus one pattern-routed row per
        // un-elided family.
        let n_routed = Algorithm::all_benchmarked()
            .iter()
            .filter(|a| a.admits(Routing::Pattern))
            .count();
        assert_eq!(n_routed, 4);
        assert_eq!(cands.len(), Algorithm::all_benchmarked().len() + n_routed);
        let expect = theory::predict_best(
            &MachineModel::cori_knl(),
            &Algorithm::all_benchmarked(),
            256,
            dims,
            nnz,
            16,
        );
        assert_eq!(cands[0].algorithm, expect.algorithm);
        assert_eq!(cands[0].c, expect.c);
    }

    #[test]
    #[should_panic(expected = "no admissible algorithm")]
    fn impossible_constraints_panic() {
        let prob = er_prob(64, 8, 4, 5);
        // 2.5D at p = 8 requires c = 2 (layers 4 = 2²); c = 3 is not
        // even a divisor.
        let _ = KernelBuilder::new(&prob)
            .family(AlgorithmFamily::DenseRepl25)
            .replication(3)
            .plan(8);
    }
}
