//! Shared vocabulary types for the distributed algorithms, and the
//! [`ShiftPipeline`] every propagation loop executes through.

use std::cell::Cell;
use std::ops::Range;

use dsk_comm::trace::{self, ArgVal, TraceKind};
use dsk_comm::{Comm, CommPattern, Phase, RecvHandle, RowBundle, RowSet, WirePayload};
use dsk_dense::Mat;
use dsk_sparse::{CooMatrix, CsrMatrix};

/// Global problem dimensions: `S: m×n` sparse, `A: m×r`, `B: n×r` dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProblemDims {
    /// Rows of `S` and `A`.
    pub m: usize,
    /// Columns of `S`, rows of `B`.
    pub n: usize,
    /// Width of the dense (embedding) matrices.
    pub r: usize,
}

impl ProblemDims {
    /// Convenience constructor.
    pub fn new(m: usize, n: usize, r: usize) -> Self {
        ProblemDims { m, n, r }
    }

    /// The paper's φ = nnz(S) / (n·r): the ratio of sparse-matrix
    /// nonzeros to dense-matrix entries that governs which algorithm
    /// family wins.
    pub fn phi(&self, nnz: usize) -> f64 {
        nnz as f64 / (self.n as f64 * self.r as f64)
    }
}

/// The four sparsity-agnostic algorithm families of the paper's Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmFamily {
    /// 1.5D dense-shifting, dense-replicating (Algorithm 1).
    DenseShift15,
    /// 1.5D sparse-shifting, dense-replicating.
    SparseShift15,
    /// 2.5D dense-replicating (Algorithm 2).
    DenseRepl25,
    /// 2.5D sparse-replicating.
    SparseRepl25,
}

impl AlgorithmFamily {
    /// All families, in the paper's presentation order.
    pub const ALL: [AlgorithmFamily; 4] = [
        AlgorithmFamily::DenseShift15,
        AlgorithmFamily::SparseShift15,
        AlgorithmFamily::DenseRepl25,
        AlgorithmFamily::SparseRepl25,
    ];

    /// Short label used in benchmark tables (matches the paper's legend).
    pub fn label(&self) -> &'static str {
        match self {
            AlgorithmFamily::DenseShift15 => "1.5D Dense Shift",
            AlgorithmFamily::SparseShift15 => "1.5D Sparse Shift",
            AlgorithmFamily::DenseRepl25 => "2.5D Dense Repl.",
            AlgorithmFamily::SparseRepl25 => "2.5D Sparse Repl.",
        }
    }

    /// Which elision strategies this family admits (paper §IV-B, §V):
    /// local kernel fusion requires full rows of both dense matrices on
    /// one rank (only 1.5D dense shifting); the 2.5D sparse-replicating
    /// algorithm replicates no dense matrix, so nothing can be elided.
    pub fn supports(&self, e: Elision) -> bool {
        matches!(
            (self, e),
            (_, Elision::None)
                | (AlgorithmFamily::DenseShift15, _)
                | (AlgorithmFamily::SparseShift15, Elision::ReplicationReuse)
                | (AlgorithmFamily::DenseRepl25, Elision::ReplicationReuse)
        )
    }

    /// Valid replication factors for `p` ranks (2.5D needs square
    /// layers).
    pub fn valid_c(&self, p: usize, c: usize) -> bool {
        if c == 0 || !p.is_multiple_of(c) {
            return false;
        }
        match self {
            AlgorithmFamily::DenseShift15 | AlgorithmFamily::SparseShift15 => true,
            AlgorithmFamily::DenseRepl25 | AlgorithmFamily::SparseRepl25 => {
                let layer = p / c;
                let q = (layer as f64).sqrt().round() as usize;
                q * q == layer
            }
        }
    }
}

/// Communication-eliding strategy for a FusedMM call (paper §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Elision {
    /// Two back-to-back kernel calls, no elision.
    None,
    /// Replicate one dense input once and reuse it for both kernels;
    /// raises the optimal replication factor.
    ReplicationReuse,
    /// One propagation round running the fused local kernel; lowers the
    /// optimal replication factor. 1.5D dense shifting only.
    LocalKernelFusion,
}

impl Elision {
    /// All strategies.
    pub const ALL: [Elision; 3] = [
        Elision::None,
        Elision::ReplicationReuse,
        Elision::LocalKernelFusion,
    ];

    /// Label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            Elision::None => "No Elision",
            Elision::ReplicationReuse => "Repl. Reuse",
            Elision::LocalKernelFusion => "Local Kernel Fusion",
        }
    }
}

/// How the propagation/replication phases of an algorithm move dense
/// tiles: as full dense blocks, or pattern-routed so only the rows the
/// receivers' local `S` structure touches cross the wire.
///
/// Routing is an independent plan dimension, orthogonal to the
/// family/elision choice: every family admits `Dense`, and families
/// admit `Pattern` only without elision (elided schedules fold two
/// kernels' traffic into one round, so their need sets are the full
/// tiles and routing degenerates to dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Routing {
    /// Ship full dense tiles (the paper's baseline schedules).
    #[default]
    Dense,
    /// Ship indexed row subsets derived from per-plan communication
    /// patterns, with a dense fallback at high density.
    Pattern,
}

impl Routing {
    /// Both routings, dense first.
    pub const ALL: [Routing; 2] = [Routing::Dense, Routing::Pattern];

    /// Short label used in candidate tables.
    pub fn label(&self) -> &'static str {
        match self {
            Routing::Dense => "dense",
            Routing::Pattern => "pattern",
        }
    }
}

/// Which values an SDDMM samples with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampling {
    /// Multiply dot products by the stored values of `S` (standard
    /// SDDMM).
    Values,
    /// Treat `S` as a 0/1 pattern (used by the ALS normal-equation
    /// matvec, where only the sparsity pattern masks the products).
    Ones,
}

/// The contiguous sub-range of `0..total` forming block `idx` of
/// `parts` (near-equal; first `total % parts` blocks get the extra
/// element). Identical to `dsk_sparse::partition::block_range`;
/// re-exported here because every distribution uses it.
pub fn block_range(total: usize, parts: usize, idx: usize) -> Range<usize> {
    dsk_sparse::partition::block_range(total, parts, idx)
}

/// Union of blocks `first..first+count` of the `parts`-way
/// decomposition (a *macro* block: e.g. an S block row spanning `c`
/// consecutive A block rows).
pub fn union_range(total: usize, parts: usize, first: usize, count: usize) -> Range<usize> {
    let a = block_range(total, parts, first);
    let b = block_range(total, parts, first + count - 1);
    a.start..b.end
}

/// Apply `sampling` to raw SDDMM dots: scale them by the stored values
/// of `S` ([`Sampling::Values`]) or keep them ([`Sampling::Ones`]).
pub(crate) fn sample(mut dots: Vec<f64>, s_vals: &[f64], sampling: Sampling) -> Vec<f64> {
    if sampling == Sampling::Values {
        dsk_kernels::apply_sampling(&mut dots, s_vals);
    }
    dots
}

/// `Σ (s − d)²` over paired values: the local ALS squared loss of the
/// sampling values `s` against raw SDDMM accumulations `d`.
pub(crate) fn sq_diff<'a>(
    s: impl IntoIterator<Item = &'a f64>,
    d: impl IntoIterator<Item = &'a f64>,
) -> f64 {
    s.into_iter().zip(d).map(|(s, d)| (s - d) * (s - d)).sum()
}

/// Local `(row, col)` of every nonzero of `s`, in storage order.
pub(crate) fn csr_coords(s: &CsrMatrix) -> impl Iterator<Item = (usize, usize)> + '_ {
    let (indptr, indices) = (s.indptr(), s.indices());
    (0..s.nrows())
        .flat_map(move |i| (indptr[i]..indptr[i + 1]).map(move |k| (i, indices[k] as usize)))
}

/// Stored R values as global-coordinate triplets: `coords` yields each
/// value's global `(row, col)` in storage order.
pub(crate) fn export_triplets(
    dims: ProblemDims,
    coords: impl Iterator<Item = (usize, usize)>,
    vals: &[f64],
) -> CooMatrix {
    let mut out = CooMatrix::empty(dims.m, dims.n);
    for ((i, j), &v) in coords.zip(vals) {
        out.push(i, j, v);
    }
    out
}

/// The values `r` holds at the global `coords` (storage order) — the
/// inverse of [`export_triplets`] after a cross-rank union.
///
/// # Panics
///
/// Panics when `r` misses one of the coordinates.
pub(crate) fn import_values(
    r: &CooMatrix,
    coords: impl Iterator<Item = (usize, usize)>,
) -> Vec<f64> {
    let map = crate::layout::triplet_map(r);
    coords
        .map(|(i, j)| {
            *map.get(&(i as u32, j as u32))
                .expect("imported R misses a local pattern nonzero")
        })
        .collect()
}

/// The forward set of a pattern-routed **input** tile leaving after
/// step `t` of a `q`-step ring round: the union of the needs of every
/// member that still consumes it (`member(t')` consumes it at step
/// `t'`). Empty on the last hop — the tile has been consumed everywhere.
pub(crate) fn forward_input(
    pat: &CommPattern,
    origin: usize,
    t: usize,
    q: usize,
    member: impl Fn(usize) -> usize,
) -> RowSet {
    pat.union_over((t + 1..q).map(member), origin)
}

/// The forward set of a circulating pattern-routed **accumulator**
/// leaving after step `t`: the union of every visited writer's rows
/// (`member(t'')` wrote at step `t''`). Rows outside the union are
/// exactly zero, so zero-fill reconstruction is lossless; the last hop
/// carries the whole support back to the owner.
pub(crate) fn forward_acc(
    pat: &CommPattern,
    origin: usize,
    t: usize,
    member: impl Fn(usize) -> usize,
) -> RowSet {
    pat.union_over((0..=t).map(member), origin)
}

// ---------------------------------------------------------------------
// Shift pipelining
// ---------------------------------------------------------------------

/// Environment variable selecting the propagation [`ShiftMode`]
/// (`pipelined` | `blocking`); a thread-local override set by the bench
/// harness takes precedence.
pub const SHIFT_MODE_ENV_VAR: &str = "DSK_SHIFT_PIPELINE";

thread_local! {
    static SHIFT_MODE_OVERRIDE: Cell<Option<ShiftMode>> = const { Cell::new(None) };
}

/// How a [`ShiftPipeline`] realizes its ring exchanges.
///
/// Both modes move the same bytes in the same ring order and charge
/// identical modeled time; they differ only in *when* the outgoing
/// block of an input lane is posted, i.e. whether the transport's
/// latency can hide behind the local compute of the current step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShiftMode {
    /// Post the next hop before computing on the current block
    /// (non-blocking `shift_begin`/`wait`): transfer and compute
    /// overlap. The default.
    #[default]
    Pipelined,
    /// Post and wait back-to-back (blocking `shift`): the pre-PR-8
    /// behavior, kept as the overlap measurement baseline.
    Blocking,
}

impl ShiftMode {
    /// The mode propagation loops run under right now: the thread-local
    /// override if set, else [`SHIFT_MODE_ENV_VAR`], else `Pipelined`.
    pub fn current() -> ShiftMode {
        if let Some(m) = SHIFT_MODE_OVERRIDE.with(|c| c.get()) {
            return m;
        }
        match std::env::var(SHIFT_MODE_ENV_VAR) {
            Err(_) => ShiftMode::Pipelined,
            Ok(v) => match v.as_str() {
                "pipelined" | "1" | "on" => ShiftMode::Pipelined,
                "blocking" | "0" | "off" => ShiftMode::Blocking,
                other => {
                    panic!("{SHIFT_MODE_ENV_VAR}={other:?}: expected \"pipelined\" or \"blocking\"")
                }
            },
        }
    }

    /// Install `mode` as this thread's override until the returned guard
    /// drops. Worlds run rank closures on the installing thread (or
    /// re-execute them in child processes), so setting the override
    /// inside a `SimWorld::run` closure covers every rank.
    pub fn scoped(mode: ShiftMode) -> ShiftModeGuard {
        let prev = SHIFT_MODE_OVERRIDE.with(|c| c.replace(Some(mode)));
        ShiftModeGuard { prev }
    }

    /// Bench-table label.
    pub fn label(&self) -> &'static str {
        match self {
            ShiftMode::Pipelined => "pipelined",
            ShiftMode::Blocking => "blocking",
        }
    }
}

/// RAII guard restoring the previous thread-local [`ShiftMode`]
/// override on drop.
pub struct ShiftModeGuard {
    prev: Option<ShiftMode>,
}

impl Drop for ShiftModeGuard {
    fn drop(&mut self) {
        SHIFT_MODE_OVERRIDE.with(|c| c.set(self.prev));
    }
}

/// The one way propagation loops move blocks around a ring.
///
/// A `ShiftPipeline` owns a ring communicator reference, a displacement,
/// and a tag, and exposes exactly two step shapes:
///
/// * **input lanes** — payloads the local kernel only *reads* (the
///   traveling dense panel of an SpMM, the sparse block of a
///   sparse-shifting round). [`ShiftPipeline::begin`] posts the outgoing
///   copy *before* the compute of the current step, and the returned
///   [`InFlight`] is awaited after it — under [`ShiftMode::Pipelined`]
///   the transfer hides behind the compute;
/// * **accumulator lanes** — payloads the kernel *writes* (a circulating
///   output block). The data is not final until the compute finishes, so
///   [`ShiftPipeline::exchange`] posts after it, blocking — structurally
///   identical to the classic `sendrecv` shift.
///
/// Both shapes exist in dense ([`Mat`]) and pattern-routed
/// ([`RowBundle`] via a [`RowSet`] forward set) forms, so `Routing` and
/// overlap compose. All traffic is charged to [`Phase::Propagation`];
/// modeled counters are identical across modes and to the blocking
/// `Comm::shift` this replaces.
pub struct ShiftPipeline<'a> {
    ring: &'a Comm,
    disp: usize,
    tag: u32,
    mode: ShiftMode,
}

impl<'a> ShiftPipeline<'a> {
    /// A pipeline shifting by `disp` on `ring` with message tag `tag`,
    /// in the thread's current [`ShiftMode`].
    pub fn new(ring: &'a Comm, disp: usize, tag: u32) -> Self {
        ShiftPipeline {
            ring,
            disp,
            tag,
            mode: ShiftMode::current(),
        }
    }

    /// The mode this pipeline was constructed under.
    pub fn mode(&self) -> ShiftMode {
        self.mode
    }

    /// Start an input-lane step: post (pipelined) or stage (blocking)
    /// the outgoing copy of `value`, to be collected with
    /// [`InFlight::wait`] after the step's compute.
    pub fn begin<T: WirePayload + Clone>(&self, value: &T) -> InFlight<'a, T> {
        self.begin_payload(value.clone())
    }

    /// Take ownership of an already-built outgoing payload and start the
    /// step (the non-cloning core of [`ShiftPipeline::begin`]).
    fn begin_payload<T: WirePayload>(&self, value: T) -> InFlight<'a, T> {
        match self.mode {
            ShiftMode::Pipelined => {
                let _ph = self.ring.phase(Phase::Propagation);
                trace::mark(TraceKind::Shift, "pipeline.post", || {
                    vec![("tag".to_string(), ArgVal::Num(self.tag as f64))]
                });
                InFlight {
                    ring: self.ring,
                    state: InFlightState::Posted(self.ring.shift_begin(self.disp, self.tag, value)),
                }
            }
            ShiftMode::Blocking => {
                trace::mark(TraceKind::Shift, "pipeline.stage", || {
                    vec![("tag".to_string(), ArgVal::Num(self.tag as f64))]
                });
                InFlight {
                    ring: self.ring,
                    state: InFlightState::Staged {
                        disp: self.disp,
                        tag: self.tag,
                        value,
                    },
                }
            }
        }
    }

    /// Accumulator-lane step: blocking exchange of a finished block.
    pub fn exchange<T: WirePayload>(&self, value: T) -> T {
        let _ph = self.ring.phase(Phase::Propagation);
        let start = std::time::Instant::now();
        let v = self.ring.shift(self.disp, self.tag, value);
        trace::complete(TraceKind::Shift, "pipeline.exchange", start, || {
            vec![("tag".to_string(), ArgVal::Num(self.tag as f64))]
        });
        v
    }

    /// Input-lane step for a dense panel, optionally pattern-routed:
    /// with `ship`, only the forward-set rows travel (as a [`RowBundle`]
    /// with dense fallback) and the receiver zero-fills the rest.
    pub fn begin_mat(&self, y: &Mat, ship: Option<&RowSet>) -> MatInFlight<'a> {
        match ship {
            None => MatInFlight {
                state: MatInFlightState::Dense(self.begin(y)),
            },
            Some(set) => {
                let bundle = RowBundle::gather(y.nrows(), y.ncols(), y.as_slice(), set);
                MatInFlight {
                    state: MatInFlightState::Routed(self.begin_payload(bundle)),
                }
            }
        }
    }

    /// Accumulator-lane step for a dense panel, optionally
    /// pattern-routed.
    pub fn exchange_mat(&self, y: Mat, ship: Option<&RowSet>) -> Mat {
        match ship {
            None => self.exchange(y),
            Some(set) => {
                let bundle = RowBundle::gather(y.nrows(), y.ncols(), y.as_slice(), set);
                let (nrows, ncols, data) = self.exchange(bundle).into_full();
                Mat::from_vec(nrows, ncols, data)
            }
        }
    }
}

enum InFlightState<'a, T: WirePayload> {
    /// Pipelined: the receive half of a posted `shift_begin`.
    Posted(RecvHandle<'a, T>),
    /// Blocking: the outgoing copy, exchanged at `wait`.
    Staged { disp: usize, tag: u32, value: T },
}

/// An input-lane block in flight around the ring; collect it with
/// [`InFlight::wait`] after the step's compute.
#[must_use = "an in-flight shift must be waited"]
pub struct InFlight<'a, T: WirePayload> {
    ring: &'a Comm,
    state: InFlightState<'a, T>,
}

impl<T: WirePayload> InFlight<'_, T> {
    /// Complete the step: the block shifted in from the ring
    /// predecessor. Time blocked here (and the receive's modeled cost)
    /// is charged to [`Phase::Propagation`].
    pub fn wait(self) -> T {
        let InFlight { ring, state } = self;
        let _ph = ring.phase(Phase::Propagation);
        let start = std::time::Instant::now();
        let (v, lane) = match state {
            InFlightState::Posted(h) => (h.wait(), "posted"),
            InFlightState::Staged { disp, tag, value } => (ring.shift(disp, tag, value), "staged"),
        };
        trace::complete(TraceKind::Shift, "pipeline.wait", start, || {
            vec![("lane".to_string(), ArgVal::Str(lane.to_string()))]
        });
        v
    }
}

/// A dense panel in flight, dense or pattern-routed.
#[must_use = "an in-flight shift must be waited"]
pub struct MatInFlight<'a> {
    state: MatInFlightState<'a>,
}

enum MatInFlightState<'a> {
    Dense(InFlight<'a, Mat>),
    Routed(InFlight<'a, RowBundle>),
}

impl MatInFlight<'_> {
    /// Complete the step, reconstructing a full panel (zero-filling
    /// unshipped rows on the routed path).
    pub fn wait(self) -> Mat {
        match self.state {
            MatInFlightState::Dense(f) => f.wait(),
            MatInFlightState::Routed(f) => {
                let (nrows, ncols, data) = f.wait().into_full();
                Mat::from_vec(nrows, ncols, data)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsk_comm::{MachineModel, SimWorld};

    #[test]
    fn shift_mode_override_is_scoped() {
        assert_eq!(ShiftMode::current(), ShiftMode::Pipelined);
        {
            let _g = ShiftMode::scoped(ShiftMode::Blocking);
            assert_eq!(ShiftMode::current(), ShiftMode::Blocking);
            {
                let _g2 = ShiftMode::scoped(ShiftMode::Pipelined);
                assert_eq!(ShiftMode::current(), ShiftMode::Pipelined);
            }
            assert_eq!(ShiftMode::current(), ShiftMode::Blocking);
        }
        assert_eq!(ShiftMode::current(), ShiftMode::Pipelined);
    }

    #[test]
    fn pipeline_on_single_rank_world_is_identity() {
        for mode in [ShiftMode::Pipelined, ShiftMode::Blocking] {
            let out = SimWorld::new(1, MachineModel::bandwidth_only()).run(move |c| {
                let _g = ShiftMode::scoped(mode);
                let pipe = ShiftPipeline::new(c, 1, 7);
                let y = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
                let fly = pipe.begin_mat(&y, None);
                let back = fly.wait();
                let back = pipe.exchange_mat(back, None);
                back.as_slice().to_vec()
            });
            assert_eq!(out[0].value, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
            assert_eq!(out[0].stats.total().msgs_sent, 0, "p=1 must not message");
        }
    }

    /// Ragged ring: 10 rows over 3 ranks (p ∤ shape), shifted a full
    /// revolution in both modes and both lane shapes — bitwise equal
    /// values and identical modeled counters.
    #[test]
    fn pipelined_and_blocking_agree_on_ragged_blocks() {
        let run = |mode: ShiftMode| {
            SimWorld::new(3, MachineModel::bandwidth_only()).run(move |c| {
                let _g = ShiftMode::scoped(mode);
                let rows = block_range(10, 3, c.rank()).len();
                let mut y = Mat::from_vec(
                    rows,
                    2,
                    (0..rows * 2).map(|i| (c.rank() * 100 + i) as f64).collect(),
                );
                let pipe = ShiftPipeline::new(c, 1, 3);
                for _ in 0..3 {
                    let fly = pipe.begin_mat(&y, None);
                    // "compute" reads y while the copy is in flight
                    let checksum: f64 = y.as_slice().iter().sum();
                    let next = fly.wait();
                    y = pipe.exchange_mat(next, None);
                    std::hint::black_box(checksum);
                }
                // 6 hops = two full revolutions: y is home again.
                (y.nrows(), y.as_slice().to_vec(), c.stats_snapshot())
            })
        };
        let a = run(ShiftMode::Pipelined);
        let b = run(ShiftMode::Blocking);
        for (oa, ob) in a.iter().zip(&b) {
            assert_eq!(oa.value.0, block_range(10, 3, oa.rank).len());
            assert_eq!(oa.value.1, ob.value.1, "values must match bitwise");
            let (sa, sb) = (&oa.value.2, &ob.value.2);
            assert_eq!(sa.total().msgs_sent, sb.total().msgs_sent);
            assert_eq!(sa.total().words_sent, sb.total().words_sent);
            assert_eq!(
                sa.total().modeled_s.to_bits(),
                sb.total().modeled_s.to_bits(),
                "modeled time must be bit-identical across modes"
            );
        }
    }

    /// Empty blocks (0×0 panels) and empty routed forward sets travel
    /// cleanly through both lane shapes; the world's end-of-run drain
    /// check guarantees nothing leaks.
    #[test]
    fn empty_blocks_and_empty_forward_sets_flow() {
        for mode in [ShiftMode::Pipelined, ShiftMode::Blocking] {
            let out = SimWorld::new(2, MachineModel::bandwidth_only()).run(move |c| {
                let _g = ShiftMode::scoped(mode);
                let pipe = ShiftPipeline::new(c, 1, 11);
                let empty = Mat::zeros(0, 0);
                let fly = pipe.begin_mat(&empty, None);
                let got = fly.wait();
                assert_eq!(got.nrows(), 0);
                // A panel whose forward set is empty: rows exist but
                // none ship; the receiver reconstructs zeros.
                let y = Mat::from_vec(2, 2, vec![1.0; 4]);
                let none = RowSet::empty();
                let fly = pipe.begin_mat(&y, Some(&none));
                let got = fly.wait();
                got.as_slice().iter().sum::<f64>()
            });
            for o in &out {
                assert_eq!(o.value, 0.0, "unshipped rows must reconstruct as zeros");
            }
        }
    }

    /// A replan mid-run (dropping one pipeline, building another with a
    /// different tag and routing) leaves no message in flight: every
    /// step waits its handle, so the drain check at world exit passes.
    #[test]
    fn replan_mid_pipeline_drains_cleanly() {
        let out = SimWorld::new(2, MachineModel::bandwidth_only()).run(|c| {
            let mut y = Mat::from_vec(1, 2, vec![c.rank() as f64, 1.0]);
            {
                let pipe = ShiftPipeline::new(c, 1, 20);
                let fly = pipe.begin_mat(&y, None);
                y = fly.wait();
            }
            // "Replan": new tag, pattern routing, fresh pipeline.
            let pipe = ShiftPipeline::new(c, 1, 21);
            let all = RowSet::all(1);
            let fly = pipe.begin_mat(&y, Some(&all));
            y = fly.wait();
            y.as_slice()[0]
        });
        // Two hops on a 2-ring: each rank's row is home again.
        for o in &out {
            assert_eq!(o.value, o.rank as f64);
        }
    }

    #[test]
    fn phi_matches_definition() {
        let d = ProblemDims::new(100, 200, 8);
        assert!((d.phi(400) - 400.0 / 1600.0).abs() < 1e-12);
    }

    #[test]
    fn elision_support_matches_paper() {
        use AlgorithmFamily::*;
        use Elision::*;
        assert!(DenseShift15.supports(LocalKernelFusion));
        assert!(DenseShift15.supports(ReplicationReuse));
        assert!(SparseShift15.supports(ReplicationReuse));
        assert!(!SparseShift15.supports(LocalKernelFusion));
        assert!(DenseRepl25.supports(ReplicationReuse));
        assert!(!DenseRepl25.supports(LocalKernelFusion));
        assert!(!SparseRepl25.supports(ReplicationReuse));
        assert!(!SparseRepl25.supports(LocalKernelFusion));
        assert!(SparseRepl25.supports(None));
    }

    #[test]
    fn valid_c_checks_square_layers() {
        use AlgorithmFamily::*;
        assert!(DenseShift15.valid_c(8, 4));
        assert!(!DenseShift15.valid_c(8, 3));
        assert!(DenseRepl25.valid_c(8, 2)); // 4 = 2²
        assert!(!DenseRepl25.valid_c(8, 1)); // 8 not square
        assert!(SparseRepl25.valid_c(32, 2)); // 16 = 4²
        assert!(!SparseRepl25.valid_c(32, 4)); // 8 not square
    }

    #[test]
    fn union_range_spans_blocks() {
        // 10 elements in 4 parts: [0..3), [3..6), [6..8), [8..10)
        assert_eq!(union_range(10, 4, 0, 2), 0..6);
        assert_eq!(union_range(10, 4, 2, 2), 6..10);
        assert_eq!(union_range(10, 4, 1, 1), block_range(10, 4, 1));
    }
}
