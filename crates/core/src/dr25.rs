//! The 2.5D dense-replicating algorithm (Algorithm 2 of the paper).
//!
//! Grid `q × q × c` with `q = √(p/c)` ([`GridComms25`]). Each of the `c`
//! layers runs a Cannon-style schedule on its `q × q` face:
//!
//! * `S` is cut into `q` macro block rows × `q·c` column blocks; layer
//!   `w` owns the column blocks `j ≡ w (mod c)` — together the layers
//!   partition `S`, so SDDMM outputs need no reduction and each layer
//!   sums a disjoint `1/c` of the `n`-contraction for SpMMA;
//! * `B` is cut into `q·c` block rows (aligned with `S`'s column
//!   blocks) × `q` r-slices;
//! * `A` is **replicated**: rank `(u, v, w)` owns the `w`-th sub-block
//!   of macro row `u` restricted to slice `v`; an all-gather along the
//!   fiber materializes `T = A[macro u, slice v]` (or `T` starts at
//!   zero and is reduce-scattered when `A` is the output).
//!
//! At step `t`, rank `(u, v, w)` holds the `S` block with column index
//! `σ·c + w` and the `B` block with row index `σ·c + w`, where
//! `σ = (u + v + t) mod q`; `S` shifts within grid rows and `B` within
//! grid columns. Blocks are **stored pre-skewed** (the paper notes the
//! initial alignment shift can be elided by filling buffers
//! appropriately, and excludes it from its analysis).
//!
//! A traveling SDDMM block accumulates slice-partial dot products
//! (visiting all `q` slices as it crosses its grid row); for SpMMB the
//! `B`-shaped output circulates as an accumulator alongside, completing
//! the `m`-contraction with no fiber traffic.

use std::sync::Arc;

use dsk_comm::{Comm, CommPattern, Grid25, GridComms25, Phase, RowSet};
use dsk_dense::Mat;
use dsk_kernels as kern;
use dsk_sparse::CooMatrix;

use crate::common::{
    block_range, export_triplets, forward_acc, forward_input, import_values, sample, sq_diff,
    AlgorithmFamily, Elision, Sampling, ShiftPipeline,
};
use crate::kernel::{CombineSpec, DistKernel, KernelId, TuneBlock};
use crate::layout::repartition_dense;
use crate::planview::{PlanView, Side};
use crate::staged::{PlanPatterns, StagedProblem};

/// Tag for traveling sparse blocks (row-ring).
const TAG_SPARSE: u32 = 120;
/// Tag for traveling dense panels (column-ring).
const TAG_DENSE: u32 = 121;

/// One orientation (canonical `S` or transposed `Sᵀ`) of the worker's
/// traveling data.
struct Oriented {
    /// Home (pre-skewed) sparse block: rows local to macro row `u`,
    /// columns local to its column block; values = sampling values.
    s_home: CooMatrix,
    /// Home (pre-skewed) traveling dense block (the `B` role).
    y_home: Mat,
    /// This rank's fiber sub-block of the replicated matrix (the `A`
    /// role).
    x_fiber: Mat,
    /// Total rows of the oriented sparse matrix (rows of the replicated
    /// dense matrix) — needed to size the replicated macro row.
    rows_tot: usize,
    /// Total columns of the oriented sparse matrix (rows of the
    /// traveling dense matrix) — needed to size incoming blocks.
    cols_tot: usize,
}

/// Per-rank state of the 2.5D dense-replicating algorithm.
pub(crate) struct DenseRepl25 {
    /// Grid communicators (row ring, column ring, fiber).
    gc: GridComms25,
    view: PlanView,
    /// Canonical orientation (replicate `A`, travel `S` and `B`).
    canon: Oriented,
    /// Transposed orientation (replicate `B`, travel `Sᵀ` and `A`).
    trans: Oriented,
    /// SDDMM result values for the canonical home block.
    r_vals: Option<Vec<f64>>,
    /// Column-ring pattern for canonical-orientation panel shifts
    /// (`None` = dense shifts, the default).
    route_canon: Option<CommPattern>,
    /// Column-ring pattern for transposed-orientation panel shifts.
    route_trans: Option<CommPattern>,
    /// Tuned local-kernel variants (all-naive until the builder tunes).
    pub(crate) local: kern::LocalPicks,
}

impl DenseRepl25 {
    /// Build this rank's state from shared staging (no communication,
    /// statistics unaffected).
    pub(crate) fn new(comm: &Comm, c: usize, staged: &StagedProblem) -> Self {
        let prob = &*staged.prob;
        let grid = Grid25::new(comm.size(), c).expect("invalid 2.5D grid");
        let gc = GridComms25::build(comm, grid);
        let (m, n) = (prob.dims.m, prob.dims.n);
        assert!(
            m >= grid.q * c && n >= grid.q * c,
            "matrix sides too small for grid"
        );
        let view = PlanView::of(
            KernelId::Family(AlgorithmFamily::DenseRepl25),
            c,
            grid.p,
            prob.dims,
        );
        let g = comm.rank();
        // The pre-skewed home block (u, ((u+v) mod q)·c + w).
        let sigma0 = (gc.u + gc.v) % grid.q;
        let orient = |transposed: bool, (xs, x): (Side, &Mat), (ys, y): (Side, &Mat)| {
            let (rows_tot, cols_tot) = if transposed { (n, m) } else { (m, n) };
            let grid_s = Self::partition(staged, transposed, grid.q, c);
            Oriented {
                s_home: grid_s[gc.u][sigma0 * c + gc.w].clone(),
                y_home: view.iterate_layout(ys, g).extract(y),
                x_fiber: view.fiber_layout(xs, g).extract(x),
                rows_tot,
                cols_tot,
            }
        };
        let canon = orient(false, (Side::A, &prob.a), (Side::B, &prob.b));
        let trans = orient(true, (Side::B, &prob.b), (Side::A, &prob.a));
        DenseRepl25 {
            gc,
            view,
            canon,
            trans,
            r_vals: None,
            route_canon: None,
            route_trans: None,
            local: kern::LocalPicks::default(),
        }
    }

    /// The block the builder tunes on (this rank's canonical home `S`
    /// block) and the local ops this family runs. COO blocks only admit
    /// the serial naive/blocked pair, and the family has no local fused
    /// kernel.
    pub(crate) fn tune_target(&self) -> (TuneBlock<'_>, &'static [kern::LocalOp]) {
        use kern::LocalOp::*;
        (TuneBlock::Coo(&self.canon.s_home), &[Spmm, SpmmT, Sddmm])
    }

    /// The need sets a pattern-routed plan requires, derived world-free
    /// from the staged `S` partition. A column ring's traveling panel
    /// with `σ`-index `jq` is read (or written) by ring member `u` at
    /// exactly the column support of `u`'s sparse block `jq·c + w` —
    /// independent of the member's own `v`. `primary[g][jq]` is that
    /// support for the canonical orientation (panels over `n`),
    /// `secondary` for the transposed one (panels over `m`).
    pub(crate) fn derive_needs(staged: &StagedProblem, p: usize, c: usize) -> PlanPatterns {
        let grid = Grid25::new(p, c).expect("invalid 2.5D grid");
        let q = grid.q;
        let needs_for = |transposed: bool| -> Vec<Vec<RowSet>> {
            let grid_s = Self::partition(staged, transposed, q, c);
            (0..p)
                .map(|g| {
                    let (u, w) = (grid.row_pos(g), grid.fiber_pos(g));
                    (0..q)
                        .map(|jq| {
                            let blk = &grid_s[u][jq * c + w];
                            RowSet::from_indices(blk.iter().map(|(_, j, _)| j as u32).collect())
                        })
                        .collect()
                })
                .collect()
        };
        PlanPatterns {
            primary: needs_for(false),
            secondary: Some(needs_for(true)),
        }
    }

    /// Switch panel propagation to pattern routing: exchange this rank's
    /// need sets over its column ring (charged to
    /// `Phase::PatternExchange`) and keep the patterns for every later
    /// shift.
    pub(crate) fn enable_pattern_routing(&mut self, pats: &PlanPatterns) {
        let grid = self.gc.grid;
        let g = grid.rank_of(self.gc.u, self.gc.v, self.gc.w);
        self.route_canon = Some(CommPattern::exchange(
            &self.gc.col_ring,
            pats.primary[g].clone(),
        ));
        let sec = pats
            .secondary
            .as_ref()
            .expect("2.5D dense replication routes both orientations");
        self.route_trans = Some(CommPattern::exchange(&self.gc.col_ring, sec[g].clone()));
    }

    /// The staged partition of `S` (`Sᵀ` when `transposed`): `q` macro
    /// rows × `q·c` column blocks.
    fn partition(
        staged: &StagedProblem,
        transposed: bool,
        q: usize,
        c: usize,
    ) -> Arc<Vec<Vec<CooMatrix>>> {
        let d = staged.prob.dims;
        let (rows, cols) = if transposed { (d.n, d.m) } else { (d.m, d.n) };
        let macro_rows: Vec<_> = (0..q).map(|uu| block_range(rows, q, uu)).collect();
        let col_blocks: Vec<_> = (0..q * c).map(|j| block_range(cols, q * c, j)).collect();
        staged.partition(transposed, &macro_rows, &col_blocks)
    }

    fn q(&self) -> usize {
        self.gc.grid.q
    }

    /// This rank's position in the world communicator.
    fn me(&self) -> usize {
        self.gc.grid.rank_of(self.gc.u, self.gc.v, self.gc.w)
    }

    /// Row count of the traveling dense block this rank holds at step
    /// `t` (block index `σ(t)·c + w` of the `q·c`-way split).
    fn y_rows_at(&self, o: &Oriented, t: usize) -> usize {
        let (q, c, w) = (self.q(), self.gc.grid.c, self.gc.w);
        let sigma = (self.gc.u + self.gc.v + t) % q;
        block_range(o.cols_tot, q * c, sigma * c + w).len()
    }

    /// All-gather the fiber sub-blocks into `T = X[macro u, slice v]`.
    /// The macro-row length is sized explicitly so that empty r-slices
    /// still yield a correctly-shaped panel.
    fn replicate(&self, o: &Oriented) -> Mat {
        let _ph = self.gc.fiber.phase(Phase::Replication);
        let total_rows = block_range(o.rows_tot, self.q(), self.gc.u).len();
        let width = o.x_fiber.ncols();
        let parts = self.gc.fiber.allgather(o.x_fiber.as_slice().to_vec());
        let mut data = Vec::new();
        for p in parts {
            data.extend_from_slice(&p);
        }
        debug_assert!(width == 0 || data.len() / width == total_rows);
        Mat::from_vec(total_rows, width, data)
    }

    /// Reduce-scatter a macro-row accumulator along the fiber back to
    /// this rank's sub-block.
    fn reduce_to_fiber(&self, t_buf: &Mat) -> Mat {
        let _ph = self.gc.fiber.phase(Phase::Replication);
        let c = self.gc.grid.c;
        let width = t_buf.ncols();
        let ranges: Vec<std::ops::Range<usize>> = (0..c)
            .map(|ww| {
                let sub = block_range(t_buf.nrows(), c, ww);
                sub.start * width..sub.end * width
            })
            .collect();
        let mine = self
            .gc
            .fiber
            .reduce_scatter_sum_ranges(t_buf.as_slice(), &ranges);
        let rows = mine.len().checked_div(width).unwrap_or(0);
        Mat::from_vec(rows, width, mine)
    }

    /// Row-ring pipeline for the traveling sparse block (one step
    /// backward per hop: its σ index advances by one).
    fn sparse_pipeline(&self) -> ShiftPipeline<'_> {
        let q = self.gc.row_ring.size();
        ShiftPipeline::new(&self.gc.row_ring, q - 1, TAG_SPARSE)
    }

    /// Column-ring pipeline for the traveling dense panel. The panel
    /// travels as a [`Mat`] payload (or a routed row bundle with
    /// zero-fill reconstruction), so its shape — including empty
    /// r-slices — survives the hop; callers cross-check the arriving
    /// row count against the schedule via [`DenseRepl25::y_rows_at`].
    fn dense_pipeline(&self) -> ShiftPipeline<'_> {
        let q = self.gc.col_ring.size();
        ShiftPipeline::new(&self.gc.col_ring, q - 1, TAG_DENSE)
    }

    /// Schedule cross-check for an arriving panel: empty panels carry no
    /// shape, all others must match the expected row count.
    fn check_panel(got: Mat, next_rows: usize) -> Mat {
        debug_assert!(got.ncols() == 0 || got.nrows() == next_rows);
        got
    }

    /// The `σ`-index of the panel this rank holds at step `t`, and the
    /// ring member that holds it at step `t'` (member
    /// `(σ − v − t') mod q`).
    fn panel_at(&self, t: usize) -> (usize, impl Fn(usize) -> usize) {
        let (q, v) = (self.q(), self.gc.v);
        let sig = (self.gc.u + v + t) % q;
        (sig, move |tp| (sig + 2 * q - v - tp) % q)
    }

    /// SDDMM travel round: the sparse block accumulates slice-partial
    /// combines as it crosses its grid row; `y` panels travel alongside.
    /// Returns the home block's fully accumulated values (no sampling).
    fn dots_round(
        &self,
        o: &Oriented,
        t_buf: &Mat,
        y0: &Mat,
        combine: &CombineSpec,
        route: Option<&CommPattern>,
    ) -> Vec<f64> {
        let q = self.q();
        let slice = block_range(self.view.dims.r, q, self.gc.v);
        let mut blk = o.s_home.clone();
        blk.vals.fill(0.0);
        let mut y = y0.clone();
        let pipe_s = self.sparse_pipeline();
        let pipe_y = self.dense_pipeline();
        for t in 0..q {
            // The panel is an input lane: post its next hop before the
            // compute so the transfer hides behind it. The sparse block
            // accumulates this step's combines, so it exchanges after.
            let ship = route.map(|pat| {
                let (sig, member) = self.panel_at(t);
                forward_input(pat, sig, t, q, member)
            });
            let fly_y = pipe_y.begin_mat(&y, ship.as_ref());
            let mut vals = std::mem::take(&mut blk.vals);
            let com = combine.for_slice(slice.clone());
            self.gc
                .row_ring
                .compute(kern::sddmm_flops(blk.rows.len(), slice.len()), || {
                    self.local.sddmm.sddmm_coo(&mut vals, &blk, t_buf, &y, com)
                });
            blk.vals = vals;
            blk = pipe_s.exchange(blk);
            y = Self::check_panel(fly_y.wait(), self.y_rows_at(o, t + 1));
        }
        debug_assert_eq!(blk.nnz(), o.s_home.nnz(), "block failed to return home");
        blk.vals
    }

    /// SpMM travel round with a replicated accumulator (`T += S·y` per
    /// step) — the SpMMA data flow — reduce-scattered back to this
    /// rank's fiber sub-block.
    fn spmm_out_round(&self, vals: Vec<f64>, y0: &Mat) -> Mat {
        let (q, o, route) = (self.q(), &self.canon, self.route_canon.as_ref());
        let width = y0.ncols();
        let t_rows = block_range(self.view.dims.m, q, self.gc.u).len();
        let mut t_out = Mat::zeros(t_rows, width);
        let mut blk = o.s_home.clone();
        blk.vals = vals;
        let mut y = y0.clone();
        let pipe_s = self.sparse_pipeline();
        let pipe_y = self.dense_pipeline();
        for t in 0..q {
            // Both travelers are input lanes here (the accumulator is
            // replicated, not circulating): post both hops up front and
            // overlap the two transfers with the local SpMM.
            let fly_s = pipe_s.begin(&blk);
            let ship = route.map(|pat| {
                let (sig, member) = self.panel_at(t);
                forward_input(pat, sig, t, q, member)
            });
            let fly_y = pipe_y.begin_mat(&y, ship.as_ref());
            self.gc
                .row_ring
                .compute(kern::spmm_flops(blk.nnz(), width), || {
                    self.local.spmm.spmm_coo(&mut t_out, &blk, &y)
                });
            blk = fly_s.wait();
            y = Self::check_panel(fly_y.wait(), self.y_rows_at(o, t + 1));
        }
        self.reduce_to_fiber(&t_out)
    }

    /// SpMM travel round with a circulating output accumulator (`out +=
    /// Sᵀ·T` per step, `out` traveling the column ring) — the SpMMB
    /// data flow.
    fn spmm_shift_acc_round(
        &self,
        o: &Oriented,
        vals: Vec<f64>,
        t_buf: &Mat,
        route: Option<&CommPattern>,
    ) -> Mat {
        let q = self.q();
        let width = t_buf.ncols();
        let mut blk = o.s_home.clone();
        blk.vals = vals;
        let mut out = Mat::zeros(o.y_home.nrows(), width);
        let pipe_s = self.sparse_pipeline();
        let pipe_y = self.dense_pipeline();
        for t in 0..q {
            debug_assert_eq!(blk.ncols, out.nrows(), "block/accumulator misalignment");
            // The sparse block is read-only this step (input lane); the
            // output panel is written by the kernel, so it exchanges
            // only after the compute finishes.
            let fly_s = pipe_s.begin(&blk);
            self.gc
                .row_ring
                .compute(kern::spmm_flops(blk.nnz(), width), || {
                    self.local.spmm_t.spmm_coo_t(&mut out, &blk, t_buf)
                });
            blk = fly_s.wait();
            let ship = route.map(|pat| {
                let (sig, member) = self.panel_at(t);
                forward_acc(pat, sig, t, member)
            });
            out = Self::check_panel(
                pipe_y.exchange_mat(out, ship.as_ref()),
                self.y_rows_at(o, t + 1),
            );
        }
        out
    }

    /// FusedMM in orientation `o`: replicate `o`'s `x`, dots of the
    /// traveling block against `y0`, then the circulating SpMM —
    /// reusing the replica under replication reuse, re-replicating
    /// (and pattern-routing, when planned) without elision.
    fn fused(
        &self,
        o: &Oriented,
        y0: &Mat,
        route: Option<&CommPattern>,
        elision: Elision,
        sampling: Sampling,
    ) -> Mat {
        let reuse = match elision {
            Elision::ReplicationReuse => true,
            Elision::None => false,
            Elision::LocalKernelFusion => panic!(
                "local kernel fusion requires co-located full rows; \
                 unsupported for 2.5D dense replication"
            ),
        };
        let route = if reuse { None } else { route };
        let t_buf = self.replicate(o);
        let dots = self.dots_round(o, &t_buf, y0, &CombineSpec::Dot, route);
        let rvals = sample(dots, &o.s_home.vals, sampling);
        let t_buf2 = if reuse { t_buf } else { self.replicate(o) };
        self.spmm_shift_acc_round(o, rvals, &t_buf2, route)
    }

    fn vals_for_travel(&self, use_r: bool) -> Vec<f64> {
        if use_r {
            self.r_vals
                .clone()
                .expect("no SDDMM result available; call sddmm() first")
        } else {
            self.canon.s_home.vals.clone()
        }
    }

    /// Global `(row, col)` of every stored R value, in `r_vals` order.
    fn r_coords(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (rows, cols) = self.view.r_bounds_of(self.me());
        (self.canon.s_home.iter()).map(move |(i, j, _)| (rows.start + i, cols.start + j))
    }
}

impl DistKernel for DenseRepl25 {
    fn id(&self) -> KernelId {
        KernelId::Family(AlgorithmFamily::DenseRepl25)
    }

    fn view(&self) -> PlanView {
        self.view
    }

    /// Distributed SDDMM (replicates `A`, travels `S` and `B`).
    fn sddmm(&mut self) {
        self.sddmm_general(&CombineSpec::Dot);
        let dots = self.r_vals.take().expect("SDDMM stored R");
        self.r_vals = Some(sample(dots, &self.canon.s_home.vals, Sampling::Values));
    }

    fn sddmm_general(&mut self, combine: &CombineSpec) {
        let t_buf = self.replicate(&self.canon);
        let route = self.route_canon.as_ref();
        let dots = self.dots_round(&self.canon, &t_buf, &self.canon.y_home, combine, route);
        self.r_vals = Some(dots);
    }

    /// `S·B` (or `R·B`), returned in the fiber `A` layout.
    fn spmm_a(&mut self, use_r: bool) -> Mat {
        let vals = self.vals_for_travel(use_r);
        self.spmm_out_round(vals, &self.canon.y_home)
    }

    /// `Sᵀ·A` (or `Rᵀ·A`), returned in the travel `B` layout
    /// (pre-skewed home block).
    fn spmm_b(&mut self, use_r: bool) -> Mat {
        let vals = self.vals_for_travel(use_r);
        let t_buf = self.replicate(&self.canon);
        self.spmm_shift_acc_round(&self.canon, vals, &t_buf, self.route_canon.as_ref())
    }

    /// FusedMMA via transposed roles (replicate `B`, travel `Sᵀ` and
    /// `A`); `x` and the result are in the travel layout over `m`.
    fn fused_mm_a(&mut self, x: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat {
        let x0 = x.unwrap_or(&self.trans.y_home);
        self.fused(
            &self.trans,
            x0,
            self.route_trans.as_ref(),
            elision,
            sampling,
        )
    }

    /// FusedMMB; `y` and the result are in the travel layout over `n`.
    fn fused_mm_b(&mut self, y: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat {
        let y0 = y.unwrap_or(&self.canon.y_home);
        self.fused(
            &self.canon,
            y0,
            self.route_canon.as_ref(),
            elision,
            sampling,
        )
    }

    fn map_r(&mut self, f: &mut dyn FnMut(f64) -> f64) {
        let r = self.r_vals.as_mut().expect("no R values");
        for v in r.iter_mut() {
            *v = f(*v);
        }
    }

    /// Row sums over this rank's macro row (reduced across the whole
    /// grid row plane; indices local to macro row `u`).
    fn r_row_sums(&self, _comm: &Comm, phase: Phase) -> Vec<f64> {
        let r = self.r_vals.as_ref().expect("no R values");
        let rows = block_range(self.view.dims.m, self.q(), self.gc.u).len();
        let mut sums = vec![0.0; rows];
        for (k, (i, _, _)) in self.canon.s_home.iter().enumerate() {
            sums[i] += r[k];
        }
        let _ph = self.gc.row_plane.phase(phase);
        self.gc.row_plane.allreduce_sum(&mut sums);
        sums
    }

    fn scale_r_rows(&mut self, scale: &[f64]) {
        let r = self.r_vals.as_mut().expect("no R values");
        for (k, (i, _, _)) in self.canon.s_home.iter().enumerate() {
            r[k] *= scale[i];
        }
    }

    fn spmm_a_with(&self, y: &Mat) -> Mat {
        let vals = self.r_vals.clone().expect("no R values");
        self.spmm_out_round(vals, y)
    }

    fn sq_loss_local(&self) -> f64 {
        sq_diff(
            &self.canon.s_home.vals,
            self.r_vals.as_ref().expect("no R values"),
        )
    }

    fn export_r(&self) -> Option<CooMatrix> {
        let r_vals = self.r_vals.as_ref()?;
        Some(export_triplets(self.view.dims, self.r_coords(), r_vals))
    }

    fn import_r(&mut self, r: &CooMatrix) {
        self.r_vals = Some(import_values(r, self.r_coords()));
    }

    fn a_iterate(&self) -> Mat {
        self.trans.y_home.clone()
    }

    fn b_iterate(&self) -> Mat {
        self.canon.y_home.clone()
    }

    fn set_a(&mut self, comm: &Comm, x: &Mat) {
        // The canonical replicated role reads A in the fiber layout; the
        // transposed traveling role keeps the iterate itself.
        let view = self.view;
        self.canon.x_fiber = {
            let _ph = comm.phase(Phase::OutsideComm);
            repartition_dense(
                comm,
                x,
                |g| view.iterate_layout(Side::A, g),
                |g| view.fiber_layout(Side::A, g),
            )
        };
        self.trans.y_home = x.clone();
    }

    fn set_b(&mut self, comm: &Comm, y: &Mat) {
        let view = self.view;
        self.trans.x_fiber = {
            let _ph = comm.phase(Phase::OutsideComm);
            repartition_dense(
                comm,
                y,
                |g| view.iterate_layout(Side::B, g),
                |g| view.fiber_layout(Side::B, g),
            )
        };
        self.canon.y_home = y.clone();
    }

    fn rhs_a(&mut self, comm: &Comm) -> Mat {
        // The SpMMA output lands in the fiber layout; the iterate lives
        // in the travel layout — pay the distribution shift (Fig. 9).
        let view = self.view;
        let fiber = self.spmm_a(false);
        let _ph = comm.phase(Phase::OutsideComm);
        repartition_dense(
            comm,
            &fiber,
            |g| view.fiber_layout(Side::A, g),
            |g| view.iterate_layout(Side::A, g),
        )
    }

    fn rhs_b(&mut self, _comm: &Comm) -> Mat {
        self.spmm_b(false)
    }
}
