//! The 1.5D sparse-shifting, dense-replicating algorithm.
//!
//! The paper's novel benchmark case: instead of shifting a dense matrix,
//! the **sparse matrix propagates** while the dense matrices are divided
//! by *block columns* (r-slices). Favorable when
//! φ = nnz(S)/(n·r) is small — shifting `3·nnz/p` words per step beats
//! shifting `n·r/p`.
//!
//! Grid `(p/c) × c`, rank `g = (u, v)` with `q = p/c`:
//!
//! * the r-dimension is cut into `q` slices; the ranks of fiber `u` all
//!   work on slice `u`;
//! * the **replicated** dense matrix: rank `(u, v)` holds rows
//!   `block(m, c, v)` of slice `u`; an all-gather along the fiber yields
//!   the full `m × slice` panel;
//! * the **stationary** dense matrix: rank `(u, v)` holds the row blocks
//!   `{j ≡ v (mod c)}` (of the `p`-way decomposition) of slice `u` —
//!   exactly the rows addressed by the sparse column blocks that visit
//!   this rank;
//! * `S` is cut into `p` column blocks (full height); rank `(u, v)`'s
//!   home block is `j = u·c + v`, and blocks cycle around the layer ring
//!   carrying their values as *partial dot-product accumulators* (an
//!   SDDMM completes after a block has visited all `q` slices). COO
//!   blocks cost 3 words per nonzero on the wire.
//!
//! FusedMM with replication reuse performs one all-gather and two
//! propagation rounds (dots, then SpMM scatter into the stationary
//! output); without elision the second kernel re-replicates its input.
//! Local kernel fusion is impossible: rows are split across ranks.

use std::sync::Arc;

use dsk_comm::{Comm, CommPattern, Grid15, GridComms15, Phase, RowSet};
use dsk_dense::Mat;
use dsk_kernels as kern;
use dsk_sparse::CooMatrix;

use crate::common::{
    block_range, export_triplets, import_values, sample, sq_diff, AlgorithmFamily, Elision,
    Sampling, ShiftPipeline,
};
use crate::kernel::{CombineSpec, DistKernel, KernelId, TuneBlock};
use crate::layout::repartition_dense;
use crate::planview::{PlanView, Side};
use crate::staged::{PlanPatterns, StagedProblem};

/// Tag for traveling sparse blocks.
const TAG_SPARSE: u32 = 110;

/// Per-rank state of the 1.5D sparse-shifting algorithm.
pub(crate) struct SparseShift15 {
    /// Grid communicators (layer ring + replication fiber).
    gc: GridComms15,
    view: PlanView,
    /// Home column block of `S`: rows global over `m`, columns local to
    /// block `u·c+v`; values = sampling values.
    s_home: CooMatrix,
    /// Home column block of `Sᵀ` (rows global over `n`, columns local
    /// to the `m`-block `u·c+v`) for the transposed (FusedMMA) paths.
    st_home: CooMatrix,
    /// Replicate-layout share of `A`: rows `block(m, c, v)` × slice `u`.
    a_rep: Mat,
    /// Replicate-layout share of `B`.
    b_rep: Mat,
    /// Stationary blocks of `A` by slot `w` (rows `block(m, p, w·c+v)` ×
    /// slice `u`), for the transposed paths.
    a_stat: Vec<Mat>,
    /// Stationary blocks of `B` by slot `w`.
    b_stat: Vec<Mat>,
    /// SDDMM result values for the home block (aligned with `s_home`).
    r_vals: Option<Vec<f64>>,
    /// Fiber pattern for the `A`-replicating paths (rows over `m`);
    /// `None` = dense all-gathers, the default.
    route_a: Option<CommPattern>,
    /// Fiber pattern for the transposed, `B`-replicating paths (rows
    /// over `n`).
    route_b: Option<CommPattern>,
    /// Tuned local-kernel variants (all-naive until the builder tunes).
    pub(crate) local: kern::LocalPicks,
}

impl SparseShift15 {
    /// Build this rank's state from shared staging (no communication,
    /// statistics unaffected).
    pub(crate) fn new(comm: &Comm, c: usize, staged: &StagedProblem) -> Self {
        let prob = &*staged.prob;
        let grid = Grid15::new(comm.size(), c).expect("invalid 1.5D grid");
        let gc = GridComms15::build(comm, grid);
        let p = grid.p;
        let (m, n) = (prob.dims.m, prob.dims.n);
        assert!(m >= p && n >= p, "matrix sides must be at least p");
        let g = comm.rank();

        // Home S column block (rows stay global).
        let s_cols = Self::partition(staged, false, p);
        let st_cols = Self::partition(staged, true, p);

        let view = PlanView::of(
            KernelId::Family(AlgorithmFamily::SparseShift15),
            c,
            p,
            prob.dims,
        );
        let stationary = |side, x: &Mat| -> Vec<Mat> {
            let layout = view.iterate_layout(side, g);
            (layout.row_ranges.iter())
                .map(|rr| x.block(rr.clone(), layout.col_range.clone()))
                .collect()
        };
        SparseShift15 {
            gc,
            view,
            s_home: s_cols[0][g].clone(),
            st_home: st_cols[0][g].clone(),
            a_rep: view.fiber_layout(Side::A, g).extract(&prob.a),
            b_rep: view.fiber_layout(Side::B, g).extract(&prob.b),
            a_stat: stationary(Side::A, &prob.a),
            b_stat: stationary(Side::B, &prob.b),
            r_vals: None,
            route_a: None,
            route_b: None,
            local: kern::LocalPicks::default(),
        }
    }

    /// The block the builder tunes on (this rank's home `S` block) and
    /// the local ops this family runs. COO blocks only admit the serial
    /// naive/blocked pair, and the family has no local fused kernel.
    pub(crate) fn tune_target(&self) -> (TuneBlock<'_>, &'static [kern::LocalOp]) {
        use kern::LocalOp::*;
        (TuneBlock::Coo(&self.s_home), &[Spmm, SpmmT, Sddmm])
    }

    /// The need sets a pattern-routed plan requires, derived world-free
    /// from the staged column partition of `S`. A rank only ever reads
    /// the replicated panel at the rows its layer ring's traveling
    /// blocks address, and that union depends only on the rank's fiber
    /// coordinate `v`: `primary[g][vv]` is the slice of that union
    /// falling in fiber member `vv`'s replicate block of `A` (rows over
    /// `m`, indices block-local); `secondary` is the same for the
    /// transposed, `B`-replicating paths (rows over `n`).
    pub(crate) fn derive_needs(staged: &StagedProblem, p: usize, c: usize) -> PlanPatterns {
        let grid = Grid15::new(p, c).expect("invalid 1.5D grid");
        let q = grid.layer_size();
        let (m, n) = (staged.prob.dims.m, staged.prob.dims.n);
        let s_cols = Self::partition(staged, false, p);
        let st_cols = Self::partition(staged, true, p);

        let ring_union = |cols: &[CooMatrix], v: usize| {
            let mut rows: Vec<u32> = Vec::new();
            for w in 0..q {
                rows.extend(cols[w * c + v].iter().map(|(i, _, _)| i as u32));
            }
            RowSet::from_indices(rows)
        };
        let localize = |need: &RowSet, total: usize| -> Vec<RowSet> {
            (0..c)
                .map(|vv| {
                    let br = block_range(total, c, vv);
                    RowSet::from_indices(
                        need.indices()
                            .iter()
                            .filter(|&&i| br.contains(&(i as usize)))
                            .map(|&i| i - br.start as u32)
                            .collect(),
                    )
                })
                .collect()
        };
        let mut primary = Vec::with_capacity(p);
        let mut secondary = Vec::with_capacity(p);
        for g in 0..p {
            let v = grid.fiber_pos(g);
            primary.push(localize(&ring_union(&s_cols[0], v), m));
            secondary.push(localize(&ring_union(&st_cols[0], v), n));
        }
        PlanPatterns {
            primary,
            secondary: Some(secondary),
        }
    }

    /// The staged partition of `S` (`Sᵀ` when `transposed`) into `p`
    /// full-height column blocks.
    fn partition(staged: &StagedProblem, transposed: bool, p: usize) -> Arc<Vec<Vec<CooMatrix>>> {
        let d = staged.prob.dims;
        let (rows, cols) = if transposed { (d.n, d.m) } else { (d.m, d.n) };
        let col_blocks: Vec<_> = (0..p).map(|j| block_range(cols, p, j)).collect();
        staged.partition(transposed, std::slice::from_ref(&(0..rows)), &col_blocks)
    }

    /// Switch replication to pattern routing: exchange this rank's need
    /// sets over the fiber (charged to `Phase::PatternExchange`) and
    /// keep the resulting patterns for every later all-gather.
    pub(crate) fn enable_pattern_routing(&mut self, pats: &PlanPatterns) {
        let g = self.me();
        self.route_a = Some(CommPattern::exchange(
            &self.gc.fiber,
            pats.primary[g].clone(),
        ));
        let sec = pats
            .secondary
            .as_ref()
            .expect("1.5D sparse shifting routes both replicated operands");
        self.route_b = Some(CommPattern::exchange(&self.gc.fiber, sec[g].clone()));
    }

    fn q(&self) -> usize {
        self.gc.grid.layer_size()
    }

    /// This rank's position in the world communicator.
    fn me(&self) -> usize {
        self.gc.grid.rank_of(self.gc.u, self.gc.v)
    }

    /// Split a stacked stationary-layout `side` operand into its
    /// per-slot blocks.
    fn split_stationary(&self, side: Side, stacked: &Mat) -> Vec<Mat> {
        let mut off = 0;
        let layout = self.view.iterate_layout(side, self.me());
        let blocks = (layout.row_ranges.iter())
            .map(|rr| {
                off += rr.len();
                stacked.rows_block(off - rr.len()..off)
            })
            .collect();
        debug_assert_eq!(off, stacked.nrows());
        blocks
    }

    /// All-gather a replicate-layout panel along the fiber into the full
    /// `total_rows × slice` panel. `total_rows` is passed explicitly so
    /// that empty r-slices (possible when p/c > r) still produce a
    /// correctly-shaped zero-width panel.
    fn replicate(&self, x_rep: &Mat, total_rows: usize, route: Option<&CommPattern>) -> Mat {
        let _ph = self.gc.fiber.phase(Phase::Replication);
        let w = x_rep.ncols();
        let mut data = Vec::with_capacity(total_rows * w);
        match route {
            None => {
                let parts = self.gc.fiber.allgather(x_rep.as_slice().to_vec());
                for p in parts {
                    data.extend_from_slice(&p);
                }
            }
            Some(pat) => {
                // Ship each fiber peer only the rows of this rank's
                // replicate block its ring will ever read; zero-fill
                // the rest (never read downstream).
                let me = self.gc.v;
                let ship: Vec<RowSet> = (0..self.gc.grid.c)
                    .map(|i| pat.need(i, me).clone())
                    .collect();
                let bundles =
                    self.gc
                        .fiber
                        .sparse_allgather(x_rep.nrows(), w, x_rep.as_slice(), &ship);
                for b in bundles {
                    let (_, _, full) = b.into_full();
                    data.extend_from_slice(&full);
                }
            }
        }
        debug_assert!(w == 0 || data.len() / w == total_rows);
        Mat::from_vec(total_rows, w, data)
    }

    /// The layer-ring pipeline moving traveling COO blocks (3
    /// words/nonzero) one step per round. Blocks whose values the local
    /// kernel only reads are posted before the compute (input lane);
    /// blocks accumulating per-step results exchange after it.
    fn pipeline(&self) -> ShiftPipeline<'_> {
        ShiftPipeline::new(&self.gc.layer, 1, TAG_SPARSE)
    }

    /// Home slot of the block held at step `t`.
    #[inline]
    fn slot(&self, t: usize) -> usize {
        let q = self.q();
        (self.gc.u + q - (t % q)) % q
    }

    /// SDDMM propagation round: the home block (values zeroed) travels
    /// the ring accumulating per-slice partial combines; returns its
    /// fully accumulated values (sampling not applied).
    fn dots_round(
        &self,
        home: &CooMatrix,
        x_full: &Mat,
        y_stat: &[Mat],
        combine: &CombineSpec,
    ) -> Vec<f64> {
        let q = self.q();
        let pipe = self.pipeline();
        let mut blk = home.clone();
        blk.vals.fill(0.0);
        let slice = block_range(self.view.dims.r, q, self.gc.u);
        for t in 0..q {
            let w = self.slot(t);
            // Detach the accumulating value array from the traveling
            // block so the pattern can be borrowed alongside it.
            let mut vals = std::mem::take(&mut blk.vals);
            let com = combine.for_slice(slice.clone());
            self.gc
                .layer
                .compute(kern::sddmm_flops(blk.rows.len(), slice.len()), || {
                    self.local
                        .sddmm
                        .sddmm_coo(&mut vals, &blk, x_full, &y_stat[w], com)
                });
            blk.vals = vals;
            // Accumulator lane: the values are not final until this
            // step's combine has run, so the hop cannot be posted early.
            blk = pipe.exchange(blk);
        }
        debug_assert_eq!(blk.nnz(), home.nnz(), "block failed to return home");
        blk.vals
    }

    /// SpMM propagation round: the home block travels with `vals`,
    /// scattering `blkᵀ·X` into the stationary `out`-side blocks;
    /// returns the stacked stationary-layout result.
    fn scatter_round(&self, home: &CooMatrix, vals: Vec<f64>, x_full: &Mat, out: Side) -> Mat {
        let q = self.q();
        let slice_w = x_full.ncols();
        let layout = self.view.iterate_layout(out, self.me());
        let mut outs: Vec<Mat> = (layout.row_ranges.iter())
            .map(|rr| Mat::zeros(rr.len(), slice_w))
            .collect();
        let mut blk = home.clone();
        blk.vals = vals;
        let pipe = self.pipeline();
        for t in 0..q {
            let w = self.slot(t);
            let fly = pipe.begin(&blk);
            self.gc
                .layer
                .compute(kern::spmm_flops(blk.nnz(), slice_w), || {
                    self.local.spmm_t.spmm_coo_t(&mut outs[w], &blk, x_full)
                });
            blk = fly.wait();
        }
        Mat::vstack(&outs)
    }

    fn vals_for_travel(&self, use_r: bool) -> Vec<f64> {
        if use_r {
            self.r_vals
                .clone()
                .expect("no SDDMM result available; call sddmm() first")
        } else {
            self.s_home.vals.clone()
        }
    }

    /// FusedMM in either orientation: replicate `x_rep` (routed unless
    /// the schedule reuses the replica), accumulate dots of the traveling
    /// `home` block against the stationary `y_stat`, then scatter into
    /// the stationary `out` side.
    #[allow(clippy::too_many_arguments)]
    fn fused(
        &self,
        home: &CooMatrix,
        x_rep: &Mat,
        x_rows: usize,
        route: Option<&CommPattern>,
        y_stat: &[Mat],
        out: Side,
        elision: Elision,
        sampling: Sampling,
    ) -> Mat {
        let reuse = match elision {
            Elision::ReplicationReuse => true,
            Elision::None => false,
            Elision::LocalKernelFusion => panic!(
                "local kernel fusion requires co-located full rows; \
                 unsupported for 1.5D sparse shifting"
            ),
        };
        let route = if reuse { None } else { route };
        let t_x = self.replicate(x_rep, x_rows, route);
        let dots = self.dots_round(home, &t_x, y_stat, &CombineSpec::Dot);
        let rvals = sample(dots, &home.vals, sampling);
        // Unoptimized: the second kernel replicates its input again.
        let t_x2 = if reuse {
            t_x
        } else {
            self.replicate(x_rep, x_rows, route)
        };
        self.scatter_round(home, rvals, &t_x2, out)
    }

    /// Global `(row, col)` of every stored R value, in `r_vals` order.
    fn r_coords(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let col0 = self.view.r_bounds_of(self.me()).1.start;
        self.s_home.iter().map(move |(i, j, _)| (i, col0 + j))
    }
}

impl DistKernel for SparseShift15 {
    fn id(&self) -> KernelId {
        KernelId::Family(AlgorithmFamily::SparseShift15)
    }

    fn view(&self) -> PlanView {
        self.view
    }

    /// Distributed SDDMM (replicates `A`, travels `S`); the result stays
    /// on the home block.
    fn sddmm(&mut self) {
        let t_a = self.replicate(&self.a_rep, self.view.dims.m, self.route_a.as_ref());
        let dots = self.dots_round(&self.s_home, &t_a, &self.b_stat, &CombineSpec::Dot);
        self.r_vals = Some(sample(dots, &self.s_home.vals, Sampling::Values));
    }

    fn sddmm_general(&mut self, combine: &CombineSpec) {
        let t_a = self.replicate(&self.a_rep, self.view.dims.m, self.route_a.as_ref());
        let dots = self.dots_round(&self.s_home, &t_a, &self.b_stat, combine);
        self.r_vals = Some(dots);
    }

    /// `S·B` via the transposed roles (replicates `B`, travels `Sᵀ`),
    /// returned in the stationary `A` layout.
    fn spmm_a(&mut self, use_r: bool) -> Mat {
        assert!(
            !use_r,
            "1.5D sparse shifting holds R on the S-oriented home block; \
             use spmm_a_with for R·B (replicate-A layout output)"
        );
        let t_b = self.replicate(&self.b_rep, self.view.dims.n, self.route_b.as_ref());
        self.scatter_round(&self.st_home, self.st_home.vals.clone(), &t_b, Side::A)
    }

    /// `Sᵀ·A` (or `Rᵀ·A`), returned in the stationary `B` layout.
    fn spmm_b(&mut self, use_r: bool) -> Mat {
        let t_a = self.replicate(&self.a_rep, self.view.dims.m, self.route_a.as_ref());
        let vals = self.vals_for_travel(use_r);
        self.scatter_round(&self.s_home, vals, &t_a, Side::B)
    }

    /// FusedMMA via transposed roles (replicate `B`, travel `Sᵀ`); `x`
    /// and the result are in the stacked stationary `A` layout.
    fn fused_mm_a(&mut self, x: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat {
        let x_stat: Vec<Mat> = match x {
            Some(st) => self.split_stationary(Side::A, st),
            None => self.a_stat.clone(),
        };
        let (n, route) = (self.view.dims.n, self.route_b.as_ref());
        self.fused(
            &self.st_home,
            &self.b_rep,
            n,
            route,
            &x_stat,
            Side::A,
            elision,
            sampling,
        )
    }

    /// FusedMMB (replicate `A`, travel `S`); `y` and the result are in
    /// the stacked stationary `B` layout.
    fn fused_mm_b(&mut self, y: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat {
        let y_stat: Vec<Mat> = match y {
            Some(st) => self.split_stationary(Side::B, st),
            None => self.b_stat.clone(),
        };
        let (m, route) = (self.view.dims.m, self.route_a.as_ref());
        self.fused(
            &self.s_home,
            &self.a_rep,
            m,
            route,
            &y_stat,
            Side::B,
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

    /// Global row sums of R (length `m`; world all-reduce).
    fn r_row_sums(&self, comm: &Comm, phase: Phase) -> Vec<f64> {
        let r = self.r_vals.as_ref().expect("no R values");
        let mut sums = vec![0.0; self.view.dims.m];
        for (k, (i, _, _)) in self.s_home.iter().enumerate() {
            sums[i] += r[k];
        }
        let _ph = comm.phase(phase);
        comm.allreduce_sum(&mut sums);
        sums
    }

    fn scale_r_rows(&mut self, scale: &[f64]) {
        assert_eq!(
            scale.len(),
            self.view.dims.m,
            "need one factor per global row"
        );
        let r = self.r_vals.as_mut().expect("no R values");
        for (k, (i, _, _)) in self.s_home.iter().enumerate() {
            r[k] *= scale[i];
        }
    }

    /// SpMMA with the stored R values against a stationary-layout
    /// operand: accumulates the full `m × slice` panel locally, then
    /// reduce-scatters along the fiber into the replicate `A` layout
    /// (GAT's convolution step).
    fn spmm_a_with(&self, y: &Mat) -> Mat {
        let y_stat = self.split_stationary(Side::B, y);
        let q = self.q();
        let m = self.view.dims.m;
        let slice = block_range(self.view.dims.r, q, self.gc.u);
        let mut t_full = Mat::zeros(m, slice.len());
        let mut blk = self.s_home.clone();
        blk.vals = self.r_vals.clone().expect("no R values");
        let pipe = self.pipeline();
        for t in 0..q {
            let w = self.slot(t);
            let fly = pipe.begin(&blk);
            self.gc
                .layer
                .compute(kern::spmm_flops(blk.nnz(), slice.len()), || {
                    self.local.spmm.spmm_coo(&mut t_full, &blk, &y_stat[w])
                });
            blk = fly.wait();
        }
        // Fiber reduce-scatter into the replicate layout rows.
        let _ph = self.gc.fiber.phase(Phase::Replication);
        let c = self.gc.grid.c;
        let w = slice.len();
        let ranges: Vec<std::ops::Range<usize>> = (0..c)
            .map(|vv| {
                let rr = block_range(m, c, vv);
                rr.start * w..rr.end * w
            })
            .collect();
        let mine = self
            .gc
            .fiber
            .reduce_scatter_sum_ranges(t_full.as_slice(), &ranges);
        let rows = block_range(m, c, self.gc.v).len();
        debug_assert!(w == 0 || mine.len() / w == rows);
        Mat::from_vec(rows, w, mine)
    }

    fn sq_loss_local(&self) -> f64 {
        sq_diff(
            &self.s_home.vals,
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
        Mat::vstack(&self.a_stat)
    }

    fn b_iterate(&self) -> Mat {
        Mat::vstack(&self.b_stat)
    }

    fn set_a(&mut self, comm: &Comm, x: &Mat) {
        let view = self.view;
        self.a_rep = {
            let _ph = comm.phase(Phase::OutsideComm);
            repartition_dense(
                comm,
                x,
                |g| view.iterate_layout(Side::A, g),
                |g| view.fiber_layout(Side::A, g),
            )
        };
        self.a_stat = self.split_stationary(Side::A, x);
    }

    fn set_b(&mut self, comm: &Comm, y: &Mat) {
        let view = self.view;
        self.b_rep = {
            let _ph = comm.phase(Phase::OutsideComm);
            repartition_dense(
                comm,
                y,
                |g| view.iterate_layout(Side::B, g),
                |g| view.fiber_layout(Side::B, g),
            )
        };
        self.b_stat = self.split_stationary(Side::B, y);
    }

    fn rhs_a(&mut self, _comm: &Comm) -> Mat {
        self.spmm_a(false)
    }

    fn rhs_b(&mut self, _comm: &Comm) -> Mat {
        self.spmm_b(false)
    }
}
