//! The 1.5D dense-shifting, dense-replicating algorithm (Algorithm 1 of
//! the paper) and its FusedMM variants.
//!
//! Grid: `(p/c) × c` ([`GridComms15`]). Per Table II:
//!
//! * `A` and `B` are split into `p` block rows; rank `g = (u, v)` owns
//!   block `g` of each.
//! * `S` is split into `p/c` macro block rows × `p` block columns; rank
//!   `(u, v)` owns, within macro row `u`, the column blocks
//!   `j ≡ v (mod c)` — these stay **stationary**.
//!
//! One dense matrix is **replicated**: all-gathered along the fiber into
//! a buffer `T` covering macro row `u` (or zero-initialized when it is
//! the output, then reduce-scattered at the end). The other dense matrix
//! **propagates**: its block rows cyclically shift around the layer ring
//! for `p/c` steps; at step `t` a rank holds the block homed at ring
//! position `(u - t) mod (p/c)` and pairs it with the matching stationary
//! `S` column block.
//!
//! FusedMM elision (paper §IV-B):
//! * **replication reuse** — the all-gathered `T` serves the SDDMM and
//!   the subsequent SpMM; the SpMM output circulates as a shifting
//!   accumulator, so no terminal reduce-scatter is needed;
//! * **local kernel fusion** — a single propagation round computes the
//!   fused local SDDMM+SpMM per step (only possible here, where entire
//!   rows of both dense matrices are co-located).

use std::sync::Arc;

use dsk_comm::{Comm, CommPattern, Grid15, GridComms15, Phase, RowSet};
use dsk_dense::Mat;
use dsk_kernels as kern;
use dsk_sparse::{CooMatrix, CsrMatrix};

use crate::common::{
    block_range, csr_coords, export_triplets, forward_acc, forward_input, import_values, sample,
    sq_diff, union_range, AlgorithmFamily, Elision, Sampling, ShiftPipeline,
};
use crate::kernel::{CombineSpec, DistKernel, KernelId, TuneBlock};
use crate::planview::PlanView;
use crate::staged::{PlanPatterns, StagedProblem};

/// Tag used for dense block shifts within a layer.
const TAG_SHIFT: u32 = 100;

/// Per-rank state of the 1.5D dense-shifting algorithm.
pub(crate) struct DenseShift15 {
    /// Grid communicators (layer ring + replication fiber).
    gc: GridComms15,
    view: PlanView,
    /// `S` blocks by slot `w` (column block `j = w·c + v` of macro row
    /// `u`), values = sampling values.
    s_blocks: Vec<CsrMatrix>,
    /// `Sᵀ` blocks by slot `w` (column block over `m` of macro row `u`
    /// of `n`), for the transposed-role (FusedMMA) paths.
    st_blocks: Vec<CsrMatrix>,
    /// Local block row `g` of `A`.
    a_loc: Mat,
    /// Local block row `g` of `B`.
    b_loc: Mat,
    /// SDDMM output values per slot (aligned with `s_blocks` nonzero
    /// order), populated by [`DistKernel::sddmm`].
    r_vals: Option<Vec<Vec<f64>>>,
    /// Layer-ring communication pattern for pattern-routed propagation
    /// (`None` = dense shifts, the default).
    route: Option<CommPattern>,
    /// Tuned local-kernel variants (all-naive until the builder tunes).
    pub(crate) local: kern::LocalPicks,
}

impl DenseShift15 {
    /// Build this rank's state from shared staging (no communication,
    /// statistics unaffected).
    pub(crate) fn new(comm: &Comm, c: usize, staged: &StagedProblem) -> Self {
        let prob = &*staged.prob;
        let grid = Grid15::new(comm.size(), c).expect("invalid 1.5D grid");
        let gc = GridComms15::build(comm, grid);
        let p = grid.p;
        assert!(
            prob.dims.m >= p && prob.dims.n >= p,
            "matrix sides must be at least p"
        );
        let g = comm.rank();
        // Keep the column blocks ≡ v (mod c) of macro row u.
        let slots = |transposed| -> Vec<CsrMatrix> {
            let grid_s = Self::partition(staged, transposed, p, c);
            (0..grid.layer_size())
                .map(|w| CsrMatrix::from_coo(&grid_s[gc.u][w * c + gc.v]))
                .collect()
        };
        let (s_blocks, st_blocks) = (slots(false), slots(true));

        let view = PlanView::of(
            KernelId::Family(AlgorithmFamily::DenseShift15),
            c,
            p,
            prob.dims,
        );
        DenseShift15 {
            gc,
            view,
            s_blocks,
            st_blocks,
            a_loc: view.a_layout_of(g).extract(&prob.a),
            b_loc: view.b_layout_of(g).extract(&prob.b),
            r_vals: None,
            route: None,
            local: kern::LocalPicks::default(),
        }
    }

    /// The block the builder tunes on (this rank's first stationary `S`
    /// block) and the local ops this family runs.
    pub(crate) fn tune_target(&self) -> (TuneBlock<'_>, &'static [kern::LocalOp]) {
        use kern::LocalOp::*;
        (
            TuneBlock::Csr(&self.s_blocks[0]),
            &[Spmm, SpmmT, Sddmm, Fused],
        )
    }

    /// The need sets a pattern-routed plan requires, derived world-free
    /// from the staged `S` partition: `primary[g][o]` is the column
    /// support of rank `g`'s stationary block paired with the tile
    /// originating at ring position `o` — exactly the rows of that tile
    /// rank `g` reads (inputs) or writes (circulating accumulators).
    pub(crate) fn derive_needs(staged: &StagedProblem, p: usize, c: usize) -> PlanPatterns {
        let grid = Grid15::new(p, c).expect("invalid 1.5D grid");
        let q = grid.layer_size();
        let grid_s = Self::partition(staged, false, p, c);
        let primary = (0..p)
            .map(|g| {
                let (u, v) = (grid.layer_pos(g), grid.fiber_pos(g));
                (0..q)
                    .map(|o| {
                        let blk = &grid_s[u][o * c + v];
                        RowSet::from_indices(blk.iter().map(|(_, j, _)| j as u32).collect())
                    })
                    .collect()
            })
            .collect();
        PlanPatterns {
            primary,
            secondary: None,
        }
    }

    /// The staged partition of `S` (`Sᵀ` when `transposed`): `p/c`
    /// macro rows aligned to unions of `c` dense block rows × `p`
    /// column blocks.
    fn partition(
        staged: &StagedProblem,
        transposed: bool,
        p: usize,
        c: usize,
    ) -> Arc<Vec<Vec<CooMatrix>>> {
        let d = staged.prob.dims;
        let (rows, cols) = if transposed { (d.n, d.m) } else { (d.m, d.n) };
        let macro_rows: Vec<_> = (0..p / c)
            .map(|uu| union_range(rows, p, uu * c, c))
            .collect();
        let col_blocks: Vec<_> = (0..p).map(|j| block_range(cols, p, j)).collect();
        staged.partition(transposed, &macro_rows, &col_blocks)
    }

    /// Switch propagation to pattern routing: exchange this rank's need
    /// sets over the layer ring (charged to `Phase::PatternExchange`)
    /// and keep the resulting [`CommPattern`] for every later shift.
    pub(crate) fn enable_pattern_routing(&mut self, pats: &PlanPatterns) {
        let g = self.gc.grid.rank_of(self.gc.u, self.gc.v);
        self.route = Some(CommPattern::exchange(
            &self.gc.layer,
            pats.primary[g].clone(),
        ));
    }

    fn q(&self) -> usize {
        self.gc.grid.layer_size()
    }

    fn c(&self) -> usize {
        self.gc.grid.c
    }

    // ------------------------------------------------------------------
    // Building blocks
    // ------------------------------------------------------------------

    /// All-gather a block-row matrix along the fiber into the macro-row
    /// buffer `T` (replication).
    fn replicate(&self, comm_len_total: usize, x_loc: &Mat) -> Mat {
        let _ph = self.gc.fiber.phase(Phase::Replication);
        let r = x_loc.ncols();
        let parts = self.gc.fiber.allgather(x_loc.as_slice().to_vec());
        let mut rows = 0;
        for p in &parts {
            rows += p.len() / r.max(1);
        }
        debug_assert_eq!(rows, comm_len_total);
        let mut data = Vec::with_capacity(rows * r);
        for p in parts {
            data.extend_from_slice(&p);
        }
        Mat::from_vec(rows, r, data)
    }

    /// Reduce-scatter a macro-row accumulator along the fiber back to
    /// this rank's block row (`total`/`p`-grained ranges within macro
    /// row `u`).
    fn reduce_to_block(&self, total: usize, t_buf: &Mat) -> Mat {
        let _ph = self.gc.fiber.phase(Phase::Replication);
        let (p, c, u) = (self.gc.grid.p, self.c(), self.gc.u);
        let r = t_buf.ncols();
        let macro_start = union_range(total, p, u * c, c).start;
        let ranges: Vec<std::ops::Range<usize>> = (0..c)
            .map(|vv| {
                let br = block_range(total, p, u * c + vv);
                (br.start - macro_start) * r..(br.end - macro_start) * r
            })
            .collect();
        let mine = self
            .gc
            .fiber
            .reduce_scatter_sum_ranges(t_buf.as_slice(), &ranges);
        Mat::from_vec(mine.len() / r.max(1), r, mine)
    }

    /// The layer-ring shift pipeline all propagation rounds run
    /// through: one position per step, tiles as [`Mat`] payloads
    /// (self-describing shape, one word per entry — same modeled cost
    /// as the raw buffer) or pattern-routed row bundles. Input-lane
    /// tiles are posted *before* the step's compute so transfer and
    /// compute overlap; the receiver zero-fills unshipped routed rows,
    /// which downstream consumers never read — the forward sets are
    /// unions of every remaining consumer's needs.
    fn pipeline(&self) -> ShiftPipeline<'_> {
        ShiftPipeline::new(&self.gc.layer, 1, TAG_SHIFT)
    }

    /// The ring member that holds the tile of origin `o` at step `t'`.
    fn holder(&self, o: usize) -> impl Fn(usize) -> usize {
        let q = self.q();
        move |tp| (o + tp) % q
    }

    /// The slot (stationary S column-block index) paired with the block
    /// held at propagation step `t`.
    #[inline]
    fn slot(&self, t: usize) -> usize {
        let q = self.q();
        (self.gc.u + q - (t % q)) % q
    }

    /// SDDMM propagation round over the given oriented blocks: `y`
    /// shifts, dot products accumulate per slot. Returns raw dots (no
    /// sampling applied). `combine` generalizes the per-nonzero
    /// interaction (GAT attention uses an affine combine).
    fn sddmm_round(
        &self,
        blocks: &[CsrMatrix],
        t_buf: &Mat,
        y0: &Mat,
        combine: kern::SddmmCombine<'_>,
        route: Option<&CommPattern>,
    ) -> Vec<Vec<f64>> {
        let q = self.q();
        let pipe = self.pipeline();
        let mut acc: Vec<Vec<f64>> = blocks.iter().map(|b| vec![0.0; b.nnz()]).collect();
        let mut y = y0.clone();
        for t in 0..q {
            let w = self.slot(t);
            let blk = &blocks[w];
            debug_assert_eq!(blk.ncols(), y.nrows(), "block/panel misalignment");
            let ship = route.map(|pat| forward_input(pat, w, t, q, self.holder(w)));
            let fly = pipe.begin_mat(&y, ship.as_ref());
            self.gc
                .layer
                .compute(kern::sddmm_flops(blk.nnz(), t_buf.ncols()), || {
                    self.local
                        .sddmm
                        .sddmm_csr(&mut acc[w], blk, t_buf, &y, combine)
                });
            y = fly.wait();
        }
        acc
    }

    /// SpMM propagation round with a replicated (macro-row) accumulator:
    /// `T += R_w · y` per step, `y` shifting (the SpMMA data flow).
    fn spmm_out_round(
        &self,
        blocks: &[CsrMatrix],
        vals: &[Vec<f64>],
        y0: &Mat,
        route: Option<&CommPattern>,
    ) -> Mat {
        let q = self.q();
        let pipe = self.pipeline();
        let r = y0.ncols();
        let mut t_buf = Mat::zeros(blocks[0].nrows(), r);
        let mut y = y0.clone();
        for t in 0..q {
            let w = self.slot(t);
            let mut blk = blocks[w].clone();
            blk.set_vals(vals[w].clone());
            let ship = route.map(|pat| forward_input(pat, w, t, q, self.holder(w)));
            let fly = pipe.begin_mat(&y, ship.as_ref());
            self.gc.layer.compute(kern::spmm_flops(blk.nnz(), r), || {
                self.local.spmm.spmm_csr(&mut t_buf, &blk, &y)
            });
            y = fly.wait();
        }
        t_buf
    }

    /// SpMM propagation round with a *circulating* accumulator: the
    /// output block rows shift around the ring, each rank adding
    /// `R_wᵀ · T` for its stationary block (the SpMMB data flow, and the
    /// second half of replication reuse).
    fn spmm_shift_acc_round(
        &self,
        blocks: &[CsrMatrix],
        vals: &[Vec<f64>],
        t_buf: &Mat,
        my_out_rows: usize,
        route: Option<&CommPattern>,
    ) -> Mat {
        let q = self.q();
        let pipe = self.pipeline();
        let r = t_buf.ncols();
        let mut out = Mat::zeros(my_out_rows, r);
        for t in 0..q {
            let w = self.slot(t);
            let mut blk = blocks[w].clone();
            blk.set_vals(vals[w].clone());
            debug_assert_eq!(blk.ncols(), out.nrows(), "block/accumulator misalignment");
            self.gc.layer.compute(kern::spmm_flops(blk.nnz(), r), || {
                self.local.spmm_t.spmm_csr_t(&mut out, &blk, t_buf)
            });
            // Accumulator lane: the block is not final until the local
            // kernel has added its contribution, so the exchange cannot
            // be posted early.
            let ship = route.map(|pat| forward_acc(pat, w, t, self.holder(w)));
            out = pipe.exchange_mat(out, ship.as_ref());
        }
        out
    }

    /// Fused propagation round (local kernel fusion): one pass computing
    /// the local fused SDDMM+SpMM per step.
    fn fused_round(&self, blocks: &[CsrMatrix], t_in: &Mat, y0: &Mat, sampling: Sampling) -> Mat {
        let q = self.q();
        let pipe = self.pipeline();
        let r = y0.ncols();
        let mut t_out = Mat::zeros(t_in.nrows(), r);
        let mut y = y0.clone();
        for t in 0..q {
            let w = self.slot(t);
            let blk = match sampling {
                Sampling::Values => blocks[w].clone(),
                Sampling::Ones => {
                    let mut b = blocks[w].clone();
                    b.set_vals(vec![1.0; b.nnz()]);
                    b
                }
            };
            let fly = pipe.begin_mat(&y, None);
            self.gc.layer.compute(kern::fused_flops(blk.nnz(), r), || {
                self.local.fused.fused_csr(&mut t_out, &blk, t_in, &y)
            });
            y = fly.wait();
        }
        t_out
    }

    /// Sample per-slot raw dots with the given blocks' values.
    fn sample_slots(blocks: &[CsrMatrix], acc: Vec<Vec<f64>>, sampling: Sampling) -> Vec<Vec<f64>> {
        acc.into_iter()
            .zip(blocks)
            .map(|(a, b)| sample(a, b.vals(), sampling))
            .collect()
    }

    fn current_vals(&self, use_r: bool) -> Vec<Vec<f64>> {
        if use_r {
            self.r_vals
                .clone()
                .expect("no SDDMM result available; call sddmm() first")
        } else {
            self.s_blocks.iter().map(|b| b.vals().to_vec()).collect()
        }
    }

    /// Global `(row, col)` of every stored R value, in `r_vals` order.
    fn r_coords(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (p, c, v, n) = (self.gc.grid.p, self.c(), self.gc.v, self.view.dims.n);
        let g = self.gc.grid.rank_of(self.gc.u, v);
        let row0 = self.view.r_bounds_of(g).0.start;
        self.s_blocks.iter().enumerate().flat_map(move |(w, blk)| {
            let col0 = block_range(n, p, w * c + v).start;
            csr_coords(blk).map(move |(i, j)| (row0 + i, col0 + j))
        })
    }
}

impl DistKernel for DenseShift15 {
    fn id(&self) -> KernelId {
        KernelId::Family(AlgorithmFamily::DenseShift15)
    }

    fn view(&self) -> PlanView {
        self.view
    }

    /// Distributed SDDMM: replicates `A`, shifts `B`, leaves
    /// `R = S ∗ (A·Bᵀ)` distributed like `S`.
    fn sddmm(&mut self) {
        let t_buf = self.replicate(self.s_blocks[0].nrows(), &self.a_loc);
        let acc = self.sddmm_round(
            &self.s_blocks,
            &t_buf,
            &self.b_loc,
            kern::SddmmCombine::Dot,
            self.route.as_ref(),
        );
        self.r_vals = Some(Self::sample_slots(&self.s_blocks, acc, Sampling::Values));
    }

    fn sddmm_general(&mut self, combine: &CombineSpec) {
        // Full rows are co-located here, so the combine is used at full
        // width (the slice is the whole r-dimension).
        let t_buf = self.replicate(self.s_blocks[0].nrows(), &self.a_loc);
        let acc = self.sddmm_round(
            &self.s_blocks,
            &t_buf,
            &self.b_loc,
            combine.for_slice(0..self.view.dims.r),
            self.route.as_ref(),
        );
        self.r_vals = Some(acc);
    }

    /// `S·B` (or `R·B`), returned as this rank's `A`-shaped block row.
    fn spmm_a(&mut self, use_r: bool) -> Mat {
        let vals = self.current_vals(use_r);
        let t_buf = self.spmm_out_round(&self.s_blocks, &vals, &self.b_loc, self.route.as_ref());
        self.reduce_to_block(self.view.dims.m, &t_buf)
    }

    /// `Sᵀ·A` (or `Rᵀ·A`), returned as this rank's `B`-shaped block row.
    fn spmm_b(&mut self, use_r: bool) -> Mat {
        let vals = self.current_vals(use_r);
        let t_buf = self.replicate(self.s_blocks[0].nrows(), &self.a_loc);
        self.spmm_shift_acc_round(
            &self.s_blocks,
            &vals,
            &t_buf,
            self.b_loc.nrows(),
            self.route.as_ref(),
        )
    }

    fn fused_mm_a(&mut self, x: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat {
        let x = x.unwrap_or(&self.a_loc);
        match elision {
            Elision::None => {
                // SDDMM: all-gather x, shift B.
                let t_buf = self.replicate(self.s_blocks[0].nrows(), x);
                let acc = self.sddmm_round(
                    &self.s_blocks,
                    &t_buf,
                    &self.b_loc,
                    kern::SddmmCombine::Dot,
                    self.route.as_ref(),
                );
                let rvals = Self::sample_slots(&self.s_blocks, acc, sampling);
                // SpMMA: fresh zero accumulator, shift B again,
                // reduce-scatter.
                let t_out =
                    self.spmm_out_round(&self.s_blocks, &rvals, &self.b_loc, self.route.as_ref());
                self.reduce_to_block(self.view.dims.m, &t_out)
            }
            Elision::LocalKernelFusion => {
                let t_in = self.replicate(self.s_blocks[0].nrows(), x);
                let t_out = self.fused_round(&self.s_blocks, &t_in, &self.b_loc, sampling);
                self.reduce_to_block(self.view.dims.m, &t_out)
            }
            Elision::ReplicationReuse => {
                // Transposed roles: replicate B once; travel Sᵀ for the
                // SDDMM (x shifts), then circulate the A-shaped output
                // accumulator reusing the same T.
                let t_buf = self.replicate(self.st_blocks[0].nrows(), &self.b_loc);
                let acc =
                    self.sddmm_round(&self.st_blocks, &t_buf, x, kern::SddmmCombine::Dot, None);
                let rvals = Self::sample_slots(&self.st_blocks, acc, sampling);
                self.spmm_shift_acc_round(&self.st_blocks, &rvals, &t_buf, x.nrows(), None)
            }
        }
    }

    fn fused_mm_b(&mut self, y: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat {
        let y = y.unwrap_or(&self.b_loc);
        match elision {
            Elision::None => {
                let t_buf = self.replicate(self.s_blocks[0].nrows(), &self.a_loc);
                let acc = self.sddmm_round(
                    &self.s_blocks,
                    &t_buf,
                    y,
                    kern::SddmmCombine::Dot,
                    self.route.as_ref(),
                );
                let rvals = Self::sample_slots(&self.s_blocks, acc, sampling);
                // Unoptimized back-to-back: the SpMMB call replicates A
                // again.
                let t2 = self.replicate(self.s_blocks[0].nrows(), &self.a_loc);
                self.spmm_shift_acc_round(
                    &self.s_blocks,
                    &rvals,
                    &t2,
                    y.nrows(),
                    self.route.as_ref(),
                )
            }
            Elision::ReplicationReuse => {
                let t_buf = self.replicate(self.s_blocks[0].nrows(), &self.a_loc);
                let acc =
                    self.sddmm_round(&self.s_blocks, &t_buf, y, kern::SddmmCombine::Dot, None);
                let rvals = Self::sample_slots(&self.s_blocks, acc, sampling);
                // Reuse T for the SpMMB.
                self.spmm_shift_acc_round(&self.s_blocks, &rvals, &t_buf, y.nrows(), None)
            }
            Elision::LocalKernelFusion => {
                // Dual of the FusedMMA fused round: roles swapped, Sᵀ.
                let t_in = self.replicate(self.st_blocks[0].nrows(), y);
                let t_out = self.fused_round(&self.st_blocks, &t_in, &self.a_loc, sampling);
                self.reduce_to_block(self.view.dims.n, &t_out)
            }
        }
    }

    fn map_r(&mut self, f: &mut dyn FnMut(f64) -> f64) {
        let r = self.r_vals.as_mut().expect("no R values");
        for v in r.iter_mut().flatten() {
            *v = f(*v);
        }
    }

    /// Row sums over this rank's macro row (reduced along the fiber;
    /// indices local to macro row `u`).
    fn r_row_sums(&self, _comm: &Comm, phase: Phase) -> Vec<f64> {
        let r = self.r_vals.as_ref().expect("no R values");
        let mut sums = vec![0.0; self.s_blocks[0].nrows()];
        for (blk, vals) in self.s_blocks.iter().zip(r) {
            for (k, (i, _)) in csr_coords(blk).enumerate() {
                sums[i] += vals[k];
            }
        }
        let _ph = self.gc.fiber.phase(phase);
        self.gc.fiber.allreduce_sum(&mut sums);
        sums
    }

    fn scale_r_rows(&mut self, scale: &[f64]) {
        let r = self.r_vals.as_mut().expect("no R values");
        for (blk, vals) in self.s_blocks.iter().zip(r.iter_mut()) {
            for (k, (i, _)) in csr_coords(blk).enumerate() {
                vals[k] *= scale[i];
            }
        }
    }

    fn spmm_a_with(&self, y: &Mat) -> Mat {
        let vals = self.current_vals(true);
        let t_buf = self.spmm_out_round(&self.s_blocks, &vals, y, self.route.as_ref());
        self.reduce_to_block(self.view.dims.m, &t_buf)
    }

    fn sq_loss_local(&self) -> f64 {
        let r = self.r_vals.as_ref().expect("no R values");
        sq_diff(
            self.s_blocks.iter().flat_map(|b| b.vals()),
            r.iter().flatten(),
        )
    }

    fn export_r(&self) -> Option<CooMatrix> {
        let r_vals = self.r_vals.as_ref()?.concat();
        Some(export_triplets(self.view.dims, self.r_coords(), &r_vals))
    }

    fn import_r(&mut self, r: &CooMatrix) {
        let mut vals = import_values(r, self.r_coords()).into_iter();
        let per_slot = self
            .s_blocks
            .iter()
            .map(|b| vals.by_ref().take(b.nnz()).collect());
        self.r_vals = Some(per_slot.collect());
    }

    fn a_iterate(&self) -> Mat {
        self.a_loc.clone()
    }

    fn b_iterate(&self) -> Mat {
        self.b_loc.clone()
    }

    fn set_a(&mut self, _comm: &Comm, x: &Mat) {
        // Iterate layout == operand layout: no distribution shift.
        assert_eq!(x.nrows(), self.a_loc.nrows(), "A iterate shape mismatch");
        self.a_loc = x.clone();
    }

    fn set_b(&mut self, _comm: &Comm, y: &Mat) {
        assert_eq!(y.nrows(), self.b_loc.nrows(), "B iterate shape mismatch");
        self.b_loc = y.clone();
    }

    fn rhs_a(&mut self, _comm: &Comm) -> Mat {
        self.spmm_a(false)
    }

    fn rhs_b(&mut self, _comm: &Comm) -> Mat {
        self.spmm_b(false)
    }
}
