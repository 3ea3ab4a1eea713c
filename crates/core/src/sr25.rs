//! The 2.5D sparse-replicating algorithm.
//!
//! Grid `q × q × c` with `q = √(p/c)`. The dual of the dense-replicating
//! 2.5D algorithm: here the **sparse matrix is replicated** along the
//! fiber and **both dense matrices propagate**. Its attractive property
//! (paper §V-D): only the sparse *values* ever cross the fiber — the
//! coordinates are shared by all `c` layers — so replication traffic is
//! proportional to `φ`, making the algorithm excellent for very sparse
//! `S`.
//!
//! * `S` is cut into `q × q` blocks; block `(u, v)`'s *pattern* lives on
//!   every fiber rank `(u, v, ·)`, its sampling *values* are split
//!   `1/c` per layer (an all-gather assembles them when a kernel
//!   starts).
//! * The r-dimension is cut into `q·c` slices. `A` panels
//!   `(macro row u) × slice` and `B` panels `(macro row v) × slice` are
//!   placed pre-skewed: rank `(u, v, w)` homes slice `((u+v) mod q)·c + w`
//!   of both; `A` travels the row ring, `B` the column ring, so the two
//!   panels at a rank always carry the same slice.
//! * SDDMM accumulates slice-partial dot products per layer over `q`
//!   steps; an **all-reduce of the values along the fiber** completes
//!   them (this is the only inter-layer traffic, `O(nnz/p)` words).
//! * SpMM circulates zero-initialized output panels (along the row ring
//!   for SpMMA, column ring for SpMMB) that accumulate the full
//!   contraction with no fiber traffic at all.
//!
//! No communication elision applies: there is no dense replication to
//! reuse and rows are sliced, so FusedMM is always two rounds.

use std::sync::Arc;

use dsk_comm::{Comm, CommPattern, Grid25, GridComms25, Phase, RowSet};
use dsk_dense::Mat;
use dsk_kernels as kern;
use dsk_sparse::{CooMatrix, CsrMatrix};

use crate::common::{
    block_range, csr_coords, export_triplets, forward_acc, forward_input, import_values, sq_diff,
    AlgorithmFamily, Elision, Sampling, ShiftPipeline,
};
use crate::kernel::{CombineSpec, DistKernel, KernelId, TuneBlock};
use crate::planview::{PlanView, Side};
use crate::staged::{PlanPatterns, StagedProblem};

/// Tag for `A` panels (row-ring traffic).
const TAG_A: u32 = 130;
/// Tag for `B` panels (column-ring traffic).
const TAG_B: u32 = 131;

/// Per-rank state of the 2.5D sparse-replicating algorithm.
pub(crate) struct SparseRepl25 {
    /// Grid communicators.
    gc: GridComms25,
    view: PlanView,
    /// The local `S` block's pattern (CSR, values unset — real values
    /// are distributed along the fiber).
    s_pattern: CsrMatrix,
    /// This layer's `1/c` share of the sampling values (contiguous
    /// range of the CSR nonzero order).
    sampling_part: Vec<f64>,
    /// Home (pre-skewed) `A` panel.
    a_home: Mat,
    /// Home (pre-skewed) `B` panel.
    b_home: Mat,
    /// Fully reduced SDDMM values (available on every layer after a
    /// kernel).
    r_vals: Option<Vec<f64>>,
    /// Tuned local-kernel variants (all-naive until the builder tunes).
    pub(crate) local: kern::LocalPicks,
    /// Row-ring pattern for `A`-side panels (`None` = dense shifts).
    route_a: Option<CommPattern>,
    /// Column-ring pattern for `B`-side panels.
    route_b: Option<CommPattern>,
}

impl SparseRepl25 {
    /// Build this rank's state from shared staging (no communication,
    /// statistics unaffected).
    pub(crate) fn new(comm: &Comm, c: usize, staged: &StagedProblem) -> Self {
        let prob = &*staged.prob;
        let grid = Grid25::new(comm.size(), c).expect("invalid 2.5D grid");
        let gc = GridComms25::build(comm, grid);
        let q = grid.q;
        let (m, n) = (prob.dims.m, prob.dims.n);
        assert!(m >= q && n >= q, "matrix sides too small for grid");
        let (u, v, w) = (gc.u, gc.v, gc.w);

        let s_full = CsrMatrix::from_coo(&Self::partition(staged, q)[u][v]);
        let part = block_range(s_full.nnz(), c, w);
        let sampling_part = s_full.vals()[part].to_vec();
        let mut s_pattern = s_full;
        s_pattern.vals_mut().fill(0.0);

        let view = PlanView::of(
            KernelId::Family(AlgorithmFamily::SparseRepl25),
            c,
            grid.p,
            prob.dims,
        );
        let g = comm.rank();
        SparseRepl25 {
            gc,
            view,
            s_pattern,
            sampling_part,
            a_home: view.a_layout_of(g).extract(&prob.a),
            b_home: view.b_layout_of(g).extract(&prob.b),
            r_vals: None,
            route_a: None,
            route_b: None,
            local: kern::LocalPicks::default(),
        }
    }

    /// The block the builder tunes on (this rank's stationary `S`
    /// pattern) and the local ops this family runs — no local fused
    /// kernel (it decomposes into SDDMM + SpMM rounds).
    pub(crate) fn tune_target(&self) -> (TuneBlock<'_>, &'static [kern::LocalOp]) {
        use kern::LocalOp::*;
        (TuneBlock::Csr(&self.s_pattern), &[Spmm, SpmmT, Sddmm])
    }

    /// The need sets a pattern-routed plan requires, derived world-free
    /// from the staged `S` partition. The stationary block `(u, v)`
    /// reads every visiting `A` panel at its row support and every `B`
    /// panel at its column support — the same sets regardless of which
    /// slice the panel carries, so each origin entry repeats them.
    /// `primary` covers the row ring (`A` side), `secondary` the column
    /// ring (`B` side).
    pub(crate) fn derive_needs(staged: &StagedProblem, p: usize, c: usize) -> PlanPatterns {
        let grid = Grid25::new(p, c).expect("invalid 2.5D grid");
        let q = grid.q;
        let grid_s = Self::partition(staged, q);
        let mut primary = Vec::with_capacity(p);
        let mut secondary = Vec::with_capacity(p);
        for g in 0..p {
            let (u, v) = (grid.row_pos(g), grid.col_pos(g));
            let blk = &grid_s[u][v];
            let row_need = RowSet::from_indices(blk.iter().map(|(i, _, _)| i as u32).collect());
            let col_need = RowSet::from_indices(blk.iter().map(|(_, j, _)| j as u32).collect());
            primary.push(vec![row_need; q]);
            secondary.push(vec![col_need; q]);
        }
        PlanPatterns {
            primary,
            secondary: Some(secondary),
        }
    }

    /// The staged `q × q` block partition of `S`.
    fn partition(staged: &StagedProblem, q: usize) -> Arc<Vec<Vec<CooMatrix>>> {
        let d = staged.prob.dims;
        let rows: Vec<_> = (0..q).map(|uu| block_range(d.m, q, uu)).collect();
        let cols: Vec<_> = (0..q).map(|vv| block_range(d.n, q, vv)).collect();
        staged.partition(false, &rows, &cols)
    }

    /// Switch both panel rings to pattern routing: exchange this rank's
    /// need sets over each ring (charged to `Phase::PatternExchange`).
    pub(crate) fn enable_pattern_routing(&mut self, pats: &PlanPatterns) {
        let g = self.me();
        self.route_a = Some(CommPattern::exchange(
            &self.gc.row_ring,
            pats.primary[g].clone(),
        ));
        let sec = pats
            .secondary
            .as_ref()
            .expect("2.5D sparse replication routes both panel rings");
        self.route_b = Some(CommPattern::exchange(&self.gc.col_ring, sec[g].clone()));
    }

    fn q(&self) -> usize {
        self.gc.grid.q
    }

    /// This rank's position in the world communicator.
    fn me(&self) -> usize {
        self.gc.grid.rank_of(self.gc.u, self.gc.v, self.gc.w)
    }

    /// All-gather the distributed sampling values along the fiber
    /// (replication traffic — the only fiber traffic besides the SDDMM
    /// value all-reduce).
    fn allgather_sampling(&self) -> Vec<f64> {
        let _ph = self.gc.fiber.phase(Phase::Replication);
        let parts = self.gc.fiber.allgather(self.sampling_part.clone());
        let mut full = Vec::with_capacity(self.s_pattern.nnz());
        for p in parts {
            full.extend_from_slice(&p);
        }
        debug_assert_eq!(full.len(), self.s_pattern.nnz());
        full
    }

    /// Row-ring pipeline for `A`-side panels (one step backward per
    /// hop). Panels travel as [`Mat`] payloads or routed row bundles,
    /// so the incoming slice width — slices differ by one column when
    /// `q·c ∤ r` — arrives with the data; callers cross-check it via
    /// [`SparseRepl25::check_panel`].
    fn a_pipeline(&self) -> ShiftPipeline<'_> {
        let q = self.gc.row_ring.size();
        ShiftPipeline::new(&self.gc.row_ring, q - 1, TAG_A)
    }

    /// Column-ring pipeline for `B`-side panels (see
    /// [`SparseRepl25::a_pipeline`]).
    fn b_pipeline(&self) -> ShiftPipeline<'_> {
        let q = self.gc.col_ring.size();
        ShiftPipeline::new(&self.gc.col_ring, q - 1, TAG_B)
    }

    /// Schedule cross-check for an arriving panel: empty panels carry
    /// no shape, all others must match the expected slice width.
    fn check_panel(got: Mat, next_width: usize) -> Mat {
        debug_assert!(got.is_empty() || got.ncols() == next_width);
        got
    }

    /// The ring member (on the ring whose member coordinate excludes
    /// `base`: `base = u` for the row ring, `v` for the column ring)
    /// that holds this rank's step-`t` panel at step `t'`. Needs are
    /// origin-independent here, so origin 0 stands for all.
    fn holder(&self, base: usize, t: usize) -> impl Fn(usize) -> usize {
        let q = self.q();
        let sig = (self.gc.u + self.gc.v + t) % q;
        move |tp| (sig + 2 * q - base - tp) % q
    }

    /// Width of the r-slice carried at step `t` (slices can differ by
    /// one column when `q·c ∤ r`).
    fn slice_at(&self, t: usize) -> std::ops::Range<usize> {
        let q = self.q();
        let sigma = (self.gc.u + self.gc.v + t) % q;
        block_range(
            self.view.dims.r,
            q * self.gc.grid.c,
            sigma * self.gc.grid.c + self.gc.w,
        )
    }

    /// SDDMM travel round: both panels travel; this layer accumulates
    /// partial combines over its `q` slices. Returns the layer-partial
    /// values (caller all-reduces along the fiber).
    fn dots_round(&self, combine: &CombineSpec) -> Vec<f64> {
        let q = self.q();
        let (u, v) = (self.gc.u, self.gc.v);
        let mut acc = vec![0.0; self.s_pattern.nnz()];
        let mut a = self.a_home.clone();
        let mut b = self.b_home.clone();
        let pipe_a = self.a_pipeline();
        let pipe_b = self.b_pipeline();
        for t in 0..q {
            let slice = self.slice_at(t);
            debug_assert_eq!(a.ncols(), slice.len(), "panel slice misalignment");
            // Both panels are input lanes: post both hops before the
            // combine so the two ring transfers overlap it (and each
            // other).
            let next = self.slice_at(t + 1).len();
            let ship_a =
                (self.route_a.as_ref()).map(|pat| forward_input(pat, 0, t, q, self.holder(u, t)));
            let ship_b =
                (self.route_b.as_ref()).map(|pat| forward_input(pat, 0, t, q, self.holder(v, t)));
            let fly_a = pipe_a.begin_mat(&a, ship_a.as_ref());
            let fly_b = pipe_b.begin_mat(&b, ship_b.as_ref());
            let com = combine.for_slice(slice.clone());
            self.gc
                .row_ring
                .compute(kern::sddmm_flops(self.s_pattern.nnz(), slice.len()), || {
                    self.local
                        .sddmm
                        .sddmm_csr(&mut acc, &self.s_pattern, &a, &b, com)
                });
            a = Self::check_panel(fly_a.wait(), next);
            b = Self::check_panel(fly_b.wait(), next);
        }
        acc
    }

    /// SpMMA travel round: `B` panels travel; a zero `A`-shaped panel
    /// circulates the row ring accumulating `S·B` per slice.
    fn spmm_a_round(&self, vals: &[f64], b0: &Mat) -> Mat {
        let q = self.q();
        let (u, v) = (self.gc.u, self.gc.v);
        let mut s = self.s_pattern.clone();
        s.set_vals(vals.to_vec());
        let mut out = Mat::zeros(self.a_home.nrows(), self.a_home.ncols());
        let mut b = b0.clone();
        let pipe_a = self.a_pipeline();
        let pipe_b = self.b_pipeline();
        for t in 0..q {
            debug_assert_eq!(out.ncols(), b.ncols(), "panel slice misalignment");
            // `B` is an input lane (posted early); the `A`-shaped
            // accumulator is written by the kernel and exchanges after.
            let next = self.slice_at(t + 1).len();
            let ship_b =
                (self.route_b.as_ref()).map(|pat| forward_input(pat, 0, t, q, self.holder(v, t)));
            let fly_b = pipe_b.begin_mat(&b, ship_b.as_ref());
            self.gc
                .row_ring
                .compute(kern::spmm_flops(s.nnz(), b.ncols()), || {
                    self.local.spmm.spmm_csr(&mut out, &s, &b)
                });
            let ship_a =
                (self.route_a.as_ref()).map(|pat| forward_acc(pat, 0, t, self.holder(u, t)));
            out = Self::check_panel(pipe_a.exchange_mat(out, ship_a.as_ref()), next);
            b = Self::check_panel(fly_b.wait(), next);
        }
        out
    }

    /// SpMMB travel round: `A` panels travel; a zero `B`-shaped panel
    /// circulates the column ring accumulating `Sᵀ·A` per slice.
    fn spmm_b_round(&self, vals: &[f64], a0: &Mat) -> Mat {
        let q = self.q();
        let (u, v) = (self.gc.u, self.gc.v);
        let mut s = self.s_pattern.clone();
        s.set_vals(vals.to_vec());
        let mut out = Mat::zeros(self.b_home.nrows(), self.b_home.ncols());
        let mut a = a0.clone();
        let pipe_a = self.a_pipeline();
        let pipe_b = self.b_pipeline();
        for t in 0..q {
            debug_assert_eq!(out.ncols(), a.ncols(), "panel slice misalignment");
            // `A` is an input lane (posted early); the `B`-shaped
            // accumulator is written by the kernel and exchanges after.
            let next = self.slice_at(t + 1).len();
            let ship_a =
                (self.route_a.as_ref()).map(|pat| forward_input(pat, 0, t, q, self.holder(u, t)));
            let fly_a = pipe_a.begin_mat(&a, ship_a.as_ref());
            self.gc
                .row_ring
                .compute(kern::spmm_flops(s.nnz(), a.ncols()), || {
                    self.local.spmm_t.spmm_csr_t(&mut out, &s, &a)
                });
            let ship_b =
                (self.route_b.as_ref()).map(|pat| forward_acc(pat, 0, t, self.holder(v, t)));
            out = Self::check_panel(pipe_b.exchange_mat(out, ship_b.as_ref()), next);
            a = Self::check_panel(fly_a.wait(), next);
        }
        out
    }

    /// All-reduce layer-partial SDDMM values along the fiber and apply
    /// the sampling.
    fn reduce_and_sample(&self, mut dots: Vec<f64>, sampling: Sampling) -> Vec<f64> {
        {
            let _ph = self.gc.fiber.phase(Phase::Replication);
            self.gc.fiber.allreduce_sum(&mut dots);
        }
        if let Sampling::Values = sampling {
            let full = self.allgather_sampling();
            kern::apply_sampling(&mut dots, &full);
        }
        dots
    }

    fn vals_full(&self, use_r: bool) -> Vec<f64> {
        if use_r {
            self.r_vals
                .clone()
                .expect("no SDDMM result available; call sddmm() first")
        } else {
            self.allgather_sampling()
        }
    }

    /// FusedMM with the `side` operand optionally replaced by `x` for
    /// the call: SDDMM, then the SpMM producing the `side` output. Only
    /// [`Elision::None`] is valid (paper §V-D).
    fn fused(&mut self, side: Side, x: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat {
        assert!(
            matches!(elision, Elision::None),
            "the 2.5D sparse-replicating algorithm admits no communication elision"
        );
        let saved = x.map(|x| std::mem::replace(self.home_mut(side), x.clone()));
        let dots = self.dots_round(&CombineSpec::Dot);
        let rvals = self.reduce_and_sample(dots, sampling);
        let out = match side {
            Side::A => self.spmm_a_round(&rvals, &self.b_home),
            Side::B => self.spmm_b_round(&rvals, &self.a_home),
        };
        self.r_vals = Some(rvals);
        if let Some(orig) = saved {
            *self.home_mut(side) = orig;
        }
        out
    }

    fn home_mut(&mut self, side: Side) -> &mut Mat {
        match side {
            Side::A => &mut self.a_home,
            Side::B => &mut self.b_home,
        }
    }

    /// Global `(row, col)` of every stored R value, in `r_vals` order.
    fn r_coords(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (rows, cols) = self.view.r_bounds_of(self.me());
        csr_coords(&self.s_pattern).map(move |(i, j)| (rows.start + i, cols.start + j))
    }
}

impl DistKernel for SparseRepl25 {
    fn id(&self) -> KernelId {
        KernelId::Family(AlgorithmFamily::SparseRepl25)
    }

    fn view(&self) -> PlanView {
        self.view
    }

    /// Distributed SDDMM; the result values end up replicated on every
    /// layer of the fiber.
    fn sddmm(&mut self) {
        let dots = self.dots_round(&CombineSpec::Dot);
        self.r_vals = Some(self.reduce_and_sample(dots, Sampling::Values));
    }

    fn sddmm_general(&mut self, combine: &CombineSpec) {
        let dots = self.dots_round(combine);
        self.r_vals = Some(self.reduce_and_sample(dots, Sampling::Ones));
    }

    /// `S·B` (or `R·B`), returned in the `A` panel layout.
    fn spmm_a(&mut self, use_r: bool) -> Mat {
        let vals = self.vals_full(use_r);
        self.spmm_a_round(&vals, &self.b_home)
    }

    /// `Sᵀ·A` (or `Rᵀ·A`), returned in the `B` panel layout.
    fn spmm_b(&mut self, use_r: bool) -> Mat {
        let vals = self.vals_full(use_r);
        self.spmm_b_round(&vals, &self.a_home)
    }

    fn fused_mm_a(&mut self, x: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat {
        self.fused(Side::A, x, elision, sampling)
    }

    fn fused_mm_b(&mut self, y: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat {
        self.fused(Side::B, y, elision, sampling)
    }

    /// All layers apply the same deterministic map, preserving
    /// replication.
    fn map_r(&mut self, f: &mut dyn FnMut(f64) -> f64) {
        let r = self.r_vals.as_mut().expect("no R values");
        for v in r.iter_mut() {
            *v = f(*v);
        }
    }

    /// Row sums over this rank's macro row (reduced across the row
    /// ring; values are replicated along fibers so layers don't sum).
    fn r_row_sums(&self, _comm: &Comm, phase: Phase) -> Vec<f64> {
        let r = self.r_vals.as_ref().expect("no R values");
        let mut sums = vec![0.0; self.s_pattern.nrows()];
        for (k, (i, _)) in csr_coords(&self.s_pattern).enumerate() {
            sums[i] += r[k];
        }
        let _ph = self.gc.row_ring.phase(phase);
        self.gc.row_ring.allreduce_sum(&mut sums);
        sums
    }

    fn scale_r_rows(&mut self, scale: &[f64]) {
        let r = self.r_vals.as_mut().expect("no R values");
        for (k, (i, _)) in csr_coords(&self.s_pattern).enumerate() {
            r[k] *= scale[i];
        }
    }

    fn spmm_a_with(&self, y: &Mat) -> Mat {
        let vals = self.r_vals.clone().expect("no R values");
        self.spmm_a_round(&vals, y)
    }

    /// Only this layer's value share is counted, so the sum across
    /// ranks covers each nonzero once.
    fn sq_loss_local(&self) -> f64 {
        let r = self.r_vals.as_ref().expect("no R values");
        let part = block_range(self.s_pattern.nnz(), self.gc.grid.c, self.gc.w);
        sq_diff(&self.sampling_part, &r[part])
    }

    /// R is replicated along the fiber, so only layer 0 exports (others
    /// contribute an empty set) and the cross-rank union covers each
    /// nonzero once.
    fn export_r(&self) -> Option<CooMatrix> {
        let r_vals = self.r_vals.as_ref()?;
        let layer0 = if self.gc.w == 0 { &r_vals[..] } else { &[] };
        Some(export_triplets(self.view.dims, self.r_coords(), layer0))
    }

    /// Every layer installs the full value set, restoring the
    /// replicated-R invariant.
    fn import_r(&mut self, r: &CooMatrix) {
        self.r_vals = Some(import_values(r, self.r_coords()));
    }

    fn a_iterate(&self) -> Mat {
        self.a_home.clone()
    }

    fn b_iterate(&self) -> Mat {
        self.b_home.clone()
    }

    fn set_a(&mut self, _comm: &Comm, x: &Mat) {
        // Panel layout == iterate layout: no distribution shift.
        self.a_home = x.clone();
    }

    fn set_b(&mut self, _comm: &Comm, y: &Mat) {
        self.b_home = y.clone();
    }

    fn rhs_a(&mut self, _comm: &Comm) -> Mat {
        self.spmm_a(false)
    }

    fn rhs_b(&mut self, _comm: &Comm) -> Mat {
        self.spmm_b(false)
    }
}
