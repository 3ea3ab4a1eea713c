//! World-free plan views: the Table II data distributions as pure
//! functions of `(kernel, c, p, dims)`.
//!
//! Every family's iterate layouts, R pattern bounds and row-sharing
//! groups are grid arithmetic — they depend on the plan and the problem
//! shape, never on a live worker or communicator. [`PlanView`] is the
//! single home of that arithmetic: the live kernels hold a view of their
//! own plan and read their layouts, bounds and groups from it (the
//! corresponding [`DistKernel`](crate::kernel::DistKernel) methods are
//! provided on top of [`DistKernel::view`](crate::kernel::DistKernel::view)),
//! and callers can ask *"where would rank `g` of a `p`-rank world hold
//! its state under this plan?"* for a world that is not running — the
//! question elastic resize ([`crate::session::Session::resize`]) must
//! answer on both sides of a process-count change, including on ranks
//! that are members of only one of the two worlds. Because both uses
//! read the same definitions, a view of a running worker's plan agrees
//! with the worker bit for bit.

use std::ops::Range;

use crate::common::{block_range, union_range, AlgorithmFamily, ProblemDims};
use crate::kernel::{KernelId, KernelPlan};
use crate::layout::DenseLayout;
use dsk_comm::Grid25;

/// Which dense operand a layout describes: `A` (`m` rows) or `B` (`n`
/// rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    A,
    B,
}

/// A plan's data distributions for a hypothetical world of `p` ranks.
///
/// Pure and communication-free: all methods are closed-form grid
/// arithmetic, callable for any rank `g < p` from any process.
#[derive(Debug, Clone, Copy)]
pub struct PlanView {
    id: KernelId,
    c: usize,
    p: usize,
    pub(crate) dims: ProblemDims,
}

impl PlanView {
    /// View `plan` as realized on a world of `p` ranks.
    ///
    /// # Panics
    ///
    /// Panics when the plan's grid cannot be realized at `p` (e.g. a
    /// 1.5D plan whose `c` does not divide `p`).
    pub fn new(plan: &KernelPlan, p: usize, dims: ProblemDims) -> Self {
        Self::of(plan.id, plan.c, p, dims)
    }

    /// [`PlanView::new`] from the plan's identity and replication
    /// factor alone (the only plan fields the distributions depend on).
    pub(crate) fn of(id: KernelId, c: usize, p: usize, dims: ProblemDims) -> Self {
        assert!(p >= 1, "a plan view needs at least one rank");
        if let Some(family) = id.family() {
            assert!(
                family.valid_c(p, c),
                "{} cannot realize c = {c} on p = {p}",
                family.label(),
            );
        }
        PlanView { id, c, p, dims }
    }

    /// The viewed kernel.
    pub fn id(&self) -> KernelId {
        self.id
    }

    /// The viewed world size.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The `A`-iterate layout of rank `g`.
    pub fn a_layout_of(&self, g: usize) -> DenseLayout {
        self.iterate_layout(Side::A, g)
    }

    /// The `B`-iterate layout of rank `g`.
    pub fn b_layout_of(&self, g: usize) -> DenseLayout {
        self.iterate_layout(Side::B, g)
    }

    /// The layout of rank `g`'s `spmm_a_with` output: the `A` operand's
    /// share in its replicated role.
    pub(crate) fn spmm_a_with_layout_of(&self, g: usize) -> DenseLayout {
        self.fiber_layout(Side::A, g)
    }

    fn rows(&self, side: Side) -> usize {
        match side {
            Side::A => self.dims.m,
            Side::B => self.dims.n,
        }
    }

    fn grid25(&self) -> Grid25 {
        Grid25::new(self.p, self.c).expect("invalid 2.5D grid")
    }

    /// Rank `g`'s share of the `side` operand in its iterate (stored,
    /// fused-in/fused-out) layout.
    pub(crate) fn iterate_layout(&self, side: Side, g: usize) -> DenseLayout {
        let (rows, r, p, c) = (self.rows(side), self.dims.r, self.p, self.c);
        match self.id {
            // Block row g at full width.
            KernelId::Family(AlgorithmFamily::DenseShift15) | KernelId::Baseline1D => {
                DenseLayout::single(block_range(rows, p, g), 0..r)
            }
            // Stationary: the row blocks {j ≡ v (mod c)} the traveling
            // sparse column blocks address, restricted to slice u.
            KernelId::Family(AlgorithmFamily::SparseShift15) => {
                let (q, u, v) = (p / c, g / c, g % c);
                DenseLayout {
                    row_ranges: (0..q).map(|w| block_range(rows, p, w * c + v)).collect(),
                    col_range: block_range(r, q, u),
                }
            }
            // Traveling home block with the Cannon pre-skew: rank
            // (u, v, w) homes block ((u+v) mod q)·c + w, slice v.
            KernelId::Family(AlgorithmFamily::DenseRepl25) => {
                let grid = self.grid25();
                let (u, v, w) = (grid.row_pos(g), grid.col_pos(g), grid.fiber_pos(g));
                let sigma0 = (u + v) % grid.q;
                DenseLayout::single(
                    block_range(rows, grid.q * c, sigma0 * c + w),
                    block_range(r, grid.q, v),
                )
            }
            // Pre-skewed panels: macro row u (A) or v (B) of the q-way
            // split, slice ((u+v) mod q)·c + w of the q·c-way r split.
            KernelId::Family(AlgorithmFamily::SparseRepl25) => {
                let grid = self.grid25();
                let (u, v, w) = (grid.row_pos(g), grid.col_pos(g), grid.fiber_pos(g));
                let sigma0 = (u + v) % grid.q;
                let pos = if side == Side::A { u } else { v };
                DenseLayout::single(
                    block_range(rows, grid.q, pos),
                    block_range(r, grid.q * c, sigma0 * c + w),
                )
            }
        }
    }

    /// Rank `g`'s share of the `side` operand in the role that is
    /// all-gathered along the fiber. Only the families whose replicated
    /// share differs from the iterate share define their own.
    pub(crate) fn fiber_layout(&self, side: Side, g: usize) -> DenseLayout {
        let (rows, r, p, c) = (self.rows(side), self.dims.r, self.p, self.c);
        match self.id {
            // Rows block(rows, c, v) of slice u.
            KernelId::Family(AlgorithmFamily::SparseShift15) => {
                let (q, u, v) = (p / c, g / c, g % c);
                DenseLayout::single(block_range(rows, c, v), block_range(r, q, u))
            }
            // The w-th c-way split of macro row u, slice v.
            KernelId::Family(AlgorithmFamily::DenseRepl25) => {
                let grid = self.grid25();
                let (u, v, w) = (grid.row_pos(g), grid.col_pos(g), grid.fiber_pos(g));
                let mac = block_range(rows, grid.q, u);
                let sub = block_range(mac.len(), c, w);
                DenseLayout::single(
                    mac.start + sub.start..mac.start + sub.end,
                    block_range(r, grid.q, v),
                )
            }
            _ => self.iterate_layout(side, g),
        }
    }

    /// Global bounding rectangle `(rows, cols)` of rank `g`'s stored-R
    /// sparsity pattern under this plan; its start is the global offset
    /// of the rank's home block.
    pub fn r_bounds_of(&self, g: usize) -> (Range<usize>, Range<usize>) {
        let (d, p, c) = (self.dims, self.p, self.c);
        match self.id {
            KernelId::Family(AlgorithmFamily::DenseShift15) => {
                // Macro row u = g/c of S; its column blocks are strided
                // across the full width, so the column bound stays
                // conservative.
                (union_range(d.m, p, (g / c) * c, c), 0..d.n)
            }
            KernelId::Family(AlgorithmFamily::SparseShift15) => {
                // Rank g's home block is column block g of S.
                (0..d.m, block_range(d.n, p, g))
            }
            KernelId::Family(AlgorithmFamily::DenseRepl25) => {
                // Canonical home block: macro row u, column block
                // σ₀·c + w of the q·c-way split (σ₀ = (u+v) mod q).
                let grid = self.grid25();
                let (u, v, w) = (grid.row_pos(g), grid.col_pos(g), grid.fiber_pos(g));
                let sigma0 = (u + v) % grid.q;
                (
                    block_range(d.m, grid.q, u),
                    block_range(d.n, grid.q * c, sigma0 * c + w),
                )
            }
            KernelId::Family(AlgorithmFamily::SparseRepl25) => {
                // The (u, v) block of the q×q layer grid, identical on
                // every fiber layer.
                let grid = self.grid25();
                (
                    block_range(d.m, grid.q, grid.row_pos(g)),
                    block_range(d.n, grid.q, grid.col_pos(g)),
                )
            }
            // 1D block rows at full width.
            KernelId::Baseline1D => (block_range(d.m, p, g), 0..d.n),
        }
    }

    /// Row-sharing color of rank `g` for `side`-iterates: ranks with
    /// equal color hold pieces of the same iterate rows.
    pub(crate) fn row_group(&self, side: Side, g: usize) -> u64 {
        let group = match self.id {
            // Whole rows on one rank: groups of one.
            KernelId::Family(AlgorithmFamily::DenseShift15) | KernelId::Baseline1D => g,
            // Stationary layouts are shared by the layer (same v).
            KernelId::Family(AlgorithmFamily::SparseShift15) => g % self.c,
            // Travel layouts are shared by the Cannon anti-diagonal
            // {(u, v): u+v ≡ σ₀ (mod q)} within a layer w.
            KernelId::Family(AlgorithmFamily::DenseRepl25) => {
                let grid = self.grid25();
                let (u, v, w) = (grid.row_pos(g), grid.col_pos(g), grid.fiber_pos(g));
                ((u + v) % grid.q) * self.c + w
            }
            // A panels are shared by the grid-row plane, B panels by
            // the grid-column plane.
            KernelId::Family(AlgorithmFamily::SparseRepl25) => {
                let grid = self.grid25();
                match side {
                    Side::A => grid.row_pos(g),
                    Side::B => grid.col_pos(g),
                }
            }
        };
        group as u64
    }
}

/// The empty layout: owns no rows and no columns. Ranks outside a
/// world's active roster use it as their side of a cross-world
/// [`crate::layout::repartition_dense`] — they contribute and receive
/// nothing.
pub fn empty_layout() -> DenseLayout {
    DenseLayout {
        row_ranges: Vec::new(),
        col_range: 0..0,
    }
}

/// The empty pattern-bounds rectangle; intersects nothing.
pub fn empty_bounds() -> (Range<usize>, Range<usize>) {
    (0..0, 0..0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Elision;
    use crate::common::Routing;
    use crate::global::GlobalProblem;
    use crate::kernel::KernelBuilder;
    use dsk_comm::{MachineModel, SimWorld};

    fn plan_for(family: AlgorithmFamily, c: usize) -> KernelPlan {
        KernelPlan {
            id: KernelId::Family(family),
            c,
            elision: Elision::None,
            routing: Routing::Dense,
            predicted_comm_s: None,
        }
    }

    #[test]
    fn views_agree_with_live_kernels() {
        // For every family, a PlanView of the built plan must reproduce
        // the live kernel's layout descriptors exactly, for every rank.
        let prob = std::sync::Arc::new(GlobalProblem::erdos_renyi(24, 24, 6, 3, 9301));
        let cases = [
            (AlgorithmFamily::DenseShift15, 2),
            (AlgorithmFamily::SparseShift15, 2),
            (AlgorithmFamily::DenseRepl25, 2),
            (AlgorithmFamily::SparseRepl25, 2),
        ];
        for (family, c) in cases {
            let p = 8;
            let prob = std::sync::Arc::clone(&prob);
            let out = SimWorld::new(p, MachineModel::bandwidth_only()).run(move |comm| {
                let worker = KernelBuilder::from_arc(std::sync::Arc::clone(&prob))
                    .family(family)
                    .replication(c)
                    .build(comm);
                let view = PlanView::new(&worker.plan(), p, worker.dims());
                for g in 0..p {
                    assert_eq!(view.a_layout_of(g), worker.kernel().a_iterate_layout_of(g));
                    assert_eq!(view.b_layout_of(g), worker.kernel().b_iterate_layout_of(g));
                    assert_eq!(view.r_bounds_of(g), worker.kernel().r_pattern_bounds_of(g));
                }
            });
            assert_eq!(out.len(), p, "{family:?}");
        }
    }

    #[test]
    fn baseline_view_matches_live_kernel() {
        let prob = std::sync::Arc::new(GlobalProblem::erdos_renyi(20, 20, 4, 3, 9302));
        let p = 4;
        let out = SimWorld::new(p, MachineModel::bandwidth_only()).run(move |comm| {
            let worker = KernelBuilder::from_arc(std::sync::Arc::clone(&prob))
                .baseline()
                .build(comm);
            let view = PlanView::new(&worker.plan(), p, worker.dims());
            for g in 0..p {
                assert_eq!(view.a_layout_of(g), worker.kernel().a_iterate_layout_of(g));
                assert_eq!(view.b_layout_of(g), worker.kernel().b_iterate_layout_of(g));
                assert_eq!(view.r_bounds_of(g), worker.kernel().r_pattern_bounds_of(g));
            }
        });
        assert_eq!(out.len(), p);
    }

    #[test]
    fn views_exist_for_worlds_not_running() {
        // The point of a view: interrogate a 6-rank plan from nowhere.
        let dims = ProblemDims::new(48, 48, 8);
        let plan = plan_for(AlgorithmFamily::DenseShift15, 2);
        let view = PlanView::new(&plan, 6, dims);
        let mut rows = 0;
        for g in 0..6 {
            rows += view.a_layout_of(g).local_rows();
        }
        assert_eq!(rows, 48, "layouts must tile the matrix exactly");
    }

    #[test]
    #[should_panic(expected = "cannot realize")]
    fn invalid_grid_is_rejected() {
        let dims = ProblemDims::new(48, 48, 8);
        let plan = plan_for(AlgorithmFamily::DenseShift15, 4);
        let _ = PlanView::new(&plan, 6, dims); // 4 ∤ 6
    }

    #[test]
    fn empty_layout_owns_nothing() {
        assert_eq!(empty_layout().local_rows(), 0);
        assert_eq!(empty_layout().width(), 0);
        let (r, c) = empty_bounds();
        assert!(r.is_empty() && c.is_empty());
    }
}
