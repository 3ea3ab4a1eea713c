//! The per-rank worker handle: a [`DistKernel`] trait object plus its
//! construction plan.
//!
//! [`DistWorker`] lets harness and application code construct and drive
//! any of the paper's algorithms (and the 1D baseline) uniformly. It
//! dereferences to [`dyn DistKernel`](DistKernel), so every kernel
//! method is available directly — the per-method `match` boilerplate
//! the old enum carried is gone; dispatch happens once, at
//! construction, inside [`KernelBuilder`]. Outputs are returned in each
//! kernel's native layout (see the trait's layout contract); use
//! [`crate::layout`] to gather or convert.

use std::ops::{Deref, DerefMut};

use dsk_comm::Comm;

use crate::common::{AlgorithmFamily, Routing};
use crate::global::GlobalProblem;
use crate::kernel::{DistKernel, KernelBuilder, KernelId, KernelPlan};

/// A per-rank worker for any distributed kernel, with the plan it was
/// built from.
pub struct DistWorker {
    kernel: Box<dyn DistKernel>,
    plan: KernelPlan,
}

impl DistWorker {
    /// Wrap an already-constructed kernel (used by [`KernelBuilder`]).
    pub(crate) fn from_parts(kernel: Box<dyn DistKernel>, plan: KernelPlan) -> Self {
        debug_assert_eq!(kernel.id(), plan.id, "plan does not match kernel");
        DistWorker { kernel, plan }
    }

    /// Build this rank's worker for `family` with replication factor
    /// `c` from a borrowed global problem (test convenience; planner
    /// callers use [`KernelBuilder`] directly). Pins the paper's dense
    /// schedules — pattern routing is opt-in via
    /// [`KernelBuilder::routing`], never an implicit swap under a
    /// pinned reconstruction.
    pub fn from_global(
        comm: &Comm,
        family: AlgorithmFamily,
        c: usize,
        prob: &GlobalProblem,
    ) -> Self {
        KernelBuilder::new(prob)
            .family(family)
            .replication(c)
            .routing(Routing::Dense)
            .build(comm)
    }

    /// Which implementation this worker wraps.
    pub fn id(&self) -> KernelId {
        self.plan.id
    }

    /// The algorithm family, when the worker wraps one of the four
    /// families (`None` for the baseline).
    pub fn family(&self) -> Option<AlgorithmFamily> {
        self.plan.id.family()
    }

    /// Replication factor the worker was built with.
    pub fn c(&self) -> usize {
        self.plan.c
    }

    /// The plan this worker was built from (including the recommended
    /// elision for fused calls).
    pub fn plan(&self) -> KernelPlan {
        self.plan
    }

    /// Borrow the kernel trait object.
    pub fn kernel(&self) -> &dyn DistKernel {
        &*self.kernel
    }

    /// Mutably borrow the kernel trait object.
    pub fn kernel_mut(&mut self) -> &mut dyn DistKernel {
        &mut *self.kernel
    }
}

impl Deref for DistWorker {
    type Target = dyn DistKernel;

    fn deref(&self) -> &Self::Target {
        &*self.kernel
    }
}

impl DerefMut for DistWorker {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut *self.kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Sampling;
    use crate::theory::Algorithm;
    use dsk_comm::{MachineModel, SimWorld};
    use std::sync::Arc;

    #[test]
    fn every_benchmarked_algorithm_runs_through_the_worker() {
        // p = 8 admits every family (2.5D: c=2 gives 2×2 layers).
        let prob = Arc::new(GlobalProblem::erdos_renyi(24, 24, 8, 3, 91));
        let expect = prob.reference_fused_b();
        for alg in Algorithm::all_benchmarked() {
            let c = if alg.family.valid_c(8, 2) { 2 } else { 1 };
            let pr = Arc::clone(&prob);
            let w = SimWorld::new(8, MachineModel::bandwidth_only());
            let out = w.run(move |comm| {
                let mut worker = DistWorker::from_global(comm, alg.family, c, &pr);
                assert_eq!(worker.family(), Some(alg.family));
                let local = worker.fused_mm_b(None, alg.elision, Sampling::Values);
                // Smoke invariant: every local piece is finite.
                assert!(local.as_slice().iter().all(|v| v.is_finite()));
                local.as_slice().iter().map(|v| v * v).sum::<f64>()
            });
            // The distributed Frobenius norm must match the reference
            // regardless of layout (sum of squares is layout-invariant).
            let total: f64 = out.iter().map(|o| o.value).sum();
            let expect_sq: f64 = expect.as_slice().iter().map(|v| v * v).sum();
            assert!(
                (total - expect_sq).abs() <= 1e-6 * expect_sq.max(1.0),
                "norm mismatch for {:?}",
                alg
            );
        }
    }

    #[test]
    fn baseline_runs_through_the_worker() {
        let prob = Arc::new(GlobalProblem::erdos_renyi(24, 24, 6, 3, 92));
        let expect = prob.reference_fused_b();
        let expect_sq: f64 = expect.as_slice().iter().map(|v| v * v).sum();
        let w = SimWorld::new(4, MachineModel::bandwidth_only());
        let out = w.run(move |comm| {
            let mut worker = KernelBuilder::new(&prob).baseline().build(comm);
            assert_eq!(worker.family(), None);
            let local = worker.fused_mm_b(None, crate::common::Elision::None, Sampling::Values);
            local.as_slice().iter().map(|v| v * v).sum::<f64>()
        });
        let total: f64 = out.iter().map(|o| o.value).sum();
        assert!(
            (total - expect_sq).abs() <= 1e-6 * expect_sq.max(1.0),
            "baseline norm mismatch"
        );
    }
}
