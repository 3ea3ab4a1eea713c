//! The PETSc-like 1D block-row baseline.
//!
//! The paper benchmarks against PETSc's `MatMatMult`, which requires a
//! 1D block-row distribution for every matrix and performs no
//! replication. For the off-diagonal part of the product, each rank
//! fetches exactly the remote dense rows its sparse columns touch (a
//! `VecScatter` in PETSc terms): sparsity-aware round-trip traffic that
//! scales poorly as `p` grows — on power-law matrices almost every rank
//! ends up fetching almost every row, which is why the paper reports
//! ≥10× speedups over this baseline. Following the paper, a FusedMM is
//! benchmarked as two back-to-back kernel calls with no reuse.
//!
//! The scatter *plan* (which rows go where) is computed once at
//! construction, mirroring PETSc's amortized symbolic phase; every call
//! pays the data movement.
//!
//! The baseline is a full [`DistKernel`] citizen: the same scatter that
//! feeds SpMM feeds an SDDMM (fetch the `B` rows, dot them against the
//! local `A` rows), so FusedMM, the generalized combine, and the R-value
//! surface all work — at the baseline's unfavorable communication cost,
//! which is the point of benchmarking it.

use dsk_comm::{Comm, Phase};
use dsk_dense::Mat;
use dsk_kernels as kern;
use dsk_sparse::partition::block_owner;
use dsk_sparse::{CooMatrix, CsrMatrix};

use crate::common::{
    block_range, csr_coords, export_triplets, import_values, sample, sq_diff, Elision, Sampling,
};
use crate::kernel::{CombineSpec, DistKernel, KernelId, TuneBlock};
use crate::planview::PlanView;
use crate::staged::StagedProblem;

/// One direction's scatter plan and remapped local matrix.
struct Plan {
    /// Local sparse block with columns remapped into the stacked
    /// `[local rows ‖ fetched rows]` index space.
    s_remapped: CsrMatrix,
    /// For every peer rank: the *global* rows this rank must serve to
    /// it each call.
    serve: Vec<Vec<u32>>,
    /// Number of rows fetched from each peer (for assembling the
    /// stacked operand).
    fetch_counts: Vec<usize>,
    /// Global operand-row index of each stacked-operand index (inverse
    /// of the column remap; needed to report results in global
    /// coordinates).
    inv_col: Vec<u32>,
}

/// Per-rank state of the 1D block-row baseline.
pub(crate) struct Baseline1D {
    view: PlanView,
    /// World communicator (duplicated; owned by the worker so the
    /// [`DistKernel`] surface needs no per-call communicator).
    comm: Comm,
    /// Local block rows of `A` (rows `block(m, p, rank)`).
    a_loc: Mat,
    /// Local block rows of `B` (rows `block(n, p, rank)`).
    b_loc: Mat,
    /// Plan for SpMMA / SDDMM (`S`-oriented: fetches `B` rows).
    plan_a: Plan,
    /// Plan for SpMMB (`Sᵀ`-oriented: fetches `A` rows).
    plan_b: Plan,
    /// SDDMM result values, aligned with `plan_a.s_remapped`'s CSR
    /// nonzero order.
    r_vals: Option<Vec<f64>>,
    /// Tuned local-kernel variants (all-naive until the builder tunes).
    pub(crate) local: kern::LocalPicks,
}

impl Baseline1D {
    /// Build this rank's state from shared staging, including the static
    /// scatter plans (construction traffic is charged to the `Setup`
    /// phase, matching PETSc's amortized symbolic factorization).
    pub(crate) fn new(comm: &Comm, staged: &StagedProblem) -> Self {
        let prob = &*staged.prob;
        let p = comm.size();
        let me = comm.rank();
        let (m, n) = (prob.dims.m, prob.dims.n);
        assert!(m >= p && n >= p, "matrix sides must be at least p");

        let row_blocks_m: Vec<_> = (0..p).map(|g| block_range(m, p, g)).collect();
        let s_rows = staged.partition(false, &row_blocks_m, std::slice::from_ref(&(0..n)));
        let s_loc = CsrMatrix::from_coo(&s_rows[me][0]);
        let row_blocks_n: Vec<_> = (0..p).map(|g| block_range(n, p, g)).collect();
        let st_rows = staged.partition(true, &row_blocks_n, std::slice::from_ref(&(0..m)));
        let st_loc = CsrMatrix::from_coo(&st_rows[me][0]);

        let view = PlanView::of(KernelId::Baseline1D, 1, p, prob.dims);
        Baseline1D {
            view,
            comm: comm.dup(),
            a_loc: view.a_layout_of(me).extract(&prob.a),
            b_loc: view.b_layout_of(me).extract(&prob.b),
            plan_a: Self::build_plan(comm, &s_loc, n),
            plan_b: Self::build_plan(comm, &st_loc, m),
            r_vals: None,
            local: kern::LocalPicks::default(),
        }
    }

    /// The block the builder tunes on (the `S`-oriented remapped block)
    /// and the local ops this kernel runs: SpMMB goes through the
    /// `Sᵀ`-oriented plan's row-major SpMM, so no transpose scatter,
    /// and the fused path is SDDMM then SpMM, so no local fused kernel.
    pub(crate) fn tune_target(&self) -> (TuneBlock<'_>, &'static [kern::LocalOp]) {
        use kern::LocalOp::*;
        (TuneBlock::Csr(&self.plan_a.s_remapped), &[Spmm, Sddmm])
    }

    /// Exchange the static fetch lists and remap the local block's
    /// columns into the stacked operand space.
    fn build_plan(comm: &Comm, s_loc: &CsrMatrix, operand_rows: usize) -> Plan {
        let p = comm.size();
        let me = comm.rank();
        let my_range = block_range(operand_rows, p, me);

        // Unique non-local columns, grouped by owner.
        let mut needed: Vec<u32> = s_loc
            .indices()
            .iter()
            .copied()
            .filter(|&j| !my_range.contains(&(j as usize)))
            .collect();
        needed.sort_unstable();
        needed.dedup();
        let mut requests: Vec<Vec<u32>> = vec![Vec::new(); p];
        for &j in &needed {
            requests[block_owner(operand_rows, p, j as usize)].push(j);
        }
        let fetch_counts: Vec<usize> = requests.iter().map(Vec::len).collect();
        // Tell each owner which of its rows we need (symbolic phase).
        let serve = comm.alltoallv_u32(requests.clone());

        // Remap columns: local rows first, then fetched rows in
        // (owner, request-order) sequence.
        let mut lookup: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        let mut next = my_range.len() as u32;
        for reqs in &requests {
            for &j in reqs {
                lookup.insert(j, next);
                next += 1;
            }
        }
        let coo = s_loc.to_coo();
        let mut remapped = dsk_sparse::CooMatrix::empty(s_loc.nrows(), next as usize);
        for (i, j, v) in coo.iter() {
            let col = if my_range.contains(&j) {
                (j - my_range.start) as u32
            } else {
                lookup[&(j as u32)]
            };
            remapped.push(i, col as usize, v);
        }
        let mut inv_col: Vec<u32> = (my_range.start as u32..my_range.end as u32).collect();
        for reqs in &requests {
            inv_col.extend_from_slice(reqs);
        }
        Plan {
            s_remapped: CsrMatrix::from_coo(&remapped),
            serve,
            fetch_counts,
            inv_col,
        }
    }

    /// Execute the per-call scatter: serve my rows to requesters,
    /// receive fetched rows, and stack them under the local operand.
    fn scatter_operand(&self, plan: &Plan, local: &Mat, operand_rows: usize) -> Mat {
        let comm = &self.comm;
        let _ph = comm.phase(Phase::Propagation);
        let p = self.view.p();
        let my_start = block_range(operand_rows, p, comm.rank()).start;
        let r = local.ncols();
        let mut outgoing: Vec<Vec<f64>> = Vec::with_capacity(p);
        for peer in 0..p {
            let rows = &plan.serve[peer];
            let mut buf = Vec::with_capacity(rows.len() * r);
            for &g in rows {
                buf.extend_from_slice(local.row(g as usize - my_start));
            }
            outgoing.push(buf);
        }
        let incoming = comm.alltoallv_f64(outgoing);
        let fetched_total: usize = plan.fetch_counts.iter().sum();
        let mut stacked = Vec::with_capacity((local.nrows() + fetched_total) * r);
        stacked.extend_from_slice(local.as_slice());
        for (peer, data) in incoming.into_iter().enumerate() {
            debug_assert_eq!(data.len(), plan.fetch_counts[peer] * r);
            stacked.extend_from_slice(&data);
        }
        Mat::from_vec(local.nrows() + fetched_total, r, stacked)
    }

    /// Scatter + local SpMM through one plan: the shared body of SpMMA
    /// (`S`-oriented, operand `B`-side) and SpMMB (`Sᵀ`-oriented,
    /// operand `A`-side). `vals` overrides the sparse values with an
    /// array in the plan's CSR order (R-valued SpMM).
    fn spmm_plan_vals(
        &self,
        plan: &Plan,
        local: &Mat,
        operand_rows: usize,
        vals: Option<&[f64]>,
    ) -> Mat {
        let operand = self.scatter_operand(plan, local, operand_rows);
        let s = &plan.s_remapped;
        let r = self.view.dims.r;
        let mut out = Mat::zeros(s.nrows(), r);
        let owned;
        let s_ref = match vals {
            Some(v) => {
                let mut sv = s.clone();
                sv.set_vals(v.to_vec());
                owned = sv;
                &owned
            }
            None => s,
        };
        self.comm.compute(kern::spmm_flops(s.nnz(), r), || {
            self.local.spmm.spmm_csr(&mut out, s_ref, &operand)
        });
        out
    }

    /// Distributed SpMMA `S·B` (PETSc `MatMatMult` analogue) against
    /// the `B`-side rows `y`; `vals` as in [`Self::spmm_plan_vals`].
    fn spmm_a_vals(&self, y: &Mat, vals: Option<&[f64]>) -> Mat {
        self.spmm_plan_vals(&self.plan_a, y, self.view.dims.n, vals)
    }

    /// Distributed SpMMB `Sᵀ·A`; `vals` takes a `Sᵀ`-ordered array.
    fn spmm_b_vals(&self, vals: Option<&[f64]>) -> Mat {
        self.spmm_plan_vals(&self.plan_b, &self.a_loc, self.view.dims.m, vals)
    }

    /// Redistribute the SDDMM result from the `S` orientation (values
    /// aligned with `plan_a.s_remapped`, partitioned by `A`'s block
    /// rows) into the `Sᵀ` orientation (aligned with
    /// `plan_b.s_remapped`, partitioned by `B`'s block rows) — the
    /// value shuffle `Rᵀ·A` needs. Each nonzero travels as a
    /// (row, col, value) triplet to the owner of its `Sᵀ` block row —
    /// one all-to-all of triplet bundles, so the cost is one message
    /// per peer carrying the paper's three words per nonzero; the
    /// traffic is charged to the propagation phase.
    fn r_vals_in_b_orientation(&self) -> Vec<f64> {
        let comm = &self.comm;
        let _ph = comm.phase(Phase::Propagation);
        let r_vals = self.r_vals.as_deref().expect("no SDDMM result");
        let (p, m, n) = (self.view.p(), self.view.dims.m, self.view.dims.n);
        let my_start_m = block_range(m, p, comm.rank()).start as u32;

        // Bucket my R nonzeros (global coordinates) by the rank owning
        // the corresponding Sᵀ block row (= the S column's owner).
        let s = &self.plan_a.s_remapped;
        let (indptr, indices) = (s.indptr(), s.indices());
        type Triplets = (Vec<u32>, Vec<u32>, Vec<f64>);
        let mut outgoing: Vec<Triplets> = vec![Triplets::default(); p];
        for i in 0..s.nrows() {
            for k in indptr[i]..indptr[i + 1] {
                let gi = my_start_m + i as u32;
                let gj = self.plan_a.inv_col[indices[k] as usize];
                let bucket = &mut outgoing[block_owner(n, p, gj as usize)];
                bucket.0.push(gi);
                bucket.1.push(gj);
                bucket.2.push(r_vals[k]);
            }
        }
        let incoming = comm.alltoallv(outgoing);

        // Index my Sᵀ block's nonzeros by (local row, global S row).
        let my_start_n = block_range(n, p, comm.rank()).start as u32;
        let st = &self.plan_b.s_remapped;
        let (tp, ti) = (st.indptr(), st.indices());
        let mut pos = std::collections::HashMap::with_capacity(st.nnz());
        for j in 0..st.nrows() {
            for k in tp[j]..tp[j + 1] {
                let gi = self.plan_b.inv_col[ti[k] as usize];
                pos.insert((j as u32, gi), k);
            }
        }
        let mut vals = vec![0.0; st.nnz()];
        let mut filled = 0usize;
        for (rows, cols, rvals) in &incoming {
            for ((&gi, &gj), &v) in rows.iter().zip(cols).zip(rvals) {
                let lj = gj - my_start_n;
                let k = *pos
                    .get(&(lj, gi))
                    .expect("redistributed R value outside the Sᵀ pattern");
                vals[k] = v;
                filled += 1;
            }
        }
        debug_assert_eq!(filled, st.nnz(), "R redistribution must fill Sᵀ");
        vals
    }

    /// Raw SDDMM accumulations through the `S`-oriented plan: fetch the
    /// needed `B` rows, combine them against the local `A`-side rows
    /// `x`. Values are aligned with `plan_a.s_remapped`'s CSR order; no
    /// sampling applied.
    fn dots_a(&self, x: &Mat, combine: &CombineSpec) -> Vec<f64> {
        let (n, r) = (self.view.dims.n, self.view.dims.r);
        let operand = self.scatter_operand(&self.plan_a, &self.b_loc, n);
        let s = &self.plan_a.s_remapped;
        let mut acc = vec![0.0; s.nnz()];
        self.comm.compute(kern::sddmm_flops(s.nnz(), r), || {
            self.local
                .sddmm
                .sddmm_csr(&mut acc, s, x, &operand, combine.for_slice(0..r))
        });
        acc
    }

    /// Global `(row, col)` of every stored R value, in `r_vals` order.
    fn r_coords(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let row0 = self.view.r_bounds_of(self.comm.rank()).0.start;
        let inv_col = &self.plan_a.inv_col;
        csr_coords(&self.plan_a.s_remapped).map(move |(i, j)| (row0 + i, inv_col[j] as usize))
    }
}

impl DistKernel for Baseline1D {
    fn id(&self) -> KernelId {
        KernelId::Baseline1D
    }

    fn view(&self) -> PlanView {
        self.view
    }

    fn sddmm(&mut self) {
        let vals = self.dots_a(&self.a_loc, &CombineSpec::Dot);
        self.r_vals = Some(sample(
            vals,
            self.plan_a.s_remapped.vals(),
            Sampling::Values,
        ));
    }

    fn sddmm_general(&mut self, combine: &CombineSpec) {
        self.r_vals = Some(self.dots_a(&self.a_loc, combine));
    }

    fn spmm_a(&mut self, use_r: bool) -> Mat {
        let r = use_r.then(|| self.r_vals.as_deref().expect("no SDDMM result"));
        self.spmm_a_vals(&self.b_loc, r)
    }

    fn spmm_b(&mut self, use_r: bool) -> Mat {
        // The baseline stores R in the S orientation; Rᵀ·A first
        // redistributes the values into the Sᵀ orientation.
        let vals = use_r.then(|| self.r_vals_in_b_orientation());
        self.spmm_b_vals(vals.as_deref())
    }

    fn fused_mm_a(&mut self, x: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat {
        assert!(
            matches!(elision, Elision::None),
            "the 1D baseline admits no communication elision"
        );
        let x = x.unwrap_or(&self.a_loc);
        let vals = self.dots_a(x, &CombineSpec::Dot);
        let vals = sample(vals, self.plan_a.s_remapped.vals(), sampling);
        // Back-to-back second kernel: pays the scatter again.
        self.spmm_a_vals(&self.b_loc, Some(&vals))
    }

    fn fused_mm_b(&mut self, y: Option<&Mat>, elision: Elision, sampling: Sampling) -> Mat {
        assert!(
            matches!(elision, Elision::None),
            "the 1D baseline admits no communication elision"
        );
        let (m, r) = (self.view.dims.m, self.view.dims.r);
        let y = y.unwrap_or(&self.b_loc);
        // Transposed orientation: fetch A rows, combine against local
        // B-side rows (the dot product is symmetric).
        let operand = self.scatter_operand(&self.plan_b, &self.a_loc, m);
        let st = &self.plan_b.s_remapped;
        let mut vals = vec![0.0; st.nnz()];
        self.comm.compute(kern::sddmm_flops(st.nnz(), r), || {
            kern::sddmm::sddmm_csr_acc_with(&mut vals, st, y, &operand, kern::SddmmCombine::Dot)
        });
        let vals = sample(vals, st.vals(), sampling);
        // Second kernel, fresh scatter: out = Rᵀ·A in B block rows.
        let operand2 = self.scatter_operand(&self.plan_b, &self.a_loc, m);
        let mut st_r = st.clone();
        st_r.set_vals(vals);
        let mut out = Mat::zeros(st.nrows(), r);
        self.comm.compute(kern::spmm_flops(st.nnz(), r), || {
            kern::spmm_csr_acc(&mut out, &st_r, &operand2)
        });
        out
    }

    fn map_r(&mut self, f: &mut dyn FnMut(f64) -> f64) {
        let r = self.r_vals.as_mut().expect("no R values");
        for v in r.iter_mut() {
            *v = f(*v);
        }
    }

    fn r_row_sums(&self, _comm: &Comm, _phase: Phase) -> Vec<f64> {
        // Block rows are whole on one rank: sums are purely local.
        let r = self.r_vals.as_ref().expect("no R values");
        let s = &self.plan_a.s_remapped;
        let mut sums = vec![0.0; s.nrows()];
        for (k, (i, _)) in csr_coords(s).enumerate() {
            sums[i] += r[k];
        }
        sums
    }

    fn scale_r_rows(&mut self, scale: &[f64]) {
        let r = self.r_vals.as_mut().expect("no R values");
        for (k, (i, _)) in csr_coords(&self.plan_a.s_remapped).enumerate() {
            r[k] *= scale[i];
        }
    }

    fn spmm_a_with(&self, y: &Mat) -> Mat {
        let r = self.r_vals.as_deref().expect("no R values");
        self.spmm_a_vals(y, Some(r))
    }

    fn sq_loss_local(&self) -> f64 {
        let r = self.r_vals.as_ref().expect("no R values");
        sq_diff(self.plan_a.s_remapped.vals(), r)
    }

    fn export_r(&self) -> Option<CooMatrix> {
        let r_vals = self.r_vals.as_ref()?;
        Some(export_triplets(self.view.dims, self.r_coords(), r_vals))
    }

    fn import_r(&mut self, r: &CooMatrix) {
        self.r_vals = Some(import_values(r, self.r_coords()));
    }

    fn a_iterate(&self) -> Mat {
        self.a_loc.clone()
    }

    fn b_iterate(&self) -> Mat {
        self.b_loc.clone()
    }

    fn set_a(&mut self, _comm: &Comm, x: &Mat) {
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
