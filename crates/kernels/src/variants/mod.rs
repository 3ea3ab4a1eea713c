//! The local microkernel variant library.
//!
//! Every local op the distributed algorithms call between communication
//! steps — SpMM, the SpMMB/transpose scatter, SDDMM, and the fused
//! SDDMM+SpMM kernel — exists in two interchangeable implementations
//! behind the [`LocalKernel`] variant enum:
//!
//! * **`Naive`** — the original row loops ([`crate::spmm`],
//!   [`crate::sddmm`], [`crate::fused`]), kept as the reference point
//!   the other variant is tuned against;
//! * **`Blocked`** — register-blocked row kernels with width-specialized
//!   unrolled inner loops for r ∈ {8, 16, 32, 64} and a chunk-of-8
//!   generic fallback (multiple independent accumulators per row, one
//!   read-modify-write of the output per width chunk instead of one per
//!   nonzero).
//!
//! Both are serial: each rank of a distributed run owns one core, so a
//! second level of threads inside a rank could only oversubscribe.
//! Choosing *which* variant to run is the job of [`crate::tuner`];
//! pinning one for reproducible benches is `DSK_LOCAL_KERNEL` (see the
//! crate docs).

mod blocked;

use dsk_dense::Mat;
use dsk_sparse::{CooMatrix, CsrMatrix};

use crate::sddmm::SddmmCombine;

/// The local kernel ops a [`LocalKernel`] variant can implement. The
/// transpose scatter ([`LocalOp::SpmmT`]) is separate from row-major
/// SpMM because its memory access differs (it scatters into output rows
/// indexed by S columns instead of gathering), so it tunes separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LocalOp {
    /// `out += S·B` (row-major gather).
    Spmm,
    /// `out += Sᵀ·A` (scatter into output rows indexed by S columns).
    SpmmT,
    /// Sampled dense-dense accumulation aligned with the pattern.
    Sddmm,
    /// The fused SDDMM+SpMM kernel.
    Fused,
}

impl LocalOp {
    /// All ops, in display order.
    pub const ALL: [LocalOp; 4] = [
        LocalOp::Spmm,
        LocalOp::SpmmT,
        LocalOp::Sddmm,
        LocalOp::Fused,
    ];

    /// Stable lower-case label (bench reports, scoreboards).
    pub fn label(self) -> &'static str {
        match self {
            LocalOp::Spmm => "spmm",
            LocalOp::SpmmT => "spmm-t",
            LocalOp::Sddmm => "sddmm",
            LocalOp::Fused => "fused",
        }
    }
}

/// Storage format of the sparse block a local kernel runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SparseFormat {
    /// Compressed sparse rows — stationary blocks, reused across steps.
    Csr,
    /// Coordinate triplets — blocks that just arrived over the wire.
    Coo,
}

/// An interchangeable local kernel implementation. `Default` is
/// [`LocalKernel::Naive`], the original row loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LocalKernel {
    /// The original row loop (the pre-variant-library kernels).
    #[default]
    Naive,
    /// Register-blocked rows with width-specialized inner loops.
    Blocked,
}

impl LocalKernel {
    /// All variants, in display order.
    pub const ALL: [LocalKernel; 2] = [LocalKernel::Naive, LocalKernel::Blocked];

    /// Stable lower-case label (bench schema, scoreboards,
    /// `DSK_LOCAL_KERNEL` values).
    pub fn label(self) -> &'static str {
        match self {
            LocalKernel::Naive => "naive",
            LocalKernel::Blocked => "blocked",
        }
    }

    /// Parse a label (as produced by [`LocalKernel::label`]; `_` is
    /// accepted for `-`). `None` for anything unrecognized.
    pub fn parse(s: &str) -> Option<LocalKernel> {
        let norm = s.trim().to_ascii_lowercase().replace('_', "-");
        LocalKernel::ALL.into_iter().find(|v| v.label() == norm)
    }

    /// `out += S·B` on a CSR block through this variant.
    pub fn spmm_csr(self, out: &mut Mat, s: &CsrMatrix, b: &Mat) {
        match self {
            LocalKernel::Naive => crate::spmm::spmm_csr_acc(out, s, b),
            LocalKernel::Blocked => blocked::blocked_spmm_csr_acc(out, s, b),
        }
    }

    /// `out += Sᵀ·A` on a CSR block through this variant.
    pub fn spmm_csr_t(self, out: &mut Mat, s: &CsrMatrix, a: &Mat) {
        match self {
            LocalKernel::Naive => crate::spmm::spmm_csr_t_acc(out, s, a),
            LocalKernel::Blocked => blocked::blocked_spmm_csr_t_acc(out, s, a),
        }
    }

    /// SDDMM accumulation on a CSR block through this variant.
    pub fn sddmm_csr(
        self,
        acc: &mut [f64],
        s: &CsrMatrix,
        a_panel: &Mat,
        b_panel: &Mat,
        combine: SddmmCombine<'_>,
    ) {
        match self {
            LocalKernel::Naive => {
                crate::sddmm::sddmm_csr_acc_with(acc, s, a_panel, b_panel, combine)
            }
            LocalKernel::Blocked => {
                blocked::blocked_sddmm_csr_acc_with(acc, s, a_panel, b_panel, combine)
            }
        }
    }

    /// The fused SDDMM+SpMM kernel on a CSR block through this variant.
    pub fn fused_csr(self, out: &mut Mat, s: &CsrMatrix, a: &Mat, b: &Mat) {
        match self {
            LocalKernel::Naive => crate::fused::fused_a_csr(out, s, a, b),
            LocalKernel::Blocked => blocked::blocked_fused_a_csr(out, s, a, b),
        }
    }

    /// `out += S·B` on a COO block through this variant.
    pub fn spmm_coo(self, out: &mut Mat, s: &CooMatrix, b: &Mat) {
        match self {
            LocalKernel::Naive => crate::spmm::spmm_coo_acc(out, s, b),
            LocalKernel::Blocked => blocked::blocked_spmm_coo_acc(out, s, b),
        }
    }

    /// `out += Sᵀ·A` on a COO block through this variant.
    pub fn spmm_coo_t(self, out: &mut Mat, s: &CooMatrix, a: &Mat) {
        match self {
            LocalKernel::Naive => crate::spmm::spmm_coo_t_acc(out, s, a),
            LocalKernel::Blocked => blocked::blocked_spmm_coo_t_acc(out, s, a),
        }
    }

    /// SDDMM accumulation on a COO block through this variant.
    pub fn sddmm_coo(
        self,
        acc: &mut [f64],
        s: &CooMatrix,
        a_panel: &Mat,
        b_panel: &Mat,
        combine: SddmmCombine<'_>,
    ) {
        match self {
            LocalKernel::Naive => {
                crate::sddmm::sddmm_coo_acc_with(acc, s, a_panel, b_panel, combine)
            }
            LocalKernel::Blocked => {
                blocked::blocked_sddmm_coo_acc_with(acc, s, a_panel, b_panel, combine)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_through_parse() {
        for v in LocalKernel::ALL {
            assert_eq!(LocalKernel::parse(v.label()), Some(v));
        }
        assert_eq!(
            LocalKernel::parse(" Blocked \n"),
            Some(LocalKernel::Blocked)
        );
        assert_eq!(LocalKernel::parse("par-blocked"), None);
        assert_eq!(LocalKernel::parse("mkl"), None);
        assert_eq!(LocalKernel::parse(""), None);
    }
}
