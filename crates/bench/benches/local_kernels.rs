//! Micro-benchmarks for the shared-memory local kernels: the per-step
//! work every distributed algorithm performs between communication
//! events (the paper's MKL/OpenMP analogue). Run with `cargo bench`.

use dsk_bench::microbench::{case, header};
use dsk_dense::Mat;
use dsk_kernels as kern;
use dsk_sparse::{gen, CsrMatrix};

fn setup(n: usize, nnz_per_row: usize, r: usize) -> (CsrMatrix, Mat, Mat) {
    let s = CsrMatrix::from_coo(&gen::erdos_renyi(n, n, nnz_per_row, 7));
    let a = Mat::random(n, r, 8);
    let b = Mat::random(n, r, 9);
    (s, a, b)
}

fn main() {
    header("local kernels (n = 4096, 8 nnz/row)");
    for r in [32usize, 128] {
        let (s, a, b) = setup(1 << 12, 8, r);
        let spmm_flops = kern::spmm_flops(s.nnz(), r);
        {
            let mut out = Mat::zeros(s.nrows(), r);
            case("spmm", &format!("serial/r={r}"), Some(spmm_flops), || {
                kern::spmm_csr_acc(&mut out, &s, &b)
            });
        }
        let sddmm_flops = kern::sddmm_flops(s.nnz(), r);
        {
            let mut acc = vec![0.0; s.nnz()];
            case("sddmm", &format!("serial/r={r}"), Some(sddmm_flops), || {
                kern::sddmm_csr_acc(&mut acc, &s, &a, &b)
            });
        }
        let fused_flops = kern::fused_flops(s.nnz(), r);
        {
            let mut out = Mat::zeros(s.nrows(), r);
            case(
                "fused_local",
                &format!("fused/r={r}"),
                Some(fused_flops),
                || kern::fused_a_csr(&mut out, &s, &a, &b),
            );
        }
        {
            let mut out = Mat::zeros(s.nrows(), r);
            case(
                "fused_local",
                &format!("unfused/r={r}"),
                Some(fused_flops),
                || {
                    let vals = kern::sddmm_csr(&s, &a, &b);
                    let mut rmat = s.clone();
                    rmat.set_vals(vals);
                    kern::spmm_csr_acc(&mut out, &rmat, &b);
                },
            );
        }
        // The variant library on the two SpMM forms: row-major gather
        // and the transpose scatter.
        for op in [kern::LocalOp::Spmm, kern::LocalOp::SpmmT] {
            let mut out = Mat::zeros(s.nrows(), r);
            for v in kern::LocalKernel::ALL {
                case(
                    &format!("variants/{}", op.label()),
                    &format!("{}/r={r}", v.label()),
                    Some(spmm_flops),
                    || match op {
                        kern::LocalOp::Spmm => v.spmm_csr(&mut out, &s, &b),
                        kern::LocalOp::SpmmT => v.spmm_csr_t(&mut out, &s, &a),
                        _ => unreachable!(),
                    },
                );
            }
        }
    }
}
