//! Per-layer probes of the traced run: local kernels (`dsk-kernels`),
//! point-to-point and collective costs (`dsk-comm`), and machine
//! calibration (memory copy bandwidth, serial reference).

use std::time::Instant;

use distributed_sparse_kernels::kernels::{
    fused_flops, sddmm_flops, spmm_flops, LocalKernel, LocalOp, LocalTuning, SddmmCombine,
    SparseFormat, TuneRequest,
};
use distributed_sparse_kernels::prelude::*;
use distributed_sparse_kernels::sparse::{CooMatrix, CsrMatrix};

use crate::spans::span;
use crate::summary::median;

/// Timed repetitions of each local-kernel call (after one warm-up).
const KERNEL_REPS: usize = 5;
/// Timed chains per point-to-point / collective probe.
const COMM_CHAINS: usize = 5;
/// Calls per chain of 8-byte shifts.
const SMALL_CHAIN: usize = 200;
/// Calls per chain of one-tile shifts and all-gathers.
const TILE_CHAIN: usize = 8;
/// Timed repetitions of the bandwidth copy (after one warm-up).
const COPY_REPS: usize = 5;
/// LLC size assumed when the host does not report one (the 105 MiB of
/// the machine the record was first taken on).
const DEFAULT_LLC_BYTES: usize = 105 << 20;

/// Rank 0's row block of `S`: rows `[0, m/p)`, all columns, in CSR —
/// the shape of the sparse block a 1D row distribution hands rank 0.
pub fn rank0_block(prob: &GlobalProblem, p: usize) -> CsrMatrix {
    let rows = prob.dims.m.div_ceil(p);
    let mut coo = CooMatrix::empty(rows, prob.dims.n);
    for (i, j, v) in prob.s.iter() {
        if i < rows {
            coo.push(i, j, v);
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// One local op measured on the rank-0 block.
#[derive(Clone, Debug)]
pub struct KernelProbe {
    /// The op.
    pub op: LocalOp,
    /// What a fresh tuner picked for it.
    pub pick: LocalKernel,
    /// Milliseconds the tuner took to pick.
    pub tune_ms: f64,
    /// Median seconds per call of the pick.
    pub tuned_s: f64,
    /// Median seconds per call of `Naive`.
    pub naive_s: f64,
    /// Flops per call.
    pub flops: u64,
    /// Computed bytes per call (compulsory traffic, no cache misses).
    pub bytes: u64,
}

impl KernelProbe {
    /// The metric-name stem of the op.
    pub fn key(&self) -> &'static str {
        match self.op {
            LocalOp::Spmm => "spmm",
            LocalOp::SpmmT => "spmm_t",
            LocalOp::Sddmm => "sddmm",
            LocalOp::Fused => "fused",
        }
    }

    /// Throughput of the tuned pick, GFLOP/s.
    pub fn gflops(&self) -> f64 {
        self.flops as f64 / self.tuned_s * 1e-9
    }

    /// Tuned throughput over naive throughput.
    pub fn tuned_over_naive(&self) -> f64 {
        self.naive_s / self.tuned_s
    }

    /// Flops per computed byte.
    pub fn flop_per_byte(&self) -> f64 {
        self.flops as f64 / self.bytes as f64
    }

    /// Achieved computed bytes/s of the tuned pick as a share of
    /// `copy_gbps`.
    pub fn bw_frac(&self, copy_gbps: f64) -> f64 {
        self.bytes as f64 / self.tuned_s * 1e-9 / copy_gbps
    }
}

fn time_median(mut f: impl FnMut(), reps: usize) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Tune and time every local op on `block` with dense width `r`.
pub fn probe_kernels(block: &CsrMatrix, r: usize) -> Vec<KernelProbe> {
    let (rows, cols, nnz) = (block.nrows(), block.ncols(), block.nnz());
    let a = Mat::random(rows, r, 0xA11CE);
    let b = Mat::random(cols, r, 0xB0B);
    let sparse_bytes = (12 * nnz + 8 * (rows + 1)) as u64;
    let dense = |n: usize| (8 * n * r) as u64;
    LocalOp::ALL
        .into_iter()
        .map(|op| {
            let tuning = LocalTuning::new();
            let req = TuneRequest {
                op,
                format: SparseFormat::Csr,
                rows,
                nnz,
                r,
            };
            let t = Instant::now();
            let pick = {
                let _s = span("kernels.tune_csr");
                tuning.tune_csr(req, block)
            };
            let tune_ms = t.elapsed().as_secs_f64() * 1e3;
            let (flops, bytes, name) = match op {
                LocalOp::Spmm => (
                    spmm_flops(nnz, r),
                    sparse_bytes + dense(cols) + 2 * dense(rows),
                    "kernels.spmm",
                ),
                LocalOp::SpmmT => (
                    spmm_flops(nnz, r),
                    sparse_bytes + dense(rows) + 2 * dense(cols),
                    "kernels.spmm_t",
                ),
                LocalOp::Sddmm => (
                    sddmm_flops(nnz, r),
                    sparse_bytes + dense(rows) + dense(cols) + 16 * nnz as u64,
                    "kernels.sddmm",
                ),
                LocalOp::Fused => (
                    fused_flops(nnz, r),
                    sparse_bytes + 3 * dense(rows) + dense(cols),
                    "kernels.fused",
                ),
            };
            // Outputs are allocated once and accumulated into: the
            // kernels are `+=` kernels, and allocation is not their cost.
            let mut out_rows = Mat::zeros(rows, r);
            let mut out_cols = Mat::zeros(cols, r);
            let mut acc = vec![0.0; nnz];
            let mut run = |v: LocalKernel| {
                let _s = span(name);
                time_median(
                    || match op {
                        LocalOp::Spmm => v.spmm_csr(&mut out_rows, block, &b),
                        LocalOp::SpmmT => v.spmm_csr_t(&mut out_cols, block, &a),
                        LocalOp::Sddmm => v.sddmm_csr(&mut acc, block, &a, &b, SddmmCombine::Dot),
                        LocalOp::Fused => v.fused_csr(&mut out_rows, block, &a, &b),
                    },
                    KERNEL_REPS,
                )
            };
            let tuned_s = run(pick);
            let naive_s = run(LocalKernel::Naive);
            KernelProbe {
                op,
                pick,
                tune_ms,
                tuned_s,
                naive_s,
                flops,
                bytes,
            }
        })
        .collect()
}

/// Point-to-point and collective costs on a world's backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommProbe {
    /// Time per 8-byte `Comm::shift` in a back-to-back chain,
    /// microseconds (α).
    pub alpha_us: f64,
    /// Time per one-tile shift in a back-to-back chain, milliseconds.
    pub tile_ms: f64,
    /// Bytes of one tile.
    pub tile_bytes: f64,
    /// Time per `allgather` of one tile, milliseconds.
    pub allgather_ms: f64,
}

impl CommProbe {
    /// Bandwidth of the tile shift beyond its 8-byte latency, GB/s.
    pub fn beta_gbps(&self) -> f64 {
        let tile_s = self.tile_ms * 1e-3;
        let extra_s = (tile_s - self.alpha_us * 1e-6).max(tile_s * 1e-3);
        self.tile_bytes / extra_s * 1e-9
    }
}

/// Run the comm probes on every rank of one epoch (rank 0's timings are
/// the ones used). Each probe times a chain of back-to-back calls after
/// a barrier — every shift waits for the partner's previous one, so a
/// chain's time per call is the exchange's latency, not a message that
/// happened to arrive early — and reports the median over
/// [`COMM_CHAINS`] chains.
pub fn probe_comm(comm: &Comm, tile_len: usize) -> Vec<f64> {
    let per_call = |calls: usize, f: &dyn Fn()| -> f64 {
        let chains: Vec<f64> = (0..COMM_CHAINS)
            .map(|_| {
                comm.barrier();
                let t = Instant::now();
                for _ in 0..calls {
                    f();
                }
                t.elapsed().as_secs_f64() / calls as f64
            })
            .collect();
        median(&chains)
    };
    let tile = vec![1.0f64; tile_len];
    let small = {
        let _s = span("comm.shift");
        per_call(SMALL_CHAIN, &|| {
            let _: f64 = comm.shift(1, 1, 1.0f64);
        })
    };
    let big = {
        let _s = span("comm.shift");
        per_call(TILE_CHAIN, &|| {
            let _: Vec<f64> = comm.shift(1, 2, tile.clone());
        })
    };
    let gather = {
        let _s = span("comm.allgather");
        per_call(TILE_CHAIN, &|| {
            let _ = comm.allgather(tile.clone());
        })
    };
    vec![small * 1e6, big * 1e3, gather * 1e3]
}

/// The last-level cache size the host reports (bytes).
pub fn llc_bytes() -> usize {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .ok()
        .and_then(|s| {
            let s = s.trim();
            let (num, mul) = match s.strip_suffix('K') {
                Some(n) => (n, 1usize << 10),
                None => match s.strip_suffix('M') {
                    Some(n) => (n, 1 << 20),
                    None => (s, 1),
                },
            };
            num.parse::<usize>().ok().map(|n| n * mul)
        })
        .unwrap_or(DEFAULT_LLC_BYTES)
}

/// STREAM-style copy bandwidth over two arrays of `bytes` each
/// (bytes read plus bytes written per second, GB/s).
pub fn copy_gbps(bytes: usize) -> f64 {
    let n = bytes / 8;
    let src = vec![1.0f64; n];
    let mut dst = vec![0.0f64; n];
    let s = {
        let _s = span("machine.copy");
        time_median(
            || {
                dst.copy_from_slice(std::hint::black_box(&src));
                std::hint::black_box(&dst);
            },
            COPY_REPS,
        )
    };
    2.0 * (n * 8) as f64 / s * 1e-9
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
