//! Runtime auto-tuner for the local microkernel variants.
//!
//! The distributed planner already auto-tunes the *outer* decision
//! (algorithm, replication factor, routing); [`LocalTuning`] adds the
//! inner one. For each (op, format, shape class) it times both
//! [`LocalKernel`] variants **on the staged problem's actual sparse
//! blocks** (capped to a row prefix so tuning stays cheap) and caches
//! the winner, keyed by a coarse shape class — log₂ buckets of the
//! block's row count and nnz/row plus the exact dense width `r` — so one
//! measurement serves every block of the same shape class.
//!
//! The decision respects noise: naive and blocked reps run in
//! back-to-back pairs, and `Blocked` is picked only when it wins the
//! median pair by at least 10%. Anything closer is inside the noise and
//! keeps `Naive`, the reference.
//!
//! The tuner is deliberately **communication-free**: it never touches a
//! `Comm` handle, performs no collectives, and records no modeled
//! flops, so modeled word/message/compute counts are bit-identical
//! whatever variant wins. Callers account its wall time in a dedicated
//! phase bucket instead.
//!
//! Picks can be pinned for reproducible benches: programmatically via
//! [`LocalTuning::set_pin`], or with the `DSK_LOCAL_KERNEL` environment
//! variable (`naive` or `blocked`; anything else panics with the valid
//! labels). A pin wins over both the cache and fresh measurement.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dsk_dense::Mat;
use dsk_sparse::{CooMatrix, CsrMatrix};

use crate::sddmm::SddmmCombine;
use crate::variants::{LocalKernel, LocalOp, SparseFormat};

/// Cap on the nonzeros a tuning measurement runs over: blocks larger
/// than this are truncated to a row prefix (CSR) / entry prefix (COO).
const TUNE_NNZ_CAP: usize = 1 << 15;

/// Back-to-back (naive, blocked) rep pairs timed per decision, after
/// one warm-up of each.
const TUNE_PAIRS: usize = 5;

/// Smallest win, as a fraction of naive's time in the median pair, for
/// which the tuner leaves the reference. On a shared 2-vCPU host the
/// per-pair naive/blocked ratio of one kernel scatters by several
/// percent, so a smaller median win is not a dependable one.
const MIN_WIN: f64 = 0.10;

/// What a caller wants tuned: one local op on blocks of a given shape
/// class. `rows`/`nnz` describe the blocks the pick will serve (the
/// planner passes per-rank estimates so cache keys match at both tune
/// time and plan time); `r` is the dense operand width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneRequest {
    /// The local kernel op.
    pub op: LocalOp,
    /// Storage format of the sparse blocks.
    pub format: SparseFormat,
    /// Rows of a representative sparse block.
    pub rows: usize,
    /// Nonzeros of a representative sparse block.
    pub nnz: usize,
    /// Dense operand width (embedding dimension).
    pub r: usize,
}

/// Cache key: shape classes, not exact shapes — log₂ buckets of the row
/// count and of nnz/row, exact `r` (the unroll width specializes on it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct TuneKey {
    op: LocalOp,
    format: SparseFormat,
    rows_log2: u32,
    nnz_per_row_log2: u32,
    r: usize,
}

impl TuneKey {
    fn of(req: TuneRequest) -> TuneKey {
        let nnz_per_row = req.nnz / req.rows.max(1);
        TuneKey {
            op: req.op,
            format: req.format,
            rows_log2: req.rows.max(1).ilog2(),
            nnz_per_row_log2: nnz_per_row.max(1).ilog2(),
            r: req.r,
        }
    }
}

/// The variants a distributed kernel family resolved for its four local
/// ops. `Default` is all-[`LocalKernel::Naive`] (the pre-tuning
/// behavior).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LocalPicks {
    /// Variant for `out += S·B`.
    pub spmm: LocalKernel,
    /// Variant for the transpose scatter `out += Sᵀ·A`.
    pub spmm_t: LocalKernel,
    /// Variant for SDDMM accumulation.
    pub sddmm: LocalKernel,
    /// Variant for the fused SDDMM+SpMM kernel.
    pub fused: LocalKernel,
}

impl LocalPicks {
    /// The pick for `op`.
    pub fn get(&self, op: LocalOp) -> LocalKernel {
        match op {
            LocalOp::Spmm => self.spmm,
            LocalOp::SpmmT => self.spmm_t,
            LocalOp::Sddmm => self.sddmm,
            LocalOp::Fused => self.fused,
        }
    }
}

/// Per-problem cache of tuned local-kernel picks, shared by every
/// distributed plan built from the same staged problem (the local
/// analogue of the staged partition/pattern caches).
#[derive(Debug, Default)]
pub struct LocalTuning {
    cache: Mutex<HashMap<TuneKey, LocalKernel>>,
    pin: Mutex<Option<LocalKernel>>,
}

impl LocalTuning {
    /// An empty cache with no programmatic pin.
    pub fn new() -> LocalTuning {
        LocalTuning::default()
    }

    /// Pin every pick to `v` (or clear the pin with `None`). A
    /// programmatic pin takes precedence over `DSK_LOCAL_KERNEL`.
    pub fn set_pin(&self, v: Option<LocalKernel>) {
        *self.pin.lock().unwrap() = v;
    }

    /// The active pin: the programmatic one if set, else the
    /// `DSK_LOCAL_KERNEL` value.
    ///
    /// # Panics
    ///
    /// If `DSK_LOCAL_KERNEL` is set to something other than a variant
    /// label.
    pub fn pinned(&self) -> Option<LocalKernel> {
        if let Some(v) = *self.pin.lock().unwrap() {
            return Some(v);
        }
        parse_pin(std::env::var("DSK_LOCAL_KERNEL").ok().as_deref())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The cached pick for `req`'s shape class, if any (pin applied
    /// first). Never measures.
    pub fn cached(&self, req: TuneRequest) -> Option<LocalKernel> {
        if let Some(p) = self.pinned() {
            return Some(p);
        }
        self.cache.lock().unwrap().get(&TuneKey::of(req)).copied()
    }

    /// Resolve a pick without measuring: pin, else cache, else the
    /// shape heuristic. This is what world-free planning (`plan_candidates`)
    /// uses — it must stay cheap enough for an 81-point sweep.
    pub fn resolve(&self, req: TuneRequest) -> LocalKernel {
        self.cached(req).unwrap_or_else(|| heuristic(req))
    }

    /// Tune `req.op` on a representative CSR block: time both variants
    /// on (a row-prefix cap of) `block` and cache the pick. Pin and
    /// cache short-circuit the measurement.
    pub fn tune_csr(&self, req: TuneRequest, block: &CsrMatrix) -> LocalKernel {
        let empty = block.nrows() == 0 || block.nnz() == 0;
        self.tune(req, empty, || measure_csr(req.op, block, req.r))
    }

    /// As [`LocalTuning::tune_csr`], on a representative COO block.
    pub fn tune_coo(&self, req: TuneRequest, block: &CooMatrix) -> LocalKernel {
        let empty = block.nrows == 0 || block.nnz() == 0;
        self.tune(req, empty, || measure_coo(req.op, block, req.r))
    }

    /// Pin, else cache, else `measure` (the heuristic for empty blocks),
    /// caching the result. The cache lock is held across the measurement
    /// so concurrent in-process ranks take turns instead of timing
    /// against each other. Timing a serial variant on an otherwise idle
    /// host is representative: at run time every rank owns one core, and
    /// a serial kernel uses exactly that one.
    fn tune(
        &self,
        req: TuneRequest,
        empty: bool,
        measure: impl FnOnce() -> LocalKernel,
    ) -> LocalKernel {
        if let Some(p) = self.pinned() {
            return p;
        }
        let key = TuneKey::of(req);
        let mut cache = self.cache.lock().unwrap();
        if let Some(&v) = cache.get(&key) {
            return v;
        }
        let pick = if empty || req.r == 0 {
            heuristic(req)
        } else {
            let start = Instant::now();
            let pick = measure();
            trace_measurement(req, pick, start);
            pick
        };
        cache.insert(key, pick);
        pick
    }
}

/// Parse a `DSK_LOCAL_KERNEL` value: unset or blank means no pin; a
/// variant label pins; anything else is an error naming the valid
/// labels.
fn parse_pin(value: Option<&str>) -> Result<Option<LocalKernel>, String> {
    match value.map(str::trim) {
        None | Some("") => Ok(None),
        Some(v) => LocalKernel::parse(v).map(Some).ok_or_else(|| {
            let labels: Vec<&str> = LocalKernel::ALL.iter().map(|k| k.label()).collect();
            format!(
                "DSK_LOCAL_KERNEL={v:?} is not a local kernel variant \
                 (expected one of: {}; unset it to let the tuner measure)",
                labels.join(", ")
            )
        }),
    }
}

/// Record a `tune.measure` span covering one microbenchmark sweep. The
/// tuner stays communication-free: this reads the clock for the span
/// but touches no `Comm` state or modeled counters.
fn trace_measurement(req: TuneRequest, pick: LocalKernel, start: Instant) {
    use dsk_comm::trace::{self, ArgVal, TraceKind};
    trace::complete(TraceKind::Tune, "tune.measure", start, || {
        vec![
            ("op".to_string(), ArgVal::Str(format!("{:?}", req.op))),
            (
                "format".to_string(),
                ArgVal::Str(format!("{:?}", req.format)),
            ),
            ("variant".to_string(), ArgVal::Str(pick.label().to_string())),
        ]
    });
}

/// The measurement-free default pick, used for empty blocks and by
/// world-free planning before any measurement exists: serial blocking
/// pays off for the transpose scatter and once the row width covers a
/// register block; COO blocks are consumed once and stay naive.
fn heuristic(req: TuneRequest) -> LocalKernel {
    match req.format {
        SparseFormat::Csr if req.op == LocalOp::SpmmT || req.r >= 8 => LocalKernel::Blocked,
        _ => LocalKernel::Naive,
    }
}

/// Truncate a CSR block to the row prefix holding at most
/// [`TUNE_NNZ_CAP`] nonzeros (always at least one row).
fn cap_csr(block: &CsrMatrix) -> CsrMatrix {
    if block.nnz() <= TUNE_NNZ_CAP {
        return block.clone();
    }
    let indptr = block.indptr();
    let mut rows = 1;
    while rows < block.nrows() && indptr[rows + 1] <= TUNE_NNZ_CAP {
        rows += 1;
    }
    let mut coo = CooMatrix::empty(rows, block.ncols());
    for i in 0..rows {
        let (cols, vals) = block.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            coo.push(i, j as usize, v);
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// Truncate a COO block to its first [`TUNE_NNZ_CAP`] entries.
fn cap_coo(block: &CooMatrix) -> CooMatrix {
    if block.nnz() <= TUNE_NNZ_CAP {
        return block.clone();
    }
    let mut capped = CooMatrix::empty(block.nrows, block.ncols);
    for (k, (&i, (&j, &v))) in block
        .rows
        .iter()
        .zip(block.cols.iter().zip(&block.vals))
        .enumerate()
    {
        if k >= TUNE_NNZ_CAP {
            break;
        }
        capped.push(i as usize, j as usize, v);
    }
    capped
}

/// Time `TUNE_PAIRS` back-to-back (naive, blocked) rep pairs of `run`
/// after one warm-up of each, alternating which variant goes first so
/// neither always runs on caches the other just warmed, then
/// [`decide`].
fn measure_pairs(mut run: impl FnMut(LocalKernel)) -> LocalKernel {
    let mut time = |v: LocalKernel| {
        let t0 = Instant::now();
        run(v);
        t0.elapsed()
    };
    let (mut naive, mut blocked) = (Vec::new(), Vec::new());
    time(LocalKernel::Naive);
    time(LocalKernel::Blocked);
    for k in 0..TUNE_PAIRS {
        if k % 2 == 0 {
            naive.push(time(LocalKernel::Naive));
            blocked.push(time(LocalKernel::Blocked));
        } else {
            blocked.push(time(LocalKernel::Blocked));
            naive.push(time(LocalKernel::Naive));
        }
    }
    decide(&naive, &blocked)
}

/// The tuning decision over paired rep timings (`naive[i]` and
/// `blocked[i]` ran back to back): `Blocked` only when the median pair's
/// naive/blocked ratio is at least `1 + MIN_WIN`, i.e. it wins a
/// majority of pairs by that much. Pairing cancels drift between pairs,
/// and the median keeps one or two disturbed pairs from deciding either
/// way. Otherwise `Naive`, the reference, stays.
fn decide(naive: &[Duration], blocked: &[Duration]) -> LocalKernel {
    let mut ratios: Vec<f64> = naive
        .iter()
        .zip(blocked)
        .map(|(n, b)| n.as_secs_f64() / b.as_secs_f64())
        .collect();
    ratios.sort_by(f64::total_cmp);
    match ratios.get(ratios.len() / 2) {
        Some(&median) if median >= 1.0 + MIN_WIN => LocalKernel::Blocked,
        _ => LocalKernel::Naive,
    }
}

fn measure_csr(op: LocalOp, block: &CsrMatrix, r: usize) -> LocalKernel {
    let s = cap_csr(block);
    // Synthetic dense operands with fixed seeds: the timings depend on
    // shape and sparsity structure, not on the numerical values.
    match op {
        LocalOp::Spmm => {
            let b = Mat::random(s.ncols(), r, 0xD5C7);
            let mut out = Mat::zeros(s.nrows(), r);
            measure_pairs(|v| v.spmm_csr(&mut out, &s, &b))
        }
        LocalOp::SpmmT => {
            let a = Mat::random(s.nrows(), r, 0xD5C8);
            let mut out = Mat::zeros(s.ncols(), r);
            measure_pairs(|v| v.spmm_csr_t(&mut out, &s, &a))
        }
        LocalOp::Sddmm => {
            let a = Mat::random(s.nrows(), r, 0xD5C9);
            let b = Mat::random(s.ncols(), r, 0xD5CA);
            let mut acc = vec![0.0; s.nnz()];
            measure_pairs(|v| v.sddmm_csr(&mut acc, &s, &a, &b, SddmmCombine::Dot))
        }
        LocalOp::Fused => {
            let a = Mat::random(s.nrows(), r, 0xD5CB);
            let b = Mat::random(s.ncols(), r, 0xD5CC);
            let mut out = Mat::zeros(s.nrows(), r);
            measure_pairs(|v| v.fused_csr(&mut out, &s, &a, &b))
        }
    }
}

fn measure_coo(op: LocalOp, block: &CooMatrix, r: usize) -> LocalKernel {
    let s = cap_coo(block);
    match op {
        LocalOp::Spmm => {
            let b = Mat::random(s.ncols, r, 0xD5CD);
            let mut out = Mat::zeros(s.nrows, r);
            measure_pairs(|v| v.spmm_coo(&mut out, &s, &b))
        }
        LocalOp::SpmmT => {
            let a = Mat::random(s.nrows, r, 0xD5CE);
            let mut out = Mat::zeros(s.ncols, r);
            measure_pairs(|v| v.spmm_coo_t(&mut out, &s, &a))
        }
        // Fused has no COO form in the dispatch table; measure the
        // SDDMM it decomposes into.
        LocalOp::Sddmm | LocalOp::Fused => {
            let a = Mat::random(s.nrows, r, 0xD5CF);
            let b = Mat::random(s.ncols, r, 0xD5D0);
            let mut acc = vec![0.0; s.nnz()];
            measure_pairs(|v| v.sddmm_coo(&mut acc, &s, &a, &b, SddmmCombine::Dot))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsk_sparse::gen::erdos_renyi;

    fn req(op: LocalOp, format: SparseFormat) -> TuneRequest {
        TuneRequest {
            op,
            format,
            rows: 64,
            nnz: 512,
            r: 16,
        }
    }

    #[test]
    fn programmatic_pin_beats_cache_and_measurement() {
        let tuning = LocalTuning::new();
        tuning.set_pin(Some(LocalKernel::Blocked));
        let r = req(LocalOp::Spmm, SparseFormat::Csr);
        assert_eq!(tuning.resolve(r), LocalKernel::Blocked);
        let s = CsrMatrix::from_coo(&erdos_renyi(64, 64, 8, 7));
        assert_eq!(tuning.tune_csr(r, &s), LocalKernel::Blocked);
    }

    #[test]
    fn tuned_pick_is_cached_and_admissible() {
        let tuning = LocalTuning::new();
        let s = CsrMatrix::from_coo(&erdos_renyi(64, 64, 8, 8));
        for op in LocalOp::ALL {
            let r = req(op, SparseFormat::Csr);
            let pick = tuning.tune_csr(r, &s);
            assert_eq!(tuning.cached(r), Some(pick));
            assert_eq!(tuning.resolve(r), pick);
        }
    }

    #[test]
    fn empty_blocks_fall_back_to_the_heuristic() {
        let tuning = LocalTuning::new();
        let empty = CsrMatrix::from_coo(&CooMatrix::empty(4, 4));
        let r = TuneRequest {
            op: LocalOp::SpmmT,
            format: SparseFormat::Csr,
            rows: 4,
            nnz: 0,
            r: 16,
        };
        assert_eq!(tuning.tune_csr(r, &empty), LocalKernel::Blocked);
    }

    #[test]
    fn shape_classes_share_cache_entries() {
        // 64 rows and 65 rows land in the same log2 bucket.
        let tuning = LocalTuning::new();
        let s = CsrMatrix::from_coo(&erdos_renyi(64, 64, 8, 9));
        let a = req(LocalOp::Spmm, SparseFormat::Csr);
        let mut b = a;
        b.rows = 65;
        b.nnz = 520;
        let pick = tuning.tune_csr(a, &s);
        assert_eq!(tuning.cached(b), Some(pick));
    }

    #[test]
    fn coo_tuning_stays_in_the_serial_pair() {
        let tuning = LocalTuning::new();
        let s = erdos_renyi(64, 64, 8, 10);
        for op in [LocalOp::Spmm, LocalOp::SpmmT, LocalOp::Sddmm] {
            let pick = tuning.tune_coo(req(op, SparseFormat::Coo), &s);
            assert!([LocalKernel::Naive, LocalKernel::Blocked].contains(&pick));
        }
    }

    fn us(samples: &[u64]) -> Vec<Duration> {
        samples.iter().map(|&t| Duration::from_micros(t)).collect()
    }

    #[test]
    fn decision_keeps_naive_inside_the_noise() {
        let naive = us(&[300, 304, 299, 310, 302]);
        // Overlapping samples: blocked wins some pairs, loses others.
        let overlap = us(&[290, 320, 280, 305, 292]);
        assert_eq!(decide(&naive, &overlap), LocalKernel::Naive);
        // A consistent win, but under MIN_WIN.
        let close = us(&[285, 288, 284, 294, 287]);
        assert_eq!(decide(&naive, &close), LocalKernel::Naive);
        // A large win in only two of five pairs.
        let two = us(&[200, 200, 299, 310, 302]);
        assert_eq!(decide(&naive, &two), LocalKernel::Naive);
        // Identical, slower, and empty samples are no evidence either.
        assert_eq!(decide(&naive, &naive), LocalKernel::Naive);
        assert_eq!(decide(&overlap, &naive), LocalKernel::Naive);
        assert_eq!(decide(&[], &[]), LocalKernel::Naive);
    }

    #[test]
    fn decision_picks_blocked_when_samples_separate() {
        let naive = us(&[300, 304, 299, 310, 302]);
        let blocked = us(&[220, 222, 219, 225, 221]);
        assert_eq!(decide(&naive, &blocked), LocalKernel::Blocked);
        // Disturbed pairs on either side do not hide a clear win.
        let naive_hiccup = us(&[300, 304, 299, 910, 302]);
        let blocked_hiccup = us(&[220, 222, 640, 225, 900]);
        assert_eq!(decide(&naive_hiccup, &blocked), LocalKernel::Blocked);
        assert_eq!(decide(&naive, &blocked_hiccup), LocalKernel::Blocked);
        // The host slows down halfway: the unpaired samples overlap,
        // but blocked still wins every back-to-back pair by 1.35x.
        let naive_drift = us(&[300, 300, 450, 450, 450]);
        let blocked_drift = us(&[222, 222, 333, 333, 333]);
        assert_eq!(decide(&naive_drift, &blocked_drift), LocalKernel::Blocked);
    }

    #[test]
    fn unknown_pins_are_rejected_with_the_valid_labels() {
        assert_eq!(parse_pin(None), Ok(None));
        assert_eq!(parse_pin(Some("  ")), Ok(None));
        assert_eq!(parse_pin(Some("naive")), Ok(Some(LocalKernel::Naive)));
        assert_eq!(
            parse_pin(Some(" Blocked\n")),
            Ok(Some(LocalKernel::Blocked))
        );
        for gone in ["tiled", "par-naive", "par-blocked", "par-tiled", "mkl"] {
            let err = parse_pin(Some(gone)).unwrap_err();
            assert!(err.contains(gone), "{err}");
            assert!(err.contains("naive, blocked"), "{err}");
        }
    }
}
