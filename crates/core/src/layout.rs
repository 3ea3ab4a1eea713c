//! Dense-matrix layouts: how each rank's local buffer maps into the
//! global matrix, plus generic gather / redistribution.
//!
//! Every distribution in Table II stores a rank's share of a dense
//! matrix as a vertical stack of row ranges over a single column range.
//! [`DenseLayout`] captures that; [`gather_dense`] assembles a global
//! matrix for verification, and [`repartition_dense`] converts between
//! two layouts — the "shift of input and output distributions" the
//! paper's application study pays for 2.5D and sparse-shifting
//! algorithms (Fig. 9).

use std::ops::Range;

use dsk_comm::Comm;
use dsk_dense::Mat;
use dsk_sparse::CooMatrix;

/// A rank's share of a global dense matrix: the listed global row
/// ranges (stacked vertically, in order) restricted to one global
/// column range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseLayout {
    /// Global row ranges, stacked in order in the local buffer.
    pub row_ranges: Vec<Range<usize>>,
    /// Global column range of every piece.
    pub col_range: Range<usize>,
}

impl DenseLayout {
    /// A single contiguous block.
    pub fn single(rows: Range<usize>, cols: Range<usize>) -> Self {
        DenseLayout {
            row_ranges: vec![rows],
            col_range: cols,
        }
    }

    /// Total local rows.
    pub fn local_rows(&self) -> usize {
        self.row_ranges.iter().map(|r| r.len()).sum()
    }

    /// Local column count.
    pub fn width(&self) -> usize {
        self.col_range.len()
    }

    /// Local row index of global row `g`, if owned.
    pub fn local_row_of(&self, g: usize) -> Option<usize> {
        let mut off = 0;
        for rr in &self.row_ranges {
            if rr.contains(&g) {
                return Some(off + (g - rr.start));
            }
            off += rr.len();
        }
        None
    }

    /// An all-zero local buffer of the right shape.
    pub fn zeros(&self) -> Mat {
        Mat::zeros(self.local_rows(), self.width())
    }

    /// Extract this layout's share from a global matrix (test/staging
    /// path; no communication).
    pub fn extract(&self, global: &Mat) -> Mat {
        let mut data = Vec::with_capacity(self.local_rows() * self.width());
        for i in self.row_ranges.iter().flat_map(|rr| rr.clone()) {
            data.extend_from_slice(&global.row(i)[self.col_range.clone()]);
        }
        Mat::from_vec(self.local_rows(), self.width(), data)
    }
}

/// Gather a distributed dense matrix at `root` (communicator rank).
/// Statistics are paused — gathering is a verification step real runs
/// would not perform. Returns `Some(global)` at the root, `None`
/// elsewhere.
pub fn gather_dense(
    comm: &Comm,
    root: usize,
    local: &Mat,
    layout_of: impl Fn(usize) -> DenseLayout,
    nrows: usize,
    ncols: usize,
) -> Option<Mat> {
    let _pause = comm.paused_stats();
    let my_layout = layout_of(comm.rank());
    debug_assert_eq!(local.nrows(), my_layout.local_rows(), "layout mismatch");
    debug_assert_eq!(local.ncols(), my_layout.width(), "layout mismatch");
    let parts = comm.gather(root, local.as_slice().to_vec());
    if comm.rank() != root {
        return None;
    }
    let mut out = Mat::zeros(nrows, ncols);
    for (rank, data) in parts.into_iter().enumerate() {
        let layout = layout_of(rank);
        let w = layout.width();
        let mut off = 0;
        for rr in &layout.row_ranges {
            for gi in rr.clone() {
                let src = &data[off * w..(off + 1) * w];
                out.row_mut(gi)[layout.col_range.clone()].copy_from_slice(src);
                off += 1;
            }
        }
    }
    Some(out)
}

/// Gather a distributed sparse matrix (each rank contributes entries
/// already expressed in **global** coordinates) at `root`. Statistics
/// are paused.
pub fn gather_coo(
    comm: &Comm,
    root: usize,
    local_global_coords: CooMatrix,
    nrows: usize,
    ncols: usize,
) -> Option<CooMatrix> {
    let _pause = comm.paused_stats();
    let parts = comm.gather(root, local_global_coords);
    if comm.rank() != root {
        return None;
    }
    let mut out = CooMatrix::empty(nrows, ncols);
    for p in parts {
        out.rows.extend_from_slice(&p.rows);
        out.cols.extend_from_slice(&p.cols);
        out.vals.extend_from_slice(&p.vals);
    }
    Some(out)
}

/// Hash lookup from global `(row, col)` coordinates to value over a
/// triplet set — the receive side of R-value migration
/// (`DistKernel::import_r` implementations index the globally gathered
/// export through this).
pub fn triplet_map(coo: &CooMatrix) -> std::collections::HashMap<(u32, u32), f64> {
    let mut map = std::collections::HashMap::with_capacity(coo.nnz());
    for ((&i, &j), &v) in coo.rows.iter().zip(&coo.cols).zip(&coo.vals) {
        map.insert((i, j), v);
    }
    map
}

/// Redistribute a dense matrix from one layout family to another:
/// every rank hands `local` (in `src_of(rank)` layout) and receives its
/// share under `dst_of(rank)`. Cost is charged to the caller's current
/// phase (applications charge it outside the fused kernels, as the
/// paper does).
///
/// Both layout closures must be pure functions of the communicator
/// rank, evaluated identically on all ranks.
pub fn repartition_dense(
    comm: &Comm,
    local: &Mat,
    src_of: impl Fn(usize) -> DenseLayout,
    dst_of: impl Fn(usize) -> DenseLayout,
) -> Mat {
    let p = comm.size();
    let me = comm.rank();
    let src = src_of(me);
    debug_assert_eq!(local.nrows(), src.local_rows(), "src layout mismatch");
    debug_assert_eq!(local.ncols(), src.width(), "src layout mismatch");

    // Identity fast path: when source and destination layouts coincide
    // on every rank, nothing moves (e.g. a whole-row family feeding a
    // generic staging pipeline). Checked locally — layouts are pure
    // functions of the rank, so all ranks agree.
    if (0..p).all(|g| src_of(g) == dst_of(g)) {
        return local.clone();
    }

    // Pack: for each destination rank, the intersection of my pieces
    // with its pieces, iterated in deterministic (my piece, dst piece,
    // row, col) order.
    let mut outgoing: Vec<Vec<f64>> = Vec::with_capacity(p);
    for dst_rank in 0..p {
        let dst = dst_of(dst_rank);
        let mut buf = Vec::new();
        pack_intersection(&src, &dst, |local_row, local_cols| {
            buf.extend_from_slice(&local.row(local_row)[local_cols]);
        });
        outgoing.push(buf);
    }
    let incoming = comm.alltoallv_f64(outgoing);

    // Unpack: iterate in the *sender's* order for each source rank.
    let dst = dst_of(me);
    let mut out = dst.zeros();
    for (src_rank, data) in incoming.into_iter().enumerate() {
        let sender = src_of(src_rank);
        let mut cursor = 0usize;
        // The sender iterated (sender piece, my piece); mirror that.
        pack_intersection_global(&sender, &dst, |grow, gcols| {
            let lr = dst
                .local_row_of(grow)
                .expect("destination must own the row");
            let c0 = gcols.start - dst.col_range.start;
            let n = gcols.len();
            out.row_mut(lr)[c0..c0 + n].copy_from_slice(&data[cursor..cursor + n]);
            cursor += n;
        });
        debug_assert_eq!(cursor, data.len(), "repartition payload mismatch");
    }
    out
}

/// Iterate the intersection of `src` (as the local side) with `dst`,
/// calling `f(local_row, local_col_range)` for each contiguous run, in
/// deterministic order.
fn pack_intersection(src: &DenseLayout, dst: &DenseLayout, mut f: impl FnMut(usize, Range<usize>)) {
    let cols = intersect(&src.col_range, &dst.col_range);
    if cols.is_empty() {
        return;
    }
    let local_cols = (cols.start - src.col_range.start)..(cols.end - src.col_range.start);
    let mut off = 0usize;
    for sr in &src.row_ranges {
        for dr in &dst.row_ranges {
            let rows = intersect(sr, dr);
            for g in rows {
                f(off + (g - sr.start), local_cols.clone());
            }
        }
        off += sr.len();
    }
}

/// As [`pack_intersection`] but reporting global coordinates
/// (`f(global_row, global_col_range)`), used on the receive side.
fn pack_intersection_global(
    src: &DenseLayout,
    dst: &DenseLayout,
    mut f: impl FnMut(usize, Range<usize>),
) {
    let cols = intersect(&src.col_range, &dst.col_range);
    if cols.is_empty() {
        return;
    }
    for sr in &src.row_ranges {
        for dr in &dst.row_ranges {
            let rows = intersect(sr, dr);
            for g in rows {
                f(g, cols.clone());
            }
        }
    }
}

fn intersect(a: &Range<usize>, b: &Range<usize>) -> Range<usize> {
    let s = a.start.max(b.start);
    let e = a.end.min(b.end);
    s..e.max(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsk_comm::{MachineModel, SimWorld};

    #[test]
    fn layout_local_rows_and_lookup() {
        let l = DenseLayout {
            row_ranges: vec![2..4, 8..11],
            col_range: 1..3,
        };
        assert_eq!(l.local_rows(), 5);
        assert_eq!(l.width(), 2);
        assert_eq!(l.local_row_of(3), Some(1));
        assert_eq!(l.local_row_of(8), Some(2));
        assert_eq!(l.local_row_of(5), None);
    }

    #[test]
    fn extract_stacks_pieces() {
        let g = Mat::from_fn(6, 4, |i, j| (i * 4 + j) as f64);
        let l = DenseLayout {
            row_ranges: vec![0..1, 4..6],
            col_range: 2..4,
        };
        let loc = l.extract(&g);
        assert_eq!(loc.nrows(), 3);
        assert_eq!(loc.row(0), &[2.0, 3.0]);
        assert_eq!(loc.row(1), &[18.0, 19.0]);
        assert_eq!(loc.row(2), &[22.0, 23.0]);
    }

    #[test]
    fn gather_reassembles_global() {
        let global = Mat::from_fn(8, 3, |i, j| (i * 3 + j) as f64);
        let layout_of = |r: usize| DenseLayout::single(crate::common::block_range(8, 4, r), 0..3);
        let g2 = global.clone();
        let w = SimWorld::new(4, MachineModel::bandwidth_only());
        let out = w.run(move |comm| {
            let local = layout_of(comm.rank()).extract(&g2);
            gather_dense(comm, 0, &local, layout_of, 8, 3)
        });
        assert_eq!(out[0].value.as_ref().unwrap(), &global);
        assert!(out[1].value.is_none());
    }

    #[test]
    fn repartition_row_blocks_to_col_slices() {
        // 4 ranks: from row blocks (full width) to column slices (full
        // height).
        let global = Mat::from_fn(8, 8, |i, j| (i * 8 + j) as f64);
        let src_of = |r: usize| DenseLayout::single(crate::common::block_range(8, 4, r), 0..8);
        let dst_of = |r: usize| DenseLayout::single(0..8, crate::common::block_range(8, 4, r));
        let g2 = global.clone();
        let w = SimWorld::new(4, MachineModel::bandwidth_only());
        let out = w.run(move |comm| {
            let local = src_of(comm.rank()).extract(&g2);
            let converted = repartition_dense(comm, &local, src_of, dst_of);
            let expect = dst_of(comm.rank()).extract(&g2);
            dsk_dense::ops::max_abs_diff(&converted, &expect)
        });
        for o in &out {
            assert_eq!(o.value, 0.0);
        }
    }

    #[test]
    fn repartition_multi_piece_layouts() {
        // Interleaved row pieces (like the 1.5D sparse-shifting
        // stationary layout) to contiguous blocks.
        let global = Mat::from_fn(12, 4, |i, j| (100 + i * 4 + j) as f64);
        let src_of = |r: usize| DenseLayout {
            // rank r owns rows {r, r+4, r+8} as three pieces (4 ranks)
            row_ranges: vec![r..r + 1, r + 4..r + 5, r + 8..r + 9],
            col_range: 0..4,
        };
        let dst_of = |r: usize| DenseLayout::single(crate::common::block_range(12, 4, r), 0..4);
        let g2 = global.clone();
        let w = SimWorld::new(4, MachineModel::bandwidth_only());
        let out = w.run(move |comm| {
            let local = src_of(comm.rank()).extract(&g2);
            let converted = repartition_dense(comm, &local, src_of, dst_of);
            let expect = dst_of(comm.rank()).extract(&g2);
            dsk_dense::ops::max_abs_diff(&converted, &expect)
        });
        for o in &out {
            assert_eq!(o.value, 0.0);
        }
    }

    #[test]
    fn gather_coo_merges_contributions() {
        let w = SimWorld::new(3, MachineModel::bandwidth_only());
        let out = w.run(|comm| {
            let mut local = CooMatrix::empty(3, 3);
            local.push(comm.rank(), comm.rank(), comm.rank() as f64 + 1.0);
            gather_coo(comm, 0, local, 3, 3)
        });
        let g = out[0].value.as_ref().unwrap();
        assert_eq!(g.nnz(), 3);
        assert_eq!(
            g.to_dense(),
            vec![1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0]
        );
    }
}
