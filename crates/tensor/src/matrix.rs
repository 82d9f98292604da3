//! Dense row-major `f32` matrix used as the value type of every graph node.
//!
//! The matrix is deliberately minimal: the autograd graph in [`crate::graph`]
//! is responsible for composition; this type only knows how to hold data and
//! perform the eager value computations each op needs.
//!
//! The heavy kernels (matmul, elementwise map/zip) fan out over the
//! deterministic pool ([`crate::pool`]) above a size threshold. Both the
//! chunk grid and the per-element accumulation order are derived from the
//! input shape alone, so parallel results are bit-identical to sequential
//! ones at every `PACE_THREADS` setting, and the optimized-tape replay
//! interpreter ([`crate::opt`]) reuses the same kernel for exact parity.

use pace_runtime as pool;
use std::fmt;

/// Height of one `b`-row panel of the blocked matmul kernel: the panel
/// (`MATMUL_PANEL × m` floats of `b`) stays resident in L1/L2 while every
/// output row streams over it. Blocking reorders the *loop nest*, not the
/// per-element accumulation: each `out[i][j]` still sums its `k` products in
/// ascending-`k` order, so blocked, unblocked, and row-parallel results are
/// bit-identical.
const MATMUL_PANEL: usize = 128;

// Whether (and how coarsely) matmul and map/zip fan out over the pool is
// decided by the fixed profitability rule (`pool::cost::decide`) instead of
// hand-picked FLOP thresholds: when dispatch overhead outweighs the region,
// the rule answers `Sequential` and the kernels stay inline. The resulting
// grids are pure functions of the shape — never of the thread count — and
// these regions' results are chunking-independent, so determinism across
// `PACE_THREADS` settings is preserved.

/// Accumulates `av · b_row` into `out_row` — one rank-1 row update of the
/// panel kernel, in ascending-`j` order.
#[inline]
fn axpy_row(out_row: &mut [f32], av: f32, b_row: &[f32]) {
    for (o, &bv) in out_row.iter_mut().zip(b_row) {
        *o += av * bv;
    }
}

/// Computes output rows `[lo, hi)` of `a · b` into `out`, which is the
/// row-major storage of exactly those rows.
///
/// The zero-skip fast path is gated per `b` row: `0 · x` contributes exactly
/// `+0.0` only when `x` is finite (IEEE-754 addition of `+0.0`/`-0.0`
/// products to a non-negative-zero accumulator is the identity), so skipping
/// is bit-transparent there — but `0 · NaN` and `0 · ±Inf` are NaN and must
/// reach the accumulator for non-finite values to propagate (the contract
/// `Graph::push`'s producer tracking and `PACE_FINITE` rely on).
///
/// The skip decision is hoisted out of the inner loop into a per-row-panel
/// mask (`use_k`), so the hot `j`-loop carries no data-dependent branch and
/// the autovectorizer sees straight-line multiply-adds. Runs of four
/// unskipped `b` rows are processed together with the accumulator kept in a
/// register across all four updates — per output element that is the *same
/// sequence* of ascending-`k` adds the scalar path performs, so blocked,
/// unrolled, masked, and row-parallel results stay bit-identical.
fn matmul_rows(out: &mut [f32], a: &Matrix, b: &Matrix, lo: usize, hi: usize, b_finite: &[bool]) {
    let (k, m) = (a.cols, b.cols);
    out.fill(0.0);
    let mut use_k = [false; MATMUL_PANEL];
    for panel in (0..k).step_by(MATMUL_PANEL) {
        let panel_end = (panel + MATMUL_PANEL).min(k);
        let plen = panel_end - panel;
        for i in lo..hi {
            let a_row = &a.data[i * k + panel..i * k + panel_end];
            // Per-(row, panel) skip mask: exactly the products the scalar
            // path skipped (`+0.0` contributions with finite `b`), decided
            // once per `a` element instead of inside the `j`-loop.
            let mut any = false;
            for (off, &av) in a_row.iter().enumerate() {
                let keep = !(av == 0.0 && b_finite[panel + off]);
                use_k[off] = keep;
                any |= keep;
            }
            if !any {
                continue;
            }
            let out_row = &mut out[(i - lo) * m..(i - lo + 1) * m];
            let mut off = 0;
            while off + 4 <= plen {
                if use_k[off] && use_k[off + 1] && use_k[off + 2] && use_k[off + 3] {
                    let kk = panel + off;
                    let (a0, a1, a2, a3) =
                        (a_row[off], a_row[off + 1], a_row[off + 2], a_row[off + 3]);
                    let b0 = &b.data[kk * m..(kk + 1) * m];
                    let b1 = &b.data[(kk + 1) * m..(kk + 2) * m];
                    let b2 = &b.data[(kk + 2) * m..(kk + 3) * m];
                    let b3 = &b.data[(kk + 3) * m..(kk + 4) * m];
                    for ((((o, &v0), &v1), &v2), &v3) in
                        out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                    {
                        // Four sequential adds in ascending-k order — the
                        // accumulator stays in a register, the order is the
                        // scalar path's.
                        let mut acc = *o;
                        acc += a0 * v0;
                        acc += a1 * v1;
                        acc += a2 * v2;
                        acc += a3 * v3;
                        *o = acc;
                    }
                } else {
                    for u in off..off + 4 {
                        if use_k[u] {
                            let kk = panel + u;
                            axpy_row(out_row, a_row[u], &b.data[kk * m..(kk + 1) * m]);
                        }
                    }
                }
                off += 4;
            }
            while off < plen {
                if use_k[off] {
                    let kk = panel + off;
                    axpy_row(out_row, a_row[off], &b.data[kk * m..(kk + 1) * m]);
                }
                off += 1;
            }
        }
    }
}

/// Modeled FLOPs of an `n×k · k×m` product (two per multiply-add), computed
/// entirely in saturating `u64`. The counter once computed `2 * flops` with
/// `flops` saturated in `usize` arithmetic — at `usize::MAX` the doubling
/// wrapped in release and panicked in debug despite the upstream
/// `saturating_mul`s; clamping every stage in `u64` makes pathological
/// shapes saturate instead.
pub(crate) fn matmul_flop_count(n: usize, k: usize, m: usize) -> u64 {
    (n as u64)
        .saturating_mul(k as u64)
        .saturating_mul(m as u64)
        .saturating_mul(2)
}

/// Writes `a · b` into `dst`, reusing `dst`'s allocation. This is the one
/// matmul kernel in the workspace: [`Matrix::matmul`] and the replay
/// interpreter ([`crate::opt`]) both call it, so eager, replayed, sequential
/// and parallel products are bit-identical.
///
/// # Panics
/// Panics when inner dimensions differ.
pub(crate) fn matmul_into(dst: &mut Matrix, a: &Matrix, b: &Matrix) {
    assert_eq!(
        a.cols, b.rows,
        "matmul shape mismatch: {}x{} . {}x{}",
        a.rows, a.cols, b.rows, b.cols
    );
    let (n, k, m) = (a.rows, a.cols, b.cols);
    dst.reset_shape(n, m);
    let b_finite: Vec<bool> = (0..k)
        .map(|r| b.data[r * m..(r + 1) * m].iter().all(|x| x.is_finite()))
        .collect();
    pace_trace::MATMUL_FLOPS.add(matmul_flop_count(n, k, m));
    let decision = pool::cost::decide(pool::cost::RegionCost {
        items: n,
        flops_per_item: 2.0 * k.saturating_mul(m) as f64,
        bytes_per_item: ((k + m) * size_of::<f32>()) as f64,
    });
    if decision.is_parallel() && n > 1 && m > 0 && !pool::in_worker() && pool::threads() > 1 {
        let min_rows = decision.grain(n);
        // Row grid scaled to element offsets, because `split_by_grid`
        // splits the output's element buffer.
        let grid: Vec<(usize, usize)> = pool::chunk_ranges(n, min_rows)
            .into_iter()
            .map(|(lo, hi)| (lo * m, hi * m))
            .collect();
        pool::for_each_split(dst.data.as_mut_slice(), &grid, |lo, chunk| {
            let lo_row = lo / m;
            let hi_row = lo_row + chunk.len() / m;
            matmul_rows(chunk, a, b, lo_row, hi_row, &b_finite);
        });
    } else {
        matmul_rows(&mut dst.data, a, b, 0, n, &b_finite);
    }
}

/// Cost spec of a unary elementwise map over `len` elements: one flop and
/// two `f32` transfers (one read + one write) per element.
pub(crate) fn map_region(len: usize) -> pool::cost::RegionCost {
    pool::cost::RegionCost {
        items: len,
        flops_per_item: 1.0,
        bytes_per_item: (2 * size_of::<f32>()) as f64,
    }
}

/// Cost spec of a binary elementwise zip over `len` elements: one flop and
/// *three* `f32` transfers (two reads + one write) per element. Zips were
/// once costed with the map spec's two transfers, under-counting bandwidth
/// by a third and biasing the oracle toward unprofitable fan-out of
/// bandwidth-bound zips.
pub(crate) fn zip_region(len: usize) -> pool::cost::RegionCost {
    pool::cost::RegionCost {
        items: len,
        flops_per_item: 1.0,
        bytes_per_item: (3 * size_of::<f32>()) as f64,
    }
}

/// The oracle's verdict for a unary map. Callers still gate the fan-out on
/// `!pool::in_worker()` and `pool::threads() > 1` at the site, keeping
/// those checks outside the pool-call span.
fn map_decision(len: usize) -> pool::cost::Decision {
    pool::cost::decide(map_region(len))
}

/// The oracle's verdict for a binary zip (see [`zip_region`]).
fn zip_decision(len: usize) -> pool::cost::Decision {
    pool::cost::decide(zip_region(len))
}

/// Edge of the square tiles [`transpose_into`] blocks the copy into: a
/// 32×32 `f32` tile is 4 KiB read + 4 KiB written, resident in L1 while
/// both the source rows and the destination rows of the tile are streamed.
const TRANSPOSE_TILE: usize = 32;

/// Writes `src`ᵀ into `dst`, reusing `dst`'s allocation. Blocked into
/// [`TRANSPOSE_TILE`]² tiles like the matmul panel kernel: the naive loop
/// walks one side of the copy at a column stride, missing cache on every
/// element for matrices wider than a cache line — and a transpose sits on
/// every gradient path through `Op::MatMul`. Element values are
/// position-copies, so tiling changes only the visit order, never the
/// result.
pub(crate) fn transpose_into(dst: &mut Matrix, src: &Matrix) {
    let (r, c) = src.shape();
    dst.reset_shape(c, r);
    let out = dst.data.as_mut_slice();
    for ci in (0..c).step_by(TRANSPOSE_TILE) {
        let ce = (ci + TRANSPOSE_TILE).min(c);
        for ri in (0..r).step_by(TRANSPOSE_TILE) {
            let re = (ri + TRANSPOSE_TILE).min(r);
            for cc in ci..ce {
                let out_row = &mut out[cc * r + ri..cc * r + re];
                for (rr, o) in (ri..re).zip(out_row) {
                    *o = src.data[rr * c + cc];
                }
            }
        }
    }
}

/// A dense, row-major matrix of `f32` values.
///
/// Scalars are represented as `1×1`, row vectors as `1×n`. All autograd ops
/// operate on this type; shape errors panic with a descriptive message since
/// they are programming errors, not runtime conditions.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 0.0)
    }

    /// Creates a matrix of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Creates a `1×1` matrix holding a single scalar.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// Creates a `1×n` row vector from a slice.
    pub fn row(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// True when the matrix is `1×1`.
    #[inline]
    pub fn is_scalar(&self) -> bool {
        self.rows == 1 && self.cols == 1
    }

    /// The single element of a `1×1` matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not `1×1`.
    pub fn as_scalar(&self) -> f32 {
        assert!(
            self.is_scalar(),
            "as_scalar called on {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[0]
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Applies `f` elementwise, returning a new matrix. Fans out over the
    /// pool for large matrices; elementwise results are independent of the
    /// chunking, so parallel and sequential outputs are identical.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Self {
        let mut data = vec![0.0f32; self.len()];
        let decision = map_decision(self.len());
        if decision.is_parallel() && !pool::in_worker() && pool::threads() > 1 {
            let grain = decision.grain(self.len());
            let grid = pool::chunk_ranges(self.len(), grain);
            pool::for_each_split(&mut data, &grid, |lo, chunk| {
                for (j, o) in chunk.iter_mut().enumerate() {
                    *o = f(self.data[lo + j]);
                }
            });
        } else {
            for (o, &x) in data.iter_mut().zip(&self.data) {
                *o = f(x);
            }
        }
        Self {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Combines two same-shaped matrices elementwise. Fans out over the pool
    /// for large matrices (see [`Matrix::map`]).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32 + Sync) -> Self {
        assert_eq!(
            self.shape(),
            other.shape(),
            "elementwise op on mismatched shapes {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let mut data = vec![0.0f32; self.len()];
        let decision = zip_decision(self.len());
        if decision.is_parallel() && !pool::in_worker() && pool::threads() > 1 {
            let grain = decision.grain(self.len());
            let grid = pool::chunk_ranges(self.len(), grain);
            pool::for_each_split(&mut data, &grid, |lo, chunk| {
                for (j, o) in chunk.iter_mut().enumerate() {
                    *o = f(self.data[lo + j], other.data[lo + j]);
                }
            });
        } else {
            for ((o, &a), &b) in data.iter_mut().zip(&self.data).zip(&other.data) {
                *o = f(a, b);
            }
        }
        Self {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Matrix product `self · other` — the blocked, pool-parallel kernel
    /// ([`matmul_into`]); `0 · NaN` and `0 · Inf` propagate as NaN.
    ///
    /// # Panics
    /// Panics when inner dimensions differ.
    pub fn matmul(&self, other: &Self) -> Self {
        let mut out = Self {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        };
        matmul_into(&mut out, self, other);
        out
    }

    /// Transposed copy — the tiled kernel ([`transpose_into`]), shared with
    /// the optimized-tape replay interpreter.
    pub fn transpose(&self) -> Self {
        let mut out = Self {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        };
        transpose_into(&mut out, self);
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Column-wise sum, producing a `1×cols` row vector.
    pub fn sum_rows(&self) -> Self {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (o, &x) in out.iter_mut().zip(self.row_slice(r)) {
                *o += x;
            }
        }
        Self {
            rows: 1,
            cols: self.cols,
            data: out,
        }
    }

    /// Stacks `n` copies of a `1×cols` row vector into an `n×cols` matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not a single row.
    pub fn repeat_rows(&self, n: usize) -> Self {
        assert_eq!(self.rows, 1, "repeat_rows requires a 1xN matrix");
        let mut data = Vec::with_capacity(n * self.cols);
        for _ in 0..n {
            data.extend_from_slice(&self.data);
        }
        Self {
            rows: n,
            cols: self.cols,
            data,
        }
    }

    /// Horizontal concatenation of matrices sharing a row count.
    ///
    /// # Panics
    /// Panics when `parts` is empty or row counts differ.
    pub fn concat_cols(parts: &[&Matrix]) -> Self {
        assert!(!parts.is_empty(), "concat_cols of zero matrices");
        let rows = parts[0].rows;
        assert!(
            parts.iter().all(|p| p.rows == rows),
            "concat_cols row mismatch: {:?}",
            parts.iter().map(|p| p.shape()).collect::<Vec<_>>()
        );
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for p in parts {
                data.extend_from_slice(p.row_slice(r));
            }
        }
        Self { rows, cols, data }
    }

    /// Vertical concatenation of matrices sharing a column count.
    ///
    /// # Panics
    /// Panics when `parts` is empty or column counts differ.
    pub fn concat_rows(parts: &[&Matrix]) -> Self {
        assert!(!parts.is_empty(), "concat_rows of zero matrices");
        let cols = parts[0].cols;
        assert!(
            parts.iter().all(|p| p.cols == cols),
            "concat_rows col mismatch: {:?}",
            parts.iter().map(|p| p.shape()).collect::<Vec<_>>()
        );
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Self { rows, cols, data }
    }

    /// Copy of columns `[start, end)`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Self {
        assert!(
            start <= end && end <= self.cols,
            "slice_cols [{start},{end}) out of {}",
            self.cols
        );
        let cols = end - start;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(&self.row_slice(r)[start..end]);
        }
        Self {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Copy of rows `[start, end)`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Self {
        assert!(
            start <= end && end <= self.rows,
            "slice_rows [{start},{end}) out of {}",
            self.rows
        );
        Self {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Reshapes this matrix in place to `rows×cols`, reusing the existing
    /// allocation where possible. Element contents are unspecified afterwards;
    /// callers must overwrite every element. Used by the optimized-tape
    /// replay interpreter ([`crate::opt`]) to recycle arena buffers.
    pub(crate) fn reset_shape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![3., -1., 2., 5.]);
        let i = Matrix::from_vec(2, 2, vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&i).data(), a.data());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn sum_rows_matches_manual() {
        let a = Matrix::from_vec(3, 2, vec![1., 10., 2., 20., 3., 30.]);
        assert_eq!(a.sum_rows().data(), &[6., 60.]);
    }

    #[test]
    fn repeat_rows_stacks() {
        let v = Matrix::row(&[1., 2.]);
        let m = v.repeat_rows(3);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.row_slice(2), &[1., 2.]);
    }

    #[test]
    fn concat_and_slice_cols_roundtrip() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Matrix::from_vec(2, 1, vec![5., 6.]);
        let c = Matrix::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row_slice(1), &[3., 4., 6.]);
        assert_eq!(c.slice_cols(0, 2), a);
        assert_eq!(c.slice_cols(2, 3), b);
    }

    #[test]
    fn concat_and_slice_rows_roundtrip() {
        let a = Matrix::from_vec(1, 2, vec![1., 2.]);
        let b = Matrix::from_vec(2, 2, vec![3., 4., 5., 6.]);
        let c = Matrix::concat_rows(&[&a, &b]);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.slice_rows(0, 1), a);
        assert_eq!(c.slice_rows(1, 3), b);
    }

    /// Regression: the zero-skip fast path used to swallow `0 · NaN` and
    /// `0 · Inf` (IEEE says both are NaN), so a non-finite `b` never
    /// propagated through rows of `a` containing zeros — contradicting the
    /// non-finite producer tracking in `Graph::push` and `PACE_FINITE`.
    #[test]
    fn matmul_zero_times_nan_propagates() {
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(2, 2, vec![f32::NAN, 2.0, 3.0, 4.0]);
        let c = a.matmul(&b);
        assert!(
            c.get(0, 0).is_nan(),
            "0·NaN must be NaN, got {}",
            c.get(0, 0)
        );
        assert_eq!(c.get(0, 1), 4.0);

        let inf = Matrix::from_vec(2, 1, vec![f32::INFINITY, 5.0]);
        let z = Matrix::from_vec(1, 2, vec![0.0, 0.0]);
        assert!(z.matmul(&inf).get(0, 0).is_nan(), "0·Inf must be NaN");
    }

    /// The zero-skip must still fire (and stay bit-transparent) when `b` is
    /// finite: a zero row of `a` yields exactly +0.0.
    #[test]
    fn matmul_zero_row_with_finite_b_stays_zero() {
        let a = Matrix::from_vec(2, 2, vec![0.0, 0.0, 1.0, 1.0]);
        let b = Matrix::from_vec(2, 2, vec![-3.0, 7.0, 11.0, -2.0]);
        let c = a.matmul(&b);
        assert_eq!(c.row_slice(0), &[0.0, 0.0]);
        assert_eq!(c.row_slice(1), &[8.0, 5.0]);
    }

    /// Parallel matmul must be bit-identical to sequential for every thread
    /// count — the pool's chunk grid is derived from the shape alone.
    #[test]
    fn matmul_bit_identical_across_thread_counts() {
        // Big enough that a parallel-friendly cost model engages the
        // fan-out; identity must hold whichever way the oracle decides.
        let (n, k, m) = (96, 64, 80);
        let mut state = 0x243f_6a88u32;
        let mut next = || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) as f32 / (1 << 24) as f32 - 0.5
        };
        let mut av: Vec<f32> = (0..n * k).map(|_| next()).collect();
        let mut bv: Vec<f32> = (0..k * m).map(|_| next()).collect();
        // Exercise both the skip and NaN paths.
        for i in (0..av.len()).step_by(17) {
            av[i] = 0.0;
        }
        bv[5 * m + 3] = f32::NAN;
        let a = Matrix::from_vec(n, k, av);
        let b = Matrix::from_vec(k, m, bv);
        // Force a parallel-friendly cost model so the fan-out path runs on
        // a shape the fixed model keeps inline.
        pool::cost::set_constants(Some(pool::cost::CostConstants {
            dispatch_ns: 100.0,
            task_ns: 10.0,
            flops_per_ns: 1.0,
            bytes_per_ns: 1.0,
            effective_parallelism: 8.0,
        }));
        pool::set_threads(1);
        let reference = a.matmul(&b);
        for t in [2usize, 3, 8] {
            pool::set_threads(t);
            let c = a.matmul(&b);
            assert!(
                c.data()
                    .iter()
                    .zip(reference.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "matmul diverged at {t} threads"
            );
        }
        pool::set_threads(0);
        pool::cost::set_constants(None);
    }

    /// Regression: the FLOP counter computed `2 * flops` after `flops` had
    /// already saturated — at `usize::MAX` the doubling wrapped in release
    /// (to `u64::MAX - 1`) and panicked in debug. The whole computation now
    /// runs in saturating `u64`, so pathological shapes clamp to `u64::MAX`.
    #[test]
    fn matmul_flop_count_saturates_instead_of_wrapping() {
        assert_eq!(matmul_flop_count(usize::MAX, usize::MAX, 2), u64::MAX);
        assert_eq!(matmul_flop_count(usize::MAX, 1, 1), u64::MAX);
        // Non-saturating shapes are exact: 2·n·k·m.
        assert_eq!(matmul_flop_count(3, 4, 5), 120);
        assert_eq!(matmul_flop_count(0, 100, 100), 0);
    }

    /// Regression: zips were costed with the map spec (two `f32` transfers
    /// per element), under-counting the two-reads-one-write traffic by a
    /// third and biasing the oracle toward fanning out bandwidth-bound zips.
    #[test]
    fn zip_region_counts_three_float_transfers() {
        let map = map_region(1024);
        let zip = zip_region(1024);
        assert_eq!(map.bytes_per_item, 8.0, "map: one read + one write");
        assert_eq!(zip.bytes_per_item, 12.0, "zip: two reads + one write");
        assert_eq!(map.items, 1024);
        assert_eq!(zip.items, 1024);
        assert_eq!(zip.flops_per_item, 1.0);
    }

    /// The tiled transpose must agree with the naive definition on shapes
    /// around the tile edge (including tall/wide remainders).
    #[test]
    fn transpose_tiled_matches_naive_on_odd_shapes() {
        for &(r, c) in &[(1usize, 1usize), (3, 70), (70, 3), (33, 65), (64, 32)] {
            let src = Matrix::from_vec(r, c, (0..r * c).map(|i| i as f32 * 0.5 - 7.0).collect());
            let t = src.transpose();
            assert_eq!(t.shape(), (c, r));
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t.get(j, i).to_bits(), src.get(i, j).to_bits());
                }
            }
        }
    }

    #[test]
    fn mean_and_norm() {
        let a = Matrix::from_vec(1, 4, vec![3., 4., 0., 0.]);
        assert!((a.mean() - 1.75).abs() < 1e-6);
        assert!((a.norm() - 5.0).abs() < 1e-6);
    }
}
