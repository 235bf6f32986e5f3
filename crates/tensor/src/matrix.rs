//! Row-major `f32` matrix with a cache-blocked GEMM kernel.
//!
//! All shape mismatches are programming errors and panic with a descriptive
//! message; fallible construction from existing storage goes through
//! [`Matrix::from_vec`], which validates the element count.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::par::{gemm_ta_par, gemm_tb_par};

// The two saxpy-form slice kernels live with their run-time lane dispatch in
// `kernels::gemm`; this is the path the rest of the workspace imports.
use crate::kernels::gemm::BLOCK;
pub use crate::kernels::gemm::{gemm_rows, gemm_ta_rows};

/// A dense, row-major matrix of `f32`. The default is the empty `0 × 0`
/// matrix — the unsized state of a recycled buffer.
#[derive(Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            writeln!(f)?;
            for r in 0..self.rows {
                writeln!(f, "  {:?}", &self.row(r))?;
            }
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    ///
    /// # Shape
    /// Output is `rows × cols`, row-major.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix filled with `value`.
    ///
    /// # Shape
    /// Output is `rows × cols`, row-major.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Reshapes to `rows × cols` and zeroes every element, reusing the
    /// existing heap buffer when its capacity suffices.
    ///
    /// This is the arena primitive behind the reuse forward pass's recycled
    /// im2col/centroid buffers: after warm-up, a steady-state training step
    /// resets matrices instead of allocating fresh ones.
    ///
    /// # Shape
    /// Output becomes `rows × cols`, row-major, all zeros.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes to `rows × cols` *without* clearing: the heap buffer is kept
    /// and only elements beyond the old length are zero-filled, so the
    /// contents are unspecified (stale values from the previous shape). For
    /// output buffers whose every element the caller overwrites — skips the
    /// full-matrix memset [`Matrix::reset`] pays.
    ///
    /// # Shape
    /// Output becomes `rows × cols`, row-major, contents unspecified.
    pub fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Wraps an existing row-major buffer.
    ///
    /// Returns `None` when `data.len() != rows * cols`.
    ///
    /// # Shape
    /// `data` holds `rows × cols` elements, row-major.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Option<Self> {
        (data.len() == rows * cols).then_some(Self { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    ///
    /// # Shape
    /// Output is `rows × cols`; `f` is called for `row < rows`, `col < cols`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrows the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows, "row {} out of bounds for {} rows", r, self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows, "row {} out of bounds for {} rows", r, self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns a new matrix whose rows are `self`'s rows restricted to the
    /// half-open column range `[start, end)`.
    ///
    /// This is how the deep-reuse machinery slices the unfolded input matrix
    /// into sub-matrices of sub-vector length `L`.
    ///
    /// # Shape
    /// `self: rows × cols` → output `rows × (end − start)`, requiring
    /// `start ≤ end ≤ cols`.
    ///
    /// # Panics
    /// Panics when the column range is out of bounds.
    pub fn column_slice(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.cols,
            "column slice {}..{} out of bounds for {} cols",
            start,
            end,
            self.cols
        );
        let width = end - start;
        let mut out = Matrix::zeros(self.rows, width);
        for r in 0..self.rows {
            let src = &self.data[r * self.cols + start..r * self.cols + end];
            out.row_mut(r).copy_from_slice(src);
        }
        out
    }

    /// Returns a copy of the contiguous row range `[start, end)`.
    ///
    /// Used to slice the `K × M` weight matrix into the per-sub-matrix
    /// blocks `W_I` of the deep-reuse computation.
    ///
    /// # Shape
    /// `self: rows × cols` → output `(end − start) × cols`, requiring
    /// `start ≤ end ≤ rows`.
    ///
    /// # Panics
    /// Panics when the row range is out of bounds.
    pub fn row_slice(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.rows,
            "row slice {}..{} out of bounds for {} rows",
            start,
            end,
            self.rows
        );
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Copies `src` into the contiguous row range starting at `start`.
    ///
    /// # Panics
    /// Panics if the rows do not fit or column counts differ.
    pub fn set_row_slice(&mut self, start: usize, src: &Matrix) {
        assert_eq!(self.cols, src.cols, "set_row_slice: column mismatch");
        assert!(start + src.rows <= self.rows, "set_row_slice: rows out of bounds");
        self.data[start * self.cols..(start + src.rows) * self.cols].copy_from_slice(&src.data);
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        // Blocked transpose for cache friendliness on large matrices.
        for rb in (0..self.rows).step_by(BLOCK) {
            for cb in (0..self.cols).step_by(BLOCK) {
                for r in rb..(rb + BLOCK).min(self.rows) {
                    for c in cb..(cb + BLOCK).min(self.cols) {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// `self · other`, allocating the result.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `out = self · other` without allocating.
    ///
    /// Runs [`gemm_rows`]: `i-k-j` order with the `k` loop blocked, each
    /// row's non-zeros multiplied into register tiles of the output row.
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} . {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!((out.rows, out.cols), (self.rows, other.cols), "matmul output shape mismatch");
        out.data.fill(0.0);
        gemm_rows(&self.data, &other.data, &mut out.data, self.rows, self.cols, other.cols);
    }

    /// `selfᵀ · other`, allocating the result.
    ///
    /// This is the shape of the weight-gradient computation
    /// `∇W = xᵀ · δy` (paper Eq. 2/9); implemented without materialising
    /// the transpose, pooled over output-row bands
    /// ([`crate::par::gemm_ta_par`]) above the compute crossover.
    ///
    /// # Panics
    /// Panics if `self.rows != other.rows`.
    pub fn matmul_t_a(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_t_a shape mismatch: ({}x{})ᵀ . {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        gemm_ta_par(&self.data, &other.data, &mut out.data, self.rows, self.cols, other.cols);
        out
    }

    /// `self · otherᵀ`, allocating the result.
    ///
    /// This is the shape of the input-delta computation `δx = δy · Wᵀ`
    /// (paper Eq. 3/17); implemented without materialising the transpose,
    /// pooled over row blocks of `self` ([`crate::par::gemm_tb_par`]) above
    /// the compute crossover.
    ///
    /// # Panics
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_t_b(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_t_b shape mismatch: {}x{} . ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        gemm_tb_par(&self.data, &other.data, &mut out.data, self.rows, self.cols, other.rows);
        out
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for a in self.data.iter_mut() {
            *a *= alpha;
        }
    }

    /// Adds `bias[j]` to every element of column `j`.
    ///
    /// # Panics
    /// Panics if `bias.len() != cols`.
    pub fn add_row_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (v, b) in self.row_mut(r).iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }
    }

    /// Sums each column, producing a length-`cols` vector.
    ///
    /// Used for the bias gradient `∇b = Σ_rows δy`.
    pub fn column_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.cols];
        column_sums_into(&self.data, &mut sums);
        sums
    }

    /// Maximum absolute element difference against another matrix.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data.iter().zip(other.data.iter()).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

/// Dot product of two equal-length slices.
///
/// Delegates to the 8-lane vector kernel [`crate::kernels::dot`], whose
/// fixed-order lane reduction makes the value bitwise reproducible across
/// runs, thread counts, and instruction widths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    crate::kernels::dot(a, b)
}

/// `c[m x n] = a · bᵀ` over raw row-major slices — the input-delta shape
/// `δx = δy · Wᵀ` (Eq. 3/17): every output element is bitwise one [`dot`],
/// computed by the register-tiled [`crate::kernels::gemm_tb()`]; `b` can be
/// a row band of a larger matrix read in place.
///
/// Serial by design, like [`gemm_ta_rows`]: the reuse backward pass calls
/// both from inside pool tasks. [`crate::par::gemm_tb_par`] is the pooled
/// form.
///
/// # Shape
/// `a: m × k`, `b: n × k`, `c: m × n`, all row-major slices of exactly that
/// many elements.
pub fn gemm_tb_rows(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    crate::kernels::gemm_tb(a, k, b, k, c, n, m, k, n);
}

/// Sums each column of the row-major `data` (`sums.len()` columns) into
/// `sums`, rows in ascending order — the bias gradient `∇b = Σ_rows δy`.
///
/// # Shape
/// `data` holds a whole number of rows of `sums.len()` elements.
pub fn column_sums_into(data: &[f32], sums: &mut [f32]) {
    sums.fill(0.0);
    if sums.is_empty() {
        return;
    }
    for row in data.chunks_exact(sums.len()) {
        for (s, v) in sums.iter_mut().zip(row) {
            *s += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a[(i, k)] * b[(k, j)];
                }
                out[(i, j)] = s;
            }
        }
        out
    }

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_none());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_some());
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let i = Matrix::identity(4);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_matches_naive_on_odd_shapes() {
        let a = Matrix::from_fn(7, 13, |r, c| ((r * 31 + c * 17) % 11) as f32 - 5.0);
        let b = Matrix::from_fn(13, 5, |r, c| ((r * 7 + c * 3) % 9) as f32 - 4.0);
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn matmul_handles_sizes_larger_than_block() {
        let a = Matrix::from_fn(3, 130, |r, c| ((r + c) % 7) as f32 * 0.25);
        let b = Matrix::from_fn(130, 2, |r, c| ((r * c + 1) % 5) as f32 * 0.5);
        assert!(a.matmul(&b).max_abs_diff(&naive_matmul(&a, &b)) < 1e-3);
    }

    #[test]
    fn matmul_t_a_equals_explicit_transpose() {
        let a = Matrix::from_fn(6, 4, |r, c| (r as f32 - c as f32) * 0.5);
        let b = Matrix::from_fn(6, 3, |r, c| (r * c) as f32 * 0.1);
        let direct = a.matmul_t_a(&b);
        let explicit = a.transpose().matmul(&b);
        assert!(direct.max_abs_diff(&explicit) < 1e-4);
    }

    #[test]
    fn matmul_t_b_equals_explicit_transpose() {
        let a = Matrix::from_fn(5, 4, |r, c| (r + 2 * c) as f32 * 0.3);
        let b = Matrix::from_fn(7, 4, |r, c| (r as f32 * 0.2) - (c as f32 * 0.1));
        let direct = a.matmul_t_b(&b);
        let explicit = a.matmul(&b.transpose());
        assert!(direct.max_abs_diff(&explicit) < 1e-4);
    }

    #[test]
    fn gemm_tb_rows_reads_a_row_band_in_place() {
        // δx_c = δy_c · W_Iᵀ against rows [2, 5) of W, without copying them.
        let a = Matrix::from_fn(4, 6, |r, c| (r as f32 - c as f32) * 0.25);
        let w = Matrix::from_fn(7, 6, |r, c| ((r * 5 + c * 3) % 7) as f32 - 3.0);
        let mut out = vec![f32::NAN; 4 * 3];
        gemm_tb_rows(a.as_slice(), &w.as_slice()[2 * 6..5 * 6], &mut out, 4, 6, 3);
        assert_eq!(out, a.matmul_t_b(&w.row_slice(2, 5)).into_vec());
    }

    #[test]
    fn gemm_ta_rows_accumulates_into_the_output() {
        let a = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32 * 0.5 - 2.0);
        let b = Matrix::from_fn(5, 2, |r, c| (r + c) as f32 - 1.5);
        let mut out = vec![1.0f32; 3 * 2];
        gemm_ta_rows(a.as_slice(), 3, b.as_slice(), &mut out, 5, 3, 2);
        let expect = a.matmul_t_a(&b);
        for (o, e) in out.iter().zip(expect.as_slice()) {
            assert_eq!(*o, 1.0 + e);
        }
    }

    #[test]
    fn gemm_ta_rows_band_form_equals_the_rows_of_the_full_product() {
        // Output rows [2, 5) of aᵀ·b from columns [2, 5) of `a`, read in
        // place through the row stride.
        let a = Matrix::from_fn(9, 7, |r, c| ((r * 5 + c * 3) % 11) as f32 * 0.25 - 1.0);
        let b = Matrix::from_fn(9, 4, |r, c| ((r * 7 + c) % 13) as f32 * 0.125 - 0.5);
        let mut full = vec![0.0f32; 7 * 4];
        gemm_ta_rows(a.as_slice(), 7, b.as_slice(), &mut full, 9, 7, 4);
        let mut band = vec![0.0f32; 3 * 4];
        gemm_ta_rows(&a.as_slice()[2..], 7, b.as_slice(), &mut band, 9, 3, 4);
        for (got, want) in band.iter().zip(&full[2 * 4..5 * 4]) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn gemm_ta_rows_skips_exact_zeros_of_either_sign() {
        // Row 1 of `b` is non-finite; only output rows whose `a[1][i]` is
        // non-zero may see it. A skipped update also leaves a `-0.0`
        // accumulator alone, where `-0.0 + 0.0 * x` would flip it to `+0.0`.
        let a = [1.0f32, 2.0, 3.0, 0.0, -0.0, 0.5];
        let b = [1.0f32, 1.0, f32::INFINITY, f32::NAN];
        let mut c = [-0.0f32; 3 * 2];
        gemm_ta_rows(&a, 3, &b, &mut c, 2, 3, 2);
        assert_eq!(c[..4], [1.0, 1.0, 2.0, 2.0]);
        assert_eq!(c[4], f32::INFINITY);
        assert!(c[5].is_nan());
        let mut untouched = [-0.0f32; 2];
        gemm_ta_rows(&[0.0, -0.0], 1, &b, &mut untouched, 2, 1, 2);
        assert!(untouched.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
    }

    #[test]
    fn resize_for_overwrite_keeps_the_buffer_and_zero_fills_only_growth() {
        let mut m = Matrix::filled(2, 3, 7.0);
        m.resize_for_overwrite(1, 2);
        assert_eq!((m.shape(), m.as_slice()), ((1, 2), &[7.0, 7.0][..]));
        m.resize_for_overwrite(2, 2);
        assert_eq!(m.as_slice(), &[7.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn column_sums_into_overwrites_and_handles_empty_shapes() {
        let mut sums = [9.0f32; 2];
        column_sums_into(&[1.0, 2.0, 3.0, 4.0], &mut sums);
        assert_eq!(sums, [4.0, 6.0]);
        column_sums_into(&[], &mut sums);
        assert_eq!(sums, [0.0, 0.0]);
        column_sums_into(&[], &mut []);
    }

    #[test]
    fn transpose_is_involution() {
        let a = Matrix::from_fn(9, 70, |r, c| (r * 100 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn column_slice_extracts_expected_window() {
        let a = Matrix::from_fn(3, 6, |r, c| (r * 6 + c) as f32);
        let s = a.column_slice(2, 5);
        assert_eq!(s.shape(), (3, 3));
        assert_eq!(s.row(1), &[8.0, 9.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "column slice")]
    fn column_slice_out_of_bounds_panics() {
        Matrix::zeros(2, 3).column_slice(1, 4);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        Matrix::zeros(2, 3).matmul(&Matrix::zeros(4, 2));
    }

    #[test]
    fn row_slice_round_trips_with_set_row_slice() {
        let a = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32);
        let s = a.row_slice(1, 4);
        assert_eq!(s.shape(), (3, 3));
        assert_eq!(s.row(0), a.row(1));
        let mut b = Matrix::zeros(5, 3);
        b.set_row_slice(1, &s);
        assert_eq!(b.row(2), a.row(2));
        assert_eq!(b.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "row slice")]
    fn row_slice_out_of_bounds_panics() {
        Matrix::zeros(2, 2).row_slice(1, 3);
    }

    #[test]
    #[should_panic(expected = "set_row_slice: column mismatch")]
    fn set_row_slice_column_mismatch_panics() {
        Matrix::zeros(4, 3).set_row_slice(0, &Matrix::zeros(2, 2));
    }

    #[test]
    #[should_panic(expected = "set_row_slice: rows out of bounds")]
    fn set_row_slice_overflow_panics() {
        Matrix::zeros(4, 3).set_row_slice(3, &Matrix::zeros(2, 3));
    }

    #[test]
    fn full_range_slices_are_identity() {
        let a = Matrix::from_fn(4, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.column_slice(0, 5), a);
        assert_eq!(a.row_slice(0, 4), a);
    }

    #[test]
    fn adjacent_column_slices_partition_the_matrix() {
        // The reuse pipeline splits K into sub-vectors this way; every
        // element must land in exactly one slice.
        let a = Matrix::from_fn(3, 7, |r, c| (r * 7 + c) as f32);
        let splits = [0usize, 3, 5, 7];
        for w in splits.windows(2) {
            let s = a.column_slice(w[0], w[1]);
            for r in 0..3 {
                assert_eq!(s.row(r), &a.row(r)[w[0]..w[1]]);
            }
        }
    }

    #[test]
    fn set_row_slice_round_trips_weight_blocks() {
        // Mirrors how reuse backward scatters per-block W_I gradients back
        // into the K × M weight-gradient matrix.
        let full = Matrix::from_fn(6, 4, |r, c| (r * 4 + c) as f32);
        let mut rebuilt = Matrix::zeros(6, 4);
        for (start, end) in [(0usize, 2usize), (2, 5), (5, 6)] {
            rebuilt.set_row_slice(start, &full.row_slice(start, end));
        }
        assert_eq!(rebuilt, full);
    }

    #[test]
    fn add_row_bias_adds_per_column() {
        let mut m = Matrix::zeros(2, 3);
        m.add_row_bias(&[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn column_sums_matches_manual_sum() {
        let m = Matrix::from_fn(4, 2, |r, c| (r + c) as f32);
        assert_eq!(m.column_sums(), vec![6.0, 10.0]);
    }

    #[test]
    fn scale_multiplies_every_element() {
        let mut a = Matrix::filled(2, 2, 2.0);
        a.scale(2.0);
        assert_eq!(a, Matrix::filled(2, 2, 4.0));
    }

    #[test]
    fn dot_handles_non_multiple_of_four_lengths() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [2.0, 2.0, 2.0, 2.0, 2.0];
        assert_eq!(dot(&a, &b), 30.0);
    }
}
