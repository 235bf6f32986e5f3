//! The two saxpy-form dense products over raw row-major slices: the blocked
//! GEMM `c += a · b` behind every forward pass, and `c += aᵀ · b`, the
//! weight-gradient shape `∇W = xᵀ · δy` (Eq. 2/9).
//!
//! Both walk the left operand element by element and add one scaled row of
//! `b` into one row of `c` per *non-zero* element ([`super::saxpy`]). The
//! zero skip is a contract, not only a fast path: a skipped update never
//! touches the accumulator, so a non-finite `b` row reaches only the outputs
//! whose `a` entry is non-zero and a `-0.0` accumulator keeps its sign.
//!
//! Each kernel is one portable body instantiated twice and picked at run
//! time (see [`super`]); every output element sees the same multiply–adds in
//! the same order in both, so the two are bitwise identical.

/// Block edge used by the tiled GEMM kernel (and the blocked transpose). 64
/// f32 values = 256 bytes, a multiple of typical cache-line size; chosen
/// empirically on x86-64.
pub(crate) const BLOCK: usize = 64;

/// Core GEMM over raw row-major slices: `c[m x n] += a[m x k] · b[k x n]`.
///
/// Exposed at the slice level so [`crate::par`] can run it over disjoint row
/// blocks from multiple threads.
///
/// # Shape
/// `a: m × k`, `b: k × n`, `c: m × n`, all row-major slices of exactly that
/// many elements.
pub fn gemm_rows(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if super::avx_detected() {
        // SAFETY: `avx_detected` has just observed the `avx` CPU feature,
        // the only precondition of the clone.
        return unsafe { gemm_rows_avx(a, b, c, m, k, n) };
    }
    gemm_rows_portable(a, b, c, m, k, n);
}

/// [`gemm_rows`] compiled with 256-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn gemm_rows_avx(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_rows_portable(a, b, c, m, k, n);
}

/// The one body of [`gemm_rows`]: `i-k-j` order with the `k` loop blocked,
/// the inner loop a saxpy over a contiguous row of `b`.
#[inline(always)]
pub(crate) fn gemm_rows_portable(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    for kb in (0..k).step_by(BLOCK) {
        let k_end = (kb + BLOCK).min(k);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let c_row = &mut c[i * n..(i + 1) * n];
            for kk in kb..k_end {
                let aik = a_row[kk];
                if aik == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n..(kk + 1) * n];
                // Element-wise vector saxpy: bitwise identical to the scalar
                // loop (one IEEE mul + add per element, same order).
                super::saxpy(c_row, aik, b_row);
            }
        }
    }
}

/// `c[m x n] += aᵀ · b` over raw row-major slices — the weight-gradient
/// shape `∇W = xᵀ · δy` (Eq. 2/9) without materialising the transpose.
///
/// Row `r` of `a` and of `b` contribute the rank-1 update `a[r]ᵀ ⊗ b[r]`, in
/// ascending `r`, so every output row accumulates in that order — whichever
/// column band of `a` (band of output rows) a call covers. Exact zeros in
/// `a` (`0.0` and `-0.0`) skip their update, so a non-finite `b` row only
/// reaches the output rows whose `a` entry is non-zero.
///
/// `a_stride` is the row stride of `a`: a column band `[i0, i0 + m)` of a
/// wider matrix is `&a[i0..]` with the wide matrix's column count, and
/// produces output rows `[i0, i0 + m)`.
///
/// # Shape
/// `a`: `rows` rows of `m` elements, `a_stride` apart (at least
/// `(rows − 1) · a_stride + m` elements); `b: rows × n` and `c: m × n`,
/// row-major slices of exactly that many elements.
pub fn gemm_ta_rows(
    a: &[f32],
    a_stride: usize,
    b: &[f32],
    c: &mut [f32],
    rows: usize,
    m: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if super::avx_detected() {
        // SAFETY: `avx_detected` has just observed the `avx` CPU feature,
        // the only precondition of the clone.
        return unsafe { gemm_ta_rows_avx(a, a_stride, b, c, rows, m, n) };
    }
    gemm_ta_rows_portable(a, a_stride, b, c, rows, m, n);
}

/// [`gemm_ta_rows`] compiled with 256-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn gemm_ta_rows_avx(
    a: &[f32],
    a_stride: usize,
    b: &[f32],
    c: &mut [f32],
    rows: usize,
    m: usize,
    n: usize,
) {
    gemm_ta_rows_portable(a, a_stride, b, c, rows, m, n);
}

/// The one body of [`gemm_ta_rows`].
#[inline(always)]
pub(crate) fn gemm_ta_rows_portable(
    a: &[f32],
    a_stride: usize,
    b: &[f32],
    c: &mut [f32],
    rows: usize,
    m: usize,
    n: usize,
) {
    debug_assert!(rows == 0 || a.len() >= (rows - 1) * a_stride + m);
    debug_assert_eq!(b.len(), rows * n);
    debug_assert_eq!(c.len(), m * n);
    for r in 0..rows {
        let a_row = &a[r * a_stride..][..m];
        let b_row = &b[r * n..(r + 1) * n];
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            super::saxpy(&mut c[i * n..(i + 1) * n], av, b_row);
        }
    }
}
