//! The two saxpy-form dense products over raw row-major slices: the blocked
//! GEMM `c += a · b` behind every forward pass, and `c += aᵀ · b`, the
//! weight-gradient shape `∇W = xᵀ · δy` (Eq. 2/9).
//!
//! Both add, for every *non-zero* element of the left operand, that element
//! times one row of `b` into one row of `c`. The zero skip is a contract, not
//! only a fast path: a skipped update never touches the accumulator, so a
//! non-finite `b` row reaches only the outputs whose `a` entry is non-zero
//! and a `-0.0` accumulator keeps its sign.
//!
//! # Compaction, then register tiles
//!
//! The skip is not a branch. A window of at most `BLOCK` consecutive `a`
//! entries — a `k` block of one `a` row in [`gemm_rows`], a stretch of one
//! `a` row in [`gemm_ta_rows`] — is first *compacted* into a stack list of
//! `(row offset, value)` terms: every entry is stored at the next free slot
//! and the slot advances by `(value != 0.0) as usize`, so a zero is simply
//! overwritten by whatever follows it. `0.0` and `-0.0` compare equal to
//! zero and drop out; NaN does not and stays. The list is then multiplied
//! into the output one column tile at a time, in tiers: tiles of `BLOCK`
//! columns (eight [`F32x8`] registers) while they fit, then at most one
//! tile each of 32, 16 and 8 columns, then a scalar tail. Every whole lane
//! chunk of a row thus sits in a tile of several independent registers
//! where the row has them: with only 64-column tiles and 8-column ones, the
//! 16-, 32- and 48-wide outputs of the VGG geometry ran slower than the
//! branchy loop (a single-register tile is one dependent add chain).
//!
//! * [`gemm_rows`] holds the *output* tile in registers: a tile of the `c`
//!   row is loaded once per `k` block, receives every term's `b` tile, and
//!   is stored once, not once per non-zero.
//! * [`gemm_ta_rows`] holds the *`b`* tile in registers: the terms of one
//!   `a` row address different rows of `c`, so each is a load, a lane
//!   multiply–add against the resident `b` tile, and a store.
//!
//! # Why no bit moves
//!
//! Every output element receives `acc + a · b` — one IEEE multiply, then one
//! IEEE add, never an FMA — for exactly the non-zero `a` entries the branch
//! used to let through, in ascending `k` (or `r`), starting from its value
//! on entry. Which register holds it, and how many other elements are in
//! flight beside it, changes no operation and no order. So the zero-skip
//! contract and every pin downstream hold; the branchy loops the kernels
//! replaced stay below as the tests' scalar oracle.
//!
//! The dot-form product `a · bᵀ` ([`super::gemm_tb()`]) is out of scope: it
//! accumulates along `k` through a fixed reduction tree and skips nothing,
//! so it has no branch to remove.
//!
//! Each kernel is one portable body instantiated twice and picked at run
//! time (see [`super`]); every output element sees the same multiply–adds in
//! the same order in both, so the two are bitwise identical.

use crate::simd::{F32x8, LANES};

/// Block edge used by the tiled GEMM kernel (and the blocked transpose). 64
/// f32 values = 256 bytes, a multiple of typical cache-line size; chosen
/// empirically on x86-64. It is also the longest compaction window and the
/// width of the widest column tile, so a `k` block of [`gemm_rows`] reads at
/// most a `BLOCK × BLOCK` tile of `b` (16 KB) per output tile.
pub(crate) const BLOCK: usize = 64;

/// The non-zero entries of a window of at most [`BLOCK`] `a` entries, in
/// order: `offsets[t]` is the row offset (`index · stride`) of the `b` row
/// (in [`gemm_rows`]) or `c` row (in [`gemm_ta_rows`]) that `values[t]`
/// multiplies.
struct Terms {
    offsets: [usize; BLOCK],
    values: [f32; BLOCK],
    len: usize,
}

impl Terms {
    #[inline(always)]
    fn new() -> Self {
        Self { offsets: [0; BLOCK], values: [0.0; BLOCK], len: 0 }
    }

    /// Replaces the list with the non-zero entries of `window`, entry `t`
    /// at offset `(first + t) · stride`.
    ///
    /// Branch-free: each entry lands in the next free slot, which advances
    /// only past a non-zero one. `0.0` and `-0.0` drop out, NaN stays.
    #[inline(always)]
    fn compact(&mut self, window: &[f32], first: usize, stride: usize) {
        let mut len = 0;
        for (t, &v) in window.iter().enumerate() {
            self.offsets[len] = (first + t) * stride;
            self.values[len] = v;
            len += usize::from(v != 0.0);
        }
        self.len = len;
    }

    /// The `(offset, value)` pairs, in window order.
    #[inline(always)]
    fn iter(&self) -> impl Iterator<Item = (usize, f32)> + '_ {
        self.offsets[..self.len].iter().copied().zip(self.values[..self.len].iter().copied())
    }
}

/// Columns `[j, j + 8·V)` of `c_row`, for every `j` from `j0` on that fits:
/// `c_row[j'] += a · b[off + j']` per term, in order, the tile held in `V`
/// registers across all of them. Returns where the tiles stopped.
#[inline(always)]
fn accumulate_tiles<const V: usize>(
    c_row: &mut [f32],
    b: &[f32],
    terms: &Terms,
    j0: usize,
) -> usize {
    let mut j = j0;
    while j + V * LANES <= c_row.len() {
        let tile = &mut c_row[j..j + V * LANES];
        // Filled in a loop: `std::array::from_fn` stays an out-of-line call,
        // compiled without `avx` (module docs of `super`).
        let mut acc = [F32x8::splat(0.0); V];
        for (q, acc) in acc.iter_mut().enumerate() {
            *acc = F32x8::load(&tile[q * LANES..]);
        }
        for (off, a) in terms.iter() {
            let a = F32x8::splat(a);
            let b_tile = &b[off + j..][..V * LANES];
            for (q, acc) in acc.iter_mut().enumerate() {
                *acc = *acc + a * F32x8::load(&b_tile[q * LANES..]);
            }
        }
        for (q, acc) in acc.iter().enumerate() {
            acc.store(&mut tile[q * LANES..]);
        }
        j += V * LANES;
    }
    j
}

/// `c_row[j] += a · b[off + j]` for every term, in order: 64-column tiles
/// while they fit, then at most one 32-, 16- and 8-column tile (the rest
/// of the row is narrower than each), then the scalar tail.
#[inline(always)]
fn accumulate_row(c_row: &mut [f32], b: &[f32], terms: &Terms) {
    let mut j = accumulate_tiles::<{ BLOCK / LANES }>(c_row, b, terms, 0);
    j = accumulate_tiles::<4>(c_row, b, terms, j);
    j = accumulate_tiles::<2>(c_row, b, terms, j);
    j = accumulate_tiles::<1>(c_row, b, terms, j);
    for (j, cj) in c_row.iter_mut().enumerate().skip(j) {
        for (off, a) in terms.iter() {
            *cj += a * b[off + j];
        }
    }
}

/// Columns `[j, j + 8·V)` of `b_row`, for every `j` from `j0` on that fits:
/// `c[off + j'] += a · b_row[j']` per term, the `b` tile held in `V`
/// registers across all of them. Returns where the tiles stopped.
#[inline(always)]
fn scatter_tiles<const V: usize>(c: &mut [f32], b_row: &[f32], terms: &Terms, j0: usize) -> usize {
    let mut j = j0;
    while j + V * LANES <= b_row.len() {
        let b_tile = &b_row[j..j + V * LANES];
        let mut bv = [F32x8::splat(0.0); V];
        for (q, bv) in bv.iter_mut().enumerate() {
            *bv = F32x8::load(&b_tile[q * LANES..]);
        }
        for (off, a) in terms.iter() {
            let a = F32x8::splat(a);
            let tile = &mut c[off + j..][..V * LANES];
            for (q, bv) in bv.iter().enumerate() {
                let cq = &mut tile[q * LANES..];
                (F32x8::load(cq) + a * *bv).store(cq);
            }
        }
        j += V * LANES;
    }
    j
}

/// `c[off + j] += a · b_row[j]` for every term, in the column tiers of
/// [`accumulate_row`].
#[inline(always)]
fn scatter_row(c: &mut [f32], b_row: &[f32], terms: &Terms) {
    let mut j = scatter_tiles::<{ BLOCK / LANES }>(c, b_row, terms, 0);
    j = scatter_tiles::<4>(c, b_row, terms, j);
    j = scatter_tiles::<2>(c, b_row, terms, j);
    j = scatter_tiles::<1>(c, b_row, terms, j);
    for (j, &bj) in b_row.iter().enumerate().skip(j) {
        for (off, a) in terms.iter() {
            c[off + j] += a * bj;
        }
    }
}

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

/// The one body of [`gemm_rows`]: `i-k-j` order with the `k` loop blocked;
/// per block and row, the row's non-zeros are compacted and multiplied into
/// register-resident tiles of the `c` row.
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
    let mut terms = Terms::new();
    for kb in (0..k).step_by(BLOCK) {
        let k_end = (kb + BLOCK).min(k);
        for i in 0..m {
            terms.compact(&a[i * k + kb..i * k + k_end], kb, n);
            accumulate_row(&mut c[i * n..(i + 1) * n], b, &terms);
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

/// The one body of [`gemm_ta_rows`]: per `a` row and window of it, the
/// non-zeros are compacted and the matching `b` row, held in register
/// tiles, is added into the `c` rows they name.
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
    let mut terms = Terms::new();
    for r in 0..rows {
        let a_row = &a[r * a_stride..][..m];
        let b_row = &b[r * n..(r + 1) * n];
        for i0 in (0..m).step_by(BLOCK) {
            terms.compact(&a_row[i0..(i0 + BLOCK).min(m)], i0, n);
            scatter_row(c, b_row, &terms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::tests::assert_same_bits;
    use crate::rng::AdrRng;

    /// The loop [`gemm_rows`] replaced, scalar: one multiply–add per output
    /// element per non-zero `a` entry, `k` blocked, zeros skipped by a branch.
    fn reference_rows(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for kb in (0..k).step_by(BLOCK) {
            for i in 0..m {
                for kk in kb..(kb + BLOCK).min(k) {
                    let aik = a[i * k + kk];
                    if aik == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        c[i * n + j] += aik * b[kk * n + j];
                    }
                }
            }
        }
    }

    /// The loop [`gemm_ta_rows`] replaced, scalar.
    fn reference_ta_rows(
        a: &[f32],
        a_stride: usize,
        b: &[f32],
        c: &mut [f32],
        rows: usize,
        m: usize,
        n: usize,
    ) {
        for r in 0..rows {
            for i in 0..m {
                let av = a[r * a_stride + i];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    c[i * n + j] += av * b[r * n + j];
                }
            }
        }
    }

    /// A left operand with every row kind the compaction must get right: row
    /// `i % 4 == 0` is all zeros of both signs, `1` has no zero, the others
    /// are ~40 % zeros of both signs with NaN and denormals mixed in.
    fn sparse_rows(rng: &mut AdrRng, rows: usize, cols: usize) -> Vec<f32> {
        let mut v = vec![0.0f32; rows * cols];
        for (i, row) in v.chunks_exact_mut(cols).enumerate() {
            for (j, x) in row.iter_mut().enumerate() {
                let u = rng.uniform();
                *x = match i % 4 {
                    0 if j % 2 == 0 => 0.0,
                    0 => -0.0,
                    1 => rng.gauss() + if u < 0.5 { 3.0 } else { -3.0 },
                    _ if u < 0.2 => 0.0,
                    _ if u < 0.4 => -0.0,
                    _ if u < 0.43 => f32::NAN,
                    _ if u < 0.47 => 1e-40 * (u - 0.45).signum(),
                    _ => rng.gauss(),
                };
            }
        }
        v
    }

    /// A right operand whose every fifth row carries ±inf and NaN, with
    /// denormals elsewhere.
    fn non_finite_rows(rng: &mut AdrRng, rows: usize, cols: usize) -> Vec<f32> {
        const SPECIALS: [f32; 4] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -1e-40];
        let mut v = vec![0.0f32; rows * cols];
        for (r, row) in v.chunks_exact_mut(cols).enumerate() {
            for (j, x) in row.iter_mut().enumerate() {
                *x = if r % 5 == 2 && j % 3 == 1 { SPECIALS[(r + j) % 4] } else { rng.gauss() };
            }
        }
        v
    }

    /// An accumulator with `-0.0` entries, whose sign only a skipped update
    /// keeps (`-0.0 + 0.0 · x` is `+0.0`).
    fn accumulator(rng: &mut AdrRng, len: usize) -> Vec<f32> {
        (0..len).map(|i| if i % 3 == 0 { -0.0 } else { rng.gauss() }).collect()
    }

    /// Output widths on every side of the 8- and 64-column tiers.
    const N_GRID: [usize; 11] = [1, 7, 8, 9, 31, 32, 63, 64, 65, 96, 130];
    /// Compaction-window lengths on every side of `BLOCK`.
    const K_GRID: [usize; 6] = [1, 63, 64, 65, 75, 200];

    #[test]
    fn gemm_rows_is_the_branchy_scalar_loop_bit_for_bit() {
        let mut rng = AdrRng::seeded(26);
        for n in N_GRID {
            for k in K_GRID {
                let m = 6;
                let a = sparse_rows(&mut rng, m, k);
                let b = non_finite_rows(&mut rng, k, n);
                let c0 = accumulator(&mut rng, m * n);
                let mut want = c0.clone();
                reference_rows(&a, &b, &mut want, m, k, n);
                let mut got = c0.clone();
                gemm_rows(&a, &b, &mut got, m, k, n);
                assert_same_bits(&got, &want, &format!("dispatched, n={n} k={k}"));
                let mut got = c0;
                gemm_rows_portable(&a, &b, &mut got, m, k, n);
                assert_same_bits(&got, &want, &format!("portable, n={n} k={k}"));
            }
        }
    }

    #[test]
    fn gemm_ta_rows_band_form_is_the_branchy_scalar_loop_bit_for_bit() {
        let mut rng = AdrRng::seeded(62);
        for n in N_GRID {
            for m in K_GRID {
                // Output rows [i0, i0 + m) of a wider product: `a` is read
                // as a column band through the wide row stride.
                let (rows, i0, a_stride) = (9, 3, m + 5);
                let a = sparse_rows(&mut rng, rows, a_stride);
                let b = non_finite_rows(&mut rng, rows, n);
                let c0 = accumulator(&mut rng, m * n);
                let mut want = c0.clone();
                reference_ta_rows(&a[i0..], a_stride, &b, &mut want, rows, m, n);
                let mut got = c0.clone();
                gemm_ta_rows(&a[i0..], a_stride, &b, &mut got, rows, m, n);
                assert_same_bits(&got, &want, &format!("dispatched, n={n} m={m}"));
                let mut got = c0;
                gemm_ta_rows_portable(&a[i0..], a_stride, &b, &mut got, rows, m, n);
                assert_same_bits(&got, &want, &format!("portable, n={n} m={m}"));
            }
        }
    }

    #[test]
    fn compaction_keeps_non_zeros_and_nan_in_order() {
        let window = [0.0, 2.0, -0.0, f32::NAN, 0.0, -1e-40, 0.0];
        let mut terms = Terms::new();
        terms.compact(&[1.0; BLOCK], 0, 1);
        terms.compact(&window, 10, 3);
        let got: Vec<(usize, u32)> = terms.iter().map(|(off, a)| (off, a.to_bits())).collect();
        let want = [(33, 2.0f32.to_bits()), (39, f32::NAN.to_bits()), (45, (-1e-40f32).to_bits())];
        assert_eq!(got, want);
    }
}
