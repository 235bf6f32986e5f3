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
//! entries — a `k` block of one `a` row in [`gemm_rows`], a run of one `a`
//! *column* (at most `BLOCK` rows, read through the row stride) in
//! [`gemm_ta_rows`] — is first *compacted* into a stack list of
//! `(row offset, value)` terms: every entry is stored at the next free slot
//! and the slot advances by `(value != 0.0) as usize`, so a zero is simply
//! overwritten by whatever follows it. `0.0` and `-0.0` compare equal to
//! zero and drop out; NaN does not and stays. The list is then multiplied
//! into one `c` row one column tile at a time, in tiers: tiles of `BLOCK`
//! columns (eight [`F32x8`] values: eight 256-bit or four 512-bit
//! registers) while they fit, then at most one tile each of 32, 16 and 8
//! columns, then a scalar tail. Every whole lane chunk of a row thus sits
//! in a tile of several independent registers where the row has them: with
//! only 64-column tiles and 8-column ones, the 16-, 32- and 48-wide outputs
//! of the VGG geometry ran slower than the branchy loop (a single-register
//! tile is one dependent add chain).
//!
//! Both kernels hold the *output* tile in registers: a tile of the `c` row
//! is loaded once per window, receives every term's `b` tile while the `b`
//! rows stream, and is stored once, not once per non-zero. [`gemm_ta_rows`]
//! is [`gemm_rows`]'s loop run over the transposed view `aᵀ`: output row
//! `i` takes its terms from column `i` of `a`, one block of `BLOCK` rows at
//! a time, and they name rows of `b` exactly as a `k` block of
//! [`gemm_rows`] does.
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
//! # One body, three instantiations
//!
//! Each kernel is one portable body instantiated three times and picked at
//! run time (see [`super`]): as is, in a 256-bit `avx` clone, and in a
//! 512-bit `avx512f` clone; the entry point runs the widest one the CPU has.
//! A 16-wide row is then one zmm add chain instead of two ymm ones, but
//! each term still adds once to each chain, so no chain gets longer and
//! narrow rows are no slower (DESIGN.md §15.1). Every output element sees
//! the same multiply–adds in the same order in all three, so they are
//! bitwise identical. Enabling `avx512f` makes fused multiply–add
//! encodable, but nothing in the source asks for one: Rust never contracts
//! a separate `*` and `+`, `clippy.toml` rejects `mul_add`, and CI counts
//! `vfmadd` in the release binary (0).

use crate::simd::{F32x8, LANES};

/// Block edge used by the tiled GEMM kernel (and the blocked transpose). 64
/// f32 values = 256 bytes, a multiple of typical cache-line size; chosen
/// empirically on x86-64. It is also the longest compaction window and the
/// width of the widest column tile, so a `k` block of [`gemm_rows`] reads at
/// most a `BLOCK × BLOCK` tile of `b` (16 KB) per output tile.
pub(crate) const BLOCK: usize = 64;

/// The non-zero entries of a window of at most [`BLOCK`] `a` entries, in
/// order: `offsets[t]` is the row offset (`index · stride`) of the `b` row
/// that `values[t]` multiplies.
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

    /// Replaces the list with the non-zero entries of `window` (at most
    /// [`BLOCK`] of them: a run of an `a` row or a strided column window),
    /// entry `t` at offset `(first + t) · stride`.
    ///
    /// Branch-free: each entry lands in the next free slot, which advances
    /// only past a non-zero one. `0.0` and `-0.0` drop out, NaN stays.
    #[inline(always)]
    fn compact<'w>(
        &mut self,
        window: impl IntoIterator<Item = &'w f32>,
        first: usize,
        stride: usize,
    ) {
        let mut len = 0;
        for (t, &v) in window.into_iter().enumerate() {
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
    if super::avx512_detected() {
        // SAFETY: `avx512_detected` has just observed the `avx512f` CPU
        // feature, the only precondition of the clone.
        return unsafe { gemm_rows_avx512(a, b, c, m, k, n) };
    }
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

/// [`gemm_rows`] compiled with 512-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gemm_rows_avx512(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
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
    if super::avx512_detected() {
        // SAFETY: `avx512_detected` has just observed the `avx512f` CPU
        // feature, the only precondition of the clone.
        return unsafe { gemm_ta_rows_avx512(a, a_stride, b, c, rows, m, n) };
    }
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

/// [`gemm_ta_rows`] compiled with 512-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gemm_ta_rows_avx512(
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

/// The one body of [`gemm_ta_rows`]: [`gemm_rows`]'s loop over the
/// transposed view. Per block of at most `BLOCK` rows of `a` (fewer for
/// outputs wider than `BLOCK`) and per output row `i`, the column window
/// `a[r0.., i]` is compacted and multiplied into register-resident tiles of
/// the `c` row, while the block's `b` rows stream.
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
    // The block's `b` rows are streamed once per output row, so they must
    // stay in L1: at most `BLOCK × BLOCK` values (16 KB). With a full
    // `BLOCK` rows at `n` = 256 and 512 (VGG's reuse `∇W`) they are 64 and
    // 128 KB, and the kernel ran 1.15–1.6× slower than the one it replaced.
    let block = (BLOCK * BLOCK / n.max(1)).clamp(LANES, BLOCK);
    let mut terms = Terms::new();
    for r0 in (0..rows).step_by(block) {
        let r_end = (r0 + block).min(rows);
        for i in 0..m {
            terms.compact((r0..r_end).map(|r| &a[r * a_stride + i]), r0, n);
            accumulate_row(&mut c[i * n..(i + 1) * n], b, &terms);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kernels::tests::assert_same_bits;
    use crate::rng::AdrRng;

    /// `c0 += a · b` in each instantiation of [`gemm_rows`] this host can
    /// run, by name: the portable body always, each clone where the CPU has
    /// its feature — so an AVX-512 host, whose entry point never runs the
    /// `avx` clone, still holds that clone to the bits.
    pub(crate) fn gemm_rows_each(
        a: &[f32],
        b: &[f32],
        c0: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<(&'static str, Vec<f32>)> {
        let mut c = c0.to_vec();
        gemm_rows_portable(a, b, &mut c, m, k, n);
        let mut runs = vec![("portable", c)];
        #[cfg(target_arch = "x86_64")]
        {
            if crate::kernels::avx_detected() {
                let mut c = c0.to_vec();
                // SAFETY: `avx_detected` has just observed the `avx` CPU
                // feature, the only precondition of the clone.
                unsafe { gemm_rows_avx(a, b, &mut c, m, k, n) };
                runs.push(("avx", c));
            }
            if crate::kernels::avx512_detected() {
                let mut c = c0.to_vec();
                // SAFETY: `avx512_detected` has just observed the `avx512f`
                // CPU feature, the only precondition of the clone.
                unsafe { gemm_rows_avx512(a, b, &mut c, m, k, n) };
                runs.push(("avx512", c));
            }
        }
        runs
    }

    /// `c0 += aᵀ · b` in each instantiation of [`gemm_ta_rows`] this host can
    /// run, by name, as [`gemm_rows_each`].
    pub(crate) fn gemm_ta_rows_each(
        a: &[f32],
        a_stride: usize,
        b: &[f32],
        c0: &[f32],
        rows: usize,
        m: usize,
        n: usize,
    ) -> Vec<(&'static str, Vec<f32>)> {
        let mut c = c0.to_vec();
        gemm_ta_rows_portable(a, a_stride, b, &mut c, rows, m, n);
        let mut runs = vec![("portable", c)];
        #[cfg(target_arch = "x86_64")]
        {
            if crate::kernels::avx_detected() {
                let mut c = c0.to_vec();
                // SAFETY: `avx_detected` has just observed the `avx` CPU
                // feature, the only precondition of the clone.
                unsafe { gemm_ta_rows_avx(a, a_stride, b, &mut c, rows, m, n) };
                runs.push(("avx", c));
            }
            if crate::kernels::avx512_detected() {
                let mut c = c0.to_vec();
                // SAFETY: `avx512_detected` has just observed the `avx512f`
                // CPU feature, the only precondition of the clone.
                unsafe { gemm_ta_rows_avx512(a, a_stride, b, &mut c, rows, m, n) };
                runs.push(("avx512", c));
            }
        }
        runs
    }

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
    const N_GRID: [usize; 12] = [1, 7, 8, 9, 31, 32, 63, 64, 65, 96, 128, 130];
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
                for (lanes, got) in gemm_rows_each(&a, &b, &c0, m, k, n) {
                    assert_same_bits(&got, &want, &format!("{lanes}, n={n} k={k}"));
                }
            }
        }
    }

    #[test]
    fn gemm_ta_rows_band_form_is_the_branchy_scalar_loop_bit_for_bit() {
        let mut rng = AdrRng::seeded(62);
        // 128 and 129 rows are two compaction blocks (more at `n` > 64), and
        // a one-row tail.
        for rows in [9, 128, 129] {
            for n in N_GRID {
                for m in K_GRID {
                    // Output rows [i0, i0 + m) of a wider product: `a` is read
                    // as a column band through the wide row stride.
                    let (i0, a_stride) = (3, m + 5);
                    let a = sparse_rows(&mut rng, rows, a_stride);
                    let b = non_finite_rows(&mut rng, rows, n);
                    let c0 = accumulator(&mut rng, m * n);
                    let mut want = c0.clone();
                    reference_ta_rows(&a[i0..], a_stride, &b, &mut want, rows, m, n);
                    let mut got = c0.clone();
                    gemm_ta_rows(&a[i0..], a_stride, &b, &mut got, rows, m, n);
                    let what = format!("rows={rows} n={n} m={m}");
                    assert_same_bits(&got, &want, &format!("dispatched, {what}"));
                    for (lanes, got) in gemm_ta_rows_each(&a[i0..], a_stride, &b, &c0, rows, m, n) {
                        assert_same_bits(&got, &want, &format!("{lanes}, {what}"));
                    }
                }
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
