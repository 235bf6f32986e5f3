//! `dst = first + Σ rest`, one output row held in registers — the
//! reconstruction `y[r] = b + Σ_I y_c^(I)[id_I(r)]` of the deep-reuse forward
//! pass (Fig. 2), where every source is a different sub-matrix's cluster
//! output row.
//!
//! The loop it replaces wrote `dst = first`, then `dst += src` once per
//! source: each of the (often hundreds of) sources cost a load *and a store*
//! of the whole destination row. Here a tile of the row is loaded from
//! `first` once, receives every source's tile in order, and is stored once —
//! in the column tiers of [`super::gemm`]: tiles of 64 columns (eight
//! [`F32x8`] registers) while they fit, then at most one tile each of 32, 16
//! and 8 columns, then a scalar tail.
//!
//! # Why no bit moves
//!
//! Every output element is `((first + s_0) + s_1) + …` — one IEEE add per
//! source, in the sources' order, starting from `first` — exactly the
//! additions of the loop it replaced. Which register holds the running sum
//! changes no operation and no order. The kernel is one portable body
//! instantiated twice and picked at run time (see [`super`]).

use crate::simd::{F32x8, LANES};

/// Columns `[j, j + 8·V)` of `dst`, for every `j` from `j0` on that fits:
/// `first`'s tile plus every source's tile, in order, held in `V` registers.
/// Returns where the tiles stopped.
#[inline(always)]
fn sum_tiles<'a, const V: usize, S>(dst: &mut [f32], first: &[f32], rest: &S, j0: usize) -> usize
where
    S: Iterator<Item = &'a [f32]> + Clone,
{
    let mut j = j0;
    while j + V * LANES <= dst.len() {
        let mut acc = [F32x8::splat(0.0); V];
        for (q, acc) in acc.iter_mut().enumerate() {
            *acc = F32x8::load(&first[j + q * LANES..]);
        }
        for src in rest.clone() {
            let tile = &src[j..j + V * LANES];
            for (q, acc) in acc.iter_mut().enumerate() {
                *acc = *acc + F32x8::load(&tile[q * LANES..]);
            }
        }
        for (q, acc) in acc.iter().enumerate() {
            acc.store(&mut dst[j + q * LANES..]);
        }
        j += V * LANES;
    }
    j
}

/// `dst[j] = first[j] + rest_0[j] + rest_1[j] + …`, added in that order.
///
/// `rest` is walked once per column tile, so it must be cheap to clone — a
/// slice iterator or a `map` over one, never a collected list.
///
/// # Shape
/// `first` and every source hold at least `dst.len()` elements.
///
/// # Panics
/// Panics when a source is shorter than `dst`.
pub fn sum_rows<'a, S>(dst: &mut [f32], first: &[f32], rest: S)
where
    S: Iterator<Item = &'a [f32]> + Clone,
{
    #[cfg(target_arch = "x86_64")]
    if super::avx_detected() {
        // SAFETY: `avx_detected` has just observed the `avx` CPU feature,
        // the only precondition of the clone.
        return unsafe { sum_rows_avx(dst, first, rest) };
    }
    sum_rows_portable(dst, first, rest);
}

/// [`sum_rows`] compiled with 256-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn sum_rows_avx<'a, S>(dst: &mut [f32], first: &[f32], rest: S)
where
    S: Iterator<Item = &'a [f32]> + Clone,
{
    sum_rows_portable(dst, first, rest);
}

/// The one body of [`sum_rows`]: 64-column tiles while they fit, then at
/// most one 32-, 16- and 8-column tile, then the scalar tail.
#[inline(always)]
pub(crate) fn sum_rows_portable<'a, S>(dst: &mut [f32], first: &[f32], rest: S)
where
    S: Iterator<Item = &'a [f32]> + Clone,
{
    let first = &first[..dst.len()];
    let mut j = sum_tiles::<8, S>(dst, first, &rest, 0);
    j = sum_tiles::<4, S>(dst, first, &rest, j);
    j = sum_tiles::<2, S>(dst, first, &rest, j);
    j = sum_tiles::<1, S>(dst, first, &rest, j);
    // Indexed, not `enumerate().skip(j)`: that `nth` stays an out-of-line
    // call, compiled without `avx` (module docs of `super`).
    for (t, (d, &f)) in dst[j..].iter_mut().zip(&first[j..]).enumerate() {
        let mut v = f;
        for src in rest.clone() {
            v += src[j + t];
        }
        *d = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::tests::assert_same_bits;
    use crate::rng::AdrRng;

    /// The loop [`sum_rows`] replaced, scalar: `first`, then `+=` each
    /// source row in order.
    fn reference(dst: &mut [f32], first: &[f32], rest: &[&[f32]]) {
        dst.copy_from_slice(&first[..dst.len()]);
        for src in rest {
            for (d, s) in dst.iter_mut().zip(*src) {
                *d += s;
            }
        }
    }

    /// Row widths on every side of the 8-, 16-, 32- and 64-column tiers.
    const M_GRID: [usize; 15] = [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 96, 130];

    /// A first row and a pool of twelve source rows. Every fifth element of
    /// the first row and every third of pool rows 0–2 is, in turn, `±0.0`,
    /// `±inf`, NaN or a denormal; rows 3–11 are finite, so that 200 of them
    /// (ids repeating) still sum to finite values a lost or reordered add
    /// would move.
    #[test]
    fn sum_rows_is_the_scalar_loop_bit_for_bit() {
        const SPECIALS: [f32; 7] =
            [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1e-40, -1e-40];
        let special = |i: usize| SPECIALS[i % SPECIALS.len()];
        let mut rng = AdrRng::seeded(28);
        for m in M_GRID {
            let mut pool = vec![0.0f32; 12 * m];
            for (i, v) in pool.iter_mut().enumerate() {
                *v = if i < 3 * m && i % 3 == 1 { special(i / 3) } else { rng.gauss() };
            }
            let first: Vec<f32> =
                (0..m).map(|j| if j % 5 == 0 { special(j / 5) } else { rng.gauss() }).collect();
            for count in [0usize, 1, 3, 200] {
                let ids: Vec<usize> = (0..count)
                    .map(|s| if count > 3 { 3 + (s * 7 + s / 3) % 9 } else { s * 5 % 12 })
                    .collect();
                let rows: Vec<&[f32]> = ids.iter().map(|&id| &pool[id * m..][..m]).collect();
                let what = format!("m={m} sources={count}");
                let mut want = vec![f32::NAN; m];
                reference(&mut want, &first, &rows);
                let mut got = vec![f32::NAN; m];
                sum_rows(&mut got, &first, rows.iter().copied());
                assert_same_bits(&got, &want, &format!("dispatched, {what}"));
                let mut got = vec![f32::NAN; m];
                sum_rows_portable(&mut got, &first, rows.iter().copied());
                assert_same_bits(&got, &want, &format!("portable, {what}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_short_source_panics() {
        let mut dst = [0.0f32; 16];
        sum_rows(&mut dst, &[0.0; 16], [&[1.0f32; 9][..]].into_iter());
    }
}
