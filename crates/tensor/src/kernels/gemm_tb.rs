//! Register-blocked `a · bᵀ` micro-kernel — the input-delta product
//! `δx = δy · Wᵀ` (Eq. 3/17) behind every backward pass, and the tall-skinny
//! projection `a[:, cols] · bᵀ` of the clustering crate's LSH tables.
//!
//! Every output element is a dot product of one row of `a` with one row of
//! `b`. Computed one at a time that is a short, latency-bound chain: `k / 8`
//! dependent lane adds, then a horizontal sum, per element. The kernel
//! instead walks [`ROW_TILE`] rows of `a` against one row of `b` at once —
//! eight independent [`F32x8`] accumulator chains that share each `b` lane
//! load, reduced together in the epilogue by `hsum_rows`, whose adds run
//! lane-parallel across the tile.
//!
//! # Determinism
//!
//! Each accumulator sees exactly `acc = acc + a8 * b8` over the 8-lane
//! chunks in ascending order from `0.0`, then the fixed
//! [`F32x8::hsum`] tree, then the scalar tail `sum += a[t] * b[t]` in order
//! — the schedule of [`super::dot`], bit for bit, whatever the tile a row
//! lands in, the instruction width or the thread split (DESIGN.md §15). The
//! kernel is one portable body instantiated twice and picked at run time
//! (see [`super`]).

use crate::simd::{F32x8, LANES};

/// Rows of `a` per register tile: one accumulator each, eight in flight.
pub const ROW_TILE: usize = 8;

/// Eight horizontal sums at once: lane `r` of the result is
/// `acc[r].hsum()`, bit for bit. The accumulators are transposed so that
/// each add of the fixed tree `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` is one
/// lane-wise add over all eight rows instead of eight scalar ones.
#[inline(always)]
fn hsum_rows(acc: [F32x8; ROW_TILE]) -> [f32; ROW_TILE] {
    let mut lanes = [[0.0f32; ROW_TILE]; LANES];
    for (r, row) in acc.iter().enumerate() {
        for (l, &v) in row.to_array().iter().enumerate() {
            lanes[l][r] = v;
        }
    }
    let t = lanes.map(|lane| F32x8::load(&lane));
    (((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + (t[6] + t[7]))).to_array()
}

/// `out[r] = dot(a[r], b)` for one tile; every slice is exactly `k` long.
#[inline(always)]
fn dot_rows(a: [&[f32]; ROW_TILE], b: &[f32]) -> [f32; ROW_TILE] {
    let (b_chunks, b_tail) = b.as_chunks::<LANES>();
    let a_split = a.map(|row| row.as_chunks::<LANES>());
    // Equal lengths are the caller's contract; re-slicing to the shared
    // chunk count states it where the optimiser sees it.
    let a_chunks = a_split.map(|(chunks, _)| &chunks[..b_chunks.len()]);
    let mut acc = [F32x8::splat(0.0); ROW_TILE];
    for (i, bv) in b_chunks.iter().enumerate() {
        let bv = F32x8::load(bv);
        for r in 0..ROW_TILE {
            acc[r] = acc[r] + F32x8::load(&a_chunks[r][i]) * bv;
        }
    }
    let mut sums = hsum_rows(acc);
    for (sum, (_, a_tail)) in sums.iter_mut().zip(a_split) {
        for (&av, &bv) in a_tail.iter().zip(b_tail) {
            *sum += av * bv;
        }
    }
    sums
}

/// `c[m × n] = a · bᵀ`: `c[r * c_stride + j]` becomes the dot product of
/// `a[r * a_stride..][..k]` and `b[j * b_stride..][..k]`, bitwise equal to
/// [`super::dot`] of the two rows.
///
/// Explicit row strides let `a` be a column window of a wider matrix and
/// `b` a row band of a larger one, both read in place.
///
/// # Shape
/// `a`: at least `(m − 1) · a_stride + k` elements; `b`: at least
/// `(n − 1) · b_stride + k`; `c`: at least `(m − 1) · c_stride + n`.
///
/// # Panics
/// Panics when a buffer is shorter than its shape requires.
#[allow(clippy::too_many_arguments)]
pub fn gemm_tb(
    a: &[f32],
    a_stride: usize,
    b: &[f32],
    b_stride: usize,
    c: &mut [f32],
    c_stride: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if super::avx_detected() {
        // SAFETY: `avx_detected` has just observed the `avx` CPU feature,
        // the only precondition of the clone.
        return unsafe { gemm_tb_avx(a, a_stride, b, b_stride, c, c_stride, m, k, n) };
    }
    gemm_tb_portable(a, a_stride, b, b_stride, c, c_stride, m, k, n);
}

/// [`gemm_tb`] compiled with 256-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[allow(clippy::too_many_arguments)]
fn gemm_tb_avx(
    a: &[f32],
    a_stride: usize,
    b: &[f32],
    b_stride: usize,
    c: &mut [f32],
    c_stride: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    gemm_tb_portable(a, a_stride, b, b_stride, c, c_stride, m, k, n);
}

/// The one body of [`gemm_tb`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_tb_portable(
    a: &[f32],
    a_stride: usize,
    b: &[f32],
    b_stride: usize,
    c: &mut [f32],
    c_stride: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(a.len() >= (m - 1) * a_stride + k, "gemm_tb: left operand too short");
    assert!(b.len() >= (n - 1) * b_stride + k, "gemm_tb: right operand too short");
    assert!(c.len() >= (m - 1) * c_stride + n, "gemm_tb: output too short");
    let a_row = |r: usize| &a[r * a_stride..][..k];
    let b_row = |j: usize| &b[j * b_stride..][..k];
    // Rows shorter than one lane chunk are all scalar tail: the tile has no
    // lane work to share and its reduction would be pure overhead.
    let tiled_rows = if k >= LANES { m - m % ROW_TILE } else { 0 };
    let mut r = 0;
    while r < tiled_rows {
        let band: [&[f32]; ROW_TILE] = std::array::from_fn(|i| a_row(r + i));
        for j in 0..n {
            for (i, sum) in dot_rows(band, b_row(j)).into_iter().enumerate() {
                c[(r + i) * c_stride + j] = sum;
            }
        }
        r += ROW_TILE;
    }
    // The remaining rows: the same dot, one output at a time.
    while r < m {
        for (j, cj) in c[r * c_stride..][..n].iter_mut().enumerate() {
            *cj = super::dot(a_row(r), b_row(j));
        }
        r += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::tests::lane_reference_dot;

    fn wave(n: usize, scale: f32, shift: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32).mul_add(scale, shift).sin()).collect()
    }

    #[test]
    fn matches_the_lane_reference_at_every_tile_and_chunk_edge() {
        for k in [1usize, 7, 8, 9, 64, 75, 100] {
            for m in [1usize, 3, 8, 9, 17] {
                for n in [1usize, 3, 5, 6] {
                    // `a` is a column window of a wider matrix, `b` a row
                    // band of a larger one, `c` a window of a wider output.
                    let (a_stride, a_off) = (k + 5, 3);
                    let (b_stride, b_off) = (k + 2, 2 * (k + 2));
                    let (c_stride, c_off) = (n + 4, 1);
                    let a = wave(m * a_stride, 0.37, k as f32);
                    let b = wave((n + 3) * b_stride, -0.53, m as f32);
                    let mut c = vec![f32::NAN; m * c_stride];
                    gemm_tb(
                        &a[a_off..],
                        a_stride,
                        &b[b_off..],
                        b_stride,
                        &mut c[c_off..],
                        c_stride,
                        m,
                        k,
                        n,
                    );
                    for r in 0..m {
                        let a_row = &a[a_off + r * a_stride..][..k];
                        for j in 0..n {
                            let b_row = &b[b_off + j * b_stride..][..k];
                            let got = c[c_off + r * c_stride + j];
                            assert_eq!(
                                got.to_bits(),
                                lane_reference_dot(a_row, b_row).to_bits(),
                                "k={k} m={m} n={n} r={r} j={j}"
                            );
                        }
                        // Outside the `n`-wide window nothing is written.
                        assert!(c[r * c_stride].is_nan());
                    }
                }
            }
        }
    }

    #[test]
    fn hsum_rows_is_the_fixed_tree_per_row() {
        // Magnitudes chosen so any other association rounds differently.
        let base = [1e8f32, 1.0, -1e8, 1.0, 1e-8, 1e8, -1e8, 1e-8];
        let rows: [[f32; LANES]; ROW_TILE] = std::array::from_fn(|r| {
            std::array::from_fn(|l| base[(l + r) % LANES] * (r + 1) as f32)
        });
        let got = hsum_rows(rows.map(|row| F32x8::load(&row)));
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(got[r].to_bits(), F32x8::load(row).hsum().to_bits(), "row {r}");
        }
    }

    #[test]
    fn non_finite_inputs_propagate_like_the_single_dot() {
        let mut a = wave(9 * 12, 0.2, 0.1);
        a[5] = f32::INFINITY;
        a[40] = f32::NAN;
        a[100] = -0.0;
        let b = wave(3 * 12, 0.7, -0.3);
        let mut c = vec![0.0f32; 9 * 3];
        gemm_tb(&a, 12, &b, 12, &mut c, 3, 9, 12, 3);
        for r in 0..9 {
            for j in 0..3 {
                let expect = crate::kernels::dot(&a[r * 12..][..12], &b[j * 12..][..12]);
                let got = c[r * 3 + j];
                // NaN payloads are not part of the contract; NaN-ness is.
                assert!(
                    got.to_bits() == expect.to_bits() || (got.is_nan() && expect.is_nan()),
                    "r={r} j={j}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn empty_shapes_are_no_ops() {
        let mut c = [7.0f32; 2];
        gemm_tb(&[], 4, &[1.0; 4], 4, &mut c, 1, 0, 4, 1);
        gemm_tb(&[1.0; 4], 4, &[], 4, &mut c, 0, 1, 4, 0);
        assert_eq!(c, [7.0, 7.0]);
        // k = 0: every dot is the empty sum.
        gemm_tb(&[], 0, &[], 0, &mut c, 1, 2, 0, 1);
        assert_eq!(c, [0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "left operand too short")]
    fn short_left_operand_panics() {
        gemm_tb(&[0.0; 7], 4, &[0.0; 4], 4, &mut [0.0; 2], 1, 2, 4, 1);
    }
}
