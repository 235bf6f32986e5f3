//! Register-tiled `a · bᵀ` kernel — the input-delta product `δx = δy · Wᵀ`
//! (Eq. 3/17) behind every backward pass, and the tall-skinny projection
//! `a[:, cols] · bᵀ` of the clustering crate's LSH tables.
//!
//! Every output element is a dot product of one row of `a` with one row of
//! `b`. Computed one at a time that is a short, latency-bound chain: `k / 8`
//! dependent lane adds, then a horizontal sum, per element. The kernel has
//! two register tiles and picks one from the shape it is given
//! (`lane_split_fits`):
//!
//! * **The lane-split tile** serves tall, wide products whose `k` rows fit
//!   its panel — conv `δx`, `N × M` by `K × M` with `M ≤ 64`. The `b` rows of
//!   up to 64 output columns are transposed once into a 16 KB stack panel.
//!   Each `a` row then builds eight partial-sum tiles across those columns,
//!   `P_l[j] = Σ_i a[8i + l] · b_j[8i + l]`: `P_l[j]` is [`super::dot`]'s
//!   accumulator lane `l` for output `j`. The tiles are combined lane-wise
//!   through [`F32x8::hsum`]'s tree, the `k % 8` tail is folded in order,
//!   and the row is stored contiguously. The lanes run along output
//!   columns, so the 512-bit instantiation does 16 columns per instruction.
//! * **The dot tile** serves everything else: the reuse backward's
//!   per-sub-matrix `δx_c` (8 columns wide), fc3's `δx` (`k` = 96 does not
//!   fit the panel) and the LSH projections. It walks [`ROW_TILE`] rows of
//!   `a` against one row of `b` at once — eight independent [`F32x8`]
//!   accumulator chains that share each `b` lane load, reduced together in
//!   the epilogue by `hsum_rows`, whose adds run lane-parallel across the
//!   tile.
//!
//! # Determinism
//!
//! In either tile, lane `l` of an output's accumulator sees exactly `acc =
//! acc + a[t] * b[t]` for `t = l, l + 8, …` in ascending order from `0.0`,
//! then the lanes meet in the fixed [`F32x8::hsum`] tree, then the scalar
//! tail `sum += a[t] * b[t]` runs in order — the schedule of
//! [`super::dot`], bit for bit, whatever the tile a row lands in, the
//! instruction width or the thread split (DESIGN.md §15). The kernel is one
//! portable body instantiated three times and picked at run time (see
//! [`super`]).

use crate::simd::{F32x8, LANES};

/// Rows of `a` per register tile of the dot tile: one accumulator each,
/// eight in flight.
pub const ROW_TILE: usize = 8;

/// Output columns per lane-split tile: each of its eight partial sums is
/// eight [`F32x8`] values wide.
const COL_TILE: usize = 64;

/// Capacity of the lane-split tile's transposed `b` panel, in `f32`s: 16 KB
/// on the stack, so a `COL_TILE`-column tile takes `k ≤ 64`.
const PANEL: usize = 4096;

/// Fewest rows of `a` that pay back the lane-split tile's panel transpose
/// (DESIGN.md §15.5 has the crossover).
pub(crate) const SPLIT_MIN_ROWS: usize = 2 * ROW_TILE;

/// Whether [`gemm_tb`] runs the lane-split tile for an `m × k` by `n × k`
/// product: it must be tall (at least `SPLIT_MIN_ROWS` rows), wide (at
/// least one `COL_TILE`-column tile) and its `k`-row panel must fit.
/// Narrower products measured no steady gain: at eight columns each
/// partial sum is a single add chain.
#[inline(always)]
fn lane_split_fits(m: usize, k: usize, n: usize) -> bool {
    m >= SPLIT_MIN_ROWS && n >= COL_TILE && k * COL_TILE <= PANEL
}

/// The two operands of `a · bᵀ`, each row `k` long and read in place
/// through its row stride.
struct Operands<'s> {
    a: &'s [f32],
    a_stride: usize,
    b: &'s [f32],
    b_stride: usize,
    k: usize,
}

impl<'s> Operands<'s> {
    #[inline(always)]
    fn a_row(&self, r: usize) -> &'s [f32] {
        &self.a[r * self.a_stride..][..self.k]
    }

    #[inline(always)]
    fn b_row(&self, j: usize) -> &'s [f32] {
        &self.b[j * self.b_stride..][..self.k]
    }
}

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

/// The dot tile: `ROW_TILE` rows of `a` against one row of `b` at a time,
/// the remaining rows (and every row when `k < LANES`) one [`super::dot`]
/// at a time.
#[inline(always)]
fn dot_tiles(ops: &Operands<'_>, c: &mut [f32], c_stride: usize, m: usize, n: usize) {
    // Rows shorter than one lane chunk are all scalar tail: the tile has no
    // lane work to share and its reduction would be pure overhead.
    let tiled_rows = if ops.k >= LANES { m - m % ROW_TILE } else { 0 };
    let mut r = 0;
    while r < tiled_rows {
        // Filled in a loop: `std::array::from_fn` stays an out-of-line call,
        // compiled without `avx` (module docs of `super`).
        let mut band: [&[f32]; ROW_TILE] = [&[]; ROW_TILE];
        for (i, row) in band.iter_mut().enumerate() {
            *row = ops.a_row(r + i);
        }
        for j in 0..n {
            for (i, sum) in dot_rows(band, ops.b_row(j)).into_iter().enumerate() {
                c[(r + i) * c_stride + j] = sum;
            }
        }
        r += ROW_TILE;
    }
    while r < m {
        for (j, cj) in c[r * c_stride..][..n].iter_mut().enumerate() {
            *cj = super::dot(ops.a_row(r), ops.b_row(j));
        }
        r += 1;
    }
}

/// One row of a lane-split tile: `out[j] = dot(a_row, b_j)` for the tile's
/// `8·V` columns, from the transposed panel (`panel[t·8V + j] = b_j[t]`).
///
/// Lane `l` of every column's partial sums sees `p = p + a[t] · b_j[t]` for
/// `t = l, l + 8, …` in ascending order from `0.0` — [`super::dot`]'s
/// accumulator lane `l` — then the eight lanes meet in
/// [`F32x8::hsum`]'s tree, lane-wise across the columns, and the `k % 8`
/// tail is folded in order.
#[inline(always)]
fn lane_split_row<const V: usize>(a_row: &[f32], panel: &[f32], out: &mut [f32]) {
    let width = V * LANES;
    let (a_chunks, a_tail) = a_row.as_chunks::<LANES>();
    let (chunked, tail) = panel.split_at(a_chunks.len() * LANES * width);
    let mut partial = [[F32x8::splat(0.0); V]; LANES];
    for (l, partial) in partial.iter_mut().enumerate() {
        let mut acc = [F32x8::splat(0.0); V];
        for (a8, rows8) in a_chunks.iter().zip(chunked.chunks_exact(LANES * width)) {
            let av = F32x8::splat(a8[l]);
            let b_tile = &rows8[l * width..][..width];
            for (q, acc) in acc.iter_mut().enumerate() {
                *acc = *acc + av * F32x8::load(&b_tile[q * LANES..]);
            }
        }
        *partial = acc;
    }
    for q in 0..V {
        let p = |l: usize| partial[l][q];
        let mut sum = ((p(0) + p(1)) + (p(2) + p(3))) + ((p(4) + p(5)) + (p(6) + p(7)));
        for (&av, b_row) in a_tail.iter().zip(tail.chunks_exact(width)) {
            sum = sum + F32x8::splat(av) * F32x8::load(&b_row[q * LANES..]);
        }
        sum.store(&mut out[q * LANES..]);
    }
}

/// Output columns `[j, j + 8·V)` of every row: the tile's `b` rows are
/// transposed into `panel` once, then each `a` row runs
/// [`lane_split_row`] against it and stores its columns contiguously.
#[inline(always)]
fn lane_split_tile<const V: usize>(
    ops: &Operands<'_>,
    panel: &mut [f32; PANEL],
    c: &mut [f32],
    c_stride: usize,
    m: usize,
    j: usize,
) {
    let width = V * LANES;
    let panel = &mut panel[..ops.k * width];
    for q in 0..width {
        for (t, &v) in ops.b_row(j + q).iter().enumerate() {
            panel[t * width + q] = v;
        }
    }
    for r in 0..m {
        lane_split_row::<V>(ops.a_row(r), panel, &mut c[r * c_stride + j..][..width]);
    }
}

/// The lane-split tile: `COL_TILE`-column tiles while they fit, then at
/// most one tile of 32, 16 and 8 columns, then the last `n % 8` columns one
/// [`super::dot`] at a time.
#[inline(always)]
fn lane_split_tiles(ops: &Operands<'_>, c: &mut [f32], c_stride: usize, m: usize, n: usize) {
    let mut panel = [0.0f32; PANEL];
    let mut j = 0;
    while j + COL_TILE <= n {
        lane_split_tile::<{ COL_TILE / LANES }>(ops, &mut panel, c, c_stride, m, j);
        j += COL_TILE;
    }
    if j + 4 * LANES <= n {
        lane_split_tile::<4>(ops, &mut panel, c, c_stride, m, j);
        j += 4 * LANES;
    }
    if j + 2 * LANES <= n {
        lane_split_tile::<2>(ops, &mut panel, c, c_stride, m, j);
        j += 2 * LANES;
    }
    if j + LANES <= n {
        lane_split_tile::<1>(ops, &mut panel, c, c_stride, m, j);
        j += LANES;
    }
    for r in 0..m {
        for (jj, cj) in c[r * c_stride..][..n].iter_mut().enumerate().skip(j) {
            *cj = super::dot(ops.a_row(r), ops.b_row(jj));
        }
    }
}

/// `c[m × n] = a · bᵀ`: `c[r * c_stride + j]` becomes the dot product of
/// `a[r * a_stride..][..k]` and `b[j * b_stride..][..k]`, bitwise equal to
/// [`super::dot`] of the two rows, whichever tile computes it.
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
    if super::avx512_detected() {
        // SAFETY: `avx512_detected` has just observed the `avx512f` CPU
        // feature, the only precondition of the clone.
        return unsafe { gemm_tb_avx512(a, a_stride, b, b_stride, c, c_stride, m, k, n) };
    }
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

/// [`gemm_tb`] compiled with 512-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
fn gemm_tb_avx512(
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

/// The one body of [`gemm_tb`]: checks the shape, then runs the tile
/// [`lane_split_fits`] picks for it.
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
    let ops = Operands { a, a_stride, b, b_stride, k };
    if lane_split_fits(m, k, n) {
        lane_split_tiles(&ops, c, c_stride, m, n);
    } else {
        dot_tiles(&ops, c, c_stride, m, n);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kernels::tests::{assert_same_bits, lane_reference_dot, seeded};

    #[expect(
        clippy::disallowed_methods,
        reason = "test-data: a smooth operand; its own rounding is never compared"
    )]
    fn wave(n: usize, scale: f32, shift: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32).mul_add(scale, shift).sin()).collect()
    }

    /// `c0` with `a · bᵀ` written into it by each instantiation of
    /// [`gemm_tb`] this host can run, by name, as
    /// [`crate::kernels::gemm::tests::gemm_rows_each`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gemm_tb_each(
        a: &[f32],
        a_stride: usize,
        b: &[f32],
        b_stride: usize,
        c0: &[f32],
        c_stride: usize,
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<(&'static str, Vec<f32>)> {
        let mut c = c0.to_vec();
        gemm_tb_portable(a, a_stride, b, b_stride, &mut c, c_stride, m, k, n);
        let mut runs = vec![("portable", c)];
        #[cfg(target_arch = "x86_64")]
        {
            if crate::kernels::avx_detected() {
                let mut c = c0.to_vec();
                // SAFETY: `avx_detected` has just observed the `avx` CPU
                // feature, the only precondition of the clone.
                unsafe { gemm_tb_avx(a, a_stride, b, b_stride, &mut c, c_stride, m, k, n) };
                runs.push(("avx", c));
            }
            if crate::kernels::avx512_detected() {
                let mut c = c0.to_vec();
                // SAFETY: `avx512_detected` has just observed the `avx512f`
                // CPU feature, the only precondition of the clone.
                unsafe { gemm_tb_avx512(a, a_stride, b, b_stride, &mut c, c_stride, m, k, n) };
                runs.push(("avx512", c));
            }
        }
        runs
    }

    /// Row counts on both sides of the tile choice and of `ROW_TILE`.
    pub(crate) const M_GRID: [usize; 8] =
        [1, 3, 8, 9, 17, SPLIT_MIN_ROWS - 1, SPLIT_MIN_ROWS, SPLIT_MIN_ROWS + 9];
    /// Output widths on every side of `LANES` and of each lane-split tier:
    /// 127 is one tile each of 64, 32, 16 and 8 columns and a 7-column tail.
    pub(crate) const N_GRID: [usize; 11] = [1, 3, 6, 8, 9, 63, 64, 65, 127, 128, 130];

    #[test]
    fn matches_the_lane_reference_at_every_tile_and_chunk_edge() {
        // `k` = 75 and 100 are too long for the lane-split panel.
        for non_finite in [false, true] {
            for k in [1usize, 7, 8, 9, 64, 75, 100] {
                for m in M_GRID {
                    for n in N_GRID {
                        // `a` is a column window of a wider matrix, `b` a row
                        // band of a larger one, `c` a window of a wider output.
                        let (a_stride, a_off) = (k + 5, 3);
                        let (b_stride, b_off) = (k + 2, 2 * (k + 2));
                        let (c_stride, c_off) = (n + 4, 1);
                        let a = seeded(m * a_stride, 0.37, k as f32, non_finite);
                        let b = seeded((n + 3) * b_stride, -0.53, m as f32, non_finite);
                        let (a_in, b_in) = (&a[a_off..], &b[b_off..]);
                        let c0 = vec![f32::NAN; m * c_stride];
                        let runs = gemm_tb_each(
                            a_in,
                            a_stride,
                            b_in,
                            b_stride,
                            &c0[c_off..],
                            c_stride,
                            m,
                            k,
                            n,
                        );
                        for (lanes, c) in runs {
                            for r in 0..m {
                                let a_row = &a_in[r * a_stride..][..k];
                                let want: Vec<f32> = (0..n)
                                    .map(|j| lane_reference_dot(a_row, &b_in[j * b_stride..][..k]))
                                    .collect();
                                let what = format!("{lanes}: k={k} m={m} n={n} r={r}");
                                assert_same_bits(&c[r * c_stride..][..n], &want, &what);
                                // Outside the `n`-wide window nothing is written.
                                let mut pad = c[r * c_stride + n..].iter().take(c_stride - n);
                                assert!(pad.all(|v| v.is_nan()), "{what}");
                            }
                        }
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
