//! Register-blocked sign-projection micro-kernel — the inner loop of LSH
//! hashing (Eq. 4), `sign(X[:, range] · P)` for every sub-vector of a layer.
//!
//! One call hashes a run of rows against *all* of a layer's sub-vectors. The
//! kernel walks [`ROW_BLOCK`] rows at a time across every sub-vector before
//! moving down — so the unfolded matrix streams through the cache once and
//! every row of a block is a sequential read — and, per sub-vector and
//! 8-lane chunk of hyperplanes, keeps one [`F32x8`] accumulator per row live
//! in registers across all of the sub-vector's columns: each packed
//! hyperplane lane vector is loaded once per column and shared by every row
//! of the block, and the only loop-carried dependencies are the `ROW_BLOCK`
//! independent accumulator chains. Signs are packed as the epilogue; a
//! projection is never stored beyond the stack slot its sign test reads it
//! from (`sign_bits`). Shapes are validated, and the instruction
//! width chosen (see [`super`]), once per call — not once per block: a
//! block is 256 multiply–adds at `L = H = 8`.
//!
//! # Determinism
//!
//! Lane `j` of row `r` sees exactly `acc = acc + x[r][col] * p[col][j]` for
//! `col` ascending from `acc = 0.0` — one IEEE multiply and one IEEE add per
//! column, never an FMA — which is the scalar sign-dot loop bit for bit,
//! whatever the row blocking, instruction width or thread split (DESIGN.md
//! §15).

use crate::simd::{F32x8, LANES};

/// Rows per register block: four accumulators are eight 128-bit registers in
/// the portable instantiation on x86-64 (four 256-bit ones in the AVX
/// clone), which leaves room for the hyperplane lanes and the broadcast
/// input element inside x86-64's sixteen.
pub const ROW_BLOCK: usize = 4;

/// Most 8-lane hyperplane chunks per signature: 64 bits.
const MAX_CHUNKS: usize = 64 / LANES;

/// One row against one chunk of packed hyperplanes: the accumulator chain
/// of the module docs, for the rows left over after the last whole block.
#[inline(always)]
fn project_row(row: &[f32], chunk: &[[f32; LANES]]) -> F32x8 {
    let mut acc = F32x8::splat(0.0);
    for (&x, p) in row.iter().zip(chunk) {
        acc = acc + F32x8::splat(x) * F32x8::load(p);
    }
    acc
}

/// One register block of rows against one chunk of packed hyperplanes; every
/// row slice and the chunk hold exactly `cols` entries.
///
/// The four accumulators are named, not an array walked by a row loop: the
/// build's link-time pipeline unrolls such a loop only after it has decided
/// how to vectorise, and then bundles *across* the rows — the four rows'
/// elements gathered into one vector per hyperplane lane — instead of along
/// each row's eight lanes. Spelled out, every line is one broadcast, one
/// lane multiply and one lane add, at either instruction width.
#[inline(always)]
fn project_block(rows: [&[f32]; ROW_BLOCK], chunk: &[[f32; LANES]]) -> [F32x8; ROW_BLOCK] {
    // Equal lengths are the caller's contract; re-slicing to the chunk's
    // states it where the optimiser sees it.
    let [r0, r1, r2, r3] = rows.map(|row| &row[..chunk.len()]);
    let [mut a0, mut a1, mut a2, mut a3] = [F32x8::splat(0.0); ROW_BLOCK];
    for (col, p) in chunk.iter().enumerate() {
        let p = F32x8::load(p);
        a0 = a0 + F32x8::splat(r0[col]) * p;
        a1 = a1 + F32x8::splat(r1[col]) * p;
        a2 = a2 + F32x8::splat(r2[col]) * p;
        a3 = a3 + F32x8::splat(r3[col]) * p;
    }
    [a0, a1, a2, a3]
}

/// Eq. 4 sign-packing of one lane chunk: bit `l` set iff lane `l > 0`.
///
/// `black_box` is the identity; it is here as a fence for the optimiser.
/// Without it the four sign tests that close a block are bundled across the
/// rows into a long shuffle-and-extract sequence that costs more than the
/// block's multiply–adds at `L = 8`; kept apart, each is one lane compare
/// and one move-mask.
#[inline(always)]
fn sign_bits(acc: &F32x8) -> u64 {
    let mut bits = 0u64;
    for (l, &v) in std::hint::black_box(acc).to_array().iter().enumerate() {
        bits |= u64::from(v > 0.0) << l;
    }
    bits
}

/// Signatures of one register block of rows (each exactly `cols` long),
/// written to `out[r * out_stride]` — or-ed into the slots chunk by chunk
/// rather than collected in a local array first: four live signature words
/// give the optimiser one more thing to bundle across the rows (see
/// [`sign_bits`]), and measured a quarter slower.
#[inline(always)]
fn sign_block(
    rows: [&[f32]; ROW_BLOCK],
    planes: &[[f32; LANES]],
    chunks: usize,
    out: &mut [u64],
    out_stride: usize,
) {
    let cols = rows[0].len();
    for r in 0..ROW_BLOCK {
        out[r * out_stride] = 0;
    }
    for c in 0..chunks {
        let acc = project_block(rows, &planes[c * cols..][..cols]);
        for (r, acc) in acc.iter().enumerate() {
            out[r * out_stride] |= sign_bits(acc) << (c * LANES);
        }
    }
}

/// Signature of one row, `cols` long.
#[inline(always)]
fn sign_row(row: &[f32], planes: &[[f32; LANES]], chunks: usize) -> u64 {
    let cols = row.len();
    let mut sig = 0u64;
    for c in 0..chunks {
        sig |= sign_bits(&project_row(row, &planes[c * cols..][..cols])) << (c * LANES);
    }
    sig
}

/// Hashes `rows` rows against every sub-vector of a layer:
/// `out[r * ranges.len() + i]` becomes the sign signature of columns
/// `ranges[i]` of row `r`, which starts at `x[r * x_stride]`.
///
/// `planes` is the layer's packed hyperplane table, `chunks` 8-lane chunks
/// per column: sub-vector `i` with columns `[start, end)` owns
/// `planes[start * chunks * 8..end * chunks * 8]`, chunk-major — inside that
/// block, `((c * (end − start)) + col) * 8 + l` is component `col` of
/// hyperplane `8·c + l`. A hash count that is not a multiple of 8 is padded
/// with zero hyperplanes, whose projections are exactly `0.0` (or NaN for a
/// non-finite input) and therefore contribute no bit. The row stride lets
/// callers hash a column window of a wider matrix without a copy.
///
/// # Shape
/// `x`: at least `(rows − 1) · x_stride + max end` elements; `planes`: a
/// whole number of columns of `chunks · 8` lanes for `chunks` in `1..=8`,
/// covering every range; `out`: exactly `rows · ranges.len()` elements.
///
/// # Panics
/// Panics when a range is empty or a buffer disagrees with its shape.
pub fn project_signs(
    x: &[f32],
    x_stride: usize,
    rows: usize,
    ranges: &[(usize, usize)],
    planes: &[f32],
    chunks: usize,
    out: &mut [u64],
) {
    #[cfg(target_arch = "x86_64")]
    if super::avx_detected() {
        // SAFETY: `avx_detected` has just observed the `avx` CPU feature,
        // the only precondition of the clone.
        return unsafe { project_signs_avx(x, x_stride, rows, ranges, planes, chunks, out) };
    }
    project_signs_portable(x, x_stride, rows, ranges, planes, chunks, out);
}

/// [`project_signs`] compiled with 256-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn project_signs_avx(
    x: &[f32],
    x_stride: usize,
    rows: usize,
    ranges: &[(usize, usize)],
    planes: &[f32],
    chunks: usize,
    out: &mut [u64],
) {
    project_signs_portable(x, x_stride, rows, ranges, planes, chunks, out);
}

/// The one body of [`project_signs`].
#[inline(always)]
pub(crate) fn project_signs_portable(
    x: &[f32],
    x_stride: usize,
    rows: usize,
    ranges: &[(usize, usize)],
    planes: &[f32],
    chunks: usize,
    out: &mut [u64],
) {
    assert!(
        (1..=MAX_CHUNKS).contains(&chunks) && planes.len().is_multiple_of(chunks * LANES),
        "project_signs: planes must be whole columns of 1..=8 chunks x 8 lanes"
    );
    let (planes, _) = planes.as_chunks::<LANES>();
    let mut width = 0;
    for &(start, end) in ranges {
        assert!(
            start < end && end * chunks <= planes.len(),
            "project_signs: sub-vector {start}..{end} is empty or beyond the plane table"
        );
        width = width.max(end);
    }
    let subs = ranges.len();
    assert_eq!(out.len(), rows * subs, "project_signs: one signature per row and sub-vector");
    if rows == 0 {
        return;
    }
    assert!(x.len() >= (rows - 1) * x_stride + width, "project_signs: input too short");
    for r in (0..rows).step_by(ROW_BLOCK) {
        let band = ROW_BLOCK.min(rows - r);
        for (i, &(start, end)) in ranges.iter().enumerate() {
            let row = |j: usize| &x[(r + j) * x_stride..][start..end];
            let planes = &planes[start * chunks..end * chunks];
            let out = &mut out[r * subs + i..];
            if band == ROW_BLOCK {
                sign_block(std::array::from_fn(row), planes, chunks, out, subs);
            } else {
                for j in 0..band {
                    out[j * subs] = sign_row(row(j), planes, chunks);
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn wave(n: usize, scale: f32, shift: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32).mul_add(scale, shift).sin()).collect()
    }

    /// Packs one family of `h` hyperplanes per sub-vector (`families[i][j *
    /// cols_i + col]`) into the kernel's zero-padded, chunk-major layer
    /// table over `k` columns. Columns no sub-vector owns stay zero.
    pub(crate) fn pack(
        ranges: &[(usize, usize)],
        families: &[Vec<f32>],
        h: usize,
        k: usize,
    ) -> Vec<f32> {
        let lanes = h.div_ceil(LANES) * LANES;
        let mut table = vec![0.0f32; k * lanes];
        for (&(start, end), planes) in ranges.iter().zip(families) {
            let cols = end - start;
            let block = &mut table[start * lanes..end * lanes];
            for j in 0..h {
                for col in 0..cols {
                    block[((j / LANES) * cols + col) * LANES + j % LANES] = planes[j * cols + col];
                }
            }
        }
        table
    }

    /// The scalar sign-dot loop the kernel must reproduce bit for bit.
    fn reference(row: &[f32], planes: &[f32], h: usize) -> u64 {
        let cols = row.len();
        let mut sig = 0u64;
        for j in 0..h {
            let mut acc = 0.0f32;
            for (col, &xv) in row.iter().enumerate() {
                acc += xv * planes[j * cols + col];
            }
            if acc > 0.0 {
                sig |= 1 << j;
            }
        }
        sig
    }

    /// Three sub-vectors of a `k`-column layer: two of `cols` columns
    /// starting at column 1, then — past a column nobody owns — a narrower
    /// tail, so range offsets, unequal widths and a gap are all exercised.
    pub(crate) fn ragged_ranges(cols: usize) -> ([(usize, usize); 3], usize) {
        let tail = cols.div_ceil(2);
        let ranges = [(1, 1 + cols), (1 + cols, 1 + 2 * cols), (2 + 2 * cols, 2 + 2 * cols + tail)];
        (ranges, 2 + 2 * cols + tail)
    }

    #[test]
    fn matches_the_scalar_loop_at_every_block_and_chunk_edge() {
        for h in [1usize, 5, 8, 9, 16, 33, 64] {
            for cols in [1usize, 3, 8, 13] {
                for rows in [1usize, 3, 4, 5, 9] {
                    // The layer's rows are a column window of a wider matrix.
                    let (ranges, k) = ragged_ranges(cols);
                    let (x_stride, x_off) = (k + 6, 2);
                    let x = wave(rows * x_stride, 0.37, h as f32);
                    let families: Vec<Vec<f32>> = ranges
                        .iter()
                        .map(|&(a, b)| wave(h * (b - a), -0.53, (cols + a) as f32))
                        .collect();
                    let mut out = vec![u64::MAX; rows * ranges.len()];
                    project_signs(
                        &x[x_off..],
                        x_stride,
                        rows,
                        &ranges,
                        &pack(&ranges, &families, h, k),
                        h.div_ceil(LANES),
                        &mut out,
                    );
                    for r in 0..rows {
                        for (i, &(a, b)) in ranges.iter().enumerate() {
                            let row = &x[r * x_stride + x_off..][a..b];
                            assert_eq!(
                                out[r * ranges.len() + i],
                                reference(row, &families[i], h),
                                "h={h} cols={cols} rows={rows} r={r} sub={i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_hyperplanes_and_non_finite_inputs_set_no_bits() {
        let x = [1.0f32, f32::INFINITY, -2.0, f32::NAN, 0.5, -0.0];
        let mut out = [u64::MAX; 2];
        project_signs(&x, 3, 2, &[(0, 3)], &[0.0; 2 * 3 * LANES], 2, &mut out);
        assert_eq!(out, [0, 0]);
    }

    #[test]
    fn zero_rows_and_zero_sub_vectors_are_no_ops() {
        project_signs(&[], 4, 0, &[(0, 4)], &[0.0; 4 * LANES], 1, &mut []);
        project_signs(&[1.0; 8], 4, 2, &[], &[0.0; 4 * LANES], 1, &mut []);
    }

    #[test]
    #[should_panic(expected = "planes must be whole columns")]
    fn ragged_plane_table_panics() {
        let mut out = [0u64; 1];
        project_signs(&[0.0; 4], 4, 1, &[(0, 4)], &[0.0; 4 * LANES + 1], 1, &mut out);
    }

    #[test]
    #[should_panic(expected = "sub-vector 2..5 is empty or beyond the plane table")]
    fn range_beyond_the_plane_table_panics() {
        let mut out = [0u64; 1];
        project_signs(&[0.0; 8], 8, 1, &[(2, 5)], &[0.0; 4 * LANES], 1, &mut out);
    }

    #[test]
    #[should_panic(expected = "input too short")]
    fn short_input_panics() {
        let mut out = [0u64; 2];
        project_signs(&[0.0; 7], 4, 2, &[(0, 4)], &[0.0; 4 * LANES], 1, &mut out);
    }

    #[test]
    #[should_panic(expected = "one signature per row and sub-vector")]
    fn wrong_signature_count_panics() {
        let mut out = [0u64; 3];
        project_signs(&[0.0; 8], 4, 2, &[(0, 4)], &[0.0; 4 * LANES], 1, &mut out);
    }
}
