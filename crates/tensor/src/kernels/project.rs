//! Register-blocked sign-projection micro-kernel — the inner loop of LSH
//! hashing (Eq. 4), `sign(X[:, range] · P)`.
//!
//! One call projects a band of rows onto the hyperplanes of one sub-vector.
//! The kernel walks [`ROW_BLOCK`] rows at a time and, per 8-lane chunk of
//! hyperplanes, keeps one [`F32x8`] accumulator per row live in registers
//! across all `cols` columns: each packed hyperplane lane vector is loaded
//! once per column and shared by every row of the block, and the only
//! loop-carried dependencies are the `ROW_BLOCK` independent accumulator
//! chains. Signs are packed as the epilogue; projections never touch memory.
//!
//! # Determinism
//!
//! Lane `j` of row `r` sees exactly `acc = acc + x[r][col] * p[col][j]` for
//! `col` ascending from `acc = 0.0` — one IEEE multiply and one IEEE add per
//! column, never an FMA — which is the scalar sign-dot loop bit for bit,
//! whatever the row blocking, lane backend or thread split (DESIGN.md §15).

use crate::simd::{F32x8, LANES};

/// Rows per register block: four accumulators are eight SSE2 registers on
/// the portable backend (four on AVX), which leaves room for the hyperplane
/// lanes and the broadcast input element inside x86-64's sixteen.
pub const ROW_BLOCK: usize = 4;

/// Most 8-lane hyperplane chunks per signature: 64 bits.
const MAX_CHUNKS: usize = 64 / LANES;

/// Accumulates `R` rows against one chunk of packed hyperplanes; every row
/// slice and the chunk hold exactly `cols` entries. The block size is
/// inferred from the row array, never spelled as a turbofish: `adr-check`'s
/// call graph follows plain `name(` calls only.
#[inline(always)]
fn project_block<const R: usize>(rows: [&[f32]; R], chunk: &[[f32; LANES]]) -> [F32x8; R] {
    let mut acc = [F32x8::splat(0.0); R];
    for (col, p) in chunk.iter().enumerate() {
        let p = F32x8::load(p);
        for r in 0..R {
            acc[r] = acc[r] + F32x8::splat(rows[r][col]) * p;
        }
    }
    acc
}

/// Eq. 4 sign-packing of one lane chunk: bit `l` set iff lane `l > 0`.
#[inline(always)]
fn sign_bits(acc: F32x8) -> u64 {
    let mut bits = 0u64;
    for (l, &v) in acc.to_array().iter().enumerate() {
        bits |= u64::from(v > 0.0) << l;
    }
    bits
}

/// Signatures of `R` rows (each exactly `cols` long), written to
/// `out[r * out_stride]`.
#[inline(always)]
fn sign_rows<const R: usize>(
    rows: [&[f32]; R],
    planes: &[[f32; LANES]],
    chunks: usize,
    out: &mut [u64],
    out_stride: usize,
) {
    let cols = rows[0].len();
    let mut sigs = [0u64; R];
    for c in 0..chunks {
        let acc = project_block(rows, &planes[c * cols..][..cols]);
        for r in 0..R {
            sigs[r] |= sign_bits(acc[r]) << (c * LANES);
        }
    }
    for (r, sig) in sigs.into_iter().enumerate() {
        out[r * out_stride] = sig;
    }
}

/// Hashes `rows` rows against one sub-vector's hyperplanes:
/// `out[r * out_stride]` becomes the sign signature of
/// `x[r * x_stride..][..cols]`.
///
/// `planes` holds the hyperplanes in `chunks` 8-lane chunks, chunk-major:
/// `planes[(c * cols + col) * 8 + l]` is component `col` of hyperplane
/// `8·c + l`. A hash count that is not a multiple of 8 is padded with zero
/// hyperplanes, whose projections are exactly `0.0` (or NaN for a
/// non-finite input) and therefore contribute no bit. Explicit row strides
/// let callers hash a column window of a wider matrix, and interleave
/// several sub-vectors' signatures in one buffer, without copies.
///
/// # Shape
/// `x`: at least `(rows − 1) · x_stride + cols` elements; `planes`:
/// `chunks · cols · 8` elements for `chunks` in `1..=8`; `out`: more than
/// `(rows − 1) · out_stride` elements.
///
/// # Panics
/// Panics when `cols == 0` or a buffer is shorter than its shape requires.
#[allow(clippy::too_many_arguments)]
pub fn project_signs(
    x: &[f32],
    x_stride: usize,
    rows: usize,
    cols: usize,
    planes: &[f32],
    chunks: usize,
    out: &mut [u64],
    out_stride: usize,
) {
    assert!(cols > 0, "project_signs: a sub-vector has at least one column");
    assert!(
        (1..=MAX_CHUNKS).contains(&chunks) && planes.len() == chunks * cols * LANES,
        "project_signs: planes must be 1..=8 chunks of cols x 8 lanes"
    );
    if rows == 0 {
        return;
    }
    assert!(x.len() >= (rows - 1) * x_stride + cols, "project_signs: input too short");
    assert!(out.len() > (rows - 1) * out_stride, "project_signs: signature buffer too short");
    let (planes, _) = planes.as_chunks::<LANES>();
    let row = |r: usize| &x[r * x_stride..][..cols];
    let mut r = 0;
    while r + ROW_BLOCK <= rows {
        let block: [&[f32]; ROW_BLOCK] = std::array::from_fn(|i| row(r + i));
        sign_rows(block, planes, chunks, &mut out[r * out_stride..], out_stride);
        r += ROW_BLOCK;
    }
    while r < rows {
        sign_rows([row(r)], planes, chunks, &mut out[r * out_stride..], out_stride);
        r += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize, scale: f32, shift: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32).mul_add(scale, shift).sin()).collect()
    }

    /// Packs `h` hyperplanes of `cols` components (`planes[j * cols + col]`)
    /// into the kernel's zero-padded chunk-major layout.
    fn pack(planes: &[f32], h: usize, cols: usize) -> Vec<f32> {
        let chunks = h.div_ceil(LANES);
        let mut packed = vec![0.0f32; chunks * cols * LANES];
        for j in 0..h {
            for col in 0..cols {
                packed[((j / LANES) * cols + col) * LANES + j % LANES] = planes[j * cols + col];
            }
        }
        packed
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

    #[test]
    fn matches_the_scalar_loop_at_every_block_and_chunk_edge() {
        for h in [1usize, 5, 8, 9, 16, 33, 64] {
            for cols in [1usize, 3, 8, 13] {
                for rows in [1usize, 3, 4, 5, 9] {
                    // A column window of a wider matrix, signatures
                    // interleaved three to a row.
                    let (x_stride, x_off, out_stride, out_off) = (cols + 6, 2, 3, 1);
                    let x = wave(rows * x_stride, 0.37, h as f32);
                    let planes = wave(h * cols, -0.53, cols as f32);
                    let mut out = vec![u64::MAX; rows * out_stride];
                    project_signs(
                        &x[x_off..],
                        x_stride,
                        rows,
                        cols,
                        &pack(&planes, h, cols),
                        h.div_ceil(LANES),
                        &mut out[out_off..],
                        out_stride,
                    );
                    for r in 0..rows {
                        let row = &x[r * x_stride + x_off..][..cols];
                        assert_eq!(
                            out[r * out_stride + out_off],
                            reference(row, &planes, h),
                            "h={h} cols={cols} rows={rows} r={r}"
                        );
                        // Neighbouring slots belong to other sub-vectors.
                        assert_eq!(out[r * out_stride], u64::MAX);
                    }
                }
            }
        }
    }

    #[test]
    fn zero_hyperplanes_and_non_finite_inputs_set_no_bits() {
        let x = [1.0f32, f32::INFINITY, -2.0, f32::NAN, 0.5, -0.0];
        let mut out = [u64::MAX; 2];
        project_signs(&x, 3, 2, 3, &[0.0; 2 * 3 * LANES], 2, &mut out, 1);
        assert_eq!(out, [0, 0]);
    }

    #[test]
    fn zero_rows_is_a_no_op() {
        let mut out: [u64; 0] = [];
        project_signs(&[], 4, 0, 4, &[0.0; 4 * LANES], 1, &mut out, 1);
    }

    #[test]
    #[should_panic(expected = "planes must be 1..=8 chunks")]
    fn ragged_plane_table_panics() {
        let mut out = [0u64; 1];
        project_signs(&[0.0; 4], 4, 1, 4, &[0.0; 4 * LANES + 1], 1, &mut out, 1);
    }

    #[test]
    #[should_panic(expected = "input too short")]
    fn short_input_panics() {
        let mut out = [0u64; 2];
        project_signs(&[0.0; 7], 4, 2, 4, &[0.0; 4 * LANES], 1, &mut out, 1);
    }
}
