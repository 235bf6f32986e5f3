//! The im2col unfold/fold pair that turns a convolution into a GEMM.
//!
//! The paper's whole mechanism operates on the *unfolded input matrix* `x`
//! (N × K, with `N = Nb·Ow·Oh` and `K = Ic·kh·kw`). The column layout here is
//! **channel-major, then kernel-row, then kernel-column**:
//!
//! ```text
//! col(c, ki, kj) = (c * kh + ki) * kw + kj
//! ```
//!
//! so a run of `kw` consecutive columns is one kernel-row of one channel.
//! This makes the paper's neuron-vector granularities natural column slices:
//! Policy 1's `Lmin = kw` is one kernel row, and the default granularity
//! ("the channel size") is a whole per-channel block of `kh·kw` columns.
//!
//! The same layout makes the stride-1 unfold a slide: the receptive field of
//! output pixel `(oy, ox + 1)` is that of `(oy, ox)` moved one input column
//! right, so its row is the left neighbour's row shifted left by one element
//! — every `kw`-run moves along by one tap — plus the kernel's new
//! right-hand column `kj = kw − 1`. `im2col_into` writes every element
//! itself (padding taps as `+0.0`) and needs no zero-filled buffer.

use crate::matrix::Matrix;
use crate::tensor4::Tensor4;

/// Static geometry of one convolutional layer.
///
/// Captures everything needed to unfold inputs and fold gradients back:
/// input shape, kernel shape, stride and symmetric zero padding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input height `Ih`.
    pub in_h: usize,
    /// Input width `Iw`.
    pub in_w: usize,
    /// Input channels `Ic`.
    pub in_c: usize,
    /// Kernel height `kh`.
    pub kernel_h: usize,
    /// Kernel width `kw`.
    pub kernel_w: usize,
    /// Stride `s` (same in both spatial dimensions).
    pub stride: usize,
    /// Symmetric zero padding on each spatial border.
    pub padding: usize,
}

impl ConvGeom {
    /// Creates a geometry, validating that at least one output pixel exists.
    ///
    /// Returns `None` when the kernel (after padding) does not fit in the
    /// input or when `stride == 0`.
    ///
    /// # Shape
    /// Describes inputs of `in_h × in_w × in_c` convolved by `kernel_h ×
    /// kernel_w` kernels at stride `stride` with symmetric `padding`; the
    /// unfolded matrix is `(Oh·Ow) × (in_c·kh·kw)` per image.
    pub fn new(
        in_h: usize,
        in_w: usize,
        in_c: usize,
        kernel_h: usize,
        kernel_w: usize,
        stride: usize,
        padding: usize,
    ) -> Option<Self> {
        if stride == 0 || kernel_h == 0 || kernel_w == 0 || in_c == 0 {
            return None;
        }
        let geom = Self { in_h, in_w, in_c, kernel_h, kernel_w, stride, padding };
        (in_h + 2 * padding >= kernel_h && in_w + 2 * padding >= kernel_w).then_some(geom)
    }

    /// Output height `Oh`.
    #[inline]
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.kernel_h) / self.stride + 1
    }

    /// Output width `Ow`.
    #[inline]
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.kernel_w) / self.stride + 1
    }

    /// The paper's `K = Ic · kh · kw` — one unfolded row's length.
    #[inline]
    pub fn k(&self) -> usize {
        self.in_c * self.kernel_h * self.kernel_w
    }

    /// Unfolded rows per image, `Nimg = Ow · Oh`.
    #[inline]
    pub fn rows_per_image(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Unfolded rows for a batch of `nb` images, the paper's `N`.
    #[inline]
    pub fn rows_for_batch(&self, nb: usize) -> usize {
        nb * self.rows_per_image()
    }
}

/// Unfolds an NHWC input batch into the paper's `N × K` matrix.
///
/// Row `((b · Oh + oy) · Ow + ox)` holds the receptive field of output pixel
/// `(oy, ox)` of image `b`; out-of-bounds (padding) taps read as zero.
///
/// # Panics
/// Panics if the input tensor's spatial/channel shape disagrees with `geom`.
pub fn im2col(input: &Tensor4, geom: &ConvGeom) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    im2col_into(input, geom, &mut out);
    out
}

/// [`im2col`] into a caller-owned matrix, which is reshaped with its heap
/// capacity reused — the arena variant the layers use so the unfold of
/// every training step after the first allocates nothing.
///
/// `out` is not zeroed first: every element is written, padding taps as
/// `+0.0`, so whatever the buffer held before (a larger or smaller shape,
/// NaN) cannot show. At stride 1 each row after the first of an output
/// line is its left neighbour shifted by one column plus the kernel's new
/// right-hand column (module docs).
///
/// # Panics
/// Panics if the input tensor's spatial/channel shape disagrees with `geom`.
pub fn im2col_into(input: &Tensor4, geom: &ConvGeom, out: &mut Matrix) {
    out.resize_for_overwrite(geom.rows_for_batch(input.batch()), geom.k());
    unfold_into(input, geom, out.as_mut_slice());
}

/// [`im2col`] into a caller-owned row-major slice of exactly `N · K`
/// elements — for a scratch buffer that is longer than any one layer's
/// matrix and lends each unfold a prefix of itself. Every element is
/// written, as by [`im2col_into`].
///
/// # Panics
/// Panics if the input tensor's spatial/channel shape disagrees with `geom`,
/// or if `out.len()` is not `rows_for_batch(batch) · K`.
pub fn unfold_into(input: &Tensor4, geom: &ConvGeom, out: &mut [f32]) {
    assert_eq!(
        (input.height(), input.width(), input.channels()),
        (geom.in_h, geom.in_w, geom.in_c),
        "input tensor shape disagrees with ConvGeom"
    );
    let (oh, ow, k) = (geom.out_h(), geom.out_w(), geom.k());
    let nb = input.batch();
    let n = geom.rows_for_batch(nb);
    assert_eq!(out.len(), n * k, "unfold buffer length disagrees with ConvGeom/batch");
    let per_image_rows = oh * ow;
    let data = input.as_slice();
    let per_image_len = geom.in_h * geom.in_w * geom.in_c;
    // Each image's unfolded rows form a contiguous block of `out`, so the
    // batch parallelises with no synchronisation (one "row" per image).
    // A block is whole images and starts at `ox = 0`: no row slides from a
    // neighbour another worker writes.
    let threads = crate::par::memory_threads(n * k);
    crate::par::run_row_blocks(out, per_image_rows * k, nb, threads, |b0, _count, chunk| {
        for (i, block) in chunk.chunks_mut(per_image_rows * k).enumerate() {
            let b = b0 + i;
            let image = &data[b * per_image_len..(b + 1) * per_image_len];
            unfold_one(image, geom, block);
        }
    });
}

/// Unfolds one NHWC image into its `Oh·Ow × K` block, writing every
/// element: padding taps are stored as `+0.0`, so `block` may hold anything.
///
/// At stride 1 with `kw > 1`, row `(oy, ox + 1)` is row `(oy, ox)` one
/// input column further right: tap `(c, ki, kj)` of the new row is tap
/// `(c, ki, kj + 1)` of its left neighbour. One copy shifts the neighbour
/// left by one element, which moves every `kw`-run of the channel-major
/// layout along by one tap, and the loop then writes only the kernel's new
/// right-hand column `kj = kw − 1` (`ic · kh` stores instead of
/// `ic · kh · kw`). The elements the shift carries across a run boundary
/// are exactly that column, so every one is overwritten. The first row of
/// each output line, every row at stride > 1 and every row of a `kw = 1`
/// kernel start the same loop at `kj = 0`.
fn unfold_one(image: &[f32], geom: &ConvGeom, block: &mut [f32]) {
    let (oh, ow, k) = (geom.out_h(), geom.out_w(), geom.k());
    let (ih, iw, ic) = (geom.in_h, geom.in_w, geom.in_c);
    let (kh, kw) = (geom.kernel_h, geom.kernel_w);
    let pad = geom.padding as isize;
    let slides = geom.stride == 1 && kw > 1;
    for oy in 0..oh {
        let y0 = (oy * geom.stride) as isize - pad;
        for ox in 0..ow {
            let (done, rest) = block.split_at_mut((oy * ow + ox) * k);
            let row = &mut rest[..k];
            let first_kj = if slides && ox > 0 {
                row[..k - 1].copy_from_slice(&done[done.len() - k + 1..]);
                kw - 1
            } else {
                0
            };
            let x0 = (ox * geom.stride) as isize - pad;
            for ki in 0..kh {
                let y = y0 + ki as isize;
                let in_row = (0..ih as isize)
                    .contains(&y)
                    .then(|| &image[y as usize * iw * ic..(y as usize + 1) * iw * ic]);
                for kj in first_kj..kw {
                    let x = x0 + kj as isize;
                    // Column layout: (c * kh + ki) * kw + kj.
                    let mut col = ki * kw + kj;
                    match in_row.filter(|_| (0..iw as isize).contains(&x)) {
                        Some(in_row) => {
                            for &v in &in_row[x as usize * ic..(x as usize + 1) * ic] {
                                row[col] = v;
                                col += kh * kw;
                            }
                        }
                        None => {
                            for _ in 0..ic {
                                row[col] = 0.0;
                                col += kh * kw;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Folds an `N × K` gradient matrix back to NHWC input space (the adjoint of
/// [`im2col`]): overlapping receptive fields accumulate by summation and
/// padding taps are dropped.
///
/// # Panics
/// Panics if `cols.shape() != (rows_for_batch(nb), K)`.
pub fn col2im(cols: &Matrix, geom: &ConvGeom, batch: usize) -> Tensor4 {
    assert_eq!(
        cols.shape(),
        (geom.rows_for_batch(batch), geom.k()),
        "col matrix shape disagrees with ConvGeom/batch"
    );
    let mut out = Tensor4::zeros(batch, geom.in_h, geom.in_w, geom.in_c);
    let per_image_rows = geom.rows_per_image();
    let per_image_len = geom.in_h * geom.in_w * geom.in_c;
    let k = geom.k();
    // Image `b`'s gradients fold only into image `b`'s slice of the output,
    // so the batch parallelises with no synchronisation (one "row" per image).
    let threads = crate::par::memory_threads(cols.rows() * k);
    let cols_data = cols.as_slice();
    crate::par::run_row_blocks(
        out.as_mut_slice(),
        per_image_len,
        batch,
        threads,
        |b0, _count, chunk| {
            for (i, image) in chunk.chunks_mut(per_image_len).enumerate() {
                let b = b0 + i;
                let block = &cols_data[b * per_image_rows * k..(b + 1) * per_image_rows * k];
                fold_one(block, geom, image);
            }
        },
    );
    out
}

/// [`col2im`] of an `N × K` matrix that is never stored: `gather(r, row)`
/// writes row `r` into a `K`-wide slice. The fan-out hands each block whole
/// images and one image's worth of rows (`Oh·Ow × K`) of `scratch`; a block
/// gathers an image's rows in ascending order and then folds them with
/// `col2im`'s own loop, so the result is bit for bit `col2im` of the
/// gathered matrix at every worker count. Whatever `scratch` held before
/// cannot show: every row is gathered before it is folded.
///
/// Gathering a whole image before folding it reads faster than gathering
/// and folding one row at a time (the two loops each run back to back).
///
/// # Panics
/// Panics if `scratch` is shorter than `N · K` elements (it needs one
/// image's rows per block, and there are never more blocks than images).
pub fn col2im_gathered<F>(geom: &ConvGeom, batch: usize, scratch: &mut [f32], gather: F) -> Tensor4
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let (per_image_rows, k) = (geom.rows_per_image(), geom.k());
    assert!(
        scratch.len() >= geom.rows_for_batch(batch) * k,
        "col2im_gathered: scratch holds fewer than N x K elements"
    );
    let mut out = Tensor4::zeros(batch, geom.in_h, geom.in_w, geom.in_c);
    let per_image_len = geom.in_h * geom.in_w * geom.in_c;
    // The same split as `col2im`: whole images, sized by the elements moved.
    let threads = crate::par::memory_threads(geom.rows_for_batch(batch) * k).clamp(1, batch.max(1));
    let per_block = batch.div_ceil(threads).max(1);
    let images = out.as_mut_slice().chunks_mut((per_block * per_image_len).max(1));
    let rows = scratch.chunks_mut((per_image_rows * k).max(1));
    crate::par::run_blocks(images.zip(rows).enumerate(), |(i, (chunk, rows))| {
        for (j, image) in chunk.chunks_mut(per_image_len).enumerate() {
            let first = (i * per_block + j) * per_image_rows;
            for (r, row) in (first..).zip(rows.chunks_exact_mut(k)) {
                gather(r, row);
            }
            fold_one(rows, geom, image);
        }
    });
    out
}

/// Folds one image's `Oh·Ow × K` gradient block back to NHWC, accumulating
/// overlaps. Inlined, so `col2im` and `col2im_gathered` each keep the loop
/// in their own body.
#[inline]
fn fold_one(block: &[f32], geom: &ConvGeom, image: &mut [f32]) {
    let (oh, ow, k) = (geom.out_h(), geom.out_w(), geom.k());
    let (ih, iw, ic) = (geom.in_h, geom.in_w, geom.in_c);
    let (kh, kw) = (geom.kernel_h, geom.kernel_w);
    let pad = geom.padding as isize;
    for oy in 0..oh {
        for ox in 0..ow {
            let row = &block[(oy * ow + ox) * k..(oy * ow + ox + 1) * k];
            let y0 = (oy * geom.stride) as isize - pad;
            let x0 = (ox * geom.stride) as isize - pad;
            for ki in 0..kh {
                let y = y0 + ki as isize;
                if y < 0 || y >= ih as isize {
                    continue;
                }
                let out_row = &mut image[y as usize * iw * ic..(y as usize + 1) * iw * ic];
                for kj in 0..kw {
                    let x = x0 + kj as isize;
                    if x < 0 || x >= iw as isize {
                        continue;
                    }
                    let pixel = &mut out_row[x as usize * ic..(x as usize + 1) * ic];
                    let mut col = ki * kw + kj;
                    for p in pixel {
                        *p += row[col];
                        col += kh * kw;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(h: usize, w: usize, c: usize, kh: usize, kw: usize, s: usize, p: usize) -> ConvGeom {
        ConvGeom::new(h, w, c, kh, kw, s, p).expect("valid geometry")
    }

    #[test]
    fn output_dims_match_paper_formula_stride1_nopad() {
        // Paper: N = Nb·(Iw−kw+1)·(Ih−kh+1) for s = 1.
        let g = geom(32, 32, 3, 5, 5, 1, 0);
        assert_eq!(g.out_h(), 28);
        assert_eq!(g.out_w(), 28);
        assert_eq!(g.k(), 75); // CifarNet conv1: 3·5·5 (Table II lower bound)
        assert_eq!(g.rows_for_batch(4), 4 * 28 * 28);
    }

    #[test]
    fn geometry_rejects_degenerate_configs() {
        assert!(ConvGeom::new(4, 4, 1, 5, 5, 1, 0).is_none());
        assert!(ConvGeom::new(4, 4, 1, 3, 3, 0, 0).is_none());
        assert!(ConvGeom::new(4, 4, 0, 3, 3, 1, 0).is_none());
        assert!(ConvGeom::new(4, 4, 1, 5, 5, 1, 1).is_some()); // padding rescues fit
    }

    #[test]
    fn im2col_1x1_kernel_is_pixel_list() {
        let t = Tensor4::from_fn(1, 2, 2, 3, |_, y, x, c| (y * 100 + x * 10 + c) as f32);
        let g = geom(2, 2, 3, 1, 1, 1, 0);
        let m = im2col(&t, &g);
        assert_eq!(m.shape(), (4, 3));
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(m.row(3), &[110.0, 111.0, 112.0]);
    }

    #[test]
    fn im2col_layout_groups_kernel_rows_per_channel() {
        // 3x3 input, single image, 2 channels, 2x2 kernel.
        let t = Tensor4::from_fn(1, 3, 3, 2, |_, y, x, c| (c * 100 + y * 10 + x) as f32);
        let g = geom(3, 3, 2, 2, 2, 1, 0);
        let m = im2col(&t, &g);
        assert_eq!(m.shape(), (4, 8));
        // Row for output (0,0): channel 0 rows [00,01],[10,11] then channel 1.
        assert_eq!(m.row(0), &[0.0, 1.0, 10.0, 11.0, 100.0, 101.0, 110.0, 111.0]);
        // Row for output (1,1): window shifted by (1,1).
        assert_eq!(m.row(3), &[11.0, 12.0, 21.0, 22.0, 111.0, 112.0, 121.0, 122.0]);
    }

    #[test]
    fn padding_taps_read_zero() {
        let t = Tensor4::from_fn(1, 2, 2, 1, |_, y, x, _| (y * 2 + x + 1) as f32);
        let g = geom(2, 2, 1, 3, 3, 1, 1);
        let m = im2col(&t, &g);
        assert_eq!(m.shape(), (4, 9));
        // Output (0,0) window is centred at input (0,0): top row and left col padded.
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 4.0]);
    }

    #[test]
    fn stride_skips_positions() {
        let t = Tensor4::from_fn(1, 4, 4, 1, |_, y, x, _| (y * 4 + x) as f32);
        let g = geom(4, 4, 1, 2, 2, 2, 0);
        let m = im2col(&t, &g);
        assert_eq!(m.shape(), (4, 4));
        assert_eq!(m.row(0), &[0.0, 1.0, 4.0, 5.0]);
        assert_eq!(m.row(1), &[2.0, 3.0, 6.0, 7.0]);
        assert_eq!(m.row(2), &[8.0, 9.0, 12.0, 13.0]);
    }

    #[test]
    fn col2im_counts_overlaps() {
        // All-ones col matrix: each input pixel receives one contribution per
        // receptive field covering it.
        let g = geom(3, 3, 1, 2, 2, 1, 0);
        let cols = Matrix::filled(g.rows_for_batch(1), g.k(), 1.0);
        let t = col2im(&cols, &g, 1);
        // Corner pixels covered once, edges twice, centre four times.
        assert_eq!(t.get(0, 0, 0, 0), 1.0);
        assert_eq!(t.get(0, 0, 1, 0), 2.0);
        assert_eq!(t.get(0, 1, 1, 0), 4.0);
    }

    #[test]
    fn im2col_col2im_adjointness() {
        // <im2col(x), y> == <x, col2im(y)> for the pair to be valid
        // forward/backward operators.
        let g = geom(5, 4, 2, 3, 2, 1, 1);
        let x = Tensor4::from_fn(2, 5, 4, 2, |n, y, xx, c| {
            ((n * 97 + y * 31 + xx * 7 + c * 3) % 13) as f32 - 6.0
        });
        let unf = im2col(&x, &g);
        let ymat =
            Matrix::from_fn(unf.rows(), unf.cols(), |r, c| ((r * 5 + c * 11) % 7) as f32 - 3.0);
        let lhs: f32 = unf.as_slice().iter().zip(ymat.as_slice().iter()).map(|(a, b)| a * b).sum();
        let folded = col2im(&ymat, &g, 2);
        let rhs: f32 = x.as_slice().iter().zip(folded.as_slice().iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0), "lhs={lhs} rhs={rhs}");
    }

    /// The unfold by its definition, one element at a time: column
    /// `(c·kh + ki)·kw + kj` of row `(b, oy, ox)` is input pixel
    /// `(oy·s + ki − p, ox·s + kj − p)` of channel `c`, or `+0.0` in padding.
    fn unfold_by_definition(input: &Tensor4, g: &ConvGeom) -> Vec<f32> {
        let mut out = Vec::new();
        for b in 0..input.batch() {
            for oy in 0..g.out_h() {
                for ox in 0..g.out_w() {
                    for c in 0..g.in_c {
                        for ki in 0..g.kernel_h {
                            for kj in 0..g.kernel_w {
                                let y = (oy * g.stride + ki).checked_sub(g.padding);
                                let x = (ox * g.stride + kj).checked_sub(g.padding);
                                out.push(match (y, x) {
                                    (Some(y), Some(x)) if y < g.in_h && x < g.in_w => {
                                        input.get(b, y, x, c)
                                    }
                                    _ => 0.0,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Smallest input extent ≥ 1 with `out` output positions, if one exists.
    fn extent_for(out: usize, kernel: usize, stride: usize, padding: usize) -> Option<usize> {
        let extent = ((out - 1) * stride + kernel).checked_sub(2 * padding)?.max(1);
        ((extent + 2 * padding).checked_sub(kernel)? / stride + 1 == out).then_some(extent)
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
        }
    }

    #[test]
    fn unfold_matches_its_definition_bit_for_bit_on_dirty_buffers() {
        let kernels = [(1, 1), (1, 3), (3, 1), (2, 2), (3, 3), (5, 5)];
        let mut cases = 0;
        for stride in 1..=3 {
            for padding in 0..=2 {
                for (kh, kw) in kernels {
                    for ic in [1, 3, 16] {
                        for ow in [1, 2, 5, 7] {
                            let (Some(ih), Some(iw)) = (
                                extent_for(3, kh, stride, padding),
                                extent_for(ow, kw, stride, padding),
                            ) else {
                                continue;
                            };
                            for nb in [1, 3] {
                                let g = geom(ih, iw, ic, kh, kw, stride, padding);
                                // NaN, ±inf and −0.0 among the pixels: a copy
                                // keeps their bits, a padding tap is +0.0.
                                let input = Tensor4::from_fn(nb, ih, iw, ic, |n, y, x, c| {
                                    match (n * 131 + y * 31 + x * 7 + c * 3) % 29 {
                                        0 => f32::NAN,
                                        1 => f32::INFINITY,
                                        2 => f32::NEG_INFINITY,
                                        3 => -0.0,
                                        v => (v as f32 - 14.0) * 0.25,
                                    }
                                });
                                let what = format!(
                                    "s={stride} p={padding} k={kh}x{kw} ic={ic} {ih}x{iw} nb={nb}"
                                );
                                let want = unfold_by_definition(&input, &g);
                                let fresh = im2col(&input, &g);
                                assert_eq!(fresh.shape(), (g.rows_for_batch(nb), g.k()), "{what}");
                                assert_bits_eq(fresh.as_slice(), &want, &what);
                                let n = g.rows_for_batch(nb);
                                for (rows, cols) in [(n + 3, g.k() + 1), (n.div_ceil(2), g.k())] {
                                    let mut dirty = Matrix::filled(rows, cols, f32::NAN);
                                    im2col_into(&input, &g, &mut dirty);
                                    assert_eq!(dirty.shape(), fresh.shape(), "{what}");
                                    assert_bits_eq(
                                        dirty.as_slice(),
                                        fresh.as_slice(),
                                        &format!("{what}, into NaN {rows}x{cols}"),
                                    );
                                }
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        // `extent_for` skips the widths a geometry cannot reach; the grid
        // must not be silently emptied by it (1 074 cases today).
        assert!(cases > 1000, "{cases} cases");
    }

    /// The gathered fold is `col2im` of the gathered matrix, bit for bit,
    /// whatever its scratch held before (NaN, longer than `N · K`).
    #[test]
    fn gathered_fold_is_col2im_of_the_gathered_rows() {
        for stride in 1..=2 {
            for padding in 0..=2 {
                for kernel in [1, 3, 5] {
                    let Some(g) = ConvGeom::new(6, 5, 3, kernel, kernel, stride, padding) else {
                        continue;
                    };
                    for batch in 1..=3 {
                        let cols = Matrix::from_fn(g.rows_for_batch(batch), g.k(), |r, c| {
                            ((r * 37 + c * 11) % 23) as f32 * 0.125 - 1.375
                        });
                        let mut scratch = vec![f32::NAN; cols.as_slice().len() + 5];
                        let got = col2im_gathered(&g, batch, &mut scratch, |r, row| {
                            row.copy_from_slice(cols.row(r));
                        });
                        let what = format!("s={stride} p={padding} k={kernel} nb={batch}");
                        let want = col2im(&cols, &g, batch);
                        assert_bits_eq(got.as_slice(), want.as_slice(), &what);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "disagrees with ConvGeom")]
    fn im2col_rejects_shape_mismatch() {
        let t = Tensor4::zeros(1, 4, 4, 1);
        let g = geom(5, 5, 1, 3, 3, 1, 0);
        im2col(&t, &g);
    }
}
