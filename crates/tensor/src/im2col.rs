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

/// [`im2col`] into a caller-owned matrix, which is reshaped (heap capacity
/// reused) and zeroed first — the arena variant the reuse layer uses so the
/// unfold of every training step after the first allocates nothing.
///
/// The zero-reset is load-bearing: `unfold_one` writes only in-bounds taps
/// and relies on padding positions already holding zero.
///
/// # Panics
/// Panics if the input tensor's spatial/channel shape disagrees with `geom`.
pub fn im2col_into(input: &Tensor4, geom: &ConvGeom, out: &mut Matrix) {
    assert_eq!(
        (input.height(), input.width(), input.channels()),
        (geom.in_h, geom.in_w, geom.in_c),
        "input tensor shape disagrees with ConvGeom"
    );
    let (oh, ow, k) = (geom.out_h(), geom.out_w(), geom.k());
    let nb = input.batch();
    let n = geom.rows_for_batch(nb);
    out.reset(n, k);
    let per_image_rows = oh * ow;
    let data = input.as_slice();
    let per_image_len = geom.in_h * geom.in_w * geom.in_c;
    // Each image's unfolded rows form a contiguous block of `out`, so the
    // batch parallelises with no synchronisation (one "row" per image).
    let threads = crate::par::memory_threads(n * k);
    crate::par::run_row_blocks(
        out.as_mut_slice(),
        per_image_rows * k,
        nb,
        threads,
        |b0, _count, chunk| {
            for (i, block) in chunk.chunks_mut(per_image_rows * k).enumerate() {
                let b = b0 + i;
                let image = &data[b * per_image_len..(b + 1) * per_image_len];
                unfold_one(image, geom, block);
            }
        },
    );
}

/// Unfolds one NHWC image into its `Oh·Ow × K` block.
fn unfold_one(image: &[f32], geom: &ConvGeom, block: &mut [f32]) {
    let (oh, ow, k) = (geom.out_h(), geom.out_w(), geom.k());
    let (ih, iw, ic) = (geom.in_h, geom.in_w, geom.in_c);
    let (kh, kw) = (geom.kernel_h, geom.kernel_w);
    let pad = geom.padding as isize;
    for oy in 0..oh {
        for ox in 0..ow {
            let row = &mut block[(oy * ow + ox) * k..(oy * ow + ox + 1) * k];
            let y0 = (oy * geom.stride) as isize - pad;
            let x0 = (ox * geom.stride) as isize - pad;
            for ki in 0..kh {
                let y = y0 + ki as isize;
                if y < 0 || y >= ih as isize {
                    continue; // padding row stays zero
                }
                let in_row = &image[y as usize * iw * ic..(y as usize + 1) * iw * ic];
                for kj in 0..kw {
                    let x = x0 + kj as isize;
                    if x < 0 || x >= iw as isize {
                        continue;
                    }
                    let pixel = &in_row[x as usize * ic..(x as usize + 1) * ic];
                    // Column layout: (c * kh + ki) * kw + kj.
                    let mut col = ki * kw + kj;
                    for &v in pixel {
                        row[col] = v;
                        col += kh * kw;
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

/// Folds one image's `Oh·Ow × K` gradient block back to NHWC, accumulating
/// overlaps.
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

    #[test]
    #[should_panic(expected = "disagrees with ConvGeom")]
    fn im2col_rejects_shape_mismatch() {
        let t = Tensor4::zeros(1, 4, 4, 1);
        let g = geom(5, 5, 1, 3, 3, 1, 0);
        im2col(&t, &g);
    }
}
