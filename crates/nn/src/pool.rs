//! Spatial max pooling.

use adr_tensor::Tensor4;

use crate::layer::{Layer, Mode, Shape3};

/// A 2-D max-pooling layer with square window and stride; backward routes
/// each output's gradient to its window's argmax.
pub struct Pool2d {
    name: String,
    window: usize,
    stride: usize,
    /// Flat input index chosen per output element (`u32`: the forward pass
    /// checks the input has fewer than 2³² elements).
    argmax: Vec<u32>,
    in_shape: Shape3,
    batch: usize,
}

impl Pool2d {
    /// Creates a max-pooling layer.
    ///
    /// # Shape
    /// Pools `window × window` patches at stride `stride`, mapping
    /// `n × h × w × c` to `n × ⌊(h−window)/stride+1⌋ ×
    /// ⌊(w−window)/stride+1⌋ × c`.
    ///
    /// # Panics
    /// Panics if `window == 0 || stride == 0`.
    pub fn max(name: impl Into<String>, window: usize, stride: usize) -> Self {
        assert!(window > 0 && stride > 0, "pool window/stride must be positive");
        Self {
            name: name.into(),
            window,
            stride,
            argmax: Vec::new(),
            in_shape: (0, 0, 0),
            batch: 0,
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h >= self.window && w >= self.window,
            "pool {}: window {} does not fit input {}x{}",
            self.name,
            self.window,
            h,
            w
        );
        ((h - self.window) / self.stride + 1, (w - self.window) / self.stride + 1)
    }
}

impl Layer for Pool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn output_shape(&self, input: Shape3) -> Shape3 {
        let (oh, ow) = self.out_hw(input.0, input.1);
        (oh, ow, input.2)
    }

    fn forward(&mut self, input: &Tensor4, _mode: Mode) -> Tensor4 {
        let (n, h, w, c) = input.shape();
        let (oh, ow) = self.out_hw(h, w);
        self.in_shape = (h, w, c);
        self.batch = n;
        let mut out = Tensor4::zeros(n, oh, ow, c);
        self.argmax.clear();
        self.argmax.resize(n * oh * ow * c, 0);
        let x = input.as_slice();
        assert!(
            u32::try_from(x.len()).is_ok(),
            "pool {}: input too large for 32-bit argmax indices",
            self.name
        );
        // Per output pixel, the window is swept tap by tap with the channel
        // loop innermost: NHWC keeps a tap's channels contiguous, and the
        // output row with its argmax row is the running state.
        for (pixel, out_row) in out.as_mut_slice().chunks_exact_mut(c.max(1)).enumerate() {
            let (b, oy, ox) = (pixel / (oh * ow), pixel / ow % oh, pixel % ow);
            let taps = (0..self.window * self.window).map(|t| {
                let (ky, kx) = (t / self.window, t % self.window);
                input.offset(b, oy * self.stride + ky, ox * self.stride + kx, 0)
            });
            // The first maximum in (ky, kx) order wins (strict `>`);
            // a window with nothing above -inf keeps index 0.
            let idx_row = &mut self.argmax[pixel * c..(pixel + 1) * c];
            out_row.fill(f32::NEG_INFINITY);
            for base in taps {
                let tap = out_row.iter_mut().zip(idx_row.iter_mut()).zip(&x[base..base + c]);
                // `base + c <= x.len()` fits u32 (asserted above).
                #[allow(clippy::cast_possible_truncation)]
                for (at, ((best, idx), &v)) in (base as u32..).zip(tap) {
                    // A bit-mask blend, not `if take { v } else { *best }`:
                    // LLVM turns a select that keeps the old value
                    // into one conditional store per lane (pool1,
                    // 16×16×16×64, 3×3/2: 1.33 ms against 0.11 ms; the
                    // per-output scan this replaces took 0.38 ms).
                    let mask = u32::from(v > *best).wrapping_neg();
                    *best = f32::from_bits((v.to_bits() & mask) | (best.to_bits() & !mask));
                    *idx = (at & mask) | (*idx & !mask);
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let (h, w, c) = self.in_shape;
        let mut grad_in = Tensor4::zeros(self.batch, h, w, c);
        assert_eq!(
            grad_out.len(),
            self.argmax.len(),
            "pool {}: backward shape mismatch",
            self.name
        );
        for (out_idx, &g) in grad_out.as_slice().iter().enumerate() {
            grad_in.as_mut_slice()[self.argmax[out_idx] as usize] += g;
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_picks_maxima() {
        let mut pool = Pool2d::max("p", 2, 2);
        let x = Tensor4::from_vec(1, 2, 2, 1, vec![1.0, 5.0, 3.0, 2.0]).unwrap();
        let y = pool.forward(&x, Mode::Train);
        assert_eq!(y.shape(), (1, 1, 1, 1));
        assert_eq!(y.as_slice(), &[5.0]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let mut pool = Pool2d::max("p", 2, 2);
        let x = Tensor4::from_vec(1, 2, 2, 1, vec![1.0, 5.0, 3.0, 2.0]).unwrap();
        pool.forward(&x, Mode::Train);
        let g = Tensor4::from_vec(1, 1, 1, 1, vec![7.0]).unwrap();
        let gx = pool.backward(&g);
        assert_eq!(gx.as_slice(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn overlapping_windows_accumulate_gradient() {
        // 3x3 input, 2x2 window, stride 1: centre pixel is in all 4 windows.
        let mut pool = Pool2d::max("p", 2, 1);
        // Make centre the max of every window.
        let x =
            Tensor4::from_fn(1, 3, 3, 1, |_, y, xx, _| if (y, xx) == (1, 1) { 9.0 } else { 0.0 });
        pool.forward(&x, Mode::Train);
        let g = Tensor4::from_vec(1, 2, 2, 1, vec![1.0; 4]).unwrap();
        let gx = pool.backward(&g);
        assert_eq!(gx.get(0, 1, 1, 0), 4.0);
    }

    #[test]
    fn channels_pool_independently() {
        let mut pool = Pool2d::max("p", 2, 2);
        let x = Tensor4::from_fn(1, 2, 2, 2, |_, y, xx, c| {
            if c == 0 {
                (y * 2 + xx) as f32
            } else {
                -(y as f32 * 2.0 + xx as f32)
            }
        });
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.get(0, 0, 0, 0), 3.0);
        assert_eq!(y.get(0, 0, 0, 1), 0.0);
    }

    /// The per-output-element window scan `forward` used before the window
    /// sweep moved the channel loop inside: `(output, argmax)`.
    fn scan_per_element(pool: &Pool2d, input: &Tensor4) -> (Tensor4, Vec<u32>) {
        let (n, h, w, c) = input.shape();
        let (oh, ow) = pool.out_hw(h, w);
        let mut out = Tensor4::zeros(n, oh, ow, c);
        let mut argmax = vec![0u32; n * oh * ow * c];
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    for ch in 0..c {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for ky in 0..pool.window {
                            for kx in 0..pool.window {
                                let (y, x) = (oy * pool.stride + ky, ox * pool.stride + kx);
                                let idx = input.offset(b, y, x, ch);
                                let v = input.as_slice()[idx];
                                if v > best {
                                    best = v;
                                    best_idx = idx;
                                }
                            }
                        }
                        let out_idx = out.offset(b, oy, ox, ch);
                        out.as_mut_slice()[out_idx] = best;
                        argmax[out_idx] = u32::try_from(best_idx).unwrap();
                    }
                }
            }
        }
        (out, argmax)
    }

    /// Output bits, argmax indices (tie-break: first maximum in `(ky, kx)`
    /// order) and the all-NaN / all-`-inf` window results must equal the
    /// per-element scan, at 3×3/2 and 2×2/2.
    #[test]
    fn forward_matches_the_per_element_scan_bitwise() {
        let mut rng = adr_tensor::rng::AdrRng::seeded(17);
        let nan = f32::NAN;
        let ninf = f32::NEG_INFINITY;
        // Random, heavily tied (three levels), and two poisoned inputs: one
        // with scattered NaN / -inf, one where whole windows are NaN or -inf.
        let random = Tensor4::from_fn(2, 7, 9, 5, |_, _, _, _| rng.gauss());
        let tied = Tensor4::from_fn(2, 7, 9, 5, |_, _, _, _| (rng.next_u64() % 3) as f32 - 1.0);
        let sprinkled = Tensor4::from_fn(2, 7, 9, 5, |_, _, _, _| match rng.next_u64() % 4 {
            0 => nan,
            1 => ninf,
            _ => rng.gauss(),
        });
        let blanked = Tensor4::from_fn(2, 7, 9, 5, |_, y, x, c| match (y < 3 && x < 3, c % 2) {
            (true, 0) => nan,
            (true, _) => ninf,
            _ => rng.gauss(),
        });
        let bits = |t: &Tensor4| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (what, input) in
            [("random", &random), ("tied", &tied), ("sprinkled", &sprinkled), ("blanked", &blanked)]
        {
            for (window, stride) in [(3, 2), (2, 2)] {
                let mut pool = Pool2d::max("p", window, stride);
                let (want, want_argmax) = scan_per_element(&pool, input);
                let got = pool.forward(input, Mode::Train);
                let case = format!("{what} {window}x{window}/{stride}");
                assert_eq!(got.shape(), want.shape(), "{case}");
                assert_eq!(bits(&got), bits(&want), "{case}");
                assert_eq!(pool.argmax, want_argmax, "{case}");
            }
        }
        // A fully NaN window yields -inf at index 0, as the scan always did.
        let mut pool = Pool2d::max("p", 3, 2);
        let y = pool.forward(&blanked, Mode::Train);
        assert_eq!((y.get(0, 0, 0, 0), pool.argmax[0]), (ninf, 0));
    }

    #[test]
    fn output_shape_matches_formula() {
        let pool = Pool2d::max("p", 3, 2);
        assert_eq!(pool.output_shape((7, 9, 4)), (3, 4, 4));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn window_larger_than_input_panics() {
        let pool = Pool2d::max("p", 5, 1);
        pool.output_shape((4, 4, 1));
    }
}
