//! Local response normalisation (AlexNet-style, across channels).
//!
//! `b_i = a_i / (k + (α/n)·Σ_{j∈N(i)} a_j²)^β`, where `N(i)` is a window of
//! `n = 2r+1` channels centred on `i` (clamped at the borders).

use adr_tensor::Tensor4;

use crate::layer::{Layer, Mode, Shape3};

/// Cross-channel local response normalisation.
pub struct Lrn {
    name: String,
    radius: usize,
    alpha: f32,
    beta: f32,
    k: f32,
    cached_input: Option<Tensor4>,
    /// Cached denominators `s_i` from the latest training forward.
    cached_scale: Vec<f32>,
}

impl Lrn {
    /// Creates an LRN layer with the given depth radius and constants.
    ///
    /// AlexNet's published values are `radius=2, alpha=1e-4, beta=0.75, k=2`.
    pub fn new(name: impl Into<String>, radius: usize, alpha: f32, beta: f32, k: f32) -> Self {
        Self {
            name: name.into(),
            radius,
            alpha,
            beta,
            k,
            cached_input: None,
            cached_scale: Vec::new(),
        }
    }

    /// AlexNet defaults.
    pub fn alexnet(name: impl Into<String>) -> Self {
        Self::new(name, 2, 1e-4, 0.75, 2.0)
    }

    fn window_size(&self) -> f32 {
        (2 * self.radius + 1) as f32
    }
}

impl Layer for Lrn {
    fn name(&self) -> &str {
        &self.name
    }

    fn output_shape(&self, input: Shape3) -> Shape3 {
        input
    }

    fn forward(&mut self, input: &Tensor4, mode: Mode) -> Tensor4 {
        let (n, h, w, c) = input.shape();
        let mut out = input.clone();
        let mut scale = vec![0.0f32; input.len()];
        let coeff = self.alpha / self.window_size();
        let a = input.as_slice();
        for b in 0..n {
            for y in 0..h {
                for x in 0..w {
                    let base = input.offset(b, y, x, 0);
                    for ch in 0..c {
                        let lo = ch.saturating_sub(self.radius);
                        let hi = (ch + self.radius).min(c - 1);
                        let mut sq = 0.0f32;
                        for j in lo..=hi {
                            let v = a[base + j];
                            sq += v * v;
                        }
                        let s = self.k + coeff * sq;
                        scale[base + ch] = s;
                        out.as_mut_slice()[base + ch] = a[base + ch] * s.powf(-self.beta);
                    }
                }
            }
        }
        if mode == Mode::Train {
            self.cached_input = Some(input.clone());
            self.cached_scale = scale;
        }
        out
    }

    #[expect(
        clippy::expect_used,
        reason = "layer-protocol: backward before a training forward is a training-loop bug (`Layer` contract)"
    )]
    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let input =
            self.cached_input.take().expect("backward called without a preceding training forward");
        let (n, h, w, c) = input.shape();
        assert_eq!(grad_out.shape(), input.shape(), "lrn {}: backward shape mismatch", self.name);
        let a = input.as_slice();
        let g = grad_out.as_slice();
        let s = &self.cached_scale;
        let mut grad_in = Tensor4::zeros(n, h, w, c);
        let coeff = 2.0 * self.alpha * self.beta / self.window_size();
        for b in 0..n {
            for y in 0..h {
                for x in 0..w {
                    let base = input.offset(b, y, x, 0);
                    // Precompute t_i = g_i · a_i · s_i^{-β-1} per channel.
                    let t: Vec<f32> = (0..c)
                        .map(|i| g[base + i] * a[base + i] * s[base + i].powf(-self.beta - 1.0))
                        .collect();
                    for m in 0..c {
                        let lo = m.saturating_sub(self.radius);
                        let hi = (m + self.radius).min(c - 1);
                        // i ranges over outputs whose window contains m.
                        let cross: f32 = t[lo..=hi].iter().sum();
                        grad_in.as_mut_slice()[base + m] = g[base + m]
                            * s[base + m].powf(-self.beta)
                            - coeff * a[base + m] * cross;
                    }
                }
            }
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_preserves_shape_and_shrinks_large_activations() {
        let mut lrn = Lrn::new("lrn", 1, 1.0, 0.5, 1.0);
        let x = Tensor4::from_vec(1, 1, 1, 4, vec![1.0, 10.0, 1.0, 0.0]).unwrap();
        let y = lrn.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), x.shape());
        // Channel 1 sits in a high-energy window and is damped below raw value.
        assert!(y.as_slice()[1] < 10.0);
        // A zero activation stays zero.
        assert_eq!(y.as_slice()[3], 0.0);
    }

    #[test]
    fn unit_constants_identity_when_alpha_zero() {
        let mut lrn = Lrn::new("lrn", 2, 0.0, 0.75, 1.0);
        let x = Tensor4::from_vec(1, 1, 1, 5, vec![1.0, -2.0, 3.0, -4.0, 5.0]).unwrap();
        let y = lrn.forward(&x, Mode::Eval);
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut lrn = Lrn::new("lrn", 1, 0.3, 0.75, 2.0);
        let x = Tensor4::from_vec(1, 1, 2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5]).unwrap();
        let y = lrn.forward(&x, Mode::Train);
        let ones = Tensor4::from_vec(1, 1, 2, 3, vec![1.0; 6]).unwrap();
        let dx = lrn.backward(&ones);
        let base: f32 = y.as_slice().iter().sum();
        let eps = 1e-3;
        for idx in 0..6 {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let yp: f32 = lrn.forward(&xp, Mode::Eval).as_slice().iter().sum();
            let numeric = (yp - base) / eps;
            assert!(
                (numeric - dx.as_slice()[idx]).abs() < 1e-2,
                "idx {idx}: numeric {numeric} vs analytic {}",
                dx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn window_clamps_at_channel_borders() {
        let mut lrn = Lrn::new("lrn", 3, 1.0, 1.0, 0.0);
        // radius wider than channel count: every window is the whole row.
        let x = Tensor4::from_vec(1, 1, 1, 2, vec![3.0, 4.0]).unwrap();
        let y = lrn.forward(&x, Mode::Eval);
        // s = (1/7)·(9+16) for both channels.
        let s = 25.0f32 / 7.0;
        assert!((y.as_slice()[0] - 3.0 / s).abs() < 1e-5);
        assert!((y.as_slice()[1] - 4.0 / s).abs() < 1e-5);
    }
}
