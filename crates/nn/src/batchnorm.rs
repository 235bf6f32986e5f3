//! Batch normalisation (per-channel, NHWC).
//!
//! The paper lists batch normalisation among the orthogonal
//! convergence-acceleration techniques deep reuse can be combined with
//! (§VII); this layer makes that combination available in the stack.
//! Normalises each channel over the batch and spatial dimensions, with
//! learnable scale/shift and running statistics for inference.

use adr_tensor::Tensor4;

use crate::layer::{Layer, Mode, ParamRefMut, Shape3};

/// Per-channel batch normalisation.
pub struct BatchNorm {
    name: String,
    channels: usize,
    epsilon: f32,
    /// Running-statistics momentum: `running = m·running + (1−m)·batch`.
    momentum: f32,
    gamma: Vec<f32>,
    gamma_grad: Vec<f32>,
    gamma_vel: Vec<f32>,
    beta: Vec<f32>,
    beta_grad: Vec<f32>,
    beta_vel: Vec<f32>,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    /// Forward cache: normalised activations and batch statistics.
    cached_norm: Option<Tensor4>,
    cached_inv_std: Vec<f32>,
}

impl BatchNorm {
    /// Creates a batch-norm layer over `channels` channels with standard
    /// constants (`ε = 1e-5`, running momentum `0.9`).
    ///
    /// # Panics
    /// Panics when `channels == 0`.
    pub fn new(name: impl Into<String>, channels: usize) -> Self {
        assert!(channels > 0, "channels must be positive");
        Self {
            name: name.into(),
            channels,
            epsilon: 1e-5,
            momentum: 0.9,
            gamma: vec![1.0; channels],
            gamma_grad: vec![0.0; channels],
            gamma_vel: vec![0.0; channels],
            beta: vec![0.0; channels],
            beta_grad: vec![0.0; channels],
            beta_vel: vec![0.0; channels],
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cached_norm: None,
            cached_inv_std: Vec::new(),
        }
    }

    /// Number of normalised channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Running mean per channel (inference statistics).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// Running variance per channel (inference statistics).
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }

    fn per_channel_count(&self, input: &Tensor4) -> usize {
        input.batch() * input.height() * input.width()
    }
}

impl Layer for BatchNorm {
    fn name(&self) -> &str {
        &self.name
    }

    fn output_shape(&self, input: Shape3) -> Shape3 {
        assert_eq!(
            input.2, self.channels,
            "batchnorm {}: channel mismatch ({} vs {})",
            self.name, input.2, self.channels
        );
        input
    }

    fn forward(&mut self, input: &Tensor4, mode: Mode) -> Tensor4 {
        let c = self.channels;
        assert_eq!(input.channels(), c, "batchnorm {}: channel mismatch", self.name);
        let count = self.per_channel_count(input).max(1) as f32;
        let data = input.as_slice();

        // Pick statistics: batch stats in training, running stats in eval.
        let (mean, var): (Vec<f32>, Vec<f32>) = if mode == Mode::Train {
            let mut mean = vec![0.0f32; c];
            for (i, &v) in data.iter().enumerate() {
                mean[i % c] += v;
            }
            for m in &mut mean {
                *m /= count;
            }
            let mut var = vec![0.0f32; c];
            for (i, &v) in data.iter().enumerate() {
                let d = v - mean[i % c];
                var[i % c] += d * d;
            }
            for v in &mut var {
                *v /= count;
            }
            // Update running statistics.
            for ch in 0..c {
                self.running_mean[ch] =
                    self.momentum * self.running_mean[ch] + (1.0 - self.momentum) * mean[ch];
                self.running_var[ch] =
                    self.momentum * self.running_var[ch] + (1.0 - self.momentum) * var[ch];
            }
            (mean, var)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + self.epsilon).sqrt()).collect();
        let mut norm = input.clone();
        for (i, v) in norm.as_mut_slice().iter_mut().enumerate() {
            let ch = i % c;
            *v = (*v - mean[ch]) * inv_std[ch];
        }
        let mut out = norm.clone();
        for (i, v) in out.as_mut_slice().iter_mut().enumerate() {
            let ch = i % c;
            *v = self.gamma[ch] * *v + self.beta[ch];
        }
        if mode == Mode::Train {
            self.cached_norm = Some(norm);
            self.cached_inv_std = inv_std;
        }
        out
    }

    #[expect(
        clippy::expect_used,
        reason = "layer-protocol: backward before a training forward is a training-loop bug (`Layer` contract)"
    )]
    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let norm =
            self.cached_norm.take().expect("backward called without a preceding training forward");
        let c = self.channels;
        assert_eq!(grad_out.len(), norm.len(), "batchnorm {}: backward shape mismatch", self.name);
        let count = (norm.len() / c).max(1) as f32;
        let g = grad_out.as_slice();
        let xhat = norm.as_slice();

        // Parameter gradients.
        let mut dgamma = vec![0.0f32; c];
        let mut dbeta = vec![0.0f32; c];
        for (i, &gi) in g.iter().enumerate() {
            let ch = i % c;
            dgamma[ch] += gi * xhat[i];
            dbeta[ch] += gi;
        }
        self.gamma_grad.copy_from_slice(&dgamma);
        self.beta_grad.copy_from_slice(&dbeta);

        // Input gradient (standard batch-norm backward):
        // dx̂ = g·γ;  dx = (1/σ)·(dx̂ − mean(dx̂) − x̂·mean(dx̂·x̂))
        let mut grad_in = grad_out.clone();
        let mut mean_dxhat = vec![0.0f32; c];
        let mut mean_dxhat_xhat = vec![0.0f32; c];
        for (i, &gi) in g.iter().enumerate() {
            let ch = i % c;
            let dxhat = gi * self.gamma[ch];
            mean_dxhat[ch] += dxhat;
            mean_dxhat_xhat[ch] += dxhat * xhat[i];
        }
        for ch in 0..c {
            mean_dxhat[ch] /= count;
            mean_dxhat_xhat[ch] /= count;
        }
        for (i, v) in grad_in.as_mut_slice().iter_mut().enumerate() {
            let ch = i % c;
            let dxhat = g[i] * self.gamma[ch];
            *v = self.cached_inv_std[ch] * (dxhat - mean_dxhat[ch] - xhat[i] * mean_dxhat_xhat[ch]);
        }
        grad_in
    }

    fn params_mut(&mut self) -> Vec<ParamRefMut<'_>> {
        vec![
            ParamRefMut {
                data: &mut self.gamma,
                grad: &mut self.gamma_grad,
                velocity: &mut self.gamma_vel,
            },
            ParamRefMut {
                data: &mut self.beta,
                grad: &mut self.beta_grad,
                velocity: &mut self.beta_vel,
            },
        ]
    }

    fn state_buffers(&mut self) -> Vec<&mut [f32]> {
        vec![&mut self.running_mean, &mut self.running_var]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adr_tensor::rng::AdrRng;

    fn random_input(n: usize, h: usize, w: usize, c: usize, seed: u64) -> Tensor4 {
        let mut rng = AdrRng::seeded(seed);
        Tensor4::from_fn(n, h, w, c, |_, _, _, ch| rng.gauss() * (ch + 1) as f32 + ch as f32)
    }

    #[test]
    fn training_forward_normalises_each_channel() {
        let mut bn = BatchNorm::new("bn", 3);
        let x = random_input(4, 5, 5, 3, 1);
        let y = bn.forward(&x, Mode::Train);
        // Each channel of the output should be ~N(0,1) (γ=1, β=0 initially).
        for ch in 0..3 {
            let vals: Vec<f32> = y
                .as_slice()
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 3 == ch)
                .map(|(_, &v)| v)
                .collect();
            let mean = vals.iter().sum::<f32>() / vals.len() as f32;
            let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "ch {ch} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "ch {ch} var {var}");
        }
    }

    #[test]
    fn gamma_beta_scale_and_shift() {
        let mut bn = BatchNorm::new("bn", 2);
        bn.gamma = vec![2.0, 0.5];
        bn.beta = vec![1.0, -1.0];
        let x = random_input(2, 3, 3, 2, 2);
        let y = bn.forward(&x, Mode::Train);
        for ch in 0..2 {
            let vals: Vec<f32> = y
                .as_slice()
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == ch)
                .map(|(_, &v)| v)
                .collect();
            let mean = vals.iter().sum::<f32>() / vals.len() as f32;
            assert!((mean - bn.beta[ch]).abs() < 1e-3, "ch {ch} mean {mean}");
        }
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut bn = BatchNorm::new("bn", 2);
        // Train on several batches to populate running stats.
        for seed in 0..20 {
            bn.forward(&random_input(4, 4, 4, 2, seed), Mode::Train);
        }
        // Eval on fresh data: output distribution should be near-normalised
        // because train and eval data share the generator.
        let running_before = bn.running_mean().to_vec();
        let y = bn.forward(&random_input(4, 4, 4, 2, 99), Mode::Eval);
        let mean: f32 = y.as_slice().iter().sum::<f32>() / y.len() as f32;
        assert!(mean.abs() < 0.6, "eval mean {mean}");
        // Eval must not update the running statistics.
        assert_eq!(bn.running_mean(), running_before.as_slice());
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut bn = BatchNorm::new("bn", 2);
        bn.gamma = vec![1.5, 0.8];
        bn.beta = vec![0.2, -0.3];
        let x = random_input(2, 2, 2, 2, 5);
        // Loss = weighted sum of outputs (weights break symmetry).
        let weights: Vec<f32> = (0..x.len()).map(|i| ((i * 7) % 5) as f32 * 0.25 - 0.5).collect();
        let loss = |bn: &mut BatchNorm, x: &Tensor4| -> f32 {
            let y = bn.forward(x, Mode::Train);
            y.as_slice().iter().zip(&weights).map(|(a, b)| a * b).sum()
        };
        let base = loss(&mut bn, &x);
        let mut grad = Tensor4::zeros(2, 2, 2, 2);
        grad.as_mut_slice().copy_from_slice(&weights);
        // Need a fresh forward for the cache (loss() consumed it? no, set it).
        let dx = bn.backward(&grad);
        let eps = 1e-2;
        for idx in [0usize, 3, 7, 12] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let lp = loss(&mut bn, &xp);
            let numeric = (lp - base) / eps;
            assert!(
                (numeric - dx.as_slice()[idx]).abs() < 2e-2,
                "idx {idx}: numeric {numeric} vs analytic {}",
                dx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn parameter_gradients_match_finite_differences() {
        let mut bn = BatchNorm::new("bn", 2);
        let x = random_input(2, 2, 2, 2, 6);
        let y = bn.forward(&x, Mode::Train);
        let ones = Tensor4::from_vec(2, 2, 2, 2, vec![1.0; 16]).unwrap();
        bn.backward(&ones);
        let base: f32 = y.as_slice().iter().sum();
        let eps = 1e-2;
        for ch in 0..2 {
            let analytic = bn.gamma_grad[ch];
            bn.gamma[ch] += eps;
            let yp: f32 = bn.forward(&x, Mode::Train).as_slice().iter().sum();
            bn.gamma[ch] -= eps;
            let numeric = (yp - base) / eps;
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "gamma {ch}: numeric {numeric} vs {analytic}"
            );
            // Beta gradient is the per-channel count of contributing cells.
            assert!((bn.beta_grad[ch] - 8.0).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn wrong_channel_count_panics() {
        let bn = BatchNorm::new("bn", 4);
        bn.output_shape((2, 2, 3));
    }
}
