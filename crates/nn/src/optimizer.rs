//! The optimiser abstraction and Adam.
//!
//! [`crate::sgd::Sgd`] is the paper's optimiser; [`Adam`] (cited in the
//! paper's related work on convergence acceleration) is provided so the
//! stack can combine deep reuse with adaptive learning rates.

use crate::layer::ParamRefMut;
use crate::sgd::Sgd;

/// A first-order optimiser: consumes gradients, updates parameters in
/// place, and clears the gradients.
pub trait Optimizer {
    /// Applies one update step over all parameters.
    ///
    /// `params` must be presented in a stable order across calls (the
    /// network's layer order guarantees this); optimisers may keep
    /// per-parameter state keyed by position.
    fn step(&mut self, params: &mut [ParamRefMut<'_>]);

    /// Steps taken so far.
    fn step_count(&self) -> usize;
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [ParamRefMut<'_>]) {
        self.apply(params);
    }

    fn step_count(&self) -> usize {
        Sgd::step_count(self)
    }
}

/// Adam (Kingma & Ba, 2014) with bias correction.
#[derive(Clone, Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    step: usize,
    /// First-moment estimates, one buffer per parameter slot.
    m: Vec<Vec<f32>>,
    /// Second-moment estimates.
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam with custom hyper-parameters.
    ///
    /// # Panics
    /// Panics unless `lr > 0`, `0 ≤ β₁, β₂ < 1` and `ε > 0`.
    pub fn new(lr: f32, beta1: f32, beta2: f32, epsilon: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1), "beta1 must be in [0, 1)");
        assert!((0.0..1.0).contains(&beta2), "beta2 must be in [0, 1)");
        assert!(epsilon > 0.0, "epsilon must be positive");
        Self { lr, beta1, beta2, epsilon, step: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Adam with the published defaults (`β₁=0.9, β₂=0.999, ε=1e-8`).
    pub fn with_defaults(lr: f32) -> Self {
        Self::new(lr, 0.9, 0.999, 1e-8)
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [ParamRefMut<'_>]) {
        self.step += 1;
        let t = self.step as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        for (slot, p) in params.iter_mut().enumerate() {
            p.check();
            if self.m.len() <= slot {
                self.m.push(vec![0.0; p.data.len()]);
                self.v.push(vec![0.0; p.data.len()]);
            }
            assert_eq!(
                self.m[slot].len(),
                p.data.len(),
                "parameter slot {slot} changed size between steps"
            );
            let (ms, vs) = (&mut self.m[slot], &mut self.v[slot]);
            for i in 0..p.data.len() {
                let g = p.grad[i];
                ms[i] = self.beta1 * ms[i] + (1.0 - self.beta1) * g;
                vs[i] = self.beta2 * vs[i] + (1.0 - self.beta2) * g * g;
                let m_hat = ms[i] / bias1;
                let v_hat = vs[i] / bias2;
                p.data[i] -= self.lr * m_hat / (v_hat.sqrt() + self.epsilon);
                p.grad[i] = 0.0;
            }
        }
    }

    fn step_count(&self) -> usize {
        self.step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_once(opt: &mut dyn Optimizer, data: &mut [f32], grad: &mut [f32], vel: &mut [f32]) {
        let mut params = vec![ParamRefMut { data, grad, velocity: vel }];
        opt.step(&mut params);
    }

    #[test]
    fn adam_first_step_moves_by_lr() {
        // With bias correction, the first Adam step ≈ lr·sign(g).
        let mut adam = Adam::with_defaults(0.1);
        let mut data = [0.0f32];
        let mut grad = [3.7f32];
        let mut vel = [0.0f32];
        step_once(&mut adam, &mut data, &mut grad, &mut vel);
        assert!((data[0] + 0.1).abs() < 1e-3, "step {}", data[0]);
        assert_eq!(grad[0], 0.0);
    }

    #[test]
    fn adam_converges_on_quadratic_bowl() {
        let mut adam = Adam::with_defaults(0.1);
        let mut w = [5.0f32];
        let mut vel = [0.0f32];
        for _ in 0..300 {
            let mut grad = [2.0 * (w[0] - 1.5)];
            step_once(&mut adam, &mut w, &mut grad, &mut vel);
        }
        assert!((w[0] - 1.5).abs() < 1e-2, "w = {}", w[0]);
    }

    #[test]
    fn adam_adapts_per_coordinate_scale() {
        // Coordinates with wildly different gradient scales should both make
        // progress — the defining property over plain SGD.
        let mut adam = Adam::with_defaults(0.05);
        let mut w = [1.0f32, 1.0];
        let mut vel = [0.0f32, 0.0];
        for _ in 0..200 {
            let mut grad = [200.0 * w[0], 0.02 * w[1]];
            step_once(&mut adam, &mut w, &mut grad, &mut vel);
        }
        assert!(w[0].abs() < 0.1, "steep coord {}", w[0]);
        assert!(w[1] < 0.9, "shallow coord made progress: {}", w[1]);
    }

    #[test]
    fn sgd_satisfies_optimizer_trait() {
        let mut sgd = Sgd::constant(0.5);
        let mut data = [1.0f32];
        let mut grad = [1.0f32];
        let mut vel = [0.0f32];
        step_once(&mut sgd, &mut data, &mut grad, &mut vel);
        assert!((data[0] - 0.5).abs() < 1e-6);
        assert_eq!(Optimizer::step_count(&sgd), 1);
    }

    #[test]
    #[should_panic(expected = "changed size")]
    fn changing_parameter_shape_panics() {
        let mut adam = Adam::with_defaults(0.1);
        let mut a = [0.0f32; 3];
        let mut g = [1.0f32; 3];
        let mut v = [0.0f32; 3];
        step_once(&mut adam, &mut a, &mut g, &mut v);
        let mut a2 = [0.0f32; 4];
        let mut g2 = [1.0f32; 4];
        let mut v2 = [0.0f32; 4];
        step_once(&mut adam, &mut a2, &mut g2, &mut v2);
    }
}
