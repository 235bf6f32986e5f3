//! Stochastic gradient descent with momentum and learning-rate schedules.

use crate::layer::ParamRefMut;

/// Learning-rate schedule evaluated per optimisation step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LrSchedule {
    /// Constant rate.
    Constant(f32),
    /// `base / (1 + rate · step)` — smooth inverse decay.
    InverseTime {
        /// Initial rate.
        base: f32,
        /// Decay strength.
        rate: f32,
    },
}

impl LrSchedule {
    /// Learning rate at `step` (0-based).
    pub fn at(&self, step: usize) -> f32 {
        match *self {
            LrSchedule::Constant(lr) => lr,
            LrSchedule::InverseTime { base, rate } => base / (1.0 + rate * step as f32),
        }
    }
}

/// SGD with classical momentum, optional L2 weight decay, and optional
/// per-parameter gradient-norm clipping (stabilises training through the
/// gradient noise that aggressive reuse settings inject).
#[derive(Clone, Debug)]
pub struct Sgd {
    schedule: LrSchedule,
    momentum: f32,
    weight_decay: f32,
    clip_norm: Option<f32>,
    step: usize,
}

impl Sgd {
    /// Creates an optimiser.
    ///
    /// # Panics
    /// Panics if `momentum` is outside `[0, 1)` or `weight_decay < 0`.
    pub fn new(schedule: LrSchedule, momentum: f32, weight_decay: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        Self { schedule, momentum, weight_decay, clip_norm: None, step: 0 }
    }

    /// Plain SGD with a constant rate.
    pub fn constant(lr: f32) -> Self {
        Self::new(LrSchedule::Constant(lr), 0.0, 0.0)
    }

    /// Enables per-parameter gradient L2-norm clipping at `max_norm`.
    ///
    /// # Panics
    /// Panics if `max_norm <= 0`.
    pub fn with_clip_norm(mut self, max_norm: f32) -> Self {
        assert!(max_norm > 0.0, "clip norm must be positive");
        self.clip_norm = Some(max_norm);
        self
    }

    /// Steps taken so far.
    pub fn step_count(&self) -> usize {
        self.step
    }

    /// Overwrites the step counter (checkpoint resume): the learning-rate
    /// schedule continues exactly where the interrupted run left off.
    pub fn set_step_count(&mut self, step: usize) {
        self.step = step;
    }

    /// Learning rate the *next* update will use.
    pub fn current_lr(&self) -> f32 {
        self.schedule.at(self.step)
    }

    /// Applies one update to the given parameters and advances the step
    /// counter. `v ← μ·v − lr·(g + λ·w)`, `w ← w + v`.
    pub fn apply(&mut self, params: &mut [ParamRefMut<'_>]) {
        let lr = self.current_lr();
        for p in params.iter_mut() {
            p.check();
            // Per-parameter gradient clipping (applied before weight decay).
            let scale = match self.clip_norm {
                Some(max_norm) => {
                    let norm = p.grad.iter().map(|g| g * g).sum::<f32>().sqrt();
                    if norm > max_norm {
                        max_norm / norm
                    } else {
                        1.0
                    }
                }
                None => 1.0,
            };
            for i in 0..p.data.len() {
                let g = scale * p.grad[i] + self.weight_decay * p.data[i];
                p.velocity[i] = self.momentum * p.velocity[i] - lr * g;
                p.data[i] += p.velocity[i];
                p.grad[i] = 0.0;
            }
        }
        self.step += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param_step(sgd: &mut Sgd, data: &mut [f32], grad: &mut [f32], vel: &mut [f32]) {
        let mut params = vec![ParamRefMut { data, grad, velocity: vel }];
        sgd.apply(&mut params);
    }

    #[test]
    fn plain_sgd_descends_gradient() {
        let mut sgd = Sgd::constant(0.1);
        let mut data = [1.0f32];
        let mut grad = [2.0f32];
        let mut vel = [0.0f32];
        param_step(&mut sgd, &mut data, &mut grad, &mut vel);
        assert!((data[0] - 0.8).abs() < 1e-6);
        assert_eq!(grad[0], 0.0, "grad is cleared after the step");
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut sgd = Sgd::new(LrSchedule::Constant(0.1), 0.9, 0.0);
        let mut data = [0.0f32];
        let mut vel = [0.0f32];
        let mut grad = [1.0f32];
        param_step(&mut sgd, &mut data, &mut grad, &mut vel);
        let first_step = data[0];
        grad[0] = 1.0;
        param_step(&mut sgd, &mut data, &mut grad, &mut vel);
        let second_delta = data[0] - first_step;
        assert!(second_delta.abs() > first_step.abs(), "momentum should amplify movement");
    }

    #[test]
    fn weight_decay_pulls_towards_zero() {
        let mut sgd = Sgd::new(LrSchedule::Constant(0.1), 0.0, 0.5);
        let mut data = [2.0f32];
        let mut grad = [0.0f32];
        let mut vel = [0.0f32];
        param_step(&mut sgd, &mut data, &mut grad, &mut vel);
        assert!(data[0] < 2.0);
    }

    #[test]
    fn inverse_time_decays_smoothly() {
        let s = LrSchedule::InverseTime { base: 1.0, rate: 0.1 };
        assert_eq!(s.at(0), 1.0);
        assert!((s.at(10) - 0.5).abs() < 1e-6);
        assert!(s.at(100) < s.at(10));
    }

    #[test]
    fn quadratic_bowl_converges() {
        // Minimise f(w) = (w-3)² with gradient 2(w-3).
        let mut sgd = Sgd::new(LrSchedule::Constant(0.1), 0.5, 0.0);
        let mut w = [0.0f32];
        let mut vel = [0.0f32];
        for _ in 0..100 {
            let mut grad = [2.0 * (w[0] - 3.0)];
            param_step(&mut sgd, &mut w, &mut grad, &mut vel);
        }
        assert!((w[0] - 3.0).abs() < 1e-3, "w = {}", w[0]);
    }

    #[test]
    #[should_panic(expected = "momentum must be in")]
    fn invalid_momentum_panics() {
        Sgd::new(LrSchedule::Constant(0.1), 1.0, 0.0);
    }

    #[test]
    fn clipping_bounds_the_update() {
        let mut sgd = Sgd::constant(1.0).with_clip_norm(1.0);
        let mut data = [0.0f32, 0.0];
        let mut grad = [30.0f32, 40.0]; // norm 50 -> scaled to norm 1
        let mut vel = [0.0f32, 0.0];
        param_step(&mut sgd, &mut data, &mut grad, &mut vel);
        let step_norm = (data[0] * data[0] + data[1] * data[1]).sqrt();
        assert!((step_norm - 1.0).abs() < 1e-5, "step norm {step_norm}");
        // Direction preserved.
        assert!(data[0] < 0.0 && data[1] < 0.0);
        assert!((data[0] / data[1] - 0.75).abs() < 1e-5);
    }

    #[test]
    fn small_gradients_are_not_clipped() {
        let mut a = Sgd::constant(0.1).with_clip_norm(100.0);
        let mut b = Sgd::constant(0.1);
        let mut d1 = [1.0f32];
        let mut d2 = [1.0f32];
        let mut g1 = [2.0f32];
        let mut g2 = [2.0f32];
        let mut v1 = [0.0f32];
        let mut v2 = [0.0f32];
        param_step(&mut a, &mut d1, &mut g1, &mut v1);
        param_step(&mut b, &mut d2, &mut g2, &mut v2);
        assert_eq!(d1, d2);
    }
}
