//! The optimiser abstraction.
//!
//! [`crate::sgd::Sgd`] is the paper's optimiser and the only one: a train
//! state snapshot holds SGD's momentum buffers and step counter, so a run
//! on any other optimiser could be neither resumed nor rolled back.

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

#[cfg(test)]
mod tests {
    use super::*;

    fn step_once(opt: &mut dyn Optimizer, data: &mut [f32], grad: &mut [f32], vel: &mut [f32]) {
        let mut params = vec![ParamRefMut { data, grad, velocity: vel }];
        opt.step(&mut params);
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
}
