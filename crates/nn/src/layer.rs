//! The object-safe layer trait and learnable-parameter access.

use adr_tensor::Tensor4;

use crate::flops::FlopReport;

/// Per-image activation shape `(height, width, channels)`.
pub type Shape3 = (usize, usize, usize);

/// Whether a forward pass is part of training or evaluation.
///
/// Training mode enables dropout and lets reuse layers record the clustering
/// needed by the backward pass; evaluation mode disables dropout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Forward pass that will be followed by a backward pass.
    Train,
    /// Inference-only forward pass.
    Eval,
}

/// Borrowed view of one learnable tensor: values, gradient, and the
/// optimizer-owned velocity buffer, all flat and of equal length.
///
/// Layers own their parameters in whatever shape suits them (a `Matrix` for
/// conv/dense weights, a `Vec<f32>` for biases) and lend these parallel
/// views to the optimizer each step.
pub struct ParamRefMut<'a> {
    /// Current values.
    pub data: &'a mut [f32],
    /// Gradient from the latest backward pass.
    pub grad: &'a mut [f32],
    /// Momentum/velocity state.
    pub velocity: &'a mut [f32],
}

impl ParamRefMut<'_> {
    /// Asserts the three buffers are parallel; called by the optimizer.
    ///
    /// # Panics
    /// Panics when the grad or velocity length disagrees with the data.
    pub fn check(&self) {
        assert_eq!(self.data.len(), self.grad.len(), "grad buffer length mismatch");
        assert_eq!(self.data.len(), self.velocity.len(), "velocity buffer length mismatch");
    }
}

/// A neural-network layer.
///
/// Layers are stateful: `forward` caches the activations needed by
/// `backward`, and `backward` both computes the input gradient and fills
/// parameter gradients (if any). `backward` must follow a
/// `forward(Mode::Train)` on the same batch.
///
/// Every `impl Layer` in `adr-nn` and `adr-reuse` must be covered by a
/// finite-difference gradient check: add the type name to a
/// `// grad-check: ...` registry comment in `tests/gradient_checks.rs`.
/// The test `every_layer_impl_is_gradient_checked` there enforces this.
pub trait Layer {
    /// Short human-readable name used in reports (e.g. `"conv1"`).
    fn name(&self) -> &str;

    /// Output activation shape for a given input shape.
    ///
    /// # Panics
    /// May panic if `input` is incompatible with the layer's configuration.
    fn output_shape(&self, input: Shape3) -> Shape3;

    /// Computes the layer output for a batch.
    fn forward(&mut self, input: &Tensor4, mode: Mode) -> Tensor4;

    /// Propagates the output gradient to the input, updating parameter
    /// gradients as a side effect.
    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4;

    /// [`Layer::backward`] for a caller that will not read the input
    /// gradient — a training step's first layer: parameter gradients are
    /// filled as usual, and a layer that overrides this skips (and does not
    /// meter) the work only the input gradient needs. The parameter
    /// gradients are bitwise those of `backward`.
    fn backward_params_only(&mut self, grad_out: &Tensor4) {
        self.backward(grad_out);
    }

    /// Mutable access to learnable parameters (empty for stateless layers).
    fn params_mut(&mut self) -> Vec<ParamRefMut<'_>> {
        Vec::new()
    }

    /// Multiply–add counts performed since the last [`Layer::reset_flops`].
    fn flops(&self) -> FlopReport {
        FlopReport::default()
    }

    /// Multiply–adds a *dense* implementation of this layer would have
    /// performed for the same calls — the paper's baseline `N·K·M` cost.
    /// Defaults to the actual count for layers with no reuse path.
    fn baseline_flops(&self) -> FlopReport {
        self.flops()
    }

    /// Resets FLOP counters.
    fn reset_flops(&mut self) {}

    /// Overwrites FLOP counters with checkpointed totals so a resumed run
    /// reports the same cumulative work as an uninterrupted one. Layers
    /// without meters keep the no-op default.
    fn restore_flops(&mut self, _actual: FlopReport, _baseline: FlopReport) {}

    /// Non-learnable state that must survive checkpointing (e.g. batch
    /// normalisation's running statistics). Buffers must be returned in a
    /// stable order. Stateless layers keep the empty default.
    fn state_buffers(&mut self) -> Vec<&mut [f32]> {
        Vec::new()
    }

    /// Downcast hook so controllers can retune concrete layer types living
    /// behind `Box<dyn Layer>` (the adaptive controller uses this to reach
    /// `ReuseConv2d`). Layers with no tunable state keep the `None` default.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }

    /// Immutable counterpart of [`Layer::as_any_mut`].
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_ref_check_accepts_parallel_buffers() {
        let mut d = vec![1.0f32; 4];
        let mut g = vec![0.0f32; 4];
        let mut v = vec![0.0f32; 4];
        ParamRefMut { data: &mut d, grad: &mut g, velocity: &mut v }.check();
    }

    #[test]
    #[should_panic(expected = "grad buffer length mismatch")]
    fn param_ref_check_rejects_mismatch() {
        let mut d = vec![1.0f32; 4];
        let mut g = vec![0.0f32; 3];
        let mut v = vec![0.0f32; 4];
        ParamRefMut { data: &mut d, grad: &mut g, velocity: &mut v }.check();
    }
}
