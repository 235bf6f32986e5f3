//! Sequential network container with a softmax cross-entropy head.

use adr_tensor::Tensor4;

use crate::flops::FlopReport;
use crate::layer::{Layer, Mode, Shape3};
use crate::optimizer::Optimizer;
use crate::sgd::Sgd;
use crate::softmax::{accuracy, softmax_cross_entropy};

/// The per-image shape of a batch disagrees with the network's input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShapeMismatch {
    /// Shape the network was built for.
    pub expected: Shape3,
    /// Shape the batch carried.
    pub found: Shape3,
}

impl std::fmt::Display for ShapeMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch shape {}x{}x{} does not match the network input {}x{}x{}",
            self.found.0,
            self.found.1,
            self.found.2,
            self.expected.0,
            self.expected.1,
            self.expected.2
        )
    }
}

impl std::error::Error for ShapeMismatch {}

/// Result of a single training step.
#[derive(Clone, Debug)]
pub struct StepResult {
    /// Mean cross-entropy loss for the batch.
    pub loss: f32,
    /// Number of correct argmax predictions in the batch.
    pub correct: usize,
    /// Batch size.
    pub batch_size: usize,
}

/// Result of an evaluation pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalResult {
    /// Mean loss.
    pub loss: f32,
    /// Accuracy in `[0, 1]`.
    pub accuracy: f32,
}

/// A feed-forward stack of layers ending in class logits.
///
/// Shape compatibility is validated as layers are pushed, so construction
/// errors surface at model-build time rather than on the first batch.
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    input_shape: Shape3,
    current_shape: Shape3,
}

impl Network {
    /// Creates an empty network expecting inputs of the given per-image shape.
    pub fn new(input_shape: Shape3) -> Self {
        Self { layers: Vec::new(), input_shape, current_shape: input_shape }
    }

    /// Appends a layer, validating shape compatibility.
    ///
    /// # Panics
    /// Panics (inside the layer's `output_shape`) when the layer cannot
    /// accept the current activation shape.
    pub fn push(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.current_shape = layer.output_shape(self.current_shape);
        self.layers.push(layer);
        self
    }

    /// The expected per-image input shape.
    pub fn input_shape(&self) -> Shape3 {
        self.input_shape
    }

    /// The per-image output (logit) shape.
    pub fn output_shape(&self) -> Shape3 {
        self.current_shape
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Borrow the layer stack (for adaptive controllers to inspect).
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutably borrow the layer stack (for adaptive controllers to retune).
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Total learnable scalar parameters.
    pub fn param_count(&mut self) -> usize {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).map(|p| p.data.len()).sum()
    }

    /// Forward pass through every layer.
    pub fn forward(&mut self, input: &Tensor4, mode: Mode) -> Tensor4 {
        let mut layers = self.layers.iter_mut();
        let Some(first) = layers.next() else { return input.clone() };
        let mut x = first.forward(input, mode);
        for layer in layers {
            x = layer.forward(&x, mode);
        }
        x
    }

    /// Backward pass from the loss gradient down to the input gradient.
    pub fn backward(&mut self, grad: &Tensor4) -> Tensor4 {
        backward_through(&mut self.layers, grad).unwrap_or_else(|| grad.clone())
    }

    /// One SGD step on a labelled batch: forward, loss, backward, update.
    pub fn train_batch(&mut self, images: &Tensor4, labels: &[usize], sgd: &mut Sgd) -> StepResult {
        self.train_batch_with(images, labels, sgd)
    }

    /// [`Network::train_batch`] with any [`Optimizer`] (SGD, Adam, ...).
    ///
    /// Nothing reads the gradient with respect to the images, so the first
    /// layer runs [`Layer::backward_params_only`]; every weight update is
    /// bitwise that of a full [`Network::backward`].
    pub fn train_batch_with(
        &mut self,
        images: &Tensor4,
        labels: &[usize],
        optimizer: &mut dyn Optimizer,
    ) -> StepResult {
        let logits = self.forward(images, Mode::Train);
        let loss_out = softmax_cross_entropy(&logits, labels);
        if let Some((first, rest)) = self.layers.split_first_mut() {
            let grad = backward_through(rest, &loss_out.grad);
            first.backward_params_only(grad.as_ref().unwrap_or(&loss_out.grad));
        }
        let mut params: Vec<_> = self.layers.iter_mut().flat_map(|l| l.params_mut()).collect();
        optimizer.step(&mut params);
        let correct = loss_out.predictions.iter().zip(labels).filter(|(p, l)| p == l).count();
        StepResult { loss: loss_out.loss, correct, batch_size: labels.len() }
    }

    /// Loss and accuracy on a labelled batch without updating weights.
    pub fn evaluate(&mut self, images: &Tensor4, labels: &[usize]) -> EvalResult {
        let logits = self.forward(images, Mode::Eval);
        let out = softmax_cross_entropy(&logits, labels);
        EvalResult { loss: out.loss, accuracy: accuracy(&out.predictions, labels) }
    }

    /// Shape-checked inference forward pass (frozen `Mode::Eval` semantics).
    ///
    /// Unlike [`Network::forward`], which trusts its caller and lets a bad
    /// shape panic deep inside a layer, this is the serving entry point: a
    /// mismatched batch comes back as a typed [`ShapeMismatch`] before any
    /// layer runs.
    ///
    /// # Errors
    /// Returns [`ShapeMismatch`] when the per-image shape of `images`
    /// differs from [`Network::input_shape`].
    pub fn infer(&mut self, images: &Tensor4) -> Result<Tensor4, ShapeMismatch> {
        let (_, h, w, c) = images.shape();
        if (h, w, c) != self.input_shape {
            return Err(ShapeMismatch { expected: self.input_shape, found: (h, w, c) });
        }
        Ok(self.forward(images, Mode::Eval))
    }

    /// Argmax class predictions for a batch.
    pub fn predict(&mut self, images: &Tensor4) -> Vec<usize> {
        let logits = self.forward(images, Mode::Eval);
        let (n, _, _, c) = logits.shape();
        (0..n)
            .map(|b| {
                logits.as_slice()[b * c..(b + 1) * c]
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Multiply–adds actually performed across all layers.
    pub fn flops(&self) -> FlopReport {
        self.layers.iter().fold(FlopReport::default(), |acc, l| acc.merged(&l.flops()))
    }

    /// Multiply–adds a fully dense network would have performed.
    pub fn baseline_flops(&self) -> FlopReport {
        self.layers.iter().fold(FlopReport::default(), |acc, l| acc.merged(&l.baseline_flops()))
    }

    /// Resets all layer FLOP counters.
    pub fn reset_flops(&mut self) {
        for l in &mut self.layers {
            l.reset_flops();
        }
    }
}

/// Runs `grad` backward through `layers`, last to first, and returns the
/// gradient at their input; `None` for no layers (it passes through as is).
fn backward_through(layers: &mut [Box<dyn Layer>], grad: &Tensor4) -> Option<Tensor4> {
    let mut layers = layers.iter_mut().rev();
    let mut g = layers.next()?.backward(grad);
    for layer in layers {
        g = layer.backward(&g);
    }
    Some(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::Conv2d;
    use crate::dense::Dense;
    use crate::pool::Pool2d;
    use crate::relu::Relu;
    use adr_tensor::im2col::ConvGeom;
    use adr_tensor::rng::AdrRng;

    fn tiny_net(seed: u64) -> Network {
        let mut rng = AdrRng::seeded(seed);
        let mut net = Network::new((6, 6, 1));
        let geom = ConvGeom::new(6, 6, 1, 3, 3, 1, 0).unwrap();
        net.push(Box::new(Conv2d::new("conv1", geom, 4, &mut rng)));
        net.push(Box::new(Relu::new("relu1")));
        net.push(Box::new(Pool2d::max("pool1", 2, 2)));
        net.push(Box::new(Dense::new("fc", 2 * 2 * 4, 3, &mut rng)));
        net
    }

    #[test]
    fn shapes_chain_through_layers() {
        let net = tiny_net(1);
        assert_eq!(net.output_shape(), (1, 1, 3));
        assert_eq!(net.len(), 4);
    }

    #[test]
    #[should_panic(expected = "expected 99 input features")]
    fn incompatible_layer_panics_at_push() {
        let mut rng = AdrRng::seeded(1);
        let mut net = Network::new((4, 4, 1));
        // Wrong feature count for the 4x4x1 input.
        net.push(Box::new(Dense::new("fc", 99, 3, &mut rng)));
    }

    #[test]
    fn forward_produces_logits() {
        let mut net = tiny_net(2);
        let x = Tensor4::zeros(5, 6, 6, 1);
        let y = net.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), (5, 1, 1, 3));
    }

    #[test]
    fn training_reduces_loss_on_separable_toy_data() {
        let mut net = tiny_net(3);
        let mut sgd = Sgd::constant(0.05);
        // Three classes distinguished by which image third is bright.
        let make_batch = || {
            let mut data = Vec::new();
            let labels = vec![0usize, 1, 2];
            for cls in 0..3 {
                for y in 0..6 {
                    for _x in 0..6 {
                        let bright = y / 2 == cls;
                        data.push(if bright { 1.0 } else { 0.0 });
                    }
                }
            }
            (Tensor4::from_vec(3, 6, 6, 1, data).unwrap(), labels)
        };
        let (images, labels) = make_batch();
        let first = net.train_batch(&images, &labels, &mut sgd).loss;
        let mut last = first;
        for _ in 0..60 {
            last = net.train_batch(&images, &labels, &mut sgd).loss;
        }
        assert!(last < first * 0.5, "loss did not drop: {first} -> {last}");
        let eval = net.evaluate(&images, &labels);
        assert!(eval.accuracy > 0.99, "accuracy {}", eval.accuracy);
    }

    /// A training step skips the first layer's input gradient and nothing
    /// else: same weights as forward + full backward + update, bit for bit,
    /// for exactly conv1's `N·K·M` fewer metered multiply–adds.
    #[test]
    fn train_batch_skips_only_the_first_layers_input_gradient() {
        let (mut stepped, mut by_hand) = (tiny_net(8), tiny_net(8));
        let x = Tensor4::from_fn(3, 6, 6, 1, |n, y, xx, _| ((n * 5 + y * 3 + xx) % 7) as f32 * 0.2);
        let labels = [0usize, 2, 1];
        stepped.train_batch(&x, &labels, &mut Sgd::constant(0.05));
        let logits = by_hand.forward(&x, Mode::Train);
        let grad = softmax_cross_entropy(&logits, &labels).grad;
        assert_eq!(by_hand.backward(&grad).shape(), x.shape());
        let mut params: Vec<_> = by_hand.layers.iter_mut().flat_map(|l| l.params_mut()).collect();
        Sgd::constant(0.05).step(&mut params);
        drop(params);
        let weights = |net: &mut Network| -> Vec<u32> {
            let params = net.layers.iter_mut().flat_map(|l| l.params_mut());
            params.flat_map(|p| p.data.iter().map(|w| w.to_bits()).collect::<Vec<_>>()).collect()
        };
        assert_eq!(weights(&mut stepped), weights(&mut by_hand));
        let conv1_nkm = (3 * 4 * 4 * 9 * 4) as u64;
        assert_eq!(by_hand.flops().backward - stepped.flops().backward, conv1_nkm);
        assert_eq!(stepped.baseline_flops(), stepped.flops());
    }

    #[test]
    fn an_empty_network_passes_tensors_through() {
        let mut net = Network::new((2, 2, 1));
        let x = Tensor4::from_fn(1, 2, 2, 1, |_, y, xx, _| (y * 2 + xx) as f32);
        assert_eq!(net.forward(&x, Mode::Eval).as_slice(), x.as_slice());
        assert_eq!(net.backward(&x).as_slice(), x.as_slice());
    }

    #[test]
    fn flops_accumulate_and_reset() {
        let mut net = tiny_net(4);
        net.forward(&Tensor4::zeros(1, 6, 6, 1), Mode::Eval);
        assert!(net.flops().forward > 0);
        net.reset_flops();
        assert_eq!(net.flops(), FlopReport::default());
    }

    #[test]
    fn infer_rejects_mismatched_shapes_and_matches_eval_forward() {
        let mut net = tiny_net(7);
        let bad = Tensor4::zeros(1, 4, 4, 1);
        let err = net.infer(&bad).unwrap_err();
        assert_eq!(err, ShapeMismatch { expected: (6, 6, 1), found: (4, 4, 1) });
        assert!(err.to_string().contains("4x4x1"));

        let good = Tensor4::from_fn(2, 6, 6, 1, |n, y, x, _| (n + y + x) as f32 * 0.05);
        let via_infer = net.infer(&good).unwrap();
        let via_forward = net.forward(&good, Mode::Eval);
        assert_eq!(via_infer.as_slice(), via_forward.as_slice());
    }

    #[test]
    fn predict_matches_evaluate_argmax() {
        let mut net = tiny_net(5);
        let x = Tensor4::from_fn(2, 6, 6, 1, |n, y, _, _| (n + y) as f32 * 0.1);
        let preds = net.predict(&x);
        assert_eq!(preds.len(), 2);
        assert!(preds.iter().all(|&p| p < 3));
    }

    #[test]
    fn param_count_is_positive_and_stable() {
        let mut net = tiny_net(6);
        let count = net.param_count();
        // conv: 9*4 + 4, fc: 16*3 + 3
        assert_eq!(count, 36 + 4 + 48 + 3);
    }
}
