//! Baseline im2col convolution — the layer adaptive deep reuse replaces.
//!
//! Forward: `y = unfold(x) · W + b` (paper Eq. 1), one GEMM of shape
//! `N×K · K×M`. Backward (Eqs. 2/3): `∇W = xᵀ·δy`, `δx = fold(δy·Wᵀ)`.
//! The layer meters exactly `N·K·M` forward and `2·N·K·M` backward
//! multiply–adds, matching the paper's complexity accounting (§II).
//!
//! `adr_reuse::ReuseConv2d` wraps one [`Conv2d`]: its dense mode *is* this
//! layer's forward and backward, and its reuse mode reads this layer's
//! weights and writes its gradients ([`Conv2d::weight_and_grads`]).
//!
//! Only a training forward keeps its unfolded input, in the layer: the
//! backward reads it for `∇W` and then overwrites it with `δx`. An eval
//! forward first drops that buffer, then unfolds into the thread's
//! [`scratch`], which every convolution on the thread shares.

use adr_tensor::im2col::{col2im, im2col_into, unfold_into, ConvGeom};
use adr_tensor::matrix::{column_sums_into, Matrix};
use adr_tensor::par::{gemm_rows_par, gemm_ta_par, gemm_tb_par};
use adr_tensor::rng::AdrRng;
use adr_tensor::scratch;
use adr_tensor::Tensor4;

use crate::flops::{FlopMeter, FlopReport};
use crate::init::Init;
use crate::layer::{Layer, Mode, ParamRefMut, Shape3};

/// A standard 2-D convolution computed as im2col + GEMM.
pub struct Conv2d {
    name: String,
    geom: ConvGeom,
    out_channels: usize,
    /// `K × M` weight matrix.
    weight: Matrix,
    weight_grad: Matrix,
    weight_vel: Matrix,
    /// Length-`M` bias.
    bias: Vec<f32>,
    bias_grad: Vec<f32>,
    bias_vel: Vec<f32>,
    /// Layer-owned `N × K` buffer, recycled across training steps: a
    /// training forward unfolds the input into it, backward reads it for
    /// `∇W` and then overwrites it with `δx` before folding. Dropped by an
    /// eval forward and by [`Conv2d::drop_pending_batch`].
    unfolded: Matrix,
    /// Batch size of the latest training forward pass, until backward
    /// consumes it; `None` after an eval forward.
    cached_batch: Option<usize>,
    meter: FlopMeter,
}

impl Conv2d {
    /// Creates a convolution with He-normal weights and zero bias.
    pub fn new(
        name: impl Into<String>,
        geom: ConvGeom,
        out_channels: usize,
        rng: &mut AdrRng,
    ) -> Self {
        let k = geom.k();
        let mut weight = Matrix::zeros(k, out_channels);
        Init::HeNormal.fill(weight.as_mut_slice(), k, out_channels, rng);
        Self {
            name: name.into(),
            geom,
            out_channels,
            weight,
            weight_grad: Matrix::zeros(k, out_channels),
            weight_vel: Matrix::zeros(k, out_channels),
            bias: vec![0.0; out_channels],
            bias_grad: vec![0.0; out_channels],
            bias_vel: vec![0.0; out_channels],
            unfolded: Matrix::default(),
            cached_batch: None,
            meter: FlopMeter::new(),
        }
    }

    /// The layer's convolution geometry.
    pub fn geom(&self) -> &ConvGeom {
        &self.geom
    }

    /// Number of output channels `M`.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Borrows the `K × M` weight matrix.
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// Mutably borrows the weight matrix (used by tests and model surgery).
    pub fn weight_mut(&mut self) -> &mut Matrix {
        &mut self.weight
    }

    /// Borrows the bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// `(W, ∇W, ∇b)`: the weights beside the gradients, for a backward pass
    /// other than this layer's — the reuse pass of `adr_reuse::ReuseConv2d`.
    pub fn weight_and_grads(&mut self) -> (&Matrix, &mut Matrix, &mut [f32]) {
        (&self.weight, &mut self.weight_grad, &mut self.bias_grad)
    }

    /// Forgets the pending training forward and frees its unfolded input:
    /// a backward before the next training forward panics.
    pub fn drop_pending_batch(&mut self) {
        self.cached_batch = None;
        self.unfolded = Matrix::default();
    }

    /// Consumes the pending training forward and fills `∇W = xᵀ·δy` and
    /// `∇b = Σ_rows δy` (Eq. 2) from it; returns its batch size. Meters
    /// `N·K·M` multiply–adds.
    #[expect(
        clippy::expect_used,
        reason = "layer-protocol: backward before a training forward is a training-loop bug (`Layer` contract)"
    )]
    fn param_grads(&mut self, grad_out: &Tensor4) -> usize {
        let batch =
            self.cached_batch.take().expect("backward called without a preceding training forward");
        let (n, k) = self.unfolded.shape();
        let m = self.out_channels;
        let delta_y = grad_out.as_slice();
        assert_eq!(delta_y.len(), n * m, "conv {}: grad_out shape mismatch", self.name);
        gemm_ta_par(self.unfolded.as_slice(), delta_y, self.weight_grad.as_mut_slice(), n, k, m);
        column_sums_into(delta_y, &mut self.bias_grad);
        let work = (n * k * m) as u64;
        self.meter.add_backward(work, work);
        batch
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn output_shape(&self, input: Shape3) -> Shape3 {
        assert_eq!(
            input,
            (self.geom.in_h, self.geom.in_w, self.geom.in_c),
            "conv {}: input shape mismatch",
            self.name
        );
        (self.geom.out_h(), self.geom.out_w(), self.out_channels)
    }

    #[expect(
        clippy::expect_used,
        reason = "internal-invariant: the GEMM output has exactly the element count of the geometry passed beside it"
    )]
    fn forward(&mut self, input: &Tensor4, mode: Mode) -> Tensor4 {
        let (k, m) = (self.geom.k(), self.out_channels);
        let n = self.geom.rows_for_batch(input.batch());
        let mut borrowed;
        let unfolded: &[f32] = if mode == Mode::Train {
            im2col_into(input, &self.geom, &mut self.unfolded);
            self.unfolded.as_slice()
        } else {
            // No backward pass will read this unfold: it goes to the thread's
            // scratch, and no training unfold stays pinned beside it.
            self.drop_pending_batch();
            borrowed = scratch::unfolded(n * k);
            unfold_into(input, &self.geom, &mut borrowed);
            &borrowed
        };
        let mut y = Matrix::zeros(n, m);
        gemm_rows_par(unfolded, self.weight.as_slice(), y.as_mut_slice(), n, k, m);
        y.add_row_bias(&self.bias);
        let work = (n * k * m) as u64;
        self.meter.add_forward(work, work);
        self.cached_batch = (mode == Mode::Train).then_some(input.batch());
        Tensor4::from_vec(input.batch(), self.geom.out_h(), self.geom.out_w(), m, y.into_vec())
            .expect("output shape arithmetic is consistent")
    }

    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let batch = self.param_grads(grad_out);
        // `δx = δy·Wᵀ` (Eq. 3) overwrites the unfolded input — same shape,
        // dead once `∇W` is taken — and `col2im` folds it.
        let (n, k) = self.unfolded.shape();
        let (m, delta_y) = (self.out_channels, grad_out.as_slice());
        gemm_tb_par(delta_y, self.weight.as_slice(), self.unfolded.as_mut_slice(), n, m, k);
        let work = (n * k * m) as u64;
        self.meter.add_backward(work, work);
        col2im(&self.unfolded, &self.geom, batch)
    }

    fn backward_params_only(&mut self, grad_out: &Tensor4) {
        self.param_grads(grad_out);
    }

    fn params_mut(&mut self) -> Vec<ParamRefMut<'_>> {
        vec![
            ParamRefMut {
                data: self.weight.as_mut_slice(),
                grad: self.weight_grad.as_mut_slice(),
                velocity: self.weight_vel.as_mut_slice(),
            },
            ParamRefMut {
                data: &mut self.bias,
                grad: &mut self.bias_grad,
                velocity: &mut self.bias_vel,
            },
        ]
    }

    fn flops(&self) -> FlopReport {
        self.meter.actual()
    }

    fn baseline_flops(&self) -> FlopReport {
        self.meter.baseline()
    }

    fn reset_flops(&mut self) {
        self.meter.reset();
    }

    fn restore_flops(&mut self, actual: FlopReport, baseline: FlopReport) {
        self.meter.restore(actual, baseline);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_conv(rng_seed: u64) -> Conv2d {
        let geom = ConvGeom::new(4, 4, 2, 3, 3, 1, 0).unwrap();
        Conv2d::new("conv", geom, 3, &mut AdrRng::seeded(rng_seed))
    }

    #[test]
    fn forward_shape_is_correct() {
        let mut conv = small_conv(1);
        let x = Tensor4::zeros(2, 4, 4, 2);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), (2, 2, 2, 3));
        assert_eq!(conv.output_shape((4, 4, 2)), (2, 2, 3));
    }

    #[test]
    fn identity_kernel_reproduces_input_channel() {
        // 1x1 kernel, 1 in-channel, 1 out-channel, unit weight: y == x.
        let geom = ConvGeom::new(3, 3, 1, 1, 1, 1, 0).unwrap();
        let mut conv = Conv2d::new("id", geom, 1, &mut AdrRng::seeded(2));
        conv.weight_mut().as_mut_slice()[0] = 1.0;
        let x = Tensor4::from_fn(1, 3, 3, 1, |_, y, xx, _| (y * 3 + xx) as f32);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn bias_shifts_every_output() {
        let geom = ConvGeom::new(2, 2, 1, 1, 1, 1, 0).unwrap();
        let mut conv = Conv2d::new("b", geom, 2, &mut AdrRng::seeded(3));
        conv.weight_mut().scale(0.0);
        conv.bias = vec![1.5, -0.5];
        let y = conv.forward(&Tensor4::zeros(1, 2, 2, 1), Mode::Eval);
        for p in 0..4 {
            assert_eq!(y.as_slice()[p * 2], 1.5);
            assert_eq!(y.as_slice()[p * 2 + 1], -0.5);
        }
    }

    #[test]
    fn backward_gradient_matches_finite_differences() {
        let mut conv = small_conv(7);
        let x = Tensor4::from_fn(1, 4, 4, 2, |_, y, xx, c| ((y * 5 + xx * 3 + c) % 7) as f32 * 0.1);
        // Loss = sum of outputs; dL/dy = 1 everywhere.
        let y = conv.forward(&x, Mode::Train);
        let ones = Tensor4::from_vec(1, 2, 2, 3, vec![1.0; 12]).unwrap();
        let dx = conv.backward(&ones);
        let base: f32 = y.as_slice().iter().sum();

        // Check a few input positions by finite differences.
        let eps = 1e-2;
        for &idx in &[0usize, 5, 17, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let yp: f32 = conv.forward(&xp, Mode::Eval).as_slice().iter().sum();
            let numeric = (yp - base) / eps;
            let analytic = dx.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let mut conv = small_conv(11);
        let x = Tensor4::from_fn(1, 4, 4, 2, |_, y, xx, c| ((y + xx + c) % 5) as f32 * 0.2);
        let y = conv.forward(&x, Mode::Train);
        let ones = Tensor4::from_vec(1, 2, 2, 3, vec![1.0; 12]).unwrap();
        conv.backward(&ones);
        let base: f32 = y.as_slice().iter().sum();
        let eps = 1e-2;
        for &idx in &[0usize, 10, 25, 50] {
            let analytic = conv.weight_grad.as_slice()[idx];
            conv.weight.as_mut_slice()[idx] += eps;
            let yp: f32 = conv.forward(&x, Mode::Eval).as_slice().iter().sum();
            conv.weight.as_mut_slice()[idx] -= eps;
            let numeric = (yp - base) / eps;
            assert!(
                (numeric - analytic).abs() < 1e-1,
                "idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn flops_match_paper_complexity() {
        let mut conv = small_conv(1);
        let x = Tensor4::zeros(2, 4, 4, 2);
        conv.forward(&x, Mode::Train);
        let n = 2 * 2 * 2; // Nb * Oh * Ow
        let k = 18; // 2 * 3 * 3
        let m = 3;
        assert_eq!(conv.flops().forward, (n * k * m) as u64);
        conv.backward(&Tensor4::zeros(2, 2, 2, 3));
        assert_eq!(conv.flops().backward, (2 * n * k * m) as u64);
        assert_eq!(conv.baseline_flops(), conv.flops());
    }

    #[test]
    fn params_only_backward_fills_the_same_gradients_for_one_product() {
        let (mut full, mut skip) = (small_conv(5), small_conv(5));
        let x = Tensor4::from_fn(2, 4, 4, 2, |n, y, xx, c| ((n + y * 3 + xx + c) % 5) as f32 * 0.3);
        let g = Tensor4::from_fn(2, 2, 2, 3, |n, y, xx, c| (n + y + xx * 2 + c) as f32 * 0.1 - 0.3);
        full.forward(&x, Mode::Train);
        skip.forward(&x, Mode::Train);
        full.backward(&g);
        skip.backward_params_only(&g);
        assert_eq!(skip.weight_grad.as_slice(), full.weight_grad.as_slice());
        assert_eq!(skip.bias_grad, full.bias_grad);
        let nkm = (8 * 18 * 3) as u64;
        assert_eq!(skip.flops().backward, nkm);
        assert_eq!(skip.baseline_flops(), skip.flops());
        assert!(skip.cached_batch.is_none(), "the pending batch is consumed");
    }

    #[test]
    #[should_panic(expected = "backward called without")]
    fn backward_without_forward_panics() {
        let mut conv = small_conv(1);
        conv.backward(&Tensor4::zeros(1, 2, 2, 3));
    }

    #[test]
    fn eval_forward_does_not_cache() {
        let mut conv = small_conv(1);
        conv.forward(&Tensor4::zeros(1, 4, 4, 2), Mode::Train);
        assert_eq!((conv.cached_batch, conv.unfolded.shape()), (Some(1), (4, 18)));
        conv.forward(&Tensor4::zeros(1, 4, 4, 2), Mode::Eval);
        assert!(conv.cached_batch.is_none());
        assert_eq!(conv.unfolded.shape(), (0, 0));
    }

    #[test]
    fn params_expose_weight_and_bias() {
        let mut conv = small_conv(1);
        let params = conv.params_mut();
        assert_eq!(params.len(), 2);
        assert_eq!(params[0].data.len(), 18 * 3);
        assert_eq!(params[1].data.len(), 3);
        for p in &params {
            p.check();
        }
    }
}
