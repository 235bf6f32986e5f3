//! Fully-connected layer.
//!
//! Operates on flattened activations: an input of shape `(n, h, w, c)` is
//! treated as `n` feature vectors of length `h·w·c`, and the output is
//! `(n, 1, 1, units)`.

use adr_tensor::matrix::{column_sums_into, Matrix};
use adr_tensor::par::{gemm_ta_par, gemm_tb_par, matmul_par};
use adr_tensor::rng::AdrRng;
use adr_tensor::Tensor4;

use crate::flops::{FlopMeter, FlopReport};
use crate::init::Init;
use crate::layer::{Layer, Mode, ParamRefMut, Shape3};

/// A dense (fully-connected) layer: `y = flatten(x) · W + b`.
pub struct Dense {
    name: String,
    in_features: usize,
    units: usize,
    /// `in_features × units` weight matrix.
    weight: Matrix,
    weight_grad: Matrix,
    weight_vel: Matrix,
    bias: Vec<f32>,
    bias_grad: Vec<f32>,
    bias_vel: Vec<f32>,
    cached_input: Option<Matrix>,
    in_shape: Shape3,
    meter: FlopMeter,
}

impl Dense {
    /// Creates a dense layer with He-normal weights and zero bias.
    ///
    /// # Shape
    /// Weight is `in_features × units`; the layer maps `n × in_features`
    /// activations to `n × units`.
    pub fn new(
        name: impl Into<String>,
        in_features: usize,
        units: usize,
        rng: &mut AdrRng,
    ) -> Self {
        let mut weight = Matrix::zeros(in_features, units);
        Init::HeNormal.fill(weight.as_mut_slice(), in_features, units, rng);
        Self {
            name: name.into(),
            in_features,
            units,
            weight,
            weight_grad: Matrix::zeros(in_features, units),
            weight_vel: Matrix::zeros(in_features, units),
            bias: vec![0.0; units],
            bias_grad: vec![0.0; units],
            bias_vel: vec![0.0; units],
            cached_input: None,
            in_shape: (0, 0, 0),
            meter: FlopMeter::new(),
        }
    }

    /// Input feature count this layer expects after flattening.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn units(&self) -> usize {
        self.units
    }

    /// Mutably borrows the weight matrix (tests / model surgery).
    pub fn weight_mut(&mut self) -> &mut Matrix {
        &mut self.weight
    }
}

impl Layer for Dense {
    fn name(&self) -> &str {
        &self.name
    }

    fn output_shape(&self, input: Shape3) -> Shape3 {
        assert_eq!(
            input.0 * input.1 * input.2,
            self.in_features,
            "dense {}: expected {} input features, got {:?}",
            self.name,
            self.in_features,
            input
        );
        (1, 1, self.units)
    }

    #[expect(
        clippy::expect_used,
        reason = "internal-invariant: each `from_vec` length is computed from the dims passed beside it"
    )]
    fn forward(&mut self, input: &Tensor4, mode: Mode) -> Tensor4 {
        let (n, h, w, c) = input.shape();
        assert_eq!(h * w * c, self.in_features, "dense {}: feature mismatch", self.name);
        let x = Matrix::from_vec(n, self.in_features, input.as_slice().to_vec())
            .expect("shape arithmetic is consistent");
        let mut y = matmul_par(&x, &self.weight);
        y.add_row_bias(&self.bias);
        let work = (n * self.in_features * self.units) as u64;
        self.meter.add_forward(work, work);
        self.in_shape = (h, w, c);
        self.cached_input = (mode == Mode::Train).then_some(x);
        Tensor4::from_vec(n, 1, 1, self.units, y.into_vec())
            .expect("shape arithmetic is consistent")
    }

    #[expect(
        clippy::expect_used,
        reason = "layer-protocol: backward before a training forward is a training-loop bug (`Layer` contract); \
                  internal-invariant: the `from_vec` length is computed from the dims passed beside it"
    )]
    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let x =
            self.cached_input.take().expect("backward called without a preceding training forward");
        let n = x.rows();
        let delta_y = grad_out.as_slice();
        assert_eq!(delta_y.len(), n * self.units, "dense {}: grad_out shape mismatch", self.name);
        // ∇W = xᵀ · δy and ∇b = Σ_rows δy, into the long-lived gradients.
        let weight_grad = self.weight_grad.as_mut_slice();
        gemm_ta_par(x.as_slice(), delta_y, weight_grad, n, self.in_features, self.units);
        column_sums_into(delta_y, &mut self.bias_grad);
        // δx = δy · Wᵀ, straight into the buffer the returned tensor owns.
        let mut delta_x = vec![0.0f32; n * self.in_features];
        gemm_tb_par(delta_y, self.weight.as_slice(), &mut delta_x, n, self.units, self.in_features);
        let work = (2 * n * self.in_features * self.units) as u64;
        self.meter.add_backward(work, work);
        let (h, w, c) = self.in_shape;
        Tensor4::from_vec(n, h, w, c, delta_x).expect("shape arithmetic is consistent")
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

    fn reset_flops(&mut self) {
        self.meter.reset();
    }

    fn restore_flops(&mut self, actual: FlopReport, baseline: FlopReport) {
        self.meter.restore(actual, baseline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_computes_affine_map() {
        let mut dense = Dense::new("fc", 2, 2, &mut AdrRng::seeded(1));
        dense.weight = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        dense.bias = vec![0.5, -0.5];
        let x = Tensor4::from_vec(1, 1, 1, 2, vec![1.0, 1.0]).unwrap();
        let y = dense.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
    }

    #[test]
    fn flattens_spatial_input() {
        let mut dense = Dense::new("fc", 8, 3, &mut AdrRng::seeded(2));
        let x = Tensor4::zeros(2, 2, 2, 2);
        let y = dense.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), (2, 1, 1, 3));
    }

    #[test]
    fn backward_restores_input_shape() {
        let mut dense = Dense::new("fc", 8, 3, &mut AdrRng::seeded(2));
        let x = Tensor4::zeros(2, 2, 2, 2);
        dense.forward(&x, Mode::Train);
        let gx = dense.backward(&Tensor4::zeros(2, 1, 1, 3));
        assert_eq!(gx.shape(), (2, 2, 2, 2));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut dense = Dense::new("fc", 4, 2, &mut AdrRng::seeded(5));
        let x =
            Tensor4::from_vec(2, 1, 1, 4, vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6, 0.7, -0.8]).unwrap();
        let y = dense.forward(&x, Mode::Train);
        let ones = Tensor4::from_vec(2, 1, 1, 2, vec![1.0; 4]).unwrap();
        let dx = dense.backward(&ones);
        let base: f32 = y.as_slice().iter().sum();
        let eps = 1e-2;
        // Input gradient.
        for idx in [0usize, 3, 6] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let yp: f32 = dense.forward(&xp, Mode::Eval).as_slice().iter().sum();
            assert!(((yp - base) / eps - dx.as_slice()[idx]).abs() < 1e-2);
        }
        // Weight gradient.
        for idx in [0usize, 5] {
            let analytic = dense.weight_grad.as_slice()[idx];
            dense.weight.as_mut_slice()[idx] += eps;
            let yp: f32 = dense.forward(&x, Mode::Eval).as_slice().iter().sum();
            dense.weight.as_mut_slice()[idx] -= eps;
            assert!(((yp - base) / eps - analytic).abs() < 1e-2);
        }
    }

    #[test]
    #[should_panic(expected = "feature mismatch")]
    fn wrong_feature_count_panics() {
        let mut dense = Dense::new("fc", 4, 2, &mut AdrRng::seeded(1));
        dense.forward(&Tensor4::zeros(1, 1, 1, 5), Mode::Eval);
    }
}
