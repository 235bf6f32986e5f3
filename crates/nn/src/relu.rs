//! Rectified linear activation.

use adr_tensor::Tensor4;

use crate::layer::{Layer, Mode, Shape3};

/// Element-wise `max(0, x)` with a cached pass-through mask for backward.
pub struct Relu {
    name: String,
    /// `true` where the forward input was positive.
    mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), mask: Vec::new() }
    }
}

impl Layer for Relu {
    fn name(&self) -> &str {
        &self.name
    }

    fn output_shape(&self, input: Shape3) -> Shape3 {
        input
    }

    #[expect(
        clippy::expect_used,
        reason = "internal-invariant: the vector is collected from the input's own slice, so it has the element count of its shape"
    )]
    fn forward(&mut self, input: &Tensor4, mode: Mode) -> Tensor4 {
        let x = input.as_slice();
        // One branch-free select per element: NaN fails `<=` and passes
        // through, `-0.0` and `0.0` both become `+0.0`.
        let out = x.iter().map(|&v| if v <= 0.0 { 0.0 } else { v }).collect();
        if mode == Mode::Train {
            self.mask.clear();
            self.mask.extend(x.iter().map(|&v| v > 0.0));
        }
        let (n, h, w, c) = input.shape();
        Tensor4::from_vec(n, h, w, c, out).expect("one output element per input element")
    }

    #[expect(
        clippy::expect_used,
        reason = "internal-invariant: collected from grad_out's own slice zipped with a mask asserted equally long above"
    )]
    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        assert_eq!(
            grad_out.len(),
            self.mask.len(),
            "relu {}: backward called with mismatched shape or without training forward",
            self.name
        );
        let kept = grad_out.as_slice().iter().zip(&self.mask);
        let grad = kept.map(|(&g, &keep)| if keep { g } else { 0.0 }).collect();
        let (n, h, w, c) = grad_out.shape();
        Tensor4::from_vec(n, h, w, c, grad).expect("one gradient element per output element")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = Relu::new("r");
        let x = Tensor4::from_vec(1, 1, 2, 2, vec![-1.0, 2.0, 0.0, -3.5]).unwrap();
        let y = relu.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn backward_gates_gradient_by_mask() {
        let mut relu = Relu::new("r");
        let x = Tensor4::from_vec(1, 1, 2, 2, vec![-1.0, 2.0, 0.0, 3.0]).unwrap();
        relu.forward(&x, Mode::Train);
        let g = Tensor4::from_vec(1, 1, 2, 2, vec![10.0, 10.0, 10.0, 10.0]).unwrap();
        let gx = relu.backward(&g);
        assert_eq!(gx.as_slice(), &[0.0, 10.0, 0.0, 10.0]);
    }

    #[test]
    fn zero_input_is_not_passed_through() {
        // Subgradient choice at 0: block (mask is strict >).
        let mut relu = Relu::new("r");
        relu.forward(&Tensor4::from_vec(1, 1, 1, 1, vec![0.0]).unwrap(), Mode::Train);
        let gx = relu.backward(&Tensor4::from_vec(1, 1, 1, 1, vec![5.0]).unwrap());
        assert_eq!(gx.as_slice(), &[0.0]);
    }

    /// The scalar definition the vectorised passes must match bit for bit:
    /// NaN propagates forward and is blocked backward, `-0.0` becomes
    /// `+0.0`, and an exact zero is blocked.
    #[test]
    fn edge_cases_match_the_scalar_definition_bitwise() {
        let nan = f32::from_bits(0x7fc0_1234); // a NaN with payload bits
        let x = [nan, -0.0, 0.0, f32::MIN_POSITIVE, -f32::MIN_POSITIVE, f32::INFINITY, -1.5, 2.5];
        let g = [3.0, 4.0, 5.0, 6.0, 7.0, -8.0, 9.0, nan];
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let want_y: Vec<f32> = x.iter().map(|&v| if v <= 0.0 { 0.0 } else { v }).collect();
        let want_g: Vec<f32> =
            x.iter().zip(&g).map(|(&v, &g)| if v > 0.0 { g } else { 0.0 }).collect();
        assert_eq!(bits(&want_y[..3]), bits(&[nan, 0.0, 0.0]));
        assert_eq!(bits(&want_g[..3]), bits(&[0.0, 0.0, 0.0]));
        let input = Tensor4::from_vec(1, 2, 2, 2, x.to_vec()).unwrap();
        let grad = Tensor4::from_vec(1, 2, 2, 2, g.to_vec()).unwrap();
        let mut relu = Relu::new("r");
        assert_eq!(bits(relu.forward(&input, Mode::Eval).as_slice()), bits(&want_y));
        assert_eq!(bits(relu.forward(&input, Mode::Train).as_slice()), bits(&want_y));
        assert_eq!(bits(relu.backward(&grad).as_slice()), bits(&want_g));
    }

    #[test]
    fn shape_is_preserved() {
        let relu = Relu::new("r");
        assert_eq!(relu.output_shape((4, 5, 6)), (4, 5, 6));
    }
}
