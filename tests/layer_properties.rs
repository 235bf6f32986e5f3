//! Property-style tests on layer semantics, swept over seeded random cases
//! (see `tests/properties.rs` for the rationale of the dep-free harness).

// Test/example code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use adaptive_deep_reuse::nn::pool::Pool2d;
use adaptive_deep_reuse::nn::relu::Relu;
use adaptive_deep_reuse::nn::softmax::{softmax, softmax_cross_entropy};
use adaptive_deep_reuse::nn::{Layer, Mode};
use adaptive_deep_reuse::tensor::rng::AdrRng;
use adaptive_deep_reuse::tensor::Tensor4;

/// Runs `body` over `cases` independent seeded RNG streams.
fn for_cases(cases: u64, mut body: impl FnMut(u64, &mut AdrRng)) {
    for case in 0..cases {
        let mut rng = AdrRng::seeded(0x1A7E5 + case);
        body(case, &mut rng);
    }
}

/// A random NHWC tensor with dims `n ∈ [1, max_n]`, `h, w ∈ [2, max_hw]`,
/// `c ∈ [1, max_c]` and values in `[-8, 8)`.
fn small_tensor(rng: &mut AdrRng, max_n: usize, max_hw: usize, max_c: usize) -> Tensor4 {
    let n = 1 + rng.below(max_n);
    let h = 2 + rng.below(max_hw - 1);
    let w = 2 + rng.below(max_hw - 1);
    let c = 1 + rng.below(max_c);
    Tensor4::from_fn(n, h, w, c, |_, _, _, _| rng.uniform_in(-8.0, 8.0))
}

#[test]
fn relu_is_idempotent() {
    for_cases(48, |case, rng| {
        let x = small_tensor(rng, 2, 5, 3);
        let mut relu = Relu::new("r");
        let once = relu.forward(&x, Mode::Eval);
        let twice = relu.forward(&once, Mode::Eval);
        assert_eq!(once.as_slice(), twice.as_slice(), "case {case}");
        assert!(once.as_slice().iter().all(|&v| v >= 0.0), "case {case}");
    });
}

#[test]
fn max_pool_is_monotone() {
    for_cases(48, |case, rng| {
        let x = small_tensor(rng, 1, 6, 2);
        let bump = rng.uniform_in(0.0, 3.0);
        let mut pool = Pool2d::max("m", 2, 2);
        let base = pool.forward(&x, Mode::Eval);
        let mut shifted = x.clone();
        for v in shifted.as_mut_slice() {
            *v += bump;
        }
        let lifted = pool.forward(&shifted, Mode::Eval);
        for (b, l) in base.as_slice().iter().zip(lifted.as_slice()) {
            assert!(l >= b, "case {case}: pooling must preserve pointwise ordering");
        }
    });
}

#[test]
fn softmax_outputs_are_probabilities() {
    for_cases(48, |case, rng| {
        let c = 2 + rng.below(22);
        let logits: Vec<f32> = (0..c).map(|_| rng.uniform_in(-20.0, 20.0)).collect();
        let z = Tensor4::from_vec(1, 1, 1, c, logits).expect("shape matches data");
        let p = softmax(&z);
        let sum: f32 = p.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "case {case}: sum {sum}");
        assert!(p.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)), "case {case}");
    });
}

#[test]
fn cross_entropy_is_minimised_at_true_label() {
    for_cases(48, |case, rng| {
        // Raising the true logit must never increase the loss.
        let c = 3 + rng.below(5);
        let logits: Vec<f32> = (0..c).map(|_| rng.uniform_in(-4.0, 4.0)).collect();
        let label = rng.below(3.min(c));
        let z = Tensor4::from_vec(1, 1, 1, c, logits.clone()).expect("shape matches data");
        let base = softmax_cross_entropy(&z, &[label]).loss;
        let mut boosted = logits;
        boosted[label] += 1.0;
        let zb = Tensor4::from_vec(1, 1, 1, c, boosted).expect("shape matches data");
        let better = softmax_cross_entropy(&zb, &[label]).loss;
        assert!(better <= base + 1e-5, "case {case}: boosting true logit raised loss");
    });
}
