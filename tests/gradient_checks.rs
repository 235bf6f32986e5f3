//! Finite-difference gradient checks through whole multi-layer networks.
//!
//! These validate the backward pass of every layer *in composition* — the
//! unit tests check layers in isolation; here the chain rule across layer
//! boundaries (including im2col/col2im folding and shape transitions) is
//! exercised end to end.
//!
//! # Registry
//!
//! This file doubles as the gradient-check registry: every type
//! implementing `Layer` in `crates/nn` or `crates/reuse` must be named in a
//! `grad-check: <Type>` comment next to the test that exercises its
//! backward pass. Removing a marker (or adding a layer without one) fails
//! `every_layer_impl_is_gradient_checked` at the end of this file.

// Test/example code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use adaptive_deep_reuse::nn::conv::Conv2d;
use adaptive_deep_reuse::nn::dense::Dense;
use adaptive_deep_reuse::nn::lrn::Lrn;
use adaptive_deep_reuse::nn::pool::Pool2d;
use adaptive_deep_reuse::nn::relu::Relu;
use adaptive_deep_reuse::nn::softmax::softmax_cross_entropy;
use adaptive_deep_reuse::nn::{Mode, Network};
use adaptive_deep_reuse::tensor::im2col::ConvGeom;
use adaptive_deep_reuse::tensor::rng::AdrRng;
use adaptive_deep_reuse::tensor::Tensor4;

/// Loss of a network on a fixed labelled batch.
fn loss_of(net: &mut Network, x: &Tensor4, labels: &[usize]) -> f32 {
    let logits = net.forward(x, Mode::Eval);
    softmax_cross_entropy(&logits, labels).loss
}

/// Checks dL/dx against finite differences at a sample of input positions.
fn check_input_gradient(net: &mut Network, x: &Tensor4, labels: &[usize], tol: f32) {
    let logits = net.forward(x, Mode::Train);
    let out = softmax_cross_entropy(&logits, labels);
    let dx = net.backward(&out.grad);
    let base = out.loss;
    let eps = 1e-2;
    let stride = (x.len() / 7).max(1);
    for idx in (0..x.len()).step_by(stride) {
        let mut xp = x.clone();
        xp.as_mut_slice()[idx] += eps;
        let lp = loss_of(net, &xp, labels);
        let numeric = (lp - base) / eps;
        let analytic = dx.as_slice()[idx];
        assert!(
            (numeric - analytic).abs() < tol,
            "input idx {idx}: numeric {numeric} vs analytic {analytic}"
        );
    }
}

/// Checks dL/dθ of every parameter buffer against finite differences at a
/// sample of positions.
fn check_weight_gradients(net: &mut Network, x: &Tensor4, labels: &[usize], tol: f32) {
    let logits = net.forward(x, Mode::Train);
    let out = softmax_cross_entropy(&logits, labels);
    net.backward(&out.grad);
    let base = out.loss;

    // Collect analytic gradients, then perturb weights one at a time.
    let analytic: Vec<Vec<f32>> =
        net.layers_mut().iter_mut().flat_map(|l| l.params_mut()).map(|p| p.grad.to_vec()).collect();
    let eps = 1e-2;
    for (pi, grads) in analytic.iter().enumerate() {
        let stride = (grads.len() / 5).max(1);
        for idx in (0..grads.len()).step_by(stride) {
            {
                let mut params: Vec<_> =
                    net.layers_mut().iter_mut().flat_map(|l| l.params_mut()).collect();
                params[pi].data[idx] += eps;
            }
            let lp = loss_of(net, x, labels);
            {
                let mut params: Vec<_> =
                    net.layers_mut().iter_mut().flat_map(|l| l.params_mut()).collect();
                params[pi].data[idx] -= eps;
            }
            let numeric = (lp - base) / eps;
            assert!(
                (numeric - grads[idx]).abs() < tol,
                "param {pi} idx {idx}: numeric {numeric} vs analytic {}",
                grads[idx]
            );
        }
    }
}

// grad-check: Conv2d, Relu, Pool2d, Dense
#[test]
fn conv_relu_pool_dense_chain() {
    let mut rng = AdrRng::seeded(1);
    let mut net = Network::new((8, 8, 2));
    let geom = ConvGeom::new(8, 8, 2, 3, 3, 1, 0).unwrap();
    net.push(Box::new(Conv2d::new("conv", geom, 4, &mut rng)));
    net.push(Box::new(Relu::new("relu")));
    net.push(Box::new(Pool2d::max("pool", 2, 2)));
    net.push(Box::new(Dense::new("fc", 3 * 3 * 4, 3, &mut rng)));
    let mut xrng = AdrRng::seeded(2);
    let x = Tensor4::from_fn(2, 8, 8, 2, |_, _, _, _| xrng.gauss() * 0.5);
    check_input_gradient(&mut net, &x, &[0, 2], 2e-2);
}

// The reuse convolution's *dense mode* is exact, so it checks out against
// finite differences like `Conv2d`; its reuse modes approximate the gradient
// by design (Eq. 9/10, 17/18) and are compared with dense in
// `tests/reuse_equivalence.rs` instead.
// grad-check: ReuseConv2d
#[test]
fn reuse_conv_in_dense_mode_chain() {
    use adaptive_deep_reuse::reuse::{ReuseConfig, ReuseConv2d};
    let mut rng = AdrRng::seeded(13);
    let mut net = Network::new((9, 9, 2));
    let geom = ConvGeom::new(9, 9, 2, 3, 3, 2, 1).unwrap(); // 9 -> 5
    let mut conv = ReuseConv2d::new("conv", geom, 4, ReuseConfig::new(6, 4, false), &mut rng);
    conv.exact_fallback();
    net.push(Box::new(conv));
    net.push(Box::new(Relu::new("relu")));
    net.push(Box::new(Dense::new("fc", 5 * 5 * 4, 3, &mut rng)));
    let mut xrng = AdrRng::seeded(14);
    let x = Tensor4::from_fn(2, 9, 9, 2, |_, _, _, _| xrng.gauss() * 0.5);
    check_input_gradient(&mut net, &x, &[0, 2], 2e-2);
    check_weight_gradients(&mut net, &x, &[0, 2], 3e-2);
}

#[test]
fn two_conv_chain_with_padding_and_stride() {
    let mut rng = AdrRng::seeded(3);
    let mut net = Network::new((9, 9, 1));
    let g1 = ConvGeom::new(9, 9, 1, 3, 3, 2, 1).unwrap(); // 9 -> 5
    net.push(Box::new(Conv2d::new("conv1", g1, 3, &mut rng)));
    net.push(Box::new(Relu::new("relu1")));
    let g2 = ConvGeom::new(5, 5, 3, 3, 3, 1, 0).unwrap(); // 5 -> 3
    net.push(Box::new(Conv2d::new("conv2", g2, 4, &mut rng)));
    net.push(Box::new(Dense::new("fc", 3 * 3 * 4, 2, &mut rng)));
    let mut xrng = AdrRng::seeded(4);
    let x = Tensor4::from_fn(1, 9, 9, 1, |_, _, _, _| xrng.gauss() * 0.5);
    check_input_gradient(&mut net, &x, &[1], 2e-2);
}

// grad-check: Lrn
#[test]
fn chain_with_lrn_and_avg_pool() {
    let mut rng = AdrRng::seeded(5);
    let mut net = Network::new((6, 6, 3));
    let geom = ConvGeom::new(6, 6, 3, 3, 3, 1, 0).unwrap();
    net.push(Box::new(Conv2d::new("conv", geom, 4, &mut rng)));
    net.push(Box::new(Lrn::new("lrn", 1, 0.5, 0.75, 2.0)));
    net.push(Box::new(Pool2d::avg("pool", 2, 2)));
    net.push(Box::new(Dense::new("fc", 2 * 2 * 4, 3, &mut rng)));
    let mut xrng = AdrRng::seeded(6);
    let x = Tensor4::from_fn(1, 6, 6, 3, |_, _, _, _| xrng.gauss() * 0.4);
    check_input_gradient(&mut net, &x, &[2], 3e-2);
}

#[test]
fn weight_gradients_of_composed_network() {
    let mut rng = AdrRng::seeded(7);
    let mut net = Network::new((6, 6, 1));
    let geom = ConvGeom::new(6, 6, 1, 3, 3, 1, 0).unwrap();
    net.push(Box::new(Conv2d::new("conv", geom, 3, &mut rng)));
    net.push(Box::new(Relu::new("relu")));
    net.push(Box::new(Dense::new("fc", 4 * 4 * 3, 2, &mut rng)));
    let mut xrng = AdrRng::seeded(8);
    let x = Tensor4::from_fn(2, 6, 6, 1, |_, _, _, _| xrng.gauss() * 0.5);
    let labels = [0usize, 1];

    check_weight_gradients(&mut net, &x, &labels, 3e-2);
}

#[test]
fn dropout_eval_gradient_is_exact() {
    // With dropout in eval mode the network is deterministic, so gradients
    // must check out exactly like any other chain.
    use adaptive_deep_reuse::nn::dropout::Dropout;
    let mut rng = AdrRng::seeded(9);
    let mut net = Network::new((4, 4, 2));
    net.push(Box::new(Dense::new("fc1", 32, 8, &mut rng)));
    net.push(Box::new(Relu::new("relu")));
    net.push(Box::new(Dropout::new("drop", 0.0, AdrRng::seeded(10))));
    net.push(Box::new(Dense::new("fc2", 8, 2, &mut rng)));
    let mut xrng = AdrRng::seeded(11);
    let x = Tensor4::from_fn(2, 4, 4, 2, |_, _, _, _| xrng.gauss() * 0.5);
    check_input_gradient(&mut net, &x, &[0, 1], 2e-2);
}

/// Loss of a network on a fixed batch using *training-mode* forwards (for
/// layers whose train path differs from eval: batch statistics, live masks).
fn train_loss_of(net: &mut Network, x: &Tensor4, labels: &[usize]) -> f32 {
    let logits = net.forward(x, Mode::Train);
    softmax_cross_entropy(&logits, labels).loss
}

// grad-check: BatchNorm
#[test]
fn chain_with_batchnorm_train_mode() {
    // BatchNorm's training forward normalises with *batch* statistics, so
    // the finite-difference probe must also run in training mode: the
    // statistics are a deterministic function of the input, and perturbing
    // one input cell legitimately moves the whole channel's mean/variance —
    // the analytic backward accounts for exactly that coupling.
    use adaptive_deep_reuse::nn::batchnorm::BatchNorm;
    let mut rng = AdrRng::seeded(12);
    let mut net = Network::new((6, 6, 2));
    let geom = ConvGeom::new(6, 6, 2, 3, 3, 1, 0).unwrap();
    net.push(Box::new(Conv2d::new("conv", geom, 4, &mut rng)));
    net.push(Box::new(BatchNorm::new("bn", 4)));
    net.push(Box::new(Relu::new("relu")));
    net.push(Box::new(Dense::new("fc", 4 * 4 * 4, 3, &mut rng)));
    let mut xrng = AdrRng::seeded(13);
    let x = Tensor4::from_fn(2, 6, 6, 2, |_, _, _, _| xrng.gauss() * 0.5);
    let labels = [0usize, 2];

    let logits = net.forward(&x, Mode::Train);
    let out = softmax_cross_entropy(&logits, &labels);
    let dx = net.backward(&out.grad);
    let base = out.loss;
    let eps = 1e-2;
    let stride = (x.len() / 7).max(1);
    for idx in (0..x.len()).step_by(stride) {
        let mut xp = x.clone();
        xp.as_mut_slice()[idx] += eps;
        let lp = train_loss_of(&mut net, &xp, &labels);
        let numeric = (lp - base) / eps;
        let analytic = dx.as_slice()[idx];
        assert!(
            (numeric - analytic).abs() < 3e-2,
            "input idx {idx}: numeric {numeric} vs analytic {analytic}"
        );
    }
}

// grad-check: Dropout
#[test]
fn dropout_train_gradient_replays_the_mask() {
    // Training-mode dropout draws a fresh mask per forward, so the probe
    // cannot reuse one network. Instead the whole network is rebuilt from
    // identical seeds for every loss evaluation: AdrRng is deterministic,
    // so each rebuild replays the same weights AND the same mask, making
    // the perturbed losses differentiable against the recorded backward.
    use adaptive_deep_reuse::nn::dropout::Dropout;
    let build = || {
        let mut rng = AdrRng::seeded(14);
        let mut net = Network::new((4, 4, 2));
        net.push(Box::new(Dense::new("fc1", 32, 12, &mut rng)));
        net.push(Box::new(Relu::new("relu")));
        net.push(Box::new(Dropout::new("drop", 0.3, AdrRng::seeded(15))));
        net.push(Box::new(Dense::new("fc2", 12, 3, &mut rng)));
        net
    };
    let mut xrng = AdrRng::seeded(16);
    let x = Tensor4::from_fn(2, 4, 4, 2, |_, _, _, _| xrng.gauss() * 0.5);
    let labels = [1usize, 2];

    let mut net = build();
    let logits = net.forward(&x, Mode::Train);
    let out = softmax_cross_entropy(&logits, &labels);
    let dx = net.backward(&out.grad);
    let base = out.loss;
    let eps = 1e-2;
    let stride = (x.len() / 9).max(1);
    for idx in (0..x.len()).step_by(stride) {
        let mut xp = x.clone();
        xp.as_mut_slice()[idx] += eps;
        let lp = train_loss_of(&mut build(), &xp, &labels);
        let numeric = (lp - base) / eps;
        let analytic = dx.as_slice()[idx];
        assert!(
            (numeric - analytic).abs() < 2e-2,
            "input idx {idx}: numeric {numeric} vs analytic {analytic}"
        );
    }
}

#[test]
fn lrn_standalone_gradient() {
    // LRN alone (radius spanning several channels) in front of a dense
    // head, complementing the avg-pool chain test above with a sharper
    // tolerance on the cross-channel terms.
    let mut rng = AdrRng::seeded(17);
    let mut net = Network::new((4, 4, 4));
    net.push(Box::new(Lrn::new("lrn", 2, 1e-2, 0.75, 1.0)));
    net.push(Box::new(Dense::new("fc", 4 * 4 * 4, 3, &mut rng)));
    let mut xrng = AdrRng::seeded(18);
    let x = Tensor4::from_fn(1, 4, 4, 4, |_, _, _, _| xrng.gauss() * 0.5 + 1.0);
    check_input_gradient(&mut net, &x, &[1], 1e-2);
}

/// The registry is complete: each `impl Layer for T` under `crates/nn/src`
/// and `crates/reuse/src` names `T` in a `// grad-check:` marker above.
#[test]
fn every_layer_impl_is_gradient_checked() {
    let registry: Vec<&str> = include_str!("gradient_checks.rs")
        .lines()
        .filter_map(|line| line.trim().strip_prefix("// grad-check:"))
        .flat_map(|names| names.split(',').map(str::trim))
        .collect();
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.join("crates/nn/src"), root.join("crates/reuse/src")];
    let (mut impls, mut missing) = (0, Vec::new());
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let source = std::fs::read_to_string(&path).unwrap();
                for rest in source.split("impl Layer for ").skip(1) {
                    let end = rest.find(|c: char| !c.is_alphanumeric() && c != '_');
                    let ty = &rest[..end.unwrap_or(rest.len())];
                    impls += 1;
                    if !registry.contains(&ty) {
                        missing.push(format!("{ty} ({})", path.display()));
                    }
                }
            }
        }
    }
    assert!(impls > 0, "no `impl Layer for` found: the scan is looking in the wrong place");
    assert!(missing.is_empty(), "Layer impls without a `// grad-check:` marker: {missing:?}");
}
