//! Cross-crate equivalence tests: the deep-reuse convolution must
//! degenerate to the exact dense convolution when clustering is lossless,
//! in both directions of propagation.

// Test/example code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use adaptive_deep_reuse::nn::conv::Conv2d;
use adaptive_deep_reuse::nn::{Layer, Mode};
use adaptive_deep_reuse::reuse::{ReuseConfig, ReuseConv2d};
use adaptive_deep_reuse::tensor::im2col::ConvGeom;
use adaptive_deep_reuse::tensor::rng::AdrRng;
use adaptive_deep_reuse::tensor::Tensor4;

fn gaussian_input(n: usize, h: usize, w: usize, c: usize, seed: u64) -> Tensor4 {
    let mut rng = AdrRng::seeded(seed);
    Tensor4::from_fn(n, h, w, c, |_, _, _, _| rng.gauss())
}

fn max_diff(a: &Tensor4, b: &Tensor4) -> f32 {
    a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
}

/// Builds a dense conv and a weight-sharing reuse twin.
fn twins(geom: ConvGeom, m: usize, l: usize, h: usize, seed: u64) -> (Conv2d, ReuseConv2d) {
    let mut rng = AdrRng::seeded(seed);
    let dense = Conv2d::new("dense", geom, m, &mut rng);
    let reuse = ReuseConv2d::from_dense(&dense, ReuseConfig::new(l, h, false), &mut rng);
    (dense, reuse)
}

/// Dense equivalence only holds when every sub-vector cluster is a singleton;
/// many hyperplanes on gaussian sub-vectors make that overwhelmingly likely
/// but not certain, so the precondition is pinned before any comparison.
fn assert_singleton_clusters(reuse: &ReuseConv2d, k: usize, l: usize) {
    let rc = reuse.stats().avg_remaining_ratio;
    assert!(rc > 0.999, "precondition (K = {k}, L = {l}): singleton clusters, rc = {rc}");
}

#[test]
fn forward_agrees_on_gaussian_input_with_many_hashes() {
    let geom = ConvGeom::new(10, 10, 3, 3, 3, 1, 1).unwrap();
    let (mut dense, mut reuse) = twins(geom, 8, 27, 48, 1);
    let x = gaussian_input(2, 10, 10, 3, 2);
    let yd = dense.forward(&x, Mode::Eval);
    let yr = reuse.forward(&x, Mode::Eval);
    // Gaussian receptive fields are pairwise distinct with 48 hyperplanes:
    // clusters are (almost surely) singletons, so outputs agree.
    assert!(
        reuse.stats().avg_remaining_ratio > 0.95,
        "precondition: near-singleton clusters, rc = {}",
        reuse.stats().avg_remaining_ratio
    );
    assert!(max_diff(&yd, &yr) < 1e-3, "forward diff {}", max_diff(&yd, &yr));
}

#[test]
fn forward_agrees_with_sub_vector_partition() {
    // L < K exercises the partial-sum reconstruction (Fig. 3); the two
    // L = 10 cases leave a short last sub-vector (K = 36: tail 6, K = 27:
    // tail 7) — what the fixed {L = 8} workloads run on their first conv.
    for (in_c, l, h) in [(4, 9, 40), (4, 10, 64), (3, 10, 64)] {
        let geom = ConvGeom::new(8, 8, in_c, 3, 3, 1, 0).unwrap();
        let (mut dense, mut reuse) = twins(geom, 6, l, h, 5);
        let x = gaussian_input(2, 8, 8, in_c, 6);
        let yd = dense.forward(&x, Mode::Eval);
        let yr = reuse.forward(&x, Mode::Eval);
        assert_singleton_clusters(&reuse, geom.k(), l);
        let diff = max_diff(&yd, &yr);
        assert!(diff < 1e-2, "K = {}, L = {l}: forward diff {diff}", geom.k());
    }
}

#[test]
fn backward_agrees_when_clusters_are_singletons() {
    // The L = 10 cases have a ragged tail, as in the forward test above.
    for (in_c, l, h, n) in [(2, 18, 45, 1), (4, 10, 64, 2), (3, 10, 64, 2)] {
        let geom = ConvGeom::new(8, 8, in_c, 3, 3, 1, 0).unwrap();
        let (mut dense, mut reuse) = twins(geom, 5, l, h, 5);
        let x = gaussian_input(n, 8, 8, in_c, 6);
        dense.forward(&x, Mode::Train);
        reuse.forward(&x, Mode::Train);
        assert_singleton_clusters(&reuse, geom.k(), l);
        let mut grng = AdrRng::seeded(7);
        let g = Tensor4::from_fn(n, 6, 6, 5, |_, _, _, _| grng.gauss());
        let dxd = dense.backward(&g);
        let dxr = reuse.backward(&g);
        let dxdiff = max_diff(&dxd, &dxr);
        assert!(dxdiff < 1e-2, "K = {}, L = {l}: input-grad diff {dxdiff}", geom.k());
        // Weight and bias gradients agree too.
        let wd: Vec<f32> = dense.params_mut()[0].grad.to_vec();
        let wr: Vec<f32> = reuse.params_mut()[0].grad.to_vec();
        let wdiff = wd.iter().zip(&wr).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(wdiff < 1e-2, "K = {}, L = {l}: weight-grad diff {wdiff}", geom.k());
    }
}

#[test]
fn reuse_error_is_monotone_in_hash_count() {
    // Correlated input (smooth ramp + noise) so clusters actually form.
    let geom = ConvGeom::new(12, 12, 2, 3, 3, 1, 0).unwrap();
    let mut rng = AdrRng::seeded(8);
    let x = Tensor4::from_fn(2, 12, 12, 2, |_, y, xx, c| {
        ((y + xx) as f32 * 0.1 - 1.0) + c as f32 * 0.2 + 0.02 * rng.gauss()
    });
    let mut dense = Conv2d::new("d", geom, 8, &mut AdrRng::seeded(9));
    let yd = dense.forward(&x, Mode::Eval);
    let err_at = |h: usize| {
        let mut reuse = ReuseConv2d::from_dense(
            &dense,
            ReuseConfig::new(18, h, false),
            &mut AdrRng::seeded(10),
        );
        let yr = reuse.forward(&x, Mode::Eval);
        max_diff(&yd, &yr)
    };
    let coarse = err_at(3);
    let fine = err_at(30);
    assert!(fine <= coarse, "error should not grow with more hashes: H=3 {coarse} vs H=30 {fine}");
}

#[test]
fn flop_meter_never_exceeds_profitable_bound_claims() {
    // The meter's baseline must be exactly N*K*M (forward) and 2*N*K*M
    // (backward) regardless of reuse configuration.
    let geom = ConvGeom::new(9, 9, 3, 3, 3, 1, 0).unwrap();
    let (_, mut reuse) = twins(geom, 7, 9, 10, 11);
    let x = gaussian_input(2, 9, 9, 3, 12);
    reuse.forward(&x, Mode::Train);
    let n = 2 * 7 * 7;
    let k = 27;
    let m = 7;
    assert_eq!(reuse.baseline_flops().forward, (n * k * m) as u64);
    reuse.backward(&Tensor4::zeros(2, 7, 7, 7));
    assert_eq!(reuse.baseline_flops().backward, (2 * n * k * m) as u64);
}

#[test]
fn retuning_mid_stream_keeps_layer_functional() {
    let geom = ConvGeom::new(8, 8, 2, 3, 3, 1, 0).unwrap();
    let (_, mut reuse) = twins(geom, 4, 18, 12, 13);
    let x = gaussian_input(1, 8, 8, 2, 14);
    for (l, h, cr) in [(18, 12, false), (6, 8, true), (3, 15, false), (18, 4, true)] {
        reuse.set_reuse_params(l, h, cr);
        let y = reuse.forward(&x, Mode::Train);
        assert_eq!(y.shape(), (1, 6, 6, 4));
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        let dx = reuse.backward(&Tensor4::zeros(1, 6, 6, 4));
        assert_eq!(dx.shape(), (1, 8, 8, 2));
    }
}
