//! Checkpoint persistence across model kinds, including reuse layers and
//! batch-norm running state.

// Test/example code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use adaptive_deep_reuse::adaptive::trainer::BatchSource;
use adaptive_deep_reuse::models::{cifarnet, ConvMode};
use adaptive_deep_reuse::nn::batchnorm::BatchNorm;
use adaptive_deep_reuse::nn::checkpoint::Checkpoint;
use adaptive_deep_reuse::nn::dense::Dense;
use adaptive_deep_reuse::nn::relu::Relu;
use adaptive_deep_reuse::nn::{LrSchedule, Network, Sgd};
use adaptive_deep_reuse::prelude::*;
use adaptive_deep_reuse::reuse::ReuseConfig;
use adaptive_deep_reuse::source::DatasetSource;

fn small_source(seed: u64) -> DatasetSource {
    let cfg = SynthConfig {
        num_images: 96,
        num_classes: 4,
        height: 16,
        width: 16,
        channels: 3,
        smoothing_passes: 2,
        noise_std: 0.08,
        max_shift: 2,
        image_variability: 0.4,
    };
    DatasetSource::new(SynthDataset::generate(&cfg, &mut AdrRng::seeded(seed)), 16, 16)
}

#[test]
fn reuse_model_checkpoint_round_trips_through_bytes() {
    let mut rng = AdrRng::seeded(1);
    let mut net =
        cifarnet::bench_scale(4, ConvMode::Reuse(ReuseConfig::new(10, 10, false)), &mut rng);
    let mut source = small_source(2);
    let mut sgd = Sgd::new(LrSchedule::Constant(0.02), 0.9, 0.0).with_clip_norm(5.0);
    for it in 0..30 {
        let (x, y) = source.batch(it % source.num_batches());
        net.train_batch(&x, &y, &mut sgd);
    }
    let snap = Checkpoint::capture(&mut net);
    let loaded = Checkpoint::from_bytes(&snap.to_bytes()).unwrap();
    assert_eq!(loaded, snap);

    // A freshly initialised twin gives identical logits after restore.
    let mut twin = cifarnet::bench_scale(
        4,
        ConvMode::Reuse(ReuseConfig::new(10, 10, false)),
        &mut AdrRng::seeded(77),
    );
    loaded.restore(&mut twin).unwrap();
    let (probe, _) = source.probe();
    // Reuse layers hash with layer-private families, so logits are close
    // (clustering may differ) — compare through the *dense-equivalent*
    // parameters instead: capture again and require bit equality.
    assert_eq!(Checkpoint::capture(&mut twin), snap);
    let _ = probe;
}

#[test]
fn batchnorm_running_state_survives_checkpoint() {
    let build = |seed: u64| {
        let mut rng = AdrRng::seeded(seed);
        let mut net = Network::new((4, 4, 2));
        net.push(Box::new(BatchNorm::new("bn", 2)));
        net.push(Box::new(Relu::new("relu")));
        net.push(Box::new(Dense::new("fc", 32, 2, &mut rng)));
        net
    };
    let mut net = build(1);
    let mut xrng = AdrRng::seeded(3);
    let x = Tensor4::from_fn(8, 4, 4, 2, |_, _, _, _| xrng.gauss() * 3.0 + 1.0);
    let mut sgd = Sgd::constant(0.01);
    for _ in 0..10 {
        net.train_batch(&x, &[0, 1, 0, 1, 0, 1, 0, 1], &mut sgd);
    }
    let snap = Checkpoint::capture(&mut net);
    assert_eq!(snap.state.len(), 2, "bn running mean + var");

    let mut fresh = build(9);
    snap.restore(&mut fresh).unwrap();
    // Eval logits must match exactly: running stats were restored too.
    let a = net.forward(&x, Mode::Eval);
    let b = fresh.forward(&x, Mode::Eval);
    assert_eq!(a.as_slice(), b.as_slice());
}

#[test]
fn checkpoint_of_dense_model_does_not_fit_reuse_twin_of_other_shape() {
    let mut rng = AdrRng::seeded(4);
    let mut dense = cifarnet::bench_scale(4, ConvMode::Dense, &mut rng);
    let snap = Checkpoint::capture(&mut dense);
    let mut other = cifarnet::bench_scale(10, ConvMode::Dense, &mut AdrRng::seeded(5));
    // 10-class head has a different logits layer size.
    assert!(snap.restore(&mut other).is_err());
}
