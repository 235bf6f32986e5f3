//! Checkpoint persistence across model kinds, including reuse layers.

// Test/example code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use adaptive_deep_reuse::adaptive::trainer::BatchSource;
use adaptive_deep_reuse::models::{cifarnet, ConvMode};
use adaptive_deep_reuse::nn::checkpoint::Checkpoint;
use adaptive_deep_reuse::nn::{LrSchedule, Sgd};
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

    // A twin built from the source's own seed derives the same LSH
    // families, so after `restore` it clusters as the source does and its
    // probe logits are the source's, bit for bit.
    let mut twin = cifarnet::bench_scale(
        4,
        ConvMode::Reuse(ReuseConfig::new(10, 10, false)),
        &mut AdrRng::seeded(1),
    );
    loaded.restore(&mut twin).unwrap();
    assert_eq!(Checkpoint::capture(&mut twin), snap);
    let (probe, _) = source.probe();
    let bits = |t: &Tensor4| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let logits = net.forward(&probe, Mode::Eval);
    assert_eq!(bits(&twin.forward(&probe, Mode::Eval)), bits(&logits));
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
