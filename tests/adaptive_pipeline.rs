//! Integration tests of the adaptive machinery on real model topologies:
//! policies → candidate lists → controller → trainer, end to end.

// Test/example code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use adaptive_deep_reuse::adaptive::controller::AdaptiveController;
use adaptive_deep_reuse::adaptive::policy::{HRange, LRange};
use adaptive_deep_reuse::adaptive::trainer::{BatchSource, Trainer, TrainerConfig};
use adaptive_deep_reuse::adaptive::{CandidateList, Strategy};
use adaptive_deep_reuse::models::{cifarnet, vgg19, ConvMode};
use adaptive_deep_reuse::nn::{LrSchedule, Sgd};
use adaptive_deep_reuse::prelude::*;
use adaptive_deep_reuse::source::DatasetSource;

fn small_dataset(seed: u64, n: usize, classes: usize) -> SynthDataset {
    let cfg = SynthConfig {
        num_images: n,
        num_classes: classes,
        height: 16,
        width: 16,
        channels: 3,
        smoothing_passes: 2,
        noise_std: 0.08,
        max_shift: 2,
        image_variability: 0.4,
    };
    SynthDataset::generate(&cfg, &mut AdrRng::seeded(seed))
}

#[test]
fn policy_ranges_for_cifarnet_layers_are_sane() {
    // conv1: kw=5, Ic=3, first layer.
    let l1 = LRange::from_geometry(5, 3, true);
    assert_eq!((l1.min(), l1.max()), (5, 10));
    // conv2: kw=5, Ic=64.
    let l2 = LRange::from_geometry(5, 64, false);
    assert_eq!((l2.min(), l2.max()), (5, 40));
    // H range for a 16-image batch of 16x16 inputs (conv1: N = 16*16*16).
    let h = HRange::from_rows(16 * 16 * 16, 8);
    assert!(h.min() >= 1 && h.max() <= 64 && h.min() <= h.max());
    // Candidate list ties them together.
    let c = CandidateList::build(&l2, &h, 64);
    assert_eq!(*c.settings().first().unwrap(), (l2.max(), h.min()));
    assert_eq!(*c.settings().last().unwrap(), (l2.min(), h.max()));
}

#[test]
fn controller_covers_every_reuse_layer_of_vgg19() {
    let mut rng = AdrRng::seeded(1);
    let mut net = vgg19::bench_scale(4, ConvMode::reuse_default(), &mut rng);
    let controller = AdaptiveController::for_network(&mut net, 8, 4, 4, 0.01, 0).unwrap();
    assert_eq!(controller.plans().len(), 16, "all 16 conv layers planned");
    // Every plan's schedule is non-trivial and monotone.
    for plan in controller.plans() {
        assert!(!plan.candidates.is_empty());
        for w in plan.candidates.settings().windows(2) {
            assert!(w[1].0 <= w[0].0 && w[1].1 >= w[0].1);
        }
    }
}

#[test]
fn adaptive_training_switches_and_saves_flops_on_cifarnet() {
    let mut rng = AdrRng::seeded(2);
    let dataset = small_dataset(3, 160, 4);
    let mut source = DatasetSource::new(dataset, 16, 32);
    let mut net = cifarnet::bench_scale(4, ConvMode::reuse_default(), &mut rng);
    let trainer = Trainer::new(TrainerConfig {
        max_iterations: 120,
        eval_every: 10,
        plateau_patience: 4,
        plateau_min_delta: 0.01,
        plateau_warmup: 10,
        ..Default::default()
    });
    let mut sgd = Sgd::new(LrSchedule::Constant(0.02), 0.9, 0.0).with_clip_norm(5.0);
    let report = trainer.train(&mut net, Strategy::adaptive(), &mut source, &mut sgd).unwrap();
    assert!(!report.switches.is_empty(), "controller must switch at least once");
    assert!(report.flop_savings() > 0.3, "flop savings {}", report.flop_savings());
    assert!(report.final_accuracy.is_finite());
}

#[test]
fn all_four_strategies_produce_finite_trainings() {
    let runs = [
        (ConvMode::Dense, Strategy::baseline()),
        (
            ConvMode::Reuse(adaptive_deep_reuse::reuse::ReuseConfig::new(5, 10, false)),
            Strategy::fixed(5, 10),
        ),
        (ConvMode::reuse_default(), Strategy::adaptive()),
        (
            ConvMode::Reuse(adaptive_deep_reuse::reuse::ReuseConfig::new(5, 10, true)),
            Strategy::cluster_reuse(5, 10),
        ),
    ];
    for (mode, strategy) in runs {
        let mut rng = AdrRng::seeded(4);
        let dataset = small_dataset(5, 96, 4);
        let mut source = DatasetSource::new(dataset, 16, 16);
        let mut net = cifarnet::bench_scale(4, mode, &mut rng);
        let trainer = Trainer::new(TrainerConfig {
            max_iterations: 40,
            eval_every: 10,
            plateau_patience: 4,
            plateau_warmup: 8,
            ..Default::default()
        });
        let mut sgd = Sgd::new(LrSchedule::Constant(0.02), 0.9, 0.0).with_clip_norm(5.0);
        let report = trainer.train(&mut net, strategy, &mut source, &mut sgd).unwrap();
        assert_eq!(report.iterations_run, 40);
        assert!(report.final_loss.is_finite(), "{}: loss diverged", report.strategy);
        if strategy.uses_reuse() {
            assert!(
                report.actual_flops.total() < report.baseline_flops.total(),
                "{} did not save work",
                report.strategy
            );
        }
    }
}

#[test]
fn probe_batch_is_disjoint_from_training_stream() {
    let dataset = small_dataset(6, 64, 4);
    let mut source = DatasetSource::new(dataset, 16, 16);
    let (probe, _) = source.probe();
    for b in 0..source.num_batches() {
        let (batch, _) = source.batch(b);
        for i in 0..batch.batch() {
            for j in 0..probe.batch() {
                assert_ne!(
                    batch.image(i).as_slice(),
                    probe.image(j).as_slice(),
                    "training image {i} of batch {b} equals probe image {j}"
                );
            }
        }
    }
}
