//! Integration tests for the telemetry layer (DESIGN.md §11): the
//! per-phase FLOP attribution identity, the determinism contract of
//! recorded values, and the schema of the run log a trainer emits.

// Test code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use std::rc::Rc;

use adaptive_deep_reuse::models::{cifarnet, ConvMode};
use adaptive_deep_reuse::obs::{self, Json, Recorder};
use adaptive_deep_reuse::prelude::*;

/// Trains a small reuse net for `steps` with a recorder installed and
/// returns the recorder plus the trained network. `exact` first drops every
/// reuse layer to its dense mode (`exact_fallback`).
fn instrumented_run(seed: u64, steps: usize, mode: ConvMode, exact: bool) -> (Recorder, Network) {
    let recorder = Recorder::new();
    let guard = obs::install(Rc::new(recorder.clone()));
    let mut rng = AdrRng::seeded(seed);
    let mut net = cifarnet::bench_scale(4, mode, &mut rng);
    if exact {
        for layer in net.layers_mut() {
            if let Some(reuse) = layer.as_any_mut().and_then(|a| a.downcast_mut::<ReuseConv2d>()) {
                reuse.exact_fallback();
            }
        }
    }
    let mut data_rng = rng.split(1);
    let batch = 4;
    let mut pixels = vec![0.0f32; batch * 16 * 16 * 3];
    data_rng.fill_gauss(&mut pixels);
    let images = Tensor4::from_vec(batch, 16, 16, 3, pixels).unwrap();
    let labels: Vec<usize> = (0..batch).map(|_| data_rng.below(4)).collect();
    let mut sgd = Sgd::new(LrSchedule::Constant(0.05), 0.9, 0.0);
    for _ in 0..steps {
        obs::begin_step();
        net.train_batch(&images, &labels, &mut sgd);
    }
    drop(guard);
    (recorder, net)
}

/// The attribution identity the BENCH documents lean on: the per-phase
/// FLOP counters (hash + centroid-GEMM + scatter; im2col and clustering do
/// no multiply–adds) sum *exactly* to the layer's `FlopMeter` forward
/// total, for every reuse layer, across seeds and reuse configurations —
/// and in dense mode, where the whole total is the one dense GEMM.
#[test]
fn phase_flop_attribution_sums_to_meter_totals() {
    let configs = [
        ConvMode::reuse_default(),
        ConvMode::Reuse(ReuseConfig::new(8, 6, false)),
        ConvMode::Reuse(ReuseConfig::new(12, 10, true)),
    ];
    for (seed, exact) in [(7u64, false), (42, false), (1234, false), (42, true)] {
        for mode in configs {
            let (recorder, mut net) = instrumented_run(seed, 2, mode, exact);
            let mut reuse_layers = 0;
            for layer in net.layers_mut() {
                let name = layer.name().to_string();
                let forward = layer.flops().forward;
                let Some(_) = layer.as_any_mut().and_then(|a| a.downcast_mut::<ReuseConv2d>())
                else {
                    continue;
                };
                reuse_layers += 1;
                let phase_sum: u64 = ["hash", "centroid_gemm", "scatter"]
                    .iter()
                    .map(|phase| {
                        recorder
                            .counter(
                                "adr_reuse_phase_flops",
                                &[("layer", name.as_str()), ("phase", phase)],
                            )
                            .unwrap_or(0)
                    })
                    .sum();
                let reported = recorder
                    .counter("adr_reuse_flops_actual", &[("layer", name.as_str())])
                    .unwrap_or(0);
                assert_eq!(
                    phase_sum, forward,
                    "seed {seed}, layer {name}: phase FLOPs diverge from the meter"
                );
                assert_eq!(
                    reported, forward,
                    "seed {seed}, layer {name}: exported total diverges from the meter"
                );
                assert!(forward > 0, "seed {seed}, layer {name}: no forward work metered");
                if exact {
                    let counter = |metric: &str, labels: &[(&str, &str)]| {
                        recorder.counter(metric, labels).unwrap_or(0)
                    };
                    let by_layer = [("layer", name.as_str())];
                    assert_eq!(counter("adr_reuse_flops_exact", &by_layer), forward);
                    let gemm = [("layer", name.as_str()), ("phase", "centroid_gemm")];
                    assert_eq!(counter("adr_reuse_phase_flops", &gemm), forward);
                }
            }
            assert_eq!(reuse_layers, 2, "expected both conv layers on the reuse path");
        }
    }
}

/// Two identical seeded instrumented runs must export bitwise-identical
/// value telemetry. Wall times differ run to run, which is exactly why
/// `to_json_lines(false)` excludes them.
#[test]
fn exported_values_are_bitwise_identical_across_runs() {
    let (a, _) = instrumented_run(42, 3, ConvMode::reuse_default(), false);
    let (b, _) = instrumented_run(42, 3, ConvMode::reuse_default(), false);
    let lines_a = a.to_json_lines(false);
    let lines_b = b.to_json_lines(false);
    assert!(!lines_a.is_empty(), "instrumented run exported nothing");
    assert_eq!(lines_a, lines_b, "value telemetry diverged between identical runs");
}

/// Without an installed recorder every instrumentation call is a silent
/// no-op: training proceeds normally and records nothing.
#[test]
fn telemetry_is_a_noop_without_a_sink() {
    assert!(!obs::is_active());
    let mut rng = AdrRng::seeded(7);
    let mut net = cifarnet::bench_scale(4, ConvMode::reuse_default(), &mut rng);
    let mut data_rng = rng.split(1);
    let mut pixels = vec![0.0f32; 2 * 16 * 16 * 3];
    data_rng.fill_gauss(&mut pixels);
    let images = Tensor4::from_vec(2, 16, 16, 3, pixels).unwrap();
    let mut sgd = Sgd::new(LrSchedule::Constant(0.05), 0.9, 0.0);
    obs::begin_step();
    let step = net.train_batch(&images, &[0, 1], &mut sgd);
    assert!(step.loss.is_finite());

    // A recorder created but never installed stays empty.
    let recorder = Recorder::new();
    assert!(recorder.counters().is_empty());
    assert!(recorder.to_json_lines(true).is_empty());
}

/// The run log's schema: every `(kind, key)` pair a short seeded adaptive
/// `Trainer::train` of bench-scale CifarNet emits through
/// `to_json_lines(false)`, parsed back line by line. A metric added or
/// dropped changes this list.
#[test]
fn trainer_run_log_emits_the_pinned_schema() {
    let mut rng = AdrRng::seeded(5);
    let config = SynthConfig {
        num_images: 64,
        num_classes: 4,
        height: 16,
        width: 16,
        channels: 3,
        smoothing_passes: 2,
        noise_std: 0.08,
        max_shift: 2,
        image_variability: 0.4,
    };
    let dataset = SynthDataset::generate(&config, &mut rng.split(1));
    let mut source = DatasetSource::new(dataset, 8, 16);
    let mut net = cifarnet::bench_scale(4, ConvMode::reuse_default(), &mut rng);
    let trainer =
        Trainer::new(TrainerConfig { max_iterations: 6, eval_every: 3, ..Default::default() });
    let mut sgd = Sgd::new(LrSchedule::Constant(0.02), 0.9, 0.0);
    let recorder = Recorder::new();
    {
        let _guard = obs::install(Rc::new(recorder.clone()));
        trainer.train(&mut net, Strategy::adaptive(), &mut source, &mut sgd).unwrap();
    }
    let mut schema: Vec<(String, String)> = recorder
        .to_json_lines(false)
        .lines()
        .map(|line| {
            let Json::Obj(fields) = Json::parse(line).unwrap() else {
                panic!("run-log line is not an object: {line}");
            };
            let text = |name: &str| match fields.iter().find(|(k, _)| k == name) {
                Some((_, Json::Str(s))) => s.clone(),
                other => panic!("field {name} of {line} is {other:?}"),
            };
            (text("kind"), text("key"))
        })
        .collect();
    schema.sort();
    let want = [
        ("counter", r#"adr_reuse_batches{layer="conv1"}"#),
        ("counter", r#"adr_reuse_batches{layer="conv2"}"#),
        ("counter", r#"adr_reuse_flops_actual{layer="conv1"}"#),
        ("counter", r#"adr_reuse_flops_actual{layer="conv2"}"#),
        ("counter", r#"adr_reuse_flops_exact{layer="conv1"}"#),
        ("counter", r#"adr_reuse_flops_exact{layer="conv2"}"#),
        ("counter", r#"adr_reuse_phase_flops{layer="conv1",phase="centroid_gemm"}"#),
        ("counter", r#"adr_reuse_phase_flops{layer="conv1",phase="hash"}"#),
        ("counter", r#"adr_reuse_phase_flops{layer="conv1",phase="scatter"}"#),
        ("counter", r#"adr_reuse_phase_flops{layer="conv2",phase="centroid_gemm"}"#),
        ("counter", r#"adr_reuse_phase_flops{layer="conv2",phase="hash"}"#),
        ("counter", r#"adr_reuse_phase_flops{layer="conv2",phase="scatter"}"#),
        ("counter", "adr_train_steps"),
        ("gauge", r#"adr_reuse_clusters_avg{layer="conv1"}"#),
        ("gauge", r#"adr_reuse_clusters_avg{layer="conv2"}"#),
        ("gauge", r#"adr_reuse_hit_rate{layer="conv1"}"#),
        ("gauge", r#"adr_reuse_hit_rate{layer="conv2"}"#),
        ("gauge", r#"adr_reuse_rc{layer="conv1"}"#),
        ("gauge", r#"adr_reuse_rc{layer="conv2"}"#),
        ("gauge", "adr_train_loss"),
    ];
    let want: Vec<(String, String)> =
        want.iter().map(|&(kind, key)| (kind.to_string(), key.to_string())).collect();
    assert_eq!(schema, want, "the run log's (kind, key) pairs changed");
}
