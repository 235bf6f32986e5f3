//! Integration tests for the unified telemetry layer (DESIGN.md §11):
//! the per-phase FLOP attribution identity, the serving report export, and
//! the determinism contract of recorded values.

// Test code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use std::rc::Rc;

use adaptive_deep_reuse::models::{cifarnet, ConvMode};
use adaptive_deep_reuse::obs::{self, Recorder};
use adaptive_deep_reuse::prelude::*;
use adaptive_deep_reuse::serve::report::LATENCY_BUCKET_BOUNDS_MS;
use adaptive_deep_reuse::serve::{ModelCounters, TenantCounters};

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
    // The Prometheus rendering additionally carries wall-clock counters,
    // which are expected to differ; everything else must not.
    let strip_times = |text: String| -> String {
        text.lines().filter(|l| !l.contains(obs::PHASE_TIME_METRIC)).collect::<Vec<_>>().join("\n")
    };
    assert_eq!(strip_times(a.to_prometheus()), strip_times(b.to_prometheus()));
}

/// `ServeReport::export_metrics` mirrors every tenant and model counter,
/// per-stage count, and latency bucket into the installed sink under
/// `adr_gateway_*` names, labelled by the tenant or model they belong to.
#[test]
fn serve_report_export_matches_the_report() {
    let mut report = ServeReport { batches: 3, ..ServeReport::default() };
    let tenant = TenantCounters {
        admitted: 10,
        completed: 7,
        shed_overloaded: 2,
        deadline_missed: 1,
        degraded_steps: 2,
        requests_per_stage: vec![4, 3],
        ..TenantCounters::default()
    };
    let model =
        ModelCounters { batches: 3, flops_actual: 25, flops_exact: 100, ..Default::default() };
    report.tenants.insert("default".into(), tenant.clone());
    report.models.insert("cifarnet".into(), model.clone());
    let recorder = Recorder::new();
    {
        let _guard = obs::install(Rc::new(recorder.clone()));
        report.export_metrics();
    }
    let by_tenant = [("tenant", "default")];
    for (name, value) in tenant.counters() {
        let exported = recorder.counter(&format!("adr_gateway_{name}"), &by_tenant);
        assert_eq!(exported, Some(value), "tenant counter {name} not mirrored");
    }
    let by_model = [("model", "cifarnet")];
    for (name, value) in model.counters() {
        let exported = recorder.counter(&format!("adr_gateway_{name}"), &by_model);
        assert_eq!(exported, Some(value), "model counter {name} not mirrored");
    }
    let stage = |s| [("tenant", "default"), ("stage", s)];
    assert_eq!(recorder.counter("adr_gateway_requests", &stage("0")), Some(4));
    assert_eq!(recorder.counter("adr_gateway_requests", &stage("1")), Some(3));
    let first_bound = LATENCY_BUCKET_BOUNDS_MS[0].to_string();
    assert_eq!(
        recorder.counter("adr_gateway_latency_ms_bucket", &[("le", first_bound.as_str())]),
        Some(0),
        "empty buckets are still exported so scrapes have a stable shape"
    );
    assert_eq!(recorder.counter("adr_gateway_latency_ms_bucket", &[("le", "+Inf")]), Some(0));
    let savings = recorder.gauge("adr_gateway_flop_savings", &by_model).unwrap();
    assert!((savings - 0.75).abs() < 1e-12);
}

/// Without an installed sink every instrumentation call is a silent no-op:
/// training and report export proceed normally and record nothing.
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
    ServeReport::default().export_metrics();

    // A recorder created but never installed stays empty.
    let recorder = Recorder::new();
    assert!(recorder.counters().is_empty());
    assert!(recorder.to_json_lines(true).is_empty());
}
