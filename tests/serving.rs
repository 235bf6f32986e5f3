//! End-to-end serving robustness: the degradation ladder under injected
//! overload, typed rejection of poisoned and malformed requests, output
//! quarantine, corrupt-checkpoint loads, health probes, and the accuracy
//! contract of the most aggressive reuse stage.
//!
//! Everything runs on the virtual [`ManualClock`], so "load" is scripted
//! through [`ServeFaultPlan`] stalls and every assertion is deterministic.

// Test code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use std::time::Duration;

use adaptive_deep_reuse::models::{cifarnet, ConvMode};
use adaptive_deep_reuse::prelude::*;
use adaptive_deep_reuse::serve::LadderConfig;

fn synth_dataset(seed: u64, num_images: usize) -> SynthDataset {
    let cfg = SynthConfig {
        num_images,
        num_classes: 4,
        height: 16,
        width: 16,
        channels: 3,
        smoothing_passes: 2,
        noise_std: 0.08,
        max_shift: 1,
        image_variability: 0.5,
    };
    SynthDataset::generate(&cfg, &mut AdrRng::seeded(seed))
}

fn single_image(dataset: &SynthDataset, index: usize) -> Tensor4 {
    let (image, _) = dataset.batch(index, 1);
    image
}

/// Trains a dense CifarNet briefly and saves an `ADR1` checkpoint; returns
/// the checkpoint path and the dataset it was trained on.
fn trained_checkpoint(name: &str, iterations: usize) -> (std::path::PathBuf, SynthDataset) {
    let dataset = synth_dataset(42, 160);
    let mut rng = AdrRng::seeded(42);
    let mut net = cifarnet::bench_scale(4, ConvMode::Dense, &mut rng);
    let mut sgd = Sgd::new(LrSchedule::Constant(0.05), 0.9, 0.0).with_clip_norm(5.0);
    for it in 0..iterations {
        let (images, labels) = dataset.batch(it, 16);
        net.train_batch(&images, &labels, &mut sgd);
    }
    let path = std::env::temp_dir().join(name);
    Checkpoint::capture(&mut net).save(&path).unwrap();
    (path, dataset)
}

/// The one model and the one tenant of every gateway in this suite.
const MODEL: &str = "cifarnet";
const TENANT: &str = "default";

/// The construction knobs the single-tenant tests vary; the defaults are
/// the gateway's and the tenant's own.
struct ServeConfig {
    queue_capacity: usize,
    max_batch: usize,
    default_deadline: Duration,
    ladder: LadderConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let (gateway, tenant) = (GatewayConfig::default(), TenantConfig::default());
        Self {
            queue_capacity: gateway.queue_capacity,
            max_batch: gateway.max_batch,
            default_deadline: tenant.default_deadline,
            ladder: tenant.ladder,
        }
    }
}

/// Saves a fresh (untrained, optionally tampered-with) reuse-mode CifarNet
/// built from `seed`, so it can be served from its own artifact.
fn untrained_checkpoint(
    name: &str,
    seed: u64,
    tamper: impl FnOnce(&mut Network),
) -> std::path::PathBuf {
    let mut net = cifarnet::bench_scale(4, ConvMode::reuse_default(), &mut AdrRng::seeded(seed));
    tamper(&mut net);
    let path = std::env::temp_dir().join(name);
    Checkpoint::capture(&mut net).save(&path).unwrap();
    path
}

/// A fresh reuse-mode CifarNet built from `seed`, for the registry to
/// restore an artifact into.
fn reuse_factory(seed: u64) -> NetFactory {
    Box::new(move || cifarnet::bench_scale(4, ConvMode::reuse_default(), &mut AdrRng::seeded(seed)))
}

/// Single-tenant serving on the virtual clock: the checkpoint at `path`
/// restored into a reuse-mode net built from `seed`, as the one model of a
/// gateway whose one tenant's token bucket never empties.
fn single_tenant_gateway(path: &std::path::Path, seed: u64, cfg: ServeConfig) -> Gateway {
    let gateway_cfg = GatewayConfig {
        queue_capacity: cfg.queue_capacity,
        max_batch: cfg.max_batch,
        ..GatewayConfig::default()
    };
    let mut gw = Gateway::with_clock(gateway_cfg, Box::new(ManualClock::new())).unwrap();
    let tenant = TenantConfig {
        rate_per_sec: u64::MAX,
        burst: u64::MAX,
        default_deadline: cfg.default_deadline,
        ladder: cfg.ladder,
    };
    gw.add_tenant(TENANT, tenant).unwrap();
    gw.register_model(MODEL, ArtifactKind::Adr1, path, reuse_factory(seed)).unwrap();
    gw
}

/// Submits a whole request stream and serves it, returning one outcome per
/// input in input order.
fn serve_all(gw: &mut Gateway, images: &[Tensor4]) -> Vec<Result<InferResponse, RequestError>> {
    let submitted: Vec<Result<u64, RequestError>> =
        images.iter().map(|image| gw.submit(MODEL, TENANT, image)).collect();
    let mut served = gw.drain();
    submitted
        .into_iter()
        .map(|outcome| {
            let id = outcome?;
            let at = served.iter().position(|(rid, _)| *rid == id).unwrap();
            served.swap_remove(at).1
        })
        .collect()
}

#[test]
fn overload_walks_the_ladder_and_sheds_with_typed_backpressure() {
    let dataset = synth_dataset(11, 32);
    let path = untrained_checkpoint("adr_serving_overload.adr1", 3, |_| {});
    assert_eq!(GatewayConfig::default().target_batch_latency, Duration::from_millis(50));
    let cfg = ServeConfig {
        queue_capacity: 8,
        max_batch: 2,
        default_deadline: Duration::from_secs(10),
        ladder: LadderConfig { alpha: 1.0, min_dwell: 1, ..LadderConfig::default() },
    };
    let mut gw = single_tenant_gateway(&path, 3, cfg);
    // Three consecutive slow batches: pressure 4x the target each time.
    gw.set_fault_plan(
        ServeFaultPlan::new()
            .inject_at_batch(0, ServeFaultKind::SlowBatch { stall_ms: 200 })
            .inject_at_batch(1, ServeFaultKind::SlowBatch { stall_ms: 200 })
            .inject_at_batch(2, ServeFaultKind::SlowBatch { stall_ms: 200 }),
    );

    // Fill the queue, then keep pushing: the excess must shed, typed.
    for i in 0..8 {
        gw.submit(MODEL, TENANT, &single_image(&dataset, i)).unwrap();
    }
    for i in 8..11 {
        let err = gw.submit(MODEL, TENANT, &single_image(&dataset, i)).unwrap_err();
        assert!(
            matches!(
                err,
                RequestError::Overloaded { depth: 8, capacity: 8, retry_after } if retry_after > Duration::ZERO
            ),
            "expected typed backpressure with a backoff hint, got {err:?}"
        );
    }

    // Serve the 4 micro-batches, tracking the stage each ran at and the
    // marginal FLOP savings of each batch.
    let mut stages = Vec::new();
    let mut marginal_savings = Vec::new();
    let mut prev = (0u64, 0u64);
    for _ in 0..4 {
        stages.push(gw.stage(MODEL, TENANT).unwrap());
        for (_, outcome) in gw.poll() {
            let resp = outcome.expect("no deadline was tight enough to miss");
            assert!(
                resp.logits.iter().all(|v| v.is_finite()),
                "non-finite logits surfaced at stage {}",
                resp.stage
            );
        }
        let report = &gw.report().models[MODEL];
        let actual = report.flops_actual - prev.0;
        let exact = report.flops_exact - prev.1;
        prev = (report.flops_actual, report.flops_exact);
        marginal_savings.push(1.0 - actual as f64 / exact as f64);
    }

    // The ladder degraded one stage per hot batch: 0 -> 1 -> 2 -> 3.
    assert_eq!(stages, vec![0, 1, 2, 3], "ladder did not walk stage by stage");
    let report = gw.report();
    let tenant = &report.tenants[TENANT];
    assert_eq!(tenant.degraded_steps, 3);
    assert_eq!(tenant.shed_overloaded, 3);
    assert_eq!(tenant.completed, 8);
    assert_eq!(report.events_of(ServeEventKind::SlowBatchFault), 3);
    assert_eq!(report.events_of(ServeEventKind::Degraded), 3);
    assert_eq!(report.events_of(ServeEventKind::Overloaded), 3);
    assert_eq!(tenant.requests_per_stage, vec![2, 2, 2, 2]);

    // Each degradation step buys more FLOPs: marginal savings rise with
    // the stage, from stage 0 — the dense code path, which costs exactly
    // the dense FLOPs and saves nothing.
    assert_eq!(marginal_savings[0].to_bits(), 0.0f64.to_bits());
    for window in marginal_savings.windows(2) {
        assert!(window[1] > window[0], "marginal FLOP savings did not rise: {marginal_savings:?}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn calm_traffic_recovers_back_toward_the_exact_stage() {
    let dataset = synth_dataset(12, 40);
    let path = untrained_checkpoint("adr_serving_recover.adr1", 4, |_| {});
    let cfg = ServeConfig {
        queue_capacity: 8,
        max_batch: 4,
        default_deadline: Duration::from_secs(10),
        ladder: LadderConfig { alpha: 1.0, min_dwell: 1, ..LadderConfig::default() },
    };
    let mut gw = single_tenant_gateway(&path, 4, cfg);
    gw.set_fault_plan(
        ServeFaultPlan::new()
            .inject_at_batch(0, ServeFaultKind::SlowBatch { stall_ms: 300 })
            .inject_at_batch(1, ServeFaultKind::SlowBatch { stall_ms: 300 }),
    );
    // Two hot batches degrade; calm batches afterwards walk back to 0.
    for i in 0..32 {
        gw.submit(MODEL, TENANT, &single_image(&dataset, i)).unwrap();
        let _ = gw.poll();
    }
    gw.drain();
    assert_eq!(gw.stage(MODEL, TENANT), Some(0), "lane did not recover to the exact stage");
    let report = gw.report();
    assert!(report.tenants[TENANT].degraded_steps >= 2);
    assert!(report.tenants[TENANT].recovered_steps >= report.tenants[TENANT].degraded_steps);
    assert!(report.events_of(ServeEventKind::Recovered) >= 2);
    std::fs::remove_file(&path).ok();
}

#[test]
fn poisoned_and_malformed_requests_are_rejected_at_admission() {
    let dataset = synth_dataset(13, 8);
    let path = untrained_checkpoint("adr_serving_admission.adr1", 5, |_| {});
    let mut gw = single_tenant_gateway(&path, 5, ServeConfig::default());
    // The fault plan poisons the next two submissions before validation.
    gw.set_fault_plan(ServeFaultPlan::new().poison_requests(2));

    for _ in 0..2 {
        let err = gw.submit(MODEL, TENANT, &single_image(&dataset, 0)).unwrap_err();
        assert!(matches!(err, RequestError::NonFiniteInput { index: 0, .. }), "got {err:?}");
    }
    // A directly poisoned pixel is caught the same way.
    let mut nan_image = single_image(&dataset, 1);
    nan_image.as_mut_slice()[42] = f32::NEG_INFINITY;
    assert!(matches!(
        gw.submit(MODEL, TENANT, &nan_image),
        Err(RequestError::NonFiniteInput { index: 42, .. })
    ));
    // Wrong shape and multi-image tensors never reach the queue either.
    assert!(matches!(
        gw.submit(MODEL, TENANT, &Tensor4::zeros(1, 8, 8, 3)),
        Err(RequestError::ShapeMismatch { expected: (16, 16, 3), found: (8, 8, 3) })
    ));
    assert!(matches!(
        gw.submit(MODEL, TENANT, &Tensor4::zeros(2, 16, 16, 3)),
        Err(RequestError::NotSingleImage { batch: 2 })
    ));

    // Clean traffic still flows afterwards, and nothing poisoned got logits.
    let ok = gw.submit(MODEL, TENANT, &single_image(&dataset, 2)).unwrap();
    let results = gw.drain();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].0, ok);
    assert!(results[0].1.as_ref().unwrap().logits.iter().all(|v| v.is_finite()));
    let report = gw.report();
    assert_eq!(report.tenants[TENANT].admitted, 1);
    assert_eq!(report.tenants[TENANT].rejected_non_finite, 3);
    assert_eq!(report.tenants[TENANT].rejected_shape, 2);
    assert_eq!(report.events_of(ServeEventKind::PoisonFault), 2);
    assert_eq!(report.events_of(ServeEventKind::RejectedInput), 5);
    std::fs::remove_file(&path).ok();
}

#[test]
fn injected_output_poison_is_quarantined_and_retried_on_the_exact_path() {
    let (path, dataset) = trained_checkpoint("adr_serving_quarantine.adr1", 10);
    let cfg = ServeConfig { max_batch: 4, ..ServeConfig::default() };
    let mut gw = single_tenant_gateway(&path, 7, cfg);
    gw.set_fault_plan(ServeFaultPlan::new().inject_at_batch(0, ServeFaultKind::PoisonOutput));
    for i in 0..4 {
        gw.submit(MODEL, TENANT, &single_image(&dataset, i)).unwrap();
    }
    for (_, outcome) in gw.drain() {
        let resp = outcome.expect("exact retry clears injected output poison");
        assert!(resp.logits.iter().all(|v| v.is_finite()), "poison surfaced to a caller");
    }
    let report = gw.report();
    assert_eq!(report.models[MODEL].quarantined_batches, 1);
    assert_eq!(report.models[MODEL].retried_batches, 1);
    assert_eq!(report.tenants[TENANT].failed_non_finite, 0);
    assert_eq!(report.events_of(ServeEventKind::QuarantinedBatch), 1);
    assert_eq!(report.events_of(ServeEventKind::RetriedExact), 1);
    assert!(gw.healthy());
    std::fs::remove_file(&path).ok();
}

#[test]
fn persistent_weight_poison_fails_batches_typed_and_flips_the_health_probe() {
    let dataset = synth_dataset(14, 8);
    // Poison the classifier head: no ReLU downstream launders it, so the
    // logits stay NaN even on the exact GEMM retry.
    let path = untrained_checkpoint("adr_serving_weight_poison.adr1", 6, |net| {
        if let Some(last) = net.layers_mut().last_mut() {
            for param in last.params_mut() {
                if let Some(w) = param.data.first_mut() {
                    *w = f32::NAN;
                }
            }
        }
    });
    let mut gw = single_tenant_gateway(&path, 6, ServeConfig::default());
    assert!(gw.healthy());
    for batch in 0..3 {
        gw.submit(MODEL, TENANT, &single_image(&dataset, batch)).unwrap();
        let results = gw.poll();
        assert!(
            matches!(results[0].1, Err(RequestError::NonFiniteOutput { .. })),
            "batch {batch}: poisoned output must fail typed, got {:?}",
            results[0].1
        );
    }
    let report = gw.report();
    assert_eq!(report.models[MODEL].quarantined_batches, 3);
    assert_eq!(report.models[MODEL].retried_batches, 3);
    assert_eq!(report.tenants[TENANT].failed_non_finite, 3);
    assert_eq!(report.tenants[TENANT].completed, 0);
    assert!(!gw.healthy(), "three consecutive poisoned batches must flip the health probe");
    assert!(gw.ready(), "readiness is about construction, not health");
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_checkpoint_bytes_fail_the_load_with_a_typed_error() {
    let (path, _) = trained_checkpoint("adr_serving_corrupt.adr1", 5);
    let mut gw =
        Gateway::with_clock(GatewayConfig::default(), Box::new(ManualClock::new())).unwrap();
    gw.set_fault_plan(ServeFaultPlan::new().corrupt_checkpoint_load());
    let err = gw
        .register_model(MODEL, ArtifactKind::Adr1, &path, reuse_factory(8))
        .expect_err("a flipped byte must not load");
    assert!(matches!(err, EngineError::Checkpoint(_)), "got {err:?}");

    // The same file loads fine without the fault: the corruption was
    // injected (and one-shot), not real.
    assert!(gw.register_model(MODEL, ArtifactKind::Adr1, &path, reuse_factory(8)).is_ok());
    std::fs::remove_file(&path).ok();
}

#[test]
fn deadline_budgets_are_enforced_per_request() {
    let dataset = synth_dataset(15, 8);
    let path = untrained_checkpoint("adr_serving_deadline.adr1", 9, |_| {});
    let cfg = ServeConfig { max_batch: 2, ..ServeConfig::default() };
    let mut gw = single_tenant_gateway(&path, 9, cfg);
    gw.set_fault_plan(
        ServeFaultPlan::new().inject_at_batch(0, ServeFaultKind::SlowBatch { stall_ms: 100 }),
    );
    // Same batch, different budgets: one misses, one survives.
    let tight = gw
        .submit_with_deadline(MODEL, TENANT, &single_image(&dataset, 0), Duration::from_millis(20))
        .unwrap();
    let loose = gw
        .submit_with_deadline(MODEL, TENANT, &single_image(&dataset, 1), Duration::from_millis(500))
        .unwrap();
    let results = gw.poll();
    let by_id = |id: u64| results.iter().find(|(rid, _)| *rid == id).unwrap();
    assert_eq!(
        by_id(tight).1,
        Err(RequestError::DeadlineExceeded { budget_ms: 20, elapsed_ms: 100 })
    );
    assert!(by_id(loose).1.is_ok());
    assert_eq!(gw.report().tenants[TENANT].deadline_missed, 1);
    std::fs::remove_file(&path).ok();
}

#[test]
fn exact_stage_matches_the_dense_forward_bitwise() {
    let (path, dataset) = trained_checkpoint("adr_serving_bitwise.adr1", 10);
    // Two request sets. Gaussian images have pairwise distinct im2col rows.
    // `SynthDataset` images are what the benchmark serves: smooth templates
    // full of near-identical receptive fields — with one image sent twice,
    // exact duplicates too — which is where anything that hashed or grouped
    // rows at stage 0 would merge two of them.
    let mut data_rng = AdrRng::seeded(100);
    let gaussian: Vec<Tensor4> = (0..8)
        .map(|_| {
            let mut pixels = vec![0.0f32; 16 * 16 * 3];
            data_rng.fill_gauss(&mut pixels);
            Tensor4::from_vec(1, 16, 16, 3, pixels).unwrap()
        })
        .collect();
    let structured: Vec<Tensor4> = (0..16).map(|i| single_image(&dataset, i % 15)).collect();

    // Reference: the same checkpoint in a plain dense net.
    let mut rng = AdrRng::seeded(21);
    let mut dense = cifarnet::bench_scale(4, ConvMode::Dense, &mut rng);
    Checkpoint::load(&path).unwrap().restore(&mut dense).unwrap();

    for (what, images) in [("gaussian", gaussian), ("structured", structured)] {
        let mut batch = Tensor4::zeros(images.len(), 16, 16, 3);
        for (i, img) in images.iter().enumerate() {
            let per = 16 * 16 * 3;
            batch.as_mut_slice()[i * per..(i + 1) * per].copy_from_slice(img.as_slice());
        }
        let dense_logits = dense.forward(&batch, Mode::Eval);

        // Served: reuse net pinned to a single-stage exact ladder, batches
        // of 8.
        let cfg = ServeConfig {
            queue_capacity: images.len(),
            max_batch: 8,
            ladder: LadderConfig { stages: vec![StagePolicy::Exact], ..LadderConfig::default() },
            ..ServeConfig::default()
        };
        let mut gw = single_tenant_gateway(&path, 7, cfg);
        let responses = serve_all(&mut gw, &images);

        for (i, outcome) in responses.iter().enumerate() {
            let resp = outcome.as_ref().unwrap();
            assert_eq!(resp.stage, 0);
            let reference = &dense_logits.as_slice()[i * 4..(i + 1) * 4];
            let served_bits: Vec<u32> = resp.logits.iter().map(|v| v.to_bits()).collect();
            let reference_bits: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                served_bits, reference_bits,
                "{what} request {i}: exact stage is not bitwise dense"
            );
        }
        let model = &gw.report().models[MODEL];
        assert_eq!(model.flops_actual, model.flops_exact, "stage 0 costs exactly dense FLOPs");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn most_aggressive_stage_loses_at_most_the_documented_accuracy_delta() {
    let (path, dataset) = trained_checkpoint("adr_serving_accuracy.adr1", 60);
    let eval_count = 48;
    let images: Vec<Tensor4> = (0..eval_count).map(|i| single_image(&dataset, i)).collect();
    let labels: Vec<usize> = (0..eval_count).map(|i| dataset.labels()[i % dataset.len()]).collect();

    let accuracy_at = |stages: Vec<StagePolicy>| -> f32 {
        let cfg = ServeConfig {
            queue_capacity: eval_count,
            max_batch: 8,
            ladder: LadderConfig { stages, ..LadderConfig::default() },
            ..ServeConfig::default()
        };
        let mut gw = single_tenant_gateway(&path, 7, cfg);
        let responses = serve_all(&mut gw, &images);
        let correct = responses
            .iter()
            .zip(&labels)
            .filter(|(r, &label)| r.as_ref().map(|resp| resp.class) == Ok(label))
            .count();
        correct as f32 / eval_count as f32
    };

    let exact = accuracy_at(vec![StagePolicy::Exact]);
    // The bottom rung of the default ladder: the most aggressive stage.
    let aggressive = accuracy_at(vec![StagePolicy::Reuse {
        sub_vector_len: 8,
        num_hashes: 8,
        cluster_reuse: true,
    }]);

    assert!(exact > 0.5, "dense-trained model should beat chance, got {exact}");
    // DESIGN.md documents the serving contract: the most aggressive stage
    // loses at most 0.2 accuracy against the exact path.
    assert!(
        exact - aggressive <= 0.2,
        "aggressive stage lost too much: exact {exact}, aggressive {aggressive}"
    );
    std::fs::remove_file(&path).ok();
}

/// `min_dwell` edge: smoothed pressure sitting *exactly* on either
/// threshold never moves the ladder — both comparisons are strict, so an
/// oscillation pinned to the boundary values is stable, not a flap.
#[test]
fn pressure_exactly_at_the_thresholds_never_moves_the_ladder() {
    use adaptive_deep_reuse::serve::{DegradationLadder, LadderMove};
    // alpha 1.0 makes the EMA track the latest observation; thresholds and
    // observations are all exactly representable (0.5, 1.0, 2.0), so the
    // incremental EMA update `mean += alpha * (x - mean)` stays bitwise
    // exact and the test controls the smoothed pressure precisely.
    let cfg =
        LadderConfig { alpha: 1.0, min_dwell: 1, recover_below: 0.5, ..LadderConfig::default() };
    assert_eq!(cfg.degrade_above, 1.0);
    let mut ladder = DegradationLadder::new(cfg.clone()).unwrap();
    for _ in 0..4 {
        assert_eq!(ladder.observe(1.0, 0.0), None, "pressure == degrade_above holds");
    }
    assert_eq!(ladder.stage(), 0);

    // From a degraded stage, pressure exactly at recover_below also holds.
    let mut ladder = DegradationLadder::new(cfg).unwrap();
    assert_eq!(ladder.observe(2.0, 0.0), Some(LadderMove::Degraded { from: 0, to: 1 }));
    for _ in 0..4 {
        assert_eq!(ladder.observe(0.5, 0.0), None, "pressure == recover_below holds");
    }
    // Oscillating exactly between the two boundary values: still no move.
    for _ in 0..4 {
        assert_eq!(ladder.observe(1.0, 0.0), None);
        assert_eq!(ladder.observe(0.5, 0.0), None);
    }
    assert_eq!(ladder.stage(), 1);
}

/// `min_dwell` edge: when the dwell expires on the same tick the pressure
/// flips, the decision uses the *new* pressure — a spike observed during
/// the dwell window does not fire a deferred move, and a flip landing on
/// the expiry tick moves immediately.
#[test]
fn dwell_expiring_on_the_same_tick_as_a_pressure_flip_uses_the_new_pressure() {
    use adaptive_deep_reuse::serve::{DegradationLadder, LadderMove};
    let cfg = LadderConfig { alpha: 1.0, min_dwell: 2, ..LadderConfig::default() };
    let mut ladder = DegradationLadder::new(cfg).unwrap();

    // Tick 1: hot, but still inside the dwell window — no move.
    assert_eq!(ladder.observe(5.0, 0.0), None);
    // Tick 2: the dwell expires on the very tick the pressure flips calm.
    // The tick-1 spike must not fire retroactively.
    assert_eq!(ladder.observe(0.0, 0.0), None, "no deferred degrade from the spiked tick");
    assert_eq!(ladder.stage(), 0);

    // Walk to stage 1 (dwell already satisfied, pressure high again).
    assert_eq!(ladder.observe(5.0, 0.0), Some(LadderMove::Degraded { from: 0, to: 1 }));
    // Tick inside the fresh dwell window: high pressure, no move.
    assert_eq!(ladder.observe(5.0, 0.0), None);
    // Dwell expires exactly as the pressure flips below recover_below:
    // the recovery fires on this same tick, not one tick later.
    assert_eq!(ladder.observe(0.2, 0.0), Some(LadderMove::Recovered { from: 1, to: 0 }));
    assert_eq!(ladder.stage(), 0);
}
