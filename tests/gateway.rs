//! End-to-end multi-tenant gateway robustness: zero-downtime hot swap
//! under load, per-tenant degradation isolation (with a bitwise-exact
//! quiet tenant), deterministic token-bucket rejection, and typed
//! rollback of a corrupt mid-swap artifact.
//!
//! Everything runs on the virtual [`ManualClock`]; "load" is scripted
//! through [`ServeFaultPlan`] stalls, so every assertion is deterministic.

// Test code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use std::time::Duration;

use adaptive_deep_reuse::models::{cifarnet, ConvMode};
use adaptive_deep_reuse::nn::durable::write_atomic;
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

/// Trains a dense CifarNet briefly (seeded) and saves an `ADR1`
/// checkpoint under `name` in the temp dir; returns the path.
fn trained_checkpoint(name: &str, iterations: usize) -> std::path::PathBuf {
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
    path
}

/// The factory every registered model uses: a reuse-mode CifarNet at the
/// bench scale, rebuilt fresh (seeded) for each load and swap.
fn reuse_factory() -> NetFactory {
    Box::new(|| cifarnet::bench_scale(4, ConvMode::reuse_default(), &mut AdrRng::seeded(7)))
}

/// A tenant with generous admission so only the behavior under test bites.
fn quiet_tenant() -> TenantConfig {
    TenantConfig {
        rate_per_sec: 1000,
        burst: 64,
        default_deadline: Duration::from_secs(10),
        ladder: LadderConfig::default(),
    }
}

fn manual_gateway(cfg: GatewayConfig) -> Gateway {
    Gateway::with_clock(cfg, Box::new(ManualClock::new())).unwrap()
}

/// Acceptance (a): a hot swap while requests are queued completes with
/// zero dropped or failed in-flight requests, and the new generation is
/// visible in the report.
#[test]
fn hot_swap_under_load_drops_nothing_and_bumps_the_generation() {
    let path_v0 = trained_checkpoint("adr_gateway_swap_v0.adr1", 6);
    let path_v1 = trained_checkpoint("adr_gateway_swap_v1.adr1", 12);
    let dataset = synth_dataset(11, 32);

    let cfg = GatewayConfig { queue_capacity: 16, max_batch: 2, ..GatewayConfig::default() };
    let mut gw = manual_gateway(cfg);
    gw.add_tenant("alpha", quiet_tenant()).unwrap();
    gw.register_model("cifarnet", ArtifactKind::Adr1, &path_v0, reuse_factory()).unwrap();
    assert_eq!(gw.generation("cifarnet"), Some(0));

    // Sustained load: submit, serve one batch, submit more, then swap
    // while six requests are still in flight.
    let mut submitted = Vec::new();
    for i in 0..4 {
        submitted.push(gw.submit("cifarnet", "alpha", &single_image(&dataset, i)).unwrap());
    }
    let mut answered = gw.poll();
    for i in 4..8 {
        submitted.push(gw.submit("cifarnet", "alpha", &single_image(&dataset, i)).unwrap());
    }
    assert_eq!(gw.queue_depth("cifarnet", "alpha"), Some(6), "swap happens under load");

    let generation = gw.swap("cifarnet", &path_v1).unwrap();
    assert_eq!(generation, 1);
    assert_eq!(gw.queue_depth("cifarnet", "alpha"), Some(6), "the flip dropped nothing");

    answered.extend(gw.drain());
    assert_eq!(answered.len(), submitted.len(), "every in-flight request was answered");
    for (id, outcome) in &answered {
        let resp = outcome.as_ref().unwrap_or_else(|e| panic!("request {id} failed: {e}"));
        assert!(resp.logits.iter().all(|v| v.is_finite()));
    }

    let report = gw.report();
    let model = &report.models["cifarnet"];
    assert_eq!(model.generation, 1, "generation counter visible in the report");
    assert_eq!(model.swaps_completed, 1);
    assert_eq!(model.swaps_rolled_back, 0);
    assert_eq!(report.events_of(ServeEventKind::SwapStarted), 1);
    assert_eq!(report.events_of(ServeEventKind::SwapCompleted), 1);
    assert_eq!(report.tenants["alpha"].admitted, 8);
    assert_eq!(report.tenants["alpha"].completed, 8);
}

/// Acceptance (b): a bursting tenant walks its own ladder to the
/// aggressive stage while the quiet tenant's requests keep running the
/// exact path — bitwise equal to a dense forward of the same checkpoint.
#[test]
fn tenant_burst_degrades_only_its_own_lane_bitwise() {
    let path = trained_checkpoint("adr_gateway_isolation.adr1", 10);
    let dataset = synth_dataset(11, 32);

    // Gaussian requests for the quiet tenant: distinct im2col rows, so the
    // exact stage's clustering is all singletons (see tests/serving.rs).
    let mut data_rng = AdrRng::seeded(100);
    let quiet_images: Vec<Tensor4> = (0..8)
        .map(|_| {
            let mut pixels = vec![0.0f32; 16 * 16 * 3];
            data_rng.fill_gauss(&mut pixels);
            Tensor4::from_vec(1, 16, 16, 3, pixels).unwrap()
        })
        .collect();

    // Reference: the same checkpoint in a plain dense net, batch of 8.
    let mut rng = AdrRng::seeded(21);
    let mut dense = cifarnet::bench_scale(4, ConvMode::Dense, &mut rng);
    Checkpoint::load(&path).unwrap().restore(&mut dense).unwrap();
    let mut batch8 = Tensor4::zeros(8, 16, 16, 3);
    for (i, img) in quiet_images.iter().enumerate() {
        let per = 16 * 16 * 3;
        batch8.as_mut_slice()[i * per..(i + 1) * per].copy_from_slice(img.as_slice());
    }
    let dense_logits = dense.forward(&batch8, Mode::Eval);

    let cfg = GatewayConfig { queue_capacity: 16, max_batch: 8, ..GatewayConfig::default() };
    let mut gw = manual_gateway(cfg);
    // The burst tenant's ladder reacts instantly; the quiet tenant's is
    // the default. Both share the same engine replica.
    gw.add_tenant(
        "burst",
        TenantConfig {
            ladder: LadderConfig { alpha: 1.0, min_dwell: 1, ..LadderConfig::default() },
            ..quiet_tenant()
        },
    )
    .unwrap();
    gw.add_tenant("quiet", quiet_tenant()).unwrap();
    gw.register_model("cifarnet", ArtifactKind::Adr1, &path, reuse_factory()).unwrap();

    // Three stalled batches for the burst tenant: latency 4x target each,
    // so its ladder degrades one stage per batch down to the bottom rung.
    gw.set_fault_plan(
        ServeFaultPlan::new()
            .inject_at_batch(0, ServeFaultKind::SlowBatch { stall_ms: 200 })
            .inject_at_batch(1, ServeFaultKind::SlowBatch { stall_ms: 200 })
            .inject_at_batch(2, ServeFaultKind::SlowBatch { stall_ms: 200 }),
    );
    for round in 0..3 {
        gw.submit("cifarnet", "burst", &single_image(&dataset, round * 2)).unwrap();
        gw.submit("cifarnet", "burst", &single_image(&dataset, round * 2 + 1)).unwrap();
        for (_, outcome) in gw.poll() {
            assert!(outcome.is_ok(), "burst traffic is degraded, not failed: {outcome:?}");
        }
    }
    assert_eq!(gw.stage("cifarnet", "burst"), Some(3), "burst lane hit the aggressive rung");
    assert_eq!(gw.stage("cifarnet", "quiet"), Some(0), "quiet lane never moved");

    // The quiet tenant now serves one batch of 8 on the shared replica.
    let mut ids = Vec::new();
    for img in &quiet_images {
        ids.push(gw.submit("cifarnet", "quiet", img).unwrap());
    }
    let answers = gw.poll();
    assert_eq!(answers.len(), 8);
    for (i, (id, outcome)) in answers.iter().enumerate() {
        assert_eq!(*id, ids[i], "FIFO within the lane");
        let resp = outcome.as_ref().unwrap();
        assert_eq!(resp.stage, 0, "quiet tenant stays on the exact path");
        let reference = &dense_logits.as_slice()[i * 4..(i + 1) * 4];
        let served_bits: Vec<u32> = resp.logits.iter().map(|v| v.to_bits()).collect();
        let reference_bits: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
        assert_eq!(served_bits, reference_bits, "request {i}: quiet tenant is not bitwise dense");
    }

    let report = gw.report();
    assert_eq!(report.tenants["quiet"].requests_per_stage, vec![8, 0, 0, 0]);
    let burst_beyond_exact: u64 = report.tenants["burst"].requests_per_stage.iter().skip(1).sum();
    assert!(burst_beyond_exact > 0, "burst requests were attributed to degraded stages");
    assert!(report.events_of(ServeEventKind::Degraded) >= 3);
}

/// Acceptance (c): token-bucket rejection is deterministic under
/// `ManualClock` and carries the exact refill `retry_after`.
#[test]
fn token_bucket_rejections_are_deterministic_with_exact_retry_hints() {
    let path = trained_checkpoint("adr_gateway_bucket.adr1", 6);
    let dataset = synth_dataset(11, 8);

    let run = |stall_ms: u64| -> Vec<Result<u64, RequestError>> {
        let mut gw = manual_gateway(GatewayConfig::default());
        gw.add_tenant(
            "metered",
            TenantConfig {
                rate_per_sec: 10,
                burst: 2,
                default_deadline: Duration::from_secs(10),
                ladder: LadderConfig::default(),
            },
        )
        .unwrap();
        gw.register_model("cifarnet", ArtifactKind::Adr1, &path, reuse_factory()).unwrap();
        let mut outcomes = Vec::new();
        // Burst capacity admits two, then the bucket is empty.
        for i in 0..4 {
            outcomes.push(gw.submit("cifarnet", "metered", &single_image(&dataset, i)));
        }
        // A stalled batch advances virtual time by exactly `stall_ms`.
        gw.set_fault_plan(
            ServeFaultPlan::new().inject_at_batch(0, ServeFaultKind::SlowBatch { stall_ms }),
        );
        let _ = gw.poll();
        for i in 4..6 {
            outcomes.push(gw.submit("cifarnet", "metered", &single_image(&dataset, i)));
        }
        outcomes
    };

    let outcomes = run(100);
    assert!(outcomes[0].is_ok() && outcomes[1].is_ok(), "burst capacity admits");
    // Empty bucket at 10 tokens/s: a whole token is exactly 100 ms away,
    // and no virtual time passes between the two rejected submissions.
    for rejected in &outcomes[2..4] {
        assert_eq!(
            rejected.clone().unwrap_err(),
            RequestError::RateLimited { retry_after: Duration::from_millis(100) }
        );
    }
    // After exactly 100 ms of virtual time one token is whole again: one
    // admit, then empty again.
    assert!(outcomes[4].is_ok(), "bucket refilled exactly one token");
    assert_eq!(
        outcomes[5].clone().unwrap_err(),
        RequestError::RateLimited { retry_after: Duration::from_millis(100) }
    );

    // Bitwise determinism: the same scripted clock reproduces the same
    // decisions; 60 ms of refill is 40 ms short of a token.
    assert_eq!(run(100), run(100));
    let outcomes = run(60);
    assert_eq!(
        outcomes[4].clone().unwrap_err(),
        RequestError::RateLimited { retry_after: Duration::from_millis(40) }
    );
}

/// Acceptance (d) + chaos: a corrupt mid-swap artifact rolls back typed,
/// the old generation keeps serving, and zero in-flight requests drop.
#[test]
fn corrupt_artifact_swap_rolls_back_typed_with_the_old_generation_serving() {
    let path_v0 = trained_checkpoint("adr_gateway_corrupt_v0.adr1", 6);
    let path_v1 = trained_checkpoint("adr_gateway_corrupt_v1.adr1", 12);
    // The generation-1 artifact with one byte in the middle flipped.
    let corrupt_v1 = std::env::temp_dir().join("adr_gateway_corrupt_v1_flipped.adr1");
    let mut bytes = std::fs::read(&path_v1).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    write_atomic(&corrupt_v1, &bytes).unwrap();
    let dataset = synth_dataset(11, 16);

    let mut gw = manual_gateway(GatewayConfig::default());
    gw.add_tenant("alpha", quiet_tenant()).unwrap();
    gw.register_model("cifarnet", ArtifactKind::Adr1, &path_v0, reuse_factory()).unwrap();

    // In-flight requests queued before the swap attempt.
    let mut ids = Vec::new();
    for i in 0..4 {
        ids.push(gw.submit("cifarnet", "alpha", &single_image(&dataset, i)).unwrap());
    }

    let err = gw.swap("cifarnet", &corrupt_v1).unwrap_err();
    assert!(
        matches!(err, SwapError::Load(_)),
        "corruption surfaces as a typed load rollback, got {err}"
    );
    assert_eq!(gw.generation("cifarnet"), Some(0), "old generation still live");
    assert_eq!(gw.report().models["cifarnet"].swaps_rolled_back, 1);
    assert_eq!(gw.report().events_of(ServeEventKind::SwapRolledBack), 1);

    // Zero dropped in-flight requests: everything queued still serves.
    let answered = gw.drain();
    assert_eq!(answered.len(), ids.len());
    for (id, outcome) in &answered {
        assert!(outcome.is_ok(), "request {id} failed after rollback: {outcome:?}");
    }

    // The intact artifact now verifies and flips.
    assert_eq!(gw.swap("cifarnet", &path_v1).unwrap(), 1);
    assert_eq!(gw.report().models["cifarnet"].swaps_completed, 1);
    let after = gw.submit("cifarnet", "alpha", &single_image(&dataset, 5)).unwrap();
    let served = gw.drain();
    assert_eq!(served.len(), 1);
    assert_eq!(served[0].0, after);
    assert!(served[0].1.is_ok(), "generation 1 serves");
    std::fs::remove_file(&corrupt_v1).ok();
}

/// Tenant-scoped poison hits exactly one tenant's batch, is quarantined
/// and retried on the exact path, and never surfaces to any caller.
#[test]
fn tenant_scoped_poison_is_quarantined_without_touching_other_tenants() {
    let path = trained_checkpoint("adr_gateway_poison.adr1", 6);
    let dataset = synth_dataset(11, 16);

    let mut gw = manual_gateway(GatewayConfig::default());
    gw.add_tenant("clean", quiet_tenant()).unwrap();
    gw.add_tenant("victim", quiet_tenant()).unwrap();
    gw.register_model("cifarnet", ArtifactKind::Adr1, &path, reuse_factory()).unwrap();
    gw.set_fault_plan(ServeFaultPlan::new().poison_tenant_output("victim", 1));

    for i in 0..2 {
        gw.submit("cifarnet", "clean", &single_image(&dataset, i)).unwrap();
        gw.submit("cifarnet", "victim", &single_image(&dataset, 4 + i)).unwrap();
    }
    for (id, outcome) in gw.drain() {
        let resp = outcome.unwrap_or_else(|e| panic!("request {id} failed: {e}"));
        assert!(resp.logits.iter().all(|v| v.is_finite()), "poison never surfaces");
    }

    let model_report = &gw.report().models["cifarnet"];
    assert_eq!(model_report.quarantined_batches, 1, "exactly the victim's batch quarantined");
    assert_eq!(model_report.retried_batches, 1);
    let poison_events: Vec<&str> = gw
        .report()
        .events
        .iter()
        .filter(|e| e.kind == ServeEventKind::PoisonFault)
        .map(|e| e.detail.as_str())
        .collect();
    assert_eq!(poison_events.len(), 1);
    assert!(poison_events[0].contains("victim"), "the poison event names the tenant");
    assert_eq!(gw.report().tenants["clean"].completed, 2);
    assert_eq!(gw.report().tenants["victim"].completed, 2);
}

/// Fair-share admission: one tenant's flood fills only its own slice of
/// the queue, and the shed error carries the lane-relative capacity.
#[test]
fn fair_share_overload_sheds_only_the_flooding_tenant() {
    let path = trained_checkpoint("adr_gateway_fairshare.adr1", 6);
    let dataset = synth_dataset(11, 32);

    let cfg = GatewayConfig { queue_capacity: 8, max_batch: 2, ..GatewayConfig::default() };
    let mut gw = manual_gateway(cfg);
    gw.add_tenant("flood", quiet_tenant()).unwrap();
    gw.add_tenant("steady", quiet_tenant()).unwrap();
    gw.register_model("cifarnet", ArtifactKind::Adr1, &path, reuse_factory()).unwrap();

    // Two tenants share capacity 8: four slots each.
    for i in 0..4 {
        gw.submit("cifarnet", "flood", &single_image(&dataset, i)).unwrap();
    }
    let err = gw.submit("cifarnet", "flood", &single_image(&dataset, 4)).unwrap_err();
    match err {
        RequestError::Overloaded { depth, capacity, retry_after } => {
            assert_eq!((depth, capacity), (4, 4), "fair share is ceil(8/2) = 4");
            assert!(retry_after > Duration::ZERO, "shed carries a backoff hint");
        }
        other => panic!("expected fair-share shed, got {other:?}"),
    }
    // The steady tenant's slice is untouched by the flood.
    for i in 0..4 {
        gw.submit("cifarnet", "steady", &single_image(&dataset, 8 + i))
            .unwrap_or_else(|e| panic!("steady tenant was starved: {e}"));
    }
    assert_eq!(gw.report().tenants["flood"].shed_overloaded, 1);
    assert_eq!(gw.report().tenants["steady"].shed_overloaded, 0);
    for (_, outcome) in gw.drain() {
        assert!(outcome.is_ok());
    }
    // Round-robin drained both lanes to completion.
    assert_eq!(gw.report().tenants["flood"].completed, 4);
    assert_eq!(gw.report().tenants["steady"].completed, 4);
}

/// Unknown names are rejected typed, before validation or rate limiting.
#[test]
fn unknown_model_and_tenant_are_typed_rejections() {
    let path = trained_checkpoint("adr_gateway_unknown.adr1", 6);
    let dataset = synth_dataset(11, 8);

    let mut gw = manual_gateway(GatewayConfig::default());
    gw.add_tenant("alpha", quiet_tenant()).unwrap();
    gw.register_model("cifarnet", ArtifactKind::Adr1, &path, reuse_factory()).unwrap();

    let image = single_image(&dataset, 0);
    assert_eq!(
        gw.submit("resnet", "alpha", &image),
        Err(RequestError::UnknownModel { model: "resnet".into() })
    );
    assert_eq!(
        gw.submit("cifarnet", "ghost", &image),
        Err(RequestError::UnknownTenant { tenant: "ghost".into() })
    );
    assert!(gw.submit("cifarnet", "alpha", &image).is_ok());
    assert_eq!(gw.report().tenants["alpha"].admitted, 1);
}
