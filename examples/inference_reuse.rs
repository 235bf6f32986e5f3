//! Serve an already-trained model through the serving gateway and watch
//! the degradation ladder work — the serving counterpart of the
//! paper's §VI-A/§VI-B1 inference-reuse experiments.
//!
//! The script: train a dense CifarNet, checkpoint it, restore it into a
//! reuse-mode network behind a single-tenant [`Gateway`], then
//!
//! 1. serve a calm burst at the exact stage (bitwise-dense quality),
//! 2. script an overload with injected slow-batch stalls and watch the
//!    ladder shed quality instead of requests,
//! 3. flood past queue capacity and watch typed load-shedding,
//! 4. print the [`ServeReport`] — every degradation, shed, and retry is
//!    on the record.
//!
//! Run with: `cargo run --release --example inference_reuse`

// Test/example code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use std::time::Duration;

use adaptive_deep_reuse::adaptive::trainer::BatchSource;
use adaptive_deep_reuse::models::{cifarnet, ConvMode};
use adaptive_deep_reuse::nn::{LrSchedule, Sgd};
use adaptive_deep_reuse::prelude::*;
use adaptive_deep_reuse::serve::LadderConfig;

fn main() {
    println!("robust inference serving with graceful reuse degradation\n");

    // Train a dense CifarNet on the synthetic stand-in and checkpoint it.
    let mut rng = AdrRng::seeded(11);
    let cfg = SynthConfig {
        num_images: 240,
        num_classes: 4,
        height: 16,
        width: 16,
        channels: 3,
        smoothing_passes: 3,
        noise_std: 0.05,
        max_shift: 2,
        image_variability: 0.45,
    };
    let dataset = SynthDataset::generate(&cfg, &mut rng);
    let mut source = DatasetSource::new(dataset, 16, 32);
    let mut net = cifarnet::bench_scale(4, ConvMode::Dense, &mut rng);
    let mut sgd =
        Sgd::new(LrSchedule::InverseTime { base: 0.03, rate: 0.005 }, 0.9, 0.0).with_clip_norm(5.0);
    for iter in 0..300 {
        let (images, labels) = source.batch(iter % source.num_batches());
        net.train_batch(&images, &labels, &mut sgd);
    }
    let (probe_images, probe_labels) = source.probe();
    let dense_acc = net.evaluate(&probe_images, &probe_labels).accuracy;
    let ckpt_path = std::env::temp_dir().join("inference_reuse_example.adr1");
    Checkpoint::capture(&mut net).save(&ckpt_path).unwrap();
    println!("trained dense model: probe accuracy {dense_acc:.3}, checkpointed\n");

    // Register the checkpoint with a single-tenant gateway: one model, one
    // tenant whose token bucket never empties. The registry restores it
    // into a reuse-mode network. The virtual clock makes the whole demo
    // reproducible: "load" below is scripted via injected stalls, not real
    // machine speed.
    const MODEL: &str = "cifarnet";
    const TENANT: &str = "default";
    let cfg = GatewayConfig {
        queue_capacity: 16,
        max_batch: 4,
        target_batch_latency: Duration::from_millis(50),
    };
    let mut gateway = Gateway::with_clock(cfg, Box::new(ManualClock::new())).unwrap();
    let tenant = TenantConfig {
        rate_per_sec: u64::MAX,
        burst: u64::MAX,
        default_deadline: Duration::from_secs(10),
        ladder: LadderConfig { alpha: 1.0, min_dwell: 1, ..LadderConfig::default() },
    };
    gateway.add_tenant(TENANT, tenant).unwrap();
    let factory: NetFactory =
        Box::new(|| cifarnet::bench_scale(4, ConvMode::reuse_default(), &mut AdrRng::seeded(12)));
    gateway.register_model(MODEL, ArtifactKind::Adr1, &ckpt_path, factory).unwrap();

    // Single images drawn from the probe split, served one request each.
    let (h, w, c) = (16, 16, 3);
    let per = h * w * c;
    let request = |i: usize| {
        let start = (i % probe_labels.len()) * per;
        Tensor4::from_vec(1, h, w, c, probe_images.as_slice()[start..start + per].to_vec()).unwrap()
    };
    let served_accuracy = |responses: &[(usize, InferResponse)], labels: &[usize]| {
        let hits =
            responses.iter().filter(|(i, resp)| resp.class == labels[*i % labels.len()]).count();
        hits as f32 / responses.len().max(1) as f32
    };

    // Phase 1: calm burst — stays on the exact stage.
    let mut calm = Vec::new();
    for i in 0..16 {
        let id = gateway.submit(MODEL, TENANT, &request(i)).unwrap();
        for (rid, outcome) in gateway.poll() {
            assert_eq!(rid, id);
            calm.push((i, outcome.unwrap()));
        }
    }
    println!(
        "calm burst:     16/16 served at stage {}, accuracy {:.3} (exact = dense bitwise)",
        calm.last().map_or(0, |(_, r)| r.stage),
        served_accuracy(&calm, &probe_labels)
    );

    // Phase 2: overload — injected stalls make every batch 4x the latency
    // target, and the ladder sheds *quality* instead of requests.
    // Phase 1 served 16 single-request batches, so the overload burst
    // starts at batch 16; stall its first three batches.
    gateway.set_fault_plan(
        ServeFaultPlan::new()
            .inject_at_batch(16, ServeFaultKind::SlowBatch { stall_ms: 200 })
            .inject_at_batch(17, ServeFaultKind::SlowBatch { stall_ms: 200 })
            .inject_at_batch(18, ServeFaultKind::SlowBatch { stall_ms: 200 }),
    );
    for i in 0..12 {
        gateway.submit(MODEL, TENANT, &request(16 + i)).unwrap();
    }
    let mut degraded = Vec::new();
    while gateway.queue_depth(MODEL, TENANT) > Some(0) {
        let stage_before = gateway.stage(MODEL, TENANT).unwrap();
        for (_, outcome) in gateway.poll() {
            degraded.push((stage_before, outcome.unwrap()));
        }
    }
    println!("overload burst: every batch stalled 4x over target; stages served:");
    for (stage, resp) in degraded.iter().step_by(4) {
        println!(
            "                stage {} ({} ms latency, finite logits: {})",
            stage,
            resp.latency.as_millis(),
            resp.logits.iter().all(|v| v.is_finite())
        );
    }

    // Phase 3: flood past queue capacity — the excess sheds, typed.
    let mut shed = 0;
    for i in 0..24 {
        match gateway.submit(MODEL, TENANT, &request(28 + i)) {
            Ok(_) => {}
            Err(RequestError::Overloaded { .. }) => shed += 1,
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    gateway.drain();
    println!("flood burst:    24 submitted into a 16-deep queue -> {shed} shed (typed)\n");

    // The record: every degradation, recovery, shed, and retry.
    let report = gateway.into_report();
    println!("{}\n", report.summary());
    let (tenant, model) = (&report.tenants[TENANT], &report.models[MODEL]);
    println!(
        "degradation counters: {} degraded, {} recovered, {} shed, {} quarantined, {} retried",
        tenant.degraded_steps,
        tenant.recovered_steps,
        tenant.shed_overloaded,
        model.quarantined_batches,
        model.retried_batches
    );
    println!("\nExpected: the overload burst walks the ladder down (rising FLOP savings),");
    println!("calm traffic recovers it, and overflow sheds typed instead of buffering.");
    std::fs::remove_file(&ckpt_path).ok();
}
