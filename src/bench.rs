//! The two golden counter documents behind `adr bench` (DESIGN.md §11.4).
//!
//! `BENCH_train.json` and `BENCH_serve.json` hold only what an in-process
//! run can pin byte for byte: FLOP counters, cluster statistics and gateway
//! accounting of one seeded workload each — integers and ratios of
//! integers, identical across runs, thread counts and SIMD backends.
//! `tests/bench_golden.rs` renders both and compares them with the
//! committed files; `adr bench` rewrites those files. Neither document
//! carries a time: wall time is `benchmark/`'s job (BENCHMARK.json).

use crate::models::{cifarnet, ConvMode};
use crate::prelude::*;
use adr_core::trainer::BatchSource;
use adr_obs::json::Json;
use adr_obs::Recorder;
use adr_reuse::reuse_layers;
use std::path::Path;
use std::rc::Rc;
#[expect(clippy::disallowed_types, reason = "ordering-counter: audited on ARTIFACT_SEQ")]
use std::sync::atomic::{AtomicU64, Ordering};

// The pinned workload. Constants rather than options: a golden file has
// exactly one workload, and changing any of these is a re-baseline.
const SEED: u64 = 42;
const CLASSES: usize = 4;
const TRAIN_IMAGES: usize = 160;
const TRAIN_BATCH: usize = 8;
const TRAIN_STEPS: usize = 24;
const SERVE_REQUESTS: usize = 8;
const SERVE_MAX_BATCH: usize = 4;

fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn uint(n: usize) -> Json {
    Json::Uint(u64::try_from(n).unwrap_or(u64::MAX))
}

/// `actual / exact`, the fraction of the dense multiply–adds performed.
fn flop_ratio(actual: u64, exact: u64) -> f64 {
    if exact == 0 {
        1.0
    } else {
        actual as f64 / exact as f64
    }
}

fn bench_net() -> Network {
    cifarnet::bench_scale(CLASSES, ConvMode::reuse_default(), &mut AdrRng::seeded(SEED))
}

/// Trains the bench-scale CifarNet at the default reuse setting on the
/// structured synthetic templates for `TRAIN_STEPS` steps under a
/// [`Recorder`] and assembles `BENCH_train.json`: per reuse layer the
/// actual and exact FLOPs, the forward FLOPs by phase as the recorder saw
/// them, `r_c`, cluster count, reuse rate, and the paper's
/// modelled step cost (Eqs. 5/6/12/20) beside the metered FLOP ratio.
///
/// Also returns every step's loss so the caller can check the pinned run
/// learns; losses stay out of the document, which holds counters only.
pub fn train_document() -> (Json, Vec<f32>) {
    let mut net = bench_net();
    let cfg = SynthConfig {
        num_classes: CLASSES,
        height: 16,
        width: 16,
        max_shift: 1,
        ..SynthConfig::cifar_like(TRAIN_IMAGES)
    };
    let dataset = SynthDataset::generate(&cfg, &mut AdrRng::seeded(SEED).split(1));
    let mut source = DatasetSource::new(dataset, TRAIN_BATCH, TRAIN_BATCH);
    let mut sgd =
        Sgd::new(LrSchedule::InverseTime { base: 0.02, rate: 0.005 }, 0.9, 0.0).with_clip_norm(5.0);

    let recorder = Recorder::new();
    let guard = adr_obs::install(Rc::new(recorder.clone()));
    let mut losses = Vec::with_capacity(TRAIN_STEPS);
    for step in 0..TRAIN_STEPS {
        adr_obs::begin_step();
        let (images, labels) = source.batch(step);
        losses.push(net.train_batch(&images, &labels, &mut sgd).loss);
    }
    drop(guard);

    let mut layers = Vec::new();
    let (mut actual_total, mut exact_total) = (0u64, 0u64);
    for reuse in reuse_layers(&mut net) {
        let name = reuse.name().to_string();
        let (actual, exact) = (reuse.flops().total(), reuse.baseline_flops().total());
        actual_total += actual;
        exact_total += exact;
        let phase_flops = ["hash", "centroid_gemm", "scatter"].map(|phase| {
            let labels = [("layer", name.as_str()), ("phase", phase)];
            (phase, Json::Uint(recorder.counter("adr_reuse_phase_flops", &labels).unwrap_or(0)))
        });
        let stats = reuse.stats();
        layers.push(obj([
            ("layer", Json::Str(name)),
            ("flops_actual", Json::Uint(actual)),
            ("flops_exact", Json::Uint(exact)),
            ("forward_flops", obj(phase_flops)),
            ("rc", Json::Num(stats.avg_remaining_ratio)),
            ("clusters_avg", Json::Num(stats.avg_clusters)),
            ("reuse_rate", Json::Num(stats.reuse_rate)),
            ("modelled_cost", Json::Num(reuse.modelled_step_cost().unwrap_or(1.0))),
            ("flop_ratio", Json::Num(flop_ratio(actual, exact))),
        ]));
    }

    let doc = obj([
        ("schema", Json::Str("adr-bench-train/v2".to_string())),
        (
            "workload",
            obj([
                ("model", Json::Str("cifarnet".to_string())),
                ("classes", uint(CLASSES)),
                ("images", uint(TRAIN_IMAGES)),
                ("batch", uint(TRAIN_BATCH)),
                ("steps", uint(TRAIN_STEPS)),
                ("seed", Json::Uint(SEED)),
            ]),
        ),
        ("layers", Json::Arr(layers)),
        (
            "totals",
            obj([
                ("flops_actual", Json::Uint(actual_total)),
                ("flops_exact", Json::Uint(exact_total)),
                ("flop_savings", Json::Num(1.0 - flop_ratio(actual_total, exact_total))),
            ]),
        ),
    ]);
    (doc, losses)
}

/// Runs the two-tenant serving burst and assembles `BENCH_serve.json`:
/// gateway-wide totals, per-tenant counters with per-stage attribution,
/// per-model generation, swap and FLOP accounting.
///
/// The burst exercises every admission outcome deterministically: a
/// `steady` tenant with headroom completes all its requests on the exact
/// stage, a `burst` tenant with a two-token bucket has its tail
/// rate-limited, and one hot swap (to the same artifact) with the whole
/// burst still queued bumps the model generation without dropping
/// anything. Every batch runs at stage 0, the dense code path, so
/// `flops_actual == flops_exact` and `flop_savings` is `0.0`.
///
/// # Errors
///
/// A message naming the step that failed: writing the temporary
/// checkpoint, building the gateway, registering, swapping, or a burst
/// that completed nothing.
pub fn serve_document() -> Result<Json, String> {
    // The registry loads artifacts from disk, so the seeded weights make a
    // round trip through a real checkpoint file — one per call, so bursts
    // running concurrently in one process never share (and delete) a path.
    #[expect(
        clippy::disallowed_types,
        reason = "ordering-counter: a Relaxed sequence number that only makes file names unique"
    )]
    static ARTIFACT_SEQ: AtomicU64 = AtomicU64::new(0);
    let artifact = std::env::temp_dir().join(format!(
        "adr-bench-serve-{}-{}.adr1",
        std::process::id(),
        ARTIFACT_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let report = serve_burst(&artifact);
    let _ = std::fs::remove_file(&artifact);
    let report = report?;

    let tenants = report.tenants.iter().map(|(name, c)| {
        let per_stage = c.requests_per_stage.iter().map(|&n| Json::Uint(n)).collect();
        let fields = c.counters().map(|(k, v)| (k, Json::Uint(v)));
        (
            name.clone(),
            obj(fields.into_iter().chain([("requests_per_stage", Json::Arr(per_stage))])),
        )
    });
    let models = report.models.iter().map(|(name, m)| {
        let fields = [("generation", m.generation)].into_iter().chain(m.counters());
        (name.clone(), obj(fields.map(|(k, v)| (k, Json::Uint(v)))))
    });
    let flops_actual: u64 = report.models.values().map(|m| m.flops_actual).sum();
    let flops_exact: u64 = report.models.values().map(|m| m.flops_exact).sum();
    Ok(obj([
        ("schema", Json::Str("adr-bench-serve/v3".to_string())),
        (
            "workload",
            obj([
                ("model", Json::Str("cifarnet".to_string())),
                ("classes", uint(CLASSES)),
                ("requests", uint(SERVE_REQUESTS)),
                ("max_batch", uint(SERVE_MAX_BATCH)),
                ("tenants", uint(report.tenants.len())),
                ("seed", Json::Uint(SEED)),
            ]),
        ),
        ("counters", obj(report.counters().into_iter().map(|(k, v)| (k, Json::Uint(v))))),
        ("tenants", Json::Obj(tenants.collect())),
        ("models", Json::Obj(models.collect())),
        ("flops_actual", Json::Uint(flops_actual)),
        ("flops_exact", Json::Uint(flops_exact)),
        ("flop_savings", Json::Num(1.0 - flop_ratio(flops_actual, flops_exact))),
    ]))
}

/// The serving burst itself, on a virtual clock that never advances (so
/// token buckets never refill): checkpoint to `artifact`, register, submit,
/// swap mid-burst, drain.
fn serve_burst(artifact: &Path) -> Result<ServeReport, String> {
    Checkpoint::capture(&mut bench_net())
        .save(artifact)
        .map_err(|e| format!("writing bench artifact: {e}"))?;
    let cfg = GatewayConfig {
        queue_capacity: SERVE_REQUESTS,
        max_batch: SERVE_MAX_BATCH,
        ..GatewayConfig::default()
    };
    let mut gateway = Gateway::with_clock(cfg, Box::new(ManualClock::new()))
        .map_err(|e| format!("gateway construction failed: {e}"))?;
    gateway
        .register_model("cifarnet", ArtifactKind::Adr1, artifact, Box::new(bench_net))
        .map_err(|e| format!("registering bench model: {e}"))?;
    let steady = TenantConfig { rate_per_sec: 1_000, burst: 64, ..TenantConfig::default() };
    let bursty = TenantConfig { rate_per_sec: 1, burst: 2, ..TenantConfig::default() };
    for (name, tenant) in [("steady", steady), ("burst", bursty)] {
        gateway.add_tenant(name, tenant).map_err(|e| format!("adding {name} tenant: {e}"))?;
    }

    let mut data_rng = AdrRng::seeded(SEED).split(2);
    for i in 0..SERVE_REQUESTS {
        let image = Tensor4::from_fn(1, 16, 16, 3, |_, _, _, _| data_rng.gauss());
        let tenant = if i % 2 == 0 { "steady" } else { "burst" };
        // Rejections (the burst tenant's rate-limited tail) are part of
        // the workload, not errors.
        let _ = gateway.submit("cifarnet", tenant, &image);
    }
    gateway.swap("cifarnet", artifact).map_err(|e| format!("bench hot swap failed: {e}"))?;
    if !gateway.drain().iter().any(|(_, r)| r.is_ok()) {
        return Err("serving burst completed no requests".to_string());
    }
    Ok(gateway.into_report())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    /// Tier-1 flake pin: the serve bursts used to share one artifact path
    /// per process, so two running at once deleted each other's checkpoint
    /// mid-run. Both start behind one barrier and must complete with the
    /// same deterministic counters.
    #[test]
    fn serve_benches_running_concurrently_do_not_share_an_artifact() {
        let barrier = std::sync::Barrier::new(2);
        let run = || {
            barrier.wait();
            serve_document()
        };
        let (a, b) = std::thread::scope(|scope| {
            let other = scope.spawn(run);
            (run(), other.join().expect("concurrent serve bench panicked"))
        });
        assert_eq!(a.unwrap().render_pretty(), b.unwrap().render_pretty());
    }

    #[test]
    fn serve_bench_emits_a_schema_valid_document() {
        let doc = serve_document().unwrap();
        // 8 requests split across two tenants: steady's 4 all admitted,
        // burst's 4 hit a 2-token bucket — 2 admitted, 2 rate-limited.
        let counter = |key: &str| doc.get("counters").unwrap().get(key).and_then(Json::as_u64);
        assert_eq!(counter("admitted"), Some(6));
        assert_eq!(counter("rate_limited"), Some(2));
        let burst = doc.get("tenants").unwrap().get("burst").unwrap();
        assert_eq!(burst.get("rate_limited").and_then(Json::as_u64), Some(2));
        // The mid-burst hot swap flipped the generation without dropping
        // anything in flight.
        let model = doc.get("models").unwrap().get("cifarnet").unwrap();
        assert_eq!(model.get("generation").and_then(Json::as_u64), Some(1));
        assert_eq!(model.get("swaps_completed").and_then(Json::as_u64), Some(1));
        assert_eq!(counter("completed"), Some(6));
    }
}
