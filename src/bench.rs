//! The `adr bench` workloads: a seeded step-profile training run and a
//! seeded serving burst, reduced to the machine-readable BENCH documents
//! (`adr_obs::bench::TRAIN_SCHEMA` / `SERVE_SCHEMA`, DESIGN.md §11).
//!
//! Both workloads mirror the determinism suite's construction so the
//! emitted *values* (FLOPs, ratios, counters) are bitwise-reproducible for
//! a fixed seed; only the `*wall_ns` fields vary run to run.

use crate::models::{cifarnet, ConvMode};
use crate::prelude::*;
use adr_obs::json::Json;
use adr_obs::{Phase, Recorder, PHASE_TIME_METRIC};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Workload sizing for one `adr bench` invocation.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Output classes of the CifarNet-scale model.
    pub classes: usize,
    /// Training batch size.
    pub batch: usize,
    /// Training steps in the step profile.
    pub steps: usize,
    /// Requests in the serving burst.
    pub requests: usize,
    /// Seed for model init and synthetic data.
    pub seed: u64,
    /// Whether this is the reduced CI profile.
    pub quick: bool,
}

impl BenchConfig {
    /// The reduced profile CI runs (`adr bench --quick`).
    pub fn quick() -> Self {
        Self { classes: 4, batch: 4, steps: 2, requests: 8, seed: 42, quick: true }
    }

    /// The default profile.
    pub fn full() -> Self {
        Self { classes: 4, batch: 8, steps: 6, requests: 24, seed: 42, quick: false }
    }
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn u64_of(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// One pass of the step-profile training workload; returns the final loss.
fn train_workload(cfg: &BenchConfig) -> (Network, f32) {
    let mut rng = AdrRng::seeded(cfg.seed);
    let mut net = cifarnet::bench_scale(cfg.classes, ConvMode::reuse_default(), &mut rng);
    let mut data_rng = rng.split(1);
    let mut pixels = vec![0.0f32; cfg.batch * 16 * 16 * 3];
    data_rng.fill_gauss(&mut pixels);
    let images =
        Tensor4::from_vec(cfg.batch, 16, 16, 3, pixels).expect("bench image shape is consistent");
    let labels: Vec<usize> = (0..cfg.batch).map(|_| data_rng.below(cfg.classes)).collect();
    let mut sgd = Sgd::new(LrSchedule::Constant(0.05), 0.9, 0.0);
    let mut loss = f32::NAN;
    for _ in 0..cfg.steps {
        adr_obs::begin_step();
        loss = net.train_batch(&images, &labels, &mut sgd).loss;
    }
    (net, loss)
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs the step-profile workload three ways — uninstrumented, with the
/// `NullSink`, and with a collecting [`Recorder`] — and assembles the
/// `BENCH_train.json` document: per-layer per-phase wall time, actual vs.
/// exact FLOPs, and modelled (Eq. 5/6/12/20) vs. measured relative cost.
pub fn run_train_bench(cfg: &BenchConfig) -> Json {
    // Warm-up pass so first-touch allocation noise doesn't land in either
    // timed variant.
    let _ = train_workload(cfg);

    // Overhead measurement: best-of-two per variant, so one scheduler
    // hiccup doesn't masquerade as instrumentation cost.
    let timed = |cfg: &BenchConfig| {
        let start = Instant::now();
        let _ = train_workload(cfg);
        elapsed_ns(start)
    };

    // Baseline: no sink installed — the compiled-in default path.
    let bare_ns = timed(cfg).min(timed(cfg));

    // NullSink installed: instrumentation calls reach a discarding sink.
    let null_ns = {
        let _guard = adr_obs::install(Rc::new(adr_obs::NullSink));
        timed(cfg).min(timed(cfg))
    };
    let overhead_pct =
        if bare_ns == 0 { 0.0 } else { (null_ns as f64 - bare_ns as f64) / bare_ns as f64 * 100.0 };

    // Recorder installed: the measured run the document reports.
    let recorder = Recorder::new();
    let guard = adr_obs::install(Rc::new(recorder.clone()));
    let start = Instant::now();
    let (mut net, loss_final) = train_workload(cfg);
    let wall_ns = elapsed_ns(start);
    drop(guard);

    let mut layers = Vec::new();
    let mut flops_actual_total = 0u64;
    let mut flops_exact_total = 0u64;
    for layer in net.layers_mut() {
        let name = layer.name().to_string();
        let actual = layer.flops();
        let exact = layer.baseline_flops();
        let Some(reuse) = layer.as_any_mut().and_then(|a| a.downcast_mut::<ReuseConv2d>()) else {
            continue;
        };
        let stats = reuse.stats();
        flops_actual_total += actual.total();
        flops_exact_total += exact.total();
        let mut wall = Vec::new();
        let mut layer_total_ns = 0u64;
        for phase in Phase::ALL {
            let stat = recorder
                .time(PHASE_TIME_METRIC, &[("layer", name.as_str()), ("phase", phase.as_str())])
                .unwrap_or_default();
            layer_total_ns += stat.total_ns;
            wall.push((phase.as_str(), Json::Uint(stat.total_ns)));
        }
        wall.push(("total", Json::Uint(layer_total_ns)));
        let measured_cost =
            if exact.total() == 0 { 1.0 } else { actual.total() as f64 / exact.total() as f64 };
        layers.push(obj(vec![
            ("layer", Json::Str(name.clone())),
            ("wall_ns", obj(wall)),
            ("flops_actual", Json::Uint(actual.total())),
            ("flops_exact", Json::Uint(exact.total())),
            ("rc", Json::Num(stats.avg_remaining_ratio)),
            ("clusters_avg", Json::Num(stats.avg_clusters)),
            ("reuse_rate", Json::Num(stats.reuse_rate)),
            ("modelled_cost", Json::Num(reuse.modelled_step_cost().unwrap_or(1.0))),
            ("measured_cost", Json::Num(measured_cost)),
        ]));
    }

    let flop_savings = if flops_exact_total == 0 {
        0.0
    } else {
        1.0 - flops_actual_total as f64 / flops_exact_total as f64
    };
    obj(vec![
        ("schema", Json::Str(adr_obs::bench::TRAIN_SCHEMA.to_string())),
        (
            "workload",
            obj(vec![
                ("model", Json::Str("cifarnet".to_string())),
                ("classes", Json::Uint(u64_of(cfg.classes))),
                ("batch", Json::Uint(u64_of(cfg.batch))),
                ("steps", Json::Uint(u64_of(cfg.steps))),
                ("seed", Json::Uint(cfg.seed)),
                ("quick", Json::Bool(cfg.quick)),
            ]),
        ),
        ("layers", Json::Arr(layers)),
        (
            "totals",
            obj(vec![
                ("wall_ns", Json::Uint(wall_ns)),
                ("flops_actual", Json::Uint(flops_actual_total)),
                ("flops_exact", Json::Uint(flops_exact_total)),
                ("flop_savings", Json::Num(flop_savings)),
                ("loss_final", Json::Num(f64::from(loss_final))),
                ("null_sink_overhead_pct", Json::Num(overhead_pct)),
            ]),
        ),
    ])
}

/// Runs the multi-tenant serving burst and assembles the
/// `BENCH_serve.json` document (`adr-bench-serve/v2`): gateway-wide
/// totals, per-tenant counters with stage attribution, per-model
/// generation and swap accounting, latency buckets, and actual-vs-exact
/// FLOPs. The report is also re-exported through the telemetry schema so
/// the recorder path stays covered.
///
/// The workload exercises every admission outcome deterministically: a
/// `steady` tenant with headroom completes all its requests on the exact
/// path, a `burst` tenant with a tiny token bucket has the tail of its
/// burst rate-limited, and one mid-burst hot swap (to the same artifact)
/// bumps the model generation without dropping anything in flight.
pub fn run_serve_bench(cfg: &BenchConfig) -> Result<Json, String> {
    let mut rng = AdrRng::seeded(cfg.seed);
    let mut net = cifarnet::bench_scale(cfg.classes, ConvMode::reuse_default(), &mut rng);

    // The registry loads artifacts from disk, so the seeded weights make a
    // round trip through a real checkpoint file — one per call, so benches
    // running concurrently in one process never share (and delete) a path.
    static ARTIFACT_SEQ: AtomicU64 = AtomicU64::new(0);
    let artifact = std::env::temp_dir().join(format!(
        "adr-bench-serve-{}-{}.adr1",
        std::process::id(),
        ARTIFACT_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    Checkpoint::capture(&mut net)
        .save(&artifact)
        .map_err(|e| format!("writing bench artifact: {e}"))?;
    let cleanup = |r: Result<Json, String>| {
        let _ = std::fs::remove_file(&artifact);
        r
    };

    let gateway_cfg = GatewayConfig {
        queue_capacity: cfg.requests.max(4),
        max_batch: 4,
        ..GatewayConfig::default()
    };
    let mut gateway = match Gateway::with_clock(gateway_cfg, Box::new(ManualClock::new())) {
        Ok(gw) => gw,
        Err(e) => return cleanup(Err(format!("gateway construction failed: {e}"))),
    };
    let (classes, seed) = (cfg.classes, cfg.seed);
    let factory: NetFactory = Box::new(move || {
        let mut rng = AdrRng::seeded(seed);
        cifarnet::bench_scale(classes, ConvMode::reuse_default(), &mut rng)
    });
    if let Err(e) = gateway.register_model("cifarnet", ArtifactKind::Adr1, &artifact, factory) {
        return cleanup(Err(format!("registering bench model: {e}")));
    }
    // `steady` has headroom for the whole burst; `burst` holds two tokens
    // and refills at 1/s of virtual time — which never advances under the
    // manual clock, so the tail of its burst is rate-limited.
    let steady = TenantConfig { rate_per_sec: 1_000, burst: 64, ..TenantConfig::default() };
    let bursty = TenantConfig { rate_per_sec: 1, burst: 2, ..TenantConfig::default() };
    if let Err(e) = gateway.add_tenant("steady", steady) {
        return cleanup(Err(format!("adding steady tenant: {e}")));
    }
    if let Err(e) = gateway.add_tenant("burst", bursty) {
        return cleanup(Err(format!("adding burst tenant: {e}")));
    }

    let mut data_rng = rng.split(2);
    let mut images = Vec::with_capacity(cfg.requests);
    for _ in 0..cfg.requests {
        let mut pixels = vec![0.0f32; 16 * 16 * 3];
        data_rng.fill_gauss(&mut pixels);
        let image = Tensor4::from_vec(1, 16, 16, 3, pixels)
            .ok_or_else(|| "bench image shape is inconsistent".to_string());
        match image {
            Ok(img) => images.push(img),
            Err(e) => return cleanup(Err(e)),
        }
    }

    let start = Instant::now();
    for (i, image) in images.iter().enumerate() {
        let tenant = if i % 2 == 0 { "steady" } else { "burst" };
        // Rejections (the burst tenant's rate-limited tail) are part of
        // the workload, not errors.
        let _ = gateway.submit("cifarnet", tenant, image);
    }
    // Zero-downtime swap with the whole burst still queued: the baseline
    // pins generation 1 with nothing dropped.
    if let Err(e) = gateway.swap("cifarnet", &artifact) {
        return cleanup(Err(format!("bench hot swap failed: {e}")));
    }
    let outcomes = gateway.drain();
    let wall_ns = elapsed_ns(start);
    let _ = std::fs::remove_file(&artifact);
    let completed = outcomes.iter().filter(|(_, r)| r.is_ok()).count();
    let report = gateway.into_report();
    if completed == 0 {
        return Err("serving burst completed no requests".to_string());
    }

    // Round-trip the report through the unified schema: what an operator's
    // scrape of a live gateway would see.
    let recorder = Recorder::new();
    {
        let _guard = adr_obs::install(Rc::new(recorder.clone()));
        report.export_metrics();
    }

    let counters =
        obj(report.counters().into_iter().map(|(name, v)| (name, Json::Uint(v))).collect());
    let tenants = Json::Obj(
        report
            .tenants
            .iter()
            .map(|(name, c)| {
                (
                    name.clone(),
                    obj(vec![
                        ("admitted", Json::Uint(c.admitted)),
                        ("completed", Json::Uint(c.completed)),
                        ("rejected_shape", Json::Uint(c.rejected_shape)),
                        ("rejected_non_finite", Json::Uint(c.rejected_non_finite)),
                        ("shed_overloaded", Json::Uint(c.shed_overloaded)),
                        ("rate_limited", Json::Uint(c.rate_limited)),
                        ("deadline_missed", Json::Uint(c.deadline_missed)),
                        ("failed_non_finite", Json::Uint(c.failed_non_finite)),
                        (
                            "requests_per_stage",
                            Json::Arr(
                                c.requests_per_stage.iter().map(|&n| Json::Uint(n)).collect(),
                            ),
                        ),
                    ]),
                )
            })
            .collect(),
    );
    let models = Json::Obj(
        report
            .models
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    obj(vec![
                        ("batches", Json::Uint(m.batches)),
                        ("generation", Json::Uint(m.generation)),
                        ("swaps_completed", Json::Uint(m.swaps_completed)),
                        ("swaps_rolled_back", Json::Uint(m.swaps_rolled_back)),
                        ("flops_actual", Json::Uint(m.flops_actual)),
                        ("flops_exact", Json::Uint(m.flops_exact)),
                    ]),
                )
            })
            .collect(),
    );
    let flops_actual: u64 = report.models.values().map(|m| m.flops_actual).sum();
    let flops_exact: u64 = report.models.values().map(|m| m.flops_exact).sum();
    let flop_savings =
        if flops_exact == 0 { 0.0 } else { 1.0 - flops_actual as f64 / flops_exact as f64 };
    Ok(obj(vec![
        ("schema", Json::Str(adr_obs::bench::SERVE_SCHEMA.to_string())),
        (
            "workload",
            obj(vec![
                ("model", Json::Str("cifarnet".to_string())),
                ("classes", Json::Uint(u64_of(cfg.classes))),
                ("requests", Json::Uint(u64_of(cfg.requests))),
                ("max_batch", Json::Uint(4)),
                ("tenants", Json::Uint(2)),
                ("seed", Json::Uint(cfg.seed)),
                ("quick", Json::Bool(cfg.quick)),
            ]),
        ),
        ("counters", counters),
        ("tenants", tenants),
        ("models", models),
        (
            "latency_bucket_counts",
            Json::Arr(report.latency.counts().iter().map(|&n| Json::Uint(n)).collect()),
        ),
        ("flops_actual", Json::Uint(flops_actual)),
        ("flops_exact", Json::Uint(flops_exact)),
        ("flop_savings", Json::Num(flop_savings)),
        ("wall_ns", Json::Uint(wall_ns)),
        ("scrape_counters", Json::Uint(u64_of(recorder.counters().len()))),
    ]))
}

/// Noise floor for wall-time share comparison: a phase whose *baseline*
/// share of its layer's total is below this is dominated by timer jitter
/// at bench scale and is not gated.
const SHARE_NOISE_FLOOR: f64 = 0.05;

fn rel_diff(base: f64, fresh: f64) -> f64 {
    if base == 0.0 {
        return if fresh == 0.0 { 0.0 } else { f64::INFINITY };
    }
    ((fresh - base) / base).abs()
}

fn field_f64(doc: &Json, path: &[&str]) -> Option<f64> {
    let mut cur = doc;
    for key in path {
        cur = cur.get(key)?;
    }
    cur.as_f64()
}

/// Checks that the two documents describe the *same workload* (model,
/// sizing, seed); a comparison across different workloads is meaningless
/// and reported as a violation rather than silently tolerated.
fn check_workload(base: &Json, fresh: &Json, out: &mut Vec<String>, doc: &str) {
    let (Some(b), Some(f)) = (base.get("workload"), fresh.get("workload")) else {
        out.push(format!("{doc}: workload section missing"));
        return;
    };
    if b != f {
        out.push(format!(
            "{doc}: workload mismatch — baseline {} vs fresh {}",
            b.render_pretty().replace('\n', " "),
            f.render_pretty().replace('\n', " ")
        ));
    }
}

/// Compares a fresh `BENCH_train.json` against a committed baseline.
///
/// Two gates per layer:
/// * **FLOP attribution** (`flops_actual`, `flops_exact`, `rc`,
///   `reuse_rate`): deterministic for a fixed seed, so the relative
///   difference must stay within `tol` (0 would also be defensible; the
///   tolerance keeps the gate robust to intentional cost-model tuning
///   that ships with a re-baseline).
/// * **Wall-time shape**: absolute wall times are machine-dependent, so
///   each phase's *share of its layer's total* is compared instead, with
///   an absolute-difference bound of `tol` and a [`SHARE_NOISE_FLOOR`]
///   on the baseline share.
///
/// Returns the list of violations (empty = pass).
pub fn compare_train(base: &Json, fresh: &Json, tol: f64) -> Vec<String> {
    let mut out = Vec::new();
    check_workload(base, fresh, &mut out, "BENCH_train");
    let (Some(base_layers), Some(fresh_layers)) =
        (base.get("layers").and_then(Json::as_arr), fresh.get("layers").and_then(Json::as_arr))
    else {
        out.push("BENCH_train: layers section missing".to_string());
        return out;
    };
    if base_layers.len() != fresh_layers.len() {
        out.push(format!(
            "BENCH_train: layer count changed ({} -> {})",
            base_layers.len(),
            fresh_layers.len()
        ));
        return out;
    }
    for (b, f) in base_layers.iter().zip(fresh_layers) {
        let name = b.get("layer").and_then(Json::as_str).unwrap_or("?");
        if f.get("layer").and_then(Json::as_str) != Some(name) {
            out.push(format!("BENCH_train: layer order changed at `{name}`"));
            continue;
        }
        for field in ["flops_actual", "flops_exact", "rc", "reuse_rate"] {
            let (Some(bv), Some(fv)) = (field_f64(b, &[field]), field_f64(f, &[field])) else {
                out.push(format!("BENCH_train/{name}: `{field}` missing"));
                continue;
            };
            let diff = rel_diff(bv, fv);
            if diff > tol {
                out.push(format!(
                    "BENCH_train/{name}: `{field}` drifted {:.1}% (baseline {bv}, fresh {fv}, \
                     tolerance {:.0}%)",
                    diff * 100.0,
                    tol * 100.0
                ));
            }
        }
        let (Some(bt), Some(ft)) =
            (field_f64(b, &["wall_ns", "total"]), field_f64(f, &["wall_ns", "total"]))
        else {
            out.push(format!("BENCH_train/{name}: wall_ns.total missing"));
            continue;
        };
        if bt <= 0.0 || ft <= 0.0 {
            out.push(format!("BENCH_train/{name}: non-positive wall_ns.total"));
            continue;
        }
        for phase in ["im2col", "hash", "cluster", "centroid_gemm", "scatter"] {
            let (Some(bp), Some(fp)) =
                (field_f64(b, &["wall_ns", phase]), field_f64(f, &["wall_ns", phase]))
            else {
                out.push(format!("BENCH_train/{name}: wall_ns.{phase} missing"));
                continue;
            };
            let base_share = bp / bt;
            let fresh_share = fp / ft;
            if base_share < SHARE_NOISE_FLOOR {
                continue;
            }
            let diff = (fresh_share - base_share).abs();
            if diff > tol {
                out.push(format!(
                    "BENCH_train/{name}: `{phase}` wall-time share moved from {:.1}% to {:.1}% \
                     (> {:.0} points)",
                    base_share * 100.0,
                    fresh_share * 100.0,
                    tol * 100.0
                ));
            }
        }
    }
    out
}

/// Compares two same-named counter objects exactly, prefixing violations
/// with `label` (e.g. `BENCH_serve/tenants.steady`).
fn compare_counter_obj(base: &Json, fresh: Option<&Json>, label: &str, out: &mut Vec<String>) {
    let Some(bc) = base.as_obj() else {
        out.push(format!("{label}: not an object in the baseline"));
        return;
    };
    let Some(fresh) = fresh else {
        out.push(format!("{label}: missing from the fresh document"));
        return;
    };
    for (key, bv) in bc {
        // Per-stage attribution arrays and scalar counters both compare
        // exactly — the burst is seeded, so any drift is a regression.
        let fv = fresh.get(key);
        if fv != Some(bv) {
            out.push(format!(
                "{label}: `{key}` changed (baseline {}, fresh {})",
                bv.render_pretty().replace('\n', " "),
                fv.map_or("<missing>".to_string(), |v| v.render_pretty().replace('\n', " "))
            ));
        }
    }
}

/// Compares a fresh `BENCH_serve.json` against a committed baseline:
/// the gateway-wide counter set, every tenant's counters and per-stage
/// attribution, and every model's generation/swap accounting are
/// deterministic under the seeded burst and must match exactly; the
/// FLOP totals get the same `tol` relative bound as the training gate.
pub fn compare_serve(base: &Json, fresh: &Json, tol: f64) -> Vec<String> {
    let mut out = Vec::new();
    check_workload(base, fresh, &mut out, "BENCH_serve");
    match base.get("counters") {
        Some(bc) => {
            compare_counter_obj(bc, fresh.get("counters"), "BENCH_serve/counters", &mut out)
        }
        None => out.push("BENCH_serve: counters section missing".to_string()),
    }
    for section in ["tenants", "models"] {
        let (Some(bs), fs) = (base.get(section), fresh.get(section)) else {
            out.push(format!("BENCH_serve: {section} section missing"));
            continue;
        };
        let Some(base_entries) = bs.as_obj() else {
            out.push(format!("BENCH_serve: {section} is not an object"));
            continue;
        };
        for (name, bv) in base_entries {
            compare_counter_obj(
                bv,
                fs.and_then(|f| f.get(name)),
                &format!("BENCH_serve/{section}.{name}"),
                &mut out,
            );
        }
        let fresh_len = fs.and_then(Json::as_obj).map_or(0, <[_]>::len);
        if fresh_len != base_entries.len() {
            out.push(format!(
                "BENCH_serve: {section} entry count changed ({} -> {fresh_len})",
                base_entries.len()
            ));
        }
    }
    for field in ["flops_actual", "flops_exact"] {
        let (Some(bv), Some(fv)) = (field_f64(base, &[field]), field_f64(fresh, &[field])) else {
            out.push(format!("BENCH_serve: `{field}` missing"));
            continue;
        };
        let diff = rel_diff(bv, fv);
        if diff > tol {
            out.push(format!(
                "BENCH_serve: `{field}` drifted {:.1}% (baseline {bv}, fresh {fv}, \
                 tolerance {:.0}%)",
                diff * 100.0,
                tol * 100.0
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn train_bench_emits_a_schema_valid_document() {
        let doc = run_train_bench(&BenchConfig::quick());
        adr_obs::bench::validate(&doc).unwrap();
        // Round-trip through bytes, as CI does.
        let reparsed = Json::parse(&doc.render_pretty()).unwrap();
        adr_obs::bench::validate(&reparsed).unwrap();
    }

    /// Tier-1 flake pin: the serve benches used to share one artifact path
    /// per process, so two running at once deleted each other's checkpoint
    /// mid-run. Both start behind one barrier and must complete with the
    /// same deterministic counters.
    #[test]
    fn serve_benches_running_concurrently_do_not_share_an_artifact() {
        let barrier = std::sync::Barrier::new(2);
        let run = || {
            barrier.wait();
            run_serve_bench(&BenchConfig::quick())
        };
        let (a, b) = std::thread::scope(|scope| {
            let other = scope.spawn(run);
            (run(), other.join().expect("concurrent serve bench panicked"))
        });
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(
            a.get("counters").unwrap().render_pretty(),
            b.get("counters").unwrap().render_pretty()
        );
    }

    #[test]
    fn serve_bench_emits_a_schema_valid_document() {
        let doc = run_serve_bench(&BenchConfig::quick()).unwrap();
        adr_obs::bench::validate(&doc).unwrap();
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

    fn train_doc(hash_ns: u64, flops_actual: u64) -> Json {
        Json::parse(&format!(
            r#"{{
              "workload": {{"model": "cifarnet", "classes": 4, "batch": 4, "steps": 2,
                            "seed": 42, "quick": true}},
              "layers": [{{
                "layer": "conv1",
                "wall_ns": {{"im2col": 100, "hash": {hash_ns}, "cluster": 100,
                             "centroid_gemm": 200, "scatter": 100,
                             "total": {total}}},
                "flops_actual": {flops_actual}, "flops_exact": 29491200,
                "rc": 0.148, "reuse_rate": 0.0
              }}]
            }}"#,
            total = 500 + hash_ns,
        ))
        .unwrap()
    }

    #[test]
    fn identical_train_documents_compare_clean() {
        let base = train_doc(500, 8_238_720);
        assert_eq!(compare_train(&base, &base, 0.15), Vec::<String>::new());
    }

    #[test]
    fn train_wall_share_and_flop_drift_are_caught() {
        let base = train_doc(500, 8_238_720);
        // hash goes from 50% of the layer to ~86%: a share regression.
        let slow_hash = train_doc(3000, 8_238_720);
        let violations = compare_train(&base, &slow_hash, 0.15);
        assert!(violations.iter().any(|v| v.contains("`hash` wall-time share")), "{violations:#?}");
        // FLOP attribution is seeded-deterministic: +30% actual FLOPs fails.
        let more_flops = train_doc(500, 10_710_336);
        let violations = compare_train(&base, &more_flops, 0.15);
        assert!(violations.iter().any(|v| v.contains("`flops_actual` drifted")), "{violations:#?}");
        // Both drifts pass under a looser tolerance.
        assert!(compare_train(&base, &more_flops, 0.5).is_empty());
    }

    #[test]
    fn train_workload_mismatch_is_a_violation() {
        let base = train_doc(500, 8_238_720);
        let mut other = train_doc(500, 8_238_720);
        let Json::Obj(top) = &mut other else { panic!() };
        top.iter_mut().find(|(k, _)| k == "workload").unwrap().1 = Json::Obj(vec![
            ("model".into(), Json::Str("cifarnet".into())),
            ("seed".into(), Json::Uint(7)),
        ]);
        let violations = compare_train(&base, &other, 0.15);
        assert!(violations.iter().any(|v| v.contains("workload mismatch")), "{violations:#?}");
    }

    #[test]
    fn serve_counter_changes_are_exact_failures() {
        let base = run_serve_bench(&BenchConfig::quick()).unwrap();
        assert_eq!(compare_serve(&base, &base, 0.15), Vec::<String>::new());
        let mut fresh = run_serve_bench(&BenchConfig::quick()).unwrap();
        let Json::Obj(top) = &mut fresh else { panic!() };
        let Json::Obj(counters) = &mut top.iter_mut().find(|(k, _)| k == "counters").unwrap().1
        else {
            panic!()
        };
        counters.iter_mut().find(|(k, _)| k == "deadline_missed").unwrap().1 = Json::Uint(3);
        let violations = compare_serve(&base, &fresh, 0.15);
        assert!(
            violations.iter().any(|v| v.contains("`deadline_missed` changed")),
            "{violations:#?}"
        );
    }

    #[test]
    fn serve_tenant_and_model_drift_are_exact_failures() {
        let base = run_serve_bench(&BenchConfig::quick()).unwrap();
        // A tenant's stage attribution shifting is a violation even when
        // the gateway-wide totals happen to stay put.
        let mut fresh = run_serve_bench(&BenchConfig::quick()).unwrap();
        let Json::Obj(top) = &mut fresh else { panic!() };
        let Json::Obj(tenants) = &mut top.iter_mut().find(|(k, _)| k == "tenants").unwrap().1
        else {
            panic!()
        };
        let Json::Obj(steady) = &mut tenants.iter_mut().find(|(k, _)| k == "steady").unwrap().1
        else {
            panic!()
        };
        steady.iter_mut().find(|(k, _)| k == "requests_per_stage").unwrap().1 =
            Json::Arr(vec![Json::Uint(0), Json::Uint(4)]);
        let violations = compare_serve(&base, &fresh, 0.15);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("tenants.steady") && v.contains("requests_per_stage")),
            "{violations:#?}"
        );

        // A silent extra swap shows up through the model section.
        let mut fresh = run_serve_bench(&BenchConfig::quick()).unwrap();
        let Json::Obj(top) = &mut fresh else { panic!() };
        let Json::Obj(models) = &mut top.iter_mut().find(|(k, _)| k == "models").unwrap().1 else {
            panic!()
        };
        let Json::Obj(model) = &mut models.iter_mut().find(|(k, _)| k == "cifarnet").unwrap().1
        else {
            panic!()
        };
        model.iter_mut().find(|(k, _)| k == "generation").unwrap().1 = Json::Uint(2);
        let violations = compare_serve(&base, &fresh, 0.15);
        assert!(
            violations.iter().any(|v| v.contains("models.cifarnet") && v.contains("generation")),
            "{violations:#?}"
        );
    }
}
