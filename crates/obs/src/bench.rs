//! The BENCH file schema and its validator.
//!
//! `adr bench` emits two machine-readable perf snapshots per run —
//! `BENCH_train.json` (the step-profile workload) and `BENCH_serve.json`
//! (the serving workload) — so successive PRs accumulate a regression
//! trajectory. CI re-parses the emitted files with [`validate`] and fails
//! the build when the schema drifts; the format itself is documented in
//! DESIGN.md §11.
//!
//! Wall-clock fields (`*_wall_ns`) vary run to run; every other field is
//! deterministic for a fixed seed.

use crate::json::Json;

/// Schema tag of the training BENCH file.
pub const TRAIN_SCHEMA: &str = "adr-bench-train/v1";
/// Schema tag of the serving BENCH file. `v2` switched the workload from a
/// single engine to the multi-tenant gateway: gateway-wide totals plus
/// per-tenant and per-model attribution sections.
pub const SERVE_SCHEMA: &str = "adr-bench-serve/v2";

/// Gateway-wide counter names every serving BENCH file must carry (the
/// admission and batch totals of `ServeReport::counters()`, which also
/// emits the ladder and sanitizer totals).
pub const SERVE_COUNTER_NAMES: [&str; 9] = [
    "admitted",
    "completed",
    "rejected_shape",
    "rejected_non_finite",
    "shed_overloaded",
    "rate_limited",
    "deadline_missed",
    "failed_non_finite",
    "batches",
];

/// Per-tenant counter names every entry of the `tenants` section must
/// carry (mirrors `TenantCounters`, minus the `requests_per_stage` array
/// which is validated separately).
pub const SERVE_TENANT_COUNTER_NAMES: [&str; 8] = [
    "admitted",
    "completed",
    "rejected_shape",
    "rejected_non_finite",
    "shed_overloaded",
    "rate_limited",
    "deadline_missed",
    "failed_non_finite",
];

/// Per-model counter names every entry of the `models` section must carry
/// (mirrors `ModelCounters`).
pub const SERVE_MODEL_COUNTER_NAMES: [&str; 6] = [
    "batches",
    "generation",
    "swaps_completed",
    "swaps_rolled_back",
    "flops_actual",
    "flops_exact",
];

/// Phase keys every per-layer `wall_ns` object must carry.
pub const PHASE_KEYS: [&str; 5] = ["im2col", "hash", "cluster", "centroid_gemm", "scatter"];

/// Validates a parsed BENCH document against whichever schema its `schema`
/// field names.
///
/// # Errors
///
/// Returns a path-qualified message describing the first violation.
pub fn validate(doc: &Json) -> Result<(), String> {
    let schema =
        doc.get("schema").and_then(Json::as_str).ok_or("missing or non-string \"schema\" field")?;
    match schema {
        TRAIN_SCHEMA => validate_train(doc),
        SERVE_SCHEMA => validate_serve(doc),
        other => Err(format!("unknown schema tag {other:?}")),
    }
}

fn require_uint(doc: &Json, path: &str, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{path}.{key}: missing or not an unsigned integer"))
}

fn require_num(doc: &Json, path: &str, key: &str) -> Result<f64, String> {
    let n = doc
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{path}.{key}: missing or not a number"))?;
    if !n.is_finite() {
        return Err(format!("{path}.{key}: not finite"));
    }
    Ok(n)
}

fn require_str<'a>(doc: &'a Json, path: &str, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}.{key}: missing or not a string"))
}

fn require_obj<'a>(doc: &'a Json, path: &str, key: &str) -> Result<&'a Json, String> {
    let v = doc.get(key).ok_or_else(|| format!("{path}.{key}: missing"))?;
    if v.as_obj().is_none() {
        return Err(format!("{path}.{key}: not an object"));
    }
    Ok(v)
}

fn validate_workload(doc: &Json) -> Result<(), String> {
    let workload = require_obj(doc, "$", "workload")?;
    require_str(workload, "workload", "model")?;
    require_uint(workload, "workload", "seed")?;
    Ok(())
}

fn validate_train(doc: &Json) -> Result<(), String> {
    validate_workload(doc)?;
    let workload = require_obj(doc, "$", "workload")?;
    require_uint(workload, "workload", "batch")?;
    require_uint(workload, "workload", "steps")?;

    let layers =
        doc.get("layers").and_then(Json::as_arr).ok_or("$.layers: missing or not an array")?;
    if layers.is_empty() {
        return Err("$.layers: empty — the step profile must cover at least one reuse layer".into());
    }
    for (i, layer) in layers.iter().enumerate() {
        let path = format!("layers[{i}]");
        require_str(layer, &path, "layer")?;
        let wall = require_obj(layer, &path, "wall_ns")?;
        for phase in PHASE_KEYS {
            require_uint(wall, &format!("{path}.wall_ns"), phase)?;
        }
        require_uint(wall, &format!("{path}.wall_ns"), "total")?;
        require_uint(layer, &path, "flops_actual")?;
        require_uint(layer, &path, "flops_exact")?;
        require_num(layer, &path, "rc")?;
        require_num(layer, &path, "clusters_avg")?;
        require_num(layer, &path, "reuse_rate")?;
        require_num(layer, &path, "modelled_cost")?;
        require_num(layer, &path, "measured_cost")?;
    }

    let totals = require_obj(doc, "$", "totals")?;
    require_uint(totals, "totals", "wall_ns")?;
    require_uint(totals, "totals", "flops_actual")?;
    require_uint(totals, "totals", "flops_exact")?;
    require_num(totals, "totals", "flop_savings")?;
    require_num(totals, "totals", "loss_final")?;
    require_num(totals, "totals", "null_sink_overhead_pct")?;
    Ok(())
}

fn validate_serve(doc: &Json) -> Result<(), String> {
    validate_workload(doc)?;
    let workload = require_obj(doc, "$", "workload")?;
    require_uint(workload, "workload", "requests")?;

    let counters = require_obj(doc, "$", "counters")?;
    for name in SERVE_COUNTER_NAMES {
        require_uint(counters, "counters", name)?;
    }

    // Per-tenant attribution: at least one tenant, each carrying the full
    // counter set and its own per-stage request histogram.
    let tenants = require_obj(doc, "$", "tenants")?;
    let tenant_pairs = tenants.as_obj().unwrap_or_default();
    if tenant_pairs.is_empty() {
        return Err("$.tenants: empty — the gateway burst must cover at least one tenant".into());
    }
    for (tenant, entry) in tenant_pairs {
        let path = format!("tenants.{tenant}");
        for name in SERVE_TENANT_COUNTER_NAMES {
            require_uint(entry, &path, name)?;
        }
        let stages = entry
            .get("requests_per_stage")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("$.{path}.requests_per_stage: missing or not an array"))?;
        for (i, v) in stages.iter().enumerate() {
            if v.as_u64().is_none() {
                return Err(format!("$.{path}.requests_per_stage[{i}]: not an unsigned integer"));
            }
        }
    }

    // Per-model attribution: at least one model, each with generation and
    // swap accounting.
    let models = require_obj(doc, "$", "models")?;
    let model_pairs = models.as_obj().unwrap_or_default();
    if model_pairs.is_empty() {
        return Err("$.models: empty — the gateway burst must cover at least one model".into());
    }
    for (model, entry) in model_pairs {
        let path = format!("models.{model}");
        for name in SERVE_MODEL_COUNTER_NAMES {
            require_uint(entry, &path, name)?;
        }
    }

    let latency = doc
        .get("latency_bucket_counts")
        .and_then(Json::as_arr)
        .ok_or("$.latency_bucket_counts: missing or not an array")?;
    if latency.len() != 11 {
        return Err(format!(
            "$.latency_bucket_counts: expected 11 buckets (10 bounds + overflow), got {}",
            latency.len()
        ));
    }
    require_uint(doc, "$", "flops_actual")?;
    require_uint(doc, "$", "flops_exact")?;
    require_num(doc, "$", "flop_savings")?;
    require_uint(doc, "$", "wall_ns")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    fn minimal_train() -> Json {
        let wall = obj(vec![
            ("im2col", Json::Uint(1)),
            ("hash", Json::Uint(2)),
            ("cluster", Json::Uint(3)),
            ("centroid_gemm", Json::Uint(4)),
            ("scatter", Json::Uint(5)),
            ("total", Json::Uint(15)),
        ]);
        let layer = obj(vec![
            ("layer", Json::Str("conv1".into())),
            ("wall_ns", wall),
            ("flops_actual", Json::Uint(100)),
            ("flops_exact", Json::Uint(400)),
            ("rc", Json::Num(0.25)),
            ("clusters_avg", Json::Num(12.0)),
            ("reuse_rate", Json::Num(0.0)),
            ("modelled_cost", Json::Num(0.4)),
            ("measured_cost", Json::Num(0.25)),
        ]);
        obj(vec![
            ("schema", Json::Str(TRAIN_SCHEMA.into())),
            (
                "workload",
                obj(vec![
                    ("model", Json::Str("cifarnet".into())),
                    ("batch", Json::Uint(8)),
                    ("steps", Json::Uint(3)),
                    ("seed", Json::Uint(42)),
                ]),
            ),
            ("layers", Json::Arr(vec![layer])),
            (
                "totals",
                obj(vec![
                    ("wall_ns", Json::Uint(99)),
                    ("flops_actual", Json::Uint(100)),
                    ("flops_exact", Json::Uint(400)),
                    ("flop_savings", Json::Num(0.75)),
                    ("loss_final", Json::Num(1.2)),
                    ("null_sink_overhead_pct", Json::Num(0.3)),
                ]),
            ),
        ])
    }

    #[test]
    fn accepts_a_minimal_train_document() {
        validate(&minimal_train()).unwrap();
    }

    #[test]
    fn rejects_unknown_schema_and_missing_fields() {
        assert!(validate(&obj(vec![("schema", Json::Str("nope/v9".into()))])).is_err());
        let mut doc = minimal_train();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "totals");
        }
        let err = validate(&doc).unwrap_err();
        assert!(err.contains("totals"), "{err}");
    }

    #[test]
    fn rejects_a_layer_missing_a_phase() {
        let mut doc = minimal_train();
        if let Json::Obj(pairs) = &mut doc {
            if let Some((_, Json::Arr(layers))) = pairs.iter_mut().find(|(k, _)| k == "layers") {
                if let Json::Obj(layer) = &mut layers[0] {
                    if let Some((_, Json::Obj(wall))) =
                        layer.iter_mut().find(|(k, _)| k == "wall_ns")
                    {
                        wall.retain(|(k, _)| k != "hash");
                    }
                }
            }
        }
        let err = validate(&doc).unwrap_err();
        assert!(err.contains("hash"), "{err}");
    }

    fn minimal_serve() -> Json {
        let counters = obj(SERVE_COUNTER_NAMES.iter().map(|&n| (n, Json::Uint(0))).collect());
        let tenant = {
            let mut pairs: Vec<(&str, Json)> =
                SERVE_TENANT_COUNTER_NAMES.iter().map(|&n| (n, Json::Uint(0))).collect();
            pairs.push(("requests_per_stage", Json::Arr(vec![Json::Uint(12)])));
            obj(pairs)
        };
        let model = obj(SERVE_MODEL_COUNTER_NAMES.iter().map(|&n| (n, Json::Uint(0))).collect());
        obj(vec![
            ("schema", Json::Str(SERVE_SCHEMA.into())),
            (
                "workload",
                obj(vec![
                    ("model", Json::Str("cifarnet".into())),
                    ("requests", Json::Uint(12)),
                    ("seed", Json::Uint(42)),
                ]),
            ),
            ("counters", counters),
            ("tenants", obj(vec![("steady", tenant)])),
            ("models", obj(vec![("cifarnet", model)])),
            ("latency_bucket_counts", Json::Arr((0..11).map(|_| Json::Uint(0)).collect())),
            ("flops_actual", Json::Uint(10)),
            ("flops_exact", Json::Uint(10)),
            ("flop_savings", Json::Num(0.0)),
            ("wall_ns", Json::Uint(1)),
        ])
    }

    #[test]
    fn serve_document_requires_all_gateway_counters() {
        let doc = minimal_serve();
        validate(&doc).unwrap();

        let mut broken = doc.clone();
        if let Json::Obj(pairs) = &mut broken {
            if let Some((_, Json::Obj(counters))) = pairs.iter_mut().find(|(k, _)| k == "counters")
            {
                counters.retain(|(k, _)| k != "batches");
            }
        }
        let err = validate(&broken).unwrap_err();
        assert!(err.contains("batches"), "{err}");
    }

    #[test]
    fn serve_document_requires_tenant_and_model_attribution() {
        // An empty tenants section is a violation, not a degenerate pass.
        let mut no_tenants = minimal_serve();
        if let Json::Obj(pairs) = &mut no_tenants {
            pairs.iter_mut().find(|(k, _)| k == "tenants").unwrap().1 = Json::Obj(vec![]);
        }
        let err = validate(&no_tenants).unwrap_err();
        assert!(err.contains("tenants"), "{err}");

        // A tenant missing its rate_limited counter names the exact path.
        let mut broken = minimal_serve();
        if let Json::Obj(pairs) = &mut broken {
            if let Some((_, Json::Obj(tenants))) = pairs.iter_mut().find(|(k, _)| k == "tenants") {
                if let Some((_, Json::Obj(entry))) = tenants.first_mut() {
                    entry.retain(|(k, _)| k != "rate_limited");
                }
            }
        }
        let err = validate(&broken).unwrap_err();
        assert!(err.contains("tenants.steady.rate_limited"), "{err}");

        // A model missing its generation counter is equally typed.
        let mut broken = minimal_serve();
        if let Json::Obj(pairs) = &mut broken {
            if let Some((_, Json::Obj(models))) = pairs.iter_mut().find(|(k, _)| k == "models") {
                if let Some((_, Json::Obj(entry))) = models.first_mut() {
                    entry.retain(|(k, _)| k != "generation");
                }
            }
        }
        let err = validate(&broken).unwrap_err();
        assert!(err.contains("models.cifarnet.generation"), "{err}");
    }
}
