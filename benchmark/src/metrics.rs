//! The metric tables. `BENCHMARK.json` at the repository root declares the
//! same names, units, directions and bounds; a test keeps the two in step.
//!
//! Every workload prints every metric of the table its run mode selects
//! (`--trace 0`: end-to-end, `--trace 1`: per-layer). A per-layer metric
//! reads 0 on a workload where its layer does no work.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: None }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher, bound: None }
}

/// What a user of the system sees, measured with tracing off. Each is
/// defined on all six workloads (see README.md for the per-workload meaning
/// of a "step" and a "sample"); timings are at nominal host speed. Bounds
/// are three times the quartile spread seen over ten seeds on a crowded
/// host, capped at the contract's 0.25.
pub const END_TO_END: &[MetricDef] = &[
    e2e("step_ms", "ms", Better::Lower, 0.25),
    e2e("samples_per_s", "img/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.1),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Single-layer metrics from the traced run, grouped by workspace crate.
pub const PER_LAYER: &[MetricDef] = &[
    // tensor: direct kernel calls on the workload's largest convolution.
    lower("tensor.gemm_ms_p50", "ms"),
    higher("tensor.gemm_gflops", "GFLOP/s"),
    lower("tensor.gemm_ta_ms_p50", "ms"),
    lower("tensor.gemm_tb_ms_p50", "ms"),
    lower("tensor.im2col_ms_p50", "ms"),
    lower("tensor.col2im_ms_p50", "ms"),
    // nn: spans around dense layers, loss and optimizer; training outcome.
    lower("nn.conv_fwd_ms", "ms"),
    lower("nn.conv_bwd_ms", "ms"),
    lower("nn.other_fwd_ms", "ms"),
    lower("nn.other_bwd_ms", "ms"),
    lower("nn.loss_ms", "ms"),
    lower("nn.sgd_ms", "ms"),
    lower("nn.step_ms_p50", "ms"),
    lower("nn.step_ms_p90", "ms"),
    higher("nn.probe_acc", "frac"),
    lower("nn.loss_last20", "nats"),
    lower("nn.loss_checksum", "hash"),
    lower("nn.checkpoint_save_ms", "ms"),
    lower("nn.checkpoint_bytes", "B"),
    // reuse: spans around reuse layers, the program's own phase timers, and
    // exact work counts.
    lower("reuse.conv_fwd_ms", "ms"),
    lower("reuse.conv_bwd_ms", "ms"),
    lower("reuse.im2col_ms", "ms"),
    lower("reuse.hash_ms", "ms"),
    lower("reuse.cluster_ms", "ms"),
    lower("reuse.centroid_gemm_ms", "ms"),
    lower("reuse.scatter_ms", "ms"),
    lower("reuse.hash_all_ms_p50", "ms"),
    lower("reuse.rc_mean", "frac"),
    lower("reuse.clusters_mean", "count"),
    higher("reuse.cr_hit_rate", "frac"),
    higher("reuse.flop_savings", "frac"),
    // clustering: direct calls on the same convolution's signatures.
    lower("clustering.group_ms_p50", "ms"),
    lower("clustering.centroids_ms_p50", "ms"),
    lower("clustering.scatter_add_ms_p50", "ms"),
    // core: the adaptive controller's trajectory against its dense twin.
    lower("core.time_to_acc_s", "s"),
    lower("core.steps_to_acc", "count"),
    lower("core.switches", "count"),
    lower("core.probe_eval_ms_p50", "ms"),
    higher("core.final_accuracy", "frac"),
    lower("core.dense_time_to_acc_s", "s"),
    lower("core.tta_ratio_vs_dense", "ratio"),
    // data and models: the parts of set-up.
    lower("data.generate_s", "s"),
    lower("data.batch_ms_p50", "ms"),
    lower("models.build_ms", "ms"),
    lower("models.param_count", "count"),
    // serve: closed loops, open loops at two fixed rates, swap, admission.
    higher("serve.capacity_rps", "req/s"),
    lower("serve.batch_ms_p50", "ms"),
    lower("serve.batch_ms_p95", "ms"),
    lower("serve.req_ms_p50", "ms"),
    lower("serve.req_ms_p99", "ms"),
    lower("serve.submit_us_p50", "us"),
    lower("serve.register_ms", "ms"),
    lower("serve.swap_ms", "ms"),
    lower("serve.rejected_expected", "count"),
    higher("serve.agree_frac", "frac"),
    lower("serve.flops_actual_over_exact", "ratio"),
    higher("serve.capacity_rps_mt", "req/s"),
    lower("serve.open_lo_lat_ms_p50", "ms"),
    lower("serve.open_lo_lat_ms_p95", "ms"),
    lower("serve.open_hi_lat_ms_p50", "ms"),
    lower("serve.open_hi_lat_ms_p95", "ms"),
    lower("serve.open_queue_wait_ms_p50", "ms"),
    higher("serve.open_batch_size_mean", "count"),
    lower("serve.open_late_ms_max", "ms"),
    higher("serve.open_within_50ms_frac", "frac"),
    // obs: what measuring costs, and what the spans failed to attribute.
    lower("obs.recorder_overhead_pct", "%"),
    lower("obs.trace_overhead_pct", "%"),
    lower("obs.unattributed_pct", "%"),
    lower("obs.host_factor", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use adaptive_deep_reuse::obs::Json;

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (text("name"), text("unit"), text("better"), m.get("bound").and_then(Json::as_f64))
            })
            .collect()
    }

    fn table(defs: &[MetricDef]) -> Vec<(String, String, String, Option<f64>)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into(), d.bound))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(declared(&doc, "end_to_end"), table(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), table(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }
}
