//! What one run produced: named metrics, operations attempted and failed,
//! correctness checks, and the lines a person reads.

use std::collections::BTreeMap;

use adaptive_deep_reuse::obs::Json;

use crate::metrics::MetricDef;

#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: training steps, seeds trained to the target, or
    /// well-formed requests, depending on the workload.
    pub attempted: u64,
    /// Operations that failed, plus one per failed correctness check.
    pub failed: u64,
    /// `(name, passed, detail)` of every correctness check that ran.
    pub checks: Vec<(String, bool, String)>,
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable context printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        // Adding zero turns the -0.0 of an empty sum into 0.0.
        self.metrics.insert(name.to_string(), value + 0.0);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a correctness check; a failed one is a failed operation and
    /// turns the exit status non-zero.
    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        if !passed {
            self.failed += 1;
        }
        self.checks.push((name.to_string(), passed, detail));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, passed, _)| *passed)
    }

    /// The result line of the driver's contract: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, the latter holding every metric
    /// of `defs` in table order. A per-layer metric the workload never set is
    /// 0: that layer did no work on this workload.
    ///
    /// # Errors
    /// A metric outside `defs`, or a missing bounded metric, is a bug in the
    /// benchmark and is reported instead of being printed.
    pub fn result_line(&self, defs: &[MetricDef]) -> Result<String, String> {
        if let Some(stray) = self.metrics.keys().find(|k| defs.iter().all(|d| d.name != *k)) {
            return Err(format!("metric `{stray}` is not declared in the metric table"));
        }
        let mut metrics = Vec::with_capacity(defs.len());
        for def in defs {
            let value = match (self.metrics.get(def.name), def.bound) {
                (Some(v), _) => *v,
                (None, None) => 0.0,
                (None, Some(_)) => return Err(format!("end-to-end metric `{}` not set", def.name)),
            };
            if !value.is_finite() {
                return Err(format!("metric `{}` is not finite", def.name));
            }
            let entry = Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(def.unit.into())),
            ]);
            metrics.push((def.name.to_string(), entry));
        }
        Ok(Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Uint(self.attempted.max(1))),
            ("failed".into(), Json::Uint(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Better;

    const DEFS: [MetricDef; 2] = [
        MetricDef { name: "step_ms", unit: "ms", better: Better::Lower, bound: Some(0.05) },
        MetricDef { name: "reuse.hash_ms", unit: "ms", better: Better::Lower, bound: None },
    ];

    #[test]
    fn result_line_has_exactly_the_contract_keys_in_table_order() {
        let mut out = Outcome { attempted: 200, ..Outcome::default() };
        out.set("step_ms", 66.25);
        let line = out.result_line(&DEFS).unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":200,\"failed\":0,\"metrics\":{\
             \"step_ms\":{\"value\":66.25,\"unit\":\"ms\"},\
             \"reuse.hash_ms\":{\"value\":0.0,\"unit\":\"ms\"}}}"
        );
        assert!(Json::parse(&line).is_ok());
    }

    #[test]
    fn failed_check_counts_as_a_failed_operation() {
        let mut out = Outcome { attempted: 10, ..Outcome::default() };
        out.set("step_ms", 1.0);
        out.check("probe accuracy", false, "0.5 < 0.9".into());
        assert!(!out.correct());
        let parsed = Json::parse(&out.result_line(&DEFS).unwrap()).unwrap();
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(parsed.get("failed").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn undeclared_and_missing_metrics_are_errors() {
        let mut out = Outcome::default();
        assert!(out.result_line(&DEFS).unwrap_err().contains("step_ms"));
        out.set("step_ms", 1.0);
        out.set("typo_ms", 1.0);
        assert!(out.result_line(&DEFS).unwrap_err().contains("typo_ms"));
    }
}
