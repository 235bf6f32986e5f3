//! The [`Recorder`]: the one store instrumented code records into, once
//! installed with [`crate::install`].
//!
//! Determinism contract: every *value* metric (counters and gauges) a
//! `Recorder` collects is bitwise-reproducible across two identical seeded
//! runs, because the instrumented code records them in program order on one
//! thread. Wall-clock *timing* metrics are stored in a separate map and are
//! explicitly excluded from the deterministic export
//! ([`Recorder::to_json_lines`] with `include_timing = false`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// Accumulated wall time of one span key.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimeStat {
    /// Number of span completions.
    pub count: u64,
    /// Total elapsed nanoseconds.
    pub total_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
}

#[derive(Default)]
struct RecorderState {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    times: BTreeMap<String, TimeStat>,
}

/// The telemetry store: counters, gauges and span times, each under a
/// `name{label="value",…}` key. Cloning produces a handle to the same underlying store,
/// so the caller can keep one handle for export while the clone is
/// installed.
///
/// Single-threaded by design (`Rc` + `RefCell`): instrumentation runs on the
/// orchestration thread only — never inside scoped compute workers — which
/// is also what makes the recorded values deterministic.
#[derive(Clone, Default)]
pub struct Recorder {
    state: Rc<RefCell<RecorderState>>,
}

/// Canonical metric key: `name{k1="v1",k2="v2"}`, or just `name` without
/// labels. Label order is the caller's order, which instrumented code keeps
/// fixed.
fn metric_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut key = String::with_capacity(name.len() + 16 * labels.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{k}=\"{v}\"");
    }
    key.push('}');
    key
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut RecorderState) -> R) -> Option<R> {
        // try_borrow_mut: recording must never panic, even if a re-entrant
        // record happens while an export borrow is live.
        self.state.try_borrow_mut().ok().map(|mut s| f(&mut s))
    }

    /// Adds `delta` to a monotonic counter.
    pub(crate) fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let key = metric_key(name, labels);
        self.with_state(|s| *s.counters.entry(key).or_insert(0) += delta);
    }

    /// Sets a gauge to its latest value.
    pub(crate) fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let key = metric_key(name, labels);
        self.with_state(|s| {
            s.gauges.insert(key, value);
        });
    }

    /// Adds one span's elapsed wall time to its key's [`TimeStat`].
    pub(crate) fn time_ns(&self, name: &str, labels: &[(&str, &str)], nanos: u64) {
        let key = metric_key(name, labels);
        self.with_state(|s| {
            let stat = s.times.entry(key).or_default();
            stat.count += 1;
            stat.total_ns += nanos;
            stat.max_ns = stat.max_ns.max(nanos);
        });
    }

    /// Current value of a counter, if it was ever touched.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = metric_key(name, labels);
        self.state.try_borrow().ok().and_then(|s| s.counters.get(&key).copied())
    }

    /// Latest value of a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let key = metric_key(name, labels);
        self.state.try_borrow().ok().and_then(|s| s.gauges.get(&key).copied())
    }

    /// Accumulated wall time of a span key.
    pub fn time(&self, name: &str, labels: &[(&str, &str)]) -> Option<TimeStat> {
        let key = metric_key(name, labels);
        self.state.try_borrow().ok().and_then(|s| s.times.get(&key).copied())
    }

    /// All counters as sorted `(key, value)` pairs.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.state
            .try_borrow()
            .map(|s| s.counters.iter().map(|(k, v)| (k.clone(), *v)).collect())
            .unwrap_or_default()
    }

    /// All accumulated span times as sorted `(key, stat)` pairs.
    pub fn times(&self) -> Vec<(String, TimeStat)> {
        self.state
            .try_borrow()
            .map(|s| s.times.iter().map(|(k, v)| (k.clone(), *v)).collect())
            .unwrap_or_default()
    }

    /// JSON-lines export: one compact JSON object per line, keys sorted
    /// (BTreeMap order). With `include_timing = false` the output contains
    /// only value metrics and is bitwise-identical across two identical
    /// seeded runs — that string is what the determinism suite pins.
    pub fn to_json_lines(&self, include_timing: bool) -> String {
        use crate::json::Json;
        let mut out = String::new();
        let Ok(state) = self.state.try_borrow() else {
            return out;
        };
        for (key, value) in &state.counters {
            let line = Json::Obj(vec![
                ("kind".to_string(), Json::Str("counter".to_string())),
                ("key".to_string(), Json::Str(key.clone())),
                ("value".to_string(), Json::Uint(*value)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        for (key, value) in &state.gauges {
            let line = Json::Obj(vec![
                ("kind".to_string(), Json::Str("gauge".to_string())),
                ("key".to_string(), Json::Str(key.clone())),
                ("value".to_string(), Json::Num(*value)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        if include_timing {
            for (key, stat) in &state.times {
                let line = Json::Obj(vec![
                    ("kind".to_string(), Json::Str("time".to_string())),
                    ("key".to_string(), Json::Str(key.clone())),
                    ("count".to_string(), Json::Uint(stat.count)),
                    ("total_ns".to_string(), Json::Uint(stat.total_ns)),
                    ("max_ns".to_string(), Json::Uint(stat.max_ns)),
                ]);
                out.push_str(&line.render());
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn recorder_accumulates_counters_and_times() {
        let rec = Recorder::new();
        rec.counter_add("steps", &[], 1);
        rec.counter_add("steps", &[], 2);
        rec.time_ns("phase_ns", &[("phase", "hash")], 100);
        rec.time_ns("phase_ns", &[("phase", "hash")], 50);
        assert_eq!(rec.counter("steps", &[]), Some(3));
        let stat = rec.time("phase_ns", &[("phase", "hash")]).unwrap();
        assert_eq!(stat.count, 2);
        assert_eq!(stat.total_ns, 150);
        assert_eq!(stat.max_ns, 100);
    }

    #[test]
    fn clones_share_the_same_store() {
        let rec = Recorder::new();
        let handle = rec.clone();
        handle.gauge_set("loss", &[], 0.5);
        assert_eq!(rec.gauge("loss", &[]), Some(0.5));
    }

    #[test]
    fn json_lines_excludes_timing_when_asked() {
        let rec = Recorder::new();
        rec.counter_add("steps", &[("layer", "conv1")], 4);
        rec.time_ns("phase_ns", &[], 999);
        let without = rec.to_json_lines(false);
        // Key quotes are JSON-escaped inside the line's string value.
        assert!(without.contains("steps{layer=\\\"conv1\\\"}"));
        assert!(!without.contains("phase_ns"));
        let with = rec.to_json_lines(true);
        assert!(with.contains("phase_ns"));
        assert!(with.contains("\"total_ns\":999"));
    }

    #[test]
    fn metric_keys_are_canonical() {
        assert_eq!(metric_key("steps", &[]), "steps");
        assert_eq!(
            metric_key("rc", &[("layer", "conv1"), ("phase", "hash")]),
            "rc{layer=\"conv1\",phase=\"hash\"}"
        );
    }
}
