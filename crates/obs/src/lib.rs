//! # adr-obs — deterministic telemetry for Adaptive Deep Reuse
//!
//! A zero-dependency observability layer threaded through the trainer, the
//! reuse convolution, and the serving engine (DESIGN.md §11):
//!
//! * [`span`] — scoped wall-time spans with the per-layer/per-phase
//!   taxonomy (im2col, hash, cluster, centroid-GEMM, scatter).
//! * [`sink`] — the [`MetricSink`] trait, the no-op [`NullSink`], and the
//!   collecting [`Recorder`] (counters / gauges / histograms / span times),
//!   which renders Prometheus text and JSON-lines run logs.
//! * [`export`] — JSON documents written through `adr_nn::durable`'s
//!   atomic writer.
//! * [`json`] — the byte-deterministic JSON value the exporters and the
//!   golden `BENCH_*.json` counter documents render through.
//!
//! ## Install model
//!
//! The active sink is a **thread-local**: [`install`] swaps a sink in and
//! returns a guard that restores the previous one on drop. Instrumented
//! library code calls the free functions ([`counter_add`], [`gauge_set`],
//! [`span_phase`], ...) which no-op when nothing is installed — that is the
//! compiled-in `NullSink` behaviour and costs one TLS check per call.
//! Thread-local (rather than global) scoping keeps parallel test runs from
//! polluting each other's recorders, and matches the invariant that all
//! instrumentation runs on the orchestration thread, never inside scoped
//! compute workers.
//!
//! ## Determinism contract
//!
//! Exported *values* (counters, FLOPs, ratios) are bitwise-identical across
//! two identical seeded runs; wall times are segregated as timing metrics
//! and excluded from [`Recorder::to_json_lines`]`(false)`. Pinned in
//! `tests/determinism.rs`.

#![warn(missing_docs)]
// Tests assert on values they just constructed; unwrap there is the idiom.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod export;
pub mod json;
pub mod sink;
pub mod span;

pub use json::Json;
pub use sink::{metric_key, MetricSink, NullSink, Recorder, TimeStat, ValueHistogram};
pub use span::{Phase, SpanGuard, PHASE_TIME_METRIC};

use std::cell::RefCell;
use std::rc::Rc;

thread_local! {
    static ACTIVE: RefCell<Vec<Rc<dyn MetricSink>>> = const { RefCell::new(Vec::new()) };
    static CURRENT_LAYER: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Uninstalls the sink it guards when dropped, restoring the previous one.
#[must_use = "dropping the guard uninstalls the sink"]
pub struct SinkGuard {
    _private: (),
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        ACTIVE.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Installs `sink` as this thread's active sink until the returned guard is
/// dropped. Installs nest: the previous sink is restored on drop.
pub fn install(sink: Rc<dyn MetricSink>) -> SinkGuard {
    ACTIVE.with(|stack| stack.borrow_mut().push(sink));
    SinkGuard { _private: () }
}

/// Whether any sink is currently installed on this thread.
pub fn is_active() -> bool {
    ACTIVE.with(|stack| !stack.borrow().is_empty())
}

fn with_sink(f: impl FnOnce(&dyn MetricSink)) {
    ACTIVE.with(|stack| {
        // Clone the Rc out so the stack borrow is released before the sink
        // runs (a sink callback may itself query `is_active`).
        let top = stack.borrow().last().cloned();
        if let Some(sink) = top {
            f(sink.as_ref());
        }
    });
}

/// Adds `delta` to a counter on the installed sink; no-op without one.
pub fn counter_add(name: &str, labels: &[(&str, &str)], delta: u64) {
    with_sink(|s| s.counter_add(name, labels, delta));
}

/// Sets a gauge on the installed sink; no-op without one.
pub fn gauge_set(name: &str, labels: &[(&str, &str)], value: f64) {
    with_sink(|s| s.gauge_set(name, labels, value));
}

/// Records a histogram observation on the installed sink; no-op without one.
pub fn histogram_record(name: &str, labels: &[(&str, &str)], value: f64) {
    with_sink(|s| s.histogram_record(name, labels, value));
}

/// Records elapsed span time on the installed sink; no-op without one.
pub fn time_ns(name: &str, labels: &[(&str, &str)], nanos: u64) {
    with_sink(|s| s.time_ns(name, labels, nanos));
}

/// Marks the start of a training/serving step: clears the current-layer
/// label so stray spans before the first layer attribute to `""`.
pub fn begin_step() {
    if !is_active() {
        return;
    }
    CURRENT_LAYER.with(|l| l.borrow_mut().clear());
}

/// Marks `name` as the layer now executing; phase spans created until the
/// next call attribute to it. No-op (and free) without an installed sink.
pub fn enter_layer(name: &str) {
    if !is_active() {
        return;
    }
    CURRENT_LAYER.with(|l| {
        let mut current = l.borrow_mut();
        current.clear();
        current.push_str(name);
    });
}

/// The layer label phase spans currently attribute to.
pub fn current_layer() -> String {
    CURRENT_LAYER.with(|l| l.borrow().clone())
}

/// Opens a wall-time span for `phase` of the current layer. Returns an
/// inert guard (no clock read) when no sink is installed or the sink
/// declines timing.
pub fn span_phase(phase: Phase) -> SpanGuard {
    span_named(PHASE_TIME_METRIC, &[("phase", phase.as_str())])
}

/// Opens a wall-time span under `name`, labelled with the current layer
/// plus `extra` labels. Inert without an installed, timing-interested sink.
pub fn span_named(name: &'static str, extra: &[(&str, &str)]) -> SpanGuard {
    let mut wants = false;
    with_sink(|s| wants = s.wants_timing());
    if !wants {
        return SpanGuard::disabled();
    }
    let mut labels = Vec::with_capacity(extra.len() + 1);
    labels.push(("layer".to_string(), current_layer()));
    for (k, v) in extra {
        labels.push(((*k).to_string(), (*v).to_string()));
    }
    SpanGuard::started(name, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_functions_are_noops_without_a_sink() {
        assert!(!is_active());
        counter_add("x", &[], 1);
        gauge_set("x", &[], 1.0);
        histogram_record("x", &[], 1.0);
        begin_step();
        enter_layer("conv1");
        // enter_layer short-circuits without a sink: nothing recorded.
        assert_eq!(current_layer(), "");
    }

    #[test]
    fn install_nests_and_restores() {
        let outer = Recorder::new();
        let inner = Recorder::new();
        let g1 = install(Rc::new(outer.clone()));
        counter_add("hits", &[], 1);
        {
            let _g2 = install(Rc::new(inner.clone()));
            counter_add("hits", &[], 10);
        }
        counter_add("hits", &[], 1);
        drop(g1);
        assert!(!is_active());
        assert_eq!(outer.counter("hits", &[]), Some(2));
        assert_eq!(inner.counter("hits", &[]), Some(10));
    }

    #[test]
    fn layer_labels_flow_into_spans() {
        let rec = Recorder::new();
        {
            let _g = install(Rc::new(rec.clone()));
            begin_step();
            enter_layer("conv2");
            drop(span_phase(Phase::Cluster));
        }
        assert!(rec.time(PHASE_TIME_METRIC, &[("layer", "conv2"), ("phase", "cluster")]).is_some());
    }

    #[test]
    fn null_sink_disables_span_clock_reads() {
        let _g = install(Rc::new(NullSink));
        let span = span_named("adr_test_ns", &[]);
        // A disabled guard drops without recording; nothing to assert beyond
        // not panicking, but is_active is still true.
        assert!(is_active());
        drop(span);
    }
}
