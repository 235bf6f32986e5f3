//! # adr-obs — deterministic telemetry for Adaptive Deep Reuse
//!
//! A zero-dependency observability layer threaded through the trainer and
//! the reuse convolution (DESIGN.md §11):
//!
//! * [`span`] — scoped wall-time spans with the per-layer/per-phase
//!   taxonomy (im2col, hash, cluster, centroid-GEMM, scatter).
//! * [`sink`] — the [`Recorder`]: counters, gauges and span times, read
//!   back one by one or as a JSON-lines run log.
//! * [`export`] — JSON documents written through `adr_nn::durable`'s
//!   atomic writer.
//! * [`json`] — the byte-deterministic JSON value the run log and the
//!   golden `BENCH_*.json` counter documents render through.
//!
//! ## Install model
//!
//! The active recorder is a **thread-local**: [`install`] pushes one and
//! returns a guard that restores the previous one on drop. Instrumented
//! library code calls the free functions ([`counter_add`], [`gauge_set`],
//! [`span_phase`], ...) which no-op when nothing is installed, at the cost
//! of one TLS check per call; a span reads the clock only while a recorder
//! is installed. Thread-local (rather than global) scoping keeps parallel
//! test runs from polluting each other's recorders, and matches the
//! invariant that all instrumentation runs on the orchestration thread,
//! never inside scoped compute workers.
//!
//! ## Determinism contract
//!
//! Exported *values* (counters and gauges: FLOPs, ratios, losses) are
//! bitwise-identical across two identical seeded runs; wall times are kept
//! apart and excluded from [`Recorder::to_json_lines`]`(false)`. Pinned by
//! `tests/determinism.rs::exported_telemetry_is_bitwise_reproducible`.

#![warn(missing_docs)]
// Tests assert on values they just constructed; unwrap there is the idiom.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod export;
pub mod json;
pub mod sink;
pub mod span;

pub use json::Json;
pub use sink::{Recorder, TimeStat};
pub use span::{Phase, SpanGuard, PHASE_TIME_METRIC};

use std::cell::RefCell;
use std::rc::Rc;

thread_local! {
    static ACTIVE: RefCell<Vec<Rc<Recorder>>> = const { RefCell::new(Vec::new()) };
    static CURRENT_LAYER: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Uninstalls the recorder it guards when dropped, restoring the previous
/// one.
#[must_use = "dropping the guard uninstalls the recorder"]
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

/// Installs `recorder` as this thread's active recorder until the returned
/// guard is dropped. Installs nest: the previous recorder is restored on
/// drop.
pub fn install(recorder: Rc<Recorder>) -> SinkGuard {
    ACTIVE.with(|stack| stack.borrow_mut().push(recorder));
    SinkGuard { _private: () }
}

/// Whether a recorder is currently installed on this thread.
pub fn is_active() -> bool {
    ACTIVE.with(|stack| !stack.borrow().is_empty())
}

fn with_recorder(f: impl FnOnce(&Recorder)) {
    ACTIVE.with(|stack| {
        if let Some(recorder) = stack.borrow().last() {
            f(recorder);
        }
    });
}

/// Adds `delta` to a counter on the installed recorder; no-op without one.
pub fn counter_add(name: &str, labels: &[(&str, &str)], delta: u64) {
    with_recorder(|r| r.counter_add(name, labels, delta));
}

/// Sets a gauge on the installed recorder; no-op without one.
pub fn gauge_set(name: &str, labels: &[(&str, &str)], value: f64) {
    with_recorder(|r| r.gauge_set(name, labels, value));
}

/// Records elapsed span time on the installed recorder; no-op without one.
pub(crate) fn time_ns(name: &str, labels: &[(&str, &str)], nanos: u64) {
    with_recorder(|r| r.time_ns(name, labels, nanos));
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
/// next call attribute to it. No-op (and free) without an installed
/// recorder.
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
/// inert guard (no clock read) when no recorder is installed.
pub fn span_phase(phase: Phase) -> SpanGuard {
    span_named(PHASE_TIME_METRIC, &[("phase", phase.as_str())])
}

/// Opens a wall-time span under `name`, labelled with the current layer
/// plus `extra` labels. Inert without an installed recorder.
pub fn span_named(name: &'static str, extra: &[(&str, &str)]) -> SpanGuard {
    if !is_active() {
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
    fn free_functions_are_noops_without_a_recorder() {
        assert!(!is_active());
        counter_add("x", &[], 1);
        gauge_set("x", &[], 1.0);
        begin_step();
        enter_layer("conv1");
        // enter_layer short-circuits without a recorder: nothing recorded.
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
}
