//! Serving observability: counters, events, and the latency histogram.
//!
//! The serving counterpart of `adr_core::report::TrainReport`. Every
//! robustness decision the gateway makes — rate-limiting, shedding,
//! degrading, quarantining a poisoned batch, retrying on the exact path,
//! failing a deadline, swapping a model — lands in the one [`ServeReport`]
//! as both a counter (attributed to its tenant or model) and an ordered
//! [`ServeEvent`], so a fault-injected test (and an operator) can
//! reconstruct exactly what happened and when.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::time::Duration;

/// Upper bounds (milliseconds, inclusive) of the latency histogram buckets;
/// one overflow bucket follows.
pub const LATENCY_BUCKET_BOUNDS_MS: [u64; 10] = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000];

/// A fixed-bucket histogram of admission-to-completion latencies.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; LATENCY_BUCKET_BOUNDS_MS.len() + 1],
}

impl LatencyHistogram {
    /// Records one latency observation.
    pub fn record(&mut self, latency: Duration) {
        let ms = u64::try_from(latency.as_millis()).unwrap_or(u64::MAX);
        let bucket = LATENCY_BUCKET_BOUNDS_MS
            .iter()
            .position(|&bound| ms <= bound)
            .unwrap_or(LATENCY_BUCKET_BOUNDS_MS.len());
        self.counts[bucket] += 1;
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Compact `<=1ms:3 <=5ms:1 ...` rendering of the non-empty buckets.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (i, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if !out.is_empty() {
                out.push(' ');
            }
            match LATENCY_BUCKET_BOUNDS_MS.get(i) {
                Some(bound) => {
                    let _ = write!(out, "<={bound}ms:{count}");
                }
                None => {
                    let _ = write!(out, ">1000ms:{count}");
                }
            }
        }
        if out.is_empty() {
            out.push_str("(empty)");
        }
        out
    }
}

/// What kind of robustness event the gateway recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServeEventKind {
    /// The ladder stepped toward more aggressive reuse.
    Degraded,
    /// The ladder stepped back toward the exact path.
    Recovered,
    /// A request was shed because the admission queue was full.
    Overloaded,
    /// A request was rejected at admission (shape or non-finite input).
    RejectedInput,
    /// A batch output failed the NaN/Inf scan and was quarantined.
    QuarantinedBatch,
    /// A quarantined batch was re-run on the exact GEMM path.
    RetriedExact,
    /// A request's response missed its deadline budget.
    DeadlineMissed,
    /// An injected slow-batch stall fired (fault harness).
    SlowBatchFault,
    /// An injected poison fired (fault harness).
    PoisonFault,
    /// A request was rejected by its tenant's token bucket.
    RateLimited,
    /// A hot swap started loading a new artifact.
    SwapStarted,
    /// A hot swap verified and atomically flipped to a new generation.
    SwapCompleted,
    /// A hot swap failed verification and rolled back; the previous
    /// generation kept serving throughout.
    SwapRolledBack,
}

/// One recorded event, in batch order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeEvent {
    /// Micro-batch index the event belongs to: events raised while a batch
    /// runs (faults, sanitizer, ladder moves, deadline misses) carry that
    /// batch's own index; admission and swap events carry the index of the
    /// *next* batch.
    pub batch: usize,
    /// Event class.
    pub kind: ServeEventKind,
    /// Human-readable specifics.
    pub detail: String,
}

/// How many of the newest events an [`EventLog`] keeps in full.
const MAX_RETAINED_EVENTS: usize = 1024;

/// The report's event record, bounded: an exact count per
/// [`ServeEventKind`] over the gateway's whole life, and the newest 1 024
/// events themselves, oldest first. A gateway under a steady trickle of
/// malformed submissions records one event (with a formatted detail string)
/// per rejection; the window keeps that from growing with the requests
/// served.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventLog {
    recent: VecDeque<ServeEvent>,
    totals: BTreeMap<ServeEventKind, usize>,
}

impl EventLog {
    /// Records `event`, dropping the oldest retained one once the window is
    /// full.
    pub fn push(&mut self, event: ServeEvent) {
        *self.totals.entry(event.kind).or_default() += 1;
        if self.recent.len() == MAX_RETAINED_EVENTS {
            self.recent.pop_front();
        }
        self.recent.push_back(event);
    }

    /// The retained events, oldest first (the newest is last).
    pub fn iter(&self) -> impl Iterator<Item = &ServeEvent> {
        self.recent.iter()
    }

    /// Number of retained events, at most 1 024.
    pub fn len(&self) -> usize {
        self.recent.len()
    }

    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.recent.is_empty()
    }
}

/// Per-tenant slice of the serving telemetry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Requests admitted into this tenant's lanes.
    pub admitted: u64,
    /// Requests answered with logits.
    pub completed: u64,
    /// Requests rejected for a wrong shape.
    pub rejected_shape: u64,
    /// Requests rejected for non-finite input values.
    pub rejected_non_finite: u64,
    /// Requests shed because the tenant's fair-share queue slice was full.
    pub shed_overloaded: u64,
    /// Requests rejected by the tenant's token bucket.
    pub rate_limited: u64,
    /// Requests whose response missed its deadline.
    pub deadline_missed: u64,
    /// Requests failed because the output stayed non-finite after retry.
    pub failed_non_finite: u64,
    /// Steps of this tenant's ladders toward aggressive reuse.
    pub degraded_steps: u64,
    /// Steps of this tenant's ladders back toward exact.
    pub recovered_steps: u64,
    /// Requests served per ladder stage of *this tenant's* ladder
    /// (index = stage; length = the tenant's stage count).
    pub requests_per_stage: Vec<u64>,
}

impl TenantCounters {
    /// The scalar counters as stable `(name, value)` pairs.
    pub fn counters(&self) -> [(&'static str, u64); 10] {
        [
            ("admitted", self.admitted),
            ("completed", self.completed),
            ("rejected_shape", self.rejected_shape),
            ("rejected_non_finite", self.rejected_non_finite),
            ("shed_overloaded", self.shed_overloaded),
            ("rate_limited", self.rate_limited),
            ("deadline_missed", self.deadline_missed),
            ("failed_non_finite", self.failed_non_finite),
            ("degraded_steps", self.degraded_steps),
            ("recovered_steps", self.recovered_steps),
        ]
    }
}

/// Per-model slice of the serving telemetry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModelCounters {
    /// Micro-batches this model's replica served.
    pub batches: u64,
    /// Live generation (0 until the first hot swap).
    pub generation: u64,
    /// Hot swaps that verified and flipped.
    pub swaps_completed: u64,
    /// Hot swaps that failed verification and rolled back.
    pub swaps_rolled_back: u64,
    /// Batches quarantined by the output sanitizer.
    pub quarantined_batches: u64,
    /// Batches re-run on the exact GEMM path.
    pub retried_batches: u64,
    /// Forward multiply–adds actually performed serving requests, summed
    /// over every generation of the model.
    pub flops_actual: u64,
    /// Forward multiply–adds the exact path would have performed.
    pub flops_exact: u64,
}

impl ModelCounters {
    /// The counters (everything but the generation gauge) as stable
    /// `(name, value)` pairs.
    pub fn counters(&self) -> [(&'static str, u64); 7] {
        [
            ("batches", self.batches),
            ("swaps_completed", self.swaps_completed),
            ("swaps_rolled_back", self.swaps_rolled_back),
            ("quarantined_batches", self.quarantined_batches),
            ("retried_batches", self.retried_batches),
            ("flops_actual", self.flops_actual),
            ("flops_exact", self.flops_exact),
        ]
    }

    /// Fraction of forward FLOPs saved versus the exact path: `0.0` for
    /// traffic served at stage 0 (the dense code path), positive once the
    /// ladder degrades, negative only if a reuse rung's hashing outweighs
    /// the GEMM work it removes (`H ≪ M·(1 − r_c)` violated).
    pub fn flop_savings(&self) -> f64 {
        if self.flops_exact == 0 {
            return 0.0;
        }
        1.0 - self.flops_actual as f64 / self.flops_exact as f64
    }
}

/// Aggregated serving telemetry — the serving mirror of `TrainReport` —
/// with every counter attributed to the tenant or model it belongs to.
/// `BTreeMap` keys keep iteration (and therefore exported metrics and
/// bench documents) deterministically ordered.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeReport {
    /// Counters per tenant, keyed by tenant name.
    pub tenants: BTreeMap<String, TenantCounters>,
    /// Counters per model, keyed by model name.
    pub models: BTreeMap<String, ModelCounters>,
    /// Micro-batches served across all models.
    pub batches: u64,
    /// Admission-to-completion latency distribution, all tenants.
    pub latency: LatencyHistogram,
    /// Ordered robustness events (admission, ladder, sanitizer, swap,
    /// faults): exact totals per kind, the newest in full.
    pub events: EventLog,
}

impl ServeReport {
    /// Number of events of `kind` ever recorded — exact, whether or not the
    /// events themselves are still retained.
    pub fn events_of(&self, kind: ServeEventKind) -> usize {
        self.events.totals.get(&kind).copied().unwrap_or(0)
    }

    /// Gateway-wide totals as stable `(name, value)` pairs — tenant
    /// counters summed, the batch count, and the sanitizer counters summed
    /// over models. The determinism suite and the serve bench compare
    /// these across runs.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut totals = TenantCounters::default().counters().to_vec();
        for c in self.tenants.values() {
            for (total, (_, value)) in totals.iter_mut().zip(c.counters()) {
                total.1 += value;
            }
        }
        let model_sum = |pick: fn(&ModelCounters) -> u64| self.models.values().map(pick).sum();
        totals.push(("batches", self.batches));
        totals.push(("quarantined_batches", model_sum(|m| m.quarantined_batches)));
        totals.push(("retried_batches", model_sum(|m| m.retried_batches)));
        totals
    }

    /// Multi-line human-readable summary, one line per tenant and model.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let totals = self.counters();
        let get = |name: &str| totals.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v);
        let _ = writeln!(
            out,
            "serving report: {} admitted, {} completed over {} batches",
            get("admitted"),
            get("completed"),
            self.batches
        );
        for (tenant, c) in &self.tenants {
            let per_stage: Vec<String> = c
                .requests_per_stage
                .iter()
                .enumerate()
                .map(|(s, n)| format!("stage{s}:{n}"))
                .collect();
            let _ = writeln!(
                out,
                "  tenant {tenant}: {} admitted, {} completed | rejected: {} shape, {} non-finite \
                 | shed: {} | rate-limited: {} | deadline missed: {} | failed non-finite: {} \
                 | ladder: {} degraded, {} recovered | {}",
                c.admitted,
                c.completed,
                c.rejected_shape,
                c.rejected_non_finite,
                c.shed_overloaded,
                c.rate_limited,
                c.deadline_missed,
                c.failed_non_finite,
                c.degraded_steps,
                c.recovered_steps,
                per_stage.join(" ")
            );
        }
        for (model, m) in &self.models {
            let _ = writeln!(
                out,
                "  model {model}: generation {}, {} batches, {} swaps ({} rolled back) \
                 | sanitizer: {} quarantined, {} retried exact \
                 | forward flops: {} vs exact {} ({:.1}% saved)",
                m.generation,
                m.batches,
                m.swaps_completed,
                m.swaps_rolled_back,
                m.quarantined_batches,
                m.retried_batches,
                m.flops_actual,
                m.flops_exact,
                m.flop_savings() * 100.0
            );
        }
        let _ = write!(out, "  latency: {}", self.latency.summary());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_upper_bound() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_millis(0));
        h.record(Duration::from_millis(1));
        h.record(Duration::from_millis(2));
        h.record(Duration::from_millis(7));
        h.record(Duration::from_millis(1500));
        assert_eq!(h.total(), 5);
        assert_eq!(h.counts()[0], 2, "0ms and 1ms share the <=1ms bucket");
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[3], 1, "7ms lands in <=10ms");
        assert_eq!(h.counts()[LATENCY_BUCKET_BOUNDS_MS.len()], 1, "overflow bucket");
        assert!(h.summary().contains("<=1ms:2"));
        assert!(h.summary().contains(">1000ms:1"));
    }

    #[test]
    fn flop_savings_is_zero_without_a_baseline() {
        let model = ModelCounters::default();
        assert_eq!(model.flop_savings().to_bits(), 0.0f64.to_bits());
        let model = ModelCounters { flops_actual: 25, flops_exact: 100, ..Default::default() };
        assert!((model.flop_savings() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn report_sums_tenant_and_model_counters_and_renders_attribution() {
        let mut report = ServeReport::default();
        report.tenants.insert(
            "alpha".into(),
            TenantCounters {
                admitted: 5,
                completed: 4,
                shed_overloaded: 1,
                degraded_steps: 3,
                requests_per_stage: vec![4, 0],
                ..TenantCounters::default()
            },
        );
        report.tenants.insert(
            "beta".into(),
            TenantCounters {
                admitted: 3,
                completed: 3,
                rate_limited: 2,
                requests_per_stage: vec![1, 2],
                ..TenantCounters::default()
            },
        );
        report.models.insert(
            "cifarnet".into(),
            ModelCounters {
                batches: 4,
                generation: 1,
                swaps_completed: 1,
                quarantined_batches: 1,
                retried_batches: 1,
                ..Default::default()
            },
        );
        report.batches = 4;
        let totals = report.counters();
        let get = |name: &str| totals.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        assert_eq!(get("admitted"), Some(8));
        assert_eq!(get("rate_limited"), Some(2));
        assert_eq!(get("shed_overloaded"), Some(1));
        assert_eq!(get("degraded_steps"), Some(3));
        assert_eq!(get("retried_batches"), Some(1));
        assert_eq!(get("batches"), Some(4));
        let s = report.summary();
        assert!(s.contains("tenant alpha: 5 admitted"));
        assert!(s.contains("shed: 1"), "{s}");
        assert!(s.contains("3 degraded"), "{s}");
        assert!(s.contains("stage0:1 stage1:2"), "{s}");
        assert!(s.contains("tenant beta"), "{s}");
        assert!(s.contains("model cifarnet: generation 1"));
        assert!(s.contains("1 quarantined, 1 retried exact"), "{s}");
    }
}
