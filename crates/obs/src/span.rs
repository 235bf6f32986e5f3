//! Scoped span timers with the reuse-phase taxonomy.
//!
//! A [`SpanGuard`] reads `Instant::now()` on creation and records elapsed
//! nanoseconds into the installed [`crate::Recorder`] on drop — but only
//! when one is installed. Without one the guard holds `None` and reads no
//! clock, which is what keeps the untraced path under the 2% budget.
//!
//! Wall times are timing metrics: they land in the recorder's separate time
//! map and never participate in the deterministic value export.

use std::time::Instant;

/// The per-layer phase taxonomy of the reuse convolution (DESIGN.md §11).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Unfolding the input into neuron vectors (im2col).
    Im2col,
    /// LSH signature computation over all neuron vectors.
    Hash,
    /// Grouping equal signatures into clusters.
    Cluster,
    /// Centroid averaging plus the centroid GEMM.
    CentroidGemm,
    /// Scattering centroid outputs back to all rows (+ bias).
    Scatter,
}

impl Phase {
    /// Stable label value used in metric keys and the BENCH schema.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Im2col => "im2col",
            Phase::Hash => "hash",
            Phase::Cluster => "cluster",
            Phase::CentroidGemm => "centroid_gemm",
            Phase::Scatter => "scatter",
        }
    }

    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 5] =
        [Phase::Im2col, Phase::Hash, Phase::Cluster, Phase::CentroidGemm, Phase::Scatter];
}

/// Metric name under which phase wall times accumulate.
pub const PHASE_TIME_METRIC: &str = "adr_phase_wall_ns";

/// An RAII wall-time span; records on drop. Obtain via [`crate::span_phase`]
/// or [`crate::span_named`].
#[must_use = "a span measures the scope it lives in"]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

struct SpanInner {
    start: Instant,
    name: &'static str,
    labels: Vec<(String, String)>,
}

impl SpanGuard {
    pub(crate) fn disabled() -> Self {
        Self { inner: None }
    }

    pub(crate) fn started(name: &'static str, labels: Vec<(String, String)>) -> Self {
        Self { inner: Some(SpanInner { start: Instant::now(), name, labels }) }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let nanos = u64::try_from(inner.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let borrowed: Vec<(&str, &str)> =
                inner.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            crate::time_ns(inner.name, &borrowed, nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::sink::Recorder;
    use std::rc::Rc;

    #[test]
    fn phase_labels_are_stable() {
        let labels: Vec<&str> = Phase::ALL.iter().map(|p| p.as_str()).collect();
        assert_eq!(labels, ["im2col", "hash", "cluster", "centroid_gemm", "scatter"]);
    }

    #[test]
    fn span_records_into_the_installed_recorder() {
        let rec = Recorder::new();
        {
            let _guard = crate::install(Rc::new(rec.clone()));
            crate::enter_layer("conv_t");
            let _span = crate::span_phase(Phase::Hash);
        }
        let stat = rec
            .time(PHASE_TIME_METRIC, &[("layer", "conv_t"), ("phase", "hash")])
            .expect("span should have recorded");
        assert_eq!(stat.count, 1);
    }

    #[test]
    fn span_is_inert_without_a_recorder() {
        // Must not panic or allocate a label set; nothing to observe beyond
        // "it runs".
        let _span = crate::span_phase(Phase::Scatter);
    }
}
