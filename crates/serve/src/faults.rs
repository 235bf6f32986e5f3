//! Deterministic fault injection for serving-robustness tests — the
//! serving counterpart of `adr_core::faults::FaultPlan`, keyed by
//! micro-batch index instead of training iteration.
//!
//! A plan only holds the faults a caller cannot cause through the public
//! API: a stalled batch and a poisoned batch *output*. A malformed or
//! non-finite request is just submitted; a corrupt artifact is just
//! written to disk and registered or swapped to.

/// One kind of injectable serving failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeFaultKind {
    /// Stalls the micro-batch for the given wall-clock (or virtual-clock)
    /// duration, driving the engine's latency pressure up.
    SlowBatch {
        /// How long the batch stalls, in milliseconds.
        stall_ms: u64,
    },
    /// Overwrites the first logit of the batch output with NaN *after* the
    /// forward pass, exercising the output sanitizer. (Poisoning inputs is
    /// not enough: ReLU launders NaN, see
    /// [`adr_core::faults::FaultKind::NanActivations`].)
    PoisonOutput,
}

/// A serving fault scheduled for a specific micro-batch.
#[derive(Clone, Copy, Debug)]
struct ScheduledServeFault {
    at_batch: usize,
    kind: ServeFaultKind,
    fired: bool,
}

/// A tenant-scoped output poisoning: the next `left` batches served for
/// `tenant` have their first logit overwritten with NaN after the forward
/// pass, exercising the quarantine path for exactly one tenant while
/// every other tenant's traffic stays clean.
#[derive(Clone, Debug)]
struct TenantPoison {
    tenant: String,
    left: usize,
}

/// A deterministic script of failures for one serving run. Each scheduled
/// fault fires exactly once.
#[derive(Debug, Default)]
pub struct ServeFaultPlan {
    scheduled: Vec<ScheduledServeFault>,
    tenant_poisons: Vec<TenantPoison>,
}

impl ServeFaultPlan {
    /// Creates an empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` to fire once, while micro-batch `at_batch` runs.
    #[must_use]
    pub fn inject_at_batch(mut self, at_batch: usize, kind: ServeFaultKind) -> Self {
        self.scheduled.push(ScheduledServeFault { at_batch, kind, fired: false });
        self
    }

    /// Schedules a tenant-scoped `PoisonOutput`: the next `n` batches the
    /// gateway serves for `tenant` get a NaN first logit after the forward
    /// pass. Other tenants' batches are untouched, so isolation tests can
    /// pin that quarantine and retry stay per-tenant.
    #[must_use]
    pub fn poison_tenant_output(mut self, tenant: &str, n: usize) -> Self {
        self.tenant_poisons.push(TenantPoison { tenant: tenant.to_string(), left: n });
        self
    }

    /// Returns the faults due at micro-batch `batch`, marking each fired.
    pub(crate) fn take_due(&mut self, batch: usize) -> Vec<ServeFaultKind> {
        let mut due = Vec::new();
        for s in &mut self.scheduled {
            if !s.fired && s.at_batch == batch {
                s.fired = true;
                due.push(s.kind);
            }
        }
        due
    }

    /// Consumes one tenant-scoped output poisoning for `tenant`, if any
    /// remain. The gateway calls this once per batch it serves for the
    /// tenant.
    pub(crate) fn take_tenant_poison(&mut self, tenant: &str) -> bool {
        for p in &mut self.tenant_poisons {
            if p.tenant == tenant && p.left > 0 {
                p.left -= 1;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_faults_fire_once_per_batch() {
        let mut plan = ServeFaultPlan::new()
            .inject_at_batch(1, ServeFaultKind::SlowBatch { stall_ms: 200 })
            .inject_at_batch(1, ServeFaultKind::PoisonOutput)
            .inject_at_batch(4, ServeFaultKind::SlowBatch { stall_ms: 50 });
        assert!(plan.take_due(0).is_empty());
        assert_eq!(
            plan.take_due(1),
            vec![ServeFaultKind::SlowBatch { stall_ms: 200 }, ServeFaultKind::PoisonOutput]
        );
        assert!(plan.take_due(1).is_empty(), "one-shot: nothing fires twice");
        assert_eq!(plan.take_due(4), vec![ServeFaultKind::SlowBatch { stall_ms: 50 }]);
        assert!(plan.take_due(4).is_empty());
    }

    #[test]
    fn tenant_poison_is_scoped_and_bounded() {
        let mut plan = ServeFaultPlan::new().poison_tenant_output("beta", 2);
        assert!(!plan.take_tenant_poison("alpha"), "other tenants stay clean");
        assert!(plan.take_tenant_poison("beta"));
        assert!(plan.take_tenant_poison("beta"));
        assert!(!plan.take_tenant_poison("beta"), "tenant poison is bounded");
    }
}
