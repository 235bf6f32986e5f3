//! Deterministic fault injection for training-robustness tests.
//!
//! A [`FaultPlan`] is a scripted schedule of failures — numeric poison in
//! activations or weights, degenerate LSH clusterings, checkpoint-write
//! I/O errors — that the trainer consults at the top of each iteration.
//! Faults fire *exactly once* at their scheduled iteration, so a rollback
//! that replays the same iterations sees a clean run; that one-shot
//! semantics is what lets the guardrail tests assert recovery rather than
//! an injection loop.
//!
//! Everything here is deterministic: no randomness, no clocks. The same
//! plan against the same seeds produces the same failure at the same
//! iteration on every run.

use std::io;

use adr_nn::durable::IoFault;
use adr_reuse::DegenerateClustering;

/// One kind of injectable failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Overwrites one activation value of the incoming batch with NaN.
    ///
    /// Note that ReLU *launders* NaN (`max(NaN, 0) == 0`), so this fault
    /// may never surface in the loss — but the convolution's weight
    /// gradient `centroidᵀ · δy` still multiplies by the poisoned input,
    /// and `NaN × 0 == NaN` drives the weights non-finite after the next
    /// optimiser step. The guardrail's parameter scan exists for exactly
    /// this failure shape.
    NanActivations,
    /// Overwrites one activation value with `+∞`, which ReLU passes
    /// through and the loss turns into NaN/∞ within one forward pass.
    InfActivations,
    /// Overwrites one learnable weight with NaN before the forward pass.
    NanWeights,
    /// Swaps every reuse layer's LSH families for a degenerate clustering
    /// (see [`DegenerateClustering`]).
    DegenerateClusters(DegenerateClustering),
}

/// A fault scheduled for a specific training iteration.
#[derive(Clone, Copy, Debug)]
struct ScheduledFault {
    at_iteration: usize,
    kind: FaultKind,
    fired: bool,
}

/// A deterministic script of failures for one training run.
#[derive(Debug, Default)]
pub struct FaultPlan {
    scheduled: Vec<ScheduledFault>,
    io_failures_left: usize,
}

impl FaultPlan {
    /// Creates an empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` to fire once, just before training iteration
    /// `at_iteration` runs.
    #[must_use]
    pub fn inject_at(mut self, at_iteration: usize, kind: FaultKind) -> Self {
        self.scheduled.push(ScheduledFault { at_iteration, kind, fired: false });
        self
    }

    /// Makes the next `n` checkpoint write attempts fail with an injected
    /// I/O error (exercising the retry/backoff path).
    #[must_use]
    pub fn fail_checkpoint_writes(mut self, n: usize) -> Self {
        self.io_failures_left = n;
        self
    }

    /// Returns the faults due at `iteration`, marking each as fired so a
    /// post-rollback replay of the same iteration proceeds clean.
    pub fn take_due(&mut self, iteration: usize) -> Vec<FaultKind> {
        let mut due = Vec::new();
        for s in &mut self.scheduled {
            if !s.fired && s.at_iteration == iteration {
                s.fired = true;
                due.push(s.kind);
            }
        }
        due
    }
}

impl IoFault for FaultPlan {
    fn inject_io_error(&mut self) -> Option<io::Error> {
        if self.io_failures_left == 0 {
            return None;
        }
        self.io_failures_left -= 1;
        Some(io::Error::other("injected checkpoint fault"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_once_at_their_iteration() {
        let mut plan = FaultPlan::new()
            .inject_at(3, FaultKind::NanActivations)
            .inject_at(3, FaultKind::NanWeights)
            .inject_at(7, FaultKind::InfActivations);
        assert!(plan.take_due(0).is_empty());
        assert_eq!(plan.take_due(3), vec![FaultKind::NanActivations, FaultKind::NanWeights]);
        // Replaying iteration 3 after a rollback: nothing fires again.
        assert!(plan.take_due(3).is_empty());
        assert_eq!(plan.take_due(7), vec![FaultKind::InfActivations]);
        assert!(plan.take_due(7).is_empty());
    }

    #[test]
    fn io_failures_are_bounded() {
        let mut plan = FaultPlan::new().fail_checkpoint_writes(2);
        assert!(plan.inject_io_error().is_some());
        assert!(plan.inject_io_error().is_some());
        assert!(plan.inject_io_error().is_none());
    }
}
