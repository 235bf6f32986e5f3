//! Per-run training summaries — the raw material of Table IV.

use std::time::Duration;

use adr_nn::flops::FlopReport;

use crate::guardrails::GuardrailEvent;

/// A parameter-switch event during an adaptive run.
#[derive(Clone, Debug, PartialEq)]
pub struct SwitchEvent {
    /// Training iteration at which the switch happened.
    pub iteration: usize,
    /// Human-readable description (`"stage 3"`, `"CR off"`, ...).
    pub description: String,
}

/// Everything a training run reports.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Strategy name.
    pub strategy: String,
    /// Iterations actually executed.
    pub iterations_run: usize,
    /// First iteration at which the target accuracy was reached, if it was.
    pub iterations_to_target: Option<usize>,
    /// Loss on the probe batch after training.
    pub final_loss: f32,
    /// Accuracy on the probe batch after training.
    pub final_accuracy: f32,
    /// Multiply–adds actually performed by the network.
    pub actual_flops: FlopReport,
    /// Multiply–adds a dense network would have performed for the same
    /// passes.
    pub baseline_flops: FlopReport,
    /// Wall-clock training time.
    pub wall_time: Duration,
    /// Parameter switches (empty for baseline/fixed runs).
    pub switches: Vec<SwitchEvent>,
    /// Sampled `(iteration, loss)` history.
    pub loss_history: Vec<(usize, f32)>,
    /// Sampled `(iteration, probe accuracy)` history.
    pub accuracy_history: Vec<(usize, f32)>,
    /// Guardrail detections and reactions, in occurrence order (empty when
    /// guardrails were not armed or nothing went wrong).
    pub guardrail_events: Vec<GuardrailEvent>,
    /// True when the run stopped at `halt_after` rather than finishing —
    /// the kill-and-resume harness's signal that a resume is expected.
    pub interrupted: bool,
}

impl TrainReport {
    /// Fraction of baseline multiply–adds avoided, in `[-∞, 1]`.
    pub fn flop_savings(&self) -> f64 {
        let base = self.baseline_flops.total();
        if base == 0 {
            return 0.0;
        }
        1.0 - self.actual_flops.total() as f64 / base as f64
    }

    /// Training-time saving versus a reference wall time (the baseline
    /// run's), as the paper reports it: `1 − t/t_ref`.
    pub fn time_savings_vs(&self, reference: Duration) -> f64 {
        if reference.is_zero() {
            return 0.0;
        }
        1.0 - self.wall_time.as_secs_f64() / reference.as_secs_f64()
    }

    /// Multi-line human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "strategy {}: {} iterations, final accuracy {:.3}, loss {:.4}\n  \
             flops {} vs dense {} ({:.1}% saved), wall time {:.2}s",
            self.strategy,
            self.iterations_run,
            self.final_accuracy,
            self.final_loss,
            self.actual_flops.total(),
            self.baseline_flops.total(),
            self.flop_savings() * 100.0,
            self.wall_time.as_secs_f64(),
        );
        if let Some(i) = self.iterations_to_target {
            s.push_str(&format!("\n  target accuracy reached at iteration {i}"));
        }
        for sw in &self.switches {
            s.push_str(&format!("\n  switch @ {}: {}", sw.iteration, sw.description));
        }
        for ev in &self.guardrail_events {
            s.push_str(&format!("\n  guardrail @ {}: {:?} — {}", ev.iteration, ev.kind, ev.detail));
        }
        if self.interrupted {
            s.push_str("\n  run interrupted (resumable from its last checkpoint)");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> TrainReport {
        TrainReport {
            strategy: "test".into(),
            iterations_run: 100,
            iterations_to_target: Some(80),
            final_loss: 0.5,
            final_accuracy: 0.9,
            actual_flops: FlopReport { forward: 30, backward: 20 },
            baseline_flops: FlopReport { forward: 60, backward: 40 },
            wall_time: Duration::from_secs(5),
            switches: vec![SwitchEvent { iteration: 10, description: "stage 1".into() }],
            loss_history: vec![(0, 2.0), (99, 0.5)],
            accuracy_history: vec![(0, 0.1), (99, 0.9)],
            guardrail_events: vec![GuardrailEvent {
                iteration: 42,
                kind: crate::guardrails::GuardrailEventKind::RolledBack,
                detail: "restored snapshot @ 25".into(),
            }],
            interrupted: false,
        }
    }

    #[test]
    fn flop_savings_computation() {
        assert!((report().flop_savings() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn time_savings_vs_reference() {
        let r = report();
        assert!((r.time_savings_vs(Duration::from_secs(10)) - 0.5).abs() < 1e-12);
        assert_eq!(r.time_savings_vs(Duration::ZERO), 0.0);
    }

    #[test]
    fn summary_mentions_switches_and_target() {
        let s = report().summary();
        assert!(s.contains("switch @ 10"));
        assert!(s.contains("iteration 80"));
        assert!(s.contains("guardrail @ 42"));
    }
}
