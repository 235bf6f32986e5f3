//! The degradation ladder: load-driven stepping between reuse stages.
//!
//! The trainer's guardrails tighten reuse when training health degrades;
//! serving runs the same staircase in the other direction. Stage 0 is the
//! highest-quality configuration (by convention the exact im2col GEMM) and
//! each later stage trades accuracy for FLOPs by relaxing `{L, H, CR}`.
//! A smoothed pressure signal — the max of normalised batch latency and
//! queue occupancy, folded through the same `RunningMean` EMA the trainer
//! uses for loss smoothing — decides when to step:
//!
//! * pressure above `degrade_above` → step one stage toward aggressive
//!   reuse (cheaper batches, the queue drains faster),
//! * pressure below `recover_below` → step one stage back toward exact.
//!
//! `min_dwell` batches must pass between moves so one slow batch cannot
//! slam the ladder to the bottom — mirroring the plateau detector's
//! patience on the training side.

use adr_nn::metrics::RunningMean;

use crate::error::EngineError;

/// One rung of the ladder: how the reuse layers should be configured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StagePolicy {
    /// The exact im2col GEMM path: the reuse layers' dense mode, which runs
    /// the dense convolution's own code — bitwise-equal outputs at exactly
    /// the dense FLOPs, nothing hashed.
    Exact,
    /// A reuse configuration; larger `L` / smaller `H` is more aggressive.
    Reuse {
        /// Sub-vector length `L` (clamped to `K` per layer).
        sub_vector_len: usize,
        /// Hash count `H` (1..=64).
        num_hashes: usize,
        /// Across-batch cluster reuse (`CR`).
        cluster_reuse: bool,
    },
}

/// Ladder shape and stepping thresholds.
#[derive(Clone, Debug)]
pub struct LadderConfig {
    /// Stages ordered best-quality first; index 0 is where a healthy
    /// engine serves from.
    pub stages: Vec<StagePolicy>,
    /// EMA smoothing factor for the pressure signal, in `(0, 1]`.
    pub alpha: f32,
    /// Degrade one stage when smoothed pressure exceeds this.
    pub degrade_above: f32,
    /// Recover one stage when smoothed pressure falls below this.
    pub recover_below: f32,
    /// Minimum batches between stage moves.
    pub min_dwell: usize,
}

/// The default four-stage ladder walks `H` down and then turns on
/// across-batch cluster reuse. The bottom rung is chosen for *graceful*
/// degradation: on the seeded synthetic eval split it costs at most 0.2
/// accuracy against the exact stage (pinned by `tests/serving.rs`).
impl Default for LadderConfig {
    fn default() -> Self {
        Self {
            stages: vec![
                StagePolicy::Exact,
                StagePolicy::Reuse { sub_vector_len: 8, num_hashes: 12, cluster_reuse: false },
                StagePolicy::Reuse { sub_vector_len: 8, num_hashes: 8, cluster_reuse: false },
                StagePolicy::Reuse { sub_vector_len: 8, num_hashes: 8, cluster_reuse: true },
            ],
            alpha: 0.5,
            degrade_above: 1.0,
            recover_below: 0.4,
            min_dwell: 2,
        }
    }
}

/// A stage transition the ladder decided on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LadderMove {
    /// Stepped toward more aggressive reuse (load shedding by quality).
    Degraded {
        /// Stage before the move.
        from: usize,
        /// Stage after the move.
        to: usize,
    },
    /// Stepped back toward the exact path (pressure subsided).
    Recovered {
        /// Stage before the move.
        from: usize,
        /// Stage after the move.
        to: usize,
    },
}

/// The load-driven stage controller.
#[derive(Debug)]
pub struct DegradationLadder {
    cfg: LadderConfig,
    stage: usize,
    pressure: RunningMean,
    since_move: usize,
}

impl DegradationLadder {
    /// Builds a ladder starting at stage 0.
    ///
    /// # Errors
    /// Rejects an empty stage list, invalid reuse knobs (`L == 0`,
    /// `H ∉ 1..=64`), and an out-of-range `alpha`.
    pub fn new(cfg: LadderConfig) -> Result<Self, EngineError> {
        if cfg.stages.is_empty() {
            return Err(EngineError::EmptyLadder);
        }
        for (i, stage) in cfg.stages.iter().enumerate() {
            if let StagePolicy::Reuse { sub_vector_len, num_hashes, .. } = stage {
                if *sub_vector_len == 0 {
                    return Err(EngineError::BadStage {
                        stage: i,
                        reason: "sub-vector length must be positive".into(),
                    });
                }
                if *num_hashes == 0 || *num_hashes > 64 {
                    return Err(EngineError::BadStage {
                        stage: i,
                        reason: format!("hash count {num_hashes} outside 1..=64"),
                    });
                }
            }
        }
        if !(cfg.alpha > 0.0 && cfg.alpha <= 1.0) {
            return Err(EngineError::BadConfig(format!(
                "ladder alpha {} outside (0, 1]",
                cfg.alpha
            )));
        }
        let alpha = cfg.alpha;
        Ok(Self { cfg, stage: 0, pressure: RunningMean::new(alpha), since_move: 0 })
    }

    /// Current stage index (0 = best quality).
    pub fn stage(&self) -> usize {
        self.stage
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.cfg.stages.len()
    }

    /// The policy of the current stage.
    pub fn policy(&self) -> StagePolicy {
        // `stage < stages.len()` is a constructor + stepping invariant; the
        // fallback is unreachable but keeps this panic-free.
        self.cfg.stages.get(self.stage).copied().unwrap_or(StagePolicy::Exact)
    }

    /// The smoothed pressure signal (0 until the first observation).
    pub fn pressure(&self) -> f32 {
        self.pressure.get().unwrap_or(0.0)
    }

    /// Feeds one batch observation and possibly steps the ladder.
    ///
    /// `latency_frac` is batch latency over the configured target;
    /// `queue_frac` is queue depth over capacity. Pressure is the max of
    /// the two: either signal alone is enough to justify degrading.
    pub fn observe(&mut self, latency_frac: f32, queue_frac: f32) -> Option<LadderMove> {
        self.pressure.update(latency_frac.max(queue_frac));
        self.since_move += 1;
        if self.since_move < self.cfg.min_dwell {
            return None;
        }
        let p = self.pressure.get().unwrap_or(0.0);
        if p > self.cfg.degrade_above && self.stage + 1 < self.cfg.stages.len() {
            let from = self.stage;
            self.stage += 1;
            self.since_move = 0;
            return Some(LadderMove::Degraded { from, to: self.stage });
        }
        if p < self.cfg.recover_below && self.stage > 0 {
            let from = self.stage;
            self.stage -= 1;
            self.since_move = 0;
            return Some(LadderMove::Recovered { from, to: self.stage });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> LadderConfig {
        LadderConfig { min_dwell: 1, alpha: 1.0, ..LadderConfig::default() }
    }

    #[test]
    fn sustained_pressure_walks_down_then_recovery_walks_back() {
        let mut ladder = DegradationLadder::new(quick_cfg()).unwrap();
        assert_eq!(ladder.stage(), 0);
        assert_eq!(ladder.policy(), StagePolicy::Exact);
        // Three hot batches: degrade one stage each.
        for expect in 1..=3 {
            let mv = ladder.observe(4.0, 0.9);
            assert_eq!(mv, Some(LadderMove::Degraded { from: expect - 1, to: expect }));
        }
        // Bottom of the ladder: stays put under pressure.
        assert_eq!(ladder.observe(4.0, 1.0), None);
        assert_eq!(ladder.stage(), 3);
        // Calm traffic: recover step by step.
        for expect in (0..3).rev() {
            let mv = ladder.observe(0.0, 0.0);
            assert_eq!(mv, Some(LadderMove::Recovered { from: expect + 1, to: expect }));
        }
        assert_eq!(ladder.observe(0.0, 0.0), None, "already at the exact stage");
    }

    #[test]
    fn dwell_time_rate_limits_moves() {
        let cfg = LadderConfig { min_dwell: 3, alpha: 1.0, ..LadderConfig::default() };
        let mut ladder = DegradationLadder::new(cfg).unwrap();
        assert_eq!(ladder.observe(5.0, 0.0), None);
        assert_eq!(ladder.observe(5.0, 0.0), None);
        assert!(matches!(ladder.observe(5.0, 0.0), Some(LadderMove::Degraded { .. })));
        // Counter resets after a move.
        assert_eq!(ladder.observe(5.0, 0.0), None);
    }

    #[test]
    fn ema_smooths_single_spikes_away() {
        let cfg = LadderConfig { min_dwell: 1, alpha: 0.2, ..LadderConfig::default() };
        let mut ladder = DegradationLadder::new(cfg).unwrap();
        // One huge spike into a calm stream: smoothed pressure crosses the
        // threshold on the spike itself (EMA seeds at the first value), but
        // calm batches pull it straight back down without a second move.
        ladder.observe(0.1, 0.0);
        let first = ladder.observe(6.0, 0.0);
        for _ in 0..10 {
            ladder.observe(0.1, 0.0);
        }
        assert!(ladder.stage() <= 1, "stage {} after one spike", ladder.stage());
        let _ = first;
        assert!(ladder.pressure() < 1.0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let empty = LadderConfig { stages: vec![], ..LadderConfig::default() };
        assert!(matches!(DegradationLadder::new(empty), Err(EngineError::EmptyLadder)));
        let bad_h = LadderConfig {
            stages: vec![StagePolicy::Reuse {
                sub_vector_len: 4,
                num_hashes: 65,
                cluster_reuse: false,
            }],
            ..LadderConfig::default()
        };
        assert!(matches!(
            DegradationLadder::new(bad_h),
            Err(EngineError::BadStage { stage: 0, .. })
        ));
        let bad_alpha = LadderConfig { alpha: 0.0, ..LadderConfig::default() };
        assert!(matches!(DegradationLadder::new(bad_alpha), Err(EngineError::BadConfig(_))));
    }
}
