//! What a strategy applies to the reuse layers, as one value.
//!
//! The paper's contribution *is* a schedule: Strategy 1 sets `{L, H}` once,
//! Strategy 2 walks `{L, H}` on loss plateaus, Strategy 3 flips `CR` off
//! once (§V). A `Schedule` owns that — plus the guardrails' one-way drop
//! to exact computation — so the training loop never writes a reuse knob
//! itself: it starts a schedule, feeds it each step's loss, asks it to
//! tighten after a rollback, and snapshots / restores its cursor
//! ([`ScheduleState`]) with the rest of the run.

use adr_nn::metrics::{EpochMeter, PlateauDetector, PlateauState};
use adr_nn::Network;
use adr_reuse::{reuse_layers, ReuseConfig, ReuseConv2d};
use adr_tensor::Tensor4;

use crate::controller::{AdaptiveController, AdvanceOutcome, ControllerError, ControllerState};
use crate::guardrails::GuardrailEventKind;
use crate::strategy::Strategy;
use crate::trainer::TrainerConfig;

/// The resumable cursor of a run's schedule, as stored in a
/// [`crate::state::TrainState`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScheduleState {
    /// No cursor: the baseline and Strategy 1 have nothing to resume, and
    /// [`crate::state::TrainState::capture`] alone fills in nothing. Every
    /// schedule accepts it and keeps the cursor it has.
    Unset,
    /// Strategy 2: the controller's stage and plateau window.
    Adaptive(ControllerState),
    /// Strategy 3: the plateau window and whether `CR` is still on.
    ClusterReuse {
        /// Plateau-detector window at capture time.
        plateau: PlateauState,
        /// `CR` flag at capture time.
        active: bool,
    },
}

/// What one strategy keeps between steps.
enum Plan {
    /// Strategy 1: one `{L, H}` with `CR = 0`, written once — and the
    /// baseline, which has no reuse layers and writes none.
    Fixed(Option<ReuseConfig>),
    /// Strategy 2.
    Adaptive(AdaptiveController),
    /// Strategy 3: `{L, H}` fixed; `config.cluster_reuse` is the `CR` flag,
    /// on until the first plateau.
    ClusterReuse { config: ReuseConfig, plateau: PlateauDetector },
}

/// Owner of every `{L, H, CR}` write a training run makes.
pub(crate) struct Schedule {
    plan: Plan,
    /// Set by [`Schedule::tighten`] when no reuse stage is left: every
    /// reuse layer runs its dense mode from then on. One-way, and — like
    /// the guardrail's rollback budget — state of this process, not of a
    /// snapshot; every call below that rewrites `{L, H, CR}` (which leaves
    /// dense mode) re-asserts it.
    exact: bool,
}

impl Schedule {
    /// Builds `strategy`'s schedule and applies its opening configuration.
    ///
    /// # Errors
    /// [`ControllerError::NoReuseLayers`] for Strategy 2 on a dense network.
    pub(crate) fn start(
        net: &mut Network,
        strategy: Strategy,
        cfg: &TrainerConfig,
        batch: usize,
    ) -> Result<Self, ControllerError> {
        let plan = match strategy {
            Strategy::Baseline => Plan::Fixed(None),
            Strategy::FixedLh { l, h } => Plan::Fixed(Some(ReuseConfig::new(l, h, false))),
            Strategy::AdaptiveLh => Plan::Adaptive(AdaptiveController::for_network(
                net,
                batch,
                cfg.max_h_values,
                cfg.plateau_patience,
                cfg.plateau_min_delta,
                cfg.plateau_warmup,
            )?),
            Strategy::ClusterReuseSchedule { l, h } => Plan::ClusterReuse {
                config: ReuseConfig::new(l, h, true),
                plateau: PlateauDetector::new(cfg.plateau_patience, cfg.plateau_min_delta)
                    .with_warmup(cfg.plateau_warmup),
            },
        };
        let schedule = Self { plan, exact: false };
        schedule.apply(net);
        Ok(schedule)
    }

    /// Writes Strategy 1's / Strategy 3's current `{L, H, CR}` to every
    /// reuse layer (Strategy 2's controller has applied its stage by the
    /// time this runs), then re-asserts the exact fallback.
    fn apply(&self, net: &mut Network) {
        let config = match self.plan {
            Plan::Fixed(config) => config,
            Plan::ClusterReuse { config, .. } => Some(config),
            Plan::Adaptive(_) => None,
        };
        for reuse in reuse_layers(net) {
            if let Some(config) = config {
                reuse.set_config(config);
            }
            if self.exact {
                reuse.exact_fallback();
            }
        }
    }

    /// Feeds one step's training loss to the strategy's plateau handling.
    /// Returns the description of the switch it caused, if any; a Strategy 2
    /// switch also starts a new window on `meter`, whose accuracy picks the
    /// Amendment rule.
    pub(crate) fn after_step(
        &mut self,
        net: &mut Network,
        loss: f32,
        probe: &(Tensor4, Vec<usize>),
        meter: &mut EpochMeter,
    ) -> Option<String> {
        let switched = match &mut self.plan {
            Plan::Adaptive(ctrl) => {
                if !ctrl.observe_loss(loss) {
                    return None;
                }
                // An exhausted controller declines before touching anything.
                let AdvanceOutcome::Switched { stage, rule } =
                    ctrl.advance(net, &probe.0, &probe.1, meter.accuracy())
                else {
                    return None;
                };
                meter.reset();
                format!(
                    "stage {stage}/{} (rule {rule}): {:?}",
                    ctrl.max_stage(),
                    ctrl.current_settings()
                )
            }
            Plan::ClusterReuse { config, plateau } => {
                if !config.cluster_reuse || !plateau.observe(loss) {
                    return None;
                }
                config.cluster_reuse = false;
                "cluster reuse off (CR 1 -> 0)".to_string()
            }
            Plan::Fixed(_) => return None,
        };
        self.apply(net);
        Some(switched)
    }

    /// The guardrails' response to a fault: one stage toward precision
    /// without probing, or — when the strategy has no stage left — the
    /// exact fallback on every reuse layer, for the rest of the run.
    pub(crate) fn tighten(&mut self, net: &mut Network) -> (GuardrailEventKind, String) {
        let tightened = match &mut self.plan {
            Plan::Adaptive(ctrl) => ctrl.tighten(net).map(|stage| {
                let detail = format!("stage {stage}/{}", ctrl.max_stage());
                (GuardrailEventKind::StageTightened, detail)
            }),
            Plan::Fixed(_) | Plan::ClusterReuse { .. } => None,
        };
        let event = tightened.unwrap_or_else(|| {
            self.exact = true;
            let detail = "all reuse layers switched to exact im2col GEMM".to_string();
            (GuardrailEventKind::ExactFallback, detail)
        });
        self.apply(net);
        event
    }

    /// The cursor a snapshot stores.
    pub(crate) fn snapshot(&self) -> ScheduleState {
        match &self.plan {
            Plan::Fixed(_) => ScheduleState::Unset,
            Plan::Adaptive(ctrl) => ScheduleState::Adaptive(ctrl.snapshot()),
            Plan::ClusterReuse { config, plateau } => ScheduleState::ClusterReuse {
                plateau: plateau.snapshot(),
                active: config.cluster_reuse,
            },
        }
    }

    /// Moves the schedule back to `state` and re-applies what that cursor
    /// means to the layers. The LSH families are re-derived from the
    /// restored configuration as well: they live outside every snapshot,
    /// and a degenerate-clustering fault corrupts them under an unchanged
    /// `{L, H}`.
    ///
    /// # Errors
    /// [`ControllerError::ScheduleMismatch`] for a cursor of another
    /// strategy, [`ControllerError::StageOutOfRange`] for a stage this
    /// controller's schedule does not reach; neither moves anything.
    pub(crate) fn restore(
        &mut self,
        net: &mut Network,
        state: &ScheduleState,
    ) -> Result<(), ControllerError> {
        match (&mut self.plan, state) {
            (_, ScheduleState::Unset) => {}
            (Plan::Adaptive(ctrl), ScheduleState::Adaptive(cursor)) => ctrl.restore(net, cursor)?,
            (
                Plan::ClusterReuse { config, plateau },
                ScheduleState::ClusterReuse { plateau: window, active },
            ) => {
                plateau.restore(window);
                config.cluster_reuse = *active;
            }
            _ => return Err(ControllerError::ScheduleMismatch),
        }
        self.apply(net);
        reuse_layers(net).for_each(ReuseConv2d::rebuild_families);
        Ok(())
    }
}
