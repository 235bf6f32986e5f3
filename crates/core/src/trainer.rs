//! The training loop tying strategies, controller and network together,
//! with optional fault tolerance: periodic crash-safe [`TrainState`]
//! checkpoints, resume, runtime guardrails with rollback, and a
//! deterministic fault-injection hook.

use std::path::PathBuf;
use std::time::Instant;

use adr_nn::durable::{IoFault, NoFaults, RetryPolicy};
use adr_nn::metrics::EpochMeter;
use adr_nn::{Network, Sgd};
use adr_reuse::reuse_layers;
use adr_tensor::Tensor4;

use crate::controller::ControllerError;
use crate::faults::{FaultKind, FaultPlan};
use crate::guardrails::{scan_forward, Guardrail, GuardrailEvent, GuardrailEventKind};
use crate::report::{SwitchEvent, TrainReport};
use crate::schedule::Schedule;
use crate::state::{StateError, TrainState};
use crate::strategy::Strategy;

/// Supplies labelled training batches plus a held-out probe batch.
///
/// The trainer cycles `batch(0..num_batches)` repeatedly; `probe` must stay
/// disjoint from the training stream so accuracy checks (the controller's
/// Amendment tests and the target-accuracy stop rule) are honest.
pub trait BatchSource {
    /// Distinct training batches available.
    fn num_batches(&self) -> usize;

    /// The `index`-th training batch (images, labels).
    fn batch(&mut self, index: usize) -> (Tensor4, Vec<usize>);

    /// A fixed held-out batch for probing accuracy.
    fn probe(&mut self) -> (Tensor4, Vec<usize>);

    /// Opaque cursor state persisted into training checkpoints. Sources
    /// whose `batch(index)` is a pure function of `index` (the common
    /// case) need no state and keep the empty default.
    fn snapshot_state(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Restores a cursor previously returned by
    /// [`BatchSource::snapshot_state`].
    ///
    /// # Errors
    /// The default implementation accepts only the empty cursor; stateful
    /// sources override both methods and validate their own layout.
    fn restore_state(&mut self, state: &[u64]) -> Result<(), String> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "this batch source is stateless but the checkpoint carries {} cursor words",
                state.len()
            ))
        }
    }
}

/// Adapts a closure into a [`BatchSource`].
pub struct FnBatchSource<F> {
    num_batches: usize,
    make_batch: F,
    probe: (Tensor4, Vec<usize>),
}

impl<F: FnMut(usize) -> (Tensor4, Vec<usize>)> FnBatchSource<F> {
    /// Creates a source from a batch-producing closure and a fixed probe.
    ///
    /// # Panics
    /// Panics if `num_batches == 0` or the probe is empty.
    pub fn new(num_batches: usize, make_batch: F, probe: (Tensor4, Vec<usize>)) -> Self {
        assert!(num_batches > 0, "need at least one training batch");
        assert!(!probe.1.is_empty(), "probe batch must be non-empty");
        Self { num_batches, make_batch, probe }
    }
}

impl<F: FnMut(usize) -> (Tensor4, Vec<usize>)> BatchSource for FnBatchSource<F> {
    fn num_batches(&self) -> usize {
        self.num_batches
    }

    fn batch(&mut self, index: usize) -> (Tensor4, Vec<usize>) {
        (self.make_batch)(index)
    }

    fn probe(&mut self) -> (Tensor4, Vec<usize>) {
        self.probe.clone()
    }
}

/// Trainer knobs.
#[derive(Clone, Debug)]
pub struct TrainerConfig {
    /// Hard iteration budget.
    pub max_iterations: usize,
    /// Stop early once probe accuracy reaches this (the paper trains every
    /// strategy to the *same* accuracy and compares time).
    pub target_accuracy: Option<f32>,
    /// Probe-evaluation cadence in iterations.
    pub eval_every: usize,
    /// Plateau patience (loss observations without improvement).
    pub plateau_patience: usize,
    /// Relative loss improvement that resets the plateau counter.
    pub plateau_min_delta: f32,
    /// Observations after each phase switch during which plateau detection
    /// stays quiet.
    pub plateau_warmup: usize,
    /// Cap on distinct `H` candidates per layer (Strategy 2).
    pub max_h_values: usize,
    /// Keep at most this many history samples.
    pub history_samples: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            max_iterations: 500,
            target_accuracy: None,
            eval_every: 10,
            plateau_patience: 8,
            plateau_min_delta: 0.005,
            plateau_warmup: 20,
            max_h_values: 6,
            history_samples: 256,
        }
    }
}

/// Where and how often to persist full [`TrainState`] checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Destination file, written atomically (the previous checkpoint
    /// survives any failed write).
    pub path: PathBuf,
    /// Save cadence in iterations.
    pub every: usize,
    /// Retry/backoff policy for transient write failures.
    pub retry: RetryPolicy,
}

impl CheckpointPolicy {
    /// Checkpoints to `path` every `every` iterations with default retry.
    ///
    /// # Panics
    /// Panics if `every == 0`.
    pub fn new(path: impl Into<PathBuf>, every: usize) -> Self {
        assert!(every > 0, "checkpoint cadence must be positive");
        Self { path: path.into(), every, retry: RetryPolicy::default() }
    }
}

/// Optional fault-tolerance machinery for one training run. The default
/// (`TrainOptions::default()`) disables all of it, making
/// [`Trainer::train`] behave exactly as before.
#[derive(Default)]
pub struct TrainOptions<'a> {
    /// Resume from this state instead of starting fresh. The strategy must
    /// match and the network must have the same architecture.
    pub resume: Option<TrainState>,
    /// Persist periodic checkpoints.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Arm runtime guardrails (NaN / loss-spike / degenerate-cluster
    /// detection with rollback and stage tightening).
    pub guardrails: Option<crate::guardrails::GuardrailConfig>,
    /// Deterministic fault script (tests and chaos drills).
    pub faults: Option<&'a mut FaultPlan>,
    /// Stop after this many iterations *of this invocation* and mark the
    /// report interrupted — simulates a kill for crash-recovery tests.
    pub halt_after: Option<usize>,
}

/// Why a training run could not start or continue.
#[derive(Debug)]
pub enum TrainError {
    /// The strategy's schedule could not be built or restored.
    Controller(ControllerError),
    /// The resume state was rejected (wrong strategy, architecture
    /// mismatch, or a batch source that refused its cursor).
    Resume(StateError),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Controller(e) => write!(f, "controller setup failed: {e}"),
            Self::Resume(e) => write!(f, "resume rejected: {e}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Controller(e) => Some(e),
            Self::Resume(e) => Some(e),
        }
    }
}

/// Runs a strategy-driven training loop over a network.
pub struct Trainer {
    config: TrainerConfig,
}

/// Everything one training run mutates, so that there is one way to
/// snapshot it ([`Run::capture`]) and one way back ([`Run::restore`]) —
/// shared by resume and by guardrail rollback.
struct Run<'a> {
    net: &'a mut Network,
    sgd: &'a mut Sgd,
    source: &'a mut dyn BatchSource,
    strategy: Strategy,
    schedule: Schedule,
    meter: EpochMeter,
}

impl Run<'_> {
    /// Captures a complete [`TrainState`] for `iteration`.
    fn capture(&mut self, iteration: usize) -> TrainState {
        let mut state = TrainState::capture(self.net, self.sgd, self.strategy, iteration);
        state.schedule = self.schedule.snapshot();
        state.meter = self.meter.snapshot();
        state.source_state = self.source.snapshot_state();
        state
    }

    /// Puts model, optimiser, schedule (and through it the reuse layers'
    /// knobs), meter and source cursor back to `state`. The strategy is
    /// checked before the first write.
    fn restore(&mut self, state: &TrainState) -> Result<(), TrainError> {
        state.verify_strategy(self.strategy).map_err(TrainError::Resume)?;
        state.restore_model(self.net, self.sgd).map_err(TrainError::Resume)?;
        self.schedule.restore(self.net, &state.schedule).map_err(TrainError::Controller)?;
        self.meter.restore(&state.meter);
        self.source
            .restore_state(&state.source_state)
            .map_err(|e| TrainError::Resume(StateError::SourceState(e)))
    }
}

impl Trainer {
    /// Creates a trainer.
    ///
    /// # Panics
    /// Panics on zero `max_iterations` or `eval_every`.
    pub fn new(config: TrainerConfig) -> Self {
        assert!(config.max_iterations > 0, "max_iterations must be positive");
        assert!(config.eval_every > 0, "eval_every must be positive");
        Self { config }
    }

    /// Trains `net` with `strategy` on batches from `source` using `sgd`,
    /// with fault tolerance disabled (see [`Trainer::train_with`]).
    ///
    /// # Errors
    /// Returns [`TrainError::Controller`] when an adaptive strategy is
    /// used on a network without reuse layers.
    pub fn train(
        &self,
        net: &mut Network,
        strategy: Strategy,
        source: &mut dyn BatchSource,
        sgd: &mut Sgd,
    ) -> Result<TrainReport, TrainError> {
        self.train_with(net, strategy, source, sgd, TrainOptions::default())
    }

    /// Trains with optional resume, periodic crash-safe checkpoints,
    /// guardrails, and fault injection.
    ///
    /// The network must already be built to match the strategy (reuse
    /// convolutions for reuse strategies, dense for the baseline); model
    /// builders in `adr-models` handle that.
    ///
    /// Checkpoints and guardrail snapshots are captured at iteration
    /// boundaries *after* the periodic probe evaluation, so a resumed run
    /// replays the exact FLOP trajectory of an uninterrupted one.
    ///
    /// # Errors
    /// Returns [`TrainError::Controller`] when an adaptive strategy is
    /// used on a network without reuse layers or a resume state carries
    /// another strategy's schedule cursor, and [`TrainError::Resume`]
    /// when `options.resume` does not fit the run (strategy mismatch,
    /// different architecture, or a rejected batch-source cursor).
    #[allow(clippy::too_many_lines)]
    pub fn train_with(
        &self,
        net: &mut Network,
        strategy: Strategy,
        source: &mut dyn BatchSource,
        sgd: &mut Sgd,
        options: TrainOptions<'_>,
    ) -> Result<TrainReport, TrainError> {
        let cfg = &self.config;
        let probe = source.probe();
        let schedule =
            Schedule::start(net, strategy, cfg, probe.1.len()).map_err(TrainError::Controller)?;
        let mut run = Run { net, sgd, source, strategy, schedule, meter: EpochMeter::new() };

        let mut start_iter = 0;
        if let Some(state) = &options.resume {
            run.restore(state)?;
            start_iter = state.iteration;
        } else {
            run.net.reset_flops();
        }

        let mut switches = Vec::new();
        let mut loss_history = Vec::new();
        let mut accuracy_history = Vec::new();
        let mut iterations_to_target = None;
        let mut guardrail_events: Vec<GuardrailEvent> = Vec::new();
        let mut interrupted = false;
        let history_stride = (cfg.max_iterations / cfg.history_samples.max(1)).max(1);

        let mut faults = options.faults;
        let mut guardrail = options.guardrails.map(Guardrail::new);
        let mut disarm_logged = false;
        // The rollback target: the last state known healthy.
        let mut last_good = guardrail.as_ref().map(|_| run.capture(start_iter));

        let start = Instant::now();
        let mut iterations_run = start_iter;
        let mut iter = start_iter;
        // The latest probe evaluation, while no step has run since it: the
        // net is then unchanged, so it is also the final evaluation.
        let mut last_eval = None;
        while iter < cfg.max_iterations {
            iterations_run = iter + 1;
            adr_obs::begin_step();
            let (mut images, labels) = run.source.batch(iter % run.source.num_batches());

            // Scheduled fault injection (one-shot per fault).
            if let Some(plan) = faults.as_deref_mut() {
                for kind in plan.take_due(iter) {
                    let detail = Self::apply_fault(run.net, &mut images, kind);
                    guardrail_events.push(GuardrailEvent {
                        iteration: iter,
                        kind: GuardrailEventKind::FaultInjected,
                        detail,
                    });
                }
            }

            let step = run.net.train_batch(&images, &labels, run.sgd);
            last_eval = None;
            run.meter.record(step.loss, step.correct, step.batch_size);
            adr_obs::counter_add("adr_train_steps", &[], 1);
            adr_obs::gauge_set("adr_train_loss", &[], f64::from(step.loss));
            adr_obs::histogram_record("adr_train_loss_per_step", &[], f64::from(step.loss));
            if iter % history_stride == 0 {
                loss_history.push((iter, step.loss));
            }

            // Guardrails: detect, roll back, tighten.
            if let Some(g) = guardrail.as_mut() {
                if let Some((kind, detail)) = g.check(step.loss, run.net) {
                    guardrail_events.push(GuardrailEvent { iteration: iter, kind, detail });
                    if g.disarmed() {
                        if !disarm_logged {
                            disarm_logged = true;
                            guardrail_events.push(GuardrailEvent {
                                iteration: iter,
                                kind: GuardrailEventKind::GuardrailsDisarmed,
                                detail: format!(
                                    "rollback budget ({}) spent; continuing unguarded",
                                    g.config().max_rollbacks
                                ),
                            });
                        }
                    } else if let Some(state) = last_good.take() {
                        g.note_rollback();
                        // Name where the tripping batch went non-finite; the
                        // restore below discards everything this forward
                        // touches.
                        let culprit = scan_forward(run.net, &images);
                        run.restore(&state)?;
                        adr_obs::counter_add("adr_train_rollbacks", &[], 1);
                        guardrail_events.push(GuardrailEvent {
                            iteration: iter,
                            kind: GuardrailEventKind::RolledBack,
                            detail: format!(
                                "restored snapshot @ {}; rolled-back batch: {culprit}",
                                state.iteration
                            ),
                        });
                        // Tighten one stage toward exact computation.
                        let (kind, detail) = run.schedule.tighten(run.net);
                        guardrail_events.push(GuardrailEvent { iteration: iter, kind, detail });
                        // The snapshot now reflects the tightened knobs, so
                        // a second trip through the same fault does not
                        // re-loosen them.
                        last_good = Some(run.capture(state.iteration));
                        iter = state.iteration;
                        continue;
                    }
                }
            }

            if let Some(description) =
                run.schedule.after_step(run.net, step.loss, &probe, &mut run.meter)
            {
                switches.push(SwitchEvent { iteration: iter, description });
            }

            // Periodic probe evaluation + target stop rule.
            let boundary = iter + 1;
            if boundary % cfg.eval_every == 0 {
                let eval = run.net.evaluate(&probe.0, &probe.1);
                accuracy_history.push((iter, eval.accuracy));
                last_eval = Some(eval);
                if let Some(target) = cfg.target_accuracy {
                    if eval.accuracy >= target && iterations_to_target.is_none() {
                        iterations_to_target = Some(boundary);
                        break;
                    }
                }
            }

            // Snapshots come after the eval so that a resumed run's FLOP
            // counters match an uninterrupted run bit for bit.
            if let Some(g) = guardrail.as_ref() {
                if boundary % g.config().snapshot_every == 0 {
                    last_good = Some(run.capture(boundary));
                }
            }
            if let Some(policy) = &options.checkpoint {
                if boundary % policy.every == 0 {
                    let state = run.capture(boundary);
                    let mut no_faults = NoFaults;
                    let sink: &mut dyn IoFault = match faults.as_deref_mut() {
                        Some(plan) => plan,
                        None => &mut no_faults,
                    };
                    match state.save_with(&policy.path, policy.retry, sink) {
                        Ok(bytes) => {
                            adr_obs::counter_add("adr_train_checkpoints", &[], 1);
                            adr_obs::counter_add(
                                "adr_train_checkpoint_bytes",
                                &[],
                                u64::try_from(bytes).unwrap_or(u64::MAX),
                            );
                        }
                        Err(e) => {
                            guardrail_events.push(GuardrailEvent {
                                iteration: iter,
                                kind: GuardrailEventKind::CheckpointWriteFailed,
                                detail: format!(
                                    "{e} (previous checkpoint at {} still valid)",
                                    policy.path.display()
                                ),
                            });
                        }
                    }
                }
            }

            if let Some(halt) = options.halt_after {
                if boundary - start_iter >= halt {
                    interrupted = true;
                    break;
                }
            }
            iter = boundary;
        }
        let wall_time = start.elapsed();

        let final_eval = last_eval.unwrap_or_else(|| run.net.evaluate(&probe.0, &probe.1));
        Ok(TrainReport {
            strategy: strategy.name().to_string(),
            iterations_run,
            iterations_to_target,
            final_loss: final_eval.loss,
            final_accuracy: final_eval.accuracy,
            actual_flops: run.net.flops(),
            baseline_flops: run.net.baseline_flops(),
            wall_time,
            switches,
            loss_history,
            accuracy_history,
            guardrail_events,
            interrupted,
        })
    }

    /// Applies one injected fault; returns the report detail line.
    fn apply_fault(net: &mut Network, images: &mut Tensor4, kind: FaultKind) -> String {
        match kind {
            FaultKind::NanActivations => {
                images.as_mut_slice()[0] = f32::NAN;
                "NaN written into batch activations".into()
            }
            FaultKind::InfActivations => {
                images.as_mut_slice()[0] = f32::INFINITY;
                "Inf written into batch activations".into()
            }
            FaultKind::NanWeights => {
                for layer in net.layers_mut() {
                    let name = layer.name().to_string();
                    if let Some(p) = layer.params_mut().into_iter().next() {
                        if let Some(w) = p.data.first_mut() {
                            *w = f32::NAN;
                            return format!("NaN written into weights of layer {name}");
                        }
                    }
                }
                "NaN weight fault found no parameters to poison".into()
            }
            FaultKind::DegenerateClusters(mode) => {
                let hit =
                    reuse_layers(net).map(|reuse| reuse.inject_degenerate_clustering(mode)).count();
                format!("{mode:?} clustering injected into {hit} reuse layer(s)")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleState;
    use adr_nn::dense::Dense;
    use adr_nn::relu::Relu;
    use adr_reuse::{ReuseConfig, ReuseConv2d};
    use adr_tensor::im2col::ConvGeom;
    use adr_tensor::rng::AdrRng;

    /// Tiny 3-class problem: class = which image row band is bright.
    fn toy_source(seed: u64) -> FnBatchSource<impl FnMut(usize) -> (Tensor4, Vec<usize>)> {
        let make = move |index: usize| make_batch(seed + index as u64);
        let probe = make_batch(seed + 1000);
        FnBatchSource::new(4, make, probe)
    }

    fn make_batch(seed: u64) -> (Tensor4, Vec<usize>) {
        let mut rng = AdrRng::seeded(seed);
        let n = 6;
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let images = Tensor4::from_fn(n, 6, 6, 1, |b, y, _, _| {
            let bright = y / 2 == labels[b];
            (if bright { 1.0 } else { 0.0 }) + 0.05 * rng.gauss()
        });
        (images, labels)
    }

    fn dense_net(seed: u64) -> Network {
        let mut rng = AdrRng::seeded(seed);
        let mut net = Network::new((6, 6, 1));
        let g = ConvGeom::new(6, 6, 1, 3, 3, 1, 0).unwrap();
        net.push(Box::new(adr_nn::conv::Conv2d::new("conv1", g, 6, &mut rng)));
        net.push(Box::new(Relu::new("relu1")));
        net.push(Box::new(Dense::new("fc", 4 * 4 * 6, 3, &mut rng)));
        net
    }

    fn reuse_net(seed: u64) -> Network {
        let mut rng = AdrRng::seeded(seed);
        let mut net = Network::new((6, 6, 1));
        let g = ConvGeom::new(6, 6, 1, 3, 3, 1, 0).unwrap();
        net.push(Box::new(ReuseConv2d::new(
            "conv1",
            g,
            6,
            ReuseConfig::new(3, 6, false),
            &mut rng,
        )));
        net.push(Box::new(Relu::new("relu1")));
        net.push(Box::new(Dense::new("fc", 4 * 4 * 6, 3, &mut rng)));
        net
    }

    fn quick_config() -> TrainerConfig {
        TrainerConfig {
            max_iterations: 120,
            eval_every: 10,
            plateau_patience: 5,
            plateau_min_delta: 0.01,
            ..Default::default()
        }
    }

    #[test]
    fn fn_batch_source_cycles_and_probes() {
        let mut calls = 0usize;
        let probe = make_batch(999);
        let mut source = FnBatchSource::new(
            3,
            move |index| {
                calls += 1;
                let _ = calls;
                make_batch(index as u64)
            },
            probe.clone(),
        );
        assert_eq!(source.num_batches(), 3);
        let (images, labels) = source.batch(1);
        assert_eq!(images.batch(), labels.len());
        let (p_images, p_labels) = source.probe();
        assert_eq!(p_images.as_slice(), probe.0.as_slice());
        assert_eq!(p_labels, probe.1);
        // Stateless by default: empty cursor round-trips, non-empty fails.
        assert!(source.snapshot_state().is_empty());
        assert!(source.restore_state(&[]).is_ok());
        assert!(source.restore_state(&[1]).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one training batch")]
    fn zero_batch_source_panics() {
        let probe = make_batch(1);
        let _ = FnBatchSource::new(0, |i| make_batch(i as u64), probe);
    }

    #[test]
    fn baseline_training_learns_toy_task() {
        let trainer = Trainer::new(quick_config());
        let mut net = dense_net(1);
        let mut source = toy_source(10);
        let mut sgd = Sgd::constant(0.05);
        let report = trainer.train(&mut net, Strategy::baseline(), &mut source, &mut sgd).unwrap();
        assert!(report.final_accuracy > 0.8, "accuracy {}", report.final_accuracy);
        assert_eq!(report.actual_flops, report.baseline_flops);
        assert!(report.switches.is_empty());
        assert!(report.guardrail_events.is_empty());
        assert!(!report.interrupted);
    }

    #[test]
    fn fixed_strategy_saves_flops_and_learns() {
        let trainer = Trainer::new(quick_config());
        let mut net = reuse_net(2);
        let mut source = toy_source(20);
        let mut sgd = Sgd::constant(0.05);
        // H = 4 against M = 6 filters: at H = M hashing alone costs the dense
        // forward product (§III-B wants H ≪ M·(1 − r_c)), and this net's only
        // convolution is its first layer, whose input delta no trainer
        // computes — there is no third product left to hide that behind.
        let report = trainer.train(&mut net, Strategy::fixed(3, 4), &mut source, &mut sgd).unwrap();
        assert!(report.final_accuracy > 0.6, "accuracy {}", report.final_accuracy);
        assert!(
            report.actual_flops.total() < report.baseline_flops.total(),
            "reuse must do less work than dense"
        );
    }

    #[test]
    fn adaptive_strategy_switches_stages() {
        let trainer = Trainer::new(TrainerConfig {
            max_iterations: 200,
            plateau_patience: 3,
            plateau_min_delta: 0.02,
            ..quick_config()
        });
        let mut net = reuse_net(3);
        let mut source = toy_source(30);
        let mut sgd = Sgd::constant(0.05);
        let report = trainer.train(&mut net, Strategy::adaptive(), &mut source, &mut sgd).unwrap();
        assert!(!report.switches.is_empty(), "adaptive run should switch at least once");
        assert!(report.final_accuracy > 0.6, "accuracy {}", report.final_accuracy);
    }

    #[test]
    fn adaptive_strategy_needs_reuse_layers() {
        let trainer = Trainer::new(quick_config());
        let mut net = dense_net(7);
        let mut source = toy_source(70);
        let mut sgd = Sgd::constant(0.05);
        let err = trainer.train(&mut net, Strategy::adaptive(), &mut source, &mut sgd).unwrap_err();
        assert!(matches!(err, TrainError::Controller(ControllerError::NoReuseLayers)), "{err}");
    }

    #[test]
    fn cluster_reuse_strategy_turns_cr_off_on_plateau() {
        let trainer = Trainer::new(TrainerConfig {
            max_iterations: 200,
            plateau_patience: 3,
            plateau_min_delta: 0.02,
            ..quick_config()
        });
        let mut net = reuse_net(4);
        let mut source = toy_source(40);
        let mut sgd = Sgd::constant(0.05);
        let report =
            trainer.train(&mut net, Strategy::cluster_reuse(3, 6), &mut source, &mut sgd).unwrap();
        let cr_switches: Vec<_> = report
            .switches
            .iter()
            .filter(|s| s.description.contains("cluster reuse off"))
            .collect();
        assert_eq!(cr_switches.len(), 1, "CR must switch off exactly once");
    }

    #[test]
    fn target_accuracy_stops_early() {
        let trainer = Trainer::new(TrainerConfig {
            max_iterations: 2000,
            target_accuracy: Some(0.8),
            ..quick_config()
        });
        let mut net = dense_net(5);
        let mut source = toy_source(50);
        let mut sgd = Sgd::constant(0.05);
        let report = trainer.train(&mut net, Strategy::baseline(), &mut source, &mut sgd).unwrap();
        assert!(report.iterations_to_target.is_some());
        assert!(report.iterations_run < 2000);
    }

    #[test]
    fn histories_are_sampled() {
        let trainer = Trainer::new(quick_config());
        let mut net = dense_net(6);
        let mut source = toy_source(60);
        let mut sgd = Sgd::constant(0.05);
        let report = trainer.train(&mut net, Strategy::baseline(), &mut source, &mut sgd).unwrap();
        assert!(!report.loss_history.is_empty());
        assert!(!report.accuracy_history.is_empty());
        assert!(report.loss_history.len() <= 256 + 1);
    }

    #[test]
    fn halt_after_interrupts_and_resume_matches_uninterrupted() {
        let cfg = TrainerConfig { max_iterations: 40, ..quick_config() };
        halt_and_resume(dense_net, Strategy::baseline(), cfg, 20);
        // Strategy 3 halted *after* its CR switch (iteration 71 with these
        // seeds): the resume must put `CR = 0` back on the layers and not
        // report the switch again.
        let cfg = TrainerConfig {
            max_iterations: 100,
            plateau_patience: 3,
            plateau_min_delta: 0.02,
            ..quick_config()
        };
        halt_and_resume(reuse_net, Strategy::cluster_reuse(3, 6), cfg, 80);
    }

    fn halt_and_resume(
        make_net: fn(u64) -> Network,
        strategy: Strategy,
        cfg: TrainerConfig,
        halt: usize,
    ) {
        let total = cfg.max_iterations;
        let trainer = Trainer::new(cfg);
        let mut sgd_a = Sgd::constant(0.05);
        let mut net_a = make_net(8);
        let full = trainer.train(&mut net_a, strategy, &mut toy_source(80), &mut sgd_a).unwrap();

        // Interrupted twin: halt, capture, resume to the end.
        let mut sgd_b = Sgd::constant(0.05);
        let mut net_b = make_net(8);
        let dir = std::env::temp_dir().join(format!("adr_trainer_halt_resume_{}", full.strategy));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("state.bin");
        let first = trainer
            .train_with(
                &mut net_b,
                strategy,
                &mut toy_source(80),
                &mut sgd_b,
                TrainOptions {
                    checkpoint: Some(CheckpointPolicy::new(&ckpt, 10)),
                    halt_after: Some(halt),
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(first.interrupted);
        assert_eq!(first.iterations_run, halt);
        assert_eq!(first.switches, full.switches, "every switch precedes the halt");

        // Fresh process simulation: new net/sgd, state from disk.
        let state = TrainState::load(&ckpt).unwrap();
        assert_eq!(state.iteration, halt);
        let mut sgd_c = Sgd::constant(0.05);
        let mut net_c = make_net(8);
        let resumed = trainer
            .train_with(
                &mut net_c,
                strategy,
                &mut toy_source(80),
                &mut sgd_c,
                TrainOptions { resume: Some(state.clone()), ..Default::default() },
            )
            .unwrap();
        assert!(!resumed.interrupted);
        assert_eq!(resumed.iterations_run, full.iterations_run);
        assert!(resumed.switches.is_empty(), "{:?}", resumed.switches);
        if let Strategy::ClusterReuseSchedule { .. } = strategy {
            assert_eq!(full.switches.len(), 1, "{:?}", full.switches);
            assert!(
                matches!(state.schedule, ScheduleState::ClusterReuse { active: false, .. }),
                "{:?}",
                state.schedule
            );
            assert!(reuse_layers(&mut net_c).all(|reuse| !reuse.config().cluster_reuse));
        }

        // Bitwise-identical weights and FLOP counters.
        let w_full = TrainState::capture(&mut net_a, &sgd_a, strategy, total);
        let w_res = TrainState::capture(&mut net_c, &sgd_c, strategy, total);
        assert_eq!(w_full.params, w_res.params);
        assert_eq!(w_full.velocity, w_res.velocity);
        assert_eq!(w_full.flops, w_res.flops);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_wrong_strategy() {
        let trainer = Trainer::new(quick_config());
        let mut net = dense_net(9);
        let mut sgd = Sgd::constant(0.05);
        let state = TrainState::capture(&mut net, &sgd, Strategy::fixed(3, 6), 10);
        let mut resume = |strategy, state| {
            let options = TrainOptions { resume: Some(state), ..Default::default() };
            trainer
                .train_with(&mut net, strategy, &mut toy_source(90), &mut sgd, options)
                .unwrap_err()
        };
        let err = resume(Strategy::baseline(), state.clone());
        assert!(matches!(err, TrainError::Resume(StateError::StrategyMismatch { .. })), "{err}");

        // The right strategy carrying another strategy's schedule cursor is
        // refused as well, typed, rather than resumed with the cursor skipped.
        let plateau =
            adr_nn::metrics::PlateauState { smoothed: None, best: 1.0, stale: 0, seen: 1 };
        let foreign = ScheduleState::ClusterReuse { plateau, active: true };
        let err = resume(Strategy::fixed(3, 6), TrainState { schedule: foreign, ..state });
        assert!(matches!(err, TrainError::Controller(ControllerError::ScheduleMismatch)), "{err}");
    }

    #[test]
    fn guardrail_rolls_back_and_tightens_on_injected_nan() {
        let trainer = Trainer::new(TrainerConfig { max_iterations: 60, ..quick_config() });
        let mut net = reuse_net(11);
        let mut source = toy_source(110);
        let mut sgd = Sgd::constant(0.05);
        let mut plan = FaultPlan::new().inject_at(30, FaultKind::NanWeights);
        let report = trainer
            .train_with(
                &mut net,
                Strategy::fixed(3, 6),
                &mut source,
                &mut sgd,
                TrainOptions {
                    guardrails: Some(crate::guardrails::GuardrailConfig {
                        snapshot_every: 10,
                        ..Default::default()
                    }),
                    faults: Some(&mut plan),
                    ..Default::default()
                },
            )
            .unwrap();
        let kinds: Vec<_> = report.guardrail_events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&GuardrailEventKind::FaultInjected), "{kinds:?}");
        assert!(kinds.contains(&GuardrailEventKind::NonFiniteParams), "{kinds:?}");
        assert!(kinds.contains(&GuardrailEventKind::RolledBack), "{kinds:?}");
        assert!(
            kinds.contains(&GuardrailEventKind::ExactFallback),
            "fixed strategy has no controller; tightening must land on exact fallback: {kinds:?}"
        );
        // The run recovered: weights are finite and the model still learned.
        let recaptured = TrainState::capture(&mut net, &sgd, Strategy::fixed(3, 6), 0);
        assert!(recaptured.params.iter().flatten().all(|v| v.is_finite()));
        assert!(report.final_accuracy > 0.6, "accuracy {}", report.final_accuracy);
    }

    /// The premise of the rollback's forward scan: an eval forward between a
    /// capture and its restore leaves no trace on the run that follows, even
    /// with cluster-reuse caches live (the restore rebuilds them).
    #[test]
    fn restore_discards_what_an_eval_forward_touches() {
        let strategy = Strategy::cluster_reuse(3, 6);
        let run_with = |eval_forward: bool| {
            let (mut net, mut sgd, mut source) =
                (reuse_net(13), Sgd::constant(0.05), toy_source(130));
            let schedule = Schedule::start(&mut net, strategy, &quick_config(), 6).unwrap();
            let meter = EpochMeter::new();
            let mut run = Run {
                net: &mut net,
                sgd: &mut sgd,
                source: &mut source,
                strategy,
                schedule,
                meter,
            };
            assert!(reuse_layers(run.net).all(|reuse| reuse.config().cluster_reuse));
            let train = |run: &mut Run<'_>, steps: usize| {
                for i in 0..steps {
                    let (images, labels) = run.source.batch(i % run.source.num_batches());
                    run.net.train_batch(&images, &labels, run.sgd);
                }
            };
            let state = run.capture(0);
            train(&mut run, 3);
            if eval_forward {
                run.net.forward(&make_batch(7).0, adr_nn::Mode::Eval);
            }
            run.restore(&state).unwrap();
            train(&mut run, 5);
            TrainState::capture(run.net, run.sgd, strategy, 0)
        };
        let (plain, scanned) = (run_with(false), run_with(true));
        assert_eq!(plain.params, scanned.params);
        assert_eq!(plain.velocity, scanned.velocity);
        assert_eq!(plain.flops, scanned.flops);
    }

    #[test]
    fn exact_fallback_trains_on_as_a_dense_layer_without_retripping_the_guardrail() {
        use adr_reuse::DegenerateClustering;
        // H = 6 addresses 64 clusters; the all-singleton fault makes 96, the
        // fixed strategy has no stage to tighten to, so the rollback lands
        // on the exact fallback at iteration 30 and the run continues dense.
        let run = |max_iterations: usize| {
            let trainer = Trainer::new(TrainerConfig { max_iterations, ..quick_config() });
            let mut net = reuse_net(12);
            let mut sgd = Sgd::constant(0.05);
            let mut plan = FaultPlan::new()
                .inject_at(30, FaultKind::DegenerateClusters(DegenerateClustering::AllSingleton));
            let options = TrainOptions {
                guardrails: Some(crate::guardrails::GuardrailConfig {
                    snapshot_every: 10,
                    ..Default::default()
                }),
                faults: Some(&mut plan),
                ..Default::default()
            };
            let report = trainer
                .train_with(
                    &mut net,
                    Strategy::fixed(3, 6),
                    &mut toy_source(120),
                    &mut sgd,
                    options,
                )
                .unwrap();
            (report, net)
        };
        let (report, mut net) = run(60);
        let kinds: Vec<_> = report.guardrail_events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                GuardrailEventKind::FaultInjected,
                GuardrailEventKind::DegenerateClustering,
                GuardrailEventKind::RolledBack,
                GuardrailEventKind::ExactFallback,
            ],
            "a dense layer's N rows at r_c = 1 must not read as a second degenerate clustering"
        );
        assert!(report.guardrail_events.iter().all(|e| e.iteration == 30));
        // Thirty more iterations on the dense path: finite, still learning.
        let after: Vec<f32> =
            report.loss_history.iter().skip_while(|(i, _)| *i < 30).map(|(_, l)| *l).collect();
        assert!(after.len() >= 20 && after.iter().all(|l| l.is_finite()), "{after:?}");
        let mean = |w: &[f32]| w.iter().sum::<f32>() / w.len() as f32;
        assert!(
            mean(&after[after.len() - 5..]) < mean(&after[..5]),
            "loss did not fall: {after:?}"
        );

        // Every pass after the fallback meters actual == baseline: what a
        // run twenty iterations (and two probe evaluations) shorter lacks is
        // dense work only, and dense layers always meter the two equal.
        let (shorter, _) = run(40);
        let extra = |a: &TrainReport, b: &TrainReport| {
            (
                a.actual_flops.total() - b.actual_flops.total(),
                a.baseline_flops.total() - b.baseline_flops.total(),
            )
        };
        let (actual, baseline) = extra(&report, &shorter);
        assert!(baseline > 0 && actual == baseline, "{actual} vs {baseline}");
        assert!(reuse_layers(&mut net).all(|reuse| reuse.is_dense()));
    }
}
