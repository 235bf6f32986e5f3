//! Runtime health monitoring for training runs.
//!
//! A [`Guardrail`] watches each iteration for the failure shapes that
//! approximate-reuse training can produce — non-finite losses, non-finite
//! parameters (NaN can bypass the loss entirely: ReLU launders `NaN → 0`
//! on the forward pass while the weight gradient still inherits it),
//! sudden loss spikes, and degenerate LSH clusterings (all-singleton or
//! one-giant-cluster). The trainer reacts to a triggered guardrail by
//! rolling back to the last good [`crate::state::TrainState`] and
//! tightening the reuse knobs one stage, bottoming out at the exact
//! im2col GEMM fallback; every detection and reaction is recorded as a
//! [`GuardrailEvent`] in the training report.

use adr_nn::metrics::RunningMean;
use adr_nn::{Layer, Mode, Network};
use adr_reuse::reuse_layers;
use adr_tensor::sanitize::first_non_finite;
use adr_tensor::Tensor4;

/// Minimum clustered rows before cluster-shape checks apply — tiny batches
/// make both degenerate shapes legitimately possible.
const MIN_CLUSTER_ROWS: usize = 32;

/// `r_c` at or below this is treated as a one-giant-cluster collapse.
const REMAINING_RATIO_FLOOR: f64 = 0.02;

/// Detection thresholds and rollback budget of a [`Guardrail`].
#[derive(Clone, Debug)]
pub struct GuardrailConfig {
    /// A loss above `factor × smoothed_loss` counts as a spike.
    pub loss_spike_factor: f32,
    /// Healthy observations required before spike detection arms
    /// (early-training losses legitimately jump around).
    pub spike_warmup: usize,
    /// Take a rollback snapshot every this many iterations.
    pub snapshot_every: usize,
    /// After this many rollbacks the guardrail disarms instead of looping
    /// forever on an unrecoverable run.
    pub max_rollbacks: usize,
}

impl Default for GuardrailConfig {
    fn default() -> Self {
        Self { loss_spike_factor: 4.0, spike_warmup: 10, snapshot_every: 25, max_rollbacks: 8 }
    }
}

/// What a guardrail detected or did, in report-ready form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardrailEventKind {
    /// The fault harness injected a scheduled fault (bookkeeping, so a
    /// report shows cause next to effect).
    FaultInjected,
    /// The batch loss came back NaN or ±∞.
    NonFiniteLoss,
    /// A learnable parameter went NaN/∞ — catches NaN that ReLU laundered
    /// out of the loss path.
    NonFiniteParams,
    /// The loss jumped past `loss_spike_factor ×` its smoothed value.
    LossSpike,
    /// A reuse layer's clustering collapsed (all-singleton or one-giant).
    DegenerateClustering,
    /// The trainer restored the last good snapshot.
    RolledBack,
    /// The controller advanced one stage toward exact computation.
    StageTightened,
    /// All reuse layers were switched to the exact im2col GEMM fallback.
    ExactFallback,
    /// A periodic checkpoint write failed after exhausting its retries
    /// (non-fatal: training continues, the previous checkpoint survives).
    CheckpointWriteFailed,
    /// The rollback budget ran out; the guardrail stopped intervening.
    GuardrailsDisarmed,
}

/// One timestamped guardrail occurrence, kept in the training report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GuardrailEvent {
    /// Training iteration (0-based) at which the event occurred.
    pub iteration: usize,
    /// What happened.
    pub kind: GuardrailEventKind,
    /// Human-readable specifics (layer name, observed values, ...).
    pub detail: String,
}

/// The detector: consulted once per iteration with the fresh batch loss
/// and mutable access to the network (parameter and cluster scans).
#[derive(Debug)]
pub struct Guardrail {
    config: GuardrailConfig,
    smoothed: RunningMean,
    observations: usize,
    rollbacks: usize,
}

impl Guardrail {
    /// Creates a guardrail with the given thresholds.
    pub fn new(config: GuardrailConfig) -> Self {
        Self { config, smoothed: RunningMean::new(0.3), observations: 0, rollbacks: 0 }
    }

    /// The active thresholds.
    pub fn config(&self) -> &GuardrailConfig {
        &self.config
    }

    /// Rollbacks performed so far.
    pub fn rollbacks(&self) -> usize {
        self.rollbacks
    }

    /// True once the rollback budget is spent; the trainer stops
    /// intervening (and says so in the report) rather than ping-ponging
    /// on an unrecoverable run.
    pub fn disarmed(&self) -> bool {
        self.rollbacks >= self.config.max_rollbacks
    }

    /// Records a rollback and clears the loss window — the smoothed loss
    /// of the poisoned timeline must not judge the restored one.
    pub fn note_rollback(&mut self) {
        self.rollbacks += 1;
        self.smoothed.reset();
        self.observations = 0;
    }

    /// Inspects one completed iteration. Returns the first problem found
    /// (checks ordered most- to least-specific), or `None` when healthy.
    /// Healthy losses feed the spike detector's smoothing window;
    /// triggering losses do not.
    pub fn check(&mut self, loss: f32, net: &mut Network) -> Option<(GuardrailEventKind, String)> {
        if !loss.is_finite() {
            return Some((GuardrailEventKind::NonFiniteLoss, format!("batch loss = {loss}")));
        }
        if let Some(detail) = scan_params(net) {
            return Some((GuardrailEventKind::NonFiniteParams, detail));
        }
        if let Some(detail) = scan_clusters(net) {
            return Some((GuardrailEventKind::DegenerateClustering, detail));
        }
        if self.observations > self.config.spike_warmup {
            if let Some(smoothed) = self.smoothed.get() {
                let limit = self.config.loss_spike_factor * smoothed;
                if loss > limit {
                    return Some((
                        GuardrailEventKind::LossSpike,
                        format!(
                            "loss {loss:.4} exceeds {limit:.4} ({:.1}× smoothed {smoothed:.4})",
                            self.config.loss_spike_factor
                        ),
                    ));
                }
            }
        }
        self.observations += 1;
        self.smoothed.update(loss);
        None
    }
}

/// Checks every reuse layer that clustered for a degenerate shape; returns a
/// description of the first offender.
fn scan_clusters(net: &mut Network) -> Option<String> {
    for reuse in reuse_layers(net) {
        let name = reuse.name().to_string();
        // A dense-mode layer (the exact fallback) clusters nothing: its
        // stats describe N rows at r_c = 1 under an untouched config.
        if reuse.is_dense() {
            continue;
        }
        let stats = reuse.stats();
        if stats.rows < MIN_CLUSTER_ROWS {
            continue;
        }
        // More clusters than 2^H signatures can address means the
        // live families disagree with the configured H — the
        // all-singleton injection shape.
        #[allow(clippy::cast_possible_truncation)]
        let capacity = 2f64.powi(reuse.config().num_hashes.min(52) as i32);
        if stats.avg_clusters > capacity {
            return Some(format!(
                "layer {name}: {:.1} clusters exceeds 2^H = {capacity} (all-singleton)",
                stats.avg_clusters
            ));
        }
        if stats.avg_remaining_ratio <= REMAINING_RATIO_FLOOR {
            return Some(format!(
                "layer {name}: remaining ratio {:.4} at or below floor {REMAINING_RATIO_FLOOR} \
                 (one giant cluster)",
                stats.avg_remaining_ratio
            ));
        }
    }
    None
}

/// Scans every learnable parameter for NaN/∞; returns a description of
/// the first offending layer.
fn scan_params(net: &mut Network) -> Option<String> {
    for layer in net.layers_mut() {
        let name = layer.name().to_string();
        for p in layer.params_mut() {
            if let Some((i, v)) = first_non_finite(p.data) {
                return Some(format!("layer {name}: param[{i}] = {v}"));
            }
        }
    }
    None
}

/// Names where a batch first goes non-finite: the batch itself, else the
/// first layer whose `Mode::Eval` output holds a NaN/∞, else neither. The
/// trainer runs it on the batch a rollback discards, just before the
/// restore that also discards what this forward touched (FLOP meters,
/// cluster-reuse caches; the next training forward rewrites reuse stats).
pub(crate) fn scan_forward(net: &mut Network, images: &Tensor4) -> String {
    if let Some((i, v)) = first_non_finite(images.as_slice()) {
        return format!("input[{i}] = {v}");
    }
    let mut x = images.clone();
    for layer in net.layers_mut() {
        x = layer.forward(&x, Mode::Eval);
        if let Some((i, v)) = first_non_finite(x.as_slice()) {
            return format!("layer {} output[{i}] = {v}", layer.name());
        }
    }
    "forward finite".into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adr_nn::dense::Dense;
    use adr_tensor::rng::AdrRng;

    fn tiny_net(seed: u64) -> Network {
        let mut rng = AdrRng::seeded(seed);
        let mut net = Network::new((2, 2, 1));
        net.push(Box::new(Dense::new("fc", 4, 2, &mut rng)));
        net
    }

    #[test]
    fn healthy_iterations_pass() {
        let mut g = Guardrail::new(GuardrailConfig::default());
        let mut net = tiny_net(1);
        for _ in 0..30 {
            assert_eq!(g.check(1.0, &mut net), None);
        }
    }

    #[test]
    fn non_finite_loss_trips_first() {
        let mut g = Guardrail::new(GuardrailConfig::default());
        let mut net = tiny_net(2);
        let (kind, _) = g.check(f32::NAN, &mut net).unwrap();
        assert_eq!(kind, GuardrailEventKind::NonFiniteLoss);
        let (kind, _) = g.check(f32::INFINITY, &mut net).unwrap();
        assert_eq!(kind, GuardrailEventKind::NonFiniteLoss);
    }

    #[test]
    fn nan_params_are_caught_even_with_finite_loss() {
        let mut g = Guardrail::new(GuardrailConfig::default());
        let mut net = tiny_net(3);
        net.layers_mut()[0].params_mut()[0].data[1] = f32::NAN;
        let (kind, detail) = g.check(0.5, &mut net).unwrap();
        assert_eq!(kind, GuardrailEventKind::NonFiniteParams);
        assert!(detail.contains("fc"), "{detail}");
    }

    #[test]
    fn forward_scan_names_the_input_or_the_first_non_finite_layer() {
        use adr_nn::conv::Conv2d;
        use adr_nn::relu::Relu;
        use adr_tensor::im2col::ConvGeom;
        let mut rng = AdrRng::seeded(6);
        let mut net = Network::new((4, 4, 1));
        let geom = ConvGeom::new(4, 4, 1, 3, 3, 1, 0).unwrap();
        net.push(Box::new(Conv2d::new("conv", geom, 2, &mut rng)));
        net.push(Box::new(Relu::new("relu")));
        net.push(Box::new(Dense::new("fc", 2 * 2 * 2, 3, &mut rng)));
        let mut images = Tensor4::from_fn(2, 4, 4, 1, |n, y, x, _| (n + y * 4 + x) as f32 * 0.1);
        assert_eq!(scan_forward(&mut net, &images), "forward finite");

        net.layers_mut()[2].params_mut()[0].data.fill(f32::MAX);
        assert_eq!(scan_forward(&mut net, &images), "layer fc output[0] = inf");

        images.as_mut_slice()[5] = f32::NAN;
        assert_eq!(scan_forward(&mut net, &images), "input[5] = NaN");
    }

    #[test]
    fn loss_spike_requires_warmup_and_factor() {
        let cfg = GuardrailConfig { spike_warmup: 5, loss_spike_factor: 3.0, ..Default::default() };
        let mut g = Guardrail::new(cfg);
        let mut net = tiny_net(4);
        // A huge loss during warmup is tolerated (and not smoothed in).
        assert_eq!(g.check(100.0, &mut net).map(|(k, _)| k), None);
        for _ in 0..10 {
            assert_eq!(g.check(1.0, &mut net), None);
        }
        assert_eq!(g.check(2.5, &mut net), None, "below factor: fine");
        let (kind, _) = g.check(50.0, &mut net).unwrap();
        assert_eq!(kind, GuardrailEventKind::LossSpike);
    }

    #[test]
    fn spike_window_resets_on_rollback() {
        let cfg = GuardrailConfig { spike_warmup: 2, loss_spike_factor: 2.0, ..Default::default() };
        let mut g = Guardrail::new(cfg);
        let mut net = tiny_net(5);
        for _ in 0..5 {
            g.check(1.0, &mut net);
        }
        assert!(g.check(10.0, &mut net).is_some());
        g.note_rollback();
        assert_eq!(g.rollbacks(), 1);
        // Fresh window: the same loss is warmup again, not a spike.
        assert_eq!(g.check(10.0, &mut net), None);
    }

    #[test]
    fn disarms_after_budget() {
        let cfg = GuardrailConfig { max_rollbacks: 2, ..Default::default() };
        let mut g = Guardrail::new(cfg);
        assert!(!g.disarmed());
        g.note_rollback();
        g.note_rollback();
        assert!(g.disarmed());
    }
}
