//! The runtime adaptive controller (§V-A(b,c)).
//!
//! Strategy 2's engine: every reuse layer gets a Policy-3 candidate list;
//! training proceeds with the current stage until the loss plateaus; the
//! controller then probes later stages on a held-out batch and accepts the
//! first that passes Amendments 3.1/3.2, falling back to the relaxed
//! Amendment 3.3 ratio test. When every layer has reached its most precise
//! setting the controller reports exhaustion and training continues there.

use std::fmt;

use adr_nn::metrics::{PlateauDetector, PlateauState};
use adr_nn::Network;
use adr_reuse::{reuse_layers, ReuseConfig, ReuseConv2d};
use adr_tensor::Tensor4;

use crate::candidates::CandidateList;
use crate::policy::{HRange, LRange};

/// Why a controller could not be built or restored.
#[derive(Debug, PartialEq, Eq)]
pub enum ControllerError {
    /// The network contains no `ReuseConv2d` layers, so there is nothing
    /// for the adaptive schedule to drive. Use the dense baseline or a
    /// fixed strategy instead.
    NoReuseLayers,
    /// A checkpointed stage index exceeds this controller's schedule —
    /// the snapshot was taken under a different configuration.
    StageOutOfRange {
        /// Stage recorded in the snapshot.
        stage: usize,
        /// Last stage this controller's schedule reaches.
        max_stage: usize,
    },
    /// A snapshot's schedule cursor belongs to a different strategy than
    /// the one the run's schedule was started with (the strategies
    /// themselves matched: the snapshot was assembled by hand).
    ScheduleMismatch,
}

impl fmt::Display for ControllerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoReuseLayers => {
                write!(f, "network contains no ReuseConv2d layers to drive adaptively")
            }
            Self::StageOutOfRange { stage, max_stage } => {
                write!(f, "snapshot stage {stage} exceeds the schedule's max stage {max_stage}")
            }
            Self::ScheduleMismatch => {
                write!(f, "snapshot carries another strategy's schedule cursor")
            }
        }
    }
}

impl std::error::Error for ControllerError {}

/// The resumable portion of an [`AdaptiveController`]: the stage cursor
/// and the plateau-detector observation window. The candidate plans are
/// rebuilt deterministically from the network by
/// [`AdaptiveController::for_network`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ControllerState {
    /// Global stage index at capture time.
    pub stage: usize,
    /// Plateau-detector window at capture time.
    pub plateau: PlateauState,
}

/// Candidate schedule for one reuse layer inside a network.
#[derive(Clone, Debug)]
pub struct LayerPlan {
    /// Index of the layer in the network's layer stack.
    pub layer_index: usize,
    /// The layer's Policy-3 schedule.
    pub candidates: CandidateList,
}

/// Outcome of an [`AdaptiveController::advance`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdvanceOutcome {
    /// Switched to stage `stage`; training continues.
    Switched {
        /// The new global stage index.
        stage: usize,
        /// Which amendment accepted it (1 = 3.1/3.2, 3 = 3.3 fallback,
        /// 0 = forced single-step progress).
        rule: u8,
    },
    /// All layers are already at their most precise setting.
    Exhausted,
}

/// Drives per-layer `{L, H}` schedules through a training run.
#[derive(Debug)]
pub struct AdaptiveController {
    plans: Vec<LayerPlan>,
    stage: usize,
    max_stage: usize,
    plateau: PlateauDetector,
}

impl AdaptiveController {
    /// Builds a controller for every [`ReuseConv2d`] in `net`, deriving
    /// ranges from layer geometry (Policies 1/2) and applying the initial
    /// (most aggressive) stage immediately.
    ///
    /// * `batch_size` — training batch size `Nb`, needed for `N` in Policy 2.
    /// * `max_h_values` — cap on distinct `H` candidates per layer.
    /// * `patience`/`min_delta` — plateau detection (§V-A(c)).
    /// * `warmup` — observations after each switch during which the plateau
    ///   detector stays quiet (early-phase loss is noise, not a plateau).
    ///
    /// # Errors
    /// Returns [`ControllerError::NoReuseLayers`] when the network has no
    /// `ReuseConv2d` layers — there is nothing to drive adaptively.
    pub fn for_network(
        net: &mut Network,
        batch_size: usize,
        max_h_values: usize,
        patience: usize,
        min_delta: f32,
        warmup: usize,
    ) -> Result<Self, ControllerError> {
        let mut plans = Vec::new();
        let mut first_conv = true;
        for (idx, layer) in net.layers_mut().iter_mut().enumerate() {
            let Some(any) = layer.as_any_mut() else { continue };
            let Some(reuse) = any.downcast_mut::<ReuseConv2d>() else { continue };
            let geom = *reuse.geom();
            let l_range = LRange::from_geometry(geom.kernel_w, geom.in_c, first_conv);
            first_conv = false;
            let n = geom.rows_for_batch(batch_size);
            let h_range = HRange::from_rows(n.max(2), max_h_values);
            let candidates = CandidateList::build(&l_range, &h_range, reuse.out_channels());
            plans.push(LayerPlan { layer_index: idx, candidates });
        }
        let Some(longest) = plans.iter().map(|p| p.candidates.len()).max() else {
            return Err(ControllerError::NoReuseLayers);
        };
        let max_stage = longest - 1;
        let controller = Self {
            plans,
            stage: 0,
            max_stage,
            plateau: PlateauDetector::new(patience, min_delta).with_warmup(warmup),
        };
        controller.apply_stage(net, 0);
        Ok(controller)
    }

    /// Captures the stage cursor and plateau window for checkpointing.
    pub fn snapshot(&self) -> ControllerState {
        ControllerState { stage: self.stage, plateau: self.plateau.snapshot() }
    }

    /// Restores a snapshotted stage + plateau window and re-applies the
    /// stage's `{L, H}` to every planned layer.
    ///
    /// # Errors
    /// Returns [`ControllerError::StageOutOfRange`] (without mutating
    /// anything) when the snapshot does not fit this schedule.
    pub fn restore(
        &mut self,
        net: &mut Network,
        state: &ControllerState,
    ) -> Result<(), ControllerError> {
        if state.stage > self.max_stage {
            return Err(ControllerError::StageOutOfRange {
                stage: state.stage,
                max_stage: self.max_stage,
            });
        }
        self.stage = state.stage;
        self.plateau.restore(&state.plateau);
        self.apply_stage(net, self.stage);
        Ok(())
    }

    /// Moves one stage towards precision *without* probing — the guardrail
    /// response to a detected fault ("the current setting destabilised
    /// training; trade speed for fidelity"). Returns the new stage, or
    /// `None` when already exhausted (the caller then falls back to the
    /// exact GEMM path).
    pub fn tighten(&mut self, net: &mut Network) -> Option<usize> {
        if self.is_exhausted() {
            return None;
        }
        self.stage += 1;
        self.apply_stage(net, self.stage);
        self.plateau.reset();
        Some(self.stage)
    }

    /// Current global stage index.
    pub fn stage(&self) -> usize {
        self.stage
    }

    /// Last stage index any layer can reach.
    pub fn max_stage(&self) -> usize {
        self.max_stage
    }

    /// The per-layer plans (for reporting).
    pub fn plans(&self) -> &[LayerPlan] {
        &self.plans
    }

    /// Whether every layer sits at its most precise setting.
    pub fn is_exhausted(&self) -> bool {
        self.stage >= self.max_stage
    }

    /// Feeds one training-loss observation; `true` means the loss has
    /// plateaued and [`AdaptiveController::advance`] should be called.
    pub fn observe_loss(&mut self, loss: f32) -> bool {
        self.plateau.observe(loss)
    }

    /// Applies stage `stage` (clamped per layer) to all reuse layers —
    /// `for_network` made one plan per reuse layer, in layer order.
    fn apply_stage(&self, net: &mut Network, stage: usize) {
        for (plan, reuse) in self.plans.iter().zip(reuse_layers(net)) {
            let (l, h) = plan.candidates.get_clamped(stage);
            reuse.set_config(ReuseConfig::new(l, h, false));
        }
    }

    /// The `{L, H}` each layer is currently running (clamped stage).
    pub fn current_settings(&self) -> Vec<(usize, (usize, usize))> {
        self.plans.iter().map(|p| (p.layer_index, p.candidates.get_clamped(self.stage))).collect()
    }

    /// Runs the Amendment 3.1–3.3 switching procedure on a probe batch.
    ///
    /// `training_accuracy` selects between the two acceptance rules:
    /// below 0.5 a candidate must improve probe accuracy by ×1.5
    /// (Amendment 3.1); above, by +0.1 absolute (Amendment 3.2). If no
    /// stage passes, the first stage with ratio ≥ 1.1 is taken
    /// (Amendment 3.3); if even that fails, the controller takes a single
    /// step anyway so the schedule always progresses towards precision.
    pub fn advance(
        &mut self,
        net: &mut Network,
        probe_images: &Tensor4,
        probe_labels: &[usize],
        training_accuracy: f32,
    ) -> AdvanceOutcome {
        if self.is_exhausted() {
            return AdvanceOutcome::Exhausted;
        }
        // Accuracy with the current settings.
        self.apply_stage(net, self.stage);
        let a_cur = net.evaluate(probe_images, probe_labels).accuracy.max(1e-6);

        // Probe each later stage once, remembering accuracies.
        let first = self.stage + 1;
        let mut probe_acc = Vec::with_capacity(self.max_stage - self.stage);
        for stage in first..=self.max_stage {
            self.apply_stage(net, stage);
            probe_acc.push(net.evaluate(probe_images, probe_labels).accuracy);
        }

        // Amendments 3.1 / 3.2.
        let passes = |a_next: f32| {
            if training_accuracy < 0.5 {
                a_next / a_cur >= 1.5
            } else {
                a_next - a_cur >= 0.1
            }
        };
        let accepted = probe_acc
            .iter()
            .position(|&a| passes(a))
            .map(|off| (first + off, 1u8))
            // Amendment 3.3 fallback.
            .or_else(|| {
                probe_acc.iter().position(|&a| a / a_cur >= 1.1).map(|off| (first + off, 3u8))
            })
            // Forced single step: guarantee progress.
            .unwrap_or((first, 0u8));

        let (stage, rule) = accepted;
        self.stage = stage;
        self.apply_stage(net, stage);
        self.plateau.reset();
        AdvanceOutcome::Switched { stage, rule }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adr_nn::dense::Dense;
    use adr_nn::relu::Relu;
    use adr_tensor::im2col::ConvGeom;
    use adr_tensor::rng::AdrRng;

    fn reuse_net(seed: u64) -> Network {
        let mut rng = AdrRng::seeded(seed);
        let mut net = Network::new((8, 8, 3));
        let g1 = ConvGeom::new(8, 8, 3, 3, 3, 1, 0).unwrap();
        net.push(Box::new(ReuseConv2d::new(
            "conv1",
            g1,
            8,
            ReuseConfig::new(3, 4, false),
            &mut rng,
        )));
        net.push(Box::new(Relu::new("relu1")));
        let g2 = ConvGeom::new(6, 6, 8, 3, 3, 1, 0).unwrap();
        net.push(Box::new(ReuseConv2d::new(
            "conv2",
            g2,
            8,
            ReuseConfig::new(3, 4, false),
            &mut rng,
        )));
        net.push(Box::new(Relu::new("relu2")));
        net.push(Box::new(Dense::new("fc", 4 * 4 * 8, 4, &mut rng)));
        net
    }

    fn probe(seed: u64) -> (Tensor4, Vec<usize>) {
        let mut rng = AdrRng::seeded(seed);
        let images =
            Tensor4::from_fn(8, 8, 8, 3, |n, _, _, _| (n % 4) as f32 * 0.5 + 0.1 * rng.gauss());
        let labels = (0..8).map(|n| n % 4).collect();
        (images, labels)
    }

    #[test]
    fn controller_discovers_both_reuse_layers() {
        let mut net = reuse_net(1);
        let c = AdaptiveController::for_network(&mut net, 8, 6, 3, 0.01, 0).unwrap();
        assert_eq!(c.plans().len(), 2);
        assert_eq!(c.plans()[0].layer_index, 0);
        assert_eq!(c.plans()[1].layer_index, 2);
    }

    #[test]
    fn initial_stage_is_most_aggressive() {
        let mut net = reuse_net(2);
        let c = AdaptiveController::for_network(&mut net, 8, 6, 3, 0.01, 0).unwrap();
        for (layer_idx, (l, h)) in c.current_settings() {
            let plan = c.plans().iter().find(|p| p.layer_index == layer_idx).unwrap();
            assert_eq!((l, h), plan.candidates.settings()[0]);
        }
        // And the layers actually carry those configs.
        let any = net.layers_mut()[0].as_any_mut().unwrap();
        let reuse = any.downcast_mut::<ReuseConv2d>().unwrap();
        let cfg = reuse.config();
        assert_eq!((cfg.sub_vector_len, cfg.num_hashes), c.plans()[0].candidates.settings()[0]);
    }

    #[test]
    fn plateau_detection_fires_on_flat_loss() {
        let mut net = reuse_net(3);
        let mut c = AdaptiveController::for_network(&mut net, 8, 6, 2, 0.01, 0).unwrap();
        assert!(!c.observe_loss(1.0));
        assert!(!c.observe_loss(1.0));
        assert!(c.observe_loss(1.0));
    }

    #[test]
    fn advance_moves_forward_and_eventually_exhausts() {
        let mut net = reuse_net(4);
        let mut c = AdaptiveController::for_network(&mut net, 8, 4, 2, 0.01, 0).unwrap();
        let (images, labels) = probe(5);
        let mut stages = vec![c.stage()];
        for _ in 0..64 {
            match c.advance(&mut net, &images, &labels, 0.7) {
                AdvanceOutcome::Switched { stage, .. } => stages.push(stage),
                AdvanceOutcome::Exhausted => break,
            }
        }
        assert!(c.is_exhausted(), "controller should reach the end");
        assert!(stages.windows(2).all(|w| w[1] > w[0]), "stages strictly increase");
        // Final configs are each layer's most precise setting.
        for (layer_idx, (l, h)) in c.current_settings() {
            let plan = c.plans().iter().find(|p| p.layer_index == layer_idx).unwrap();
            assert_eq!((l, h), *plan.candidates.settings().last().unwrap());
        }
    }

    #[test]
    fn advance_applies_configs_to_layers() {
        let mut net = reuse_net(6);
        let mut c = AdaptiveController::for_network(&mut net, 8, 4, 2, 0.01, 0).unwrap();
        let (images, labels) = probe(7);
        c.advance(&mut net, &images, &labels, 0.2);
        let settings = c.current_settings();
        let any = net.layers_mut()[0].as_any_mut().unwrap();
        let cfg = any.downcast_mut::<ReuseConv2d>().unwrap().config();
        assert_eq!((cfg.sub_vector_len, cfg.num_hashes), settings[0].1);
    }

    #[test]
    fn dense_only_network_is_a_typed_error() {
        let mut rng = AdrRng::seeded(9);
        let mut net = Network::new((4, 4, 1));
        net.push(Box::new(Dense::new("fc", 16, 2, &mut rng)));
        let err = AdaptiveController::for_network(&mut net, 8, 4, 2, 0.01, 0).unwrap_err();
        assert_eq!(err, ControllerError::NoReuseLayers);
        assert!(err.to_string().contains("no ReuseConv2d"), "{err}");
    }

    #[test]
    fn snapshot_restore_round_trips_stage_and_plateau() {
        let mut net = reuse_net(10);
        let mut c = AdaptiveController::for_network(&mut net, 8, 4, 3, 0.01, 0).unwrap();
        let (images, labels) = probe(11);
        c.advance(&mut net, &images, &labels, 0.7);
        c.observe_loss(1.0);
        c.observe_loss(1.0);
        let snap = c.snapshot();

        let mut net2 = reuse_net(10);
        let mut c2 = AdaptiveController::for_network(&mut net2, 8, 4, 3, 0.01, 0).unwrap();
        c2.restore(&mut net2, &snap).unwrap();
        assert_eq!(c2.stage(), c.stage());
        assert_eq!(c2.current_settings(), c.current_settings());
        // Future plateau observations agree (same window).
        for _ in 0..4 {
            assert_eq!(c.observe_loss(1.0), c2.observe_loss(1.0));
        }
        // And the restored stage was applied to the layers.
        let any = net2.layers_mut()[0].as_any_mut().unwrap();
        let cfg = any.downcast_mut::<ReuseConv2d>().unwrap().config();
        assert_eq!((cfg.sub_vector_len, cfg.num_hashes), c2.current_settings()[0].1);
    }

    #[test]
    fn restore_rejects_out_of_range_stage() {
        let mut net = reuse_net(12);
        let mut c = AdaptiveController::for_network(&mut net, 8, 4, 3, 0.01, 0).unwrap();
        let bad = ControllerState {
            stage: c.max_stage() + 5,
            plateau: PlateauState { smoothed: None, best: f32::INFINITY, stale: 0, seen: 0 },
        };
        let err = c.restore(&mut net, &bad).unwrap_err();
        assert!(matches!(err, ControllerError::StageOutOfRange { .. }));
        assert_eq!(c.stage(), 0, "failed restore must not move the cursor");
    }

    #[test]
    fn tighten_walks_to_exhaustion_then_declines() {
        let mut net = reuse_net(13);
        let mut c = AdaptiveController::for_network(&mut net, 8, 4, 3, 0.01, 0).unwrap();
        let mut last = 0;
        while let Some(stage) = c.tighten(&mut net) {
            assert_eq!(stage, last + 1);
            last = stage;
        }
        assert!(c.is_exhausted());
        assert_eq!(last, c.max_stage());
        assert!(c.tighten(&mut net).is_none());
    }
}
