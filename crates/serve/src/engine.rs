//! The replica executor: one frozen network, one applied reuse policy.
//!
//! An [`Engine`] is what a registry entry holds and what
//! [`Gateway::poll`](crate::gateway::Gateway::poll) hands an assembled
//! micro-batch to. It owns the frozen [`Network`] (every forward pass runs
//! with `Mode::Eval` semantics via [`Network::infer`]), the stage policy
//! currently applied to the network's reuse layers, the output sanitizer
//! (NaN quarantine with one retry on the exact GEMM path) and the health
//! streak. Admission, queues, deadlines, time, the ladders, the fault plan
//! and the report all live in the gateway; the engine only reports back
//! what one batch did ([`BatchRun`]).

use adr_nn::layer::Shape3;
use adr_nn::network::Network;
use adr_reuse::{reuse_layers, ReuseConfig, ReuseConv2d};
use adr_tensor::sanitize::first_non_finite;
use adr_tensor::Tensor4;

use crate::error::RequestError;
use crate::ladder::StagePolicy;

/// What one [`Engine::run`] did.
#[derive(Debug)]
pub struct BatchRun {
    /// The batch's logits, or the error every request in it is failed with.
    pub outcome: Result<Tensor4, RequestError>,
    /// The first non-finite `(flat index, value)` of the first forward's
    /// output, when the sanitizer quarantined it and re-ran the batch on
    /// the exact path.
    pub quarantined: Option<(usize, f32)>,
    /// Forward multiply–adds this batch actually performed (both passes of
    /// a retried batch).
    pub flops_actual: u64,
    /// Forward multiply–adds the dense path would have performed.
    pub flops_exact: u64,
}

/// A frozen network behind the output sanitizer.
pub struct Engine {
    net: Network,
    /// The stage policy currently applied to the network's reuse layers;
    /// `None` forces a re-apply on the next batch. Tracked by *value* so a
    /// gateway driving per-tenant ladders through one replica never serves
    /// one tenant's batch under another tenant's reuse configuration.
    applied: Option<StagePolicy>,
    consecutive_poisoned: u32,
}

impl Engine {
    /// Wraps an already-built (and already-restored) network.
    pub fn new(net: Network) -> Self {
        Self { net, applied: None, consecutive_poisoned: 0 }
    }

    /// Runs one assembled batch under `policy`, quarantining and retrying a
    /// poisoned output on the exact GEMM path. `poison_output` is the fault
    /// harness's hook: it overwrites the first logit of the first forward
    /// with NaN.
    ///
    /// The outcome is [`RequestError::NonFiniteOutput`] when the batch stays
    /// poisoned even on the exact retry, [`RequestError::ShapeMismatch`] if
    /// the batch disagrees with the network (unreachable when the caller
    /// validates at admission).
    pub fn run(&mut self, batch: &Tensor4, policy: StagePolicy, poison_output: bool) -> BatchRun {
        // The meters restart with every batch, so what they read afterwards
        // is this batch's work alone — whatever ran through the network
        // before (a swap's warm-verify probe, earlier batches) is not in it.
        self.net.reset_flops();
        if self.applied != Some(policy) {
            self.apply_policy(policy);
            self.applied = Some(policy);
        }
        let mut quarantined = None;
        let outcome = self.run_sanitized(batch, poison_output, &mut quarantined);
        BatchRun {
            outcome,
            quarantined,
            flops_actual: self.net.flops().forward,
            flops_exact: self.net.baseline_flops().forward,
        }
    }

    fn run_sanitized(
        &mut self,
        batch: &Tensor4,
        poison_output: bool,
        quarantined: &mut Option<(usize, f32)>,
    ) -> Result<Tensor4, RequestError> {
        let mut logits = self.infer(batch)?;
        if poison_output {
            if let Some(first) = logits.as_mut_slice().first_mut() {
                *first = f32::NAN;
            }
        }
        *quarantined = first_non_finite(logits.as_slice());
        if quarantined.is_none() {
            self.consecutive_poisoned = 0;
            return Ok(logits);
        }
        // Retry once on the exact path: if the poison came from aggressive
        // clustering state, the dense GEMM never reads it. Entering dense
        // mode keeps that state, so scrub it here — a poisoned cached row or
        // a corrupted family must not outlive the quarantine.
        self.apply_policy(StagePolicy::Exact);
        reuse_layers(&mut self.net).for_each(ReuseConv2d::rebuild_families);
        self.applied = None;
        let retried = self.infer(batch)?;
        match first_non_finite(retried.as_slice()) {
            None => {
                self.consecutive_poisoned = 0;
                Ok(retried)
            }
            Some((index, _)) => {
                // Still poisoned on the exact path: the poison is in the
                // inputs or weights, not the reuse approximation. Fail the
                // batch rather than surface NaN.
                self.consecutive_poisoned += 1;
                Err(RequestError::NonFiniteOutput { index })
            }
        }
    }

    fn infer(&mut self, batch: &Tensor4) -> Result<Tensor4, RequestError> {
        self.net
            .infer(batch)
            .map_err(|e| RequestError::ShapeMismatch { expected: e.expected, found: e.found })
    }

    /// Applies a stage policy to every reuse layer in the network. Dense
    /// layers are unaffected — a dense-only network simply has no dial.
    fn apply_policy(&mut self, policy: StagePolicy) {
        for reuse in reuse_layers(&mut self.net) {
            match policy {
                StagePolicy::Exact => reuse.exact_fallback(),
                StagePolicy::Reuse { sub_vector_len, num_hashes, cluster_reuse } => {
                    reuse.set_config(ReuseConfig::new(sub_vector_len, num_hashes, cluster_reuse));
                }
            }
        }
    }

    /// Liveness/health probe: `false` once repeated batches stayed
    /// non-finite even on the exact path (poison is upstream of reuse, the
    /// instance needs its checkpoint investigated).
    pub fn healthy(&self) -> bool {
        self.consecutive_poisoned < 3
    }

    /// The frozen network's expected per-image input shape.
    pub fn input_shape(&self) -> Shape3 {
        self.net.input_shape()
    }

    /// The frozen network's per-image output shape.
    pub fn output_shape(&self) -> Shape3 {
        self.net.output_shape()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use adr_nn::conv::Conv2d;
    use adr_nn::dense::Dense;
    use adr_nn::relu::Relu;
    use adr_reuse::ReuseConfig;
    use adr_tensor::im2col::ConvGeom;
    use adr_tensor::rng::AdrRng;

    pub(crate) fn tiny_net(seed: u64) -> Network {
        let mut rng = AdrRng::seeded(seed);
        let mut net = Network::new((6, 6, 1));
        let geom = ConvGeom::new(6, 6, 1, 3, 3, 1, 0).unwrap();
        net.push(Box::new(Conv2d::new("conv1", geom, 4, &mut rng)));
        net.push(Box::new(Relu::new("relu1")));
        net.push(Box::new(Dense::new("fc", 4 * 4 * 4, 3, &mut rng)));
        net
    }

    pub(crate) fn image(seed: f32) -> Tensor4 {
        Tensor4::from_fn(1, 6, 6, 1, |_, y, x, _| seed + (y * 6 + x) as f32 * 0.01)
    }

    /// [`tiny_net`] with a reuse convolution, the layer the policies dial.
    fn tiny_reuse_net(seed: u64) -> Network {
        let mut rng = AdrRng::seeded(seed);
        let mut net = Network::new((6, 6, 1));
        let geom = ConvGeom::new(6, 6, 1, 3, 3, 1, 0).unwrap();
        let config = ReuseConfig::new(3, 4, false);
        net.push(Box::new(ReuseConv2d::new("conv1", geom, 4, config, &mut rng)));
        net.push(Box::new(Relu::new("relu1")));
        net.push(Box::new(Dense::new("fc", 4 * 4 * 4, 3, &mut rng)));
        net
    }

    const CR_RUNG: StagePolicy =
        StagePolicy::Reuse { sub_vector_len: 3, num_hashes: 8, cluster_reuse: true };

    /// Cluster count and across-batch hit rate of the engine's reuse layer,
    /// as of its latest forward pass.
    fn clusters_and_hit_rate(engine: &mut Engine) -> (f64, f64) {
        let reuse = reuse_layers(&mut engine.net).next().unwrap();
        (reuse.stats().avg_clusters, reuse.mean_reuse_rate())
    }

    #[test]
    fn a_stage_zero_visit_keeps_the_lanes_families_and_caches() {
        let mut engine = Engine::new(tiny_reuse_net(9));
        let batch = image(0.3);
        let exact = engine.run(&batch, StagePolicy::Exact, false);
        assert_eq!(exact.flops_actual, exact.flops_exact, "stage 0 is the dense GEMM");
        engine.run(&batch, CR_RUNG, false);
        let (first_clusters, first_hits) = clusters_and_hit_rate(&mut engine);
        assert_eq!(first_hits.to_bits(), 0.0f64.to_bits(), "cold caches");
        engine.run(&batch, StagePolicy::Exact, false);
        engine.run(&batch, CR_RUNG, false);
        let (second_clusters, second_hits) = clusters_and_hit_rate(&mut engine);
        assert_eq!(second_clusters.to_bits(), first_clusters.to_bits(), "same families");
        assert_eq!(second_hits.to_bits(), 1.0f64.to_bits(), "every signature was cached");
    }

    #[test]
    fn a_quarantine_scrubs_the_reuse_state_the_dense_retry_kept() {
        let mut engine = Engine::new(tiny_reuse_net(9));
        let batch = image(0.3);
        let warm = engine.run(&batch, CR_RUNG, false);
        let poisoned = engine.run(&batch, CR_RUNG, true);
        assert!(poisoned.quarantined.is_some());
        assert!(poisoned.outcome.unwrap().as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(poisoned.flops_exact, 2 * warm.flops_exact, "both passes metered");
        // The batch after the quarantine: rebuilt families (a pure function
        // of the seed and `{L, H}`) and empty caches, as in a fresh engine.
        engine.run(&batch, CR_RUNG, false);
        let after = clusters_and_hit_rate(&mut engine);
        let mut fresh = Engine::new(tiny_reuse_net(9));
        fresh.run(&batch, CR_RUNG, false);
        let reference = clusters_and_hit_rate(&mut fresh);
        assert_eq!(after.0.to_bits(), reference.0.to_bits());
        assert_eq!(
            (after.1.to_bits(), reference.1.to_bits()),
            (0.0f64.to_bits(), 0.0f64.to_bits())
        );
    }

    #[test]
    fn poisoned_output_is_quarantined_and_never_surfaces() {
        let mut engine = Engine::new(tiny_net(9));
        // The poison hits the first forward's logits only; the exact retry
        // comes back clean, so the caller still gets finite logits — but
        // the quarantine is on the record.
        let run = engine.run(&image(0.3), StagePolicy::Exact, true);
        assert!(run.outcome.unwrap().as_slice().iter().all(|v| v.is_finite()));
        assert!(matches!(run.quarantined, Some((0, v)) if v.is_nan()));
        assert!(engine.healthy());
        let clean = engine.run(&image(0.3), StagePolicy::Exact, false);
        assert_eq!(clean.quarantined, None);
        assert_eq!(run.flops_exact, 2 * clean.flops_exact, "a retried batch meters both passes");
    }

    #[test]
    fn meters_read_as_one_batch_and_probes_report_the_network() {
        let mut engine = Engine::new(tiny_net(9));
        assert!(engine.healthy());
        assert_eq!(engine.input_shape(), (6, 6, 1));
        assert_eq!(engine.output_shape(), (1, 1, 3));
        let first = engine.run(&image(0.1), StagePolicy::Exact, false);
        let second = engine.run(&image(0.2), StagePolicy::Exact, false);
        assert!(first.flops_exact > 0);
        assert_eq!(first.flops_exact, second.flops_exact, "deltas, not running totals");
        assert_eq!(first.flops_actual, second.flops_actual);
    }
}
