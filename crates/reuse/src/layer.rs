//! `ReuseConv2d` — a drop-in deep-reuse replacement for `Conv2d`, and an
//! overlay on one: the layer owns the `Conv2d` whose weights it clusters
//! against, and its dense mode is that convolution.

use adr_clustering::lsh::LshTable;
use adr_clustering::reuse_cache::ReuseCache;
use adr_nn::conv::Conv2d;
use adr_nn::flops::{FlopMeter, FlopReport};
use adr_nn::layer::{Layer, Mode, ParamRefMut, Shape3};
use adr_nn::Network;
use adr_tensor::im2col::{unfold_into, ConvGeom};
use adr_tensor::matrix::Matrix;
use adr_tensor::rng::AdrRng;
use adr_tensor::scratch;
use adr_tensor::Tensor4;

use crate::backward::{fold_input_grad, reuse_backward};
use crate::cost::{first_layer_step_cost, training_step_cost, CostParams};
use crate::forward::{reuse_forward_with, ReuseArena};
use crate::hashpack::PackedHasher;
use crate::stats::ReuseStats;
use crate::subvec::SubVecSplit;
use crate::{DegenerateClustering, ReuseConfig};

/// Training batches between cache invalidations when `CR = 1`. Cached
/// outputs reflect the weights at insertion time; unbounded reuse (a faithful
/// Algorithm 1) destabilised training at our learning rates, so during
/// training the layer drops them every eighth batch — the staleness bound
/// that makes Strategy 3 trainable here (EXPERIMENTS.md, deviation 3).
/// Inference forwards never invalidate (weights are frozen).
const CACHE_REFRESH_EVERY: usize = 8;

/// Every [`ReuseConv2d`] of `net`, in layer order — the one place that knows
/// how a reuse layer is found behind `dyn Layer`.
pub fn reuse_layers(net: &mut Network) -> impl Iterator<Item = &mut ReuseConv2d> {
    net.layers_mut().iter_mut().filter_map(|layer| layer.as_any_mut()?.downcast_mut())
}

/// A convolutional layer that applies adaptive deep reuse.
///
/// The layer wraps an `adr_nn::conv::Conv2d`, which holds its name,
/// geometry, weights, gradients, velocities and bias. In reuse mode the
/// layer computes the im2col GEMM through LSH clustering and centroid reuse
/// against the conv's weights, and both backward products from the forward
/// clustering into the conv's gradients. The three knobs `{L, H, CR}` can
/// be retuned at any time with [`ReuseConv2d::set_config`]; the adaptive
/// controller in `adr-core` does exactly that between training stages.
///
/// The layer also has a *dense mode* ([`ReuseConv2d::exact_fallback`]) in
/// which `forward`, `backward` and `backward_params_only` are the wrapped
/// conv's own — the exact path, where reuse cannot pay (`H ≪ M·(1 − r_c)`
/// fails at `r_c = 1`). The layer then only records its statistics and
/// telemetry for the pass.
pub struct ReuseConv2d {
    /// The baseline convolution: parameters, their gradients and velocities,
    /// and everything dense mode runs on — its training unfold and its FLOP
    /// meter.
    conv: Conv2d,
    config: ReuseConfig,
    /// Dense mode: forward and backward are `conv`'s instead of the reuse
    /// machinery's. Entered by [`ReuseConv2d::exact_fallback`], left by
    /// [`ReuseConv2d::set_config`]; `config`, the hasher (the LSH families)
    /// and the CR caches sit untouched underneath, so a visit costs nothing to
    /// enter or leave.
    dense: bool,
    split: SubVecSplit,
    /// Base seed from which LSH families are derived; families are a pure
    /// function of `(seed, L, H)`, so identical configs hash identically —
    /// a requirement of across-batch cluster reuse (§III-B).
    lsh_seed: u64,
    caches: Vec<ReuseCache>,
    /// Training batches since the CR caches were last invalidated (see
    /// [`CACHE_REFRESH_EVERY`]).
    train_batches_since_refresh: usize,
    /// Batch size of the latest reuse-mode *training* forward pass, whose
    /// clustering the arena holds for the backward pass (§IV: the backward
    /// pass reuses the forward clustering instead of re-clustering). `None`
    /// once the backward pass consumed it, or when the families changed
    /// under it. Dense mode's pending batch is the conv's.
    cached_batch: Option<usize>,
    /// Whether the latest backward pass was [`Layer::backward_params_only`],
    /// so that [`ReuseConv2d::modelled_step_cost`] models the products the
    /// meters counted.
    input_delta_skipped: bool,
    /// The current LSH families, one per sub-matrix of `split`, packed for
    /// one hashing pass; rebuilt whenever the families are (config retune,
    /// degenerate-clustering injection, repair).
    hasher: PackedHasher,
    /// Recycled forward and backward buffers (one state per sub-matrix —
    /// clustering, cache slots, centroids, centroid gradients, band offset
    /// — and the per-block scratch of each fan-out, the backward's cluster
    /// gradients included) — steady-state steps reuse its heap capacity.
    /// Nothing in it is `N × K`, `N × ⌈K/L⌉` or `Σ_I |C_I| × M`: the
    /// unfold, the signatures and each band's cluster outputs are the
    /// thread's [`scratch`].
    arena: ReuseArena,
    /// The reuse passes' work; dense passes meter in `conv`.
    meter: FlopMeter,
    stats: ReuseStats,
}

/// The LSH families of `config` over `split`, one per sub-matrix, each
/// derived deterministically from `(lsh_seed, L, H, i)`.
fn config_families(split: &SubVecSplit, config: ReuseConfig, lsh_seed: u64) -> Vec<LshTable> {
    split
        .ranges()
        .iter()
        .enumerate()
        .map(|(i, &(a, b))| {
            let mix = lsh_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((config.sub_vector_len as u64) << 32)
                .wrapping_add((config.num_hashes as u64) << 16)
                .wrapping_add(i as u64);
            LshTable::new(b - a, config.num_hashes, &mut AdrRng::seeded(mix))
        })
        .collect()
}

impl ReuseConv2d {
    /// Creates a reuse convolution with He-normal weights.
    pub fn new(
        name: impl Into<String>,
        geom: ConvGeom,
        out_channels: usize,
        config: ReuseConfig,
        rng: &mut AdrRng,
    ) -> Self {
        let conv = Conv2d::new(name, geom, out_channels, rng);
        let lsh_seed = rng.next_u64();
        let split = SubVecSplit::new(geom.k(), config.sub_vector_len);
        let hasher = PackedHasher::new(&split, &config_families(&split, config, lsh_seed));
        let mut layer = Self {
            conv,
            config,
            dense: false,
            split,
            lsh_seed,
            caches: Vec::new(),
            train_batches_since_refresh: 0,
            cached_batch: None,
            input_delta_skipped: false,
            hasher,
            arena: ReuseArena::default(),
            meter: FlopMeter::new(),
            stats: ReuseStats::default(),
        };
        layer.caches = layer.fresh_caches();
        layer
    }

    /// Builds a `ReuseConv2d` taking geometry, weights and bias from an
    /// existing dense convolution (used to apply reuse to a trained model,
    /// as the inference experiments of §VI-A/§VI-B1 do).
    pub fn from_dense(conv: &Conv2d, config: ReuseConfig, rng: &mut AdrRng) -> Self {
        let mut layer = Self::new(
            format!("{}-reuse", conv.name()),
            *conv.geom(),
            conv.out_channels(),
            config,
            rng,
        );
        let sources = [conv.weight().as_slice(), conv.bias()];
        for (param, source) in layer.conv.params_mut().into_iter().zip(sources) {
            param.data.copy_from_slice(source);
        }
        layer
    }

    fn rebuild_for_config(&mut self) {
        self.split = SubVecSplit::new(self.conv.geom().k(), self.config.sub_vector_len);
        let families = config_families(&self.split, self.config, self.lsh_seed);
        self.hasher = PackedHasher::new(&self.split, &families);
        self.caches = self.fresh_caches();
        self.cached_batch = None;
    }

    /// One empty CR cache per sub-matrix when `CR = 1`, none otherwise.
    fn fresh_caches(&self) -> Vec<ReuseCache> {
        if !self.config.cluster_reuse {
            return Vec::new();
        }
        let m = self.conv.out_channels();
        (0..self.split.num_sub_vectors()).map(|_| ReuseCache::new(m)).collect()
    }

    /// The active reuse configuration.
    pub fn config(&self) -> ReuseConfig {
        self.config
    }

    /// Retunes `{L, H, CR}` and leaves dense mode. The sub-vector length is
    /// clamped to `K`. A changed configuration rebuilds all LSH families and
    /// clears the cluster-reuse caches (old signatures are meaningless under
    /// a new family); the configuration the families were built for keeps
    /// both, so returning from [`ReuseConv2d::exact_fallback`] is free.
    pub fn set_config(&mut self, mut config: ReuseConfig) {
        config.sub_vector_len = config.sub_vector_len.min(self.conv.geom().k());
        self.set_dense(false);
        if config == self.config {
            return;
        }
        self.config = config;
        self.rebuild_for_config();
    }

    /// Flips between the reuse and dense code paths. A training forward of
    /// one mode cannot feed the other mode's backward, so a real change
    /// drops the pending batch of both, and the conv's training unfold with
    /// it.
    fn set_dense(&mut self, dense: bool) {
        if self.dense != dense {
            self.dense = dense;
            self.cached_batch = None;
            self.conv.drop_pending_batch();
        }
    }

    /// Rebuilds the LSH families and caches from the current config — the
    /// repair step after [`ReuseConv2d::inject_degenerate_clustering`].
    /// Unlike [`ReuseConv2d::set_config`] (which early-returns when the
    /// config is unchanged) this always re-derives the families, so it also
    /// clears injected corruption under an identical `{L, H, CR}`.
    pub fn rebuild_families(&mut self) {
        self.rebuild_for_config();
    }

    /// Deterministically corrupts the LSH families to one of the two
    /// clustering failure extremes, leaving the configured `{L, H, CR}`
    /// untouched — exactly what a memory fault or a buggy family rebuild
    /// would look like to the rest of the system. Guardrails detect both:
    /// all-singleton via `avg_clusters > 2^H` (impossible under the
    /// configured family) and one-giant via a collapsed remaining ratio.
    /// Repair with [`ReuseConv2d::rebuild_families`].
    pub fn inject_degenerate_clustering(&mut self, mode: DegenerateClustering) {
        let families: Vec<LshTable> = self
            .split
            .ranges()
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| match mode {
                DegenerateClustering::AllSingleton => {
                    // Maximally fine families: 64 hashes make collisions
                    // between distinct rows vanishingly unlikely.
                    let mix =
                        self.lsh_seed.wrapping_mul(0xD134_2543_DE82_EF95).wrapping_add(i as u64);
                    LshTable::new(b - a, 64, &mut AdrRng::seeded(mix))
                }
                DegenerateClustering::OneGiantCluster => {
                    LshTable::constant(b - a, self.config.num_hashes)
                }
            })
            .collect();
        // Old signatures are meaningless under the corrupted families.
        self.hasher = PackedHasher::new(&self.split, &families);
        self.caches = self.fresh_caches();
        self.cached_batch = None;
    }

    /// Drops to the exact im2col GEMM path by entering dense mode: from the
    /// next pass on, the layer's passes *are* its `Conv2d`'s, at exactly the
    /// dense FLOP count — serving's stage 0, the sanitizer's retry, and the
    /// guardrails' last resort when tightening runs out of reuse stages. A
    /// pure flip: `{L, H, CR}`, the LSH
    /// families and the CR caches are kept for [`ReuseConv2d::set_config`]
    /// to return to (use [`ReuseConv2d::rebuild_families`] to scrub them).
    pub fn exact_fallback(&mut self) {
        self.set_dense(true);
    }

    /// Whether the layer is in dense mode (nothing is hashed or clustered;
    /// [`ReuseConv2d::stats`] then describes a dense pass).
    pub fn is_dense(&self) -> bool {
        self.dense
    }

    /// The layer's convolution geometry.
    pub fn geom(&self) -> &ConvGeom {
        self.conv.geom()
    }

    /// Number of weight filters `M`.
    pub fn out_channels(&self) -> usize {
        self.conv.out_channels()
    }

    /// Observability snapshot from the latest forward pass.
    pub fn stats(&self) -> ReuseStats {
        self.stats
    }

    /// The paper's modelled relative training-step cost (Eqs. 5/6/12/20)
    /// evaluated with the *measured* remaining ratio and reuse rate of the
    /// latest forward pass, over the products the latest backward pass ran
    /// (Eq. 20 drops out, on both sides of the ratio, after a
    /// [`Layer::backward_params_only`]). `1.0` means "as expensive as dense"
    /// — which is what dense mode costs; returns `None` before any forward
    /// pass has produced statistics.
    pub fn modelled_step_cost(&self) -> Option<f64> {
        if self.stats.rows == 0 {
            return None;
        }
        if self.dense {
            return Some(1.0);
        }
        let p = CostParams {
            m: self.conv.out_channels(),
            l: self.split.l(),
            h: self.config.num_hashes,
            rc: self.stats.avg_remaining_ratio,
            reuse_rate: self.mean_reuse_rate(),
        };
        let cost =
            if self.input_delta_skipped { first_layer_step_cost } else { training_step_cost };
        Some(cost(&p, self.config.cluster_reuse))
    }

    /// Pushes the latest forward pass's reuse statistics into the installed
    /// telemetry recorder (DESIGN.md §11): per-layer `r_c`, cluster counts, the
    /// across-batch hit rate, and per-phase FLOP attribution whose sum is
    /// exactly `ReuseStats::total_forward_flops()`. No-op without a recorder.
    fn record_telemetry(&self, baseline: u64) {
        if !adr_obs::is_active() {
            return;
        }
        let layer = self.conv.name();
        let labels = [("layer", layer)];
        adr_obs::counter_add("adr_reuse_batches", &labels, 1);
        adr_obs::gauge_set("adr_reuse_rc", &labels, self.stats.avg_remaining_ratio);
        adr_obs::gauge_set("adr_reuse_clusters_avg", &labels, self.stats.avg_clusters);
        adr_obs::gauge_set("adr_reuse_hit_rate", &labels, self.stats.reuse_rate);
        // Per-phase FLOP attribution: im2col and cluster grouping perform no
        // multiply–adds, so hash + centroid-GEMM + scatter cover the total.
        let phases = [
            ("hash", self.stats.hash_flops),
            ("centroid_gemm", self.stats.gemm_flops),
            ("scatter", self.stats.add_flops),
        ];
        for (phase, flops) in phases {
            adr_obs::counter_add(
                "adr_reuse_phase_flops",
                &[("layer", layer), ("phase", phase)],
                flops,
            );
        }
        adr_obs::counter_add("adr_reuse_flops_actual", &labels, self.stats.total_forward_flops());
        adr_obs::counter_add("adr_reuse_flops_exact", &labels, baseline);
    }

    /// Mean across-batch reuse rate `R`; zero when CR = 0.
    ///
    /// Uses the in-flight batch's rate when available (the latest forward
    /// pass), falling back to the mean over completed batches.
    pub fn mean_reuse_rate(&self) -> f64 {
        if self.caches.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .caches
            .iter()
            .map(|c| c.current_batch_rate().unwrap_or_else(|| c.mean_reuse_rate()))
            .sum();
        sum / self.caches.len() as f64
    }

    /// Borrows the weight matrix.
    pub fn weight(&self) -> &Matrix {
        self.conv.weight()
    }

    /// Borrows the bias.
    pub fn bias(&self) -> &[f32] {
        self.conv.bias()
    }

    /// The clustered forward pass (Figs. 2/3): unfolds into the thread's
    /// scratch, clusters and multiplies through [`reuse_forward_with`], and
    /// meters what ran against `baseline`.
    #[expect(
        clippy::expect_used,
        reason = "internal-invariant: the output has exactly the element count of the geometry passed beside it"
    )]
    fn clustered_forward(&mut self, input: &Tensor4, mode: Mode, baseline: u64) -> Tensor4 {
        let geom = *self.conv.geom();
        let mut unfolded = scratch::unfolded(geom.rows_for_batch(input.batch()) * geom.k());
        {
            let _span = adr_obs::span_phase(adr_obs::Phase::Im2col);
            unfold_into(input, &geom, &mut unfolded);
        }
        let caches = if self.config.cluster_reuse {
            for c in &mut self.caches {
                c.begin_batch();
            }
            Some(self.caches.as_mut_slice())
        } else {
            None
        };
        let outcome = reuse_forward_with(
            &unfolded,
            self.conv.weight(),
            self.conv.bias(),
            &self.split,
            &self.hasher,
            caches,
            mode,
            &mut self.arena,
        );
        self.stats = outcome.stats;
        self.meter.add_forward(self.stats.total_forward_flops(), baseline);
        self.cached_batch = (mode == Mode::Train).then_some(input.batch());
        let (out_h, out_w, m) = (geom.out_h(), geom.out_w(), self.conv.out_channels());
        Tensor4::from_vec(input.batch(), out_h, out_w, m, outcome.output.into_vec())
            .expect("output shape arithmetic is consistent")
    }

    /// Consumes the pending reuse-mode training forward: fills `∇W` and
    /// `∇b` from its clustering and, when `want_input`, leaves the centroid
    /// gradients `δx_c` in the arena for the fold. Meters what ran against
    /// what a dense layer would have run for the same request. Returns the
    /// batch size.
    #[expect(
        clippy::expect_used,
        reason = "layer-protocol: backward before a training forward is a training-loop bug (`Layer` contract)"
    )]
    fn clustered_backward(&mut self, grad_out: &Tensor4, want_input: bool) -> usize {
        let batch =
            self.cached_batch.take().expect("backward called without a preceding training forward");
        let (weight, weight_grad, bias_grad) = self.conv.weight_and_grads();
        let flops = reuse_backward(
            &mut self.arena,
            &self.split,
            weight,
            grad_out.as_slice(),
            weight_grad,
            bias_grad,
            want_input,
        );
        let products = if want_input { 2 } else { 1 };
        let (geom, m) = (self.conv.geom(), self.conv.out_channels());
        let baseline = (products * geom.rows_for_batch(batch) * geom.k() * m) as u64;
        self.meter.add_backward(flops, baseline);
        batch
    }
}

impl Layer for ReuseConv2d {
    fn name(&self) -> &str {
        self.conv.name()
    }

    fn output_shape(&self, input: Shape3) -> Shape3 {
        self.conv.output_shape(input)
    }

    fn forward(&mut self, input: &Tensor4, mode: Mode) -> Tensor4 {
        // Telemetry: attribute the phase spans below (and those inside
        // `reuse_forward`) to this layer. No-op when no recorder is installed.
        adr_obs::enter_layer(self.conv.name());
        if self.config.cluster_reuse && mode == Mode::Train {
            // Weights move with every training step, dense or not, so dense
            // batches age the cached outputs too.
            self.train_batches_since_refresh += 1;
            if self.train_batches_since_refresh >= CACHE_REFRESH_EVERY {
                self.train_batches_since_refresh = 0;
                for c in &mut self.caches {
                    c.invalidate_outputs();
                }
            }
        }
        let geom = *self.conv.geom();
        let n = geom.rows_for_batch(input.batch());
        let baseline = (n * geom.k() * self.conv.out_channels()) as u64;
        let output = if self.dense {
            let _span = adr_obs::span_phase(adr_obs::Phase::CentroidGemm);
            // Every row is its own "cluster": r_c = 1, nothing hashed,
            // nothing scattered.
            self.stats = ReuseStats {
                rows: n,
                num_sub_vectors: 1,
                avg_clusters: n as f64,
                avg_remaining_ratio: 1.0,
                gemm_flops: baseline,
                ..ReuseStats::default()
            };
            self.conv.forward(input, mode)
        } else {
            self.clustered_forward(input, mode, baseline)
        };
        self.record_telemetry(baseline);
        output
    }

    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        self.input_delta_skipped = false;
        if self.dense {
            return self.conv.backward(grad_out);
        }
        let batch = self.clustered_backward(grad_out, true);
        fold_input_grad(&self.arena, &self.split, self.conv.geom(), batch)
    }

    fn backward_params_only(&mut self, grad_out: &Tensor4) {
        self.input_delta_skipped = true;
        if self.dense {
            self.conv.backward_params_only(grad_out);
        } else {
            self.clustered_backward(grad_out, false);
        }
    }

    fn params_mut(&mut self) -> Vec<ParamRefMut<'_>> {
        self.conv.params_mut()
    }

    fn flops(&self) -> FlopReport {
        self.conv.flops().merged(&self.meter.actual())
    }

    fn baseline_flops(&self) -> FlopReport {
        self.conv.baseline_flops().merged(&self.meter.baseline())
    }

    fn reset_flops(&mut self) {
        self.conv.reset_flops();
        self.meter.reset();
    }

    /// Restores the merged counts into the reuse meter and zeroes the
    /// conv's, so [`Layer::flops`] reads back exactly what was saved.
    fn restore_flops(&mut self, actual: FlopReport, baseline: FlopReport) {
        self.conv.reset_flops();
        self.meter.restore(actual, baseline);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> ConvGeom {
        ConvGeom::new(6, 6, 2, 3, 3, 1, 0).unwrap()
    }

    fn reuse_layer(l: usize, h: usize, cr: bool, seed: u64) -> ReuseConv2d {
        ReuseConv2d::new("rc", geom(), 4, ReuseConfig::new(l, h, cr), &mut AdrRng::seeded(seed))
    }

    /// `(∇W, ∇b)` as the optimizer reads them.
    fn grads(layer: &mut ReuseConv2d) -> (Vec<f32>, Vec<f32>) {
        let params = layer.params_mut();
        (params[0].grad.to_vec(), params[1].grad.to_vec())
    }

    #[test]
    fn forward_shape_matches_dense_conv() {
        let mut layer = reuse_layer(18, 12, false, 1);
        let x = Tensor4::zeros(2, 6, 6, 2);
        let y = layer.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), (2, 4, 4, 4));
    }

    #[test]
    fn matches_dense_conv_when_clusters_are_fine() {
        // Same weights as a dense conv; many hashes → near-singleton
        // clusters → output approximates the dense conv closely.
        let mut rng = AdrRng::seeded(2);
        let dense = Conv2d::new("c", geom(), 4, &mut rng);
        let mut layer = ReuseConv2d::from_dense(&dense, ReuseConfig::new(18, 40, false), &mut rng);
        let mut dense = {
            let mut rng2 = AdrRng::seeded(2);
            Conv2d::new("c", geom(), 4, &mut rng2)
        };
        let x = Tensor4::from_fn(2, 6, 6, 2, |n, y, xx, c| {
            ((n * 53 + y * 17 + xx * 7 + c * 3) % 19) as f32 * 0.1 - 0.9
        });
        let y_reuse = layer.forward(&x, Mode::Eval);
        let y_dense = dense.forward(&x, Mode::Eval);
        let max_diff = y_reuse
            .as_slice()
            .iter()
            .zip(y_dense.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff < 0.15, "max diff {max_diff}");
    }

    #[test]
    fn saves_flops_against_baseline_on_redundant_input() {
        // Profitability needs H << M(1 - r_c) (§III-B), so use a wide layer.
        let mut layer = ReuseConv2d::new(
            "rc",
            geom(),
            32,
            ReuseConfig::new(9, 4, false),
            &mut AdrRng::seeded(3),
        );
        // Constant image: massive redundancy between receptive fields.
        let x = Tensor4::from_fn(2, 6, 6, 2, |_, _, _, c| c as f32 + 1.0);
        layer.forward(&x, Mode::Eval);
        assert!(layer.stats().avg_remaining_ratio < 0.3);
        assert!(layer.flops().forward < layer.baseline_flops().forward);
    }

    #[test]
    fn train_forward_then_backward_produces_all_gradients() {
        let mut layer = reuse_layer(6, 10, false, 4);
        let x = Tensor4::from_fn(1, 6, 6, 2, |_, y, xx, c| ((y + xx + c) % 5) as f32 * 0.3);
        layer.forward(&x, Mode::Train);
        let g = Tensor4::from_vec(1, 4, 4, 4, vec![1.0; 64]).unwrap();
        let dx = layer.backward(&g);
        assert_eq!(dx.shape(), (1, 6, 6, 2));
        let (weight_grad, bias_grad) = grads(&mut layer);
        let wnorm: f32 = weight_grad.iter().map(|v| v * v).sum();
        assert!(wnorm > 0.0);
        assert!(bias_grad.iter().all(|&b| (b - 16.0).abs() < 1e-4));
    }

    #[test]
    fn only_a_training_forward_keeps_its_clustering_for_backward() {
        let mut layer = reuse_layer(6, 10, false, 4);
        let x = Tensor4::from_fn(2, 6, 6, 2, |_, y, xx, c| ((y + xx + c) % 5) as f32 * 0.3);
        layer.forward(&x, Mode::Train);
        let subs = layer.arena.sub_matrices();
        assert_eq!(subs.len(), 3);
        assert!(subs.iter().all(|s| s.table().num_rows() == 32 && s.centroids().cols() == 6));
        // An evaluation pass has no backward: it frees the tables instead of
        // pinning an evaluation batch's worth of them in every layer.
        layer.forward(&x, Mode::Eval);
        let subs = layer.arena.sub_matrices();
        assert!(subs.iter().all(|s| s.table().num_rows() == 0 && s.centroids().rows() == 0));
        layer.forward(&x, Mode::Train);
        assert_eq!(layer.backward(&Tensor4::zeros(2, 4, 4, 4)).shape(), (2, 6, 6, 2));
    }

    /// The adaptive trainer's probe: an `Eval` forward at 4× the batch
    /// between two training steps. It frees the tables and centroids and
    /// leaves the other recycled buffers (signatures, the band's cluster
    /// rows) sized and filled for the larger batch, so the next training
    /// step must
    /// rewrite all it reads: its ∇W, ∇b and δx are bitwise those of a twin
    /// that skipped the probe.
    #[test]
    fn a_probe_between_two_training_steps_leaves_the_next_gradients_unchanged() {
        let mut rng = AdrRng::seeded(50);
        let pixel = |n: usize, y: usize, xx: usize, c: usize| ((n + y * 2 + xx + c) % 4) as f32;
        let mut batch = |images: usize, noise: f32| {
            Tensor4::from_fn(images, 6, 6, 2, |n, y, xx, c| {
                pixel(n, y, xx, c) + noise * rng.gauss()
            })
        };
        // A noisy probe clusters into many more, smaller clusters.
        let (x1, probe, x2) = (batch(2, 0.1), batch(8, 2.0), batch(2, 0.1));
        let g1 = Tensor4::from_fn(2, 4, 4, 4, |n, y, xx, c| (n + y + xx + c) as f32 * 0.1 - 0.5);
        let g2 = Tensor4::from_fn(2, 4, 4, 4, |n, y, xx, c| (n * y + xx * c) as f32 * 0.07 - 0.3);
        let mut probed = reuse_layer(6, 8, false, 51);
        let mut twin = reuse_layer(6, 8, false, 51);
        for layer in [&mut probed, &mut twin] {
            layer.forward(&x1, Mode::Train);
            layer.backward(&g1);
        }
        probed.forward(&probe, Mode::Eval);
        assert!(probed.stats().avg_clusters > 2.0 * twin.stats().avg_clusters, "precondition");
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let [got, want] = [&mut probed, &mut twin].map(|layer| {
            layer.forward(&x2, Mode::Train);
            let dx = layer.backward(&g2);
            let (weight_grad, bias_grad) = grads(layer);
            (bits(&weight_grad), bits(&bias_grad), bits(dx.as_slice()))
        });
        assert_eq!(got.0, want.0, "∇W");
        assert_eq!(got.1, want.1, "∇b");
        assert_eq!(got.2, want.2, "δx");
    }

    /// Every output, `∇W`, `∇b` and folded `δx` of `layer` on `x` (one
    /// training step), against the allocating oracles: `reuse_forward` on a
    /// fresh unfold, `reuse_backward`, the row gather and `col2im`.
    fn assert_step_matches_oracles(layer: &mut ReuseConv2d, x: &Tensor4, g: &Tensor4, what: &str) {
        use crate::backward::input_grad_row;
        use crate::forward::reuse_forward;
        use adr_tensor::im2col::{col2im, im2col};
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let geom = *layer.geom();
        let x_unf = im2col(x, &geom);
        let families = config_families(&layer.split, layer.config, layer.lsh_seed);
        let (want, mut arena) =
            reuse_forward(&x_unf, layer.weight(), layer.bias(), &layer.split, &families, None);
        assert_eq!(bits(layer.forward(x, Mode::Train).as_slice()), bits(want.output.as_slice()));
        let (k, m) = layer.weight().shape();
        let (mut weight_grad, mut bias_grad) = (Matrix::zeros(k, m), vec![0.0; m]);
        let split = &layer.split;
        reuse_backward(
            &mut arena,
            split,
            layer.weight(),
            g.as_slice(),
            &mut weight_grad,
            &mut bias_grad,
            true,
        );
        let mut delta_x_unf = Matrix::zeros(x_unf.rows(), k);
        for r in 0..x_unf.rows() {
            input_grad_row(&arena, split, r, delta_x_unf.row_mut(r));
        }
        let delta_x = col2im(&delta_x_unf, &geom, x.batch());
        assert_eq!(bits(layer.backward(g).as_slice()), bits(delta_x.as_slice()), "{what}: δx");
        let (got_weight_grad, got_bias_grad) = grads(layer);
        assert_eq!(bits(&got_weight_grad), bits(weight_grad.as_slice()), "{what}: ∇W");
        assert_eq!(bits(&got_bias_grad), bits(&bias_grad), "{what}: ∇b");
    }

    /// Two reuse layers of different `(N, K)` share the thread's unfold and
    /// signature scratch, with an `Eval` forward at 4× the batch between two
    /// training steps — the adaptive trainer's probe — growing it: every
    /// pass reads only the prefix it wrote.
    #[test]
    fn layers_sharing_the_thread_scratch_match_the_allocating_oracles() {
        // `a`: N = 16 per image, K = 18; `b` on its output: N = 4, K = 36.
        let geom_b = ConvGeom::new(4, 4, 4, 3, 3, 2, 1).unwrap();
        let mut a = reuse_layer(5, 6, false, 60);
        let config = ReuseConfig::new(8, 6, false);
        let mut b = ReuseConv2d::new("b", geom_b, 3, config, &mut AdrRng::seeded(61));
        let mut rng = AdrRng::seeded(62);
        let mut images = |n: usize| {
            Tensor4::from_fn(n, 6, 6, 2, |i, y, xx, c| {
                ((i + y * 2 + xx + c) % 4) as f32 + 0.1 * rng.gauss()
            })
        };
        let (x1, probe, x2) = (images(2), images(8), images(2));
        let g_a = Tensor4::from_fn(2, 4, 4, 4, |i, y, xx, c| ((i * y + xx + c) % 5) as f32 * 0.1);
        let g_b = Tensor4::from_fn(2, 2, 2, 3, |i, y, xx, c| (i + y * 2 + xx + c) as f32 * 0.1);
        for (step, x) in [&x1, &x2].into_iter().enumerate() {
            if step == 1 {
                let h = a.forward(&probe, Mode::Eval);
                b.forward(&h, Mode::Eval);
            }
            let h = a.forward(x, Mode::Eval);
            assert_step_matches_oracles(&mut b, &h, &g_b, &format!("b, step {step}"));
            assert_step_matches_oracles(&mut a, x, &g_a, &format!("a, step {step}"));
        }
    }

    #[test]
    fn backward_gradient_approximates_dense_gradient() {
        // With near-singleton clusters, the reuse gradients approximate the
        // dense conv gradients.
        let mut rng = AdrRng::seeded(5);
        let dense_proto = Conv2d::new("c", geom(), 4, &mut rng);
        let mut layer =
            ReuseConv2d::from_dense(&dense_proto, ReuseConfig::new(18, 45, false), &mut rng);
        let mut dense = {
            let mut rng2 = AdrRng::seeded(5);
            Conv2d::new("c", geom(), 4, &mut rng2)
        };
        // Gaussian input: receptive-field rows are distinct, so with H = 45
        // clusters are singletons and reuse degenerates to the exact conv.
        let mut xrng = AdrRng::seeded(55);
        let x = Tensor4::from_fn(1, 6, 6, 2, |_, _, _, _| xrng.gauss());
        layer.forward(&x, Mode::Train);
        dense.forward(&x, Mode::Train);
        let g = Tensor4::from_fn(1, 4, 4, 4, |_, y, xx, c| ((y + xx + c) % 3) as f32 - 1.0);
        let dx_reuse = layer.backward(&g);
        let dx_dense = dense.backward(&g);
        let diff = dx_reuse
            .as_slice()
            .iter()
            .zip(dx_dense.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(diff < 0.5, "max dx diff {diff}");
    }

    #[test]
    fn set_config_clamps_l_and_clears_cache_state() {
        let mut layer = reuse_layer(6, 8, true, 6);
        let x = Tensor4::from_fn(1, 6, 6, 2, |_, _, _, _| 1.0);
        layer.forward(&x, Mode::Eval);
        assert!(!layer.caches.is_empty());
        layer.set_config(ReuseConfig::new(10_000, 12, true));
        assert_eq!(layer.config().sub_vector_len, 18); // clamped to K
        assert!(layer.caches.iter().all(|c| c.is_empty()));
    }

    #[test]
    fn cluster_reuse_reduces_gemm_work_on_repeated_batches() {
        let mut layer = reuse_layer(9, 8, true, 7);
        let x = Tensor4::from_fn(2, 6, 6, 2, |_, y, xx, c| ((y * 2 + xx + c) % 4) as f32);
        layer.forward(&x, Mode::Eval);
        let first_gemm = layer.stats().gemm_flops;
        layer.forward(&x, Mode::Eval);
        let second_gemm = layer.stats().gemm_flops;
        assert_eq!(second_gemm, 0, "second identical batch must fully reuse (first {first_gemm})");
        assert!(layer.mean_reuse_rate() > 0.9);
    }

    /// A forward pass no backward follows skips the centroids of all-hit
    /// sub-matrices; the twin that trains must see the same bits, the same
    /// statistics and end with the same caches.
    #[test]
    fn eval_and_train_forwards_agree_bitwise_under_cluster_reuse() {
        let mut eval = reuse_layer(6, 8, true, 11);
        let mut train = reuse_layer(6, 8, true, 11);
        let mut rng = AdrRng::seeded(12);
        let pixel = |y: usize, xx: usize, c: usize| ((y * 2 + xx + c) % 4) as f32;
        let base = Tensor4::from_fn(2, 6, 6, 2, |_, y, xx, c| pixel(y, xx, c));
        let noisy = Tensor4::from_fn(2, 6, 6, 2, |n, y, xx, c| {
            pixel(y, xx, c) + if n == 1 { rng.gauss() } else { 0.0 }
        });
        let bits = |t: &Tensor4| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Cold, then half new, then all hits.
        let mut hit_rates = Vec::new();
        for x in [&base, &noisy, &base] {
            let (a, b) = (eval.forward(x, Mode::Eval), train.forward(x, Mode::Train));
            assert_eq!(bits(&a), bits(&b));
            let (sa, sb) = (eval.stats(), train.stats());
            assert_eq!((sa.gemm_flops, sa.rows), (sb.gemm_flops, sb.rows));
            let f64s = |s: ReuseStats| [s.avg_clusters, s.reuse_rate].map(f64::to_bits);
            assert_eq!(f64s(sa), f64s(sb));
            hit_rates.push(eval.mean_reuse_rate());
        }
        assert!(hit_rates[0] == 0.0 && hit_rates[1] > 0.0 && hit_rates[1] < 1.0, "{hit_rates:?}");
        assert_eq!(hit_rates[2], 1.0);
        let row_bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (a, b) in eval.caches.iter_mut().zip(&mut train.caches) {
            assert_eq!(a.len(), b.len());
            for sig in 0..256 {
                assert_eq!(a.probe(sig).map(row_bits), b.probe(sig).map(row_bits));
            }
        }
    }

    #[test]
    fn modelled_step_cost_tracks_measured_savings() {
        let mut layer = reuse_layer(9, 6, false, 30);
        assert!(layer.modelled_step_cost().is_none(), "no stats before forward");
        // Redundant input: model must predict a sub-dense cost.
        let x = Tensor4::from_fn(2, 6, 6, 2, |_, _, _, c| c as f32 - 0.5);
        layer.forward(&x, Mode::Train);
        layer.backward(&Tensor4::zeros(2, 4, 4, 4));
        let model = layer.modelled_step_cost().expect("stats available");
        assert!(model < 1.0, "modelled cost {model}");
        let measured = layer.flops().total() as f64 / layer.baseline_flops().total() as f64;
        // The model counts the same terms the meter counts; allow slack for
        // the H/M hashing term granularity.
        assert!((model - measured).abs() < 0.35, "model {model} vs measured {measured}");
    }

    #[test]
    fn injected_one_giant_cluster_collapses_remaining_ratio() {
        let mut layer = reuse_layer(9, 8, false, 40);
        let mut rng = AdrRng::seeded(41);
        let x = Tensor4::from_fn(2, 6, 6, 2, |_, _, _, _| rng.gauss());
        layer.forward(&x, Mode::Eval);
        let healthy_rc = layer.stats().avg_remaining_ratio;
        layer.inject_degenerate_clustering(DegenerateClustering::OneGiantCluster);
        layer.forward(&x, Mode::Eval);
        let broken = layer.stats();
        assert!((broken.avg_clusters - 1.0).abs() < 1e-9, "clusters {}", broken.avg_clusters);
        assert!(broken.avg_remaining_ratio < 0.05, "rc {}", broken.avg_remaining_ratio);
        // Repair restores the exact healthy clustering (same derived seed).
        layer.rebuild_families();
        layer.forward(&x, Mode::Eval);
        assert_eq!(layer.stats().avg_remaining_ratio.to_bits(), healthy_rc.to_bits());
    }

    #[test]
    fn injected_all_singleton_exceeds_the_configured_family_capacity() {
        // H = 4 caps legitimate clustering at 2^4 = 16 clusters; the
        // corrupted family blows past that — the guardrail's signal.
        let mut layer = reuse_layer(9, 4, false, 42);
        let mut rng = AdrRng::seeded(43);
        let x = Tensor4::from_fn(4, 6, 6, 2, |_, _, _, _| rng.gauss());
        layer.forward(&x, Mode::Eval);
        assert!(layer.stats().avg_clusters <= 16.0);
        layer.inject_degenerate_clustering(DegenerateClustering::AllSingleton);
        layer.forward(&x, Mode::Eval);
        let stats = layer.stats();
        assert!(stats.avg_clusters > 16.0, "clusters {}", stats.avg_clusters);
    }

    #[test]
    fn exact_fallback_is_the_dense_conv_bitwise_under_an_untouched_config() {
        let mut rng = AdrRng::seeded(44);
        let dense_proto = Conv2d::new("c", geom(), 4, &mut rng);
        let config = ReuseConfig::new(6, 4, false);
        let mut layer = ReuseConv2d::from_dense(&dense_proto, config, &mut rng);
        let mut dense = Conv2d::new("c", geom(), 4, &mut AdrRng::seeded(44));
        let mut xrng = AdrRng::seeded(45);
        let x = Tensor4::from_fn(2, 6, 6, 2, |_, _, _, _| xrng.gauss());
        layer.exact_fallback();
        assert!(layer.is_dense());
        assert_eq!(layer.config(), config, "dense mode sits beside the config, not in it");
        let y_reuse = layer.forward(&x, Mode::Eval);
        let y_dense = dense.forward(&x, Mode::Eval);
        let bits = |t: &Tensor4| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y_reuse), bits(&y_dense));
        // A dense pass: N rows, r_c = 1, the dense GEMM and nothing else.
        let (n, work) = (2 * 4 * 4, (2 * 4 * 4 * 18 * 4) as u64);
        let stats = layer.stats();
        assert_eq!((stats.rows, stats.avg_remaining_ratio.to_bits()), (n, 1.0f64.to_bits()));
        assert_eq!((stats.hash_flops, stats.gemm_flops, stats.add_flops), (0, work, 0));
        assert_eq!(layer.flops(), layer.baseline_flops());
        assert_eq!(layer.flops(), dense.flops());
        assert_eq!(layer.modelled_step_cost(), Some(1.0));
    }

    #[test]
    fn a_dense_visit_keeps_families_and_cr_caches_for_the_same_config() {
        let mut layer = reuse_layer(9, 8, true, 7);
        let x = Tensor4::from_fn(2, 6, 6, 2, |_, y, xx, c| ((y * 2 + xx + c) % 4) as f32);
        layer.forward(&x, Mode::Eval);
        let first = layer.stats();
        assert!(first.gemm_flops > 0);
        layer.exact_fallback();
        layer.forward(&x, Mode::Eval);
        assert_eq!(layer.stats().gemm_flops, (32 * 18 * 4) as u64, "N·K·M, nothing hashed");
        // Back to the configuration the families were built for: nothing is
        // rebuilt, so the clustering repeats and every signature hits.
        layer.set_config(layer.config());
        assert!(!layer.is_dense());
        layer.forward(&x, Mode::Eval);
        let second = layer.stats();
        assert_eq!(second.avg_clusters.to_bits(), first.avg_clusters.to_bits());
        assert_eq!(second.gemm_flops, 0, "the caches survived the dense visit");
        // A different configuration still rebuilds and starts cold.
        layer.exact_fallback();
        layer.set_config(ReuseConfig::new(9, 6, true));
        layer.forward(&x, Mode::Eval);
        assert!(layer.stats().gemm_flops > 0);
    }

    /// A training forward of one mode never feeds the other mode's backward,
    /// nor the same mode's after a visit to the other: both pending batches
    /// are dropped on every real mode change.
    #[test]
    fn a_mode_change_between_forward_and_backward_drops_the_pending_batch() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (x, g) = (Tensor4::zeros(1, 6, 6, 2), Tensor4::zeros(1, 4, 4, 4));
        let backward_panic = |dense_first: bool| {
            let mut layer = reuse_layer(6, 10, false, 4);
            if dense_first {
                // Dense forward, a free round trip through reuse mode under
                // the same configuration, back to dense: the conv's batch is
                // stale.
                layer.exact_fallback();
                layer.forward(&x, Mode::Train);
                layer.set_config(layer.config());
            } else {
                layer.forward(&x, Mode::Train);
            }
            layer.exact_fallback();
            let payload = catch_unwind(AssertUnwindSafe(|| layer.backward(&g))).unwrap_err();
            let message = payload.downcast_ref::<&str>().map(ToString::to_string);
            message.or_else(|| payload.downcast_ref::<String>().cloned()).unwrap_or_default()
        };
        for dense_first in [false, true] {
            let message = backward_panic(dense_first);
            assert!(message.contains("backward called without"), "{dense_first}: {message:?}");
        }
    }

    #[test]
    fn dense_mode_trains_like_the_dense_conv() {
        use adr_nn::Sgd;
        let mut rng = AdrRng::seeded(46);
        let mut dense = Conv2d::new("c", geom(), 4, &mut rng);
        let mut layer =
            ReuseConv2d::from_dense(&dense, ReuseConfig::new(6, 4, false), &mut AdrRng::seeded(47));
        layer.exact_fallback();
        let x = Tensor4::from_fn(2, 6, 6, 2, |_, _, _, _| rng.gauss());
        let g = Tensor4::from_fn(2, 4, 4, 4, |_, _, _, _| rng.gauss());
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for _ in 0..2 {
            dense.forward(&x, Mode::Train);
            layer.forward(&x, Mode::Train);
            assert_eq!(bits(layer.backward(&g).as_slice()), bits(dense.backward(&g).as_slice()));
            Sgd::constant(0.1).apply(&mut dense.params_mut());
            Sgd::constant(0.1).apply(&mut layer.params_mut());
            assert_eq!(bits(layer.weight().as_slice()), bits(dense.weight().as_slice()));
            assert_eq!(bits(layer.bias()), bits(dense.bias()));
        }
        assert_eq!(layer.flops(), dense.flops());
        assert_eq!(layer.baseline_flops(), dense.flops());
    }

    /// `backward_params_only` in both modes: the parameter gradients are
    /// bitwise those of `backward`, the input-delta product leaves the meters
    /// on both sides, and the modelled cost follows what ran.
    #[test]
    fn params_only_backward_matches_backward_and_meters_what_ran() {
        let mut rng = AdrRng::seeded(48);
        let x = Tensor4::from_fn(2, 6, 6, 2, |_, _, _, _| rng.gauss());
        let g = Tensor4::from_fn(2, 4, 4, 4, |_, _, _, _| rng.gauss());
        let nkm = (2 * 4 * 4 * 18 * 4) as u64;
        for dense in [false, true] {
            let mut full = reuse_layer(6, 10, false, 49);
            let mut skip = reuse_layer(6, 10, false, 49);
            if dense {
                full.exact_fallback();
                skip.exact_fallback();
            }
            full.forward(&x, Mode::Train);
            skip.forward(&x, Mode::Train);
            full.backward(&g);
            skip.backward_params_only(&g);
            let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let ((skip_w, skip_b), (full_w, full_b)) = (grads(&mut skip), grads(&mut full));
            assert_eq!((bits(&skip_w), bits(&skip_b)), (bits(&full_w), bits(&full_b)));
            assert_eq!(full.baseline_flops().backward, 2 * nkm, "dense = {dense}");
            assert_eq!(skip.baseline_flops().backward, nkm, "dense = {dense}");
            // What left the actual side is the product that did not run:
            // N·K·M in dense mode, Σ |C_I|·L_I·M (= the centroid GEMM's
            // count) in reuse mode.
            let skipped = if dense { nkm } else { full.stats().gemm_flops };
            assert_eq!(full.flops().backward - skip.flops().backward, skipped, "dense = {dense}");
            assert!(skip.modelled_step_cost() >= full.modelled_step_cost(), "dense = {dense}");
            // The pending batch is consumed either way (in dense mode it is
            // the conv's, whose own tests pin that).
            assert!(skip.cached_batch.is_none());
        }
    }

    #[test]
    fn config_is_idempotent() {
        let mut layer = reuse_layer(9, 8, false, 8);
        let cfg = layer.config();
        layer.set_config(cfg);
        assert_eq!(layer.config(), cfg);
    }

    #[test]
    fn as_any_allows_downcast() {
        let mut layer: Box<dyn Layer> = Box::new(reuse_layer(9, 8, false, 9));
        let any = layer.as_any_mut().expect("reuse layer exposes Any");
        assert!(any.downcast_mut::<ReuseConv2d>().is_some());
    }

    #[test]
    fn sgd_training_step_applies_updates() {
        use adr_nn::Sgd;
        let mut layer = reuse_layer(6, 12, false, 10);
        let before = layer.weight().as_slice().to_vec();
        let x = Tensor4::from_fn(1, 6, 6, 2, |_, y, xx, _| (y * 6 + xx) as f32 * 0.05);
        layer.forward(&x, Mode::Train);
        layer.backward(&Tensor4::from_vec(1, 4, 4, 4, vec![0.5; 64]).unwrap());
        let mut sgd = Sgd::constant(0.1);
        let mut params = layer.params_mut();
        sgd.apply(&mut params);
        let after = layer.weight().as_slice();
        assert!(before.iter().zip(after).any(|(a, b)| (a - b).abs() > 1e-9));
    }
}
