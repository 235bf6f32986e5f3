//! Deep-reuse convolution.
//!
//! This crate implements the computation-reuse machinery of the paper on
//! top of the `adr-nn` layer abstraction:
//!
//! * [`subvec`] — splits the unfolded `N × K` input matrix into
//!   `⌈K/L⌉` sub-matrices of neuron vectors of length `L` (Fig. 3).
//! * [`forward`] — clusters each sub-matrix with LSH, multiplies only the
//!   centroid matrix with the corresponding weight block, and scatters the
//!   centroid outputs back to all members (Fig. 2/3), optionally through the
//!   across-batch cluster-reuse cache (Algorithm 1).
//! * [`backward`] — consumes the *forward* clustering to compute the weight
//!   gradient `∇W_I = x_{c,I}ᵀ · δy_{c,I,s}` (Eq. 9/10) and the input delta
//!   `δx_{c,I} = δy_{c,I,sa} · W_Iᵀ` (Eq. 17/18) without re-clustering —
//!   the paper's key efficiency claim (§IV).
//! * [`layer::ReuseConv2d`] — a drop-in replacement for `adr_nn::conv::Conv2d`
//!   implementing `adr_nn::Layer`, retunable at runtime via
//!   [`layer::ReuseConv2d::set_config`], with a dense mode
//!   ([`layer::ReuseConv2d::exact_fallback`]) that runs `Conv2d`'s own GEMMs
//!   where exactness is wanted and hashing cannot pay.
//! * [`cost`] — the paper's complexity model (Eqs. 5, 6, 12, 20–23) used by
//!   the adaptive controller to order candidate `{L, H}` settings.
//! * [`stats`] — per-layer observability: remaining ratio `r_c`, cluster
//!   counts, reuse rate `R`, and FLOP breakdowns.
//!
//! # Notation (the paper's Table I → this workspace)
//!
//! | Paper | Meaning | Here |
//! |---|---|---|
//! | `Nb` | batch size | `Tensor4::batch()` |
//! | `Iw, Ih, Ic` | input width/height/channels | `ConvGeom::{in_w, in_h, in_c}` |
//! | `Ow, Oh` | output width/height | `ConvGeom::{out_w(), out_h()}` |
//! | `N` | unfolded rows per batch | `ConvGeom::rows_for_batch(Nb)` |
//! | `K` | weight-kernel size `Ic·kh·kw` | `ConvGeom::k()` |
//! | `M` | number of weight filters | `out_channels` |
//! | `s, kw, kh` | stride, kernel width/height | `ConvGeom::{stride, kernel_w, kernel_h}` |
//! | `Nimg` | unfolded rows per image | `ConvGeom::rows_per_image()` |
//! | `L` | sub-vector length | `ReuseConfig::sub_vector_len` |
//! | `H` | number of hash functions | `ReuseConfig::num_hashes` |
//! | `\|C\|` | number of clusters | `ClusterTable::num_clusters()` |
//! | `r_c` | remaining ratio `\|C\|/N` | `ReuseStats::avg_remaining_ratio` |
//! | `R` | across-batch reuse rate | `ReuseConv2d::mean_reuse_rate()` |
//! | `CR` | cluster-reuse flag | `ReuseConfig::cluster_reuse` |

#![warn(missing_docs)]
// Tests assert on values they just constructed; unwrap there is the idiom.
#![cfg_attr(test, allow(clippy::unwrap_used))]
// Exact float `==`/`!=` outside tests is a bug: compare against a tolerance.
// Typed, and `x == 0.0` IEEE special-case guards are exempt by clippy's design.
#![cfg_attr(not(test), deny(clippy::float_cmp))]
// Library code does not panic by accident: each deliberate `expect` / `panic!`
// carries an `#[expect(.., reason = "<category>: ..")]` on its item.
#![cfg_attr(not(test), deny(clippy::expect_used, clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod backward;
pub mod cost;
pub mod forward;
pub mod hashpack;
pub mod layer;
pub mod stats;
pub mod subvec;

pub use layer::{reuse_layers, ReuseConv2d};
pub use stats::ReuseStats;

/// Ways the fault-injection harness can corrupt a layer's LSH families —
/// the two clustering failure extremes a guardrail must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegenerateClustering {
    /// Every row lands in its own cluster: reuse silently vanishes and the
    /// layer does *more* work than dense (hashing overhead on top of the
    /// full GEMM). Realised by swapping in maximally fine (H = 64)
    /// families while the configured `H` stays small.
    AllSingleton,
    /// Every row collapses into one cluster: the output degenerates to a
    /// single centroid per sub-matrix and the loss destabilises. Realised
    /// by all-zero hyperplane families (every signature is 0).
    OneGiantCluster,
}

/// Clustering scope (§III-B "Cluster Scope"): which pool of neuron vectors
/// may share a cluster. The across-batch level is reached by additionally
/// setting the `CR` flag on the single-batch scope (Algorithm 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ClusterScope {
    /// Vectors may only cluster with vectors from the same input image.
    SingleInput,
    /// Vectors cluster across the whole mini-batch (the paper's default).
    #[default]
    SingleBatch,
}

/// Runtime-tunable knobs of a deep-reuse convolution — the parameters the
/// adaptive strategies adjust (§V): sub-vector length `L`, hash count `H`,
/// the cluster-reuse flag `CR`, plus the clustering scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReuseConfig {
    /// Neuron (sub-)vector length `L`; clamped to `K` by the layer.
    pub sub_vector_len: usize,
    /// Number of LSH hash functions `H` (1..=64).
    pub num_hashes: usize,
    /// Across-batch cluster reuse flag `CR`.
    pub cluster_reuse: bool,
    /// Clustering scope; [`ClusterScope::SingleBatch`] unless overridden
    /// with [`ReuseConfig::with_scope`].
    pub scope: ClusterScope,
}

impl ReuseConfig {
    /// Creates a single-batch-scope config.
    ///
    /// # Panics
    /// Panics if `sub_vector_len == 0` or `num_hashes` is outside `1..=64`.
    pub fn new(sub_vector_len: usize, num_hashes: usize, cluster_reuse: bool) -> Self {
        assert!(sub_vector_len > 0, "sub-vector length must be positive");
        assert!((1..=64).contains(&num_hashes), "num_hashes must be in 1..=64, got {num_hashes}");
        Self { sub_vector_len, num_hashes, cluster_reuse, scope: ClusterScope::SingleBatch }
    }

    /// Overrides the clustering scope.
    ///
    /// # Panics
    /// Panics when combining [`ClusterScope::SingleInput`] with cluster
    /// reuse: the across-batch cache is a *larger* scope, which contradicts
    /// restricting clusters to one image.
    pub fn with_scope(mut self, scope: ClusterScope) -> Self {
        assert!(
            !(self.cluster_reuse && scope == ClusterScope::SingleInput),
            "cluster reuse (across-batch scope) conflicts with single-input scope"
        );
        self.scope = scope;
        self
    }
}
