//! Online clustering substrate for deep reuse.
//!
//! Three pieces, mirroring §III of the paper:
//!
//! * [`lsh`] — random-hyperplane locality-sensitive hashing (Eq. 4). Each
//!   neuron vector is mapped to an `H`-bit signature; equal signatures form
//!   a cluster. This is the *online* method used during training.
//! * [`kmeans`] — k-means++ clustering, used (as in the paper, §VI-A) only
//!   to *verify* that neuron-vector similarity exists: it is slower but
//!   produces higher-quality clusters, exposing the full reuse potential.
//! * [`reuse_cache`] — the across-batch cluster-reuse table of Algorithm 1:
//!   signatures seen in earlier batches keep their computed outputs, and new
//!   batches reuse them, with the per-batch reuse rate `R` tracked.
//!
//! [`assign::ClusterTable`] is the common output format: a row→cluster
//! assignment plus per-cluster sizes, from which centroid matrices and the
//! paper's *remaining ratio* `r_c = |C|/N` are derived.

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

pub mod assign;
pub mod hasher;
pub mod kmeans;
pub mod lsh;
pub mod normalize;
pub mod reuse_cache;

pub use assign::ClusterTable;
pub use lsh::LshTable;
pub use reuse_cache::ReuseCache;
