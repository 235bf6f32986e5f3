//! Dense numeric substrate for the adaptive-deep-reuse workspace.
//!
//! This crate provides the small set of linear-algebra primitives that the
//! CNN training stack and the deep-reuse machinery are built on:
//!
//! * [`Matrix`] — a row-major, heap-allocated `f32` matrix with a blocked
//!   GEMM kernel and the two transposed-product variants
//!   ([`Matrix::matmul_t_a`], [`Matrix::matmul_t_b`]) that the backward pass
//!   of a convolutional layer needs.
//! * [`Tensor4`] — an NHWC 4-D tensor used for images and activation maps.
//! * [`mod@im2col`] — the unfold/fold pair that turns a convolution into a GEMM,
//!   with the channel-major-by-row layout that makes the paper's
//!   *neuron vectors* (length-`kw` kernel-row segments) contiguous.
//! * [`rng`] — deterministic, seedable random sources (uniform and Gaussian)
//!   so that every experiment in the workspace is reproducible.
//! * [`par`] — row-block parallelism for the GEMM kernel, dispatched onto
//!   the persistent worker pool in [`kernels::pool`].
//! * [`simd`] / [`kernels`] — the 8-lane `f32` vector type and the
//!   hand-vectorized lane kernels every hot inner loop bottoms out in: one
//!   portable source each, compiled at 128 and 256 bits (and at 512 for the
//!   three dense products) and picked from the CPU observed at run time
//!   ([`kernels::lanes`] says which).
//! * [`sanitize`] — the first-non-finite scan that serving's admission and
//!   output quarantine and the trainer's guardrails report through.
//!
//! The paper's notation (N, K, M, L, H, ...) is used throughout the
//! workspace; see the crate-level docs of `adr-reuse` for the mapping.

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

pub mod im2col;
// The workspace's only home for `unsafe` (`unsafe_code` is denied everywhere
// else): run-time dispatch into `#[target_feature]` clones and the pool's
// scoped-job lifetime erasure.
#[allow(unsafe_code)]
pub mod kernels;
pub mod matrix;
pub mod par;
pub mod rng;
pub mod sanitize;
pub mod simd;
pub mod tensor4;

pub use im2col::{col2im, im2col, ConvGeom};
pub use matrix::Matrix;
pub use tensor4::Tensor4;
