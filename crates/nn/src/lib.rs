//! A from-scratch CNN training stack.
//!
//! The paper implements adaptive deep reuse inside TensorFlow; this crate is
//! the equivalent substrate built in Rust: convolution via im2col + GEMM,
//! pooling, dense layers, softmax/cross-entropy, SGD with momentum, and
//! exact FLOP accounting so computation savings can be reported with the
//! paper's own complexity formulas.
//!
//! # Architecture
//!
//! * [`layer::Layer`] — the object-safe layer trait. Layers cache whatever
//!   they need during `forward` and consume it in `backward`.
//! * [`network::Network`] — a sequential container with a softmax
//!   cross-entropy head, wired to [`sgd::Sgd`].
//! * [`flops::FlopMeter`] — every layer meters the multiply–adds it actually
//!   performs, which is how the reuse crate reports the paper's
//!   *remaining ratio* based savings.
//!
//! The baseline convolution lives in [`conv::Conv2d`]; the deep-reuse
//! replacement (`ReuseConv2d`) lives in the `adr-reuse` crate and implements
//! the same [`layer::Layer`] trait, so models can swap one for the other.

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

pub mod checkpoint;
pub mod conv;
pub mod dense;
pub mod durable;
pub mod flops;
pub mod init;
pub mod layer;
pub mod metrics;
pub mod network;
pub mod optimizer;
pub mod pool;
pub mod relu;
pub mod sgd;
pub mod softmax;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use flops::{FlopMeter, FlopReport};
pub use layer::{Layer, Mode, ParamRefMut, Shape3};
pub use network::Network;
pub use optimizer::Optimizer;
pub use sgd::{LrSchedule, Sgd};
