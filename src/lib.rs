//! # Adaptive Deep Reuse
//!
//! A Rust reproduction of *"Adaptive Deep Reuse: Accelerating CNN Training
//! on the Fly"* (Ning, Guan, Shen — ICDE 2019).
//!
//! This facade crate re-exports the workspace so downstream users (and the
//! `examples/` binaries) can depend on a single crate:
//!
//! * [`tensor`] — matrices, NHWC tensors, im2col, deterministic RNG.
//! * [`nn`] — the from-scratch CNN training stack.
//! * [`clustering`] — LSH, k-means, and the across-batch cluster-reuse cache.
//! * [`reuse`] — the deep-reuse convolution layer (forward + backward reuse).
//! * [`adaptive`] — the paper's contribution: policies, candidate schedules,
//!   the plateau-driven controller, and the three training strategies.
//! * [`data`] — seeded synthetic datasets standing in for CIFAR-10/ImageNet.
//! * [`models`] — CifarNet / AlexNet / VGG-19 builders.
//! * [`serve`] — deadline-aware inference serving through one gateway:
//!   per-tenant admission, micro-batching, load-shedding, a reuse
//!   degradation ladder per lane, and hot-swappable model replicas.
//! * [`obs`] — deterministic telemetry: metric sinks, span timers,
//!   Prometheus/JSON exporters.
//! * [`bench`] — the two seeded workloads behind the golden counter
//!   documents `BENCH_train.json` / `BENCH_serve.json` (no times: wall
//!   time is `benchmark/`'s job).
//!
//! ## Quickstart
//!
//! ```
//! use adaptive_deep_reuse::prelude::*;
//!
//! // A tiny synthetic dataset and a CifarNet-style model.
//! let mut rng = AdrRng::seeded(7);
//! let dataset = SynthDataset::cifar_like(64, 4, &mut rng);
//! let (images, labels) = dataset.batch(0, 8);
//! assert_eq!(images.shape(), (8, 32, 32, 3));
//! assert_eq!(labels.len(), 8);
//! ```

// Tests assert on values they just constructed; unwrap there is the idiom.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod bench;
pub mod source;

pub use adr_clustering as clustering;
pub use adr_core as adaptive;
pub use adr_data as data;
pub use adr_models as models;
pub use adr_nn as nn;
pub use adr_obs as obs;
pub use adr_reuse as reuse;
pub use adr_serve as serve;
pub use adr_tensor as tensor;

/// Convenient glob-import surface for examples and applications.
pub mod prelude {
    pub use crate::source::{DatasetSource, ShuffledSource};
    pub use adr_clustering::lsh::LshTable;
    pub use adr_core::controller::AdaptiveController;
    pub use adr_core::faults::{FaultKind, FaultPlan, ServeFaultKind, ServeFaultPlan};
    pub use adr_core::guardrails::{GuardrailConfig, GuardrailEvent, GuardrailEventKind};
    pub use adr_core::policy::{HRange, LRange};
    pub use adr_core::state::{StateError, TrainState};
    pub use adr_core::strategy::Strategy;
    pub use adr_core::trainer::{
        CheckpointPolicy, TrainError, TrainOptions, Trainer, TrainerConfig,
    };
    pub use adr_data::synth::{SynthConfig, SynthDataset};
    pub use adr_models::{alexnet, cifarnet, vgg19};
    pub use adr_nn::{
        Adam, Checkpoint, CheckpointError, Layer, LrSchedule, Mode, Network, Optimizer, Sgd,
    };
    pub use adr_reuse::layer::ReuseConv2d;
    pub use adr_reuse::{ClusterScope, ReuseConfig};
    pub use adr_serve::{
        ArtifactKind, EngineError, Gateway, GatewayConfig, InferResponse, LadderConfig,
        ManualClock, ModelRegistry, MonotonicClock, NetFactory, RequestError, ServeEventKind,
        ServeReport, StagePolicy, SwapError, TenantConfig,
    };
    pub use adr_tensor::rng::AdrRng;
    pub use adr_tensor::{Matrix, Tensor4};
}
