//! Seeded synthetic image datasets.
//!
//! The paper evaluates on CIFAR-10 and ImageNet, which are not available in
//! this environment. The substitution (documented in DESIGN.md) preserves
//! the property deep reuse exploits: natural images are locally smooth and
//! repetitive, so the receptive-field rows of the unfolded input matrix are
//! highly similar. [`synth::SynthDataset`] reproduces that redundancy with
//! per-class smoothed templates plus translation jitter and pixel noise —
//! classes stay separable (networks can learn) while neighbouring patches
//! stay correlated (neuron vectors cluster).

#![warn(missing_docs)]
// Tests assert on values they just constructed; unwrap there is the idiom.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod synth;

pub use synth::{SynthConfig, SynthDataset};
