//! Benchmark network builders (Table II of the paper).
//!
//! Each model comes in two forms:
//!
//! * a [`spec::ModelSpec`] describing the *paper-scale* layer geometry
//!   (kernels, channels, strides), against which the Table II K/M ranges
//!   are asserted by unit tests — no weights are allocated;
//! * a trainable **bench-scale** [`adr_nn::Network`] with reduced spatial
//!   dimensions / channel counts that keeps the same depth and relative
//!   K-growth, so adaptive-deep-reuse behaviour is preserved at CPU-feasible
//!   cost (see DESIGN.md "Substitutions"). CifarNet is small enough that its
//!   paper-scale network is also constructible.
//!
//! Every convolution can be built dense ([`ConvMode::Dense`]) or with deep
//! reuse ([`ConvMode::Reuse`]), so the same topology serves as baseline and
//! optimised network.

#![warn(missing_docs)]
// Tests assert on values they just constructed; unwrap there is the idiom.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod alexnet;
pub mod cifarnet;
pub mod spec;
pub mod vgg19;

use adr_nn::conv::Conv2d;
use adr_nn::Layer;
use adr_reuse::{ReuseConfig, ReuseConv2d};
use adr_tensor::im2col::ConvGeom;
use adr_tensor::rng::AdrRng;

pub use spec::{ConvSpec, ModelSpec};

/// Whether convolutions are built dense or with deep reuse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConvMode {
    /// Plain im2col convolution (the paper's baseline).
    Dense,
    /// Deep-reuse convolution with this initial configuration. The adaptive
    /// controller may retune it later.
    Reuse(ReuseConfig),
}

impl ConvMode {
    /// Builds one convolution layer in this mode.
    pub fn build(
        &self,
        name: &str,
        geom: ConvGeom,
        out_channels: usize,
        rng: &mut AdrRng,
    ) -> Box<dyn Layer> {
        match *self {
            ConvMode::Dense => Box::new(Conv2d::new(name, geom, out_channels, rng)),
            ConvMode::Reuse(cfg) => Box::new(ReuseConv2d::new(name, geom, out_channels, cfg, rng)),
        }
    }

    /// The initial reuse mode: `{L = 8, H = 8, CR = 0}`, the benchmark's
    /// fixed setting, which the adaptive controller retunes later. `L` need
    /// not divide a layer's `K` — the last sub-vector of a row is shorter.
    pub fn reuse_default() -> Self {
        ConvMode::Reuse(ReuseConfig::new(8, 8, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_mode_builds_both_kinds() {
        let mut rng = AdrRng::seeded(1);
        let geom = ConvGeom::new(8, 8, 3, 3, 3, 1, 1).unwrap();
        let dense = ConvMode::Dense.build("d", geom, 4, &mut rng);
        assert_eq!(dense.name(), "d");
        let reuse = ConvMode::reuse_default().build("r", geom, 4, &mut rng);
        assert_eq!(reuse.name(), "r");
        assert!(matches!(ConvMode::reuse_default(), ConvMode::Reuse(_)));
    }

    /// CifarNet's head with `conv2` declared for 8×8×64 where `pool1`
    /// delivers 7×7×64: `Network::push` must refuse it, by layer name.
    fn push_conv2_declared_for_the_wrong_input(mode: ConvMode) {
        let mut rng = AdrRng::seeded(1);
        let mut net = adr_nn::Network::new((16, 16, 3));
        let g1 = ConvGeom::new(16, 16, 3, 5, 5, 1, 2).unwrap();
        net.push(mode.build("conv1", g1, 64, &mut rng));
        net.push(Box::new(adr_nn::relu::Relu::new("relu1")));
        net.push(Box::new(adr_nn::pool::Pool2d::max("pool1", 3, 2))); // 16 -> 7
        let g2 = ConvGeom::new(8, 8, 64, 5, 5, 1, 2).unwrap();
        net.push(mode.build("conv2", g2, 64, &mut rng));
    }

    #[test]
    #[should_panic(expected = "conv2: input shape mismatch")]
    fn dense_conv_declared_for_the_wrong_input_panics_at_push() {
        push_conv2_declared_for_the_wrong_input(ConvMode::Dense);
    }

    #[test]
    #[should_panic(expected = "conv2: input shape mismatch")]
    fn reuse_conv_declared_for_the_wrong_input_panics_at_push() {
        push_conv2_declared_for_the_wrong_input(ConvMode::reuse_default());
    }
}
