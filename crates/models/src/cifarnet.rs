//! CifarNet (TensorFlow-slim style), the paper's smallest benchmark.
//!
//! Two 5×5/64 convolutions with max-pooling, then 384/192/10 dense layers.
//! `K` runs from 75 (conv1: 3·5·5) to 1600 (conv2: 64·5·5), matching
//! Table II.

use adr_nn::dense::Dense;
use adr_nn::pool::Pool2d;
use adr_nn::relu::Relu;
use adr_nn::Network;
use adr_tensor::im2col::ConvGeom;
use adr_tensor::rng::AdrRng;

use crate::spec::{ConvSpec, ModelSpec};
use crate::ConvMode;

/// Paper-scale geometry (for Table II verification).
///
/// # Panics
/// Never in practice: the geometry constants are validated at build time.
pub fn spec() -> ModelSpec {
    ModelSpec {
        name: "cifarnet",
        input: (32, 32, 3),
        convs: vec![
            ConvSpec {
                name: "conv1".into(),
                geom: ConvGeom::new(32, 32, 3, 5, 5, 1, 2)
                    .expect("model geometry constants are valid"),
                out_channels: 64,
            },
            ConvSpec {
                name: "conv2".into(),
                geom: ConvGeom::new(15, 15, 64, 5, 5, 1, 2)
                    .expect("model geometry constants are valid"),
                out_channels: 64,
            },
        ],
    }
}

/// Builds the full 32×32 CifarNet. `num_classes` is 10 for the CIFAR-10
/// setup of the paper.
///
/// # Panics
/// Never in practice: the geometry constants are validated at build time.
pub fn paper_scale(num_classes: usize, mode: ConvMode, rng: &mut AdrRng) -> Network {
    let mut net = Network::new((32, 32, 3));
    let g1 = ConvGeom::new(32, 32, 3, 5, 5, 1, 2).expect("model geometry constants are valid");
    net.push(mode.build("conv1", g1, 64, rng));
    net.push(Box::new(Relu::new("relu1")));
    net.push(Box::new(Pool2d::max("pool1", 3, 2))); // 32 -> 15
    let g2 = ConvGeom::new(15, 15, 64, 5, 5, 1, 2).expect("model geometry constants are valid");
    net.push(mode.build("conv2", g2, 64, rng));
    net.push(Box::new(Relu::new("relu2")));
    net.push(Box::new(Pool2d::max("pool2", 3, 2))); // 15 -> 7
    net.push(Box::new(Dense::new("fc3", 7 * 7 * 64, 384, rng)));
    net.push(Box::new(Relu::new("relu3")));
    net.push(Box::new(Dense::new("fc4", 384, 192, rng)));
    net.push(Box::new(Relu::new("relu4")));
    net.push(Box::new(Dense::new("logits", 192, num_classes, rng)));
    net
}

/// A reduced 16×16 CifarNet for fast harness runs: same two-conv topology
/// and the paper's 64 filters (so conv2's K = 1600 matches Table II).
///
/// # Panics
/// Never in practice: the geometry constants are validated at build time.
pub fn bench_scale(num_classes: usize, mode: ConvMode, rng: &mut AdrRng) -> Network {
    let mut net = Network::new((16, 16, 3));
    let g1 = ConvGeom::new(16, 16, 3, 5, 5, 1, 2).expect("model geometry constants are valid");
    net.push(mode.build("conv1", g1, 64, rng));
    net.push(Box::new(Relu::new("relu1")));
    net.push(Box::new(Pool2d::max("pool1", 3, 2))); // 16 -> 7
    let g2 = ConvGeom::new(7, 7, 64, 5, 5, 1, 2).expect("model geometry constants are valid");
    net.push(mode.build("conv2", g2, 64, rng));
    net.push(Box::new(Relu::new("relu2")));
    net.push(Box::new(Pool2d::max("pool2", 3, 2))); // 7 -> 3
    net.push(Box::new(Dense::new("fc3", 3 * 3 * 64, 96, rng)));
    net.push(Box::new(Relu::new("relu3")));
    net.push(Box::new(Dense::new("logits", 96, num_classes, rng)));
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use adr_nn::Mode;
    use adr_tensor::Tensor4;

    #[test]
    fn paper_scale_forward_shape() {
        let mut rng = AdrRng::seeded(1);
        let mut net = paper_scale(10, ConvMode::Dense, &mut rng);
        assert_eq!(net.output_shape(), (1, 1, 10));
        let y = net.forward(&Tensor4::zeros(1, 32, 32, 3), Mode::Eval);
        assert_eq!(y.shape(), (1, 1, 1, 10));
    }

    #[test]
    fn bench_scale_forward_shape_dense_and_reuse() {
        let mut rng = AdrRng::seeded(2);
        for mode in [ConvMode::Dense, ConvMode::reuse_default()] {
            let mut net = bench_scale(4, mode, &mut rng);
            let y = net.forward(&Tensor4::zeros(2, 16, 16, 3), Mode::Eval);
            assert_eq!(y.shape(), (2, 1, 1, 4));
        }
    }

    #[test]
    fn bench_scale_keeps_paper_k_for_conv2() {
        // The bench-scale model keeps 64 filters so conv2's K stays at the
        // paper's 1600 even though the spatial dims shrink.
        let mut rng = AdrRng::seeded(3);
        let mut net = bench_scale(10, ConvMode::Dense, &mut rng);
        let conv2 = net.layers_mut()[3]
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<adr_nn::conv::Conv2d>())
            .expect("layer 3 is conv2");
        assert_eq!(conv2.geom().k(), 1600);
        assert_eq!(conv2.out_channels(), 64);
    }

    #[test]
    fn conv_k_values_match_table_ii() {
        let s = spec();
        assert_eq!(s.convs[0].k(), 75);
        assert_eq!(s.convs[1].k(), 1600);
    }
}
