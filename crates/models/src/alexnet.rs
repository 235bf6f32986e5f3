//! AlexNet, the paper's mid-size benchmark (5 conv layers).

use adr_nn::dense::Dense;
use adr_nn::pool::Pool2d;
use adr_nn::relu::Relu;
use adr_nn::Network;
use adr_tensor::im2col::ConvGeom;
use adr_tensor::rng::AdrRng;

use crate::spec::{ConvSpec, ModelSpec};
use crate::ConvMode;

/// Paper-scale geometry: the classic 224×224 AlexNet stack whose `K` runs
/// 363 (conv1: 3·11·11) to 3456 (conv4/5: 384·3·3) with `M` 64–384,
/// matching Table II.
///
/// # Panics
/// Never in practice: the geometry constants are validated at build time.
pub fn spec() -> ModelSpec {
    ModelSpec {
        name: "alexnet",
        input: (224, 224, 3),
        convs: vec![
            ConvSpec {
                name: "conv1".into(),
                geom: ConvGeom::new(224, 224, 3, 11, 11, 4, 0)
                    .expect("model geometry constants are valid"),
                out_channels: 64,
            },
            ConvSpec {
                name: "conv2".into(),
                geom: ConvGeom::new(26, 26, 64, 5, 5, 1, 2)
                    .expect("model geometry constants are valid"),
                out_channels: 192,
            },
            ConvSpec {
                name: "conv3".into(),
                geom: ConvGeom::new(12, 12, 192, 3, 3, 1, 1)
                    .expect("model geometry constants are valid"),
                out_channels: 384,
            },
            ConvSpec {
                name: "conv4".into(),
                geom: ConvGeom::new(12, 12, 384, 3, 3, 1, 1)
                    .expect("model geometry constants are valid"),
                out_channels: 384,
            },
            ConvSpec {
                name: "conv5".into(),
                geom: ConvGeom::new(12, 12, 384, 3, 3, 1, 1)
                    .expect("model geometry constants are valid"),
                out_channels: 256,
            },
        ],
    }
}

/// A reduced 64×64 AlexNet keeping the 5-conv depth and the K-growth shape.
///
/// # Panics
/// Never in practice: the geometry constants are validated at build time.
pub fn bench_scale(num_classes: usize, mode: ConvMode, rng: &mut AdrRng) -> Network {
    let mut net = Network::new((64, 64, 3));
    let g1 = ConvGeom::new(64, 64, 3, 7, 7, 2, 0).expect("model geometry constants are valid"); // 64 -> 29
    net.push(mode.build("conv1", g1, 32, rng));
    net.push(Box::new(Relu::new("relu1")));
    net.push(Box::new(Pool2d::max("pool1", 3, 2))); // 29 -> 14
    let g2 = ConvGeom::new(14, 14, 32, 5, 5, 1, 2).expect("model geometry constants are valid");
    net.push(mode.build("conv2", g2, 64, rng));
    net.push(Box::new(Relu::new("relu2")));
    net.push(Box::new(Pool2d::max("pool2", 3, 2))); // 14 -> 6
    let g3 = ConvGeom::new(6, 6, 64, 3, 3, 1, 1).expect("model geometry constants are valid");
    net.push(mode.build("conv3", g3, 96, rng));
    net.push(Box::new(Relu::new("relu3")));
    let g4 = ConvGeom::new(6, 6, 96, 3, 3, 1, 1).expect("model geometry constants are valid");
    net.push(mode.build("conv4", g4, 96, rng));
    net.push(Box::new(Relu::new("relu4")));
    let g5 = ConvGeom::new(6, 6, 96, 3, 3, 1, 1).expect("model geometry constants are valid");
    net.push(mode.build("conv5", g5, 64, rng));
    net.push(Box::new(Relu::new("relu5")));
    net.push(Box::new(Pool2d::max("pool5", 3, 2))); // 6 -> 2
    net.push(Box::new(Dense::new("fc6", 2 * 2 * 64, 128, rng)));
    net.push(Box::new(Relu::new("relu6")));
    net.push(Box::new(Dense::new("logits", 128, num_classes, rng)));
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use adr_nn::Mode;
    use adr_tensor::Tensor4;

    #[test]
    fn paper_spec_k_values() {
        let s = spec();
        let ks: Vec<usize> = s.convs.iter().map(|c| c.k()).collect();
        assert_eq!(ks, vec![363, 1600, 1728, 3456, 3456]);
    }

    #[test]
    fn paper_spec_spatial_chain() {
        let s = spec();
        // conv1 output feeds pool (3,2): 54 -> 26 = conv2 declared input.
        assert_eq!(s.convs[0].geom.out_h(), 54);
        assert_eq!((54 - 3) / 2 + 1, 26);
        assert_eq!(s.convs[1].geom.in_h, 26);
        // conv2 keeps 26, pool -> 12 = conv3 input.
        assert_eq!(s.convs[1].geom.out_h(), 26);
        assert_eq!((26 - 3) / 2 + 1, 12);
        assert_eq!(s.convs[2].geom.in_h, 12);
    }

    #[test]
    fn bench_scale_forward_shape() {
        let mut rng = AdrRng::seeded(1);
        for mode in [ConvMode::Dense, ConvMode::reuse_default()] {
            let mut net = bench_scale(5, mode, &mut rng);
            let y = net.forward(&Tensor4::zeros(1, 64, 64, 3), Mode::Eval);
            assert_eq!(y.shape(), (1, 1, 1, 5));
        }
    }
}
