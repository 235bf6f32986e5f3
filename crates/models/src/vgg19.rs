//! VGG-19, the paper's deepest benchmark (16 conv layers).

use adr_nn::dense::Dense;
use adr_nn::pool::Pool2d;
use adr_nn::relu::Relu;
use adr_nn::Network;
use adr_tensor::im2col::ConvGeom;
use adr_tensor::rng::AdrRng;

use crate::spec::{ConvSpec, ModelSpec};
use crate::ConvMode;

/// VGG-19 block structure: (convs in block, output channels).
const BLOCKS: [(usize, usize); 5] = [(2, 64), (2, 128), (4, 256), (4, 512), (4, 512)];

/// Paper-scale geometry: sixteen 3×3 convolutions in five blocks, input
/// 224×224. `K` runs 27 (3·3·3) to 4608 (512·3·3); the paper's Table II
/// prints 4068, an apparent typo for 4608.
///
/// # Panics
/// Never in practice: the geometry constants are validated at build time.
pub fn spec() -> ModelSpec {
    let mut convs = Vec::new();
    let mut size = 224usize;
    let mut in_c = 3usize;
    for (b, &(count, channels)) in BLOCKS.iter().enumerate() {
        for i in 0..count {
            convs.push(ConvSpec {
                name: format!("conv{}_{}", b + 1, i + 1),
                geom: ConvGeom::new(size, size, in_c, 3, 3, 1, 1)
                    .expect("model geometry constants are valid"),
                out_channels: channels,
            });
            in_c = channels;
        }
        size /= 2; // 2x2 stride-2 max pool after each block
    }
    ModelSpec { name: "vgg19", input: (224, 224, 3), convs }
}

/// A reduced 32×32 VGG-19 keeping all sixteen convolutions and the
/// five-block pooling schedule, with channel counts scaled down.
///
/// # Panics
/// Never in practice: the geometry constants are validated at build time.
pub fn bench_scale(num_classes: usize, mode: ConvMode, rng: &mut AdrRng) -> Network {
    const SMALL_BLOCKS: [(usize, usize); 5] = [(2, 16), (2, 32), (4, 48), (4, 64), (4, 64)];
    let mut net = Network::new((32, 32, 3));
    let mut size = 32usize;
    let mut in_c = 3usize;
    for (b, &(count, channels)) in SMALL_BLOCKS.iter().enumerate() {
        for i in 0..count {
            let name = format!("conv{}_{}", b + 1, i + 1);
            let geom = ConvGeom::new(size, size, in_c, 3, 3, 1, 1)
                .expect("model geometry constants are valid");
            net.push(mode.build(&name, geom, channels, rng));
            net.push(Box::new(Relu::new(format!("relu{}_{}", b + 1, i + 1))));
            in_c = channels;
        }
        net.push(Box::new(Pool2d::max(format!("pool{}", b + 1), 2, 2)));
        size /= 2;
    }
    // size is now 1; flatten 1*1*32.
    net.push(Box::new(Dense::new("fc6", in_c, 64, rng)));
    net.push(Box::new(Relu::new("relu6")));
    net.push(Box::new(Dense::new("logits", 64, num_classes, rng)));
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use adr_nn::Mode;
    use adr_tensor::Tensor4;

    #[test]
    fn spec_has_sixteen_convs_with_correct_k_extremes() {
        let s = spec();
        assert_eq!(s.num_conv_layers(), 16);
        assert_eq!(s.convs[0].k(), 27);
        assert_eq!(s.convs.last().unwrap().k(), 4608);
    }

    #[test]
    fn spec_spatial_sizes_halve_per_block() {
        let s = spec();
        let sizes: Vec<usize> = s.convs.iter().map(|c| c.geom.in_h).collect();
        assert_eq!(sizes[0], 224);
        assert_eq!(sizes[2], 112); // block 2 starts after one pool
        assert_eq!(sizes[4], 56); // block 3
        assert_eq!(sizes[8], 28); // block 4
        assert_eq!(sizes[12], 14); // block 5
    }

    #[test]
    fn bench_scale_forward_shape() {
        let mut rng = AdrRng::seeded(1);
        let mut net = bench_scale(3, ConvMode::Dense, &mut rng);
        let y = net.forward(&Tensor4::zeros(1, 32, 32, 3), Mode::Eval);
        assert_eq!(y.shape(), (1, 1, 1, 3));
    }

    #[test]
    fn bench_scale_k_grows_with_depth_like_the_paper() {
        let mut rng = AdrRng::seeded(5);
        let mut net = bench_scale(4, ConvMode::Dense, &mut rng);
        // Collect K per conv layer in order; it must be non-decreasing
        // within the pattern the paper's Table II describes (K grows as
        // channels deepen).
        let mut ks = Vec::new();
        for layer in net.layers_mut() {
            if let Some(any) = layer.as_any_mut() {
                if let Some(conv) = any.downcast_mut::<adr_nn::conv::Conv2d>() {
                    ks.push(conv.geom().k());
                }
            }
        }
        assert_eq!(ks.len(), 16);
        assert_eq!(ks[0], 27); // 3·3·3, same as the paper's first layer
        assert!(ks.windows(2).all(|w| w[1] >= w[0] || w[1] * 4 >= w[0]));
        assert_eq!(*ks.last().unwrap(), 64 * 9);
    }

    #[test]
    fn bench_scale_reuse_variant_builds() {
        let mut rng = AdrRng::seeded(2);
        let mut net = bench_scale(3, ConvMode::reuse_default(), &mut rng);
        let y = net.forward(&Tensor4::zeros(1, 32, 32, 3), Mode::Eval);
        assert_eq!(y.shape(), (1, 1, 1, 3));
        // 16 reuse convs + 16 relus + 5 pools + 2 dense + 1 relu = 40 layers.
        assert_eq!(net.len(), 40);
    }
}
