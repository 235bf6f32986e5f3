//! Diagnostic: how faithful are deep-reuse gradients to the dense ones?
//!
//! Builds weight-sharing dense/reuse twins of CifarNet, runs one training
//! forward/backward on the same batch, and reports the cosine similarity
//! and norm ratio of the conv weight gradients plus the logit agreement —
//! the quantitative backdrop for the iteration-inflation discussion in
//! EXPERIMENTS.md.

use adaptive_deep_reuse::source::DatasetSource;
use adr_bench::harness::{swap_in_reuse, synth_for};
use adr_core::trainer::BatchSource;
use adr_models::{cifarnet, ConvMode};
use adr_nn::conv::Conv2d;
use adr_nn::softmax::softmax_cross_entropy;
use adr_nn::{Layer as _, Mode};
use adr_reuse::{ReuseConfig, ReuseConv2d};
use adr_tensor::rng::AdrRng;

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|v| v * v).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|v| v * v).sum::<f32>().sqrt();
    dot / (na * nb + 1e-12)
}

fn norm(a: &[f32]) -> f32 {
    a.iter().map(|v| v * v).sum::<f32>().sqrt()
}

fn main() {
    let mut rng = AdrRng::seeded(42);
    let dataset = synth_for((16, 16, 3), 96, 10, &mut rng);
    let mut source = DatasetSource::new(dataset, 16, 16);
    println!("gradient fidelity of deep reuse vs dense (CifarNet, one batch)\n");
    println!(
        "{:<14} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "config", "layer", "grad cos", "|reuse|/|dense|", "", "logit cos"
    );
    for (l, h) in [(1600usize, 15usize), (40, 6), (10, 10), (5, 13), (5, 15)] {
        // Weight-sharing twins: build dense, then swap reuse wrappers in.
        let mut dense_net = {
            let mut r = AdrRng::seeded(9);
            cifarnet::bench_scale(10, ConvMode::Dense, &mut r)
        };
        let mut reuse_net = {
            let mut r = AdrRng::seeded(9);
            cifarnet::bench_scale(10, ConvMode::Dense, &mut r)
        };
        swap_in_reuse(&mut reuse_net, 0, ReuseConfig::new(l, h, false), &mut rng);
        swap_in_reuse(&mut reuse_net, 3, ReuseConfig::new(l, h, false), &mut rng);

        let (x, labels) = source.batch(0);
        let logits_d = dense_net.forward(&x, Mode::Train);
        let out_d = softmax_cross_entropy(&logits_d, &labels);
        dense_net.backward(&out_d.grad);
        let logits_r = reuse_net.forward(&x, Mode::Train);
        let out_r = softmax_cross_entropy(&logits_r, &labels);
        reuse_net.backward(&out_r.grad);
        let logit_cos = cosine(logits_d.as_slice(), logits_r.as_slice());

        for (idx, name) in [(0usize, "conv1"), (3, "conv2")] {
            let gd = {
                let any =
                    dense_net.layers_mut()[idx].as_any_mut().expect("conv layer is downcastable");
                any.downcast_mut::<Conv2d>().expect("layer is a Conv2d").params_mut()[0]
                    .grad
                    .to_vec()
            };
            let gr = {
                let any =
                    reuse_net.layers_mut()[idx].as_any_mut().expect("conv layer is downcastable");
                any.downcast_mut::<ReuseConv2d>().expect("layer is a ReuseConv2d").params_mut()[0]
                    .grad
                    .to_vec()
            };
            println!(
                "L={l:<5} H={h:<2} {name:>6} {:>10.4} {:>10.3} {:>10} {:>10.4}",
                cosine(&gd, &gr),
                norm(&gr) / norm(&gd),
                "",
                logit_cos
            );
        }
    }
    println!("\nInterpretation: cosines near 1 mean reuse gradients point the same way");
    println!("as dense gradients; attenuation (<1 norm ratio) and misalignment explain");
    println!("why reuse training needs extra iterations (paper §VI-B2).");
}
