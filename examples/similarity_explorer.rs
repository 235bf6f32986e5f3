//! Explore neuron-vector similarity directly: unfold a convolution input,
//! cluster it with k-means and LSH, and print how much redundancy each
//! finds — the intuition behind Fig. 1/2 of the paper.
//!
//! Run with: `cargo run --release --example similarity_explorer`

// Test/example code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use adaptive_deep_reuse::clustering::kmeans::{kmeans, KMeansConfig};
use adaptive_deep_reuse::clustering::lsh::{cluster_from_signatures, LshTable};
use adaptive_deep_reuse::clustering::normalize::cosine_similarity;
use adaptive_deep_reuse::prelude::*;
use adaptive_deep_reuse::reuse::hashpack::PackedHasher;
use adaptive_deep_reuse::reuse::subvec::SubVecSplit;
use adaptive_deep_reuse::tensor::im2col::{im2col, ConvGeom};

fn main() {
    println!("neuron-vector similarity explorer\n");

    // A batch of synthetic "natural" images.
    let mut rng = AdrRng::seeded(123);
    let cfg = SynthConfig {
        num_images: 8,
        num_classes: 2,
        height: 24,
        width: 24,
        channels: 3,
        smoothing_passes: 3,
        noise_std: 0.03,
        max_shift: 2,
        image_variability: 0.45,
    };
    let dataset = SynthDataset::generate(&cfg, &mut rng);
    let (images, _) = dataset.batch(0, 8);

    // Unfold for a 5x5 convolution — every row is a receptive field.
    let geom = ConvGeom::new(24, 24, 3, 5, 5, 1, 0).unwrap();
    let unfolded = im2col(&images, &geom);
    let (n, k) = unfolded.shape();
    println!("unfolded input matrix: {n} neuron vectors x {k} elements (N x K)\n");

    // 1. Raw pairwise similarity of a sample of rows.
    let mut high_sim_pairs = 0usize;
    let samples = 2000;
    for _ in 0..samples {
        let a = rng.below(n);
        let b = rng.below(n);
        if a != b && cosine_similarity(unfolded.row(a), unfolded.row(b)) > 0.99 {
            high_sim_pairs += 1;
        }
    }
    println!(
        "random row pairs with cosine similarity > 0.99: {:.1}%",
        100.0 * high_sim_pairs as f64 / samples as f64
    );

    // 2. k-means: the quality reference (paper §VI-A).
    for k_clusters in [16, 64, 256] {
        let result = kmeans(
            &unfolded,
            &KMeansConfig { k: k_clusters, max_iters: 10, tolerance: 1e-3 },
            &mut rng,
        );
        println!(
            "k-means k={k_clusters:<4} -> |C| = {:<4} remaining ratio r_c = {:.4}",
            result.table.num_clusters(),
            result.table.remaining_ratio()
        );
    }

    // 3. LSH: the fast online clustering actually used during training.
    println!();
    for h in [4, 8, 12, 16] {
        let lsh = LshTable::new(k, h, &mut rng);
        let hasher = PackedHasher::new(&SubVecSplit::new(k, k), std::slice::from_ref(&lsh));
        let (table, _) = cluster_from_signatures(hasher.hash_all(&unfolded).into_iter());
        println!(
            "LSH H={h:<2} -> |C| = {:<5} remaining ratio r_c = {:.4} (hash cost {} madds)",
            table.num_clusters(),
            table.remaining_ratio(),
            lsh.hashing_flops(n)
        );
    }

    println!("\nInterpretation: r_c << 1 means most receptive fields are redundant —");
    println!("the computation-reuse opportunity adaptive deep reuse exploits.");
}
