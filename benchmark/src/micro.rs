//! Direct calls to the `tensor`, `clustering` and `reuse` kernels on the
//! workload's largest convolution, fed with that layer's real input (the
//! activations reaching it), so a kernel change shows apart from the layers
//! stacked on it. Shapes, operation counts and computed bytes are printed
//! with the times; bytes are computed from tensor sizes, not measured.

use std::time::Instant;

use adaptive_deep_reuse::clustering::lsh::{cluster_from_signatures, LshTable};
use adaptive_deep_reuse::nn::conv::Conv2d;
use adaptive_deep_reuse::prelude::*;
use adaptive_deep_reuse::reuse::hashpack::PackedHasher;
use adaptive_deep_reuse::reuse::subvec::SubVecSplit;
use adaptive_deep_reuse::tensor::im2col::{col2im, im2col_into, ConvGeom};
use adaptive_deep_reuse::tensor::par::matmul_par;

use crate::outcome::Outcome;
use crate::{host, stats, RunOpts};

/// The workloads' fixed reuse setting `{L=8, H=8}`.
const SUB_VECTOR_LEN: usize = 8;
const NUM_HASHES: usize = 8;

fn conv_shape(layer: &dyn Layer) -> Option<(ConvGeom, usize)> {
    let any = layer.as_any()?;
    if let Some(conv) = any.downcast_ref::<Conv2d>() {
        return Some((*conv.geom(), conv.out_channels()));
    }
    any.downcast_ref::<ReuseConv2d>().map(|conv| (*conv.geom(), conv.out_channels()))
}

/// Median milliseconds of `reps` calls to `f`.
pub fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(host::ms(t0.elapsed()));
    }
    stats::median(&times)
}

/// Times the kernels on the convolution of `net` with the most dense
/// multiply–adds, for the batch `images`.
pub fn kernels(out: &mut Outcome, net: &mut Network, images: &Tensor4, opts: &RunOpts) {
    let batch = images.batch();
    let Some((index, geom, m)) = net
        .layers()
        .iter()
        .enumerate()
        .filter_map(|(i, l)| conv_shape(l.as_ref()).map(|(g, m)| (i, g, m)))
        .max_by_key(|(_, g, m)| g.rows_for_batch(batch) * g.k() * m)
    else {
        return;
    };
    let mut x = images.clone();
    for layer in &mut net.layers_mut()[..index] {
        x = layer.forward(&x, Mode::Eval);
    }
    let name = net.layers()[index].name().to_string();
    let (n, k) = (geom.rows_for_batch(batch), geom.k());
    let reps = if opts.smoke { 3 } else { 15 };
    let mut rng = AdrRng::seeded(opts.seed).split(7);

    let mut unfolded = Matrix::zeros(0, 0);
    out.set("tensor.im2col_ms_p50", median_ms(reps, || im2col_into(&x, &geom, &mut unfolded)));
    let weight = Matrix::from_fn(k, m, |_, _| rng.gauss() * 0.05);
    let delta_y = Matrix::from_fn(n, m, |_, _| rng.gauss() * 0.05);

    let gemm_ms = median_ms(reps, || matmul_par(&unfolded, &weight));
    out.set("tensor.gemm_ms_p50", gemm_ms);
    out.set("tensor.gemm_gflops", 2.0 * (n * k * m) as f64 / (gemm_ms * 1e6));
    out.set("tensor.gemm_ta_ms_p50", median_ms(reps, || unfolded.matmul_t_a(&delta_y)));
    let mut delta_x = Matrix::zeros(0, 0);
    out.set("tensor.gemm_tb_ms_p50", median_ms(reps, || delta_x = delta_y.matmul_t_b(&weight)));
    out.set("tensor.col2im_ms_p50", median_ms(reps, || col2im(&delta_x, &geom, batch)));

    let split = SubVecSplit::new(k, SUB_VECTOR_LEN);
    let families: Vec<LshTable> = (0..split.num_sub_vectors())
        .map(|i| LshTable::new(split.width(i), NUM_HASHES, &mut rng))
        .collect();
    let hasher = PackedHasher::new(&split, &families);
    let mut signatures = Vec::new();
    out.set(
        "reuse.hash_all_ms_p50",
        median_ms(reps, || hasher.hash_all_into(&unfolded, &mut signatures)),
    );

    // One sub-vector's worth of clustering work, times the sub-vector count:
    // what a forward pass of this layer asks of `clustering`.
    let subs = split.num_sub_vectors();
    let signatures = &signatures;
    let column = |i: usize| (0..n).map(move |r| signatures[r * subs + i]);
    out.set(
        "clustering.group_ms_p50",
        median_ms(reps, || {
            for i in 0..subs {
                std::hint::black_box(cluster_from_signatures(column(i)));
            }
        }),
    );
    let tables: Vec<_> = (0..subs).map(|i| cluster_from_signatures(column(i)).0).collect();
    out.set(
        "clustering.centroids_ms_p50",
        median_ms(reps, || {
            for (table, &(start, end)) in tables.iter().zip(split.ranges()) {
                std::hint::black_box(table.centroids_range(&unfolded, start, end));
            }
        }),
    );
    let cluster_rows: Vec<_> = tables.iter().map(|t| Matrix::zeros(t.num_clusters(), m)).collect();
    let mut y = Matrix::zeros(n, m);
    out.set(
        "clustering.scatter_add_ms_p50",
        median_ms(reps, || {
            for (t, rows) in tables.iter().zip(&cluster_rows) {
                t.scatter_add(rows, &mut y);
            }
        }),
    );
    let clusters: usize = tables.iter().map(|t| t.num_clusters()).sum();
    out.note(format!(
        "kernels on {name}: N={n} K={k} M={m}, {reps} reps; gemm {} multiply-adds, \
         {} B computed operand+result bytes; {subs} sub-vectors, mean {:.1} clusters",
        n * k * m,
        4 * (n * k + k * m + n * m),
        clusters as f64 / subs as f64,
    ));
}
