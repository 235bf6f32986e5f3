//! Backward propagation that reuses the forward clustering (§IV).
//!
//! The paper's central efficiency claim: no re-clustering happens in the
//! backward pass. For each sub-matrix `I` with forward clustering `C_I` and
//! centroid matrix `x_{c,I}`:
//!
//! * **Weight gradient** (Eqs. 7–10): member rows of `δy` are first summed
//!   per cluster into `δy_{c,I,s}` (cheap adds), then one small GEMM gives
//!   `∇W_I = x_{c,I}ᵀ · δy_{c,I,s}`.
//! * **Input delta** (Eqs. 13–18): per-cluster *means* `δy_{c,I,sa}` are
//!   multiplied by `W_Iᵀ` to get centroid input-gradients, which every
//!   member of the cluster then shares.
//!
//! Sub-matrices are independent until the very end, so the pass runs as two
//! fan-outs over the persistent pool: one over sub-matrices (cluster sums,
//! `∇W_I`, `δx_{c,I}`), then one over rows (every member row of `δx`
//! gathers its cluster's gradient). All buffers either phase writes are
//! sized on the dispatching thread first — pool workers never allocate.

use adr_tensor::matrix::{column_sums_into, gemm_ta_rows, gemm_tb_rows, Matrix};
use adr_tensor::par::{compute_threads, memory_threads, run_row_blocks};

use crate::forward::{ReuseArena, SubMatrix};
use crate::subvec::SubVecSplit;

/// Runs the reuse backward pass from the forward clustering held in `arena`
/// (left there by [`crate::forward::reuse_forward_with`]), writing the
/// gradients into caller-owned buffers so a steady-state step allocates no
/// matrix.
///
/// * `split` — the same sub-vector partition used forward.
/// * `weight` — the `K × M` weight matrix; its row bands are read in place.
/// * `delta_y` — the `N × M` output gradient, row-major.
/// * `weight_grad` — receives the `K × M` weight gradient (every element
///   overwritten).
/// * `bias_grad` — receives the length-`M` bias gradient.
/// * `delta_x_unf` — reshaped to `N × K` and overwritten with the gradient
///   w.r.t. the unfolded input (fold with `col2im`); `None` when nobody will
///   read it (a training step's first layer), which skips the cluster means,
///   the `δx_c` products and the whole row fan-out.
///
/// Returns the multiply–adds actually performed.
///
/// # Panics
/// Panics on dimension disagreements, including an arena whose clustering
/// was not produced under `split`.
pub fn reuse_backward(
    arena: &mut ReuseArena,
    split: &SubVecSplit,
    weight: &Matrix,
    delta_y: &[f32],
    weight_grad: &mut Matrix,
    bias_grad: &mut [f32],
    delta_x_unf: Option<&mut Matrix>,
) -> u64 {
    let (k, m) = weight.shape();
    let num_subs = split.num_sub_vectors();
    assert_eq!(k, split.k(), "weight shape disagrees with split");
    assert!(m > 0, "a reuse layer has at least one filter");
    assert_eq!(weight_grad.shape(), (k, m), "weight gradient shape disagrees with weight");
    assert_eq!(bias_grad.len(), m, "bias gradient length disagrees with M");
    assert_eq!(arena.subs.len(), num_subs, "one sub-matrix state per sub-matrix required");
    let n = arena.subs[0].table.num_rows();
    assert_eq!(delta_y.len(), n * m, "delta_y shape disagrees with the forward clustering");

    // One task per sub-matrix: its band of ∇W and its state, every buffer
    // sized here, before dispatch. Sub-vectors are `L` wide except a shorter
    // tail, which is exactly how `chunks_mut` cuts the row bands of the
    // `K × M` gradient. The cluster gradients δy_c land in the forward
    // pass's cluster-output blocks: same `|C_I| × M` shape, and dead since
    // the forward scatter.
    let want_input = delta_x_unf.is_some();
    let bands = weight_grad.as_mut_slice().chunks_mut(split.l() * m);
    let mut tasks = Vec::with_capacity(num_subs);
    let mut flops = 0u64;
    for (i, (w_grad_band, sub)) in bands.zip(&mut arena.subs).enumerate() {
        let (num_clusters, width) = (sub.table.num_clusters(), split.width(i));
        assert_eq!(sub.table.num_rows(), n, "table {i} row count disagrees with delta_y");
        assert_eq!(sub.centroids.shape(), (num_clusters, width), "centroid {i} shape mismatch");
        sub.cluster_outputs.resize_for_overwrite(num_clusters, m);
        flops += ((n - num_clusters) * m + num_clusters * width * m) as u64;
        if want_input {
            sub.centroid_grads.resize_for_overwrite(num_clusters, width);
            flops += (num_clusters * width * m) as u64;
        }
        tasks.push((w_grad_band, sub));
    }

    // Phase 1, sub-matrix-parallel.
    let threads = compute_threads(usize::try_from(flops).unwrap_or(usize::MAX));
    run_row_blocks(&mut tasks, 1, num_subs, threads, |sub0, _, block| {
        for (offset, (w_grad_band, sub)) in block.iter_mut().enumerate() {
            let i = sub0 + offset;
            let SubMatrix {
                table, centroids: cent, cluster_outputs: dy, centroid_grads: dx_c, ..
            } = &mut **sub;
            let (num_clusters, width) = cent.shape();

            // δy_{c,s}: per-cluster sums of δy rows (Eq. 8).
            table.gather_sum_into(delta_y, m, dy);

            // ∇W_I = x_{c,I}ᵀ · δy_{c,I,s} (Eq. 10).
            w_grad_band.fill(0.0);
            gemm_ta_rows(
                cent.as_slice(),
                width,
                dy.as_slice(),
                w_grad_band,
                num_clusters,
                width,
                m,
            );

            if !want_input {
                continue;
            }

            // δy_{c,sa}: per-cluster means (divide the sums by cluster size).
            table.sums_to_means(dy);

            // δx_{c,I} = δy_{c,I,sa} · W_Iᵀ (Eq. 18), on W's row band in place.
            let (start, end) = split.ranges()[i];
            let w_band = &weight.as_slice()[start * m..end * m];
            gemm_tb_rows(dy.as_slice(), w_band, dx_c.as_mut_slice(), num_clusters, m, width);
        }
    });
    drop(tasks);
    column_sums_into(delta_y, bias_grad);

    // Phase 2, row-parallel: every member inherits its cluster centroid's
    // input gradient, one whole contiguous row of δx at a time.
    if let Some(delta_x_unf) = delta_x_unf {
        delta_x_unf.resize_for_overwrite(n, k);
        let subs = &arena.subs;
        let threads = memory_threads(n * k);
        run_row_blocks(delta_x_unf.as_mut_slice(), k, n, threads, |row0, rows_here, chunk| {
            for r in 0..rows_here {
                let dst = &mut chunk[r * k..(r + 1) * k];
                for (sub, &(start, end)) in subs.iter().zip(split.ranges()) {
                    let dx_c = sub.centroid_grads.row(sub.table.cluster_of(row0 + r) as usize);
                    dst[start..end].copy_from_slice(dx_c);
                }
            }
        });
    }
    flops
}

#[cfg(test)]
mod tests {
    use super::*;
    use adr_clustering::lsh::LshTable;
    use adr_nn::layer::Mode;
    use adr_tensor::rng::AdrRng;

    use crate::forward::{reuse_forward, reuse_forward_with};
    use crate::hashpack::PackedHasher;

    /// Gradients of one backward pass, in freshly sized buffers.
    struct Grads {
        weight_grad: Matrix,
        bias_grad: Vec<f32>,
        delta_x_unf: Matrix,
        flops: u64,
    }

    fn backward(arena: &mut ReuseArena, split: &SubVecSplit, w: &Matrix, dy: &Matrix) -> Grads {
        let mut weight_grad = Matrix::filled(w.rows(), w.cols(), f32::NAN);
        let mut bias_grad = vec![f32::NAN; w.cols()];
        let mut delta_x_unf = Matrix::default();
        let flops = reuse_backward(
            arena,
            split,
            w,
            dy.as_slice(),
            &mut weight_grad,
            &mut bias_grad,
            Some(&mut delta_x_unf),
        );
        Grads { weight_grad, bias_grad, delta_x_unf, flops }
    }

    fn setup(
        n: usize,
        k: usize,
        m: usize,
        l: usize,
        h: usize,
        seed: u64,
    ) -> (Matrix, Matrix, Vec<f32>, SubVecSplit, Vec<LshTable>) {
        let mut rng = AdrRng::seeded(seed);
        let x = Matrix::from_fn(n, k, |_, _| rng.gauss());
        let w = Matrix::from_fn(k, m, |_, _| rng.gauss() * 0.2);
        let b = vec![0.0; m];
        let split = SubVecSplit::new(k, l);
        let lsh =
            split.ranges().iter().map(|&(a, bb)| LshTable::new(bb - a, h, &mut rng)).collect();
        (x, w, b, split, lsh)
    }

    /// With all-singleton clusters the reuse backward pass must agree with
    /// the dense formulas ∇W = xᵀδy and δx = δy·Wᵀ.
    #[test]
    fn exact_when_clusters_are_singletons() {
        let (x, w, b, split, lsh) = setup(12, 8, 4, 8, 40, 1);
        let (_, mut fwd) = reuse_forward(&x, &w, &b, &split, &lsh, None, None);
        assert_eq!(fwd.sub_matrices()[0].table().num_clusters(), 12, "need singleton clusters");
        let mut rng = AdrRng::seeded(2);
        let dy = Matrix::from_fn(12, 4, |_, _| rng.gauss());
        let out = backward(&mut fwd, &split, &w, &dy);
        let dense_wgrad = x.matmul_t_a(&dy);
        let dense_dx = dy.matmul_t_b(&w);
        assert!(out.weight_grad.max_abs_diff(&dense_wgrad) < 1e-3);
        assert!(out.delta_x_unf.max_abs_diff(&dense_dx) < 1e-3);
        assert_eq!(out.bias_grad, dy.column_sums());
    }

    /// For duplicated rows, clustering is lossless: the weight gradient must
    /// match the dense gradient exactly because Σ_k x_k δy_k groups exactly.
    #[test]
    fn weight_gradient_exact_for_duplicate_rows() {
        let mut rng = AdrRng::seeded(3);
        let proto = Matrix::from_fn(3, 6, |_, _| rng.gauss());
        let x = Matrix::from_fn(30, 6, |r, c| proto[(r % 3, c)]);
        let w = Matrix::from_fn(6, 5, |_, _| rng.gauss());
        let b = vec![0.0; 5];
        let split = SubVecSplit::new(6, 6);
        let lsh = vec![LshTable::new(6, 12, &mut rng)];
        let (_, mut fwd) = reuse_forward(&x, &w, &b, &split, &lsh, None, None);
        assert_eq!(fwd.sub_matrices()[0].table().num_clusters(), 3);
        let dy = Matrix::from_fn(30, 5, |_, _| rng.gauss());
        let out = backward(&mut fwd, &split, &w, &dy);
        let dense_wgrad = x.matmul_t_a(&dy);
        assert!(out.weight_grad.max_abs_diff(&dense_wgrad) < 1e-3);
    }

    /// The input delta assigns every cluster member the same gradient — the
    /// cluster-mean of the dense gradients (Eq. 13).
    #[test]
    fn input_delta_is_cluster_mean_of_dense_delta() {
        let mut rng = AdrRng::seeded(4);
        let proto = Matrix::from_fn(4, 8, |_, _| rng.gauss());
        let x = Matrix::from_fn(20, 8, |r, c| proto[(r % 4, c)]);
        let w = Matrix::from_fn(8, 3, |_, _| rng.gauss());
        let split = SubVecSplit::new(8, 8);
        let lsh = vec![LshTable::new(8, 14, &mut rng)];
        let (_, mut fwd) = reuse_forward(&x, &w, &[0.0; 3], &split, &lsh, None, None);
        let dy = Matrix::from_fn(20, 3, |_, _| rng.gauss());
        let out = backward(&mut fwd, &split, &w, &dy);
        let dense_dx = dy.matmul_t_b(&w);
        // Members of a cluster share identical rows equal to the mean.
        let table = &fwd.sub_matrices()[0].table();
        for c in 0..table.num_clusters() {
            let members: Vec<usize> =
                (0..20).filter(|&r| table.cluster_of(r) == u32::try_from(c).unwrap()).collect();
            let mut mean = [0.0f32; 8];
            for &r in &members {
                for (s, v) in mean.iter_mut().zip(dense_dx.row(r)) {
                    *s += v;
                }
            }
            for s in mean.iter_mut() {
                *s /= members.len() as f32;
            }
            for &r in &members {
                for (a, b) in out.delta_x_unf.row(r).iter().zip(mean.iter()) {
                    assert!((a - b).abs() < 1e-4, "row {r}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn sub_vector_blocks_fill_whole_weight_gradient() {
        let (x, w, b, split, lsh) = setup(16, 12, 4, 5, 30, 5);
        let (_, mut fwd) = reuse_forward(&x, &w, &b, &split, &lsh, None, None);
        let mut rng = AdrRng::seeded(6);
        let dy = Matrix::from_fn(16, 4, |_, _| rng.gauss());
        let out = backward(&mut fwd, &split, &w, &dy);
        // Every weight row received a (generically) non-zero gradient.
        for r in 0..12 {
            let norm: f32 = out.weight_grad.row(r).iter().map(|v| v * v).sum();
            assert!(norm > 0.0, "weight row {r} got no gradient");
        }
    }

    #[test]
    fn flops_scale_with_cluster_count() {
        let (x, w, b, split, lsh) = setup(64, 8, 4, 8, 2, 7);
        let (_, mut fwd_coarse) = reuse_forward(&x, &w, &b, &split, &lsh, None, None);
        let dy = Matrix::filled(64, 4, 1.0);
        let coarse = backward(&mut fwd_coarse, &split, &w, &dy);
        let (x2, w2, b2, split2, lsh2) = setup(64, 8, 4, 8, 40, 7);
        let (_, mut fwd_fine) = reuse_forward(&x2, &w2, &b2, &split2, &lsh2, None, None);
        let fine = backward(&mut fwd_fine, &split2, &w2, &dy);
        assert!(
            fwd_coarse.sub_matrices()[0].table().num_clusters()
                < fwd_fine.sub_matrices()[0].table().num_clusters(),
            "precondition: H controls cluster count"
        );
        assert!(coarse.flops < fine.flops);
    }

    /// One arena carried across steps whose inputs cluster differently (a
    /// handful of prototypes, then all-distinct rows) must give bitwise the
    /// gradients of a fresh arena: every recycled buffer is re-sized and
    /// fully rewritten, never read stale.
    #[test]
    fn recycled_arena_matches_a_fresh_one_across_changing_cluster_counts() {
        let (x_fine, w, b, split, lsh) = setup(40, 13, 5, 4, 10, 11); // widths 4,4,4,1
        let x_coarse = Matrix::from_fn(40, 13, |r, c| x_fine[(r % 3, c)]);
        let hasher = PackedHasher::new(&split, &lsh);
        let mut rng = AdrRng::seeded(12);
        let mut recycled = ReuseArena::default();
        let mut clusters = Vec::new();
        for x in [&x_coarse, &x_fine, &x_coarse] {
            let dy = Matrix::from_fn(40, 5, |_, _| rng.gauss());
            let train = Mode::Train;
            reuse_forward_with(x, &w, &b, &split, &lsh, &hasher, None, None, train, &mut recycled);
            clusters.push(recycled.sub_matrices()[0].table().num_clusters());
            let got = backward(&mut recycled, &split, &w, &dy);
            let (_, mut fresh) = reuse_forward(x, &w, &b, &split, &lsh, None, None);
            let want = backward(&mut fresh, &split, &w, &dy);
            assert_eq!(got.weight_grad.as_slice(), want.weight_grad.as_slice());
            assert_eq!(got.delta_x_unf.as_slice(), want.delta_x_unf.as_slice());
            assert_eq!(got.bias_grad, want.bias_grad);
            assert_eq!(got.flops, want.flops);
        }
        assert!(clusters[0] < clusters[1], "precondition: cluster counts change ({clusters:?})");
    }

    #[test]
    #[should_panic(expected = "one sub-matrix state per sub-matrix")]
    fn wrong_table_count_panics() {
        let (x, w, b, split, lsh) = setup(8, 8, 2, 4, 8, 9);
        let (_, mut fwd) = reuse_forward(&x, &w, &b, &split, &lsh, None, None);
        let dy = Matrix::zeros(8, 2);
        backward(&mut fwd, &SubVecSplit::new(8, 8), &w, &dy);
    }
}
