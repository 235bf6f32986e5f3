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
//! Sub-matrices are independent, so [`reuse_backward`] is one fan-out over
//! sub-matrices on the persistent pool (cluster sums, `∇W_I`, `δx_{c,I}`),
//! and it stops at the centroid gradients. The `N × K` input delta is never
//! stored: every one of its rows only copies one `δx_c` row per sub-matrix,
//! so [`fold_input_grad`] gathers one image's rows at a time
//! ([`input_grad_row`]) into the thread's unfold scratch — dead between
//! forward passes — and folds them into the input gradient, in `col2im`'s
//! order. The cluster sums walk each sub-matrix's rows in member order — a
//! counting sort by cluster — so each cluster's running `δy` row stays in
//! registers across all its members. A block sums one sub-matrix's cluster
//! gradients `δy_c` at a time into its own buffer, which only that
//! sub-matrix's `∇W_I` and `δx_c` products read, so no `|C_I| × M` matrix
//! per sub-matrix is kept. Every buffer either fan-out writes, the sort's
//! scratch, the `δy_c` buffers and the fold's rows included, is sized on
//! the dispatching thread first — pool workers never allocate.

use adr_tensor::im2col::{col2im_gathered, ConvGeom};
use adr_tensor::matrix::{column_sums_into, gemm_ta_rows, gemm_tb_rows, Matrix};
use adr_tensor::par::{compute_threads, run_blocks};
use adr_tensor::scratch;
use adr_tensor::Tensor4;

use crate::forward::{ReuseArena, SubMatrix};
use crate::subvec::SubVecSplit;

/// Runs the reuse backward pass from the forward clustering held in `arena`
/// (left there by [`crate::forward::reuse_forward_with`]), writing the
/// parameter gradients into caller-owned buffers so a steady-state step
/// allocates no matrix.
///
/// * `split` — the same sub-vector partition used forward.
/// * `weight` — the `K × M` weight matrix; its row bands are read in place.
/// * `delta_y` — the `N × M` output gradient, row-major.
/// * `weight_grad` — receives the `K × M` weight gradient (every element
///   overwritten).
/// * `bias_grad` — receives the length-`M` bias gradient.
/// * `want_input` — also compute the centroid input-gradients `δx_c` into
///   the arena, for [`fold_input_grad`] (or [`input_grad_row`]) to read;
///   `false` when nobody will read the input gradient (a training step's
///   first layer), which skips the cluster means and the `δx_c` products.
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
    want_input: bool,
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
    // `K × M` gradient.
    let bands = weight_grad.as_mut_slice().chunks_mut(split.l() * m);
    let mut tasks = Vec::with_capacity(num_subs);
    let mut flops = 0u64;
    for (i, (w_grad_band, sub)) in bands.zip(&mut arena.subs).enumerate() {
        let (num_clusters, width) = (sub.table.num_clusters(), split.width(i));
        assert_eq!(sub.table.num_rows(), n, "table {i} row count disagrees with delta_y");
        assert_eq!(sub.centroids.shape(), (num_clusters, width), "centroid {i} shape mismatch");
        flops += ((n - num_clusters) * m + num_clusters * width * m) as u64;
        if want_input {
            sub.centroid_grads.resize_for_overwrite(num_clusters, width);
            flops += (num_clusters * width * m) as u64;
        }
        tasks.push((w_grad_band, sub));
    }

    // Sub-matrix-parallel: blocks are contiguous runs of tasks, each with
    // its own member-order scratch (N row indices and at most N cluster
    // cursors) and its own cluster-gradient buffer, as large as the block's
    // largest `|C_I| × M`, so that reshaping it to each of its sub-matrices
    // in turn never allocates; both sized here.
    let threads = compute_threads(usize::try_from(flops).unwrap_or(usize::MAX));
    let per_block = num_subs.div_ceil(threads.clamp(1, num_subs));
    let num_blocks = num_subs.div_ceil(per_block);
    if arena.members.len() < num_blocks {
        arena.members.resize_with(num_blocks, Vec::new);
    }
    if arena.cluster_grads.len() < num_blocks {
        arena.cluster_grads.resize_with(num_blocks, Matrix::default);
    }
    for (block, dy) in tasks.chunks(per_block).zip(&mut arena.cluster_grads) {
        let most = block.iter().map(|(_, sub)| sub.table.num_clusters()).max().unwrap_or(0);
        dy.resize_for_overwrite(most, m);
    }
    for scratch in &mut arena.members[..num_blocks] {
        scratch.resize(2 * n, 0);
    }
    let scratch = arena.members.iter_mut().zip(&mut arena.cluster_grads);
    let blocks = tasks.chunks_mut(per_block).zip(scratch).enumerate();
    run_blocks(blocks, |(b, (block, (members, dy)))| {
        for (offset, (w_grad_band, sub)) in block.iter_mut().enumerate() {
            let i = b * per_block + offset;
            let SubMatrix { table, centroids: cent, centroid_grads: dx_c, .. } = &mut **sub;
            let (num_clusters, width) = cent.shape();

            // δy_{c,s}: per-cluster sums of δy rows (Eq. 8), in member order.
            table.gather_sum_members_into(delta_y, m, members, dy);

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
    flops
}

/// Row `r` of the unfolded input gradient `δx` (`N × K`) into `dst`: every
/// member of a cluster inherits its centroid's gradient (Eq. 13), so
/// columns `[start, end)` of sub-matrix `I` are the `δx_{c,I}` row of `r`'s
/// cluster. Reads what the latest [`reuse_backward`] with `want_input` left
/// in `arena`. The one definition of `δx` that the fold and its tests share.
///
/// # Panics
/// Panics if `dst.len() != K`, if `r` is not a row of the clustering, or if
/// the arena holds no centroid gradients for it.
pub fn input_grad_row(arena: &ReuseArena, split: &SubVecSplit, r: usize, dst: &mut [f32]) {
    assert_eq!(dst.len(), split.k(), "an input-gradient row is K wide");
    gather_row(&arena.subs, split, r, dst);
}

/// [`input_grad_row`] over the sub-matrix states.
fn gather_row(subs: &[SubMatrix], split: &SubVecSplit, r: usize, dst: &mut [f32]) {
    for (sub, &(start, end)) in subs.iter().zip(split.ranges()) {
        dst[start..end].copy_from_slice(sub.centroid_grads.row(sub.table.cluster_of(r) as usize));
    }
}

/// The input gradient of a batch of `batch` images: `col2im` of the `N × K`
/// matrix whose rows are [`input_grad_row`], with no such matrix stored.
/// Each block of the image fan-out gathers one image's rows at a time into
/// a slice of the thread's unfold scratch — dead between forward passes,
/// and already at least `N × K` long after this layer's forward on this
/// thread — and folds them in `col2im`'s order, so the result is bit for
/// bit `col2im` of the gathered matrix (`tensor::im2col::col2im_gathered`).
///
/// # Panics
/// Panics if `geom` disagrees with `split`, if the clustering in `arena` is
/// not of `batch` images under `geom`, or if the latest [`reuse_backward`]
/// left no centroid gradients (it ran without `want_input`).
pub fn fold_input_grad(
    arena: &ReuseArena,
    split: &SubVecSplit,
    geom: &ConvGeom,
    batch: usize,
) -> Tensor4 {
    assert_eq!(geom.k(), split.k(), "geometry disagrees with split");
    let subs = &arena.subs;
    assert_eq!(subs.len(), split.num_sub_vectors(), "one sub-matrix state per sub-matrix required");
    for (i, sub) in subs.iter().enumerate() {
        let table = &sub.table;
        assert_eq!(table.num_rows(), geom.rows_for_batch(batch), "table {i} is not of this batch");
        assert_eq!(
            sub.centroid_grads.shape(),
            (table.num_clusters(), split.width(i)),
            "sub-matrix {i} holds no centroid gradients of this clustering"
        );
    }
    let mut rows = scratch::unfolded(geom.rows_for_batch(batch) * geom.k());
    col2im_gathered(geom, batch, &mut rows, |r, row| gather_row(subs, split, r, row))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adr_clustering::lsh::LshTable;
    use adr_nn::layer::Mode;
    use adr_tensor::im2col::{col2im, im2col};
    use adr_tensor::rng::AdrRng;

    use crate::forward::{reuse_forward, reuse_forward_with};
    use crate::hashpack::PackedHasher;

    /// Gradients of one backward pass, in freshly sized buffers.
    struct Grads {
        weight_grad: Matrix,
        bias_grad: Vec<f32>,
        /// The unfolded input gradient, assembled row by row.
        delta_x_unf: Matrix,
        flops: u64,
    }

    fn backward(arena: &mut ReuseArena, split: &SubVecSplit, w: &Matrix, dy: &Matrix) -> Grads {
        let mut weight_grad = Matrix::filled(w.rows(), w.cols(), f32::NAN);
        let mut bias_grad = vec![f32::NAN; w.cols()];
        let flops =
            reuse_backward(arena, split, w, dy.as_slice(), &mut weight_grad, &mut bias_grad, true);
        let delta_x_unf = gathered(arena, split);
        Grads { weight_grad, bias_grad, delta_x_unf, flops }
    }

    /// The `N × K` input gradient, every row from [`input_grad_row`].
    fn gathered(arena: &ReuseArena, split: &SubVecSplit) -> Matrix {
        let n = arena.sub_matrices()[0].table().num_rows();
        let mut delta_x_unf = Matrix::filled(n, split.k(), f32::NAN);
        for r in 0..n {
            input_grad_row(arena, split, r, delta_x_unf.row_mut(r));
        }
        delta_x_unf
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
        let (_, mut fwd) = reuse_forward(&x, &w, &b, &split, &lsh, None);
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
        let (_, mut fwd) = reuse_forward(&x, &w, &b, &split, &lsh, None);
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
        let (_, mut fwd) = reuse_forward(&x, &w, &[0.0; 3], &split, &lsh, None);
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
        let (_, mut fwd) = reuse_forward(&x, &w, &b, &split, &lsh, None);
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
        let (_, mut fwd_coarse) = reuse_forward(&x, &w, &b, &split, &lsh, None);
        let dy = Matrix::filled(64, 4, 1.0);
        let coarse = backward(&mut fwd_coarse, &split, &w, &dy);
        let (x2, w2, b2, split2, lsh2) = setup(64, 8, 4, 8, 40, 7);
        let (_, mut fwd_fine) = reuse_forward(&x2, &w2, &b2, &split2, &lsh2, None);
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
            let x_unf = x.as_slice();
            reuse_forward_with(x_unf, &w, &b, &split, &hasher, None, train, &mut recycled);
            clusters.push(recycled.sub_matrices()[0].table().num_clusters());
            let got = backward(&mut recycled, &split, &w, &dy);
            let (_, mut fresh) = reuse_forward(x, &w, &b, &split, &lsh, None);
            let want = backward(&mut fresh, &split, &w, &dy);
            assert_eq!(got.weight_grad.as_slice(), want.weight_grad.as_slice());
            assert_eq!(got.delta_x_unf.as_slice(), want.delta_x_unf.as_slice());
            assert_eq!(got.bias_grad, want.bias_grad);
            assert_eq!(got.flops, want.flops);
        }
        assert!(clusters[0] < clusters[1], "precondition: cluster counts change ({clusters:?})");
    }

    /// The fold never stores `δx`, and must give bit for bit `col2im` of the
    /// rows [`input_grad_row`] assembles: stride 1 and 2, padding 0–2,
    /// 1×1, 3×3 and 5×5 kernels, `K` never a multiple of `L` (tails of 1, 7
    /// and 3 columns), one to three images.
    #[test]
    fn fold_is_col2im_of_the_gathered_rows_across_geometries() {
        let mut cases = 0;
        for stride in 1..=2 {
            for padding in 0..=2 {
                for kernel in [1, 3, 5] {
                    let Some(geom) = ConvGeom::new(7, 6, 3, kernel, kernel, stride, padding) else {
                        continue;
                    };
                    let k = geom.k();
                    let l = match k {
                        3 => 2,
                        27 => 10,
                        _ => 9,
                    };
                    let split = SubVecSplit::new(k, l);
                    assert!(k % l != 0 && k % l < 8, "precondition: a narrow tail");
                    for batch in 1..=3 {
                        let mut rng = AdrRng::seeded((stride * 100 + padding * 10 + kernel) as u64);
                        let input = Tensor4::from_fn(batch, 7, 6, 3, |b, y, x, c| {
                            ((b + y * 2 + x + c) % 3) as f32 + 0.01 * rng.gauss()
                        });
                        let x_unf = im2col(&input, &geom);
                        let w = Matrix::from_fn(k, 4, |_, _| rng.gauss() * 0.2);
                        let lsh: Vec<LshTable> = split
                            .ranges()
                            .iter()
                            .map(|&(a, b)| LshTable::new(b - a, 6, &mut rng))
                            .collect();
                        let (_, mut arena) =
                            reuse_forward(&x_unf, &w, &[0.0; 4], &split, &lsh, None);
                        let dy = Matrix::from_fn(x_unf.rows(), 4, |_, _| rng.gauss());
                        let out = backward(&mut arena, &split, &w, &dy);
                        let want = col2im(&out.delta_x_unf, &geom, batch);
                        let got = fold_input_grad(&arena, &split, &geom, batch);
                        let what = format!("s={stride} p={padding} k={kernel} nb={batch}");
                        assert_eq!(got.shape(), want.shape(), "{what}");
                        let bits = |t: &Tensor4| {
                            t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                        };
                        assert_eq!(bits(&got), bits(&want), "{what}");
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases >= 45, "{cases} cases");
    }

    #[test]
    #[should_panic(expected = "one sub-matrix state per sub-matrix")]
    fn wrong_table_count_panics() {
        let (x, w, b, split, lsh) = setup(8, 8, 2, 4, 8, 9);
        let (_, mut fwd) = reuse_forward(&x, &w, &b, &split, &lsh, None);
        let dy = Matrix::zeros(8, 2);
        backward(&mut fwd, &SubVecSplit::new(8, 8), &w, &dy);
    }
}
