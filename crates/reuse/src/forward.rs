//! The deep-reuse forward pass (Figs. 2 and 3, Algorithm 1).
//!
//! For each sub-matrix `x^(I)` of the unfolded input:
//!
//! 1. hash every row with the sub-matrix's LSH family → clusters,
//! 2. compute the centroid matrix `x_c^(I)` (mean of raw member rows),
//! 3. compute `y_c^(I) = x_c^(I) · W_I` — only `|C_I|` rows instead of `N`
//!    (with `CR = 1`, rows whose signature was seen in an earlier batch are
//!    fetched from the [`ReuseCache`] instead of computed),
//! 4. reconstruct `y = Σ_I y^(I)` by scattering each `y_c^(I)` row to all
//!    its member rows.
//!
//! Hashing and centroid extraction read column windows of the unfolded
//! matrix in place (no sub-matrix copies), and the reconstruction runs one
//! row-parallel pass over all sub-matrices at once — both matter because
//! clustering overhead is exactly what the paper's profitability condition
//! `H << M(1 − r_c)` trades against.

use adr_clustering::assign::ClusterTable;
use adr_clustering::lsh::{cluster_from_signatures_into, GroupScratch, LshTable};
use adr_clustering::reuse_cache::ReuseCache;
use adr_tensor::matrix::Matrix;
use adr_tensor::par::matmul_rows_range_into;

use crate::hashpack::PackedHasher;
use crate::stats::ReuseStats;
use crate::subvec::SubVecSplit;

/// Recycled buffers of one reuse layer, shared by its forward and backward
/// passes.
///
/// Every buffer here is sized on first use and *reused* — heap capacity kept,
/// contents reset — on every later call, so a steady-state training step's
/// hash/cluster/centroid/scatter machinery allocates nothing; the one thing a
/// forward pass still allocates is the output it returns. Besides scratch,
/// the arena holds the forward clustering ([`ReuseArena::tables`],
/// [`ReuseArena::centroids`]) that [`crate::backward::reuse_backward`]
/// consumes: it stays valid until the next forward pass through this arena.
#[derive(Debug, Default)]
pub struct ReuseArena {
    /// Row-major packed signatures, `N × num_subs`.
    sig_all: Vec<u64>,
    /// Signature → cluster lookup tables of the grouping step.
    group: GroupScratch,
    /// Forming signature of each cluster, one sub-matrix at a time.
    cluster_sigs: Vec<u64>,
    /// Per-sub-matrix clustering of the latest forward pass.
    pub(crate) tables: Vec<ClusterTable>,
    /// Per-sub-matrix centroid matrices `x_c^(I)` (`|C_I| × L_I`).
    pub(crate) centroids: Vec<Matrix>,
    /// Cluster ids whose signature missed the CR cache, one sub at a time.
    miss_rows: Vec<usize>,
    /// Gathered centroid rows of the cache misses (`|miss| × L_I`).
    miss_cent: Matrix,
    /// GEMM output for the cache misses (`|miss| × M`).
    miss_out: Matrix,
    /// Per-sub-matrix cluster outputs `y_c^(I)` (`|C_I| × M`). Dead once
    /// the forward pass has scattered them, so the backward pass gathers
    /// the same-shaped cluster gradients `δy_c^(I)` into these buffers.
    pub(crate) cluster_outputs: Vec<Matrix>,
    /// Per-sub-matrix centroid input-gradients `δx_c^(I)` (`|C_I| × L_I`).
    pub(crate) centroid_grads: Vec<Matrix>,
}

impl ReuseArena {
    /// Per-sub-matrix clustering of the input rows, as of the latest
    /// forward pass through this arena.
    pub fn tables(&self) -> &[ClusterTable] {
        &self.tables
    }

    /// Per-sub-matrix centroid matrices `x_c^(I)` (`|C_I| × L_I`), as of the
    /// latest forward pass through this arena.
    pub fn centroids(&self) -> &[Matrix] {
        &self.centroids
    }

    /// Frees the clustering (tables and centroids), keeping the scratch.
    /// The clustering is state *for the backward pass*; after a forward
    /// pass that none will follow — evaluation, serving — holding it only
    /// pins one batch's worth of tables per layer in memory, and an
    /// evaluation batch is often several times the training batch.
    pub fn release_clustering(&mut self) {
        self.tables.clear();
        self.centroids.clear();
    }
}

/// What a reuse forward pass returns; the clustering state the backward
/// pass consumes stays in the [`ReuseArena`].
#[derive(Debug)]
pub struct ForwardOutcome {
    /// `N × M` layer output (bias already added).
    pub output: Matrix,
    /// Observability snapshot.
    pub stats: ReuseStats,
}

/// Runs the clustered forward pass.
///
/// * `x_unf` — the `N × K` unfolded input.
/// * `weight` — the `K × M` weight matrix.
/// * `bias` — length-`M` bias.
/// * `split` — the sub-vector partition of `0..K`.
/// * `lsh` — one LSH family per sub-matrix, with `lsh[i].dim() ==
///   split.width(i)`.
/// * `caches` — `Some` enables across-batch cluster reuse (Algorithm 1);
///   must hold one cache per sub-matrix. The caller is responsible for
///   calling [`ReuseCache::begin_batch`] once per batch.
/// * `rows_per_image` — `Some(p)` restricts clusters to single-input scope:
///   rows `i` and `j` may only share a cluster when `i/p == j/p` (§III-B).
///   `None` is the single-batch scope.
///
/// Returns the outcome together with the freshly built arena holding the
/// clustering, ready for [`crate::backward::reuse_backward`].
///
/// # Panics
/// Panics on any dimension disagreement between the inputs, or when
/// single-input scope is combined with caches (contradictory scopes).
pub fn reuse_forward(
    x_unf: &Matrix,
    weight: &Matrix,
    bias: &[f32],
    split: &SubVecSplit,
    lsh: &[LshTable],
    caches: Option<&mut [ReuseCache]>,
    rows_per_image: Option<usize>,
) -> (ForwardOutcome, ReuseArena) {
    let hasher = PackedHasher::new(split, lsh);
    let mut arena = ReuseArena::default();
    let outcome = reuse_forward_with(
        x_unf,
        weight,
        bias,
        split,
        lsh,
        &hasher,
        caches,
        rows_per_image,
        &mut arena,
    );
    (outcome, arena)
}

/// [`reuse_forward`] with a caller-owned [`PackedHasher`] and [`ReuseArena`]
/// — the steady-state entry point. [`reuse_forward`] rebuilds the hasher and
/// every buffer on each call; a training loop that owns both (the reuse
/// layer does) pays those allocations once per reconfiguration instead of
/// once per batch.
///
/// `hasher` must be the packed form of exactly this `split`/`lsh` pair.
///
/// # Panics
/// Panics on any dimension disagreement between the inputs, when `hasher`
/// disagrees with the split, or when single-input scope is combined with
/// caches (contradictory scopes).
#[allow(clippy::too_many_arguments)]
pub fn reuse_forward_with(
    x_unf: &Matrix,
    weight: &Matrix,
    bias: &[f32],
    split: &SubVecSplit,
    lsh: &[LshTable],
    hasher: &PackedHasher,
    mut caches: Option<&mut [ReuseCache]>,
    rows_per_image: Option<usize>,
    arena: &mut ReuseArena,
) -> ForwardOutcome {
    let (n, k) = x_unf.shape();
    let m = weight.cols();
    assert_eq!(k, split.k(), "split width disagrees with input");
    assert_eq!(weight.rows(), k, "weight rows disagree with K");
    assert_eq!(bias.len(), m, "bias length disagrees with M");
    assert_eq!(lsh.len(), split.num_sub_vectors(), "one LSH family per sub-matrix required");
    assert_eq!(hasher.num_subs(), split.num_sub_vectors(), "hasher disagrees with split");
    if let Some(ref c) = caches {
        assert_eq!(c.len(), split.num_sub_vectors(), "one cache per sub-matrix required");
        assert!(
            rows_per_image.is_none(),
            "single-input scope conflicts with across-batch cluster reuse"
        );
    }
    if let Some(p) = rows_per_image {
        assert!(p > 0 && n % p == 0, "rows_per_image must evenly divide N");
    }
    adr_tensor::checked_finite!(x_unf.as_slice(), "reuse forward: unfolded input");
    adr_tensor::checked_finite!(weight.as_slice(), "reuse forward: weight");

    // Exactly one table / centroid matrix / output block per sub-matrix: a
    // retune to fewer sub-matrices must not leave stale clusterings behind
    // for the backward pass to find.
    let num_subs = split.num_sub_vectors();
    arena.tables.resize_with(num_subs, ClusterTable::default);
    arena.centroids.resize_with(num_subs, Matrix::default);
    arena.cluster_outputs.resize_with(num_subs, Matrix::default);
    let mut stats = ReuseStats { rows: n, num_sub_vectors: num_subs, ..Default::default() };
    let mut cluster_total = 0usize;
    let mut reuse_rate_sum = 0.0f64;

    // One streaming pass produces every sub-vector signature (row-major:
    // sig_all[r * num_subs + i]).
    {
        let _span = adr_obs::span_phase(adr_obs::Phase::Hash);
        hasher.hash_all_into(x_unf, &mut arena.sig_all);
    }
    let sig_all = &arena.sig_all;
    let h_bits = hasher.num_hashes();

    for (i, &(start, end)) in split.ranges().iter().enumerate() {
        let width = end - start;
        let table = &mut arena.tables[i];
        let sigs = &mut arena.cluster_sigs;
        // Single-input scope folds the image index into the cluster key so
        // clusters never span images; the signature itself stays the pure
        // LSH output (what the CR cache would key on).
        let cluster_span = adr_obs::span_phase(adr_obs::Phase::Cluster);
        match rows_per_image {
            None => cluster_from_signatures_into(
                (0..n).map(|r| sig_all[r * num_subs + i]),
                h_bits,
                &mut arena.group,
                table,
                sigs,
            ),
            Some(p) => {
                let img_bits = usize::BITS as usize - (n / p - 1).leading_zeros() as usize;
                cluster_from_signatures_into(
                    (0..n).map(|r| sig_all[r * num_subs + i] | (((r / p) as u64) << h_bits)),
                    (h_bits + img_bits).min(64),
                    &mut arena.group,
                    table,
                    sigs,
                );
            }
        }
        drop(cluster_span);
        stats.hash_flops += lsh[i].hashing_flops(n);
        let gemm_span = adr_obs::span_phase(adr_obs::Phase::CentroidGemm);
        let cent = &mut arena.centroids[i];
        table.centroids_range_into(x_unf, start, end, cent);
        adr_tensor::checked_finite_rows!(
            cent.as_slice(),
            width,
            "reuse forward: sub-matrix {i} centroids (row = cluster id)"
        );
        let num_clusters = table.num_clusters();
        cluster_total += num_clusters;

        // Both branches multiply centroid rows against the weight's
        // `[start, end)` row band in place — no `row_slice` copy of the
        // weight, no fresh output matrix: `y_c` is arena scratch.
        let y_c = &mut arena.cluster_outputs[i];
        match caches.as_deref_mut() {
            Some(cache_slice) => {
                let cache = &mut cache_slice[i];
                y_c.reset(num_clusters, m);
                arena.miss_rows.clear();
                for (c, &sig) in sigs.iter().enumerate() {
                    match cache.probe(sig) {
                        Some(row) => y_c.row_mut(c).copy_from_slice(row),
                        None => arena.miss_rows.push(c),
                    }
                }
                if !arena.miss_rows.is_empty() {
                    // Batch the misses into one GEMM.
                    arena.miss_cent.reset(arena.miss_rows.len(), width);
                    for (mi, &c) in arena.miss_rows.iter().enumerate() {
                        arena.miss_cent.row_mut(mi).copy_from_slice(cent.row(c));
                    }
                    matmul_rows_range_into(
                        &arena.miss_cent,
                        weight,
                        (start, end),
                        &mut arena.miss_out,
                    );
                    stats.gemm_flops += (arena.miss_rows.len() * width * m) as u64;
                    for (mi, &c) in arena.miss_rows.iter().enumerate() {
                        y_c.row_mut(c).copy_from_slice(arena.miss_out.row(mi));
                        cache.insert(sigs[c], arena.miss_out.row(mi));
                    }
                }
                reuse_rate_sum += cache.mean_reuse_rate();
            }
            None => {
                stats.gemm_flops += (num_clusters * width * m) as u64;
                matmul_rows_range_into(cent, weight, (start, end), y_c);
            }
        }
        drop(gemm_span);

        adr_tensor::checked_shape!(
            y_c.shape(),
            (num_clusters, m),
            "reuse forward: sub-matrix {i} cluster-output shape"
        );
        adr_tensor::checked_finite_rows!(
            y_c.as_slice(),
            m,
            "reuse forward: sub-matrix {i} cluster outputs (row = cluster id)"
        );
        stats.add_flops += (n * m) as u64;
    }

    // Row-parallel reconstruction: out[r] = bias + Σ_I y_c^(I)[cluster_I(r)].
    let scatter_span = adr_obs::span_phase(adr_obs::Phase::Scatter);
    let output = reconstruct(n, m, bias, &arena.tables, &arena.cluster_outputs);
    drop(scatter_span);
    adr_tensor::checked_finite!(output.as_slice(), "reuse forward: reconstructed output");

    stats.avg_clusters = cluster_total as f64 / num_subs as f64;
    stats.avg_remaining_ratio = stats.avg_clusters / n as f64;
    if caches.is_some() {
        stats.reuse_rate = reuse_rate_sum / num_subs as f64;
    }
    ForwardOutcome { output, stats }
}

/// Sums the per-sub-matrix cluster outputs into the `N × M` layer output,
/// parallelised over disjoint row chunks.
fn reconstruct(
    n: usize,
    m: usize,
    bias: &[f32],
    tables: &[ClusterTable],
    cluster_outputs: &[Matrix],
) -> Matrix {
    let mut output = Matrix::zeros(n, m);
    // Gather-and-add over cluster rows — memory-bound, like col2im.
    let threads = adr_tensor::par::memory_threads(n * m * tables.len());
    adr_tensor::par::run_row_blocks(
        output.as_mut_slice(),
        m,
        n,
        threads,
        |row0, rows_here, chunk| {
            for r in 0..rows_here {
                let dst = &mut chunk[r * m..(r + 1) * m];
                dst.copy_from_slice(bias);
                for (table, y_c) in tables.iter().zip(cluster_outputs) {
                    let src = y_c.row(table.cluster_of(row0 + r) as usize);
                    for (d, s) in dst.iter_mut().zip(src) {
                        *d += s;
                    }
                }
            }
        },
    );
    output
}

#[cfg(test)]
mod tests {
    use super::*;
    use adr_tensor::rng::AdrRng;

    fn lsh_families(split: &SubVecSplit, h: usize, seed: u64) -> Vec<LshTable> {
        let mut rng = AdrRng::seeded(seed);
        split.ranges().iter().map(|&(a, b)| LshTable::new(b - a, h, &mut rng)).collect()
    }

    fn random_problem(n: usize, k: usize, m: usize, seed: u64) -> (Matrix, Matrix, Vec<f32>) {
        let mut rng = AdrRng::seeded(seed);
        let x = Matrix::from_fn(n, k, |_, _| rng.gauss());
        let w = Matrix::from_fn(k, m, |_, _| rng.gauss() * 0.1);
        let b: Vec<f32> = (0..m).map(|_| rng.gauss() * 0.01).collect();
        (x, w, b)
    }

    /// With enough hash functions, every distinct row is its own cluster and
    /// the reuse output equals the dense output exactly (up to fp order).
    #[test]
    fn degenerates_to_exact_with_many_hashes() {
        let (x, w, b) = random_problem(24, 12, 5, 1);
        let split = SubVecSplit::new(12, 12);
        let lsh = lsh_families(&split, 40, 2);
        let (out, arena) = reuse_forward(&x, &w, &b, &split, &lsh, None, None);
        let mut dense = x.matmul(&w);
        dense.add_row_bias(&b);
        // Random Gaussian rows almost surely land in distinct clusters.
        assert_eq!(arena.tables()[0].num_clusters(), 24);
        assert!(out.output.max_abs_diff(&dense) < 1e-3);
    }

    /// Duplicate rows must produce identical outputs and a small cluster set.
    #[test]
    fn duplicate_rows_share_all_computation() {
        let mut rng = AdrRng::seeded(3);
        let proto = Matrix::from_fn(4, 8, |_, _| rng.gauss());
        // 32 rows, each a copy of one of the 4 prototypes.
        let x = Matrix::from_fn(32, 8, |r, c| proto[(r % 4, c)]);
        let w = Matrix::from_fn(8, 6, |_, _| rng.gauss());
        let split = SubVecSplit::new(8, 8);
        let lsh = lsh_families(&split, 16, 4);
        let (out, arena) = reuse_forward(&x, &w, &[0.0; 6], &split, &lsh, None, None);
        assert_eq!(arena.tables()[0].num_clusters(), 4);
        assert!((out.stats.avg_remaining_ratio - 4.0 / 32.0).abs() < 1e-12);
        // Exactness: centroids of identical rows are the rows themselves.
        let dense = x.matmul(&w);
        assert!(out.output.max_abs_diff(&dense) < 1e-3);
    }

    #[test]
    fn sub_vector_partials_sum_to_dense_when_exact() {
        // L < K with all-distinct clusters still reconstructs the dense GEMM.
        let (x, w, b) = random_problem(16, 10, 4, 5);
        let split = SubVecSplit::new(10, 4); // ranges 0..4, 4..8, 8..10
        let lsh = lsh_families(&split, 40, 6);
        let (out, arena) = reuse_forward(&x, &w, &b, &split, &lsh, None, None);
        let mut dense = x.matmul(&w);
        dense.add_row_bias(&b);
        if arena.tables().iter().all(|t| t.num_clusters() == 16) {
            assert!(out.output.max_abs_diff(&dense) < 1e-3);
        }
        assert_eq!(arena.tables().len(), 3);
        assert_eq!(arena.centroids()[2].cols(), 2);
    }

    #[test]
    fn large_batch_uses_parallel_paths_consistently() {
        // Cross the n >= 64 GEMM-hashing threshold and the multi-thread
        // reconstruction threshold; outputs must still match a dense GEMM
        // when clusters are singletons.
        let (x, w, b) = random_problem(512, 24, 16, 13);
        let split = SubVecSplit::new(24, 8);
        let lsh = lsh_families(&split, 48, 14);
        let (out, arena) = reuse_forward(&x, &w, &b, &split, &lsh, None, None);
        let mut dense = x.matmul(&w);
        dense.add_row_bias(&b);
        if arena.tables().iter().all(|t| t.num_clusters() == 512) {
            assert!(out.output.max_abs_diff(&dense) < 1e-2);
        } else {
            // Even with some collisions the output must stay finite & close.
            assert!(out.output.max_abs_diff(&dense) < 1.0);
        }
    }

    #[test]
    fn approximation_error_shrinks_with_more_hashes() {
        // Correlated rows: clusters form; more hashes → finer clusters →
        // smaller output error.
        let mut rng = AdrRng::seeded(7);
        let proto = Matrix::from_fn(6, 16, |_, _| rng.gauss());
        let x = Matrix::from_fn(120, 16, |r, c| proto[(r % 6, c)] + 0.05 * rng.gauss());
        let w = Matrix::from_fn(16, 8, |_, _| rng.gauss());
        let b = vec![0.0; 8];
        let dense = x.matmul(&w);
        let split = SubVecSplit::new(16, 16);
        let err = |h: usize| {
            let lsh = lsh_families(&split, h, 11);
            let (out, _) = reuse_forward(&x, &w, &b, &split, &lsh, None, None);
            out.output.max_abs_diff(&dense)
        };
        let coarse = err(2);
        let fine = err(30);
        assert!(fine < coarse, "fine {fine} vs coarse {coarse}");
    }

    #[test]
    fn flop_accounting_matches_formula_without_cr() {
        let (x, w, b) = random_problem(20, 12, 6, 8);
        let split = SubVecSplit::new(12, 4);
        let lsh = lsh_families(&split, 8, 9);
        let (out, arena) = reuse_forward(&x, &w, &b, &split, &lsh, None, None);
        // hash: N * K * H  (all sub-matrices together hash every element).
        assert_eq!(out.stats.hash_flops, (20 * 12 * 8) as u64);
        // adds: N * M per sub-matrix.
        assert_eq!(out.stats.add_flops, (3 * 20 * 6) as u64);
        // gemm: sum over sub-matrices of |C_I| * L_I * M.
        let expect: u64 = arena.tables().iter().map(|t| (t.num_clusters() * 4 * 6) as u64).sum();
        assert_eq!(out.stats.gemm_flops, expect);
    }

    #[test]
    fn cluster_reuse_skips_computation_on_second_batch() {
        let (x, w, b) = random_problem(30, 8, 5, 10);
        let split = SubVecSplit::new(8, 8);
        let lsh = lsh_families(&split, 10, 11);
        let mut caches = vec![ReuseCache::new(5)];
        caches[0].begin_batch();
        let (first, _) = reuse_forward(&x, &w, &b, &split, &lsh, Some(&mut caches), None);
        let first_gemm = first.stats.gemm_flops;
        assert!(first_gemm > 0);
        // Same batch again: every signature is cached.
        caches[0].begin_batch();
        let (second, _) = reuse_forward(&x, &w, &b, &split, &lsh, Some(&mut caches), None);
        assert_eq!(second.stats.gemm_flops, 0, "all clusters reused");
        assert!(second.output.max_abs_diff(&first.output) < 1e-5);
        caches[0].begin_batch();
        assert!(caches[0].history().last().copied().unwrap() == 1.0);
    }

    #[test]
    #[should_panic(expected = "one LSH family per sub-matrix")]
    fn wrong_family_count_panics() {
        let (x, w, b) = random_problem(4, 8, 2, 12);
        let split = SubVecSplit::new(8, 4);
        let lsh = lsh_families(&SubVecSplit::new(8, 8), 4, 13);
        let _ = reuse_forward(&x, &w, &b, &split, &lsh, None, None);
    }
}
