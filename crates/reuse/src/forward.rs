//! The deep-reuse forward pass (Figs. 2 and 3, Algorithm 1).
//!
//! One streaming pass hashes every sub-vector of every row. Then, for each
//! sub-matrix `x^(I)` of the unfolded input:
//!
//! 1. group rows with equal signatures into clusters;
//! 2. with `CR = 1`, probe the [`ReuseCache`] with every cluster's signature:
//!    a hit's stored row *is* its `y_c^(I)` row, a miss is listed;
//! 3. compute the centroid matrix `x_c^(I)` (mean of raw member rows) —
//!    for every sub-matrix when a backward pass will read the clustering
//!    (`∇W` needs every centroid), otherwise only where a product is still
//!    owed: always without `CR`, and with it only for a sub-matrix that has
//!    a miss;
//! 4. compute `y_c^(I) = x_c^(I) · W_I` — only `|C_I|` rows instead of `N`,
//!    and with `CR = 1` only the misses' rows, each inserted into the cache;
//!
//! and finally `y = Σ_I y^(I)` is reconstructed by adding each `y_c^(I)` row
//! to all its member rows.
//!
//! Probing every cluster before inserting any sees exactly the hits of a
//! probe-then-insert walk: with `CR = 1` the scope is the whole batch, so the
//! signatures of one sub-matrix's clusters are distinct and an insert can
//! never answer a later probe of the same batch. Inserts still run in
//! ascending cluster order, so hit counts, cache contents and [`ReuseStats`]
//! are those of the walk.
//!
//! Sub-matrices are independent until the reconstruction, so steps 1–4 run as
//! **one fan-out over sub-matrices** on the persistent pool: a block owns a
//! contiguous run of sub-matrices — a contiguous column band of the unfolded
//! matrix — and accumulates all of their centroid sums in a single
//! row-major sweep over that band, instead of walking the row-major matrix
//! column-strided once per sub-matrix. The reconstruction is row-parallel,
//! and each output row is one [`sum_rows`] call: a tile of the row stays in
//! registers while every sub-matrix's cluster row is added to it, and is
//! stored once. Both matter because clustering overhead is exactly what the
//! paper's profitability condition `H << M(1 − r_c)` trades against.
//! DESIGN.md §15.6 has the ordering argument for why none of this changes a
//! bit.

use std::sync::OnceLock;

use adr_clustering::assign::ClusterTable;
use adr_clustering::lsh::{cluster_scoped_signatures_into, GroupScratch, LshTable};
use adr_clustering::reuse_cache::ReuseCache;
use adr_nn::layer::Mode;
use adr_tensor::kernels::sum_rows;
use adr_tensor::matrix::{gemm_rows, Matrix};
use adr_tensor::par::{memory_threads, run_blocks, run_row_blocks};

use crate::hashpack::PackedHasher;
use crate::stats::ReuseStats;
use crate::subvec::SubVecSplit;

/// One sub-matrix's share of a layer's reuse state: its clustering, and the
/// per-cluster blocks the forward and backward passes compute from it.
#[derive(Debug, Default)]
pub struct SubMatrix {
    /// Clustering of the input rows under this sub-matrix's LSH family.
    pub(crate) table: ClusterTable,
    /// Forming signature of each cluster (what the CR cache keys on).
    cluster_sigs: Vec<u64>,
    /// With `CR = 1`, the clusters whose signature missed the cache in the
    /// latest forward pass, ascending.
    misses: Vec<usize>,
    /// Centroid matrix `x_c^(I)` (`|C_I| × L_I`).
    pub(crate) centroids: Matrix,
    /// Cluster outputs `y_c^(I)` (`|C_I| × M`). Dead once the forward pass
    /// has scattered them, so the backward pass gathers the same-shaped
    /// cluster gradients `δy_c^(I)` into this buffer.
    pub(crate) cluster_outputs: Matrix,
    /// Centroid input-gradients `δx_c^(I)` (`|C_I| × L_I`).
    pub(crate) centroid_grads: Matrix,
    /// Centroid rows the latest forward pass multiplied by `W_I`: every
    /// cluster, or with `CR = 1` only those that missed the cache.
    multiplied: usize,
}

impl SubMatrix {
    /// Clustering of the input rows, as of the latest forward pass.
    pub fn table(&self) -> &ClusterTable {
        &self.table
    }

    /// Centroid matrix `x_c^(I)` (`|C_I| × L_I`), as of the latest forward
    /// pass.
    pub fn centroids(&self) -> &Matrix {
        &self.centroids
    }
}

/// Recycled buffers of one reuse layer, shared by its forward and backward
/// passes.
///
/// Every buffer here is sized on first use and *reused* — heap capacity kept,
/// contents reset — on every later call, so a steady-state training step's
/// hash/cluster/centroid/scatter machinery allocates nothing; the one thing a
/// forward pass still allocates is the output it returns. The arena holds
/// the signature matrix, one [`SubMatrix`] per sub-matrix — the unit both
/// passes fan out over — and one grouping scratch per fan-out block. The
/// clustering in the sub-matrix states is what
/// [`crate::backward::reuse_backward`] consumes: after a [`Mode::Train`]
/// forward pass it stays valid until the next forward pass through this
/// arena. A [`Mode::Eval`] pass, which no backward pass follows, frees it on
/// the way out: holding it would only pin one batch's worth of tables per
/// layer, and an evaluation batch is often several times the training batch.
#[derive(Debug, Default)]
pub struct ReuseArena {
    /// Row-major packed signatures, `N × num_subs`.
    sig_all: Vec<u64>,
    /// Per-sub-matrix state of the latest forward pass.
    pub(crate) subs: Vec<SubMatrix>,
    /// Signature → cluster lookup tables of the grouping step, one per
    /// block of the sub-matrix fan-out.
    group: Vec<GroupScratch>,
}

impl ReuseArena {
    /// Per-sub-matrix state (clustering and centroids), as of the latest
    /// forward pass through this arena.
    pub fn sub_matrices(&self) -> &[SubMatrix] {
        &self.subs
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
/// clustering of a [`Mode::Train`] pass, ready for
/// [`crate::backward::reuse_backward`].
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
        Mode::Train,
        &mut arena,
    );
    (outcome, arena)
}

/// What one block of the sub-matrix fan-out owns: a contiguous run of
/// sub-matrix states starting at `sub0`, the CR caches of the same run, and
/// a grouping scratch.
struct ForwardBlock<'a> {
    sub0: usize,
    subs: &'a mut [SubMatrix],
    caches: Option<&'a mut [ReuseCache]>,
    group: &'a mut GroupScratch,
}

/// [`reuse_forward`] with a caller-owned [`PackedHasher`] and [`ReuseArena`]
/// — the steady-state entry point. [`reuse_forward`] rebuilds the hasher and
/// every buffer on each call; a training loop that owns both (the reuse
/// layer does) pays those allocations once per reconfiguration instead of
/// once per batch.
///
/// `hasher` must be the packed form of exactly this `split`/`lsh` pair.
/// `mode` says whether a backward pass will consume the clustering:
/// [`Mode::Train`] forms every centroid and leaves the clustering in `arena`
/// for it; [`Mode::Eval`] forms only the centroids a product still needs and
/// frees the clustering before returning (module and [`ReuseArena`] docs).
/// The output, the statistics and the caches are the same bits either way.
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
    mode: Mode,
    arena: &mut ReuseArena,
) -> ForwardOutcome {
    let (n, k) = x_unf.shape();
    let m = weight.cols();
    assert_eq!(k, split.k(), "split width disagrees with input");
    assert_eq!(weight.rows(), k, "weight rows disagree with K");
    assert!(m > 0, "a reuse layer has at least one filter");
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

    // Exactly one state per sub-matrix: a retune to fewer sub-matrices must
    // not leave stale clusterings behind for the backward pass to find.
    let num_subs = split.num_sub_vectors();
    arena.subs.resize_with(num_subs, SubMatrix::default);

    // One streaming pass produces every sub-vector signature (row-major:
    // sig_all[r * num_subs + i]).
    {
        let _span = adr_obs::span_phase(adr_obs::Phase::Hash);
        hasher.hash_all_into(x_unf, &mut arena.sig_all);
    }
    let sig_all = &arena.sig_all;
    let h_bits = hasher.num_hashes();
    // Single-input scope groups each image's rows apart; the signature stays
    // the pure LSH output either way (what the CR cache keys on).
    let scope_rows = rows_per_image.unwrap_or(n).max(1);
    let (x, w) = (x_unf.as_slice(), weight.as_slice());

    // The sub-matrix fan-out. Grouping and the centroid sweep touch every
    // element of the unfolded matrix and its signature once — memory-bound,
    // like the scatter — so that is what sizes the split. Each block takes a
    // contiguous run of sub-matrix states, the same run of caches and one
    // grouping scratch: all cut here, on the dispatching thread.
    let threads = memory_threads(n * k).clamp(1, num_subs);
    let per_block = num_subs.div_ceil(threads);
    if arena.group.len() < threads {
        arena.group.resize_with(threads, GroupScratch::default);
    }
    let mut cache_runs = caches.as_deref_mut().map(|c| c.chunks_mut(per_block));
    let blocks = arena.subs.chunks_mut(per_block).zip(&mut arena.group).enumerate().map(
        |(b, (subs, group))| ForwardBlock {
            sub0: b * per_block,
            subs,
            caches: cache_runs.as_mut().and_then(Iterator::next),
            group,
        },
    );
    // Worker threads have no telemetry sink, so the phase spans are the
    // dispatching thread's: `Cluster` around its own block's grouping,
    // `CentroidGemm` from there until every block is done.
    let gemm_span = OnceLock::new();
    run_blocks(blocks, |ForwardBlock { sub0, subs, mut caches, group }| {
        let ranges = &split.ranges()[sub0..sub0 + subs.len()];

        // (A) Group equal signatures, one sub-matrix at a time.
        let cluster_span = adr_obs::span_phase(adr_obs::Phase::Cluster);
        for (i, sub) in (sub0..).zip(subs.iter_mut()) {
            cluster_scoped_signatures_into(
                sig_all.iter().skip(i).step_by(num_subs).copied(),
                h_bits,
                scope_rows,
                group,
                &mut sub.table,
                &mut sub.cluster_sigs,
            );
        }
        drop(cluster_span);
        if sub0 == 0 {
            let _ = gemm_span.set(adr_obs::span_phase(adr_obs::Phase::CentroidGemm));
        }

        // (B) With CR, probe every cluster's signature in cluster order: a
        // hit's stored row is its output row, a miss is listed. Every row of
        // `y_c` is then a hit's copy or a miss's product, so it is not
        // zero-filled first.
        if let Some(caches) = caches.as_deref_mut() {
            for (sub, cache) in subs.iter_mut().zip(caches.iter_mut()) {
                let SubMatrix { cluster_sigs, misses, cluster_outputs: y_c, .. } = sub;
                y_c.resize_for_overwrite(cluster_sigs.len(), m);
                misses.clear();
                for (c, &sig) in cluster_sigs.iter().enumerate() {
                    match cache.probe(sig) {
                        Some(row) => y_c.row_mut(c).copy_from_slice(row),
                        None => misses.push(c),
                    }
                }
            }
        }

        // (C) Size the centroid matrices this pass forms, zeroed: all of
        // them for a backward pass or without CR, else those with a miss.
        let cr = caches.is_some();
        let formed = |sub: &SubMatrix| mode == Mode::Train || !cr || !sub.misses.is_empty();
        for (sub, &(start, end)) in subs.iter_mut().zip(ranges) {
            if formed(sub) {
                sub.centroids.reset(sub.table.num_clusters(), end - start);
            }
        }

        // (D) One row-major sweep over this block's column band sums the
        // member rows of every formed centroid matrix. A cluster still
        // receives its members in ascending row order, as in a
        // per-sub-matrix walk.
        if subs.iter().any(formed) {
            for r in 0..n {
                let row = &x[r * k..(r + 1) * k];
                for (sub, &(start, end)) in subs.iter_mut().zip(ranges) {
                    if !formed(sub) {
                        continue;
                    }
                    let dst = sub.centroids.row_mut(sub.table.cluster_of(r) as usize);
                    for (d, s) in dst.iter_mut().zip(&row[start..end]) {
                        *d += s;
                    }
                }
            }
        }

        // (E) Sums to means, then `y_c = x_c · W_I` against the weight's
        // `[start, end)` row band in place — every cluster's row without CR,
        // each miss's row (inserted into the cache) with it.
        for (j, (sub, &(start, end))) in subs.iter_mut().zip(ranges).enumerate() {
            let sums = formed(sub);
            let SubMatrix {
                table,
                cluster_sigs,
                misses,
                centroids: cent,
                cluster_outputs: y_c,
                multiplied,
                ..
            } = sub;
            let (num_clusters, width) = (table.num_clusters(), end - start);
            if sums {
                table.sums_to_means(cent);
            }
            let w_band = &w[start * m..end * m];
            *multiplied = match caches.as_deref_mut() {
                None => {
                    y_c.reset(num_clusters, m);
                    gemm_rows(cent.as_slice(), w_band, y_c.as_mut_slice(), num_clusters, width, m);
                    num_clusters
                }
                // Every output row of the GEMM depends on its own centroid
                // row alone, so a miss is multiplied where it stands — the
                // bits of batching all misses into one product.
                Some(caches) => {
                    let cache = &mut caches[j];
                    for &c in misses.iter() {
                        let y_row = y_c.row_mut(c);
                        y_row.fill(0.0);
                        gemm_rows(cent.row(c), w_band, y_row, 1, width, m);
                        cache.insert(cluster_sigs[c], y_c.row(c));
                    }
                    misses.len()
                }
            };
        }
    });
    drop(gemm_span);

    // Row-parallel reconstruction: out[r] = bias + Σ_I y_c^(I)[cluster_I(r)].
    let scatter_span = adr_obs::span_phase(adr_obs::Phase::Scatter);
    let output = reconstruct(n, m, bias, &arena.subs);
    drop(scatter_span);

    let mut stats = ReuseStats { rows: n, num_sub_vectors: num_subs, ..Default::default() };
    let mut cluster_total = 0usize;
    for (i, sub) in arena.subs.iter().enumerate() {
        cluster_total += sub.table.num_clusters();
        stats.hash_flops += lsh[i].hashing_flops(n);
        stats.gemm_flops += (sub.multiplied * split.width(i) * m) as u64;
        stats.add_flops += (n * m) as u64;
    }
    stats.avg_clusters = cluster_total as f64 / num_subs as f64;
    stats.avg_remaining_ratio = stats.avg_clusters / n as f64;
    if let Some(caches) = caches {
        let mut reuse_rate_sum = 0.0f64;
        for cache in caches.iter() {
            reuse_rate_sum += cache.mean_reuse_rate();
        }
        stats.reuse_rate = reuse_rate_sum / num_subs as f64;
    }
    if mode == Mode::Eval {
        for sub in &mut arena.subs {
            sub.table = ClusterTable::default();
            sub.centroids = Matrix::default();
        }
    }
    ForwardOutcome { output, stats }
}

/// Sums the per-sub-matrix cluster outputs into the `N × M` layer output,
/// parallelised over disjoint row chunks: every output row is `bias`, then
/// one add per sub-matrix in ascending order, in registers ([`sum_rows`]).
fn reconstruct(n: usize, m: usize, bias: &[f32], subs: &[SubMatrix]) -> Matrix {
    let mut output = Matrix::zeros(n, m);
    // Gather-and-add over cluster rows — memory-bound, like col2im.
    let threads = memory_threads(n * m * subs.len());
    run_row_blocks(output.as_mut_slice(), m, n, threads, |row0, _, chunk| {
        for (r, dst) in (row0..).zip(chunk.chunks_exact_mut(m)) {
            let rows = subs.iter().map(|sub| {
                let id = sub.table.cluster_of(r) as usize;
                &sub.cluster_outputs.as_slice()[id * m..][..m]
            });
            sum_rows(dst, bias, rows);
        }
    });
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
        assert_eq!(arena.sub_matrices()[0].table().num_clusters(), 24);
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
        assert_eq!(arena.sub_matrices()[0].table().num_clusters(), 4);
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
        if arena.sub_matrices().iter().all(|s| s.table().num_clusters() == 16) {
            assert!(out.output.max_abs_diff(&dense) < 1e-3);
        }
        assert_eq!(arena.sub_matrices().len(), 3);
        assert_eq!(arena.sub_matrices()[2].centroids().cols(), 2);
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
        if arena.sub_matrices().iter().all(|s| s.table().num_clusters() == 512) {
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
        let expect: u64 =
            arena.sub_matrices().iter().map(|s| (s.table().num_clusters() * 4 * 6) as u64).sum();
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
        assert_eq!(caches[0].current_batch_rate(), Some(1.0));
    }

    /// What the differential tests compare: everything a forward pass
    /// computes that the backward pass or the controller can observe.
    struct Reference {
        output: Matrix,
        tables: Vec<ClusterTable>,
        centroids: Vec<Matrix>,
        stats: ReuseStats,
    }

    /// The serial per-sub-matrix loop the fan-out replaced — group, average
    /// the window's member rows, multiply (with `CR = 1`: probe, batch the
    /// misses into one product, insert), then reconstruct row by row —
    /// written against the allocating clustering and matrix API. Grouping
    /// keys on the `(image, signature)` pair, so single-input scope is right
    /// at every `H`.
    fn reference_forward(
        x_unf: &Matrix,
        weight: &Matrix,
        bias: &[f32],
        split: &SubVecSplit,
        lsh: &[LshTable],
        mut caches: Option<&mut [ReuseCache]>,
        rows_per_image: Option<usize>,
    ) -> Reference {
        let (n, m) = (x_unf.rows(), weight.cols());
        let num_subs = split.num_sub_vectors();
        let sig_all = PackedHasher::new(split, lsh).hash_all(x_unf);
        let mut stats = ReuseStats { rows: n, num_sub_vectors: num_subs, ..Default::default() };
        let (mut tables, mut centroids, mut cluster_outputs) = (Vec::new(), Vec::new(), Vec::new());
        let mut cluster_total = 0usize;
        let mut reuse_rate_sum = 0.0f64;
        for (i, &(start, end)) in split.ranges().iter().enumerate() {
            let keys: Vec<(usize, u64)> = (0..n)
                .map(|r| (rows_per_image.map_or(0, |p| r / p), sig_all[r * num_subs + i]))
                .collect();
            let table = ClusterTable::from_sparse_ids(&keys);
            let mut sigs = vec![0u64; table.num_clusters()];
            for r in (0..n).rev() {
                sigs[table.cluster_of(r) as usize] = keys[r].1;
            }
            stats.hash_flops += lsh[i].hashing_flops(n);
            let cent = table.centroids_range(x_unf, start, end);
            let num_clusters = table.num_clusters();
            cluster_total += num_clusters;
            let w_band = weight.row_slice(start, end);
            let y_c = match caches.as_deref_mut() {
                Some(cache_slice) => {
                    let cache = &mut cache_slice[i];
                    let mut y_c = Matrix::zeros(num_clusters, m);
                    let mut miss_rows = Vec::new();
                    for (c, &sig) in sigs.iter().enumerate() {
                        match cache.probe(sig) {
                            Some(row) => y_c.row_mut(c).copy_from_slice(row),
                            None => miss_rows.push(c),
                        }
                    }
                    if !miss_rows.is_empty() {
                        let mut miss_cent = Matrix::zeros(miss_rows.len(), end - start);
                        for (mi, &c) in miss_rows.iter().enumerate() {
                            miss_cent.row_mut(mi).copy_from_slice(cent.row(c));
                        }
                        let miss_out = miss_cent.matmul(&w_band);
                        stats.gemm_flops += (miss_rows.len() * (end - start) * m) as u64;
                        for (mi, &c) in miss_rows.iter().enumerate() {
                            y_c.row_mut(c).copy_from_slice(miss_out.row(mi));
                            cache.insert(sigs[c], miss_out.row(mi));
                        }
                    }
                    reuse_rate_sum += cache.mean_reuse_rate();
                    y_c
                }
                None => {
                    stats.gemm_flops += (num_clusters * (end - start) * m) as u64;
                    cent.matmul(&w_band)
                }
            };
            stats.add_flops += (n * m) as u64;
            tables.push(table);
            centroids.push(cent);
            cluster_outputs.push(y_c);
        }
        let mut output = Matrix::zeros(n, m);
        for r in 0..n {
            let dst = output.row_mut(r);
            dst.copy_from_slice(bias);
            for (table, y_c) in tables.iter().zip(&cluster_outputs) {
                for (d, s) in dst.iter_mut().zip(y_c.row(table.cluster_of(r) as usize)) {
                    *d += s;
                }
            }
        }
        stats.avg_clusters = cluster_total as f64 / num_subs as f64;
        stats.avg_remaining_ratio = stats.avg_clusters / n as f64;
        if caches.is_some() {
            stats.reuse_rate = reuse_rate_sum / num_subs as f64;
        }
        Reference { output, tables, centroids, stats }
    }

    /// The worker override is process-global; the differential tests flip it.
    static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Runs `batches` in order through the fan-out at 1, 2 and 3 forced
    /// workers — one recycled arena and, with `cluster_reuse`, one set of
    /// caches per worker count — and through the reference, and demands
    /// bitwise equality of everything after every batch: output, stats and
    /// caches in either `mode`; with [`Mode::Train`] also every table and
    /// centroid matrix the backward pass reads, while a [`Mode::Eval`] pass
    /// must leave no clustering behind.
    #[allow(clippy::too_many_arguments)]
    fn assert_matches_reference(
        case: &str,
        batches: &[&Matrix],
        weight: &Matrix,
        bias: &[f32],
        l: usize,
        h: usize,
        cluster_reuse: bool,
        rows_per_image: Option<usize>,
        mode: Mode,
    ) {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let split = SubVecSplit::new(weight.rows(), l);
        let lsh = lsh_families(&split, h, 77);
        let hasher = PackedHasher::new(&split, &lsh);
        let m = weight.cols();
        let fresh_caches = || -> Vec<ReuseCache> {
            (0..split.num_sub_vectors()).map(|_| ReuseCache::new(m)).collect()
        };
        let mut want_caches = fresh_caches();
        let want: Vec<Reference> = batches
            .iter()
            .map(|x| {
                want_caches.iter_mut().for_each(ReuseCache::begin_batch);
                let caches = cluster_reuse.then_some(want_caches.as_mut_slice());
                reference_forward(x, weight, bias, &split, &lsh, caches, rows_per_image)
            })
            .collect();
        for workers in [1usize, 2, 3] {
            let mut arena = ReuseArena::default();
            let mut caches = fresh_caches();
            adr_tensor::par::set_thread_override(Some(workers));
            for (b, (x, want)) in batches.iter().zip(&want).enumerate() {
                let what = format!("{case}: batch {b}, {workers} workers, {mode:?}");
                caches.iter_mut().for_each(ReuseCache::begin_batch);
                let got = reuse_forward_with(
                    x,
                    weight,
                    bias,
                    &split,
                    &lsh,
                    &hasher,
                    cluster_reuse.then_some(caches.as_mut_slice()),
                    rows_per_image,
                    mode,
                    &mut arena,
                );
                assert_eq!(bits(got.output.as_slice()), bits(want.output.as_slice()), "{what}");
                assert_eq!(arena.sub_matrices().len(), want.tables.len(), "{what}");
                for (i, sub) in arena.sub_matrices().iter().enumerate() {
                    if mode == Mode::Eval {
                        assert_eq!(sub.table(), &ClusterTable::default(), "{what}: table {i}");
                        assert_eq!(sub.centroids().shape(), (0, 0), "{what}: centroids {i}");
                        continue;
                    }
                    assert_eq!(sub.table(), &want.tables[i], "{what}: table {i}");
                    assert_eq!(sub.centroids().shape(), want.centroids[i].shape(), "{what}");
                    assert_eq!(
                        bits(sub.centroids().as_slice()),
                        bits(want.centroids[i].as_slice()),
                        "{what}: centroids {i}"
                    );
                }
                let (g, w) = (got.stats, want.stats);
                assert_eq!((g.rows, g.num_sub_vectors), (w.rows, w.num_sub_vectors), "{what}");
                assert_eq!(
                    (g.hash_flops, g.gemm_flops, g.add_flops),
                    (w.hash_flops, w.gemm_flops, w.add_flops),
                    "{what}"
                );
                assert_eq!(
                    [g.avg_clusters, g.avg_remaining_ratio, g.reuse_rate].map(f64::to_bits),
                    [w.avg_clusters, w.avg_remaining_ratio, w.reuse_rate].map(f64::to_bits),
                    "{what}"
                );
            }
            adr_tensor::par::set_thread_override(None);
            // The caches saw the same probes and inserts in the same order.
            let mut twin = want_caches.clone();
            for (i, (got, want)) in caches.iter_mut().zip(&mut twin).enumerate() {
                let what = format!("{case}: cache {i}, {workers} workers, {mode:?}");
                let rate = |c: &ReuseCache| c.current_batch_rate().map(f64::to_bits);
                assert_eq!(rate(got), rate(want), "{what}");
                got.begin_batch();
                want.begin_batch();
                let mean = |c: &ReuseCache| c.mean_reuse_rate().to_bits();
                assert_eq!(mean(got), mean(want), "{what}");
                assert_eq!(got.len(), want.len(), "{what}");
                for sig in 0..(1u64 << h.min(10)) {
                    assert_eq!(
                        got.probe(sig).map(bits),
                        want.probe(sig).map(bits),
                        "{what}: signature {sig}"
                    );
                }
            }
        }
    }

    /// `n` rows over `k` columns drawn from five prototypes, every third row
    /// an exact copy of its prototype and the others a slightly perturbed
    /// one, so clusters have several members at any `H`.
    fn clustered_rows(n: usize, k: usize, seed: u64) -> Matrix {
        let mut rng = AdrRng::seeded(seed);
        let protos = Matrix::from_fn(5, k, |_, _| rng.gauss());
        Matrix::from_fn(n, k, |r, c| {
            let noise = if r % 3 == 0 { 0.0 } else { 0.05 * rng.gauss() };
            protos[((r * 7) % 5, c)] + noise
        })
    }

    #[test]
    fn fan_out_matches_the_serial_reference_bitwise_across_shapes() {
        // (case, N, K, M, L, H): tail shorter than L; K below L (clamped to
        // one sub-matrix); one row; fewer rows than workers; one and two
        // sub-matrices against three workers; the direct-index grouping
        // (H = 4) and the hash-map one (H = 20, 40).
        for (case, n, k, m, l, h) in [
            ("tail < L", 40, 13, 5, 5, 6),
            ("K < L", 30, 5, 4, 8, 6),
            ("one row", 1, 13, 3, 4, 6),
            ("N < workers", 2, 13, 3, 4, 6),
            ("one sub-matrix", 40, 12, 5, 12, 6),
            ("two sub-matrices", 40, 12, 5, 6, 6),
            ("H = 4", 60, 20, 6, 4, 4),
            ("H = 20", 60, 20, 6, 4, 20),
            ("H = 40", 60, 20, 6, 4, 40),
        ] {
            let x = clustered_rows(n, k, 31);
            let (_, w, b) = random_problem(n, k, m, 32);
            for mode in [Mode::Train, Mode::Eval] {
                assert_matches_reference(case, &[&x], &w, &b, l, h, false, None, mode);
            }
        }
    }

    #[test]
    fn fan_out_matches_the_serial_reference_under_single_input_scope() {
        // Four images of ten rows; images 1 and 3 repeat image 0, so batch
        // scope would merge what single-input scope must keep apart.
        let one = clustered_rows(10, 13, 33);
        let other = clustered_rows(10, 13, 34);
        let x = Matrix::from_fn(40, 13, |r, c| {
            if r / 10 == 2 {
                other[(r % 10, c)]
            } else {
                one[(r % 10, c)]
            }
        });
        let (_, w, b) = random_problem(40, 13, 5, 35);
        for h in [4usize, 20, 64] {
            let case = "single input";
            assert_matches_reference(case, &[&x], &w, &b, 5, h, false, Some(10), Mode::Train);
        }
    }

    #[test]
    fn fan_out_matches_the_serial_reference_across_cr_batches() {
        // All-miss (cold caches), mixed (half the rows are new), all-hit
        // (the first batch again), partial (new columns in the middle
        // sub-matrix only), then a second arena-recycling round.
        let first = clustered_rows(40, 13, 36);
        let fresh = clustered_rows(40, 13, 37);
        let mixed =
            Matrix::from_fn(40, 13, |r, c| if r % 2 == 0 { first[(r, c)] } else { fresh[(r, c)] });
        let other = clustered_rows(40, 13, 39);
        let partial = Matrix::from_fn(40, 13, |r, c| {
            if r % 2 == 1 && (5..10).contains(&c) {
                other[(r, c)]
            } else {
                first[(r, c)]
            }
        });
        let (_, w, b) = random_problem(40, 13, 5, 38);
        // A forward pass no backward follows forms only the centroids of
        // sub-matrices with a miss; nothing observable may differ.
        for mode in [Mode::Train, Mode::Eval] {
            for h in [4usize, 8, 20] {
                let batches = [&first, &mixed, &first, &partial, &mixed];
                assert_matches_reference("cluster reuse", &batches, &w, &b, 5, h, true, None, mode);
            }
        }
        // The sequence really is all-miss, mixed, all-hit, and then a miss
        // in the middle sub-matrix alone.
        let split = SubVecSplit::new(13, 5);
        let lsh = lsh_families(&split, 8, 77);
        let mut caches: Vec<ReuseCache> = (0..3).map(|_| ReuseCache::new(5)).collect();
        let mut rates = Vec::new();
        for x in [&first, &mixed, &first, &partial] {
            caches.iter_mut().for_each(ReuseCache::begin_batch);
            reuse_forward(x, &w, &b, &split, &lsh, Some(&mut caches), None);
            rates.push(caches.iter().map(|c| c.current_batch_rate().unwrap()).collect::<Vec<_>>());
        }
        let r = |b: usize, i: usize| rates[b][i];
        assert!(r(0, 0) == 0.0 && r(1, 0) > 0.0 && r(1, 0) < 1.0 && r(2, 0) == 1.0, "{rates:?}");
        assert!(r(3, 0) == 1.0 && r(3, 1) < 1.0 && r(3, 2) == 1.0, "{rates:?}");
    }

    /// Metamorphic: appending a copy of a row moves only the centroids of
    /// the multi-member clusters that row is in, so no row outside them
    /// changes by a bit; and when the row was alone in every cluster, nothing
    /// changes and the copy's output is the original's (the centroid of
    /// `{x, x}` is `x` exactly).
    #[test]
    fn duplicating_a_row_leaves_unrelated_rows_bitwise_unchanged() {
        let (n, k, m) = (36usize, 12usize, 5usize);
        let mut x = clustered_rows(n, k, 39);
        let mut rng = AdrRng::seeded(40);
        for c in 0..k {
            x[(n - 1, c)] = 3.0 * rng.gauss(); // a loner: its own cluster everywhere
        }
        let (_, w, b) = random_problem(n, k, m, 41);
        let split = SubVecSplit::new(k, 4);
        let lsh = lsh_families(&split, 12, 42);
        let (base, base_arena) = reuse_forward(&x, &w, &b, &split, &lsh, None, None);
        for dup in [4usize, n - 1] {
            let grown = Matrix::from_fn(n + 1, k, |r, c| x[(if r == n { dup } else { r }, c)]);
            let (out, _) = reuse_forward(&grown, &w, &b, &split, &lsh, None, None);
            let tables = base_arena.sub_matrices().iter().map(SubMatrix::table);
            let related: Vec<bool> = (0..n)
                .map(|r| {
                    let shared = |t: &ClusterTable| {
                        t.cluster_of(r) == t.cluster_of(dup) && t.count(t.cluster_of(dup)) > 1
                    };
                    tables.clone().any(shared)
                })
                .collect();
            for r in (0..n).filter(|&r| !related[r]) {
                assert_eq!(bits(out.output.row(r)), bits(base.output.row(r)), "dup {dup} row {r}");
            }
            if dup == n - 1 {
                assert!(
                    related.iter().all(|&shared| !shared),
                    "precondition: row {dup} is a loner"
                );
                assert_eq!(bits(out.output.row(n)), bits(base.output.row(dup)));
            } else {
                assert!(
                    related.iter().any(|&shared| shared),
                    "precondition: row {dup} has company"
                );
            }
        }
    }

    /// Metamorphic: when every signature is distinct the pass multiplies
    /// every row itself, so it is the dense product up to summation order.
    #[test]
    fn all_distinct_signatures_give_the_dense_product() {
        let (x, w, b) = random_problem(48, 24, 6, 43);
        let split = SubVecSplit::new(24, 8);
        let lsh = lsh_families(&split, 48, 44);
        let (out, arena) = reuse_forward(&x, &w, &b, &split, &lsh, None, None);
        assert!(arena.sub_matrices().iter().all(|s| s.table().num_clusters() == 48));
        let mut dense = x.matmul(&w);
        dense.add_row_bias(&b);
        assert!(out.output.max_abs_diff(&dense) < 1e-3);
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
