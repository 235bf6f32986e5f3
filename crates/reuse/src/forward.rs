//! The deep-reuse forward pass (Figs. 2 and 3, Algorithm 1).
//!
//! One streaming pass hashes every sub-vector of every row. Then, for each
//! sub-matrix `x^(I)` of the unfolded input:
//!
//! 1. group rows with equal signatures into clusters;
//! 2. with `CR = 1`, probe the [`ReuseCache`] with every cluster's signature:
//!    a hit's cache slot holds its `y_c^(I)` row, a miss is counted;
//! 3. compute the centroid matrix `x_c^(I)` (mean of raw member rows) —
//!    for every sub-matrix when a backward pass will read the clustering
//!    (`∇W` needs every centroid), otherwise only where a product is still
//!    owed: always without `CR`, and with it only for a sub-matrix that has
//!    a miss;
//! 4. compute `y_c^(I) = x_c^(I) · W_I` — only `|C_I|` rows instead of `N`,
//!    and with `CR = 1` only the misses' rows, each inserted into the cache,
//!    while each hit's row is copied from its slot;
//!
//! and `y = Σ_I y^(I)` is reconstructed by adding each `y_c^(I)` row to all
//! its member rows.
//!
//! Probing every cluster before inserting any sees exactly the hits of a
//! probe-then-insert walk: clusters form over the whole batch, so the
//! signatures of one sub-matrix's clusters are distinct and an insert can
//! never answer a later probe of the same batch. Inserts still run in
//! ascending cluster order, so hit counts, cache contents and [`ReuseStats`]
//! are those of the walk. A slot keeps its row whatever is inserted after
//! the probe ([`ReuseCache::probe_slot`]).
//!
//! Sub-matrices are independent until the reconstruction, so steps 1–3 run as
//! **one fan-out over sub-matrices** on the persistent pool: a block owns a
//! contiguous run of sub-matrices — a contiguous column band of the unfolded
//! matrix — and accumulates all of their centroid sums in one sweep over
//! that band in cache-resident blocks of 64 rows, instead of walking the
//! whole row-major matrix column-strided once per sub-matrix; inside a
//! block each sub-matrix's running cluster rows stay in registers while
//! neighbouring rows share a cluster
//! ([`sum_clusters`](adr_tensor::kernels::sum_clusters)).
//!
//! Step 4 and the reconstruction run **band by band**. A band is a run of
//! consecutive sub-matrices whose cluster outputs, `Σ |C_I| · M` floats,
//! fit in the larger of `BAND` floats (about half a core's L2) and the
//! layer's own `N × M` output; a sub-matrix larger than that is a band of
//! its own. One fan-out over the band's sub-matrices computes their
//! `y_c^(I)` into the dispatching thread's cluster-row scratch
//! ([`adr_tensor::scratch::cluster_rows`]). Then a row-parallel pass adds
//! them to the output: each output row is one [`sum_rows()`] call from the
//! bias in the first band and one [`add_rows`] call on the stored partial
//! row in every later band, a tile of the row held in registers while the
//! band's cluster rows are added to it. So no layer keeps a `|C_I| × M`
//! matrix per sub-matrix: the cluster outputs of one band at a time are
//! alive, in a buffer every layer on the thread shares. All of it matters
//! because clustering overhead is exactly what the paper's profitability
//! condition `H << M(1 − r_c)` trades against. Every output element is
//! `((b + y^(0)) + y^(1)) + …` in ascending sub-matrix order whatever the
//! bands, since storing a partial sum between two bands rounds nothing;
//! DESIGN.md §15.6 has the ordering argument for why none of this changes a
//! bit.

use std::sync::OnceLock;

use adr_clustering::assign::ClusterTable;
use adr_clustering::lsh::{cluster_signatures_into, GroupScratch, LshTable};
use adr_clustering::reuse_cache::ReuseCache;
use adr_nn::layer::Mode;
use adr_tensor::kernels::{add_rows, sum_rows};
use adr_tensor::matrix::{gemm_rows, Matrix};
use adr_tensor::par::{compute_threads, memory_threads, run_blocks, run_row_blocks};
use adr_tensor::scratch;

use crate::hashpack::PackedHasher;
use crate::stats::ReuseStats;
use crate::subvec::SubVecSplit;

/// One sub-matrix's share of a layer's reuse state: its clustering, and the
/// per-cluster blocks the forward and backward passes compute from it. Its
/// cluster outputs `y_c^(I)` are not among them: they live in a band's
/// scratch only until the reconstruction has added them (module docs).
#[derive(Debug, Default)]
pub struct SubMatrix {
    /// Clustering of the input rows under this sub-matrix's LSH family.
    pub(crate) table: ClusterTable,
    /// Forming signature of each cluster (what the CR cache keys on).
    cluster_sigs: Vec<u64>,
    /// With `CR = 1`, each cluster's cache slot as the latest forward pass
    /// probed it: a hit's stored row is its `y_c^(I)` row, `None` a miss.
    slots: Vec<Option<u32>>,
    /// Centroid matrix `x_c^(I)` (`|C_I| × L_I`).
    pub(crate) centroids: Matrix,
    /// Centroid input-gradients `δx_c^(I)` (`|C_I| × L_I`).
    pub(crate) centroid_grads: Matrix,
    /// Centroid rows the latest forward pass multiplied by `W_I`: every
    /// cluster, or with `CR = 1` only those that missed the cache.
    multiplied: usize,
    /// Where this sub-matrix's `y_c^(I)` rows start in its band's
    /// cluster-row scratch, as of the latest forward pass.
    band_offset: usize,
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
/// cluster/centroid/scatter machinery allocates nothing; the one thing a
/// forward pass still allocates is the output it returns. The arena holds
/// one [`SubMatrix`] per sub-matrix — the unit both passes fan out over,
/// band offsets included — one grouping scratch per block of the forward
/// fan-out, and one member-order scratch and one cluster-gradient buffer
/// per block of the backward one. It holds nothing of batch size `N × K`,
/// `N × ⌈K/L⌉` or `Σ_I |C_I| × M`: the unfolded input, its signatures and
/// the cluster outputs are dead once the sub-matrix fan-out has grouped and
/// summed them or the reconstruction has added them, so they live in a
/// per-thread scratch every layer shares ([`adr_tensor::scratch`]); the
/// backward pass sums one sub-matrix's cluster gradients `δy_c^(I)` at a
/// time into its block's buffer, and the input gradient is folded straight
/// from the centroid gradients ([`crate::backward::fold_input_grad`]).
///
/// The clustering in the sub-matrix states is what
/// [`crate::backward::reuse_backward`] consumes: after a [`Mode::Train`]
/// forward pass it stays valid until the next forward pass through this
/// arena. A [`Mode::Eval`] pass, which no backward pass follows, frees it on
/// the way out: holding it would only pin one batch's worth of tables per
/// layer, and an evaluation batch is often several times the training batch.
#[derive(Debug, Default)]
pub struct ReuseArena {
    /// Per-sub-matrix state of the latest forward pass.
    pub(crate) subs: Vec<SubMatrix>,
    /// Signature → cluster lookup tables of the grouping step, one per
    /// block of the sub-matrix fan-out.
    group: Vec<GroupScratch>,
    /// Member-order scratch of the backward pass's cluster sums, one per
    /// block of its sub-matrix fan-out ([`ClusterTable::gather_sum_members_into`]).
    pub(crate) members: Vec<Vec<u32>>,
    /// The backward pass's cluster gradients `δy_c^(I)` of one sub-matrix at
    /// a time, one buffer per block of its sub-matrix fan-out, each as large
    /// as the block's largest `|C_I| × M`.
    pub(crate) cluster_grads: Vec<Matrix>,
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
///
/// Returns the outcome together with the freshly built arena holding the
/// clustering of a [`Mode::Train`] pass, ready for
/// [`crate::backward::reuse_backward`].
///
/// # Panics
/// Panics on any dimension disagreement between the inputs.
pub fn reuse_forward(
    x_unf: &Matrix,
    weight: &Matrix,
    bias: &[f32],
    split: &SubVecSplit,
    lsh: &[LshTable],
    caches: Option<&mut [ReuseCache]>,
) -> (ForwardOutcome, ReuseArena) {
    let hasher = PackedHasher::new(split, lsh);
    let mut arena = ReuseArena::default();
    let outcome = reuse_forward_with(
        x_unf.as_slice(),
        weight,
        bias,
        split,
        &hasher,
        caches,
        Mode::Train,
        &mut arena,
    );
    (outcome, arena)
}

/// Rows per block of the centroid sweep (step (D) of the sub-matrix
/// fan-out): a block's column band of 64 rows stays in cache while each of
/// its sub-matrices walks it.
const SWEEP_ROWS: usize = 64;

/// Floats of cluster outputs one band may hold, unless the layer's `N × M`
/// output is larger (module docs): 1 MiB, about half a core's L2.
const BAND: usize = 1 << 18;

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
/// `x_unf` is the `N × K` unfolded input as a row-major slice, `K =
/// split.k()`: the layer lends it a prefix of its thread's unfold scratch.
/// The signatures go to a prefix of the thread's signature scratch, so the
/// arena keeps nothing of size `N × ⌈K/L⌉`, and each band's cluster outputs
/// to a prefix of its cluster-row scratch.
/// `hasher` is the packed form of the split's LSH families (one per
/// sub-matrix): the only description of them this pass reads.
/// `mode` says whether a backward pass will consume the clustering:
/// [`Mode::Train`] forms every centroid and leaves the clustering in `arena`
/// for it; [`Mode::Eval`] forms only the centroids a product still needs and
/// frees the clustering before returning (module and [`ReuseArena`] docs).
/// The output, the statistics and the caches are the same bits either way.
///
/// # Panics
/// Panics on any dimension disagreement between the inputs (including an
/// `x_unf` that is not a whole number of `K`-wide rows), or when `hasher`
/// disagrees with the split.
#[allow(clippy::too_many_arguments)]
pub fn reuse_forward_with(
    x_unf: &[f32],
    weight: &Matrix,
    bias: &[f32],
    split: &SubVecSplit,
    hasher: &PackedHasher,
    caches: Option<&mut [ReuseCache]>,
    mode: Mode,
    arena: &mut ReuseArena,
) -> ForwardOutcome {
    let budget = BAND.max(x_unf.len() / split.k() * weight.cols());
    forward_in_bands(x_unf, weight, bias, split, hasher, caches, mode, arena, budget)
}

/// [`reuse_forward_with`] with the band budget, in floats of cluster
/// outputs, as a parameter: the tests cut bands of every size through it.
#[allow(clippy::too_many_arguments)]
fn forward_in_bands(
    x_unf: &[f32],
    weight: &Matrix,
    bias: &[f32],
    split: &SubVecSplit,
    hasher: &PackedHasher,
    mut caches: Option<&mut [ReuseCache]>,
    mode: Mode,
    arena: &mut ReuseArena,
    budget: usize,
) -> ForwardOutcome {
    let k = split.k();
    assert_eq!(x_unf.len() % k, 0, "split width disagrees with input");
    let (n, m) = (x_unf.len() / k, weight.cols());
    assert_eq!(weight.rows(), k, "weight rows disagree with K");
    assert!(m > 0, "a reuse layer has at least one filter");
    assert_eq!(bias.len(), m, "bias length disagrees with M");
    assert_eq!(hasher.num_subs(), split.num_sub_vectors(), "hasher disagrees with split");
    if let Some(ref c) = caches {
        assert_eq!(c.len(), split.num_sub_vectors(), "one cache per sub-matrix required");
    }

    // Exactly one state per sub-matrix: a retune to fewer sub-matrices must
    // not leave stale clusterings behind for the backward pass to find.
    let num_subs = split.num_sub_vectors();
    arena.subs.resize_with(num_subs, SubMatrix::default);

    // One streaming pass produces every sub-vector signature (row-major:
    // sig_all[r * num_subs + i]) into the thread's signature scratch: only
    // the grouping below reads them.
    let mut sig_all = scratch::signatures(n * num_subs);
    {
        let _span = adr_obs::span_phase(adr_obs::Phase::Hash);
        hasher.hash_into(x_unf, &mut sig_all);
    }
    let sig_all = &*sig_all;
    let h_bits = hasher.num_hashes();
    let (x, w) = (x_unf, weight.as_slice());

    // The sub-matrix fan-out. Grouping and the centroid sweep touch every
    // element of the unfolded matrix and its signature once — memory-bound,
    // like the reconstruction — so that is what sizes the split. Each block
    // takes a contiguous run of sub-matrix states, the same run of caches
    // and one grouping scratch: all cut here, on the dispatching thread.
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
    // Worker threads have no telemetry recorder, so the phase spans are the
    // dispatching thread's: `Cluster` around its own block's grouping,
    // `CentroidGemm` from there until every block is done.
    let gemm_span = OnceLock::new();
    run_blocks(blocks, |ForwardBlock { sub0, subs, caches, group }| {
        let ranges = &split.ranges()[sub0..sub0 + subs.len()];

        // (A) Group equal signatures, one sub-matrix at a time.
        let cluster_span = adr_obs::span_phase(adr_obs::Phase::Cluster);
        for (i, sub) in (sub0..).zip(subs.iter_mut()) {
            cluster_signatures_into(
                sig_all.iter().skip(i).step_by(num_subs).copied(),
                h_bits,
                group,
                &mut sub.table,
                &mut sub.cluster_sigs,
            );
        }
        drop(cluster_span);
        if sub0 == 0 {
            let _ = gemm_span.set(adr_obs::span_phase(adr_obs::Phase::CentroidGemm));
        }

        // (B) With CR, probe every cluster's signature in cluster order and
        // keep its slot: a hit's stored row is its output row, and only the
        // misses are multiplied. Without CR every cluster is.
        let cr = caches.is_some();
        match caches {
            Some(caches) => {
                for (sub, cache) in subs.iter_mut().zip(caches.iter_mut()) {
                    sub.slots.clear();
                    sub.slots.extend(sub.cluster_sigs.iter().map(|&sig| cache.probe_slot(sig)));
                    sub.multiplied = sub.slots.iter().filter(|slot| slot.is_none()).count();
                }
            }
            None => {
                for sub in subs.iter_mut() {
                    sub.multiplied = sub.table.num_clusters();
                }
            }
        }

        // (C) Size the centroid matrices this pass forms, zeroed: all of
        // them for a backward pass or without CR, else those with a miss.
        let formed = |sub: &SubMatrix| mode == Mode::Train || !cr || sub.multiplied > 0;
        for (sub, &(start, end)) in subs.iter_mut().zip(ranges) {
            if formed(sub) {
                sub.centroids.reset(sub.table.num_clusters(), end - start);
            }
        }

        // (D) One sweep over this block's column band, in cache-resident
        // blocks of `SWEEP_ROWS` rows, sums the member rows of every formed
        // centroid matrix: inside a row block one sub-matrix at a time, its
        // rows in order, so a run of neighbouring rows in one cluster keeps
        // the running sum in registers. A cluster still receives its
        // members in ascending row order, as in a per-sub-matrix walk.
        if subs.iter().any(formed) {
            for r0 in (0..n).step_by(SWEEP_ROWS) {
                let rows = r0..n.min(r0 + SWEEP_ROWS);
                for (sub, &(start, _)) in subs.iter_mut().zip(ranges) {
                    if formed(sub) {
                        sub.table.add_member_rows(x, k, start, rows.clone(), &mut sub.centroids);
                    }
                }
            }
        }

        // (E) Sums to means.
        for sub in subs.iter_mut().filter(|sub| formed(sub)) {
            sub.table.sums_to_means(&mut sub.centroids);
        }
    });
    drop(gemm_span);

    // The bands: products, then out[r] (+)= Σ_{I in band} y_c^(I)[cluster_I(r)].
    let mut output = Matrix::zeros(n, m);
    let mut s0 = 0;
    while s0 < num_subs {
        let s1 = s0 + lay_out_band(&mut arena.subs[s0..], m, budget);
        let subs = &arena.subs[s0..s1];
        let last = &subs[subs.len() - 1];
        let mut y_c = scratch::cluster_rows(last.band_offset + last.table.num_clusters() * m);
        {
            let _span = adr_obs::span_phase(adr_obs::Phase::CentroidGemm);
            let caches = caches.as_deref_mut().map(|c| &mut c[s0..s1]);
            band_products(subs, &split.ranges()[s0..s1], w, m, caches, &mut y_c);
        }
        let _span = adr_obs::span_phase(adr_obs::Phase::Scatter);
        let bias = (s0 == 0).then_some(bias);
        add_band(output.as_mut_slice(), n, m, bias, subs, &y_c);
        s0 = s1;
    }

    let mut stats = ReuseStats {
        rows: n,
        num_sub_vectors: num_subs,
        hash_flops: hasher.hashing_flops(n),
        ..Default::default()
    };
    let mut cluster_total = 0usize;
    for (i, sub) in arena.subs.iter().enumerate() {
        cluster_total += sub.table.num_clusters();
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

/// Lays out the band that starts at `subs[0]`: as many sub-matrices as
/// their `|C_I| × M` cluster outputs fit in `budget` floats, and at least
/// one. Sets each one's offset in the band's cluster rows and returns how
/// many the band holds.
fn lay_out_band(subs: &mut [SubMatrix], m: usize, budget: usize) -> usize {
    let mut len = 0;
    for (count, sub) in subs.iter_mut().enumerate() {
        let rows = sub.table.num_clusters() * m;
        if count > 0 && len + rows > budget {
            return count;
        }
        sub.band_offset = len;
        len += rows;
    }
    subs.len()
}

/// Step 4 for one band: `y_c^(I) = x_c^(I) · W_I` of each of its
/// sub-matrices (`ranges` their column ranges) into `y_c`, one after the
/// other from offset 0, against the weight's row band in place — every
/// cluster's row without CR; with it, each hit's row copied from its slot
/// and each miss's row multiplied and inserted into the cache, in cluster
/// order. A fan-out over the band's sub-matrices, sized by its products:
/// every block owns a contiguous run of them, the matching run of caches
/// and of `y_c`, all cut here.
fn band_products(
    subs: &[SubMatrix],
    ranges: &[(usize, usize)],
    w: &[f32],
    m: usize,
    caches: Option<&mut [ReuseCache]>,
    y_c: &mut [f32],
) {
    let flops = subs.iter().zip(ranges).map(|(sub, &(a, b))| sub.multiplied * (b - a) * m).sum();
    let per_block = subs.len().div_ceil(compute_threads(flops).clamp(1, subs.len()));
    let mut cache_runs = caches.map(|c| c.chunks_mut(per_block));
    let mut rest = y_c;
    let blocks = subs.chunks(per_block).zip(ranges.chunks(per_block)).map(|(subs, ranges)| {
        let len = subs.iter().map(|sub| sub.table.num_clusters() * m).sum();
        let (y_c, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        (subs, ranges, y_c, cache_runs.as_mut().and_then(Iterator::next))
    });
    run_blocks(blocks, |(subs, ranges, mut y_c, mut caches)| {
        for (j, (sub, &(start, end))) in subs.iter().zip(ranges).enumerate() {
            let num_clusters = sub.table.num_clusters();
            let (y, tail) = std::mem::take(&mut y_c).split_at_mut(num_clusters * m);
            y_c = tail;
            let (w_band, width) = (&w[start * m..end * m], end - start);
            let Some(caches) = caches.as_deref_mut() else {
                y.fill(0.0);
                gemm_rows(sub.centroids.as_slice(), w_band, y, num_clusters, width, m);
                continue;
            };
            // Every output row of the GEMM depends on its own centroid row
            // alone, so a miss is multiplied where it stands — the bits of
            // batching all misses into one product.
            let cache = &mut caches[j];
            for (c, (slot, y_row)) in sub.slots.iter().zip(y.chunks_exact_mut(m)).enumerate() {
                match *slot {
                    Some(slot) => y_row.copy_from_slice(cache.stored(slot)),
                    None => {
                        y_row.fill(0.0);
                        gemm_rows(sub.centroids.row(c), w_band, y_row, 1, width, m);
                        cache.insert(sub.cluster_sigs[c], y_row);
                    }
                }
            }
        }
    });
}

/// Adds one band's cluster outputs `y_c` into the `n × M` output,
/// parallelised over disjoint row chunks: every output row gets one add per
/// sub-matrix of the band, in ascending order, in registers — from `bias`
/// in the first band ([`sum_rows`]), and from the partial sum the earlier
/// bands stored in every later one ([`add_rows`]).
fn add_band(
    output: &mut [f32],
    n: usize,
    m: usize,
    bias: Option<&[f32]>,
    subs: &[SubMatrix],
    y_c: &[f32],
) {
    // Gather-and-add over cluster rows — memory-bound, like col2im.
    let threads = memory_threads(n * m * subs.len());
    run_row_blocks(output, m, n, threads, |row0, _, chunk| {
        for (r, dst) in (row0..).zip(chunk.chunks_exact_mut(m)) {
            let rows = subs.iter().map(|sub| {
                let id = sub.table.cluster_of(r) as usize;
                &y_c[sub.band_offset + id * m..][..m]
            });
            match bias {
                Some(bias) => sum_rows(dst, bias, rows),
                None => add_rows(dst, rows),
            }
        }
    });
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
        let (out, arena) = reuse_forward(&x, &w, &b, &split, &lsh, None);
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
        let (out, arena) = reuse_forward(&x, &w, &[0.0; 6], &split, &lsh, None);
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
        let (out, arena) = reuse_forward(&x, &w, &b, &split, &lsh, None);
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
        let (out, arena) = reuse_forward(&x, &w, &b, &split, &lsh, None);
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
            let (out, _) = reuse_forward(&x, &w, &b, &split, &lsh, None);
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
        let (out, arena) = reuse_forward(&x, &w, &b, &split, &lsh, None);
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
        let (first, _) = reuse_forward(&x, &w, &b, &split, &lsh, Some(&mut caches));
        let first_gemm = first.stats.gemm_flops;
        assert!(first_gemm > 0);
        // Same batch again: every signature is cached.
        caches[0].begin_batch();
        let (second, _) = reuse_forward(&x, &w, &b, &split, &lsh, Some(&mut caches));
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
    /// written against the allocating clustering and matrix API.
    fn reference_forward(
        x_unf: &Matrix,
        weight: &Matrix,
        bias: &[f32],
        split: &SubVecSplit,
        lsh: &[LshTable],
        mut caches: Option<&mut [ReuseCache]>,
    ) -> Reference {
        let (n, m) = (x_unf.rows(), weight.cols());
        let num_subs = split.num_sub_vectors();
        let sig_all = PackedHasher::new(split, lsh).hash_all(x_unf);
        let mut stats = ReuseStats { rows: n, num_sub_vectors: num_subs, ..Default::default() };
        let (mut tables, mut centroids, mut products) = (Vec::new(), Vec::new(), Vec::new());
        let mut cluster_total = 0usize;
        let mut reuse_rate_sum = 0.0f64;
        for (i, &(start, end)) in split.ranges().iter().enumerate() {
            let keys: Vec<u64> = (0..n).map(|r| sig_all[r * num_subs + i]).collect();
            let table = ClusterTable::from_sparse_ids(&keys);
            let mut sigs = vec![0u64; table.num_clusters()];
            for r in (0..n).rev() {
                sigs[table.cluster_of(r) as usize] = keys[r];
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
            products.push(y_c);
        }
        let mut output = Matrix::zeros(n, m);
        for r in 0..n {
            let dst = output.row_mut(r);
            dst.copy_from_slice(bias);
            for (table, y_c) in tables.iter().zip(&products) {
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
                reference_forward(x, weight, bias, &split, &lsh, caches)
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
                    x.as_slice(),
                    weight,
                    bias,
                    &split,
                    &hasher,
                    cluster_reuse.then_some(caches.as_mut_slice()),
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
                assert_matches_reference(case, &[&x], &w, &b, l, h, false, mode);
            }
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
                assert_matches_reference("cluster reuse", &batches, &w, &b, 5, h, true, mode);
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
            reuse_forward(x, &w, &b, &split, &lsh, Some(&mut caches));
            rates.push(caches.iter().map(|c| c.current_batch_rate().unwrap()).collect::<Vec<_>>());
        }
        let r = |b: usize, i: usize| rates[b][i];
        assert!(r(0, 0) == 0.0 && r(1, 0) > 0.0 && r(1, 0) < 1.0 && r(2, 0) == 1.0, "{rates:?}");
        assert!(r(3, 0) == 1.0 && r(3, 1) < 1.0 && r(3, 2) == 1.0, "{rates:?}");
    }

    /// How many bands the forward pass cuts `arena`'s clustering into at
    /// `budget` floats of cluster outputs.
    fn band_count(arena: &mut ReuseArena, m: usize, budget: usize) -> usize {
        let (mut s0, mut bands) = (0, 0);
        while s0 < arena.subs.len() {
            s0 += lay_out_band(&mut arena.subs[s0..], m, budget);
            bands += 1;
        }
        bands
    }

    /// The banded pass at one band, two bands and one sub-matrix per band —
    /// a budget of one float, which every sub-matrix's `y_c` alone exceeds
    /// — against the one-band `reuse_forward` oracle, bit for bit: output
    /// and statistics in `Train` and `Eval`, with CR off and on over an
    /// all-miss, a mixed and an all-hit batch (then also every cache's hit
    /// rate and stored rows), at 1 and 2 forced workers. `K` = 13 at `L` =
    /// 3 leaves a tail sub-matrix one column wide. After each `Train`
    /// forward, a backward pass from the same `δy` gives the oracle's `∇W`,
    /// `∇b` and input-gradient rows.
    #[test]
    fn bands_match_the_one_band_oracle_bitwise() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let (n, k, m, l, h) = (12usize, 13usize, 4usize, 3usize, 8usize);
        let first = clustered_rows(n, k, 51);
        let fresh = clustered_rows(n, k, 52);
        let mixed =
            Matrix::from_fn(n, k, |r, c| if r % 2 == 0 { first[(r, c)] } else { fresh[(r, c)] });
        let (_, w, b) = random_problem(n, k, m, 53);
        let mut rng = AdrRng::seeded(54);
        let delta_y = Matrix::from_fn(n, m, |_, _| rng.gauss());
        let split = SubVecSplit::new(k, l);
        assert_eq!(split.width(split.num_sub_vectors() - 1), 1, "precondition: a narrow tail");
        let lsh = lsh_families(&split, h, 55);
        let hasher = PackedHasher::new(&split, &lsh);
        let fresh_caches = || -> Vec<ReuseCache> {
            (0..split.num_sub_vectors()).map(|_| ReuseCache::new(m)).collect()
        };

        let (_, mut probe) = reuse_forward(&first, &w, &b, &split, &lsh, None);
        let sizes: Vec<usize> =
            probe.sub_matrices().iter().map(|sub| sub.table().num_clusters() * m).collect();
        let total: usize = sizes.iter().sum();
        let two = total - sizes[sizes.len() - 1];
        for (budget, bands) in [(total, 1), (two, 2), (1, split.num_sub_vectors())] {
            assert_eq!(band_count(&mut probe, m, budget), bands, "precondition: budget {budget}");
        }

        let grads = |arena: &mut ReuseArena| {
            let mut weight_grad = Matrix::filled(k, m, f32::NAN);
            let mut bias_grad = vec![f32::NAN; m];
            let ws = (&mut weight_grad, &mut bias_grad[..]);
            crate::backward::reuse_backward(
                arena,
                &split,
                &w,
                delta_y.as_slice(),
                ws.0,
                ws.1,
                true,
            );
            let mut rows = vec![f32::NAN; n * k];
            for (r, row) in rows.chunks_exact_mut(k).enumerate() {
                crate::backward::input_grad_row(arena, &split, r, row);
            }
            (bits(weight_grad.as_slice()), bits(&bias_grad), bits(&rows))
        };
        for (budget, case) in [(total, "one band"), (two, "two bands"), (1, "one per band")] {
            for (mode, cr, workers) in [Mode::Train, Mode::Eval]
                .into_iter()
                .flat_map(|mode| [(mode, false), (mode, true)])
                .flat_map(|(mode, cr)| [(mode, cr, 1usize), (mode, cr, 2)])
            {
                let (mut want_caches, mut got_caches) = (fresh_caches(), fresh_caches());
                let mut arena = ReuseArena::default();
                let mut seen: Vec<Vec<u64>> = vec![Vec::new(); split.num_sub_vectors()];
                for (batch, x) in [&first, &mixed, &first].into_iter().enumerate() {
                    let what =
                        format!("{case}: {mode:?}, CR {cr}, {workers} workers, batch {batch}");
                    want_caches.iter_mut().for_each(ReuseCache::begin_batch);
                    got_caches.iter_mut().for_each(ReuseCache::begin_batch);
                    let caches = cr.then_some(want_caches.as_mut_slice());
                    let (want, mut want_arena) = reuse_forward(x, &w, &b, &split, &lsh, caches);
                    adr_tensor::par::set_thread_override(Some(workers));
                    let caches = cr.then_some(got_caches.as_mut_slice());
                    let x = x.as_slice();
                    let got = forward_in_bands(
                        x, &w, &b, &split, &hasher, caches, mode, &mut arena, budget,
                    );
                    adr_tensor::par::set_thread_override(None);
                    assert_eq!(bits(got.output.as_slice()), bits(want.output.as_slice()), "{what}");
                    let (g, o) = (got.stats, want.stats);
                    assert_eq!(
                        (g.rows, g.num_sub_vectors, g.hash_flops, g.gemm_flops, g.add_flops),
                        (o.rows, o.num_sub_vectors, o.hash_flops, o.gemm_flops, o.add_flops),
                        "{what}"
                    );
                    assert_eq!(
                        [g.avg_clusters, g.avg_remaining_ratio, g.reuse_rate].map(f64::to_bits),
                        [o.avg_clusters, o.avg_remaining_ratio, o.reuse_rate].map(f64::to_bits),
                        "{what}"
                    );
                    for (seen, sub) in seen.iter_mut().zip(&arena.subs) {
                        seen.extend(&sub.cluster_sigs);
                    }
                    if mode == Mode::Train {
                        assert_eq!(grads(&mut arena), grads(&mut want_arena), "{what}: gradients");
                    }
                }
                if cr {
                    let what = format!("{case}: {mode:?}, {workers} workers");
                    for (i, (got, want)) in got_caches.iter_mut().zip(&mut want_caches).enumerate()
                    {
                        let rate = |c: &ReuseCache| c.current_batch_rate().map(f64::to_bits);
                        assert_eq!(rate(got), rate(want), "{what}: cache {i}");
                        assert_eq!(got.len(), want.len(), "{what}: cache {i}");
                        for &sig in &seen[i] {
                            let (got, want) = (got.probe(sig).map(bits), want.probe(sig).map(bits));
                            assert_eq!(got, want, "{what}: cache {i}, signature {sig}");
                        }
                    }
                }
            }
        }
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
        let (base, base_arena) = reuse_forward(&x, &w, &b, &split, &lsh, None);
        for dup in [4usize, n - 1] {
            let grown = Matrix::from_fn(n + 1, k, |r, c| x[(if r == n { dup } else { r }, c)]);
            let (out, _) = reuse_forward(&grown, &w, &b, &split, &lsh, None);
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
        let (out, arena) = reuse_forward(&x, &w, &b, &split, &lsh, None);
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
        let _ = reuse_forward(&x, &w, &b, &split, &lsh, None);
    }
}
