//! Random-hyperplane LSH (Eq. 4 of the paper).
//!
//! `H` random hyperplanes turn a length-`L` neuron vector into an `H`-bit
//! signature: bit `h` is 1 iff `v_h · x > 0`. Vectors at small angular
//! distance collide with high probability, so equal signatures form
//! clusters. Because `sign(v·x) = sign(v·x̂)`, hashing raw vectors is
//! equivalent to hashing the normalised vectors the paper's similarity
//! metric prescribes.

use adr_tensor::matrix::{dot, Matrix};
use adr_tensor::par::matmul_range_t_b_par;
use adr_tensor::rng::AdrRng;

use crate::assign::ClusterTable;
use crate::hasher::SignatureMap;

/// A family of `H ≤ 64` random hyperplanes hashing length-`L` vectors.
///
/// The family is sampled once and kept fixed — the across-batch cluster
/// reuse of Algorithm 1 requires the *same* family for all batches (§III-B
/// "Cluster Scope").
#[derive(Clone, Debug)]
pub struct LshTable {
    /// `H × L` hyperplane matrix; row `h` is the normal of hyperplane `h`.
    hyperplanes: Matrix,
}

impl LshTable {
    /// Samples `num_hashes` Gaussian hyperplanes for vectors of `dim`
    /// elements.
    ///
    /// # Panics
    /// Panics if `num_hashes == 0 || num_hashes > 64` or `dim == 0`
    /// (signatures are packed in a `u64`; the paper's Policy 2 bounds
    /// `H < log2 N`, far below 64 in practice).
    pub fn new(dim: usize, num_hashes: usize, rng: &mut AdrRng) -> Self {
        assert!((1..=64).contains(&num_hashes), "num_hashes must be in 1..=64, got {num_hashes}");
        assert!(dim > 0, "dim must be positive");
        let mut hyperplanes = Matrix::zeros(num_hashes, dim);
        rng.fill_gauss(hyperplanes.as_mut_slice());
        Self { hyperplanes }
    }

    /// A degenerate family whose hyperplanes are all zero: every vector
    /// hashes to signature 0, so all rows collapse into one giant cluster.
    /// Exists for the fault-injection harness in `adr-core`; never useful
    /// for real reuse.
    ///
    /// # Panics
    /// Panics under the same bounds as [`LshTable::new`].
    pub fn constant(dim: usize, num_hashes: usize) -> Self {
        let mut table = Self::new(dim, num_hashes, &mut AdrRng::seeded(0));
        table.hyperplanes.as_mut_slice().fill(0.0);
        table
    }

    /// Vector length `L` this table hashes.
    pub fn dim(&self) -> usize {
        self.hyperplanes.cols()
    }

    /// Number of hash functions `H`.
    pub fn num_hashes(&self) -> usize {
        self.hyperplanes.rows()
    }

    /// Hashes one vector to its `H`-bit signature.
    ///
    /// # Panics
    /// Panics if `x.len() != dim()`.
    pub fn signature(&self, x: &[f32]) -> u64 {
        assert_eq!(x.len(), self.dim(), "signature: vector length mismatch");
        let mut sig = 0u64;
        for h in 0..self.num_hashes() {
            // Eq. 4: h_v(x) = 1 if v·x > 0 else 0.
            if dot(self.hyperplanes.row(h), x) > 0.0 {
                sig |= 1 << h;
            }
        }
        sig
    }

    /// Hashes every row of `data`, returning per-row signatures.
    ///
    /// Large batches are projected with one blocked parallel GEMM
    /// (`data · Pᵀ`), then sign-packed; tiny batches fall back to per-row
    /// dot products to avoid GEMM setup costs. The two paths may round
    /// differently for projections that are exactly at the hyperplane, but
    /// Eq. 4 only looks at signs, so agreement holds for any vector not on
    /// a hyperplane (probability 1 for continuous data).
    ///
    /// # Panics
    /// Panics when `data`'s column count differs from the hash dimension.
    pub fn signatures(&self, data: &Matrix) -> Vec<u64> {
        assert_eq!(data.cols(), self.dim(), "signatures: column count mismatch");
        self.signatures_range(data, 0)
    }

    /// Hashes the column window `[start, start + L)` of every row of `data`
    /// without copying the sub-matrix out — the hot path of the sub-vector
    /// forward pass.
    ///
    /// # Panics
    /// Panics when the window exceeds `data`'s width.
    pub fn signatures_range(&self, data: &Matrix, start: usize) -> Vec<u64> {
        let n = data.rows();
        let end = start + self.dim();
        assert!(end <= data.cols(), "signature window out of bounds");
        if n < 64 {
            return (0..n).map(|r| self.signature(&data.row(r)[start..end])).collect();
        }
        let proj = matmul_range_t_b_par(data, (start, end), &self.hyperplanes);
        let h = self.num_hashes();
        let mut sigs = Vec::with_capacity(n);
        for r in 0..n {
            let row = proj.row(r);
            let mut sig = 0u64;
            for (bit, &v) in row.iter().enumerate().take(h) {
                if v > 0.0 {
                    sig |= 1 << bit;
                }
            }
            sigs.push(sig);
        }
        sigs
    }

    /// Borrows the `H × L` hyperplane matrix (row `h` = hyperplane `h`).
    ///
    /// Exposed so callers that hash many sub-matrices can pack several
    /// families into one streaming pass (see `adr-reuse`).
    pub fn hyperplanes(&self) -> &Matrix {
        &self.hyperplanes
    }

    /// Clusters the rows of `data` by signature equality.
    ///
    /// Returns the dense [`ClusterTable`] plus, for each cluster, the
    /// signature that formed it (needed by the across-batch reuse cache).
    ///
    /// # Panics
    /// Panics when `data`'s column count differs from the hash dimension.
    pub fn cluster(&self, data: &Matrix) -> (ClusterTable, Vec<u64>) {
        assert_eq!(data.cols(), self.dim(), "cluster: column count mismatch");
        self.cluster_range(data, 0)
    }

    /// [`LshTable::cluster`] over the column window `[start, start + L)`
    /// of `data`, avoiding the sub-matrix copy.
    pub fn cluster_range(&self, data: &Matrix, start: usize) -> (ClusterTable, Vec<u64>) {
        cluster_from_signatures(self.signatures_range(data, start).iter().copied())
    }

    /// Multiply–adds needed to hash `n` rows: `n · L · H` (the paper's
    /// hashing overhead term `N·K·H` summed over sub-matrices).
    pub fn hashing_flops(&self, n: usize) -> u64 {
        (n * self.dim() * self.num_hashes()) as u64
    }
}

/// Recycled lookup state for [`cluster_scoped_signatures_into`]: the
/// direct-index table of the narrow-signature path and the hash map of the
/// wide one. Both keep their heap capacity between calls.
#[derive(Debug, Default)]
pub struct GroupScratch {
    lut: Vec<u32>,
    map: SignatureMap<u32>,
}

/// Groups a signature stream into a dense [`ClusterTable`]: equal
/// signatures share a cluster, ids assigned in first-appearance order.
/// Returns the table plus the forming signature of each cluster. The
/// allocating, whole-stream form of [`cluster_scoped_signatures_into`].
pub fn cluster_from_signatures(
    sigs: impl ExactSizeIterator<Item = u64>,
) -> (ClusterTable, Vec<u64>) {
    let mut table = ClusterTable::new(Vec::with_capacity(sigs.len()));
    let mut cluster_sigs = Vec::with_capacity(sigs.len());
    let scope_rows = sigs.len().max(1);
    cluster_scoped_signatures_into(
        sigs,
        u64::BITS as usize,
        scope_rows,
        &mut GroupScratch::default(),
        &mut table,
        &mut cluster_sigs,
    );
    (table, cluster_sigs)
}

/// Groups a signature stream known to fit in `sig_bits` bits into
/// caller-owned state: `table` is re-assigned in place, `cluster_sigs` is
/// cleared and refilled with the forming signature of each cluster, and
/// `scratch` carries the lookup tables — so a steady-state call allocates
/// nothing.
///
/// Grouping happens within a *cluster scope*: the stream is cut into
/// consecutive runs of `scope_rows` signatures (a short last run is allowed)
/// and equal signatures share a cluster only within a run — the paper's
/// single-input scope (§III-B) with one run per image; a `scope_rows` of
/// the stream's length groups it whole. Each run is grouped on the pure
/// signature with a freshly emptied lookup table while the id counter runs
/// on, so ids are dense, in first-appearance order over the whole stream,
/// and the key never has to carry the run index — any signature width up to
/// 64 bits works. `cluster_sigs` then repeats a signature once per run it
/// appears in.
///
/// Signatures of at most 16 bits use a direct-index table instead of a hash
/// map, which is several times faster on the reuse hot path; wider ones (or
/// tables that would dwarf a run's row count) fall back to the map.
///
/// # Panics
/// Panics if `scope_rows == 0`, and (in debug builds) if a signature exceeds
/// `sig_bits`.
// Cluster ids are u32 by design; row counts stay far below 2^32.
#[allow(clippy::cast_possible_truncation)]
pub fn cluster_scoped_signatures_into(
    sigs: impl ExactSizeIterator<Item = u64>,
    sig_bits: usize,
    scope_rows: usize,
    scratch: &mut GroupScratch,
    table: &mut ClusterTable,
    cluster_sigs: &mut Vec<u64>,
) {
    assert!(scope_rows > 0, "a cluster scope holds at least one row");
    cluster_sigs.clear();
    // Rows left in the current run; zero opens the next one.
    let mut left = 0usize;
    // The LUT pays 2^bits of filling per run; only profitable while that
    // stays proportionate to the number of rows a run clusters.
    if sig_bits > 16 || (1usize << sig_bits) > 4 * scope_rows.min(sigs.len()).max(1) {
        let map = &mut scratch.map;
        table.assign(sigs.map(|s| {
            if left == 0 {
                map.clear();
                left = scope_rows;
            }
            left -= 1;
            let next = cluster_sigs.len() as u32;
            *map.entry(s).or_insert_with(|| {
                cluster_sigs.push(s);
                next
            })
        }));
        return;
    }
    const UNSEEN: u32 = u32::MAX;
    let lut = &mut scratch.lut;
    lut.resize(1usize << sig_bits, UNSEEN);
    table.assign(sigs.map(|s| {
        if left == 0 {
            lut.fill(UNSEEN);
            left = scope_rows;
        }
        left -= 1;
        debug_assert!((s as usize) < lut.len(), "signature wider than sig_bits");
        let slot = &mut lut[s as usize];
        if *slot == UNSEEN {
            *slot = cluster_sigs.len() as u32;
            cluster_sigs.push(s);
        }
        *slot
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(dim: usize, h: usize, seed: u64) -> LshTable {
        LshTable::new(dim, h, &mut AdrRng::seeded(seed))
    }

    #[test]
    fn identical_vectors_share_signatures() {
        let t = table(8, 16, 1);
        let v: Vec<f32> = (0..8).map(|i| i as f32 - 3.5).collect();
        assert_eq!(t.signature(&v), t.signature(&v));
    }

    #[test]
    fn scaled_vectors_share_signatures() {
        // Sign random projections are scale-invariant.
        let t = table(8, 16, 2);
        let v: Vec<f32> = (0..8).map(|i| (i as f32).sin()).collect();
        let scaled: Vec<f32> = v.iter().map(|x| x * 37.5).collect();
        assert_eq!(t.signature(&v), t.signature(&scaled));
    }

    #[test]
    fn opposite_vectors_get_complementary_bits() {
        let t = table(4, 8, 3);
        let v = [1.0, -2.0, 0.5, 3.0];
        let neg: Vec<f32> = v.iter().map(|x| -x).collect();
        let s1 = t.signature(&v);
        let s2 = t.signature(&neg);
        // With probability 1 no projection is exactly zero, so bits flip.
        let mask = (1u64 << 8) - 1;
        assert_eq!(s1 ^ s2, mask);
    }

    #[test]
    fn nearby_vectors_collide_more_than_distant_ones() {
        let t = table(16, 20, 4);
        let mut rng = AdrRng::seeded(99);
        let base: Vec<f32> = (0..16).map(|_| rng.gauss()).collect();
        let near: Vec<f32> = base.iter().map(|x| x + 0.01 * x.signum()).collect();
        let far: Vec<f32> = (0..16).map(|_| rng.gauss()).collect();
        let sb = t.signature(&base);
        let sn = t.signature(&near);
        let sf = t.signature(&far);
        let near_diff = (sb ^ sn).count_ones();
        let far_diff = (sb ^ sf).count_ones();
        assert!(near_diff < far_diff, "near {near_diff} vs far {far_diff}");
    }

    #[test]
    fn more_hashes_give_finer_clusters() {
        let mut rng = AdrRng::seeded(5);
        let data = Matrix::from_fn(200, 8, |_, _| rng.gauss());
        let coarse = table(8, 2, 6).cluster(&data).0.num_clusters();
        let fine = table(8, 20, 6).cluster(&data).0.num_clusters();
        assert!(fine > coarse, "fine {fine} vs coarse {coarse}");
    }

    #[test]
    fn cluster_assigns_equal_rows_together() {
        let mut data = Matrix::zeros(4, 6);
        for r in 0..4 {
            for c in 0..6 {
                // rows 0 and 2 identical; rows 1 and 3 identical.
                data[(r, c)] = ((r % 2) * 10 + c) as f32 + 1.0;
            }
        }
        let (tab, sigs) = table(6, 12, 7).cluster(&data);
        assert_eq!(tab.cluster_of(0), tab.cluster_of(2));
        assert_eq!(tab.cluster_of(1), tab.cluster_of(3));
        assert_eq!(sigs.len(), tab.num_clusters());
        tab.validate().unwrap();
    }

    #[test]
    fn signature_count_matches_cluster_count() {
        let mut rng = AdrRng::seeded(8);
        let data = Matrix::from_fn(64, 4, |_, _| rng.gauss());
        let (tab, sigs) = table(4, 10, 9).cluster(&data);
        assert_eq!(sigs.len(), tab.num_clusters());
        // Signatures listed per cluster must be unique.
        let mut uniq = sigs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), sigs.len());
    }

    #[test]
    fn hashing_flops_formula() {
        let t = table(10, 5, 10);
        assert_eq!(t.hashing_flops(100), 100 * 10 * 5);
    }

    #[test]
    #[should_panic(expected = "num_hashes must be in")]
    fn too_many_hashes_panics() {
        table(4, 65, 11);
    }

    #[test]
    fn constant_family_collapses_everything_into_one_cluster() {
        let mut rng = AdrRng::seeded(12);
        let data = Matrix::from_fn(100, 6, |_, _| rng.gauss());
        let t = LshTable::constant(6, 10);
        let (tab, sigs) = t.cluster(&data);
        assert_eq!(tab.num_clusters(), 1);
        assert_eq!(sigs, vec![0]);
        // Both sign paths (per-row dot and blocked GEMM) agree: > 0.0
        // fails for an exactly-zero projection.
        let big = Matrix::from_fn(200, 6, |_, _| 1.0);
        assert!(t.signatures(&big).iter().all(|&s| s == 0));
    }

    #[test]
    fn recycled_grouping_state_matches_fresh_grouping_on_both_paths() {
        // 6-bit signatures take the direct-index table, 40-bit ones the map;
        // dirty scratch, table and signature list must not leak into either.
        let mut scratch = GroupScratch::default();
        let mut table = ClusterTable::new(vec![0, 0, 1]);
        let mut cluster_sigs = vec![99u64; 5];
        for (round, bits) in [6usize, 40, 6, 40].into_iter().enumerate() {
            let mask = (1u64 << bits) - 1;
            let sigs: Vec<u64> = (0..50u64)
                .map(|r| (r % (7 + round as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
                .collect();
            let iter = sigs.iter().copied();
            cluster_scoped_signatures_into(
                iter,
                bits,
                sigs.len(),
                &mut scratch,
                &mut table,
                &mut cluster_sigs,
            );
            let (fresh_table, fresh_sigs) = cluster_from_signatures(sigs.iter().copied());
            assert_eq!(table, fresh_table, "round {round}");
            assert_eq!(cluster_sigs, fresh_sigs, "round {round}");
            assert_eq!(table.num_clusters(), 7 + round);
        }
    }

    #[test]
    fn scoped_grouping_is_per_run_grouping_with_a_running_id_counter() {
        // Runs of 7 over 24 signatures (short last run), 5-bit signatures on
        // the direct-index path and 64-bit ones — all bits in use — on the map.
        let mut scratch = GroupScratch::default();
        let mut table = ClusterTable::default();
        let mut cluster_sigs = Vec::new();
        for bits in [5usize, 64] {
            let mask = u64::MAX >> (64 - bits);
            let sigs: Vec<u64> =
                (0..24u64).map(|r| !((r % 3).wrapping_mul(0x9E37_79B9_7F4A_7C15)) & mask).collect();
            let iter = sigs.iter().copied();
            cluster_scoped_signatures_into(
                iter,
                bits,
                7,
                &mut scratch,
                &mut table,
                &mut cluster_sigs,
            );
            let (mut want_ids, mut want_sigs) = (Vec::new(), Vec::new());
            for run in sigs.chunks(7) {
                let (run_table, run_sigs) = cluster_from_signatures(run.iter().copied());
                let base = u32::try_from(want_sigs.len()).unwrap();
                want_ids.extend(run_table.assignments().iter().map(|&id| base + id));
                want_sigs.extend(run_sigs);
            }
            assert_eq!(table.assignments(), want_ids, "{bits} bits");
            assert_eq!(cluster_sigs, want_sigs, "{bits} bits");
            assert_eq!(table.num_clusters(), 3 * 3 + 3, "three full runs and a run of three");
        }
    }

    #[test]
    fn same_seed_same_family() {
        let a = table(8, 8, 42);
        let b = table(8, 8, 42);
        let v: Vec<f32> = (0..8).map(|i| (i as f32 * 0.7).cos()).collect();
        assert_eq!(a.signature(&v), b.signature(&v));
    }
}
