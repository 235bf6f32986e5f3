//! Random-hyperplane LSH (Eq. 4 of the paper).
//!
//! `H` random hyperplanes turn a length-`L` neuron vector into an `H`-bit
//! signature: bit `h` is 1 iff `v_h · x > 0`. Vectors at small angular
//! distance collide with high probability, so equal signatures form
//! clusters. Because `sign(v·x) = sign(v·x̂)`, hashing raw vectors is
//! equivalent to hashing the normalised vectors the paper's similarity
//! metric prescribes.

use adr_tensor::matrix::Matrix;
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
    /// Each projection is the scalar loop `acc += x[j] · v[j]` from `0.0` in
    /// ascending `j` — the order the packed batch hasher
    /// (`adr_reuse::hashpack::PackedHasher`) computes on every lane, so the
    /// two agree bit for bit and this is its oracle.
    ///
    /// # Panics
    /// Panics if `x.len() != dim()`.
    pub fn signature(&self, x: &[f32]) -> u64 {
        assert_eq!(x.len(), self.dim(), "signature: vector length mismatch");
        let mut sig = 0u64;
        for h in 0..self.num_hashes() {
            let mut acc = 0.0f32;
            for (&xv, &pv) in x.iter().zip(self.hyperplanes.row(h)) {
                acc += xv * pv;
            }
            // Eq. 4: h_v(x) = 1 if v·x > 0 else 0.
            if acc > 0.0 {
                sig |= 1 << h;
            }
        }
        sig
    }

    /// Borrows the `H × L` hyperplane matrix (row `h` = hyperplane `h`).
    ///
    /// Exposed so callers that hash many sub-matrices can pack several
    /// families into one streaming pass (see `adr-reuse`).
    pub fn hyperplanes(&self) -> &Matrix {
        &self.hyperplanes
    }

    /// Multiply–adds needed to hash `n` rows: `n · L · H` (the paper's
    /// hashing overhead term `N·K·H` summed over sub-matrices).
    pub fn hashing_flops(&self, n: usize) -> u64 {
        (n * self.dim() * self.num_hashes()) as u64
    }
}

/// Recycled lookup state for [`cluster_signatures_into`]: the direct-index
/// table of the narrow-signature path and the hash map of the wide one. Both
/// keep their heap capacity between calls.
#[derive(Debug, Default)]
pub struct GroupScratch {
    lut: Vec<u32>,
    map: SignatureMap<u32>,
}

/// Groups a signature stream into a dense [`ClusterTable`]: equal
/// signatures share a cluster, ids assigned in first-appearance order.
/// Returns the table plus the forming signature of each cluster. The
/// allocating form of [`cluster_signatures_into`].
pub fn cluster_from_signatures(
    sigs: impl ExactSizeIterator<Item = u64>,
) -> (ClusterTable, Vec<u64>) {
    let mut table = ClusterTable::new(Vec::with_capacity(sigs.len()));
    let mut cluster_sigs = Vec::with_capacity(sigs.len());
    cluster_signatures_into(
        sigs,
        u64::BITS as usize,
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
/// nothing. Equal signatures anywhere in the stream share a cluster (the
/// paper's single-batch scope, §III-B); ids are dense, in first-appearance
/// order.
///
/// Signatures of at most 16 bits use a direct-index table instead of a hash
/// map, which is several times faster on the reuse hot path; wider ones (or
/// tables that would dwarf the stream's row count) fall back to the map.
///
/// # Panics
/// Panics (in debug builds) if a signature exceeds `sig_bits`.
// Cluster ids are u32 by design; row counts stay far below 2^32.
#[allow(clippy::cast_possible_truncation)]
pub fn cluster_signatures_into(
    sigs: impl ExactSizeIterator<Item = u64>,
    sig_bits: usize,
    scratch: &mut GroupScratch,
    table: &mut ClusterTable,
    cluster_sigs: &mut Vec<u64>,
) {
    cluster_sigs.clear();
    // The LUT pays 2^bits of filling per call; only profitable while that
    // stays proportionate to the number of rows it clusters.
    if sig_bits > 16 || (1usize << sig_bits) > 4 * sigs.len().max(1) {
        let map = &mut scratch.map;
        map.clear();
        table.assign(sigs.map(|s| {
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
    lut.clear();
    lut.resize(1usize << sig_bits, UNSEEN);
    table.assign(sigs.map(|s| {
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

    /// Groups the rows of `data` by their per-row [`LshTable::signature`].
    fn cluster(t: &LshTable, data: &Matrix) -> (ClusterTable, Vec<u64>) {
        cluster_from_signatures((0..data.rows()).map(|r| t.signature(data.row(r))))
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
        let coarse = cluster(&table(8, 2, 6), &data).0.num_clusters();
        let fine = cluster(&table(8, 20, 6), &data).0.num_clusters();
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
        let (tab, sigs) = cluster(&table(6, 12, 7), &data);
        assert_eq!(tab.cluster_of(0), tab.cluster_of(2));
        assert_eq!(tab.cluster_of(1), tab.cluster_of(3));
        assert_eq!(sigs.len(), tab.num_clusters());
        tab.validate().unwrap();
    }

    #[test]
    fn signature_count_matches_cluster_count() {
        let mut rng = AdrRng::seeded(8);
        let data = Matrix::from_fn(64, 4, |_, _| rng.gauss());
        let (tab, sigs) = cluster(&table(4, 10, 9), &data);
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
        let (tab, sigs) = cluster(&t, &data);
        assert_eq!(tab.num_clusters(), 1);
        assert_eq!(sigs, vec![0]);
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
            cluster_signatures_into(iter, bits, &mut scratch, &mut table, &mut cluster_sigs);
            let (fresh_table, fresh_sigs) = cluster_from_signatures(sigs.iter().copied());
            assert_eq!(table, fresh_table, "round {round}");
            assert_eq!(cluster_sigs, fresh_sigs, "round {round}");
            assert_eq!(table.num_clusters(), 7 + round);
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
