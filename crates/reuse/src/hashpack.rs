//! Packed multi-sub-matrix hashing.
//!
//! Hashing is the paper's fixed overhead term `N·K·H` (every input element
//! participates in `H` projections exactly once, regardless of `L`). A naive
//! implementation pays per-sub-matrix dispatch costs `⌈K/L⌉` times per
//! forward, which swamps the arithmetic at small `L`. [`PackedHasher`]
//! interleaves all sub-matrix hyperplane families into one `K × H` table so
//! a single streaming pass over each unfolded row produces *every*
//! sub-vector signature, parallelised over row chunks.

use adr_clustering::lsh::LshTable;
use adr_tensor::kernels::project_signs;
use adr_tensor::matrix::Matrix;
use adr_tensor::simd::LANES;

use crate::subvec::SubVecSplit;

/// Hyperplanes of all sub-matrices packed for one streaming pass per row.
#[derive(Clone, Debug)]
pub struct PackedHasher {
    k: usize,
    h: usize,
    /// `H` rounded up to whole 8-lane chunks; the padding lanes are zero
    /// hyperplanes, so every `H` in `1..=64` runs the same kernel.
    lanes: usize,
    /// Column range of each sub-matrix, ascending.
    ranges: Vec<(usize, usize)>,
    /// `K · lanes` floats. Sub-matrix `i` with columns `[start, end)` owns
    /// `packed[start · lanes..end · lanes]`, laid out in the chunk-major
    /// form [`project_signs`] reads: component `local` of hyperplane
    /// `8·c + l` sits at `((c · (end − start)) + local) · 8 + l`.
    packed: Vec<f32>,
}

impl PackedHasher {
    /// Packs one LSH family per sub-matrix.
    ///
    /// # Panics
    /// Panics when `lsh` is empty (there is nothing to hash against — a
    /// hasher cannot be built before its families exist), when the family
    /// count disagrees with the split (`split.num_sub_vectors()` is always
    /// ≥ 1), when a family's width disagrees with its sub-vector range, or
    /// when the families do not all share the same `H` in `1..=64`.
    pub fn new(split: &SubVecSplit, lsh: &[LshTable]) -> Self {
        assert!(
            !lsh.is_empty(),
            "PackedHasher::new needs at least one LSH family; an empty slice has no H to pack \
             (build the families before the hasher)"
        );
        assert_eq!(lsh.len(), split.num_sub_vectors(), "one LSH family per sub-matrix");
        let h = lsh[0].num_hashes();
        assert!((1..=64).contains(&h), "H must be in 1..=64");
        let k = split.k();
        let lanes = h.div_ceil(LANES) * LANES;
        let mut packed = vec![0.0f32; k * lanes];
        for (i, (family, &(start, end))) in lsh.iter().zip(split.ranges()).enumerate() {
            let width = end - start;
            assert_eq!(family.dim(), width, "family {i} width mismatch");
            assert_eq!(family.num_hashes(), h, "family {i} must share H");
            let planes = family.hyperplanes(); // H × L_i
            let block = &mut packed[start * lanes..end * lanes];
            for j in 0..h {
                let chunk = &mut block[(j / LANES) * width * LANES..][..width * LANES];
                for (local, lane_row) in chunk.chunks_exact_mut(LANES).enumerate() {
                    lane_row[j % LANES] = planes[(j, local)];
                }
            }
        }
        Self { k, h, lanes, ranges: split.ranges().to_vec(), packed }
    }

    /// Number of sub-matrices.
    pub fn num_subs(&self) -> usize {
        self.ranges.len()
    }

    /// Hash count `H`.
    pub fn num_hashes(&self) -> usize {
        self.h
    }

    /// Multiply–adds needed to hash `n` rows: the paper's `N·K·H`, which is
    /// [`LshTable::hashing_flops`] summed over the packed families.
    pub fn hashing_flops(&self, n: usize) -> u64 {
        (n * self.k * self.h) as u64
    }

    /// Hashes every row of `x` against every sub-matrix family in one pass.
    ///
    /// Returns row-major signatures: `out[r · num_subs + i]` is row `r`'s
    /// signature in sub-matrix `i`, bit for bit [`LshTable::signature`] of
    /// `lsh[i]` on the corresponding row window.
    ///
    /// # Panics
    /// Panics if `x.cols() != K`.
    pub fn hash_all(&self, x: &Matrix) -> Vec<u64> {
        let mut out = Vec::new();
        self.hash_all_into(x, &mut out);
        out
    }

    /// [`Self::hash_all`] into a caller-owned signature buffer, which is
    /// resized (heap capacity reused) first.
    ///
    /// # Panics
    /// Panics if `x.cols() != K`.
    pub fn hash_all_into(&self, x: &Matrix, out: &mut Vec<u64>) {
        assert_eq!(x.cols(), self.k, "hash_all: column count mismatch");
        out.resize(x.rows() * self.num_subs(), 0);
        self.hash_into(x.as_slice(), out);
    }

    /// Hashes the row-major `N × K` rows of `x` into `out`, which holds
    /// exactly `N · num_subs` signatures laid out as [`Self::hash_all`]'s and
    /// is overwritten, not cleared first — the entry point of the reuse
    /// forward pass, which lends it a prefix of its thread's scratch.
    ///
    /// # Panics
    /// Panics if `x` is not a whole number of `K`-wide rows, or if `out` does
    /// not hold one signature per row and sub-matrix.
    pub fn hash_into(&self, x: &[f32], out: &mut [u64]) {
        assert_eq!(x.len() % self.k, 0, "hash_into: input is not a whole number of K-wide rows");
        let n = x.len() / self.k;
        let subs = self.num_subs();
        assert_eq!(out.len(), n * subs, "hash_into: signature buffer is not N x num_subs");
        // Hashing is a dense projection — compute-bound, like GEMM.
        let threads = adr_tensor::par::compute_threads(n * self.k * self.h);
        adr_tensor::par::run_row_blocks(out, subs, n, threads, |row0, rows_here, chunk| {
            self.hash_rows(x, row0, rows_here, chunk);
        });
    }

    /// Hashes rows `[row0, row0 + count)` of the row-major `x` into `out`
    /// (length `count · subs`): one kernel call per row block, which walks a
    /// register block of rows across all sub-matrices before moving down, so
    /// `x` streams through the cache once and every row of the block is a
    /// sequential read.
    fn hash_rows(&self, x: &[f32], row0: usize, count: usize, out: &mut [u64]) {
        let x = &x[row0 * self.k..(row0 + count) * self.k];
        project_signs(x, self.k, count, &self.ranges, &self.packed, self.lanes / LANES, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adr_tensor::rng::AdrRng;

    fn families(split: &SubVecSplit, h: usize, seed: u64) -> Vec<LshTable> {
        let mut rng = AdrRng::seeded(seed);
        split.ranges().iter().map(|&(a, b)| LshTable::new(b - a, h, &mut rng)).collect()
    }

    /// The packed kernel must reproduce [`LshTable::signature`] — the scalar
    /// sign-dot loop of Eq. 4 — bit for bit on every lane, block and chunk
    /// shape.
    fn assert_matches_oracle(x: &Matrix, split: &SubVecSplit, lsh: &[LshTable], what: &str) {
        let hasher = PackedHasher::new(split, lsh);
        let all = hasher.hash_all(x);
        let subs = split.num_sub_vectors();
        assert_eq!(all.len(), x.rows() * subs, "{what}");
        for r in 0..x.rows() {
            for (i, &(a, b)) in split.ranges().iter().enumerate() {
                let expect = lsh[i].signature(&x.row(r)[a..b]);
                assert_eq!(all[r * subs + i], expect, "{what}: row {r} sub {i}");
            }
        }
        // A pool block that starts and ends mid-matrix — one kernel call
        // over rows `[1, rows − 1)` — writes exactly those rows' signatures.
        if x.rows() > 2 {
            let (row0, count) = (1, x.rows() - 2);
            let mut block = vec![u64::MAX; count * subs];
            hasher.hash_rows(x.as_slice(), row0, count, &mut block);
            assert_eq!(block, all[row0 * subs..][..count * subs], "{what}: block at row {row0}");
        }
    }

    #[test]
    fn bitwise_equal_to_the_scalar_loop_across_h_l_and_row_shapes() {
        const K: usize = 19;
        let mut rng = AdrRng::seeded(21);
        // 1 row, fewer rows than a register block, a whole block, ragged tails.
        for rows in [1usize, 3, 4, 7, 13] {
            let x = Matrix::from_fn(rows, K, |_, _| rng.gauss());
            for h in [1usize, 5, 8, 9, 16, 33, 64] {
                // L = 3 and L = 8 leave a short tail sub-vector (K % L != 0);
                // L = K is one family over the whole row.
                for l in [1usize, 3, 8, K] {
                    let split = SubVecSplit::new(K, l);
                    let lsh = families(&split, h, (h * 100 + l) as u64);
                    assert_matches_oracle(&x, &split, &lsh, &format!("rows={rows} H={h} L={l}"));
                }
            }
        }
        // Many row blocks over a wider K whose tail sub-vector is short
        // (widths 7, 7, 7, 2), and the same rows under one whole-row family.
        let x = Matrix::from_fn(40, 23, |_, _| rng.gauss());
        for (l, h) in [(7usize, 9usize), (23, 12)] {
            let split = SubVecSplit::new(23, l);
            let lsh = families(&split, h, 2);
            assert_matches_oracle(&x, &split, &lsh, &format!("rows=40 K=23 H={h} L={l}"));
        }
    }

    #[test]
    fn zero_family_hashes_everything_to_zero() {
        let mut rng = AdrRng::seeded(22);
        let x = Matrix::from_fn(6, 10, |_, _| rng.gauss() * 1e6);
        for h in [3usize, 8, 64] {
            let split = SubVecSplit::new(10, 4); // widths 4,4,2
            let lsh: Vec<LshTable> =
                split.ranges().iter().map(|&(a, b)| LshTable::constant(b - a, h)).collect();
            assert!(PackedHasher::new(&split, &lsh).hash_all(&x).iter().all(|&s| s == 0));
            assert_matches_oracle(&x, &split, &lsh, &format!("constant family H={h}"));
        }
    }

    #[test]
    fn large_input_uses_threads_and_agrees() {
        let mut rng = AdrRng::seeded(5);
        let x = Matrix::from_fn(3000, 30, |_, _| rng.gauss());
        let split = SubVecSplit::new(30, 5);
        let lsh = families(&split, 8, 6);
        let packed = PackedHasher::new(&split, &lsh);
        let all = packed.hash_all(&x);
        // Spot-check a sample of rows against the reference path.
        for &r in &[0usize, 17, 512, 2999] {
            for (i, &(a, b)) in split.ranges().iter().enumerate() {
                let expect = lsh[i].signature(&x.row(r)[a..b]);
                assert_eq!(all[r * 6 + i], expect, "row {r} sub {i}");
            }
        }
    }

    /// Satellite-bug pin: an empty family slice used to fall through
    /// `unwrap_or(0)` into the misleading `"H must be in 1..=64"` panic;
    /// it must get its own descriptive message.
    #[test]
    #[should_panic(expected = "needs at least one LSH family")]
    fn empty_family_slice_gets_descriptive_panic() {
        let split = SubVecSplit::new(8, 4);
        PackedHasher::new(&split, &[]);
    }

    #[test]
    fn hash_all_into_reuses_buffer_and_matches_hash_all() {
        let mut rng = AdrRng::seeded(11);
        let x = Matrix::from_fn(12, 10, |_, _| rng.gauss());
        let split = SubVecSplit::new(10, 4); // widths 4,4,2
        let lsh = families(&split, 6, 12);
        let packed = PackedHasher::new(&split, &lsh);
        let want = packed.hash_all(&x);
        // Stale garbage of a longer and of a shorter buffer is overwritten.
        for len in [99usize, 5] {
            let mut arena = vec![u64::MAX; len];
            packed.hash_all_into(&x, &mut arena);
            assert_eq!(arena, want, "buffer of {len}");
        }
        // The forward pass's form: a prefix of a longer scratch, whose tail
        // the hasher leaves alone.
        let mut scratch = vec![u64::MAX; want.len() + 7];
        packed.hash_into(x.as_slice(), &mut scratch[..want.len()]);
        assert_eq!(scratch[..want.len()], want[..]);
        assert!(scratch[want.len()..].iter().all(|&s| s == u64::MAX));
    }

    #[test]
    #[should_panic(expected = "must share H")]
    fn mixed_h_families_panic() {
        let mut rng = AdrRng::seeded(7);
        let split = SubVecSplit::new(8, 4);
        let lsh = vec![LshTable::new(4, 6, &mut rng), LshTable::new(4, 8, &mut rng)];
        PackedHasher::new(&split, &lsh);
    }
}
