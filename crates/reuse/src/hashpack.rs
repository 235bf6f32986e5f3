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

    /// Hashes every row of `x` against every sub-matrix family in one pass.
    ///
    /// Returns row-major signatures: `out[r · num_subs + i]` is row `r`'s
    /// signature in sub-matrix `i`. Results equal calling
    /// `lsh[i].signature` on the corresponding row window (up to
    /// floating-point summation order at exact hyperplane boundaries).
    ///
    /// # Panics
    /// Panics if `x.cols() != K`.
    pub fn hash_all(&self, x: &Matrix) -> Vec<u64> {
        let mut out = Vec::new();
        self.hash_all_into(x, &mut out);
        out
    }

    /// [`Self::hash_all`] into a caller-owned signature buffer, which is
    /// resized (heap capacity reused) first — the arena variant the reuse
    /// forward pass uses so steady-state hashing allocates nothing.
    ///
    /// # Panics
    /// Panics if `x.cols() != K`.
    pub fn hash_all_into(&self, x: &Matrix, out: &mut Vec<u64>) {
        assert_eq!(x.cols(), self.k, "hash_all: column count mismatch");
        let n = x.rows();
        let subs = self.num_subs();
        out.clear();
        out.resize(n * subs, 0);
        // Hashing is a dense projection — compute-bound, like GEMM.
        let threads = adr_tensor::par::compute_threads(n * self.k * self.h);
        adr_tensor::par::run_row_blocks(out, subs, n, threads, |row0, rows_here, chunk| {
            self.hash_rows(x, row0, rows_here, chunk);
        });
    }

    /// Hashes rows `[row0, row0 + count)` into `out` (length `count · subs`):
    /// one kernel call per row block, which walks a register block of rows
    /// across all sub-matrices before moving down, so `x` streams through
    /// the cache once and every row of the block is a sequential read.
    fn hash_rows(&self, x: &Matrix, row0: usize, count: usize, out: &mut [u64]) {
        let x = &x.as_slice()[row0 * self.k..(row0 + count) * self.k];
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

    /// The scalar sign-dot loop of Eq. 4 — `acc += x · v` from `0.0` in
    /// ascending column order — which the packed kernel must reproduce bit
    /// for bit on every lane, block and chunk shape.
    fn scalar_signature(family: &LshTable, window: &[f32]) -> u64 {
        let mut sig = 0u64;
        for j in 0..family.num_hashes() {
            let mut acc = 0.0f32;
            for (&xv, &pv) in window.iter().zip(family.hyperplanes().row(j)) {
                acc += xv * pv;
            }
            if acc > 0.0 {
                sig |= 1 << j;
            }
        }
        sig
    }

    fn assert_matches_scalar(x: &Matrix, split: &SubVecSplit, lsh: &[LshTable], what: &str) {
        let hasher = PackedHasher::new(split, lsh);
        let all = hasher.hash_all(x);
        let subs = split.num_sub_vectors();
        assert_eq!(all.len(), x.rows() * subs, "{what}");
        for r in 0..x.rows() {
            for (i, &(a, b)) in split.ranges().iter().enumerate() {
                let expect = scalar_signature(&lsh[i], &x.row(r)[a..b]);
                assert_eq!(all[r * subs + i], expect, "{what}: row {r} sub {i}");
            }
        }
        // A pool block that starts and ends mid-matrix — one kernel call
        // over rows `[1, rows − 1)` — writes exactly those rows' signatures.
        if x.rows() > 2 {
            let (row0, count) = (1, x.rows() - 2);
            let mut block = vec![u64::MAX; count * subs];
            hasher.hash_rows(x, row0, count, &mut block);
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
                // L = 3 and L = 8 leave a short tail sub-vector (K % L != 0).
                for l in [1usize, 3, 8, K] {
                    let split = SubVecSplit::new(K, l);
                    let lsh = families(&split, h, (h * 100 + l) as u64);
                    assert_matches_scalar(&x, &split, &lsh, &format!("rows={rows} H={h} L={l}"));
                }
            }
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
            assert_matches_scalar(&x, &split, &lsh, &format!("constant family H={h}"));
        }
    }

    #[test]
    fn matches_per_family_signatures() {
        let mut rng = AdrRng::seeded(1);
        let x = Matrix::from_fn(40, 23, |_, _| rng.gauss());
        let split = SubVecSplit::new(23, 7); // widths 7,7,7,2
        let lsh = families(&split, 9, 2);
        let packed = PackedHasher::new(&split, &lsh);
        let all = packed.hash_all(&x);
        for (i, &(a, _)) in split.ranges().iter().enumerate() {
            let expect = lsh[i].signatures_range(&x, a);
            for r in 0..40 {
                assert_eq!(all[r * split.num_sub_vectors() + i], expect[r], "row {r} sub {i}");
            }
        }
    }

    #[test]
    fn single_sub_matrix_degenerates_to_whole_row() {
        let mut rng = AdrRng::seeded(3);
        let x = Matrix::from_fn(10, 8, |_, _| rng.gauss());
        let split = SubVecSplit::new(8, 8);
        let lsh = families(&split, 12, 4);
        let packed = PackedHasher::new(&split, &lsh);
        let all = packed.hash_all(&x);
        let expect = lsh[0].signatures(&x);
        assert_eq!(all, expect);
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
        let mut arena = vec![u64::MAX; 99]; // stale garbage must be cleared
        packed.hash_all_into(&x, &mut arena);
        assert_eq!(arena, packed.hash_all(&x));
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
