//! Row→cluster assignment tables and centroid construction.

use adr_tensor::kernels::sum_clusters;
use adr_tensor::Matrix;

/// The result of clustering the `N` rows of a matrix into `|C|` clusters.
///
/// Invariants (checked by [`ClusterTable::validate`] and the property tests):
/// every row has exactly one cluster in `0..num_clusters`, cluster sizes sum
/// to `N`, and no cluster is empty. The default is the empty table (no rows).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClusterTable {
    assignments: Vec<u32>,
    counts: Vec<u32>,
}

impl ClusterTable {
    /// Builds a table from per-row assignments.
    ///
    /// Cluster ids must be dense (`0..max+1` all present); use
    /// [`ClusterTable::from_sparse_ids`] when they are not.
    ///
    /// # Panics
    /// Panics if any cluster in the dense range is empty.
    pub fn new(assignments: Vec<u32>) -> Self {
        let mut table = Self { assignments, counts: Vec::new() };
        table.recount();
        table
    }

    /// Replaces the assignments in place, reusing both heap buffers — the
    /// arena form of [`ClusterTable::new`] for a table that is re-clustered
    /// every batch.
    ///
    /// # Panics
    /// Panics if any cluster in the dense range is empty.
    pub fn assign(&mut self, ids: impl Iterator<Item = u32>) {
        self.assignments.clear();
        self.assignments.extend(ids);
        self.recount();
    }

    /// Rebuilds `counts` from `assignments`, checking density.
    fn recount(&mut self) {
        let num = self.assignments.iter().map(|&a| a as usize + 1).max().unwrap_or(0);
        self.counts.clear();
        self.counts.resize(num, 0);
        for &a in &self.assignments {
            self.counts[a as usize] += 1;
        }
        assert!(
            self.counts.iter().all(|&c| c > 0),
            "cluster ids must be dense: found an empty cluster among {num}"
        );
    }

    /// Builds a table from arbitrary (possibly sparse) cluster labels,
    /// re-mapping them to dense ids in first-appearance order.
    // Cluster ids are u32 by design; row counts stay far below 2^32.
    #[allow(clippy::cast_possible_truncation)]
    pub fn from_sparse_ids<T: Eq + std::hash::Hash + Copy>(labels: &[T]) -> Self {
        let mut map = std::collections::HashMap::new();
        let mut assignments = Vec::with_capacity(labels.len());
        for &l in labels {
            let next = map.len() as u32;
            let id = *map.entry(l).or_insert(next);
            assignments.push(id);
        }
        Self::new(assignments)
    }

    /// Number of rows `N`.
    pub fn num_rows(&self) -> usize {
        self.assignments.len()
    }

    /// Number of clusters `|C|`.
    pub fn num_clusters(&self) -> usize {
        self.counts.len()
    }

    /// The paper's remaining ratio `r_c = |C| / N` (§III-A). An empty table
    /// reports `1.0` — no rows were clustered, so no work is saved.
    pub fn remaining_ratio(&self) -> f64 {
        if self.assignments.is_empty() {
            // An empty table means *no* clustering happened, not perfect
            // clustering: report "all rows remain" (no savings) so the
            // Eq. 5 cost model never reads the degenerate case as a
            // nearly-free layer.
            return 1.0;
        }
        self.num_clusters() as f64 / self.num_rows() as f64
    }

    /// Cluster of row `i`.
    #[inline]
    pub fn cluster_of(&self, row: usize) -> u32 {
        self.assignments[row]
    }

    /// Per-row assignments.
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// Size of cluster `c`.
    #[inline]
    pub fn count(&self, cluster: u32) -> u32 {
        self.counts[cluster as usize]
    }

    /// Per-cluster sizes.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Checks the structural invariants, returning a description of the
    /// first violation.
    pub fn validate(&self) -> Result<(), String> {
        let num = self.counts.len();
        let mut recount = vec![0u32; num];
        for (row, &a) in self.assignments.iter().enumerate() {
            if a as usize >= num {
                return Err(format!("row {row} assigned to out-of-range cluster {a}"));
            }
            recount[a as usize] += 1;
        }
        if recount != self.counts {
            return Err("stored counts disagree with assignments".into());
        }
        if let Some(c) = recount.iter().position(|&c| c == 0) {
            return Err(format!("cluster {c} is empty"));
        }
        Ok(())
    }

    /// Computes the `|C| × L` centroid matrix: row `c` is the arithmetic
    /// mean of the raw member rows of cluster `c` (the paper's `x_c`).
    ///
    /// # Panics
    /// Panics if `data.rows() != num_rows()`.
    pub fn centroids(&self, data: &Matrix) -> Matrix {
        self.centroids_range(data, 0, data.cols())
    }

    /// [`ClusterTable::centroids`] over the column window `[start, end)` of
    /// `data` — avoids materialising the sub-matrix.
    ///
    /// # Panics
    /// Panics on row-count mismatch or an out-of-bounds window.
    pub fn centroids_range(&self, data: &Matrix, start: usize, end: usize) -> Matrix {
        let mut sums = Matrix::default();
        self.centroids_range_into(data, start, end, &mut sums);
        sums
    }

    /// [`ClusterTable::centroids_range`] into a caller-owned matrix, which
    /// is reshaped to `|C| × (end − start)` with its heap buffer reused.
    ///
    /// # Panics
    /// Panics on row-count mismatch or an out-of-bounds window.
    pub fn centroids_range_into(&self, data: &Matrix, start: usize, end: usize, sums: &mut Matrix) {
        assert_eq!(data.rows(), self.num_rows(), "centroids: row count mismatch");
        assert!(start <= end && end <= data.cols(), "centroid window out of bounds");
        sums.reset(self.num_clusters(), end - start);
        self.add_member_rows(data.as_slice(), data.cols(), start, 0..self.num_rows(), sums);
        self.sums_to_means(sums);
    }

    /// Adds the column window `[start, start + sums.cols())` of each listed
    /// row of `data` (row-major, `stride` elements per row) into its
    /// cluster's row of `sums`, in the listed order — the one member sum
    /// behind the centroids, the cluster gradients and the reuse forward's
    /// blocked sweep. The running cluster row stays in registers while
    /// consecutive listed rows share a cluster ([`sum_clusters`]); each
    /// element of `sums` receives one IEEE add per listed member, in order.
    ///
    /// `rows` is walked once per 64 columns: pass a range or a slice
    /// iterator, never a collected list.
    ///
    /// # Panics
    /// Panics when `sums` does not have one row per cluster, the window
    /// overruns `stride`, or a listed row is out of range.
    pub fn add_member_rows<I>(
        &self,
        data: &[f32],
        stride: usize,
        start: usize,
        rows: I,
        sums: &mut Matrix,
    ) where
        I: Iterator<Item = usize> + Clone,
    {
        let width = sums.cols();
        assert_eq!(sums.rows(), self.num_clusters(), "member sums: one row per cluster");
        assert!(start + width <= stride, "member sums: window overruns the row stride");
        let members = rows.map(|r| (&data[r * stride + start..], self.assignments[r] as usize));
        sum_clusters(sums.as_mut_slice(), width, members);
    }

    /// Turns per-cluster row sums into per-cluster means in place: row `c`
    /// is multiplied by `1 / count(c)` — the one scaling step behind the
    /// centroids `x_c` and the cluster-mean gradients `δy_{c,sa}`.
    ///
    /// # Panics
    /// Panics if `sums` does not have one row per cluster.
    pub fn sums_to_means(&self, sums: &mut Matrix) {
        assert_eq!(sums.rows(), self.num_clusters(), "sums_to_means: one row per cluster");
        for (c, &count) in self.counts.iter().enumerate() {
            let inv = 1.0 / count as f32;
            for v in sums.row_mut(c) {
                *v *= inv;
            }
        }
    }

    /// Scatters per-cluster rows back to per-member rows:
    /// `out.row(i) += cluster_rows.row(cluster_of(i))`.
    ///
    /// This is the reconstruction step of Fig. 2 (forward) and the
    /// member-broadcast of Eq. 13 (backward input delta).
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn scatter_add(&self, cluster_rows: &Matrix, out: &mut Matrix) {
        assert_eq!(cluster_rows.rows(), self.num_clusters(), "scatter: cluster count mismatch");
        assert_eq!(out.rows(), self.num_rows(), "scatter: row count mismatch");
        assert_eq!(cluster_rows.cols(), out.cols(), "scatter: column mismatch");
        for (row, &c) in self.assignments.iter().enumerate() {
            let src = cluster_rows.row(c as usize);
            let dst = out.row_mut(row);
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d += s;
            }
        }
    }

    /// Gathers (sums) member rows into per-cluster rows:
    /// `out.row(c) = Σ_{i ∈ c} data.row(i)` — the paper's `δy_{c,s}` (Eq. 8).
    ///
    /// # Panics
    /// Panics when `data` has a different row count than this table.
    pub fn gather_sum(&self, data: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.gather_sum_into(data.as_slice(), data.cols(), &mut out);
        out
    }

    /// [`ClusterTable::gather_sum`] over a borrowed row-major slice of
    /// `cols`-wide rows, into a caller-owned matrix that is reshaped to
    /// `|C| × cols` with its heap buffer reused.
    ///
    /// # Panics
    /// Panics when `data` does not hold exactly `num_rows()` rows.
    pub fn gather_sum_into(&self, data: &[f32], cols: usize, out: &mut Matrix) {
        assert_eq!(data.len(), self.num_rows() * cols, "gather: row count mismatch");
        out.reset(self.num_clusters(), cols);
        self.add_member_rows(data, cols, 0, 0..self.num_rows(), out);
    }

    /// [`ClusterTable::gather_sum_into`] with each cluster's members summed
    /// consecutively, so each cluster row is loaded and stored once per
    /// window of 64 columns: a stable counting sort of the rows by cluster (the
    /// first `N` entries of `scratch`, with the next `|C|` as its cursors),
    /// then the member sums in that order. Each cluster still receives its
    /// members in ascending row order, so the bits are `gather_sum_into`'s.
    /// Allocates nothing; `scratch`'s contents are unspecified afterwards.
    ///
    /// # Panics
    /// Panics when `data` does not hold exactly `num_rows()` rows, or
    /// `scratch` holds fewer than `num_rows() + num_clusters()` entries.
    pub fn gather_sum_members_into(
        &self,
        data: &[f32],
        cols: usize,
        scratch: &mut [u32],
        out: &mut Matrix,
    ) {
        assert_eq!(data.len(), self.num_rows() * cols, "gather: row count mismatch");
        let (order, next) = scratch.split_at_mut(self.num_rows());
        let next = &mut next[..self.num_clusters()];
        let mut first = 0;
        for (next, &count) in next.iter_mut().zip(&self.counts) {
            *next = first;
            first += count;
        }
        for (row, &c) in (0u32..).zip(&self.assignments) {
            let slot = &mut next[c as usize];
            order[*slot as usize] = row;
            *slot += 1;
        }
        out.reset(self.num_clusters(), cols);
        self.add_member_rows(data, cols, 0, order.iter().map(|&r| r as usize), out);
    }

    /// Gathers member rows into per-cluster *means* — the paper's
    /// `δy_{c,sa}` (Eq. 15/16).
    pub fn gather_mean(&self, data: &Matrix) -> Matrix {
        let mut out = self.gather_sum(data);
        self.sums_to_means(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ClusterTable {
        // rows 0,2 -> cluster 0; rows 1,3,4 -> cluster 1
        ClusterTable::new(vec![0, 1, 0, 1, 1])
    }

    #[test]
    fn counts_and_ratio() {
        let t = table();
        assert_eq!(t.num_rows(), 5);
        assert_eq!(t.num_clusters(), 2);
        assert_eq!(t.counts(), &[2, 3]);
        assert!((t.remaining_ratio() - 0.4).abs() < 1e-12);
        t.validate().unwrap();
    }

    #[test]
    fn assign_replaces_the_table_in_place() {
        let mut t = table();
        t.assign([1u32, 0, 1].into_iter());
        assert_eq!(t, ClusterTable::new(vec![1, 0, 1]));
        t.validate().unwrap();
        t.assign(std::iter::empty());
        assert_eq!(t, ClusterTable::default());
    }

    #[test]
    fn into_variants_reshape_dirty_outputs_and_match_the_allocating_ones() {
        let t = table();
        let data = Matrix::from_fn(5, 6, |r, c| (r * 6 + c) as f32 * 0.5);
        let mut out = Matrix::filled(9, 9, f32::NAN);
        t.centroids_range_into(&data, 2, 5, &mut out);
        assert_eq!(out, t.centroids_range(&data, 2, 5));
        t.gather_sum_into(data.as_slice(), 6, &mut out);
        assert_eq!(out, t.gather_sum(&data));
    }

    #[test]
    fn member_order_gather_is_the_row_order_gather_bit_for_bit() {
        let t = ClusterTable::new(vec![2, 0, 1, 0, 2, 2, 1, 0, 3]);
        let data = Matrix::from_fn(9, 11, |r, c| ((r * 11 + c) as f32 * 0.37).sin() * 1e3);
        let mut want = Matrix::default();
        t.gather_sum_into(data.as_slice(), 11, &mut want);
        let mut scratch = vec![u32::MAX; 9 + 4 + 3];
        let mut got = Matrix::filled(2, 2, f32::NAN);
        t.gather_sum_members_into(data.as_slice(), 11, &mut scratch, &mut got);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.shape(), (4, 11));
        assert_eq!(bits(&got), bits(&want));
        // The sort: cluster 0's rows, then cluster 1's, …, each ascending.
        assert_eq!(scratch[..9], [1, 3, 7, 2, 6, 0, 4, 5, 8]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_short_member_scratch_panics() {
        let t = table();
        let data = Matrix::zeros(5, 2);
        t.gather_sum_members_into(data.as_slice(), 2, &mut [0; 6], &mut Matrix::default());
    }

    #[test]
    fn from_sparse_ids_densifies() {
        let t = ClusterTable::from_sparse_ids(&[100u64, 7, 100, 42]);
        assert_eq!(t.assignments(), &[0, 1, 0, 2]);
        assert_eq!(t.num_clusters(), 3);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn empty_middle_cluster_panics() {
        ClusterTable::new(vec![0, 2]);
    }

    #[test]
    fn centroids_are_member_means() {
        let t = table();
        let data = Matrix::from_fn(5, 2, |r, c| (r * 2 + c) as f32);
        let cent = t.centroids(&data);
        // cluster 0: rows 0 [0,1] and 2 [4,5] -> mean [2,3]
        assert_eq!(cent.row(0), &[2.0, 3.0]);
        // cluster 1: rows 1 [2,3], 3 [6,7], 4 [8,9] -> mean [16/3, 19/3]
        assert!((cent.row(1)[0] - 16.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn centroids_range_matches_sliced_centroids() {
        let t = table();
        let data = Matrix::from_fn(5, 6, |r, c| (r * 6 + c) as f32 * 0.5);
        let windowed = t.centroids_range(&data, 2, 5);
        let sliced = t.centroids(&data.column_slice(2, 5));
        assert!(windowed.max_abs_diff(&sliced) < 1e-6);
    }

    #[test]
    fn scatter_add_broadcasts_cluster_rows() {
        let t = table();
        let rows = Matrix::from_vec(2, 1, vec![10.0, 20.0]).unwrap();
        let mut out = Matrix::zeros(5, 1);
        t.scatter_add(&rows, &mut out);
        assert_eq!(out.as_slice(), &[10.0, 20.0, 10.0, 20.0, 20.0]);
    }

    #[test]
    fn gather_sum_and_mean() {
        let t = table();
        let data = Matrix::from_vec(5, 1, vec![1.0, 2.0, 3.0, 4.0, 6.0]).unwrap();
        let sum = t.gather_sum(&data);
        assert_eq!(sum.as_slice(), &[4.0, 12.0]);
        let mean = t.gather_mean(&data);
        assert_eq!(mean.as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn gather_then_scatter_preserves_totals() {
        let t = table();
        let data = Matrix::from_fn(5, 3, |r, c| (r + c) as f32);
        let gathered = t.gather_mean(&data);
        let mut back = Matrix::zeros(5, 3);
        t.scatter_add(&gathered, &mut back);
        // Every member now holds its cluster mean; per-cluster totals match.
        let orig_totals = t.gather_sum(&data);
        let back_totals = t.gather_sum(&back);
        assert!(orig_totals.max_abs_diff(&back_totals) < 1e-5);
    }

    #[test]
    fn single_cluster_degenerate_case() {
        let t = ClusterTable::new(vec![0, 0, 0]);
        assert_eq!(t.num_clusters(), 1);
        assert!((t.remaining_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_singletons_gives_ratio_one() {
        let t = ClusterTable::new(vec![0, 1, 2, 3]);
        assert_eq!(t.remaining_ratio(), 1.0);
        let data = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        assert_eq!(t.centroids(&data), data);
    }

    #[test]
    fn empty_table_reports_no_savings() {
        // The degenerate "nothing was clustered" case must read as r_c = 1
        // (all rows remain), not 0 (everything collapsed) — otherwise the
        // Eq. 5 cost model would score the layer as nearly free.
        let t = ClusterTable::new(vec![]);
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.num_clusters(), 0);
        assert_eq!(t.remaining_ratio(), 1.0);
        t.validate().unwrap();
    }

    #[test]
    fn zero_width_centroid_window() {
        let t = table();
        let data = Matrix::from_fn(5, 6, |r, c| (r * 6 + c) as f32);
        for start in [0, 3, 6] {
            let cent = t.centroids_range(&data, start, start);
            assert_eq!(cent.rows(), t.num_clusters());
            assert_eq!(cent.cols(), 0);
        }
        // gather/scatter on zero-column data are likewise well-defined no-ops.
        let empty = Matrix::zeros(5, 0);
        assert_eq!(t.gather_sum(&empty).cols(), 0);
        assert_eq!(t.gather_mean(&empty).cols(), 0);
        let rows = Matrix::zeros(2, 0);
        let mut out = Matrix::zeros(5, 0);
        t.scatter_add(&rows, &mut out);
    }

    #[test]
    fn tail_window_narrower_than_l() {
        // A 6-column matrix split with L = 4 leaves a 2-wide tail window;
        // the windowed centroids must match centroids of the sliced tail.
        let t = table();
        let data = Matrix::from_fn(5, 6, |r, c| (r * 6 + c) as f32 * 0.25);
        let tail = t.centroids_range(&data, 4, 6);
        assert_eq!(tail.cols(), 2);
        let sliced = t.centroids(&data.column_slice(4, 6));
        assert!(tail.max_abs_diff(&sliced) < 1e-6);
        // And the full set of windows tiles the full-width centroids.
        let full = t.centroids(&data);
        let head = t.centroids_range(&data, 0, 4);
        for c in 0..t.num_clusters() {
            let rebuilt: Vec<f32> = head.row(c).iter().chain(tail.row(c)).copied().collect();
            assert_eq!(rebuilt.as_slice(), full.row(c));
        }
    }

    #[test]
    #[should_panic(expected = "window out of bounds")]
    fn inverted_window_panics() {
        let t = table();
        let data = Matrix::zeros(5, 6);
        t.centroids_range(&data, 4, 2);
    }
}
