//! Per-layer reuse observability.

/// A snapshot of what deep reuse did during the latest forward pass of one
/// layer: clustering strength, overheads, and (when CR = 1) the across-batch
/// reuse rate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReuseStats {
    /// Rows clustered (the paper's `N`).
    pub rows: usize,
    /// Sub-vectors per row, `⌈K/L⌉`.
    pub num_sub_vectors: usize,
    /// Mean cluster count `|C|_{nv,avg}` across sub-matrices.
    pub avg_clusters: f64,
    /// Mean remaining ratio `r_c = |C|_{avg} / N` (§III-B).
    pub avg_remaining_ratio: f64,
    /// Mean across-batch reuse rate `R` of completed batches (0 when CR=0).
    pub reuse_rate: f64,
    /// Multiply–adds spent hashing (`N·K·H` over all sub-matrices).
    pub hash_flops: u64,
    /// Multiply–adds spent on centroid–weight GEMMs.
    pub gemm_flops: u64,
    /// Additions spent reconstructing/summing partial outputs.
    pub add_flops: u64,
}

impl ReuseStats {
    /// Total forward multiply–adds actually performed.
    pub fn total_forward_flops(&self) -> u64 {
        self.hash_flops + self.gemm_flops + self.add_flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let s = ReuseStats { hash_flops: 10, gemm_flops: 20, add_flops: 5, ..Default::default() };
        assert_eq!(s.total_forward_flops(), 35);
    }
}
