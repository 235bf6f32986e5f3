//! The paper's complexity model.
//!
//! All quantities are *relative* costs: multiply–adds divided by the dense
//! cost `N·K·M`, so a value of `1.0` means "as expensive as the baseline".
//! These are Eqs. 5, 6, 12, 20 of the paper, plus the candidate-ordering
//! deltas of Eqs. 22/23 used by Policy 3.

/// Inputs to the cost model for one convolutional layer.
#[derive(Clone, Copy, Debug)]
pub struct CostParams {
    /// Number of weight filters `M`.
    pub m: usize,
    /// Sub-vector length `L`.
    pub l: usize,
    /// Number of hash functions `H`.
    pub h: usize,
    /// Average remaining ratio `r_c = |C|/N` across sub-matrices.
    pub rc: f64,
    /// Average across-batch reuse rate `R` (only meaningful with CR = 1).
    pub reuse_rate: f64,
}

/// Eq. 5 — relative forward cost without cluster reuse:
/// `H/M + r_c + 1/L`.
pub fn forward_cost(p: &CostParams) -> f64 {
    p.h as f64 / p.m as f64 + p.rc + 1.0 / p.l as f64
}

/// Eq. 6 — relative forward cost with cluster reuse:
/// `H/M + (1 − R)·r_c + 1/L`.
pub fn forward_cost_with_reuse(p: &CostParams) -> f64 {
    p.h as f64 / p.m as f64 + (1.0 - p.reuse_rate) * p.rc + 1.0 / p.l as f64
}

/// Eq. 12 — relative cost of the weight gradient using forward clustering:
/// `(1 − r_c)/L + r_c`.
///
/// The `(1 − r_c)/L` term is the `δy_{c,s}` row summation (`(N−|C|)·M` adds
/// per sub-matrix, `K/L` sub-matrices, normalised by `N·K·M`); the `r_c`
/// term is the centroid GEMM.
pub fn backward_weight_cost(p: &CostParams) -> f64 {
    (1.0 - p.rc) / p.l as f64 + p.rc
}

/// Eq. 20 — relative cost of the input delta using forward clustering: `r_c`.
pub fn backward_input_cost(p: &CostParams) -> f64 {
    p.rc
}

/// Forward plus weight-gradient cost, the part every training layer pays.
fn forward_and_weight_cost(p: &CostParams, cluster_reuse: bool) -> f64 {
    let fwd = if cluster_reuse { forward_cost_with_reuse(p) } else { forward_cost(p) };
    fwd + backward_weight_cost(p)
}

/// Total relative training-step cost (forward + both backward computations)
/// against the dense cost `3·N·K·M`.
pub fn training_step_cost(p: &CostParams, cluster_reuse: bool) -> f64 {
    (forward_and_weight_cost(p, cluster_reuse) + backward_input_cost(p)) / 3.0
}

/// [`training_step_cost`] of a layer whose input delta nobody reads — a
/// network's first layer, dense or reuse: forward + weight gradient against
/// the dense cost `2·N·K·M`.
pub fn first_layer_step_cost(p: &CostParams, cluster_reuse: bool) -> f64 {
    forward_and_weight_cost(p, cluster_reuse) / 2.0
}

/// Eq. 21 — the expected-time proxy used when ordering candidates:
/// `E_f(t) ∼ H/M + r_c + 1/L` (identical to Eq. 5; the controller only
/// needs *differences*, where the unknown `r_c` cancels).
pub fn expected_time(p: &CostParams) -> f64 {
    forward_cost(p)
}

/// Eq. 22 — change in expected time when only `L` changes: `1/L₂ − 1/L₁`.
pub fn delta_e_l(l1: usize, l2: usize) -> f64 {
    1.0 / l2 as f64 - 1.0 / l1 as f64
}

/// Eq. 23 — change in expected time when only `H` changes: `(H₂ − H₁)/M`.
pub fn delta_e_h(h1: usize, h2: usize, m: usize) -> f64 {
    (h2 as f64 - h1 as f64) / m as f64
}

/// The paper's profitability condition for LSH (§III-B): hashing pays off
/// only when `H << M·(1 − r_c)`. Returns the slack `M·(1−r_c) − H`
/// (positive = profitable).
pub fn profitability_slack(p: &CostParams) -> f64 {
    p.m as f64 * (1.0 - p.rc) - p.h as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(l: usize, h: usize, rc: f64) -> CostParams {
        CostParams { m: 64, l, h, rc, reuse_rate: 0.0 }
    }

    #[test]
    fn dense_limit_recovers_baseline() {
        // r_c → 1, L = K (one sub-vector), H small: cost ≈ 1 + overheads.
        let p = params(1600, 1, 1.0);
        let c = forward_cost(&p);
        assert!(c > 1.0 && c < 1.1, "cost {c}");
    }

    #[test]
    fn strong_clustering_beats_baseline() {
        let p = params(80, 8, 0.05);
        assert!(forward_cost(&p) < 0.3);
    }

    #[test]
    fn cluster_reuse_strictly_helps_forward_cost() {
        let mut p = params(80, 8, 0.2);
        p.reuse_rate = 0.9;
        assert!(forward_cost_with_reuse(&p) < forward_cost(&p));
        // With R = 0 both formulas agree.
        p.reuse_rate = 0.0;
        assert!((forward_cost_with_reuse(&p) - forward_cost(&p)).abs() < 1e-15);
    }

    #[test]
    fn backward_costs_shrink_with_rc() {
        let lo = params(40, 10, 0.05);
        let hi = params(40, 10, 0.5);
        assert!(backward_weight_cost(&lo) < backward_weight_cost(&hi));
        assert!(backward_input_cost(&lo) < backward_input_cost(&hi));
    }

    #[test]
    fn training_step_cost_is_average_of_three_phases() {
        let p = params(100, 10, 0.1);
        let expect = (forward_cost(&p) + backward_weight_cost(&p) + backward_input_cost(&p)) / 3.0;
        assert!((training_step_cost(&p, false) - expect).abs() < 1e-15);
    }

    #[test]
    fn first_layer_step_cost_drops_the_input_delta_from_both_sides() {
        let p = params(100, 10, 0.1);
        let expect = (forward_cost(&p) + backward_weight_cost(&p)) / 2.0;
        assert!((first_layer_step_cost(&p, false) - expect).abs() < 1e-15);
        // The overheads (hashing, scatter) are spread over two products
        // instead of three, so the same layer models as relatively dearer.
        assert!(first_layer_step_cost(&p, false) > training_step_cost(&p, false));
    }

    #[test]
    fn delta_formulas_match_direct_differences() {
        let m = 64;
        let p1 = params(40, 10, 0.1);
        let p2 = CostParams { l: 20, ..p1 };
        assert!((delta_e_l(40, 20) - (expected_time(&p2) - expected_time(&p1))).abs() < 1e-12);
        let p3 = CostParams { h: 25, ..p1 };
        assert!((delta_e_h(10, 25, m) - (expected_time(&p3) - expected_time(&p1))).abs() < 1e-12);
    }

    #[test]
    fn shrinking_l_increases_expected_time() {
        assert!(delta_e_l(80, 40) > 0.0);
        assert!(delta_e_l(40, 80) < 0.0);
    }

    #[test]
    fn training_step_cost_uses_reuse_rate_only_with_cr() {
        let mut p = params(50, 10, 0.2);
        p.reuse_rate = 0.95;
        let with_cr = training_step_cost(&p, true);
        let without = training_step_cost(&p, false);
        assert!(with_cr < without, "CR must reduce the modelled step cost");
        // The backward terms are unaffected by CR.
        let diff = without - with_cr;
        let fwd_diff = (forward_cost(&p) - forward_cost_with_reuse(&p)) / 3.0;
        assert!((diff - fwd_diff).abs() < 1e-12);
    }

    #[test]
    fn profitability_slack_sign() {
        assert!(profitability_slack(&params(40, 5, 0.1)) > 0.0);
        assert!(profitability_slack(&params(40, 63, 0.9)) < 0.0);
    }

    #[test]
    fn empty_cluster_table_never_reads_as_free() {
        // Regression: an empty ClusterTable used to report r_c = 0, which
        // Eq. 5 scored as a maximally-clustered, nearly-free layer. With the
        // degenerate case fixed to r_c = 1, the forward cost on empty input
        // keeps its floor of H/M + 1/L *plus* the full remaining-ratio term.
        let empty = adr_clustering::assign::ClusterTable::new(vec![]);
        assert_eq!(empty.remaining_ratio().to_bits(), 1.0f64.to_bits());
        for (l, h) in [(4, 1), (8, 8), (64, 32)] {
            let p = CostParams { m: 64, l, h, rc: empty.remaining_ratio(), reuse_rate: 0.0 };
            let floor = h as f64 / 64.0 + 1.0 / l as f64;
            assert!(
                forward_cost(&p) >= floor,
                "forward_cost {} dropped below the H/M + 1/L floor {floor}",
                forward_cost(&p)
            );
            // And strictly above it: the r_c = 1 term must be present.
            assert!(forward_cost(&p) >= floor + 1.0 - 1e-15);
        }
    }
}
