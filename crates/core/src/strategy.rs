//! The training strategies compared in Table IV.

/// Which of the paper's strategies (plus the dense baseline) a training run
/// uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Strategy {
    /// Dense convolution everywhere; no clustering (the paper's reference
    /// TensorFlow training).
    Baseline,
    /// Strategy 1 (§VI-B2): one manually tuned `{L, H}` held for the whole
    /// run, `CR = 0`.
    FixedLh {
        /// Sub-vector length (clamped per layer to its `K`).
        l: usize,
        /// Hash count.
        h: usize,
    },
    /// Strategy 2 (§V-A): the adaptive controller walks each layer's
    /// Policy-3 candidate list, switching on loss plateaus.
    AdaptiveLh,
    /// Strategy 3 (§V-B): fixed `{L, H}` with cluster reuse on; when the
    /// loss stops dropping, `CR` is switched off and training continues.
    ClusterReuseSchedule {
        /// Sub-vector length (clamped per layer).
        l: usize,
        /// Hash count.
        h: usize,
    },
}

impl Strategy {
    /// Dense baseline.
    pub fn baseline() -> Self {
        Self::Baseline
    }

    /// Strategy 1 with fixed `{L, H}`.
    pub fn fixed(l: usize, h: usize) -> Self {
        Self::FixedLh { l, h }
    }

    /// Strategy 2 (adaptive `{L, H}`).
    pub fn adaptive() -> Self {
        Self::AdaptiveLh
    }

    /// Strategy 3 (cluster-reuse on→off schedule).
    pub fn cluster_reuse(l: usize, h: usize) -> Self {
        Self::ClusterReuseSchedule { l, h }
    }

    /// Short display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Baseline => "baseline",
            Self::FixedLh { .. } => "strategy1-fixed",
            Self::AdaptiveLh => "strategy2-adaptive",
            Self::ClusterReuseSchedule { .. } => "strategy3-cluster-reuse",
        }
    }

    /// Whether the network should be built with reuse convolutions.
    pub fn uses_reuse(&self) -> bool {
        !matches!(self, Self::Baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct() {
        let names = [
            Strategy::baseline().name(),
            Strategy::fixed(5, 10).name(),
            Strategy::adaptive().name(),
            Strategy::cluster_reuse(5, 10).name(),
        ];
        let mut uniq = names.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4);
    }

    #[test]
    fn reuse_flag_matches_strategy() {
        assert!(!Strategy::baseline().uses_reuse());
        assert!(Strategy::fixed(5, 10).uses_reuse());
        assert!(Strategy::adaptive().uses_reuse());
        assert!(Strategy::cluster_reuse(5, 10).uses_reuse());
    }
}
