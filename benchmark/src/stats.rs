//! Order statistics for timing samples.
//!
//! A timing is reported as its median plus the highest percentile that still
//! has at least ten samples beyond it, with the sample count stated: a p99
//! read off 150 samples is one or two outliers, not a percentile.

use std::fmt;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Tail percentiles a summary may report, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count, 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean, 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    // The epsilon keeps e.g. 99.9 % of 10 000 at rank 9 990 despite rounding.
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an unsorted sample, 0 when empty.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), pct) - 1]
}

/// The highest candidate percentile with at least [`MIN_SAMPLES_BEYOND`]
/// samples above its nearest rank, if `n` supports any.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&pct| n > 0 && n - rank(n, pct) >= MIN_SAMPLES_BEYOND)
}

/// Median, supported tail percentile and sample count of one timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)` chosen by [`supported_tail`].
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(values: &[f64]) -> Summary {
    let tail = supported_tail(values.len()).map(|pct| (pct, percentile(values, pct)));
    Summary { n: values.len(), p50: median(values), tail }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p50={:.4}", self.p50)?;
        if let Some((pct, value)) = self.tail {
            write!(f, " p{pct}={value:.4}")?;
        }
        write!(f, " (n={})", self.n)
    }
}

/// `(max − min) / median`: the run-to-run spread `--repeat` gates on.
pub fn spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    match (v.first(), v.last()) {
        (Some(lo), Some(hi)) if median(&v) != 0.0 => (hi - lo) / median(&v).abs(),
        _ => 0.0,
    }
}

/// `(Q3 − Q1) / median` with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) — the spread the
/// driver computes. `None` below two samples.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 || median(&v) == 0.0 {
        return None;
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median(&v).abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p75 of 40 samples sits at rank 30: exactly ten beyond.
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!(s, Summary { n: 200, p50: 100.5, tail: Some((95.0, 190.0)) });
        assert_eq!(s.to_string(), "p50=100.5000 p95=190.0000 (n=200)");
        assert_eq!(summarize(&[1.0, 2.0, 3.0]).to_string(), "p50=2.0000 (n=3)");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&values, 50.0), 3.0);
        assert_eq!(percentile(&values, 100.0), 5.0);
        assert_eq!(percentile(&values, 1.0), 1.0);
    }

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&values).unwrap();
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert!((spread(&values) - 9.0 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[1.0]), None);
    }
}
