//! Seeded open-loop arrival schedules: independent users send on a Poisson
//! process regardless of how the server is doing, so the queue can grow.

use adaptive_deep_reuse::prelude::AdrRng;

/// Due times in nanoseconds from the start of the phase, for exponential
/// inter-arrival gaps at `rate_per_s`, covering `seconds`. The same seed and
/// rate always give the same schedule.
pub fn schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<u64> {
    let mut rng = AdrRng::seeded(seed).split(0x0a55);
    let horizon_ns = seconds * 1e9;
    let mut due = Vec::new();
    let mut t_ns = 0.0f64;
    loop {
        // uniform() is in [0, 1), so the logarithm's argument stays positive.
        let gap_s = -(1.0 - f64::from(rng.uniform())).ln() / rate_per_s;
        t_ns += gap_s * 1e9;
        if t_ns >= horizon_ns {
            return due;
        }
        due.push(t_ns as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_due_times() {
        let a = schedule(42, 300.0, 2.0);
        assert_eq!(a, schedule(42, 300.0, 2.0));
        assert_ne!(a, schedule(43, 300.0, 2.0));
    }

    #[test]
    fn schedule_is_sorted_within_the_horizon_and_near_the_rate() {
        let due = schedule(7, 500.0, 4.0);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.last().is_some_and(|&t| t < 4_000_000_000));
        // 2000 expected arrivals; a Poisson count is within 5 sigma of it.
        assert!((due.len() as f64 - 2000.0).abs() < 5.0 * 2000f64.sqrt(), "{}", due.len());
    }
}
