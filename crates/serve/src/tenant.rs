//! Per-tenant admission policy: token buckets and tenant configuration.
//!
//! The gateway isolates tenants at two layers. The [`TokenBucket`] here is
//! the first: a classic rate limiter run on the gateway's [`ServeClock`],
//! so a bursting tenant is rejected with a typed
//! [`crate::error::RequestError::RateLimited`] *before* it can occupy queue
//! capacity that other tenants need. The second layer (fair-share queue
//! caps and per-tenant degradation ladders) lives in
//! [`crate::gateway::Gateway`].
//!
//! All bucket arithmetic is integer micro-tokens — no floats — so refill
//! and rejection are bitwise-deterministic under `ManualClock`.
//!
//! [`ServeClock`]: crate::clock::ServeClock

use std::time::Duration;

use crate::ladder::LadderConfig;

/// Micro-tokens per whole token. One admitted request costs one token.
const MICRO_PER_TOKEN: u64 = 1_000_000;

/// Admission policy for one tenant.
#[derive(Clone, Debug)]
pub struct TenantConfig {
    /// Sustained request rate, in whole tokens (requests) per second.
    /// Must be positive.
    pub rate_per_sec: u64,
    /// Burst capacity: the bucket holds at most this many whole tokens.
    /// Must be positive. With this and `rate_per_sec` at `u64::MAX` the
    /// bucket never empties — single-tenant serving.
    pub burst: u64,
    /// Latency budget assigned to this tenant's requests submitted
    /// without an explicit deadline.
    pub default_deadline: Duration,
    /// Degradation ladder shape for this tenant's lanes. Each
    /// `(model, tenant)` lane steps its *own* ladder, so one tenant's
    /// burst never degrades another tenant's quality.
    pub ladder: LadderConfig,
}

impl Default for TenantConfig {
    fn default() -> Self {
        Self {
            rate_per_sec: 100,
            burst: 8,
            default_deadline: Duration::from_millis(250),
            ladder: LadderConfig::default(),
        }
    }
}

/// A deterministic token bucket on an injected clock.
///
/// Refill is computed lazily from elapsed clock time at each take, in
/// integer micro-tokens: `rate_per_sec` tokens/second is exactly
/// `rate_per_sec` micro-tokens/microsecond, so no rounding error ever
/// accumulates.
#[derive(Debug)]
pub(crate) struct TokenBucket {
    rate_per_sec: u64,
    capacity_micro: u64,
    level_micro: u64,
    last_refill: Duration,
}

impl TokenBucket {
    /// A full bucket as of clock time `now`. `rate_per_sec` and `burst`
    /// must both be positive (the gateway validates before constructing).
    pub(crate) fn new(rate_per_sec: u64, burst: u64, now: Duration) -> Self {
        let capacity_micro = burst.saturating_mul(MICRO_PER_TOKEN);
        Self { rate_per_sec, capacity_micro, level_micro: capacity_micro, last_refill: now }
    }

    /// Credits tokens for the time elapsed since the last refill.
    fn refill(&mut self, now: Duration) {
        let elapsed = now.checked_sub(self.last_refill).unwrap_or_default();
        self.last_refill = now;
        let elapsed_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let added = self.rate_per_sec.saturating_mul(elapsed_us);
        self.level_micro = self.level_micro.saturating_add(added).min(self.capacity_micro);
    }

    /// Takes one whole token, or reports how long until one is available.
    ///
    /// # Errors
    /// The `Err` duration is the exact time until the bucket refills to a
    /// whole token at the configured rate — the `retry_after` surfaced on
    /// [`crate::error::RequestError::RateLimited`].
    pub(crate) fn try_take(&mut self, now: Duration) -> Result<(), Duration> {
        self.refill(now);
        if self.level_micro >= MICRO_PER_TOKEN {
            self.level_micro -= MICRO_PER_TOKEN;
            return Ok(());
        }
        let deficit = MICRO_PER_TOKEN - self.level_micro;
        // rate tokens/s == rate µtokens/µs, so µs to wait = deficit / rate.
        let retry_us = deficit.div_ceil(self.rate_per_sec.max(1));
        Err(Duration::from_micros(retry_us))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_drains_then_rate_limits_with_an_exact_hint() {
        let t0 = Duration::ZERO;
        let mut bucket = TokenBucket::new(10, 3, t0);
        for _ in 0..3 {
            assert_eq!(bucket.try_take(t0), Ok(()), "burst capacity admits");
        }
        // Empty bucket at 10 tokens/s: one whole token is 100 ms away.
        assert_eq!(bucket.try_take(t0), Err(Duration::from_millis(100)));
        // 40 ms later the deficit has shrunk by 0.4 tokens.
        assert_eq!(bucket.try_take(t0 + Duration::from_millis(40)), Err(Duration::from_millis(60)));
        // At exactly 100 ms the token is whole again.
        assert_eq!(bucket.try_take(t0 + Duration::from_millis(100)), Ok(()));
    }

    #[test]
    fn refill_saturates_at_burst_capacity() {
        let mut bucket = TokenBucket::new(1000, 2, Duration::ZERO);
        assert_eq!(bucket.try_take(Duration::from_secs(3600)), Ok(()));
        assert_eq!(bucket.try_take(Duration::from_secs(3600)), Ok(()));
        assert!(
            bucket.try_take(Duration::from_secs(3600)).is_err(),
            "an hour idle still holds only `burst` tokens"
        );
    }

    /// Single-tenant serving is a tenant with `rate_per_sec` and `burst` at
    /// `u64::MAX`: the arithmetic saturates instead of overflowing, so the
    /// bucket admits whether time stands still or runs.
    #[test]
    fn a_max_bucket_admits_on_both_clocks() {
        use crate::clock::{ManualClock, MonotonicClock, ServeClock};
        let clocks: [Box<dyn ServeClock>; 2] =
            [Box::new(ManualClock::new()), Box::new(MonotonicClock::new())];
        for mut clock in clocks {
            let mut bucket = TokenBucket::new(u64::MAX, u64::MAX, clock.now());
            for _ in 0..10_000 {
                assert_eq!(bucket.try_take(clock.now()), Ok(()));
            }
            clock.stall(Duration::from_millis(2));
            assert_eq!(bucket.try_take(clock.now()), Ok(()), "refill saturates at capacity");
        }
    }

    #[test]
    fn identical_clock_sequences_make_identical_decisions() {
        let steps: Vec<Duration> = (0..20).map(|i| Duration::from_millis(i * 7)).collect();
        let run = |mut b: TokenBucket| -> Vec<Result<(), Duration>> {
            steps.iter().map(|&t| b.try_take(t)).collect()
        };
        let a = run(TokenBucket::new(50, 2, Duration::ZERO));
        let b = run(TokenBucket::new(50, 2, Duration::ZERO));
        assert_eq!(a, b, "bucket decisions are a pure function of the clock");
    }
}
