//! Injectable time source for the serving gateway.
//!
//! Deadlines and the latency EMA need a clock, but a wall clock would make
//! serving non-reproducible — the one property every other component of
//! this workspace pins with bitwise tests. The gateway therefore reads time
//! through [`ServeClock`]: production uses the monotonic [`MonotonicClock`],
//! tests and the determinism suite use [`ManualClock`], where time only
//! moves when a fault (or the test itself) advances it.

use std::time::{Duration, Instant};

/// The gateway's time source. `now` is monotonic elapsed time since the
/// clock was created; `stall` models a slow batch (sleeps on the real
/// clock, advances the virtual one).
pub trait ServeClock {
    /// Elapsed time since the clock's origin.
    fn now(&mut self) -> Duration;
    /// Blocks (or virtually advances) for `d` — the slow-batch fault hook.
    fn stall(&mut self, d: Duration);
}

/// Real monotonic time, for production serving.
#[derive(Debug)]
pub struct MonotonicClock {
    start: Instant,
}

impl MonotonicClock {
    /// Starts the clock at "now".
    pub fn new() -> Self {
        Self { start: Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeClock for MonotonicClock {
    fn now(&mut self) -> Duration {
        self.start.elapsed()
    }

    fn stall(&mut self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Deterministic virtual time: `now` returns whatever has been advanced so
/// far, and only [`ServeClock::stall`] / [`ManualClock::advance`] move it.
#[derive(Debug, Default)]
pub struct ManualClock {
    elapsed: Duration,
}

impl ManualClock {
    /// Starts virtual time at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves virtual time forward by `d`.
    pub fn advance(&mut self, d: Duration) {
        self.elapsed += d;
    }
}

impl ServeClock for ManualClock {
    fn now(&mut self) -> Duration {
        self.elapsed
    }

    fn stall(&mut self, d: Duration) {
        self.advance(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_only_moves_when_advanced() {
        let mut c = ManualClock::new();
        assert_eq!(c.now(), Duration::ZERO);
        assert_eq!(c.now(), Duration::ZERO);
        c.stall(Duration::from_millis(30));
        c.advance(Duration::from_millis(12));
        assert_eq!(c.now(), Duration::from_millis(42));
    }

    #[test]
    fn monotonic_clock_never_runs_backwards() {
        let mut c = MonotonicClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }
}
