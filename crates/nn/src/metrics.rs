//! Running training metrics and the loss-plateau detector that drives the
//! paper's "train until the loss value stops decreasing" switching rule
//! (§V-A(c), §V-B).

/// Exponentially-smoothed running average.
#[derive(Clone, Debug)]
pub struct RunningMean {
    value: Option<f32>,
    alpha: f32,
}

impl RunningMean {
    /// Creates a running mean with smoothing factor `alpha ∈ (0, 1]`
    /// (1.0 = no smoothing, track the latest value).
    ///
    /// # Panics
    /// Panics when `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f32) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self { value: None, alpha }
    }

    /// Feeds one observation.
    pub fn update(&mut self, x: f32) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        });
    }

    /// Current smoothed value, if any observation has been fed.
    pub fn get(&self) -> Option<f32> {
        self.value
    }

    /// Clears the state.
    pub fn reset(&mut self) {
        self.value = None;
    }

    /// Overwrites the smoothed value (checkpoint resume).
    ///
    /// Non-finite values are rejected by resetting to `None` (as if no
    /// observation had been fed): a NaN seeded here would propagate through
    /// every subsequent [`RunningMean::update`] and permanently disarm any
    /// detector comparing against the mean. The checkpoint decoder
    /// (`adr_core::state`) already refuses such snapshots with a typed
    /// error; this is the defence for direct callers.
    pub fn restore(&mut self, value: Option<f32>) {
        self.value = value.filter(|v| v.is_finite());
    }
}

/// Detects when a (noisy) loss series stops decreasing.
///
/// The detector fires once the best smoothed loss seen has not improved by
/// at least `min_delta` (relative) for `patience` consecutive observations.
#[derive(Clone, Debug)]
pub struct PlateauDetector {
    smoothed: RunningMean,
    best: f32,
    stale: usize,
    seen: usize,
    patience: usize,
    warmup: usize,
    min_delta: f32,
}

impl PlateauDetector {
    /// Creates a detector.
    ///
    /// * `patience` — observations without improvement before firing.
    /// * `min_delta` — relative improvement that resets the counter
    ///   (e.g. `0.01` = the smoothed loss must drop by 1 %).
    ///
    /// # Panics
    /// Panics if `patience == 0` or `min_delta < 0`.
    pub fn new(patience: usize, min_delta: f32) -> Self {
        assert!(patience > 0, "patience must be positive");
        assert!(min_delta >= 0.0, "min_delta must be non-negative");
        Self {
            smoothed: RunningMean::new(0.3),
            best: f32::INFINITY,
            stale: 0,
            seen: 0,
            patience,
            warmup: 0,
            min_delta,
        }
    }

    /// Suppresses firing for the first `warmup` observations of each phase
    /// — early-training loss is noise, not a plateau.
    pub fn with_warmup(mut self, warmup: usize) -> Self {
        self.warmup = warmup;
        self
    }

    /// Feeds one loss observation; returns `true` when a plateau is detected.
    ///
    /// The detector keeps state after firing; call [`PlateauDetector::reset`]
    /// when switching to a new training phase.
    pub fn observe(&mut self, loss: f32) -> bool {
        self.seen += 1;
        self.smoothed.update(loss);
        // `update` guarantees a value; fall back to the raw loss anyway so
        // this path can never panic mid-epoch.
        let current = self.smoothed.get().unwrap_or(loss);
        let threshold = self.best * (1.0 - self.min_delta);
        if current < threshold {
            self.best = current;
            self.stale = 0;
        } else {
            self.stale += 1;
        }
        self.seen > self.warmup && self.stale >= self.patience
    }

    /// Clears all state (new phase), including the warmup window.
    pub fn reset(&mut self) {
        self.smoothed.reset();
        self.best = f32::INFINITY;
        self.stale = 0;
        self.seen = 0;
    }

    /// Captures the mutable detector state for checkpointing; the
    /// configuration (`patience`, `warmup`, `min_delta`) is rebuilt by
    /// code, only the observation window needs to survive a restart.
    pub fn snapshot(&self) -> PlateauState {
        PlateauState {
            smoothed: self.smoothed.get(),
            best: self.best,
            stale: self.stale,
            seen: self.seen,
        }
    }

    /// Restores a previously snapshotted observation window.
    ///
    /// Non-finite fields are sanitised rather than trusted: a NaN `best`
    /// would make `current < threshold` unconditionally false and wedge the
    /// detector. `+∞` is the legitimate "no best yet" sentinel and passes
    /// through.
    pub fn restore(&mut self, state: &PlateauState) {
        self.smoothed.restore(state.smoothed);
        let poisoned =
            state.best.is_nan() || (state.best.is_infinite() && state.best.is_sign_negative());
        self.best = if poisoned { f32::INFINITY } else { state.best };
        self.stale = state.stale;
        self.seen = state.seen;
    }
}

/// The resumable portion of a [`PlateauDetector`]: everything `observe`
/// mutates, excluding the code-supplied configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlateauState {
    /// Smoothed loss, if any observation has been fed.
    pub smoothed: Option<f32>,
    /// Best smoothed loss seen this phase.
    pub best: f32,
    /// Consecutive non-improving observations.
    pub stale: usize,
    /// Observations fed this phase.
    pub seen: usize,
}

/// Accumulates per-batch loss/accuracy into epoch summaries.
#[derive(Clone, Debug, Default)]
pub struct EpochMeter {
    loss_sum: f64,
    hits: usize,
    examples: usize,
    batches: usize,
}

impl EpochMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one batch.
    ///
    /// # Shape
    /// `loss` is the mean loss over the batch; `correct ≤ batch_size` are
    /// example counts, not per-example slices.
    pub fn record(&mut self, loss: f32, correct: usize, batch_size: usize) {
        self.loss_sum += loss as f64;
        self.hits += correct;
        self.examples += batch_size;
        self.batches += 1;
    }

    /// Mean loss over recorded batches.
    pub fn mean_loss(&self) -> f32 {
        if self.batches == 0 {
            0.0
        } else {
            // The f64 accumulator exists for summation precision; rounding
            // the mean back to f32 is the intended output width.
            #[allow(clippy::cast_possible_truncation)]
            let mean = (self.loss_sum / self.batches as f64) as f32;
            mean
        }
    }

    /// Accuracy over recorded examples.
    pub fn accuracy(&self) -> f32 {
        if self.examples == 0 {
            0.0
        } else {
            self.hits as f32 / self.examples as f32
        }
    }

    /// Examples seen.
    pub fn examples(&self) -> usize {
        self.examples
    }

    /// Clears the meter.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Captures the accumulator state for checkpointing.
    pub fn snapshot(&self) -> EpochMeterState {
        EpochMeterState {
            loss_sum: self.loss_sum,
            hits: self.hits,
            examples: self.examples,
            batches: self.batches,
        }
    }

    /// Restores a previously snapshotted accumulator.
    pub fn restore(&mut self, state: &EpochMeterState) {
        self.loss_sum = state.loss_sum;
        self.hits = state.hits;
        self.examples = state.examples;
        self.batches = state.batches;
    }
}

/// The resumable accumulator state of an [`EpochMeter`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EpochMeterState {
    /// Sum of per-batch mean losses (f64 for summation precision).
    pub loss_sum: f64,
    /// Correctly classified examples.
    pub hits: usize,
    /// Examples seen.
    pub examples: usize,
    /// Batches recorded.
    pub batches: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_mean_tracks_constant_series() {
        let mut m = RunningMean::new(0.5);
        for _ in 0..10 {
            m.update(2.0);
        }
        assert!((m.get().unwrap() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn plateau_fires_on_flat_series() {
        let mut d = PlateauDetector::new(3, 0.01);
        let mut fired_at = None;
        for i in 0..10 {
            if d.observe(1.0) {
                fired_at = Some(i);
                break;
            }
        }
        // First observation establishes best; then needs `patience` stale.
        assert_eq!(fired_at, Some(3));
    }

    #[test]
    fn plateau_does_not_fire_on_decreasing_series() {
        let mut d = PlateauDetector::new(3, 0.01);
        for i in 0..50 {
            let loss = 10.0 * (0.9f32).powi(i);
            assert!(!d.observe(loss), "fired at iteration {i}");
        }
    }

    #[test]
    fn plateau_survives_noise_within_delta() {
        let mut d = PlateauDetector::new(5, 0.001);
        // Strong decrease with mild noise should not fire early.
        let mut fired = false;
        for i in 0..40 {
            let noise = if i % 2 == 0 { 0.02 } else { -0.02 };
            let loss = 5.0 - 0.1 * i as f32 + noise;
            fired = d.observe(loss);
            if fired {
                break;
            }
        }
        assert!(!fired);
    }

    #[test]
    fn reset_starts_a_new_phase() {
        let mut d = PlateauDetector::new(2, 0.01);
        for _ in 0..5 {
            d.observe(1.0);
        }
        d.reset();
        assert_eq!(d.snapshot().stale, 0);
        assert!(!d.observe(0.5));
    }

    #[test]
    fn warmup_suppresses_early_firing() {
        let mut d = PlateauDetector::new(2, 0.01).with_warmup(10);
        for i in 0..10 {
            assert!(!d.observe(1.0), "fired during warmup at {i}");
        }
        assert!(d.observe(1.0), "should fire right after warmup on a flat series");
    }

    #[test]
    fn plateau_snapshot_restore_resumes_identically() {
        let mut a = PlateauDetector::new(3, 0.01);
        for i in 0..7 {
            a.observe(2.0 - 0.05 * i as f32);
        }
        let snap = a.snapshot();
        let mut b = PlateauDetector::new(3, 0.01);
        b.restore(&snap);
        // Both detectors must now agree on every future observation.
        for _ in 0..6 {
            assert_eq!(a.observe(1.7), b.observe(1.7));
            assert_eq!(a.snapshot(), b.snapshot());
        }
    }

    #[test]
    fn epoch_meter_snapshot_round_trips() {
        let mut m = EpochMeter::new();
        m.record(1.5, 4, 8);
        m.record(0.5, 6, 8);
        let snap = m.snapshot();
        let mut back = EpochMeter::new();
        back.restore(&snap);
        assert_eq!(back.mean_loss().to_bits(), m.mean_loss().to_bits());
        assert_eq!(back.accuracy().to_bits(), m.accuracy().to_bits());
        assert_eq!(back.examples(), m.examples());
    }

    #[test]
    fn epoch_meter_aggregates() {
        let mut m = EpochMeter::new();
        m.record(1.0, 3, 10);
        m.record(3.0, 7, 10);
        assert!((m.mean_loss() - 2.0).abs() < 1e-6);
        assert!((m.accuracy() - 0.5).abs() < 1e-6);
        assert_eq!(m.examples(), 20);
    }
}
