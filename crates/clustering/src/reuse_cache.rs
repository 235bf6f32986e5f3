//! Across-batch cluster reuse (Algorithm 1 of the paper).
//!
//! With the cluster-reuse flag `CR = 1`, signatures seen in *earlier batches*
//! keep their computed output rows. A new batch probes the cache with each
//! neuron vector's signature: hits reuse the stored output, misses compute
//! `x_i · W` and insert it. The average per-batch hit fraction is the
//! paper's reuse rate `R`, which enters the complexity formula (Eq. 6) as
//! the factor `(1 − R) · r_c`.

use crate::hasher::SignatureMap;

/// Signature→output cache with per-batch reuse-rate tracking.
#[derive(Clone, Debug)]
pub struct ReuseCache {
    map: SignatureMap<u32>,
    /// Flattened stored rows, each `out_width` long.
    outputs: Vec<f32>,
    out_width: usize,
    batch_hits: u64,
    batch_lookups: u64,
    /// Sum of the completed batches' reuse rates, added in batch order.
    rate_sum: f64,
    /// Completed batches that made at least one lookup.
    batches: u64,
}

impl ReuseCache {
    /// Creates an empty cache storing rows of `out_width` values.
    ///
    /// # Panics
    /// Panics if `out_width == 0`.
    pub fn new(out_width: usize) -> Self {
        assert!(out_width > 0, "out_width must be positive");
        Self {
            map: SignatureMap::default(),
            outputs: Vec::new(),
            out_width,
            batch_hits: 0,
            batch_lookups: 0,
            rate_sum: 0.0,
            batches: 0,
        }
    }

    /// Width of stored rows (`M` for whole-row clustering, `M` per
    /// sub-matrix otherwise).
    pub fn out_width(&self) -> usize {
        self.out_width
    }

    /// Number of distinct signatures stored (the `IDX` set of Algorithm 1).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Marks the start of a new input batch: folds the previous batch's
    /// reuse rate into [`ReuseCache::mean_reuse_rate`]. Keeps no per-batch
    /// record, so a cache that serves forever stays the same size.
    pub fn begin_batch(&mut self) {
        if self.batch_lookups > 0 {
            self.rate_sum += self.batch_hits as f64 / self.batch_lookups as f64;
            self.batches += 1;
        }
        self.batch_hits = 0;
        self.batch_lookups = 0;
    }

    /// Probes the cache (counting the lookup); returns the stored output row
    /// on a hit.
    pub fn probe(&mut self, signature: u64) -> Option<&[f32]> {
        self.probe_slot(signature).map(|slot| self.stored(slot))
    }

    /// [`ReuseCache::probe`] that returns where the hit's row is stored
    /// instead of the row, for [`ReuseCache::stored`] to read later: a slot
    /// stays valid until [`ReuseCache::clear`] or
    /// [`ReuseCache::invalidate_outputs`], whatever is inserted meanwhile.
    pub fn probe_slot(&mut self, signature: u64) -> Option<u32> {
        self.batch_lookups += 1;
        let slot = self.map.get(&signature).copied();
        self.batch_hits += u64::from(slot.is_some());
        slot
    }

    /// The output row stored in `slot`, as [`ReuseCache::probe_slot`]
    /// returned it.
    ///
    /// # Panics
    /// Panics if `slot` holds no row.
    pub fn stored(&self, slot: u32) -> &[f32] {
        &self.outputs[slot as usize * self.out_width..][..self.out_width]
    }

    /// Inserts a computed output row for a signature. Idempotent: an already
    /// cached signature keeps its first value (matching Algorithm 1, which
    /// only computes on first sight).
    ///
    /// # Panics
    /// Panics if `row.len() != out_width`.
    // Cluster ids are u32 by design; cached row counts stay far below 2^32.
    #[allow(clippy::cast_possible_truncation)]
    pub fn insert(&mut self, signature: u64, row: &[f32]) {
        assert_eq!(row.len(), self.out_width, "insert: row width mismatch");
        let next = (self.outputs.len() / self.out_width) as u32;
        let entry = self.map.entry(signature).or_insert(next);
        if *entry == next {
            self.outputs.extend_from_slice(row);
        }
    }

    /// Reuse rate of the current (unfinished) batch; `None` before any probe.
    pub fn current_batch_rate(&self) -> Option<f64> {
        (self.batch_lookups > 0).then(|| self.batch_hits as f64 / self.batch_lookups as f64)
    }

    /// Mean reuse rate over completed batches (the paper's `R`); `0.0`
    /// before the first one.
    pub fn mean_reuse_rate(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.rate_sum / self.batches as f64
        }
    }

    /// Drops all cached outputs and statistics (used when the controller
    /// turns `CR` off or retunes `{L, H}`, which invalidates signatures).
    pub fn clear(&mut self) {
        self.map.clear();
        self.outputs.clear();
        self.batch_hits = 0;
        self.batch_lookups = 0;
        self.rate_sum = 0.0;
        self.batches = 0;
    }

    /// Drops cached outputs but keeps reuse-rate statistics.
    ///
    /// During *training*, cached outputs were computed with earlier weights;
    /// as the weights drift the stored values go stale and poison gradients.
    /// The reuse layer calls this periodically (every few batches) so reuse
    /// stays bounded-staleness. Inference never needs it — weights are
    /// frozen, so Algorithm 1's unbounded reuse is exact there.
    pub fn invalidate_outputs(&mut self) {
        self.map.clear();
        self.outputs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = ReuseCache::new(3);
        assert!(c.probe(42).is_none());
        c.insert(42, &[1.0, 2.0, 3.0]);
        assert_eq!(c.probe(42).unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn a_slot_keeps_its_row_across_later_inserts() {
        let mut c = ReuseCache::new(2);
        c.insert(5, &[1.0, 2.0]);
        c.begin_batch();
        let slot = c.probe_slot(5).unwrap();
        assert_eq!(c.probe_slot(6), None);
        c.insert(6, &[3.0, 4.0]);
        assert_eq!(c.stored(slot), &[1.0, 2.0]);
        assert_eq!(c.current_batch_rate(), Some(0.5));
    }

    #[test]
    fn insert_is_first_write_wins() {
        let mut c = ReuseCache::new(2);
        c.insert(7, &[1.0, 1.0]);
        c.insert(7, &[9.0, 9.0]);
        assert_eq!(c.probe(7).unwrap(), &[1.0, 1.0]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn batch_rates_are_recorded() {
        let mut c = ReuseCache::new(1);
        // Batch 1: two misses, both inserted.
        c.begin_batch();
        for sig in [1u64, 2] {
            if c.probe(sig).is_none() {
                c.insert(sig, &[0.0]);
            }
        }
        assert_eq!(c.current_batch_rate(), Some(0.0));
        // Batch 2: both hit.
        c.begin_batch();
        for sig in [1u64, 2] {
            assert!(c.probe(sig).is_some());
        }
        assert_eq!(c.current_batch_rate(), Some(1.0));
        c.begin_batch();
        assert_eq!(c.current_batch_rate(), None);
        assert!((c.mean_reuse_rate() - 0.5).abs() < 1e-12);
    }

    /// The running sum is the per-batch rates summed in batch order, so the
    /// mean has the bits of averaging a kept list of them.
    #[test]
    fn mean_reuse_rate_is_the_mean_of_the_batch_rates_bitwise() {
        let mut c = ReuseCache::new(1);
        let mut rates = Vec::new();
        for batch in 0..40u64 {
            c.begin_batch();
            for item in 0..(3 + batch % 7) {
                let sig = (item * 5 + batch * 3) % 23;
                if c.probe(sig).is_none() {
                    c.insert(sig, &[0.0]);
                }
            }
            rates.push(c.current_batch_rate().unwrap());
            // A batch without lookups leaves no rate behind.
            c.begin_batch();
        }
        c.begin_batch();
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        assert!(rates.iter().any(|&r| r > 0.0 && r < 1.0), "{rates:?}");
        assert_eq!(c.mean_reuse_rate().to_bits(), mean.to_bits());
    }

    #[test]
    fn reuse_rate_grows_over_repeating_stream() {
        // Mirrors the paper's observation that R approaches ~0.98 after a
        // few batches when batches share content (§VI-B1).
        let mut c = ReuseCache::new(1);
        let mut rates = Vec::new();
        for batch in 0..10 {
            c.begin_batch();
            for item in 0..100u64 {
                let sig = item % 50; // heavy cross-batch repetition
                if c.probe(sig).is_none() {
                    c.insert(sig, &[batch as f32]);
                }
            }
            rates.push(c.current_batch_rate().unwrap());
        }
        assert!(rates[0] < 0.6, "first batch mostly misses: {}", rates[0]);
        assert_eq!(rates[9], 1.0, "later batches fully reuse");
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = ReuseCache::new(1);
        c.insert(5, &[1.0]);
        c.begin_batch();
        c.probe(5);
        c.begin_batch();
        assert!(c.mean_reuse_rate() > 0.0);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.mean_reuse_rate(), 0.0);
        assert_eq!(c.current_batch_rate(), None);
        assert!(c.probe(5).is_none());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_insert_panics() {
        ReuseCache::new(2).insert(1, &[1.0]);
    }
}
