//! Ready-made [`BatchSource`] adapters for the bundled datasets.

use adr_core::trainer::BatchSource;
use adr_data::synth::SynthDataset;
use adr_tensor::rng::AdrRng;
use adr_tensor::Tensor4;

/// A [`BatchSource`] over a [`SynthDataset`]: the head of the dataset is the
/// cyclic training stream, the tail (`probe_size` images) is the held-out
/// probe batch used for accuracy checks and the adaptive controller's
/// Amendment tests.
pub struct DatasetSource {
    dataset: SynthDataset,
    batch_size: usize,
    train_len: usize,
    probe: (Tensor4, Vec<usize>),
}

impl DatasetSource {
    /// Splits off the last `probe_size` images as the probe batch.
    ///
    /// # Panics
    /// Panics unless at least one full training batch remains after the
    /// probe is removed.
    pub fn new(dataset: SynthDataset, batch_size: usize, probe_size: usize) -> Self {
        assert!(probe_size >= 1, "probe must be non-empty");
        let train_len = dataset.len().checked_sub(probe_size).expect("dataset smaller than probe");
        assert!(train_len >= batch_size, "not enough images for one training batch");
        let probe_indices: Vec<usize> = (train_len..dataset.len()).collect();
        let probe = dataset.gather(&probe_indices);
        Self { dataset, batch_size, train_len, probe }
    }

    /// The training batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Images available to the training stream.
    pub fn train_len(&self) -> usize {
        self.train_len
    }

    /// Borrows the wrapped dataset.
    pub fn dataset(&self) -> &SynthDataset {
        &self.dataset
    }
}

impl BatchSource for DatasetSource {
    fn num_batches(&self) -> usize {
        (self.train_len / self.batch_size).max(1)
    }

    fn batch(&mut self, index: usize) -> (Tensor4, Vec<usize>) {
        let start = (index * self.batch_size) % self.train_len;
        let indices: Vec<usize> =
            (0..self.batch_size).map(|i| (start + i) % self.train_len).collect();
        self.dataset.gather(&indices)
    }

    fn probe(&mut self) -> (Tensor4, Vec<usize>) {
        self.probe.clone()
    }

    // `batch(index)` is a pure function of `index`, so the default empty
    // cursor from `BatchSource` is already fully resumable.
}

#[cfg(test)]
mod tests {
    use super::*;
    use adr_tensor::rng::AdrRng;

    #[test]
    fn probe_is_disjoint_tail() {
        let mut rng = AdrRng::seeded(1);
        let dataset = SynthDataset::cifar_like(40, 4, &mut rng);
        let mut source = DatasetSource::new(dataset, 8, 8);
        assert_eq!(source.train_len(), 32);
        assert_eq!(source.num_batches(), 4);
        let (probe, labels) = source.probe();
        assert_eq!(probe.batch(), 8);
        assert_eq!(labels.len(), 8);
    }

    #[test]
    #[should_panic(expected = "not enough images")]
    fn oversized_batch_panics() {
        let mut rng = AdrRng::seeded(2);
        let dataset = SynthDataset::cifar_like(10, 2, &mut rng);
        DatasetSource::new(dataset, 16, 4);
    }
}

/// A [`BatchSource`] that reshuffles the training stream every epoch (the
/// paper shuffles inputs randomly before feeding the network, §VI), while
/// still holding out a fixed probe batch.
///
/// Unlike [`DatasetSource`], the `index` passed to [`BatchSource::batch`]
/// is ignored — batches come from an epoch-shuffled stream, which is the
/// realistic training setting. Runs remain deterministic per seed.
pub struct ShuffledSource {
    dataset: SynthDataset,
    batch_size: usize,
    train_len: usize,
    probe: (Tensor4, Vec<usize>),
    order: Vec<usize>,
    cursor: usize,
    rng: AdrRng,
}

impl ShuffledSource {
    /// Splits off the last `probe_size` images as the probe batch and
    /// shuffles the rest with `rng`.
    ///
    /// # Panics
    /// Panics unless at least one full training batch remains.
    pub fn new(
        dataset: SynthDataset,
        batch_size: usize,
        probe_size: usize,
        mut rng: AdrRng,
    ) -> Self {
        assert!(probe_size >= 1, "probe must be non-empty");
        let train_len = dataset.len().checked_sub(probe_size).expect("dataset smaller than probe");
        assert!(train_len >= batch_size, "not enough images for one training batch");
        let probe_indices: Vec<usize> = (train_len..dataset.len()).collect();
        let probe = dataset.gather(&probe_indices);
        let mut order: Vec<usize> = (0..train_len).collect();
        rng.shuffle(&mut order);
        Self { dataset, batch_size, train_len, probe, order, cursor: 0, rng }
    }

    /// Consumes the next shuffled batch.
    fn next_batch(&mut self) -> (Tensor4, Vec<usize>) {
        if self.cursor + self.batch_size > self.train_len {
            self.rng.shuffle(&mut self.order);
            self.cursor = 0;
        }
        let idx = &self.order[self.cursor..self.cursor + self.batch_size];
        self.cursor += self.batch_size;
        self.dataset.gather(idx)
    }
}

impl BatchSource for ShuffledSource {
    fn num_batches(&self) -> usize {
        (self.train_len / self.batch_size).max(1)
    }

    fn batch(&mut self, _index: usize) -> (Tensor4, Vec<usize>) {
        self.next_batch()
    }

    fn probe(&mut self) -> (Tensor4, Vec<usize>) {
        self.probe.clone()
    }

    // Unlike `DatasetSource`, this source is stateful: the epoch
    // permutation, cursor, and RNG stream position must all survive a
    // checkpoint for a resumed run to see the same batches.
    //
    // Layout: [rng.words; 4] ++ [spare_flag, spare_bits] ++ [cursor]
    //         ++ [order_len] ++ order
    fn snapshot_state(&self) -> Vec<u64> {
        let rng = self.rng.snapshot();
        let mut out = Vec::with_capacity(8 + self.order.len());
        out.extend_from_slice(&rng.words);
        match rng.spare_gauss {
            Some(v) => {
                out.push(1);
                out.push(u64::from(v.to_bits()));
            }
            None => {
                out.push(0);
                out.push(0);
            }
        }
        out.push(self.cursor as u64);
        out.push(self.order.len() as u64);
        out.extend(self.order.iter().map(|&i| i as u64));
        out
    }

    fn restore_state(&mut self, state: &[u64]) -> Result<(), String> {
        let err = |what: &str| format!("shuffled-source cursor: {what}");
        if state.len() < 8 {
            return Err(err("fewer than 8 header words"));
        }
        let words = [state[0], state[1], state[2], state[3]];
        let spare_gauss = match state[4] {
            0 => None,
            1 => {
                let bits =
                    u32::try_from(state[5]).map_err(|_| err("spare-gauss bits exceed 32 bits"))?;
                Some(f32::from_bits(bits))
            }
            _ => return Err(err("bad spare-gauss flag")),
        };
        let cursor = usize::try_from(state[6]).map_err(|_| err("cursor overflows usize"))?;
        let order_len =
            usize::try_from(state[7]).map_err(|_| err("order length overflows usize"))?;
        if order_len != self.train_len {
            return Err(err(&format!(
                "permutation covers {order_len} images, source has {}",
                self.train_len
            )));
        }
        if state.len() != 8 + order_len {
            return Err(err("length disagrees with recorded permutation size"));
        }
        if cursor > self.train_len {
            return Err(err("cursor past the end of the epoch"));
        }
        let mut order = Vec::with_capacity(order_len);
        for &w in &state[8..] {
            let i = usize::try_from(w).map_err(|_| err("index overflows usize"))?;
            if i >= self.train_len {
                return Err(err("permutation index out of range"));
            }
            order.push(i);
        }
        self.rng = AdrRng::from_snapshot(adr_tensor::rng::RngState { words, spare_gauss });
        self.cursor = cursor;
        self.order = order;
        Ok(())
    }
}

#[cfg(test)]
mod shuffled_tests {
    use super::*;

    #[test]
    fn shuffled_source_covers_each_epoch_once() {
        let mut rng = AdrRng::seeded(1);
        let dataset = SynthDataset::cifar_like(40, 4, &mut rng);
        let mut source = ShuffledSource::new(dataset, 8, 8, AdrRng::seeded(2));
        assert_eq!(source.num_batches(), 4);
        // One epoch = 4 batches of 8 over 32 distinct training images.
        let mut seen = std::collections::HashSet::new();
        for b in 0..4 {
            let (images, _) = source.batch(b);
            for i in 0..images.batch() {
                let key: Vec<u32> =
                    images.image(i).as_slice().iter().map(|v| v.to_bits()).collect();
                assert!(seen.insert(key), "image repeated within an epoch");
            }
        }
    }

    #[test]
    fn shuffled_source_cursor_round_trips_mid_epoch() {
        let mut rng = AdrRng::seeded(5);
        let dataset = SynthDataset::cifar_like(30, 2, &mut rng);
        let mut a = ShuffledSource::new(dataset.clone(), 6, 6, AdrRng::seeded(11));
        // Advance past an epoch boundary so the reshuffled RNG state and a
        // mid-epoch cursor are both live.
        for i in 0..5 {
            let _ = a.batch(i);
        }
        let cursor = a.snapshot_state();
        let mut b = ShuffledSource::new(dataset, 6, 6, AdrRng::seeded(999));
        b.restore_state(&cursor).unwrap();
        for i in 0..6 {
            let (xa, ya) = a.batch(i);
            let (xb, yb) = b.batch(i);
            assert_eq!(ya, yb);
            assert_eq!(xa.as_slice(), xb.as_slice());
        }
    }

    #[test]
    fn shuffled_source_rejects_malformed_cursors() {
        let mut rng = AdrRng::seeded(6);
        let dataset = SynthDataset::cifar_like(30, 2, &mut rng);
        let mut s = ShuffledSource::new(dataset, 6, 6, AdrRng::seeded(12));
        let good = s.snapshot_state();
        assert!(s.restore_state(&[]).is_err(), "too short");
        assert!(s.restore_state(&good[..good.len() - 1]).is_err(), "truncated order");
        let mut wrong_len = good.clone();
        wrong_len[7] = 3;
        assert!(s.restore_state(&wrong_len).is_err(), "wrong permutation size");
        let mut oob = good.clone();
        let last = oob.len() - 1;
        oob[last] = 10_000;
        assert!(s.restore_state(&oob).is_err(), "out-of-range index");
        assert!(s.restore_state(&good).is_ok());
    }

    #[test]
    fn shuffled_source_is_deterministic_per_seed() {
        let mut rng = AdrRng::seeded(3);
        let dataset = SynthDataset::cifar_like(30, 2, &mut rng);
        let mut a = ShuffledSource::new(dataset.clone(), 6, 6, AdrRng::seeded(9));
        let mut b = ShuffledSource::new(dataset, 6, 6, AdrRng::seeded(9));
        for i in 0..8 {
            let (xa, ya) = a.batch(i);
            let (xb, yb) = b.batch(i);
            assert_eq!(ya, yb);
            assert_eq!(xa.as_slice(), xb.as_slice());
        }
    }
}
