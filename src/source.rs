//! Ready-made [`BatchSource`] adapters for the bundled datasets.

use adr_core::trainer::BatchSource;
use adr_data::synth::SynthDataset;
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
