//! Deterministic random sources.
//!
//! Every stochastic component in the workspace (weight init, dataset
//! synthesis, LSH hyperplanes) draws from a seeded
//! [`AdrRng`], so whole experiments replay bit-for-bit. The generator is a
//! self-contained xoshiro256** seeded through SplitMix64 (the reference
//! seeding procedure), so the workspace carries no external RNG dependency;
//! Gaussian samples are produced with a Box–Muller transform on top of the
//! uniform source.

/// Workspace-wide deterministic RNG: xoshiro256** with SplitMix64 seeding.
#[derive(Clone, Debug)]
pub struct AdrRng {
    state: [u64; 4],
    /// Cached second Box–Muller sample.
    spare_gauss: Option<f32>,
}

impl AdrRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        // Expand the seed into four non-degenerate words with SplitMix64,
        // as recommended by the xoshiro authors.
        let mut s = seed;
        let mut state = [0u64; 4];
        for word in &mut state {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *word = splitmix64(s);
        }
        Self { state, spare_gauss: None }
    }

    /// Derives an independent child RNG.
    ///
    /// The child's stream is a pure function of `(parent seed stream,
    /// stream_id)`, so components can be given private streams without
    /// coupling their consumption order.
    pub fn split(&mut self, stream_id: u64) -> Self {
        let base: u64 = self.next_u64();
        Self::seeded(splitmix64(base ^ stream_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    /// Uniform in `[0, 1)`, with the full 24 bits of mantissa randomness.
    #[inline]
    pub fn uniform(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn uniform_in(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    // The >> 64 guarantees the product fits back into the usize range.
    #[allow(clippy::cast_possible_truncation)]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        // Multiply-shift range reduction (Lemire); the bias is < n / 2^64.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// A raw 64-bit draw (xoshiro256** output function).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        out
    }

    /// Standard normal sample via Box–Muller.
    // Box–Muller runs in f64 for precision; rounding back to f32 is the point.
    #[allow(clippy::cast_possible_truncation)]
    pub fn gauss(&mut self) -> f32 {
        if let Some(z) = self.spare_gauss.take() {
            return z;
        }
        // Draw u1 in (0, 1] to keep ln() finite.
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * (u1 as f64).ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2 as f64;
        self.spare_gauss = Some((r * theta.sin()) as f32);
        (r * theta.cos()) as f32
    }

    /// Normal sample with the given mean and standard deviation.
    #[inline]
    pub fn gauss_with(&mut self, mean: f32, std_dev: f32) -> f32 {
        mean + std_dev * self.gauss()
    }

    /// Fills `out` with standard normal samples.
    pub fn fill_gauss(&mut self, out: &mut [f32]) {
        for v in out {
            *v = self.gauss();
        }
    }
}

/// SplitMix64 finaliser, used to decorrelate derived seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = AdrRng::seeded(42);
        let mut b = AdrRng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = AdrRng::seeded(1);
        let mut b = AdrRng::seeded(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_of_consumption() {
        let mut parent1 = AdrRng::seeded(7);
        let mut child1 = parent1.split(3);
        let mut parent2 = AdrRng::seeded(7);
        let mut child2 = parent2.split(3);
        assert_eq!(child1.next_u64(), child2.next_u64());
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut r = AdrRng::seeded(9);
        for _ in 0..1000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            let v = r.uniform_in(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn gauss_moments_are_plausible() {
        let mut r = AdrRng::seeded(123);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| r.gauss()).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {}", mean);
        assert!((var - 1.0).abs() < 0.08, "var {}", var);
    }

    #[test]
    fn below_covers_full_range() {
        let mut r = AdrRng::seeded(11);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[r.below(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
