//! A fast integer hasher for signature-keyed maps.
//!
//! LSH signatures are already well-mixed 64-bit values produced from random
//! projections, and signature→cluster lookups sit on the hot path of every
//! reuse forward pass. SipHash's HashDoS protection buys nothing here, so we
//! use an Fx-style multiply hash (the same construction `rustc` uses).

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from FxHash (`pi` derived, odd).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An FxHash-style hasher specialised for small integer keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic path: fold 8 bytes at a time.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = (self.state.rotate_left(5) ^ v).wrapping_mul(SEED);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by LSH signatures.
pub type SignatureMap<V> = std::collections::HashMap<u64, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_hash_equal() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xDEAD_BEEF);
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn nearby_keys_spread() {
        let hashes: Vec<u64> = (0u64..1000)
            .map(|k| {
                let mut h = FxHasher::default();
                h.write_u64(k);
                h.finish()
            })
            .collect();
        let mut uniq = hashes.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 1000, "consecutive keys must not collide");
    }

    #[test]
    fn signature_map_works_end_to_end() {
        let mut m: SignatureMap<usize> = SignatureMap::default();
        for sig in [3u64, 99, 3, 42] {
            *m.entry(sig).or_insert(0) += 1;
        }
        assert_eq!(m[&3], 2);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn byte_writes_cover_partial_chunks() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 0, 0]);
        // Not required to be equal, just both defined and non-zero.
        assert_ne!(a.finish(), 0);
        assert_ne!(b.finish(), 0);
    }
}
