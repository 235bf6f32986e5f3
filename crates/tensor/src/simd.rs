//! Portable 8-lane `f32` vector (`wide`-style lane struct).
//!
//! [`F32x8`] is the single vector type behind every hand-vectorized inner
//! loop in [`crate::kernels`]: a `[f32; 8]` with element-wise operations, in
//! safe Rust with no `core::arch` intrinsic. LLVM turns those loops into
//! whatever vector instructions the *enclosing function* may use — 128-bit
//! SSE2 pairs in an ordinary x86-64 function, one 256-bit operation inside a
//! `#[target_feature(enable = "avx")]` function. The lane kernels exploit
//! exactly that: one source body, compiled twice, picked at run time
//! ([`crate::kernels`], DESIGN.md §15.1).
//!
//! # Determinism contract
//!
//! Whatever the instruction width, the **bits are the same**, which is what
//! lets the workspace's pinned bitwise contracts (two-run determinism,
//! serial-vs-parallel equality, the serving stage-0 dense-equality pin, the
//! absolute hashes in `tests/determinism.rs`) hold on every host:
//!
//! * Lane-wise `add`/`mul` are single IEEE-754 operations per element —
//!   `addps`/`vaddps`/`mulps`/`vmulps` all round exactly like scalar
//!   `+`/`*` — and Rust never contracts a separate `*` and `+` into an FMA
//!   (nor does any instantiation enable the `fma` target feature).
//! * [`F32x8::hsum`] always reduces through the same fixed-shape tree
//!   (`((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`), so the horizontal reduction
//!   order is part of the source, not of the code generator.
//!
//! This module contains no `unsafe`; the only `unsafe` in the workspace's
//! vector code is the five run-time-dispatch call sites under
//! `crates/tensor/src/kernels/`.

/// Number of `f32` lanes in [`F32x8`].
pub const LANES: usize = 8;

/// Eight `f32` lanes, operated on element-wise.
///
/// See the module docs for how one lane struct serves both instruction
/// widths and for the bitwise determinism contract.
#[derive(Clone, Copy, Debug)]
pub struct F32x8([f32; LANES]);

impl F32x8 {
    /// Broadcasts `v` into every lane.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        Self([v; LANES])
    }

    /// Loads the first [`LANES`] elements of `s`.
    ///
    /// # Panics
    /// Panics if `s.len() < LANES`.
    #[inline(always)]
    pub fn load(s: &[f32]) -> Self {
        assert!(s.len() >= LANES, "F32x8::load needs {LANES} elements, got {}", s.len());
        let mut lanes = [0.0f32; LANES];
        lanes.copy_from_slice(&s[..LANES]);
        Self(lanes)
    }

    /// Stores the lanes into the first [`LANES`] elements of `out`.
    ///
    /// # Panics
    /// Panics if `out.len() < LANES`.
    #[inline(always)]
    pub fn store(self, out: &mut [f32]) {
        assert!(out.len() >= LANES, "F32x8::store needs {LANES} elements, got {}", out.len());
        out[..LANES].copy_from_slice(&self.0);
    }

    /// Extracts the lanes as an array, lane 0 first.
    #[inline(always)]
    pub fn to_array(self) -> [f32; LANES] {
        self.0
    }

    /// Horizontal sum through a *fixed-shape* reduction tree:
    /// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
    ///
    /// The reduction is this exact scalar expression at every instruction
    /// width, so the reduced value is bitwise identical in both
    /// instantiations of a kernel — the determinism argument the pinned
    /// bitwise contracts rest on (DESIGN.md §15).
    #[inline(always)]
    pub fn hsum(self) -> f32 {
        let a = self.to_array();
        ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
    }
}

/// Lane-wise IEEE-754 addition: one scalar `+` per lane.
impl std::ops::Add for F32x8 {
    type Output = Self;

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0.iter()) {
            *o += r;
        }
        Self(out)
    }
}

/// Lane-wise IEEE-754 multiplication: one scalar `*` per lane (Rust never
/// contracts a separate `*` and `+` into an FMA).
impl std::ops::Mul for F32x8 {
    type Output = Self;

    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0.iter()) {
            *o *= r;
        }
        Self(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_load_store_round_trip() {
        let src = [1.0, -2.5, 3.25, 0.0, -0.0, 1e-30, 1e30, 7.5];
        let v = F32x8::load(&src);
        assert_eq!(v.to_array(), src);
        let mut out = [0.0f32; LANES];
        v.store(&mut out);
        assert_eq!(out, src);
        assert_eq!(F32x8::splat(4.5).to_array(), [4.5; LANES]);
    }

    #[test]
    fn add_and_mul_are_lane_wise_ieee() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let b = [0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 3.5, -3.5];
        let sum = (F32x8::load(&a) + F32x8::load(&b)).to_array();
        let prod = (F32x8::load(&a) * F32x8::load(&b)).to_array();
        for i in 0..LANES {
            assert_eq!(sum[i].to_bits(), (a[i] + b[i]).to_bits(), "lane {i}");
            assert_eq!(prod[i].to_bits(), (a[i] * b[i]).to_bits(), "lane {i}");
        }
    }

    #[test]
    fn hsum_uses_the_fixed_reduction_tree() {
        // Values chosen so a different association would round differently.
        let a = [1e8, 1.0, -1e8, 1.0, 1e-8, 1e8, -1e8, 1e-8];
        let v = F32x8::load(&a);
        let expect = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
        assert_eq!(v.hsum().to_bits(), expect.to_bits());
    }

    #[test]
    #[should_panic(expected = "F32x8::load needs 8 elements")]
    fn short_load_panics() {
        F32x8::load(&[1.0; 7]);
    }
}
