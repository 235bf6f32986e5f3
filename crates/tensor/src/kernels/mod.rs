//! Hand-vectorized inner kernels for the reuse hot path.
//!
//! The blocked GEMM ([`crate::matrix`]), the LSH sign-dot projection
//! (`adr-reuse`'s packed hasher), and the parallel fan-out helpers all
//! bottom out in the primitives here, built on [`crate::simd::F32x8`]:
//!
//! * [`saxpy`] — `c[j] += a * b[j]`, element-wise. Bitwise identical to the
//!   scalar loop for every lane width because each element still sees exactly
//!   one IEEE multiply followed by one IEEE add, in the same order.
//! * [`dot`] — 8-lane accumulator reduced through the fixed-order
//!   [`crate::simd::F32x8::hsum`] tree plus an in-order scalar tail. The
//!   reduction shape is part of the determinism contract: it is identical on
//!   every backend and every run, so two-run and serial-vs-parallel pins hold.
//! * [`project_signs`] — the register-blocked sign-projection micro-kernel
//!   behind LSH hashing ([`project`]).
//! * [`gemm_tb()`] — the register-blocked `a · bᵀ` micro-kernel behind the
//!   backward pass's input delta: a tile of [`dot`]s sharing their loads.
//!
//! This directory (and [`crate::simd`]) are the only modules `adr-check conc`
//! approves for unsafe kernel code; [`pool`] hosts the persistent worker pool
//! that replaces per-call `std::thread::scope` spawn+join at the fan-out
//! sites.

pub mod gemm_tb;
pub mod pool;
pub mod project;

pub use gemm_tb::gemm_tb;
pub use project::project_signs;

use crate::simd::{F32x8, LANES};

/// `c[j] += a * b[j]` over `min(c.len(), b.len())` elements.
///
/// Element-wise: every `c[j]` receives exactly one IEEE-754 multiply and one
/// IEEE-754 add regardless of lane width, so the result is bitwise identical
/// to the scalar loop — vectorization here changes throughput, not bits.
#[inline]
pub fn saxpy(c: &mut [f32], a: f32, b: &[f32]) {
    let n = c.len().min(b.len());
    let (c, b) = (&mut c[..n], &b[..n]);
    let av = F32x8::splat(a);
    let mut j = 0;
    while j + LANES <= n {
        let acc = F32x8::load(&c[j..]) + av * F32x8::load(&b[j..]);
        acc.store(&mut c[j..]);
        j += LANES;
    }
    for (cj, &bj) in c[j..].iter_mut().zip(b[j..].iter()) {
        *cj += a * bj;
    }
}

/// Dot product of `a` and `b` over `min(a.len(), b.len())` elements.
///
/// Accumulates in an 8-lane vector (`acc += a8 * b8`, one IEEE multiply and
/// one IEEE add per lane — never an FMA), reduces through the fixed-order
/// [`F32x8::hsum`] tree, then folds the tail in order. The reduction shape
/// never varies, so the value is bitwise reproducible across runs, thread
/// counts, and SIMD backends.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = F32x8::splat(0.0);
    let mut j = 0;
    while j + LANES <= n {
        acc = acc + F32x8::load(&a[j..]) * F32x8::load(&b[j..]);
        j += LANES;
    }
    let mut sum = acc.hsum();
    for (&av, &bv) in a[j..].iter().zip(b[j..].iter()) {
        sum += av * bv;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, scale: f32, shift: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32).mul_add(scale, shift).sin()).collect()
    }

    #[test]
    fn saxpy_is_bitwise_scalar_at_every_edge_length() {
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 23, 64, 100] {
            let b = ramp(n, 0.37, 1.25);
            let mut c = ramp(n, -0.91, 0.5);
            let mut expect = c.clone();
            for (ej, &bj) in expect.iter_mut().zip(b.iter()) {
                *ej += -1.75 * bj;
            }
            saxpy(&mut c, -1.75, &b);
            for j in 0..n {
                assert_eq!(c[j].to_bits(), expect[j].to_bits(), "n={n} j={j}");
            }
        }
    }

    /// Scalar emulation of the exact lane schedule every dot-form kernel
    /// must follow: 8 independent accumulators over whole chunks, the fixed
    /// hsum tree, then the in-order tail.
    pub(crate) fn lane_reference_dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let mut acc = [0.0f32; LANES];
        let mut j = 0;
        while j + LANES <= n {
            for l in 0..LANES {
                acc[l] += a[j + l] * b[j + l];
            }
            j += LANES;
        }
        let mut sum =
            ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
        for k in j..n {
            sum += a[k] * b[k];
        }
        sum
    }

    #[test]
    fn dot_matches_lane_emulating_reference_bitwise() {
        for n in [0usize, 1, 7, 8, 9, 16, 23, 64, 100] {
            let a = ramp(n, 0.21, -0.4);
            let b = ramp(n, -0.53, 2.1);
            assert_eq!(dot(&a, &b).to_bits(), lane_reference_dot(&a, &b).to_bits(), "n={n}");
        }
    }

    #[test]
    fn saxpy_uses_shorter_of_the_two_slices() {
        let b = [1.0f32, 2.0, 3.0];
        let mut c = [10.0f32, 20.0, 30.0, 40.0];
        saxpy(&mut c, 2.0, &b);
        assert_eq!(c, [12.0, 24.0, 36.0, 40.0]);
    }
}
