//! Hand-vectorized inner kernels for the hot paths, and the run-time choice
//! of their instruction width.
//!
//! The three dense products ([`crate::matrix`], [`crate::par`]), the LSH
//! sign-dot projection (`adr-reuse`'s packed hasher), the reuse forward
//! pass's reconstruction and the member sums of a clustering bottom out in
//! six slice-level **lane kernels**, built on [`crate::simd::F32x8`]:
//!
//! * [`gemm_rows`] — `c += a · b`: each row's non-zeros, compacted without
//!   a branch, multiplied into register-resident tiles of the `c` row.
//! * [`gemm_ta_rows`] — `c += aᵀ · b`, the weight-gradient shape: the same
//!   loop over the transposed view, each `a` column's non-zeros compacted
//!   ([`gemm`]).
//! * [`gemm_tb()`] — the register-tiled `a · bᵀ` kernel behind the backward
//!   pass's input delta: [`dot`]'s lane sums split across output columns
//!   for tall, wide products, a tile of [`dot`]s sharing their loads for
//!   the rest.
//! * [`project_signs`] — the register-blocked sign-projection micro-kernel
//!   behind LSH hashing ([`project`]).
//! * [`sum_rows()`] — `dst = first + Σ rest` with each tile of the output
//!   row held in registers across all sources, and [`add_rows`], the same
//!   body with `dst` as its own `first` ([`sum_rows`](mod@sum_rows)).
//! * [`sum_clusters`] — `dst[id] += src` over a list of `(src, id)` pairs,
//!   the running cluster row held in registers until the id changes: the
//!   reuse forward's centroid sums and the backward's `δy_{c,s}` (Eq. 8).
//!
//! # One body, two or three instantiations
//!
//! Each lane kernel is **one** `#[inline(always)]` body in safe Rust
//! (`*_portable`), compiled at least twice: once as is — 128-bit SSE2 pairs
//! on x86-64, NEON on aarch64 — and once inlined into a
//! `#[target_feature(enable = "avx")]` clone (`*_avx`), where LLVM
//! vectorises the same `[f32; 8]` source at 256 bits. The three dense
//! products have a third, `#[target_feature(enable = "avx512f")]` clone
//! (`*_avx512`, 512 bits). The public entry point asks `avx512_detected` /
//! `avx_detected` which one this process may run and runs the widest. That
//! question is answered by the platform alone (`is_x86_feature_detected!`,
//! cached by `std`): no cargo feature, environment variable, config field
//! or test hook takes part, and [`lanes`] reports the answer. Other
//! targets, and Miri, compile the dispatch out or take the portable branch.
//!
//! The instantiations are **bitwise identical**: same loop order, one IEEE
//! multiply then one IEEE add per element ([`gemm`]), the fixed
//! [`crate::simd::F32x8::hsum`] tree ([`dot`]). `avx512f` implies LLVM's
//! `fma` feature, so a fused multiply–add is encodable in the 512-bit
//! clones, but nothing asks for one: Rust never contracts a separate `*` and
//! `+`, `clippy.toml` disallows `mul_add`, and CI fails if the release
//! binary holds a `vfmadd`. The one thing allowed to differ is the *payload*
//! of a NaN (which operand's payload survives a NaN × NaN depends on the
//! encoding's operand order); NaN-ness never does. The differential tests
//! at the bottom of this file run every instantiation the host supports in
//! one binary.
//!
//! [`dot`] and every helper of a kernel body are `#[inline(always)]` for
//! this reason: an out-of-line copy is compiled without `avx`, and a clone
//! that *called* it would run 128-bit code behind a wider name.
//!
//! This module is the only library code where `unsafe` compiles: the
//! workspace denies `unsafe_code` and `lib.rs` allows it on `kernels` alone.
//! The ten dispatch call sites here (and the test helpers that run each
//! clone on its own) are the only `unsafe` in the workspace's vector code;
//! [`pool`] hosts the persistent worker pool behind the fan-out sites.

pub mod gemm;
pub mod gemm_tb;
pub mod pool;
pub mod project;
pub mod sum_rows;

pub use gemm::{gemm_rows, gemm_ta_rows};
pub use gemm_tb::gemm_tb;
pub use project::project_signs;
pub use sum_rows::{add_rows, sum_clusters, sum_rows};

use crate::simd::{F32x8, LANES};

/// True when this process runs the 256-bit instantiation of the lane
/// kernels: `std` observes an x86-64 CPU and OS that support `avx`. The
/// first call executes `cpuid` and caches the answer; every later one is a
/// relaxed load. Other targets always say `false`, and so does Miri, which
/// reports only the features enabled at compile time.
#[inline]
fn avx_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when this process may run the 512-bit instantiation of
/// [`gemm_rows`], [`gemm_ta_rows`] and [`gemm_tb()`]: `std` observes an
/// x86-64 CPU and OS that support `avx512f` (which implies `avx`). Cached
/// like [`avx_detected`]; other targets and Miri say `false`.
#[inline]
fn avx512_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The widest instantiation of the lane kernels this process runs:
/// `"avx512"` (sixteen lanes per instruction in the three dense products,
/// eight everywhere else), `"avx"` (eight lanes) or `"portable"` (whatever
/// the target's baseline gives the same source). The dispatcher's own
/// answer — print it beside [`crate::par::hardware_threads`] wherever a wall
/// time is reported, and nowhere that is compared across hosts: the bits do
/// not depend on it.
pub fn lanes() -> &'static str {
    if avx512_detected() {
        "avx512"
    } else if avx_detected() {
        "avx"
    } else {
        "portable"
    }
}

/// Dot product of `a` and `b` over `min(a.len(), b.len())` elements.
///
/// Accumulates in an 8-lane vector (`acc += a8 * b8`, one IEEE multiply and
/// one IEEE add per lane — never an FMA), reduces through the fixed-order
/// [`F32x8::hsum`] tree, then folds the tail in order. The reduction shape
/// never varies, so the value is bitwise reproducible across runs, thread
/// counts, and instruction widths. `#[inline(always)]` (module docs).
#[inline(always)]
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

    #[expect(
        clippy::disallowed_methods,
        reason = "test-data: a smooth operand; its own rounding is never compared"
    )]
    fn ramp(n: usize, scale: f32, shift: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32).mul_add(scale, shift).sin()).collect()
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

    // Differential tests: the portable body of each lane kernel against its
    // dispatched entry point, in one binary. The entry runs the widest clone
    // the CPU has: the 512-bit one for the three dense products on an
    // AVX-512 host, the 256-bit one for every other kernel on an AVX host.
    // So these fail if the instantiations ever diverge; on a host without
    // AVX they compare the portable body with itself (CI's `test-portable`
    // job runs the whole suite on such a host).

    #[test]
    fn the_dispatcher_follows_the_cpu_and_nothing_else() {
        #[cfg(target_arch = "x86_64")]
        let expect = if std::is_x86_feature_detected!("avx512f") {
            "avx512"
        } else if std::is_x86_feature_detected!("avx") {
            "avx"
        } else {
            "portable"
        };
        #[cfg(not(target_arch = "x86_64"))]
        let expect = "portable";
        assert_eq!(lanes(), expect);
    }

    /// A smooth wave with every seventh element replaced, in turn, by the
    /// values two encodings of one loop could plausibly treat differently:
    /// signed zeros (the GEMM zero skip), denormals, magnitudes whose
    /// products overflow — and, when `non_finite`, infinities and NaN.
    pub(crate) fn seeded(n: usize, scale: f32, shift: f32, non_finite: bool) -> Vec<f32> {
        const SPECIALS: [f32; 9] =
            [0.0, -0.0, 1e-40, -1e-40, 1e30, -1e30, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let cycle = if non_finite { SPECIALS.len() } else { 6 };
        let mut v = ramp(n, scale, shift);
        for (i, slot) in v.iter_mut().skip(3).step_by(7).enumerate() {
            *slot = SPECIALS[i % cycle];
        }
        v
    }

    /// Bit equality, or NaN on both sides: a NaN's payload is the one thing
    /// the contract leaves open (module docs).
    pub(crate) fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i}: got {g:e}, want {w:e}"
            );
        }
    }

    /// Inner dimensions on every side of `LANES` and of the GEMM's `BLOCK`.
    const K_GRID: [usize; 7] = [1, 7, 8, 9, 64, 75, 100];

    /// Output widths of the two saxpy-form GEMMs: lane tails, and both
    /// sides of the `BLOCK`-column tile.
    const GEMM_N_GRID: [usize; 10] = [0, 1, 7, 8, 9, 17, 63, 64, 65, 128];

    // The three dense products have two clones on an AVX-512 host, and the
    // entry point runs only the wider one, so each clone the host supports
    // is also run on its own.

    #[test]
    fn gemm_rows_dispatched_equals_portable() {
        for non_finite in [false, true] {
            for k in K_GRID {
                for m in [0usize, 1, 3, 9] {
                    for n in GEMM_N_GRID {
                        let a = seeded(m * k, 0.37, k as f32, non_finite);
                        let b = seeded(k * n, -0.53, m as f32, non_finite);
                        let c0 = seeded(m * n, 0.11, n as f32, false);
                        let mut got = c0.clone();
                        gemm_rows(&a, &b, &mut got, m, k, n);
                        let runs = gemm::tests::gemm_rows_each(&a, &b, &c0, m, k, n);
                        let want = &runs[0].1;
                        assert_same_bits(&got, want, &format!("dispatched, k={k} m={m} n={n}"));
                        for (lanes, got) in &runs[1..] {
                            assert_same_bits(got, want, &format!("{lanes}, k={k} m={m} n={n}"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_ta_rows_dispatched_equals_portable() {
        for non_finite in [false, true] {
            for rows in [0usize, 1, 7, 9, 64, 75, 128, 129] {
                for m in [1usize, 3, 8] {
                    for n in GEMM_N_GRID {
                        // `a` is a column band of a wider matrix.
                        let (a_stride, a_off) = (m + 3, 2);
                        let a = seeded(rows * a_stride + a_off, 0.37, m as f32, non_finite);
                        let b = seeded(rows * n, -0.53, rows as f32, non_finite);
                        let c0 = seeded(m * n, 0.11, n as f32, false);
                        let a = &a[a_off..];
                        let mut got = c0.clone();
                        gemm_ta_rows(a, a_stride, &b, &mut got, rows, m, n);
                        let runs = gemm::tests::gemm_ta_rows_each(a, a_stride, &b, &c0, rows, m, n);
                        let (want, what) = (&runs[0].1, format!("rows={rows} m={m} n={n}"));
                        assert_same_bits(&got, want, &format!("dispatched, {what}"));
                        for (lanes, got) in &runs[1..] {
                            assert_same_bits(got, want, &format!("{lanes}, {what}"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_tb_dispatched_equals_portable() {
        for non_finite in [false, true] {
            for k in K_GRID {
                for m in [0].into_iter().chain(gemm_tb::tests::M_GRID) {
                    for n in [0].into_iter().chain(gemm_tb::tests::N_GRID) {
                        // `a` is a column window of a wider matrix, `b` a row
                        // band of a larger one, `c` a window of a wider output.
                        let (a_stride, a_off) = (k + 5, 3);
                        let (b_stride, b_off) = (k + 2, 2 * (k + 2));
                        let (c_stride, c_off) = (n + 4, 1);
                        let a = seeded(m * a_stride + a_off, 0.37, k as f32, non_finite);
                        let b = seeded((n + 3) * b_stride, -0.53, m as f32, non_finite);
                        let (a, b) = (&a[a_off..], &b[b_off..]);
                        let c0 = vec![7.0f32; m * c_stride + c_off];
                        let mut got = c0.clone();
                        gemm_tb(a, a_stride, b, b_stride, &mut got[c_off..], c_stride, m, k, n);
                        let runs = gemm_tb::tests::gemm_tb_each(
                            a,
                            a_stride,
                            b,
                            b_stride,
                            &c0[c_off..],
                            c_stride,
                            m,
                            k,
                            n,
                        );
                        let (want, what) = (&runs[0].1, format!("k={k} m={m} n={n}"));
                        assert_same_bits(&got[c_off..], want, &format!("dispatched, {what}"));
                        for (lanes, got) in &runs[1..] {
                            assert_same_bits(got, want, &format!("{lanes}, {what}"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn project_signs_dispatched_equals_portable() {
        use project::tests::{pack, ragged_ranges};
        for non_finite in [false, true] {
            for h in [1usize, 8, 9, 33, 64] {
                for cols in [1usize, 3, 8, 13] {
                    for rows in [0usize, 1, 3, 4, 5, 9] {
                        let (ranges, k) = ragged_ranges(cols);
                        let (x_stride, x_off) = (k + 6, 2);
                        let x = seeded(rows * x_stride + x_off, 0.37, h as f32, non_finite);
                        let families: Vec<Vec<f32>> = ranges
                            .iter()
                            .map(|&(a, b)| seeded(h * (b - a), -0.53, a as f32, non_finite))
                            .collect();
                        let planes = pack(&ranges, &families, h, k);
                        let chunks = h.div_ceil(LANES);
                        let mut got = vec![u64::MAX; rows * ranges.len()];
                        let mut want = got.clone();
                        let x = &x[x_off..];
                        project_signs(x, x_stride, rows, &ranges, &planes, chunks, &mut got);
                        project::project_signs_portable(
                            x, x_stride, rows, &ranges, &planes, chunks, &mut want,
                        );
                        assert_eq!(got, want, "h={h} cols={cols} rows={rows}");
                    }
                }
            }
        }
    }

    #[test]
    fn sum_rows_dispatched_equals_portable() {
        for non_finite in [false, true] {
            for m in [0usize, 1, 7, 8, 9, 17, 33, 64, 65, 130] {
                for sources in [0usize, 1, 2, 5, 64] {
                    // Every source is a window of one wider matrix, as the
                    // cluster-output rows are.
                    let stride = m + 3;
                    let pool = seeded(sources * stride + 1, -0.53, m as f32, non_finite);
                    let first = seeded(m + 2, 0.37, sources as f32, non_finite);
                    let rows = (0..sources).map(|s| &pool[s * stride + 1..][..m]);
                    let mut got = vec![7.0f32; m];
                    let mut want = got.clone();
                    sum_rows(&mut got, &first, rows.clone());
                    sum_rows::sum_rows_portable(&mut want, Some(&first), rows.clone());
                    assert_same_bits(&got, &want, &format!("m={m} sources={sources}"));
                    let mut got = first[..m].to_vec();
                    let mut want = got.clone();
                    add_rows(&mut got, rows.clone());
                    sum_rows::sum_rows_portable(&mut want, None, rows);
                    assert_same_bits(&got, &want, &format!("in place, m={m} sources={sources}"));
                }
            }
        }
    }

    /// `sum_clusters` in every instantiation the host runs (the dispatched
    /// entry and the portable body) against the scalar `*d += s` loop over
    /// the same `(row, id)` list, bit for bit: rows in row order and in
    /// member order (a stable sort by id), ragged clusters, one-row
    /// clusters and one giant cluster, each source a window at a non-zero
    /// column offset of a wider row.
    #[test]
    fn sum_clusters_every_instantiation_is_the_scalar_loop() {
        let n = 40usize;
        let ragged = |r: usize| if r % 4 == 3 { r * 3 % 7 } else { r / 3 * 5 % 7 };
        let layouts: [(&str, &dyn Fn(usize) -> usize); 3] =
            [("ragged", &ragged), ("one-row clusters", &|r| r), ("one cluster", &|_| 0)];
        for non_finite in [false, true] {
            for width in [1usize, 3, 5, 8, 10, 16, 20, 32, 40, 64, 68, 72, 130] {
                let (stride, off) = (width + 5, 3);
                let src = seeded(n * stride + off, -0.53, width as f32, non_finite);
                for (layout, id_of) in layouts {
                    let ids: Vec<usize> = (0..n).map(id_of).collect();
                    let clusters = ids.iter().max().map_or(0, |&c| c + 1);
                    let mut member_order: Vec<usize> = (0..n).collect();
                    member_order.sort_by_key(|&r| ids[r]);
                    let dst0 = seeded(clusters * width, 0.11, n as f32, false);
                    for (order, rows) in [("row", (0..n).collect()), ("member", member_order)] {
                        let what = format!("{layout}, {order} order, width={width}");
                        let pairs = rows.iter().map(|&r| (&src[off + r * stride..], ids[r]));
                        let mut want = dst0.clone();
                        for (row, id) in pairs.clone() {
                            let dst = &mut want[id * width..][..width];
                            for (d, s) in dst.iter_mut().zip(row) {
                                *d += s;
                            }
                        }
                        let mut got = dst0.clone();
                        sum_clusters(&mut got, width, pairs.clone());
                        assert_same_bits(&got, &want, &format!("dispatched, {what}"));
                        let mut got = dst0.clone();
                        sum_rows::sum_clusters_portable(&mut got, width, pairs);
                        assert_same_bits(&got, &want, &format!("portable, {what}"));
                    }
                }
            }
        }
    }
}
