//! Row-block parallelism for the GEMM kernels, on the persistent worker pool.
//!
//! The baseline convolution and the dense mode of the reuse layer bottom out
//! in [`matmul_par`]; every dense backward pass bottoms out in the two
//! transposed products [`gemm_ta_par`] and [`gemm_tb_par`]. Work is split
//! into contiguous row blocks of the *output* via [`run_row_blocks`]; each
//! block writes a disjoint `split_at_mut` slice, so no synchronisation is
//! needed beyond the completion barrier. Blocks are dispatched by
//! [`run_blocks`] onto the process-wide [`crate::kernels::pool`] (the first
//! block runs inline on the caller), which replaces the former per-call
//! `std::thread::scope` spawn+join with a handful of channel sends to
//! workers that are, inside a training step, still polling for them.

use crate::kernels::gemm_tb;
use crate::matrix::{gemm_rows, gemm_ta_rows, Matrix};
#[expect(clippy::disallowed_types, reason = "ordering-handoff: audited on THREAD_OVERRIDE")]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

// Serial/parallel crossover thresholds, shared by every pooled fan-out in the
// workspace (the three GEMMs and the LSH projection here and in
// `adr_reuse::hashpack`; im2col/col2im in `im2col.rs`; the sub-matrix fan-out
// and the scatter of `adr_reuse::forward`; both phases of
// `adr_reuse::backward`).
//
// Measurement rationale (x86-64, release profile, the 2-vCPU benchmark host;
// tables and method in DESIGN.md §15.7). What a fan-out pays is a dispatch on
// the persistent pool: one boxed job and one channel send per remote block,
// then a wait for the completion tokens. Both sides of that handoff poll
// before they park (`kernels::pool::recv_spinning`), so the price depends on
// how long ago the previous fan-out was: an empty two-way `run_row_blocks`
// round trip reads 1.7 µs (p90 2.4) when it follows the last one within the
// pool's 200 µs window — every fan-out inside a training step does — and
// 33–70 µs (p90 57–120) when the worker has parked and must be woken through
// the kernel, which is what *every* fan-out paid before the pool polled.
//
// The thresholds are sized for the polling price, at roughly ten round trips
// of work per lane, and checked against the parked one:
//
// * Compute-bound loops (blocked GEMM, the transposed products, hash
//   projections) retire ~7.5 multiply–adds per nanosecond per core with the
//   AVX instantiation, so `1 << 17` is ~17 µs per lane. The smallest split
//   it allows, 2 × 131072 multiply–adds, measured 33 → 21 µs two-way with
//   the worker polling and 72 µs with it parked; half that problem still
//   gains (18 → 12 µs) but is inside the noise of a busy step. A parked
//   worker therefore costs the first fan-out after an idle gap up to ~50 µs
//   over serial, once per gap — the old `1 << 20` avoided that loss by also
//   refusing every split below ~270 µs of work.
//   Since the saxpy-form GEMMs compact their non-zeros into register tiles
//   they retire 15–20 multiply–adds per nanosecond, so at this constant a
//   GEMM lane gets ~7 µs and the smallest split no longer gains reliably
//   (262144 MACs: 10.8–15.0 µs serial, 8.8–17.2 µs two-way polling); the
//   gain is steady from ~2M MACs. The constant stays: the projection it
//   also prices did not get faster, and `1 << 18` read the same
//   `train_dense` and `train_vgg_reuse` `step_ms` within noise. A per-site
//   price is the lever, not a second global constant.
// * Memory-bound loops share one estimate across passes of very different
//   weight per element: im2col moves an element in ~0.6 ns and, with its
//   serial zero-fill, breaks even two-way only near 100K elements (74K:
//   45 → 48 µs; 147K: 112 → 80 µs), while the same `N · K` also sizes the
//   reuse forward's sub-matrix fan-out (group, centroid sweep, centroid
//   GEMM) and the backward row gather, and a reuse layer as a whole spends
//   ~9 ns per element of it. `1 << 14` is set by those: a whole VGG conv4
//   layer (`N · K` = 74K) reads 657 → 428 µs forward + backward two-way,
//   conv3 (221K) 1278 → 814 µs; the few µs im2col gives back between 32K
//   and 100K are inside those figures. One step lower would pool conv5 (`N · K` = 18K),
//   where im2col loses outright (8 → 13 µs) and the layer as a whole is a
//   wash (214 → 173 and 222 → 242 µs in two sessions).
//
// End to end the step is what decides (`train_vgg_reuse` `step_ms`, the
// handoff already polling): 28.5 at the old constants, 24.0 at ÷4, 23.3 at
// ÷8 — these — and 23.1 at ÷16. On the bench-scale networks that sends every
// convolution of VGG-19 blocks 1–4 and CifarNet's fc3 backward products
// (16·576·96 ≈ 0.88M) to the pool and keeps VGG block 5's unfold and
// sub-matrix passes and CifarNet's logits (16·96·10 ≈ 15K) serial — pinned
// by `crossovers_pool_vgg_blocks_three_and_four_and_leave_block_five_serial`.

/// Minimum per-thread work, in multiply–adds, for compute-bound fan-outs
/// (GEMM row blocks, LSH signature projections).
pub const COMPUTE_FLOPS_PER_THREAD: usize = 1 << 17;

/// Minimum per-thread work, in elements moved, for memory-bound fan-outs
/// (im2col/col2im copies, cluster-output reconstruction).
pub const MEMORY_ELEMS_PER_THREAD: usize = 1 << 14;

/// Available hardware parallelism, queried once per process.
///
/// `std::thread::available_parallelism` takes a syscall on most platforms;
/// the hot paths used to re-query it on every call.
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Worker-thread override for tests; `0` means "no override" (the
/// crossover heuristics decide). Miri interprets ~1000× slower than native,
/// so no interpretable problem size can reach the `COMPUTE_FLOPS_PER_THREAD`
/// crossover — the concurrency tests force the parallel code paths on tiny
/// inputs through this switch instead.
#[expect(
    clippy::disallowed_types,
    reason = "ordering-handoff: the Release store in set_thread_override() pairs with the Acquire load in thread_override()"
)]
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces every fan-out to use exactly `n` workers (`None` restores the
/// crossover heuristics). Test-only by convention: production code never
/// calls this, so the override stays `0` and the load below is a single
/// uncontended read per fan-out decision.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Release);
}

/// The current override, if one is set.
fn thread_override() -> Option<usize> {
    match THREAD_OVERRIDE.load(Ordering::Acquire) {
        0 => None,
        n => Some(n),
    }
}

/// Worker-thread count for a compute-bound problem of `flops` multiply–adds,
/// capped by available parallelism; `1` means "stay serial".
pub fn compute_threads(flops: usize) -> usize {
    if let Some(n) = thread_override() {
        return n;
    }
    hardware_threads().min((flops / COMPUTE_FLOPS_PER_THREAD).max(1))
}

/// Worker-thread count for a memory-bound problem of `elems` elements moved,
/// capped by available parallelism; `1` means "stay serial".
pub fn memory_threads(elems: usize) -> usize {
    if let Some(n) = thread_override() {
        return n;
    }
    hardware_threads().min((elems / MEMORY_ELEMS_PER_THREAD).max(1))
}

/// Splits `out` into contiguous row blocks (each row is `unit` elements) and
/// runs `f(first_row, num_rows, block)` once per block — remote blocks on the
/// persistent worker pool, the first block inline on the calling thread.
///
/// This is the fan-out primitive behind every hot-path parallel site that
/// writes one row-major buffer (matmul, im2col/col2im, `hash_all`,
/// reconstruct); it cuts the blocks and hands them to [`run_blocks`].
/// `threads` is clamped to the row count here — **at the fan-out site** — so
/// callers can pass the raw crossover estimate and tall-skinny shapes can
/// never produce empty row ranges or excess dispatches. `threads <= 1` (or
/// fewer than two rows) runs the whole range as one inline call, which is
/// bitwise identical to the parallel decomposition because every output
/// element is written by exactly one block in the same loop order either way.
///
/// # Shape
/// `out` holds `rows × unit` elements, row-major; each callback block is a
/// whole number of rows.
///
/// # Panics
/// Panics if `out.len() != rows * unit`.
pub fn run_row_blocks<T, F>(out: &mut [T], unit: usize, rows: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    assert_eq!(out.len(), rows * unit, "row-block buffer length disagrees with rows * unit");
    let threads = threads.min(rows.max(1));
    if threads <= 1 || rows < 2 {
        if rows > 0 {
            f(0, rows, out);
        }
        return;
    }
    let rows_per = rows.div_ceil(threads);
    let mut rest = out;
    let blocks = (0..rows).step_by(rows_per).map(|row0| {
        let rows_here = rows_per.min(rows - row0);
        let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(rows_here * unit);
        rest = tail;
        (row0, rows_here, chunk)
    });
    run_blocks(blocks, |(row0, rows_here, chunk)| f(row0, rows_here, chunk));
}

/// Runs `f` once per item of `blocks` — the first on the calling thread, the
/// rest on the persistent worker pool — and returns when all have finished.
///
/// The one place work crosses to the pool. [`run_row_blocks`] feeds it the
/// row blocks of a single buffer; a caller whose blocks own pieces of
/// *several* buffers (the reuse forward pass: a run of per-sub-matrix states,
/// the matching run of CR caches, one grouping scratch) zips the
/// `chunks_mut` of each into the items itself, so no task list is built and
/// every piece is disjoint by construction. The caller also picks the block
/// count — one item is one dispatch — typically from [`compute_threads`] or
/// [`memory_threads`]. A single item runs inline without touching the pool.
pub fn run_blocks<B, F>(blocks: impl IntoIterator<Item = B>, f: F)
where
    B: Send,
    F: Fn(B) + Sync,
{
    let mut blocks = blocks.into_iter();
    let Some(first) = blocks.next() else { return };
    let f = &f;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> =
        blocks.map(|block| Box::new(move || f(block)) as Box<dyn FnOnce() + Send + '_>).collect();
    if tasks.is_empty() {
        return f(first);
    }
    crate::kernels::pool::with_pool(|pool| pool.scope_run(tasks, || f(first)));
}

/// `a · b`, parallelised over row blocks of `a`.
///
/// Falls back to the single-threaded kernel for small problems. Results are
/// bit-identical to [`Matrix::matmul`] because each output element is still
/// accumulated by exactly one block in the same loop order.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn matmul_par(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_par shape mismatch: {}x{} . {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let threads = compute_threads(m * k * n);
    if threads <= 1 || m < 2 {
        return a.matmul(b);
    }
    let mut out = Matrix::zeros(m, n);
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    run_row_blocks(out.as_mut_slice(), n, m, threads, |row0, rows_here, chunk| {
        let a_block = &a_data[row0 * k..(row0 + rows_here) * k];
        gemm_rows(a_block, b_data, chunk, rows_here, k, n);
    });
    out
}

/// `c[m × n] = a · bᵀ` over raw row-major slices, parallelised over row
/// blocks of `a` — the pooled input-delta product `δx = δy · Wᵀ` (Eq. 3)
/// behind [`Matrix::matmul_t_b`] and the dense layers' backward passes,
/// which hand it a recycled output buffer. Every element is overwritten.
///
/// Bit-identical at every thread count: each output element is one
/// [`crate::kernels::dot`]-ordered sum whichever block computes it.
///
/// # Shape
/// `a: m × k`, `b: n × k`, `c: m × n`, all row-major slices of exactly that
/// many elements.
///
/// # Panics
/// Panics when a slice length disagrees with its shape.
pub fn gemm_tb_par(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm_tb_par: left operand is not m x k");
    assert_eq!(b.len(), n * k, "gemm_tb_par: right operand is not n x k");
    let threads = compute_threads(m * k * n);
    run_row_blocks(c, n, m, threads, |row0, rows_here, chunk| {
        gemm_tb(&a[row0 * k..], k, b, k, chunk, n, rows_here, k, n);
    });
}

/// `c[m × n] = aᵀ · b` over raw row-major slices, parallelised over bands of
/// output rows (column bands of `a`) — the pooled weight-gradient product
/// `∇W = xᵀ · δy` (Eq. 2) behind [`Matrix::matmul_t_a`] and the dense
/// layers' backward passes, which hand it their long-lived gradient matrix.
/// Every element is overwritten.
///
/// Bit-identical at every thread count: each output row accumulates its
/// rank-1 updates in ascending row order of `a` whichever band owns it, and
/// exact zeros in `a` skip theirs ([`gemm_ta_rows`]).
///
/// # Shape
/// `a: rows × m`, `b: rows × n`, `c: m × n`, all row-major slices of exactly
/// that many elements.
///
/// # Panics
/// Panics when a slice length disagrees with its shape.
pub fn gemm_ta_par(a: &[f32], b: &[f32], c: &mut [f32], rows: usize, m: usize, n: usize) {
    assert_eq!(a.len(), rows * m, "gemm_ta_par: left operand is not rows x m");
    assert_eq!(b.len(), rows * n, "gemm_ta_par: right operand is not rows x n");
    let threads = compute_threads(rows * m * n);
    run_row_blocks(c, n, m, threads, |i0, band_rows, band| {
        band.fill(0.0);
        if rows > 0 {
            gemm_ta_rows(&a[i0..], m, b, band, rows, band_rows, n);
        }
    });
}

/// `a[:, cols] · bᵀ`, parallelised over row chunks of `a` — the tall-skinny
/// product used for LSH projections (`n = b.rows()` is small, so the blocked
/// saxpy kernel of [`matmul_par`] cannot vectorise its inner loop; the
/// row-dot micro-kernel [`crate::kernels::gemm_tb()`], reading the column
/// window of `a` in place through its row stride, is much faster here).
///
/// `col_range` selects the slice of each `a` row to use; `b` must have that
/// many columns.
///
/// # Shape
/// `a: m × k` restricted to columns `[start, end)`, `b: n × (end − start)`
/// → output `m × n` (i.e. `a[:, start..end] · bᵀ`).
///
/// # Panics
/// Panics when the column range is out of bounds or widths disagree.
pub fn matmul_range_t_b_par(a: &Matrix, col_range: (usize, usize), b: &Matrix) -> Matrix {
    let (start, end) = col_range;
    assert!(start <= end && end <= a.cols(), "column range out of bounds");
    let width = end - start;
    assert_eq!(b.cols(), width, "b width disagrees with column range");
    let (m, k) = (a.rows(), a.cols());
    let n = b.rows();
    let mut out = Matrix::zeros(m, n);
    let threads = compute_threads(m * width * n);
    let a_data = a.as_slice();
    run_row_blocks(out.as_mut_slice(), n, m, threads, |row0, rows_here, chunk| {
        let window = &a_data[row0 * k + start..];
        gemm_tb(window, k, b.as_slice(), width, chunk, n, rows_here, width, n);
    });
    out
}

#[cfg(test)]
#[expect(clippy::disallowed_types, reason = "test: a Relaxed visit counter")]
mod tests {
    use super::*;

    #[test]
    fn range_t_b_matches_reference() {
        let a = Matrix::from_fn(100, 10, |r, c| ((r * 7 + c * 3) % 11) as f32 - 5.0);
        let b = Matrix::from_fn(6, 4, |r, c| ((r + c * 2) % 5) as f32 - 2.0);
        let got = matmul_range_t_b_par(&a, (3, 7), &b);
        let sliced = a.column_slice(3, 7);
        let expect = sliced.matmul_t_b(&b);
        assert!(got.max_abs_diff(&expect) < 1e-4);
    }

    #[test]
    fn range_t_b_full_width() {
        let a = Matrix::from_fn(300, 16, |r, c| ((r + c) % 13) as f32 * 0.25 - 1.0);
        let b = Matrix::from_fn(8, 16, |r, c| ((r * c + 1) % 7) as f32 * 0.5 - 1.5);
        let got = matmul_range_t_b_par(&a, (0, 16), &b);
        let expect = a.matmul_t_b(&b);
        assert!(got.max_abs_diff(&expect) < 1e-4);
    }

    #[test]
    fn range_t_b_is_bitwise_the_per_element_dot() {
        // Row and chunk remainders on every side of the 8-row tile.
        let a = Matrix::from_fn(21, 19, |r, c| ((r * 7 + c * 3) % 11) as f32 * 0.37 - 1.7);
        let b = Matrix::from_fn(5, 11, |r, c| ((r * 5 + c * 2) % 7) as f32 * 0.21 - 0.6);
        let got = matmul_range_t_b_par(&a, (4, 15), &b);
        for r in 0..21 {
            for j in 0..5 {
                let expect = crate::kernels::dot(&a.row(r)[4..15], b.row(j));
                assert_eq!(got[(r, j)].to_bits(), expect.to_bits(), "r={r} j={j}");
            }
        }
    }

    #[test]
    fn transposed_products_overwrite_a_recycled_output() {
        let a = Matrix::from_fn(11, 6, |r, c| ((r * 3 + c * 5) % 9) as f32 * 0.5 - 2.0);
        let b = Matrix::from_fn(11, 4, |r, c| ((r + c * 7) % 5) as f32 * 0.25 - 0.5);
        let w = Matrix::from_fn(9, 4, |r, c| ((r * 2 + c) % 7) as f32 * 0.125 - 0.25);
        let mut ta = vec![f32::NAN; 6 * 4];
        gemm_ta_par(a.as_slice(), b.as_slice(), &mut ta, 11, 6, 4);
        assert_eq!(ta, a.matmul_t_a(&b).into_vec());
        let mut tb = vec![f32::NAN; 11 * 9];
        gemm_tb_par(b.as_slice(), w.as_slice(), &mut tb, 11, 4, 9);
        assert_eq!(tb, b.matmul_t_b(&w).into_vec());
    }

    #[test]
    fn transposed_products_handle_empty_dimensions() {
        let mut c = vec![f32::NAN; 3 * 2];
        gemm_ta_par(&[], &[], &mut c, 0, 3, 2);
        assert_eq!(c, [0.0; 6]);
        gemm_tb_par(&[], &[], &mut c, 3, 0, 2);
        assert_eq!(c, [0.0; 6]);
        gemm_tb_par(&[1.0; 6], &[], &mut [], 3, 2, 0);
    }

    /// What the crossovers decide for the two bench-scale networks wherever a
    /// second hardware thread exists (DESIGN.md §15.7 has the measurements):
    /// every convolution of VGG-19 blocks 1–4 fans out, block 5 (`N = 32`)
    /// keeps its unfold and sub-matrix passes serial, and of CifarNet's two
    /// `Dense` layers fc3 pools its backward products and the logits do not.
    #[test]
    fn crossovers_pool_vgg_blocks_three_and_four_and_leave_block_five_serial() {
        let two_way = hardware_threads().min(2);
        // (what, estimate handed to the crossover, fans out)
        let compute = [
            ("cifarnet conv1 GEMMs, batch 16", 4096 * 75 * 64, true),
            ("cifarnet conv2 GEMMs", 784 * 1600 * 64, true),
            ("cifarnet fc3 backward products", 16 * 576 * 96, true),
            ("cifarnet logits backward products", 16 * 96 * 10, false),
            ("vgg conv3_x hashing, batch 8, H = 8", 512 * 432 * 8, true),
            ("vgg conv4_x hashing", 128 * 576 * 8, true),
            ("vgg conv5_x hashing", 32 * 576 * 8, false),
        ];
        for (what, flops, fans_out) in compute {
            let want = if fans_out { two_way } else { 1 };
            assert_eq!(compute_threads(flops).min(2), want, "{what}");
        }
        // `N · K` sizes im2col, col2im, the reuse forward's sub-matrix
        // fan-out and the reuse backward's row gather; `N · M · K/L` the
        // reuse forward's scatter.
        let memory = [
            ("vgg conv3_1 N*K", 512 * 288, true),
            ("vgg conv3_x N*K", 512 * 432, true),
            ("vgg conv4_1 N*K", 128 * 432, true),
            ("vgg conv4_x N*K", 128 * 576, true),
            ("vgg conv5_x N*K", 32 * 576, false),
            ("vgg conv5_x scatter", 32 * 64 * 72, true),
        ];
        for (what, elems, fans_out) in memory {
            let want = if fans_out { two_way } else { 1 };
            assert_eq!(memory_threads(elems).min(2), want, "{what}");
        }
    }

    #[test]
    #[should_panic(expected = "column range out of bounds")]
    fn range_t_b_rejects_bad_range() {
        let a = Matrix::zeros(4, 4);
        let b = Matrix::zeros(2, 3);
        matmul_range_t_b_par(&a, (2, 7), &b);
    }

    #[test]
    fn parallel_matches_serial_small() {
        let a = Matrix::from_fn(5, 7, |r, c| (r * 7 + c) as f32 * 0.1);
        let b = Matrix::from_fn(7, 3, |r, c| (r + c) as f32 * 0.2);
        assert_eq!(matmul_par(&a, &b), a.matmul(&b));
    }

    #[test]
    fn parallel_matches_serial_large() {
        let a = Matrix::from_fn(257, 129, |r, c| (((r * 31 + c * 17) % 23) as f32 - 11.0) * 0.05);
        let b = Matrix::from_fn(129, 130, |r, c| (((r * 13 + c * 7) % 19) as f32 - 9.0) * 0.05);
        let par = matmul_par(&a, &b);
        let ser = a.matmul(&b);
        assert!(par.max_abs_diff(&ser) < 1e-4);
    }

    #[test]
    fn single_row_matrix_is_handled() {
        let a = Matrix::from_fn(1, 64, |_, c| c as f32);
        let b = Matrix::from_fn(64, 8, |r, c| (r * c) as f32 * 0.01);
        assert_eq!(matmul_par(&a, &b), a.matmul(&b));
    }

    #[test]
    fn empty_inner_dimension_gives_zero() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        let out = matmul_par(&a, &b);
        assert_eq!(out.shape(), (3, 4));
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    /// Satellite-bug pin: a thread estimate far beyond the row count must be
    /// clamped at the fan-out site instead of dispatching empty row ranges,
    /// and the result must stay bitwise equal to the serial single block.
    #[test]
    fn tall_skinny_thread_count_is_clamped_to_rows() {
        for rows in [1usize, 2, 3] {
            let unit = 5;
            let mut pooled: Vec<f32> = vec![0.0; rows * unit];
            let mut serial = pooled.clone();
            let fill = |row0: usize, rows_here: usize, chunk: &mut [f32]| {
                for r in 0..rows_here {
                    for j in 0..unit {
                        chunk[r * unit + j] = ((row0 + r) * 31 + j) as f32 * 0.125 - 1.0;
                    }
                }
            };
            run_row_blocks(&mut pooled, unit, rows, 64, fill);
            run_row_blocks(&mut serial, unit, rows, 1, fill);
            for (p, s) in pooled.iter().zip(serial.iter()) {
                assert_eq!(p.to_bits(), s.to_bits(), "rows={rows}");
            }
        }
    }

    #[test]
    fn run_row_blocks_handles_zero_rows_and_zero_unit() {
        let mut empty: Vec<f32> = Vec::new();
        run_row_blocks(&mut empty, 4, 0, 8, |_, _, _| panic!("no rows to visit"));
        let mut unit0: Vec<f32> = Vec::new();
        let visited = AtomicUsize::new(0);
        run_row_blocks(&mut unit0, 0, 3, 1, |_, rows_here, _| {
            visited.store(rows_here, Ordering::Relaxed);
        });
        assert_eq!(visited.load(Ordering::Relaxed), 3);
    }
}
