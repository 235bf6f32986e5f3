//! Concurrency tests for the scoped-thread fan-outs, curated to stay small
//! enough for `cargo miri test` (Miri interprets ~1000× slower than native,
//! so no interpretable problem reaches the crossover thresholds on its own).
//!
//! Every test forces the parallel code path on tiny inputs through
//! [`adr_tensor::par::set_thread_override`], then demands *bitwise* equality
//! with the serial path: the fan-outs partition their output with
//! `split_at_mut`, so each element is accumulated by exactly one thread in
//! the same loop order and any divergence is a bug, not a rounding mode.
//!
//! The same binary runs natively in the `test` CI job and under Miri in the
//! `miri` job; the `#[cfg(miri)]` module at the bottom adds borrow-tracking
//! stress that is redundant native but cheap under the interpreter.

// Test code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use adr_tensor::im2col::{col2im, im2col, ConvGeom};
use adr_tensor::matrix::{gemm_ta_rows, gemm_tb_rows, Matrix};
use adr_tensor::par::{matmul_par, matmul_range_t_b_par, set_thread_override};
use adr_tensor::tensor4::Tensor4;
use std::sync::Mutex;

/// The override is process-global; serialise tests that flip it so the
/// default multi-threaded test harness cannot interleave two overrides.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `serial` with the heuristics in charge and `forced` with every
/// fan-out pinned to `threads` workers, restoring the default afterwards.
fn serial_vs_forced<R>(
    threads: usize,
    serial: impl FnOnce() -> R,
    forced: impl FnOnce() -> R,
) -> (R, R) {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    set_thread_override(None);
    let s = serial();
    set_thread_override(Some(threads));
    let f = forced();
    set_thread_override(None);
    // Drop the persistent worker pool while the override lock is still
    // held: under Miri leaked threads at process exit are an error, and
    // natively the respawn-on-next-use path gets exercised for free.
    adr_tensor::kernels::pool::shutdown_pool();
    (s, f)
}

fn small_geom() -> ConvGeom {
    ConvGeom::new(6, 5, 3, 3, 3, 1, 1).unwrap()
}

fn small_input() -> Tensor4 {
    Tensor4::from_fn(2, 6, 5, 3, |n, y, x, c| {
        (((n * 131 + y * 31 + x * 7 + c * 3) % 23) as f32 - 11.0) * 0.125
    })
}

#[test]
fn matmul_par_forced_two_threads_is_bitwise_serial() {
    let a = Matrix::from_fn(7, 9, |r, c| (((r * 13 + c * 5) % 17) as f32 - 8.0) * 0.25);
    let b = Matrix::from_fn(9, 4, |r, c| (((r * 3 + c * 11) % 13) as f32 - 6.0) * 0.5);
    let (serial, forced) = serial_vs_forced(2, || a.matmul(&b), || matmul_par(&a, &b));
    assert_eq!(serial.as_slice(), forced.as_slice());
}

#[test]
fn matmul_par_thread_count_beyond_rows_is_bitwise_serial() {
    // More workers than rows: the row-block splitter must hand out empty
    // tails without touching out-of-range output.
    let a = Matrix::from_fn(3, 6, |r, c| ((r * 7 + c) % 9) as f32 - 4.0);
    let b = Matrix::from_fn(6, 5, |r, c| ((r + c * 4) % 7) as f32 - 3.0);
    let (serial, forced) = serial_vs_forced(8, || a.matmul(&b), || matmul_par(&a, &b));
    assert_eq!(serial.as_slice(), forced.as_slice());
}

#[test]
fn pool_survives_many_fanouts_and_a_shutdown() {
    // The persistent pool must give identical answers on its first use,
    // on a reused warm pool, and on the respawned pool after an explicit
    // shutdown — the pool is an execution resource, never state.
    let a = Matrix::from_fn(6, 7, |r, c| (((r * 17 + c * 3) % 19) as f32 - 9.0) * 0.5);
    let b = Matrix::from_fn(7, 3, |r, c| (((r * 5 + c * 2) % 11) as f32 - 5.0) * 0.25);
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    set_thread_override(None);
    let reference = a.matmul(&b);
    set_thread_override(Some(3));
    let cold = matmul_par(&a, &b);
    let warm = matmul_par(&a, &b);
    adr_tensor::kernels::pool::shutdown_pool();
    let respawned = matmul_par(&a, &b);
    set_thread_override(None);
    adr_tensor::kernels::pool::shutdown_pool();
    assert_eq!(cold.as_slice(), reference.as_slice());
    assert_eq!(warm.as_slice(), reference.as_slice());
    assert_eq!(respawned.as_slice(), reference.as_slice());
}

/// The handoff (DESIGN.md §15.7): a worker polls its channel for a bounded
/// window after each job and then parks on it. A fan-out must get the same
/// bits from a worker it finds polling (back to back), from one that parked
/// (several windows later — the sleep is what makes that state reachable, the
/// assertion holds whichever state the worker is really in), and from inside
/// a pooled job, where it degrades to serial. `shutdown_pool` right after a
/// fan-out — here and in `serial_vs_forced` after every forced run — joins a
/// worker that is still polling.
#[test]
fn pool_hands_over_to_a_polling_a_parked_and_a_nested_worker() {
    let a = Matrix::from_fn(6, 5, |r, c| (((r * 7 + c * 11) % 13) as f32 - 6.0) * 0.25);
    let b = Matrix::from_fn(5, 4, |r, c| (((r * 3 + c * 5) % 7) as f32 - 3.0) * 0.5);
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    set_thread_override(None);
    let reference = a.matmul(&b);
    set_thread_override(Some(2));
    for round in 0..6 {
        assert_eq!(matmul_par(&a, &b).as_slice(), reference.as_slice(), "polling, round {round}");
    }
    for round in 0..2 {
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(matmul_par(&a, &b).as_slice(), reference.as_slice(), "parked, round {round}");
    }
    // Nested: each block of an outer fan-out runs a forced fan-out of its own.
    let mut nested = [Matrix::default(), Matrix::default(), Matrix::default()];
    adr_tensor::par::run_blocks(nested.iter_mut(), |out| *out = matmul_par(&a, &b));
    for (block, out) in nested.iter().enumerate() {
        assert_eq!(out.as_slice(), reference.as_slice(), "nested in block {block}");
    }
    set_thread_override(None);
    adr_tensor::kernels::pool::shutdown_pool();
}

/// `run_blocks` with items that own pieces of two buffers at once (zipped
/// `chunks_mut`, the shape of the reuse forward fan-out): every item is
/// handed to exactly one call, on whichever thread, and nothing runs for an
/// empty item list.
#[test]
fn run_blocks_dispatches_zipped_chunks_of_several_buffers() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    adr_tensor::par::run_blocks(std::iter::empty::<&mut [u32]>(), |_| panic!("no items"));
    for per_block in [1usize, 2, 3, 7] {
        let mut squares = vec![0u32; 7];
        let mut halves = vec![0.0f32; 14];
        let blocks = squares.chunks_mut(per_block).zip(halves.chunks_mut(2 * per_block));
        adr_tensor::par::run_blocks(blocks.enumerate(), |(b, (ints, floats))| {
            for (j, v) in ints.iter_mut().enumerate() {
                *v += u32::try_from((b * per_block + j).pow(2)).unwrap();
            }
            for (j, v) in floats.iter_mut().enumerate() {
                *v += (b * 2 * per_block + j) as f32 * 0.5;
            }
        });
        assert_eq!(squares, [0, 1, 4, 9, 16, 25, 36], "{per_block} per block");
        let want: Vec<f32> = (0..14).map(|i| i as f32 * 0.5).collect();
        assert_eq!(halves, want, "{per_block} per block");
    }
    adr_tensor::kernels::pool::shutdown_pool();
}

#[test]
fn matmul_range_t_b_par_forced_two_threads_is_bitwise_serial() {
    let a = Matrix::from_fn(8, 10, |r, c| (((r * 19 + c * 3) % 21) as f32 - 10.0) * 0.125);
    let b = Matrix::from_fn(3, 4, |r, c| (((r * 5 + c * 7) % 11) as f32 - 5.0) * 0.25);
    // The serial closure runs with the override cleared, so `threads <= 1`
    // takes the inline per-row path; the forced closure spawns two workers.
    let (serial, forced) = serial_vs_forced(
        2,
        || matmul_range_t_b_par(&a, (2, 6), &b),
        || matmul_range_t_b_par(&a, (2, 6), &b),
    );
    assert_eq!(serial.as_slice(), forced.as_slice());
}

/// `∇W = xᵀ·δy` fans out over bands of output rows (column bands of `x`):
/// every band must reproduce the serial slice kernel's rows, including the
/// exact-zero skips that keep a non-finite `δy` row out of untouched rows.
#[test]
fn matmul_t_a_forced_parallel_is_bitwise_serial_at_every_worker_count() {
    let x = Matrix::from_fn(9, 7, |r, c| match (r * 7 + c) % 5 {
        0 => 0.0,
        1 => -0.0,
        v => (v as f32 - 2.5) * 0.375,
    });
    let mut dy = Matrix::from_fn(9, 3, |r, c| (((r * 11 + c * 5) % 13) as f32 - 6.0) * 0.25);
    dy[(4, 1)] = f32::INFINITY;
    let slice_kernel = || {
        let mut out = Matrix::zeros(7, 3);
        gemm_ta_rows(x.as_slice(), 7, dy.as_slice(), out.as_mut_slice(), 9, 7, 3);
        out
    };
    for workers in [1usize, 2, 5] {
        let (serial, forced) = serial_vs_forced(workers, slice_kernel, || x.matmul_t_a(&dy));
        for (f, s) in forced.as_slice().iter().zip(serial.as_slice()) {
            assert_eq!(f.to_bits(), s.to_bits(), "{workers} workers");
        }
    }
}

/// `δx = δy·Wᵀ` fans out over row blocks of `δy`; blocks cut the 8-row
/// register tiles at different rows, and every element must still be the
/// one fixed-order dot product.
#[test]
fn matmul_t_b_forced_parallel_is_bitwise_serial_at_every_worker_count() {
    let dy = Matrix::from_fn(19, 11, |r, c| (((r * 13 + c * 7) % 17) as f32 - 8.0) * 0.125);
    let w = Matrix::from_fn(6, 11, |r, c| (((r * 5 + c * 3) % 11) as f32 - 5.0) * 0.25);
    let slice_kernel = || {
        let mut out = Matrix::zeros(19, 6);
        gemm_tb_rows(dy.as_slice(), w.as_slice(), out.as_mut_slice(), 19, 11, 6);
        out
    };
    for workers in [1usize, 2, 5] {
        let (serial, forced) = serial_vs_forced(workers, slice_kernel, || dy.matmul_t_b(&w));
        assert_eq!(forced.as_slice(), serial.as_slice(), "{workers} workers");
    }
}

/// A tall, wide `δx` takes the lane-split tile (`kernels::gemm_tb`) in every
/// row block: 48 rows are 24 per block at two workers and 16 at three, and
/// 75 output columns are a 64-column tile, an 8-column tile and three
/// single dots. `k` = 9 is one lane chunk and a one-element tail.
#[test]
fn matmul_t_b_lane_split_tile_forced_parallel_is_bitwise_serial() {
    let mut dy = Matrix::from_fn(48, 9, |r, c| (((r * 13 + c * 7) % 17) as f32 - 8.0) * 0.125);
    dy[(20, 3)] = f32::INFINITY;
    let w = Matrix::from_fn(75, 9, |r, c| (((r * 5 + c * 3) % 11) as f32 - 5.0) * 0.25);
    for workers in [2usize, 3] {
        let (serial, forced) =
            serial_vs_forced(workers, || dy.matmul_t_b(&w), || dy.matmul_t_b(&w));
        for (f, s) in forced.as_slice().iter().zip(serial.as_slice()) {
            assert_eq!(f.to_bits(), s.to_bits(), "{workers} workers");
        }
    }
}

#[test]
fn im2col_forced_parallel_is_bitwise_serial() {
    let geom = small_geom();
    let input = small_input();
    let (serial, forced) = serial_vs_forced(2, || im2col(&input, &geom), || im2col(&input, &geom));
    assert_eq!(serial.as_slice(), forced.as_slice());
}

#[test]
fn col2im_forced_parallel_is_bitwise_serial() {
    let geom = small_geom();
    let cols = im2col(&small_input(), &geom);
    let (serial, forced) =
        serial_vs_forced(2, || col2im(&cols, &geom, 2), || col2im(&cols, &geom, 2));
    assert_eq!(serial.as_slice(), forced.as_slice());
}

/// Borrow-tracking stress that only earns its keep under the interpreter:
/// Miri's aliasing model checks every `split_at_mut` hand-off, so driving
/// the same fan-outs at several worker counts probes the partition
/// arithmetic without native runtime cost.
#[cfg(miri)]
mod miri_only {
    use super::*;

    #[test]
    fn fanouts_are_race_free_at_every_worker_count() {
        let a = Matrix::from_fn(5, 6, |r, c| ((r * 11 + c * 2) % 13) as f32 - 6.0);
        let b = Matrix::from_fn(6, 3, |r, c| ((r * 2 + c * 9) % 7) as f32 - 3.0);
        let geom = small_geom();
        let input = small_input();
        let reference = {
            let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            set_thread_override(None);
            (a.matmul(&b), im2col(&input, &geom))
        };
        for workers in [2usize, 3, 5] {
            let (serial, forced) = serial_vs_forced(
                workers,
                || (a.matmul(&b), im2col(&input, &geom)),
                || (matmul_par(&a, &b), im2col(&input, &geom)),
            );
            assert_eq!(serial.0.as_slice(), reference.0.as_slice());
            assert_eq!(forced.0.as_slice(), reference.0.as_slice(), "{workers} workers");
            assert_eq!(forced.1.as_slice(), reference.1.as_slice(), "{workers} workers");
        }
    }
}
