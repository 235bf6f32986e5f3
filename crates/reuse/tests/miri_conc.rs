//! Concurrency tests for the packed-hashing, reuse-forward and
//! reuse-backward fan-outs,
//! curated for `cargo miri test`: tiny inputs, with the parallel path forced
//! through [`adr_tensor::par::set_thread_override`] because no interpretable
//! problem size reaches the compute crossover under Miri.
//!
//! Signatures are `u64`s produced by an identical per-row accumulation in
//! both paths, and every gradient element is written by exactly one block in
//! the same loop order, so serial and forced-parallel results must be
//! *equal*, not merely close.

// Test code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use adr_clustering::assign::ClusterTable;
use adr_clustering::lsh::LshTable;
use adr_clustering::reuse_cache::ReuseCache;
use adr_nn::layer::Mode;
use adr_reuse::backward::reuse_backward;
use adr_reuse::forward::{reuse_forward, reuse_forward_with, ReuseArena};
use adr_reuse::hashpack::PackedHasher;
use adr_reuse::subvec::SubVecSplit;
use adr_tensor::matrix::Matrix;
use adr_tensor::par::set_thread_override;
use adr_tensor::rng::AdrRng;
use std::sync::Mutex;

/// The override is process-global; serialise the tests that flip it.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Drops the persistent worker pool: under Miri leaked threads at process
/// exit are an error, so every test shuts the pool down before releasing
/// the override lock.
fn shutdown() {
    adr_tensor::kernels::pool::shutdown_pool();
}

fn families(split: &SubVecSplit, h: usize, seed: u64) -> Vec<LshTable> {
    let mut rng = AdrRng::seeded(seed);
    split.ranges().iter().map(|&(a, b)| LshTable::new(b - a, h, &mut rng)).collect()
}

#[test]
fn hash_all_forced_two_threads_equals_serial() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut rng = AdrRng::seeded(11);
    let x = Matrix::from_fn(9, 13, |_, _| rng.gauss());
    let split = SubVecSplit::new(13, 5); // widths 5,5,3
    let packed = PackedHasher::new(&split, &families(&split, 7, 12));
    set_thread_override(None);
    let serial = packed.hash_all(&x);
    set_thread_override(Some(2));
    let forced = packed.hash_all(&x);
    set_thread_override(None);
    shutdown();
    assert_eq!(serial, forced);
}

#[test]
fn hash_all_thread_count_beyond_rows_equals_serial() {
    // More workers than rows: the row-chunk splitter must cope with empty
    // tails instead of slicing past the signature buffer.
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut rng = AdrRng::seeded(21);
    let x = Matrix::from_fn(3, 8, |_, _| rng.gauss());
    let split = SubVecSplit::new(8, 4);
    let packed = PackedHasher::new(&split, &families(&split, 6, 22));
    set_thread_override(None);
    let serial = packed.hash_all(&x);
    set_thread_override(Some(16));
    let forced = packed.hash_all(&x);
    set_thread_override(None);
    shutdown();
    assert_eq!(serial, forced);
}

#[test]
fn arena_forward_is_bitwise_equal_to_the_rebuilding_wrapper() {
    // The arena entry point must be a pure performance change: a dirty
    // arena reused across calls (and a forced-parallel pool underneath)
    // produces bitwise the output of the rebuild-everything wrapper.
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut rng = AdrRng::seeded(41);
    let x = Matrix::from_fn(10, 12, |_, _| rng.gauss());
    let w = Matrix::from_fn(12, 4, |_, _| rng.gauss() * 0.2);
    let bias = [0.05f32, -0.1, 0.0, 0.2];
    let split = SubVecSplit::new(12, 5); // widths 5,5,2
    let lsh = families(&split, 8, 42);
    set_thread_override(None);
    let (wrapper, wrapper_arena) = reuse_forward(&x, &w, &bias, &split, &lsh, None, None);
    let hasher = PackedHasher::new(&split, &lsh);
    let mut arena = ReuseArena::default();
    set_thread_override(Some(2));
    for round in 0..2 {
        let with_arena = reuse_forward_with(
            &x,
            &w,
            &bias,
            &split,
            &lsh,
            &hasher,
            None,
            None,
            Mode::Train,
            &mut arena,
        );
        assert_eq!(with_arena.output.as_slice(), wrapper.output.as_slice(), "round {round}");
        let subs = arena.sub_matrices().iter().zip(wrapper_arena.sub_matrices());
        for (i, (a, b)) in subs.enumerate() {
            assert_eq!(a.table(), b.table(), "round {round} sub {i} table");
            assert_eq!(a.centroids().as_slice(), b.centroids().as_slice(), "round {round} sub {i}");
        }
    }
    set_thread_override(None);
    shutdown();
}

/// What a forward pass at the given forced worker count leaves behind:
/// output bits, every table, every centroid matrix's bits, `gemm_flops`.
type ForwardState = (Vec<u32>, Vec<ClusterTable>, Vec<Vec<u32>>, u64);

#[allow(clippy::too_many_arguments)]
fn forward_at(
    threads: usize,
    x: &Matrix,
    w: &Matrix,
    split: &SubVecSplit,
    lsh: &[LshTable],
    caches: Option<&mut [ReuseCache]>,
    rows_per_image: Option<usize>,
    mode: Mode,
    arena: &mut ReuseArena,
) -> ForwardState {
    let hasher = PackedHasher::new(split, lsh);
    let bias = vec![0.25f32; w.cols()];
    set_thread_override(Some(threads));
    let out =
        reuse_forward_with(x, w, &bias, split, lsh, &hasher, caches, rows_per_image, mode, arena);
    set_thread_override(None);
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let subs = arena.sub_matrices();
    (
        bits(&out.output),
        subs.iter().map(|s| s.table().clone()).collect(),
        subs.iter().map(|s| bits(s.centroids())).collect(),
        out.stats.gemm_flops,
    )
}

/// One forward pass per scope and, with cluster reuse, two batches through
/// the same caches (cold, then all hits), at each worker count in turn.
fn forward_sweep(workers: &[usize], x: &Matrix, w: &Matrix, split: &SubVecSplit, lsh: &[LshTable]) {
    let fresh_caches =
        || (0..split.num_sub_vectors()).map(|_| ReuseCache::new(w.cols())).collect::<Vec<_>>();
    let run = |threads: usize| {
        let mut arena = ReuseArena::default();
        let mut caches = fresh_caches();
        let batch = forward_at(threads, x, w, split, lsh, None, None, Mode::Train, &mut arena);
        let image = forward_at(threads, x, w, split, lsh, None, Some(3), Mode::Train, &mut arena);
        let mut with_cr = || {
            caches.iter_mut().for_each(ReuseCache::begin_batch);
            forward_at(threads, x, w, split, lsh, Some(&mut caches), None, Mode::Train, &mut arena)
        };
        let (cold, warm) = (with_cr(), with_cr());
        assert!(cold.3 > 0 && warm.3 == 0, "second CR batch is all hits");
        [batch, image, cold, warm]
    };
    let serial = run(1);
    assert!(serial[0].1[0].num_clusters() < x.rows(), "precondition: shared clusters");
    assert!(serial[1].1[0].num_clusters() > serial[0].1[0].num_clusters(), "scopes differ");
    for &threads in workers {
        assert_eq!(run(threads), serial, "{threads} workers");
    }
}

#[test]
fn forward_fan_out_is_bitwise_serial_at_every_worker_count() {
    // The sub-matrix fan-out — grouping, the row sweep, the centroid GEMM
    // and the CR probe/insert of each block's own caches — and the
    // row-blocked scatter, at two workers and at more workers than
    // sub-matrices: blocks own disjoint sub-matrix states, caches and
    // scratch, so nothing may differ in a single bit.
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut rng = AdrRng::seeded(71);
    let protos = Matrix::from_fn(3, 11, |_, _| rng.gauss());
    let x = Matrix::from_fn(9, 11, |r, c| protos[(r % 3, c)]);
    let w = Matrix::from_fn(11, 3, |_, _| rng.gauss() * 0.3);
    let split = SubVecSplit::new(11, 4); // widths 4,4,3
    forward_sweep(&[2, 5], &x, &w, &split, &families(&split, 6, 72));
    shutdown();
}

#[test]
fn forward_only_cr_fan_out_is_bitwise_the_serial_training_pass() {
    // Cold, mixed, then all-hit batches through one set of caches: at two
    // forced workers a forward pass no backward follows probes first and
    // forms only the centroids of sub-matrices with a miss, so its blocks
    // touch fewer buffers than a training pass's — and nothing observable
    // may differ from the serial training pass: output, multiplied rows,
    // cache rates and contents.
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut rng = AdrRng::seeded(91);
    let protos = Matrix::from_fn(3, 11, |_, _| rng.gauss());
    let cold = Matrix::from_fn(9, 11, |r, c| protos[(r % 3, c)]);
    let fresh = Matrix::from_fn(9, 11, |_, _| rng.gauss());
    let mixed = Matrix::from_fn(9, 11, |r, c| if r < 3 { cold[(r, c)] } else { fresh[(r, c)] });
    let w = Matrix::from_fn(11, 3, |_, _| rng.gauss() * 0.3);
    let split = SubVecSplit::new(11, 4); // widths 4,4,3
    let lsh = families(&split, 6, 92);
    let run = |threads: usize, mode: Mode| {
        let mut arena = ReuseArena::default();
        let mut caches: Vec<ReuseCache> =
            (0..split.num_sub_vectors()).map(|_| ReuseCache::new(w.cols())).collect();
        let mut seen = Vec::new();
        for x in [&cold, &mixed, &cold] {
            caches.iter_mut().for_each(ReuseCache::begin_batch);
            let (out, _, _, gemm_flops) =
                forward_at(threads, x, &w, &split, &lsh, Some(&mut caches), None, mode, &mut arena);
            let rates: Vec<Option<u64>> =
                caches.iter().map(|c| c.current_batch_rate().map(f64::to_bits)).collect();
            seen.push((out, gemm_flops, rates));
        }
        let stored: Vec<Vec<Option<Vec<u32>>>> = caches
            .iter_mut()
            .map(|c| {
                (0..64u64)
                    .map(|sig| c.probe(sig).map(|row| row.iter().map(|v| v.to_bits()).collect()))
                    .collect()
            })
            .collect();
        (seen, stored)
    };
    let serial = run(1, Mode::Train);
    let flops: Vec<u64> = serial.0.iter().map(|s| s.1).collect();
    assert!(flops[0] > 0 && flops[1] > 0 && flops[2] == 0, "{flops:?}");
    assert_eq!(run(2, Mode::Eval), serial);
    shutdown();
}

/// Flattened gradients of one backward pass at the given forced worker count.
fn backward_at(
    threads: usize,
    arena: &mut ReuseArena,
    split: &SubVecSplit,
    w: &Matrix,
    dy: &Matrix,
) -> Vec<u32> {
    let mut weight_grad = Matrix::filled(w.rows(), w.cols(), f32::NAN);
    let mut bias_grad = vec![f32::NAN; w.cols()];
    let mut delta_x_unf = Matrix::default();
    set_thread_override(Some(threads));
    let flops = reuse_backward(
        arena,
        split,
        w,
        dy.as_slice(),
        &mut weight_grad,
        &mut bias_grad,
        Some(&mut delta_x_unf),
    );
    set_thread_override(None);
    assert!(flops > 0);
    assert_eq!(delta_x_unf.shape(), (dy.rows(), w.rows()));
    let all = weight_grad.as_slice().iter().chain(&bias_grad).chain(delta_x_unf.as_slice());
    all.map(|v| v.to_bits()).collect()
}

#[test]
fn backward_fan_out_is_bitwise_serial_at_every_worker_count() {
    // Both phases of the backward pass — sub-matrix tasks, then the row
    // scatter — at one worker, two, and more workers than sub-matrices (and
    // than rows per block): every block owns disjoint bands and scratch, so
    // the gradients may not differ in a single bit.
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut rng = AdrRng::seeded(51);
    // Few distinct rows, so clusters have several members each.
    let protos = Matrix::from_fn(3, 11, |_, _| rng.gauss());
    let x = Matrix::from_fn(9, 11, |r, c| protos[(r % 3, c)]);
    let w = Matrix::from_fn(11, 3, |_, _| rng.gauss() * 0.3);
    let dy = Matrix::from_fn(9, 3, |_, _| rng.gauss());
    let split = SubVecSplit::new(11, 4); // widths 4,4,3
    let lsh = families(&split, 6, 52);
    set_thread_override(None);
    let (_, mut arena) = reuse_forward(&x, &w, &[0.0; 3], &split, &lsh, None, None);
    assert!(arena.sub_matrices()[0].table().num_clusters() < 9, "precondition: shared clusters");
    let serial = backward_at(1, &mut arena, &split, &w, &dy);
    for workers in [2usize, 5] {
        assert_eq!(backward_at(workers, &mut arena, &split, &w, &dy), serial, "{workers} workers");
    }
    shutdown();
}

/// Under Miri the aliasing checks on the `split_at_mut` hand-off are the
/// point; sweep a few worker counts to probe the chunk arithmetic.
#[cfg(miri)]
mod miri_only {
    use super::*;

    #[test]
    fn hash_all_is_race_free_at_every_worker_count() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut rng = AdrRng::seeded(31);
        let x = Matrix::from_fn(7, 10, |_, _| rng.gauss());
        let split = SubVecSplit::new(10, 3); // widths 3,3,3,1
        let packed = PackedHasher::new(&split, &families(&split, 9, 32));
        set_thread_override(None);
        let reference = packed.hash_all(&x);
        for workers in [2usize, 3, 7] {
            set_thread_override(Some(workers));
            assert_eq!(packed.hash_all(&x), reference, "{workers} workers");
        }
        set_thread_override(None);
        shutdown();
    }

    #[test]
    fn forward_blocks_are_race_free_at_every_worker_count() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut rng = AdrRng::seeded(81);
        let x = Matrix::from_fn(6, 7, |r, _| (r % 2) as f32 + rng.gauss() * 1e-3);
        let w = Matrix::from_fn(7, 2, |_, _| rng.gauss());
        let split = SubVecSplit::new(7, 2); // widths 2,2,2,1
        forward_sweep(&[2, 3, 4, 7], &x, &w, &split, &families(&split, 3, 82));
        shutdown();
    }

    #[test]
    fn backward_tasks_are_race_free_at_every_worker_count() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut rng = AdrRng::seeded(61);
        let x = Matrix::from_fn(6, 7, |r, _| (r % 2) as f32 + rng.gauss() * 1e-3);
        let w = Matrix::from_fn(7, 2, |_, _| rng.gauss());
        let dy = Matrix::from_fn(6, 2, |_, _| rng.gauss());
        let split = SubVecSplit::new(7, 2); // widths 2,2,2,1
        let lsh = families(&split, 3, 62);
        set_thread_override(None);
        let (_, mut arena) = reuse_forward(&x, &w, &[0.0; 2], &split, &lsh, None, None);
        let reference = backward_at(1, &mut arena, &split, &w, &dy);
        for workers in [2usize, 3, 4, 7] {
            assert_eq!(backward_at(workers, &mut arena, &split, &w, &dy), reference);
        }
        shutdown();
    }
}
