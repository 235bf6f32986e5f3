//! The hot-path allocation budget, asserted under a real allocator.
//!
//! A counting `#[global_allocator]` wraps the system allocator, threads
//! are pinned to one (so no fan-out allocations), and no metrics sink is
//! attached (so spans take the allocation-free disabled path). After
//! warmup, every additional step of the exact forward, reuse forward,
//! reuse backward and layer-level dense-mode forward paths must perform
//! exactly the per-step allocation count pinned in the `*_STEP` consts
//! below — a new allocation in the inner loop fails here.
//!
//! One `#[test]` per binary: the counter is process-global, so parallel
//! tests would double-count each other's allocations.
// The `#[global_allocator]` below is one of the three `unsafe` sites outside
// `adr_tensor::kernels`; the workspace denies `unsafe_code` everywhere else.
#![allow(unsafe_code)]
#![expect(
    clippy::disallowed_types,
    reason = "ordering-counter: the allocation counters publish no other data, so every access is Relaxed"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use adr_clustering::lsh::LshTable;
use adr_clustering::reuse_cache::ReuseCache;
use adr_nn::layer::{Layer, Mode};
use adr_reuse::backward::reuse_backward;
use adr_reuse::forward::{reuse_forward_with, ReuseArena};
use adr_reuse::hashpack::PackedHasher;
use adr_reuse::subvec::SubVecSplit;
use adr_reuse::{ReuseConfig, ReuseConv2d};
use adr_tensor::im2col::{im2col, ConvGeom};
use adr_tensor::matrix::Matrix;
use adr_tensor::par::{matmul_par, run_row_blocks, set_thread_override};
use adr_tensor::rng::AdrRng;
use adr_tensor::tensor4::Tensor4;

/// Counts allocation *events* (not bytes): `alloc`, `alloc_zeroed`, and
/// `realloc` each bump the counter once. Deallocation is free. Events on any
/// thread but the test's own — the pool workers — are also counted apart.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static WORKER_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set by the test on its own thread. Const-initialised and without a
    /// destructor, so reading it inside the allocator neither allocates nor
    /// outlives the thread's TLS.
    static IS_TEST_THREAD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn count() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    if !IS_TEST_THREAD.try_with(std::cell::Cell::get).unwrap_or(true) {
        WORKER_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation verbatim to `System`; the counter is
// a relaxed atomic with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`,
        // which reaches `System` unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`: same contract, `layout` unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`;
        // the caller guarantees that and a valid `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn worker_allocs() -> u64 {
    WORKER_ALLOCS.load(Ordering::Relaxed)
}

/// Steady-state allocations per step, pinned where they are asserted. A pin
/// moves only with the code that moves it, in the same review.
///
/// The `Conv2d`-style baseline as free functions: the unfolded matrix and
/// the output.
const EXACT_FORWARD_STEP: u64 = 2;
/// `ReuseConv2d` in dense mode (`exact_fallback`), `Eval` forward, at layer
/// level: the same GEMM, but the layer recycles its unfolded buffer, so the
/// only allocation is the output it returns.
const DENSE_MODE_FORWARD_STEP: u64 = 1;
/// Signatures, lookup tables, cluster tables, centroids and cluster outputs
/// are all recycled in the `ReuseArena`, so a steady-state (all-hit) step
/// allocates only the output matrix it returns.
const REUSE_FORWARD_STEP: u64 = 1;
/// The one allocation is the per-sub-matrix task list (a band of the weight
/// gradient paired with its scratch), built on the dispatching thread;
/// cluster sums, centroid gradients and all three gradients land in
/// recycled or caller-owned buffers.
const REUSE_BACKWARD_STEP: u64 = 1;

#[test]
fn steady_state_allocation_counts_match_the_budget() {
    IS_TEST_THREAD.with(|flag| flag.set(true));
    set_thread_override(Some(1));

    // Exact path: unfold + GEMM, the baseline the reuse path replaces.
    let geom = ConvGeom::new(8, 8, 2, 3, 3, 1, 0).expect("valid geometry");
    let input = Tensor4::from_fn(2, 8, 8, 2, |n, y, x, c| {
        (n * 311 + y * 31 + x * 7 + c) as f32 * 0.01 - 0.5
    });
    let mut rng = AdrRng::seeded(42);
    let weight = Matrix::from_fn(geom.k(), 4, |_, _| rng.gauss());
    let bias = [0.1f32, -0.2, 0.3, 0.0];

    let exact_step = || {
        let unf = im2col(&input, &geom);
        let mut y = matmul_par(&unf, &weight);
        y.add_row_bias(&bias);
        y
    };
    for _ in 0..2 {
        let _ = exact_step(); // warmup: allocator metadata, lazy init
    }
    let expected = EXACT_FORWARD_STEP;
    for step in 0..3 {
        let before = allocs();
        let y = exact_step();
        let after = allocs();
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(
            after - before,
            expected,
            "exact forward step {step}: allocation count drifted from \
             `EXACT_FORWARD_STEP`"
        );
    }

    // Reuse path: same unfolded input every batch, so after the first
    // pass every signature hits the cache and the count is steady. Uses the
    // steady-state entry point the layer uses — a long-lived hasher and
    // arena — so the pin measures the amortized path, not the compat
    // wrapper that rebuilds both per call.
    let x_unf = im2col(&input, &geom);
    let split = SubVecSplit::new(geom.k(), 9);
    let num_subs = split.num_sub_vectors();
    let lsh: Vec<LshTable> =
        (0..num_subs).map(|i| LshTable::new(split.width(i), 6, &mut rng)).collect();
    let hasher = PackedHasher::new(&split, &lsh);
    let mut arena = ReuseArena::default();
    let mut caches: Vec<ReuseCache> = (0..num_subs).map(|_| ReuseCache::new(4)).collect();

    let reuse_step = |caches: &mut Vec<ReuseCache>, arena: &mut ReuseArena| {
        for c in caches.iter_mut() {
            c.begin_batch();
        }
        reuse_forward_with(
            &x_unf,
            &weight,
            &bias,
            &split,
            &lsh,
            &hasher,
            Some(caches),
            None,
            Mode::Train,
            arena,
        )
    };
    for _ in 0..2 {
        let _ = reuse_step(&mut caches, &mut arena); // warmup: fills cache and arena
    }
    let expected = REUSE_FORWARD_STEP;
    for step in 0..3 {
        let before = allocs();
        let out = reuse_step(&mut caches, &mut arena);
        let after = allocs();
        assert_eq!(out.stats.gemm_flops, 0, "steady state must be all cache hits");
        assert_eq!(
            after - before,
            expected,
            "reuse forward step {step}: allocation count drifted from \
             `REUSE_FORWARD_STEP`"
        );
    }

    // Reuse backward from the clustering the last forward left in the
    // arena, into the long-lived gradient buffers a layer owns.
    let n = x_unf.rows();
    let delta_y = Matrix::from_fn(n, 4, |r, c| (r * 4 + c) as f32 * 0.001 - 0.1);
    let mut weight_grad = Matrix::zeros(geom.k(), 4);
    let mut bias_grad = [0.0f32; 4];
    let mut delta_x_unf = Matrix::default();
    let mut backward_step = |arena: &mut ReuseArena| {
        reuse_backward(
            arena,
            &split,
            &weight,
            delta_y.as_slice(),
            &mut weight_grad,
            &mut bias_grad,
            Some(&mut delta_x_unf),
        )
    };
    for _ in 0..2 {
        backward_step(&mut arena); // warmup: sizes the gradient scratch
    }
    let expected = REUSE_BACKWARD_STEP;
    for step in 0..3 {
        let before = allocs();
        let flops = backward_step(&mut arena);
        let after = allocs();
        assert!(flops > 0);
        assert_eq!(
            after - before,
            expected,
            "reuse backward step {step}: allocation count drifted from \
             `REUSE_BACKWARD_STEP`"
        );
    }

    // Dense mode, at layer level: `ReuseConv2d` after `exact_fallback` runs
    // the free-function baseline above on its own buffers, and because it
    // recycles the unfolded input the one allocation left is the output.
    let mut layer = ReuseConv2d::new("rc", geom, 4, ReuseConfig::new(9, 6, false), &mut rng);
    layer.exact_fallback();
    for _ in 0..2 {
        let _ = layer.forward(&input, Mode::Eval); // warmup: sizes the unfolded buffer
    }
    let expected = DENSE_MODE_FORWARD_STEP;
    for step in 0..3 {
        let before = allocs();
        let y = layer.forward(&input, Mode::Eval);
        let after = allocs();
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(
            after - before,
            expected,
            "dense-mode forward step {step}: allocation count drifted from \
             `DENSE_MODE_FORWARD_STEP`"
        );
    }

    // Two workers: every fan-out of the reuse step now crosses to the pool.
    // What a pool worker allocates per dispatch is the dispatcher's own
    // completion message (calibrated on an empty fan-out, not assumed); the
    // tasks themselves — grouping, sweep, GEMM, CR probes, scatter; cluster
    // sums and both backward products — must add nothing to it, because every
    // buffer they touch was sized in an earlier step or on this thread.
    set_thread_override(Some(2));
    for _ in 0..2 {
        let _ = reuse_step(&mut caches, &mut arena); // warmup: spawns the pool
        backward_step(&mut arena);
    }
    let before = worker_allocs();
    run_row_blocks(&mut [0u8; 2], 1, 2, 2, |_, _, _| {});
    let per_dispatch = worker_allocs() - before;
    for step in 0..3 {
        let before = worker_allocs();
        let out = reuse_step(&mut caches, &mut arena);
        let after_forward = worker_allocs();
        backward_step(&mut arena);
        let after_backward = worker_allocs();
        assert_eq!(out.stats.gemm_flops, 0, "steady state must be all cache hits");
        assert_eq!(
            after_forward - before,
            3 * per_dispatch,
            "reuse forward step {step}: a task of the hash, sub-matrix or scatter fan-out \
             allocated on a pool worker"
        );
        assert_eq!(
            after_backward - after_forward,
            2 * per_dispatch,
            "reuse backward step {step}: a task of the sub-matrix or row fan-out allocated \
             on a pool worker"
        );
    }
    set_thread_override(None);
}
