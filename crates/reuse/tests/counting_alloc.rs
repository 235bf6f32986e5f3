//! Runtime cross-check of the static hot-path allocation budget.
//!
//! `adr-check hotpath` proves *which* allocation sites are reachable from
//! the forward-pass roots; this harness proves *how often* the steady
//! state hits them. A counting `#[global_allocator]` wraps the system
//! allocator, threads are pinned to one (so no fan-out allocations), and
//! no metrics sink is attached (so spans take the allocation-free
//! disabled path). After warmup, every additional step of the exact
//! forward, reuse forward, reuse backward and layer-level dense-mode forward
//! paths must perform exactly the per-step allocation count pinned in
//! `adr-check.budget`'s `[runtime]` section — a new
//! allocation in the inner loop fails here even if a reviewer waves it
//! through the static table.
//!
//! The pins describe the *default* build: the `checked` sanitizer layer
//! deliberately trades allocations for diagnostics, so this harness is
//! compiled out under that feature.
#![cfg(not(feature = "checked"))]
//!
//! One `#[test]` per binary: the counter is process-global, so parallel
//! tests would double-count each other's allocations.

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
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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

/// Reads one `[runtime]` pin from the workspace `adr-check.budget`.
/// Deliberately tiny and duplicated per test binary — the tests must not
/// depend on `adr-check` (a dev-dependency cycle through the tool that
/// audits them).
fn runtime_budget(key: &str) -> u64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../adr-check.budget");
    let text = std::fs::read_to_string(path).expect("workspace adr-check.budget exists");
    let mut in_runtime = false;
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_runtime = line == "[runtime]";
            continue;
        }
        if !in_runtime {
            continue;
        }
        if let Some((k, v)) = line.split_once('=') {
            if k.trim() == key {
                return v.trim().parse().expect("budget count parses");
            }
        }
    }
    panic!("adr-check.budget [runtime] is missing `{key}`");
}

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
    let expected = runtime_budget("exact_forward_step");
    for step in 0..3 {
        let before = allocs();
        let y = exact_step();
        let after = allocs();
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(
            after - before,
            expected,
            "exact forward step {step}: allocation count drifted from \
             adr-check.budget `exact_forward_step`"
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
        reuse_forward_with(&x_unf, &weight, &bias, &split, &lsh, &hasher, Some(caches), None, arena)
    };
    for _ in 0..2 {
        let _ = reuse_step(&mut caches, &mut arena); // warmup: fills cache and arena
    }
    let expected = runtime_budget("reuse_forward_step");
    for step in 0..3 {
        let before = allocs();
        let out = reuse_step(&mut caches, &mut arena);
        let after = allocs();
        assert_eq!(out.stats.gemm_flops, 0, "steady state must be all cache hits");
        assert_eq!(
            after - before,
            expected,
            "reuse forward step {step}: allocation count drifted from \
             adr-check.budget `reuse_forward_step`"
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
    let expected = runtime_budget("reuse_backward_step");
    for step in 0..3 {
        let before = allocs();
        let flops = backward_step(&mut arena);
        let after = allocs();
        assert!(flops > 0);
        assert_eq!(
            after - before,
            expected,
            "reuse backward step {step}: allocation count drifted from \
             adr-check.budget `reuse_backward_step`"
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
    let expected = runtime_budget("dense_mode_forward_step");
    for step in 0..3 {
        let before = allocs();
        let y = layer.forward(&input, Mode::Eval);
        let after = allocs();
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(
            after - before,
            expected,
            "dense-mode forward step {step}: allocation count drifted from \
             adr-check.budget `dense_mode_forward_step`"
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
