//! Runtime cross-check of the dense baseline's backward allocation budget.
//!
//! A counting `#[global_allocator]` wraps the system allocator and threads
//! are pinned to one (so no fan-out allocations). After warmup, every
//! further [`Conv2d::backward`] / [`Dense::backward`] must perform exactly
//! the `dense_backward_step` count pinned in `adr-check.budget`'s
//! `[runtime]` section: the gradients land in the layer's long-lived
//! buffers, so the input-gradient tensor the layer returns is the only
//! allocation — a `to_vec` or a fresh gradient matrix creeping back into
//! the pass fails here.
//!
//! The pin describes the *default* build: the `checked` sanitizer layer
//! deliberately trades allocations for diagnostics, so this harness is
//! compiled out under that feature.
#![cfg(not(feature = "checked"))]
//!
//! One `#[test]` per binary: the counter is process-global, so parallel
//! tests would double-count each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use adr_nn::conv::Conv2d;
use adr_nn::dense::Dense;
use adr_nn::layer::{Layer, Mode};
use adr_tensor::im2col::ConvGeom;
use adr_tensor::par::set_thread_override;
use adr_tensor::rng::AdrRng;
use adr_tensor::tensor4::Tensor4;

/// Counts allocation *events* (not bytes): `alloc`, `alloc_zeroed`, and
/// `realloc` each bump the counter once. Deallocation is free.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation verbatim to `System`; the counter is
// a relaxed atomic with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

/// Warms `layer` up with two training steps, then asserts that each of
/// three more backward passes allocates exactly `expected` times.
fn assert_steady_backward(layer: &mut dyn Layer, input: &Tensor4, grad: &Tensor4, expected: u64) {
    for _ in 0..2 {
        layer.forward(input, Mode::Train);
        layer.backward(grad); // warmup: sizes the layer-owned buffers
    }
    for step in 0..3 {
        layer.forward(input, Mode::Train);
        let before = allocs();
        let delta_x = layer.backward(grad);
        let after = allocs();
        assert_eq!(delta_x.shape(), input.shape());
        assert!(delta_x.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(
            after - before,
            expected,
            "{} backward step {step}: allocation count drifted from \
             adr-check.budget `dense_backward_step`",
            layer.name()
        );
    }
}

#[test]
fn dense_backward_allocation_count_matches_the_budget() {
    set_thread_override(Some(1));
    let expected = runtime_budget("dense_backward_step");
    let mut rng = AdrRng::seeded(42);

    let geom = ConvGeom::new(8, 8, 2, 3, 3, 1, 1).expect("valid geometry");
    let mut conv = Conv2d::new("conv", geom, 4, &mut rng);
    let input = Tensor4::from_fn(2, 8, 8, 2, |n, y, x, c| {
        (n * 311 + y * 31 + x * 7 + c) as f32 * 0.01 - 0.5
    });
    let grad = Tensor4::from_fn(2, 8, 8, 4, |n, y, x, c| {
        (n * 17 + y * 5 + x * 3 + c) as f32 * 0.002 - 0.1
    });
    assert_steady_backward(&mut conv, &input, &grad, expected);

    let mut fc = Dense::new("fc", 8 * 8 * 2, 5, &mut rng);
    let grad = Tensor4::from_fn(2, 1, 1, 5, |n, _, _, c| (n * 5 + c) as f32 * 0.01 - 0.02);
    assert_steady_backward(&mut fc, &input, &grad, expected);
}
