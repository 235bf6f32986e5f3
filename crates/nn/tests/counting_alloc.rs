//! The dense baseline's allocation budget, under a real allocator.
//!
//! A counting `#[global_allocator]` wraps the system allocator and threads
//! are pinned to one (so no fan-out allocations). After warmup, every
//! further [`Conv2d::backward`] / [`Dense::backward`] must perform exactly
//! the count pinned in `DENSE_BACKWARD_STEP` below: the gradients land in the layer's long-lived
//! buffers, so the input-gradient tensor the layer returns is the only
//! allocation — a `to_vec` or a fresh gradient matrix creeping back into
//! the pass fails here. Every further `Mode::Eval` [`Conv2d::forward`] must
//! perform `CONV_EVAL_FORWARD_STEP`: its unfold is the thread's scratch.
//! Every further [`Dense::forward`], in either mode, must perform
//! `DENSE_FORWARD_STEP`: it multiplies straight from its input.
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
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`,
        // which reaches `System` unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`: same contract, `layout` unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

/// Steady-state allocations of one dense backward (`Conv2d::backward`, and
/// likewise `Dense::backward`), pinned where it is asserted: ∇W and ∇b land
/// in the layer's long-lived gradients and δx overwrites the layer-owned
/// unfolded buffer, so the one allocation is the input-gradient tensor the
/// layer returns.
const DENSE_BACKWARD_STEP: u64 = 1;

/// Steady-state allocations of one `Conv2d` `Mode::Eval` forward: the
/// unfold borrows the thread's grow-only scratch, so the one allocation is
/// the output the layer returns — also after a probe at 4× the batch has
/// grown the scratch, and also between training steps, whose unfold the
/// layer keeps for its backward until an eval forward drops it.
const CONV_EVAL_FORWARD_STEP: u64 = 1;

/// Steady-state allocations of one `Dense` forward, `Mode::Train` or
/// `Mode::Eval`: an eval forward multiplies straight from the input tensor
/// and a training forward copies it into the layer's grow-only buffer for
/// the backward, so the one allocation is the output the layer returns.
const DENSE_FORWARD_STEP: u64 = 1;

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
             `DENSE_BACKWARD_STEP`",
            layer.name()
        );
    }
}

#[test]
fn dense_backward_allocation_count_matches_the_budget() {
    set_thread_override(Some(1));
    let mut rng = AdrRng::seeded(42);

    let geom = ConvGeom::new(8, 8, 2, 3, 3, 1, 1).expect("valid geometry");
    let mut conv = Conv2d::new("conv", geom, 4, &mut rng);
    let input = Tensor4::from_fn(2, 8, 8, 2, |n, y, x, c| {
        (n * 311 + y * 31 + x * 7 + c) as f32 * 0.01 - 0.5
    });
    let grad = Tensor4::from_fn(2, 8, 8, 4, |n, y, x, c| {
        (n * 17 + y * 5 + x * 3 + c) as f32 * 0.002 - 0.1
    });
    assert_steady_backward(&mut conv, &input, &grad, DENSE_BACKWARD_STEP);
    assert_steady_eval_forward(&mut conv, &input);

    let mut fc = Dense::new("fc", 8 * 8 * 2, 5, &mut rng);
    let grad = Tensor4::from_fn(2, 1, 1, 5, |n, _, _, c| (n * 5 + c) as f32 * 0.01 - 0.02);
    assert_steady_backward(&mut fc, &input, &grad, DENSE_BACKWARD_STEP);
    assert_steady_dense_forward(&mut fc, &input);
}

/// Asserts that each of three more `Dense` forwards of `input` in each mode
/// allocates exactly `DENSE_FORWARD_STEP` times, after a probe at 4× the
/// batch.
fn assert_steady_dense_forward(fc: &mut Dense, input: &Tensor4) {
    let (batch, h, w, c) = input.shape();
    let probe = Tensor4::from_fn(4 * batch, h, w, c, |n, y, x, c| ((n + y * 3 + x + c) % 5) as f32);
    fc.forward(&probe, Mode::Train);
    for mode in [Mode::Train, Mode::Eval] {
        for step in 0..3 {
            let before = allocs();
            let y = fc.forward(input, mode);
            let after = allocs();
            assert!(y.as_slice().iter().all(|v| v.is_finite()));
            assert_eq!(
                after - before,
                DENSE_FORWARD_STEP,
                "dense {mode:?} forward step {step}: allocation count drifted from \
                 `DENSE_FORWARD_STEP`"
            );
        }
    }
}

/// Grows the thread's scratch with an eval forward at 4× the batch, then
/// asserts that each of three more eval forwards of `input` allocates
/// exactly `CONV_EVAL_FORWARD_STEP` times, the first one right after a
/// training step.
fn assert_steady_eval_forward(conv: &mut Conv2d, input: &Tensor4) {
    let (batch, h, w, c) = input.shape();
    let probe = Tensor4::from_fn(4 * batch, h, w, c, |n, y, x, c| ((n + y * 3 + x + c) % 5) as f32);
    conv.forward(&probe, Mode::Eval);
    conv.forward(input, Mode::Train);
    for step in 0..3 {
        let before = allocs();
        let y = conv.forward(input, Mode::Eval);
        let after = allocs();
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(
            after - before,
            CONV_EVAL_FORWARD_STEP,
            "conv eval forward step {step}: allocation count drifted from `CONV_EVAL_FORWARD_STEP`"
        );
    }
}
