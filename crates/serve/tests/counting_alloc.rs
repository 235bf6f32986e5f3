//! The serving loop's allocation budget (`GATEWAY_REQUEST` below), under a
//! real allocator.
//!
//! Mirrors `crates/reuse/tests/counting_alloc.rs`: a counting
//! `#[global_allocator]`, one thread, no metrics sink. After warmup,
//! each additional submit→poll round trip of a single-request
//! micro-batch on the exact path (ladder stage 0, healthy traffic, no
//! faults) must perform exactly the pinned number of heap allocations —
//! i.e. zero allocations that the budget does not account for.
// The `#[global_allocator]` below is one of the three `unsafe` sites outside
// `adr_tensor::kernels`; the workspace denies `unsafe_code` everywhere else.
#![allow(unsafe_code)]
#![expect(
    clippy::disallowed_types,
    reason = "ordering-counter: the allocation counters publish no other data, so every access is Relaxed"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use adr_nn::checkpoint::Checkpoint;
use adr_nn::conv::Conv2d;
use adr_nn::dense::Dense;
use adr_nn::network::Network;
use adr_nn::relu::Relu;
use adr_serve::clock::ManualClock;
use adr_serve::gateway::{Gateway, GatewayConfig};
use adr_serve::registry::ArtifactKind;
use adr_serve::tenant::TenantConfig;
use adr_tensor::im2col::ConvGeom;
use adr_tensor::par::set_thread_override;
use adr_tensor::rng::AdrRng;
use adr_tensor::tensor4::Tensor4;

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

/// Steady-state allocations of one submit → poll round trip of a
/// single-request batch on the exact path, pinned where it is asserted: the
/// admission-time image copy into the lane, the pending list, the batch
/// tensor, the forward pass's own buffers, the logits row and the result
/// vector. (`Network::forward` lends the first layer the batch tensor, the
/// conv's eval forward unfolds into the thread's scratch, the `Dense`
/// layer multiplies straight from its input, and the round-robin cursor is
/// a lane position, not a key.)
const GATEWAY_REQUEST: u64 = 8;

fn tiny_net(seed: u64) -> Network {
    let mut rng = AdrRng::seeded(seed);
    let mut net = Network::new((6, 6, 1));
    let geom = ConvGeom::new(6, 6, 1, 3, 3, 1, 0).expect("valid geometry");
    net.push(Box::new(Conv2d::new("conv1", geom, 4, &mut rng)));
    net.push(Box::new(Relu::new("relu1")));
    net.push(Box::new(Dense::new("fc", 4 * 4 * 4, 3, &mut rng)));
    net
}

#[test]
fn steady_state_gateway_request_allocations_match_the_budget() {
    set_thread_override(Some(1));
    // The registry loads artifacts from disk, so the tiny net makes a
    // round trip through a real checkpoint file first.
    let mut net = tiny_net(9);
    let artifact = std::env::temp_dir().join(format!("adr-gw-alloc-{}.adr1", std::process::id()));
    Checkpoint::capture(&mut net).save(&artifact).expect("artifact saves");

    let cfg = GatewayConfig { max_batch: 1, ..GatewayConfig::default() };
    let mut gateway = Gateway::with_clock(cfg, Box::new(ManualClock::new())).expect("valid config");
    gateway
        .register_model("m", ArtifactKind::Adr1, &artifact, Box::new(|| tiny_net(9)))
        .expect("model registers");
    // Single-tenant serving: one tenant whose bucket never empties.
    let unlimited =
        TenantConfig { rate_per_sec: u64::MAX, burst: u64::MAX, ..TenantConfig::default() };
    gateway.add_tenant("t", unlimited).expect("tenant adds");
    std::fs::remove_file(&artifact).expect("artifact removes");
    let image = Tensor4::from_fn(1, 6, 6, 1, |_, y, x, _| (y * 6 + x) as f32 * 0.01);

    let request_round = |gateway: &mut Gateway| {
        gateway.submit("m", "t", &image).expect("healthy request admits");
        let results = gateway.poll();
        assert_eq!(results.len(), 1);
        assert!(results[0].1.is_ok(), "healthy request serves");
    };
    for _ in 0..3 {
        request_round(&mut gateway); // warmup: queue/report capacity, lazy init
    }
    assert_eq!(gateway.stage("m", "t"), Some(0), "healthy traffic stays on the exact path");

    for step in 0..5 {
        let before = allocs();
        request_round(&mut gateway);
        let after = allocs();
        assert_eq!(
            after - before,
            GATEWAY_REQUEST,
            "gateway request {step}: allocation count drifted from `GATEWAY_REQUEST`"
        );
    }
    let completed = gateway.report().tenants["t"].completed;
    assert_eq!(completed, 8, "all rounds served");
}
