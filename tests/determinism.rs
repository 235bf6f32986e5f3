//! End-to-end determinism: two training runs from the same seed must be
//! bitwise identical — losses, every learned weight, and the clustering
//! behaviour of the reuse path. This is the runtime counterpart of the
//! lints: `clippy.toml` bans `SystemTime` and clippy's `iter_over_hash_type`
//! bans hash-order iteration, and this test catches anything a lint cannot
//! see.

// Test/example code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use adaptive_deep_reuse::models::{cifarnet, vgg19, ConvMode};
use adaptive_deep_reuse::prelude::*;
use adaptive_deep_reuse::tensor::par::set_thread_override;
use std::sync::{PoisonError, RwLock};

/// The worker-count override is process-global: the one test that flips it
/// takes this for writing, every other training run for reading.
static THREAD_OVERRIDE: RwLock<()> = RwLock::new(());

/// One training run, reduced to bit patterns: per-step losses, every
/// parameter of every layer, and per-reuse-layer cluster statistics.
struct RunTrace {
    loss_bits: Vec<u32>,
    weight_bits: Vec<u32>,
    cluster_counts: Vec<u64>,
}

/// Builds the bench-scale CifarNet from `seed`, trains it for three steps on
/// a batch derived from the same seed, and snapshots everything that could
/// drift.
fn run(seed: u64, mode: ConvMode) -> RunTrace {
    let mut rng = AdrRng::seeded(seed);
    let net = cifarnet::bench_scale(4, mode, &mut rng);
    train_three_steps(net, rng, 16)
}

/// Three training steps of `net` on a batch of eight `size × size` images,
/// reduced to a [`RunTrace`]; `rng` is the generator that built the net.
fn train_three_steps(mut net: Network, mut rng: AdrRng, size: usize) -> RunTrace {
    // Synthetic batch from a split of the same generator: any entropy-order
    // change in network construction would shift this data too, which is
    // exactly what the test should detect.
    let mut data_rng = rng.split(1);
    let batch = 8;
    let mut pixels = vec![0.0f32; batch * size * size * 3];
    data_rng.fill_gauss(&mut pixels);
    let images = Tensor4::from_vec(batch, size, size, 3, pixels).unwrap();
    let labels: Vec<usize> = (0..batch).map(|_| data_rng.below(4)).collect();

    let mut sgd = Sgd::new(LrSchedule::Constant(0.05), 0.9, 0.0);
    let loss_bits =
        (0..3).map(|_| net.train_batch(&images, &labels, &mut sgd).loss.to_bits()).collect();

    let mut weight_bits = Vec::new();
    let mut cluster_counts = Vec::new();
    for layer in net.layers_mut() {
        if let Some(reuse) = layer.as_any_mut().and_then(|a| a.downcast_mut::<ReuseConv2d>()) {
            let stats = reuse.stats();
            cluster_counts.push(stats.avg_clusters.to_bits());
            cluster_counts.push(stats.avg_remaining_ratio.to_bits());
        }
        for param in layer.params_mut() {
            weight_bits.extend(param.data.iter().map(|w| w.to_bits()));
        }
    }

    RunTrace { loss_bits, weight_bits, cluster_counts }
}

#[test]
fn reuse_training_is_bitwise_reproducible() {
    let _shared = THREAD_OVERRIDE.read().unwrap_or_else(PoisonError::into_inner);
    let a = run(42, ConvMode::reuse_default());
    let b = run(42, ConvMode::reuse_default());

    assert_eq!(a.loss_bits, b.loss_bits, "per-step losses diverged between identical runs");
    assert_eq!(
        a.cluster_counts, b.cluster_counts,
        "reuse cluster statistics diverged between identical runs"
    );
    assert_eq!(a.weight_bits.len(), b.weight_bits.len());
    let diverged = a.weight_bits.iter().zip(&b.weight_bits).filter(|(x, y)| x != y).count();
    assert_eq!(diverged, 0, "{diverged} weight scalars diverged between identical runs");

    // Sanity: training actually happened (losses move, reuse layers exist).
    assert!(a.loss_bits[0] != a.loss_bits[2], "loss never changed across steps");
    assert_eq!(a.cluster_counts.len(), 4, "expected stats from both reuse conv layers");
}

#[test]
fn different_seeds_actually_diverge() {
    // Guards against the trivial failure mode where everything above passes
    // because the snapshots are constant (e.g. all zeros).
    let _shared = THREAD_OVERRIDE.read().unwrap_or_else(PoisonError::into_inner);
    let a = run(42, ConvMode::reuse_default());
    let b = run(43, ConvMode::reuse_default());
    assert_ne!(a.loss_bits, b.loss_bits, "different seeds produced identical losses");
}

/// FNV-1a over the little-endian bytes of `bits`.
fn fnv1a(bits: &[u32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bits.iter().flat_map(|b| b.to_le_bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The absolute arithmetic pin. Every other test in this file compares a run
/// with itself, and `BENCH_train.json` holds counts, not losses — neither
/// would notice the whole system computing *different* bits from one commit,
/// lane width or host to the next. These are the FNV-1a hashes of the loss
/// bits and final weight bits of `run(42, ·)`, derived at commit 8c538c5 on
/// the 4-lane build, before the lane kernels were compiled a second time at
/// 256 bits (DESIGN.md §15.1): the AVX instantiation, the portable one and
/// every thread split must all land on them.
///
/// A PR that moves these constants must say why. A changed summation order
/// does, and so would the `--features fma` idea in ROADMAP item 2; a faster
/// kernel that keeps its loop order does not. (The losses pass through the
/// host libm's `exp`/`ln`: if only a new platform trips the pin, look there
/// before suspecting a kernel.)
#[test]
fn seeded_training_matches_the_pinned_arithmetic() {
    const DENSE: (u64, u64) = (0xfbba_37eb_a406_1e74, 0xe194_135e_aecd_c143);
    const REUSE: (u64, u64) = (0x636e_7f73_58fe_53ce, 0xc820_05d2_8143_3100);
    let _shared = THREAD_OVERRIDE.read().unwrap_or_else(PoisonError::into_inner);
    for (what, mode, pin) in
        [("dense", ConvMode::Dense, DENSE), ("reuse_default", ConvMode::reuse_default(), REUSE)]
    {
        let trace = run(42, mode);
        let got = (fnv1a(&trace.loss_bits), fnv1a(&trace.weight_bits));
        assert_eq!(
            got, pin,
            "{what}: (loss, weight) hashes {:#018x}, {:#018x} moved off the pinned arithmetic",
            got.0, got.1
        );
    }
}

/// Dense training must not depend on how many workers the backward GEMMs
/// fan out over: `∇W = xᵀ·δy` splits into bands of output rows and
/// `δx = δy·Wᵀ` into row blocks, and each element is still accumulated by
/// one block in one fixed order. The override forces the pooled paths on
/// this small net, where the crossover alone would keep conv1 serial.
#[test]
fn dense_training_is_bitwise_thread_count_invariant() {
    let _exclusive = THREAD_OVERRIDE.write().unwrap_or_else(PoisonError::into_inner);
    let traces: Vec<RunTrace> = [1usize, 2, 5]
        .into_iter()
        .map(|workers| {
            set_thread_override(Some(workers));
            run(42, ConvMode::Dense)
        })
        .collect();
    set_thread_override(None);
    for (workers, trace) in [2usize, 5].into_iter().zip(&traces[1..]) {
        assert_eq!(trace.loss_bits, traces[0].loss_bits, "{workers} workers: losses diverged");
        assert!(trace.weight_bits == traces[0].weight_bits, "{workers} workers: weights diverged");
    }
    assert!(traces[0].loss_bits[0] != traces[0].loss_bits[2], "loss never changed across steps");
}

/// The bench-scale VGG-19 at the default reuse setting is where the pool's
/// crossovers decide (`adr_tensor::par`): blocks 3 and 4 fan out wherever a
/// second hardware thread exists and stay serial where none does, block 5
/// stays serial on both. One thread and two forced threads bracket every
/// path a host can take, and all of it — losses, weights, clusterings — must
/// be the same bits.
#[test]
fn vgg_reuse_training_is_bitwise_thread_count_invariant() {
    let _exclusive = THREAD_OVERRIDE.write().unwrap_or_else(PoisonError::into_inner);
    let traces: Vec<RunTrace> = [1usize, 2]
        .into_iter()
        .map(|workers| {
            set_thread_override(Some(workers));
            let mut rng = AdrRng::seeded(42);
            let net = vgg19::bench_scale(4, ConvMode::reuse_default(), &mut rng);
            train_three_steps(net, rng, 32)
        })
        .collect();
    set_thread_override(None);
    assert_eq!(traces[1].loss_bits, traces[0].loss_bits, "losses diverged");
    assert!(traces[1].weight_bits == traces[0].weight_bits, "weights diverged");
    assert_eq!(traces[1].cluster_counts, traces[0].cluster_counts, "clusterings diverged");
    assert_eq!(traces[0].cluster_counts.len(), 32, "stats from all sixteen reuse convs");
    assert!(traces[0].loss_bits[0] != traces[0].loss_bits[2], "loss never changed across steps");
}

/// One serving run against a fixed checkpoint, reduced to bit patterns:
/// every response's logits plus the full serving report (counters, events,
/// per-stage attribution, latency histogram).
fn serve_run(checkpoint: &std::path::Path) -> (Vec<u32>, ServeReport) {
    // Single-tenant serving: one model, one tenant whose bucket never
    // empties, everything else at its default.
    let factory: NetFactory =
        Box::new(|| cifarnet::bench_scale(4, ConvMode::reuse_default(), &mut AdrRng::seeded(42)));
    let cfg = GatewayConfig { queue_capacity: 16, max_batch: 4, ..GatewayConfig::default() };
    let mut gw = Gateway::with_clock(cfg, Box::new(ManualClock::new())).unwrap();
    let unlimited =
        TenantConfig { rate_per_sec: u64::MAX, burst: u64::MAX, ..TenantConfig::default() };
    gw.add_tenant("default", unlimited).unwrap();
    gw.register_model("cifarnet", ArtifactKind::Adr1, checkpoint, factory).unwrap();

    // The request stream: mixed smooth images, one deliberately poisoned.
    let mut data_rng = AdrRng::seeded(42).split(2);
    let images: Vec<Tensor4> = (0..12)
        .map(|i| {
            let mut pixels = vec![0.0f32; 16 * 16 * 3];
            data_rng.fill_gauss(&mut pixels);
            if i == 5 {
                pixels[0] = f32::NAN;
            }
            Tensor4::from_vec(1, 16, 16, 3, pixels).unwrap()
        })
        .collect();

    for image in &images {
        // The poisoned request is rejected at admission; that is on the
        // report, not an error of the run.
        let _ = gw.submit("cifarnet", "default", image);
    }
    let mut logits_bits = Vec::new();
    for (_, outcome) in gw.drain() {
        logits_bits.extend(outcome.unwrap().logits.iter().map(|v| v.to_bits()));
    }
    (logits_bits, gw.into_report())
}

#[test]
fn serving_the_same_stream_twice_is_bitwise_identical() {
    let _shared = THREAD_OVERRIDE.read().unwrap_or_else(PoisonError::into_inner);
    // Checkpoint once; both runs load the same bytes.
    let path = std::env::temp_dir().join("adr_determinism_serving.adr1");
    let mut rng = AdrRng::seeded(42);
    let mut net = cifarnet::bench_scale(4, ConvMode::Dense, &mut rng);
    Checkpoint::capture(&mut net).save(&path).unwrap();

    let (logits_a, report_a) = serve_run(&path);
    let (logits_b, report_b) = serve_run(&path);

    assert!(!logits_a.is_empty(), "no responses were served");
    assert_eq!(logits_a, logits_b, "served logits diverged between identical streams");
    assert_eq!(report_a, report_b, "serving reports diverged between identical streams");
    // Sanity: the stream exercised both acceptance and rejection.
    assert_eq!(report_a.tenants["default"].admitted, 11);
    assert_eq!(report_a.tenants["default"].rejected_non_finite, 1);
    std::fs::remove_file(&path).ok();
}

/// The telemetry determinism contract (DESIGN.md §11): everything a sink
/// records *except wall times* is part of the deterministic surface. Two
/// identical seeded instrumented runs must export bitwise-identical value
/// telemetry, and installing a sink must not perturb training itself.
#[test]
fn exported_telemetry_is_bitwise_reproducible() {
    use adaptive_deep_reuse::obs;
    use std::rc::Rc;

    let instrumented = |seed: u64| -> (String, RunTrace) {
        let recorder = obs::Recorder::new();
        let guard = obs::install(Rc::new(recorder.clone()));
        let trace = run(seed, ConvMode::reuse_default());
        drop(guard);
        (recorder.to_json_lines(false), trace)
    };

    let _shared = THREAD_OVERRIDE.read().unwrap_or_else(PoisonError::into_inner);
    let (lines_a, trace_a) = instrumented(42);
    let (lines_b, trace_b) = instrumented(42);
    assert!(!lines_a.is_empty(), "instrumented training exported no telemetry");
    assert_eq!(lines_a, lines_b, "value telemetry diverged between identical runs");
    assert!(
        !lines_a.contains(obs::PHASE_TIME_METRIC),
        "wall-clock metrics leaked into the deterministic export"
    );

    // The sink is an observer: the observed run must match an unobserved one.
    let bare = run(42, ConvMode::reuse_default());
    assert_eq!(trace_a.loss_bits, bare.loss_bits, "telemetry perturbed training losses");
    assert_eq!(trace_a.weight_bits, bare.weight_bits, "telemetry perturbed learned weights");
    assert_eq!(trace_b.cluster_counts, bare.cluster_counts);
}
