//! Fault-tolerance integration tests: the kill-and-resume determinism
//! guarantee, guardrail rollback + reuse tightening under injected faults,
//! and bounded-retry checkpoint writes.

// Test code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use std::path::PathBuf;
use std::time::Duration;

use adaptive_deep_reuse::nn::dense::Dense;
use adaptive_deep_reuse::nn::durable::RetryPolicy;
use adaptive_deep_reuse::nn::relu::Relu;
use adaptive_deep_reuse::prelude::*;
use adaptive_deep_reuse::tensor::im2col::ConvGeom;

fn toy_source(seed: u64) -> DatasetSource {
    let mut rng = AdrRng::seeded(seed);
    let dataset = SynthDataset::generate(
        &SynthConfig {
            num_images: 56,
            num_classes: 3,
            height: 6,
            width: 6,
            channels: 1,
            smoothing_passes: 2,
            noise_std: 0.05,
            max_shift: 1,
            image_variability: 0.4,
        },
        &mut rng,
    );
    DatasetSource::new(dataset, 6, 8)
}

fn reuse_net(seed: u64) -> Network {
    let mut rng = AdrRng::seeded(seed);
    let mut net = Network::new((6, 6, 1));
    let g = ConvGeom::new(6, 6, 1, 3, 3, 1, 0).unwrap();
    net.push(Box::new(ReuseConv2d::new("conv1", g, 6, ReuseConfig::new(3, 6, false), &mut rng)));
    net.push(Box::new(Relu::new("relu1")));
    net.push(Box::new(Dense::new("fc", 4 * 4 * 6, 3, &mut rng)));
    net
}

fn quick_trainer(max_iterations: usize) -> Trainer {
    Trainer::new(TrainerConfig {
        max_iterations,
        eval_every: 10,
        plateau_patience: 5,
        plateau_min_delta: 0.01,
        ..Default::default()
    })
}

/// Everything the determinism guarantee covers, in bit-exact form.
#[derive(Debug, PartialEq)]
struct RunTrace {
    weight_bits: Vec<Vec<u32>>,
    velocity_bits: Vec<Vec<u32>>,
    cluster_bits: Vec<(u64, u64)>,
    flops: (u64, u64),
}

fn trace(net: &mut Network, sgd: &Sgd) -> RunTrace {
    let flops = (net.flops().total(), net.baseline_flops().total());
    let state = TrainState::capture(net, sgd, Strategy::adaptive(), 0);
    let to_bits = |slots: &[Vec<f32>]| {
        slots.iter().map(|s| s.iter().map(|v| v.to_bits()).collect()).collect()
    };
    let mut cluster_bits = Vec::new();
    for layer in net.layers_mut() {
        if let Some(reuse) = layer.as_any_mut().and_then(|a| a.downcast_mut::<ReuseConv2d>()) {
            let s = reuse.stats();
            cluster_bits.push((s.avg_clusters.to_bits(), s.avg_remaining_ratio.to_bits()));
        }
    }
    RunTrace {
        weight_bits: to_bits(&state.params),
        velocity_bits: to_bits(&state.velocity),
        cluster_bits,
        flops,
    }
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("adr_fault_tolerance");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The headline guarantee: a run that is killed mid-flight and resumed
/// from its last checkpoint finishes bitwise-identical to one that was
/// never interrupted — weights, momentum, cluster statistics, and FLOP
/// counters all match exactly, under the adaptive strategy.
#[test]
fn kill_and_resume_is_bitwise_identical() {
    let trainer = quick_trainer(60);

    // Run A: uninterrupted.
    let mut net_a = reuse_net(7);
    let mut sgd_a = Sgd::constant(0.05);
    let mut source_a = toy_source(70);
    let full = trainer.train(&mut net_a, Strategy::adaptive(), &mut source_a, &mut sgd_a).unwrap();

    // Run B: checkpoints every 10 iterations, killed after 35.
    let ckpt = temp_path("kill_resume_state.bin");
    std::fs::remove_file(&ckpt).ok();
    let mut net_b = reuse_net(7);
    let mut sgd_b = Sgd::constant(0.05);
    let mut source_b = toy_source(70);
    let first = trainer
        .train_with(
            &mut net_b,
            Strategy::adaptive(),
            &mut source_b,
            &mut sgd_b,
            TrainOptions {
                checkpoint: Some(CheckpointPolicy::new(&ckpt, 10)),
                halt_after: Some(35),
                ..Default::default()
            },
        )
        .unwrap();
    assert!(first.interrupted, "halt_after must mark the report interrupted");
    assert_eq!(first.iterations_run, 35);

    // Run C: a fresh process — new network, optimiser, and source, state
    // loaded from the file Run B left behind.
    let state = TrainState::load(&ckpt).unwrap();
    assert_eq!(state.iteration, 30, "last checkpoint boundary before the kill");
    let mut net_c = reuse_net(7);
    let mut sgd_c = Sgd::constant(0.05);
    let mut source_c = toy_source(70);
    let resumed = trainer
        .train_with(
            &mut net_c,
            Strategy::adaptive(),
            &mut source_c,
            &mut sgd_c,
            TrainOptions { resume: Some(state), ..Default::default() },
        )
        .unwrap();
    assert!(!resumed.interrupted);
    assert_eq!(resumed.iterations_run, full.iterations_run);
    assert_eq!(
        resumed.switches,
        full.switches.iter().skip_while(|s| s.iteration < 30).cloned().collect::<Vec<_>>()
    );

    assert_eq!(
        trace(&mut net_a, &sgd_a),
        trace(&mut net_c, &sgd_c),
        "resumed run must be bitwise-identical to the uninterrupted one"
    );
    std::fs::remove_file(&ckpt).ok();
}

/// Injected NaN triggers detection, rollback to the last good snapshot,
/// and reuse tightening — and the run still learns the toy task.
#[test]
fn nan_fault_rolls_back_tightens_and_still_learns() {
    let trainer = quick_trainer(120);
    let mut net = reuse_net(9);
    let mut sgd = Sgd::constant(0.05);
    let mut source = toy_source(90);
    let mut plan = FaultPlan::new().inject_at(40, FaultKind::NanWeights);
    let report = trainer
        .train_with(
            &mut net,
            Strategy::adaptive(),
            &mut source,
            &mut sgd,
            TrainOptions {
                guardrails: Some(GuardrailConfig { snapshot_every: 10, ..Default::default() }),
                faults: Some(&mut plan),
                ..Default::default()
            },
        )
        .unwrap();
    let kinds: Vec<_> = report.guardrail_events.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&GuardrailEventKind::FaultInjected), "{kinds:?}");
    assert!(
        kinds.contains(&GuardrailEventKind::NonFiniteParams)
            || kinds.contains(&GuardrailEventKind::NonFiniteLoss),
        "the poisoned run must be detected: {kinds:?}"
    );
    assert!(kinds.contains(&GuardrailEventKind::RolledBack), "{kinds:?}");
    assert!(
        kinds.contains(&GuardrailEventKind::StageTightened)
            || kinds.contains(&GuardrailEventKind::ExactFallback),
        "rollback must tighten the reuse knobs: {kinds:?}"
    );
    let state = TrainState::capture(&mut net, &sgd, Strategy::adaptive(), 0);
    assert!(state.params.iter().flatten().all(|v| v.is_finite()), "weights must be clean again");
    assert!(report.final_accuracy > 0.6, "accuracy {}", report.final_accuracy);
}

/// A rollback's report names where the batch it discarded went non-finite,
/// so a poisoned input and poisoned weights read differently.
#[test]
fn rollback_names_where_the_rolled_back_batch_went_non_finite() {
    let cases = [
        (FaultKind::NanActivations, "input[0] = NaN"),
        (FaultKind::InfActivations, "input[0] = inf"),
        (FaultKind::NanWeights, "layer conv1 output"),
    ];
    for strategy in [Strategy::fixed(3, 6), Strategy::cluster_reuse(3, 6)] {
        for (fault, expected) in cases {
            let mut net = reuse_net(9);
            let mut sgd = Sgd::constant(0.05);
            let mut plan = FaultPlan::new().inject_at(30, fault);
            let report = quick_trainer(60)
                .train_with(
                    &mut net,
                    strategy,
                    &mut toy_source(90),
                    &mut sgd,
                    TrainOptions {
                        guardrails: Some(GuardrailConfig {
                            snapshot_every: 10,
                            ..Default::default()
                        }),
                        faults: Some(&mut plan),
                        ..Default::default()
                    },
                )
                .unwrap();
            let detail = report
                .guardrail_events
                .iter()
                .find(|e| e.kind == GuardrailEventKind::RolledBack)
                .map(|e| e.detail.as_str())
                .unwrap_or_else(|| panic!("{fault:?} under {strategy:?}: no rollback"));
            println!("{} {fault:?}: {detail}", strategy.name());
            assert!(detail.contains(expected), "{fault:?} under {strategy:?}: {detail}");
            let state = TrainState::capture(&mut net, &sgd, strategy, 0);
            assert!(state.params.iter().flatten().all(|v| v.is_finite()), "{fault:?}");
        }
    }
}

/// Trains `reuse_net(11)` under guardrails with every reuse layer's
/// clustering collapsed into one giant cluster at iteration `at`.
fn run_with_collapsed_clustering(
    strategy: Strategy,
    at: usize,
    iterations: usize,
) -> (adaptive_deep_reuse::adaptive::TrainReport, Network) {
    let mut net = reuse_net(11);
    let mut plan = FaultPlan::new().inject_at(
        at,
        FaultKind::DegenerateClusters(
            adaptive_deep_reuse::reuse::DegenerateClustering::OneGiantCluster,
        ),
    );
    let report = quick_trainer(iterations)
        .train_with(
            &mut net,
            strategy,
            &mut toy_source(110),
            &mut Sgd::constant(0.05),
            TrainOptions {
                guardrails: Some(GuardrailConfig { snapshot_every: 10, ..Default::default() }),
                faults: Some(&mut plan),
                ..Default::default()
            },
        )
        .unwrap();
    (report, net)
}

/// A degenerate clustering (every row collapsed into one giant cluster)
/// is detected from the reuse statistics; with no adaptive controller to
/// tighten, recovery lands on the exact im2col GEMM fallback.
#[test]
fn degenerate_clustering_falls_back_to_exact() {
    let (report, _) = run_with_collapsed_clustering(Strategy::fixed(3, 6), 30, 80);
    let kinds: Vec<_> = report.guardrail_events.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&GuardrailEventKind::DegenerateClustering), "{kinds:?}");
    assert!(kinds.contains(&GuardrailEventKind::RolledBack), "{kinds:?}");
    assert!(
        kinds.contains(&GuardrailEventKind::ExactFallback),
        "fixed strategy has no controller stages; must fall back to exact: {kinds:?}"
    );
    // Exact fallback means zero savings from the fallback point on, but
    // the model must remain healthy and keep learning.
    assert!(report.final_loss.is_finite());
    assert!(report.final_accuracy > 0.6, "accuracy {}", report.final_accuracy);
}

/// The exact fallback is one-way for every strategy: Strategy 3's own
/// `CR` switch, thirty iterations after the guardrails dropped its layers
/// to the exact path, rewrites `{L, H, CR}` — and must not thereby hand the
/// layers back to the clustering that was just found degenerate. Prints
/// the event trace (`-- --nocapture`).
#[test]
fn strategy3_keeps_the_exact_fallback_through_its_cr_switch() {
    let (report, mut net) = run_with_collapsed_clustering(Strategy::cluster_reuse(3, 6), 12, 200);
    for e in &report.guardrail_events {
        println!("G @{} {:?} {}", e.iteration, e.kind, e.detail);
    }
    for s in &report.switches {
        println!("S @{} {}", s.iteration, s.description);
    }
    let fallback = report
        .guardrail_events
        .iter()
        .find(|e| e.kind == GuardrailEventKind::ExactFallback)
        .expect("the degenerate clustering must land on the exact fallback");
    let switch = report
        .switches
        .iter()
        .find(|s| s.description.contains("cluster reuse off"))
        .expect("Strategy 3 must still take its CR switch");
    assert!(fallback.iteration < switch.iteration, "{fallback:?} then {switch:?}");
    for reuse in adaptive_deep_reuse::reuse::reuse_layers(&mut net) {
        println!("(is_dense, config) = ({}, {:?})", reuse.is_dense(), reuse.config());
        assert!(reuse.is_dense(), "the CR switch re-loosened the exact fallback");
        assert!(!reuse.config().cluster_reuse, "the switch itself must still be applied");
    }
}

/// Transient checkpoint-write failures are absorbed by the bounded retry;
/// the checkpoint on disk is valid afterwards.
#[test]
fn transient_checkpoint_failures_are_retried() {
    let trainer = quick_trainer(20);
    let mut net = reuse_net(13);
    let mut sgd = Sgd::constant(0.05);
    let mut source = toy_source(130);
    let ckpt = temp_path("retry_state.bin");
    std::fs::remove_file(&ckpt).ok();
    // 2 injected failures vs 3 attempts: the final attempt lands.
    let mut plan = FaultPlan::new().fail_checkpoint_writes(2);
    let mut policy = CheckpointPolicy::new(&ckpt, 20);
    policy.retry = RetryPolicy { max_attempts: 3, backoff: Duration::ZERO };
    let report = trainer
        .train_with(
            &mut net,
            Strategy::fixed(3, 6),
            &mut source,
            &mut sgd,
            TrainOptions {
                checkpoint: Some(policy),
                faults: Some(&mut plan),
                ..Default::default()
            },
        )
        .unwrap();
    assert!(
        !report
            .guardrail_events
            .iter()
            .any(|e| e.kind == GuardrailEventKind::CheckpointWriteFailed),
        "retries should have absorbed the transient failures: {:?}",
        report.guardrail_events
    );
    let state = TrainState::load(&ckpt).unwrap();
    assert_eq!(state.iteration, 20);
    std::fs::remove_file(&ckpt).ok();
}

/// When every retry fails, the run records the failure, keeps training,
/// and the previous checkpoint file is left untouched.
#[test]
fn exhausted_checkpoint_retries_keep_old_file_and_training_alive() {
    let ckpt = temp_path("exhausted_retry_state.bin");
    std::fs::remove_file(&ckpt).ok();

    // Seed the path with a valid earlier checkpoint.
    let mut seed_net = reuse_net(15);
    let seed_sgd = Sgd::constant(0.05);
    let seed_state = TrainState::capture(&mut seed_net, &seed_sgd, Strategy::fixed(3, 6), 5);
    seed_state.save(&ckpt).unwrap();

    let trainer = quick_trainer(20);
    let mut net = reuse_net(15);
    let mut sgd = Sgd::constant(0.05);
    let mut source = toy_source(150);
    let mut plan = FaultPlan::new().fail_checkpoint_writes(100);
    let mut policy = CheckpointPolicy::new(&ckpt, 10);
    policy.retry = RetryPolicy { max_attempts: 3, backoff: Duration::ZERO };
    let report = trainer
        .train_with(
            &mut net,
            Strategy::fixed(3, 6),
            &mut source,
            &mut sgd,
            TrainOptions {
                checkpoint: Some(policy),
                faults: Some(&mut plan),
                ..Default::default()
            },
        )
        .unwrap();
    let failures: Vec<_> = report
        .guardrail_events
        .iter()
        .filter(|e| e.kind == GuardrailEventKind::CheckpointWriteFailed)
        .collect();
    assert_eq!(failures.len(), 2, "both cadence points fail: {:?}", report.guardrail_events);
    assert_eq!(report.iterations_run, 20, "checkpoint failure must not stop training");
    // The pre-existing checkpoint survived every failed overwrite attempt.
    let survivor = TrainState::load(&ckpt).unwrap();
    assert_eq!(survivor, seed_state);
    std::fs::remove_file(&ckpt).ok();
}

/// The stateful shuffled source resumes its epoch permutation, cursor and
/// RNG stream through a full checkpoint/restore cycle.
#[test]
fn shuffled_source_resumes_identically() {
    let trainer = quick_trainer(40);
    let make_shuffled = || {
        let mut rng = AdrRng::seeded(17);
        let dataset = SynthDataset::generate(
            &SynthConfig {
                num_images: 56,
                num_classes: 3,
                height: 6,
                width: 6,
                channels: 1,
                smoothing_passes: 2,
                noise_std: 0.05,
                max_shift: 1,
                image_variability: 0.4,
            },
            &mut rng,
        );
        ShuffledSource::new(dataset, 6, 8, AdrRng::seeded(18))
    };

    let mut net_a = reuse_net(19);
    let mut sgd_a = Sgd::constant(0.05);
    let mut source_a = make_shuffled();
    let _ = trainer.train(&mut net_a, Strategy::fixed(3, 6), &mut source_a, &mut sgd_a).unwrap();

    let ckpt = temp_path("shuffled_state.bin");
    std::fs::remove_file(&ckpt).ok();
    let mut net_b = reuse_net(19);
    let mut sgd_b = Sgd::constant(0.05);
    let mut source_b = make_shuffled();
    let first = trainer
        .train_with(
            &mut net_b,
            Strategy::fixed(3, 6),
            &mut source_b,
            &mut sgd_b,
            TrainOptions {
                checkpoint: Some(CheckpointPolicy::new(&ckpt, 10)),
                halt_after: Some(20),
                ..Default::default()
            },
        )
        .unwrap();
    assert!(first.interrupted);

    let state = TrainState::load(&ckpt).unwrap();
    assert!(!state.source_state.is_empty(), "shuffled source must persist its cursor");
    let mut net_c = reuse_net(19);
    let mut sgd_c = Sgd::constant(0.05);
    // Deliberately mis-seeded: restore_state must overwrite the RNG,
    // permutation, and cursor wholesale.
    let mut source_c = make_shuffled();
    let _ = trainer
        .train_with(
            &mut net_c,
            Strategy::fixed(3, 6),
            &mut source_c,
            &mut sgd_c,
            TrainOptions { resume: Some(state), ..Default::default() },
        )
        .unwrap();

    assert_eq!(
        trace(&mut net_a, &sgd_a),
        trace(&mut net_c, &sgd_c),
        "shuffled-source resume must replay the identical batch stream"
    );
    std::fs::remove_file(&ckpt).ok();
}
