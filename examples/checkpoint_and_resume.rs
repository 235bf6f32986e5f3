//! Crash-safe training: periodic full-state checkpoints, a simulated kill,
//! and a bitwise-identical resume — the workflow a downstream user needs
//! for long adaptive-deep-reuse trainings. A second section shows the
//! lighter parameter-only `Checkpoint` for weight hand-off.
//!
//! Run with: `cargo run --release --example checkpoint_and_resume`

// Test/example code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use adaptive_deep_reuse::adaptive::trainer::BatchSource;
use adaptive_deep_reuse::models::ConvMode;
use adaptive_deep_reuse::nn::checkpoint::Checkpoint;
use adaptive_deep_reuse::nn::dense::Dense;
use adaptive_deep_reuse::nn::relu::Relu;
use adaptive_deep_reuse::prelude::*;
use adaptive_deep_reuse::reuse::ReuseConfig;
use adaptive_deep_reuse::tensor::im2col::ConvGeom;

/// A small reuse CNN; the same seed always builds the same network.
fn build(seed: u64) -> Network {
    let mut rng = AdrRng::seeded(seed);
    let mut net = Network::new((16, 16, 3));
    let g1 = ConvGeom::new(16, 16, 3, 5, 5, 1, 2).unwrap();
    net.push(ConvMode::Reuse(ReuseConfig::new(5, 12, false)).build("conv1", g1, 16, &mut rng));
    net.push(Box::new(Relu::new("relu1")));
    let g2 = ConvGeom::new(16, 16, 16, 3, 3, 2, 1).unwrap();
    net.push(ConvMode::Reuse(ReuseConfig::new(8, 10, false)).build("conv2", g2, 16, &mut rng));
    net.push(Box::new(Relu::new("relu2")));
    net.push(Box::new(Dense::new("fc", 8 * 8 * 16, 4, &mut rng)));
    net
}

fn make_source(seed: u64) -> DatasetSource {
    let mut rng = AdrRng::seeded(seed);
    let cfg = SynthConfig {
        num_images: 200,
        num_classes: 4,
        height: 16,
        width: 16,
        channels: 3,
        smoothing_passes: 2,
        noise_std: 0.08,
        max_shift: 2,
        image_variability: 0.4,
    };
    DatasetSource::new(SynthDataset::generate(&cfg, &mut rng), 16, 32)
}

fn main() {
    println!("crash-safe training: checkpoint, kill, resume\n");
    let config = TrainerConfig { max_iterations: 150, eval_every: 25, ..Default::default() };
    let state_path = std::env::temp_dir().join("adr_example_train_state.adrs");
    std::fs::remove_file(&state_path).ok();

    // Phase 1: train under the adaptive strategy with full-state
    // checkpoints every 25 iterations — and simulate a crash at 90: a run
    // whose budget ends there writes the same checkpoints up to that point.
    let mut net = build(7);
    let mut sgd =
        Sgd::new(LrSchedule::InverseTime { base: 0.03, rate: 0.005 }, 0.9, 0.0).with_clip_norm(5.0);
    let mut source = make_source(5);
    let killed = Trainer::new(TrainerConfig { max_iterations: 90, ..config.clone() });
    let interrupted = killed
        .train_with(
            &mut net,
            Strategy::adaptive(),
            &mut source,
            &mut sgd,
            TrainOptions {
                checkpoint: Some(CheckpointPolicy::new(&state_path, 25)),
                ..Default::default()
            },
        )
        .unwrap();
    println!(
        "phase 1 'crashed' after {} iterations (accuracy so far {:.3})",
        interrupted.iterations_run, interrupted.final_accuracy
    );

    // Phase 2: a fresh process — rebuild network + optimiser + data from
    // the same seeds, load the TrainState, and continue. The resumed run
    // finishes exactly as an uninterrupted one would: parameters, SGD
    // momentum, controller stage and FLOP counters come back from the
    // snapshot, and the source yields batch `i` for iteration `i` again.
    let state = TrainState::load(&state_path).expect("checkpoint written before the kill");
    println!(
        "\nresuming from {} (captured at iteration {})",
        state_path.display(),
        state.iteration
    );
    let mut net2 = build(7);
    let mut sgd2 =
        Sgd::new(LrSchedule::InverseTime { base: 0.03, rate: 0.005 }, 0.9, 0.0).with_clip_norm(5.0);
    let mut source2 = make_source(5);
    let finished = Trainer::new(config)
        .train_with(
            &mut net2,
            Strategy::adaptive(),
            &mut source2,
            &mut sgd2,
            TrainOptions { resume: Some(state), ..Default::default() },
        )
        .unwrap();
    println!("\n{}", finished.summary());

    // Hand-off: the lighter parameter-only checkpoint (no optimiser or
    // controller state) is still the right artifact for shipping weights.
    let weights_path = std::env::temp_dir().join("adr_example_weights.adr");
    Checkpoint::capture(&mut net2).save(&weights_path).expect("save weights");
    let mut fresh = build(99);
    Checkpoint::load(&weights_path)
        .expect("load weights")
        .restore(&mut fresh)
        .expect("architecture matches");
    let (probe_x, probe_y) = source2.probe();
    let warm = fresh.evaluate(&probe_x, &probe_y);
    println!("\nparameter-only hand-off: fresh net restored to accuracy {:.3}", warm.accuracy);
    std::fs::remove_file(&state_path).ok();
    std::fs::remove_file(&weights_path).ok();
}
