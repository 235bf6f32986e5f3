//! `train_adaptive`: the paper's headline path. `Trainer::train` drives the
//! adaptive `{L, H}` controller until the probe reaches the target accuracy;
//! one trainer iteration (batch fetch, step, controller, periodic probe
//! evaluation) is a step.
//!
//! The trainer is a single call, so the benchmark sees inside it only through
//! the `BatchSource` it hands over: every `batch()` call is an iteration
//! boundary, stamped from outside.

use std::rc::Rc;
use std::time::{Duration, Instant};

use adaptive_deep_reuse::adaptive::report::TrainReport;
use adaptive_deep_reuse::adaptive::trainer::BatchSource;
use adaptive_deep_reuse::models::ConvMode;
use adaptive_deep_reuse::obs::{self, Recorder};
use adaptive_deep_reuse::prelude::*;

use crate::host::{self, Yardstick};
use crate::outcome::Outcome;
use crate::trace::Tracer;
use crate::train::{self, Model, TrainSpec};
use crate::{micro, stats, RunOpts};

const TARGET_ACCURACY: f32 = 0.8;
const MAX_ITERATIONS: usize = 600;
/// Iterations a `--smoke` run stops at, target or not.
const SMOKE_ITERATIONS: usize = 30;
const BATCH: usize = 16;

fn max_iterations(opts: &RunOpts) -> usize {
    if opts.smoke {
        SMOKE_ITERATIONS
    } else {
        MAX_ITERATIONS
    }
}

fn spec(mode: ConvMode) -> TrainSpec {
    TrainSpec {
        model: Model::Cifarnet,
        mode,
        batch: BATCH,
        classes: 10,
        probe: 64,
        min_probe_acc: Some(TARGET_ACCURACY),
    }
}

/// A [`DatasetSource`] that stamps every `batch()` call, and lets the
/// yardstick read the host there, between two iterations.
struct Stamped<'a> {
    inner: DatasetSource,
    yardstick: &'a mut Yardstick,
    /// `(entered, fetch start, fetch end)` of every `batch()` call; the
    /// yardstick's reading, if one was due, lies between the first two.
    calls: Vec<(Instant, Instant, Instant)>,
}

impl BatchSource for Stamped<'_> {
    fn num_batches(&self) -> usize {
        self.inner.num_batches()
    }

    fn batch(&mut self, index: usize) -> (Tensor4, Vec<usize>) {
        let entered = Instant::now();
        self.yardstick.tick();
        let start = Instant::now();
        let batch = self.inner.batch(index);
        self.calls.push((entered, start, Instant::now()));
        batch
    }

    fn probe(&mut self) -> (Tensor4, Vec<usize>) {
        self.inner.probe()
    }
}

/// One `Trainer::train` call to the target, seen from outside.
struct Trained {
    report: TrainReport,
    net: Network,
    wall: Duration,
    /// `(start, end)` of every iteration: from its batch fetch to the next
    /// `batch()` call, the last one to the trainer's return (its closing
    /// probe evaluation included).
    iterations: Vec<(Instant, Instant)>,
    /// `(start, end)` of every batch fetch.
    fetches: Vec<(Instant, Instant)>,
    generate_s: f64,
    build_ms: f64,
}

impl Trained {
    fn iteration_ms(&self) -> Vec<f64> {
        self.iterations.iter().map(|&i| host::raw_ms(i)).collect()
    }

    fn reached_target(&self) -> bool {
        self.report.iterations_to_target.is_some()
    }
}

fn train_to_target(
    strategy: Strategy,
    mode: ConvMode,
    seed: u64,
    max_iterations: usize,
    yardstick: &mut Yardstick,
) -> Result<Trained, String> {
    let ready = train::make_ready(&spec(mode), seed);
    let (mut net, mut sgd) = (ready.net, ready.sgd);
    let mut source = Stamped { inner: ready.source, yardstick, calls: Vec::new() };
    let trainer = Trainer::new(TrainerConfig {
        max_iterations,
        target_accuracy: Some(TARGET_ACCURACY),
        eval_every: 10,
        ..TrainerConfig::default()
    });
    let start = Instant::now();
    let report =
        trainer.train(&mut net, strategy, &mut source, &mut sgd).map_err(|e| e.to_string())?;
    let end = Instant::now();
    source.yardstick.read();
    let next_entered = source.calls.iter().skip(1).map(|c| c.0).chain([end]);
    let iterations = source.calls.iter().map(|c| c.1).zip(next_entered).collect();
    Ok(Trained {
        report,
        net,
        wall: end - start,
        iterations,
        fetches: source.calls.iter().map(|c| (c.1, c.2)).collect(),
        generate_s: ready.generate_s,
        build_ms: ready.build_ms,
    })
}

/// Requested measuring time one adaptive run to the target stands for; the
/// run count is fixed by `--seconds`, not by the clock, so that two runs of
/// the same commit train the same seeds.
const SECONDS_PER_SEED: f64 = 5.0;

/// `--trace 0`: adaptive runs to the target on seeds `s, s+1, …` back to
/// back, one per [`SECONDS_PER_SEED`] of `opts.seconds`.
pub fn run_untraced(opts: &RunOpts, yardstick: &mut Yardstick) -> Outcome {
    let mut out = Outcome::default();
    let (_, setup_s) = train::timed_ready(&spec(ConvMode::reuse_default()), opts.seed, yardstick);
    // Iteration times at nominal host speed, over all seeds.
    let (mut iteration_ms, mut raw_wall_s) = (Vec::new(), 0.0);
    let seeds =
        if opts.smoke { 1 } else { (opts.seconds / SECONDS_PER_SEED).round().max(1.0) as u64 };
    for seed in opts.seed..opts.seed + seeds {
        out.attempted += 1;
        let (strategy, mode) = (Strategy::adaptive(), ConvMode::reuse_default());
        match train_to_target(strategy, mode, seed, max_iterations(opts), yardstick) {
            Ok(run) => {
                out.note(format!(
                    "seed {seed}: {} iterations in {:.3} s, final accuracy {:.3}, {} switches",
                    run.report.iterations_run,
                    run.wall.as_secs_f64(),
                    run.report.final_accuracy,
                    run.report.switches.len()
                ));
                if !(run.reached_target() || opts.smoke) {
                    out.failed += 1;
                }
                iteration_ms.extend(yardstick.normalized_ms(&run.iterations));
                raw_wall_s += run.wall.as_secs_f64();
            }
            Err(e) => out.check("trainer ran", false, e),
        }
    }
    out.check(
        "every seed reached the target",
        out.failed == 0,
        format!("{} of {} seeds short of {TARGET_ACCURACY}", out.failed, out.attempted),
    );
    // Iterations differ by stage, and every tenth carries a probe evaluation:
    // their median flips between two modes from seed to seed (38–48 ms over
    // ten seeds), so a step here is the mean iteration, the costly ones
    // included, and the throughput is the same sum seen from the other side.
    out.set("step_ms", stats::mean(&iteration_ms));
    let images = (iteration_ms.len() * BATCH) as f64;
    out.set("samples_per_s", images * 1e3 / iteration_ms.iter().sum::<f64>());
    out.set("setup_s", setup_s);
    out.note(format!(
        "iteration_ms at nominal host speed {}; raw {:.1} img/s; host factor {:.3}",
        stats::summarize(&iteration_ms),
        images / raw_wall_s,
        yardstick.median_factor()
    ));
    out.set("peak_rss_mb", host::peak_rss_mb());
    out
}

/// `--trace 1`: one adaptive run under the program's `Recorder` with a span
/// per iteration, then the dense twin on the same seed.
pub fn run_traced(opts: &RunOpts, yardstick: &mut Yardstick) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let recorder = Recorder::new();
    let (seed, limit) = (opts.seed, max_iterations(opts));
    let adaptive = {
        let _guard = obs::install(Rc::new(recorder.clone()));
        train_to_target(Strategy::adaptive(), ConvMode::reuse_default(), seed, limit, yardstick)
    };
    let dense = train_to_target(Strategy::baseline(), ConvMode::Dense, seed, limit, yardstick);
    let (mut adaptive, dense) = match (adaptive, dense) {
        (Ok(a), Ok(d)) => (a, d),
        (Err(e), _) | (_, Err(e)) => {
            out.check("trainer ran", false, e);
            return out;
        }
    };
    out.attempted = 2;
    for (label, run) in [("adaptive", &adaptive), ("dense", &dense)] {
        out.check(
            &format!("{label} reached the target"),
            run.reached_target() || opts.smoke,
            format!(
                "{} iterations, final accuracy {:.3}",
                run.report.iterations_run, run.report.final_accuracy
            ),
        );
    }

    let (iteration, batch) = (tracer.name("core.iteration"), tracer.name("data.batch"));
    for (i, (&(start, end), &(_, fetched))) in
        adaptive.iterations.iter().zip(&adaptive.fetches).enumerate()
    {
        let root = tracer.record(iteration, i as u64, start, end, None);
        tracer.record(batch, i as u64, start, fetched, Some(root));
    }
    out.set("obs.host_factor", yardstick.median_factor());
    let iterations = adaptive.iterations.len().max(1) as f64;
    out.set("data.batch_ms_p50", stats::median(&tracer.durations_ms("data.batch")));
    for phase in ["im2col", "hash", "cluster", "centroid_gemm", "scatter"] {
        out.set(&format!("reuse.{phase}_ms"), train::phase_ms(&recorder, phase) / iterations);
    }
    let iteration_ms = adaptive.iteration_ms();
    out.set("nn.step_ms_p50", stats::median(&iteration_ms));
    out.set("nn.step_ms_p90", stats::percentile(&iteration_ms, 90.0));
    out.note(format!("adaptive iteration_ms {}", stats::summarize(&iteration_ms)));
    out.note(format!("dense iteration_ms {}", stats::summarize(&dense.iteration_ms())));
    for switch in &adaptive.report.switches {
        out.note(format!("switch @{}: {}", switch.iteration, switch.description));
    }

    let (tta, dense_tta) = (adaptive.wall.as_secs_f64(), dense.wall.as_secs_f64());
    out.set("core.time_to_acc_s", tta);
    out.set("core.dense_time_to_acc_s", dense_tta);
    out.set("core.tta_ratio_vs_dense", tta / dense_tta);
    out.note(format!(
        "time to {TARGET_ACCURACY}: adaptive {tta:.3} s over dense {dense_tta:.3} s = {:.3} \
         (base: dense twin, same seed; below 1 means adaptive is faster)",
        tta / dense_tta
    ));
    out.set("core.steps_to_acc", adaptive.report.iterations_run as f64);
    out.set("core.switches", adaptive.report.switches.len() as f64);
    out.set("core.final_accuracy", f64::from(adaptive.report.final_accuracy));
    out.set("nn.probe_acc", f64::from(adaptive.report.final_accuracy));
    out.set("nn.loss_last20", f64::from(adaptive.report.final_loss));

    train::reuse_counts(&mut out, &mut adaptive.net);
    out.set("data.generate_s", adaptive.generate_s);
    out.set("models.build_ms", adaptive.build_ms);
    out.set("models.param_count", adaptive.net.param_count() as f64);

    let mut ready = train::make_ready(&spec(ConvMode::reuse_default()), opts.seed);
    let (probe_images, probe_labels) = ready.source.probe();
    let evaluate = || adaptive.net.evaluate(&probe_images, &probe_labels);
    out.set("core.probe_eval_ms_p50", micro::median_ms(5, evaluate));
    let (images, _) = ready.source.batch(0);
    micro::kernels(&mut out, &mut adaptive.net, &images, opts);

    let trace_path = opts.run_dir.join(format!("{}.trace.jsonl", opts.workload.name()));
    if let Err(e) = tracer.write_jsonl(&trace_path) {
        out.check("trace written", false, e.to_string());
    }
    out
}
