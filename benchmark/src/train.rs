//! The three fixed-mode training workloads: `train_dense`, `train_reuse`
//! and `train_vgg_reuse`. One `Network::train_batch` call is one step.

use std::rc::Rc;
use std::time::{Duration, Instant};

use adaptive_deep_reuse::adaptive::trainer::BatchSource;
use adaptive_deep_reuse::models::{cifarnet, vgg19, ConvMode};
use adaptive_deep_reuse::nn::conv::Conv2d;
use adaptive_deep_reuse::nn::network::StepResult;
use adaptive_deep_reuse::nn::softmax::softmax_cross_entropy;
use adaptive_deep_reuse::obs::{self, Recorder, PHASE_TIME_METRIC};
use adaptive_deep_reuse::prelude::*;

use crate::host::{self, Yardstick};
use crate::outcome::Outcome;
use crate::trace::Tracer;
use crate::{micro, stats, RunOpts};

/// Untimed steps before the clock starts, so first-touch allocation and the
/// worker pool's start-up are not measured.
pub const WARMUP_STEPS: usize = 5;
/// Times a training workload is set up in one run; `setup_s` is the median.
/// Set-up takes tens of milliseconds here, so repeats are cheap.
const SETUP_REPEATS: usize = 15;
/// Leading steps on which a plainly trained twin must reproduce the traced
/// net's losses bit for bit.
const BITWISE_STEPS: usize = 24;
/// Steps a net has trained for before its probe accuracy is held to a floor.
/// A crowded host fits fewer steps into the measuring time; the difference is
/// made up with untimed steps, so that the check does not depend on the host.
const STEPS_BEFORE_ACCURACY: usize = 100;
/// Leading losses folded into `nn.loss_checksum`; every run gets this far.
const CHECKSUM_STEPS: usize = 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    Cifarnet,
    Vgg19,
}

impl Model {
    pub fn build(self, classes: usize, mode: ConvMode, rng: &mut AdrRng) -> Network {
        match self {
            Model::Cifarnet => cifarnet::bench_scale(classes, mode, rng),
            Model::Vgg19 => vgg19::bench_scale(classes, mode, rng),
        }
    }

    pub fn input(self) -> (usize, usize, usize) {
        match self {
            Model::Cifarnet => (16, 16, 3),
            Model::Vgg19 => (32, 32, 3),
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct TrainSpec {
    pub model: Model,
    pub mode: ConvMode,
    pub batch: usize,
    pub classes: usize,
    /// Images held out of the training stream as the probe batch.
    pub probe: usize,
    /// What the trained net must reach; `None` for the deep VGG stack, which
    /// stays near chance loss for the first few hundred steps and is only
    /// required not to diverge.
    pub min_probe_acc: Option<f32>,
}

/// A built workload: model, data and optimizer, with the time each took.
pub struct Ready {
    pub net: Network,
    pub source: DatasetSource,
    pub sgd: Sgd,
    pub generate_s: f64,
    pub build_ms: f64,
}

/// The `adr train` template settings: structured per-class templates, never
/// Gaussian noise (a model that cannot learn measures nothing about reuse).
pub fn dataset(input: (usize, usize, usize), classes: usize, seed: u64) -> SynthDataset {
    let cfg = SynthConfig {
        num_images: 480,
        num_classes: classes,
        height: input.0,
        width: input.1,
        channels: input.2,
        smoothing_passes: 2,
        noise_std: 0.08,
        max_shift: (input.0 / 10).max(1),
        image_variability: 0.5,
    };
    SynthDataset::generate(&cfg, &mut AdrRng::seeded(seed))
}

/// The `adr train` optimizer.
pub fn optimizer() -> Sgd {
    Sgd::new(LrSchedule::InverseTime { base: 0.02, rate: 0.005 }, 0.9, 0.0).with_clip_norm(5.0)
}

pub fn make_ready(spec: &TrainSpec, seed: u64) -> Ready {
    let t0 = Instant::now();
    let data = dataset(spec.model.input(), spec.classes, seed);
    let source = DatasetSource::new(data, spec.batch, spec.probe);
    let generate_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let net = spec.model.build(spec.classes, spec.mode, &mut AdrRng::seeded(seed));
    let build_ms = host::ms(t1.elapsed());
    Ready { net, source, sgd: optimizer(), generate_s, build_ms }
}

/// Sets a workload up `repeats` times; returns the last instance and the
/// median time of one set-up in seconds, at nominal host speed.
pub fn timed_setup<T>(
    repeats: usize,
    yardstick: &mut Yardstick,
    mut build: impl FnMut(&mut Yardstick) -> T,
) -> (T, f64) {
    let mut spans = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        yardstick.read();
        let t0 = Instant::now();
        last = Some(build(yardstick));
        spans.push((t0, Instant::now()));
    }
    yardstick.read();
    let setup_s = stats::median(&yardstick.normalized_ms(&spans)) / 1e3;
    (last.expect("at least one set-up ran"), setup_s)
}

/// [`timed_setup`] of a training workload.
pub fn timed_ready(spec: &TrainSpec, seed: u64, yardstick: &mut Yardstick) -> (Ready, f64) {
    timed_setup(SETUP_REPEATS, yardstick, |_| make_ready(spec, seed))
}

/// FNV-1a over the bit patterns of `losses`, folded to 48 bits so the value
/// survives a trip through a JSON double.
pub fn loss_checksum(losses: &[f32]) -> f64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in losses.iter().flat_map(|l| l.to_bits().to_le_bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    ((hash >> 48) ^ (hash & 0xffff_ffff_ffff)) as f64
}

fn mean_loss(losses: &[f32]) -> f64 {
    stats::mean(&losses.iter().map(|&l| f64::from(l)).collect::<Vec<_>>())
}

/// Checks shared by the traced and untraced runs: every loss finite, and the
/// model learned what the workload says it must. Returns the probe accuracy.
fn check_training(
    out: &mut Outcome,
    spec: &TrainSpec,
    ready: &mut Ready,
    losses: &[f32],
    smoke: bool,
) -> f32 {
    let non_finite = losses.iter().filter(|l| !l.is_finite()).count();
    out.failed += non_finite as u64;
    out.check("losses finite", non_finite == 0, format!("{non_finite} of {}", losses.len()));
    if !smoke && spec.min_probe_acc.is_some() {
        let batches = ready.source.num_batches();
        for index in losses.len()..STEPS_BEFORE_ACCURACY {
            let (images, labels) = ready.source.batch(index % batches);
            ready.net.train_batch(&images, &labels, &mut ready.sgd);
        }
    }
    let (images, labels) = ready.source.probe();
    let eval = ready.net.evaluate(&images, &labels);
    out.note(format!("probe accuracy {:.3}, probe loss {:.4}", eval.accuracy, eval.loss));
    if smoke {
        return eval.accuracy;
    }
    match spec.min_probe_acc {
        Some(min) => out.check(
            "probe accuracy",
            eval.accuracy >= min,
            format!("{:.3} against a floor of {min}", eval.accuracy),
        ),
        None => {
            let first = mean_loss(&losses[..losses.len().min(20)]);
            let last = last_mean(losses, 20);
            out.check(
                "loss not rising",
                last <= first * 1.05,
                format!("last 20 steps {last:.4}, first 20 steps {first:.4}"),
            );
        }
    }
    eval.accuracy
}

fn last_mean(losses: &[f32], n: usize) -> f64 {
    mean_loss(&losses[losses.len().saturating_sub(n)..])
}

/// `--trace 0`: plain steps for `opts.seconds`, nothing installed.
pub fn run_untraced(spec: &TrainSpec, opts: &RunOpts, yardstick: &mut Yardstick) -> Outcome {
    let mut out = Outcome::default();
    let (mut ready, setup_s) = timed_ready(spec, opts.seed, yardstick);
    let batches = ready.source.num_batches();
    let mut losses = Vec::new();
    for index in 0..WARMUP_STEPS {
        let (images, labels) = ready.source.batch(index % batches);
        losses.push(ready.net.train_batch(&images, &labels, &mut ready.sgd).loss);
    }
    // A cycle is what a user waits for per batch: the fetch and the step.
    let (mut steps, mut cycles) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut index = WARMUP_STEPS;
    while start.elapsed() < budget {
        yardstick.tick();
        let t0 = Instant::now();
        let (images, labels) = ready.source.batch(index % batches);
        let t1 = Instant::now();
        let step = ready.net.train_batch(&images, &labels, &mut ready.sgd);
        let t2 = Instant::now();
        steps.push((t1, t2));
        cycles.push((t0, t2));
        losses.push(step.loss);
        index += 1;
    }
    yardstick.read();
    out.attempted = steps.len() as u64;
    out.set("step_ms", stats::median(&yardstick.normalized_ms(&steps)));
    out.set(
        "samples_per_s",
        spec.batch as f64 * 1e3 / stats::median(&yardstick.normalized_ms(&cycles)),
    );
    out.set("setup_s", setup_s);
    let raw: Vec<f64> = steps.iter().map(|&s| host::raw_ms(s)).collect();
    out.note(format!(
        "raw step_ms {}; host factor {:.3}",
        stats::summarize(&raw),
        yardstick.median_factor()
    ));
    check_training(&mut out, spec, &mut ready, &losses, opts.smoke);
    out.set("peak_rss_mb", host::peak_rss_mb());
    out
}

/// Whose span a layer's forward and backward calls are charged to.
fn span_prefix(layer: &dyn Layer) -> &'static str {
    let any = layer.as_any();
    if any.is_some_and(|a| a.is::<ReuseConv2d>()) {
        "reuse.conv"
    } else if any.is_some_and(|a| a.is::<Conv2d>()) {
        "nn.conv"
    } else {
        "nn.other"
    }
}

/// Span names of one traced step, interned before the clock starts.
struct StepSpans {
    step: usize,
    batch: usize,
    loss: usize,
    sgd: usize,
    /// `(forward, backward)` per layer, in layer order.
    layers: Vec<(usize, usize)>,
}

impl StepSpans {
    fn new(tracer: &mut Tracer, net: &Network) -> Self {
        let layers = net
            .layers()
            .iter()
            .map(|layer| {
                let prefix = span_prefix(layer.as_ref());
                (
                    tracer.name(&format!("{prefix}_fwd/{}", layer.name())),
                    tracer.name(&format!("{prefix}_bwd/{}", layer.name())),
                )
            })
            .collect();
        Self {
            step: tracer.name("step"),
            batch: tracer.name("data.batch"),
            loss: tracer.name("nn.loss"),
            sgd: tracer.name("nn.sgd"),
            layers,
        }
    }
}

/// `Network::train_batch_with` re-implemented over `layers_mut()` with a span
/// around every call into a layer, the loss and the optimizer. Same calls in
/// the same order, so the losses equal the untraced ones bit for bit.
fn spanned_step(
    ready: &mut Ready,
    index: usize,
    tracer: &mut Tracer,
    names: &StepSpans,
) -> StepResult {
    let group = index as u64;
    let root = tracer.begin(names.step, group);
    let batches = ready.source.num_batches();
    let (images, labels) = tracer.span(names.batch, group, || ready.source.batch(index % batches));
    let mut x = images;
    for (layer, &(fwd, _)) in ready.net.layers_mut().iter_mut().zip(&names.layers) {
        x = tracer.span(fwd, group, || layer.forward(&x, Mode::Train));
    }
    let loss_out = tracer.span(names.loss, group, || softmax_cross_entropy(&x, &labels));
    let mut grad = loss_out.grad;
    for (layer, &(_, bwd)) in ready.net.layers_mut().iter_mut().zip(&names.layers).rev() {
        grad = tracer.span(bwd, group, || layer.backward(&grad));
    }
    tracer.span(names.sgd, group, || {
        let mut params: Vec<_> =
            ready.net.layers_mut().iter_mut().flat_map(|l| l.params_mut()).collect();
        Optimizer::step(&mut ready.sgd, &mut params);
    });
    tracer.end(root);
    let correct = loss_out.predictions.iter().zip(&labels).filter(|(p, l)| p == l).count();
    StepResult { loss: loss_out.loss, correct, batch_size: labels.len() }
}

/// Sum of the program's own phase timer `phase` over all layers, in ms.
pub fn phase_ms(recorder: &Recorder, phase: &str) -> f64 {
    let label = format!("phase=\"{phase}\"");
    recorder
        .times()
        .iter()
        .filter(|(key, _)| key.starts_with(PHASE_TIME_METRIC) && key.contains(&label))
        .map(|(_, stat)| stat.total_ns as f64 / 1e6)
        .sum()
}

/// `--trace 1`: the same seeded training with every third step plain, every
/// third under the program's `Recorder`, every third under benchmark spans,
/// so the three medians differ only by what measuring costs.
pub fn run_traced(spec: &TrainSpec, opts: &RunOpts, yardstick: &mut Yardstick) -> Outcome {
    let mut out = Outcome::default();
    let mut ready = make_ready(spec, opts.seed);
    let mut twin = make_ready(spec, opts.seed);
    let batches = ready.source.num_batches();
    let recorder = Recorder::new();
    let mut tracer = Tracer::new();
    let names = StepSpans::new(&mut tracer, &ready.net);

    let (mut plain_ms, mut recorded_ms, mut spanned_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut losses, mut twin_losses) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut start = Instant::now();
    let mut index = 0;
    while index < WARMUP_STEPS + BITWISE_STEPS || start.elapsed() < budget {
        if index == WARMUP_STEPS {
            start = Instant::now();
        }
        yardstick.tick();
        if index < BITWISE_STEPS {
            let (images, labels) = twin.source.batch(index % batches);
            twin_losses.push(twin.net.train_batch(&images, &labels, &mut twin.sgd).loss);
        }
        let t0 = Instant::now();
        let (loss, sink) = match index % 3 {
            0 => {
                let (images, labels) = ready.source.batch(index % batches);
                (ready.net.train_batch(&images, &labels, &mut ready.sgd).loss, &mut plain_ms)
            }
            1 => {
                let _guard = obs::install(Rc::new(recorder.clone()));
                obs::begin_step();
                let (images, labels) = ready.source.batch(index % batches);
                (ready.net.train_batch(&images, &labels, &mut ready.sgd).loss, &mut recorded_ms)
            }
            _ => (spanned_step(&mut ready, index, &mut tracer, &names).loss, &mut spanned_ms),
        };
        if index >= WARMUP_STEPS {
            sink.push(host::ms(t0.elapsed()));
        }
        losses.push(loss);
        index += 1;
    }
    out.attempted = (index - WARMUP_STEPS) as u64;

    let bitwise = twin_losses.iter().zip(&losses).all(|(a, b)| a.to_bits() == b.to_bits());
    out.check(
        "traced losses bitwise equal to untraced",
        bitwise && twin_losses.len() == BITWISE_STEPS,
        format!("first {BITWISE_STEPS} steps"),
    );
    drop(twin);

    // Spans: mean milliseconds per spanned step, by the crate charged.
    let totals = tracer.totals();
    let spanned_steps = totals.get("step").map_or(0, |t| t.count).max(1) as f64;
    // Span names are `<crate>.<kind>_<direction>/<layer>`; a metric sums a prefix.
    for prefix in [
        "nn.conv_fwd",
        "nn.conv_bwd",
        "nn.other_fwd",
        "nn.other_bwd",
        "nn.loss",
        "nn.sgd",
        "reuse.conv_fwd",
        "reuse.conv_bwd",
    ] {
        let of_prefix = totals.iter().filter(|(name, _)| name.split('/').next() == Some(prefix));
        let total_ns: u64 = of_prefix.map(|(_, t)| t.total_ns).sum();
        out.set(&format!("{prefix}_ms"), total_ns as f64 / 1e6 / spanned_steps);
    }
    let (step_total_ms, step_self_ms) = tracer.total_ms("step");
    let unattributed = 100.0 * step_self_ms / step_total_ms.max(f64::MIN_POSITIVE);
    out.set("obs.unattributed_pct", unattributed);
    out.check(
        "step time attributed to named spans",
        opts.smoke || unattributed <= 5.0,
        format!("root-span self time {unattributed:.2}% of the step"),
    );
    out.set("data.batch_ms_p50", stats::median(&tracer.durations_ms("data.batch")));

    // The program's own phase timers, per recorded step.
    let recorded_steps = (1..index).step_by(3).count().max(1) as f64;
    for phase in ["im2col", "hash", "cluster", "centroid_gemm", "scatter"] {
        out.set(&format!("reuse.{phase}_ms"), phase_ms(&recorder, phase) / recorded_steps);
    }

    let plain = stats::median(&plain_ms);
    out.set("obs.recorder_overhead_pct", 100.0 * (stats::median(&recorded_ms) - plain) / plain);
    out.set("obs.trace_overhead_pct", 100.0 * (stats::median(&spanned_ms) - plain) / plain);
    out.set("nn.step_ms_p50", plain);
    out.set("nn.step_ms_p90", stats::percentile(&plain_ms, 90.0));
    out.set("obs.host_factor", yardstick.median_factor());
    out.note(format!("plain step_ms {}", stats::summarize(&plain_ms)));
    out.note(format!("recorded step_ms {}", stats::summarize(&recorded_ms)));
    out.note(format!("spanned step_ms {}", stats::summarize(&spanned_ms)));

    let accuracy = check_training(&mut out, spec, &mut ready, &losses, opts.smoke);
    out.set("nn.probe_acc", f64::from(accuracy));
    let (probe_images, probe_labels) = ready.source.probe();
    let evaluate = || ready.net.evaluate(&probe_images, &probe_labels);
    out.set("core.probe_eval_ms_p50", micro::median_ms(5, evaluate));
    out.set("nn.loss_last20", last_mean(&losses, 20));
    out.set("nn.loss_checksum", loss_checksum(&losses[..CHECKSUM_STEPS.min(losses.len())]));

    reuse_counts(&mut out, &mut ready.net);
    out.set("data.generate_s", ready.generate_s);
    out.set("models.build_ms", ready.build_ms);
    out.set("models.param_count", ready.net.param_count() as f64);
    checkpoint_cost(&mut out, &mut ready.net, opts);

    let (images, _) = ready.source.batch(0);
    micro::kernels(&mut out, &mut ready.net, &images, opts);

    if let Err(e) =
        tracer.write_jsonl(&opts.run_dir.join(format!("{}.trace.jsonl", opts.workload.name())))
    {
        out.check("trace written", false, e.to_string());
    }
    out
}

/// Exact work counts from the reuse layers' own statistics and FLOP meters.
pub fn reuse_counts(out: &mut Outcome, net: &mut Network) {
    let stats: Vec<_> = net
        .layers()
        .iter()
        .filter_map(|l| l.as_any().and_then(|a| a.downcast_ref::<ReuseConv2d>()))
        .map(|r| (r.stats(), r.mean_reuse_rate()))
        .collect();
    if stats.is_empty() {
        return;
    }
    let mean = |f: &dyn Fn(&(adaptive_deep_reuse::reuse::ReuseStats, f64)) -> f64| {
        stats.iter().map(f).sum::<f64>() / stats.len() as f64
    };
    out.set("reuse.rc_mean", mean(&|s| s.0.avg_remaining_ratio));
    out.set("reuse.clusters_mean", mean(&|s| s.0.avg_clusters));
    out.set("reuse.cr_hit_rate", mean(&|s| s.1));
    let (actual, exact) = (net.flops().total(), net.baseline_flops().total());
    if exact > 0 {
        out.set("reuse.flop_savings", 1.0 - actual as f64 / exact as f64);
    }
}

/// Time and size of an ADR1 checkpoint of `net`, written under the run's own
/// directory and removed again.
fn checkpoint_cost(out: &mut Outcome, net: &mut Network, opts: &RunOpts) {
    let path = opts.run_dir.join("train.adr1");
    let mut save = || Checkpoint::capture(net).save(&path);
    if let Err(e) = save() {
        out.check("checkpoint saved", false, e.to_string());
        return;
    }
    out.set("nn.checkpoint_save_ms", micro::median_ms(3, save));
    out.set("nn.checkpoint_bytes", std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64));
    let _ = std::fs::remove_file(&path);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_checksum_sees_one_flipped_bit_and_fits_a_double() {
        let a = [1.25f32, 0.5, 0.125];
        let mut b = a;
        b[1] = f32::from_bits(b[1].to_bits() ^ 1);
        assert_ne!(loss_checksum(&a), loss_checksum(&b));
        assert!(loss_checksum(&a) < (1u64 << 53) as f64);
        assert_eq!(loss_checksum(&a), loss_checksum(&a));
    }

    #[test]
    fn spanned_steps_reproduce_plain_losses_bitwise() {
        let spec = TrainSpec {
            model: Model::Cifarnet,
            mode: ConvMode::reuse_default(),
            batch: 4,
            classes: 4,
            probe: 32,
            min_probe_acc: None,
        };
        let mut plain = make_ready(&spec, 7);
        let mut spanned = make_ready(&spec, 7);
        let mut tracer = Tracer::new();
        let names = StepSpans::new(&mut tracer, &spanned.net);
        for index in 0..3 {
            let (images, labels) = plain.source.batch(index);
            let a = plain.net.train_batch(&images, &labels, &mut plain.sgd).loss;
            let b = spanned_step(&mut spanned, index, &mut tracer, &names).loss;
            assert_eq!(a.to_bits(), b.to_bits(), "step {index}");
        }
        // One root, one batch fetch, loss, sgd, and two spans per layer.
        let per_step = 4 + 2 * spanned.net.len();
        assert_eq!(tracer.totals().values().map(|t| t.count).sum::<u64>(), 3 * per_step as u64);
    }
}
