//! The two serving workloads: one `Gateway`, one tenant, one ladder stage,
//! run as a one-core replica. One `Gateway::poll` of a full batch is a step;
//! one answered request is a sample.
//!
//! The ladder is pinned to a single stage because on a real clock the
//! default four-stage ladder moves on wall-time pressure, which makes every
//! number bistable. The process is pinned to one core (see `host`) because a
//! shared second vCPU made capacity swing by a third between identical runs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use adaptive_deep_reuse::adaptive::trainer::BatchSource;
use adaptive_deep_reuse::models::ConvMode;
use adaptive_deep_reuse::prelude::*;

use crate::host::Yardstick;
use crate::outcome::Outcome;
use crate::trace::Tracer;
use crate::train::{self, Model, TrainSpec};
use crate::{arrivals, host, micro, stats, RunOpts};

const MODEL: &str = "cifarnet";
const TENANT: &str = "bench";
const CLASSES: usize = 4;
const MAX_BATCH: usize = 8;
/// Dense training steps behind the served checkpoint.
const CHECKPOINT_STEPS: usize = 30;
/// Further steps behind the checkpoint the hot swap moves to.
const SWAP_EXTRA_STEPS: usize = 5;
/// One submission in this many is malformed (wrong shape, NaN pixel, ...).
const MALFORMED_EVERY: u64 = 50;
/// Distinct request images, cycled.
const REQUEST_IMAGES: usize = 256;
/// Full batches whose answers are checked against the dense oracle.
const EXACT_SAMPLE_BATCHES: usize = 8;
const REUSE_SAMPLE_BATCHES: usize = 32;
/// Share of sampled exact-stage answers that must equal the oracle's bit for
/// bit, and how far the others may lie from it relative to the largest logit.
const EXACT_MIN_BITWISE_SHARE: f64 = 0.9;
const EXACT_MAX_RELATIVE_GAP: f32 = 0.05;
/// Open-loop latency limit: a request answered later than this, or not at
/// all, misses.
const LATENCY_LIMIT_MS: f64 = 50.0;
/// Times the serving rig is built in one run (seconds each); `setup_s` is the
/// median.
const SETUP_REPEATS: usize = 3;
/// Requests the unpinned capacity probe serves.
const MT_PROBE_REQUESTS: u64 = 2_000;

#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    pub stage: StagePolicy,
    /// Open-loop arrival rates in requests per second, frozen: about a third
    /// and a half of the quiet host's saturated capacity. Higher rates
    /// (350 and 700) overran the replica whenever the host was crowded.
    pub open_rates: (f64, f64),
}

fn dense_spec() -> TrainSpec {
    TrainSpec {
        model: Model::Cifarnet,
        mode: ConvMode::Dense,
        batch: 16,
        classes: CLASSES,
        probe: 32,
        min_probe_acc: None,
    }
}

/// Everything a serving run needs, built from the seed.
struct Rig {
    gateway: Gateway,
    /// Request image `i` is image `i` of `dataset`, as a batch of one.
    images: Vec<Tensor4>,
    dataset: SynthDataset,
    checkpoint: PathBuf,
    swap_checkpoint: PathBuf,
    generate_s: f64,
    build_ms: f64,
    save_ms: f64,
    register_ms: f64,
}

impl Drop for Rig {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.checkpoint);
        let _ = std::fs::remove_file(&self.swap_checkpoint);
    }
}

fn save(net: &mut Network, path: &Path) -> Result<(), String> {
    Checkpoint::capture(net).save(path).map_err(|e| format!("saving {}: {e}", path.display()))
}

fn make_rig(
    spec: &ServeSpec,
    seed: u64,
    run_dir: &Path,
    with_swap: bool,
    yardstick: &mut Yardstick,
) -> Result<Rig, String> {
    let mut ready = train::make_ready(&dense_spec(), seed);
    let batches = ready.source.num_batches();
    let mut step = |ready: &mut train::Ready, index: usize| {
        yardstick.tick();
        let (images, labels) = ready.source.batch(index % batches);
        ready.net.train_batch(&images, &labels, &mut ready.sgd);
    };
    (0..CHECKPOINT_STEPS).for_each(|i| step(&mut ready, i));
    let checkpoint = run_dir.join("serve.adr1");
    let swap_checkpoint = run_dir.join("serve-swap.adr1");
    let t0 = Instant::now();
    save(&mut ready.net, &checkpoint)?;
    let save_ms = host::ms(t0.elapsed());
    if with_swap {
        (CHECKPOINT_STEPS..CHECKPOINT_STEPS + SWAP_EXTRA_STEPS).for_each(|i| step(&mut ready, i));
        save(&mut ready.net, &swap_checkpoint)?;
    }

    let cfg =
        GatewayConfig { queue_capacity: 64, max_batch: MAX_BATCH, ..GatewayConfig::default() };
    let mut gateway = Gateway::new(cfg).map_err(|e| e.to_string())?;
    let tenant = TenantConfig {
        // Effectively unlimited: admission is measured, not the bucket.
        rate_per_sec: 1_000_000,
        burst: 1_000_000,
        default_deadline: Duration::from_secs(1),
        ladder: LadderConfig { stages: vec![spec.stage], ..LadderConfig::default() },
    };
    gateway.add_tenant(TENANT, tenant).map_err(|e| e.to_string())?;
    let factory: NetFactory = Box::new(move || {
        Model::Cifarnet.build(CLASSES, ConvMode::reuse_default(), &mut AdrRng::seeded(seed))
    });
    let t1 = Instant::now();
    gateway
        .register_model(MODEL, ArtifactKind::Adr1, &checkpoint, factory)
        .map_err(|e| e.to_string())?;
    let register_ms = host::ms(t1.elapsed());

    let dataset = ready.source.dataset().clone();
    let images = (0..REQUEST_IMAGES.min(dataset.len())).map(|i| dataset.gather(&[i]).0).collect();
    Ok(Rig {
        gateway,
        images,
        dataset,
        checkpoint,
        swap_checkpoint,
        generate_s: ready.generate_s,
        build_ms: ready.build_ms,
        save_ms,
        register_ms,
    })
}

/// A dense network restored from `checkpoint`: the oracle answers are
/// compared against.
fn dense_oracle(checkpoint: &Path, seed: u64) -> Result<Network, String> {
    let mut net = Model::Cifarnet.build(CLASSES, ConvMode::Dense, &mut AdrRng::seeded(seed));
    Checkpoint::load(checkpoint)
        .map_err(|e| e.to_string())?
        .restore(&mut net)
        .map_err(|e| e.to_string())?;
    Ok(net)
}

/// One full batch kept for comparison with the dense oracle: what was asked
/// and what was answered, in admission order.
struct SampledBatch {
    image_indices: Vec<usize>,
    logits: Vec<Vec<f32>>,
    classes: Vec<usize>,
}

/// The client side of the gateway: generates well-formed and malformed
/// submissions and keeps the tallies every phase shares.
#[derive(Default)]
struct Client {
    submitted: u64,
    /// Well-formed requests sent / answered `Ok` / answered `Err` or refused.
    sent: u64,
    ok: u64,
    failed: u64,
    /// Open-loop requests refused or answered `Err`: an open loop may outrun
    /// the server, so these miss the latency limit but fail no operation.
    open_missed: u64,
    malformed: u64,
    /// Malformed submissions refused with the matching typed error.
    rejected_typed: u64,
    submit_us: Vec<f64>,
    /// Image index of every request in flight, by request id.
    in_flight: BTreeMap<u64, usize>,
    samples: Vec<SampledBatch>,
    sample_batches: usize,
    non_finite_logits: u64,
}

impl Client {
    fn new(sample_batches: usize) -> Self {
        Self { sample_batches, ..Self::default() }
    }

    /// Submits the next request of the stream; every [`MALFORMED_EVERY`]th is
    /// malformed and must be refused with its own typed error, without ever
    /// counting as a failed operation. Returns the id of an admitted request.
    fn submit_next(&mut self, rig: &mut Rig) -> Option<u64> {
        self.submitted += 1;
        let index = (self.submitted as usize) % rig.images.len();
        if self.submitted.is_multiple_of(MALFORMED_EVERY) {
            self.malformed += 1;
            let wrong_shape = (self.malformed % 2) == 1;
            let bad = if wrong_shape {
                Tensor4::zeros(1, 8, 8, 3)
            } else {
                let mut image = rig.images[index].clone();
                image.as_mut_slice()[0] = f32::NAN;
                image
            };
            let typed = match rig.gateway.submit(MODEL, TENANT, &bad) {
                Err(RequestError::ShapeMismatch { .. }) => wrong_shape,
                Err(RequestError::NonFiniteInput { .. }) => !wrong_shape,
                _ => false,
            };
            self.rejected_typed += u64::from(typed);
            return None;
        }
        self.sent += 1;
        let t0 = Instant::now();
        let admitted = rig.gateway.submit(MODEL, TENANT, &rig.images[index]);
        self.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        match admitted {
            Ok(id) => {
                self.in_flight.insert(id, index);
                Some(id)
            }
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    /// Serves one batch and tallies its answers; returns the ids answered.
    fn poll(&mut self, rig: &mut Rig) -> Vec<u64> {
        let results = rig.gateway.poll();
        if results.is_empty() {
            // Nothing came back for what is in flight: those requests are lost.
            self.failed += self.in_flight.len() as u64;
            self.in_flight.clear();
        }
        let mut indices = Vec::with_capacity(results.len());
        let mut rows = Vec::with_capacity(results.len());
        let mut classes = Vec::with_capacity(results.len());
        let mut ids = Vec::with_capacity(results.len());
        for (id, answer) in results {
            ids.push(id);
            let index = self.in_flight.remove(&id);
            match answer {
                Ok(response) => {
                    self.ok += 1;
                    if response.logits.iter().any(|l| !l.is_finite()) {
                        self.non_finite_logits += 1;
                    }
                    if let Some(index) = index {
                        indices.push(index);
                        rows.push(response.logits);
                        classes.push(response.class);
                    }
                }
                Err(_) => self.failed += 1,
            }
        }
        // Every fourth full batch, until the quota is met.
        let full = indices.len() == MAX_BATCH;
        let wanted = self.samples.len() < self.sample_batches;
        if full && wanted && (self.ok / MAX_BATCH as u64).is_multiple_of(4) {
            self.samples.push(SampledBatch { image_indices: indices, logits: rows, classes });
        }
        ids
    }
}

/// What one closed-loop phase saw.
struct Closed {
    /// `(start, end)` of the `Gateway::poll` of every full batch.
    polls: Vec<(Instant, Instant)>,
    /// `(start, end)` of every full cycle: submitting the batch, then the poll.
    cycles: Vec<(Instant, Instant)>,
    /// Submit-to-response time of every request.
    request_ms: Vec<f64>,
    /// Well-formed requests answered `Ok`.
    ok: u64,
    elapsed_s: f64,
}

impl Closed {
    fn poll_ms(&self) -> Vec<f64> {
        self.polls.iter().map(|&p| host::raw_ms(p)).collect()
    }
}

/// Closed loop: `outstanding` callers that each wait for their reply before
/// sending again; stops at `seconds` or `max_ok` answers.
fn closed_loop(
    rig: &mut Rig,
    client: &mut Client,
    outstanding: usize,
    seconds: f64,
    max_ok: u64,
    yardstick: &mut Yardstick,
    mut tracer: Option<(&mut Tracer, [usize; 3])>,
) -> Closed {
    let (mut polls, mut cycles, mut request_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut sent_at: BTreeMap<u64, Instant> = BTreeMap::new();
    let budget = Duration::from_secs_f64(seconds);
    let ok_before = client.ok;
    let start = Instant::now();
    while start.elapsed() < budget && client.ok - ok_before < max_ok {
        let group = client.submitted;
        yardstick.tick();
        let cycle_start = Instant::now();
        let root = tracer.as_mut().map(|(t, names)| t.begin(names[0], group));
        let fill = tracer.as_mut().map(|(t, names)| t.begin(names[1], group));
        while client.in_flight.len() < outstanding {
            let t0 = Instant::now();
            if let Some(id) = client.submit_next(rig) {
                sent_at.insert(id, t0);
            }
        }
        if let (Some((t, _)), Some(fill)) = (tracer.as_mut(), fill) {
            t.end(fill);
        }
        let poll = tracer.as_mut().map(|(t, names)| t.begin(names[2], group));
        let t0 = Instant::now();
        let ids = client.poll(rig);
        let done = Instant::now();
        if let (Some((t, _)), Some(poll)) = (tracer.as_mut(), poll) {
            t.end(poll);
        }
        if ids.len() == outstanding {
            polls.push((t0, done));
            cycles.push((cycle_start, done));
        }
        for id in ids {
            if let Some(t) = sent_at.remove(&id) {
                request_ms.push(host::ms(done - t));
            }
        }
        if let (Some((t, _)), Some(root)) = (tracer.as_mut(), root) {
            t.end(root);
        }
    }
    Closed {
        polls,
        cycles,
        request_ms,
        ok: client.ok - ok_before,
        elapsed_s: start.elapsed().as_secs_f64(),
    }
}

/// What one open-loop phase saw.
struct OpenStats {
    latency_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    batch_sizes: Vec<f64>,
    late_ms_max: f64,
    sent: u64,
    within_limit: u64,
}

/// Open loop: requests are due on a seeded Poisson schedule whatever the
/// server is doing. Each is timed from its due time, so the wait a stall
/// imposes on later arrivals counts, and the generator spin-waits between
/// arrivals and reports how late it ever ran.
fn open_loop(rig: &mut Rig, client: &mut Client, seed: u64, rate: f64, seconds: f64) -> OpenStats {
    let due = arrivals::schedule(seed, rate, seconds);
    let mut stats = OpenStats {
        latency_ms: Vec::new(),
        queue_wait_ms: Vec::new(),
        batch_sizes: Vec::new(),
        late_ms_max: 0.0,
        sent: 0,
        within_limit: 0,
    };
    let mut due_of: BTreeMap<u64, u64> = BTreeMap::new();
    let mut next = 0;
    let failed_before = client.failed;
    let start = Instant::now();
    let now_ns = |start: Instant| u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    while next < due.len() || !client.in_flight.is_empty() {
        let now = now_ns(start);
        while next < due.len() && due[next] <= now {
            stats.late_ms_max = stats.late_ms_max.max((now_ns(start) - due[next]) as f64 / 1e6);
            let before = client.sent;
            if let Some(id) = client.submit_next(rig) {
                due_of.insert(id, due[next]);
            }
            // A malformed submission rides along without using up an arrival.
            if client.sent > before {
                stats.sent += 1;
                next += 1;
            }
        }
        if client.in_flight.is_empty() {
            std::hint::spin_loop();
            continue;
        }
        let poll_start = now_ns(start);
        let ok_before = client.ok;
        let ids = client.poll(rig);
        let done = now_ns(start);
        stats.batch_sizes.push(ids.len() as f64);
        let all_ok = client.ok - ok_before == ids.len() as u64;
        for id in ids {
            if let Some(due_ns) = due_of.remove(&id) {
                let latency = (done - due_ns) as f64 / 1e6;
                stats.latency_ms.push(latency);
                stats.queue_wait_ms.push(poll_start.saturating_sub(due_ns) as f64 / 1e6);
                stats.within_limit += u64::from(all_ok && latency <= LATENCY_LIMIT_MS);
            }
        }
    }
    client.open_missed += client.failed - failed_before;
    client.failed = failed_before;
    stats
}

/// `--trace 0`: the saturated closed loop for `opts.seconds`.
pub fn run_untraced(spec: &ServeSpec, opts: &RunOpts, yardstick: &mut Yardstick) -> Outcome {
    let mut out = Outcome::default();
    let repeats = if opts.smoke { 1 } else { SETUP_REPEATS };
    let (rig, setup_s) = train::timed_setup(repeats, yardstick, |yardstick| {
        make_rig(spec, opts.seed, &opts.run_dir, false, yardstick)
    });
    let mut rig = match rig {
        Ok(rig) => rig,
        Err(e) => {
            out.check("serving rig built", false, e);
            return out;
        }
    };
    let mut client = Client::new(sample_batches(spec));
    warm_up(&mut rig, &mut client, yardstick);
    let saturated =
        closed_loop(&mut rig, &mut client, MAX_BATCH, opts.seconds, u64::MAX, yardstick, None);
    yardstick.read();
    out.set("step_ms", stats::median(&yardstick.normalized_ms(&saturated.polls)));
    out.set(
        "samples_per_s",
        MAX_BATCH as f64 * 1e3 / stats::median(&yardstick.normalized_ms(&saturated.cycles)),
    );
    out.set("setup_s", setup_s);
    out.note(format!(
        "raw full-batch poll_ms {}; raw capacity {:.1} req/s; host factor {:.3}",
        stats::summarize(&saturated.poll_ms()),
        saturated.ok as f64 / saturated.elapsed_s,
        yardstick.median_factor()
    ));
    check_answers(&mut out, spec, &rig, &client, opts);
    tally(&mut out, &client);
    out.set("peak_rss_mb", host::peak_rss_mb());
    out
}

/// Answers served before any measured phase, so first-touch allocation in
/// the replica is not measured.
const WARM_UP_REQUESTS: u64 = 4 * MAX_BATCH as u64;

fn warm_up(rig: &mut Rig, client: &mut Client, yardstick: &mut Yardstick) {
    closed_loop(rig, client, MAX_BATCH, 60.0, WARM_UP_REQUESTS, yardstick, None);
}

/// Operations attempted and failed: well-formed requests sent, and those
/// refused, answered `Err` or never answered.
fn tally(out: &mut Outcome, client: &Client) {
    out.attempted = client.sent;
    out.failed += client.failed + client.in_flight.len() as u64;
}

fn sample_batches(spec: &ServeSpec) -> usize {
    match spec.stage {
        StagePolicy::Exact => EXACT_SAMPLE_BATCHES,
        StagePolicy::Reuse { .. } => REUSE_SAMPLE_BATCHES,
    }
}

/// Tallies and oracle comparisons shared by both run modes. Returns the
/// share of sampled answers whose class agrees with the dense oracle.
fn check_answers(
    out: &mut Outcome,
    spec: &ServeSpec,
    rig: &Rig,
    client: &Client,
    opts: &RunOpts,
) -> f64 {
    out.check(
        "every closed-loop request answered Ok",
        client.failed == 0
            && client.in_flight.is_empty()
            && client.ok + client.open_missed == client.sent,
        format!(
            "{} sent, {} ok, {} failed, {} open-loop requests refused or failed",
            client.sent, client.ok, client.failed, client.open_missed
        ),
    );
    let counters = rig.gateway.report().tenants.get(TENANT).cloned().unwrap_or_default();
    out.check(
        "malformed submissions rejected with their typed error",
        client.rejected_typed == client.malformed
            && counters.rejected_shape + counters.rejected_non_finite == client.malformed,
        format!(
            "{} malformed, {} typed rejections, gateway counted {}+{}",
            client.malformed,
            client.rejected_typed,
            counters.rejected_shape,
            counters.rejected_non_finite
        ),
    );
    out.check(
        "logits finite",
        client.non_finite_logits == 0,
        format!("{} answers with a non-finite logit", client.non_finite_logits),
    );
    let wanted = if opts.smoke { 1 } else { client.sample_batches };
    out.check(
        "sampled batches collected",
        client.samples.len() >= wanted,
        format!("{} of {wanted}", client.samples.len()),
    );

    let mut oracle = match dense_oracle(&rig.checkpoint, opts.seed) {
        Ok(net) => net,
        Err(e) => {
            out.check("dense oracle restored", false, e);
            return 0.0;
        }
    };
    let (mut sampled, mut bitwise, mut agree) = (0u64, 0u64, 0u64);
    // Largest logit difference, relative to the largest logit of its answer.
    let mut worst_relative = 0.0f32;
    for SampledBatch { image_indices: indices, logits: rows, classes } in &client.samples {
        let (batch, _) = rig.dataset.gather(indices);
        let Ok(logits) = oracle.infer(&batch) else { continue };
        let want_classes = oracle.predict(&batch);
        for (slot, row) in rows.iter().enumerate() {
            let want = &logits.as_slice()[slot * CLASSES..(slot + 1) * CLASSES];
            sampled += 1;
            bitwise += u64::from(row.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits()));
            agree += u64::from(classes[slot] == want_classes[slot]);
            let scale = want.iter().fold(f32::MIN_POSITIVE, |m, v| m.max(v.abs()));
            let delta = row.iter().zip(want).fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
            worst_relative = worst_relative.max(delta / scale);
        }
    }
    let agree_frac = agree as f64 / sampled.max(1) as f64;
    // Only the exact stage promises the oracle's answers. How often the
    // bottom rung agrees is a quality reading (`serve.agree_frac`), not a
    // promise: on an under-trained checkpoint it ranged from 0.35 to 0.95
    // across seeds, so a floor on it would fail runs that did nothing wrong.
    if spec.stage == StagePolicy::Exact {
        // The exact stage hashes whole rows to 64 bits, so two distinct rows
        // can still share a cluster: seed 100 answered one sampled request
        // in 64 with logits 0.9 % off the dense ones. Rare merges pass; a
        // wrong net, a wrong checkpoint or a broken exact path cannot.
        let share = bitwise as f64 / sampled.max(1) as f64;
        out.check(
            "exact-stage answers equal to the dense oracle",
            share >= EXACT_MIN_BITWISE_SHARE && worst_relative <= EXACT_MAX_RELATIVE_GAP,
            format!(
                "{bitwise} of {sampled} sampled answers bitwise equal, worst relative gap \
                 {worst_relative:.1e}"
            ),
        );
    }
    out.note(format!("{agree} of {sampled} sampled answers agree with the dense oracle's class"));
    agree_frac
}

/// `--trace 1`: shorter closed loops under spans, then the open loops, the
/// hot swap and the direct kernel calls.
pub fn run_traced(spec: &ServeSpec, opts: &RunOpts, yard: &mut Yardstick) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let mut rig = match make_rig(spec, opts.seed, &opts.run_dir, true, yard) {
        Ok(rig) => rig,
        Err(e) => {
            out.check("serving rig built", false, e);
            return out;
        }
    };
    let setup_s = t0.elapsed().as_secs_f64();
    out.note(format!("set-up {setup_s:.3} s"));
    let mut client = Client::new(sample_batches(spec));
    warm_up(&mut rig, &mut client, yard);

    // Untraced and traced saturated loops back to back: their medians differ
    // by what the spans cost.
    let share = opts.seconds / 10.0;
    let plain = closed_loop(&mut rig, &mut client, MAX_BATCH, 1.5 * share, u64::MAX, yard, None);
    let mut tracer = Tracer::new();
    let names =
        [tracer.name("serve.cycle"), tracer.name("serve.submit"), tracer.name("serve.poll")];
    let spans = Some((&mut tracer, names));
    let traced = closed_loop(&mut rig, &mut client, MAX_BATCH, 1.5 * share, u64::MAX, yard, spans);
    let poll_ms = traced.poll_ms();
    out.set("serve.capacity_rps", traced.ok as f64 / traced.elapsed_s);
    out.set("serve.batch_ms_p50", stats::median(&poll_ms));
    out.set("serve.batch_ms_p95", stats::percentile(&poll_ms, 95.0));
    out.note(format!("saturated poll_ms {}", stats::summarize(&poll_ms)));
    let plain_ms = stats::median(&plain.poll_ms());
    out.set("obs.trace_overhead_pct", 100.0 * (stats::median(&poll_ms) - plain_ms) / plain_ms);
    let (cycle_ms, cycle_self_ms) = tracer.total_ms("serve.cycle");
    out.set("obs.unattributed_pct", 100.0 * cycle_self_ms / cycle_ms.max(f64::MIN_POSITIVE));

    let single = closed_loop(&mut rig, &mut client, 1, 2.0 * share, u64::MAX, yard, None);
    out.set("serve.req_ms_p50", stats::median(&single.request_ms));
    out.set("serve.req_ms_p99", stats::percentile(&single.request_ms, 99.0));
    out.note(format!("single-request ms {}", stats::summarize(&single.request_ms)));
    out.set("serve.submit_us_p50", stats::median(&client.submit_us));

    let (lo, hi) = spec.open_rates;
    let open_lo = open_loop(&mut rig, &mut client, opts.seed, lo, 2.0 * share);
    let open_hi = open_loop(&mut rig, &mut client, opts.seed + 1, hi, 2.0 * share);
    out.set("serve.open_lo_lat_ms_p50", stats::median(&open_lo.latency_ms));
    out.set("serve.open_lo_lat_ms_p95", stats::percentile(&open_lo.latency_ms, 95.0));
    out.set("serve.open_hi_lat_ms_p50", stats::median(&open_hi.latency_ms));
    out.set("serve.open_hi_lat_ms_p95", stats::percentile(&open_hi.latency_ms, 95.0));
    out.set("serve.open_queue_wait_ms_p50", stats::median(&open_hi.queue_wait_ms));
    out.set("serve.open_batch_size_mean", stats::mean(&open_hi.batch_sizes));
    out.set("serve.open_late_ms_max", open_lo.late_ms_max.max(open_hi.late_ms_max));
    out.set(
        "serve.open_within_50ms_frac",
        (open_lo.within_limit + open_hi.within_limit) as f64
            / (open_lo.sent + open_hi.sent).max(1) as f64,
    );
    for (label, rate, open) in [("low", lo, &open_lo), ("high", hi, &open_hi)] {
        out.note(format!(
            "open loop {label} ({rate} req/s, {} sent): latency ms {}",
            open.sent,
            stats::summarize(&open.latency_ms)
        ));
    }

    let agree_frac = check_answers(&mut out, spec, &rig, &client, opts);
    out.set("serve.agree_frac", agree_frac);
    out.set("serve.rejected_expected", client.rejected_typed as f64);
    hot_swap(&mut out, &mut rig, &mut client);
    tally(&mut out, &client);

    let models = &rig.gateway.report().models;
    if let Some(m) = models.get(MODEL).filter(|m| m.flops_exact > 0) {
        out.set("serve.flops_actual_over_exact", m.flops_actual as f64 / m.flops_exact as f64);
    }
    out.set("serve.register_ms", rig.register_ms);
    out.set("nn.checkpoint_save_ms", rig.save_ms);
    out.set(
        "nn.checkpoint_bytes",
        std::fs::metadata(&rig.checkpoint).map_or(0.0, |m| m.len() as f64),
    );
    out.set("data.generate_s", rig.generate_s);
    out.set("models.build_ms", rig.build_ms);
    out.set("obs.host_factor", yard.median_factor());
    if let Some(rps) = opts.mt_capacity_rps {
        out.set("serve.capacity_rps_mt", rps);
    }

    // The kernels under the served batch shape, on the dense oracle's layers.
    if let Ok(mut oracle) = dense_oracle(&rig.checkpoint, opts.seed) {
        out.set("models.param_count", oracle.param_count() as f64);
        let (batch, _) = rig.dataset.gather(&(0..MAX_BATCH).collect::<Vec<_>>());
        micro::kernels(&mut out, &mut oracle, &batch, opts);
    }
    let trace_path = opts.run_dir.join(format!("{}.trace.jsonl", opts.workload.name()));
    if let Err(e) = tracer.write_jsonl(&trace_path) {
        out.check("trace written", false, e.to_string());
    }
    out
}

/// One hot swap to a second checkpoint with a full batch queued: the flip
/// must bump the generation and drop nothing.
fn hot_swap(out: &mut Outcome, rig: &mut Rig, client: &mut Client) {
    while client.in_flight.len() < MAX_BATCH {
        client.submit_next(rig);
    }
    let (ok_before, generation) = (client.ok, rig.gateway.generation(MODEL));
    let t0 = Instant::now();
    let swapped = rig.gateway.swap(MODEL, &rig.swap_checkpoint);
    out.set("serve.swap_ms", host::ms(t0.elapsed()));
    while !client.in_flight.is_empty() {
        client.poll(rig);
    }
    let answered = client.ok - ok_before;
    out.check(
        "hot swap under load drops nothing",
        swapped.is_ok()
            && rig.gateway.generation(MODEL) == generation.map(|g| g + 1)
            && answered == MAX_BATCH as u64,
        format!("swap {swapped:?}, {answered} of {MAX_BATCH} queued requests answered"),
    );
}

/// The unpinned capacity probe, run in a child process before the parent
/// pins itself: the saturated closed loop at default threading.
pub fn mt_probe(spec: &ServeSpec, opts: &RunOpts, yard: &mut Yardstick) -> Result<f64, String> {
    let mut rig = make_rig(spec, opts.seed, &opts.run_dir, false, yard)?;
    let mut client = Client::new(0);
    warm_up(&mut rig, &mut client, yard);
    let probe = closed_loop(&mut rig, &mut client, MAX_BATCH, 60.0, MT_PROBE_REQUESTS, yard, None);
    Ok(probe.ok as f64 / probe.elapsed_s)
}
