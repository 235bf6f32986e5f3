//! `adr` — command-line front end for adaptive deep reuse.
//!
//! Subcommands:
//!
//! * `adr train [--model cifarnet|alexnet|vgg19] [--strategy baseline|fixed|adaptive|cluster-reuse]
//!   [--iterations N] [--batch N] [--classes N] [--lr F] [--seed N]
//!   [--checkpoint PATH]` — train a bench-scale model on the synthetic
//!   dataset and print the run report.
//! * `adr eval --checkpoint PATH [--model ...] [--classes N] [--seed N]`
//!   — restore a checkpoint and report probe accuracy.
//! * `adr similarity [--hashes H] [--sub-vector L]` — print the remaining
//!   ratio LSH finds on a fresh synthetic batch (a one-shot Fig. 1 intuition
//!   check).
//! * `adr serve (--checkpoint PATH | --registry name=path[,name=path...])
//!   [--tenants t=rate:burst[,...]] [--swap model=path] [--model ...]
//!   [--classes N] [--seed N] [--queue N] [--max-batch N] [--deadline-ms N]
//!   [--demo N] [--listen ADDR]` — serve named artifacts through the
//!   gateway. `--checkpoint PATH` is sugar for `--registry default=PATH`
//!   with one tenant `default` whose token bucket never empties. By default
//!   a line protocol on stdin (`predict <model> <tenant> <csv>`,
//!   `random <model> <tenant>`, `swap <model> <path>` for zero-downtime hot
//!   swaps, `report`, `healthz`, `readyz`, `quit`); rejections carry typed
//!   backoff hints (`retry after N ms`). `--demo N` runs a reproducible
//!   burst of N synthetic requests instead, `--listen HOST:PORT` speaks the
//!   same protocol over TCP, one connection at a time, and `--swap`
//!   performs one swap at startup.
//! * `adr bench [--out-dir DIR]` — re-baseline: run the one seeded training
//!   and serving workload and atomically write the two golden counter
//!   documents `BENCH_train.json` / `BENCH_serve.json` (DESIGN.md §11.4)
//!   that `cargo test --test bench_golden` compares byte for byte. No
//!   times: wall time is measured by `benchmark/` (BENCHMARK.json).
//!
//! Everything is deterministic given `--seed`.

use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::time::Duration;

use adaptive_deep_reuse::adaptive::trainer::{BatchSource, Trainer, TrainerConfig};
use adaptive_deep_reuse::adaptive::Strategy;
use adaptive_deep_reuse::models::{alexnet, cifarnet, vgg19, ConvMode};
use adaptive_deep_reuse::nn::checkpoint::Checkpoint;
use adaptive_deep_reuse::nn::{LrSchedule, Network, Sgd};
use adaptive_deep_reuse::prelude::*;
use adaptive_deep_reuse::reuse::ReuseConfig;
use adaptive_deep_reuse::source::DatasetSource;
use adaptive_deep_reuse::tensor::im2col::{im2col, ConvGeom};
use adaptive_deep_reuse::tensor::kernels::lanes;
use adaptive_deep_reuse::tensor::par::hardware_threads;

/// Minimal `--key value` / `--flag` argument map.
struct Args {
    positional: Vec<String>,
    options: std::collections::HashMap<String, String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut options = std::collections::HashMap::new();
        let mut it = argv.iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                // A `--key` followed by another option (or nothing) is a
                // boolean flag; its value reads "true".
                let value = match it.peek() {
                    Some(next) if !next.starts_with("--") => {
                        it.next().map_or_else(|| "true".to_string(), Clone::clone)
                    }
                    _ => "true".to_string(),
                };
                options.insert(key.to_string(), value);
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Self { positional, options })
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("option --{key}: cannot parse '{raw}'")),
        }
    }

    fn get_str(&self, key: &str, default: &str) -> String {
        self.options.get(key).cloned().unwrap_or_else(|| default.to_string())
    }
}

/// A freshly built network plus its default batch size.
type BuiltModel = (Network, usize);

/// What a wall time measured by this process ran on: the worker-pool width
/// and which instantiation of the lane kernels the CPU selected. Printed at
/// start-up only — never into the golden `BENCH_*.json` documents, which
/// are compared byte for byte across hosts.
fn host_line() -> String {
    format!("{} hardware threads, {} lanes", hardware_threads(), lanes())
}

fn build_model(
    name: &str,
    classes: usize,
    mode: ConvMode,
    rng: &mut AdrRng,
) -> Result<BuiltModel, String> {
    match name {
        "cifarnet" => Ok((cifarnet::bench_scale(classes, mode, rng), 16)),
        "alexnet" => Ok((alexnet::bench_scale(classes, mode, rng), 8)),
        "vgg19" => Ok((vgg19::bench_scale(classes, mode, rng), 8)),
        other => Err(format!("unknown model '{other}' (cifarnet | alexnet | vgg19)")),
    }
}

fn make_source(
    input: (usize, usize, usize),
    classes: usize,
    batch: usize,
    seed: u64,
) -> DatasetSource {
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
    let dataset = SynthDataset::generate(&cfg, &mut AdrRng::seeded(seed));
    DatasetSource::new(dataset, batch, 32)
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let model = args.get_str("model", "cifarnet");
    let strategy_name = args.get_str("strategy", "adaptive");
    let iterations: usize = args.get("iterations", 300)?;
    let classes: usize = args.get("classes", 4)?;
    let lr: f32 = args.get("lr", 0.02)?;
    let seed: u64 = args.get("seed", 42)?;
    let fixed_l: usize = args.get("sub-vector", 10)?;
    let fixed_h: usize = args.get("hashes", 10)?;

    let (mode, strategy) = match strategy_name.as_str() {
        "baseline" => (ConvMode::Dense, Strategy::baseline()),
        "fixed" => (
            ConvMode::Reuse(ReuseConfig::new(fixed_l, fixed_h, false)),
            Strategy::fixed(fixed_l, fixed_h),
        ),
        "adaptive" => (ConvMode::reuse_default(), Strategy::adaptive()),
        "cluster-reuse" => (
            ConvMode::Reuse(ReuseConfig::new(fixed_l, fixed_h, true)),
            Strategy::cluster_reuse(fixed_l, fixed_h),
        ),
        other => {
            return Err(format!(
                "unknown strategy '{other}' (baseline | fixed | adaptive | cluster-reuse)"
            ))
        }
    };

    let mut rng = AdrRng::seeded(seed);
    let (mut net, default_batch) = build_model(&model, classes, mode, &mut rng)?;
    let batch: usize = args.get("batch", default_batch)?;
    let mut source = make_source(net.input_shape(), classes, batch, seed);
    let trainer = Trainer::new(TrainerConfig {
        max_iterations: iterations,
        eval_every: 10,
        ..Default::default()
    });
    let mut sgd =
        Sgd::new(LrSchedule::InverseTime { base: lr, rate: 0.005 }, 0.9, 0.0).with_clip_norm(5.0);
    println!(
        "training {model} with {strategy_name} for {iterations} iterations on {} ...",
        host_line()
    );
    let report = trainer
        .train(&mut net, strategy, &mut source, &mut sgd)
        .map_err(|e| format!("training failed: {e}"))?;
    println!("{}", report.summary());

    if let Some(path) = args.options.get("checkpoint") {
        Checkpoint::capture(&mut net)
            .save(path)
            .map_err(|e| format!("saving checkpoint to {path}: {e}"))?;
        println!("checkpoint saved to {path}");
    }
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), String> {
    let path = args.options.get("checkpoint").ok_or("eval requires --checkpoint PATH")?;
    let model = args.get_str("model", "cifarnet");
    let classes: usize = args.get("classes", 4)?;
    let seed: u64 = args.get("seed", 42)?;
    let mut rng = AdrRng::seeded(seed);
    let (mut net, batch) = build_model(&model, classes, ConvMode::Dense, &mut rng)?;
    Checkpoint::load(path)
        .map_err(|e| format!("loading {path}: {e}"))?
        .restore(&mut net)
        .map_err(|e| format!("restoring into {model}: {e}"))?;
    let mut source = make_source(net.input_shape(), classes, batch, seed);
    let (images, labels) = source.probe();
    let eval = net.evaluate(&images, &labels);
    println!("probe accuracy {:.3}, loss {:.4}", eval.accuracy, eval.loss);
    Ok(())
}

fn cmd_similarity(args: &Args) -> Result<(), String> {
    let h: usize = args.get("hashes", 10)?;
    let l: usize = args.get("sub-vector", 75)?;
    let seed: u64 = args.get("seed", 42)?;
    let mut rng = AdrRng::seeded(seed);
    let cfg = SynthConfig {
        num_images: 8,
        num_classes: 2,
        height: 24,
        width: 24,
        channels: 3,
        smoothing_passes: 3,
        noise_std: 0.05,
        max_shift: 2,
        image_variability: 0.5,
    };
    let dataset = SynthDataset::generate(&cfg, &mut rng);
    let (images, _) = dataset.batch(0, 8);
    let geom = ConvGeom::new(24, 24, 3, 5, 5, 1, 0).expect("demo geometry constants are valid");
    let unfolded = im2col(&images, &geom);
    let l = l.min(unfolded.cols());
    let lsh = LshTable::new(l, h.clamp(1, 64), &mut rng);
    let (table, _) = lsh.cluster_range(&unfolded, 0);
    println!(
        "{} neuron vectors (window length {l}, H = {h}): |C| = {}, remaining ratio r_c = {:.4}",
        unfolded.rows(),
        table.num_clusters(),
        table.remaining_ratio()
    );
    println!(
        "=> deep reuse would compute {:.1}% of the centroid GEMM rows",
        table.remaining_ratio() * 100.0
    );
    Ok(())
}

/// Formats one gateway inference outcome for the line protocol. Typed
/// rejections render through their `Display` impls, which carry the
/// backoff hints (`retry after N ms` for rate-limited and overloaded).
fn gateway_answer(outcome: Result<InferResponse, RequestError>) -> String {
    match outcome {
        Ok(resp) => format!(
            "class {} (stage {}, {} ms) logits {:?}",
            resp.class,
            resp.stage,
            resp.latency.as_millis(),
            resp.logits
        ),
        Err(e) => format!("rejected: {e}"),
    }
}

/// One line of the serving protocol against a live gateway.
/// Returns the response text, or `None` when the client asked to quit.
fn gateway_line(gw: &mut Gateway, rng: &mut AdrRng, line: &str) -> Option<String> {
    let line = line.trim();
    let submit_and_serve = |gw: &mut Gateway, model: &str, tenant: &str, image: &Tensor4| {
        match gw.submit(model, tenant, image) {
            // Each protocol line serves its own request, so the drain holds
            // exactly the one just admitted.
            Ok(id) => gw
                .drain()
                .into_iter()
                .find(|(rid, _)| *rid == id)
                .map_or_else(|| "rejected: no response".to_string(), |(_, r)| gateway_answer(r)),
            Err(e) => format!("rejected: {e}"),
        }
    };
    if let Some(rest) = line.strip_prefix("predict ") {
        let mut parts = rest.splitn(3, ' ');
        let (Some(model), Some(tenant), Some(csv)) = (parts.next(), parts.next(), parts.next())
        else {
            return Some("rejected: usage is predict <model> <tenant> <csv>".to_string());
        };
        let Some((h, w, c)) = gw.input_shape(model) else {
            return Some(format!("rejected: unknown model '{model}': not in the registry"));
        };
        let values: Result<Vec<f32>, _> = csv.split(',').map(|v| v.trim().parse()).collect();
        let values = match values {
            Ok(v) => v,
            Err(e) => return Some(format!("rejected: bad float in request: {e}")),
        };
        let Some(image) = Tensor4::from_vec(1, h, w, c, values) else {
            return Some(format!("rejected: expected {} values for {h}x{w}x{c}", h * w * c));
        };
        return Some(submit_and_serve(gw, model, tenant, &image));
    }
    if let Some(rest) = line.strip_prefix("random ") {
        let mut parts = rest.splitn(2, ' ');
        let (Some(model), Some(tenant)) = (parts.next(), parts.next()) else {
            return Some("rejected: usage is random <model> <tenant>".to_string());
        };
        let Some((h, w, c)) = gw.input_shape(model) else {
            return Some(format!("rejected: unknown model '{model}': not in the registry"));
        };
        let image = Tensor4::from_fn(1, h, w, c, |_, _, _, _| rng.uniform());
        return Some(submit_and_serve(gw, model, tenant, &image));
    }
    if let Some(rest) = line.strip_prefix("swap ") {
        let mut parts = rest.splitn(2, ' ');
        let (Some(model), Some(path)) = (parts.next(), parts.next()) else {
            return Some("rejected: usage is swap <model> <path>".to_string());
        };
        return Some(match gw.swap(model, path) {
            Ok(generation) => format!("swapped '{model}' to generation {generation}"),
            Err(e) => format!("rejected: {e}"),
        });
    }
    match line {
        "report" => Some(gw.report().summary()),
        "healthz" => Some(if gw.healthy() { "ok".into() } else { "unhealthy".into() }),
        "readyz" => Some(if gw.ready() { "ready".into() } else { "not ready".into() }),
        "quit" => None,
        "" => Some(String::new()),
        other => Some(format!(
            "unknown command '{other}' (predict <model> <tenant> <csv> | random <model> <tenant> \
             | swap <model> <path> | report | healthz | readyz | quit)"
        )),
    }
}

/// Parses `--registry "name=path[,name=path...]"`. The artifact kind is
/// inferred from the path: `.adrs` loads the model half of a train-state
/// snapshot, anything else parses as an `ADR1` checkpoint.
fn parse_registry(spec: &str) -> Result<Vec<(String, String, ArtifactKind)>, String> {
    let mut out = Vec::new();
    for entry in spec.split(',') {
        let (name, path) = entry
            .split_once('=')
            .ok_or_else(|| format!("--registry entry '{entry}' is not name=path"))?;
        if name.is_empty() || path.is_empty() {
            return Err(format!("--registry entry '{entry}' has an empty name or path"));
        }
        let kind = if path.ends_with(".adrs") { ArtifactKind::Adrs } else { ArtifactKind::Adr1 };
        out.push((name.to_string(), path.to_string(), kind));
    }
    Ok(out)
}

/// Parses `--tenants "name=rate:burst[,name=rate:burst...]"`.
fn parse_tenants(
    spec: &str,
    default_deadline: Duration,
) -> Result<Vec<(String, TenantConfig)>, String> {
    let mut out = Vec::new();
    for entry in spec.split(',') {
        let (name, policy) = entry
            .split_once('=')
            .ok_or_else(|| format!("--tenants entry '{entry}' is not name=rate:burst"))?;
        let (rate, burst) = policy
            .split_once(':')
            .ok_or_else(|| format!("--tenants entry '{entry}' is not name=rate:burst"))?;
        let rate_per_sec: u64 = rate
            .parse()
            .map_err(|_| format!("--tenants entry '{entry}': cannot parse rate '{rate}'"))?;
        let burst: u64 = burst
            .parse()
            .map_err(|_| format!("--tenants entry '{entry}': cannot parse burst '{burst}'"))?;
        out.push((
            name.to_string(),
            TenantConfig { rate_per_sec, burst, default_deadline, ..TenantConfig::default() },
        ));
    }
    Ok(out)
}

/// `adr serve`: one gateway, one line protocol, one listen/stdin loop.
fn cmd_serve(args: &Args) -> Result<(), String> {
    // `--checkpoint P` is single-tenant serving: one model and one tenant,
    // both named `default`, whose token bucket never empties.
    let (spec, default_tenants) =
        match (args.options.get("registry"), args.options.get("checkpoint")) {
            (Some(spec), _) => (spec.clone(), "default=100:8".to_string()),
            (None, Some(path)) => {
                (format!("default={path}"), format!("default={}:{}", u64::MAX, u64::MAX))
            }
            (None, None) => {
                return Err("serve requires --checkpoint PATH or --registry NAME=PATH[,...]".into())
            }
        };
    let model = args.get_str("model", "cifarnet");
    let classes: usize = args.get("classes", 4)?;
    let seed: u64 = args.get("seed", 42)?;
    let queue: usize = args.get("queue", 32)?;
    let max_batch: usize = args.get("max-batch", 8)?;
    let deadline_ms: u64 = args.get("deadline-ms", 250)?;
    let demo: usize = args.get("demo", 0)?;

    // Validate the architecture name once, up front; per-entry factories
    // can then rebuild it infallibly on every registration and hot swap.
    let mut rng = AdrRng::seeded(seed);
    build_model(&model, classes, ConvMode::reuse_default(), &mut rng)?;

    let cfg = GatewayConfig { queue_capacity: queue, max_batch, ..GatewayConfig::default() };
    // Demo bursts run on the virtual clock so the printed report is
    // reproducible for a given seed.
    let mut gateway = if demo > 0 {
        Gateway::with_clock(cfg, Box::new(ManualClock::new()))
    } else {
        Gateway::new(cfg)
    }
    .map_err(|e| format!("building gateway: {e}"))?;

    for (name, path, kind) in parse_registry(&spec)? {
        let arch = model.clone();
        let factory: NetFactory = Box::new(move || {
            let mut rng = AdrRng::seeded(seed);
            let (net, _) = build_model(&arch, classes, ConvMode::reuse_default(), &mut rng)
                .expect("architecture name validated at startup");
            net
        });
        gateway
            .register_model(&name, kind, &path, factory)
            .map_err(|e| format!("registering '{name}' from {path}: {e}"))?;
    }
    let default_deadline = Duration::from_millis(deadline_ms);
    for (name, tenant_cfg) in
        parse_tenants(&args.get_str("tenants", &default_tenants), default_deadline)?
    {
        gateway
            .add_tenant(&name, tenant_cfg)
            .map_err(|e| format!("adding tenant '{name}': {e}"))?;
    }
    if let Some(swap) = args.options.get("swap") {
        let (swap_model, path) =
            swap.split_once('=').ok_or_else(|| format!("--swap '{swap}' is not model=path"))?;
        let generation =
            gateway.swap(swap_model, path).map_err(|e| format!("swapping '{swap_model}': {e}"))?;
        println!("swapped '{swap_model}' to generation {generation}");
    }

    let models = gateway.models().join(", ");
    let tenants = gateway.tenant_names().join(", ");
    println!("serving on {}", host_line());
    if demo > 0 {
        let mut request_rng = rng.split(1);
        let model_names: Vec<String> = gateway.models().iter().map(ToString::to_string).collect();
        let tenant_names: Vec<String> =
            gateway.tenant_names().iter().map(ToString::to_string).collect();
        for i in 0..demo {
            let model = &model_names[i % model_names.len()];
            let tenant = &tenant_names[i % tenant_names.len()];
            let Some((h, w, c)) = gateway.input_shape(model) else { continue };
            let image = Tensor4::from_fn(1, h, w, c, |_, _, _, _| request_rng.uniform());
            let _ = gateway.submit(model, tenant, &image);
        }
        let served = gateway.drain().iter().filter(|(_, r)| r.is_ok()).count();
        println!("demo burst: {served}/{demo} served");
        println!("{}", gateway.report().summary());
        return Ok(());
    }

    if let Some(addr) = args.options.get("listen") {
        let listener =
            std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
        println!("gateway serving [{models}] for tenants [{tenants}] on {addr}");
        for stream in listener.incoming() {
            let stream = stream.map_err(|e| format!("accepting connection: {e}"))?;
            let mut writer = stream.try_clone().map_err(|e| format!("cloning connection: {e}"))?;
            let reader = std::io::BufReader::new(stream);
            for line in reader.lines() {
                let line = match line {
                    Ok(l) => l,
                    Err(_) => break,
                };
                match gateway_line(&mut gateway, &mut rng, &line) {
                    Some(reply) => {
                        if writeln!(writer, "{reply}").is_err() {
                            break;
                        }
                    }
                    None => return Ok(()),
                }
            }
        }
        return Ok(());
    }

    println!(
        "gateway serving [{models}] for tenants [{tenants}] on stdin (predict <model> <tenant> \
         <csv> | random <model> <tenant> | swap <model> <path> | report | healthz | readyz | quit)"
    );
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("reading stdin: {e}"))?;
        match gateway_line(&mut gateway, &mut rng, &line) {
            Some(reply) => println!("{reply}"),
            None => break,
        }
    }
    Ok(())
}

fn cmd_bench(args: &Args) -> Result<(), String> {
    use adaptive_deep_reuse::{bench, obs};

    // The documents pin one workload; a leftover `--seed 7` must not
    // silently rewrite the seed-42 baseline.
    if let Some(key) = args.options.keys().find(|k| *k != "out-dir") {
        return Err(format!("bench takes --out-dir only (got --{key})"));
    }
    let out_dir = std::path::PathBuf::from(args.get_str("out-dir", "."));
    let (train_doc, losses) = bench::train_document();
    let serve_doc = bench::serve_document()?;
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    for (name, doc) in [("BENCH_train.json", &train_doc), ("BENCH_serve.json", &serve_doc)] {
        let path = out_dir.join(name);
        obs::export::write_json(&path, doc)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    if let (Some(first), Some(last)) = (losses.first(), losses.last()) {
        println!("train: loss {first:.4} -> {last:.4} over {} steps", losses.len());
    }
    Ok(())
}

const USAGE: &str = "usage: adr <train|eval|similarity|serve|bench> [options]
  adr train      [--model M] [--strategy S] [--iterations N] [--classes N]
                 [--batch N] [--lr F] [--seed N] [--sub-vector L] [--hashes H]
                 [--checkpoint PATH]
  adr eval       --checkpoint PATH [--model M] [--classes N] [--seed N]
  adr similarity [--hashes H] [--sub-vector L] [--seed N]
  adr serve      (--checkpoint PATH | --registry NAME=PATH[,NAME=PATH...])
                 [--tenants T=RATE:BURST[,...]] [--swap MODEL=PATH]
                 [--model M] [--classes N] [--seed N]
                 [--queue N] [--max-batch N] [--deadline-ms N]
                 [--demo N] [--listen HOST:PORT]
                 (--checkpoint P = --registry default=P, one unlimited tenant `default`)
  adr bench      [--out-dir DIR]   (rewrites BENCH_train.json / BENCH_serve.json)";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.positional.first().map(String::as_str) {
        Some("train") => cmd_train(&args),
        Some("eval") => cmd_eval(&args),
        Some("similarity") => cmd_similarity(&args),
        Some("serve") => cmd_serve(&args),
        Some("bench") => cmd_bench(&args),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
