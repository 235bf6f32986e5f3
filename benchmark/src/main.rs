//! The repository's benchmark, measured from outside the program: every
//! number comes from timing calls to public functions of the workspace
//! crates. See `README.md` and `../BENCHMARK.json`.
//!
//! `--workload W --seed N --seconds S --trace 0|1` makes one run and ends
//! its standard output with the result line of the driver's contract.
//! Without `--workload` it runs the whole set, each workload in a process of
//! its own, and prints medians, spreads and the reuse-over-dense ratio.

mod adaptive;
mod arrivals;
mod host;
mod metrics;
mod micro;
mod outcome;
mod serve;
mod stats;
mod suite;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

use adaptive_deep_reuse::models::ConvMode;
use adaptive_deep_reuse::prelude::StagePolicy;
use adaptive_deep_reuse::tensor::par::hardware_threads;

use host::Yardstick;
use outcome::Outcome;
use serve::ServeSpec;
use train::{Model, TrainSpec};

/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;
/// Measuring time per phase in `--smoke` mode: tens of samples.
const SMOKE_SECONDS: f64 = 0.4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TrainDense,
    TrainReuse,
    TrainVggReuse,
    TrainAdaptive,
    ServeExact,
    ServeReuse,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::TrainDense,
        Workload::TrainReuse,
        Workload::TrainVggReuse,
        Workload::TrainAdaptive,
        Workload::ServeExact,
        Workload::ServeReuse,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainDense => "train_dense",
            Workload::TrainReuse => "train_reuse",
            Workload::TrainVggReuse => "train_vgg_reuse",
            Workload::TrainAdaptive => "train_adaptive",
            Workload::ServeExact => "serve_exact",
            Workload::ServeReuse => "serve_reuse",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn train_spec(self) -> Option<TrainSpec> {
        let cifarnet = |mode| TrainSpec {
            model: Model::Cifarnet,
            mode,
            batch: 16,
            classes: 4,
            probe: 32,
            min_probe_acc: Some(0.9),
        };
        match self {
            Workload::TrainDense => Some(cifarnet(ConvMode::Dense)),
            Workload::TrainReuse => Some(cifarnet(ConvMode::reuse_default())),
            Workload::TrainVggReuse => Some(TrainSpec {
                model: Model::Vgg19,
                mode: ConvMode::reuse_default(),
                batch: 8,
                classes: 4,
                probe: 32,
                min_probe_acc: None,
            }),
            _ => None,
        }
    }

    fn serve_spec(self) -> Option<ServeSpec> {
        match self {
            Workload::ServeExact => {
                Some(ServeSpec { stage: StagePolicy::Exact, open_rates: (150.0, 250.0) })
            }
            Workload::ServeReuse => Some(ServeSpec {
                stage: StagePolicy::Reuse { sub_vector_len: 8, num_hashes: 8, cluster_reuse: true },
                open_rates: (300.0, 500.0),
            }),
            _ => None,
        }
    }
}

/// One run's inputs. The program under test receives only what is generated
/// from `seed`.
#[derive(Clone, Debug)]
pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tens of samples and no accuracy floors: the checks only.
    pub smoke: bool,
    /// This run's own directory for checkpoints and traces.
    pub run_dir: PathBuf,
    /// Capacity at default threading, measured by a child process before a
    /// serving run pins itself.
    pub mt_capacity_rps: Option<f64>,
}

#[derive(Debug, Default)]
struct Cli {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: Option<usize>,
    mt_probe: bool,
}

const USAGE: &str = "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--repeat [K]] [--smoke]\n  workloads: train_dense train_reuse \
                     train_vgg_reuse train_adaptive serve_exact serve_reuse";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut i = 0;
    // A flag's value, when the next argument parses as one.
    let value = |i: &mut usize| -> Option<&String> {
        let next = args.get(*i + 1).filter(|v| !v.starts_with("--"))?;
        *i += 1;
        Some(next)
    };
    while i < args.len() {
        let flag = args[i].as_str();
        let bad = |v: &String| format!("{flag}: cannot read `{v}`");
        match flag {
            "--workload" => {
                let v = value(&mut i).ok_or("--workload needs a name")?;
                cli.workload = Some(Workload::parse(v).ok_or_else(|| bad(v))?);
            }
            "--seed" => {
                let v = value(&mut i).ok_or("--seed needs a number")?;
                cli.seed = Some(v.parse().map_err(|_| bad(v))?);
            }
            "--seconds" => {
                let v = value(&mut i).ok_or("--seconds needs a number")?;
                cli.seconds = Some(v.parse().ok().filter(|s| *s > 0.0).ok_or_else(|| bad(v))?);
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                cli.trace = match value(&mut i).map(String::as_str) {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(_) => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--repeat" => {
                cli.repeat = Some(match value(&mut i) {
                    None => 5,
                    Some(v) => v.parse().ok().filter(|k| *k >= 1).ok_or_else(|| bad(v))?,
                })
            }
            "--smoke" => cli.smoke = true,
            "--mt-probe" => cli.mt_probe = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    Ok(cli)
}

fn run_workload(opts: &RunOpts, yardstick: &mut Yardstick) -> Outcome {
    let workload = opts.workload;
    if let Some(spec) = workload.train_spec() {
        return if opts.trace {
            train::run_traced(&spec, opts, yardstick)
        } else {
            train::run_untraced(&spec, opts, yardstick)
        };
    }
    if let Some(spec) = workload.serve_spec() {
        return if opts.trace {
            serve::run_traced(&spec, opts, yardstick)
        } else {
            serve::run_untraced(&spec, opts, yardstick)
        };
    }
    if opts.trace {
        adaptive::run_traced(opts, yardstick)
    } else {
        adaptive::run_untraced(opts, yardstick)
    }
}

/// One run in this process; prints the run's context, every metric by name
/// with its unit, and last the contract's result line.
fn single_run(workload: Workload, cli: &Cli) -> Result<bool, String> {
    let seed = cli.seed.unwrap_or(42);
    let smoke = cli.smoke;
    let seconds = if smoke { SMOKE_SECONDS } else { cli.seconds.unwrap_or(DEFAULT_SECONDS) };
    let run_dir = host::new_run_dir().map_err(|e| format!("creating the run directory: {e}"))?;
    let mut opts = RunOpts {
        workload,
        seed,
        seconds,
        trace: cli.trace,
        smoke,
        run_dir: run_dir.clone(),
        mt_capacity_rps: None,
    };

    if let Some(spec) = workload.serve_spec() {
        if cli.mt_probe {
            let rps = serve::mt_probe(&spec, &opts, &mut Yardstick::new(hardware_threads()));
            let _ = std::fs::remove_dir(&run_dir);
            println!("{}", rps?);
            return Ok(true);
        }
        // Order matters: the child inherits this process's affinity, and the
        // program caches its thread count on first use.
        if opts.trace && !smoke {
            opts.mt_capacity_rps = suite::mt_capacity(workload, seed);
        }
        match host::pin_to_one_cpu() {
            Some(cpu) => println!("pinned to cpu {cpu} (one-core replica)"),
            None => println!("warning: could not pin to one cpu; serving numbers will be noisy"),
        }
    }

    println!(
        "workload {} seed {seed} seconds {seconds} trace {} | commit {} | {} | nproc {} | \
         threads used {}",
        workload.name(),
        u8::from(opts.trace),
        host::commit(),
        host::rustc_version(),
        host::nproc(),
        hardware_threads(),
    );
    // One yardstick per process, on as many threads as the program uses.
    let mut yardstick = Yardstick::new(hardware_threads());
    let outcome = run_workload(&opts, &mut yardstick);
    let (first_ms, last_ms) = yardstick.first_and_last_ms();
    println!(
        "reference kernel {first_ms:.2} ms before, {last_ms:.2} ms after, median host factor \
         {:.3} (fixed work, nominal {} ms; a large gap means a crowded host)",
        yardstick.median_factor(),
        host::REFERENCE_NOMINAL_MS
    );
    // Traces stay for reading; a run that wrote none leaves nothing behind.
    let _ = std::fs::remove_dir(&run_dir);

    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, passed, detail) in &outcome.checks {
        println!("check {}: {name} ({detail})", if *passed { "ok" } else { "FAILED" });
    }
    let defs = if opts.trace { metrics::PER_LAYER } else { metrics::END_TO_END };
    for def in defs {
        if let Some(value) = outcome.metrics.get(def.name) {
            println!("{:<32} {value:>16.6} {}", def.name, def.unit);
        }
    }
    println!("operations attempted {} failed {}", outcome.attempted.max(1), outcome.failed);
    println!("{}", outcome.result_line(defs)?);
    Ok(outcome.correct() && outcome.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let passed = match cli.workload {
        Some(workload) if cli.repeat.is_none() => single_run(workload, &cli),
        only => suite::run(only, cli.seed.unwrap_or(42), cli.seconds, cli.repeat, cli.smoke),
    };
    match passed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptive_deep_reuse::obs::Json;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_invocation_parses() {
        let c =
            cli(&["--workload", "serve_reuse", "--seed", "7", "--seconds", "10", "--trace", "0"])
                .unwrap();
        assert_eq!(c.workload, Some(Workload::ServeReuse));
        assert_eq!((c.seed, c.seconds, c.trace), (Some(7), Some(10.0), false));
        assert!(cli(&["--workload", "train_dense", "--trace", "1"]).unwrap().trace);
    }

    #[test]
    fn bare_flags_take_their_defaults() {
        let c = cli(&["--trace", "--repeat", "--smoke"]).unwrap();
        assert!(c.trace && c.smoke);
        assert_eq!(c.repeat, Some(5));
        assert_eq!(cli(&["--repeat", "3"]).unwrap().repeat, Some(3));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(cli(&["--workload", "train_everything"]).is_err());
        assert!(cli(&["--trace", "2"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }

    #[test]
    fn default_seconds_is_the_declared_run_length() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(DEFAULT_SECONDS));
    }
}
