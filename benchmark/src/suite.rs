//! The whole set: every workload in a process of its own (so peak memory and
//! CPU affinity belong to one workload), `--repeat K` sets on seeds
//! `seed..seed+K`, then one traced set; medians, spreads and the
//! reuse-over-dense ratio with its base.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use adaptive_deep_reuse::obs::Json;

use crate::metrics;
use crate::{stats, Workload, DEFAULT_SECONDS};

/// The parsed result line of one child run.
struct ChildResult {
    passed: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs this executable again with `args`; returns its standard output.
fn child(args: &[&str]) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a child run: {e}"))?;
    Ok((output.status.success(), String::from_utf8_lossy(&output.stdout).into_owned()))
}

fn parse_result(passed: bool, stdout: &str) -> Result<ChildResult, String> {
    let line = stdout.lines().last().ok_or("child run printed nothing")?;
    let doc = Json::parse(line).map_err(|e| format!("child result line: {e}"))?;
    let count = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("child result line has no metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    let correct = doc.get("correct") == Some(&Json::Bool(true));
    Ok(ChildResult {
        passed: passed && correct,
        attempted: count("attempted"),
        failed: count("failed"),
        metrics,
    })
}

fn run_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ChildResult, String> {
    let (seed, seconds, trace) =
        (seed.to_string(), seconds.to_string(), u8::from(trace).to_string());
    let mut args = vec![
        "--workload",
        workload.name(),
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        &trace,
    ];
    if smoke {
        args.push("--smoke");
    }
    let (passed, stdout) = child(&args)?;
    for line in stdout.lines().filter(|l| l.starts_with("check FAILED")) {
        println!("  {line}");
    }
    parse_result(passed, &stdout)
}

/// Saturated capacity of `workload` at default threading, from a child that
/// never pins itself; `None` if the probe failed.
pub fn mt_capacity(workload: Workload, seed: u64) -> Option<f64> {
    let args = ["--workload", workload.name(), "--seed", &seed.to_string(), "--mt-probe"];
    let (passed, stdout) = child(&args).ok()?;
    stdout.lines().last().filter(|_| passed)?.trim().parse().ok()
}

/// Runs the set; `Ok(false)` when a run failed its checks or, with more than
/// one set, an end-to-end spread exceeded its bound.
pub fn run(
    only: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    repeat: Option<usize>,
    smoke: bool,
) -> Result<bool, String> {
    let workloads: Vec<Workload> = only.map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]);
    let sets = repeat.unwrap_or(1);
    let seconds = seconds.unwrap_or(DEFAULT_SECONDS);
    let mut all_passed = true;

    // values[workload][metric] = one value per set.
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for set in 0..sets {
        for &workload in &workloads {
            let result = run_child(workload, seed + set as u64, seconds, false, smoke)?;
            println!(
                "set {} {:<16} seed {} attempted {} failed {} {}",
                set + 1,
                workload.name(),
                seed + set as u64,
                result.attempted,
                result.failed,
                if result.passed { "ok" } else { "FAILED" }
            );
            all_passed &= result.passed;
            let per_metric = values.entry(workload.name()).or_default();
            for (name, value) in result.metrics {
                per_metric.entry(name).or_default().push(value);
            }
        }
    }

    println!("\nend-to-end metrics over {sets} set(s), seeds {seed}..{}:", seed + sets as u64);
    let mut medians: Vec<(String, Json)> = Vec::new();
    for &workload in &workloads {
        let mut row = Vec::new();
        for def in metrics::END_TO_END {
            let Some(samples) = values.get(workload.name()).and_then(|m| m.get(def.name)) else {
                continue;
            };
            let (median, spread) = (stats::median(samples), stats::spread(samples));
            let bound = def.bound.unwrap_or(f64::INFINITY);
            // Set-up time is reported, not gated: the driver gates its median.
            let within = sets < 2 || def.name == "setup_s" || spread <= bound;
            all_passed &= within;
            let listed: Vec<String> = samples.iter().map(|v| format!("{v:.4}")).collect();
            // The driver's spread needs its ten runs; with fewer it is a hint.
            let quartiles =
                stats::iqr_share(samples).map_or(String::new(), |q| format!(" iqr/median {q:.4}"));
            println!(
                "  {:<16} {:<14} median {median:>12.4} {:<6} ({} is better) (max-min)/median \
                 {spread:.4}{quartiles} bound {bound:.2} {} [{}]",
                workload.name(),
                def.name,
                def.unit,
                def.better.as_str(),
                if within { "ok" } else { "EXCEEDED" },
                listed.join(" ")
            );
            row.push((def.name.to_string(), Json::Num(median)));
        }
        medians.push((workload.name().to_string(), Json::Obj(row)));
    }

    println!("\nper-layer metrics, traced set, seed {seed} (0 = layer idle on this workload):");
    for &workload in &workloads {
        let result = run_child(workload, seed, seconds, true, smoke)?;
        all_passed &= result.passed;
        println!("  {} {}", workload.name(), if result.passed { "ok" } else { "FAILED" });
        for def in metrics::PER_LAYER {
            match result.metrics.get(def.name) {
                Some(value) if *value != 0.0 => {
                    println!("    {:<34} {value:>16.6} {}", def.name, def.unit);
                }
                _ => {}
            }
        }
    }

    // A ratio is printed with its base. It is not an end-to-end metric: a
    // GEMM gain that helps dense more than reuse would make it "worse".
    let step =
        |w: Workload| values.get(w.name()).and_then(|m| m.get("step_ms")).map(|v| stats::median(v));
    let speedup = match (step(Workload::TrainDense), step(Workload::TrainReuse)) {
        (Some(dense), Some(reuse)) if reuse > 0.0 => {
            println!(
                "\nspeedup_vs_dense {:.3} = train_dense step_ms {dense:.3} ms (base) / \
                 train_reuse step_ms {reuse:.3} ms",
                dense / reuse
            );
            Json::Obj(vec![
                ("value".into(), Json::Num(dense / reuse)),
                ("base".into(), Json::Str(format!("train_dense step_ms {dense} ms"))),
            ])
        }
        _ => Json::Null,
    };
    let summary = Json::Obj(vec![
        ("sets".into(), Json::Uint(sets as u64)),
        ("seed".into(), Json::Uint(seed)),
        ("passed".into(), Json::Bool(all_passed)),
        ("medians".into(), Json::Obj(medians)),
        ("speedup_vs_dense".into(), speedup),
        // This benchmark measures; it claims no gain.
        ("claim".into(), Json::Null),
    ]);
    println!("{}", summary.render());
    Ok(all_passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let stdout = "notes\n{\"correct\":true,\"attempted\":12,\"failed\":0,\"metrics\":{\
                      \"step_ms\":{\"value\":1.5,\"unit\":\"ms\"}}}\n";
        let r = parse_result(true, stdout).unwrap();
        assert!(r.passed);
        assert_eq!((r.attempted, r.failed), (12, 0));
        assert_eq!(r.metrics["step_ms"], 1.5);
        assert!(!parse_result(false, stdout).unwrap().passed);
        assert!(parse_result(true, "no json here").is_err());
    }
}
