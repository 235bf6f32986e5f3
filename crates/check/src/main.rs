//! CLI for the workspace static-analysis pass.
//!
//! ```text
//! cargo run -p adr-check                      # lint the current workspace
//! cargo run -p adr-check -- --root some/workspace
//! cargo run -p adr-check -- --format sarif > adr-check.sarif
//! ```
//!
//! Exit codes: `0` clean, `1` findings, stale or uncategorized allowlist
//! entries (hard failures — audits that match nothing must be pruned, and
//! every audit must name its category), `2` usage or I/O error.
//!
//! With `--format sarif`, findings (including allowlist staleness) are
//! printed to stdout as a SARIF 2.1.0 document — validated before emission
//! — for CI code-scanning upload; the exit code is unchanged.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root = PathBuf::from(".");
    let mut sarif = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let Some(value) = args.next() else {
                    eprintln!("error: --root needs a path");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(value);
            }
            "--format" => {
                match args.next().as_deref() {
                    Some("sarif") => sarif = true,
                    Some("human") => sarif = false,
                    Some(other) => {
                        eprintln!("error: unknown format `{other}` (human|sarif)");
                        return ExitCode::from(2);
                    }
                    None => {
                        eprintln!("error: --format needs a value (human|sarif)");
                        return ExitCode::from(2);
                    }
                };
            }
            "--help" | "-h" => {
                println!("usage: adr-check [--root <workspace-root>] [--format human|sarif]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let report = match adr_check::run_checks(&root) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };

    if sarif {
        let doc = adr_check::sarif::to_sarif(&report);
        if let Err(message) = adr_check::sarif::validate_sarif(&doc) {
            eprintln!("error: emitted SARIF failed validation: {message}");
            return ExitCode::from(2);
        }
        print!("{}", doc.render_pretty());
        return if report.is_clean() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    for finding in &report.findings {
        println!("error[{}]: {}", finding.lint.name(), finding.message);
        println!("  --> {}:{}", finding.file, finding.line);
        println!("   | {}", finding.line_text.trim_end());
    }
    for stale in &report.unused_allow {
        println!("error[adr::stale_allow]: {stale} — prune the entry");
    }
    for bad in &report.bad_category {
        println!("error[adr::allow_category]: {bad}");
    }
    if report.is_clean() {
        println!("adr-check: {} files clean", report.files_scanned);
        ExitCode::SUCCESS
    } else {
        println!(
            "adr-check: {} finding(s), {} stale and {} uncategorized allowlist entr(ies) \
             across {} files",
            report.findings.len(),
            report.unused_allow.len(),
            report.bad_category.len(),
            report.files_scanned
        );
        ExitCode::FAILURE
    }
}
