//! Integration tests: the binary must fail on the seeded fixture workspace
//! and pass on the real workspace it ships in.

// Test/example code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use std::path::Path;
use std::process::Command;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn run_on(root: &Path) -> (i32, String) {
    run_with_args(&["--root", &root.to_string_lossy()])
}

#[test]
fn fixture_violations_fail_the_check() {
    let root = manifest_dir().join("fixtures/violations");
    let (code, text) = run_on(&root);
    assert_eq!(code, 1, "seeded violations must exit 1; output:\n{text}");
    // Every lint fires at least once on the fixture workspace.
    for lint in [
        "adr::no_panic",
        "adr::determinism",
        "adr::grad_coverage",
        "adr::durable_io",
        "adr::atomic_ordering",
    ] {
        assert!(text.contains(lint), "missing {lint} finding:\n{text}");
    }
    // The audited/compliant halves of the fixtures stay quiet.
    assert!(!text.contains("make_matrix_saturating"), "unwrap_or was flagged:\n{text}");
    assert!(!text.contains("save_snapshot_durable"), "atomic write path was flagged:\n{text}");
    assert!(!text.contains("durable.rs"), "the exempt atomic helper was flagged:\n{text}");
    assert!(!text.contains("random_projection_seed_from"), "seeded stream was flagged:\n{text}");
    assert!(!text.contains("Opaque"), "grad-check-exempt impl was flagged:\n{text}");
    assert!(!text.contains("cmp::Ordering"), "cmp::Ordering was read as an atomic:\n{text}");
}

#[test]
fn fixture_findings_are_precise() {
    let root = manifest_dir().join("fixtures/violations");
    let report = adr_check::run_checks(&root).expect("fixture root is a workspace");
    let mut names: Vec<(&str, &str)> = report
        .findings
        .iter()
        .map(|f| (f.lint.name(), f.file.rsplit_once('/').map_or(f.file.as_str(), |(_, n)| n)))
        .collect();
    names.sort_unstable();
    // core: unaudited Ordering; clustering: thread_rng; nn: bare
    // File::create + unregistered Layer impl; reuse: panic! + expect;
    // tensor: unwrap.
    assert_eq!(
        names,
        vec![
            ("adr::atomic_ordering", "lib.rs"),
            ("adr::determinism", "lib.rs"),
            ("adr::durable_io", "lib.rs"),
            ("adr::grad_coverage", "unregistered.rs"),
            ("adr::no_panic", "lib.rs"),
            ("adr::no_panic", "lib.rs"),
            ("adr::no_panic", "lib.rs"),
        ],
        "unexpected finding set: {:#?}",
        report.findings
    );
}

#[test]
fn shipped_workspace_is_clean() {
    let root = manifest_dir().join("../..");
    let (code, text) = run_on(&root);
    assert_eq!(code, 0, "the shipped workspace must pass adr-check; output:\n{text}");
}

#[test]
fn stale_and_uncategorized_allow_entries_fail_the_check() {
    let root = manifest_dir().join("fixtures/stale_allow");
    let (code, text) = run_on(&root);
    assert_eq!(code, 1, "stale allowlist must exit 1; output:\n{text}");
    // The live entry suppressed the only real finding...
    assert!(!text.contains("adr::no_panic"), "audited unwrap leaked through:\n{text}");
    // ...the dead entry is reported as stale with its allowlist line...
    assert!(
        text.contains("adr::stale_allow") && text.contains("gone_function("),
        "missing stale-entry diagnostic:\n{text}"
    );
    // ...and the unknown category is its own hard failure.
    assert!(
        text.contains("adr::allow_category") && text.contains("made-up-category"),
        "missing category diagnostic:\n{text}"
    );
}

fn run_with_args(args: &[&str]) -> (i32, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_adr-check"))
        .args(args)
        .output()
        .expect("adr-check binary runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    (output.status.code().expect("adr-check exits normally"), text)
}

#[test]
fn sarif_output_is_valid_and_carries_the_findings() {
    let root = manifest_dir().join("fixtures/violations");
    let (code, text) = run_with_args(&["--root", &root.to_string_lossy(), "--format", "sarif"]);
    assert_eq!(code, 1, "violations still exit 1 in sarif mode; output:\n{text}");
    let doc = adr_obs::Json::parse(&text).expect("sarif output parses as JSON");
    adr_check::sarif::validate_sarif(&doc).expect("sarif output validates");
    let results =
        doc.get("runs").unwrap().as_arr().unwrap()[0].get("results").unwrap().as_arr().unwrap();
    let rule_ids: Vec<&str> =
        results.iter().filter_map(|r| r.get("ruleId").and_then(adr_obs::Json::as_str)).collect();
    for rule in ["adr::no_panic", "adr::durable_io", "adr::atomic_ordering"] {
        assert!(rule_ids.contains(&rule), "missing {rule} in SARIF results: {rule_ids:?}");
    }
}

#[test]
fn sarif_mode_on_clean_workspace_emits_empty_results() {
    let root = manifest_dir().join("../..");
    let (code, text) = run_with_args(&["--root", &root.to_string_lossy(), "--format", "sarif"]);
    assert_eq!(code, 0, "clean workspace exits 0 in sarif mode; output:\n{text}");
    let doc = adr_obs::Json::parse(&text).expect("sarif output parses as JSON");
    adr_check::sarif::validate_sarif(&doc).expect("sarif output validates");
    let results =
        doc.get("runs").unwrap().as_arr().unwrap()[0].get("results").unwrap().as_arr().unwrap();
    assert!(results.is_empty(), "clean run must carry no results");
}
