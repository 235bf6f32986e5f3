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
    let output = Command::new(env!("CARGO_BIN_EXE_adr-check"))
        .arg("--root")
        .arg(root)
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
fn fixture_violations_fail_the_check() {
    let root = manifest_dir().join("fixtures/violations");
    let (code, text) = run_on(&root);
    assert_eq!(code, 1, "seeded violations must exit 1; output:\n{text}");
    // Every lint fires at least once on the fixture workspace.
    assert!(text.contains("adr::no_panic"), "missing no_panic finding:\n{text}");
    assert!(text.contains("adr::flop_coverage"), "missing flop_coverage finding:\n{text}");
    assert!(text.contains("adr::shape_docs"), "missing shape_docs finding:\n{text}");
    assert!(text.contains("adr::determinism"), "missing determinism finding:\n{text}");
    assert!(text.contains("adr::float_eq"), "missing float_eq finding:\n{text}");
    assert!(text.contains("adr::grad_coverage"), "missing grad_coverage finding:\n{text}");
    assert!(text.contains("adr::durable_io"), "missing durable_io finding:\n{text}");
    assert!(text.contains("adr::unsafe_contract"), "missing unsafe_contract finding:\n{text}");
    assert!(text.contains("adr::atomic_ordering"), "missing atomic_ordering finding:\n{text}");
    assert!(text.contains("adr::lock_order"), "missing lock_order finding:\n{text}");
    assert!(text.contains("adr::scoped_capture"), "missing scoped_capture finding:\n{text}");
    assert!(text.contains("adr::par_reduction"), "missing par_reduction finding:\n{text}");
    // The audited/compliant halves of the fixtures stay quiet.
    assert!(!text.contains("make_matrix_documented"), "documented fn was flagged:\n{text}");
    assert!(!text.contains("forward_metered"), "metered GEMM was flagged:\n{text}");
    assert!(!text.contains("save_snapshot_durable"), "atomic write path was flagged:\n{text}");
    assert!(!text.contains("durable.rs"), "the exempt atomic helper was flagged:\n{text}");
    assert!(!text.contains("centroid_mass_dense"), "dense reduction was flagged:\n{text}");
    assert!(!text.contains("converged_tolerant"), "tolerant compare was flagged:\n{text}");
    assert!(!text.contains("Opaque"), "grad-check-exempt impl was flagged:\n{text}");
    assert!(!text.contains("scatter_disjoint"), "disjoint split was flagged:\n{text}");
    assert!(!text.contains("par_total_fixed_order"), "fixed-order fold was flagged:\n{text}");
    // (`simd.rs` appears in confinement *messages* as the approved-module
    // list; only a finding *located* there would be a bug.)
    assert!(
        !text.contains("--> crates/tensor/src/simd.rs"),
        "the approved kernel module was flagged:\n{text}"
    );
}

#[test]
fn fixture_lock_cycle_carries_the_full_trace() {
    let root = manifest_dir().join("fixtures/violations");
    let report = adr_check::run_checks(&root).expect("fixture root is a workspace");
    let cycle = report
        .findings
        .iter()
        .find(|f| f.lint.name() == "adr::lock_order")
        .expect("seeded two-lock cycle is found");
    assert!(cycle.message.contains("acquisition trace"), "{}", cycle.message);
    assert!(cycle.message.contains("fn `publish`"), "{}", cycle.message);
    assert!(cycle.message.contains("fn `rollback`"), "{}", cycle.message);
    assert!(cycle.message.contains("calls `flush_journal()`"), "{}", cycle.message);
    // The inter-procedural edge list is exposed for `adr-check conc`.
    assert!(
        report.lock_graph.iter().any(|e| e.starts_with("table -> journal")),
        "{:#?}",
        report.lock_graph
    );
    assert!(
        report.lock_graph.iter().any(|e| e.starts_with("journal -> table")),
        "{:#?}",
        report.lock_graph
    );
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
    // tensor: unwrap + missing # Shape; nn: unmetered matmul + unregistered
    // Layer impl + bare File::create; reuse: panic! + expect; clustering:
    // thread_rng + map iteration under float accumulation + exact float
    // compare; core: the five seeded concurrency violations (unsafe block
    // without SAFETY, raw access outside the kernel modules, Relaxed read
    // near float accumulation, two-lock cycle, non-disjoint capture,
    // lock-guarded parallel float accumulation).
    assert_eq!(
        names,
        vec![
            ("adr::atomic_ordering", "lib.rs"),
            ("adr::determinism", "lib.rs"),
            ("adr::determinism", "lib.rs"),
            ("adr::durable_io", "lib.rs"),
            ("adr::float_eq", "lib.rs"),
            ("adr::flop_coverage", "lib.rs"),
            ("adr::grad_coverage", "unregistered.rs"),
            ("adr::lock_order", "lib.rs"),
            ("adr::no_panic", "lib.rs"),
            ("adr::no_panic", "lib.rs"),
            ("adr::no_panic", "lib.rs"),
            ("adr::par_reduction", "lib.rs"),
            ("adr::scoped_capture", "lib.rs"),
            ("adr::shape_docs", "lib.rs"),
            ("adr::unsafe_contract", "lib.rs"),
            ("adr::unsafe_contract", "lib.rs"),
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
    for rule in ["adr::no_panic", "adr::unsafe_contract", "adr::lock_order", "adr::par_reduction"] {
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

#[test]
fn conc_subcommand_reports_only_concurrency_findings() {
    let root = manifest_dir().join("fixtures/violations");
    let (code, text) = run_with_args(&["conc", "--root", &root.to_string_lossy()]);
    assert_eq!(code, 1, "seeded conc violations must exit 1; output:\n{text}");
    assert!(text.contains("lock-order graph"), "missing graph dump:\n{text}");
    assert!(text.contains("table -> journal"), "missing graph edge:\n{text}");
    for lint in [
        "adr::unsafe_contract",
        "adr::atomic_ordering",
        "adr::lock_order",
        "adr::scoped_capture",
        "adr::par_reduction",
    ] {
        assert!(text.contains(lint), "missing {lint} in conc output:\n{text}");
    }
    // Sequential lints and allowlist staleness are out of scope here.
    assert!(!text.contains("adr::no_panic"), "sequential lint leaked into conc run:\n{text}");
    assert!(!text.contains("adr::stale_allow"), "staleness reported by conc run:\n{text}");
}

#[test]
fn hotpath_subcommand_flags_seeded_violations() {
    let root = manifest_dir().join("fixtures/hotpath");
    let (code, text) = run_with_args(&["hotpath", "--root", &root.to_string_lossy()]);
    assert_eq!(code, 1, "seeded hot-path violations must exit 1; output:\n{text}");
    for lint in ["adr::hot_alloc", "adr::hot_panic", "adr::hot_lock"] {
        assert!(text.contains(lint), "missing {lint} in hotpath output:\n{text}");
    }
    // The reachable-set dump is printed before the findings.
    assert!(text.contains("reachable fn(s) from root"), "missing dump:\n{text}");
    assert!(text.contains("phase `im2col`"), "missing im2col phase in dump:\n{text}");
    // The cross-file edge attributes hashpack's indexing sites to the
    // `reuse_forward` phase as well as to `hash`.
    assert!(
        text.contains("(phase `reuse_forward`)") && text.contains("fn `hash_all`"),
        "missing cross-file attribution:\n{text}"
    );
    // The compliant twins allocate/panic/print identically but are not
    // reachable from any root, so none of them may be named.
    for twin in ["patch_scratch_cold", "decode_cold", "dump_stats", "load_checkpoint_cold"] {
        assert!(!text.contains(twin), "compliant twin `{twin}` was flagged:\n{text}");
    }
    // Sequential lints are out of scope for the hotpath subcommand.
    assert!(!text.contains("adr::no_panic"), "sequential lint leaked into hotpath run:\n{text}");
}

#[test]
fn hotpath_budget_drift_fails_with_the_pinned_count() {
    let root = manifest_dir().join("fixtures/hotpath_drift");
    let (code, text) = run_with_args(&["hotpath", "--root", &root.to_string_lossy()]);
    assert_eq!(code, 1, "budget drift must exit 1; output:\n{text}");
    assert!(
        text.contains("adr-check.budget pins 0") && text.contains("re-pin `im2col.alloc`"),
        "missing drift diagnostic:\n{text}"
    );
    // Roots declared in the analyzer but absent from the tree are findings
    // when a budget is committed.
    assert!(
        text.contains("hot root") && text.contains("`poll`"),
        "missing absent-root diagnostic:\n{text}"
    );
}

#[test]
fn hotpath_subcommand_is_clean_on_the_shipped_workspace() {
    let root = manifest_dir().join("../..");
    let (code, text) = run_with_args(&["hotpath", "--root", &root.to_string_lossy()]);
    assert_eq!(code, 0, "shipped workspace must pass adr-check hotpath; output:\n{text}");
    // The committed budget was loaded and every phase is accounted for.
    for phase in ["im2col", "hash", "gemm", "reuse_forward", "gateway"] {
        assert!(text.contains(&format!("phase `{phase}`")), "missing {phase} in dump:\n{text}");
    }
}

fn run_shapes(extra: &[&str]) -> (i32, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_adr-check"))
        .arg("shapes")
        .args(extra)
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
fn shapes_accepts_all_builtin_specs() {
    let (code, text) = run_shapes(&[]);
    assert_eq!(code, 0, "built-in specs must verify; output:\n{text}");
    for net in ["cifarnet", "alexnet", "vgg19"] {
        assert!(text.contains(&format!("shape-check {net}")), "missing {net} trace:\n{text}");
    }
    assert!(text.contains("3 spec(s) verified"), "unexpected summary:\n{text}");
}

#[test]
fn shapes_rejects_broken_fixture_with_trace() {
    let spec = manifest_dir().join("fixtures/shapes/broken.spec");
    let (code, text) = run_shapes(&["--spec", &spec.to_string_lossy()]);
    assert_eq!(code, 1, "broken spec must fail; output:\n{text}");
    // The error names the offending layer and the trace shows the divergence.
    assert!(
        text.contains("error[adr::shape_graph]: broken-cifarnet/conv2"),
        "error must name conv2:\n{text}"
    );
    assert!(text.contains("disagrees with propagated"), "missing mismatch detail:\n{text}");
    // The propagated prefix is printed: pool1 produced the 15x15 activation
    // conv2 contradicts.
    assert!(text.contains("(N, 64, 15, 15)"), "missing propagated shape in trace:\n{text}");
}
