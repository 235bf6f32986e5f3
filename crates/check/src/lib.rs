//! `adr-check` — the workspace static-analysis pass.
//!
//! Adaptive Deep Reuse's correctness rests on a few invariants no compiler
//! lint can see. This crate walks the workspace source and enforces them
//! mechanically:
//!
//! * [`lints::no_panic`] — `unwrap()/expect()/panic!`-family constructs are
//!   denied in `tensor`, `nn`, `reuse`, and `clustering` library code
//!   outside `#[cfg(test)]`, with an explicit allowlist (`adr-check.allow`)
//!   for audited sites.
//! * [`lints::determinism`] — OS-entropy sources (`thread_rng`,
//!   `from_entropy`, `SystemTime`) are banned in numeric library code; the
//!   seeded `AdrRng` is the only sanctioned entropy source.
//! * [`lints::grad_coverage`] — every `Layer` impl in `nn`/`reuse` with a
//!   `forward` must be registered in `tests/gradient_checks.rs`.
//! * [`lints::durable_io`] — bare `File::create`/`fs::write` is denied in
//!   the checkpoint-adjacent crates; every persistent artifact must go
//!   through `durable::write_atomic` (temp + fsync + atomic rename) so a
//!   crash can never tear it.
//! * [`conc::atomic_ordering`] — every explicit atomic `Ordering` needs a
//!   categorized `ordering-*` allowlist audit.
//!
//! All five are lexical pairings on the comment/literal-blanked token
//! stream of one fact pass ([`scan::FileModel`]); there is no `syn`
//! dependency — the workspace builds fully offline. What a compiler
//! already proves is left to it: `unsafe` (rustc `unsafe_code`, clippy
//! `undocumented_unsafe_blocks`), float equality (`clippy::float_cmp`),
//! hash-order iteration (`clippy::iter_over_hash_type`); per-step
//! allocation counts are asserted under a real allocator by the
//! `counting_alloc` test suites. DESIGN.md §12 has the ownership table
//! and each lint's accepted imprecision.

// Tests assert on values they just constructed; unwrap there is the idiom.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod allowlist;
pub mod conc;
pub mod lexer;
pub mod lints;
pub mod parser;
pub mod sarif;
pub mod scan;

use std::path::{Path, PathBuf};

use allowlist::Allowlist;
use lints::Finding;
use scan::FileModel;

/// Crates whose library code must not panic.
pub const NO_PANIC_CRATES: &[&str] = &["tensor", "nn", "reuse", "clustering"];
/// Crates whose library code must not draw OS entropy.
pub const DETERMINISM_CRATES: &[&str] = &["tensor", "nn", "reuse", "clustering", "core"];
/// Crates whose `Layer` impls must appear in the gradient-check registry.
pub const GRAD_COVERAGE_CRATES: &[&str] = &["nn", "reuse"];
/// Crates whose file writes must go through the atomic durable helper.
/// `serve` is here for its checkpoint-adjacent loading code: reads are
/// never flagged, but any write it grows must be atomic from day one.
/// `obs` exports metrics and BENCH documents that CI parses right after
/// the writing process exits — a torn write would fail the pipeline.
pub const DURABLE_IO_CRATES: &[&str] = &["nn", "core", "serve", "obs"];
/// Crates subject to the atomics audit — everywhere an atomic could
/// plausibly appear — and therefore the set of crates scanned at all (every
/// other list is a subset).
pub const ATOMICS_CRATES: &[&str] =
    &["tensor", "nn", "reuse", "clustering", "core", "serve", "obs"];

/// Allowlist categories accepted by `adr::atomic_ordering` suppressions.
const ORDERING_CATEGORIES: &[&str] = &["ordering-counter", "ordering-handoff"];

/// Everything one run produced.
pub struct Report {
    /// Violations that survived the allowlist, ordered by file then line.
    pub findings: Vec<Finding>,
    /// Allowlist entries that matched nothing (stale audits).
    pub unused_allow: Vec<String>,
    /// Allowlist entries with a missing or unknown audit category.
    pub bad_category: Vec<String>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the workspace is clean (no findings, no stale or
    /// malformed allows).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.unused_allow.is_empty() && self.bad_category.is_empty()
    }
}

/// Runs all lints over the workspace rooted at `root`.
///
/// `root` must contain a `crates/` directory laid out like this workspace.
/// The allowlist is read from `<root>/adr-check.allow` when present.
///
/// # Errors
/// Returns a message when the root is not a workspace or a source file or
/// the allowlist cannot be read/parsed.
pub fn run_checks(root: &Path) -> Result<Report, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!("{} has no crates/ directory — not a workspace root", root.display()));
    }
    let allow_path = root.join("adr-check.allow");
    let allow = if allow_path.is_file() {
        let text = std::fs::read_to_string(&allow_path)
            .map_err(|e| format!("reading {}: {e}", allow_path.display()))?;
        Allowlist::parse(&text)?
    } else {
        Allowlist::empty()
    };

    // Gradient-check registry: type names listed via `grad-check:` comments
    // in the integration-test suite. Read from the raw text (the cleaned
    // text blanks comments). A missing file yields an empty registry, so
    // every `Layer` impl is flagged — which is what fixture workspaces want.
    let registry_path = root.join("tests").join("gradient_checks.rs");
    let registry = if registry_path.is_file() {
        let text = std::fs::read_to_string(&registry_path)
            .map_err(|e| format!("reading {}: {e}", registry_path.display()))?;
        lints::grad_check_registry(&text)
    } else {
        Vec::new()
    };

    let mut findings = Vec::new();
    let mut layer_impls = Vec::new();
    let mut files_scanned = 0usize;
    for crate_name in ATOMICS_CRATES {
        let src = crates_dir.join(crate_name).join("src");
        if !src.is_dir() {
            continue; // fixture workspaces may model only some crates
        }
        for path in rust_files(&src)? {
            let rel = rel_path(root, &path);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let model = FileModel::parse(&text);
            files_scanned += 1;
            let mut file_findings = Vec::new();
            if NO_PANIC_CRATES.contains(crate_name) {
                file_findings.extend(lints::no_panic(&rel, &model));
            }
            if DETERMINISM_CRATES.contains(crate_name) {
                file_findings.extend(lints::determinism(&rel, &model));
            }
            if DURABLE_IO_CRATES.contains(crate_name) {
                file_findings.extend(lints::durable_io(&rel, &model));
            }
            if GRAD_COVERAGE_CRATES.contains(crate_name) {
                layer_impls.extend(lints::layer_impls(&rel, &model));
            }
            findings
                .extend(file_findings.into_iter().filter(|f| !allow.allows(&f.file, &f.line_text)));
            // `atomic_ordering` suppressions must carry an `ordering-*`
            // category — a generic audit comment is not enough.
            findings.extend(
                conc::atomic_ordering(&rel, &model).into_iter().filter(|f| {
                    !allow.allows_categorized(&f.file, &f.line_text, ORDERING_CATEGORIES)
                }),
            );
        }
    }
    findings.extend(
        lints::grad_coverage(&layer_impls, &registry)
            .into_iter()
            .filter(|f| !allow.allows(&f.file, &f.line_text)),
    );

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    let unused_allow = allow
        .unused()
        .into_iter()
        .map(|e| format!("adr-check.allow:{}: `{}: {}` matched nothing", e.line, e.path, e.pattern))
        .collect();
    let bad_category = allow.category_errors();
    Ok(Report { findings, unused_allow, bad_category, files_scanned })
}

/// All `.rs` files under `dir`, recursively, sorted for stable output.
fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| format!("reading {}: {e}", d.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("reading {}: {e}", d.display()))?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Workspace-relative path with forward slashes (stable across platforms).
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
