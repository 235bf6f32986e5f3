//! `adr-check` — the workspace static-analysis pass.
//!
//! Adaptive Deep Reuse's correctness rests on invariants the type system
//! cannot see: every im2col GEMM must agree on `(N·H_out·W_out) × (K·K·C)`
//! shapes across forward and backward (Eqs. 9/17), every multiply–add must
//! be visible to the FLOP meter for the Eq. 5/6/12/20 cost model to stay
//! trustworthy, and hot paths must not panic mid-epoch. This crate walks
//! the workspace source and enforces those invariants mechanically:
//!
//! * [`lints::no_panic`] — `unwrap()/expect()/panic!`-family constructs are
//!   denied in `tensor`, `nn`, `reuse`, and `clustering` library code
//!   outside `#[cfg(test)]`, with an explicit allowlist (`adr-check.allow`)
//!   for audited sites.
//! * [`lints::flop_coverage`] — every `matmul*` call site in `nn` and
//!   `reuse` must share its function with a FLOP-meter update.
//! * [`lints::shape_docs`] — public `tensor`/`nn` functions taking matrix
//!   dimensions must carry a `# Shape` doc section.
//! * [`lints::determinism`] — OS-entropy sources (`thread_rng`,
//!   `from_entropy`, `SystemTime`) are banned in numeric library code, and
//!   hash-collection iteration is banned inside float-accumulating
//!   functions; the seeded `AdrRng` is the only sanctioned entropy source.
//! * [`lints::float_eq`] — exact `==`/`!=` between float expressions is
//!   denied outside `#[cfg(test)]`.
//! * [`lints::grad_coverage`] — every `Layer` impl in `nn` with a
//!   `forward` must be registered in `tests/gradient_checks.rs`.
//! * [`lints::durable_io`] — bare `File::create`/`fs::write` is denied in
//!   the checkpoint-adjacent crates (`nn`, `core`); every persistent
//!   artifact must go through `durable::write_atomic` (temp + fsync +
//!   atomic rename) so a crash can never tear it.
//! * [`conc::unsafe_contract`] — every `unsafe` site needs its `// SAFETY:`
//!   comment (or `# Safety` doc section); raw-pointer/`get_unchecked` code
//!   is confined to the approved kernel modules.
//! * [`conc::atomic_ordering`] — `Relaxed` atomic reads in
//!   float-accumulating functions are denied; every other explicit
//!   `Ordering` choice needs a categorized `ordering-*` allowlist audit.
//! * [`conc::lock_order`] — the inter-procedural lock-acquisition graph
//!   must be acyclic; cycles are reported as potential deadlocks with the
//!   full acquisition trace.
//! * [`conc::scoped_capture`] — mutable bindings captured across a spawn
//!   boundary must derive from a provably disjoint split
//!   (`split_at_mut`/`chunks_mut`).
//! * [`conc::par_reduction`] — float accumulation into shared state inside
//!   a spawn closure is denied (no fixed reduction order); fold per-thread
//!   partials sequentially after the join.
//!
//! The v1 lints are lexical pairings on the comment/literal-blanked token
//! stream; the v2 lints add binding-level dataflow facts ([`parser`]) on
//! top of the same lexer; the v3 lints add concurrency facts ([`conc`])
//! including a cross-file lock graph. There is still no `syn` dependency —
//! the workspace builds fully offline. See `DESIGN.md` ("Invariants &
//! static checks" and §12) for the contract, including each lint's
//! accepted imprecision.
//!
//! Besides source lints, the crate hosts the static model-graph verifier
//! ([`shapegraph`], exposed as `adr-check shapes`): it propagates
//! `(N, C, H, W)` through every `NetSpec` in `crates/models` and rejects
//! incompatible layer chains, invalid im2col factorizations (Eq. 5 needs
//! `L | K`), and reuse configs whose `H` exceeds the 64-bit signature
//! budget.

// Tests assert on values they just constructed; unwrap there is the idiom.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod allowlist;
pub mod callgraph;
pub mod conc;
pub mod hotpath;
pub mod lexer;
pub mod lints;
pub mod parser;
pub mod sarif;
pub mod scan;
pub mod shapegraph;

use std::path::{Path, PathBuf};

use allowlist::Allowlist;
use lints::{Finding, Lint};
use scan::FileModel;

/// Crates whose library code must not panic.
pub const NO_PANIC_CRATES: &[&str] = &["tensor", "nn", "reuse", "clustering"];
/// Crates whose GEMM call sites must be FLOP-metered.
pub const FLOP_CRATES: &[&str] = &["nn", "reuse"];
/// Crates whose public dimension-taking functions need `# Shape` docs.
pub const SHAPE_CRATES: &[&str] = &["tensor", "nn"];
/// Crates whose library code must be run-to-run deterministic.
pub const DETERMINISM_CRATES: &[&str] = &["tensor", "nn", "reuse", "clustering", "core"];
/// Crates where exact float `==`/`!=` is denied outside tests.
pub const FLOAT_EQ_CRATES: &[&str] = &["tensor", "nn", "reuse", "clustering", "core"];
/// Crates whose `Layer` impls must appear in the gradient-check registry.
pub const GRAD_COVERAGE_CRATES: &[&str] = &["nn", "reuse"];
/// Crates whose file writes must go through the atomic durable helper.
/// `serve` is here for its checkpoint-adjacent loading code: reads are
/// never flagged, but any write it grows must be atomic from day one.
/// `obs` exports metrics and BENCH documents that CI parses right after
/// the writing process exits — a torn write would fail the pipeline.
pub const DURABLE_IO_CRATES: &[&str] = &["nn", "core", "serve", "obs"];
/// Crates subject to the concurrency/unsafe lints — everywhere threads,
/// locks, atomics, or `unsafe` could plausibly appear. The SIMD-kernel and
/// sharded-training work (ROADMAP items 1–2) lands in `tensor`, `reuse`,
/// and `core`; the rest are included so stray concurrency cannot hide.
pub const CONC_CRATES: &[&str] = &["tensor", "nn", "reuse", "clustering", "core", "serve", "obs"];

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
    /// Rendered lock-order graph edges (`adr-check conc` output).
    pub lock_graph: Vec<String>,
    /// Rendered hot-path reachable-set/site dump (`adr-check hotpath`
    /// output).
    pub hotpath_dump: Vec<String>,
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
    run_impl(root, Mode::Full)
}

/// Runs only the concurrency lints (`adr-check conc`): the five
/// `conc::*` passes plus the rendered lock-order graph, for local
/// iteration on threaded code without the sequential lints' noise.
///
/// Allowlist staleness is *not* reported here — a conc-only run legitimately
/// leaves every sequential-lint entry unmatched; the full [`run_checks`]
/// pass is the authority on stale entries.
///
/// # Errors
/// Returns a message when the root is not a workspace or a source file or
/// the allowlist cannot be read/parsed.
pub fn run_conc(root: &Path) -> Result<Report, String> {
    let mut report = run_impl(root, Mode::ConcOnly)?;
    report.unused_allow.clear();
    report.bad_category.clear();
    Ok(report)
}

/// Runs only the hot-path resource lints (`adr-check hotpath`): the
/// `hotpath::*` passes plus the rendered reachable-set/site dump, for
/// iterating on the allocation budget without the other lints' noise.
///
/// Like [`run_conc`], allowlist staleness is not reported here — the full
/// [`run_checks`] pass is the authority on stale entries.
///
/// # Errors
/// Returns a message when the root is not a workspace or a source file,
/// the allowlist, or the budget manifest cannot be read/parsed.
pub fn run_hotpath(root: &Path) -> Result<Report, String> {
    let mut report = run_impl(root, Mode::HotpathOnly)?;
    report.unused_allow.clear();
    report.bad_category.clear();
    Ok(report)
}

/// Which lint families one run executes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Everything (`adr-check`).
    Full,
    /// Concurrency lints + lock graph only (`adr-check conc`).
    ConcOnly,
    /// Hot-path resource lints + dump only (`adr-check hotpath`).
    HotpathOnly,
}

fn run_impl(root: &Path, mode: Mode) -> Result<Report, String> {
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

    // The hot-path budget manifest is optional (fixture workspaces omit
    // it); when present, the hotpath lints enforce exact per-phase counts.
    let budget_path = root.join("adr-check.budget");
    let budget = if budget_path.is_file() && mode != Mode::ConcOnly {
        let text = std::fs::read_to_string(&budget_path)
            .map_err(|e| format!("reading {}: {e}", budget_path.display()))?;
        Some(hotpath::Budget::parse(&text)?)
    } else {
        None
    };

    let mut findings = Vec::new();
    let mut layer_impls = Vec::new();
    let mut all_fns: Vec<conc::FnConc> = Vec::new();
    let mut hot_fns: Vec<hotpath::HotFn> = Vec::new();
    let mut files_scanned = 0usize;
    let mut lint_crates: Vec<(&str, Vec<Lint>)> = Vec::new();
    let all_crates = NO_PANIC_CRATES
        .iter()
        .chain(FLOP_CRATES)
        .chain(SHAPE_CRATES)
        .chain(DETERMINISM_CRATES)
        .chain(FLOAT_EQ_CRATES)
        .chain(GRAD_COVERAGE_CRATES)
        .chain(DURABLE_IO_CRATES)
        .chain(CONC_CRATES);
    for name in all_crates {
        if !lint_crates.iter().any(|(n, _)| n == name) {
            let mut lints = Vec::new();
            if NO_PANIC_CRATES.contains(name) {
                lints.push(Lint::NoPanic);
            }
            if FLOP_CRATES.contains(name) {
                lints.push(Lint::FlopCoverage);
            }
            if SHAPE_CRATES.contains(name) {
                lints.push(Lint::ShapeDocs);
            }
            if DETERMINISM_CRATES.contains(name) {
                lints.push(Lint::Determinism);
            }
            if FLOAT_EQ_CRATES.contains(name) {
                lints.push(Lint::FloatEq);
            }
            if DURABLE_IO_CRATES.contains(name) {
                lints.push(Lint::DurableIo);
            }
            lint_crates.push((name, lints));
        }
    }

    for (crate_name, lints) in &lint_crates {
        let src = crates_dir.join(crate_name).join("src");
        if !src.is_dir() {
            continue; // fixture workspaces may model only some crates
        }
        let collect_impls = GRAD_COVERAGE_CRATES.contains(crate_name) && mode == Mode::Full;
        let conc_crate = CONC_CRATES.contains(crate_name);
        for path in rust_files(&src)? {
            let rel = rel_path(root, &path);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let model = FileModel::parse(&text);
            files_scanned += 1;
            let mut file_findings = Vec::new();
            if mode == Mode::Full {
                for lint in lints {
                    match lint {
                        Lint::NoPanic => file_findings.extend(lints::no_panic(&rel, &model)),
                        Lint::FlopCoverage => {
                            file_findings.extend(lints::flop_coverage(&rel, &model))
                        }
                        Lint::ShapeDocs => file_findings.extend(lints::shape_docs(&rel, &model)),
                        Lint::Determinism => file_findings.extend(lints::determinism(&rel, &model)),
                        Lint::FloatEq => file_findings.extend(lints::float_eq(&rel, &model)),
                        Lint::DurableIo => file_findings.extend(lints::durable_io(&rel, &model)),
                        _ => {}
                    }
                }
            }
            if conc_crate && mode != Mode::HotpathOnly {
                let uses = parser::UseMap::collect(&model.cleaned);
                let facts = conc::collect(&rel, &model, &uses);
                file_findings.extend(conc::unsafe_contract(&rel, &model, &facts));
                file_findings.extend(conc::scoped_capture(&rel, &model, &facts));
                file_findings.extend(conc::par_reduction(&rel, &model, &facts));
                // `atomic_ordering` suppressions must carry an `ordering-*`
                // category — a generic audit comment is not enough.
                findings.extend(conc::atomic_ordering(&rel, &model, &facts).into_iter().filter(
                    |f| !allow.allows_categorized(&f.file, &f.line_text, ORDERING_CATEGORIES),
                ));
                all_fns.extend(facts.fns);
            }
            if conc_crate && mode != Mode::ConcOnly {
                hot_fns.extend(hotpath::collect(&rel, &model));
            }
            if collect_impls {
                layer_impls.extend(lints::layer_impls(&rel, &model));
            }
            findings
                .extend(file_findings.into_iter().filter(|f| !allow.allows(&f.file, &f.line_text)));
        }
    }

    if mode == Mode::Full {
        findings.extend(
            lints::grad_coverage(&layer_impls, &registry)
                .into_iter()
                .filter(|f| !allow.allows(&f.file, &f.line_text)),
        );
    }

    // The lock-order graph is inter-procedural: it needs every scanned
    // function before edges (and cycles) can be derived.
    let lock_graph = if mode == Mode::HotpathOnly {
        Vec::new()
    } else {
        let (lock_findings, lock_graph) = conc::lock_order(&all_fns);
        findings.extend(lock_findings.into_iter().filter(|f| !allow.allows(&f.file, &f.line_text)));
        lock_graph
    };

    // So is the hot-path analysis: reachability from the declared roots
    // crosses crate boundaries (serve → nn → tensor/reuse). Allowlist
    // filtering happens inside (alloc audits are category-gated, lock
    // audits are plain, panic sites are budget-counted).
    let hotpath_dump = if mode == Mode::ConcOnly {
        Vec::new()
    } else {
        let hot = hotpath::check(&hot_fns, budget.as_ref(), &allow);
        findings.extend(hot.findings);
        hot.dump
    };

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    let unused_allow = allow
        .unused()
        .into_iter()
        .map(|e| format!("adr-check.allow:{}: `{}: {}` matched nothing", e.line, e.path, e.pattern))
        .collect();
    let bad_category = allow.category_errors();
    Ok(Report { findings, unused_allow, bad_category, files_scanned, lock_graph, hotpath_dump })
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
