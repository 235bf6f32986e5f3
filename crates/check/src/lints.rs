//! The ADR-specific lints.
//!
//! The v1 lints (`no_panic`, `flop_coverage`, `shape_docs`) are lexical:
//! they run on the comment/literal-blanked source (see [`crate::lexer`])
//! with function spans and `#[cfg(test)]` regions from [`crate::scan`].
//! The v2 dataflow lints (`determinism`, `float_eq`, `grad_coverage`) add
//! the binding-level facts of [`crate::parser`]: use-path resolution,
//! map/float-typed locals and fields, and float-accumulation detection.
//! All of it stays hand-rolled on the existing lexer (no `syn`), so the
//! tool keeps running in the fully offline build environment.

use crate::parser::{self, FnFacts, UseMap};
use crate::scan::{is_word_at, FileModel};

/// Which lint produced a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lint {
    /// Panicking construct in hot-path library code.
    NoPanic,
    /// GEMM call site not paired with a FLOP-meter update.
    FlopCoverage,
    /// Public dimension-taking function without a `# Shape` doc section.
    ShapeDocs,
    /// Run-to-run nondeterminism source in numeric library code.
    Determinism,
    /// Exact float equality outside test code.
    FloatEq,
    /// `Layer` implementation missing from the gradient-check registry.
    GradCoverage,
    /// Bare (non-atomic) file write in checkpoint-adjacent code.
    DurableIo,
    /// `unsafe` site without its justification, or raw-pointer code
    /// outside the approved kernel modules.
    UnsafeContract,
    /// Atomic ordering that is either denied (`Relaxed` read near float
    /// accumulation) or unaudited.
    AtomicOrdering,
    /// Cycle in the inter-procedural lock-acquisition graph.
    LockOrder,
    /// Non-disjoint mutable capture crossing a spawn boundary.
    ScopedCapture,
    /// Unordered float reduction inside a parallel region.
    ParReduction,
    /// Unaudited heap allocation (or budget drift) reachable from a hot
    /// root.
    HotAlloc,
    /// Implicit-panic site count drifting from the hot-path budget.
    HotPanic,
    /// Lock acquisition, file I/O, or console output reachable from a hot
    /// root.
    HotLock,
}

impl Lint {
    /// Stable lint name used in reports and documentation.
    pub fn name(self) -> &'static str {
        match self {
            Lint::NoPanic => "adr::no_panic",
            Lint::FlopCoverage => "adr::flop_coverage",
            Lint::ShapeDocs => "adr::shape_docs",
            Lint::Determinism => "adr::determinism",
            Lint::FloatEq => "adr::float_eq",
            Lint::GradCoverage => "adr::grad_coverage",
            Lint::DurableIo => "adr::durable_io",
            Lint::UnsafeContract => "adr::unsafe_contract",
            Lint::AtomicOrdering => "adr::atomic_ordering",
            Lint::LockOrder => "adr::lock_order",
            Lint::ScopedCapture => "adr::scoped_capture",
            Lint::ParReduction => "adr::par_reduction",
            Lint::HotAlloc => "adr::hot_alloc",
            Lint::HotPanic => "adr::hot_panic",
            Lint::HotLock => "adr::hot_lock",
        }
    }

    /// One-line rule description (SARIF `shortDescription`).
    pub fn description(self) -> &'static str {
        match self {
            Lint::NoPanic => "No panicking constructs in hot-path library code",
            Lint::FlopCoverage => "Every GEMM call site pairs with a FLOP-meter update",
            Lint::ShapeDocs => "Public dimension-taking functions document their # Shape contract",
            Lint::Determinism => "No OS entropy or hash-order float reduction in numeric code",
            Lint::FloatEq => "No exact float ==/!= outside tests",
            Lint::GradCoverage => "Every Layer impl is registered in the gradient-check suite",
            Lint::DurableIo => "Persistent artifacts are written via the atomic durable helper",
            Lint::UnsafeContract => {
                "Every unsafe site carries its SAFETY justification; raw pointers stay in \
                 approved kernel modules"
            }
            Lint::AtomicOrdering => {
                "Every atomic Ordering choice is audited; Relaxed reads near float \
                 accumulation are denied"
            }
            Lint::LockOrder => "The inter-procedural lock-acquisition graph is acyclic",
            Lint::ScopedCapture => {
                "Mutable captures crossing a spawn boundary are provably disjoint"
            }
            Lint::ParReduction => "Float reductions in parallel regions use a fixed order",
            Lint::HotAlloc => {
                "Heap allocations reachable from a hot root are audited and their per-phase \
                 count pinned in adr-check.budget"
            }
            Lint::HotPanic => {
                "Implicit panic sites reachable from a hot root match the pinned per-phase \
                 budget"
            }
            Lint::HotLock => "No locks, file I/O, or console output reachable from a hot root",
        }
    }

    /// All lints, for SARIF rule enumeration.
    pub const ALL: &'static [Lint] = &[
        Lint::NoPanic,
        Lint::FlopCoverage,
        Lint::ShapeDocs,
        Lint::Determinism,
        Lint::FloatEq,
        Lint::GradCoverage,
        Lint::DurableIo,
        Lint::UnsafeContract,
        Lint::AtomicOrdering,
        Lint::LockOrder,
        Lint::ScopedCapture,
        Lint::ParReduction,
        Lint::HotAlloc,
        Lint::HotPanic,
        Lint::HotLock,
    ];
}

/// One lint violation.
#[derive(Debug)]
pub struct Finding {
    /// Which lint fired.
    pub lint: Lint,
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// Raw text of the offending line (for allowlist matching).
    pub line_text: String,
}

/// Panicking constructs denied in hot-path library code.
///
/// `assert!`/`assert_eq!` are *not* denied: shape-contract assertions at
/// API boundaries are the documented failure mode for caller bugs, and each
/// is required (via clippy's `missing_panics_doc`) to carry a `# Panics`
/// doc. What this lint removes from hot paths is the unplanned variety:
/// `unwrap`/`expect` on `Option`/`Result` and explicit `panic!` family
/// macros in loops that run mid-epoch.
const PANIC_TOKENS: &[(&str, &str)] = &[
    ("unwrap", ".unwrap() in hot-path library code (handle the None/Err case or allowlist the audited site)"),
    ("expect", ".expect() in hot-path library code (handle the None/Err case or allowlist the audited site)"),
    ("panic", "panic! in hot-path library code (return an error or allowlist the audited site)"),
    ("unreachable", "unreachable! in hot-path library code (prove it with types or allowlist the audited site)"),
    ("todo", "todo! left in library code"),
    ("unimplemented", "unimplemented! left in library code"),
];

/// Lint 1: no panicking constructs in library code outside `#[cfg(test)]`.
pub fn no_panic(file: &str, model: &FileModel) -> Vec<Finding> {
    let mut findings = Vec::new();
    let cleaned = &model.cleaned;
    for (token, message) in PANIC_TOKENS {
        let mut i = 0usize;
        while let Some(pos) = cleaned[i..].find(token).map(|p| p + i) {
            i = pos + token.len();
            if !is_word_at(cleaned, pos, token) {
                continue;
            }
            // `.unwrap()` / `.expect(` are method calls; the macros appear
            // as `name!`. Anything else (e.g. `unwrap_or`, a local named
            // `todo`) is fine — is_word_at already rejected those.
            let rest = cleaned[pos + token.len()..].trim_start();
            let is_method = *token == "unwrap" || *token == "expect";
            let matches_use = if is_method {
                rest.starts_with('(') && cleaned[..pos].trim_end().ends_with('.')
            } else {
                rest.starts_with('!')
            };
            if !matches_use || model.in_test_code(pos) {
                continue;
            }
            // `debug_assert!`-style and `#[allow]` interplay is handled by
            // the allowlist file, not inline attributes.
            let line = model.line_of(pos);
            findings.push(Finding {
                lint: Lint::NoPanic,
                file: file.to_string(),
                line,
                message: (*message).to_string(),
                line_text: model.line_text(line).to_string(),
            });
        }
    }
    findings
}

/// GEMM entry points whose multiply–adds the cost model must see.
const GEMM_TOKENS: &[&str] = &[
    "matmul",
    "matmul_into",
    "matmul_t_a",
    "matmul_t_b",
    "matmul_par",
    "matmul_range_t_b_par",
    "gemm_ta_par",
    "gemm_tb_par",
];

/// Substrings that count as a FLOP-meter update inside a function body.
const FLOP_RECORD_MARKS: &[&str] = &["add_forward", "add_backward", "flops"];

/// Lint 2: every GEMM call site in `nn`/`reuse` library code must share its
/// enclosing function with a FLOP-meter update, so the Eq. 5/6/12/20 cost
/// model cannot silently drift from the computation it claims to describe.
pub fn flop_coverage(file: &str, model: &FileModel) -> Vec<Finding> {
    let mut findings = Vec::new();
    let cleaned = &model.cleaned;
    for token in GEMM_TOKENS {
        let mut i = 0usize;
        while let Some(pos) = cleaned[i..].find(token).map(|p| p + i) {
            i = pos + token.len();
            if !is_word_at(cleaned, pos, token) {
                continue;
            }
            // Call sites only: `name(`; skip definitions (`fn matmul`),
            // paths in imports, and doc references.
            let rest = cleaned[pos + token.len()..].trim_start();
            if !rest.starts_with('(') {
                continue;
            }
            let before = cleaned[..pos].trim_end();
            if before.ends_with("fn") {
                continue;
            }
            if model.in_test_code(pos) {
                continue;
            }
            let Some(espan) = model.enclosing_fn(pos) else {
                continue; // not inside a function (e.g. a const initialiser)
            };
            let body = &cleaned[espan.body.clone()];
            let recorded = FLOP_RECORD_MARKS.iter().any(|mark| body.contains(mark));
            if recorded {
                continue;
            }
            let line = model.line_of(pos);
            findings.push(Finding {
                lint: Lint::FlopCoverage,
                file: file.to_string(),
                line,
                message: format!(
                    "`{}(...)` in fn `{}` has no FLOP-meter update in the same function \
                     (record with add_forward/add_backward or a *_flops counter)",
                    token, espan.name
                ),
                line_text: model.line_text(line).to_string(),
            });
        }
    }
    findings
}

/// Lint 3: public functions in `tensor`/`nn` that take matrix dimensions
/// (two or more `usize` parameters) must document their `# Shape` contract.
pub fn shape_docs(file: &str, model: &FileModel) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &model.fns {
        if !f.is_public || model.in_test_code(f.start) {
            continue;
        }
        // `: usize` matches bare dimension parameters but not slice/ref
        // types like `&[usize]`, which carry data rather than shape.
        let usize_params = f.params.matches(": usize").count();
        if usize_params < 2 {
            continue;
        }
        if f.docs.contains("# Shape") {
            continue;
        }
        findings.push(Finding {
            lint: Lint::ShapeDocs,
            file: file.to_string(),
            line: f.line,
            message: format!(
                "public fn `{}` takes {} dimension parameters but its docs have no `# Shape` section",
                f.name, usize_params
            ),
            line_text: model.line_text(f.line).to_string(),
        });
    }
    findings
}

/// Entropy sources banned outright in numeric library code: everything
/// stochastic must flow from a seeded `AdrRng` so whole runs replay
/// bit-for-bit (the paper's Figs. 7–8 curves are only comparable across
/// `{L, H, CR}` settings when the policy is the *only* varying input).
const ENTROPY_TOKENS: &[(&str, &str)] = &[
    ("thread_rng", "thread_rng() is OS-seeded; draw from a seeded AdrRng stream instead"),
    (
        "from_entropy",
        "from_entropy() seeds from the OS; derive the seed from AdrRng::split instead",
    ),
    (
        "SystemTime",
        "SystemTime-derived values must not feed seeds or policy decisions; \
         use a seeded AdrRng (wall-clock *measurement* belongs in Instant-based reporting only)",
    ),
];

/// Iteration adaptors whose order is unspecified on hash collections.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Lint 4: run-to-run determinism. Bans OS-entropy sources everywhere in
/// numeric library code, and bans iterating a `HashMap`/`HashSet` (or the
/// workspace's `SignatureMap`/`SignatureSet` aliases) inside any function
/// that accumulates floats — hash-iteration order reorders float sums,
/// which breaks bitwise reproducibility across builds and capacities. Sort
/// the keys (or keep a side `Vec` in insertion order) before folding.
pub fn determinism(file: &str, model: &FileModel) -> Vec<Finding> {
    let mut findings = Vec::new();
    let cleaned = &model.cleaned;

    for (token, message) in ENTROPY_TOKENS {
        let mut i = 0usize;
        while let Some(pos) = cleaned[i..].find(token).map(|p| p + i) {
            i = pos + token.len();
            if !is_word_at(cleaned, pos, token) || model.in_test_code(pos) {
                continue;
            }
            let line = model.line_of(pos);
            findings.push(Finding {
                lint: Lint::Determinism,
                file: file.to_string(),
                line,
                message: (*message).to_string(),
                line_text: model.line_text(line).to_string(),
            });
        }
    }

    let uses = UseMap::collect(cleaned);
    let fields = parser::map_fields(model, &uses);
    for f in &model.fns {
        if model.in_test_code(f.start) || f.body.is_empty() {
            continue;
        }
        let facts = parser::fn_facts(model, f, &uses);
        if !facts.accumulates_float {
            continue;
        }
        let mut names: Vec<&str> = facts.map_locals.iter().map(String::as_str).collect();
        names.extend(fields.iter().map(String::as_str));
        let body = &cleaned[f.body.clone()];
        for name in names {
            for pos in iteration_sites(body, name) {
                let global = f.body.start + pos;
                let line = model.line_of(global);
                findings.push(Finding {
                    lint: Lint::Determinism,
                    file: file.to_string(),
                    line,
                    message: format!(
                        "fn `{}` iterates hash collection `{}` while accumulating floats; \
                         hash order is not a stable reduction order — sort the keys first",
                        f.name, name
                    ),
                    line_text: model.line_text(line).to_string(),
                });
            }
        }
    }
    findings.sort_by_key(|f| f.line);
    findings.dedup_by(|a, b| a.line == b.line && a.message == b.message);
    findings
}

/// Byte offsets in `body` where hash collection `name` is iterated: either
/// `name.<iter-method>(` (incl. `self.name.…`) or as the sequence of a
/// `for … in [&[mut ]]name` loop.
fn iteration_sites(body: &str, name: &str) -> Vec<usize> {
    let mut sites = Vec::new();
    let mut i = 0usize;
    while let Some(pos) = body[i..].find(name).map(|p| p + i) {
        i = pos + name.len();
        if !is_word_at(body, pos, name) {
            continue;
        }
        let rest = &body[pos + name.len()..];
        // Method-call iteration: `name.iter()`, `name.values_mut()`, ...
        if let Some(method_rest) = rest.strip_prefix('.') {
            let method: String = method_rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if ITER_METHODS.contains(&method.as_str()) {
                sites.push(pos);
                continue;
            }
        }
        // Loop iteration: `for … in name {` / `in &name {`.
        let before = body[..pos].trim_end();
        let before = before.trim_end_matches('&').trim_end();
        let before = before.strip_suffix("mut").map_or(before, |b| b.trim_end());
        let before = before.trim_end_matches('&').trim_end();
        let is_for_in = before.ends_with("in")
            && is_word_at(before, before.len() - 2, "in")
            && rest.trim_start().starts_with('{');
        if is_for_in {
            sites.push(pos);
        }
    }
    sites
}

/// Lint 5: no exact `==`/`!=` between float expressions outside
/// `#[cfg(test)]`. Exact float equality is only meaningful for IEEE
/// special-case guards; everything else must compare against a tolerance
/// (`Matrix::max_abs_diff`, `(a - b).abs() < eps`). The rare deliberate
/// exact guard is an allowlist entry with an audit comment.
pub fn float_eq(file: &str, model: &FileModel) -> Vec<Finding> {
    let mut findings = Vec::new();
    let cleaned = &model.cleaned;
    let uses = UseMap::collect(cleaned);
    for op in ["==", "!="] {
        let mut i = 0usize;
        while let Some(pos) = cleaned[i..].find(op).map(|p| p + i) {
            i = pos + op.len();
            if model.in_test_code(pos) {
                continue;
            }
            // `==` also matches inside `!=`'s neighbour scan; and any `=` run
            // longer than the operator is not a comparison.
            if op == "==" && pos > 0 && cleaned.as_bytes()[pos - 1] == b'!' {
                continue;
            }
            let floats = {
                let facts = model
                    .enclosing_fn(pos)
                    .map(|f| parser::fn_facts(model, f, &uses))
                    .unwrap_or_default();
                operand_is_float(&cleaned[..pos], &facts, true)
                    || operand_is_float(&cleaned[pos + op.len()..], &facts, false)
            };
            if !floats {
                continue;
            }
            let line = model.line_of(pos);
            findings.push(Finding {
                lint: Lint::FloatEq,
                file: file.to_string(),
                line,
                message: format!(
                    "exact float `{op}` outside tests; compare against a tolerance \
                     (max_abs_diff / (a - b).abs() < eps) or allowlist the audited exact guard"
                ),
                line_text: model.line_text(line).to_string(),
            });
        }
    }
    findings
}

/// Classifies the operand adjacent to a comparison: `text` is everything
/// before (`left = true`) or after (`left = false`) the operator.
fn operand_is_float(text: &str, facts: &FnFacts, left: bool) -> bool {
    let token: String = if left {
        let trimmed = text.trim_end();
        trimmed
            .chars()
            .rev()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '.')
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect()
    } else {
        let trimmed = text.trim_start().trim_start_matches('-').trim_start();
        trimmed
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '.')
            .collect()
    };
    if token.is_empty() {
        return false;
    }
    // A float literal (`0.0`, `1e-3` won't parse here but `1.5` will), an
    // `as f32` cast remnant, or a tracked float-typed binding.
    if parser::contains_float_literal(&token) {
        return true;
    }
    let last_segment = token.rsplit('.').next().unwrap_or(&token);
    facts.float_locals.iter().any(|n| n == last_segment)
}

/// One `impl Layer for T` site found in `nn` sources.
#[derive(Debug)]
pub struct LayerImpl {
    /// Implementing type name.
    pub type_name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-indexed line of the `impl`.
    pub line: usize,
    /// Raw text of the `impl` line.
    pub line_text: String,
    /// Whether the impl block provides a `forward`.
    pub has_forward: bool,
    /// Whether a `grad-check: exempt` audit comment precedes the impl.
    pub exempt: bool,
}

/// Collects `impl Layer for <Type>` blocks from one file.
pub fn layer_impls(file: &str, model: &FileModel) -> Vec<LayerImpl> {
    let cleaned = &model.cleaned;
    let mut out = Vec::new();
    let mut i = 0usize;
    while let Some(pos) = cleaned[i..].find("impl").map(|p| p + i) {
        i = pos + 4;
        if !is_word_at(cleaned, pos, "impl") || model.in_test_code(pos) {
            continue;
        }
        let Some(open) = cleaned[pos..].find('{').map(|p| p + pos) else {
            break;
        };
        let header = &cleaned[pos..open];
        let Some(for_pos) = header.find(" for ") else {
            continue;
        };
        let trait_part = &header[4..for_pos];
        let trait_leaf = trait_part
            .trim()
            .trim_end_matches('>')
            .rsplit("::")
            .next()
            .unwrap_or("")
            .trim()
            .trim_start_matches('<')
            .trim();
        if trait_leaf != "Layer" {
            continue;
        }
        let type_name: String = header[for_pos + 5..]
            .trim()
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if type_name.is_empty() {
            continue;
        }
        let close = crate::scan::match_brace(cleaned, open);
        let body = &cleaned[open..close];
        let has_forward =
            body.match_indices("fn forward").any(|(p, _)| is_word_at(body, p + 3, "forward"));
        let line = model.line_of(pos);
        let exempt = (line.saturating_sub(3)..line)
            .filter(|&l| l > 0)
            .any(|l| model.line_text(l).contains("grad-check: exempt"));
        out.push(LayerImpl {
            type_name,
            file: file.to_string(),
            line,
            line_text: model.line_text(line).to_string(),
            has_forward,
            exempt,
        });
        i = open + 1;
    }
    out
}

/// Parses the gradient-check registry: every `grad-check: A, B` comment in
/// `tests/gradient_checks.rs` contributes its listed type names.
pub fn grad_check_registry(raw: &str) -> Vec<String> {
    let mut names = Vec::new();
    for line in raw.lines() {
        let Some(idx) = line.find("grad-check:") else {
            continue;
        };
        let list = &line[idx + "grad-check:".len()..];
        for name in list.split(',') {
            let name = name.trim();
            if !name.is_empty()
                && name != "exempt"
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                names.push(name.to_string());
            }
        }
    }
    names.sort_unstable();
    names.dedup();
    names
}

/// Lint 6: every `Layer` implementation in `nn` with a `forward` must be
/// registered (and therefore exercised) in the gradient-check suite. The
/// paper's backward-reuse equations (9/10, 17/18) only hold when each
/// layer's analytic gradient is validated against finite differences — a
/// layer outside the registry is an unverified link in every chain rule.
pub fn grad_coverage(impls: &[LayerImpl], registry: &[String]) -> Vec<Finding> {
    impls
        .iter()
        .filter(|imp| imp.has_forward && !imp.exempt)
        .filter(|imp| !registry.iter().any(|r| r == &imp.type_name))
        .map(|imp| Finding {
            lint: Lint::GradCoverage,
            file: imp.file.clone(),
            line: imp.line,
            message: format!(
                "`{}` implements Layer but has no `grad-check: {}` entry in \
                 tests/gradient_checks.rs (add a finite-difference check, or an audited \
                 `grad-check: exempt` comment above the impl)",
                imp.type_name, imp.type_name
            ),
            line_text: imp.line_text.clone(),
        })
        .collect()
}

/// Bare write entry points denied in checkpoint-adjacent crates. A torn
/// checkpoint is worse than none — a resumed run reads half-written state —
/// so every persistent artifact must go through the temp + fsync + rename
/// protocol of `adr_nn::durable::write_atomic`.
const DURABLE_IO_TOKENS: &[(&str, &str)] = &[
    (
        "File::create",
        "bare File::create in checkpoint-adjacent code; route the write through \
         durable::write_atomic (temp + fsync + rename) so a crash cannot tear the artifact",
    ),
    (
        "fs::write",
        "bare fs::write in checkpoint-adjacent code; route the write through \
         durable::write_atomic (temp + fsync + rename) so a crash cannot tear the artifact",
    ),
];

/// Lint 7: persistent artifacts in checkpoint-adjacent crates must be
/// written through the atomic helper, never with bare `File::create` or
/// `fs::write`. The helper itself (`durable.rs`) is the one sanctioned
/// home for the raw syscalls and is exempt.
pub fn durable_io(file: &str, model: &FileModel) -> Vec<Finding> {
    if file.ends_with("durable.rs") {
        return Vec::new();
    }
    let mut findings = Vec::new();
    let cleaned = &model.cleaned;
    for (token, message) in DURABLE_IO_TOKENS {
        let mut i = 0usize;
        while let Some(pos) = cleaned[i..].find(token).map(|p| p + i) {
            i = pos + token.len();
            // Word boundary at the front: `BigFile::create` is a different
            // type, but a path prefix (`std::fs::write`) is still a match.
            if pos > 0 {
                let before = cleaned.as_bytes()[pos - 1];
                if before.is_ascii_alphanumeric() || before == b'_' {
                    continue;
                }
            }
            // Call sites only: `…(`. This also skips longer method names
            // like `fs::write_atomic` re-exports.
            let rest = cleaned[pos + token.len()..].trim_start();
            if !rest.starts_with('(') || model.in_test_code(pos) {
                continue;
            }
            let line = model.line_of(pos);
            findings.push(Finding {
                lint: Lint::DurableIo,
                file: file.to_string(),
                line,
                message: (*message).to_string(),
                line_text: model.line_text(line).to_string(),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::parse(src)
    }

    #[test]
    fn no_panic_flags_unwrap_outside_tests() {
        let m = model("fn f(x: Option<u8>) -> u8 { x.unwrap() }");
        let found = no_panic("lib.rs", &m);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].lint, Lint::NoPanic);
    }

    #[test]
    fn no_panic_ignores_unwrap_or_and_strings() {
        let m = model(
            "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\nfn g() -> &'static str { \"don't panic!()\" }",
        );
        assert!(no_panic("lib.rs", &m).is_empty());
    }

    #[test]
    fn no_panic_ignores_test_code() {
        let m = model("#[cfg(test)]\nmod tests {\n fn f() { None::<u8>.unwrap(); panic!(); }\n}");
        assert!(no_panic("lib.rs", &m).is_empty());
    }

    #[test]
    fn flop_coverage_flags_unmetered_gemm() {
        let m = model("fn f(a: &M, b: &M) -> M { a.matmul(b) }");
        let found = flop_coverage("lib.rs", &m);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("matmul"));
    }

    #[test]
    fn flop_coverage_accepts_metered_gemm() {
        let m = model(
            "fn f(&mut self, a: &M, b: &M) -> M { let y = a.matmul(b); self.meter.add_forward(1, 1); y }",
        );
        assert!(flop_coverage("lib.rs", &m).is_empty());
    }

    #[test]
    fn flop_coverage_accepts_flops_counter() {
        let m = model(
            "fn f(a: &M, b: &M, stats: &mut S) -> M { stats.gemm_flops += 1; a.matmul_t_a(b) }",
        );
        assert!(flop_coverage("lib.rs", &m).is_empty());
    }

    #[test]
    fn flop_coverage_skips_definitions() {
        let m = model("pub fn matmul(a: usize, b: usize) -> usize {\n/// # Shape\n a * b }");
        assert!(flop_coverage("lib.rs", &m).is_empty());
    }

    #[test]
    fn shape_docs_requires_section() {
        let m = model("pub fn zeros(rows: usize, cols: usize) -> M { M::new(rows, cols) }");
        let found = shape_docs("lib.rs", &m);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].lint, Lint::ShapeDocs);
    }

    #[test]
    fn shape_docs_satisfied_by_section() {
        let m = model(
            "/// Zeros.\n///\n/// # Shape\n/// `rows × cols`.\npub fn zeros(rows: usize, cols: usize) -> M { M::new(rows, cols) }",
        );
        assert!(shape_docs("lib.rs", &m).is_empty());
    }

    #[test]
    fn shape_docs_ignores_private_and_single_usize() {
        let m = model(
            "fn zeros(rows: usize, cols: usize) -> M { M::new(rows, cols) }\npub fn row(i: usize) -> usize { i }",
        );
        assert!(shape_docs("lib.rs", &m).is_empty());
    }

    #[test]
    fn shape_docs_ignores_usize_slices() {
        let m = model("pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f32 { 0.0 }");
        assert!(shape_docs("lib.rs", &m).is_empty());
    }

    #[test]
    fn durable_io_flags_bare_writes() {
        let m = model(
            "fn save(p: &Path, b: &[u8]) -> io::Result<()> { let f = File::create(p)?; Ok(()) }\n\
             fn dump(p: &Path, b: &[u8]) { std::fs::write(p, b).ok(); }",
        );
        let found = durable_io("crates/nn/src/checkpoint.rs", &m);
        assert_eq!(found.len(), 2);
        assert!(found.iter().all(|f| f.lint == Lint::DurableIo));
    }

    #[test]
    fn durable_io_exempts_the_atomic_helper_and_tests() {
        let src = "fn save(p: &Path) { let f = File::create(p); }";
        let m = model(src);
        assert!(durable_io("crates/nn/src/durable.rs", &m).is_empty());
        let m =
            model("#[cfg(test)]\nmod tests {\n fn f(p: &Path) { std::fs::write(p, b\"x\"); }\n}");
        assert!(durable_io("crates/nn/src/checkpoint.rs", &m).is_empty());
    }

    #[test]
    fn durable_io_in_serve_flags_writes_but_not_checkpoint_reads() {
        // The serving engine reads checkpoints (`fs::read`, `File::open`)
        // constantly; only bare *writes* violate the durability policy.
        let m = model(
            "fn load(p: &Path) -> io::Result<Vec<u8>> { std::fs::read(p) }\n\
             fn peek(p: &Path) { let f = File::open(p); }",
        );
        assert!(durable_io("crates/serve/src/engine.rs", &m).is_empty());
        let m = model("fn persist(p: &Path, b: &[u8]) { std::fs::write(p, b).ok(); }");
        let found = durable_io("crates/serve/src/engine.rs", &m);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].lint, Lint::DurableIo);
    }

    #[test]
    fn durable_io_ignores_lookalikes() {
        let m = model(
            "fn a(p: &Path, b: &[u8]) { durable::write_atomic(p, b); }\n\
             fn b(p: &Path) { BigFile::create(p); }\n\
             fn c(p: &Path, b: &[u8]) { my_fs::write(p, b); }\n\
             fn d() { let fs_write = 1; }",
        );
        assert!(durable_io("crates/core/src/state.rs", &m).is_empty());
    }
}
