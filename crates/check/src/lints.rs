//! The ADR-specific source lints.
//!
//! All of them are lexical: they run on the comment/literal-blanked source
//! (see [`crate::lexer`]) with function spans and `#[cfg(test)]` regions
//! from [`crate::scan`] — hand-rolled, no `syn`, so the tool keeps running
//! in the fully offline build environment. The atomics audit lives in
//! [`crate::conc`]. What a compiler already proves (unsafe, float
//! compares, hash iteration) is rustc's and clippy's, not a lint here.

use crate::scan::{is_word_at, FileModel};

/// Which lint produced a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lint {
    /// Panicking construct in hot-path library code.
    NoPanic,
    /// OS-entropy source in numeric library code.
    Determinism,
    /// `Layer` implementation missing from the gradient-check registry.
    GradCoverage,
    /// Bare (non-atomic) file write in checkpoint-adjacent code.
    DurableIo,
    /// Explicit atomic `Ordering` without an `ordering-*` audit.
    AtomicOrdering,
}

impl Lint {
    /// Stable lint name used in reports and documentation.
    pub fn name(self) -> &'static str {
        match self {
            Lint::NoPanic => "adr::no_panic",
            Lint::Determinism => "adr::determinism",
            Lint::GradCoverage => "adr::grad_coverage",
            Lint::DurableIo => "adr::durable_io",
            Lint::AtomicOrdering => "adr::atomic_ordering",
        }
    }

    /// One-line rule description (SARIF `shortDescription`).
    pub fn description(self) -> &'static str {
        match self {
            Lint::NoPanic => "No panicking constructs in hot-path library code",
            Lint::Determinism => "No OS entropy in numeric library code",
            Lint::GradCoverage => "Every Layer impl is registered in the gradient-check suite",
            Lint::DurableIo => "Persistent artifacts are written via the atomic durable helper",
            Lint::AtomicOrdering => "Every atomic Ordering choice carries an ordering-* audit",
        }
    }

    /// All lints, for SARIF rule enumeration.
    pub const ALL: &'static [Lint] = &[
        Lint::NoPanic,
        Lint::Determinism,
        Lint::GradCoverage,
        Lint::DurableIo,
        Lint::AtomicOrdering,
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

/// Lint 2: run-to-run determinism. Bans OS-entropy sources everywhere in
/// numeric library code. (Hash-collection iteration, the other way a run
/// stops replaying, is denied outright by `clippy::iter_over_hash_type`.)
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
    findings
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

/// Lint 3: every `Layer` implementation in `nn` with a `forward` must be
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

/// Lint 4: persistent artifacts in checkpoint-adjacent crates must be
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
