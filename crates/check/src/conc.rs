//! Concurrency and unsafe-code facts plus the five lints built on them.
//!
//! ROADMAP items 1 and 2 (SIMD kernels behind a persistent thread pool,
//! data-parallel sharded training over a shared centroid table) will bring
//! `unsafe` blocks, atomics, locks, and cross-thread float accumulation
//! into a codebase whose bitwise kill-and-resume guarantees currently rest
//! on single-threaded reduction order. This module extracts concurrency
//! facts from the cleaned source — `unsafe` sites and their `// SAFETY:`
//! comments, atomic operations with their `Ordering` arguments,
//! `Mutex`/`RwLock` acquisition sites, spawn boundaries and the bindings
//! captured across them — and enforces the discipline statically, the same
//! way the sequential dataflow lints gate the hot path today:
//!
//! * [`unsafe_contract`] — every `unsafe` block needs a `// SAFETY:`
//!   comment (an `unsafe fn` needs a `# Safety` doc section), and
//!   raw-pointer / `get_unchecked`-family use is confined to the approved
//!   kernel-module list ([`APPROVED_KERNEL_MODULES`]).
//! * [`atomic_ordering`] — a `Relaxed` atomic read in a function that also
//!   accumulates floats is denied outright; every other ordering choice
//!   must carry an audited allowlist entry with an `ordering-*` category.
//! * [`lock_order`] — builds the inter-procedural lock-acquisition graph
//!   and reports every cycle as a potential deadlock, with the full
//!   acquisition trace (styled after the shapegraph's full-trace failures).
//! * [`scoped_capture`] — a mutable binding captured across a spawn
//!   boundary must come from a provably disjoint split
//!   (`split_at_mut`/`chunks_mut`) or be allowlisted.
//! * [`par_reduction`] — float accumulation into shared state inside a
//!   spawn closure has no fixed reduction order; it extends
//!   `adr::determinism` to threaded code.
//!
//! Like the sequential facts, everything here is a hand-rolled
//! under-approximation on the comment/literal-blanked text (no `syn`, no
//! network); the accepted imprecision is documented in DESIGN.md §12.

use std::ops::Range;

use crate::callgraph::{self, is_ident_byte, CallNode};
use crate::lints::{Finding, Lint};
use crate::parser::{self, UseMap};
use crate::scan::{is_word_at, match_brace, FileModel, FnSpan};

pub use crate::callgraph::CallSite;

/// Files (or `/`-terminated directory prefixes) where raw-pointer and
/// `get_unchecked`-family code is sanctioned: the lane type and the lane
/// kernels. Today neither uses any — the only `unsafe` there is the four
/// run-time dispatch calls into `#[target_feature]` clones under `kernels/`
/// — but this stays the one home such code may ever have; everywhere else
/// is index-checked safe Rust.
pub const APPROVED_KERNEL_MODULES: &[&str] =
    &["crates/tensor/src/simd.rs", "crates/tensor/src/kernels/"];

/// True when `file` may contain raw-pointer kernel code.
pub fn is_approved_kernel_module(file: &str) -> bool {
    APPROVED_KERNEL_MODULES.iter().any(|m| {
        if m.ends_with('/') {
            file.starts_with(m)
        } else {
            file == *m
        }
    })
}

/// Lock-guard type names recognised by the acquisition scanner.
pub const LOCK_TYPE_NAMES: &[&str] = &["Mutex", "RwLock"];

/// Slice-splitting calls whose results are provably disjoint, so mutable
/// captures derived from them may cross a spawn boundary.
const DISJOINT_MARKS: &[&str] =
    &["split_at_mut(", "chunks_mut(", "chunks_exact_mut(", "split_first_mut(", "split_last_mut("];

/// Tokens that mint or consume raw pointers / skip bounds checks; outside
/// the approved kernel modules they are a finding.
const RAW_TOKENS: &[&str] = &[
    "get_unchecked",
    "get_unchecked_mut",
    "from_raw_parts",
    "from_raw_parts_mut",
    "transmute",
    "*const ",
    "*mut ",
];

/// The five memory-ordering names of `std::sync::atomic::Ordering`.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Atomic methods that read (loads and read-modify-writes): a `Relaxed`
/// ordering on one of these can observe stale cross-thread state.
const ATOMIC_READS: &[&str] = &[
    "load",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// What form an `unsafe` keyword introduced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnsafeKind {
    /// `unsafe { ... }` block.
    Block,
    /// `unsafe fn` item.
    Fn,
    /// `unsafe impl` / `unsafe trait` item.
    Item,
}

/// One `unsafe` site.
#[derive(Debug)]
pub struct UnsafeSite {
    /// Which form.
    pub kind: UnsafeKind,
    /// Byte offset of the `unsafe` keyword.
    pub offset: usize,
    /// 1-indexed line.
    pub line: usize,
    /// Whether a `// SAFETY:` comment (or, for `unsafe fn`, a `# Safety`
    /// doc section) justifies the site.
    pub justified: bool,
}

/// One atomic operation with an explicit `Ordering` argument.
#[derive(Debug)]
pub struct AtomicSite {
    /// Byte offset of the ordering token.
    pub offset: usize,
    /// 1-indexed line.
    pub line: usize,
    /// The ordering name (`Relaxed`, `Acquire`, ...).
    pub ordering: String,
    /// The atomic method the ordering feeds (`load`, `store`, `fetch_add`,
    /// ...), when recoverable.
    pub method: Option<String>,
}

impl AtomicSite {
    /// True when the operation observes cross-thread state.
    pub fn is_read(&self) -> bool {
        self.method.as_deref().is_some_and(|m| ATOMIC_READS.contains(&m))
    }
}

/// One lock acquisition (`name.lock()` / `name.read()` / `name.write()`).
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Lock identity: the receiver's final path segment.
    pub lock: String,
    /// Acquisition method.
    pub method: String,
    /// Byte offset of the receiver name.
    pub offset: usize,
    /// 1-indexed line.
    pub line: usize,
    /// Raw text of the line (for allowlist matching and traces).
    pub line_text: String,
}

/// One spawn boundary and its closure body.
#[derive(Debug)]
pub struct SpawnSite {
    /// Byte offset of the `spawn` token.
    pub offset: usize,
    /// 1-indexed line.
    pub line: usize,
    /// Closure-body byte range (cleaned text, file-global offsets).
    pub body: Range<usize>,
}

/// A binding that is (or may be) mutably captured across a spawn boundary.
#[derive(Debug)]
pub struct MutBinding {
    /// Binding name.
    pub name: String,
    /// Declaration byte offset (file-global; params use the fn offset).
    pub offset: usize,
    /// Whether it derives from a provably disjoint slice split.
    pub disjoint: bool,
}

/// Concurrency facts for one function.
#[derive(Debug)]
pub struct FnConc {
    /// Function name.
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
    /// Lock acquisitions, in source order.
    pub locks: Vec<LockSite>,
    /// Candidate call sites, in source order.
    pub calls: Vec<CallSite>,
    /// Spawn boundaries.
    pub spawns: Vec<SpawnSite>,
    /// Mutable bindings visible in the body (params + lets + for-patterns).
    pub mut_bindings: Vec<MutBinding>,
    /// Names bound to lock guards (`let g = m.lock()` and `if let Ok(g)`).
    pub guards: Vec<String>,
    /// Whether the function accumulates floats (shared with determinism).
    pub accumulates_float: bool,
}

/// Concurrency facts for one file.
#[derive(Debug, Default)]
pub struct ConcFileFacts {
    /// `unsafe` sites outside test code.
    pub unsafes: Vec<UnsafeSite>,
    /// Atomic operations outside test code.
    pub atomics: Vec<AtomicSite>,
    /// Per-function facts (test functions excluded).
    pub fns: Vec<FnConc>,
}

/// Extracts every concurrency fact from one file.
pub fn collect(file: &str, model: &FileModel, uses: &UseMap) -> ConcFileFacts {
    let mut facts = ConcFileFacts {
        unsafes: find_unsafe_sites(model),
        atomics: find_atomic_sites(model, uses),
        fns: Vec::new(),
    };
    let lock_fields = lock_field_names(model, uses);
    for f in &model.fns {
        if model.in_test_code(f.start) || f.body.is_empty() {
            continue;
        }
        facts.fns.push(fn_conc(file, model, f, uses, &lock_fields));
    }
    facts
}

// ---------------------------------------------------------------------------
// Fact extraction
// ---------------------------------------------------------------------------

/// Finds `unsafe` sites and whether each carries its justification.
fn find_unsafe_sites(model: &FileModel) -> Vec<UnsafeSite> {
    let cleaned = &model.cleaned;
    let bytes = cleaned.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while let Some(pos) = cleaned[i..].find("unsafe").map(|p| p + i) {
        i = pos + 6;
        if !is_word_at(cleaned, pos, "unsafe") || model.in_test_code(pos) {
            continue;
        }
        // The token after `unsafe` decides the form. Comments between
        // `unsafe` and `{` are already blanked to spaces by the lexer, so
        // skipping whitespace is enough.
        let mut j = pos + 6;
        while j < bytes.len() && (bytes[j] as char).is_whitespace() {
            j += 1;
        }
        let line = model.line_of(pos);
        let kind = if bytes.get(j) == Some(&b'{') {
            UnsafeKind::Block
        } else if is_word_at(cleaned, j, "fn") {
            UnsafeKind::Fn
        } else if is_word_at(cleaned, j, "impl")
            || is_word_at(cleaned, j, "trait")
            || is_word_at(cleaned, j, "extern")
        {
            UnsafeKind::Item
        } else {
            continue; // `unsafe` in a type position (`unsafe fn()` pointer)
        };
        let justified = match kind {
            UnsafeKind::Block | UnsafeKind::Item => has_safety_comment(model, line),
            UnsafeKind::Fn => {
                has_safety_comment(model, line)
                    || model
                        .fns
                        .iter()
                        .find(|f| f.start >= pos && f.start <= j + 2)
                        .is_some_and(|f| f.docs.contains("# Safety"))
            }
        };
        out.push(UnsafeSite { kind, offset: pos, line, justified });
    }
    out
}

/// True when a `SAFETY:` comment sits on the site's line or within the
/// three raw lines above it (attributes and comment prose included).
fn has_safety_comment(model: &FileModel, line: usize) -> bool {
    (line.saturating_sub(3)..=line)
        .filter(|&l| l > 0)
        .any(|l| model.line_text(l).contains("SAFETY:"))
}

/// Finds explicit `Ordering` arguments, both `Ordering::X` paths and names
/// imported via `use std::sync::atomic::Ordering::X`.
fn find_atomic_sites(model: &FileModel, uses: &UseMap) -> Vec<AtomicSite> {
    let cleaned = &model.cleaned;
    let mut out = Vec::new();
    for ord in ORDERINGS {
        let mut i = 0usize;
        while let Some(pos) = cleaned[i..].find(ord).map(|p| p + i) {
            i = pos + ord.len();
            if !is_word_at(cleaned, pos, ord) || model.in_test_code(pos) {
                continue;
            }
            // An ordering name inside a `use` item is an import, not an
            // operation: scan back to the statement start and skip if the
            // statement is a `use`.
            let stmt_start = cleaned[..pos].rfind(';').map_or(0, |p| p + 1);
            let stmt_head = cleaned[stmt_start..pos].trim_start();
            if stmt_head.starts_with("use ") || stmt_head.starts_with("pub use ") {
                continue;
            }
            let qualified = cleaned[..pos].ends_with("Ordering::");
            let imported =
                uses.path_of(ord).is_some_and(|p| p.contains("atomic") && p.contains("Ordering"));
            if !qualified && !imported {
                continue;
            }
            let line = model.line_of(pos);
            out.push(AtomicSite {
                offset: pos,
                line,
                ordering: (*ord).to_string(),
                method: atomic_method_of(cleaned, pos),
            });
        }
    }
    out.sort_by_key(|s| s.offset);
    out
}

/// Walks back from an ordering token to the atomic method call it feeds:
/// the `name(` whose argument list contains the token.
fn atomic_method_of(cleaned: &str, pos: usize) -> Option<String> {
    let bytes = cleaned.as_bytes();
    let mut depth = 0i32;
    let mut j = pos;
    while j > 0 {
        j -= 1;
        match bytes[j] {
            b')' => depth += 1,
            b'(' => {
                depth -= 1;
                if depth < 0 {
                    // `j` is the call's opening paren; the ident before it
                    // (skipping `::<Ty>` turbofish is out of scope) is the
                    // method name.
                    let name_end = j;
                    let mut k = name_end;
                    while k > 0 && is_ident_byte(bytes[k - 1]) {
                        k -= 1;
                    }
                    if k < name_end {
                        return Some(cleaned[k..name_end].to_string());
                    }
                    return None;
                }
            }
            b';' | b'{' | b'}' => return None,
            _ => {}
        }
    }
    None
}

/// Struct fields in this file typed `Mutex<...>` / `RwLock<...>`.
fn lock_field_names(model: &FileModel, uses: &UseMap) -> Vec<String> {
    let cleaned = &model.cleaned;
    let mut fields = Vec::new();
    let mut i = 0usize;
    while let Some(pos) = cleaned[i..].find("struct").map(|p| p + i) {
        i = pos + 6;
        if !is_word_at(cleaned, pos, "struct") {
            continue;
        }
        let Some(open) = cleaned[pos..].find(['{', ';']).map(|p| p + pos) else {
            break;
        };
        if cleaned.as_bytes()[open] != b'{' {
            continue;
        }
        let Some(close) = parser::find_top_level(&cleaned[open + 1..], b'}').map(|p| p + open + 1)
        else {
            break;
        };
        for piece in parser::split_top_level(&cleaned[open + 1..close], ',') {
            let Some((pat, ty)) = parser::split_top_level_once(piece, ':') else {
                continue;
            };
            let name = pat.trim().trim_start_matches("pub ").trim();
            if !name.is_empty()
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                && type_mentions_lock(ty, uses)
            {
                fields.push(name.to_string());
            }
        }
        i = close;
    }
    fields.sort_unstable();
    fields.dedup();
    fields
}

/// True when type text `ty` names a lock type, directly or via imports.
fn type_mentions_lock(ty: &str, uses: &UseMap) -> bool {
    parser::words_of(ty).any(|w| {
        LOCK_TYPE_NAMES.contains(&w)
            || uses.path_of(w).is_some_and(|path| {
                let leaf = path.rsplit("::").next().unwrap_or(path);
                LOCK_TYPE_NAMES.contains(&leaf)
            })
    })
}

/// Computes per-function concurrency facts.
fn fn_conc(
    file: &str,
    model: &FileModel,
    f: &FnSpan,
    uses: &UseMap,
    lock_fields: &[String],
) -> FnConc {
    let cleaned = &model.cleaned;
    let body = &cleaned[f.body.clone()];
    let base = f.body.start;

    // Lock-typed names visible in this fn: struct fields plus lock-typed
    // params and lets (one binding deep, like the map-type facts).
    let mut lock_names: Vec<String> = lock_fields.to_vec();
    for piece in parser::split_top_level(&f.params, ',') {
        if let Some((pat, ty)) = parser::split_top_level_once(piece, ':') {
            let name = pat.trim().trim_start_matches("mut ").trim();
            if !name.is_empty()
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                && type_mentions_lock(ty, uses)
            {
                lock_names.push(name.to_string());
            }
        }
    }
    for (name, annot, init) in let_bindings(body) {
        let lockish = annot.as_deref().is_some_and(|t| type_mentions_lock(t, uses))
            || init.as_deref().is_some_and(|t| type_mentions_lock(t, uses));
        if lockish {
            lock_names.push(name);
        }
    }
    lock_names.sort_unstable();
    lock_names.dedup();

    let locks = find_lock_sites(model, base, body, &lock_names);
    let guards = find_guard_names(body);
    let spawns = find_spawn_sites(model, base, body);
    let calls = callgraph::find_call_sites(model, base, body);
    let mut mut_bindings = find_mut_bindings(base, body);
    for piece in parser::split_top_level(&f.params, ',') {
        if let Some((pat, ty)) = parser::split_top_level_once(piece, ':') {
            let name = pat.trim().trim_start_matches("mut ").trim();
            if !name.is_empty()
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                && ty.trim().starts_with("&mut")
            {
                mut_bindings.push(MutBinding {
                    name: name.to_string(),
                    offset: f.start,
                    disjoint: false,
                });
            }
        }
    }
    let facts = parser::fn_facts(model, f, uses);
    FnConc {
        name: f.name.clone(),
        file: file.to_string(),
        line: f.line,
        locks,
        calls,
        spawns,
        mut_bindings,
        guards,
        accumulates_float: facts.accumulates_float,
    }
}

/// Iterates `let` statements of a (cleaned) body as
/// `(name, annotation, initialiser)` for single-identifier patterns.
fn let_bindings(body: &str) -> Vec<(String, Option<String>, Option<String>)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while let Some(pos) = body[i..].find("let").map(|p| p + i) {
        i = pos + 3;
        if !is_word_at(body, pos, "let") {
            continue;
        }
        let rest = &body[pos + 3..];
        let Some(stmt_end) = parser::find_top_level(rest, b';') else {
            continue;
        };
        let stmt = &rest[..stmt_end];
        let (pat, init) = match parser::split_top_level_once(stmt, '=') {
            Some((lhs, rhs)) => (lhs, Some(rhs.trim().to_string())),
            None => (stmt, None),
        };
        let (pat, annot) = match parser::split_top_level_once(pat, ':') {
            Some((p, t)) => (p, Some(t.trim().to_string())),
            None => (pat, None),
        };
        let name = pat.trim().trim_start_matches("mut ").trim();
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            continue;
        }
        out.push((name.to_string(), annot, init));
    }
    out
}

/// Finds acquisitions of known lock names: `name.lock()` / `.read()` /
/// `.write()`, including `self.name.lock()` paths.
fn find_lock_sites(
    model: &FileModel,
    base: usize,
    body: &str,
    lock_names: &[String],
) -> Vec<LockSite> {
    let mut out = Vec::new();
    for method in ["lock", "read", "write"] {
        let needle = format!(".{method}(");
        let mut i = 0usize;
        while let Some(pos) = body[i..].find(&needle).map(|p| p + i) {
            i = pos + needle.len();
            // Receiver: the identifier immediately before the dot.
            let bytes = body.as_bytes();
            let mut k = pos;
            while k > 0 && is_ident_byte(bytes[k - 1]) {
                k -= 1;
            }
            let recv = &body[k..pos];
            if recv.is_empty() || !lock_names.iter().any(|n| n == recv) {
                continue;
            }
            let global = base + k;
            let line = model.line_of(global);
            out.push(LockSite {
                lock: recv.to_string(),
                method: method.to_string(),
                offset: global,
                line,
                line_text: model.line_text(line).to_string(),
            });
        }
    }
    out.sort_by_key(|s| s.offset);
    out
}

/// Names bound to lock guards: the `let` pattern of any statement whose
/// initialiser acquires a lock (covers `let g = m.lock()` and
/// `if let Ok(mut g) = m.lock()`).
fn find_guard_names(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    for needle in [".lock(", ".write(", ".read("] {
        let mut i = 0usize;
        while let Some(pos) = body[i..].find(needle).map(|p| p + i) {
            i = pos + needle.len();
            // Statement start: after the previous `;`, `{` or `}`.
            let start = body[..pos].rfind([';', '{', '}']).map_or(0, |p| p + 1);
            let stmt = &body[start..pos];
            let Some(let_pos) = stmt.find("let").filter(|&p| is_word_at(stmt, p, "let")) else {
                continue;
            };
            let Some((pat, _)) = parser::split_top_level_once(&stmt[let_pos + 3..], '=') else {
                continue;
            };
            for word in parser::words_of(pat) {
                if !matches!(word, "Ok" | "Err" | "Some" | "None" | "mut" | "ref")
                    && !word.chars().next().is_some_and(|c| c.is_ascii_digit())
                {
                    out.push(word.to_string());
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Finds `spawn(...)` boundaries and the closure body each carries.
fn find_spawn_sites(model: &FileModel, base: usize, body: &str) -> Vec<SpawnSite> {
    let bytes = body.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while let Some(pos) = body[i..].find("spawn").map(|p| p + i) {
        i = pos + 5;
        if !is_word_at(body, pos, "spawn") {
            continue;
        }
        let mut j = pos + 5;
        while j < bytes.len() && (bytes[j] as char).is_whitespace() {
            j += 1;
        }
        if bytes.get(j) != Some(&b'(') {
            continue;
        }
        let open_call = j;
        // Closure: optional `move`, then `|params|`, then a `{` body or a
        // bare expression extending to the call's closing paren.
        let mut k = open_call + 1;
        while k < bytes.len() && (bytes[k] as char).is_whitespace() {
            k += 1;
        }
        if is_word_at(body, k, "move") {
            k += 4;
            while k < bytes.len() && (bytes[k] as char).is_whitespace() {
                k += 1;
            }
        }
        let call_end = close_paren(body, open_call);
        let body_range = if bytes.get(k) == Some(&b'|') {
            let params_end = if bytes.get(k + 1) == Some(&b'|') {
                k + 1
            } else {
                match body[k + 1..].find('|') {
                    Some(p) => k + 1 + p,
                    None => continue,
                }
            };
            let mut m = params_end + 1;
            while m < bytes.len() && (bytes[m] as char).is_whitespace() {
                m += 1;
            }
            if bytes.get(m) == Some(&b'{') {
                let close = match_brace(body, m);
                m..close
            } else {
                m..call_end
            }
        } else {
            // Not a closure literal (fn path, pre-built closure): treat the
            // whole argument list as the capture surface.
            open_call + 1..call_end
        };
        out.push(SpawnSite {
            offset: base + pos,
            line: model.line_of(base + pos),
            body: base + body_range.start..base + body_range.end,
        });
    }
    out
}

/// Byte offset of the `)` matching the `(` at `open` (or text end).
fn close_paren(body: &str, open: usize) -> usize {
    let bytes = body.as_bytes();
    let mut depth = 0i32;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

/// Collects mutable bindings (`let mut x`, destructuring splits, `&mut`
/// initialisers, `for` patterns over `_mut` iterators) with disjointness.
fn find_mut_bindings(base: usize, body: &str) -> Vec<MutBinding> {
    let mut out = Vec::new();
    // `let` statements.
    let mut i = 0usize;
    while let Some(pos) = body[i..].find("let").map(|p| p + i) {
        i = pos + 3;
        if !is_word_at(body, pos, "let") {
            continue;
        }
        let rest = &body[pos + 3..];
        let Some(stmt_end) = parser::find_top_level(rest, b';') else {
            continue;
        };
        let stmt = &rest[..stmt_end];
        let Some((pat, init)) = parser::split_top_level_once(stmt, '=') else {
            continue;
        };
        let init = init.trim();
        // Closure definitions are not data captures.
        if init.starts_with('|') || init.starts_with("move") {
            continue;
        }
        let (pat, _annot) = match parser::split_top_level_once(pat, ':') {
            Some((p, t)) => (p, Some(t)),
            None => (pat, None),
        };
        let pat = pat.trim();
        let disjoint = DISJOINT_MARKS.iter().any(|m| init.contains(m));
        let mutable_init = init.contains("&mut ")
            || init.contains(".as_mut_slice(")
            || init.contains(".as_mut_ptr(")
            || init.contains("_mut(");
        if pat.starts_with('(') {
            if disjoint || mutable_init {
                for word in parser::words_of(pat) {
                    if word != "mut" {
                        out.push(MutBinding {
                            name: word.to_string(),
                            offset: base + pos,
                            disjoint,
                        });
                    }
                }
            }
            continue;
        }
        let name = pat.trim_start_matches("mut ").trim();
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            continue;
        }
        // Only alias-like initialisers are capture-suspect. A plain
        // `let mut n = 0usize` moved (or exclusively borrowed) into one
        // closure is owned state the borrow checker already polices; the
        // lint targets mutable *aliases* into shared buffers.
        if disjoint || mutable_init {
            out.push(MutBinding { name: name.to_string(), offset: base + pos, disjoint });
        }
    }
    // `for PAT in EXPR {` headers over `_mut` iterators.
    let mut i = 0usize;
    while let Some(pos) = body[i..].find("for").map(|p| p + i) {
        i = pos + 3;
        if !is_word_at(body, pos, "for") {
            continue;
        }
        let rest = &body[pos + 3..];
        let Some(brace) = parser::find_top_level(rest, b'{') else {
            continue;
        };
        let header = &rest[..brace];
        let Some(in_pos) =
            header.match_indices("in").map(|(p, _)| p).find(|&p| is_word_at(header, p, "in"))
        else {
            continue;
        };
        let (pat, expr) = (&header[..in_pos], &header[in_pos + 2..]);
        let disjoint = DISJOINT_MARKS.iter().any(|m| expr.contains(m));
        let mutable = disjoint || expr.contains("iter_mut(") || expr.contains("&mut ");
        if !mutable {
            continue;
        }
        for word in parser::words_of(pat) {
            if word != "mut" {
                out.push(MutBinding { name: word.to_string(), offset: base + pos, disjoint });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The per-file lints
// ---------------------------------------------------------------------------

/// `adr::unsafe_contract`: unsafe sites need their justification, and
/// raw-pointer code stays inside the approved kernel modules.
pub fn unsafe_contract(file: &str, model: &FileModel, facts: &ConcFileFacts) -> Vec<Finding> {
    let mut findings = Vec::new();
    for site in &facts.unsafes {
        if site.justified {
            continue;
        }
        let message = match site.kind {
            UnsafeKind::Block => "unsafe block without a `// SAFETY:` comment; state the \
                                  invariant that makes it sound (or move it out of the hot path)"
                .to_string(),
            UnsafeKind::Fn => "unsafe fn without a `# Safety` doc section or `// SAFETY:` \
                               comment; document the caller contract"
                .to_string(),
            UnsafeKind::Item => "unsafe impl/trait without a `// SAFETY:` comment; state why \
                                 the contract holds"
                .to_string(),
        };
        findings.push(finding_at(Lint::UnsafeContract, file, model, site.offset, message));
    }
    if !is_approved_kernel_module(file) {
        for token in RAW_TOKENS {
            let mut i = 0usize;
            let cleaned = &model.cleaned;
            while let Some(pos) = cleaned[i..].find(token).map(|p| p + i) {
                i = pos + token.len();
                let ident_like = token.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
                if ident_like && !is_word_at(cleaned, pos, token) {
                    continue;
                }
                if model.in_test_code(pos) {
                    continue;
                }
                findings.push(finding_at(
                    Lint::UnsafeContract,
                    file,
                    model,
                    pos,
                    format!(
                        "`{}` outside the approved kernel modules ({}); raw-pointer and \
                         unchecked access is confined to the SIMD kernel files",
                        token.trim(),
                        APPROVED_KERNEL_MODULES.join(", ")
                    ),
                ));
            }
        }
    }
    findings
}

/// `adr::atomic_ordering`: `Relaxed` reads near float accumulation are
/// denied; every other explicit ordering needs an audited `ordering-*`
/// allowlist entry.
pub fn atomic_ordering(file: &str, model: &FileModel, facts: &ConcFileFacts) -> Vec<Finding> {
    let uses = UseMap::collect(&model.cleaned);
    facts
        .atomics
        .iter()
        .map(|site| {
            let in_float_fn = model
                .enclosing_fn(site.offset)
                .map(|f| parser::fn_facts(model, f, &uses))
                .is_some_and(|facts| facts.accumulates_float);
            let method = site.method.as_deref().unwrap_or("?");
            let message = if site.ordering == "Relaxed" && site.is_read() && in_float_fn {
                format!(
                    "Ordering::Relaxed on atomic `{method}` in a float-accumulating function; \
                     a relaxed read can observe stale cross-thread state and reorder the \
                     reduction — use Acquire (and audit it) or move the read out of the \
                     accumulation"
                )
            } else {
                format!(
                    "atomic `{method}` with Ordering::{} must carry an audited allowlist entry \
                     with an `ordering-*` category naming why this ordering is sufficient",
                    site.ordering
                )
            };
            finding_at(Lint::AtomicOrdering, file, model, site.offset, message)
        })
        .collect()
}

/// `adr::scoped_capture`: mutable bindings crossing a spawn boundary must
/// derive from a provably disjoint split.
pub fn scoped_capture(file: &str, model: &FileModel, facts: &ConcFileFacts) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &facts.fns {
        for spawn in &f.spawns {
            let body = &model.cleaned[spawn.body.clone()];
            for binding in &f.mut_bindings {
                if binding.disjoint
                    || spawn.body.contains(&binding.offset)
                    || shadowed_in(&binding.name, spawn, f)
                {
                    continue;
                }
                let Some(pos) = word_position(body, &binding.name) else {
                    continue;
                };
                findings.push(finding_at(
                    Lint::ScopedCapture,
                    file,
                    model,
                    spawn.body.start + pos,
                    format!(
                        "mutable binding `{}` crosses the spawn boundary in fn `{}` without a \
                         provably disjoint split; partition with split_at_mut/chunks_mut (or \
                         allowlist the audited site with `capture-disjoint`)",
                        binding.name, f.name
                    ),
                ));
            }
        }
    }
    findings
}

/// True when the spawn body declares its own binding named `name`, so an
/// occurrence inside the closure refers to the inner (shadowing) binding,
/// not the one declared outside the boundary. Serial-fallback paths reuse
/// the same local names as their parallel twins; without this rule every
/// such pair would be a false capture.
fn shadowed_in(name: &str, spawn: &SpawnSite, f: &FnConc) -> bool {
    f.mut_bindings.iter().any(|b| b.name == name && spawn.body.contains(&b.offset))
}

/// First word-bounded occurrence of `name` in `text`.
fn word_position(text: &str, name: &str) -> Option<usize> {
    let mut i = 0usize;
    while let Some(pos) = text[i..].find(name).map(|p| p + i) {
        i = pos + name.len();
        if is_word_at(text, pos, name) {
            return Some(pos);
        }
    }
    None
}

/// Float-accumulation operators scanned for inside spawn closures.
const ACC_OPS: &[&str] = &["+=", "-=", ".sum(", ".product(", "mul_add("];

/// `adr::par_reduction`: float accumulation into shared state inside a
/// spawn closure (through a lock guard, an atomic RMW, or a non-disjoint
/// captured binding) has no fixed reduction order.
pub fn par_reduction(file: &str, model: &FileModel, facts: &ConcFileFacts) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &facts.fns {
        for spawn in &f.spawns {
            let body = &model.cleaned[spawn.body.clone()];
            for op in ACC_OPS {
                let mut i = 0usize;
                while let Some(pos) = body[i..].find(op).map(|p| p + i) {
                    i = pos + op.len();
                    let stmt_start = body[..pos].rfind([';', '{', '}']).map_or(0, |p| p + 1);
                    let stmt = &body[stmt_start..pos];
                    let float_ctx = parser::contains_float_literal(stmt)
                        || f.accumulates_float
                        || parser::contains_float_literal(body);
                    if !float_ctx {
                        continue;
                    }
                    let target = accumulation_target(stmt);
                    let through_lock = stmt.contains(".lock(")
                        || stmt.contains(".write(")
                        || stmt.contains("fetch_")
                        || target.as_deref().is_some_and(|t| f.guards.iter().any(|g| g == t));
                    let through_capture = target.as_deref().is_some_and(|t| {
                        !shadowed_in(t, spawn, f)
                            && f.mut_bindings.iter().any(|b| {
                                b.name == t && !b.disjoint && !spawn.body.contains(&b.offset)
                            })
                    });
                    if !(through_lock || through_capture) {
                        continue;
                    }
                    findings.push(finding_at(
                        Lint::ParReduction,
                        file,
                        model,
                        spawn.body.start + pos,
                        format!(
                            "float accumulation into shared `{}` inside a spawn closure in fn \
                             `{}`: worker arrival order becomes the reduction order, which \
                             breaks bitwise reproducibility — write per-thread partials into \
                             disjoint slots and fold them sequentially after the join (or \
                             allowlist the audited site with `reduction-fixed-order`)",
                            target.as_deref().unwrap_or("state"),
                            f.name
                        ),
                    ));
                }
            }
        }
    }
    findings
}

/// Root identifier the accumulation statement writes into: the first
/// identifier after any `let`/`mut`/deref prefix.
fn accumulation_target(stmt: &str) -> Option<String> {
    let mut rest = stmt.trim_start();
    loop {
        let trimmed = rest.trim_start_matches(['*', '(', '&']).trim_start();
        let without_kw =
            ["let ", "mut ", "if ", "Ok(", "Some("].iter().find_map(|kw| trimmed.strip_prefix(kw));
        match without_kw {
            Some(t) => rest = t,
            None => {
                rest = trimmed;
                break;
            }
        }
    }
    let word: String =
        rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
    if word.is_empty() {
        None
    } else {
        Some(word)
    }
}

// ---------------------------------------------------------------------------
// The inter-procedural lock-order graph
// ---------------------------------------------------------------------------

/// One lock-order edge: `to` can be acquired while `from` is held.
#[derive(Debug)]
struct LockEdge {
    from: String,
    to: String,
    /// Finding anchor: (file, line, raw line text).
    site: (String, usize, String),
    /// Human-readable acquisition trace, one hop per line.
    trace: Vec<String>,
}

/// The lock-order walk's view of a function: the facts are lock names,
/// the trace strings render exactly as the pre-`callgraph` implementation
/// did (pinned by the unit and fixture tests below).
impl CallNode for FnConc {
    fn name(&self) -> &str {
        &self.name
    }

    fn calls(&self) -> &[CallSite] {
        &self.calls
    }

    fn direct_facts(&self) -> Vec<(String, String)> {
        self.locks
            .iter()
            .map(|site| {
                (
                    site.lock.clone(),
                    format!(
                        "{}:{}: fn `{}` acquires `{}` via `.{}()`",
                        self.file, site.line, self.name, site.lock, site.method
                    ),
                )
            })
            .collect()
    }

    fn call_trace(&self, call: &CallSite) -> String {
        format!("{}:{}: fn `{}` calls `{}()`", self.file, call.line, self.name, call.callee)
    }
}

/// `adr::lock_order`: builds the inter-procedural lock-acquisition graph
/// over every scanned function and reports each cycle as a potential
/// deadlock with its full acquisition trace. Lock identity is by receiver
/// name (field or binding), matched across functions — an accepted
/// over-approximation: two fields with the same name on different structs
/// merge, which can only add edges, never hide one.
///
/// Returns the findings plus a rendered edge list for `adr-check conc`.
pub fn lock_order(fns: &[FnConc]) -> (Vec<Finding>, Vec<String>) {
    // fn name → indices (duplicate names across impls merge conservatively).
    let by_name = callgraph::index_by_name(fns);

    // Transitive lock set per fn — every lock acquired in the fn itself or
    // in any (transitively) called fn, with the call-chain trace that
    // reaches it — via the shared memoized walk; the trace strings come
    // from the `CallNode` impl below.
    let mut memo: Vec<Option<callgraph::FactTraces>> = vec![None; fns.len()];
    let mut edges: Vec<LockEdge> = Vec::new();
    for (idx, f) in fns.iter().enumerate() {
        // Direct edges: later acquisitions while earlier ones are held (a
        // guard is assumed held to the end of the function — the common
        // RAII shape; early drops are an accepted over-approximation).
        for (i, held) in f.locks.iter().enumerate() {
            for later in &f.locks[i + 1..] {
                if later.lock == held.lock {
                    continue;
                }
                push_edge(
                    &mut edges,
                    LockEdge {
                        from: held.lock.clone(),
                        to: later.lock.clone(),
                        site: (f.file.clone(), later.line, later.line_text.clone()),
                        trace: vec![format!(
                            "{}:{}: fn `{}` acquires `{}` while holding `{}` (acquired at line {})",
                            f.file, later.line, f.name, later.lock, held.lock, held.line
                        )],
                    },
                );
            }
            // Call-derived edges: locks reachable through calls made after
            // this acquisition.
            for call in f.calls.iter().filter(|c| c.offset > held.offset) {
                let Some(callees) = by_name.get(call.callee.as_str()) else {
                    continue;
                };
                for &callee in callees {
                    if callee == idx {
                        continue;
                    }
                    let mut visiting = Vec::new();
                    for (lock, trace) in
                        callgraph::transitive(callee, fns, &by_name, &mut memo, &mut visiting)
                    {
                        if lock == held.lock {
                            continue;
                        }
                        let mut full = vec![format!(
                            "{}:{}: fn `{}` holds `{}` (acquired at line {}) and calls `{}()`",
                            f.file, call.line, f.name, held.lock, held.line, call.callee
                        )];
                        full.extend(trace);
                        push_edge(
                            &mut edges,
                            LockEdge {
                                from: held.lock.clone(),
                                to: lock,
                                site: (f.file.clone(), held.line, held.line_text.clone()),
                                trace: full,
                            },
                        );
                    }
                }
            }
        }
    }

    let graph_lines: Vec<String> =
        edges.iter().map(|e| format!("{} -> {}   ({})", e.from, e.to, e.trace[0])).collect();

    // Cycle detection: DFS with an explicit stack over the lock-name graph.
    let mut findings = Vec::new();
    let mut reported: Vec<std::collections::BTreeSet<String>> = Vec::new();
    let nodes: std::collections::BTreeSet<&str> =
        edges.iter().flat_map(|e| [e.from.as_str(), e.to.as_str()]).collect();
    for &start in &nodes {
        let mut path: Vec<&LockEdge> = Vec::new();
        if let Some(cycle) = find_cycle(start, start, &edges, &mut path, &mut Vec::new()) {
            let node_set: std::collections::BTreeSet<String> =
                cycle.iter().map(|e| e.from.clone()).collect();
            if reported.contains(&node_set) {
                continue;
            }
            reported.push(node_set);
            let chain: Vec<&str> =
                cycle.iter().map(|e| e.from.as_str()).chain(std::iter::once(start)).collect();
            let mut message = format!(
                "potential deadlock: lock-order cycle `{}` — two threads taking the locks in \
                 these opposing orders block each other forever; pick one global order (or \
                 allowlist the audited site with `lock-order-audited`)\n  acquisition trace:",
                chain.join("` -> `")
            );
            for edge in &cycle {
                for line in &edge.trace {
                    message.push_str("\n    ");
                    message.push_str(line);
                }
            }
            let (file, line, line_text) = cycle[0].site.clone();
            findings.push(Finding { lint: Lint::LockOrder, file, line, message, line_text });
        }
    }
    (findings, graph_lines)
}

/// Appends an edge unless an equivalent `(from, to)` pair is present.
fn push_edge(edges: &mut Vec<LockEdge>, edge: LockEdge) {
    if !edges.iter().any(|e| e.from == edge.from && e.to == edge.to) {
        edges.push(edge);
    }
}

/// DFS from `node` looking for a path back to `target`; returns the edge
/// path of the first cycle found.
fn find_cycle<'a>(
    node: &'a str,
    target: &str,
    edges: &'a [LockEdge],
    path: &mut Vec<&'a LockEdge>,
    visited: &mut Vec<&'a str>,
) -> Option<Vec<&'a LockEdge>> {
    if visited.contains(&node) {
        return None;
    }
    visited.push(node);
    for edge in edges.iter().filter(|e| e.from == node) {
        if edge.to == target {
            let mut cycle = path.clone();
            cycle.push(edge);
            return Some(cycle);
        }
        path.push(edge);
        if let Some(found) = find_cycle(&edge.to, target, edges, path, visited) {
            return Some(found);
        }
        path.pop();
    }
    None
}

/// Builds a finding anchored at a byte offset.
fn finding_at(
    lint: Lint,
    file: &str,
    model: &FileModel,
    offset: usize,
    message: String,
) -> Finding {
    let line = model.line_of(offset);
    Finding {
        lint,
        file: file.to_string(),
        line,
        message,
        line_text: model.line_text(line).to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::FileModel;

    fn facts_of(src: &str) -> (FileModel, ConcFileFacts) {
        let model = FileModel::parse(src);
        let uses = UseMap::collect(&model.cleaned);
        let facts = collect("crates/core/src/lib.rs", &model, &uses);
        (model, facts)
    }

    #[test]
    fn unsafe_block_without_safety_is_flagged() {
        let (model, facts) = facts_of("fn f(v: &[f32]) -> f32 { unsafe { *v.as_ptr() } }");
        let found = unsafe_contract("crates/core/src/lib.rs", &model, &facts);
        assert!(found.iter().any(|f| f.message.contains("SAFETY")), "{found:#?}");
    }

    #[test]
    fn safety_comment_satisfies_the_contract() {
        let src = "fn f(v: &[f32]) -> f32 {\n    // SAFETY: caller checked bounds.\n    unsafe { g(v) }\n}";
        let (_model, facts) = facts_of(src);
        assert_eq!(facts.unsafes.len(), 1);
        assert!(facts.unsafes[0].justified);
    }

    #[test]
    fn block_comment_between_unsafe_and_brace_is_handled() {
        // The lexer blanks the comment but keeps offsets, so the `{` is
        // still found and the site still demands its SAFETY comment.
        let src = "fn f() { unsafe /* fast path */ { g() } }";
        let (_model, facts) = facts_of(src);
        assert_eq!(facts.unsafes.len(), 1);
        assert_eq!(facts.unsafes[0].kind, UnsafeKind::Block);
        assert!(!facts.unsafes[0].justified);
    }

    #[test]
    fn raw_string_containing_unsafe_is_not_a_site() {
        let src = "fn f() -> &'static str { r#\"unsafe { }\"# }";
        let (_, facts) = facts_of(src);
        assert!(facts.unsafes.is_empty());
    }

    #[test]
    fn unsafe_fn_wants_safety_docs() {
        let src = "/// Does things.\n///\n/// # Safety\n/// Caller upholds X.\npub unsafe fn g() {}\n\npub unsafe fn bad() {}";
        let (_, facts) = facts_of(src);
        assert_eq!(facts.unsafes.len(), 2);
        assert!(facts.unsafes[0].justified);
        assert!(!facts.unsafes[1].justified);
    }

    #[test]
    fn get_unchecked_confined_to_kernel_modules() {
        let src = "fn f(v: &[f32]) -> f32 {\n    // SAFETY: bounds asserted by caller.\n    unsafe { *v.get_unchecked(0) }\n}";
        let model = FileModel::parse(src);
        let uses = UseMap::collect(&model.cleaned);
        let facts = collect("crates/reuse/src/forward.rs", &model, &uses);
        let found = unsafe_contract("crates/reuse/src/forward.rs", &model, &facts);
        assert_eq!(found.len(), 1, "{found:#?}");
        assert!(found[0].message.contains("approved kernel modules"));
        // The same code inside an approved module is fine.
        let facts = collect("crates/tensor/src/kernels/gemm.rs", &model, &uses);
        assert!(unsafe_contract("crates/tensor/src/kernels/gemm.rs", &model, &facts).is_empty());
    }

    #[test]
    fn relaxed_read_near_float_accumulation_is_denied() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                   fn f(e: &AtomicU64, vs: &[f32]) -> f32 {\n\
                       let mut total = 0.0;\n\
                       let epoch = e.load(Ordering::Relaxed) as f32;\n\
                       for v in vs { total += v * epoch; }\n\
                       total\n}";
        let (model, facts) = facts_of(src);
        let found = atomic_ordering("crates/core/src/lib.rs", &model, &facts);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("Relaxed"), "{}", found[0].message);
        assert!(found[0].message.contains("float-accumulating"), "{}", found[0].message);
    }

    #[test]
    fn any_ordering_choice_demands_an_audit() {
        let src = "use std::sync::atomic::{AtomicUsize, Ordering};\n\
                   fn bump(c: &AtomicUsize) { c.fetch_add(1, Ordering::SeqCst); }";
        let (model, facts) = facts_of(src);
        let found = atomic_ordering("crates/core/src/lib.rs", &model, &facts);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("ordering-*"), "{}", found[0].message);
        assert!(found[0].message.contains("fetch_add"), "{}", found[0].message);
    }

    #[test]
    fn imported_ordering_names_are_seen() {
        let src = "use std::sync::atomic::Ordering::Relaxed;\n\
                   fn f(c: &AtomicUsize) { c.store(1, Relaxed); }";
        let (_, facts) = facts_of(src);
        assert_eq!(facts.atomics.len(), 1);
        assert_eq!(facts.atomics[0].method.as_deref(), Some("store"));
    }

    #[test]
    fn nested_generics_in_lock_types_are_parsed() {
        // `Mutex<Vec<(u64, f32)>>` nests generics two deep; the word-based
        // type scan must still classify `table` as a lock.
        let src = "use std::sync::Mutex;\n\
                   pub struct S { table: Mutex<Vec<(u64, f32)>>, plain: Vec<u64> }\n\
                   fn f(s: &S) { let _g = s.table.lock(); }";
        let (_, facts) = facts_of(src);
        assert_eq!(facts.fns.len(), 1);
        assert_eq!(facts.fns[0].locks.len(), 1);
        assert_eq!(facts.fns[0].locks[0].lock, "table");
    }

    #[test]
    fn two_lock_cycle_is_reported_with_trace() {
        let src = "use std::sync::Mutex;\n\
                   pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   fn fwd(s: &S) { let _x = s.a.lock(); let _y = s.b.lock(); }\n\
                   fn rev(s: &S) { let _y = s.b.lock(); let _x = s.a.lock(); }";
        let (_, facts) = facts_of(src);
        let (findings, edges) = lock_order(&facts.fns);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("lock-order cycle"));
        assert!(findings[0].message.contains("acquisition trace"));
        assert!(findings[0].message.contains("fn `fwd`"));
        assert!(findings[0].message.contains("fn `rev`"));
        assert_eq!(edges.len(), 2);
    }

    #[test]
    fn interprocedural_cycle_carries_the_call_chain() {
        let src = "use std::sync::Mutex;\n\
                   pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   fn outer(s: &S) { let _x = s.a.lock(); inner(s); }\n\
                   fn inner(s: &S) { let _y = s.b.lock(); }\n\
                   fn rev(s: &S) { let _y = s.b.lock(); let _x = s.a.lock(); }";
        let (_, facts) = facts_of(src);
        let (findings, _) = lock_order(&facts.fns);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("calls `inner()`"), "{}", findings[0].message);
    }

    #[test]
    fn consistent_lock_order_is_quiet() {
        let src = "use std::sync::Mutex;\n\
                   pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   fn f(s: &S) { let _x = s.a.lock(); let _y = s.b.lock(); }\n\
                   fn g(s: &S) { let _x = s.a.lock(); let _y = s.b.lock(); }";
        let (_, facts) = facts_of(src);
        let (findings, edges) = lock_order(&facts.fns);
        assert!(findings.is_empty(), "{findings:#?}");
        assert_eq!(edges.len(), 1);
    }

    #[test]
    fn non_disjoint_capture_is_flagged_and_split_is_not() {
        let src = "fn bad(buf: &mut [f32]) {\n\
                       std::thread::scope(|scope| {\n\
                           scope.spawn(|| { buf[0] = 1.0; });\n\
                       });\n\
                   }\n\
                   fn good(buf: &mut [f32]) {\n\
                       let (lo, hi) = buf.split_at_mut(1);\n\
                       std::thread::scope(|scope| {\n\
                           scope.spawn(move || { lo[0] = 1.0; });\n\
                           scope.spawn(move || { hi[0] = 1.0; });\n\
                       });\n\
                   }";
        let (model, facts) = facts_of(src);
        let found = scoped_capture("crates/core/src/lib.rs", &model, &facts);
        assert_eq!(found.len(), 1, "{found:#?}");
        assert!(found[0].message.contains("`buf`"));
        assert!(found[0].message.contains("fn `bad`"));
    }

    #[test]
    fn closure_passed_to_scope_spawn_is_scanned() {
        // An expression-bodied (brace-less) closure still has its capture
        // surface checked.
        let src = "fn f(buf: &mut [f32]) {\n\
                       std::thread::scope(|scope| { scope.spawn(move || buf[0] = 1.0); });\n\
                   }";
        let (model, facts) = facts_of(src);
        assert_eq!(facts.fns[0].spawns.len(), 1);
        let found = scoped_capture("crates/core/src/lib.rs", &model, &facts);
        assert_eq!(found.len(), 1, "{found:#?}");
    }

    #[test]
    fn lock_guarded_accumulation_in_spawn_is_flagged() {
        let src = "use std::sync::Mutex;\n\
                   fn f(chunks: &[Vec<f32>], total: &Mutex<f32>) {\n\
                       std::thread::scope(|scope| {\n\
                           for chunk in chunks {\n\
                               scope.spawn(move || {\n\
                                   let partial: f32 = chunk.iter().sum();\n\
                                   if let Ok(mut t) = total.lock() { *t += partial; }\n\
                               });\n\
                           }\n\
                       });\n\
                   }";
        let (model, facts) = facts_of(src);
        let found = par_reduction("crates/core/src/lib.rs", &model, &facts);
        assert_eq!(found.len(), 1, "{found:#?}");
        assert!(found[0].message.contains("reduction order"), "{}", found[0].message);
    }

    #[test]
    fn disjoint_slot_reduction_is_quiet() {
        let src = "fn f(chunks: &[Vec<f32>], partials: &mut [f32]) -> f32 {\n\
                       std::thread::scope(|scope| {\n\
                           for (chunk, slot) in chunks.iter().zip(partials.chunks_mut(1)) {\n\
                               scope.spawn(move || { slot[0] = chunk.iter().sum(); });\n\
                           }\n\
                       });\n\
                       let mut total = 0.0;\n\
                       for p in partials.iter() { total += p; }\n\
                       total\n\
                   }";
        let (model, facts) = facts_of(src);
        assert!(par_reduction("crates/core/src/lib.rs", &model, &facts).is_empty());
        assert!(scoped_capture("crates/core/src/lib.rs", &model, &facts).is_empty());
    }
}
