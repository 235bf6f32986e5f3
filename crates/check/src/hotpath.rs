//! The hot-path resource analyzer (`adr-check hotpath`).
//!
//! ROADMAP item 1 replaces the reuse hot path's inner loops with SIMD
//! kernels over arena-backed buffers. Before those kernels land, the
//! per-step resource behavior of the hot path must be a *contract*, not
//! folklore: what it allocates, where it can panic, and that it never
//! touches a lock or the filesystem mid-step. This module pins that
//! contract statically:
//!
//! 1. A call graph is built over every scanned function (the shared
//!    [`crate::callgraph`] machinery), with impl-owner tracking so
//!    `Matrix::zeros(` resolves to the `Matrix` impl rather than every
//!    `zeros` in the workspace.
//! 2. The reachable set is marked from the declared [`HOT_ROOTS`] — the
//!    five reuse forward phases (im2col, hash, cluster, centroid-GEMM,
//!    scatter, covered by `im2col`, `hash_all`, `matmul`, and
//!    `reuse_forward`), the reuse backward pass (`reuse_backward`), the
//!    persistent worker pool's dispatch loop (`scope_run`, which every
//!    fan-out funnels through), and the serving batch loop
//!    (`Gateway::poll`, which runs the replica's `Engine::run`).
//! 3. Three lints run over that set:
//!    * `adr::hot_alloc` — heap-allocation sites (`Vec::with_capacity`,
//!      `push`, `collect`, `to_vec`, `clone`, `vec!`, `format!`, ...) are
//!      denied unless audited with an `alloc-init` / `alloc-amortized`
//!      allowlist entry, and the per-phase site count must match the
//!      committed `adr-check.budget` manifest exactly.
//!    * `adr::hot_panic` — implicit panic sites (bare slice indexing,
//!      `unwrap`/`expect`, non-constant `/` and `%`, release-mode
//!      `assert!`) are counted per phase against the same manifest.
//!    * `adr::hot_lock` — `Mutex`/`RwLock` acquisition, `File`/`fs` I/O,
//!      and `print!`-family output reachable from a hot root are denied
//!      outright (allowlistable only with a categorized audit).
//!
//! The budget manifest keeps the lints honest in both directions: a new
//! allocation site fails the check even if someone also adds an allowlist
//! entry for it (the count drifts), and a *removed* site fails too, so
//! the arena work must lower the pinned numbers in the same PR that earns
//! them. A `[runtime]` section in the manifest pins the *dynamic*
//! allocator-hit counts per steady-state step; the counting-allocator
//! tests in `crates/reuse` and `crates/serve` assert those at run time,
//! so the static story is cross-checked by a real `#[global_allocator]`.
//!
//! Like every other pass in this crate, the analysis is a hand-rolled
//! lexical walk on the comment/literal-blanked text — no `syn`, fully
//! offline. Accepted imprecision (documented in DESIGN.md §13): call
//! resolution is by name with owner narrowing, so same-named methods on
//! different workspace types still merge; `.read(`/`.write(` are *not*
//! lock tokens (too many innocent uses); float `/` with a non-literal
//! divisor counts as a panic site even though only integer division
//! panics. All of it over-approximates, which can only grow the pinned
//! counts, never hide a site.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::allowlist::Allowlist;
use crate::callgraph::{self, is_ident_byte, CallSite};
use crate::lints::{Finding, Lint};
use crate::scan::{is_word_at, match_brace, FileModel};

/// Declared hot roots: `(workspace-relative file, fn name, phase key)`.
/// The phase key names the budget entries (`<phase>.alloc`, `<phase>.panic`
/// in `adr-check.budget`).
pub const HOT_ROOTS: &[(&str, &str, &str)] = &[
    ("crates/tensor/src/im2col.rs", "im2col", "im2col"),
    ("crates/reuse/src/hashpack.rs", "hash_all", "hash"),
    ("crates/tensor/src/matrix.rs", "matmul", "gemm"),
    ("crates/reuse/src/forward.rs", "reuse_forward", "reuse_forward"),
    ("crates/reuse/src/backward.rs", "reuse_backward", "reuse_backward"),
    // The persistent worker pool executes every fan-out's closures; its
    // dispatch loop is as hot as the kernels it runs.
    ("crates/tensor/src/kernels/pool.rs", "scope_run", "pool"),
    ("crates/serve/src/gateway.rs", "poll", "gateway"),
];

/// Allowlist categories accepted by `adr::hot_alloc` suppressions:
/// `alloc-init` for one-time/setup allocations (hashplane tables, output
/// buffers sized once), `alloc-amortized` for allocations that are
/// amortized or conditional (cache misses, metrics-sink label vectors).
pub const ALLOC_CATEGORIES: &[&str] = &["alloc-init", "alloc-amortized"];

/// Call names never followed across the graph, even when they resolve to
/// a workspace function by name. These are ubiquitous std method names
/// whose workspace homonyms (e.g. `Json::get`) are never on the hot path;
/// following them would drag whole subsystems into every phase.
const HOT_CALL_SKIP: &[&str] = &[
    "get", "len", "is_empty", "contains", "min", "max", "clamp", "load", "store", "push", "fill",
    "sum", "take", "advance", "batch", "clear",
];

/// What kind of resource a site consumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SiteKind {
    /// Heap allocation (or allocation-capable constructor).
    Alloc,
    /// Implicit panic.
    Panic,
    /// Lock acquisition, file I/O, or console output.
    Lock,
}

/// One resource site inside a function body.
#[derive(Debug)]
pub struct ResourceSite {
    /// Which lint the site feeds.
    pub kind: SiteKind,
    /// The matched token, for messages (`vec!`, `.push(`, `Vec::new(`).
    pub token: String,
    /// 1-indexed line.
    pub line: usize,
    /// Raw text of the line (allowlist matching).
    pub line_text: String,
}

/// Hot-path facts for one function.
#[derive(Debug)]
pub struct HotFn {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` target type, when inside an impl block.
    pub owner: Option<String>,
    /// Workspace-relative file.
    pub file: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
    /// Candidate call sites, in source order.
    pub calls: Vec<CallSite>,
    /// Resource sites, in source order.
    pub sites: Vec<ResourceSite>,
}

/// Extracts hot-path facts for every non-test function in one file.
pub fn collect(file: &str, model: &FileModel) -> Vec<HotFn> {
    let owners = impl_owners(model);
    let mut out = Vec::new();
    for f in &model.fns {
        if model.in_test_code(f.start) || f.body.is_empty() {
            continue;
        }
        let body = &model.cleaned[f.body.clone()];
        let base = f.body.start;
        let owner = owners
            .iter()
            .filter(|(r, _)| r.contains(&f.start))
            .min_by_key(|(r, _)| r.len())
            .map(|(_, name)| name.clone());
        let mut sites = Vec::new();
        find_alloc_sites(model, base, body, &f.params, &mut sites);
        find_panic_sites(model, base, body, &mut sites);
        find_lock_sites(model, base, body, &mut sites);
        sites.sort_by_key(|s| (s.line, s.token.clone()));
        out.push(HotFn {
            name: f.name.clone(),
            owner,
            file: file.to_string(),
            line: f.line,
            calls: callgraph::find_call_sites(model, base, body),
            sites,
        });
    }
    out
}

/// `impl` block ranges with their target type name (`impl Matrix {`,
/// `impl Layer for Conv2d {` → `Conv2d`). Trait-for-type impls report the
/// implementing type; generics and paths are stripped to the last plain
/// segment.
fn impl_owners(model: &FileModel) -> Vec<(Range<usize>, String)> {
    let cleaned = &model.cleaned;
    let mut out = Vec::new();
    let mut i = 0usize;
    while let Some(pos) = cleaned[i..].find("impl").map(|p| p + i) {
        i = pos + 4;
        if !is_word_at(cleaned, pos, "impl") {
            continue;
        }
        let Some(open_rel) = cleaned[pos..].find('{') else {
            continue;
        };
        let open = pos + open_rel;
        let header = &cleaned[pos + 4..open];
        // `impl<T> Trait for Type<T> where ...` → the implementing type.
        let header = header.split(" where ").next().unwrap_or(header).trim();
        let header = skip_generics(header);
        let target = match header.rfind(" for ") {
            Some(at) => &header[at + 5..],
            None => header,
        };
        let target = target.trim();
        let target = target.split('<').next().unwrap_or(target).trim();
        let target = target.rsplit("::").next().unwrap_or(target).trim();
        if target.is_empty() || !target.bytes().all(is_ident_byte) {
            continue;
        }
        let close = match_brace(cleaned, open);
        out.push((open..close, target.to_string()));
    }
    out
}

/// Drops a leading `<...>` generic-parameter list.
fn skip_generics(header: &str) -> &str {
    if !header.starts_with('<') {
        return header;
    }
    let bytes = header.as_bytes();
    let mut depth = 0i32;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'<' => depth += 1,
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return header[i + 1..].trim_start();
                }
            }
            _ => {}
        }
    }
    header
}

// ---------------------------------------------------------------------------
// Site scanners
// ---------------------------------------------------------------------------

/// Std container/owner types whose associated constructors are
/// allocation-capable. `Vec::new()` does not allocate *yet*, but it mints
/// a growable buffer — counting the site keeps the budget an honest upper
/// bound on allocation capability.
const ALLOC_QUALIFIERS: &[&str] = &[
    "Vec", "VecDeque", "String", "Box", "Rc", "Arc", "HashMap", "HashSet", "BTreeMap", "BTreeSet",
];

/// Associated-fn names that mint or grow a heap buffer on the qualifiers
/// above.
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from", "from_iter", "from_elem"];

/// Method names that allocate (or may reallocate) on their receiver.
const ALLOC_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "extend",
    "extend_from_slice",
    "append",
    "insert",
    "reserve",
    "collect",
    "to_vec",
    "to_owned",
    "to_string",
    "clone",
];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Primitive `Copy` types: a `.clone()` whose receiver is a local or
/// parameter annotated with one of these is a bitwise copy, not an
/// allocation.
const COPY_TYPES: &[&str] = &[
    "f32", "f64", "i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128",
    "usize", "bool", "char",
];

fn push_site(
    out: &mut Vec<ResourceSite>,
    model: &FileModel,
    kind: SiteKind,
    token: String,
    offset: usize,
) {
    let line = model.line_of(offset);
    out.push(ResourceSite { kind, token, line, line_text: model.line_text(line).to_string() });
}

/// Scans one body for heap-allocation sites.
fn find_alloc_sites(
    model: &FileModel,
    base: usize,
    body: &str,
    params: &str,
    out: &mut Vec<ResourceSite>,
) {
    let copy_names = copy_typed_names(params, body);
    let bytes = body.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if !is_ident_byte(bytes[i]) || (i > 0 && is_ident_byte(bytes[i - 1])) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_ident_byte(bytes[i]) {
            i += 1;
        }
        let word = &body[start..i];
        if word.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            continue;
        }
        // Macros: `vec![...]` / `format!(...)`.
        if bytes.get(i) == Some(&b'!') && ALLOC_MACROS.contains(&word) {
            push_site(out, model, SiteKind::Alloc, format!("{word}!"), base + start);
            continue;
        }
        // The call-shaped forms all end in `(`, with an optional turbofish
        // (`collect::<Vec<_>>()`) between the name and the parenthesis.
        if skip_turbofish_to_paren(body, i).is_none() {
            continue;
        }
        // Associated constructors: `Vec::with_capacity(`, `Box::new(`, ...
        if let Some(q) = qualifier_of(body, start) {
            if ALLOC_QUALIFIERS.contains(&q.as_str()) && ALLOC_CTORS.contains(&word) {
                push_site(out, model, SiteKind::Alloc, format!("{q}::{word}("), base + start);
            }
            continue;
        }
        // Methods: `.push(`, `.collect::<Vec<_>>(`, chains across lines.
        if !preceded_by_dot(bytes, start) || !ALLOC_METHODS.contains(&word) {
            continue;
        }
        if word == "clone" && receiver_is_copy(body, start, &copy_names) {
            continue;
        }
        push_site(out, model, SiteKind::Alloc, format!(".{word}("), base + start);
    }
}

/// Scans one body for implicit panic sites.
fn find_panic_sites(model: &FileModel, base: usize, body: &str, out: &mut Vec<ResourceSite>) {
    let bytes = body.as_bytes();
    // Bare indexing and non-constant division/remainder: byte-level scan.
    for (k, &b) in bytes.iter().enumerate() {
        match b {
            // `a[i]`, `a[..n]`, `f()[0]`, `a[0][1]` — but not `&[f32]`
            // types, attributes (`#[...]`), or `vec![...]`.
            b'[' if k > 0
                && (is_ident_byte(bytes[k - 1])
                    || bytes[k - 1] == b']'
                    || bytes[k - 1] == b')') =>
            {
                push_site(out, model, SiteKind::Panic, "[...]".to_string(), base + k);
            }
            b'/' | b'%' => {
                let prev = if k > 0 { bytes[k - 1] } else { b' ' };
                let next = bytes.get(k + 1).copied().unwrap_or(b' ');
                if prev == b'/' || next == b'/' || next == b'=' {
                    continue; // `//` (shouldn't survive the lexer) or `/=`
                }
                let mut j = k + 1;
                while j < bytes.len() && (bytes[j] as char).is_whitespace() {
                    j += 1;
                }
                // A literal divisor cannot be zero at run time; anything
                // else (identifier, call, parenthesized expr) can.
                if j < bytes.len()
                    && !bytes[j].is_ascii_digit()
                    && (is_ident_byte(bytes[j]) || bytes[j] == b'(')
                {
                    let op = if b == b'/' { "/" } else { "%" };
                    push_site(out, model, SiteKind::Panic, format!("{op} non-const"), base + k);
                }
            }
            _ => {}
        }
    }
    // `.unwrap()` / `.expect(` and release-mode assert macros.
    for (token, is_method) in [
        ("unwrap", true),
        ("expect", true),
        ("assert", false),
        ("assert_eq", false),
        ("assert_ne", false),
    ] {
        let mut i = 0usize;
        while let Some(pos) = body[i..].find(token).map(|p| p + i) {
            i = pos + token.len();
            if !is_word_at(body, pos, token) {
                continue;
            }
            let rest = body[pos + token.len()..].trim_start();
            let hit = if is_method {
                rest.starts_with('(') && body[..pos].trim_end().ends_with('.')
            } else {
                body[pos + token.len()..].starts_with('!')
            };
            if hit {
                let rendered = if is_method { format!(".{token}(") } else { format!("{token}!") };
                push_site(out, model, SiteKind::Panic, rendered, base + pos);
            }
        }
    }
}

/// Lock-acquisition / file-I/O / console-output tokens denied on the hot
/// path. `.read(`/`.write(` are deliberately absent (accepted imprecision;
/// DESIGN.md §13) — `adr-check conc` owns lock-order discipline, this lint
/// only needs the unambiguous acquisition spelling.
fn find_lock_sites(model: &FileModel, base: usize, body: &str, out: &mut Vec<ResourceSite>) {
    let bytes = body.as_bytes();
    // `.lock(` method calls.
    let mut i = 0usize;
    while let Some(pos) = body[i..].find("lock").map(|p| p + i) {
        i = pos + 4;
        if is_word_at(body, pos, "lock")
            && body[pos + 4..].trim_start().starts_with('(')
            && preceded_by_dot(bytes, pos)
        {
            push_site(out, model, SiteKind::Lock, ".lock(".to_string(), base + pos);
        }
    }
    // Qualified file I/O: `File::open(`, `fs::read(`, `OpenOptions::new(`.
    for q in ["File", "OpenOptions", "fs"] {
        let mut i = 0usize;
        while let Some(pos) = body[i..].find(q).map(|p| p + i) {
            i = pos + q.len();
            if is_word_at(body, pos, q) && body[pos + q.len()..].starts_with("::") {
                push_site(out, model, SiteKind::Lock, format!("{q}::"), base + pos);
            }
        }
    }
    // Console output macros.
    for m in ["print", "println", "eprint", "eprintln", "dbg"] {
        let mut i = 0usize;
        while let Some(pos) = body[i..].find(m).map(|p| p + i) {
            i = pos + m.len();
            if is_word_at(body, pos, m) && body[pos + m.len()..].starts_with('!') {
                push_site(out, model, SiteKind::Lock, format!("{m}!"), base + pos);
            }
        }
    }
}

/// After an identifier ending at `i`, skips an optional `::<...>`
/// turbofish and any whitespace; returns the offset just past `(` when
/// the next meaningful token is a call parenthesis.
fn skip_turbofish_to_paren(body: &str, i: usize) -> Option<usize> {
    let bytes = body.as_bytes();
    let mut j = i;
    if body[j..].starts_with("::<") {
        let mut depth = 0i32;
        let mut k = j + 2;
        while k < bytes.len() {
            match bytes[k] {
                b'<' => depth += 1,
                b'>' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        if k >= bytes.len() {
            return None;
        }
        j = k + 1;
    }
    while j < bytes.len() && (bytes[j] as char).is_whitespace() {
        j += 1;
    }
    if bytes.get(j) == Some(&b'(') {
        Some(j + 1)
    } else {
        None
    }
}

/// The path segment before `::` preceding `start`, if any.
fn qualifier_of(body: &str, start: usize) -> Option<String> {
    let bytes = body.as_bytes();
    if start < 2 || bytes[start - 1] != b':' || bytes[start - 2] != b':' {
        return None;
    }
    let end = start - 2;
    let mut k = end;
    while k > 0 && is_ident_byte(bytes[k - 1]) {
        k -= 1;
    }
    if k == end {
        return None;
    }
    Some(body[k..end].to_string())
}

/// True when the previous non-whitespace byte before `start` is `.`.
fn preceded_by_dot(bytes: &[u8], start: usize) -> bool {
    let mut k = start;
    while k > 0 && (bytes[k - 1] as char).is_whitespace() {
        k -= 1;
    }
    k > 0 && bytes[k - 1] == b'.'
}

/// Names of parameters and locals annotated with a primitive `Copy` type.
fn copy_typed_names(params: &str, body: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut add = |piece: &str| {
        let Some((pat, ty)) = piece.split_once(':') else {
            return;
        };
        let name = pat.trim().trim_start_matches("mut ").trim();
        let ty = ty.trim().trim_start_matches('&').trim_start_matches("mut ").trim();
        let ty = ty.split(['=', ';']).next().unwrap_or(ty).trim();
        if !name.is_empty() && name.bytes().all(is_ident_byte) && COPY_TYPES.contains(&ty) {
            names.push(name.to_string());
        }
    };
    for piece in params.split(',') {
        add(piece);
    }
    let mut i = 0usize;
    while let Some(pos) = body[i..].find("let ").map(|p| p + i) {
        i = pos + 4;
        if !is_word_at(body, pos, "let") {
            continue;
        }
        // Keep the annotation only: cut at `=`/`;`/end-of-line.
        let stmt = &body[pos + 4..];
        let cut = stmt.find(['=', ';', '\n']).unwrap_or(stmt.len());
        add(&stmt[..cut]);
    }
    names
}

/// True when the receiver of `.clone()` at `start` (the ident before the
/// dot) is a known primitive-`Copy` local.
fn receiver_is_copy(body: &str, start: usize, copy_names: &[String]) -> bool {
    let bytes = body.as_bytes();
    let mut k = start;
    while k > 0 && (bytes[k - 1] as char).is_whitespace() {
        k -= 1;
    }
    if k == 0 || bytes[k - 1] != b'.' {
        return false;
    }
    k -= 1;
    while k > 0 && (bytes[k - 1] as char).is_whitespace() {
        k -= 1;
    }
    let end = k;
    while k > 0 && is_ident_byte(bytes[k - 1]) {
        k -= 1;
    }
    if k == end {
        return false;
    }
    // `self.x.clone()` — the ident is a field, not a local; be
    // conservative and count it.
    if k >= 1 && bytes[k - 1] == b'.' {
        return false;
    }
    copy_names.iter().any(|n| n == &body[k..end])
}

// ---------------------------------------------------------------------------
// The budget manifest
// ---------------------------------------------------------------------------

/// Parsed `adr-check.budget`: pinned static site counts and runtime
/// allocator-hit counts.
pub struct Budget {
    /// `[static]` entries: `<phase>.alloc` / `<phase>.panic` → pinned count.
    pub static_counts: BTreeMap<String, u64>,
    /// `[runtime]` entries (asserted by the counting-allocator tests).
    pub runtime_counts: BTreeMap<String, u64>,
    /// Key → (1-indexed line, raw line text), for finding anchors.
    pub entry_lines: BTreeMap<String, (usize, String)>,
}

impl Budget {
    /// Parses the manifest text.
    ///
    /// # Errors
    /// Returns a message naming the first malformed line.
    pub fn parse(text: &str) -> Result<Budget, String> {
        let mut static_counts = BTreeMap::new();
        let mut runtime_counts = BTreeMap::new();
        let mut entry_lines = BTreeMap::new();
        let mut section: Option<&str> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                match name {
                    "static" | "runtime" => {
                        section = Some(if name == "static" { "static" } else { "runtime" })
                    }
                    other => {
                        return Err(format!(
                            "adr-check.budget:{}: unknown section `[{other}]` (static|runtime)",
                            idx + 1
                        ))
                    }
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("adr-check.budget:{}: expected `<key> = <count>`", idx + 1));
            };
            let key = key.trim().to_string();
            let count: u64 = value.trim().parse().map_err(|_| {
                format!("adr-check.budget:{}: `{}` is not a count", idx + 1, value.trim())
            })?;
            let Some(section) = section else {
                return Err(format!(
                    "adr-check.budget:{}: entry before any `[static]`/`[runtime]` section",
                    idx + 1
                ));
            };
            if section == "static" {
                static_counts.insert(key.clone(), count);
            } else {
                runtime_counts.insert(key.clone(), count);
            }
            entry_lines.insert(key, (idx + 1, raw.to_string()));
        }
        Ok(Budget { static_counts, runtime_counts, entry_lines })
    }
}

// ---------------------------------------------------------------------------
// The analysis
// ---------------------------------------------------------------------------

/// Findings plus the reachable-set / site dump (`adr-check hotpath`).
pub struct HotReport {
    /// Violations that survived the allowlist.
    pub findings: Vec<Finding>,
    /// Per-phase reachable functions and resource sites, rendered.
    pub dump: Vec<String>,
}

/// Runs the three hot-path lints over `fns`.
///
/// `budget` is the parsed `adr-check.budget`, when the workspace ships
/// one. With a budget: per-phase alloc/panic site counts must match it
/// exactly, and a declared root that cannot be found is itself a finding
/// (the analyzer must not silently under-report). Without one (fixture
/// workspaces): every unaudited site is reported individually and missing
/// roots are skipped.
pub fn check(fns: &[HotFn], budget: Option<&Budget>, allow: &Allowlist) -> HotReport {
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
    }
    let mut findings = Vec::new();
    let mut dump = Vec::new();

    for &(root_file, root_fn, phase) in HOT_ROOTS {
        let roots: Vec<usize> = fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == root_file && f.name == root_fn)
            .map(|(i, _)| i)
            .collect();
        if roots.is_empty() {
            if let Some(budget) = budget {
                let (line, line_text) = anchor(budget, &format!("{phase}.alloc"));
                findings.push(Finding {
                    lint: Lint::HotAlloc,
                    file: "adr-check.budget".to_string(),
                    line,
                    message: format!(
                        "hot root `{root_fn}` not found in `{root_file}` — the `{phase}` phase \
                         is unanalyzed; fix the root declaration or the moved function"
                    ),
                    line_text,
                });
            }
            continue;
        }

        let visits = callgraph::reach(fns.len(), &roots, |idx| {
            let mut edges = Vec::new();
            for call in &fns[idx].calls {
                for callee in resolve(fns, &by_name, idx, call) {
                    edges.push((callee, call.line));
                }
            }
            edges
        });

        dump.push(format!(
            "phase `{phase}`: {} reachable fn(s) from root `{root_fn}`",
            visits.len()
        ));
        for &(idx, via) in &visits {
            let f = &fns[idx];
            let from = match via {
                None => String::new(),
                Some((caller, line)) => {
                    format!("  (via {}:{line})", fns[caller].file)
                }
            };
            dump.push(format!("  {}:{}: fn `{}`{from}", f.file, f.line, f.name));
        }

        let mut counts: BTreeMap<SiteKind, u64> = BTreeMap::new();
        for &(idx, _) in &visits {
            let f = &fns[idx];
            for site in &f.sites {
                *counts.entry(site.kind).or_default() += 1;
                let audited = match site.kind {
                    SiteKind::Alloc => {
                        allow.allows_categorized(&f.file, &site.line_text, ALLOC_CATEGORIES)
                    }
                    SiteKind::Lock => allow.allows(&f.file, &site.line_text),
                    SiteKind::Panic => false,
                };
                dump.push(format!(
                    "  {} {}:{}: `{}` in fn `{}`{}",
                    kind_word(site.kind),
                    f.file,
                    site.line,
                    site.token,
                    f.name,
                    if audited { "  [audited]" } else { "" }
                ));
                let report_site = match site.kind {
                    SiteKind::Alloc => !audited,
                    SiteKind::Lock => !audited,
                    // Panic sites are budget-counted, not audited per
                    // site; they surface individually only when no
                    // manifest pins the phase.
                    SiteKind::Panic => budget.is_none(),
                };
                if report_site {
                    findings.push(site_finding(f, site, root_fn, phase));
                }
            }
        }
        dump.push(format!(
            "phase `{phase}`: {} alloc / {} panic / {} lock site(s)",
            counts.get(&SiteKind::Alloc).copied().unwrap_or(0),
            counts.get(&SiteKind::Panic).copied().unwrap_or(0),
            counts.get(&SiteKind::Lock).copied().unwrap_or(0),
        ));

        if let Some(budget) = budget {
            for (kind, suffix) in [(SiteKind::Alloc, "alloc"), (SiteKind::Panic, "panic")] {
                let key = format!("{phase}.{suffix}");
                let found = counts.get(&kind).copied().unwrap_or(0);
                let (line, line_text) = anchor(budget, &key);
                match budget.static_counts.get(&key) {
                    None => findings.push(Finding {
                        lint: lint_for(kind),
                        file: "adr-check.budget".to_string(),
                        line,
                        message: format!(
                            "phase `{phase}` has no `{key}` entry in adr-check.budget \
                             ({found} site(s) reachable) — pin the count"
                        ),
                        line_text,
                    }),
                    Some(&pinned) if pinned != found => findings.push(Finding {
                        lint: lint_for(kind),
                        file: "adr-check.budget".to_string(),
                        line,
                        message: format!(
                            "phase `{phase}`: {found} reachable {suffix} site(s), \
                             adr-check.budget pins {pinned} — audit the change and re-pin \
                             `{key}` (run `adr-check hotpath` for the site dump)"
                        ),
                        line_text,
                    }),
                    Some(_) => {}
                }
            }
        }
    }

    HotReport { findings, dump }
}

fn kind_word(kind: SiteKind) -> &'static str {
    match kind {
        SiteKind::Alloc => "alloc",
        SiteKind::Panic => "panic",
        SiteKind::Lock => "lock",
    }
}

fn lint_for(kind: SiteKind) -> Lint {
    match kind {
        SiteKind::Alloc => Lint::HotAlloc,
        SiteKind::Panic => Lint::HotPanic,
        SiteKind::Lock => Lint::HotLock,
    }
}

fn site_finding(f: &HotFn, site: &ResourceSite, root_fn: &str, phase: &str) -> Finding {
    let message = match site.kind {
        SiteKind::Alloc => format!(
            "heap allocation `{}` in fn `{}` is reachable from hot root `{root_fn}` \
             (phase `{phase}`) — hoist it out of the hot path, or audit it with an \
             `alloc-init`/`alloc-amortized` allowlist entry and pin `{phase}.alloc` \
             in adr-check.budget",
            site.token, f.name
        ),
        SiteKind::Panic => format!(
            "implicit panic site `{}` in fn `{}` is reachable from hot root `{root_fn}` \
             (phase `{phase}`) — handle the failure or pin `{phase}.panic` in \
             adr-check.budget",
            site.token, f.name
        ),
        SiteKind::Lock => format!(
            "`{}` in fn `{}` is reachable from hot root `{root_fn}` (phase `{phase}`) — \
             locks, file I/O, and console output are denied on the hot path \
             (move it off-path or audit it with a categorized allowlist entry)",
            site.token, f.name
        ),
    };
    Finding {
        lint: lint_for(site.kind),
        file: f.file.clone(),
        line: site.line,
        message,
        line_text: site.line_text.clone(),
    }
}

/// Budget-anchored `(line, line_text)` for `key`, falling back to line 1.
fn anchor(budget: &Budget, key: &str) -> (usize, String) {
    budget
        .entry_lines
        .get(key)
        .map(|(l, t)| (*l, t.clone()))
        .unwrap_or((1, String::from("[static]")))
}

/// Owner-aware call resolution. By-name resolution alone would merge
/// every `new`/`insert` in the workspace into one node; the qualifier and
/// receiver facts narrow it:
///
/// * `Type::callee(` binds to functions in the `Type` impl; an
///   uppercase qualifier with no workspace impl is an external type
///   (`Vec::new`) and binds to nothing; a lowercase qualifier is a module
///   path and binds to free functions.
/// * `Self::callee(` binds within the caller's own impl.
/// * `.callee(` (method call) binds only to impl functions.
/// * bare `callee(` binds only to free functions.
fn resolve(
    fns: &[HotFn],
    by_name: &BTreeMap<&str, Vec<usize>>,
    caller: usize,
    call: &CallSite,
) -> Vec<usize> {
    if call.qualifier.is_none() && HOT_CALL_SKIP.contains(&call.callee.as_str()) {
        return Vec::new();
    }
    let Some(candidates) = by_name.get(call.callee.as_str()) else {
        return Vec::new();
    };
    if let Some(q) = &call.qualifier {
        let q: &str = if q == "Self" {
            match fns[caller].owner.as_deref() {
                Some(owner) => owner,
                None => return Vec::new(),
            }
        } else {
            q
        };
        let owned: Vec<usize> =
            candidates.iter().copied().filter(|&i| fns[i].owner.as_deref() == Some(q)).collect();
        if !owned.is_empty() {
            return owned;
        }
        if q.starts_with(|c: char| c.is_ascii_uppercase()) {
            return Vec::new(); // external type (Vec::, String::, ...)
        }
        // Module-qualified free function (`par::matmul_par(`).
        return candidates.iter().copied().filter(|&i| fns[i].owner.is_none()).collect();
    }
    if call.is_method {
        candidates.iter().copied().filter(|&i| fns[i].owner.is_some()).collect()
    } else {
        candidates.iter().copied().filter(|&i| fns[i].owner.is_none()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot_fns(src: &str) -> Vec<HotFn> {
        collect("crates/tensor/src/lib.rs", &FileModel::parse(src))
    }

    fn sites_of<'a>(fns: &'a [HotFn], name: &str) -> &'a [ResourceSite] {
        &fns.iter().find(|f| f.name == name).expect("fn collected").sites
    }

    fn alloc_tokens(sites: &[ResourceSite]) -> Vec<&str> {
        sites.iter().filter(|s| s.kind == SiteKind::Alloc).map(|s| s.token.as_str()).collect()
    }

    #[test]
    fn macro_allocations_are_found() {
        let fns = hot_fns(
            "fn f(n: usize) -> Vec<f32> {\n    let v = vec![0.0; n];\n    let s = format!(\"{}*{}\", n, format!(\"{n}\"));\n    v\n}\n",
        );
        let tokens = alloc_tokens(sites_of(&fns, "f"));
        assert_eq!(tokens, vec!["vec!", "format!", "format!"], "nested format! counts twice");
    }

    #[test]
    fn turbofish_collect_is_an_alloc_site() {
        let fns =
            hot_fns("fn f() -> Vec<u32> {\n    (0..4).map(|i| i + 1).collect::<Vec<u32>>()\n}\n");
        assert_eq!(alloc_tokens(sites_of(&fns, "f")), vec![".collect("]);
    }

    #[test]
    fn multiline_method_chains_are_found() {
        let fns = hot_fns(
            "fn f(xs: &[f32]) -> Vec<f32> {\n    xs.iter()\n        .map(|x| x * 2.0)\n        .collect()\n}\n",
        );
        assert_eq!(alloc_tokens(sites_of(&fns, "f")), vec![".collect("]);
    }

    #[test]
    fn clone_on_copy_locals_does_not_count() {
        let fns = hot_fns(
            "fn f(scale: f32, m: Matrix) -> (f32, Matrix) {\n    let idx: usize = 3;\n    let a = scale.clone();\n    let b = idx.clone();\n    let big = m.clone();\n    (a + b as f32, big)\n}\n",
        );
        let tokens = alloc_tokens(sites_of(&fns, "f"));
        assert_eq!(tokens, vec![".clone("], "only the non-Copy receiver counts: {tokens:?}");
    }

    #[test]
    fn constructors_and_growth_methods_are_found() {
        let fns = hot_fns(
            "fn f(n: usize) {\n    let mut v = Vec::with_capacity(n);\n    v.push(1.0f32);\n    let b = Box::new(v);\n    drop(b);\n}\n",
        );
        let tokens = alloc_tokens(sites_of(&fns, "f"));
        assert_eq!(tokens, vec!["Vec::with_capacity(", ".push(", "Box::new("]);
    }

    #[test]
    fn panic_sites_cover_indexing_division_and_asserts() {
        let fns = hot_fns(
            "fn f(xs: &[f32], i: usize, n: usize) -> f32 {\n    assert!(n > 0);\n    debug_assert!(i < n);\n    let per = xs.len() / n;\n    let x = xs[i];\n    let _half = per / 2;\n    x\n}\n",
        );
        let tokens: Vec<&str> = sites_of(&fns, "f")
            .iter()
            .filter(|s| s.kind == SiteKind::Panic)
            .map(|s| s.token.as_str())
            .collect();
        assert!(tokens.contains(&"assert!"), "{tokens:?}");
        assert!(tokens.contains(&"/ non-const"), "{tokens:?}");
        assert!(tokens.contains(&"[...]"), "{tokens:?}");
        // debug_assert! and the literal division are exempt.
        assert_eq!(tokens.iter().filter(|t| **t == "assert!").count(), 1, "{tokens:?}");
        assert_eq!(tokens.iter().filter(|t| **t == "/ non-const").count(), 1, "{tokens:?}");
    }

    #[test]
    fn lock_io_and_print_sites_are_found() {
        let fns = hot_fns(
            "fn f(m: &std::sync::Mutex<u32>) {\n    let g = m.lock();\n    println!(\"{g:?}\");\n    let _ = fs::read(\"x\");\n}\n",
        );
        let tokens: Vec<&str> = sites_of(&fns, "f")
            .iter()
            .filter(|s| s.kind == SiteKind::Lock)
            .map(|s| s.token.as_str())
            .collect();
        assert_eq!(tokens, vec![".lock(", "println!", "fs::"], "source order (by line)");
    }

    #[test]
    fn impl_owner_is_tracked_through_trait_impls() {
        let fns = hot_fns(
            "struct Grid;\nimpl Grid {\n    fn cell(&self) -> usize { 0 }\n}\nimpl Clone for Grid {\n    fn clone(&self) -> Grid { Grid }\n}\nfn free() {}\n",
        );
        assert_eq!(
            fns.iter().map(|f| (f.name.as_str(), f.owner.as_deref())).collect::<Vec<_>>(),
            vec![("cell", Some("Grid")), ("clone", Some("Grid")), ("free", None)],
        );
    }

    #[test]
    fn budget_parses_sections_and_rejects_garbage() {
        let b = Budget::parse(
            "# pinned counts\n[static]\nim2col.alloc = 2  # zeros + scope\nim2col.panic = 4\n[runtime]\nreuse_forward_step = 31\n",
        )
        .expect("well-formed budget");
        assert_eq!(b.static_counts.get("im2col.alloc"), Some(&2));
        assert_eq!(b.runtime_counts.get("reuse_forward_step"), Some(&31));
        assert_eq!(b.entry_lines.get("im2col.panic").map(|(l, _)| *l), Some(4));
        assert!(Budget::parse("im2col.alloc = 2\n").is_err(), "entry before section");
        assert!(Budget::parse("[bogus]\n").is_err(), "unknown section");
        assert!(Budget::parse("[static]\nim2col.alloc = lots\n").is_err(), "non-numeric count");
    }

    #[test]
    fn reachability_crosses_impls_and_counts_drift() {
        let src = "\
struct Matrix;
impl Matrix {
    fn matmul(&self) {
        let t = Matrix::zeros(2);
        t.fill_from(self);
    }
    fn zeros(n: usize) -> Matrix {
        let _v = vec![0.0; n];
        Matrix
    }
    fn fill_from(&self, _o: &Matrix) {}
}
fn cold() {
    let _ = vec![1];
}
";
        let fns = collect("crates/tensor/src/matrix.rs", &FileModel::parse(src));
        let allow = Allowlist::empty();
        // Without a budget: the vec! inside zeros (reachable from the
        // matmul root) fires; cold()'s vec! does not.
        let report = check(&fns, None, &allow);
        let alloc: Vec<&Finding> =
            report.findings.iter().filter(|f| f.lint == Lint::HotAlloc).collect();
        assert_eq!(alloc.len(), 1, "{:#?}", report.findings);
        assert!(alloc[0].message.contains("fn `zeros`"), "{}", alloc[0].message);
        assert!(
            report.dump.iter().any(|l| l.contains("fn `fill_from`")),
            "method call resolved into the impl: {:#?}",
            report.dump
        );
        // With a budget pinning the wrong count: drift is one finding
        // anchored at the manifest.
        let budget = Budget::parse("[static]\ngemm.alloc = 5\ngemm.panic = 0\n").expect("parses");
        let report = check(&fns, Some(&budget), &allow);
        let drift: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.file == "adr-check.budget" && f.message.contains("pins 5"))
            .collect();
        assert_eq!(drift.len(), 1, "{:#?}", report.findings);
        assert_eq!(drift[0].lint, Lint::HotAlloc);
        // The four roots this one-file workspace doesn't model are each
        // their own loud failure under a budget.
        let missing = report.findings.iter().filter(|f| f.message.contains("not found")).count();
        assert_eq!(missing, HOT_ROOTS.len() - 1, "{:#?}", report.findings);
    }

    #[test]
    fn missing_root_is_a_finding_only_under_a_budget() {
        let fns = hot_fns("fn unrelated() {}\n");
        let allow = Allowlist::empty();
        assert!(check(&fns, None, &allow).findings.is_empty());
        let budget = Budget::parse("[static]\n").expect("parses");
        let report = check(&fns, Some(&budget), &allow);
        assert_eq!(report.findings.len(), HOT_ROOTS.len(), "{:#?}", report.findings);
        assert!(report.findings[0].message.contains("not found"), "{}", report.findings[0].message);
    }
}
