//! The atomics audit: every explicit memory `Ordering` in non-test library
//! code must carry an `ordering-*` allowlist entry.
//!
//! This is what is left of the concurrency analyzer, and the one piece of
//! it no compiler lint covers: rustc owns `unsafe` (`unsafe_code = "deny"`
//! with one allow on `tensor::kernels`), clippy owns SAFETY comments, the
//! borrow checker owns what crosses a fan-out closure, and Miri/TSan run
//! the pool — but nothing checks that an `Ordering` was *chosen* rather
//! than typed. On x86-64 a too-weak ordering usually still passes every
//! test, so the choice is reviewed here, once per site, with the pairing
//! written down in `adr-check.allow`.
//!
//! Accepted imprecision: the finder is lexical. It sees `Ordering::X` paths
//! and bare `X` imported through `use std::sync::atomic::Ordering::X`; an
//! ordering passed through a variable or a renamed `Ordering` import is
//! invisible (the workspace has neither).

use crate::lints::{Finding, Lint};
use crate::parser::UseMap;
use crate::scan::{is_ident_byte, is_word_at, FileModel};

/// The five memory-ordering names of `std::sync::atomic::Ordering`.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One atomic operation with an explicit `Ordering` argument.
struct AtomicSite {
    /// Byte offset of the ordering token.
    offset: usize,
    /// The ordering name (`Relaxed`, `Acquire`, ...).
    ordering: &'static str,
    /// The atomic method the ordering feeds (`load`, `store`, `fetch_add`,
    /// ...), when recoverable.
    method: Option<String>,
}

/// Finds explicit `Ordering` arguments outside test code, both
/// `Ordering::X` paths and names imported via
/// `use std::sync::atomic::Ordering::X`.
fn find_atomic_sites(model: &FileModel) -> Vec<AtomicSite> {
    let cleaned = &model.cleaned;
    let uses = UseMap::collect(cleaned);
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
            out.push(AtomicSite {
                offset: pos,
                ordering: ord,
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
                    // (a `::<Ty>` turbofish is out of scope) is the method.
                    let mut k = j;
                    while k > 0 && is_ident_byte(bytes[k - 1]) {
                        k -= 1;
                    }
                    return (k < j).then(|| cleaned[k..j].to_string());
                }
            }
            b';' | b'{' | b'}' => return None,
            _ => {}
        }
    }
    None
}

/// `adr::atomic_ordering`: one finding per explicit ordering. The caller
/// suppresses a finding only through an allowlist entry whose category is
/// `ordering-counter` or `ordering-handoff`.
pub fn atomic_ordering(file: &str, model: &FileModel) -> Vec<Finding> {
    find_atomic_sites(model)
        .iter()
        .map(|site| {
            let line = model.line_of(site.offset);
            Finding {
                lint: Lint::AtomicOrdering,
                file: file.to_string(),
                line,
                message: format!(
                    "atomic `{}` with Ordering::{} must carry an audited allowlist entry with an \
                     `ordering-*` category naming why this ordering is sufficient",
                    site.method.as_deref().unwrap_or("?"),
                    site.ordering
                ),
                line_text: model.line_text(line).to_string(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_ordering_choice_demands_an_audit() {
        let src = "use std::sync::atomic::{AtomicUsize, Ordering};\n\
                   fn bump(c: &AtomicUsize) { c.fetch_add(1, Ordering::SeqCst); }";
        let model = FileModel::parse(src);
        let found = atomic_ordering("crates/core/src/lib.rs", &model);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("ordering-*"), "{}", found[0].message);
        assert!(found[0].message.contains("fetch_add"), "{}", found[0].message);
        assert!(found[0].message.contains("SeqCst"), "{}", found[0].message);
    }

    #[test]
    fn imported_ordering_names_are_seen() {
        let src = "use std::sync::atomic::Ordering::Relaxed;\n\
                   fn f(c: &AtomicUsize) { c.store(1, Relaxed); }";
        let sites = find_atomic_sites(&FileModel::parse(src));
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].method.as_deref(), Some("store"));
    }

    #[test]
    fn unrelated_names_imports_and_test_code_are_quiet() {
        // `cmp::Ordering::Less` is not a memory ordering; a bare `Relaxed`
        // that was never imported from `atomic` is somebody's own enum.
        let src = "use std::sync::atomic::Ordering;\n\
                   fn f(a: u8, b: u8) -> bool { a.cmp(&b) == std::cmp::Ordering::Less }\n\
                   fn g(m: Mode) -> bool { matches!(m, Relaxed) }\n\
                   #[cfg(test)]\nmod tests { fn t(c: &AtomicUsize) { c.load(Ordering::SeqCst); } }";
        assert!(find_atomic_sites(&FileModel::parse(src)).is_empty());
    }
}
