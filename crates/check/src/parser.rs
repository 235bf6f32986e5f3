//! `use`-path resolution on the cleaned source: which local names a file
//! imports, and from where. The atomics audit ([`crate::conc`]) needs it to
//! tell a bare `Relaxed` imported from `std::sync::atomic::Ordering` from
//! an unrelated identifier of the same name.

use crate::scan::is_word_at;

/// One resolved `use` import: the name it binds locally and the full path.
#[derive(Debug)]
struct UseEntry {
    /// Local binding (the leaf segment, or the `as` alias).
    name: String,
    /// Full `::`-joined path as written.
    path: String,
}

/// All `use` imports of a file.
#[derive(Debug, Default)]
pub struct UseMap {
    entries: Vec<UseEntry>,
}

impl UseMap {
    /// Collects `use` items from cleaned source text.
    ///
    /// Handles `use a::b::C;`, `as` renames, and one level of brace groups
    /// (`use a::{B, C as D};`) — the forms this workspace uses.
    pub fn collect(cleaned: &str) -> UseMap {
        let mut entries = Vec::new();
        let mut i = 0usize;
        while let Some(pos) = cleaned[i..].find("use").map(|p| p + i) {
            i = pos + 3;
            if !is_word_at(cleaned, pos, "use") || !at_item_position(cleaned, pos) {
                continue;
            }
            let Some(end) = cleaned[pos..].find(';').map(|p| p + pos) else {
                break;
            };
            let item = cleaned[pos + 3..end].trim();
            parse_use_item(item, &mut entries);
            i = end + 1;
        }
        UseMap { entries }
    }

    /// The resolved full path a local `name` was imported from, if any.
    pub fn path_of(&self, name: &str) -> Option<&str> {
        self.entries.iter().find(|e| e.name == name).map(|e| e.path.as_str())
    }
}

/// True when the `use` keyword at `pos` starts an item (not e.g. part of a
/// path like `crate::used`).
fn at_item_position(cleaned: &str, pos: usize) -> bool {
    let before = cleaned[..pos].trim_end();
    before.is_empty()
        || before.ends_with(['{', '}', ';', ')'])
        || before.ends_with("pub")
        || before.ends_with("pub(crate)")
}

/// Parses the body of one `use` item (without the `use` keyword or `;`).
fn parse_use_item(item: &str, entries: &mut Vec<UseEntry>) {
    let item = item.trim_start_matches("::").trim();
    if let Some(brace) = item.find('{') {
        let prefix = item[..brace].trim().trim_end_matches("::");
        let inner = item[brace + 1..].trim_end_matches('}');
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() || part == "*" || part == "self" {
                continue;
            }
            push_use_leaf(prefix, part, entries);
        }
    } else if !item.is_empty() && !item.ends_with('*') {
        let (prefix, leaf) = match item.rfind("::") {
            Some(sep) => (&item[..sep], &item[sep + 2..]),
            None => ("", item),
        };
        push_use_leaf(prefix, leaf, entries);
    }
}

/// Records one leaf (possibly `Orig as Alias`) under its import prefix.
fn push_use_leaf(prefix: &str, leaf: &str, entries: &mut Vec<UseEntry>) {
    let (orig, bound) = match leaf.split_once(" as ") {
        Some((o, a)) => (o.trim(), a.trim()),
        None => (leaf, leaf),
    };
    let path = if prefix.is_empty() { orig.to_string() } else { format!("{prefix}::{orig}") };
    entries.push(UseEntry { name: bound.to_string(), path });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn use_map_resolves_leaves_groups_and_aliases() {
        let uses = UseMap::collect(
            "use std::collections::HashMap;\nuse std::collections::{HashSet, BTreeMap as Tree};\nuse crate::hasher::SignatureMap;",
        );
        assert_eq!(uses.path_of("HashMap"), Some("std::collections::HashMap"));
        assert_eq!(uses.path_of("HashSet"), Some("std::collections::HashSet"));
        assert_eq!(uses.path_of("Tree"), Some("std::collections::BTreeMap"));
        assert_eq!(uses.path_of("SignatureMap"), Some("crate::hasher::SignatureMap"));
        assert_eq!(uses.path_of("BTreeMap"), None);
    }
}
