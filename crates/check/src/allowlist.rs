//! The audited-site allowlist (`adr-check.allow` at the workspace root).
//!
//! Each line has the form:
//!
//! ```text
//! crates/tensor/src/matrix.rs: from_vec(   # internal-invariant: why it holds
//! ```
//!
//! i.e. `<workspace-relative path>: <substring of the offending line>`,
//! followed by a `#` comment whose first token is the audit **category**
//! (one of [`KNOWN_CATEGORIES`]). A finding is suppressed when an entry's
//! path matches the finding's file and its substring occurs in the flagged
//! source line. Matching on line *content* instead of line numbers keeps
//! entries stable across unrelated edits.
//!
//! Two staleness rules keep the file from rotting:
//! * an entry that matches no finding is a hard failure (stale audit);
//! * an entry with a missing or unknown category is a hard failure, so
//!   every suppression names the *kind* of argument that justifies it.
//!
//! Category-gated lints (`adr::atomic_ordering`) go further: the entry's
//! category must come from the lint's own accepted set
//! ([`Allowlist::allows_categorized`]), so a generic audit comment cannot
//! wave through an ordering choice.

/// The audit categories an allowlist comment may open with. Adding a new
/// category is a reviewed change to this list plus DESIGN.md.
pub const KNOWN_CATEGORIES: &[&str] = &[
    // Panic-site audits (`adr::no_panic`).
    "layer-protocol",
    "internal-invariant",
    "checked-feature",
    // The pair that gates `adr::atomic_ordering`.
    "ordering-counter",
    "ordering-handoff",
];

/// One allowlist entry.
#[derive(Debug)]
pub struct AllowEntry {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// Substring that must occur in the flagged line.
    pub pattern: String,
    /// Audit category: first token of the comment, if any.
    pub category: Option<String>,
    /// Source line in the allowlist file (for unused-entry reporting).
    pub line: usize,
}

/// Parsed allowlist with per-entry hit counts.
pub struct Allowlist {
    entries: Vec<AllowEntry>,
    hits: Vec<std::cell::Cell<usize>>,
}

impl Allowlist {
    /// Parses allowlist text. Lines that are empty or start with `#` are
    /// ignored; malformed lines (no `:`) are reported as errors.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (idx, raw_line) in text.lines().enumerate() {
            let (line, comment) = match raw_line.split_once('#') {
                Some((code, comment)) => (code.trim(), Some(comment.trim())),
                None => (raw_line.trim(), None),
            };
            if line.is_empty() {
                continue;
            }
            let Some((path, pattern)) = line.split_once(':') else {
                return Err(format!(
                    "adr-check.allow:{}: expected `<path>: <line substring>`",
                    idx + 1
                ));
            };
            let pattern = pattern.trim();
            if pattern.is_empty() {
                return Err(format!("adr-check.allow:{}: empty pattern", idx + 1));
            }
            let category = comment
                .and_then(|c| c.split_whitespace().next())
                .map(|tok| tok.trim_end_matches(':').to_string());
            entries.push(AllowEntry {
                path: path.trim().to_string(),
                pattern: pattern.to_string(),
                category,
                line: idx + 1,
            });
        }
        let hits = entries.iter().map(|_| std::cell::Cell::new(0)).collect();
        Ok(Allowlist { entries, hits })
    }

    /// An empty allowlist.
    pub fn empty() -> Allowlist {
        Allowlist { entries: Vec::new(), hits: Vec::new() }
    }

    /// True when a finding in `file` whose source line is `line_text` is
    /// covered by an entry. Records the hit.
    pub fn allows(&self, file: &str, line_text: &str) -> bool {
        let mut allowed = false;
        for (entry, hit) in self.entries.iter().zip(&self.hits) {
            if entry.path == file && line_text.contains(&entry.pattern) {
                hit.set(hit.get() + 1);
                allowed = true;
            }
        }
        allowed
    }

    /// Like [`Allowlist::allows`], but the matching entry must carry a
    /// category from `accepted`. Used by lints whose suppressions demand a
    /// specific kind of audit (e.g. `adr::atomic_ordering` only accepts
    /// `ordering-*` categories).
    pub fn allows_categorized(&self, file: &str, line_text: &str, accepted: &[&str]) -> bool {
        let mut allowed = false;
        for (entry, hit) in self.entries.iter().zip(&self.hits) {
            if entry.path == file
                && line_text.contains(&entry.pattern)
                && entry.category.as_deref().is_some_and(|c| accepted.contains(&c))
            {
                hit.set(hit.get() + 1);
                allowed = true;
            }
        }
        allowed
    }

    /// Entries that never matched a finding — stale audit records.
    pub fn unused(&self) -> Vec<&AllowEntry> {
        self.entries.iter().zip(&self.hits).filter(|(_, h)| h.get() == 0).map(|(e, _)| e).collect()
    }

    /// Entries whose audit category is missing or not in
    /// [`KNOWN_CATEGORIES`] — each is a hard failure, rendered like the
    /// stale-entry diagnostics.
    pub fn category_errors(&self) -> Vec<String> {
        self.entries
            .iter()
            .filter_map(|e| match e.category.as_deref() {
                None => Some(format!(
                    "adr-check.allow:{}: `{}: {}` has no audit category \
                     (comment must open with one of: {})",
                    e.line,
                    e.path,
                    e.pattern,
                    KNOWN_CATEGORIES.join(", ")
                )),
                Some(cat) if !KNOWN_CATEGORIES.contains(&cat) => Some(format!(
                    "adr-check.allow:{}: unknown audit category `{}` \
                     (known: {})",
                    e.line,
                    cat,
                    KNOWN_CATEGORIES.join(", ")
                )),
                Some(_) => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_matches() {
        let list = Allowlist::parse(
            "# comment\ncrates/a/src/x.rs: foo.unwrap()  # internal-invariant: audited\n\n\
             crates/b/src/y.rs: bar(  # layer-protocol",
        )
        .expect("well-formed allowlist");
        assert!(list.allows("crates/a/src/x.rs", "    foo.unwrap();"));
        assert!(!list.allows("crates/a/src/x.rs", "    other.unwrap();"));
        assert!(!list.allows("crates/c/src/z.rs", "    foo.unwrap();"));
        assert_eq!(list.unused().len(), 1);
        assert!(list.category_errors().is_empty());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Allowlist::parse("no separator here").is_err());
        assert!(Allowlist::parse("path.rs:   ").is_err());
    }

    #[test]
    fn categories_are_parsed_and_validated() {
        let list = Allowlist::parse(
            "crates/a/src/x.rs: load(Ordering::Acquire)  # ordering-handoff: pairs with Release\n\
             crates/a/src/x.rs: y.unwrap()  # bespoke-excuse: trust me\n\
             crates/a/src/x.rs: z.unwrap()",
        )
        .expect("parses");
        let errors = list.category_errors();
        assert_eq!(errors.len(), 2, "{errors:#?}");
        assert!(errors[0].contains("unknown audit category `bespoke-excuse`"));
        assert!(errors[1].contains("has no audit category"));
    }

    #[test]
    fn categorized_matching_demands_the_right_kind() {
        let list = Allowlist::parse(
            "crates/a/src/x.rs: fetch_add(1, Ordering::SeqCst)  # internal-invariant: wrong kind\n\
             crates/a/src/y.rs: load(Ordering::Acquire)  # ordering-handoff: pairs with Release",
        )
        .expect("parses");
        let accepted = ["ordering-counter", "ordering-handoff"];
        assert!(!list.allows_categorized(
            "crates/a/src/x.rs",
            "c.fetch_add(1, Ordering::SeqCst);",
            &accepted
        ));
        assert!(list.allows_categorized(
            "crates/a/src/y.rs",
            "let e = epoch.load(Ordering::Acquire);",
            &accepted
        ));
        // The mismatched entry did not record a hit, so it reads as stale.
        assert_eq!(list.unused().len(), 1);
    }

    #[test]
    fn checked_feature_comment_style_parses() {
        // `# checked-feature diagnostic: ...` — category is the first
        // token, the rest is prose.
        let list =
            Allowlist::parse("crates/t/src/s.rs: panic!(    # checked-feature diagnostic: loud")
                .expect("parses");
        assert!(list.category_errors().is_empty());
    }
}
