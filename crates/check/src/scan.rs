//! File model built on the cleaned source: function spans, visibility,
//! attached docs, and `#[cfg(test)]` suppression regions.

use crate::lexer::{clean_source, line_of};

/// One `fn` item found in a file.
#[derive(Debug)]
pub struct FnSpan {
    /// Function name.
    pub name: String,
    /// Byte offset of the `fn` keyword.
    pub start: usize,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
    /// Parameter-list text (cleaned, between the outer parentheses).
    pub params: String,
    /// Body byte range in the cleaned text (empty for trait-method decls).
    pub body: std::ops::Range<usize>,
    /// `pub` without a visibility restriction.
    pub is_public: bool,
    /// Doc-comment text attached to the item (`///` lines, joined).
    pub docs: String,
}

/// A parsed source file ready for linting.
pub struct FileModel {
    /// Raw source text.
    pub raw: String,
    /// Comment/literal-blanked source (same length as `raw`).
    pub cleaned: String,
    /// All functions, in order of appearance.
    pub fns: Vec<FnSpan>,
    /// Byte ranges covered by `#[cfg(test)]`-gated items.
    pub test_regions: Vec<std::ops::Range<usize>>,
}

impl FileModel {
    /// Lexes and scans `source`.
    pub fn parse(source: &str) -> FileModel {
        let cleaned = clean_source(source);
        let test_regions = find_test_regions(&cleaned);
        let fns = find_fns(source, &cleaned);
        FileModel { raw: source.to_string(), cleaned, fns, test_regions }
    }

    /// True when byte `offset` lies inside a `#[cfg(test)]`-gated item.
    pub fn in_test_code(&self, offset: usize) -> bool {
        self.test_regions.iter().any(|r| r.contains(&offset))
    }

    /// The innermost function whose body contains `offset`.
    pub fn enclosing_fn(&self, offset: usize) -> Option<&FnSpan> {
        self.fns.iter().filter(|f| f.body.contains(&offset)).min_by_key(|f| f.body.len())
    }

    /// 1-indexed line number for a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        line_of(&self.raw, offset)
    }

    /// The raw text of the 1-indexed line.
    pub fn line_text(&self, line: usize) -> &str {
        self.raw.lines().nth(line.saturating_sub(1)).unwrap_or("")
    }
}

/// True when `text[i..]` starts the identifier-like word `word` with
/// boundaries on both sides.
pub fn is_word_at(text: &str, i: usize, word: &str) -> bool {
    let bytes = text.as_bytes();
    if i + word.len() > bytes.len() || &text[i..i + word.len()] != word {
        return false;
    }
    let before_ok = i == 0 || !is_ident_byte(bytes[i - 1]);
    let after = i + word.len();
    let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
    before_ok && after_ok
}

pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte offset just past the matching `}` for the `{` at `open` (or text end).
pub fn match_brace(cleaned: &str, open: usize) -> usize {
    let bytes = cleaned.as_bytes();
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

/// Finds every `#[cfg(...test...)]`-gated item's byte range.
fn find_test_regions(cleaned: &str) -> Vec<std::ops::Range<usize>> {
    let bytes = cleaned.as_bytes();
    let mut regions = Vec::new();
    let mut i = 0usize;
    while let Some(pos) = cleaned[i..].find("#[cfg(").map(|p| p + i) {
        let attr_end = cleaned[pos..].find(']').map(|p| p + pos).unwrap_or(bytes.len());
        let attr = &cleaned[pos..attr_end];
        i = attr_end;
        if !attr.contains("test") {
            continue;
        }
        // Skip any further attributes, then find the item's opening brace
        // (or a terminating `;` for gated statements/imports).
        let mut j = attr_end + 1;
        loop {
            while j < bytes.len() && (bytes[j] as char).is_whitespace() {
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'#' {
                j = cleaned[j..].find(']').map(|p| p + j + 1).unwrap_or(bytes.len());
                continue;
            }
            break;
        }
        let brace = cleaned[j..].find('{').map(|p| p + j);
        let semi = cleaned[j..].find(';').map(|p| p + j);
        match (brace, semi) {
            (Some(b), Some(s)) if s < b => regions.push(pos..s + 1),
            (Some(b), _) => regions.push(pos..match_brace(cleaned, b)),
            (None, Some(s)) => regions.push(pos..s + 1),
            (None, None) => regions.push(pos..bytes.len()),
        }
    }
    regions
}

/// Finds all `fn` items with their signature, visibility, body, and docs.
fn find_fns(raw: &str, cleaned: &str) -> Vec<FnSpan> {
    let bytes = cleaned.as_bytes();
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'f' && is_word_at(cleaned, i, "fn") {
            if let Some(span) = parse_fn(raw, cleaned, i) {
                i = span.body.start.max(i + 2);
                fns.push(span);
                continue;
            }
        }
        i += 1;
    }
    fns
}

fn parse_fn(raw: &str, cleaned: &str, fn_pos: usize) -> Option<FnSpan> {
    let bytes = cleaned.as_bytes();
    // Name.
    let mut j = fn_pos + 2;
    while j < bytes.len() && (bytes[j] as char).is_whitespace() {
        j += 1;
    }
    let name_start = j;
    while j < bytes.len() && is_ident_byte(bytes[j]) {
        j += 1;
    }
    if j == name_start {
        return None; // `fn` keyword in a type position (e.g. `fn(` pointer)
    }
    let name = cleaned[name_start..j].to_string();
    // Parameter list: first `(` after the name (skipping generics).
    let open_paren = cleaned[j..].find('(').map(|p| p + j)?;
    let mut depth = 0usize;
    let mut k = open_paren;
    while k < bytes.len() {
        match bytes[k] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        k += 1;
    }
    let params = cleaned[open_paren + 1..k.min(bytes.len())].to_string();
    // Body: next `{` or `;` at the signature level — a `;` inside the
    // brackets of an array return type (`-> [f32; 8]`) is not one.
    let mut m = k + 1;
    let mut brackets = 0usize;
    let body = loop {
        if m >= bytes.len() {
            break m..m;
        }
        match bytes[m] {
            b'{' => break m..match_brace(cleaned, m),
            b';' if brackets == 0 => break m..m,
            b'[' => brackets += 1,
            b']' => brackets = brackets.saturating_sub(1),
            _ => {}
        }
        m += 1;
    };
    // Visibility: tokens between the previous item boundary and `fn`.
    let prefix_start = cleaned[..fn_pos].rfind(['{', '}', ';']).map(|p| p + 1).unwrap_or(0);
    let prefix = &cleaned[prefix_start..fn_pos];
    let is_public = prefix
        .split_whitespace()
        .any(|tok| tok == "pub" || tok.starts_with("pub") && !tok.starts_with("pub("));
    // Docs: walk raw lines immediately above the item prefix.
    let item_line = line_of(raw, prefix_start + prefix.len() - prefix.trim_start().len());
    let docs = collect_docs(raw, item_line);
    Some(FnSpan { name, start: fn_pos, line: line_of(raw, fn_pos), params, body, is_public, docs })
}

/// Collects the `///` doc block ending just above 1-indexed `item_line`,
/// looking through attribute lines.
fn collect_docs(raw: &str, item_line: usize) -> String {
    let lines: Vec<&str> = raw.lines().collect();
    let mut docs: Vec<&str> = Vec::new();
    let mut l = item_line.saturating_sub(2); // 0-indexed line above the item
    while let Some(text) = lines.get(l) {
        let t = text.trim_start();
        if t.starts_with("///") {
            docs.push(t.trim_start_matches('/').trim());
        } else if t.starts_with("#[")
            || t.starts_with("#!")
            || t.ends_with(']') && t.starts_with('#')
        {
            // attribute between docs and item — keep walking
        } else {
            break;
        }
        if l == 0 {
            break;
        }
        l -= 1;
    }
    docs.reverse();
    docs.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
/// Adds.
///
/// # Shape
/// `a: r×c`.
pub fn add(a: usize, b: usize) -> usize { a + b }

fn private_helper(x: f32) -> f32 {
    x.sqrt()
}

#[cfg(test)]
mod tests {
    fn helper_in_tests() { some().unwrap(); }
}
"#;

    #[test]
    fn finds_functions_and_visibility() {
        let model = FileModel::parse(SRC);
        let names: Vec<&str> = model.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["add", "private_helper", "helper_in_tests"]);
        assert!(model.fns[0].is_public);
        assert!(!model.fns[1].is_public);
    }

    #[test]
    fn attaches_docs() {
        let model = FileModel::parse(SRC);
        assert!(model.fns[0].docs.contains("# Shape"));
        assert!(model.fns[1].docs.is_empty());
    }

    #[test]
    fn captures_params() {
        let model = FileModel::parse(SRC);
        assert_eq!(model.fns[0].params, "a: usize, b: usize");
    }

    #[test]
    fn array_return_type_does_not_end_the_signature() {
        let model =
            FileModel::parse("fn tile(a: [f32; 8]) -> [f32; 8] { a.map(f) }\nfn f(v: f32) -> f32;");
        let body = |i: usize| &model.cleaned[model.fns[i].body.clone()];
        assert!(body(0).contains("a.map(f)"), "body was {:?}", body(0));
        assert!(body(1).is_empty());
    }

    #[test]
    fn cfg_test_region_covers_test_mod() {
        let model = FileModel::parse(SRC);
        let unwrap_pos = model.raw.find(".unwrap()").expect("fixture has an unwrap");
        assert!(model.in_test_code(unwrap_pos));
        let add_pos = model.raw.find("pub fn add").expect("fixture has add");
        assert!(!model.in_test_code(add_pos));
    }

    #[test]
    fn enclosing_fn_picks_innermost() {
        let model = FileModel::parse(SRC);
        let pos = model.raw.find("x.sqrt()").expect("fixture has sqrt");
        assert_eq!(model.enclosing_fn(pos).expect("inside a fn").name, "private_helper");
    }
}
