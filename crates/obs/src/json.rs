//! A minimal JSON value, writer, and parser.
//!
//! The BENCH files and the JSON-lines run logs must be (a) dependency-free
//! and (b) byte-deterministic across identical runs, so this module
//! hand-rolls the subset of JSON the telemetry layer needs instead of
//! pulling in serde. Objects preserve insertion order (a `Vec` of pairs,
//! not a map), which keeps the emitted bytes stable and diffable.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser recurses
/// once per level, so an unbounded depth would let a hostile line of
/// brackets overflow the stack; every document this crate writes nests at
/// most 4 deep.
const MAX_DEPTH: usize = 64;

/// A JSON value. Numbers are split into [`Json::Uint`] (exact u64 counters,
/// FLOP totals) and [`Json::Num`] (ratios, seconds) so counter values
/// round-trip without floating-point loss.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer written without a decimal point.
    Uint(u64),
    /// A double; non-finite values serialise as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an f64 (accepting both number variants).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Uint(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as an exact u64.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Uint(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object slice.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serialises to a compact single-line JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    /// Serialises with two-space indentation (the BENCH file format).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Uint(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(n) => write_f64(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write_into(out),
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message (with a byte offset) when the input
    /// is not valid JSON of the subset this module writes, or nests arrays
    /// and objects deeper than 64 levels.
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
        return;
    }
    // Rust's shortest round-trip Display is deterministic; force a decimal
    // point so integral floats stay distinguishable from Uint on re-parse.
    if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{n:.1}");
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {pos}"));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = Vec::new();
    while let Some(&b) = bytes.get(*pos) {
        *pos += 1;
        match b {
            b'"' => {
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".to_string())
            }
            b'\\' => {
                let esc = bytes.get(*pos).copied().ok_or("truncated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        *pos += 4;
                        let c = char::from_u32(code).ok_or("bad \\u code point")?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    _ => return Err(format!("unknown escape at byte {pos}")),
                }
            }
            b => out.push(b),
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while let Some(&b) = bytes.get(*pos) {
        if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        } else {
            break;
        }
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid number bytes".to_string())?;
    if !text.contains(['.', 'e', 'E', '-']) {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Uint(n));
        }
    }
    text.parse::<f64>().map(Json::Num).map_err(|_| format!("invalid number at byte {start}"))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn round_trips_the_bench_subset() {
        let doc = Json::Obj(vec![
            ("schema".to_string(), Json::Str("adr-bench-train/v1".to_string())),
            ("count".to_string(), Json::Uint(18_446_744_073_709_551_615)),
            ("ratio".to_string(), Json::Num(0.25)),
            ("whole".to_string(), Json::Num(3.0)),
            ("flag".to_string(), Json::Bool(true)),
            ("none".to_string(), Json::Null),
            ("items".to_string(), Json::Arr(vec![Json::Uint(1), Json::Num(2.5)])),
        ]);
        let compact = doc.render();
        assert_eq!(Json::parse(&compact).unwrap(), doc);
        let pretty = doc.render_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), doc);
    }

    #[test]
    fn uint_values_round_trip_exactly() {
        let n = u64::MAX - 3;
        let parsed = Json::parse(&Json::Uint(n).render()).unwrap();
        assert_eq!(parsed.as_u64(), Some(n));
    }

    #[test]
    fn escapes_strings() {
        let doc = Json::Str("a\"b\\c\nd\te\u{1}".to_string());
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn non_finite_floats_serialise_as_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("123 tail").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = Json::parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("at byte 64"), "{err}");
        let err = Json::parse(&"{\"a\":".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok());
        let one_more = format!("[{deepest}]");
        assert!(Json::parse(&one_more).is_err());
    }

    #[test]
    fn object_lookup_and_accessors() {
        let doc = Json::parse("{\"a\": 3, \"b\": 0.5, \"c\": \"x\"}").unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("b").and_then(Json::as_f64), Some(0.5));
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x"));
        assert!(doc.get("missing").is_none());
    }
}
