//! Minimal JSON building and parsing shared across the workspace.
//!
//! The build environment is offline (no serde), so every crate that
//! speaks JSON — the engine's metrics reports, checkpoint logs, and the
//! observability exporters — funnels through this one hand-rolled
//! implementation instead of growing its own escaping rules. The writer
//! half builds single-line objects ([`JsonObj`]); the reader half is a
//! small recursive-descent parser ([`parse`]) used to validate exports
//! (`dfcm-tools obs summarize --check`) and by the exporter tests.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `text` as a JSON string literal, including the quotes.
///
/// This is the single escaping routine for the whole workspace; the
/// engine report and checkpoint log formats in `dfcm-sim` are defined in
/// terms of it.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Builds a single-line JSON object field by field, in insertion order.
///
/// ```
/// use dfcm_obs::json::JsonObj;
///
/// let line = JsonObj::new()
///     .str("type", "task")
///     .u64("attempts", 2)
///     .f64("wall_s", 0.25, 6)
///     .finish();
/// assert_eq!(line, r#"{"type":"task","attempts":2,"wall_s":0.250000}"#);
/// ```
#[derive(Debug, Clone)]
pub struct JsonObj {
    out: String,
}

impl JsonObj {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObj { out: String::new() }
    }

    fn key(&mut self, k: &str) {
        if !self.out.is_empty() {
            self.out.push(',');
        }
        let _ = write!(self.out, "{}:", json_string(k));
    }

    /// Adds a string field (escaped).
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.out.push_str(&json_string(v));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.out, "{v}");
        self
    }

    /// Adds a float field with a fixed number of decimals.
    pub fn f64(mut self, k: &str, v: f64, decimals: usize) -> Self {
        self.key(k);
        let _ = write!(self.out, "{v:.decimals$}");
        self
    }

    /// Adds a pre-rendered JSON value verbatim (caller guarantees it is
    /// valid JSON).
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.out.push_str(v);
        self
    }

    /// Adds a nested object of string→string pairs (for label sets).
    pub fn str_map<'a, I: IntoIterator<Item = (&'a str, &'a str)>>(
        mut self,
        k: &str,
        v: I,
    ) -> Self {
        self.key(k);
        self.out.push('{');
        for (i, (lk, lv)) in v.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            let _ = write!(self.out, "{}:{}", json_string(lk), json_string(lv));
        }
        self.out.push('}');
        self
    }

    /// Closes the object and returns the rendered line (no newline).
    pub fn finish(self) -> String {
        format!("{{{}}}", self.out)
    }
}

impl Default for JsonObj {
    fn default() -> Self {
        JsonObj::new()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; exact for integers up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is normalized (sorted) for determinism.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer (rejects negatives and
    /// non-integral values).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a human-readable message with the byte offset of the problem.
pub fn parse(s: &str) -> Result<Json, String> {
    let bytes = s.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad utf-8".to_owned())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = b.get(*pos) else {
            return Err("unterminated string".into());
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&e) = b.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
                match e {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_owned())?;
                        *pos += 4;
                        // Surrogates collapse to the replacement character;
                        // the workspace never emits them.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
            }
            c if c < 0x20 => return Err("raw control character in string".into()),
            _ => {
                // Re-borrow the full char (UTF-8 multibyte sequences).
                let rest =
                    std::str::from_utf8(&b[*pos - 1..]).map_err(|_| "bad utf-8".to_owned())?;
                let ch = rest.chars().next().ok_or("unterminated string")?;
                out.push(ch);
                *pos += ch.len_utf8() - 1;
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(format!("expected , or ] at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut out = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected : at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        out.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            _ => return Err(format!("expected , or }} at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_parser_roundtrip() {
        let line = JsonObj::new()
            .str("name", "a\"b\\c\nd")
            .u64("n", 42)
            .f64("x", 1.5, 3)
            .str_map("labels", [("k", "v"), ("q", "w")])
            .finish();
        let parsed = parse(&line).unwrap();
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("a\"b\\c\nd"));
        assert_eq!(parsed.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(parsed.get("x").unwrap().as_f64(), Some(1.5));
        assert_eq!(
            parsed.get("labels").unwrap().get("q").unwrap().as_str(),
            Some("w")
        );
    }

    #[test]
    fn json_string_escapes_quote_backslash_and_newline() {
        assert_eq!(json_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":true,"d":-1.5e2}"#).unwrap();
        assert_eq!(v.get("d").unwrap().as_f64(), Some(-150.0));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse(r#"{"a":1} extra"#).is_err());
        assert!(parse(r#""unterminated"#).is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn unicode_and_escapes_survive() {
        let v = parse(r#""Aµ£\t""#).unwrap();
        assert_eq!(v.as_str(), Some("Aµ£\t"));
    }

    #[test]
    fn as_u64_rejects_non_integers() {
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("12").unwrap().as_u64(), Some(12));
    }
}
