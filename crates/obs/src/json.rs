//! A hand-rolled JSON encoder/decoder — the serialization path for traces,
//! training reports and eval manifests, replacing any need for `serde`.
//!
//! The value model is deliberately small: what JSON can express, nothing
//! more. Non-finite floats encode as `null` (JSON has no NaN/Infinity);
//! object keys keep insertion order so emitted lines are stable and
//! diff-friendly.

use std::fmt::{self, Write as _};
use std::sync::Arc;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (encoded via `f64`; integers round-trip exactly up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
    /// Pre-rendered JSON text, written verbatim by [`Json::render`]: a value
    /// rendered once and spliced into many documents. Whoever builds it
    /// vouches that it holds exactly one valid JSON value; [`parse`] never
    /// produces it.
    Raw(Arc<str>),
}

impl Json {
    /// Object builder: `Json::obj([("k", 1.0.to_json())])`.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Look up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(64);
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Raw(text) => out.push_str(text),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == 0.0 && n.is_sign_negative() {
        // `-0.0 as i64` is 0; keep the sign so parse(render(v)) is bit-exact.
        out.push_str("-0");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        // Integer-valued: no fractional part, so u64 counters stay exact.
        // Writing into `out` (never fails) skips a `String` per number.
        let _ = write!(out, "{}", n as i64);
    } else {
        // Shortest f64 round-trip formatting (Rust's default `{}` is).
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Things that can render themselves as a [`Json`] value.
pub trait ToJson {
    /// Convert to a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

// ------------------------------------------------------------------ parsing

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a bound a hostile body of `[[[…` overflows
/// the stack, which aborts the process rather than panicking. Far above
/// anything [`Json::render`] emits in this workspace.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON document (used by tests and trace post-processing).
///
/// Accepts exactly the subset [`Json::render`] produces plus arbitrary
/// whitespace; `null` parses as [`Json::Null`] (so non-finite floats
/// round-trip as null, by design). Nesting deeper than [`MAX_DEPTH`] is an
/// error.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let bytes = input.as_bytes();
    let mut p = Parser { bytes, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// A JSON parse failure with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, lit: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.expect("null").map(|_| Json::Null),
            Some(b't') => self.expect("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, ParseError>) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E') | Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| ParseError { message: format!("bad number `{text}`"), offset: start })
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect("\"")?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Control-plane strings never need surrogate
                            // pairs; reject them rather than mis-decode.
                            let ch = char::from_u32(code).ok_or_else(|| self.err("surrogate \\u escape"))?;
                            out.push(ch);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode UTF-8 from this byte.
                    let s = &self.bytes[self.pos - 1..];
                    let ch_len = utf8_len(c);
                    if s.len() < ch_len {
                        return Err(self.err("truncated utf-8"));
                    }
                    let ch = std::str::from_utf8(&s[..ch_len])
                        .map_err(|_| self.err("bad utf-8"))?
                        .chars()
                        .next()
                        .unwrap();
                    out.push(ch);
                    self.pos += ch_len - 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect("[")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect("{")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(":")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(0.5).render(), "0.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Str("hi".into()).render(), "\"hi\"");
    }

    #[test]
    fn escapes_specials() {
        let s = Json::Str("a\"b\\c\nd\te\u{01}".into()).render();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn object_preserves_order() {
        let j = Json::obj([("z", Json::Num(1.0)), ("a", Json::Num(2.0))]);
        assert_eq!(j.render(), "{\"z\":1,\"a\":2}");
        assert_eq!(j.get("a"), Some(&Json::Num(2.0)));
    }

    #[test]
    fn parse_roundtrip() {
        let j = Json::obj([
            ("name", Json::Str("epoch \"0\"\n".into())),
            ("vals", Json::Arr(vec![Json::Num(1.5), Json::Null, Json::Bool(false)])),
            ("nested", Json::obj([("k", Json::Num(-2.25))])),
        ]);
        let text = j.render();
        assert_eq!(parse(&text).unwrap(), j);
    }

    #[test]
    fn parse_whitespace_and_unicode() {
        let j = parse(" { \"k\" : [ 1 , \"héllo\" , \"\\u00e9\" ] } ").unwrap();
        assert_eq!(j.get("k").unwrap().as_arr().unwrap()[1].as_str(), Some("héllo"));
        assert_eq!(j.get("k").unwrap().as_arr().unwrap()[2].as_str(), Some("é"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"\\q\"").is_err());
    }

    #[test]
    fn nesting_is_bounded_by_max_depth() {
        let nest = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "rejected at the first level past the bound: {err}");
        assert!(parse(&format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH))).is_ok());
        assert!(parse(&"{\"k\":[".repeat(MAX_DEPTH)).is_err());
        // Far past the bound still returns an error instead of overflowing
        // the stack.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn raw_text_is_spliced_verbatim() {
        let cached = Json::Arr(vec![Json::Num(0.25), Json::Num(-1.0)]);
        let raw = Json::Raw(cached.render().into());
        let doc = Json::obj([("a", raw.clone()), ("b", Json::Arr(vec![raw, Json::Null]))]);
        let plain = Json::obj([("a", cached.clone()), ("b", Json::Arr(vec![cached, Json::Null]))]);
        assert_eq!(doc.render(), plain.render());
        assert_eq!(parse(&doc.render()).unwrap(), plain, "parse builds values, never Raw");
    }

    #[test]
    fn integers_render_exactly() {
        assert_eq!(Json::Num(1234567890123.0).render(), "1234567890123");
        assert_eq!((42u64).to_json().render(), "42");
    }
}
