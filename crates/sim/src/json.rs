//! A minimal, deterministic JSON tree: build, pretty-print, parse.
//!
//! The workspace is built offline with no registry access, so metric
//! export cannot go through `serde_json`. This module provides the small
//! JSON surface the observability layer needs instead:
//!
//! - [`JsonValue`]: an ordered JSON tree. Objects keep *insertion order*
//!   (a `Vec` of pairs, not a map), so the printed bytes depend only on
//!   the code path that built the tree — the cornerstone of the
//!   byte-identical-exports guarantee.
//! - [`JsonValue::render`]: pretty printer with stable 2-space
//!   indentation and `\n` line endings.
//! - [`JsonValue::parse`]: a strict recursive-descent parser, used by the
//!   bench-summary aggregator to read the per-binary exports back.
//! - [`ToJson`]: implemented by metric types across the workspace.
//!
//! Floats are printed with Rust's shortest round-trip `Display`, which is
//! a pure function of the bits; non-finite floats render as `null`
//! (JSON has no NaN/Infinity).
//!
//! # Examples
//!
//! ```
//! use pqs_sim::json::JsonValue;
//!
//! let v = JsonValue::object([
//!     ("name", JsonValue::from("run")),
//!     ("seeds", JsonValue::array([1u64.into(), 2u64.into()])),
//! ]);
//! let text = v.render();
//! assert_eq!(JsonValue::parse(&text).unwrap(), v);
//! ```

use crate::metrics::Histogram;
use std::fmt::{self, Write as _};

/// An ordered JSON document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (also produced by the parser for negative ints).
    Int(i64),
    /// An unsigned integer (counters; the common case here).
    UInt(u64),
    /// A float; non-finite values render as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::UInt(u64::from(v))
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::UInt(v as u64)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> Self {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn array(items: impl IntoIterator<Item = JsonValue>) -> Self {
        JsonValue::Array(items.into_iter().collect())
    }

    /// Appends a key to an object (panics on non-objects — builder misuse,
    /// not input data).
    pub fn insert(&mut self, key: impl Into<String>, value: JsonValue) {
        match self {
            JsonValue::Object(pairs) => pairs.push((key.into(), value)),
            _ => panic!("JsonValue::insert on a non-object"),
        }
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an f64 if it is any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::Int(v) => Some(v as f64),
            JsonValue::UInt(v) => Some(v as f64),
            JsonValue::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a u64 if it is an unsigned (or non-negative signed)
    /// integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::UInt(v) => Some(v),
            JsonValue::Int(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with 2-space indentation and a trailing newline —
    /// the canonical export format (diff-friendly, byte-stable).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_indented(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_indented(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Float(v) => {
                if v.is_finite() {
                    // Shortest round-trip representation — a pure function
                    // of the bits. Integral floats print without a point;
                    // append ".0" so the token stays unambiguously a float.
                    let mut token = format!("{v}");
                    if !token.contains(['.', 'e', 'E']) {
                        token.push_str(".0");
                    }
                    out.push_str(&token);
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write_indented(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_indented(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Strict: trailing garbage is an error.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(value)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
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

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.render().trim_end())
    }
}

/// A parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are not paired up — exports never
                            // emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the full UTF-8 scalar starting here.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().expect("peeked byte exists");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ascii");
        if is_float {
            text.parse::<f64>()
                .map(JsonValue::Float)
                .map_err(|_| self.err("invalid number"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(JsonValue::Int)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<u64>()
                .map(JsonValue::UInt)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

/// Conversion of a metric type into its canonical JSON form.
pub trait ToJson {
    /// Builds the JSON tree for this value.
    fn to_json(&self) -> JsonValue;
}

impl ToJson for Histogram {
    /// Sparse export: summary scalars plus `(bucket_floor, count)` pairs
    /// for the non-empty buckets only.
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("count", JsonValue::from(self.count())),
            ("sum", JsonValue::from(self.sum())),
            ("min", JsonValue::from(self.min())),
            ("max", JsonValue::from(self.max())),
            ("p50", JsonValue::from(self.percentile(50.0))),
            ("p90", JsonValue::from(self.percentile(90.0))),
            ("p99", JsonValue::from(self.percentile(99.0))),
            (
                "buckets",
                JsonValue::array(self.nonzero_buckets().map(|(floor, count)| {
                    JsonValue::array([JsonValue::from(floor), JsonValue::from(count)])
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_nesting() {
        let v = JsonValue::object([
            ("null", JsonValue::Null),
            ("yes", JsonValue::Bool(true)),
            ("int", JsonValue::Int(-5)),
            ("uint", JsonValue::UInt(u64::MAX)),
            ("float", JsonValue::Float(1.25)),
            ("text", JsonValue::from("a \"quoted\"\nline")),
            ("empty_arr", JsonValue::array([])),
            ("empty_obj", JsonValue::object::<String>([])),
            (
                "nested",
                JsonValue::array([JsonValue::object([("k", JsonValue::from(1u64))])]),
            ),
        ]);
        let text = v.render();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn rendering_is_deterministic() {
        let build = || {
            JsonValue::object([("b", JsonValue::from(2u64)), ("a", JsonValue::from(1u64))]).render()
        };
        assert_eq!(build(), build());
        // Insertion order, not key order.
        assert!(build().find("\"b\"").unwrap() < build().find("\"a\"").unwrap());
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(JsonValue::Float(f64::NAN).render(), "null\n");
        assert_eq!(JsonValue::Float(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        let text = JsonValue::Float(3.0).render();
        assert_eq!(text, "3.0\n");
        assert_eq!(
            JsonValue::parse(&text).unwrap(),
            JsonValue::Float(3.0),
            "parses back as a float, not an int"
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("12 34").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("truth").is_err());
    }

    #[test]
    fn accessors() {
        let v = JsonValue::parse(r#"{"a": 3, "b": [1.5, "x"], "c": -2}"#).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(v.get("c").and_then(JsonValue::as_u64), None);
        assert_eq!(v.get("c").and_then(JsonValue::as_f64), Some(-2.0));
        let arr = v.get("b").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr[1].as_str(), Some("x"));
    }

    #[test]
    fn histogram_to_json_is_sparse() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(10);
        h.record(1_000_000);
        let j = h.to_json();
        assert_eq!(j.get("count").and_then(JsonValue::as_u64), Some(3));
        let buckets = j.get("buckets").and_then(JsonValue::as_array).unwrap();
        assert_eq!(buckets.len(), 2);
    }
}
