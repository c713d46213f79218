//! The workspace's one JSON reader and its one string escaper.
//!
//! Every JSON document is written by hand (the workspace carries no
//! serde). [`parse`] reads any of them back, or checks that exporter
//! output is well formed: `CLUSTER.json` specs, calibration profiles,
//! Chrome traces, summaries, and the `BENCH_*.json` and `PLAN_*.json`
//! records.
//!
//! The reader follows RFC 8259 strictly and fails closed with a typed
//! [`JsonError`]: trailing bytes, duplicate object keys, bad escapes,
//! lone surrogates, raw control characters in strings, and nesting
//! deeper than [`MAX_DEPTH`] are errors. Escapes are fully decoded,
//! surrogate pairs included. Numbers keep their source text, so an
//! integer decodes exactly ([`Value::as_u64`]). Nothing is allocated
//! from a count the document states, so the input's own length bounds
//! every allocation.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// The deepest nesting of arrays and objects [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its source text.
    Number(String),
    /// A string, escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; its keys are unique.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The member `key` of an object; `None` for a missing key or a
    /// value that is not an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.get(key),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The number as an exact `u64`. A number with a fraction, sign or
    /// exponent is not an integer, and one above `u64::MAX` does not
    /// fit: both are `None`, never a truncated or saturated value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(t) if t.bytes().all(|b| b.is_ascii_digit()) => t.parse().ok(),
            _ => None,
        }
    }

    /// The number as the nearest `f64`; a magnitude beyond `f64::MAX`
    /// reads as an infinity, which callers that need finite figures
    /// reject.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(t) => t.parse().ok(),
            _ => None,
        }
    }
}

/// Why [`parse`] rejected a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reason {
    /// The grammar needs the named token here, and the input has
    /// another byte or ends.
    Expected(&'static str),
    /// Bytes follow the document's value.
    TrailingBytes,
    /// An object repeats a key.
    DuplicateKey,
    /// A backslash escape that JSON does not define.
    BadEscape,
    /// A `\u` escape of a UTF-16 surrogate without its other half.
    LoneSurrogate,
    /// A raw control character (U+0000 to U+001F) inside a string.
    ControlCharacter,
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// A rejected document: what is wrong, and the byte offset where the
/// reader found it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What is wrong there.
    pub reason: Reason,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.reason {
            Reason::Expected(what) => write!(f, "expected {what}")?,
            Reason::TrailingBytes => f.write_str("trailing bytes after the document")?,
            Reason::DuplicateKey => f.write_str("duplicate key")?,
            Reason::BadEscape => f.write_str("bad escape")?,
            Reason::LoneSurrogate => f.write_str("lone surrogate")?,
            Reason::ControlCharacter => f.write_str("raw control character in a string")?,
            Reason::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH}")?,
        }
        write!(f, " at byte {}", self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document, surrounded by optional whitespace.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser { s: text, i: 0 };
    let value = p.value(0)?;
    p.ws();
    if p.i != text.len() {
        return Err(p.err(Reason::TrailingBytes));
    }
    Ok(value)
}

/// `s` escaped for the inside of a JSON string literal: `"`, `\` and
/// every control character below U+0020 are escaped, everything else is
/// copied, so [`parse`] gives `s` back exactly.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn err(&self, reason: Reason) -> JsonError {
        JsonError {
            offset: self.i,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    /// Consumes `c`, or fails naming `what`.
    fn eat(&mut self, c: u8, what: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(Reason::Expected(what)))
        }
    }

    /// A value, after optional whitespace; `depth` counts the arrays
    /// and objects around it.
    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.ws();
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(self.err(Reason::TooDeep)),
            Some(b'{') => {
                let mut members = BTreeMap::new();
                self.items(b'}', |p| {
                    p.ws();
                    let at = p.i;
                    let key = p.string()?;
                    p.ws();
                    p.eat(b':', "':'")?;
                    let value = p.value(depth + 1)?;
                    match members.insert(key, value) {
                        Some(_) => Err(JsonError {
                            offset: at,
                            reason: Reason::DuplicateKey,
                        }),
                        None => Ok(()),
                    }
                })?;
                Ok(Value::Object(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err(Reason::Expected("a value"))),
        }
    }

    fn literal(&mut self, word: &'static str, value: Value) -> Result<Value, JsonError> {
        if !self.s[self.i..].starts_with(word) {
            return Err(self.err(Reason::Expected(word)));
        }
        self.i += word.len();
        Ok(value)
    }

    /// The comma-separated items of an array or object, from its
    /// opening bracket at the cursor through its `close` bracket.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.i += 1;
        self.ws();
        if self.peek() == Some(close) {
            self.i += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(c) if c == close => {
                    self.i += 1;
                    return Ok(());
                }
                _ if close == b'}' => return Err(self.err(Reason::Expected("',' or '}'"))),
                _ => return Err(self.err(Reason::Expected("',' or ']'"))),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "a string")?;
        let mut out = String::new();
        // Unescaped bytes are copied in runs; every run starts and ends
        // next to an ASCII byte, so it is whole UTF-8 of the input.
        let mut run = self.i;
        loop {
            match self.peek() {
                Some(b'"') => {
                    out.push_str(&self.s[run..self.i]);
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.s[run..self.i]);
                    out.push(self.decode_escape()?);
                    run = self.i;
                }
                Some(0x00..=0x1f) => return Err(self.err(Reason::ControlCharacter)),
                Some(_) => self.i += 1,
                None => return Err(self.err(Reason::Expected("'\"'"))),
            }
        }
    }

    /// Decodes the escape at the cursor's backslash.
    fn decode_escape(&mut self) -> Result<char, JsonError> {
        let at = self.i;
        let bad = |reason| JsonError { offset: at, reason };
        let c = match self.s.as_bytes().get(at + 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.i += 2;
                let unit = self.hex4().ok_or_else(|| bad(Reason::BadEscape))?;
                let code = match unit {
                    0xd800..=0xdbff => {
                        if !self.s[self.i..].starts_with("\\u") {
                            return Err(bad(Reason::LoneSurrogate));
                        }
                        self.i += 2;
                        let low = self.hex4().ok_or_else(|| bad(Reason::BadEscape))?;
                        if !(0xdc00..=0xdfff).contains(&low) {
                            return Err(bad(Reason::LoneSurrogate));
                        }
                        0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
                    }
                    0xdc00..=0xdfff => return Err(bad(Reason::LoneSurrogate)),
                    unit => unit,
                };
                return Ok(char::from_u32(code).expect("a scalar value: surrogates are paired"));
            }
            _ => return Err(bad(Reason::BadEscape)),
        };
        self.i += 2;
        Ok(c)
    }

    /// Four hex digits at the cursor, as one UTF-16 code unit.
    fn hex4(&mut self) -> Option<u32> {
        let digits = self.s.as_bytes().get(self.i..self.i + 4)?;
        let mut unit = 0;
        for &d in digits {
            unit = unit * 16 + char::from(d).to_digit(16)?;
        }
        self.i += 4;
        Some(unit)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        if self.peek() == Some(b'0') {
            self.i += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            self.digits()?;
        }
        Ok(Value::Number(self.s[start..self.i].to_string()))
    }

    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == start {
            return Err(self.err(Reason::Expected("a digit")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reason(text: &str) -> Reason {
        parse(text).expect_err(text).reason
    }

    #[test]
    fn parses_every_kind_of_value() {
        let v = parse(" {\"a\":[1,2.5,-3e2,true,false,null,\"s\\n\"],\"b\":{}} ").unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2], Value::Number("-3e2".into()));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(a[3].as_bool(), Some(true));
        assert_eq!(a[4].as_bool(), Some(false));
        assert_eq!(a[5], Value::Null);
        assert_eq!(a[6].as_str(), Some("s\n"));
        assert_eq!(v.get("b"), Some(&Value::Object(BTreeMap::new())));
        assert_eq!(parse(" 42 ").unwrap().as_u64(), Some(42));
    }

    #[test]
    fn rejects_malformed_documents_with_a_reason() {
        assert_eq!(reason(""), Reason::Expected("a value"));
        assert_eq!(reason("{\"a\":1,}"), Reason::Expected("a string"));
        assert_eq!(reason("[1 2]"), Reason::Expected("',' or ']'"));
        assert_eq!(reason("[1,,2]"), Reason::Expected("a value"));
        assert_eq!(reason("\"unterminated"), Reason::Expected("'\"'"));
        assert_eq!(reason("{} trailing"), Reason::TrailingBytes);
        assert_eq!(reason("01"), Reason::TrailingBytes);
        assert_eq!(reason("-.3"), Reason::Expected("a digit"));
        assert_eq!(reason("1."), Reason::Expected("a digit"));
        assert_eq!(reason("truex"), Reason::TrailingBytes);
        assert_eq!(reason("nul"), Reason::Expected("null"));
        let dup = parse("{\"k\":1, \"k\":2}").unwrap_err();
        assert_eq!((dup.reason, dup.offset), (Reason::DuplicateKey, 8));
        assert_eq!(dup.to_string(), "duplicate key at byte 8");
    }

    #[test]
    fn strings_decode_every_escape() {
        let text = r#""\"\\\/\b\f\n\r\t\u00e9\u0000\ud83d\ude00é😀""#;
        let s = parse(text).unwrap();
        assert_eq!(s.as_str(), Some("\"\\/\u{8}\u{c}\n\r\té\u{0}😀é😀"));
        assert_eq!(reason(r#""\x""#), Reason::BadEscape);
        assert_eq!(reason(r#""\u12g4""#), Reason::BadEscape);
        assert_eq!(reason(r#""\u12""#), Reason::BadEscape);
        assert_eq!(reason(r#""\ud83d""#), Reason::LoneSurrogate);
        assert_eq!(reason(r#""\ud83dA""#), Reason::LoneSurrogate);
        assert_eq!(reason(r#""\ude00""#), Reason::LoneSurrogate);
        assert_eq!(reason("\"a\tb\""), Reason::ControlCharacter);
        assert_eq!(reason("\"\\"), Reason::BadEscape);
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let s: String = (0u32..0x80)
            .filter_map(char::from_u32)
            .chain("é€😀\u{7f}\u{2028}".chars())
            .collect();
        let text = format!("\"{}\"", escape(&s));
        assert!(!text.bytes().any(|b| b < 0x20), "{text:?}");
        assert_eq!(parse(&text).unwrap().as_str(), Some(s.as_str()));
    }

    #[test]
    fn integers_are_exact_and_only_digits() {
        let n = |t: &str| parse(t).unwrap();
        assert_eq!(n("18446744073709551615").as_u64(), Some(u64::MAX));
        assert_eq!(n("9007199254740993").as_u64(), Some((1 << 53) + 1));
        for t in ["18446744073709551616", "-1", "-0", "1.0", "1e3", "2.5"] {
            assert_eq!(n(t).as_u64(), None, "{t}");
        }
        assert_eq!(n("1e999").as_f64(), Some(f64::INFINITY));
        assert_eq!(n("\"7\"").as_u64(), None);
    }

    #[test]
    fn nesting_stops_at_the_depth_limit() {
        let nest = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((err.reason, err.offset), (Reason::TooDeep, MAX_DEPTH));
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert_eq!(reason(&objects), Reason::TooDeep);
    }
}
