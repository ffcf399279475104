//! A minimal JSON value model with a strict recursive-descent parser,
//! the one JSON reader of the workspace.
//!
//! Every document it reads is one line — a serve-protocol request or
//! response, a JSONL trace record ([`crate::schema`], [`crate::profile`]),
//! a perf-ledger entry — so the parser only has to handle a single
//! document with no framing concerns.  It is strict where a hand-written
//! writer could be sloppy — trailing garbage, unterminated strings, raw
//! control characters, bad escapes, lone surrogates, non-finite numbers,
//! duplicate keys and over-deep nesting are all hard errors — because a
//! rejected line is reported back instead of being guessed at.
//!
//! Rendering goes the other way through [`Value::render`], which emits
//! objects in insertion order; response builders always insert fields in
//! a fixed order, so equal responses are byte-equal (the same
//! deterministic-field-order convention as the trace export, whose
//! [`crate::trace::json_escape`] this module reuses).

use std::fmt;

use crate::trace::json_escape;

/// Maximum nesting depth the parser accepts; deeper documents are an
/// error (nothing the workspace writes nests deeper than a request
/// object holding an array of event objects, or a trace `hist` record
/// holding its bucket pairs).
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.  Numbers are kept as `f64` (the grammar's only
/// numeric type); integer accessors check representability.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// The `null` literal.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes already decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// Key/value pairs in document order (duplicates are a parse error).
    Obj(Vec<(String, Value)>),
}

/// A parse failure with a byte offset into the line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where the error was detected.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for ParseError {}

impl Value {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Renders the value as compact JSON (no whitespace, objects in
    /// insertion order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => out.push_str(&render_num(*x)),
            Value::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&json_escape(k));
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup (first match; the parser rejects duplicates).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a finite `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number that
    /// round-trips exactly (rejects 1.5, -1, 1e300, NaN).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= 2f64.powi(53) => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// [`Value::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|x| usize::try_from(x).ok())
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Renders an `f64` the shortest way that round-trips, with integral
/// values rendered without a fractional part (`3`, not `3.0`) — matching
/// how the protocol's integer fields are hand-formatted elsewhere.
fn render_num(x: f64) -> String {
    if !x.is_finite() {
        // JSON has no NaN/inf; protocol builders never produce them, but
        // render defensively rather than emitting an invalid document.
        return "null".to_string();
    }
    if x.fract() == 0.0 && x.abs() <= 2f64.powi(53) {
        format!("{}", x as i64)
    } else {
        let s = format!("{x}");
        debug_assert!(s.parse::<f64>() == Ok(x));
        s
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte 0x{c:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key \"{}\"", json_escape(&key))));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over a run of plain bytes; multi-byte UTF-8 is
            // passed through (the input is a &str, so it is valid).
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // Safe: we only stopped on ASCII boundaries.
                out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, ParseError> {
        let c = self.peek().ok_or_else(|| self.err("dangling escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: require the paired low surrogate.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')
                            .map_err(|_| self.err("high surrogate not followed by \\u"))?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))?
                    } else {
                        return Err(self.err("lone high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("lone low surrogate"));
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                }
            }
            other => return Err(self.err(format!("bad escape `\\{}`", other as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        let x: f64 = token
            .parse()
            .map_err(|_| self.err(format!("bad number `{token}`")))?;
        if !x.is_finite() {
            return Err(self.err(format!("number `{token}` overflows")));
        }
        Ok(Value::Num(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("-2.5e1").unwrap(), Value::Num(-25.0));
        assert_eq!(
            Value::parse("\"a\\n\\u0041\"").unwrap(),
            Value::Str("a\nA".into())
        );
        let v = Value::parse(r#"{"op":"churn","events":[{"kind":"leave","node":3}]}"#).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("churn"));
        let events = v.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events[0].get("node").unwrap().as_usize(), Some(3));
        assert_eq!(
            Value::parse(r#""héllo→""#).unwrap(),
            Value::Str("héllo→".into())
        );
        let v = Value::parse(r#"{"type":"hist","name":"a b","buckets":[[1,2],[3,4]]}"#).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("a b"));
        let buckets = v.get("buckets").unwrap().as_arr().unwrap();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[1].as_arr().unwrap()[1].as_u64(), Some(4));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,\"a\":2}",
            "tru",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800 lone\"",
            "1 2",
            "01e",
            "1e999",
            "{\"a\" 1}",
            "\u{1}",
            "{oops}",
            "[1,2",
            "{\"a\":+3}",
            "\"raw\ttab\"",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Nesting bomb: 64 levels of arrays.
        let deep = "[".repeat(64) + &"]".repeat(64);
        assert!(Value::parse(&deep).is_err());
    }

    #[test]
    fn render_is_deterministic_and_reparseable() {
        let v = Value::Obj(vec![
            ("ok".into(), Value::Bool(true)),
            ("n".into(), Value::Num(3.0)),
            ("xs".into(), Value::Arr(vec![Value::Num(0.5), Value::Null])),
            ("s".into(), Value::Str("q\"\\\n".into())),
        ]);
        let text = v.render();
        assert_eq!(text, r#"{"ok":true,"n":3,"xs":[0.5,null],"s":"q\"\\\n"}"#);
        assert_eq!(Value::parse(&text).unwrap(), v);
    }

    #[test]
    fn integer_accessors_check_representability() {
        assert_eq!(Value::Num(7.0).as_u64(), Some(7));
        assert_eq!(Value::Num(7.5).as_u64(), None);
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Num(1e300).as_u64(), None);
        assert_eq!(Value::Bool(true).as_u64(), None);
    }
}
