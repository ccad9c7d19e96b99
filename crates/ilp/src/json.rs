//! A minimal JSON value tree with an exact-integer parser and writer.
//!
//! The solve-state snapshots ([`crate::snapshot`]) persist floating-point
//! search state (bounds, objectives, eta files) across processes and must
//! round-trip **bit-exactly** — a bound that moves by one ulp on reload
//! would change pruning decisions and break the "resume continues the same
//! tree" contract. Snapshots therefore store every `f64` as its
//! [`f64::to_bits`] integer, which in turn requires a JSON layer that keeps
//! `u64` integers exact instead of funnelling all numbers through `f64`
//! (which silently loses the low bits above 2⁵³). The bench reports keep
//! their human-readable hand-rolled writer; this module is the machine
//! round-trip path.
//!
//! The dialect is deliberately small: UTF-8 input, no duplicate-key
//! detection, objects preserve insertion order (deterministic output for
//! golden files), and non-negative integers without a fraction or exponent
//! parse as exact [`Value::Int`] while everything else numeric parses as
//! [`Value::Float`].

use std::fmt;

/// Maximum nesting depth accepted by the parser (snapshots are ~4 deep;
/// the cap just keeps crafted inputs from overflowing the stack).
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer without fraction or exponent, kept exact as
    /// a `u64` (never routed through `f64`).
    Int(u64),
    /// Any other finite number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion-ordered `(key, value)` pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Serialises the value as compact JSON (no whitespace).
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => {
                use fmt::Write;
                let _ = write!(out, "{n}");
            }
            Value::Float(f) => {
                use fmt::Write;
                // `{:?}` prints the shortest string that round-trips the
                // exact f64; NaN/infinite floats are not representable in
                // JSON and never appear in snapshots (bits are used there).
                let _ = write!(out, "{f:?}");
            }
            Value::Str(s) => write_escaped(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup; `None` when `self` is not an object or the key
    /// is absent.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The exact integer of a [`Value::Int`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric view: exact for [`Value::Int`] within `f64` range, direct
    /// for [`Value::Float`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean of a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string slice of a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items of a [`Value::Array`].
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Escapes and quotes `s` into `out`.
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A malformed JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the first offending character.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain UTF-8 bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                if b < 0x20 {
                    return Err(self.error("unescaped control character in string"));
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The document is a &str, so the byte range is valid UTF-8.
                out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            }
            match self.peek() {
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let code = self.unicode_escape()?;
                            out.push(code);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (surrogate pairs supported).
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        self.pos += 1; // consume the `u`
        let first = self.hex4()?;
        if (0xd800..0xdc00).contains(&first) {
            // High surrogate: a `\uXXXX` low surrogate must follow.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let second = self.hex4()?;
                if (0xdc00..0xe000).contains(&second) {
                    let code = 0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00);
                    return char::from_u32(code).ok_or_else(|| self.error("invalid code point"));
                }
            }
            return Err(self.error("unpaired surrogate"));
        }
        char::from_u32(first).ok_or_else(|| self.error("invalid code point"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b) if b.is_ascii_hexdigit() => (b as char).to_digit(16).unwrap(),
                _ => return Err(self.error("expected 4 hex digits")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
            return Err(self.error("expected a digit"));
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut exact = !negative;
        if self.peek() == Some(b'.') {
            exact = false;
            self.pos += 1;
            if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(self.error("expected a digit after `.`"));
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            exact = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(self.error("expected a digit in the exponent"));
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if exact {
            // Non-negative integer: keep it exact. Overflow past u64 only
            // happens on hand-written input; fall back to f64 then.
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.error("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Value::Object(vec![
            ("name".into(), Value::Str("snap \"v1\"\n".into())),
            ("count".into(), Value::Int(42)),
            ("ratio".into(), Value::Float(-0.125)),
            ("flag".into(), Value::Bool(true)),
            ("nothing".into(), Value::Null),
            (
                "items".into(),
                Value::Array(vec![Value::Int(1), Value::Int(2), Value::Array(vec![])]),
            ),
        ]);
        let text = doc.write();
        assert_eq!(Value::parse(&text).unwrap(), doc);
    }

    #[test]
    fn u64_integers_survive_exactly() {
        // Bit patterns of f64s exceed 2^53: a float round-trip would corrupt
        // them. This is the property the snapshots depend on.
        for bits in [
            u64::MAX,
            f64::to_bits(0.1),
            f64::to_bits(-1e300),
            f64::to_bits(f64::NEG_INFINITY),
            (1u64 << 53) + 1,
        ] {
            let text = Value::Int(bits).write();
            assert_eq!(Value::parse(&text).unwrap().as_u64(), Some(bits));
        }
    }

    #[test]
    fn floats_round_trip_via_shortest_repr() {
        for f in [0.1, -2.5e-8, 1234.5678, -0.0] {
            let text = Value::Float(f).write();
            match Value::parse(&text).unwrap() {
                Value::Float(g) => assert_eq!(g.to_bits(), f.to_bits()),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }

    #[test]
    fn negative_and_fractional_numbers_are_floats() {
        assert_eq!(Value::parse("-3").unwrap(), Value::Float(-3.0));
        assert_eq!(Value::parse("3.5").unwrap(), Value::Float(3.5));
        assert_eq!(Value::parse("1e2").unwrap(), Value::Float(100.0));
        assert_eq!(Value::parse("7").unwrap(), Value::Int(7));
    }

    #[test]
    fn parse_errors_carry_the_offset() {
        for (text, offset_at_least) in [
            ("", 0),
            ("{", 1),
            ("[1,]", 3),
            ("{\"a\":}", 5),
            ("\"unterminated", 13),
            ("nul", 0),
            ("1 2", 2),
            ("{\"a\" 1}", 5),
        ] {
            let err = Value::parse(text).unwrap_err();
            assert!(
                err.offset >= offset_at_least.min(text.len()),
                "{text:?} -> {err}"
            );
        }
    }

    #[test]
    fn strings_write_with_exact_escapes() {
        assert_eq!(
            Value::Str("a\"b\\c\nd".into()).write(),
            "\"a\\\"b\\\\c\\nd\""
        );
        assert_eq!(Value::Str("\u{1}".into()).write(), "\"\\u0001\"");
    }

    #[test]
    fn string_escapes_parse() {
        let v = Value::parse(r#""a\"b\\c\ndAé😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé😀"));
    }

    #[test]
    fn accessors() {
        let doc = Value::parse(r#"{"a": 1, "b": [true, null], "c": "x"}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Value::as_u64), Some(1));
        assert_eq!(doc.get("a").and_then(Value::as_f64), Some(1.0));
        let items = doc.get("b").and_then(Value::as_array).unwrap();
        assert_eq!(items[0].as_bool(), Some(true));
        assert!(items[1].is_null());
        assert_eq!(doc.get("c").and_then(Value::as_str), Some("x"));
        assert!(doc.get("missing").is_none());
    }
}
