//! Minimal JSON utilities: string escaping for the writers and a
//! recursive-descent parser.
//!
//! The workspace is hermetic (no serde), so the exporters assemble JSON
//! by hand. That makes "does the output actually parse" a real risk, so
//! this module also ships a small RFC 8259 parser: unit tests and the
//! `protocol_trace` CI smoke step use it to check the exporters' output
//! without external tooling, and the bench-diff gate reads committed
//! baselines from its value tree.

use std::fmt;

/// Appends `value` to `out` as a JSON string literal (with quotes),
/// escaping per RFC 8259.
pub fn write_string(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so an unbounded depth would let a hostile document
/// (a bench file, a daemon reply) overflow the stack; nothing the
/// workspace writes nests more than a few levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, kept as its source text so that callers choose the
    /// type: a u64 counter parses exactly, with no trip through `f64`.
    Number(String),
    /// A string, with escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members in document order. Duplicate keys are kept:
    /// RFC 8259 leaves them to the reader, and schema checks reject them.
    Object(Vec<(String, Value)>),
}

/// Parses `input` as a single well-formed JSON value (RFC 8259) and
/// returns its value tree, or the first error encountered.
///
/// # Errors
///
/// [`JsonError`] with the byte offset of the failure, including nesting
/// deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.input[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.input[run..self.pos]);
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.err("bad escape")),
                    };
                    out.push(c);
                    self.pos += 1;
                    run = self.pos;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character"));
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Decodes `uXXXX` (the position is on the `u`; it is left on the
    /// last hex digit), joining a surrogate pair written as two escapes.
    /// A lone surrogate decodes to U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) && self.bytes[self.pos + 1..].starts_with(b"\\u") {
            let save = self.pos;
            self.pos += 2;
            let lo = self.hex4()?;
            if (0xDC00..0xE000).contains(&lo) {
                let joined = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return Ok(char::from_u32(joined).unwrap_or('\u{fffd}'));
            }
            self.pos = save;
        }
        Ok(char::from_u32(hi).unwrap_or('\u{fffd}'))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            self.pos += 1;
            match self.peek().and_then(|c| (c as char).to_digit(16)) {
                Some(d) => v = v * 16 + d,
                None => return Err(self.err("bad \\u escape")),
            }
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected fraction digit"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected exponent digit"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        Ok(Value::Number(self.input[start..self.pos].to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "null",
            "true",
            "-12.5e3",
            "\"hi\\nthere\"",
            "[]",
            "{}",
            "[1, 2, {\"a\": [false, null]}]",
            "{\"k\": {\"nested\": [1.0, \"s\"]}}",
        ] {
            assert!(parse(doc).is_ok(), "rejected valid: {doc}");
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{'a': 1}",
            "01",
            "1 2",
            "\"unterminated",
            "{\"a\" 1}",
            "nul",
        ] {
            assert!(parse(doc).is_err(), "accepted invalid: {doc}");
        }
    }

    #[test]
    fn write_string_round_trips_through_parse() {
        let mut s = String::new();
        write_string(&mut s, "a\"b\\c\nd\te\u{1}");
        assert!(parse(&s).is_ok(), "escaped string invalid: {s}");
    }

    #[test]
    fn builds_the_value_tree() {
        let v = parse(
            r#"{"a": [18446744073709551615, -1.5e3, true, null], "b\u00e9\ud83d\ude00": "x\n"}"#,
        )
        .unwrap();
        assert_eq!(
            v,
            Value::Object(vec![
                (
                    "a".into(),
                    Value::Array(vec![
                        Value::Number("18446744073709551615".into()),
                        Value::Number("-1.5e3".into()),
                        Value::Bool(true),
                        Value::Null,
                    ])
                ),
                ("b\u{e9}\u{1f600}".into(), Value::String("x\n".into())),
            ])
        );
        // Duplicate keys are kept for the schema reader to judge.
        assert_eq!(
            parse(r#"{"k": 1, "k": 2}"#).unwrap(),
            Value::Object(vec![
                ("k".into(), Value::Number("1".into())),
                ("k".into(), Value::Number("2".into())),
            ])
        );
        assert_eq!(
            parse(r#""\ud800""#).unwrap(),
            Value::String("\u{fffd}".into())
        );
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let doc = format!("{}{}", open.repeat(1_000_000), close.repeat(1_000_000));
            let e = parse(&doc).unwrap_err();
            assert_eq!(e.offset, MAX_DEPTH * open.len());
            assert!(e.message.contains("nesting"), "{e}");
        }
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn error_reports_offset() {
        let e = parse("[1, }").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"));
    }
}
