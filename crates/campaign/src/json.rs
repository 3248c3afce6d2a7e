//! A deliberately small JSON reader/writer.
//!
//! Artifacts and checkpoints must be self-contained text files, but the
//! build environment is offline so no serialization crate is available.
//! This module implements exactly the JSON subset the campaign emits:
//! objects, arrays, strings, booleans, null, and integers (every number in
//! an artifact — seeds, budgets, statement ids, counters — is an integer;
//! floats are never written, so the parser rejects them and the writer has
//! no float case to get wrong).
//!
//! Writing is canonical: object keys keep insertion order, no whitespace
//! choices to diverge on, so "byte-identical reports after resume" is a
//! meaningful test at the file level too.

use std::fmt::Write as _;

/// A parsed JSON value (integer-only numbers).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Stored as `i128` so every `u64` and `i64` round-trips.
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (not sorted: canonical writing).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object constructor from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(key, value)| (key.to_owned(), value))
                .collect(),
        )
    }

    /// `u64` → number.
    pub fn u64(value: u64) -> Json {
        Json::Int(value as i128)
    }

    /// `usize` → number.
    pub fn usize(value: usize) -> Json {
        Json::Int(value as i128)
    }

    /// String → value.
    pub fn str(value: &str) -> Json {
        Json::Str(value.to_owned())
    }

    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a number in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(value) => u64::try_from(*value).ok(),
            _ => None,
        }
    }

    /// The value as `usize`, if it is a number in range.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Int(value) => usize::try_from(*value).ok(),
            _ => None,
        }
    }

    /// The value as `u32`, if it is a number in range.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Json::Int(value) => u32::try_from(*value).ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(value) => Some(value.as_str()),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(value) => Some(*value),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Serializes on one line with no whitespace at all (no trailing
    /// newline either): the form of a line-framed journal record.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Writes the value; `indent` is the current depth when pretty-printing,
    /// `None` for the single-line form.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|depth| depth + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(value) => {
                let _ = write!(out, "{value}");
            }
            Json::Str(value) => write_string(out, value),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    item.write(out, inner);
                }
                newline(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (index, (key, value)) in fields.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    write_string(out, key);
                    out.push(':');
                    if inner.is_some() {
                        out.push(' ');
                    }
                    value.write(out, inner);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }
}

/// Starts a pretty-printed line at `indent`; nothing in the one-line form.
fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

fn write_string(out: &mut String, value: &str) {
    out.push('"');
    for ch in value.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            ch if (ch as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", ch as u32);
            }
            ch => out.push(ch),
        }
    }
    out.push('"');
}

/// A parse failure, with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset at which it went wrong.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. The campaign's own
/// documents nest fewer than 10 levels; the limit only exists so that a
/// hostile or corrupt input (a megabyte of `[`) is a [`ParseError`]
/// instead of a stack overflow in the recursive-descent parser.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// content is an error, and so is nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing content"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') | Some(b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if self.peek() == Some(b'[') {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(self.error("non-integer numbers are not used by this format"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|_| self.error("invalid number"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(escape) = self.peek() else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogates never appear in our own output
                            // (write_string only \u-escapes control bytes);
                            // map a foreign one to U+FFFD rather than fail.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode from the byte position: strings are UTF-8.
                    let rest = std::str::from_utf8(&self.bytes[self.pos - 1..])
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    let ch = rest.chars().next().expect("non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8() - 1;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.error("truncated \\u escape"));
            };
            let digit = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.error("invalid \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
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
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
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
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let value = Json::obj(vec![
            ("name", Json::str("fig\"ure\n1")),
            ("seed", Json::u64(u64::MAX)),
            ("negative", Json::Int(-42)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::u64(1), Json::str("two"), Json::Arr(vec![])]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        let text = value.to_text();
        assert_eq!(parse(&text).unwrap(), value);
        // Canonical: re-serializing the parse is byte-identical.
        assert_eq!(parse(&text).unwrap().to_text(), text);
    }

    #[test]
    fn escapes_control_characters() {
        let value = Json::str("a\u{1}b");
        let text = value.to_text();
        assert!(text.contains("\\u0001"));
        assert_eq!(parse(&text).unwrap(), value);
    }

    #[test]
    fn rejects_floats_and_garbage() {
        assert!(parse("1.5").is_err());
        assert!(parse("1e3").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} tail").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn one_line_form_has_no_whitespace_and_parses_back() {
        let value = Json::obj(vec![
            ("a", Json::Arr(vec![Json::u64(1), Json::str("x y\n")])),
            ("b", Json::Obj(vec![])),
            ("c", Json::Null),
        ]);
        let line = value.to_line();
        assert_eq!(line, "{\"a\":[1,\"x y\\n\"],\"b\":{},\"c\":null}");
        assert_eq!(parse(&line).unwrap(), value);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let hostile = "[".repeat(1_000_000);
        let error = parse(&hostile).unwrap_err();
        assert!(error.message.contains("nesting"), "{error}");
        assert_eq!(error.offset, MAX_DEPTH);
        let objects = "{\"k\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).unwrap_err().message.contains("nesting"));
        // Exactly at the limit still parses.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
    }

    #[test]
    fn parses_unicode_text() {
        let value = Json::str("λ → ✓");
        assert_eq!(parse(&value.to_text()).unwrap(), value);
        assert_eq!(parse("\"\\u00e9\"").unwrap(), Json::str("é"));
    }
}
