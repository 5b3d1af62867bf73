//! The workspace's one JSON *decoder*, producing the vendored
//! [`serde::Value`] tree.
//!
//! The offline stand-in `serde`/`serde_json` crates are serialize-only
//! (see `vendor/README.md`), so every reader of JSON — the server's wire
//! protocol, `telemetry.jsonl` replay, `perf-diff` baselines, and the
//! schema tests — goes through this strict recursive-descent parser.
//! Its output is the same [`Value`] tree [`serde_json::to_string`]
//! consumes, making encode → decode a lossless round trip for
//! everything the workspace emits. Numbers parse to `UInt` when they
//! are non-negative integers that fit `u64`, to `Int` for other
//! integers, and to `Float` otherwise — mirroring what the serializer
//! produces for Rust's unsigned/signed/float primitives.
//!
//! Input is untrusted (a wire frame may come from any TCP peer), so
//! nesting is capped at [`MAX_DEPTH`]: deeper documents are rejected
//! with a [`JsonError`] instead of recursing until the stack overflows.

use serde::Value;

/// Deepest array/object nesting [`parse`] accepts (serde_json's default
/// recursion limit). Every document the workspace writes nests at most
/// a handful of levels deep.
pub const MAX_DEPTH: usize = 128;

/// A decode failure, with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where it went wrong.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error.
///
/// # Errors
///
/// [`JsonError`] on malformed input.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Field lookup on an [`Value::Object`]; `None` for absent fields or
/// non-objects (unknown-field tolerance falls out of only ever asking
/// for the fields we know).
#[must_use]
pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// String field accessor.
#[must_use]
pub fn get_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match get(v, key)? {
        Value::String(s) => Some(s.as_str()),
        _ => None,
    }
}

/// Unsigned-integer field accessor (accepts `UInt` and non-negative
/// `Int`).
#[must_use]
pub fn get_u64(v: &Value, key: &str) -> Option<u64> {
    match get(v, key)? {
        Value::UInt(n) => Some(*n),
        Value::Int(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

/// Signed-integer field accessor (accepts `Int` and `UInt` up to
/// `i64::MAX`).
#[must_use]
pub fn get_i64(v: &Value, key: &str) -> Option<i64> {
    match get(v, key)? {
        Value::Int(n) => Some(*n),
        Value::UInt(n) => i64::try_from(*n).ok(),
        _ => None,
    }
}

/// Array field accessor.
#[must_use]
pub fn get_array<'a>(v: &'a Value, key: &str) -> Option<&'a [Value]> {
    match get(v, key)? {
        Value::Array(items) => Some(items.as_slice()),
        _ => None,
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected character '{}'", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Runs `body` one nesting level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = body(self)?;
        self.depth -= 1;
        Ok(v)
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
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
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(c).ok_or_else(|| self.err("bad code point"))?
                            } else {
                                char::from_u32(code).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(ch);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run up to the next delimiter in
                    // one scan. `"` and `\` are ASCII, so they can never
                    // appear mid-sequence in UTF-8 and the run is a
                    // valid &str slice (input is a &str by construction)
                    // — validating per scalar instead would make large
                    // strings (hex payloads) quadratic to parse.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(run);
                }
            }
        }
    }

    /// Reads the 4 hex digits of a `\uXXXX` escape (the caller has
    /// already consumed the `u`).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(self.err("invalid number"));
        }
        if !is_float {
            if !text.starts_with('-') {
                if let Ok(n) = text.parse::<u64>() {
                    return Ok(Value::UInt(n));
                }
            } else if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: Value) {
        let text = serde_json::to_string(&v).unwrap();
        assert_eq!(parse(&text).unwrap(), v, "round trip of {text}");
        let pretty = serde_json::to_string_pretty(&v).unwrap();
        assert_eq!(parse(&pretty).unwrap(), v, "pretty round trip");
    }

    #[test]
    fn encode_decode_round_trips_the_full_value_space() {
        round_trip(Value::Null);
        round_trip(Value::Bool(true));
        round_trip(Value::UInt(u64::MAX));
        round_trip(Value::Int(-42));
        round_trip(Value::Float(1.5));
        round_trip(Value::String("hello \"world\"\n\t\\ μ∀".to_owned()));
        round_trip(Value::Array(vec![
            Value::UInt(1),
            Value::Null,
            Value::Array(vec![]),
        ]));
        round_trip(Value::Object(vec![
            ("a".to_owned(), Value::UInt(7)),
            (
                "nested".to_owned(),
                Value::Object(vec![("k".to_owned(), Value::String(String::new()))]),
            ),
            ("list".to_owned(), Value::Array(vec![Value::Bool(false)])),
        ]));
    }

    #[test]
    fn malformed_documents_error_instead_of_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\":}",
            "nul",
            "01x",
            "\"abc",
            "{\"a\" 1}",
            "[1] extra",
            "\"\\q\"",
            "-",
            "\"\\u12\"",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn accessors_tolerate_unknown_and_missing_fields() {
        let v = parse(r#"{"type":"hello","protocol":1,"future_field":{"x":[1,2]}}"#).unwrap();
        assert_eq!(get_str(&v, "type"), Some("hello"));
        assert_eq!(get_u64(&v, "protocol"), Some(1));
        assert!(get(&v, "absent").is_none());
        assert!(get_str(&v, "protocol").is_none(), "type-mismatch is None");
    }

    fn nest(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn nesting_past_max_depth_is_a_typed_error() {
        assert!(parse(&nest(MAX_DEPTH - 1)).is_ok());
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "rejected at the first '[' too deep");
        assert!(err.message.contains("nesting"), "{err}");
        let objects = format!(
            "{}0{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).unwrap_err().message.contains("nesting"));
        // An unclosed hostile run stops at the cap, long before the end.
        assert_eq!(parse(&"[".repeat(100_000)).unwrap_err().offset, MAX_DEPTH);
    }
}
