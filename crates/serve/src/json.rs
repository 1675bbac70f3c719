//! A hand-rolled JSON value, writer and reader (std-only, shims policy).
//!
//! The serving layer's wire format and cache keys are built on one property:
//! **canonical bytes**. The writer emits a deterministic, compact encoding
//! (no whitespace, object keys in insertion order, floats in Rust's shortest
//! round-trip form), and the reader preserves object key order — so
//! `write(parse(write(v))) == write(v)` byte-for-byte. The codec's
//! round-trip proptest pins that equation; the end-to-end plan bit-identity
//! contract stands on it.
//!
//! Numbers are split into [`Json::Int`] (i64, emitted as the bare integer)
//! and [`Json::Float`] (f64, emitted via `{:?}` — Rust's shortest form that
//! parses back to the identical bits, always containing a `.` or exponent so
//! the reader can tell the two apart). Non-finite floats have no JSON
//! encoding and are rejected at write time.

use std::fmt;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer literal (no `.`/exponent in the source text).
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; key order is preserved (and therefore canonical).
    Obj(Vec<(String, Json)>),
}

/// Error raised while writing (non-finite float) or parsing JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description with byte offset where applicable.
    pub message: String,
}

impl JsonError {
    fn new(message: impl Into<String>) -> Self {
        JsonError { message: message.into() }
    }

    fn at(offset: usize, message: impl fmt::Display) -> Self {
        JsonError { message: format!("byte {offset}: {message}") }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

/// Convenience result alias for codec operations.
pub type JsonResult<T> = std::result::Result<T, JsonError>;

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an f64 (integers widen losslessly for |v| ≤ 2⁵³).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as an i64, if it is an integer literal.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Writes the canonical compact encoding.
    ///
    /// # Errors
    /// Returns an error for non-finite floats (no JSON encoding exists).
    pub fn write(&self) -> JsonResult<String> {
        let mut out = String::new();
        self.write_into(&mut out)?;
        Ok(out)
    }

    fn write_into(&self, out: &mut String) -> JsonResult<()> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => {
                use fmt::Write as _;
                write!(out, "{v}").expect("write to String");
            }
            Json::Float(v) => {
                if !v.is_finite() {
                    return Err(JsonError::new(format!("non-finite float {v} has no encoding")));
                }
                // `{:?}` is Rust's shortest exact round-trip form and always
                // carries a `.` or exponent ("5.0", "-0.0", "1e300"), so the
                // reader re-classifies it as a float.
                use fmt::Write as _;
                write!(out, "{v:?}").expect("write to String");
            }
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out)?;
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write_into(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }

    /// Parses one JSON document, rejecting trailing garbage.
    ///
    /// # Errors
    /// Returns the first syntax error with its byte offset.
    pub fn parse(text: &str) -> JsonResult<Json> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at(p.pos, "trailing characters after document"));
        }
        Ok(value)
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
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                write!(out, "\\u{:04x}", c as u32).expect("write to String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting bound: a line-delimited network protocol has no business carrying
/// deeper documents, and the recursive parser must not be a stack-overflow
/// vector for hostile input.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, want: u8) -> JsonResult<()> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(self.pos, format!("expected `{}`", want as char)))
        }
    }

    fn value(&mut self) -> JsonResult<Json> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(JsonError::at(self.pos, "nesting deeper than 64 levels"));
        }
        let value = match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(JsonError::at(self.pos, format!("unexpected `{}`", other as char))),
            None => Err(JsonError::at(self.pos, "unexpected end of input")),
        }?;
        self.depth -= 1;
        Ok(value)
    }

    fn literal(&mut self, text: &str, value: Json) -> JsonResult<Json> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(JsonError::at(self.pos, format!("expected `{text}`")))
        }
    }

    fn object(&mut self) -> JsonResult<Json> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _): &(String, Json)| *k == key) {
                return Err(JsonError::at(self.pos, format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(JsonError::at(self.pos, "expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> JsonResult<Json> {
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
                _ => return Err(JsonError::at(self.pos, "expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> JsonResult<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(JsonError::at(start, "unterminated string")),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4(start)?;
                            // Surrogate pairs are not needed by any schema;
                            // reject rather than mis-decode.
                            let c = char::from_u32(code).ok_or_else(|| {
                                JsonError::at(start, "unpaired surrogate in \\u escape")
                            })?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(JsonError::at(start, "invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(JsonError::at(start, "raw control character in string"));
                }
                Some(_) => {
                    // Copy the whole run of plain bytes at once. It ends at
                    // the next `"`, `\` or control byte — all ASCII, so the
                    // run ends on a char boundary of the `&str` input.
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .map_or(self.bytes.len(), |len| start + len);
                    out.push_str(&self.text[start..run]);
                    self.pos = run;
                }
            }
        }
    }

    fn hex4(&mut self, start: usize) -> JsonResult<u32> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| JsonError::at(start, "truncated \\u escape"))?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| JsonError::at(start, "bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> JsonResult<Json> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if is_float {
            let v: f64 =
                text.parse().map_err(|_| JsonError::at(start, format!("bad number `{text}`")))?;
            if !v.is_finite() {
                return Err(JsonError::at(start, format!("number `{text}` overflows f64")));
            }
            Ok(Json::Float(v))
        } else {
            let v: i64 =
                text.parse().map_err(|_| JsonError::at(start, format!("bad number `{text}`")))?;
            Ok(Json::Int(v))
        }
    }
}

/// FNV-1a 64-bit hash of a byte string: the canonical request-key hash.
/// Deterministic across processes and platforms (unlike `DefaultHasher`,
/// which is seeded per process), so clients and servers agree on keys.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("42", Json::Int(42)),
            ("-7", Json::Int(-7)),
            ("1.5", Json::Float(1.5)),
            ("-0.0", Json::Float(-0.0)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            let parsed = Json::parse(text).unwrap();
            assert_eq!(parsed, value);
            assert_eq!(parsed.write().unwrap(), text);
        }
        // -0.0 keeps its sign bit through the round trip.
        let neg_zero = Json::parse("-0.0").unwrap().as_f64().unwrap();
        assert_eq!(neg_zero.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn float_bits_survive_write_parse() {
        for v in [0.1, 1.0 / 3.0, 6.25e-3, f64::MAX, f64::MIN_POSITIVE, 123456.789e12] {
            let text = Json::Float(v).write().unwrap();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
    }

    #[test]
    fn object_key_order_is_preserved() {
        let text = r#"{"b":1,"a":[2,{"z":null}]}"#;
        let parsed = Json::parse(text).unwrap();
        assert_eq!(parsed.write().unwrap(), text);
    }

    #[test]
    fn whitespace_normalises_to_canonical() {
        let parsed = Json::parse(" { \"a\" : [ 1 , 2.5 ] } ").unwrap();
        assert_eq!(parsed.write().unwrap(), r#"{"a":[1,2.5]}"#);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line\nquote\"back\\slash\ttab\u{1}end ünï";
        let text = Json::Str(s.to_string()).write().unwrap();
        assert_eq!(Json::parse(&text).unwrap(), Json::Str(s.to_string()));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1.2.3",
            "{\"a\":1}x",
            "{\"a\":1,\"a\":2}",
            "\"bad \\q escape\"",
            "[1e999]",
            "nul",
            "--4",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn multibyte_runs_parse_verbatim() {
        for s in ["ünïcödé", "日本語のテキスト", "crab 🦀🦀 crab", "a ü 日 🦀 z", "🦀", "ß"]
        {
            let text = format!("{{\"k{s}\":[\"{s}\",\"x{s}\",\"{s}y\"]}}");
            let parsed = Json::parse(&text).unwrap();
            assert_eq!(
                parsed.get(&format!("k{s}")).unwrap().as_arr().unwrap()[0].as_str(),
                Some(s)
            );
            assert_eq!(parsed.write().unwrap(), text);
        }
    }

    #[test]
    fn escapes_directly_before_and_after_multibyte_chars() {
        for (text, want) in [
            (r#""ü\n""#, "ü\n"),
            (r#""\nü""#, "\nü"),
            (r#""日\"本""#, "日\"本"),
            (r#""🦀\\🦀""#, "🦀\\🦀"),
            (r#""\u00fc\u00fcü""#, "üüü"),
            (r#""é\u0041é""#, "éAé"),
            (r#""\t🦀\t""#, "\t🦀\t"),
            (r#""\/ß\/""#, "/ß/"),
        ] {
            assert_eq!(Json::parse(text).unwrap(), Json::Str(want.into()), "{text}");
            let written = Json::Str(want.into()).write().unwrap();
            assert_eq!(Json::parse(&written).unwrap(), Json::Str(want.into()));
        }
    }

    #[test]
    fn string_error_offsets_are_pinned() {
        for (text, message) in [
            ("\"a\u{1}b\"", "byte 2: raw control character in string"),
            ("\"\u{0}\"", "byte 1: raw control character in string"),
            ("\"ü\nx\"", "byte 3: raw control character in string"),
            ("{\"k\":\"🦀\t\"}", "byte 10: raw control character in string"),
            ("[\"ok\",\"日\u{1f}\"]", "byte 10: raw control character in string"),
            ("\"ü\\q\"", "byte 3: invalid escape"),
            ("\"ü\\u12\"", "byte 3: truncated \\u escape"),
            ("\"ü\\u12g4\"", "byte 3: bad \\u escape"),
            ("\"abc", "byte 4: unterminated string"),
            ("\"日", "byte 4: unterminated string"),
        ] {
            assert_eq!(Json::parse(text).unwrap_err().message, message, "{text:?}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 256 KiB in one string. Decoding a string used to re-validate the
        // rest of the document once per character: seconds of work here.
        let unit = "plan ü 日 🦀 \\n ";
        let body = unit.repeat((256 * 1024usize).div_ceil(unit.len()));
        let want = body.replace("\\n", "\n");
        let text = format!("{{\"payload\":\"{body}\"}}");
        assert!(text.len() >= 256 * 1024);
        let started = std::time::Instant::now();
        let parsed = Json::parse(&text).unwrap();
        let took = started.elapsed();
        assert_eq!(parsed.get("payload").and_then(Json::as_str), Some(want.as_str()));
        assert!(took < std::time::Duration::from_secs(1), "256 KiB string took {took:?}");
    }

    #[test]
    fn depth_bound_rejects_hostile_nesting() {
        let deep = "[".repeat(80) + &"]".repeat(80);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn non_finite_floats_cannot_be_written() {
        assert!(Json::Float(f64::NAN).write().is_err());
        assert!(Json::Float(f64::INFINITY).write().is_err());
    }

    #[test]
    fn fnv_is_stable() {
        // Reference vectors for the canonical 64-bit FNV-1a parameters.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"request-a"), fnv1a64(b"request-b"));
    }
}
