//! A minimal, dependency-free JSON representation shared by the workspace.
//!
//! The build environment of this reproduction is fully offline, so the usual
//! `serde`/`serde_json` pair is unavailable and the workspace depends on no
//! outside crate. This module implements the small subset the workspace
//! needs: a [`Json`] value tree, a writer, and a strict recursive-descent
//! parser. Floats are written with Rust's shortest round-trip `Display`, so a
//! serialize → parse cycle reproduces bit-identical values.
//!
//! It lives in `themis-core` (rather than the facade) so that core-level
//! artifacts — most importantly the serialized [`crate::ScheduleCache`] used
//! for cross-process campaign sharding — can read and write the same format
//! the facade uses for campaign reports. The facade re-exports it as
//! `themis::api::json`.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
///
/// The parser recurses once per level, so without a cap one line of nested
/// `[` could overflow the stack and abort the process, which no
/// `catch_unwind` can stop. Past the cap, parsing fails with a [`JsonError`].
pub const MAX_DEPTH: usize = 128;

/// A JSON serialization or parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the problem.
    pub reason: String,
}

impl JsonError {
    /// Creates an error from a reason string.
    pub fn new(reason: impl Into<String>) -> Self {
        JsonError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.reason)
    }
}

impl Error for JsonError {}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (JSON has no NaN/infinity).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A required object field, as a [`JsonError`] on absence.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))
    }

    /// The value as a finite number.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(type_error("number", other)),
        }
    }

    /// The value as a non-negative integer.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(JsonError::new(format!("expected an integer, got {n}")));
        }
        Ok(n as usize)
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(type_error("bool", other)),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(type_error("string", other)),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(type_error("array", other)),
        }
    }

    /// Renders the value as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                // JSON has no NaN/inf; campaign data never produces them, but
                // degrade to null rather than emit unparseable text.
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text into a value tree.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input, trailing garbage, or
    /// arrays and objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err_at("trailing characters after JSON value", pos));
        }
        Ok(value)
    }
}

fn type_error(expected: &str, got: &Json) -> JsonError {
    let kind = match got {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    };
    JsonError::new(format!("expected a {expected}, got {kind}"))
}

fn write_escaped(out: &mut String, text: &str) {
    out.push('"');
    for ch in text.chars() {
        match ch {
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

fn err_at(message: &str, pos: usize) -> JsonError {
    JsonError::new(format!("{message} (byte {pos})"))
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(err_at(&format!("expected `{}`", byte as char), *pos))
    }
}

/// Parses one value inside `depth` already-open arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(err_at(
            &format!("arrays and objects nested deeper than {MAX_DEPTH} levels"),
            *pos,
        )),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(_) => Err(err_at("unexpected character", *pos)),
        None => Err(err_at("unexpected end of input", *pos)),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    keyword: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(keyword.as_bytes()) {
        *pos += keyword.len();
        Ok(value)
    } else {
        Err(err_at(&format!("expected `{keyword}`"), *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err_at("invalid number", start))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err_at(&format!("invalid number `{text}`"), start))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err_at("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let ch = match code {
                            // High surrogate: external serializers (e.g.
                            // ensure-ascii JSON writers) encode non-BMP
                            // characters as a \uD8xx\uDCxx pair.
                            0xD800..=0xDBFF => {
                                if bytes.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                                    return Err(err_at("unpaired high surrogate", *pos));
                                }
                                let low = parse_hex4(bytes, *pos + 3)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(err_at("invalid low surrogate", *pos));
                                }
                                *pos += 6;
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .expect("combined surrogate pair is a valid scalar")
                            }
                            0xDC00..=0xDFFF => {
                                return Err(err_at("unpaired low surrogate", *pos));
                            }
                            scalar => char::from_u32(scalar)
                                .ok_or_else(|| err_at("non-scalar \\u escape", *pos))?,
                        };
                        out.push(ch);
                    }
                    _ => return Err(err_at("invalid escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so this is
                // always a char boundary walk).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| err_at("invalid UTF-8", *pos))?;
                let ch = rest.chars().next().expect("non-empty by construction");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, JsonError> {
    let hex = bytes
        .get(at..at + 4)
        .ok_or_else(|| err_at("truncated \\u escape", at))?;
    let hex = std::str::from_utf8(hex).map_err(|_| err_at("invalid \\u escape", at))?;
    u32::from_str_radix(hex, 16).map_err(|_| err_at("invalid \\u escape", at))
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err_at("expected `,` or `]`", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(err_at("expected `,` or `}`", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_through_text() {
        let value = Json::obj([
            ("name", Json::Str("Themis+SCF \"quoted\"\n".to_string())),
            ("total", Json::Num(123456.789012345)),
            ("count", Json::Num(64.0)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "pairs",
                Json::Arr(vec![
                    Json::Arr(vec![Json::Num(0.0), Json::Num(0.1 + 0.2)]),
                    Json::Arr(vec![]),
                ]),
            ),
        ]);
        let text = value.render();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, value);
        assert!(value.field("flag").unwrap().as_bool().unwrap());
        assert!(value.field("total").unwrap().as_bool().is_err());
    }

    #[test]
    fn floats_round_trip_exactly() {
        for n in [
            0.0,
            -1.5,
            1.0 / 3.0,
            6.02e23,
            f64::MIN_POSITIVE,
            123_456_789.123_456_78,
        ] {
            let text = Json::Num(n).render();
            match Json::parse(&text).unwrap() {
                Json::Num(back) => assert_eq!(back.to_bits(), n.to_bits(), "{n}"),
                other => panic!("parsed {other:?}"),
            }
        }
    }

    #[test]
    fn surrogate_pairs_parse_to_non_bmp_chars() {
        // External ensure-ascii serializers encode non-BMP chars as pairs.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1F600}".to_string())
        );
        // The writer emits raw UTF-8 for the same character; both forms agree.
        let raw = Json::Str("\u{1F600}".to_string()).render();
        assert_eq!(
            Json::parse(&raw).unwrap(),
            Json::Str("\u{1F600}".to_string())
        );
        // Unpaired or mismatched surrogates are rejected.
        for bad in [
            "\"\\ud83d\"",
            "\"\\ude00\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ud83dx\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "01x",
            "\"unterminated",
            "1 2",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.reason.contains("nested deeper"), "{err}");
        // Objects count toward the same cap, mixed with arrays.
        let mixed = "{\"a\":[".repeat(MAX_DEPTH / 2) + &"]}".repeat(MAX_DEPTH / 2);
        assert!(Json::parse(&mixed).is_ok());
        let deeper = format!("[{mixed}]");
        assert!(Json::parse(&deeper).is_err());
        // Far past the cap, parsing fails cleanly instead of overflowing the
        // stack.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn whitespace_and_escapes_are_tolerated() {
        let parsed = Json::parse(" { \"a\" : [ 1 , \"\\u0041\\n\" ] } ").unwrap();
        assert_eq!(parsed.field("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            parsed.field("a").unwrap().as_arr().unwrap()[1]
                .as_str()
                .unwrap(),
            "A\n"
        );
    }

    #[test]
    fn accessors_report_type_mismatches() {
        let value = Json::parse("{\"n\": 1.5, \"s\": \"x\"}").unwrap();
        assert!(value.field("n").unwrap().as_usize().is_err());
        assert!(value.field("s").unwrap().as_f64().is_err());
        assert!(value.field("missing").is_err());
        assert!(value.get("s").unwrap().as_str().is_ok());
        assert!(!JsonError::new("boom").to_string().is_empty());
    }
}
