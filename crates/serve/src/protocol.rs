//! Wire protocol: request frames, response encoding, and a minimal JSON
//! reader.
//!
//! The request side is deliberately not JSON — a verb plus `key=value`
//! arguments parses with no recursion and no allocation surprises, which
//! keeps the torture surface (malformed frames, truncated reads) small.
//! The response side is one JSON object per request, hand-assembled the
//! same way `chordal-bench` encodes its experiment records. [`JsonValue`]
//! is the matching hand-rolled *reader*, used by the in-tree client, the
//! test suites and the load generator to assert on responses; the server
//! itself never parses JSON.

use std::collections::HashMap;

/// Hard cap on one request line, terminator included. A line that reaches
/// this length without a `\n` is answered with a `bad-frame` error and the
/// connection is closed (the stream cannot be resynchronised reliably).
pub const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Stable error codes of the `"code"` field in error frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame itself is unusable: not UTF-8, or over
    /// [`MAX_REQUEST_BYTES`].
    BadFrame,
    /// Unknown verb.
    BadVerb,
    /// A required argument is absent.
    MissingArg,
    /// An argument value does not parse.
    BadArg,
    /// `EXTRACT graph=` named a hash the cache does not hold.
    NotFound,
    /// Reading or decoding a graph file failed.
    Io,
    /// Admission control rejected the request.
    Overload,
    /// The request's `deadline_ms` expired while it was queued; it never
    /// executed.
    DeadlineExceeded,
    /// A graph file failed its checksum on cache admission (or a resident
    /// entry was detected corrupt) and was quarantined.
    Corrupt,
    /// A request handler panicked; the connection is closed.
    Internal,
}

impl ErrorCode {
    /// The stable wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::BadVerb => "bad-verb",
            ErrorCode::MissingArg => "missing-arg",
            ErrorCode::BadArg => "bad-arg",
            ErrorCode::NotFound => "not-found",
            ErrorCode::Io => "io",
            ErrorCode::Overload => "overload",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::Corrupt => "corrupt",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A parsed request frame: verb plus `key=value` arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The verb, uppercased as received (`PING`, `LOAD`, ...).
    pub verb: String,
    /// The `key=value` arguments, last occurrence of a key winning.
    pub args: HashMap<String, String>,
}

impl Request {
    /// Parses one request line (terminator already stripped).
    ///
    /// Returns `Err` with a message when a token is not `key=value`
    /// shaped; an empty line parses to an empty verb the caller skips.
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut tokens = line.split_ascii_whitespace();
        let verb = tokens.next().unwrap_or("").to_string();
        let mut args = HashMap::new();
        for token in tokens {
            match token.split_once('=') {
                Some((key, value)) if !key.is_empty() => {
                    args.insert(key.to_string(), value.to_string());
                }
                _ => return Err(format!("argument `{token}` is not key=value")),
            }
        }
        Ok(Request { verb, args })
    }

    /// The argument for `key`, if present.
    pub fn arg(&self, key: &str) -> Option<&str> {
        self.args.get(key).map(String::as_str)
    }

    /// The argument for `key`, or a `missing-arg` style error message.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.arg(key)
            .ok_or_else(|| format!("missing required argument `{key}`"))
    }
}

/// Escapes a string for inclusion in a JSON string literal (the same rules
/// as the `chordal-bench` encoder: control characters, quote, backslash).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Builds one error frame: `{"ok":false,"code":...,"error":...}`.
pub fn error_frame(code: ErrorCode, message: &str) -> String {
    error_frame_with(code, message, &[])
}

/// Builds one error frame carrying extra numeric fields, e.g. the
/// `retry_after_ms` hint on `overload` or `queue_wait_ns` on
/// `deadline-exceeded`.
pub fn error_frame_with(code: ErrorCode, message: &str, extra: &[(&str, u64)]) -> String {
    let mut frame = format!(
        "{{\"ok\":false,\"code\":\"{}\",\"error\":\"{}\"",
        code.as_str(),
        json_escape(message)
    );
    for (key, value) in extra {
        frame.push_str(&format!(",\"{key}\":{value}"));
    }
    frame.push('}');
    frame
}

/// SplitMix64: the seeded deterministic sequence shared by the client's
/// retry jitter and the fault injector's probabilistic schedule. Mutates
/// the state in place and returns the next draw.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A parsed JSON value — the minimal reader for response frames.
///
/// Supports objects, arrays, strings, numbers (as `f64`), booleans and
/// null; numbers with more than 53 bits of integer precision are not used
/// by this protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on an object (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Nested lookup: `value.path(&["pool", "idle_workers"])`.
    pub fn path(&self, keys: &[&str]) -> Option<&JsonValue> {
        let mut current = self;
        for key in keys {
            current = current.get(key)?;
        }
        Some(current)
    }

    /// This value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as an unsigned integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// This value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// This value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected `{}` at offset {pos}",
            char::from(byte),
            pos = *pos
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("bad literal at offset {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("bad number `{text}` at offset {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err("bad escape".to_string()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash as one
                // slice. The input is a &str and both delimiters are ASCII,
                // so the run starts and ends on char boundaries.
                let rest = &bytes[*pos..];
                let run = rest
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(rest.len());
                out.push_str(std::str::from_utf8(&rest[..run]).map_err(|e| e.to_string())?);
                *pos += run;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parses_verb_and_args() {
        let r = Request::parse("EXTRACT path=/tmp/g.bin algorithm=alg1 threads=4").unwrap();
        assert_eq!(r.verb, "EXTRACT");
        assert_eq!(r.arg("path"), Some("/tmp/g.bin"));
        assert_eq!(r.arg("algorithm"), Some("alg1"));
        assert_eq!(r.require("threads").unwrap(), "4");
        assert!(r.require("absent").is_err());
    }

    #[test]
    fn request_rejects_non_kv_tokens() {
        assert!(Request::parse("EXTRACT justaword").is_err());
        assert!(Request::parse("EXTRACT =nokey").is_err());
        // Empty line parses to an empty verb, which the server skips.
        assert_eq!(Request::parse("").unwrap().verb, "");
    }

    #[test]
    fn error_frames_escape_messages() {
        let frame = error_frame(ErrorCode::BadArg, "value \"x\"\nbroke");
        let parsed = JsonValue::parse(&frame).unwrap();
        assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(parsed.get("code").unwrap().as_str(), Some("bad-arg"));
        assert_eq!(
            parsed.get("error").unwrap().as_str(),
            Some("value \"x\"\nbroke")
        );
    }

    #[test]
    fn error_frames_carry_extra_numeric_fields() {
        let frame = error_frame_with(
            ErrorCode::DeadlineExceeded,
            "deadline passed",
            &[("queue_wait_ns", 1234), ("deadline_ms", 5)],
        );
        let parsed = JsonValue::parse(&frame).unwrap();
        assert_eq!(
            parsed.get("code").unwrap().as_str(),
            Some("deadline-exceeded")
        );
        assert_eq!(parsed.get("queue_wait_ns").unwrap().as_u64(), Some(1234));
        assert_eq!(parsed.get("deadline_ms").unwrap().as_u64(), Some(5));
    }

    #[test]
    fn splitmix64_is_deterministic_per_seed() {
        let mut a = 42;
        let mut b = 42;
        let first: Vec<u64> = (0..8).map(|_| splitmix64(&mut a)).collect();
        let second: Vec<u64> = (0..8).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(first, second);
        let mut c = 43;
        assert_ne!(first[0], splitmix64(&mut c), "seeds must diverge");
    }

    #[test]
    fn json_reader_handles_nesting_numbers_and_escapes() {
        let doc = r#"{"ok":true,"pool":{"size":8,"list":[1,2.5,-3],"name":"pA"},"none":null}"#;
        let v = JsonValue::parse(doc).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.path(&["pool", "size"]).unwrap().as_u64(), Some(8));
        assert_eq!(v.path(&["pool", "name"]).unwrap().as_str(), Some("pA"));
        assert_eq!(v.get("none"), Some(&JsonValue::Null));
        match v.path(&["pool", "list"]).unwrap() {
            JsonValue::Arr(items) => {
                assert_eq!(items[1].as_f64(), Some(2.5));
                assert_eq!(items[2].as_f64(), Some(-3.0));
            }
            other => panic!("not an array: {other:?}"),
        }
    }

    #[test]
    fn json_strings_parse_in_linear_time() {
        // 128 KiB of two ASCII bytes and a two-byte char: a reader that
        // re-validates the rest of the input per char takes seconds here.
        let text = "ab\u{e9}".repeat(128 * 1024 / 4);
        let doc = format!("{{\"error\":\"{text}\\n\"}}");
        let start = std::time::Instant::now();
        let parsed = JsonValue::parse(&doc).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(
            parsed.get("error").unwrap().as_str(),
            Some(format!("{text}\n").as_str())
        );
        assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
    }

    #[test]
    fn json_reader_rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("{\"a\":}").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("123 456").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }
}
