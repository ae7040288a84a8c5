//! Wire protocol: request frames and the heads of response frames.
//!
//! The request side is deliberately not JSON — a verb plus `key=value`
//! arguments parses with no recursion and no allocation surprises, which
//! keeps the torture surface (malformed frames, truncated reads) small.
//! The response side is one JSON object per request, built with the
//! crate's one JSON encoder ([`crate::json`]), which also writes the
//! experiment records of `chordal-bench`; its reader,
//! [`JsonValue`](crate::json::JsonValue), serves the in-tree client, the
//! test suites and the load generator. The server itself never parses
//! JSON.

use crate::json::JsonObject;
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

/// The head of a success frame, `{"ok":true,"verb":...}`, to which the
/// verb's handler adds its fields.
pub(crate) fn ok_frame(verb: &str) -> JsonObject {
    JsonObject::new().field("ok", true).field("verb", verb)
}

/// An error frame, `{"ok":false,"code":...,"error":...}`, to which a
/// caller may add numeric fields, e.g. the `retry_after_ms` hint on
/// `overload` or `queue_wait_ns` on `deadline-exceeded`.
pub(crate) fn error_frame(code: ErrorCode, message: &str) -> JsonObject {
    JsonObject::new()
        .field("ok", false)
        .field("code", code.as_str())
        .field("error", message)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{JsonValue, ToJson};

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
        let frame = error_frame(ErrorCode::BadArg, "value \"x\"\nbroke").to_json();
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
        let frame = error_frame(ErrorCode::DeadlineExceeded, "deadline passed")
            .field("queue_wait_ns", 1234)
            .field("deadline_ms", 5)
            .to_json();
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
}
