//! A small blocking client for the serve protocol.
//!
//! Used by the differential/soak test suites and the closed-loop load
//! generator in `chordal-bench`. One [`ServeClient`] is one connection;
//! requests are answered in order, so a client is also the natural unit
//! of closed-loop load (send, wait, repeat).

use crate::json::JsonValue;
use crate::protocol::splitmix64;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Back-off policy for [`ServeClient::request_with_retry`].
///
/// Retries apply to `overload` responses only — every other failure
/// (including `deadline-exceeded`) is the caller's decision. The delay
/// before attempt *n* is the server's `retry_after_ms` hint when the
/// overload frame carries one, otherwise `base_delay * 2^(n-1)`; either
/// way it is capped at `max_delay` and stretched by up to +50% of seeded
/// SplitMix64 jitter so a herd of rejected clients does not retry in
/// lockstep — deterministically per seed, so load runs replay.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, the first one included (so `1` disables retrying).
    pub max_attempts: u32,
    /// First-retry delay for the exponential fallback schedule.
    pub base_delay: Duration,
    /// Upper bound on any single delay, hinted or computed.
    pub max_delay: Duration,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry `attempt` (1-based), given the server's
    /// optional `retry_after_ms` hint. Pure: same inputs and jitter state,
    /// same delay.
    fn delay(&self, attempt: u32, hint_ms: Option<u64>, jitter_state: &mut u64) -> Duration {
        let base = match hint_ms {
            Some(ms) => Duration::from_millis(ms),
            None => self.base_delay * 2u32.saturating_pow(attempt.saturating_sub(1)),
        };
        let base = base.min(self.max_delay);
        // Up to +50% jitter, in per-mille steps.
        let jitter_pm = splitmix64(jitter_state) % 500;
        base + base.mul_f64(jitter_pm as f64 / 1000.0)
    }
}

/// One decoded response frame: the parsed JSON header plus the raw payload
/// bytes (empty unless the header announced `payload_bytes`).
#[derive(Debug, Clone)]
pub struct Response {
    /// The parsed response object.
    pub json: JsonValue,
    /// The raw header line as received (without the newline).
    pub raw: String,
    /// The length-prefixed payload following the header, if any.
    pub payload: Vec<u8>,
}

impl Response {
    /// Whether the frame reported success (`"ok":true`).
    pub fn ok(&self) -> bool {
        self.json.get("ok").and_then(JsonValue::as_bool) == Some(true)
    }

    /// The stable error code of a failure frame, if this is one.
    pub fn code(&self) -> Option<&str> {
        self.json.get("code").and_then(JsonValue::as_str)
    }

    /// A top-level string field.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.json.get(key).and_then(JsonValue::as_str)
    }

    /// A top-level integer field.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.json.get(key).and_then(JsonValue::as_u64)
    }
}

/// A blocking protocol client over one TCP connection.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ServeClient {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A generous dead-server guard so a wedged test fails instead of
        // hanging; real responses arrive far sooner.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let writer = stream.try_clone()?;
        Ok(ServeClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line (the newline is appended) and reads its
    /// response.
    pub fn request(&mut self, line: &str) -> std::io::Result<Response> {
        self.send_line(line)?;
        self.read_response()
    }

    /// Like [`ServeClient::request`], but retries `overload` responses
    /// under `policy`, honoring the server's `retry_after_ms` hint when
    /// present. Returns the final response plus the number of attempts
    /// made (1 = no retry was needed). The last response is returned even
    /// if it is still `overload` — attempts are capped, never infinite.
    pub fn request_with_retry(
        &mut self,
        line: &str,
        policy: &RetryPolicy,
    ) -> std::io::Result<(Response, u32)> {
        let mut jitter_state = policy.seed;
        let mut attempt = 1;
        loop {
            let response = self.request(line)?;
            if response.code() != Some("overload") || attempt >= policy.max_attempts.max(1) {
                return Ok((response, attempt));
            }
            let hint = response.u64_field("retry_after_ms");
            std::thread::sleep(policy.delay(attempt, hint, &mut jitter_state));
            attempt += 1;
        }
    }

    /// Sends one request line without waiting for the response — the
    /// pipelining primitive. Pair with [`ServeClient::read_response`].
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Sends raw bytes verbatim (no newline appended). Lets torture tests
    /// produce partial frames and malformed byte sequences.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Reads one response frame: a JSON header line, then `payload_bytes`
    /// raw bytes when the header announces them.
    pub fn read_response(&mut self) -> std::io::Result<Response> {
        let mut raw = String::new();
        let n = self.reader.read_line(&mut raw)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let raw = raw.trim_end_matches(['\n', '\r']).to_string();
        let json = JsonValue::parse(&raw).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed response frame `{raw}`: {e}"),
            )
        })?;
        let payload_len = json
            .get("payload_bytes")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0) as usize;
        let mut payload = vec![0u8; payload_len];
        if payload_len > 0 {
            self.reader.read_exact(&mut payload)?;
        }
        Ok(Response { json, raw, payload })
    }

    /// Shuts down the write half, signalling EOF to the server while
    /// responses can still be drained.
    pub fn close_write(&mut self) -> std::io::Result<()> {
        self.writer.shutdown(std::net::Shutdown::Write)
    }
}
