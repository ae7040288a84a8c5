//! Protocol torture suite for `chordal serve`: malformed frames, truncated
//! and partial reads, oversized payloads, pipelined requests, and abrupt
//! disconnects must all produce typed error frames or a clean close —
//! never a panic, a wedged connection, or a leaked session slot.

use maximal_chordal::graph::io::write_edge_list_file;
use maximal_chordal::graph::storage::{convert_edge_list_to_binary, Header, SectionLayout};
use maximal_chordal::prelude::*;
use maximal_chordal::serve::{JsonValue, ServeClient, ServeConfig, Server, ServerHandle};
use std::time::{Duration, Instant};

/// A server plus the scratch graph files its tests extract from; both are
/// torn down on drop.
struct Fixture {
    handle: ServerHandle,
    txt: std::path::PathBuf,
    bin: std::path::PathBuf,
}

impl Fixture {
    fn start(tag: &str, config: ServeConfig) -> Fixture {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let txt = dir.join(format!("chordal_serve_proto_{pid}_{tag}.txt"));
        let bin = dir.join(format!("chordal_serve_proto_{pid}_{tag}.bin"));
        let graph = RmatParams::preset(RmatKind::G, 7, 23).generate();
        write_edge_list_file(&graph, &txt).expect("writing text edge list");
        convert_edge_list_to_binary(&txt, &bin).expect("streaming conversion");
        let handle = Server::start(config).expect("starting server");
        Fixture { handle, txt, bin }
    }

    fn client(&self) -> ServeClient {
        ServeClient::connect(self.handle.addr()).expect("connecting")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.handle.shutdown();
        let _ = std::fs::remove_file(&self.txt);
        let _ = std::fs::remove_file(&self.bin);
    }
}

fn default_fixture(tag: &str) -> Fixture {
    Fixture::start(tag, ServeConfig::default())
}

/// A copy of an encoded graph whose last adjacency entry names the vertex
/// count — one past the last vertex — with the FNV-1a section checksum
/// recomputed to match. The last entry is its list's largest, so a sorted
/// file stays sorted.
fn with_out_of_range_entry(bytes: &[u8]) -> Vec<u8> {
    let mut bytes = bytes.to_vec();
    let header = Header::parse(&bytes).unwrap();
    let layout = SectionLayout::locate(&header, &bytes).unwrap();
    let end = layout.adjacency_pos + header.adjacency_len();
    bytes[end - 4..end].copy_from_slice(&(header.num_vertices as u32).to_le_bytes());
    // The two sections are adjacent, offsets first.
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    for &b in &bytes[layout.offsets_pos..end] {
        checksum = (checksum ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    bytes[40..48].copy_from_slice(&checksum.to_le_bytes());
    bytes
}

#[test]
fn ping_answers_and_unknown_verbs_keep_the_connection_alive() {
    let fixture = default_fixture("ping");
    let mut client = fixture.client();
    let pong = client.request("PING").unwrap();
    assert!(pong.ok(), "{}", pong.raw);
    assert_eq!(pong.str_field("verb"), Some("PING"));
    let bad = client.request("FROBNICATE now=1").unwrap();
    assert_eq!(bad.code(), Some("bad-verb"), "{}", bad.raw);
    // The connection survives an unknown verb.
    assert!(client.request("PING").unwrap().ok());
}

#[test]
fn malformed_arguments_get_typed_errors_and_the_connection_survives() {
    let fixture = default_fixture("args");
    let mut client = fixture.client();
    let cases: &[(&str, &str)] = &[
        // A bare word is not key=value.
        ("EXTRACT justaword", "bad-arg"),
        // LOAD without its one required argument.
        ("LOAD", "missing-arg"),
        // EXTRACT names neither a resident graph nor a path.
        ("EXTRACT algorithm=alg1", "missing-arg"),
        // Unparsable values.
        ("EXTRACT path=/tmp/x format=bogus", "bad-arg"),
        ("EXTRACT path=/tmp/x algorithm=quantum", "bad-arg"),
        ("EXTRACT path=/tmp/x threads=many", "bad-arg"),
        ("EXTRACT path=/tmp/x repair=maybe", "bad-arg"),
        ("EXTRACT graph=nothex algorithm=alg1", "bad-arg"),
        // Keys the verb does not read: a typo, a retired argument, a typo
        // on LOAD. Refused before the (missing) file is touched.
        ("EXTRACT path=/tmp/x semantic=sync", "bad-arg"),
        ("EXTRACT path=/tmp/x repair-strategy=scratch", "bad-arg"),
        ("LOAD path=/tmp/x fromat=bin", "bad-arg"),
        // A well-formed path that does not exist.
        ("LOAD path=/nonexistent/graph.bin", "io"),
        // A hash nothing was loaded under.
        ("EXTRACT graph=00000000deadbeef", "not-found"),
        // HOLD is a test hook; this server has hooks disabled.
        ("HOLD ms=10", "bad-verb"),
    ];
    for (line, code) in cases {
        let response = client.request(line).unwrap();
        assert_eq!(response.code(), Some(*code), "{line} -> {}", response.raw);
        assert!(!response.ok());
    }
    // The refusal names the key.
    let response = client
        .request("EXTRACT path=/tmp/x repair-strategy=scratch")
        .unwrap();
    let error = response.str_field("error").unwrap_or_default();
    assert!(error.contains("`repair-strategy`"), "{}", response.raw);
    // Fifteen errors later the connection still serves.
    assert!(client.request("PING").unwrap().ok());
}

#[test]
fn non_utf8_lines_are_bad_frames_but_do_not_close() {
    let fixture = default_fixture("utf8");
    let mut client = fixture.client();
    client.send_raw(b"\xff\xfe\x80PING\n").unwrap();
    let response = client.read_response().unwrap();
    assert_eq!(response.code(), Some("bad-frame"), "{}", response.raw);
    assert!(client.request("PING").unwrap().ok());
}

#[test]
fn oversized_frames_are_rejected_and_the_connection_closes() {
    let fixture = default_fixture("oversize");
    let mut client = fixture.client();
    // More than MAX_REQUEST_BYTES without a newline: the stream cannot be
    // resynchronised, so the server must answer bad-frame and close.
    let huge = vec![b'a'; 9 * 1024];
    client.send_raw(&huge).unwrap();
    let response = client.read_response().unwrap();
    assert_eq!(response.code(), Some("bad-frame"), "{}", response.raw);
    // The close is observable as EOF (or a reset, depending on timing).
    assert!(client.read_response().is_err());
}

#[test]
fn partial_frames_reassemble_across_reads() {
    let fixture = default_fixture("partial");
    let mut client = fixture.client();
    // Split one request across three writes with pauses longer than the
    // server's read-poll interval, so each fragment arrives in its own
    // read call.
    client.send_raw(b"PI").unwrap();
    std::thread::sleep(Duration::from_millis(120));
    client.send_raw(b"N").unwrap();
    std::thread::sleep(Duration::from_millis(120));
    client.send_raw(b"G\n").unwrap();
    let response = client.read_response().unwrap();
    assert!(response.ok(), "{}", response.raw);
    assert_eq!(response.str_field("verb"), Some("PING"));
}

#[test]
fn blank_lines_and_crlf_terminators_are_tolerated() {
    let fixture = default_fixture("blank");
    let mut client = fixture.client();
    client.send_raw(b"\n\r\n  \nPING\r\n").unwrap();
    let response = client.read_response().unwrap();
    assert!(response.ok(), "{}", response.raw);
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let fixture = default_fixture("pipeline");
    let mut client = fixture.client();
    // Three requests in a single write; the payload-carrying EXTRACT sits
    // in the middle so ordering mistakes would corrupt the next frame.
    let script = format!(
        "PING\nEXTRACT path={} algorithm=alg1 semantics=sync payload=edges\nSTATS\n",
        fixture.bin.display()
    );
    client.send_raw(script.as_bytes()).unwrap();
    let first = client.read_response().unwrap();
    assert_eq!(first.str_field("verb"), Some("PING"), "{}", first.raw);
    let second = client.read_response().unwrap();
    assert_eq!(second.str_field("verb"), Some("EXTRACT"), "{}", second.raw);
    assert!(second.u64_field("payload_bytes").unwrap() > 0);
    assert_eq!(
        second.payload.len(),
        second.u64_field("payload_bytes").unwrap() as usize
    );
    let third = client.read_response().unwrap();
    assert_eq!(third.str_field("verb"), Some("STATS"), "{}", third.raw);
}

#[test]
fn abrupt_disconnect_mid_extraction_releases_the_session() {
    let fixture = default_fixture("disconnect");
    let mut observer = fixture.client();
    for _ in 0..3 {
        let mut client = fixture.client();
        client
            .send_line(&format!(
                "EXTRACT path={} algorithm=alg1 payload=edges",
                fixture.bin.display()
            ))
            .unwrap();
        // Drop the connection without reading the response: the server's
        // write fails and the session must unwind cleanly.
        drop(client);
    }
    // The leaked-slot check: sessions_active must come back down to just
    // the observer within the poll deadline.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = observer.request("STATS").unwrap();
        assert!(stats.ok(), "{}", stats.raw);
        let active = stats
            .json
            .path(&["server", "sessions_active"])
            .and_then(JsonValue::as_u64)
            .unwrap();
        if active == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "sessions_active stuck at {active}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn stats_exposes_the_admission_control_observables() {
    let fixture = default_fixture("stats");
    let mut client = fixture.client();
    let stats = client.request("STATS").unwrap();
    assert!(stats.ok(), "{}", stats.raw);
    let field = |path: &[&str]| {
        stats
            .json
            .path(path)
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("missing {path:?} in {}", stats.raw))
    };
    // The two counters the admission-control tests assert on.
    let idle = field(&["pool", "idle_workers"]);
    let size = field(&["pool", "size"]);
    assert!(idle <= size, "{idle} idle of {size}");
    let _ = field(&["pool", "tickets_dropped"]);
    // Full layout sanity.
    assert_eq!(field(&["server", "sessions_active"]), 1);
    assert!(field(&["server", "max_inflight"]) >= 1);
    // The queueing observables ride in the server object.
    assert_eq!(field(&["server", "queue_depth"]), 0);
    let _ = field(&["server", "queue_waits"]);
    let _ = field(&["server", "deadline_expired"]);
    let _ = field(&["server", "max_queue_wait_ns"]);
    assert!(field(&["server", "max_queue"]) >= 1);
    let _ = field(&["cache", "resident_bytes"]);
    let _ = field(&["cache", "corruptions"]);
    assert!(field(&["cache", "budget_bytes"]) > 0);
}

#[test]
fn a_corrupt_binary_file_is_quarantined_with_a_typed_error() {
    let fixture = default_fixture("corrupt");
    let mut client = fixture.client();
    // Damage the file on disk *after* conversion: flip one byte in the
    // data sections so the header checksum no longer matches.
    let mut bytes = std::fs::read(&fixture.bin).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&fixture.bin, &bytes).unwrap();

    // Admission verifies the section checksum: the damaged file is
    // rejected with `corrupt` — not `io` (it decodes) and not `not-found`
    // (it exists) — and counted.
    let response = client
        .request(&format!("LOAD path={}", fixture.bin.display()))
        .unwrap();
    assert_eq!(response.code(), Some("corrupt"), "{}", response.raw);
    assert!(response.raw.contains("checksum"), "{}", response.raw);
    let stats = client.request("STATS").unwrap();
    assert_eq!(
        stats
            .json
            .path(&["cache", "corruptions"])
            .and_then(JsonValue::as_u64),
        Some(1),
        "{}",
        stats.raw
    );
    // The corrupt graph was never admitted, and the failure is
    // deterministic on retry — not cached as success, not flaky.
    let again = client
        .request(&format!(
            "EXTRACT path={} algorithm=alg1",
            fixture.bin.display()
        ))
        .unwrap();
    assert_eq!(again.code(), Some("corrupt"), "{}", again.raw);

    // Repairing the file re-admits it under its content hash.
    bytes[last] ^= 0xff;
    std::fs::write(&fixture.bin, &bytes).unwrap();
    let healed = client
        .request(&format!("LOAD path={}", fixture.bin.display()))
        .unwrap();
    assert!(healed.ok(), "{}", healed.raw);

    // A matching checksum over an adjacency entry past the last vertex is
    // corrupt too: admission rejects it before an extraction indexes with
    // it, and counts it.
    let corruptions = |client: &mut ServeClient| {
        let stats = client.request("STATS").unwrap();
        stats
            .json
            .path(&["cache", "corruptions"])
            .and_then(JsonValue::as_u64)
            .unwrap()
    };
    let before = corruptions(&mut client);
    let out_of_range = fixture.bin.with_extension("oob.bin");
    std::fs::write(&out_of_range, with_out_of_range_entry(&bytes)).unwrap();
    for request in [
        format!("LOAD path={}", out_of_range.display()),
        format!("EXTRACT path={} algorithm=dearing", out_of_range.display()),
    ] {
        let response = client.request(&request).unwrap();
        assert_eq!(response.code(), Some("corrupt"), "{}", response.raw);
        assert!(response.raw.contains("out of range"), "{}", response.raw);
    }
    let _ = std::fs::remove_file(&out_of_range);
    assert_eq!(corruptions(&mut client), before + 2);
}

#[test]
fn shutdown_verb_stops_the_server() {
    let fixture = default_fixture("shutdown");
    let mut client = fixture.client();
    let response = client.request("SHUTDOWN").unwrap();
    assert!(response.ok(), "{}", response.raw);
    let deadline = Instant::now() + Duration::from_secs(5);
    while !fixture.handle.is_shut_down() {
        assert!(Instant::now() < deadline, "server did not stop");
        std::thread::sleep(Duration::from_millis(20));
    }
}
