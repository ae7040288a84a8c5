//! In-crate chaos suite: drives a real in-process server through the
//! `FAULT` verb (available here because unit tests compile the crate with
//! `cfg(test)`; the repo-root integration suites compile this crate as a
//! plain dependency and exercise the runtime-gated `HOLD` hook instead).
//!
//! Every scenario asserts the two robustness invariants the fault layer
//! exists to prove: an injected fault never kills the process (the server
//! keeps answering on fresh connections) and never poisons the admission
//! queue (subsequent work still acquires permits).

use crate::client::ServeClient;
use crate::json::JsonValue;
use crate::server::{ServeConfig, Server, ServerHandle};
use chordal_generators::rmat::{RmatKind, RmatParams};
use chordal_graph::io::write_edge_list_file;
use chordal_graph::storage::convert_edge_list_to_binary;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One seeded binary graph on disk, removed on drop.
struct Fixture {
    files: Vec<PathBuf>,
    bin: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let txt = dir.join(format!("chordal_chaos_{pid}_{tag}.txt"));
        let bin = dir.join(format!("chordal_chaos_{pid}_{tag}.bin"));
        let graph = RmatParams::preset(RmatKind::G, 6, 77).generate();
        write_edge_list_file(&graph, &txt).expect("writing text edge list");
        convert_edge_list_to_binary(&txt, &bin).expect("streaming conversion");
        Fixture {
            files: vec![txt, bin.clone()],
            bin,
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        for f in &self.files {
            let _ = std::fs::remove_file(f);
        }
    }
}

fn start(config: ServeConfig) -> ServerHandle {
    Server::start(config).expect("starting server")
}

fn stat(client: &mut ServeClient, path: &[&str]) -> u64 {
    let response = client.request("STATS").unwrap();
    assert!(response.ok(), "{}", response.raw);
    response
        .json
        .path(path)
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("missing {path:?} in {}", response.raw))
}

#[test]
fn injected_read_fault_closes_one_connection_and_nothing_else() {
    let mut handle = start(ServeConfig::default());
    let addr = handle.addr();
    let mut victim = ServeClient::connect(addr).unwrap();
    assert!(victim.request("PING").unwrap().ok());
    assert!(victim.request("FAULT kind=read count=1").unwrap().ok());
    // The next data-bearing read on any connection fires; this PING's
    // bytes are it. The connection closes without a response.
    victim.send_line("PING").unwrap();
    assert!(
        victim.read_response().is_err(),
        "the faulted connection must close"
    );
    // The server survives: a fresh connection serves normally and the
    // fired counter proves the fault actually happened.
    let mut observer = ServeClient::connect(addr).unwrap();
    assert!(observer.request("PING").unwrap().ok());
    assert_eq!(stat(&mut observer, &["faults", "read"]), 1);
    handle.shutdown();
}

#[test]
fn injected_write_fault_drops_the_response_but_not_the_server() {
    let mut handle = start(ServeConfig::default());
    let addr = handle.addr();
    let mut victim = ServeClient::connect(addr).unwrap();
    assert!(victim.request("FAULT kind=write count=1").unwrap().ok());
    victim.send_line("PING").unwrap();
    assert!(
        victim.read_response().is_err(),
        "the response write failed, so the connection must close"
    );
    let mut observer = ServeClient::connect(addr).unwrap();
    assert!(observer.request("PING").unwrap().ok());
    assert_eq!(stat(&mut observer, &["faults", "write"]), 1);
    handle.shutdown();
}

#[test]
fn injected_slow_read_delays_the_response_without_breaking_it() {
    let mut handle = start(ServeConfig::default());
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    assert!(client
        .request("FAULT kind=slow-read count=1 ms=300")
        .unwrap()
        .ok());
    let start = Instant::now();
    let response = client.request("PING").unwrap();
    assert!(response.ok(), "{}", response.raw);
    assert!(
        start.elapsed() >= Duration::from_millis(250),
        "the slow-read delay must be observable"
    );
    let mut observer = ServeClient::connect(handle.addr()).unwrap();
    assert_eq!(stat(&mut observer, &["faults", "slow_read"]), 1);
    handle.shutdown();
}

#[test]
fn injected_panic_releases_the_permit_and_does_not_poison_the_queue() {
    let fixture = Fixture::new("panic");
    let mut handle = start(ServeConfig {
        max_inflight: 1,
        max_queue: 4,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let mut victim = ServeClient::connect(addr).unwrap();
    assert!(victim.request("FAULT kind=panic count=1").unwrap().ok());
    let crashed = victim
        .request(&format!(
            "EXTRACT path={} algorithm=alg1",
            fixture.bin.display()
        ))
        .unwrap();
    assert_eq!(
        crashed.raw,
        r#"{"ok":false,"code":"internal","error":"request handler panicked"}"#
    );
    assert!(
        victim.read_response().is_err(),
        "a panicked handler closes its connection"
    );
    // The single permit was released by unwinding: with max_inflight=1 a
    // wedged permit would make every further request wait forever (or
    // overload); instead the same extraction succeeds immediately.
    let mut survivor = ServeClient::connect(addr).unwrap();
    let ok = survivor
        .request(&format!(
            "EXTRACT path={} algorithm=alg1 deadline_ms=2000",
            fixture.bin.display()
        ))
        .unwrap();
    assert!(ok.ok(), "{}", ok.raw);
    assert_eq!(stat(&mut survivor, &["server", "inflight"]), 0);
    // `STATS` ends with the fired-fault counters.
    let stats = survivor.request("STATS").unwrap().raw;
    assert!(
        stats.ends_with(r#","faults":{"accept":0,"read":0,"write":0,"slow_read":0,"panic":1}}"#),
        "{stats}"
    );
    handle.shutdown();
}

#[test]
fn injected_cache_corruption_quarantines_then_recovers() {
    let fixture = Fixture::new("corrupt");
    let mut handle = start(ServeConfig::default());
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    let load = |client: &mut ServeClient| {
        client
            .request(&format!("LOAD path={}", fixture.bin.display()))
            .unwrap()
    };
    let first = load(&mut client);
    assert!(first.ok(), "{}", first.raw);
    let hash = first.str_field("graph").unwrap().to_string();

    assert!(client.request("FAULT kind=corrupt-cache").unwrap().ok());
    let corrupt = load(&mut client);
    assert_eq!(corrupt.code(), Some("corrupt"), "{}", corrupt.raw);
    assert_eq!(stat(&mut client, &["cache", "corruptions"]), 1);
    // Quarantine evicted the resident copy: the hash no longer resolves.
    let gone = client
        .request(&format!("EXTRACT graph={hash} algorithm=alg1"))
        .unwrap();
    assert_eq!(gone.code(), Some("not-found"), "{}", gone.raw);
    // The fault was one-shot; the healthy file re-admits under the same
    // key and extractions flow again.
    let again = load(&mut client);
    assert!(again.ok(), "{}", again.raw);
    assert_eq!(again.str_field("graph"), Some(hash.as_str()));
    handle.shutdown();
}

#[test]
fn injected_accept_fault_drops_the_connection_attempt_only() {
    let mut handle = start(ServeConfig::default());
    let addr = handle.addr();
    let mut client = ServeClient::connect(addr).unwrap();
    assert!(client.request("FAULT kind=accept count=1").unwrap().ok());
    // The TCP connect itself succeeds (the kernel accepted), but the
    // server drops the stream before servicing it: the first read EOFs.
    let mut dropped = ServeClient::connect(addr).unwrap();
    assert!(
        dropped.read_response().is_err(),
        "the dropped connection must answer nothing"
    );
    // The next connection is serviced normally.
    let mut next = ServeClient::connect(addr).unwrap();
    assert!(next.request("PING").unwrap().ok());
    assert_eq!(stat(&mut client, &["faults", "accept"]), 1);
    handle.shutdown();
}

#[test]
fn fault_verb_reports_and_clears_the_schedule() {
    let mut handle = start(ServeConfig::default());
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    // Kinds that cannot fire on this connection's own FAULT/PING traffic:
    // panic fires only inside EXTRACT handling, and prob=0 never draws
    // true. (An armed read fault would hit the very next request read.)
    // Each reply's bytes are pinned, as `tests/serve_protocol.rs` pins
    // the other verbs' frames.
    let mut reply = |line: &str| client.request(line).unwrap().raw;
    assert_eq!(
        reply("FAULT kind=panic count=3"),
        r#"{"ok":true,"verb":"FAULT","kind":"panic","armed":1}"#
    );
    assert_eq!(
        reply("FAULT kind=write seed=9 prob=0"),
        r#"{"ok":true,"verb":"FAULT","kind":"write","armed":2}"#
    );
    assert_eq!(
        reply("FAULT"),
        r#"{"ok":true,"verb":"FAULT","armed":2,"fired":{"accept":0,"read":0,"write":0,"slow_read":0,"panic":0}}"#
    );
    assert_eq!(
        reply("FAULT kind=corrupt-cache count=2"),
        r#"{"ok":true,"verb":"FAULT","kind":"corrupt-cache","count":2}"#
    );
    assert_eq!(
        reply("FAULT clear=true"),
        r#"{"ok":true,"verb":"FAULT","armed":0}"#
    );
    // Disarmed: reads flow untouched.
    assert_eq!(reply("PING"), r#"{"ok":true,"verb":"PING"}"#);
    assert_eq!(
        reply("FAULT kind=meteor"),
        r#"{"ok":false,"code":"bad-arg","error":"invalid value `meteor` for `kind`"}"#
    );
    handle.shutdown();
}

#[test]
fn seeded_write_chaos_is_survivable_and_reproducible() {
    // A probabilistic write-fault schedule under real traffic: some
    // requests lose their connection, the server must never lose itself.
    // The fired count is replayed exactly across two identically seeded
    // runs — the reproducibility contract chaos runs rely on.
    let run = |seed: u64| -> u64 {
        let mut handle = start(ServeConfig::default());
        let addr = handle.addr();
        let mut armer = ServeClient::connect(addr).unwrap();
        assert!(armer
            .request(&format!("FAULT kind=write seed={seed} prob=300"))
            .unwrap()
            .ok());
        let mut survived = 0u32;
        for _ in 0..32 {
            let mut client = ServeClient::connect(addr).unwrap();
            if client.request("PING").map(|r| r.ok()).unwrap_or(false) {
                survived += 1;
            }
        }
        assert!(survived > 0, "some pings must get through");
        // Disarm, then read the fired counters through the FAULT report —
        // its acks are fault-immune, so exactly the 32 ping responses drew
        // from the schedule and the accounting is exact.
        assert!(armer.request("FAULT clear=true").unwrap().ok());
        let report = armer.request("FAULT").unwrap();
        let fired = report
            .json
            .path(&["fired", "write"])
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("missing fired.write in {}", report.raw));
        assert!(fired > 0, "some pings must be faulted");
        assert_eq!(u64::from(survived) + fired, 32, "every ping is accounted");
        handle.shutdown();
        fired
    };
    assert_eq!(run(424242), run(424242), "same seed, same chaos");
}
