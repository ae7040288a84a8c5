//! Concurrency soak for `chordal serve`: many concurrent clients hammering
//! a shared server must observe correct results (zero cross-session
//! corruption), assertable cache behaviour (hit counts, LRU eviction under
//! a tight budget), and graceful overload when admission control
//! saturates. Everything is seeded and deterministic: expected extraction
//! results are precomputed in-process, saturation is forced with the
//! `HOLD` test hook rather than timing races, and the request schedule is
//! a fixed affine mix.

use maximal_chordal::graph::io::write_edge_list_file;
use maximal_chordal::graph::storage::convert_edge_list_to_binary;
use maximal_chordal::prelude::*;
use maximal_chordal::serve::{JsonValue, ServeClient, ServeConfig, Server};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Generated workload files, removed on drop.
struct Workload {
    files: Vec<PathBuf>,
}

impl Workload {
    /// Writes `n` distinct binary R-MAT graphs (scale 7, seeded).
    fn binary(tag: &str, n: usize) -> Workload {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let mut files = Vec::new();
        let mut scratch = Vec::new();
        for seed in 0..n as u64 {
            let txt = dir.join(format!("chordal_serve_soak_{pid}_{tag}_{seed}.txt"));
            let bin = dir.join(format!("chordal_serve_soak_{pid}_{tag}_{seed}.bin"));
            let graph = RmatParams::preset(RmatKind::G, 7, 40 + seed).generate();
            write_edge_list_file(&graph, &txt).expect("writing text edge list");
            convert_edge_list_to_binary(&txt, &bin).expect("streaming conversion");
            scratch.push(txt);
            files.push(bin);
        }
        // Text files ride along only for cleanup; callers index the
        // binaries as 0..n.
        files.extend(scratch);
        Workload { files }
    }

    fn bin(&self, i: usize) -> &PathBuf {
        &self.files[i]
    }
}

impl Drop for Workload {
    fn drop(&mut self) {
        for f in &self.files {
            let _ = std::fs::remove_file(f);
        }
    }
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
fn concurrent_clients_see_correct_results_and_cache_hits() {
    // Binaries 0 and 1 of the workload, two algorithms each: four request
    // shapes whose expected chordal edge counts are precomputed serially.
    let workload = Workload::binary("soak", 2);
    let algorithms = ["alg1", "dearing"];
    let mut expected = Vec::new();
    for graph_idx in 0..2 {
        let loaded =
            maximal_chordal::graph::storage::load_graph(workload.bin(graph_idx), None).unwrap();
        for algorithm in algorithms {
            let config = ExtractorConfig::serial(AdjacencyMode::Sorted)
                .with_algorithm(Algorithm::parse(algorithm).unwrap());
            let result = ExtractionSession::new(config).extract(loaded.as_graph_ref());
            expected.push(result.num_chordal_edges() as u64);
        }
    }

    let mut handle = Server::start(ServeConfig {
        max_sessions: 16,
        // Generous: this test measures correctness under concurrency, not
        // admission control (that is tested separately, deterministically).
        max_inflight: 64,
        ..ServeConfig::default()
    })
    .expect("starting server");
    let addr = handle.addr();

    const CLIENTS: usize = 6;
    const REQUESTS: usize = 15;
    let mut observer = ServeClient::connect(addr).unwrap();
    let hits_before = stat(&mut observer, &["cache", "hits"]);
    std::thread::scope(|scope| {
        let workload = &workload;
        let expected = &expected;
        for client_id in 0..CLIENTS {
            scope.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connecting soak client");
                for i in 0..REQUESTS {
                    // Fixed affine schedule: every client cycles through
                    // all four request shapes with its own phase.
                    let shape = (3 * client_id + 2 * i) % 4;
                    let (graph_idx, algorithm) = (shape / 2, algorithms[shape % 2]);
                    let response = client
                        .request(&format!(
                            "EXTRACT path={} algorithm={algorithm} engine=serial",
                            workload.bin(graph_idx).display()
                        ))
                        .expect("soak request");
                    assert!(response.ok(), "client {client_id}: {}", response.raw);
                    // The corruption check: every response must carry the
                    // precomputed answer for *its own* request shape.
                    assert_eq!(
                        response.u64_field("chordal_edges"),
                        Some(expected[shape]),
                        "client {client_id} request {i} (shape {shape}): {}",
                        response.raw
                    );
                }
            });
        }
    });
    // 90 requests against 2 graphs: at most 2 loads were misses, all the
    // rest must have hit the cache.
    let hits_after = stat(&mut observer, &["cache", "hits"]);
    assert!(
        hits_after - hits_before >= (CLIENTS * REQUESTS - 2) as u64,
        "expected nearly all requests to hit the cache: {hits_before} -> {hits_after}"
    );
    assert!(stat(&mut observer, &["cache", "entries"]) <= 2);
    handle.shutdown();
}

#[test]
fn lru_eviction_under_a_tight_budget_is_observable_and_recoverable() {
    let workload = Workload::binary("lru", 3);
    let sizes: Vec<u64> = (0..3)
        .map(|i| std::fs::metadata(workload.bin(i)).unwrap().len())
        .collect();
    // Room for two of the three mapped graphs.
    let budget = (sizes[0] + sizes[1] + sizes[2] / 2) as usize;
    let mut handle = Server::start(ServeConfig {
        cache_budget_bytes: budget,
        ..ServeConfig::default()
    })
    .expect("starting server");
    let mut client = ServeClient::connect(handle.addr()).unwrap();

    let mut hashes = Vec::new();
    for i in 0..3 {
        let response = client
            .request(&format!("LOAD path={}", workload.bin(i).display()))
            .unwrap();
        assert!(response.ok(), "{}", response.raw);
        hashes.push(response.str_field("graph").unwrap().to_string());
    }
    assert!(
        stat(&mut client, &["cache", "evictions"]) >= 1,
        "three loads into a two-graph budget must evict"
    );
    assert!(stat(&mut client, &["cache", "resident_bytes"]) <= budget as u64);

    // The evicted (least recently used) entry was the first load: resident
    // addressing now misses with a typed error...
    let gone = client
        .request(&format!("EXTRACT graph={} algorithm=alg1", hashes[0]))
        .unwrap();
    assert_eq!(gone.code(), Some("not-found"), "{}", gone.raw);
    // ...while the most recent entry still serves...
    let kept = client
        .request(&format!("EXTRACT graph={} algorithm=alg1", hashes[2]))
        .unwrap();
    assert!(kept.ok(), "{}", kept.raw);
    // ...and the evicted graph is recoverable through its path (a fresh
    // load under the same content hash).
    let reloaded = client
        .request(&format!(
            "EXTRACT path={} algorithm=alg1",
            workload.bin(0).display()
        ))
        .unwrap();
    assert!(reloaded.ok(), "{}", reloaded.raw);
    assert_eq!(reloaded.str_field("graph"), Some(hashes[0].as_str()));
    handle.shutdown();
}

#[test]
fn saturated_admission_control_answers_overload_and_recovers() {
    let workload = Workload::binary("overload", 1);
    // One extraction permit and a zero-length queue (bounce-only
    // admission, the pre-queueing semantics), with the HOLD hook enabled
    // so saturation is a deterministic state, not a race. Queueing
    // behaviour has its own suite (`serve_deadline.rs`).
    let mut handle = Server::start(ServeConfig {
        max_inflight: 1,
        max_queue: 0,
        test_hooks: true,
        ..ServeConfig::default()
    })
    .expect("starting server");
    let addr = handle.addr();
    let mut holder = ServeClient::connect(addr).unwrap();
    let mut client = ServeClient::connect(addr).unwrap();

    // Occupy the only permit for two seconds.
    holder.send_line("HOLD ms=2000").unwrap();
    // Wait until the server has actually dequeued the HOLD (inflight == 1)
    // rather than sleeping and hoping.
    let deadline = Instant::now() + Duration::from_secs(5);
    while stat(&mut client, &["server", "inflight"]) < 1 {
        assert!(Instant::now() < deadline, "HOLD never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    let overloaded_before = stat(&mut client, &["server", "overloaded_total"]);
    let rejected = client
        .request(&format!(
            "EXTRACT path={} algorithm=alg1",
            workload.bin(0).display()
        ))
        .unwrap();
    assert_eq!(rejected.code(), Some("overload"), "{}", rejected.raw);
    assert!(
        stat(&mut client, &["server", "overloaded_total"]) > overloaded_before,
        "overload must be counted"
    );
    // The holder finishes...
    let held = holder.read_response().unwrap();
    assert!(held.ok(), "{}", held.raw);
    // ...and the same request now succeeds: overload is backpressure, not
    // failure.
    let accepted = client
        .request(&format!(
            "EXTRACT path={} algorithm=alg1",
            workload.bin(0).display()
        ))
        .unwrap();
    assert!(accepted.ok(), "{}", accepted.raw);
    handle.shutdown();
}

#[test]
fn session_limit_rejects_extra_connections_then_admits_after_close() {
    let mut handle = Server::start(ServeConfig {
        max_sessions: 1,
        ..ServeConfig::default()
    })
    .expect("starting server");
    let addr = handle.addr();
    let mut first = ServeClient::connect(addr).unwrap();
    assert!(first.request("PING").unwrap().ok());

    // The second connection is answered with one overload frame and closed
    // without the client sending anything.
    let mut second = ServeClient::connect(addr).unwrap();
    let rejection = second.read_response().unwrap();
    assert_eq!(rejection.code(), Some("overload"), "{}", rejection.raw);
    assert!(
        second.read_response().is_err(),
        "rejected connections close"
    );

    // Freeing the slot readmits: the server notices the close within its
    // read-poll interval.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut retry = ServeClient::connect(addr).unwrap();
        match retry.request("PING") {
            Ok(response) if response.ok() => break,
            _ => {
                assert!(Instant::now() < deadline, "slot never freed");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    handle.shutdown();
}
