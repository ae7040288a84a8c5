//! Serving ablation: closed-loop load against the resident extraction
//! service.
//!
//! The batch experiments measure extraction cost with the process to
//! themselves; serving traffic pays protocol framing, admission control,
//! cache lookups and cross-connection pool sharing on top. This experiment
//! makes that overhead measurable: it starts an in-process
//! [`chordal_serve::Server`], drives it with a closed-loop client
//! population (each client sends one request, waits for the response,
//! repeats — the client count *is* the offered concurrency), and reports
//! end-to-end latency percentiles next to the server-side `extract_ns` /
//! `wait_ns` split, so queueing and framing cost cannot hide inside a
//! mean.
//!
//! Two workloads bracket the cache behaviour:
//!
//! * `"paths"` — every request names the graph by `path=`; the first touch
//!   of each file is a cache miss, steady state hits through the binary
//!   header fast path (one 48-byte read per request).
//! * `"resident"` — graphs are `LOAD`ed once up front and requests name
//!   them by `graph=<hash>`; the cache is never consulted with a path
//!   again, so this is the zero-parse hot path the cache exists for.
//!
//! Requests are assigned to clients by a fixed affine schedule, so the
//! workload is deterministic for a given client/request count. Every
//! request carries a generous `deadline_ms` bound on its admission-queue
//! wait, and overloaded responses are retried through
//! [`chordal_serve::RetryPolicy`] — jittered exponential backoff that
//! honours the server's `retry_after_ms` hint — so the record reports how
//! much retrying the hint actually caused (`retries`) next to the requests
//! that stayed overloaded after the budget (`overloaded`) and the ones
//! whose deadline expired in the queue (`deadline_exceeded`).

use super::HarnessOptions;
use crate::records::ServingPoint;
use crate::workloads::SUITE_SEED;
use chordal_generators::rmat::{RmatKind, RmatParams};
use chordal_graph::io::write_edge_list_file;
use chordal_graph::storage::convert_edge_list_to_binary;
use chordal_serve::{JsonValue, Response, RetryPolicy, ServeClient, ServeConfig, Server};
use std::path::PathBuf;
use std::time::Instant;

/// Scratch files removed when the experiment finishes (or unwinds).
struct ScratchFiles(Vec<PathBuf>);

impl Drop for ScratchFiles {
    fn drop(&mut self) {
        for path in &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// What one client measured for one logical request (retries included in
/// `latency_ns` and counted in `retries`).
struct Sample {
    latency_ns: u64,
    extract_ns: u64,
    wait_ns: u64,
    queue_wait_ns: u64,
    retries: u64,
    overloaded: bool,
    deadline_exceeded: bool,
}

/// Cache/pool counters snapshotted through `STATS`.
#[derive(Clone, Copy, Default)]
struct Counters {
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    tickets_dropped: u64,
}

fn stats_counters(response: &Response) -> Counters {
    let field = |path: &[&str]| {
        response
            .json
            .path(path)
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    };
    Counters {
        cache_hits: field(&["cache", "hits"]),
        cache_misses: field(&["cache", "misses"]),
        cache_evictions: field(&["cache", "evictions"]),
        tickets_dropped: field(&["pool", "tickets_dropped"]),
    }
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() * pct).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Drives `clients` closed-loop clients for `requests_per_client` requests
/// each, every request formatted by `request_line(client, index)`.
fn drive(
    addr: std::net::SocketAddr,
    clients: usize,
    requests_per_client: usize,
    request_line: impl Fn(usize, usize) -> String + Send + Sync,
) -> Vec<Sample> {
    std::thread::scope(|scope| {
        let request_line = &request_line;
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut conn = ServeClient::connect(addr).expect("connecting load client");
                    // One warm-up request builds the connection's session.
                    let _ = conn.request(&request_line(client, 0));
                    // Per-client retry policy, seeded by client id so the
                    // jitter schedule is deterministic per run shape.
                    let policy = RetryPolicy {
                        seed: 0xbe7c_0000 + client as u64,
                        ..RetryPolicy::default()
                    };
                    let mut samples = Vec::with_capacity(requests_per_client);
                    for index in 0..requests_per_client {
                        let line = request_line(client, index);
                        let start = Instant::now();
                        let (response, attempts) = conn
                            .request_with_retry(&line, &policy)
                            .expect("load request");
                        let latency_ns = start.elapsed().as_nanos() as u64;
                        let overloaded = response.code() == Some("overload");
                        let deadline_exceeded = response.code() == Some("deadline-exceeded");
                        assert!(
                            response.ok() || overloaded || deadline_exceeded,
                            "unexpected serving failure: {}",
                            response.raw
                        );
                        samples.push(Sample {
                            latency_ns,
                            extract_ns: response.u64_field("extract_ns").unwrap_or(0),
                            wait_ns: response.u64_field("wait_ns").unwrap_or(0),
                            queue_wait_ns: response.u64_field("queue_wait_ns").unwrap_or(0),
                            retries: u64::from(attempts.saturating_sub(1)),
                            overloaded,
                            deadline_exceeded,
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load client thread"))
            .collect()
    })
}

/// Folds raw samples + counter deltas into one record.
fn point(workload: &str, clients: usize, samples: &[Sample], delta: Counters) -> ServingPoint {
    let ok: Vec<&Sample> = samples
        .iter()
        .filter(|s| !s.overloaded && !s.deadline_exceeded)
        .collect();
    let mut latencies: Vec<u64> = ok.iter().map(|s| s.latency_ns).collect();
    latencies.sort_unstable();
    let mut queue_waits: Vec<u64> = ok.iter().map(|s| s.queue_wait_ns).collect();
    queue_waits.sort_unstable();
    let mean = |f: fn(&Sample) -> u64| {
        if ok.is_empty() {
            0
        } else {
            ok.iter().map(|s| f(s)).sum::<u64>() / ok.len() as u64
        }
    };
    ServingPoint {
        experiment: "serving".to_string(),
        workload: workload.to_string(),
        clients,
        requests: samples.len() as u64,
        ok: ok.len() as u64,
        overloaded: samples.iter().filter(|s| s.overloaded).count() as u64,
        deadline_exceeded: samples.iter().filter(|s| s.deadline_exceeded).count() as u64,
        retries: samples.iter().map(|s| s.retries).sum(),
        p50_ns: percentile(&latencies, 50),
        p95_ns: percentile(&latencies, 95),
        p99_ns: percentile(&latencies, 99),
        mean_extract_ns: mean(|s| s.extract_ns),
        mean_wait_ns: mean(|s| s.wait_ns),
        mean_queue_wait_ns: mean(|s| s.queue_wait_ns),
        p95_queue_wait_ns: percentile(&queue_waits, 95),
        cache_hits: delta.cache_hits,
        cache_misses: delta.cache_misses,
        cache_evictions: delta.cache_evictions,
        tickets_dropped: delta.tickets_dropped,
        pool_threads: chordal_runtime::pool_size(),
    }
}

/// Runs the experiment and returns one point per workload.
pub fn run(options: &HarnessOptions) -> Vec<ServingPoint> {
    let (scale, clients, requests_per_client) = if options.quick {
        (8, 2, 12)
    } else {
        (options.rmat_scale.min(12), 4, 60)
    };

    // Workload files: a few binary R-MAT graphs, converted through the
    // streaming converter (the representation a production deployment
    // would serve from).
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let mut scratch = ScratchFiles(Vec::new());
    let mut paths = Vec::new();
    for seed in 0..3u64 {
        let txt = dir.join(format!("chordal_serving_bench_{tag}_{seed}.txt"));
        let bin = dir.join(format!("chordal_serving_bench_{tag}_{seed}.bin"));
        let graph = RmatParams::preset(RmatKind::G, scale, SUITE_SEED + seed).generate();
        write_edge_list_file(&graph, &txt).expect("writing workload edge list");
        convert_edge_list_to_binary(&txt, &bin).expect("converting workload graph");
        scratch.0.push(txt);
        scratch.0.push(bin.clone());
        paths.push(bin);
    }

    let mut handle = Server::start(ServeConfig {
        max_sessions: clients + 2,
        ..ServeConfig::default()
    })
    .expect("starting the serving-ablation server");
    let addr = handle.addr();
    let mut control = ServeClient::connect(addr).expect("connecting control client");
    let snapshot = |control: &mut ServeClient| {
        let response = control.request("STATS").expect("STATS");
        assert!(response.ok(), "{}", response.raw);
        stats_counters(&response)
    };

    // Deterministic request mix: client c, request i touches graph
    // (5c + i) mod |paths| — every client cycles through all graphs with
    // a client-specific phase.
    let pick = |client: usize, index: usize| (5 * client + index) % paths.len();

    // Workload 1: by path — first touches miss, steady state hits via the
    // binary header fast path.
    let before = snapshot(&mut control);
    let samples = drive(addr, clients, requests_per_client, |client, index| {
        format!(
            "EXTRACT path={} algorithm=alg1 deadline_ms=30000",
            paths[pick(client, index)].display()
        )
    });
    let after = snapshot(&mut control);
    let paths_point = point(
        "paths",
        clients,
        &samples,
        Counters {
            cache_hits: after.cache_hits - before.cache_hits,
            cache_misses: after.cache_misses - before.cache_misses,
            cache_evictions: after.cache_evictions - before.cache_evictions,
            tickets_dropped: after.tickets_dropped - before.tickets_dropped,
        },
    );

    // Workload 2: resident — LOAD once, then extract by content-hash key.
    let hashes: Vec<String> = paths
        .iter()
        .map(|path| {
            let response = control
                .request(&format!("LOAD path={}", path.display()))
                .expect("LOAD");
            assert!(response.ok(), "{}", response.raw);
            response.str_field("graph").expect("graph key").to_string()
        })
        .collect();
    let before = snapshot(&mut control);
    let samples = drive(addr, clients, requests_per_client, |client, index| {
        format!(
            "EXTRACT graph={} algorithm=alg1 deadline_ms=30000",
            hashes[pick(client, index)]
        )
    });
    let after = snapshot(&mut control);
    let resident_point = point(
        "resident",
        clients,
        &samples,
        Counters {
            cache_hits: after.cache_hits - before.cache_hits,
            cache_misses: after.cache_misses - before.cache_misses,
            cache_evictions: after.cache_evictions - before.cache_evictions,
            tickets_dropped: after.tickets_dropped - before.tickets_dropped,
        },
    );
    handle.shutdown();
    vec![paths_point, resident_point]
}

/// Runs the experiment with printing and record output.
pub fn run_and_print(options: &HarnessOptions) -> Vec<ServingPoint> {
    println!("Serving: closed-loop load against the resident extraction service");
    let points = run(options);
    println!(
        "  {:<10} {:>7} {:>9} {:>6} {:>9} {:>8} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "workload",
        "clients",
        "requests",
        "ok",
        "overload",
        "expired",
        "retries",
        "p50(ns)",
        "p95(ns)",
        "p99(ns)",
        "extract(ns)",
        "wait(ns)",
        "queue(ns)"
    );
    for p in &points {
        println!(
            "  {:<10} {:>7} {:>9} {:>6} {:>9} {:>8} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            p.workload,
            p.clients,
            p.requests,
            p.ok,
            p.overloaded,
            p.deadline_exceeded,
            p.retries,
            p.p50_ns,
            p.p95_ns,
            p.p99_ns,
            p.mean_extract_ns,
            p.mean_wait_ns,
            p.mean_queue_wait_ns
        );
        println!(
            "  {:<10} cache: {} hits / {} misses / {} evictions; pool: {} tickets dropped",
            "", p.cache_hits, p.cache_misses, p.cache_evictions, p.tickets_dropped
        );
    }
    options.write_records(&points);
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use chordal_serve::json::ToJson;

    #[test]
    fn serving_points_cover_both_workloads() {
        let options = HarnessOptions::tiny();
        let points = run(&options);
        assert_eq!(points.len(), 2);
        let paths = points.iter().find(|p| p.workload == "paths").unwrap();
        let resident = points.iter().find(|p| p.workload == "resident").unwrap();
        for p in &points {
            assert!(p.ok > 0, "{p:?}");
            assert_eq!(
                p.requests,
                p.ok + p.overloaded + p.deadline_exceeded,
                "{p:?}"
            );
            assert!(p.p50_ns <= p.p95_ns && p.p95_ns <= p.p99_ns, "{p:?}");
            assert!(p.p50_ns > 0, "{p:?}");
            let json = p.to_json();
            assert!(json.contains("\"experiment\":\"serving\""));
            assert!(json.contains("\"p99_ns\":"));
            assert!(json.contains("\"mean_queue_wait_ns\":"));
            assert!(json.contains("\"deadline_exceeded\":"));
            assert!(json.contains("\"retries\":"));
        }
        // The paths workload pays the initial loads; the resident workload
        // never misses (all its graphs were LOADed up front).
        assert!(paths.cache_misses >= 1, "{paths:?}");
        assert_eq!(resident.cache_misses, 0, "{resident:?}");
        assert!(resident.cache_hits > 0, "{resident:?}");
    }
}
