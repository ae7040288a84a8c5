//! Scheduler ablation: batch-placement policies on a mixed batch.
//!
//! [`chordal_core::ExtractionSession::extract_batch`] fans every graph of a
//! batch out, longest first, over serial participants that own their
//! workspaces. This experiment times the same mixed batch — many small
//! graphs plus a few large ones, interleaved the way batch traffic arrives
//! — under that placement and under two alternatives:
//!
//! * `batch` — one `extract_batch` call;
//! * `intra` — a loop of `extract` calls, every graph with intra-graph
//!   parallelism on the engine;
//! * `fan-out` — one serial session per thread, taking the graphs in input
//!   order from a shared cursor (the experiment fans them out itself).
//!
//! Every point carries the pool's scheduling counters (regions, dropped
//! tickets) and the calibrated per-region dispatch overhead, so a timing
//! can be traced back to the dispatch costs behind it.

use super::HarnessOptions;
use crate::records::SchedulerPoint;
use crate::workloads::SUITE_SEED;
use chordal_core::{ExtractionSession, ExtractorConfig};
use chordal_generators::rmat::{RmatKind, RmatParams};
use chordal_graph::CsrGraph;
use chordal_runtime::Engine;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The policies the ablation sweeps.
const POLICIES: [&str; 3] = ["batch", "intra", "fan-out"];

/// Builds the mixed batch: many small graphs plus a few large ones,
/// interleaved the way batch traffic arrives.
fn mixed_batch(options: &HarnessOptions) -> Vec<CsrGraph> {
    let (small_count, small_scale, large_count, large_scale) = if options.quick {
        (8, 6, 2, 9)
    } else {
        (48, 7, 3, 12)
    };
    let mut graphs: Vec<CsrGraph> = (0..small_count as u64)
        .map(|seed| RmatParams::preset(RmatKind::G, small_scale, SUITE_SEED ^ seed).generate())
        .collect();
    for i in 0..large_count {
        graphs.insert(
            i * (small_count / large_count.max(1)).max(1),
            RmatParams::preset(RmatKind::B, large_scale, SUITE_SEED ^ (100 + i as u64)).generate(),
        );
    }
    graphs
}

/// One policy's runner: extracts the whole batch, returns its chordal
/// edges.
enum Runner {
    /// `extract_batch` on a session over the engine.
    Batch(ExtractionSession),
    /// `extract` per graph on a session over the engine.
    Intra(ExtractionSession),
    /// One serial session per thread, fanned out over the engine at grain
    /// 1, so each session is a piece of its own.
    FanOut(Engine, Vec<ExtractionSession>),
}

impl Runner {
    fn new(policy: &str, engine: Engine) -> Self {
        let config = ExtractorConfig::default().with_engine(engine);
        match policy {
            "batch" => Runner::Batch(ExtractionSession::new(config)),
            "intra" => Runner::Intra(ExtractionSession::new(config)),
            _ => {
                let serial = config.with_engine(Engine::serial());
                let sessions = (0..engine.threads())
                    .map(|_| ExtractionSession::new(serial.clone()))
                    .collect();
                Runner::FanOut(engine.with_grain(1), sessions)
            }
        }
    }

    fn run(&mut self, graphs: &[&CsrGraph]) -> usize {
        match self {
            Runner::Batch(session) => session
                .extract_batch(graphs)
                .iter()
                .map(|r| r.num_chordal_edges())
                .sum(),
            Runner::Intra(session) => graphs
                .iter()
                .map(|&g| session.extract(g).num_chordal_edges())
                .sum(),
            Runner::FanOut(engine, sessions) => {
                let cursor = AtomicUsize::new(0);
                let chordal_edges = AtomicUsize::new(0);
                engine.for_each_mut(sessions, |_, session| {
                    while let Some(&graph) = graphs.get(cursor.fetch_add(1, Ordering::SeqCst)) {
                        let edges = session.extract(graph).num_chordal_edges();
                        chordal_edges.fetch_add(edges, Ordering::SeqCst);
                    }
                });
                chordal_edges.into_inner()
            }
        }
    }
}

/// Runs the ablation and returns one point per policy.
pub fn run(options: &HarnessOptions) -> Vec<SchedulerPoint> {
    let load_start = std::time::Instant::now();
    let graphs = mixed_batch(options);
    let load_ns = load_start.elapsed().as_nanos() as u64;
    let refs: Vec<&CsrGraph> = graphs.iter().collect();
    let threads = options.max_threads.clamp(2, 8);
    let engine = Engine::chunked(threads);
    let mut points = Vec::new();
    for policy in POLICIES {
        let mut runner = Runner::new(policy, engine);
        // Warm-up grows the workspaces and spawns the pool workers, so the
        // timed repeats measure the steady serving path.
        let chordal_edges = runner.run(&refs);
        let stats_before = chordal_runtime::pool_stats();
        let mut best = f64::MAX;
        for _ in 0..options.repeats.max(1) {
            let start = std::time::Instant::now();
            runner.run(&refs);
            best = best.min(start.elapsed().as_secs_f64());
        }
        let stats = chordal_runtime::pool_stats();
        points.push(SchedulerPoint {
            experiment: "scheduler".to_string(),
            engine: engine.name().to_string(),
            threads,
            policy: policy.to_string(),
            batch_graphs: graphs.len(),
            seconds: best,
            chordal_edges,
            regions: stats.regions - stats_before.regions,
            region_overhead_ns: chordal_runtime::estimated_region_overhead_ns_for(threads),
            tickets_dropped: stats.tickets_dropped - stats_before.tickets_dropped,
            load_ns,
        });
    }
    points
}

/// Runs the ablation with printing and record output.
pub fn run_and_print(options: &HarnessOptions) -> Vec<SchedulerPoint> {
    println!("Scheduler ablation: batch placement policies on a mixed batch");
    let points = run(options);
    println!(
        "  {:<7} {:>8} {:>8} {:>10} {:>9} {:>14}",
        "engine", "threads", "policy", "seconds", "regions", "overhead(ns)"
    );
    for p in &points {
        println!(
            "  {:<7} {:>8} {:>8} {:>10.4} {:>9} {:>14}",
            p.engine, p.threads, p.policy, p.seconds, p.regions, p.region_overhead_ns
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
    fn quick_ablation_covers_every_policy() {
        let options = HarnessOptions::tiny();
        let points = run(&options);
        assert_eq!(points.len(), 3, "one point per policy");
        for policy in POLICIES {
            let p = points
                .iter()
                .find(|p| p.policy == policy)
                .unwrap_or_else(|| panic!("missing {policy}"));
            assert_eq!(p.engine, "pool");
            assert!(p.seconds > 0.0);
            assert!(p.chordal_edges > 0);
            assert!(p.region_overhead_ns >= 1);
            assert_eq!(p.batch_graphs, 10);
            // Every point's record round-trips through the JSON layer.
            let json = p.to_json();
            assert!(json.contains("\"experiment\":\"scheduler\""));
            assert!(json.contains("\"batch_graphs\":10"));
            assert!(json.contains("\"tickets_dropped\":"));
            assert!(
                p.load_ns > 0 && json.contains("\"load_ns\":"),
                "workload build time must be recorded"
            );
        }
    }
}
