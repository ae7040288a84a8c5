//! Per-layer probes for the traced run. Each probe calls one layer's public
//! functions on the workload's own inputs, inside spans, and derives that
//! layer's metrics; every workload reports every layer this way.

use crate::gate::Gate;
use crate::inputs::Input;
use crate::stats::{median, quantile};
use crate::trace::Trace;
use crate::workloads::{t1_config, ServeRun, ServeSample};
use crate::Metrics;
use chordal_core::verify::{check_maximality, MaximalityReport};
use chordal_core::{ChordalResult, ExtractionSession, ExtractorConfig};
use chordal_graph::io::write_edge_list;
use chordal_graph::storage::{load_graph, LoadedGraph};
use chordal_graph::GraphRef;
use chordal_runtime::{pool_stats, PoolStats};
use chordal_serve::GraphCache;
use std::path::PathBuf;
use std::time::Instant;

/// Queues shorter than this count as small (per-iteration overhead
/// dominates them).
pub const SMALL_QUEUE: usize = 64;

/// Rejected edges sampled per graph by the maximality probe.
const MAXIMALITY_SAMPLE: usize = 100;

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn pool_delta(before: PoolStats, after: PoolStats) -> PoolStats {
    PoolStats {
        regions: after.regions - before.regions,
        tickets: after.tickets - before.tickets,
        steals: after.steals - before.steals,
        tickets_dropped: after.tickets_dropped - before.tickets_dropped,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `graph.storage`: `load_graph` (mmap) and `MmapCsrGraph::verify_checksum`.
pub fn storage(
    files: &[PathBuf],
    reps: usize,
    trace: &mut Trace,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut load_us = Vec::new();
    let mut verify_ms = Vec::new();
    for path in files {
        for _ in 0..reps {
            let span = trace.begin("graph.storage.load_graph", 0, 0);
            let start = Instant::now();
            let loaded = load_graph(path, None).map_err(|e| format!("load_graph: {e}"))?;
            load_us.push(ms(start) * 1e3);
            trace.end(span);
            if let LoadedGraph::Mapped(mapped) = &loaded {
                let span = trace.begin("graph.storage.verify_checksum", 0, 0);
                let start = Instant::now();
                mapped
                    .verify_checksum()
                    .map_err(|e| format!("verify_checksum: {e}"))?;
                verify_ms.push(ms(start));
                trace.end(span);
            }
        }
    }
    m.push("storage.load_graph_us", median(&load_us), "us");
    m.push("storage.verify_checksum_ms", median(&verify_ms), "ms");
    Ok(())
}

/// `serve.cache`: `GraphCache::get_or_load`, cold (a fresh cache) and
/// resident.
pub fn cache(
    files: &[PathBuf],
    reps: usize,
    trace: &mut Trace,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut miss_ms = Vec::new();
    let mut hit_us = Vec::new();
    for path in files {
        for _ in 0..reps {
            let cache = GraphCache::new(usize::MAX);
            for hit in [false, true] {
                let span = trace.begin("serve.cache.get_or_load", 0, 0);
                let start = Instant::now();
                let (_, _, was_hit) = cache
                    .get_or_load(path, None)
                    .map_err(|e| format!("get_or_load: {e}"))?;
                let elapsed = ms(start);
                trace.end(span);
                if was_hit != hit {
                    return Err(format!("cache probe expected hit={hit}, got hit={was_hit}"));
                }
                if hit {
                    hit_us.push(elapsed * 1e3);
                } else {
                    miss_ms.push(elapsed);
                }
            }
        }
    }
    m.push("cache.miss_ms", median(&miss_ms), "ms");
    m.push("cache.hit_us", median(&hit_us), "us");
    Ok(())
}

/// Per-graph results of the Algorithm 1 probe.
pub struct GraphAlg1 {
    pub name: String,
    pub edges: usize,
    pub t1_ms: f64,
    pub tmax_ms: f64,
    pub iterations_t1: usize,
    /// Iterations of each `tmax` repetition (asynchronous, so they vary).
    pub iterations_tmax: Vec<usize>,
    pub small_queue_iterations_t1: usize,
    pub queue_entries_t1: usize,
    pub chordal_edges_t1: usize,
    /// The Figure 7 series: serial per-iteration queue sizes.
    pub queue_sizes_t1: Vec<usize>,
}

pub struct Alg1Probe {
    pub graphs: Vec<GraphAlg1>,
    /// The last `tmax` output of each graph.
    pub tmax_results: Vec<ChordalResult>,
    pub t1_sum_ms: f64,
    pub workspace_bytes: usize,
    pub workspace_alloc_delta: usize,
}

/// `core.parallel`: warm `ExtractionSession::extract` at `t1` and `tmax`,
/// plus one stats-recording run per engine for the iteration counts.
pub fn alg1(
    inputs: &[Input],
    reps: usize,
    trace: &mut Trace,
    gate: &mut Gate,
    m: &mut Metrics,
) -> Alg1Probe {
    let mut t1 = ExtractionSession::new(t1_config());
    let mut tmax = ExtractionSession::new(ExtractorConfig::default());
    let mut t1_stats = ExtractionSession::new(t1_config().with_stats(true));
    let mut tmax_stats = ExtractionSession::new(ExtractorConfig::default().with_stats(true));
    let mut graphs = Vec::new();
    let mut tmax_results = Vec::new();
    let mut regions = 0u64;
    let mut tmax_runs = 0u64;
    let mut alloc_delta = 0usize;
    for (i, input) in inputs.iter().enumerate() {
        let view = input.view();
        gate.check_serial(i, view, &t1.extract(view));
        gate.check_result(i, view, &tmax.extract(view));
        let allocations = t1.workspace().allocations() + tmax.workspace().allocations();
        let mut t1_ms = Vec::new();
        let mut tmax_ms = Vec::new();
        let mut last = None;
        for _ in 0..reps {
            let span = trace.begin("core.parallel.extract.t1", 0, 0);
            let start = Instant::now();
            let result = t1.extract(view);
            t1_ms.push(ms(start));
            trace.end(span);
            gate.check_serial(i, view, &result);

            let before = pool_stats();
            let span = trace.begin("core.parallel.extract.tmax", 0, 0);
            let start = Instant::now();
            let result = tmax.extract(view);
            tmax_ms.push(ms(start));
            trace.end(span);
            regions += pool_delta(before, pool_stats()).regions;
            tmax_runs += 1;
            gate.check_result(i, view, &result);
            last = Some(result);
        }
        alloc_delta += t1.workspace().allocations() + tmax.workspace().allocations() - allocations;
        tmax_results.push(last.expect("at least one repetition"));

        let serial = t1_stats.extract(view);
        gate.check_serial(i, view, &serial);
        let stats = serial.stats.clone().unwrap_or_default();
        let iterations_tmax = (0..reps)
            .map(|_| {
                let result = tmax_stats.extract(view);
                gate.check_result(i, view, &result);
                result.iterations
            })
            .collect();
        graphs.push(GraphAlg1 {
            name: input.name.clone(),
            edges: view.num_canonical_edges(),
            t1_ms: median(&t1_ms),
            tmax_ms: median(&tmax_ms),
            iterations_t1: serial.iterations,
            iterations_tmax,
            small_queue_iterations_t1: stats
                .queue_sizes
                .iter()
                .filter(|&&q| q < SMALL_QUEUE)
                .count(),
            queue_entries_t1: stats.total_queue_entries(),
            chordal_edges_t1: serial.num_chordal_edges(),
            queue_sizes_t1: stats.queue_sizes,
        });
    }
    let sum = |f: &dyn Fn(&GraphAlg1) -> f64| graphs.iter().map(f).sum::<f64>();
    let t1_sum = sum(&|g| g.t1_ms);
    let tmax_sum = sum(&|g| g.tmax_ms);
    let edges = sum(&|g| g.edges as f64);
    m.push("alg1.extract_ms.t1", t1_sum, "ms");
    m.push("alg1.extract_ms.tmax", tmax_sum, "ms");
    m.push(
        "alg1.iterations.t1",
        sum(&|g| g.iterations_t1 as f64),
        "count",
    );
    m.push(
        "alg1.iterations.tmax",
        sum(&|g| {
            median(
                &g.iterations_tmax
                    .iter()
                    .map(|&x| x as f64)
                    .collect::<Vec<_>>(),
            )
        }),
        "count",
    );
    m.push(
        "alg1.iterations_max.t1",
        graphs.iter().map(|g| g.iterations_t1).max().unwrap_or(0) as f64,
        "count",
    );
    m.push(
        "alg1.small_queue_iterations.t1",
        sum(&|g| g.small_queue_iterations_t1 as f64),
        "count",
    );
    m.push(
        "alg1.queue_entries.t1",
        sum(&|g| g.queue_entries_t1 as f64),
        "count",
    );
    m.push(
        "alg1.chordal_edges.t1",
        sum(&|g| g.chordal_edges_t1 as f64),
        "count",
    );
    m.push("alg1.ns_per_edge.t1", ratio(t1_sum * 1e6, edges), "ns");
    m.push("alg1.ns_per_edge.tmax", ratio(tmax_sum * 1e6, edges), "ns");
    m.push("alg1.speedup.tmax", ratio(t1_sum, tmax_sum), "ratio");
    m.push(
        "pool.regions_per_extract.tmax",
        ratio(regions as f64, tmax_runs as f64),
        "count",
    );
    let workspace_bytes = [&t1, &tmax, &t1_stats, &tmax_stats]
        .iter()
        .map(|s| s.workspace().allocated_bytes())
        .max()
        .unwrap_or(0);
    Alg1Probe {
        graphs,
        tmax_results,
        t1_sum_ms: t1_sum,
        workspace_bytes,
        workspace_alloc_delta: alloc_delta,
    }
}

/// `core.verify`: rejected edges (endpoints in one component of the
/// chordal subgraph) that `check_maximality` says could be re-added, per
/// `MAXIMALITY_SAMPLE` sampled, over the `tmax` outputs. At the benchmark's
/// sizes every graph has more candidates than the sample, so this is the
/// share of sampled rejected edges that could be re-added.
pub fn maximality_gap(
    inputs: &[Input],
    results: &[ChordalResult],
    seed: u64,
    trace: &mut Trace,
    m: &mut Metrics,
) {
    let mut addable = 0usize;
    for (input, result) in inputs.iter().zip(results) {
        let graph = input.view().to_csr_graph();
        let span = trace.begin("core.verify.check_maximality", 0, 0);
        let report = check_maximality(&graph, result.edges(), Some(MAXIMALITY_SAMPLE), seed);
        trace.end(span);
        if let MaximalityReport::Violations(edges) = report {
            addable += edges.len();
        }
    }
    m.push(
        "verify.maximality_gap",
        ratio(addable as f64, (inputs.len() * MAXIMALITY_SAMPLE) as f64),
        "ratio",
    );
}

/// `core.session` and the runtime pool: warm `extract_batch` over all the
/// inputs at `tmax`.
pub fn session(
    inputs: &[Input],
    reps: usize,
    t1_sum_ms: f64,
    trace: &mut Trace,
    gate: &mut Gate,
    m: &mut Metrics,
) -> usize {
    let views: Vec<GraphRef<'_>> = inputs.iter().map(Input::view).collect();
    let mut session = ExtractionSession::new(ExtractorConfig::default());
    for (i, result) in session.extract_batch(&views).iter().enumerate() {
        gate.check_result(i, views[i], result);
    }
    let allocations = session.workspace().allocations();
    let rebalanced = session.scheduler_feedback().rebalanced;
    let before = pool_stats();
    let mut batch_ms = Vec::new();
    for _ in 0..reps {
        let span = trace.begin("core.session.extract_batch", 0, 0);
        let start = Instant::now();
        let results = session.extract_batch(&views);
        batch_ms.push(ms(start));
        trace.end(span);
        for (i, result) in results.iter().enumerate() {
            gate.check_result(i, views[i], result);
        }
    }
    let pool = pool_delta(before, pool_stats());
    let batch = median(&batch_ms);
    let threads = chordal_runtime::available_threads() as f64;
    let threshold = session.effective_batch_threshold();
    m.push("session.batch_ms", batch, "ms");
    m.push(
        "session.batch_efficiency",
        ratio(t1_sum_ms, batch * threads),
        "ratio",
    );
    m.push(
        "session.intra_graphs",
        views
            .iter()
            .filter(|g| g.num_canonical_edges() >= threshold)
            .count() as f64,
        "count",
    );
    m.push(
        "session.rebalanced",
        (session.scheduler_feedback().rebalanced - rebalanced) as f64 / reps as f64,
        "count",
    );
    m.push(
        "pool.regions_per_batch",
        pool.regions as f64 / reps as f64,
        "count",
    );
    m.push(
        "pool.steals_per_batch",
        pool.steals as f64 / reps as f64,
        "count",
    );
    session.workspace().allocations() - allocations
}

/// `graph.subgraph` and `graph.io`: the serve payload path
/// (`ChordalResult::subgraph`, then `io::write_edge_list` into memory) on
/// the `tmax` outputs.
pub fn payload(inputs: &[Input], results: &[ChordalResult], trace: &mut Trace, m: &mut Metrics) {
    let mut subgraph_ms = Vec::new();
    let mut write_ms = Vec::new();
    let mut bytes = Vec::new();
    for (input, result) in inputs.iter().zip(results) {
        let span = trace.begin("graph.subgraph", 0, 0);
        let start = Instant::now();
        let sub = result.subgraph(input.view());
        subgraph_ms.push(ms(start));
        trace.end(span);
        let mut out = Vec::new();
        let span = trace.begin("graph.io.write_edge_list", 0, 0);
        let start = Instant::now();
        write_edge_list(&sub, &mut out).expect("writing to memory cannot fail");
        write_ms.push(ms(start));
        trace.end(span);
        bytes.push(out.len() as f64);
    }
    m.push("payload.subgraph_ms", median(&subgraph_ms), "ms");
    m.push("payload.write_ms", median(&write_ms), "ms");
    m.push("payload.bytes", median(&bytes), "bytes");
}

/// `serve`: request timing split by the reply's fields and the client's
/// clock, plus the `STATS` cache deltas.
pub fn serve(run: &ServeRun, m: &mut Metrics) {
    let ok: Vec<_> = run.samples.iter().filter(|s| s.ok).collect();
    let ms_of = |f: &dyn Fn(&&ServeSample) -> u64| -> Vec<f64> {
        let mut v: Vec<f64> = ok.iter().map(|s| f(s) as f64 / 1e6).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let queue_wait = ms_of(&|s| s.queue_wait_ns);
    m.push(
        "serve.extract_ms.p50",
        quantile(&ms_of(&|s| s.extract_ns), 0.5),
        "ms",
    );
    m.push(
        "serve.wait_ms.p50",
        quantile(&ms_of(&|s| s.wait_ns), 0.5),
        "ms",
    );
    m.push("serve.queue_wait_ms.p50", quantile(&queue_wait, 0.5), "ms");
    m.push("serve.queue_wait_ms.p95", quantile(&queue_wait, 0.95), "ms");
    m.push(
        "serve.unattributed_ms.p50",
        quantile(
            &ms_of(&|s| s.latency_ns.saturating_sub(s.wait_ns + s.extract_ns)),
            0.5,
        ),
        "ms",
    );
    let latency_p50 = |hit: bool| {
        let v: Vec<f64> = ok
            .iter()
            .filter(|s| s.hit == hit)
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect();
        median(&v)
    };
    m.push("serve.hit_latency_ms.p50", latency_p50(true), "ms");
    m.push("serve.miss_latency_ms.p50", latency_p50(false), "ms");
    let count = |code: &str| run.samples.iter().filter(|s| s.code == code).count() as f64;
    m.push("serve.requests", run.samples.len() as f64, "count");
    m.push("serve.overloaded", count("overload"), "count");
    m.push(
        "serve.deadline_exceeded",
        count("deadline-exceeded"),
        "count",
    );
    m.push(
        "serve.retries",
        run.samples.iter().map(|s| s.retries).sum::<u64>() as f64,
        "count",
    );
    let hits = run.after.hits - run.before.hits;
    let misses = run.after.misses - run.before.misses;
    m.push(
        "cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    m.push(
        "cache.evictions",
        (run.after.evictions - run.before.evictions) as f64,
        "count",
    );
}
