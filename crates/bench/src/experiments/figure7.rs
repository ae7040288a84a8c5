//! Figure 7: queue sizes and iteration counts.
//!
//! The paper instruments Algorithm 1 and reports, per iteration of the outer
//! while-loop, how many lowest-parent vertices were in the queue. The R-MAT
//! graphs finish in roughly three iterations while the (much smaller)
//! biological networks need about ten — evidence that assortative, densely
//! clustered structure costs iterations.
//!
//! Those counts measure a schedule, not the algorithm. Every hand-over goes
//! from a parent to a larger vertex id, so an ascending pass that tests
//! each vertex against its parents' final sets (the asynchronous semantics
//! of `chordal_core::parallel`) finishes in one iteration. A
//! frontier-batched sweep, which drains the queue of lowest parents in
//! ascending order and lets a vertex move on to a parent later in the same
//! queue, took more. The synchronous semantics advances every vertex by one
//! parent per iteration, so it takes as many iterations as the largest
//! parent count. On R-MAT inputs at scale 16 and the four 3,000-gene
//! networks, seed 1 (`RmatParams::preset(kind, 16, 1)`,
//! `kind.network(3000, 1)`), under natural and BFS numbering:
//!
//! | graph | numbering | frontier, serial | frontier, 2 threads | synchronous | pull pass | paper |
//! |---|---|---|---|---|---|---|
//! | RMAT-ER(16) | natural | 17 | 25–29 | 32 | 1 | ~3 |
//! | RMAT-ER(16) | BFS | 18 | 21–25 | 28 | 1 | ~3 |
//! | RMAT-G(16) | natural | 28 | 52–59 | 77 | 1 | ~3 |
//! | RMAT-G(16) | BFS | 15 | 29–37 | 61 | 1 | ~3 |
//! | RMAT-B(16) | natural | 145 | 248–299 | 527 | 1 | ~3 |
//! | RMAT-B(16) | BFS | 13 | 36–40 | 273 | 1 | ~3 |
//! | GSE5140(CRT) | natural | 30 | 30 | 52 | 1 | ~10 |
//! | GSE5140(CRT) | BFS | 21 | 21 | 40 | 1 | ~10 |
//! | GSE5140(UNT) | natural | 29 | 29 | 40 | 1 | ~10 |
//! | GSE5140(UNT) | BFS | 13 | 13 | 25 | 1 | ~10 |
//! | GSE17072(CTL) | natural | 59 | 59 | 77 | 1 | ~10 |
//! | GSE17072(CTL) | BFS | 18 | 24 | 40 | 1 | ~10 |
//! | GSE17072(NON) | natural | 69 | 69 | 98 | 1 | ~10 |
//! | GSE17072(NON) | BFS | 30 | 42 | 71 | 1 | ~10 |
//!
//! The frontier columns come from the frontier-batched sweep this crate
//! shipped before the pull pass replaced it (two-thread runs: the range of
//! five runs; on the gene networks every queue fit in one grain, so the
//! two-thread sweep ran inline). The paper's counts are not reproduced by
//! any of them: they come from scale 24–26 inputs, a different generator
//! and an XMT schedule.
//!
//! This experiment therefore traces the synchronous semantics: its
//! iterations are a property of the graph and its numbering, and its
//! per-iteration statistics keep the paper's meaning (distinct lowest
//! parents, edges accepted), equal to
//! `chordal_core::reference::extract_reference_with_stats`.

use super::HarnessOptions;
use crate::impl_to_json;
use crate::records::ExperimentRecord;
use crate::workloads::{bio_suite, rmat_graph};
use chordal_core::{ExtractionSession, ExtractorConfig, Semantics};
use chordal_generators::rmat::RmatKind;
use chordal_runtime::Engine;

/// Queue-size trace of one extraction.
#[derive(Debug, Clone)]
pub struct QueueTrace {
    /// Graph name.
    pub graph: String,
    /// Number of outer iterations.
    pub iterations: usize,
    /// `queue_sizes[t]` = vertices processed in iteration `t`.
    pub queue_sizes: Vec<usize>,
    /// `edges_added[t]` = edges accepted in iteration `t`.
    pub edges_added: Vec<usize>,
}

impl_to_json!(QueueTrace {
    graph,
    iterations,
    queue_sizes,
    edges_added
});

fn trace(name: &str, graph: &chordal_graph::CsrGraph, _threads: usize) -> QueueTrace {
    // The synchronous semantics (module docs); deterministic on every
    // engine, so the serial one suffices.
    let config = ExtractorConfig::default()
        .with_engine(Engine::serial())
        .with_semantics(Semantics::Synchronous)
        .with_stats(true);
    let result = ExtractionSession::new(config).extract(graph);
    let stats = result.stats.expect("stats were requested");
    QueueTrace {
        graph: name.to_string(),
        iterations: result.iterations,
        queue_sizes: stats.queue_sizes,
        edges_added: stats.edges_added,
    }
}

/// Runs the instrumented extractions: RMAT-B at the weak-scaling scales plus
/// the four gene-correlation networks.
pub fn run(options: &HarnessOptions) -> Vec<QueueTrace> {
    let mut traces = Vec::new();
    for scale in options.weak_scaling_scales() {
        let named = rmat_graph(RmatKind::B, scale);
        traces.push(trace(&named.name, &named.graph, options.max_threads));
    }
    for named in bio_suite(options.genes) {
        traces.push(trace(&named.name, &named.graph, options.max_threads));
    }
    traces
}

/// Runs, prints and records.
pub fn run_and_print(options: &HarnessOptions) -> Vec<QueueTrace> {
    let traces = run(options);
    println!("Figure 7: queue sizes and iteration counts");
    for t in &traces {
        println!("\n  {} — {} iterations", t.graph, t.iterations);
        println!("  {:>6} {:>12} {:>12}", "iter", "queue size", "edges added");
        for (i, (&q, &e)) in t.queue_sizes.iter().zip(&t.edges_added).enumerate() {
            println!("  {:>6} {:>12} {:>12}", i + 1, q, e);
        }
    }
    let records: Vec<_> = traces
        .iter()
        .map(|t| ExperimentRecord {
            experiment: "figure7".to_string(),
            data: t.clone(),
        })
        .collect();
    options.write_records(&records);
    traces
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_cover_rmat_and_bio_inputs() {
        let traces = run(&HarnessOptions::tiny());
        // quick: 1 RMAT-B scale + 4 bio networks.
        assert_eq!(traces.len(), 5);
        for t in &traces {
            assert_eq!(t.iterations, t.queue_sizes.len());
            assert!(t.iterations >= 1);
            assert!(t.queue_sizes.iter().all(|&q| q > 0));
        }
    }

    #[test]
    fn rmat_iterations_equal_the_reference() {
        // The traced counts are the synchronous semantics', so the
        // reference oracle reproduces them iteration by iteration.
        let named = rmat_graph(RmatKind::B, 14);
        let traced = trace(&named.name, &named.graph, 1);
        let reference = chordal_core::reference::extract_reference_with_stats(&named.graph, true);
        let stats = reference.stats.expect("stats were requested");
        assert_eq!(traced.iterations, reference.iterations);
        assert_eq!(traced.queue_sizes, stats.queue_sizes);
        assert_eq!(traced.edges_added, stats.edges_added);
    }
}
