//! Figure 7: queue sizes and iteration counts.
//!
//! The paper instruments Algorithm 1 and reports, per iteration of the outer
//! while-loop, how many lowest-parent vertices were in the queue. The R-MAT
//! graphs finish in roughly three iterations while the (much smaller)
//! biological networks need about ten — evidence that assortative, densely
//! clustered structure costs iterations.

use super::HarnessOptions;
use crate::impl_to_json;
use crate::records::ExperimentRecord;
use crate::workloads::{bio_suite, rmat_graph};
use chordal_core::{ExtractionSession, ExtractorConfig};
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
    // The paper reports ~3 iterations for R-MAT and ~10 for the biological
    // networks (Section V). The serial engine sweeps each queue in
    // ascending id order, deterministically, but does not reach those
    // counts: at scale 16, seed 1, the serial asynchronous sweep takes 17
    // iterations on RMAT-ER, 28 on RMAT-G and 145 on RMAT-B.
    let config = ExtractorConfig::default()
        .with_engine(Engine::serial())
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
    fn rmat_needs_few_iterations() {
        let traces = run(&HarnessOptions::tiny());
        let rmat = &traces[0];
        // The cascading asynchronous sweep resolves R-MAT inputs in few
        // iterations relative to the vertex count (the paper reports ~3 at
        // scale 24-26; the tiny scale-9 surrogate needs somewhat more, and
        // the exact count shifts with the generator's RNG stream).
        assert!(
            rmat.iterations <= 20,
            "RMAT-B took {} iterations",
            rmat.iterations
        );
    }
}
