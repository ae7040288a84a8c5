//! Near-maximality measurement (a reproduction finding).
//!
//! Theorem 2 of the paper claims the extracted subgraph is maximal whenever
//! it is connected. Our reproduction found a gap in that argument: a vertex
//! can reject an edge against a chordal-neighbour set that is still growing,
//! and the rejected edge may remain individually addable at termination.
//! This experiment quantifies the effect: it samples rejected edges and
//! reports what fraction could be re-added without breaking chordality, for
//! Algorithm 1 (asynchronous, the paper-faithful configuration) and for the
//! Dearing baseline (which is maximal by construction and should always
//! report zero).

use super::HarnessOptions;
use crate::records::ExperimentRecord;
use crate::workloads::{bfs_renumbered, bio_suite, rmat_suite};
use chordal_core::dearing::extract_dearing;
use chordal_core::verify::{check_maximality, MaximalityReport};
use chordal_core::{extract_maximal_chordal_serial, ChordalResult};
use chordal_graph::CsrGraph;
use chordal_serve::impl_to_json;

/// Result of the near-maximality probe for one graph and one algorithm.
#[derive(Debug, Clone)]
pub struct MaximalityRow {
    /// Graph name.
    pub graph: String,
    /// Algorithm ("algorithm1" / "dearing").
    pub algorithm: String,
    /// Number of rejected edges sampled.
    pub sampled: usize,
    /// Number of sampled rejected edges that could be re-added while keeping
    /// the subgraph chordal.
    pub addable: usize,
    /// `addable / sampled` (0 when nothing was sampled).
    pub addable_fraction: f64,
}

impl_to_json!(MaximalityRow {
    graph,
    algorithm,
    sampled,
    addable,
    addable_fraction
});

fn probe(
    graph: &CsrGraph,
    name: &str,
    algorithm: &str,
    result: &ChordalResult,
    sample: usize,
) -> MaximalityRow {
    let report = check_maximality(graph, result.edges(), Some(sample), 7);
    let addable = match report {
        MaximalityReport::Maximal => 0,
        MaximalityReport::Violations(v) => v.len(),
    };
    MaximalityRow {
        graph: name.to_string(),
        algorithm: algorithm.to_string(),
        sampled: sample,
        addable,
        addable_fraction: if sample > 0 {
            addable as f64 / sample as f64
        } else {
            0.0
        },
    }
}

/// Runs the probe over a reduced suite (the per-edge chordality re-check is
/// expensive, so the graphs are kept below ~10k edges).
pub fn run(options: &HarnessOptions) -> Vec<MaximalityRow> {
    let scale = if options.quick { 8 } else { 10 };
    let sample = if options.quick { 60 } else { 200 };
    let genes = options.genes.min(400);
    let mut graphs = rmat_suite(scale);
    graphs.extend(bio_suite(genes));
    let mut rows = Vec::new();
    for named in graphs {
        let graph = bfs_renumbered(&named.graph);
        let alg1 = extract_maximal_chordal_serial(&graph);
        rows.push(probe(&graph, &named.name, "algorithm1", &alg1, sample));
        let dearing = extract_dearing(&graph);
        rows.push(probe(&graph, &named.name, "dearing", &dearing, sample));
    }
    rows
}

/// Runs, prints and records.
pub fn run_and_print(options: &HarnessOptions) -> Vec<MaximalityRow> {
    let rows = run(options);
    println!("Near-maximality probe (reproduction finding)");
    println!(
        "  {:<16} {:<12} {:>8} {:>8} {:>10}",
        "graph", "algorithm", "sampled", "addable", "fraction"
    );
    for r in &rows {
        println!(
            "  {:<16} {:<12} {:>8} {:>8} {:>10.3}",
            r.graph, r.algorithm, r.sampled, r.addable, r.addable_fraction
        );
    }
    let records: Vec<_> = rows
        .iter()
        .map(|r| ExperimentRecord {
            experiment: "maximality_gap".to_string(),
            data: r.clone(),
        })
        .collect();
    options.write_records(&records);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dearing_is_always_maximal_and_alg1_is_near_maximal() {
        let rows = run(&HarnessOptions::tiny());
        for r in &rows {
            match r.algorithm.as_str() {
                // The greedy baseline is maximal by construction.
                "dearing" => assert_eq!(r.addable, 0, "{r:?}"),
                // Algorithm 1 is only *near* maximal. On the R-MAT inputs
                // the gap stays small; on the dense module-structured gene
                // networks it widens substantially at tiny surrogate sizes
                // (this probe's gene-network rows), so only sanity-check
                // those rows.
                "algorithm1" if r.graph.starts_with("RMAT") => {
                    assert!(r.addable_fraction <= 0.75, "{r:?}")
                }
                "algorithm1" => assert!((0.0..=1.0).contains(&r.addable_fraction), "{r:?}"),
                other => panic!("unexpected algorithm {other}"),
            }
        }
    }
}
