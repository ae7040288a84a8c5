//! Chordal edge fraction (Section V of the paper).
//!
//! The paper reports that only a small portion of every test graph is
//! chordal (≈11% for RMAT-ER, ≈10% for RMAT-G, ≈6% for RMAT-B, 4–8% for the
//! biological networks), roughly constant across scales. This experiment
//! measures the fraction for Algorithm 1 and for the Dearing baseline so the
//! two maximal subgraphs can be compared.

use super::HarnessOptions;
use crate::records::ExperimentRecord;
use crate::workloads::{bio_suite, rmat_suite, NamedGraph};
use chordal_core::{Algorithm, ExtractionSession, ExtractorConfig};
use chordal_serve::impl_to_json;

/// Edge-retention numbers for one graph.
#[derive(Debug, Clone)]
pub struct FractionRow {
    /// Graph name.
    pub graph: String,
    /// Total number of edges in the input.
    pub edges: usize,
    /// Chordal edges found by Algorithm 1.
    pub algorithm1_edges: usize,
    /// Percentage of edges retained by Algorithm 1.
    pub algorithm1_percent: f64,
    /// Chordal edges found by the Dearing baseline.
    pub dearing_edges: usize,
    /// Percentage of edges retained by the Dearing baseline.
    pub dearing_percent: f64,
}

impl_to_json!(FractionRow {
    graph,
    edges,
    algorithm1_edges,
    algorithm1_percent,
    dearing_edges,
    dearing_percent
});

/// Measures retention for the whole suite (single scale plus the biological
/// networks; the scale sweep is covered by Table I / Figure 4 workloads).
pub fn run(options: &HarnessOptions) -> Vec<FractionRow> {
    let mut graphs = rmat_suite(options.rmat_scale);
    graphs.extend(bio_suite(options.genes));
    // Two sessions reused across the whole suite: workspace allocations are
    // paid once per algorithm, not once per graph.
    let mut alg1_session = ExtractionSession::new(ExtractorConfig::default());
    let mut dearing_session = ExtractionSession::with_algorithm(Algorithm::Dearing);
    graphs
        .iter()
        .map(|named| fraction_row(named, &mut alg1_session, &mut dearing_session))
        .collect()
}

/// One graph's row, extracted through the two sessions.
fn fraction_row(
    named: &NamedGraph,
    alg1_session: &mut ExtractionSession,
    dearing_session: &mut ExtractionSession,
) -> FractionRow {
    let alg1 = alg1_session.extract(&named.graph);
    let dearing = dearing_session.extract(&named.graph);
    FractionRow {
        graph: named.name.clone(),
        edges: named.graph.num_edges(),
        algorithm1_edges: alg1.num_chordal_edges(),
        algorithm1_percent: 100.0 * alg1.chordal_fraction(&named.graph),
        dearing_edges: dearing.num_chordal_edges(),
        dearing_percent: 100.0 * dearing.chordal_fraction(&named.graph),
    }
}

/// Runs, prints and records.
pub fn run_and_print(options: &HarnessOptions) -> Vec<FractionRow> {
    let rows = run(options);
    println!("Chordal edge fraction (Section V)");
    println!(
        "  {:<16} {:>12} {:>12} {:>8} {:>12} {:>8}",
        "graph", "edges", "alg1 edges", "alg1 %", "dearing", "dearing %"
    );
    for r in &rows {
        println!(
            "  {:<16} {:>12} {:>12} {:>8.2} {:>12} {:>8.2}",
            r.graph,
            r.edges,
            r.algorithm1_edges,
            r.algorithm1_percent,
            r.dearing_edges,
            r.dearing_percent
        );
    }
    let records: Vec<_> = rows
        .iter()
        .map(|r| ExperimentRecord {
            experiment: "chordal_fraction".to_string(),
            data: r.clone(),
        })
        .collect();
    options.write_records(&records);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::rmat_graph;
    use chordal_generators::rmat::RmatKind;
    use chordal_serve::json::ToJson;

    #[test]
    fn a_record_keeps_its_bytes() {
        let named = rmat_graph(RmatKind::B, 8);
        let record = ExperimentRecord {
            experiment: "chordal_fraction".to_string(),
            data: fraction_row(
                &named,
                &mut ExtractionSession::new(ExtractorConfig::default()),
                &mut ExtractionSession::with_algorithm(Algorithm::Dearing),
            ),
        };
        assert_eq!(
            record.to_json(),
            r#"{"experiment":"chordal_fraction","data":{"graph":"RMAT-B(8)","edges":1469,"algorithm1_edges":462,"algorithm1_percent":31.449965963240302,"dearing_edges":542,"dearing_percent":36.89584751531655}}"#
        );
    }

    #[test]
    fn fractions_are_small_but_nonzero() {
        let rows = run(&HarnessOptions::tiny());
        assert_eq!(rows.len(), 7);
        for r in &rows {
            assert!(
                r.algorithm1_percent > 0.0 && r.algorithm1_percent <= 100.0,
                "{r:?}"
            );
            assert!(
                r.dearing_percent > 0.0 && r.dearing_percent <= 100.0,
                "{r:?}"
            );
            // Algorithm 1 never retains more than the (maximal-by-greedy)
            // Dearing baseline by a large margin, and retains a sizeable
            // fraction of it. On dense module-structured networks the gap is
            // wider (this experiment's gene-network rows show it), hence the
            // generous lower bound.
            let ratio = r.algorithm1_edges as f64 / r.dearing_edges as f64;
            assert!(ratio > 0.2 && ratio < 1.5, "{r:?}");
        }
    }
}
