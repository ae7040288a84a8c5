//! Table I: structural properties of the test suite.

use super::HarnessOptions;
use crate::records::ExperimentRecord;
use crate::workloads::{bio_suite, rmat_suite};
use chordal_graph::{CsrGraph, GraphStats};
use chordal_serve::json::JsonObject;

/// The record of one row: the name, then `GraphStats`' fields in
/// declaration order, the last under the paper's column name
/// (`edges_by_vertices`).
fn row_json((name, stats): &(String, GraphStats)) -> JsonObject {
    JsonObject::new()
        .field("name", name.as_str())
        .field("vertices", stats.vertices)
        .field("edges", stats.edges)
        .field("avg_degree", stats.avg_degree)
        .field("max_degree", stats.max_degree)
        .field("degree_variance", stats.degree_variance)
        .field("edges_by_vertices", stats.edges_per_vertex)
}

/// Computes the Table-I rows, each a graph's name and statistics, for the
/// configured suite: three R-MAT presets at three scales plus the four
/// gene-correlation networks.
pub fn run(options: &HarnessOptions) -> Vec<(String, GraphStats)> {
    let mut rows = Vec::new();
    for scale in options.weak_scaling_scales() {
        for named in rmat_suite(scale) {
            rows.push(row(&named.name, &named.graph));
        }
    }
    for named in bio_suite(options.genes) {
        rows.push(row(&named.name, &named.graph));
    }
    rows
}

/// The row of one named graph.
fn row(name: &str, graph: &CsrGraph) -> (String, GraphStats) {
    (name.to_string(), GraphStats::compute(graph))
}

/// Runs the experiment, prints the table and writes records.
pub fn run_and_print(options: &HarnessOptions) -> Vec<(String, GraphStats)> {
    let rows = run(options);
    println!("Table I: properties of the test suite (reduced scale)");
    println!("{}", GraphStats::header());
    for (name, stats) in &rows {
        println!("{}", stats.row(name));
    }
    let records: Vec<_> = rows
        .iter()
        .map(|row| ExperimentRecord {
            experiment: "table1".to_string(),
            data: row_json(row),
        })
        .collect();
    options.write_records(&records);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use chordal_generators::structured;
    use chordal_serve::json::ToJson;

    #[test]
    fn a_record_keeps_its_bytes() {
        let record = ExperimentRecord {
            experiment: "table1".to_string(),
            data: row_json(&row("star", &structured::star(5))),
        };
        assert_eq!(
            record.to_json(),
            r#"{"experiment":"table1","data":{"name":"star","vertices":5,"edges":4,"avg_degree":1.6,"max_degree":4,"degree_variance":1.4400000000000002,"edges_by_vertices":0.8}}"#
        );
    }

    #[test]
    fn tiny_run_produces_expected_row_count() {
        let rows = run(&HarnessOptions::tiny());
        // quick mode: 1 scale × 3 presets + 4 bio networks.
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().all(|(_, stats)| stats.vertices > 0));
        // Bio networks have a higher edge/vertex ratio than RMAT-ER at tiny
        // scale? Not necessarily at this size; just check fields are filled.
        assert!(rows.iter().all(|(_, stats)| stats.edges > 0));
    }
}
