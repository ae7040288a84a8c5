//! Table I: structural properties of the test suite.

use super::HarnessOptions;
use crate::records::ExperimentRecord;
use crate::workloads::{bio_suite, rmat_suite};
use chordal_analysis::TableRow;
use chordal_serve::json::JsonObject;

/// The record of one row. `TableRow` lives in chordal-analysis, so its
/// fields are written here, in declaration order.
fn row_json(row: &TableRow) -> JsonObject {
    JsonObject::new()
        .field("name", row.name.as_str())
        .field("vertices", row.vertices)
        .field("edges", row.edges)
        .field("avg_degree", row.avg_degree)
        .field("max_degree", row.max_degree)
        .field("degree_variance", row.degree_variance)
        .field("edges_by_vertices", row.edges_by_vertices)
}

/// Computes the Table-I rows for the configured suite: three R-MAT presets
/// at three scales plus the four gene-correlation networks.
pub fn run(options: &HarnessOptions) -> Vec<TableRow> {
    let mut rows = Vec::new();
    for scale in options.weak_scaling_scales() {
        for named in rmat_suite(scale) {
            rows.push(TableRow::compute(&named.name, &named.graph));
        }
    }
    for named in bio_suite(options.genes) {
        rows.push(TableRow::compute(&named.name, &named.graph));
    }
    rows
}

/// Runs the experiment, prints the table and writes records.
pub fn run_and_print(options: &HarnessOptions) -> Vec<TableRow> {
    let rows = run(options);
    println!("Table I: properties of the test suite (reduced scale)");
    println!("{}", TableRow::header());
    for row in &rows {
        println!("{}", row.format());
    }
    let records: Vec<_> = rows
        .iter()
        .map(|r| ExperimentRecord {
            experiment: "table1".to_string(),
            data: row_json(r),
        })
        .collect();
    options.write_records(&records);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_expected_row_count() {
        let rows = run(&HarnessOptions::tiny());
        // quick mode: 1 scale × 3 presets + 4 bio networks.
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().all(|r| r.vertices > 0));
        // Bio networks have a higher edge/vertex ratio than RMAT-ER at tiny
        // scale? Not necessarily at this size; just check fields are filled.
        assert!(rows.iter().all(|r| r.edges > 0));
    }
}
