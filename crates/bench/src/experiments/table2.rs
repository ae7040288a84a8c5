//! Table II: speedup at full parallelism relative to one thread.

use super::scaling::{measure_point, variant_input};
use super::HarnessOptions;
use crate::records::ExperimentRecord;
use crate::workloads::{bio_graph, rmat_graph, NamedGraph};
use chordal_core::AdjacencyMode;
use chordal_generators::{rmat::RmatKind, GeneNetworkKind};
use chordal_serve::impl_to_json;

/// One speedup row: a graph, a variant and the speedup of `max_threads`
/// workers over one worker on the pool engine, with the memory each
/// point's workspace kept.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Graph name.
    pub graph: String,
    /// Vertices of the graph.
    pub vertices: usize,
    /// Directed adjacency entries of the graph (2|E|).
    pub directed_edges: usize,
    /// Engine (`"pool"`).
    pub engine: String,
    /// Variant ("Opt" / "Unopt").
    pub variant: String,
    /// Threads used for the parallel measurement.
    pub threads: usize,
    /// Single-thread wall-clock seconds.
    pub serial_seconds: f64,
    /// Full-parallelism wall-clock seconds.
    pub parallel_seconds: f64,
    /// `serial_seconds / parallel_seconds`.
    pub speedup: f64,
    /// Bytes the one-thread point's workspace kept
    /// (`Workspace::allocated_bytes`).
    pub serial_workspace_bytes: usize,
    /// Bytes the full-parallelism point's workspace kept.
    pub parallel_workspace_bytes: usize,
}

impl_to_json!(SpeedupRow {
    graph,
    vertices,
    directed_edges,
    engine,
    variant,
    threads,
    serial_seconds,
    parallel_seconds,
    speedup,
    serial_workspace_bytes,
    parallel_workspace_bytes
});

/// Measures Table II: every suite graph × both variants. Each graph is
/// built just before it is measured and dropped after, so the largest
/// graph alone sets the peak memory.
pub fn run(options: &HarnessOptions) -> Vec<SpeedupRow> {
    let mut rows = Vec::new();
    for scale in options.weak_scaling_scales() {
        for kind in RmatKind::all() {
            measure_graph(rmat_graph(kind, scale), options, &mut rows);
        }
    }
    for kind in GeneNetworkKind::all() {
        measure_graph(bio_graph(kind, options.genes), options, &mut rows);
    }
    rows
}

/// Appends one row per variant of `named` to `rows`.
fn measure_graph(named: NamedGraph, options: &HarnessOptions, rows: &mut Vec<SpeedupRow>) {
    let variants = if options.quick {
        vec![AdjacencyMode::Sorted]
    } else {
        vec![AdjacencyMode::Sorted, AdjacencyMode::Unsorted]
    };
    for &variant in &variants {
        let input = variant_input(&named.graph, variant);
        let one = measure_point("table2", &named.name, &input, variant, 1, options.repeats);
        let many = measure_point(
            "table2",
            &named.name,
            &input,
            variant,
            options.max_threads,
            options.repeats,
        );
        rows.push(SpeedupRow {
            graph: named.name.clone(),
            vertices: named.graph.num_vertices(),
            directed_edges: named.graph.num_directed_edges(),
            engine: many.engine,
            variant: variant.label().to_string(),
            threads: options.max_threads,
            serial_seconds: one.seconds,
            parallel_seconds: many.seconds,
            speedup: if many.seconds > 0.0 {
                one.seconds / many.seconds
            } else {
                f64::NAN
            },
            serial_workspace_bytes: one.workspace_bytes,
            parallel_workspace_bytes: many.workspace_bytes,
        });
    }
}

/// Runs, prints and records.
pub fn run_and_print(options: &HarnessOptions) -> Vec<SpeedupRow> {
    let rows = run(options);
    println!(
        "Table II: speedup at {} threads relative to 1 thread",
        options.max_threads
    );
    println!(
        "  {:<16} {:>6} {:>7} {:>12} {:>12} {:>9} {:>11} {:>11}",
        "graph",
        "engine",
        "variant",
        "T(1) [s]",
        "T(max) [s]",
        "speedup",
        "WS(1) [MB]",
        "WS(max) [MB]"
    );
    for r in &rows {
        println!(
            "  {:<16} {:>6} {:>7} {:>12.4} {:>12.4} {:>9.2} {:>11.2} {:>11.2}",
            r.graph,
            r.engine,
            r.variant,
            r.serial_seconds,
            r.parallel_seconds,
            r.speedup,
            r.serial_workspace_bytes as f64 / 1e6,
            r.parallel_workspace_bytes as f64 / 1e6
        );
    }
    let records: Vec<_> = rows
        .iter()
        .map(|r| ExperimentRecord {
            experiment: "table2".to_string(),
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
    fn quick_run_produces_rows_with_positive_times() {
        let rows = run(&HarnessOptions::tiny());
        // quick: (3 RMAT + 4 bio) × 1 variant.
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().all(|r| r.serial_seconds > 0.0));
        assert!(rows.iter().all(|r| r.parallel_seconds > 0.0));
        assert!(rows.iter().all(|r| r.speedup.is_finite()));
        for r in &rows {
            assert!(r.vertices > 0 && r.directed_edges > 0, "{r:?}");
            assert!(r.serial_workspace_bytes > 0, "{r:?}");
            assert!(r.parallel_workspace_bytes > 0, "{r:?}");
        }
    }
}
