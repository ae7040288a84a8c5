//! Table II: speedup at full parallelism relative to one thread.

use super::scaling::{measure_point, PreparedGraph};
use super::HarnessOptions;
use crate::impl_to_json;
use crate::records::ExperimentRecord;
use crate::workloads::{bio_suite, rmat_suite};
use chordal_core::AdjacencyMode;

/// One speedup row: a graph, a variant and the speedup of `max_threads`
/// workers over one worker on the pool engine.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Graph name.
    pub graph: String,
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
}

impl_to_json!(SpeedupRow {
    graph,
    engine,
    variant,
    threads,
    serial_seconds,
    parallel_seconds,
    speedup
});

/// Measures Table II: every suite graph × both variants.
pub fn run(options: &HarnessOptions) -> Vec<SpeedupRow> {
    let mut graphs = Vec::new();
    for scale in options.weak_scaling_scales() {
        graphs.extend(rmat_suite(scale));
    }
    graphs.extend(bio_suite(options.genes));

    let mut rows = Vec::new();
    for named in graphs {
        let prepared = PreparedGraph::new(named);
        let variants = if options.quick {
            vec![AdjacencyMode::Sorted]
        } else {
            vec![AdjacencyMode::Sorted, AdjacencyMode::Unsorted]
        };
        for &variant in &variants {
            let one = measure_point("table2", &prepared, variant, 1, options.repeats);
            let many = measure_point(
                "table2",
                &prepared,
                variant,
                options.max_threads,
                options.repeats,
            );
            rows.push(SpeedupRow {
                graph: prepared.name.clone(),
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
            });
        }
    }
    rows
}

/// Runs, prints and records.
pub fn run_and_print(options: &HarnessOptions) -> Vec<SpeedupRow> {
    let rows = run(options);
    println!(
        "Table II: speedup at {} threads relative to 1 thread",
        options.max_threads
    );
    println!(
        "  {:<16} {:>6} {:>7} {:>12} {:>12} {:>9}",
        "graph", "engine", "variant", "T(1) [s]", "T(max) [s]", "speedup"
    );
    for r in &rows {
        println!(
            "  {:<16} {:>6} {:>7} {:>12.4} {:>12.4} {:>9.2}",
            r.graph, r.engine, r.variant, r.serial_seconds, r.parallel_seconds, r.speedup
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
    }
}
