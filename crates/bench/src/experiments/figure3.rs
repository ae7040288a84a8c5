//! Figure 3: distribution of shortest path lengths.
//!
//! The paper plots the histogram of pairwise shortest-path lengths for
//! RMAT-ER(10), RMAT-B(10) and GSE5140(UNT): the biological network has a
//! much wider distribution (up to length 19), which the paper links to its
//! well-separated dense modules and higher iteration counts.

use super::HarnessOptions;
use crate::records::ExperimentRecord;
use crate::workloads::{bio_suite, rmat_graph};
use chordal_analysis::paths::{shortest_path_distribution, summarize_distribution};
use chordal_generators::rmat::RmatKind;
use chordal_serve::impl_to_json;

/// Path-length histogram for one graph.
#[derive(Debug, Clone)]
pub struct PathSeries {
    /// Graph name.
    pub graph: String,
    /// `histogram[l]` = number of pairs at distance `l`.
    pub histogram: Vec<u64>,
    /// Largest observed distance.
    pub max_length: usize,
    /// Mean distance.
    pub mean_length: f64,
}

impl_to_json!(PathSeries {
    graph,
    histogram,
    max_length,
    mean_length
});

/// Computes the three Figure-3 histograms.
pub fn run(options: &HarnessOptions) -> Vec<PathSeries> {
    let scale = if options.quick { 8 } else { 10 };
    let mut out = Vec::new();
    let mut graphs = vec![
        rmat_graph(RmatKind::Er, scale),
        rmat_graph(RmatKind::B, scale),
    ];
    if let Some(unt) = bio_suite(options.genes)
        .into_iter()
        .find(|g| g.name.contains("UNT"))
    {
        graphs.push(unt);
    }
    for named in graphs {
        let hist = shortest_path_distribution(&named.graph, None);
        let summary = summarize_distribution(&hist);
        out.push(PathSeries {
            graph: named.name,
            histogram: hist,
            max_length: summary.max_length,
            mean_length: summary.mean_length,
        });
    }
    out
}

/// Runs, prints and records.
pub fn run_and_print(options: &HarnessOptions) -> Vec<PathSeries> {
    let series = run(options);
    println!("Figure 3: distribution of shortest path lengths");
    for s in &series {
        println!(
            "\n  {} (max length {}, mean {:.2})",
            s.graph, s.max_length, s.mean_length
        );
        println!("  {:>8} {:>14}", "length", "pairs");
        for (l, &c) in s.histogram.iter().enumerate() {
            if c > 0 {
                println!("  {l:>8} {c:>14}");
            }
        }
    }
    let records: Vec<_> = series
        .iter()
        .map(|s| ExperimentRecord {
            experiment: "figure3".to_string(),
            data: s.clone(),
        })
        .collect();
    options.write_records(&records);
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bio_network_has_wider_distribution_than_rmat_er() {
        let series = run(&HarnessOptions::tiny());
        assert_eq!(series.len(), 3);
        let er = &series[0];
        let bio = &series[2];
        assert!(
            bio.max_length >= er.max_length,
            "bio max path {} should be at least RMAT-ER's {}",
            bio.max_length,
            er.max_length
        );
        assert!(er.histogram.iter().sum::<u64>() > 0);
    }
}
