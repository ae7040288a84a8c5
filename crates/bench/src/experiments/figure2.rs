//! Figure 2: average clustering coefficient versus number of neighbours.
//!
//! The paper plots this for RMAT-ER and RMAT-B at SCALE 10 (1024 vertices)
//! and for GSE5140(UNT), to show that the biological networks concentrate
//! high clustering at low-degree vertices while the synthetic graphs do not.

use super::HarnessOptions;
use crate::records::ExperimentRecord;
use crate::workloads::{bio_suite, rmat_graph};
use chordal_analysis::clustering::{average_clustering_by_degree, DegreeClustering};
use chordal_generators::rmat::RmatKind;
use chordal_serve::impl_to_json;

/// Figure-2 series for one graph.
#[derive(Debug, Clone)]
pub struct ClusteringSeries {
    /// Graph name.
    pub graph: String,
    /// Average clustering coefficient per degree.
    pub points: Vec<Point>,
}

/// One (degree, average clustering) point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Vertex degree.
    pub degree: usize,
    /// Number of vertices with that degree.
    pub count: usize,
    /// Average clustering coefficient of those vertices.
    pub average_clustering: f64,
}

impl_to_json!(ClusteringSeries { graph, points });
impl_to_json!(Point {
    degree,
    count,
    average_clustering
});

impl From<DegreeClustering> for Point {
    fn from(d: DegreeClustering) -> Self {
        Point {
            degree: d.degree,
            count: d.count,
            average_clustering: d.average_clustering,
        }
    }
}

/// The paper's Figure-2 inputs: RMAT-ER(10), RMAT-B(10) and GSE5140(UNT).
pub fn run(options: &HarnessOptions) -> Vec<ClusteringSeries> {
    let scale = if options.quick { 8 } else { 10 };
    let mut series = Vec::new();
    for kind in [RmatKind::Er, RmatKind::B] {
        let named = rmat_graph(kind, scale);
        series.push(ClusteringSeries {
            graph: named.name.clone(),
            points: average_clustering_by_degree(&named.graph)
                .into_iter()
                .map(Point::from)
                .collect(),
        });
    }
    let bio = bio_suite(options.genes);
    if let Some(unt) = bio.into_iter().find(|g| g.name.contains("UNT")) {
        series.push(ClusteringSeries {
            graph: unt.name.clone(),
            points: average_clustering_by_degree(&unt.graph)
                .into_iter()
                .map(Point::from)
                .collect(),
        });
    }
    series
}

/// Runs, prints a condensed view (binned degrees) and writes records.
pub fn run_and_print(options: &HarnessOptions) -> Vec<ClusteringSeries> {
    let series = run(options);
    println!("Figure 2: average clustering coefficient vs number of neighbours");
    for s in &series {
        let max_cc = s
            .points
            .iter()
            .map(|p| p.average_clustering)
            .fold(0.0f64, f64::max);
        println!("\n  {} (max avg clustering {:.3})", s.graph, max_cc);
        println!("  {:>8} {:>8} {:>14}", "degree", "count", "avg clustering");
        for p in condense(&s.points, 12) {
            println!(
                "  {:>8} {:>8} {:>14.4}",
                p.degree, p.count, p.average_clustering
            );
        }
    }
    let records: Vec<_> = series
        .iter()
        .map(|s| ExperimentRecord {
            experiment: "figure2".to_string(),
            data: s.clone(),
        })
        .collect();
    options.write_records(&records);
    series
}

/// Picks at most `n` representative points spread over the degree range, so
/// the printed table stays readable.
fn condense(points: &[Point], n: usize) -> Vec<Point> {
    if points.len() <= n {
        return points.to_vec();
    }
    let step = points.len() as f64 / n as f64;
    (0..n)
        .map(|i| points[(i as f64 * step) as usize].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_three_series_with_points() {
        let series = run(&HarnessOptions::tiny());
        assert_eq!(series.len(), 3);
        assert!(series.iter().all(|s| !s.points.is_empty()));
        // The biological network shows much higher peak clustering than
        // RMAT-ER — the qualitative contrast of the paper's Figure 2.
        let er_max = series[0]
            .points
            .iter()
            .map(|p| p.average_clustering)
            .fold(0.0f64, f64::max);
        let bio_max = series[2]
            .points
            .iter()
            .map(|p| p.average_clustering)
            .fold(0.0f64, f64::max);
        assert!(
            bio_max > er_max,
            "bio peak clustering {bio_max} should exceed RMAT-ER {er_max}"
        );
    }

    #[test]
    fn condense_limits_point_count() {
        let points: Vec<Point> = (0..100)
            .map(|d| Point {
                degree: d,
                count: 1,
                average_clustering: 0.0,
            })
            .collect();
        assert_eq!(condense(&points, 10).len(), 10);
        assert_eq!(condense(&points[..5], 10).len(), 5);
    }
}
