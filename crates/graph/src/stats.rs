//! Structural statistics reproducing the columns of Table I of the paper:
//! vertex count, edge count, average degree, maximum degree, degree variance
//! and edges-per-vertex ratio.

use crate::CsrGraph;

/// Structural summary of a graph (one row of Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of undirected edges.
    pub edges: usize,
    /// Average degree (2E / V).
    pub avg_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Population variance of the degree distribution.
    pub degree_variance: f64,
    /// Edges divided by vertices (the paper's last column).
    pub edges_per_vertex: f64,
}

impl GraphStats {
    /// Computes the summary for a graph in serial O(V) passes over the
    /// offsets, so every field, the variance's floating-point sum included,
    /// is independent of the pool size.
    pub fn compute(graph: &CsrGraph) -> Self {
        let n = graph.num_vertices();
        let m = graph.num_edges();
        if n == 0 {
            return Self {
                vertices: 0,
                edges: 0,
                avg_degree: 0.0,
                max_degree: 0,
                degree_variance: 0.0,
                edges_per_vertex: 0.0,
            };
        }
        let degrees = || graph.offsets().windows(2).map(|w| w[1] - w[0]);
        let (sum, max_degree) = degrees().fold((0, 0), |(sum, max), d| (sum + d, d.max(max)));
        let avg = sum as f64 / n as f64;
        let variance = degrees()
            .map(|d| {
                let diff = d as f64 - avg;
                diff * diff
            })
            .sum::<f64>()
            / n as f64;
        Self {
            vertices: n,
            edges: m,
            avg_degree: avg,
            max_degree,
            degree_variance: variance,
            edges_per_vertex: m as f64 / n as f64,
        }
    }

    /// Header line of a Table I listing, aligned with [`GraphStats::row`].
    pub fn header() -> String {
        format!(
            "{:<16} {:>12} {:>14} {:>8} {:>8} {:>12} {:>10}",
            "Group", "Vertices", "Edges", "AvgDeg", "MaxDeg", "Variance", "E/V"
        )
    }

    /// This summary as the fixed-width Table I row of the graph `name`,
    /// aligned with [`GraphStats::header`].
    pub fn row(&self, name: &str) -> String {
        format!(
            "{:<16} {:>12} {:>14} {:>8.2} {:>8} {:>12.1} {:>10.2}",
            name,
            self.vertices,
            self.edges,
            self.avg_degree,
            self.max_degree,
            self.degree_variance,
            self.edges_per_vertex
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::CsrGraph;

    #[test]
    fn stats_of_star_graph() {
        // star K_{1,4}: center 0.
        let g = graph_from_edges(5, vec![(0, 1), (0, 2), (0, 3), (0, 4)]);
        let s = GraphStats::compute(&g);
        assert_eq!(s.vertices, 5);
        assert_eq!(s.edges, 4);
        assert_eq!(s.max_degree, 4);
        assert!((s.avg_degree - 1.6).abs() < 1e-12);
        assert!((s.edges_per_vertex - 0.8).abs() < 1e-12);
        // degrees: 4,1,1,1,1 → mean 1.6, variance = (5.76 + 4*0.36)/5 = 1.44
        assert!((s.degree_variance - 1.44).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty_graph() {
        let g = CsrGraph::empty(0);
        let s = GraphStats::compute(&g);
        assert_eq!(s.vertices, 0);
        assert_eq!(s.edges, 0);
        assert_eq!(s.max_degree, 0);
    }

    #[test]
    fn rows_line_up_with_the_header() {
        let k4 = graph_from_edges(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let header = GraphStats::header();
        let row = GraphStats::compute(&k4).row("K4");
        assert_eq!(
            header,
            "Group                Vertices          Edges   AvgDeg   MaxDeg     Variance        E/V"
        );
        assert_eq!(
            row,
            "K4                          4              6     3.00        3          0.0       1.50"
        );
        assert_eq!(row.len(), header.len());
    }

    #[test]
    fn stats_of_regular_graph_have_zero_variance() {
        // 4-cycle is 2-regular.
        let g = graph_from_edges(4, vec![(0, 1), (1, 2), (2, 3), (0, 3)]);
        let s = GraphStats::compute(&g);
        assert!((s.avg_degree - 2.0).abs() < 1e-12);
        assert!(s.degree_variance.abs() < 1e-12);
    }
}
