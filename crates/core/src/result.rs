//! The output of a maximal chordal subgraph extraction.

use crate::stats::IterationStats;
use chordal_graph::{subgraph::edge_subgraph, CsrGraph, Edge, GraphRef};

/// The chordal edge set `EC` returned by an extraction, together with
/// iteration metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChordalResult {
    num_vertices: usize,
    /// Chordal edges in canonical `(min, max)` orientation, sorted
    /// lexicographically so results from different engines compare equal.
    chordal_edges: Vec<Edge>,
    /// Number of iterations of the outer while-loop.
    pub iterations: usize,
    /// Per-iteration statistics, present when the extraction was configured
    /// with `record_stats`.
    pub stats: Option<IterationStats>,
}

impl ChordalResult {
    /// Assembles a result; edges are canonicalised and sorted.
    pub fn new(
        num_vertices: usize,
        mut chordal_edges: Vec<Edge>,
        iterations: usize,
        stats: Option<IterationStats>,
    ) -> Self {
        for e in &mut chordal_edges {
            if e.0 > e.1 {
                *e = (e.1, e.0);
            }
        }
        chordal_edges.sort_unstable();
        chordal_edges.dedup();
        Self {
            num_vertices,
            chordal_edges,
            iterations,
            stats,
        }
    }

    /// Assembles a result from edges that are already canonical, sorted
    /// and distinct, as Algorithm 1's counting sort lists them; debug
    /// builds check that, release builds trust it.
    pub(crate) fn from_sorted(
        num_vertices: usize,
        chordal_edges: Vec<Edge>,
        iterations: usize,
        stats: Option<IterationStats>,
    ) -> Self {
        debug_assert!(
            chordal_edges.iter().all(|&(u, v)| u < v)
                && chordal_edges.windows(2).all(|pair| pair[0] < pair[1]),
            "edges must be canonical, sorted and distinct"
        );
        Self {
            num_vertices,
            chordal_edges,
            iterations,
            stats,
        }
    }

    /// Number of vertices of the host graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of chordal edges (`|EC|`).
    pub fn num_chordal_edges(&self) -> usize {
        self.chordal_edges.len()
    }

    /// The chordal edges, canonical and sorted.
    pub fn edges(&self) -> &[Edge] {
        &self.chordal_edges
    }

    /// Whether a particular edge was retained. `O(log |EC|)`.
    pub fn contains_edge(&self, u: u32, v: u32) -> bool {
        let key = if u <= v { (u, v) } else { (v, u) };
        self.chordal_edges.binary_search(&key).is_ok()
    }

    /// Fraction of the host graph's edges retained in the chordal subgraph
    /// (the "percentage of chordal edges" the paper reports in Section V).
    pub fn chordal_fraction<'a>(&self, graph: impl Into<GraphRef<'a>>) -> f64 {
        let graph = graph.into();
        if graph.num_edges() == 0 {
            return 0.0;
        }
        self.chordal_edges.len() as f64 / graph.num_edges() as f64
    }

    /// Materialises the chordal subgraph over the host graph's vertex set.
    pub fn subgraph<'a>(&self, graph: impl Into<GraphRef<'a>>) -> CsrGraph {
        let graph = graph.into();
        assert_eq!(
            graph.num_vertices(),
            self.num_vertices,
            "result does not belong to this graph"
        );
        edge_subgraph(graph, &self.chordal_edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chordal_graph::builder::graph_from_edges;

    #[test]
    fn new_canonicalises_and_sorts() {
        let r = ChordalResult::new(4, vec![(2, 1), (0, 1), (1, 2)], 2, None);
        assert_eq!(r.edges(), &[(0, 1), (1, 2)]);
        assert_eq!(r.num_chordal_edges(), 2);
        assert_eq!(r.iterations, 2);
        assert_eq!(r.num_vertices(), 4);
    }

    #[test]
    fn contains_edge_both_orientations() {
        let r = ChordalResult::new(4, vec![(0, 1), (2, 3)], 1, None);
        assert!(r.contains_edge(0, 1));
        assert!(r.contains_edge(1, 0));
        assert!(!r.contains_edge(0, 2));
    }

    #[test]
    fn chordal_fraction_and_subgraph() {
        let g = graph_from_edges(4, vec![(0, 1), (1, 2), (2, 3), (0, 3)]);
        let r = ChordalResult::new(4, vec![(0, 1), (1, 2), (2, 3)], 3, None);
        assert!((r.chordal_fraction(&g) - 0.75).abs() < 1e-12);
        let sub = r.subgraph(&g);
        assert_eq!(sub.num_edges(), 3);
        assert!(!sub.has_edge(0, 3));
    }

    #[test]
    fn chordal_fraction_of_empty_graph_is_zero() {
        let g = CsrGraph::empty(3);
        let r = ChordalResult::new(3, vec![], 0, None);
        assert_eq!(r.chordal_fraction(&g), 0.0);
    }

    #[test]
    #[should_panic]
    fn subgraph_panics_on_mismatched_graph() {
        let g = graph_from_edges(3, vec![(0, 1)]);
        let r = ChordalResult::new(5, vec![(0, 1)], 1, None);
        let _ = r.subgraph(&g);
    }
}
