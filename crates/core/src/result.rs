//! The output of a maximal chordal subgraph extraction.

use crate::stats::IterationStats;
use chordal_graph::{subgraph::edge_subgraph, CsrGraph, Edge, GraphRef};

/// The chordal edge set `EC` returned by an extraction, together with
/// iteration metadata.
#[derive(Debug, Clone)]
pub struct ChordalResult {
    num_vertices: usize,
    /// Chordal edges in canonical `(min, max)` orientation, sorted
    /// lexicographically so results from different engines compare equal.
    chordal_edges: Vec<Edge>,
    /// Number of iterations of the outer while-loop.
    pub iterations: usize,
    /// Per-iteration statistics, present when the extractor was configured
    /// with `record_stats`.
    pub stats: Option<IterationStats>,
    /// Wall-clock nanoseconds of the extraction that produced this result,
    /// stamped by the session paths (`0` when the producer did not time the
    /// run). Serve's `EXTRACT` reply reports it as its `extract_ns` field,
    /// which the benchmark reads; it is *metadata*, excluded from equality
    /// so timing noise can never make identical extractions compare
    /// unequal.
    extract_ns: u64,
}

impl PartialEq for ChordalResult {
    fn eq(&self, other: &Self) -> bool {
        // `extract_ns` is timing metadata, deliberately ignored.
        self.num_vertices == other.num_vertices
            && self.chordal_edges == other.chordal_edges
            && self.iterations == other.iterations
            && self.stats == other.stats
    }
}

impl Eq for ChordalResult {}

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
            extract_ns: 0,
        }
    }

    /// Wall-clock nanoseconds of the producing extraction, or `0` when the
    /// producer did not time the run. Stamped by
    /// [`crate::ExtractionSession`]'s single and batch paths; reported as
    /// the `extract_ns` field of serve's `EXTRACT` reply, which the
    /// benchmark reads.
    pub fn extract_ns(&self) -> u64 {
        self.extract_ns
    }

    /// Stamps the wall-clock duration of the extraction that produced this
    /// result (see [`ChordalResult::extract_ns`]).
    pub fn set_extract_ns(&mut self, nanos: u64) {
        self.extract_ns = nanos;
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

    /// Consumes the result and returns the edge vector.
    pub fn into_edges(self) -> Vec<Edge> {
        self.chordal_edges
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

    /// The chordal neighbours of every vertex (adjacency of the chordal
    /// subgraph restricted to lower-numbered neighbours, i.e. the paper's
    /// `C[v]` sets at termination).
    pub fn chordal_parent_sets(&self) -> Vec<Vec<u32>> {
        let mut sets = vec![Vec::new(); self.num_vertices];
        for &(u, v) in &self.chordal_edges {
            // u < v, so u is a chordal parent of v.
            sets[v as usize].push(u);
        }
        sets
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
    fn chordal_parent_sets_list_lower_endpoints() {
        let r = ChordalResult::new(4, vec![(0, 2), (1, 2), (2, 3)], 1, None);
        let sets = r.chordal_parent_sets();
        assert_eq!(sets[0], Vec::<u32>::new());
        assert_eq!(sets[2], vec![0, 1]);
        assert_eq!(sets[3], vec![2]);
    }

    #[test]
    fn extract_ns_is_metadata_outside_equality() {
        let mut timed = ChordalResult::new(3, vec![(0, 1)], 1, None);
        let untimed = timed.clone();
        assert_eq!(timed.extract_ns(), 0);
        timed.set_extract_ns(12_345);
        assert_eq!(timed.extract_ns(), 12_345);
        assert_eq!(timed, untimed, "timing must not affect equality");
    }

    #[test]
    fn into_edges_returns_sorted_edges() {
        let r = ChordalResult::new(3, vec![(1, 2), (0, 1)], 1, None);
        assert_eq!(r.into_edges(), vec![(0, 1), (1, 2)]);
    }

    #[test]
    #[should_panic]
    fn subgraph_panics_on_mismatched_graph() {
        let g = graph_from_edges(3, vec![(0, 1)]);
        let r = ChordalResult::new(5, vec![(0, 1)], 1, None);
        let _ = r.subgraph(&g);
    }
}
