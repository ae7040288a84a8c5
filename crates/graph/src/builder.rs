//! One-line graph construction.

use crate::{CsrGraph, VertexId};

/// Builds a graph from edges over `num_vertices` vertices, in any
/// orientation, with self loops and repeats dropped: shorthand for
/// [`CsrGraph::from_edges`], used by the generators and pervasively in
/// tests. Panics on an endpoint at or past `num_vertices`.
pub fn graph_from_edges<I: IntoIterator<Item = (VertexId, VertexId)>>(
    num_vertices: usize,
    edges: I,
) -> CsrGraph {
    CsrGraph::from_edges(num_vertices, edges.into_iter().collect())
        .expect("edge endpoints must be below num_vertices")
}
