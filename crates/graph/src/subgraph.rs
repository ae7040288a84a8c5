//! Subgraph extraction helpers.
//!
//! The chordal extraction algorithms return an edge set `EC ⊆ E`; these
//! helpers materialise that edge set as a [`CsrGraph`] over the same vertex
//! set (an *edge-induced spanning subgraph*) or restrict a graph to a subset
//! of its vertices (a *vertex-induced subgraph*, used by the partitioned
//! baseline).

use crate::{CsrGraph, Edge, GraphRef, VertexId, NO_VERTEX};

/// Builds the spanning subgraph of `graph` containing exactly the edges in
/// `edges`. Vertex ids are preserved; vertices not covered by any edge become
/// isolated. Edges not present in `graph` are still included — callers that
/// care should validate separately (see
/// [`edges_subset_of_graph`]).
pub fn edge_subgraph<'a>(graph: impl Into<GraphRef<'a>>, edges: &[Edge]) -> CsrGraph {
    CsrGraph::from_edges(graph.into().num_vertices(), edges.to_vec())
        .expect("edge endpoints must be valid vertices of the host graph")
}

/// Checks that every edge in `edges` is an edge of `graph`.
pub fn edges_subset_of_graph<'a>(graph: impl Into<GraphRef<'a>>, edges: &[Edge]) -> bool {
    let graph = graph.into();
    edges.iter().all(|&(u, v)| graph.has_edge(u, v))
}

/// Result of extracting a vertex-induced subgraph.
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    /// The induced subgraph with vertices renumbered `0..k`.
    pub graph: CsrGraph,
    /// Maps local (subgraph) ids back to ids of the host graph.
    pub local_to_global: Vec<VertexId>,
    /// Maps host ids to local ids; vertices outside the subset map to
    /// [`NO_VERTEX`].
    pub global_to_local: Vec<VertexId>,
}

/// Extracts the subgraph induced by `vertices` (duplicates ignored), with
/// vertices renumbered consecutively in the order given.
pub fn induced_subgraph<'a>(
    graph: impl Into<GraphRef<'a>>,
    vertices: &[VertexId],
) -> InducedSubgraph {
    let graph = graph.into();
    let n = graph.num_vertices();
    let mut global_to_local = vec![NO_VERTEX; n];
    let mut local_to_global = Vec::with_capacity(vertices.len());
    for &v in vertices {
        if global_to_local[v as usize] == NO_VERTEX {
            global_to_local[v as usize] = local_to_global.len() as VertexId;
            local_to_global.push(v);
        }
    }
    // Each edge is pushed from its larger endpoint's scan as
    // `(smaller, larger)`; a host vertex outside the subset maps to
    // `NO_VERTEX`, which is larger than every local id, so the one
    // comparison skips it. The scan ascends, so every vertex's bucket of
    // larger neighbours arrives in `from_edges` sorted, whatever the order
    // of the host's lists, and the build sorts nothing on the pool.
    let mut edges = Vec::new();
    for (local_u, &global_u) in local_to_global.iter().enumerate() {
        for &global_v in graph.neighbors(global_u) {
            let local_v = global_to_local[global_v as usize];
            if local_v < local_u as VertexId {
                edges.push((local_v, local_u as VertexId));
            }
        }
    }
    let sub = CsrGraph::from_canonical_edges(local_to_global.len(), &edges);
    InducedSubgraph {
        graph: sub,
        local_to_global,
        global_to_local,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn diamond() -> CsrGraph {
        // 0-1, 0-2, 1-2, 1-3, 2-3  (two triangles sharing edge 1-2)
        graph_from_edges(4, vec![(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn edge_subgraph_keeps_only_listed_edges() {
        let g = diamond();
        let sub = edge_subgraph(&g, &[(0, 1), (1, 2)]);
        assert_eq!(sub.num_vertices(), 4);
        assert_eq!(sub.num_edges(), 2);
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 2));
        assert!(!sub.has_edge(2, 3));
        assert_eq!(sub.degree(3), 0);
    }

    #[test]
    fn edges_subset_of_graph_detects_foreign_edges() {
        let g = diamond();
        assert!(edges_subset_of_graph(&g, &[(0, 1), (2, 3)]));
        assert!(!edges_subset_of_graph(&g, &[(0, 3)]));
    }

    #[test]
    fn induced_subgraph_of_triangle() {
        let g = diamond();
        let sub = induced_subgraph(&g, &[1, 2, 3]);
        assert_eq!(sub.graph.num_vertices(), 3);
        assert_eq!(sub.graph.num_edges(), 3); // triangle 1-2-3
        assert_eq!(sub.local_to_global, vec![1, 2, 3]);
        assert_eq!(sub.global_to_local[0], NO_VERTEX);
        assert_eq!(sub.global_to_local[1], 0);
    }

    #[test]
    fn induced_subgraph_ignores_duplicates_and_preserves_order() {
        let g = diamond();
        let sub = induced_subgraph(&g, &[3, 1, 3, 1]);
        assert_eq!(sub.local_to_global, vec![3, 1]);
        assert_eq!(sub.graph.num_edges(), 1); // edge 1-3
        assert!(sub.graph.has_edge(0, 1));
    }

    #[test]
    fn induced_subgraph_of_disjoint_vertices_has_no_edges() {
        let g = diamond();
        let sub = induced_subgraph(&g, &[0, 3]);
        assert_eq!(sub.graph.num_edges(), 0);
    }
}
