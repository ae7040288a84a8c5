//! Vertex relabelling.
//!
//! Algorithm 1 is sensitive to the vertex numbering: the lowest-parent
//! relation, the number of iterations and which maximal chordal subgraph is
//! found all depend on it. The paper recommends a BFS numbering so that the
//! extracted chordal edge set is connected whenever the input is connected.
//! This module applies an arbitrary permutation to a graph and converts edge
//! sets between the original and relabelled id spaces.

use crate::{canonical_edge, CsrGraph, Edge, GraphError, VertexId};

/// Validates that `perm` is a permutation of `0..n`.
pub fn validate_permutation(perm: &[VertexId], n: usize) -> Result<(), GraphError> {
    if perm.len() != n {
        return Err(GraphError::Inconsistent(format!(
            "permutation length {} does not match vertex count {n}",
            perm.len()
        )));
    }
    let mut seen = vec![false; n];
    for &p in perm {
        let p = p as usize;
        if p >= n {
            return Err(GraphError::VertexOutOfRange {
                vertex: p as u64,
                num_vertices: n as u64,
            });
        }
        if seen[p] {
            return Err(GraphError::Inconsistent(format!(
                "duplicate target id {p} in permutation"
            )));
        }
        seen[p] = true;
    }
    Ok(())
}

/// Returns the inverse of a permutation (`inv[new] = old`).
pub fn invert_permutation(perm: &[VertexId]) -> Vec<VertexId> {
    let mut inv = vec![0 as VertexId; perm.len()];
    for (old, &new) in perm.iter().enumerate() {
        inv[new as usize] = old as VertexId;
    }
    inv
}

/// Relabels the graph: vertex `v` of the input becomes `perm[v]` in the
/// output. The adjacency of the output is sorted.
pub fn apply_permutation(graph: &CsrGraph, perm: &[VertexId]) -> Result<CsrGraph, GraphError> {
    validate_permutation(perm, graph.num_vertices())?;
    let edges = graph
        .edges()
        .map(|(u, v)| (perm[u as usize], perm[v as usize]));
    CsrGraph::from_edges(graph.num_vertices(), edges.collect())
}

/// Maps an edge set expressed in relabelled ids back to the original ids
/// using the *inverse* permutation (`inv[new] = old`).
pub fn map_edges_back(edges: &[Edge], inverse_perm: &[VertexId]) -> Vec<Edge> {
    edges
        .iter()
        .map(|&(u, v)| canonical_edge(inverse_perm[u as usize], inverse_perm[v as usize]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::traversal::bfs_numbering;

    #[test]
    fn validate_permutation_accepts_identity_rejects_bad() {
        assert!(validate_permutation(&[0, 1, 2], 3).is_ok());
        assert!(validate_permutation(&[2, 1, 0], 3).is_ok());
        assert!(validate_permutation(&[0, 1], 3).is_err());
        assert!(validate_permutation(&[0, 0, 1], 3).is_err());
        assert!(validate_permutation(&[0, 1, 3], 3).is_err());
    }

    #[test]
    fn invert_permutation_roundtrips() {
        let perm = vec![2, 0, 1];
        let inv = invert_permutation(&perm);
        assert_eq!(inv, vec![1, 2, 0]);
        for old in 0..3u32 {
            assert_eq!(inv[perm[old as usize] as usize], old);
        }
    }

    #[test]
    fn apply_permutation_preserves_structure() {
        let g = graph_from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        let perm = vec![3, 2, 1, 0];
        let h = apply_permutation(&g, &perm).unwrap();
        assert_eq!(h.num_edges(), 3);
        // 0-1 becomes 3-2, 1-2 becomes 2-1, 2-3 becomes 1-0.
        assert!(h.has_edge(3, 2));
        assert!(h.has_edge(2, 1));
        assert!(h.has_edge(1, 0));
        assert!(!h.has_edge(0, 3));
        // Degrees are permuted accordingly.
        for v in 0..4u32 {
            assert_eq!(g.degree(v), h.degree(perm[v as usize]));
        }
    }

    #[test]
    fn apply_permutation_rejects_invalid() {
        let g = graph_from_edges(3, vec![(0, 1)]);
        assert!(apply_permutation(&g, &[0, 0, 1]).is_err());
    }

    #[test]
    fn map_edges_back_restores_original_ids() {
        let g = graph_from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        let perm = bfs_numbering(&g);
        let inv = invert_permutation(&perm);
        let h = apply_permutation(&g, &perm).unwrap();
        let back = map_edges_back(&h.edges().collect::<Vec<_>>(), &inv);
        let mut back_sorted = back;
        back_sorted.sort_unstable();
        assert_eq!(back_sorted, vec![(0, 1), (1, 2), (2, 3)]);
    }
}
