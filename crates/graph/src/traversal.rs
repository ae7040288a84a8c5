//! Breadth-first traversal, connected components and traversal-based
//! vertex orderings.
//!
//! The paper relies on a BFS numbering of the vertices to guarantee that the
//! chordal edge set produced by Algorithm 1 is connected (Section III,
//! discussion after Theorem 2). The helpers here produce such orderings and
//! the connected-component labelling used by the component-stitching step.

use crate::{CsrGraph, VertexId, NO_VERTEX};
use std::collections::VecDeque;

/// Distance label meaning "unreachable from the BFS source".
pub const UNREACHABLE: u32 = u32::MAX;

/// Breadth-first search from `source`, returning the distance (in hops) of
/// every vertex; unreachable vertices get [`UNREACHABLE`].
pub fn bfs_levels(graph: &CsrGraph, source: VertexId) -> Vec<u32> {
    let n = graph.num_vertices();
    let mut dist = vec![UNREACHABLE; n];
    if (source as usize) >= n {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in graph.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// A full BFS ordering of *all* vertices: components are visited one after
/// another, each from its lowest-numbered unvisited vertex. Every vertex
/// appears exactly once.
pub fn bfs_order_all(graph: &CsrGraph) -> Vec<VertexId> {
    let n = graph.num_vertices();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        queue.push_back(start as VertexId);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &v in graph.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    order
}

/// Result of a connected-components labelling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// Component id of every vertex, in `0..count`. Ids are assigned in
    /// order of the lowest-numbered vertex of each component.
    pub labels: Vec<u32>,
    /// Number of connected components.
    pub count: usize,
}

impl Components {
    /// Size (number of vertices) of every component.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &c in &self.labels {
            sizes[c as usize] += 1;
        }
        sizes
    }

    /// Vertices of every component, grouped.
    pub fn members(&self) -> Vec<Vec<VertexId>> {
        let mut members = vec![Vec::new(); self.count];
        for (v, &c) in self.labels.iter().enumerate() {
            members[c as usize].push(v as VertexId);
        }
        members
    }

    /// Whether the graph is connected (and non-empty counts as connected
    /// only when there is exactly one component).
    pub fn is_connected(&self) -> bool {
        self.count <= 1
    }
}

/// Labels connected components with consecutive ids using BFS.
pub fn connected_components(graph: &CsrGraph) -> Components {
    let n = graph.num_vertices();
    let mut labels = vec![NO_VERTEX; n];
    let mut count = 0usize;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if labels[start] != NO_VERTEX {
            continue;
        }
        let id = count as VertexId;
        count += 1;
        labels[start] = id;
        queue.push_back(start as VertexId);
        while let Some(u) = queue.pop_front() {
            for &v in graph.neighbors(u) {
                if labels[v as usize] == NO_VERTEX {
                    labels[v as usize] = id;
                    queue.push_back(v);
                }
            }
        }
    }
    Components { labels, count }
}

/// Produces a permutation `perm` such that `perm[old_id] = new_id`, where new
/// ids follow a BFS order over all components. Relabelling a connected graph
/// with this permutation guarantees (per the paper) that Algorithm 1 returns
/// a connected chordal edge set.
pub fn bfs_numbering(graph: &CsrGraph) -> Vec<VertexId> {
    let order = bfs_order_all(graph);
    let mut perm = vec![0 as VertexId; graph.num_vertices()];
    for (new_id, &old_id) in order.iter().enumerate() {
        perm[old_id as usize] = new_id as VertexId;
    }
    perm
}

/// Eccentricity-style helper: the largest finite BFS distance from `source`.
pub fn bfs_eccentricity(graph: &CsrGraph, source: VertexId) -> u32 {
    bfs_levels(graph, source)
        .into_iter()
        .filter(|&d| d != UNREACHABLE)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn two_triangles() -> CsrGraph {
        // component A: 0-1-2 triangle, component B: 3-4-5 triangle
        graph_from_edges(6, vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    }

    #[test]
    fn bfs_levels_on_path() {
        let g = graph_from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(bfs_levels(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_levels(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_levels_marks_unreachable() {
        let g = two_triangles();
        let d = bfs_levels(&g, 0);
        assert_eq!(d[3], UNREACHABLE);
        assert_eq!(d[1], 1);
    }

    #[test]
    fn bfs_levels_out_of_range_source() {
        let g = two_triangles();
        let d = bfs_levels(&g, 100);
        assert!(d.iter().all(|&x| x == UNREACHABLE));
    }

    #[test]
    fn bfs_order_visits_component_once() {
        let g = two_triangles();
        let order_all = bfs_order_all(&g);
        assert_eq!(order_all.len(), 6);
        let mut sorted = order_all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn connected_components_counts_and_labels() {
        let g = two_triangles();
        let comps = connected_components(&g);
        assert_eq!(comps.count, 2);
        assert!(!comps.is_connected());
        assert_eq!(comps.labels[0], comps.labels[1]);
        assert_eq!(comps.labels[3], comps.labels[5]);
        assert_ne!(comps.labels[0], comps.labels[3]);
        assert_eq!(comps.sizes(), vec![3, 3]);
        let members = comps.members();
        assert_eq!(members[0], vec![0, 1, 2]);
        assert_eq!(members[1], vec![3, 4, 5]);
    }

    #[test]
    fn connected_graph_is_single_component() {
        let g = graph_from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        let comps = connected_components(&g);
        assert_eq!(comps.count, 1);
        assert!(comps.is_connected());
    }

    #[test]
    fn isolated_vertices_are_their_own_components() {
        let g = CsrGraph::empty(3);
        let comps = connected_components(&g);
        assert_eq!(comps.count, 3);
    }

    #[test]
    fn bfs_numbering_is_a_permutation() {
        let g = two_triangles();
        let perm = bfs_numbering(&g);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn bfs_eccentricity_of_path_endpoint() {
        let g = graph_from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(bfs_eccentricity(&g, 0), 4);
        assert_eq!(bfs_eccentricity(&g, 2), 2);
    }
}
