//! Lowest-parent helpers.
//!
//! A vertex's *parents* are its neighbours with a smaller identification
//! number; its *lowest parent* (LP) is the smallest of these. Algorithm 1
//! walks every vertex through its parents in increasing order (one parent
//! per iteration in the bulk-synchronous reference). The two variants of the
//! paper differ only in how the next parent is located:
//!
//! * **Sorted (Opt)** — parents form a prefix of the ascending adjacency
//!   list, so the next parent is the next entry; the parallel extractor
//!   reads the prefix straight from the flat adjacency array.
//! * **Unsorted (Unopt)** — the whole neighbour list is scanned for the
//!   smallest id that is larger than the current parent and smaller than the
//!   vertex itself (the helpers below).

use chordal_graph::{VertexId, NO_VERTEX};

/// Finds the lowest parent of `v` by scanning its arbitrarily ordered
/// neighbour list (the Unopt variant).
#[inline]
pub fn first_parent_scan(neighbors: &[VertexId], v: VertexId) -> VertexId {
    let mut best = NO_VERTEX;
    for &w in neighbors {
        if w < v && (best == NO_VERTEX || w < best) {
            best = w;
        }
    }
    best
}

/// Finds the next parent of `v` after `current` by scanning its neighbour
/// list: the smallest neighbour strictly between `current` and `v`.
#[inline]
pub fn next_parent_scan(neighbors: &[VertexId], v: VertexId, current: VertexId) -> VertexId {
    let mut best = NO_VERTEX;
    for &w in neighbors {
        if w > current && w < v && (best == NO_VERTEX || w < best) {
            best = w;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use chordal_graph::builder::graph_from_edges;
    use chordal_graph::CsrGraph;

    fn sample_graph() -> CsrGraph {
        // vertex 4 adjacent to 0, 2, 3, 5; vertex 2 adjacent to 4 only; etc.
        graph_from_edges(6, vec![(0, 4), (2, 4), (3, 4), (4, 5), (0, 1)])
    }

    #[test]
    fn scan_parent_walk_visits_the_sorted_parent_prefix() {
        let graph = sample_graph();
        let scrambled = graph.with_scrambled_adjacency(17);
        for v in 0..6u32 {
            // In a sorted list the parents are the prefix below `v`.
            let expected: Vec<VertexId> = graph
                .neighbors(v)
                .iter()
                .copied()
                .take_while(|&w| w < v)
                .collect();
            let neighbors = scrambled.neighbors(v);
            let mut walk = Vec::new();
            let mut p = first_parent_scan(neighbors, v);
            while p != NO_VERTEX {
                walk.push(p);
                p = next_parent_scan(neighbors, v, p);
            }
            assert_eq!(walk, expected, "vertex {v}");
        }
        // vertex 4: parents 0, 2, 3; vertex 0 has none.
        assert_eq!(first_parent_scan(scrambled.neighbors(0), 0), NO_VERTEX);
        assert_eq!(next_parent_scan(scrambled.neighbors(4), 4, 2), 3);
    }
}
