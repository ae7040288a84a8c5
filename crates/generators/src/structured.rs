//! Deterministic structured graph generators used throughout the test suite
//! and the examples: paths, cycles, cliques, stars, grids, bipartite graphs
//! and trees.

use chordal_graph::builder::graph_from_edges;
use chordal_graph::{CsrGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A path `0 - 1 - … - (n-1)`.
pub fn path(n: usize) -> CsrGraph {
    graph_from_edges(n, (1..n).map(|v| ((v - 1) as VertexId, v as VertexId)))
}

/// A cycle on `n ≥ 3` vertices. For `n < 3` this returns a path.
pub fn cycle(n: usize) -> CsrGraph {
    if n < 3 {
        return path(n);
    }
    let closing = ((n - 1) as VertexId, 0);
    graph_from_edges(
        n,
        (1..n)
            .map(|v| ((v - 1) as VertexId, v as VertexId))
            .chain([closing]),
    )
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> CsrGraph {
    graph_from_edges(
        n,
        (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u as VertexId, v as VertexId))),
    )
}

/// A star `K_{1, n-1}` with vertex 0 at the centre.
pub fn star(n: usize) -> CsrGraph {
    graph_from_edges(n, (1..n).map(|v| (0, v as VertexId)))
}

/// A `rows × cols` 2-D grid graph (4-neighbour connectivity).
pub fn grid(rows: usize, cols: usize) -> CsrGraph {
    let n = rows * cols;
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c)));
            }
        }
    }
    graph_from_edges(n, edges)
}

/// The complete bipartite graph `K_{a,b}` with parts `0..a` and `a..a+b`.
pub fn complete_bipartite(a: usize, b: usize) -> CsrGraph {
    graph_from_edges(
        a + b,
        (0..a).flat_map(|u| (a..a + b).map(move |v| (u as VertexId, v as VertexId))),
    )
}

/// A uniformly random labelled tree on `n` vertices (random attachment:
/// vertex `v` connects to a uniformly random earlier vertex).
pub fn random_tree(n: usize, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    graph_from_edges(
        n,
        (1..n).map(|v| (rng.gen_range(0..v) as VertexId, v as VertexId)),
    )
}

/// A complete binary tree on `n` vertices (vertex `v`'s children are
/// `2v + 1` and `2v + 2`).
pub fn binary_tree(n: usize) -> CsrGraph {
    graph_from_edges(
        n,
        (1..n).map(|v| (((v - 1) / 2) as VertexId, v as VertexId)),
    )
}

/// Disjoint union of `k` cliques each of size `size`. Useful for stressing
/// the paper's observation that dense components need `size - 1` iterations.
pub fn disjoint_cliques(k: usize, size: usize) -> CsrGraph {
    let mut edges = Vec::new();
    for c in 0..k {
        let base = c * size;
        for u in base..base + size {
            for v in (u + 1)..base + size {
                edges.push((u as VertexId, v as VertexId));
            }
        }
    }
    graph_from_edges(k * size, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chordal_graph::traversal::connected_components;

    #[test]
    fn path_properties() {
        let g = path(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(path(0).num_edges(), 0);
        assert_eq!(path(1).num_edges(), 0);
    }

    #[test]
    fn cycle_properties() {
        let g = cycle(6);
        assert_eq!(g.num_edges(), 6);
        assert!((0..6).all(|v| g.degree(v) == 2));
        // small n degrades to path
        assert_eq!(cycle(2).num_edges(), 1);
    }

    #[test]
    fn complete_graph_properties() {
        let g = complete(6);
        assert_eq!(g.num_edges(), 15);
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn star_properties() {
        let g = star(7);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.degree(0), 6);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn grid_properties() {
        let g = grid(3, 4);
        assert_eq!(g.num_vertices(), 12);
        // edges: 3*3 horizontal + 2*4 vertical = 17
        assert_eq!(g.num_edges(), 17);
        assert!(connected_components(&g).is_connected());
    }

    #[test]
    fn complete_bipartite_properties() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 12);
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(4), 3);
    }

    #[test]
    fn trees_are_connected_and_acyclic() {
        for &n in &[1usize, 2, 10, 100] {
            let t = random_tree(n, 13);
            assert_eq!(t.num_edges(), n.saturating_sub(1));
            assert!(connected_components(&t).is_connected() || n == 0);
            let bt = binary_tree(n);
            assert_eq!(bt.num_edges(), n.saturating_sub(1));
            assert!(connected_components(&bt).is_connected() || n == 0);
        }
    }

    #[test]
    fn random_tree_deterministic_by_seed() {
        assert_eq!(random_tree(50, 1), random_tree(50, 1));
    }

    #[test]
    fn disjoint_cliques_components() {
        let g = disjoint_cliques(3, 4);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 3 * 6);
        assert_eq!(connected_components(&g).count, 3);
    }
}
