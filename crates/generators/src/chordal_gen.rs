//! Generators for graphs that are chordal *by construction*.
//!
//! These families are the backbone of the correctness test-suite: running the
//! extraction algorithms on a graph that is already chordal and checking what
//! fraction of edges is retained, or verifying chordality checkers against
//! inputs whose chordality is known a priori.
//!
//! * **k-trees** — start from a `(k+1)`-clique and repeatedly attach a new
//!   vertex to an existing `k`-clique. Every k-tree is chordal and every
//!   maximal chordal subgraph of a k-tree is the k-tree itself.
//! * **Interval graphs** — vertices are intervals on a line, edges join
//!   overlapping intervals; always chordal.
//! * **Augmented trees** — a tree plus its "triangulating" parent-of-parent
//!   edges, a light-weight chordal family with controllable density.

use chordal_graph::builder::graph_from_edges;
use chordal_graph::{CsrGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a random k-tree on `n ≥ k + 1` vertices.
///
/// The construction keeps the list of k-cliques created so far and attaches
/// every new vertex to one chosen uniformly at random, which yields chordal
/// graphs with treewidth exactly `k`.
pub fn k_tree(n: usize, k: usize, seed: u64) -> CsrGraph {
    assert!(k >= 1, "k must be at least 1");
    assert!(n > k, "a k-tree needs at least k + 1 vertices");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    // Initial (k+1)-clique on vertices 0..=k.
    for u in 0..=k {
        for v in (u + 1)..=k {
            edges.push((u as VertexId, v as VertexId));
        }
    }
    // All k-subsets of the initial clique are attachable k-cliques.
    let mut cliques: Vec<Vec<VertexId>> = (0..=k)
        .map(|skip| {
            (0..=k)
                .filter(|&x| x != skip)
                .map(|x| x as VertexId)
                .collect()
        })
        .collect();
    for v in (k + 1)..n {
        let idx = rng.gen_range(0..cliques.len());
        let base = cliques[idx].clone();
        edges.extend(base.iter().map(|&u| (u, v as VertexId)));
        // The new vertex forms k new k-cliques with each (k-1)-subset of the
        // base clique.
        for skip in 0..base.len() {
            let mut new_clique: Vec<VertexId> = base
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, &u)| u)
                .collect();
            new_clique.push(v as VertexId);
            cliques.push(new_clique);
        }
    }
    graph_from_edges(n, edges)
}

/// Generates a random interval graph: `n` intervals with uniformly random
/// endpoints in `[0, 1)`; two vertices are adjacent iff their intervals
/// overlap. Interval graphs are chordal.
pub fn interval_graph(n: usize, mean_length: f64, seed: u64) -> CsrGraph {
    assert!(mean_length > 0.0, "interval length must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let intervals: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            let start = rng.gen::<f64>();
            let len = rng.gen::<f64>() * 2.0 * mean_length;
            (start, start + len)
        })
        .collect();
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let (a1, b1) = intervals[u];
            let (a2, b2) = intervals[v];
            if a1 <= b2 && a2 <= b1 {
                edges.push((u as VertexId, v as VertexId));
            }
        }
    }
    graph_from_edges(n, edges)
}

/// A tree on `n` vertices where every vertex is additionally connected to its
/// grandparent, producing a chordal graph (every cycle is a triangle through
/// a parent).
pub fn augmented_tree(n: usize, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut parent = vec![0usize; n];
    let mut edges = Vec::new();
    for v in 1..n {
        let p = rng.gen_range(0..v);
        parent[v] = p;
        edges.push((p as VertexId, v as VertexId));
        if p != 0 || v > 1 {
            let gp = parent[p];
            if gp != v && gp != p {
                edges.push((gp as VertexId, v as VertexId));
            }
        }
    }
    graph_from_edges(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chordal_graph::traversal::connected_components;

    #[test]
    fn k_tree_edge_count_matches_formula() {
        // A k-tree on n vertices has k(k+1)/2 + (n - k - 1) * k edges.
        for &(n, k) in &[(5usize, 1usize), (10, 2), (20, 3), (30, 4)] {
            let g = k_tree(n, k, 99);
            let expected = k * (k + 1) / 2 + (n - k - 1) * k;
            assert_eq!(g.num_edges(), expected, "n={n} k={k}");
            assert!(connected_components(&g).is_connected());
        }
    }

    #[test]
    fn k_tree_is_deterministic() {
        assert_eq!(k_tree(25, 3, 7), k_tree(25, 3, 7));
    }

    #[test]
    #[should_panic]
    fn k_tree_rejects_too_few_vertices() {
        let _ = k_tree(3, 3, 1);
    }

    #[test]
    fn one_tree_is_a_tree_plus_nothing() {
        // k = 1: a 1-tree is just a tree.
        let g = k_tree(10, 1, 5);
        assert_eq!(g.num_edges(), 9);
    }

    #[test]
    fn interval_graph_reasonable_density() {
        let g = interval_graph(60, 0.05, 11);
        assert_eq!(g.num_vertices(), 60);
        assert!(g.num_edges() > 0);
        // With long intervals the graph approaches a clique. A handful of
        // intervals still draw near-zero lengths, so require ≥ 90% of the
        // clique rather than equality.
        let dense = interval_graph(30, 10.0, 11);
        assert!(dense.num_edges() * 10 >= (30 * 29 / 2) * 9);
    }

    #[test]
    fn augmented_tree_connected_and_denser_than_tree() {
        let g = augmented_tree(100, 3);
        assert!(connected_components(&g).is_connected());
        assert!(g.num_edges() >= 99);
        assert!(g.num_edges() <= 2 * 99);
    }
}
