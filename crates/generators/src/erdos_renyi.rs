//! Classic Erdős–Rényi random graph generators.
//!
//! These complement the R-MAT presets: `G(n, m)` gives precise control over
//! the edge count (useful in weak-scaling sweeps), `G(n, p)` is the textbook
//! model used in several property-based tests.

use chordal_graph::builder::graph_from_edges;
use chordal_graph::{CsrGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates `G(n, m)`: a graph with `n` vertices and exactly `m` distinct
/// edges chosen uniformly at random (self loops excluded). Panics if `m`
/// exceeds the number of possible edges.
pub fn gnm(n: usize, m: usize, seed: u64) -> CsrGraph {
    let possible = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(
        m <= possible,
        "cannot place {m} edges in a simple graph on {n} vertices (max {possible})"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chosen = std::collections::HashSet::with_capacity(m * 2);
    let mut edges = Vec::with_capacity(m);
    while chosen.len() < m {
        let u = rng.gen_range(0..n) as VertexId;
        let v = rng.gen_range(0..n) as VertexId;
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if chosen.insert(key) {
            edges.push(key);
        }
    }
    graph_from_edges(n, edges)
}

/// Generates `G(n, p)`: every possible edge is present independently with
/// probability `p`.
pub fn gnp(n: usize, p: f64, seed: u64) -> CsrGraph {
    assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen::<f64>() < p {
                edges.push((u as VertexId, v as VertexId));
            }
        }
    }
    graph_from_edges(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnm_has_exactly_m_edges() {
        let g = gnm(100, 250, 1);
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 250);
        g.validate_symmetry().unwrap();
    }

    #[test]
    fn gnm_is_deterministic() {
        assert_eq!(gnm(50, 100, 9), gnm(50, 100, 9));
        assert_ne!(gnm(50, 100, 9), gnm(50, 100, 10));
    }

    #[test]
    #[should_panic]
    fn gnm_rejects_impossible_edge_count() {
        let _ = gnm(4, 7, 1);
    }

    #[test]
    fn gnm_complete_graph() {
        let g = gnm(5, 10, 3);
        assert_eq!(g.num_edges(), 10);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn gnp_zero_and_one_probabilities() {
        let empty = gnp(20, 0.0, 1);
        assert_eq!(empty.num_edges(), 0);
        let full = gnp(10, 1.0, 1);
        assert_eq!(full.num_edges(), 45);
    }

    #[test]
    fn gnp_edge_count_near_expectation() {
        let n = 200;
        let p = 0.1;
        let g = gnp(n, p, 7);
        let expected = (n * (n - 1) / 2) as f64 * p;
        let actual = g.num_edges() as f64;
        assert!(
            (actual - expected).abs() < 0.25 * expected,
            "edge count {actual} too far from expectation {expected}"
        );
    }

    #[test]
    #[should_panic]
    fn gnp_rejects_bad_probability() {
        let _ = gnp(10, 1.5, 1);
    }
}
