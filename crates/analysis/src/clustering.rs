//! Clustering coefficients (Figure 2 of the paper).
//!
//! The paper contrasts the R-MAT inputs with the gene-correlation networks
//! by plotting the *average clustering coefficient versus the number of
//! neighbours*: in the biological networks, low-degree vertices have high
//! clustering and hubs have low clustering (assortative, module-structured),
//! whereas the synthetic graphs show no such pattern.

use chordal_core::kernels::intersect_count;
use chordal_graph::{CsrGraph, VertexId};
use chordal_runtime::{pool_size, Engine};

/// Triangles incident on `v`, counting each once per later-neighbour pair.
///
/// On sorted adjacency every pair test collapses into one adaptive sorted
/// intersection per neighbour (`N(v)[i+1..] ∩ N(a)` — both ascending and
/// duplicate-free, so `a != b` is implicit); an unsorted graph keeps the
/// exact pairwise `has_edge` scan, which tolerates any ordering.
fn triangles_at(graph: &CsrGraph, v: VertexId, sorted: bool) -> usize {
    let neigh = graph.neighbors(v);
    if sorted {
        neigh
            .iter()
            .enumerate()
            .map(|(i, &a)| intersect_count(&neigh[i + 1..], graph.neighbors(a)))
            .sum()
    } else {
        let mut t = 0usize;
        for (i, &a) in neigh.iter().enumerate() {
            for &b in &neigh[i + 1..] {
                if a != b && graph.has_edge(a, b) {
                    t += 1;
                }
            }
        }
        t
    }
}

/// Local clustering coefficient of every vertex: the fraction of pairs of
/// neighbours that are themselves adjacent. Vertices of degree < 2 have
/// coefficient 0.
///
/// Sorted adjacency gets the branch-light intersection kernels of
/// [`chordal_core::kernels`]; an unsorted graph is handled correctly but
/// more slowly.
pub fn local_clustering_coefficients(graph: &CsrGraph) -> Vec<f64> {
    let sorted = graph.is_sorted();
    let coefficient = |v: usize| {
        let v = v as VertexId;
        let d = graph.degree(v);
        if d < 2 {
            return 0.0;
        }
        let triangles = triangles_at(graph, v, sorted);
        2.0 * triangles as f64 / (d * (d - 1)) as f64
    };
    Engine::chunked(pool_size())
        .map_pieces(graph.num_vertices(), |range| {
            range.map(coefficient).collect::<Vec<_>>()
        })
        .concat()
}

/// Global average clustering coefficient (mean of the local coefficients).
pub fn average_clustering(graph: &CsrGraph) -> f64 {
    let coeffs = local_clustering_coefficients(graph);
    if coeffs.is_empty() {
        return 0.0;
    }
    coeffs.iter().sum::<f64>() / coeffs.len() as f64
}

/// One point of the Figure-2 scatter: all vertices with `degree` neighbours
/// and their average clustering coefficient.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeClustering {
    /// Vertex degree ("number of neighbours" on the paper's x-axis).
    pub degree: usize,
    /// Number of vertices with this degree.
    pub count: usize,
    /// Average clustering coefficient over those vertices (the y-axis).
    pub average_clustering: f64,
}

/// Average clustering coefficient per degree (the data behind Figure 2),
/// sorted by degree; degrees with no vertices are omitted.
pub fn average_clustering_by_degree(graph: &CsrGraph) -> Vec<DegreeClustering> {
    let coeffs = local_clustering_coefficients(graph);
    let mut sums: Vec<(usize, f64)> = vec![(0, 0.0); graph.max_degree() + 1];
    for (v, &coeff) in coeffs.iter().enumerate() {
        let d = graph.degree(v as VertexId);
        sums[d].0 += 1;
        sums[d].1 += coeff;
    }
    sums.into_iter()
        .enumerate()
        .filter(|(_, (count, _))| *count > 0)
        .map(|(degree, (count, sum))| DegreeClustering {
            degree,
            count,
            average_clustering: sum / count as f64,
        })
        .collect()
}

/// Total number of triangles in the graph.
pub fn triangle_count(graph: &CsrGraph) -> usize {
    let sorted = graph.is_sorted();
    let per_vertex: usize = Engine::chunked(pool_size())
        .map_pieces(graph.num_vertices(), |range| {
            range
                .map(|v| triangles_at(graph, v as VertexId, sorted))
                .sum::<usize>()
        })
        .into_iter()
        .sum();
    // Every triangle is counted once at each of its three corners.
    per_vertex / 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use chordal_generators::structured;
    use chordal_graph::builder::graph_from_edges;

    #[test]
    fn clique_has_clustering_one() {
        let g = structured::complete(5);
        let c = local_clustering_coefficients(&g);
        assert!(c.iter().all(|&x| (x - 1.0).abs() < 1e-12));
        assert!((average_clustering(&g) - 1.0).abs() < 1e-12);
        assert_eq!(triangle_count(&g), 10);
    }

    #[test]
    fn tree_has_clustering_zero() {
        let g = structured::binary_tree(15);
        assert!(average_clustering(&g) < 1e-12);
        assert_eq!(triangle_count(&g), 0);
    }

    #[test]
    fn path_endpoints_and_low_degree_vertices_are_zero() {
        let g = structured::path(4);
        let c = local_clustering_coefficients(&g);
        assert_eq!(c, vec![0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn triangle_with_pendant_vertex() {
        // 0-1-2 triangle, 3 pendant on 0.
        let g = graph_from_edges(4, vec![(0, 1), (1, 2), (0, 2), (0, 3)]);
        let c = local_clustering_coefficients(&g);
        // vertex 0 has neighbours {1,2,3}; only (1,2) adjacent → 1/3.
        assert!((c[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((c[1] - 1.0).abs() < 1e-12);
        assert_eq!(c[3], 0.0);
        assert_eq!(triangle_count(&g), 1);
    }

    #[test]
    fn by_degree_aggregation() {
        let g = graph_from_edges(4, vec![(0, 1), (1, 2), (0, 2), (0, 3)]);
        let rows = average_clustering_by_degree(&g);
        // degrees present: 1 (vertex 3), 2 (vertices 1,2), 3 (vertex 0).
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].degree, 1);
        assert_eq!(rows[0].count, 1);
        assert_eq!(rows[1].degree, 2);
        assert_eq!(rows[1].count, 2);
        assert!((rows[1].average_clustering - 1.0).abs() < 1e-12);
        assert_eq!(rows[2].degree, 3);
    }

    #[test]
    fn sorted_kernel_path_agrees_with_pairwise_fallback() {
        // The same graph with scrambled adjacency takes the pairwise
        // `has_edge` path; both paths must agree exactly.
        let g = structured::complete(7);
        let scrambled = g.with_scrambled_adjacency(42);
        assert!(!scrambled.is_sorted());
        assert_eq!(triangle_count(&g), triangle_count(&scrambled));
        assert_eq!(
            local_clustering_coefficients(&g),
            local_clustering_coefficients(&scrambled)
        );
        let mixed = graph_from_edges(
            6,
            vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)],
        );
        assert_eq!(
            triangle_count(&mixed),
            triangle_count(&mixed.with_scrambled_adjacency(7))
        );
    }

    #[test]
    fn empty_graph() {
        let g = chordal_graph::CsrGraph::empty(0);
        assert_eq!(average_clustering(&g), 0.0);
        assert!(average_clustering_by_degree(&g).is_empty());
    }
}
