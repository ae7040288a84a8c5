//! Chordality and maximality verification.
//!
//! The paper proves two properties of Algorithm 1's output (Theorems 1 and
//! 2): the extracted edge set induces a chordal graph, and — whenever that
//! subgraph is connected — it is maximal (no discarded edge can be added
//! back without breaking chordality). This module provides the checkers the
//! test-suite uses to validate both properties, built on the classic
//! maximum-cardinality-search / perfect-elimination-ordering
//! characterisation of chordal graphs (Rose & Tarjan; Tarjan & Yannakakis).

use chordal_graph::{
    subgraph::edge_subgraph, traversal::connected_components, CsrGraph, Edge, VertexId,
};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};

/// Computes a maximum-cardinality-search (MCS) visit order: repeatedly visit
/// the unvisited vertex with the largest number of already-visited
/// neighbours (ties broken by smallest id for determinism).
///
/// For a chordal graph, the reverse of this order is a perfect elimination
/// ordering.
pub fn mcs_order(graph: &CsrGraph) -> Vec<VertexId> {
    let n = graph.num_vertices();
    let mut weight = vec![0usize; n];
    let mut visited = vec![false; n];
    // Bucket queue over weights: buckets[w] holds candidate vertices with
    // weight w (lazily cleaned).
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); n + 1];
    for v in 0..n {
        buckets[0].push(v as VertexId);
    }
    // Keep bucket 0 ordered so ties break towards the smallest id.
    buckets[0].reverse();
    let mut max_weight = 0usize;
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        // Find the highest non-empty bucket containing an unvisited vertex
        // whose recorded weight is current.
        let v = loop {
            while max_weight > 0 && buckets[max_weight].is_empty() {
                max_weight -= 1;
            }
            match buckets[max_weight].pop() {
                Some(candidate) => {
                    let c = candidate as usize;
                    if !visited[c] && weight[c] == max_weight {
                        break candidate;
                    }
                    // Stale entry; keep looking.
                }
                None => {
                    // Bucket 0 exhausted by stale entries: rebuild it from the
                    // remaining unvisited vertices (rare; only when weights
                    // decayed lazily).
                    let remaining: Vec<VertexId> = (0..n)
                        .filter(|&v| !visited[v] && weight[v] == 0)
                        .map(|v| v as VertexId)
                        .rev()
                        .collect();
                    buckets[0] = remaining;
                    if buckets[0].is_empty() {
                        // All unvisited vertices have positive weight; scan up.
                        max_weight = (0..n)
                            .filter(|&v| !visited[v])
                            .map(|v| weight[v])
                            .max()
                            .unwrap_or(0);
                        continue;
                    }
                }
            }
        };
        visited[v as usize] = true;
        order.push(v);
        for &u in graph.neighbors(v) {
            let ui = u as usize;
            if !visited[ui] {
                weight[ui] += 1;
                if weight[ui] > max_weight {
                    max_weight = weight[ui];
                }
                buckets[weight[ui]].push(u);
            }
        }
    }
    order
}

/// Checks whether `order` (a permutation of the vertices, interpreted as an
/// elimination order: `order[0]` is eliminated first) is a perfect
/// elimination ordering of `graph`.
pub fn is_perfect_elimination_ordering(graph: &CsrGraph, order: &[VertexId]) -> bool {
    let n = graph.num_vertices();
    if order.len() != n {
        return false;
    }
    let mut position = vec![usize::MAX; n];
    for (pos, &v) in order.iter().enumerate() {
        if (v as usize) >= n || position[v as usize] != usize::MAX {
            return false;
        }
        position[v as usize] = pos;
    }
    for &v in order {
        // Later neighbours of v in the elimination order.
        let vp = position[v as usize];
        let mut later: Vec<VertexId> = graph
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&u| position[u as usize] > vp)
            .collect();
        if later.len() <= 1 {
            continue;
        }
        // The earliest later neighbour must be adjacent to all the others.
        later.sort_by_key(|&u| position[u as usize]);
        let pivot = later[0];
        for &other in &later[1..] {
            if !graph.has_edge(pivot, other) {
                return false;
            }
        }
    }
    true
}

/// Tests whether a graph is chordal, via MCS + perfect-elimination-ordering
/// verification. Runs in `O(V + E log Δ)`.
pub fn is_chordal(graph: &CsrGraph) -> bool {
    let visit = mcs_order(graph);
    // The elimination order is the reverse of the MCS visit order.
    let elimination: Vec<VertexId> = visit.into_iter().rev().collect();
    is_perfect_elimination_ordering(graph, &elimination)
}

/// Returns a perfect elimination ordering of a chordal graph, or `None` if
/// the graph is not chordal.
pub fn perfect_elimination_ordering(graph: &CsrGraph) -> Option<Vec<VertexId>> {
    let visit = mcs_order(graph);
    let elimination: Vec<VertexId> = visit.into_iter().rev().collect();
    if is_perfect_elimination_ordering(graph, &elimination) {
        Some(elimination)
    } else {
        None
    }
}

/// Outcome of a maximality check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaximalityReport {
    /// No rejected edge (with both endpoints in the same component of the
    /// chordal subgraph) can be re-added without breaking chordality.
    Maximal,
    /// Counterexample edges that could be added while preserving
    /// chordality.
    Violations(Vec<Edge>),
}

impl MaximalityReport {
    /// Whether the subgraph was maximal.
    pub fn is_maximal(&self) -> bool {
        matches!(self, MaximalityReport::Maximal)
    }
}

/// Checks maximality of a chordal edge set `chordal_edges ⊆ E(graph)`.
///
/// Following Theorem 2, maximality is only claimed *within* connected
/// components of the chordal subgraph: for every edge of the host graph that
/// was not retained and whose endpoints lie in the same component of the
/// chordal subgraph, re-adding it must destroy chordality. Edges bridging
/// two different components are exempt (the paper handles those with the
/// component-stitching post-pass).
///
/// `sample_limit` bounds how many rejected edges are tested (`None` tests
/// all of them); sampling is deterministic in `seed`.
pub fn check_maximality(
    graph: &CsrGraph,
    chordal_edges: &[Edge],
    sample_limit: Option<usize>,
    seed: u64,
) -> MaximalityReport {
    let sub = edge_subgraph(graph, chordal_edges);
    let comps = connected_components(&sub);
    let retained: std::collections::HashSet<Edge> = chordal_edges
        .iter()
        .map(|&(u, v)| if u <= v { (u, v) } else { (v, u) })
        .collect();
    let mut candidates: Vec<Edge> = graph
        .edges()
        .filter(|e| !retained.contains(e))
        .filter(|&(u, v)| comps.labels[u as usize] == comps.labels[v as usize])
        .collect();
    if let Some(limit) = sample_limit {
        if candidates.len() > limit {
            let mut rng = StdRng::seed_from_u64(seed);
            candidates.shuffle(&mut rng);
            candidates.truncate(limit);
        }
    }
    // With a chordal base the per-candidate question reduces to the
    // separator test — no augmented-subgraph rebuild per candidate, and one
    // scratch reused across the whole loop. A non-chordal base keeps the
    // literal "is the augmented graph chordal?" semantics (adding an edge
    // can complete a missing chord).
    let base_chordal = is_chordal(&sub);
    let mut scratch = base_chordal.then(|| SeparatorScratch::new(sub.num_vertices()));
    let mut violations = Vec::new();
    for &(u, v) in &candidates {
        let addable = match &mut scratch {
            Some(scratch) => scratch.separates(&sub, u, v),
            None => {
                let mut augmented: Vec<Edge> = chordal_edges.to_vec();
                augmented.push((u, v));
                is_chordal(&edge_subgraph(graph, &augmented))
            }
        };
        if addable {
            violations.push((u, v));
        }
    }
    if violations.is_empty() {
        MaximalityReport::Maximal
    } else {
        MaximalityReport::Violations(violations)
    }
}

/// Whether adding the edge `(u, v)` to the **chordal** graph `chordal`
/// keeps it chordal, for a pair that is not already adjacent.
///
/// Uses the separator characterisation of chordal edge insertion (the
/// separator form of Ibarra's clique-tree condition; see
/// [`crate::repair::incremental`] for the proof sketch): `chordal + uv` is
/// chordal iff `N(u) ∩ N(v)` separates `u` from `v` — vacuously true when
/// the endpoints lie in different components, since a bridge creates no
/// cycle. One early-exit breadth-first search instead of a full MCS +
/// perfect-elimination re-verification per query.
///
/// The answer is only meaningful when `chordal` is chordal and `(u, v)` is
/// not one of its edges; callers certify both (as
/// [`check_maximality`] does).
///
/// The search itself is the shared bidirectional blocked-frontier kernel
/// ([`crate::kernels::SeparatorSearch`]), the same one the repair
/// maintainer ([`crate::repair::incremental::IncrementalChordal`]) embeds —
/// only the adjacency source differs (a CSR graph here, maintained lists
/// there), which is exactly what the differential suites compare. One-shot
/// convenience wrapper; loops over many candidates should reuse a
/// `SeparatorScratch` the way [`check_maximality`] does.
pub fn addition_preserves_chordality(chordal: &CsrGraph, u: VertexId, v: VertexId) -> bool {
    SeparatorScratch::new(chordal.num_vertices()).separates(chordal, u, v)
}

/// Reusable separator-test scratch for loops over many candidate edges (as
/// in [`check_maximality`]): a thin adapter binding the generic
/// [`crate::kernels::SeparatorSearch`] frontier kernel to a [`CsrGraph`]'s
/// sorted hot adjacency array.
struct SeparatorScratch {
    search: crate::kernels::SeparatorSearch,
}

impl SeparatorScratch {
    fn new(n: usize) -> Self {
        Self {
            search: crate::kernels::SeparatorSearch::new(n),
        }
    }

    /// Whether `N(u) ∩ N(v)` separates `u` from `v` in `chordal` — i.e.
    /// whether `chordal + uv` stays chordal. No component information is
    /// assumed, so the kernel's connectivity shortcut stays off.
    fn separates(&mut self, chordal: &CsrGraph, u: VertexId, v: VertexId) -> bool {
        self.search.separates(|w| chordal.neighbors(w), u, v, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chordal_generators::{chordal_gen, structured};
    use chordal_graph::builder::graph_from_edges;

    #[test]
    fn cliques_paths_and_trees_are_chordal() {
        assert!(is_chordal(&structured::complete(6)));
        assert!(is_chordal(&structured::path(10)));
        assert!(is_chordal(&structured::star(8)));
        assert!(is_chordal(&structured::random_tree(50, 3)));
        assert!(is_chordal(&CsrGraph::empty(4)));
        assert!(is_chordal(&structured::disjoint_cliques(3, 4)));
    }

    #[test]
    fn cycles_longer_than_three_are_not_chordal() {
        assert!(is_chordal(&structured::cycle(3)));
        assert!(!is_chordal(&structured::cycle(4)));
        assert!(!is_chordal(&structured::cycle(5)));
        assert!(!is_chordal(&structured::cycle(10)));
    }

    #[test]
    fn grids_and_bipartite_graphs_are_not_chordal() {
        assert!(!is_chordal(&structured::grid(3, 3)));
        assert!(!is_chordal(&structured::complete_bipartite(2, 2)));
        assert!(!is_chordal(&structured::complete_bipartite(3, 3)));
    }

    #[test]
    fn generated_chordal_families_verify_as_chordal() {
        assert!(is_chordal(&chordal_gen::k_tree(40, 3, 1)));
        assert!(is_chordal(&chordal_gen::k_tree(25, 5, 2)));
        assert!(is_chordal(&chordal_gen::interval_graph(60, 0.1, 3)));
        assert!(is_chordal(&chordal_gen::augmented_tree(80, 4)));
    }

    #[test]
    fn four_cycle_plus_chord_is_chordal() {
        let g = graph_from_edges(4, vec![(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]);
        assert!(is_chordal(&g));
    }

    #[test]
    fn peo_returned_only_for_chordal_graphs() {
        assert!(perfect_elimination_ordering(&structured::complete(5)).is_some());
        assert!(perfect_elimination_ordering(&structured::cycle(6)).is_none());
        let peo = perfect_elimination_ordering(&chordal_gen::k_tree(20, 2, 9)).unwrap();
        assert_eq!(peo.len(), 20);
    }

    #[test]
    fn peo_checker_rejects_bad_orders() {
        let g = structured::cycle(4);
        // Any order of a chordless 4-cycle fails.
        assert!(!is_perfect_elimination_ordering(&g, &[0, 1, 2, 3]));
        // Wrong length or duplicate ids are rejected outright.
        assert!(!is_perfect_elimination_ordering(&g, &[0, 1, 2]));
        assert!(!is_perfect_elimination_ordering(&g, &[0, 1, 2, 2]));
    }

    #[test]
    fn peo_checker_accepts_known_good_order() {
        // Diamond: 0-1-2-3 cycle with chord 0-2; eliminating 1 and 3 first works.
        let g = graph_from_edges(4, vec![(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]);
        assert!(is_perfect_elimination_ordering(&g, &[1, 3, 0, 2]));
    }

    #[test]
    fn mcs_order_is_a_permutation() {
        let g = structured::grid(4, 5);
        let order = mcs_order(&g);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn maximality_detects_a_missing_chord() {
        // 4-cycle: retaining only 3 of its 4 edges is chordal AND maximal
        // within the component? Adding the 4th edge closes a chordless
        // 4-cycle, so 3 edges are maximal.
        let g = structured::cycle(4);
        let report = check_maximality(&g, &[(0, 1), (1, 2), (2, 3)], None, 0);
        assert!(report.is_maximal());
        // Retaining only 2 edges of a diamond is NOT maximal: the chord can
        // still be added.
        let diamond = graph_from_edges(4, vec![(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]);
        let report = check_maximality(&diamond, &[(0, 1), (0, 2), (0, 3)], None, 0);
        // adding (1,2) forms triangle 0-1-2: still chordal → violation.
        assert!(!report.is_maximal());
        if let MaximalityReport::Violations(v) = report {
            assert!(v.contains(&(1, 2)));
        }
    }

    #[test]
    fn maximality_ignores_cross_component_edges() {
        // Two triangles joined by one edge; retain both triangles but not the
        // bridge. The bridge joins different chordal components, so the
        // subgraph still counts as maximal.
        let g = graph_from_edges(
            6,
            vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
        );
        let retained = vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)];
        assert!(check_maximality(&g, &retained, None, 0).is_maximal());
    }

    #[test]
    fn addition_test_matches_the_rebuild_oracle() {
        use chordal_generators::rmat::{RmatKind, RmatParams};
        for seed in 0..3 {
            let g = RmatParams::preset(RmatKind::G, 6, seed).generate();
            let result = crate::extract_maximal_chordal_serial(&g);
            let sub = result.subgraph(&g);
            assert!(is_chordal(&sub));
            for (u, v) in g.edges() {
                if result.contains_edge(u, v) {
                    continue;
                }
                let mut augmented = result.edges().to_vec();
                augmented.push((u, v));
                assert_eq!(
                    addition_preserves_chordality(&sub, u, v),
                    is_chordal(&edge_subgraph(&g, &augmented)),
                    "seed {seed}: disagreement on ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn bridge_additions_preserve_chordality() {
        // Two disjoint triangles: any cross-component edge is a bridge.
        let g = graph_from_edges(6, vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        assert!(addition_preserves_chordality(&g, 0, 3));
        assert!(addition_preserves_chordality(&g, 2, 5));
    }

    #[test]
    fn sampled_maximality_check_is_deterministic() {
        let g = structured::grid(4, 4);
        let retained = vec![(0, 1), (1, 2), (2, 3)];
        let a = check_maximality(&g, &retained, Some(3), 7);
        let b = check_maximality(&g, &retained, Some(3), 7);
        assert_eq!(a, b);
    }
}
