//! The serial maximal chordal subgraph algorithm of Dearing, Shier and
//! Warner (Discrete Applied Mathematics, 1988).
//!
//! This is the baseline the paper starts from (Section II). The algorithm
//! grows the chordal subgraph one vertex at a time: it keeps, for every
//! unselected vertex `v`, the set `C(v)` of selected neighbours it may join
//! with; at each step it selects the unselected vertex with the largest
//! `|C(v)|`, adds the edges to `C(v)` to the chordal edge set, and updates
//! the candidate sets of `v`'s unselected neighbours `w` by the same subset
//! rule used in Algorithm 1 (`C(w) ⊆ C(v)` ⟹ `C(w) ← C(w) ∪ {v}`).
//!
//! Because the choice of the next vertex depends on all previous choices the
//! algorithm is inherently sequential — which is precisely the paper's
//! motivation for Algorithm 1. Complexity is `O(|E| Δ)`.

use crate::kernels::sorted_subset;
use crate::result::ChordalResult;
use crate::workspace::Workspace;
use chordal_graph::{Edge, GraphRef, VertexId};

/// The Dearing–Shier–Warner extraction (module docs), the registry's
/// [`crate::Algorithm::Dearing`], reusing `workspace`.
///
/// Ties in the max-cardinality selection are broken by the smallest vertex
/// id, making every run deterministic.
pub(crate) fn extract_dearing_into(
    graph: GraphRef<'_>,
    workspace: &mut Workspace,
) -> ChordalResult {
    let n = graph.num_vertices();
    if n == 0 {
        return ChordalResult::new(0, Vec::new(), 0, None);
    }

    workspace.prepare_plain(n);
    workspace.prepare_buckets(n);
    // Workspace mapping: `marks` is the selected set, `lists` the
    // candidate chordal-neighbour sets (kept sorted by id so the subset
    // test is a linear merge), `buckets` the lazy bucket queue over
    // |C(v)|.
    let selected = &mut workspace.marks;
    let cand = &mut workspace.lists;
    let buckets = &mut workspace.buckets;
    let mut edges: Vec<Edge> = Vec::new();
    let mut steps = 0usize;

    // Seed the traversal order in reverse, so vertex 0 pops first.
    let mut max_count = 0usize;
    buckets[0].extend((0..n as VertexId).rev());

    let mut remaining = n;
    while remaining > 0 {
        // Pick the unselected vertex with the largest candidate set.
        let v = loop {
            while max_count > 0 && buckets[max_count].is_empty() {
                max_count -= 1;
            }
            match buckets[max_count].pop() {
                Some(candidate) => {
                    let c = candidate as usize;
                    if !selected[c] && cand[c].len() == max_count {
                        break candidate;
                    }
                }
                None => {
                    // Rebuild bucket 0 from untouched vertices (only
                    // reachable when every remaining vertex still has an
                    // empty set, e.g. isolated vertices after stale
                    // pops).
                    let rebuilt: Vec<VertexId> = (0..n)
                        .filter(|&v| !selected[v] && cand[v].is_empty())
                        .map(|v| v as VertexId)
                        .rev()
                        .collect();
                    if rebuilt.is_empty() {
                        max_count = (0..n)
                            .filter(|&v| !selected[v])
                            .map(|v| cand[v].len())
                            .max()
                            .unwrap_or(0);
                    } else {
                        buckets[0] = rebuilt;
                    }
                }
            }
        };
        let vi = v as usize;
        selected[vi] = true;
        remaining -= 1;
        steps += 1;
        // Accept every edge from v to its candidate set.
        for &c in &cand[vi] {
            edges.push((c, v));
        }
        // Update unselected neighbours.
        for &w in graph.neighbors(v) {
            let wi = w as usize;
            if selected[wi] {
                continue;
            }
            if sorted_subset(&cand[wi], &cand[vi]) {
                insert_sorted(&mut cand[wi], v);
                let new_len = cand[wi].len();
                if new_len > max_count {
                    max_count = new_len;
                }
                buckets[new_len].push(w);
            }
        }
    }

    ChordalResult::new(n, edges, steps, None)
}

/// Runs the Dearing–Shier–Warner extraction, starting from vertex 0 of each
/// connected component, with a throwaway workspace.
pub fn extract_dearing<'a>(graph: impl Into<GraphRef<'a>>) -> ChordalResult {
    extract_dearing_into(graph.into(), &mut Workspace::new())
}

/// Inserts `x` into the ascending, duplicate-free `v`, unless present.
pub(crate) fn insert_sorted(v: &mut Vec<VertexId>, x: VertexId) {
    match v.binary_search(&x) {
        Ok(_) => {}
        Err(pos) => v.insert(pos, x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use chordal_generators::{
        chordal_gen, erdos_renyi, rmat::RmatKind, rmat::RmatParams, structured,
    };
    use chordal_graph::CsrGraph;

    #[test]
    fn empty_and_isolated_graphs() {
        let r = extract_dearing(&CsrGraph::empty(0));
        assert_eq!(r.num_chordal_edges(), 0);
        let r = extract_dearing(&CsrGraph::empty(4));
        assert_eq!(r.num_chordal_edges(), 0);
    }

    #[test]
    fn chordal_inputs_are_fully_retained() {
        // Dearing et al. retain every edge of an already-chordal graph.
        for g in [
            structured::complete(7),
            structured::path(15),
            structured::star(10),
            chordal_gen::k_tree(30, 3, 5),
            chordal_gen::interval_graph(40, 0.1, 7),
            structured::disjoint_cliques(3, 5),
        ] {
            let r = extract_dearing(&g);
            assert_eq!(
                r.num_chordal_edges(),
                g.num_edges(),
                "chordal input must be retained in full"
            );
        }
    }

    #[test]
    fn output_is_chordal_and_maximal_on_nonchordal_inputs() {
        for (i, g) in [
            structured::cycle(6),
            structured::grid(4, 4),
            structured::complete_bipartite(3, 4),
            erdos_renyi::gnm(40, 120, 3),
            RmatParams::preset(RmatKind::G, 7, 1).generate(),
        ]
        .into_iter()
        .enumerate()
        {
            let r = extract_dearing(&g);
            let sub = r.subgraph(&g);
            assert!(verify::is_chordal(&sub), "case {i} not chordal");
            assert!(
                verify::check_maximality(&g, r.edges(), Some(200), 9).is_maximal(),
                "case {i} not maximal"
            );
        }
    }

    #[test]
    fn cycle_retains_all_but_one_edge() {
        let g = structured::cycle(8);
        let r = extract_dearing(&g);
        assert_eq!(r.num_chordal_edges(), 7);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = RmatParams::preset(RmatKind::B, 7, 4).generate();
        assert_eq!(extract_dearing(&g).edges(), extract_dearing(&g).edges());
    }

    #[test]
    fn workspace_reuse_is_transparent() {
        let mut ws = Workspace::new();
        let big = RmatParams::preset(RmatKind::G, 7, 2).generate();
        let small = structured::cycle(9);
        let big_fresh = extract_dearing(&big);
        let small_fresh = extract_dearing(&small);
        assert_eq!(
            extract_dearing_into((&big).into(), &mut ws).edges(),
            big_fresh.edges()
        );
        assert_eq!(
            extract_dearing_into((&small).into(), &mut ws).edges(),
            small_fresh.edges()
        );
        assert_eq!(
            extract_dearing_into((&big).into(), &mut ws).edges(),
            big_fresh.edges()
        );
    }
}
