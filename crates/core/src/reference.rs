//! Sequential reference implementations of Algorithm 1: two readings of
//! the paper's pseudocode.
//!
//! [`extract_reference`], the registry's [`crate::Algorithm::Reference`],
//! follows the pseudocode line by line with plain (non-atomic) data
//! structures and the bulk-synchronous interpretation of an iteration:
//! subset tests observe the chordal-neighbour sets and lowest parents as
//! they stood when the iteration began. It takes as many iterations as the
//! largest parent count, and its per-iteration trace (distinct lowest
//! parents, edges accepted) is the source of the `figure7` experiment's
//! counts.
//!
//! [`extract_pull_reference`] is the oracle of [`crate::parallel`]'s pass:
//! one plain serial loop in which every vertex, in ascending id order,
//! tests its set against each of its parents' final sets. The test-suite
//! checks that the pass equals it on every engine and thread count.

use crate::kernels::sorted_subset;
use crate::parent::{first_parent_scan, next_parent_scan};
use crate::result::ChordalResult;
use crate::stats::IterationStats;
use crate::workspace::Workspace;
use chordal_graph::{GraphRef, VertexId, NO_VERTEX};

/// The bulk-synchronous reading of Algorithm 1 (module docs), reusing
/// `workspace`; `record_stats` enables the per-iteration queue trace.
///
/// The result is independent of the order in which adjacency lists are
/// stored (parents are always discovered by scanning), so the Opt and
/// Unopt variants give one output.
pub(crate) fn extract_reference_into(
    graph: GraphRef<'_>,
    workspace: &mut Workspace,
    record_stats: bool,
) -> ChordalResult {
    let n = graph.num_vertices();
    let mut stats = record_stats.then(IterationStats::new);
    workspace.prepare_plain(n);
    // The lowest parents, the chordal-neighbour sets, the queue-membership
    // flags, the current and next iteration queues, and the iteration's
    // frozen set lengths and lowest parents.
    let Workspace {
        ids_a: lp,
        lists: chordal,
        marks: in_queue,
        queue_a: q1,
        queue_b: q2,
        ids_b: clen_frozen,
        ids_c: lp_frozen,
        ..
    } = workspace;

    // Initialisation (lines 4-10): every vertex finds its lowest parent;
    // the initial queue holds every vertex that is the lowest parent of
    // someone.
    for v in 0..n as VertexId {
        let w = first_parent_scan(graph.neighbors(v), v);
        if w != NO_VERTEX {
            lp[v as usize] = w;
            if !in_queue[w as usize] {
                in_queue[w as usize] = true;
                q1.push(w);
            }
        }
    }

    let mut iterations = 0usize;
    while !q1.is_empty() {
        iterations += 1;
        // Freeze the state the iteration is allowed to observe.
        lp_frozen.clear();
        lp_frozen.extend_from_slice(lp);
        clen_frozen.clear();
        clen_frozen.extend(chordal[..n].iter().map(|c| c.len() as u32));
        in_queue[..n].fill(false);
        q2.clear();
        let mut edges_added = 0usize;

        for &v in q1.iter() {
            for &w in graph.neighbors(v) {
                if lp_frozen[w as usize] != v {
                    continue;
                }
                // Subset test C[w] ⊆ C[v] against the frozen prefix of
                // C[v]. `w`'s set cannot have been touched this
                // iteration: only its (unique) lowest parent v writes to
                // it, and that is us.
                let cv = &chordal[v as usize][..clen_frozen[v as usize] as usize];
                let accept = sorted_subset(&chordal[w as usize], cv);
                if accept {
                    chordal[w as usize].push(v);
                    edges_added += 1;
                }
                // Advance w's lowest parent regardless of acceptance.
                let x = next_parent_scan(graph.neighbors(w), w, v);
                if x != NO_VERTEX {
                    lp[w as usize] = x;
                    if !in_queue[x as usize] {
                        in_queue[x as usize] = true;
                        q2.push(x);
                    }
                } else {
                    lp[w as usize] = NO_VERTEX;
                }
            }
        }

        if let Some(s) = stats.as_mut() {
            s.record(q1.len(), edges_added);
        }
        std::mem::swap(q1, q2);
    }

    let mut edges = Vec::new();
    for (w, parents) in chordal[..n].iter().enumerate() {
        for &p in parents {
            edges.push((p, w as VertexId));
        }
    }

    ChordalResult::new(n, edges, iterations, stats)
}

/// Runs the sequential reference extraction with a throwaway workspace.
pub fn extract_reference<'a>(graph: impl Into<GraphRef<'a>>) -> ChordalResult {
    extract_reference_with_stats(graph, false)
}

/// Reference extraction with optional per-iteration statistics.
pub fn extract_reference_with_stats<'a>(
    graph: impl Into<GraphRef<'a>>,
    record_stats: bool,
) -> ChordalResult {
    extract_reference_into(graph.into(), &mut Workspace::new(), record_stats)
}

/// The oracle of Algorithm 1's pass: one serial pass over the vertices
/// in ascending id order, in which `w` walks its parents in ascending order
/// and adds parent `p` to `C[w]` when `C[w] ⊆ C[p]`. Every parent has a
/// smaller id than `w`, so each `C[p]` is final when `w` reads it. Plain
/// vectors, no atomics and no workspace: it shares nothing with
/// [`crate::parallel`] but the subset kernel. With `record_stats`, the one
/// iteration's queue is the set of vertices that are some vertex's parent.
pub fn extract_pull_reference<'a>(
    graph: impl Into<GraphRef<'a>>,
    record_stats: bool,
) -> ChordalResult {
    let graph = graph.into();
    let n = graph.num_vertices();
    let mut chordal: Vec<Vec<VertexId>> = Vec::with_capacity(n);
    for w in 0..n as VertexId {
        let mut parents: Vec<VertexId> = graph
            .neighbors(w)
            .iter()
            .copied()
            .filter(|&p| p < w)
            .collect();
        parents.sort_unstable();
        let mut set = Vec::new();
        for p in parents {
            if sorted_subset(&set, &chordal[p as usize]) {
                set.push(p);
            }
        }
        chordal.push(set);
    }
    let edges: Vec<_> = chordal
        .iter()
        .enumerate()
        .flat_map(|(w, set)| set.iter().map(move |&p| (p, w as VertexId)))
        .collect();
    let iterations = usize::from(graph.num_directed_edges() > 0);
    let stats = record_stats.then(|| {
        let mut stats = IterationStats::new();
        if iterations == 1 {
            let parents = (0..n as VertexId)
                .filter(|&v| graph.neighbors(v).iter().any(|&x| x > v))
                .count();
            stats.record(parents, edges.len());
        }
        stats
    });
    ChordalResult::new(n, edges, iterations, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use chordal_generators::bio::GeneNetworkKind;
    use chordal_generators::rmat::{RmatKind, RmatParams};
    use chordal_generators::structured;
    use chordal_graph::builder::graph_from_edges;
    use chordal_graph::CsrGraph;

    /// Algorithm 1 in the paper's push form, in one pass: parents in
    /// ascending id order, each testing every child against its own final
    /// set. A child meets its parents in ascending order too.
    fn one_pass_push(graph: &CsrGraph) -> Vec<(VertexId, VertexId)> {
        let n = graph.num_vertices();
        let mut chordal: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        for v in 0..n as VertexId {
            for &w in graph.neighbors(v).iter().filter(|&&w| w > v) {
                if sorted_subset(&chordal[w as usize], &chordal[v as usize]) {
                    chordal[w as usize].push(v);
                }
            }
        }
        let mut edges: Vec<_> = (0..n)
            .flat_map(|w| chordal[w].iter().map(move |&p| (p, w as VertexId)))
            .collect();
        edges.sort_unstable();
        edges
    }

    #[test]
    fn pull_oracle_matches_a_one_pass_push_over_ascending_parents() {
        let mut graphs: Vec<CsrGraph> = [RmatKind::Er, RmatKind::G, RmatKind::B]
            .into_iter()
            .map(|kind| RmatParams::preset(kind, 10, 7).generate())
            .collect();
        graphs.push(GeneNetworkKind::Gse17072Non.network(400, 2));
        graphs.push(structured::grid(6, 7).with_scrambled_adjacency(3));
        for g in &graphs {
            let pulled = extract_pull_reference(g, false);
            assert_eq!(pulled.edges(), one_pass_push(g));
            assert!(verify::is_chordal(&pulled.subgraph(g)));
        }
    }

    #[test]
    fn pull_oracle_keeps_the_figure1_example_whole_in_one_iteration() {
        // The companion of `paper_figure1_style_example`: vertex 3 tests
        // {1} against the final C[2] = {0, 1} and keeps (2,3).
        let g = graph_from_edges(
            6,
            vec![
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
            ],
        );
        let r = extract_pull_reference(&g, true);
        assert_eq!(r.num_chordal_edges(), g.num_edges());
        assert_eq!(r.iterations, 1);
        let stats = r.stats.as_ref().unwrap();
        // Every vertex but 5 has a higher-numbered neighbour.
        assert_eq!(stats.queue_sizes, [5]);
        assert_eq!(stats.edges_added, [g.num_edges()]);
        assert_eq!(
            extract_pull_reference(&CsrGraph::empty(3), true).iterations,
            0
        );
    }

    #[test]
    fn empty_graph_yields_empty_result() {
        let g = CsrGraph::empty(5);
        let r = extract_reference(&g);
        assert_eq!(r.num_chordal_edges(), 0);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn triangle_is_fully_retained() {
        let g = structured::complete(3);
        let r = extract_reference(&g);
        assert_eq!(r.num_chordal_edges(), 3);
    }

    #[test]
    fn four_cycle_drops_exactly_one_edge() {
        let g = structured::cycle(4);
        let r = extract_reference(&g);
        assert_eq!(r.num_chordal_edges(), 3);
        let sub = r.subgraph(&g);
        assert!(verify::is_chordal(&sub));
    }

    #[test]
    fn clique_is_fully_retained_and_needs_k_minus_one_iterations() {
        // The paper notes a k-clique requires k-1 lowest-parent steps.
        let k = 6;
        let g = structured::complete(k);
        let r = extract_reference_with_stats(&g, true);
        assert_eq!(r.num_chordal_edges(), k * (k - 1) / 2);
        assert_eq!(r.iterations, k - 1);
        let stats = r.stats.as_ref().unwrap();
        assert_eq!(stats.iterations(), k - 1);
        assert_eq!(stats.total_edges(), k * (k - 1) / 2);
    }

    #[test]
    fn paper_figure1_style_example() {
        // A small graph with a 4-cycle and a chord, plus a pendant triangle.
        // The input is chordal. The bulk-synchronous reference drops edge
        // (2,3) because iteration 2 tests C[3] = {1} against the *frozen*
        // C[2] = {0}; the paper-faithful asynchronous extractor (which lets
        // vertex 2 observe that (1,2) was accepted earlier in the same
        // iteration) keeps every edge — see the companion test in
        // `crate::parallel`. Both outputs are chordal.
        let g = graph_from_edges(
            6,
            vec![
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
            ],
        );
        let r = extract_reference(&g);
        let sub = r.subgraph(&g);
        assert!(verify::is_chordal(&sub));
        assert_eq!(r.num_chordal_edges(), g.num_edges() - 1);
        assert!(!r.contains_edge(2, 3));
    }

    #[test]
    fn stats_are_absent_unless_requested() {
        let g = structured::cycle(5);
        assert!(extract_reference(&g).stats.is_none());
        assert!(extract_reference_with_stats(&g, true).stats.is_some());
    }

    #[test]
    fn result_is_independent_of_adjacency_order() {
        let g = structured::grid(5, 5);
        let scrambled = g.with_scrambled_adjacency(23);
        let a = extract_reference(&g);
        let b = extract_reference(&scrambled);
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn workspace_reuse_is_transparent() {
        let mut ws = Workspace::new();
        let small = structured::grid(4, 4);
        let large = structured::grid(7, 7);
        // Run large, then small, then large again: stale state from a
        // bigger previous run must not leak into a smaller one.
        let large_fresh = extract_reference(&large);
        let small_fresh = extract_reference(&small);
        assert_eq!(
            extract_reference_into((&large).into(), &mut ws, false).edges(),
            large_fresh.edges()
        );
        assert_eq!(
            extract_reference_into((&small).into(), &mut ws, false).edges(),
            small_fresh.edges()
        );
        let allocations = ws.allocations();
        assert_eq!(
            extract_reference_into((&large).into(), &mut ws, false).edges(),
            large_fresh.edges()
        );
        assert_eq!(ws.allocations(), allocations);
    }
}
