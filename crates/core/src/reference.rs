//! Sequential reference implementation of Algorithm 1.
//!
//! This follows the paper's pseudocode line by line with plain (non-atomic)
//! data structures and the deterministic bulk-synchronous interpretation of
//! an iteration: subset tests observe the chordal-neighbour sets and lowest
//! parents as they stood when the iteration began. The parallel extractor
//! in [`crate::parallel`] must produce exactly this edge set under
//! [`crate::Semantics::Synchronous`] for every engine and thread count; the
//! test-suite enforces that equivalence.

use crate::extractor::ChordalExtractor;
use crate::parent::{first_parent_scan, next_parent_scan, sorted_subset};
use crate::result::ChordalResult;
use crate::stats::IterationStats;
use crate::workspace::Workspace;
use chordal_graph::{GraphRef, VertexId, NO_VERTEX};

/// The sequential determinism oracle, as a registry citizen.
///
/// The result is independent of the order in which adjacency lists are
/// stored (parents are always discovered by scanning), so this single
/// extractor is the oracle for both the Opt and Unopt parallel variants.
#[derive(Debug, Clone, Default)]
pub struct ReferenceExtractor {
    record_stats: bool,
}

impl ReferenceExtractor {
    /// Creates the reference extractor; `record_stats` enables the
    /// per-iteration queue trace.
    pub fn new(record_stats: bool) -> Self {
        Self { record_stats }
    }
}

impl ChordalExtractor for ReferenceExtractor {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn extract_into(&self, graph: GraphRef<'_>, workspace: &mut Workspace) -> ChordalResult {
        let n = graph.num_vertices();
        let mut stats = self.record_stats.then(IterationStats::new);
        workspace.prepare_plain(n);
        // Workspace mapping: `ids_a` holds the lowest parents, `lists` the
        // chordal-neighbour sets, `marks` the queue-membership flags and
        // `queue_a`/`queue_b` the current/next iteration queues. Taken out
        // of the workspace so the borrow checker sees disjoint pieces; put
        // back before returning.
        let mut lp = std::mem::take(&mut workspace.ids_a);
        let mut chordal = std::mem::take(&mut workspace.lists);
        let mut in_queue = std::mem::take(&mut workspace.marks);
        let mut q1 = std::mem::take(&mut workspace.queue_a);
        let mut q2 = std::mem::take(&mut workspace.queue_b);
        let mut clen_frozen = std::mem::take(&mut workspace.ids_b);
        let mut lp_frozen = std::mem::take(&mut workspace.ids_c);

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
        // `lp_frozen` holds the bulk-synchronous snapshot of the lowest
        // parents; like every other buffer it came out of the workspace.
        while !q1.is_empty() {
            iterations += 1;
            // Freeze the state the iteration is allowed to observe.
            lp_frozen.clear();
            lp_frozen.extend_from_slice(&lp);
            clen_frozen.clear();
            clen_frozen.extend(chordal[..n].iter().map(|c| c.len() as u32));
            in_queue[..n].fill(false);
            q2.clear();
            let mut edges_added = 0usize;

            for &v in &q1 {
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
            std::mem::swap(&mut q1, &mut q2);
        }

        let mut edges = Vec::new();
        for (w, parents) in chordal[..n].iter().enumerate() {
            for &p in parents {
                edges.push((p, w as VertexId));
            }
        }

        workspace.ids_a = lp;
        workspace.lists = chordal;
        workspace.marks = in_queue;
        workspace.queue_a = q1;
        workspace.queue_b = q2;
        workspace.ids_b = clen_frozen;
        workspace.ids_c = lp_frozen;

        ChordalResult::new(n, edges, iterations, stats)
    }
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
    ReferenceExtractor::new(record_stats).extract(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use chordal_generators::structured;
    use chordal_graph::builder::graph_from_edges;
    use chordal_graph::CsrGraph;

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
        let extractor = ReferenceExtractor::new(false);
        let mut ws = Workspace::new();
        let small = structured::grid(4, 4);
        let large = structured::grid(7, 7);
        // Run large, then small, then large again: stale state from a
        // bigger previous run must not leak into a smaller one.
        let large_fresh = extractor.extract(&large);
        let small_fresh = extractor.extract(&small);
        assert_eq!(
            extractor.extract_into((&large).into(), &mut ws).edges(),
            large_fresh.edges()
        );
        assert_eq!(
            extractor.extract_into((&small).into(), &mut ws).edges(),
            small_fresh.edges()
        );
        let allocations = ws.allocations();
        assert_eq!(
            extractor.extract_into((&large).into(), &mut ws).edges(),
            large_fresh.edges()
        );
        assert_eq!(ws.allocations(), allocations);
    }
}
