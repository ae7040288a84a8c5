//! Maximality repair — an extension beyond the paper.
//!
//! Our reproduction found that Algorithm 1's output, while always chordal,
//! is not always strictly maximal (the `experiments maximality-gap` probe
//! measures how many rejected edges are re-addable): a vertex can reject
//! an edge against a chordal-neighbour set that is still growing, and some
//! rejected edges remain individually addable at termination. This module
//! provides a greedy post-pass that restores strict maximality: it walks the
//! rejected edges and re-adds every edge whose addition keeps the subgraph
//! chordal.
//!
//! # Certified and uncertified input
//!
//! The pass runs the incremental chordality maintainer ([`incremental`]):
//! it keeps the current chordal subgraph across candidates and answers
//! each insertion question with an early-exit separator search —
//! `O(deg u + deg v + explored)` per candidate, no subgraph rebuild, no
//! per-candidate allocation. The separator test is only sound on a chordal
//! base, so the input must be certified chordal: [`repair_maximality_with`]
//! checks it up front, while [`repair_maximality_assume_chordal`] and the
//! registry's post-pass ([`crate::ExtractorConfig::repair`]) after an
//! algorithm with [`crate::Algorithm::guarantees_chordal`] take the
//! caller's word for it.
//! Input that fails the check (only the partitioned baseline produces it)
//! is repaired by [`repair_maximality_reference`] instead.
//!
//! [`repair_maximality_reference`] is the test oracle of this module, the
//! role [`crate::reference::extract_pull_reference`] plays for Algorithm 1: it
//! re-verifies chordality from scratch after every tentative addition
//! (`O(V + E log Δ)` per candidate, quadratic over a pass). Both paths run
//! one greedy driver, scan the same candidates in the same order and
//! accept the same edges, so on chordal input their outputs are identical;
//! `tests/repair_differential.rs` compares them across the registry.
//!
//! # Result metadata
//!
//! [`repair_result_with`] counts the repair pass as one extra iteration of
//! the repaired [`ChordalResult`] and — when per-iteration stats were
//! recorded — appends one aggregate record (`examined` candidates,
//! `added` edges), keeping the invariants
//! `stats.iterations() == result.iterations` and
//! `stats.total_edges() == result.num_chordal_edges()` intact for repaired
//! results.

pub mod incremental;

use crate::repair::incremental::{IncrementalChordal, RepairMarks, RepairScratch};
use crate::result::ChordalResult;
use crate::verify::is_chordal;
use crate::workspace::Workspace;
use chordal_graph::subgraph::edge_subgraph;
use chordal_graph::{Edge, GraphRef, VertexId};

/// Outcome of a repair pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairOutcome {
    /// The augmented, still-chordal edge set.
    pub edges: Vec<Edge>,
    /// Edges that were added on top of the input edge set.
    pub added: Vec<Edge>,
    /// Number of *distinct* rejected edges examined.
    pub examined: usize,
}

/// Greedily adds rejected edges back while chordality is preserved, with a
/// throwaway [`Workspace`]; see [`repair_maximality_with`].
pub fn repair_maximality<'a>(
    graph: impl Into<GraphRef<'a>>,
    chordal_edges: &[Edge],
) -> RepairOutcome {
    repair_maximality_with(graph, chordal_edges, &mut Workspace::new())
}

/// Greedily adds rejected edges back while chordality is preserved, reusing
/// the buffers of `workspace`.
///
/// Candidates are scanned in canonical edge order, so the pass is
/// deterministic, and greedy passes repeat until a full pass adds nothing.
/// The input is certified chordal up front;
/// a non-chordal input (possible for the partitioned baseline) is repaired
/// by [`repair_maximality_reference`], which assumes nothing about it.
pub fn repair_maximality_with<'a>(
    graph: impl Into<GraphRef<'a>>,
    chordal_edges: &[Edge],
    workspace: &mut Workspace,
) -> RepairOutcome {
    repair_with(graph.into(), chordal_edges, workspace, false)
}

/// [`repair_maximality_with`] without the up-front chordality
/// certification: the caller asserts that `chordal_edges` induces a chordal
/// subgraph (e.g. it is the output of an algorithm with
/// [`crate::Algorithm::guarantees_chordal`]), so no `edge_subgraph` is
/// built at all — the whole repair runs on reused [`Workspace`] buffers.
///
/// This is what the registry's post-pass runs after chordality-guaranteeing
/// algorithms, and what steady-state timing should measure. With a
/// non-chordal input the call stays memory-safe and terminates, but the
/// separator test's accept/reject answers — and hence the output — are
/// unspecified; use [`repair_maximality_with`] when the input is not
/// certified.
pub fn repair_maximality_assume_chordal<'a>(
    graph: impl Into<GraphRef<'a>>,
    chordal_edges: &[Edge],
    workspace: &mut Workspace,
) -> RepairOutcome {
    repair_with(graph.into(), chordal_edges, workspace, true)
}

/// The test oracle of the repair pass: the same greedy scan as
/// [`repair_maximality`], deciding every candidate by rebuilding the
/// subgraph with it and re-verifying chordality from scratch. Quadratic
/// over a pass; it makes no assumption about the input, so production
/// calls it only for input it cannot certify chordal.
pub fn repair_maximality_reference<'a>(
    graph: impl Into<GraphRef<'a>>,
    chordal_edges: &[Edge],
) -> RepairOutcome {
    let graph = graph.into();
    let mut marks = RepairMarks::default();
    marks.prepare(graph.total_degree());
    greedy_repair(
        graph,
        canonical_edges(chordal_edges),
        &mut marks,
        |_, with_candidate| is_chordal(&edge_subgraph(graph, with_candidate)),
    )
}

/// `edges` in canonical orientation (`u <= v`), sorted and deduplicated.
fn canonical_edges(edges: &[Edge]) -> Vec<Edge> {
    let mut edges: Vec<Edge> = edges
        .iter()
        .map(|&(u, v)| if u <= v { (u, v) } else { (v, u) })
        .collect();
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Shared implementation. `assume_chordal` skips the up-front chordality
/// certification; only callers that *know* the input is chordal
/// (the registry's post-pass after an algorithm that guarantees it) may set
/// it.
fn repair_with(
    graph: GraphRef<'_>,
    chordal_edges: &[Edge],
    workspace: &mut Workspace,
    assume_chordal: bool,
) -> RepairOutcome {
    let edges = canonical_edges(chordal_edges);
    if !assume_chordal && !is_chordal(&edge_subgraph(graph, &edges)) {
        return repair_maximality_reference(graph, chordal_edges);
    }
    let RepairScratch { marks, incr } =
        workspace.prepare_repair(graph.total_degree(), graph.num_vertices());
    let mut maintainer = IncrementalChordal::from_state(graph.num_vertices(), &edges, incr);
    greedy_repair(graph, edges, marks, |(u, v), _| maintainer.try_insert(u, v))
}

/// Directed CSR slot of the canonical orientation of `(u, v)` in `graph`,
/// or `None` when the edge is not present.
fn edge_position(graph: GraphRef<'_>, u: VertexId, v: VertexId) -> Option<usize> {
    let neighbors = graph.neighbors(u);
    let base = graph.offsets()[u as usize];
    if graph.is_sorted() {
        neighbors.binary_search(&v).ok().map(|i| base + i)
    } else {
        neighbors.iter().position(|&x| x == v).map(|i| base + i)
    }
}

/// The greedy repair driver of the maintainer and the oracle: scans rejected edges
/// in canonical order, asks `try_add` whether each one is addable (the
/// callback receives the candidate and the current edge set *including* the
/// candidate as its last element), and repeats until a full pass adds
/// nothing. Adding one edge can make a previously unaddable edge addable
/// (it may supply the chord a larger cycle was missing), so the multi-pass
/// loop is required; each pass adds at least one edge or terminates, so it
/// is bounded by `|E \ EC|` passes.
fn greedy_repair(
    graph: GraphRef<'_>,
    mut edges: Vec<Edge>,
    marks: &mut RepairMarks,
    mut try_add: impl FnMut(Edge, &[Edge]) -> bool,
) -> RepairOutcome {
    for &(u, v) in &edges {
        // Edges of the input set that are not host edges (callers validate
        // separately) simply never collide with a candidate.
        if let Some(pos) = edge_position(graph, u, v) {
            marks.retained[pos] = true;
        }
    }
    let mut added = Vec::new();
    let mut examined = 0usize;
    loop {
        let mut changed = false;
        for u in 0..graph.num_vertices() {
            let base = graph.offsets()[u];
            let u = u as VertexId;
            for (i, &v) in graph.neighbors(u).iter().enumerate() {
                if v <= u {
                    continue;
                }
                let pos = base + i;
                if marks.retained[pos] {
                    continue;
                }
                if !marks.seen[pos] {
                    marks.seen[pos] = true;
                    examined += 1;
                }
                edges.push((u, v));
                if try_add((u, v), &edges) {
                    marks.retained[pos] = true;
                    added.push((u, v));
                    changed = true;
                } else {
                    edges.pop();
                }
            }
        }
        if !changed {
            break;
        }
    }
    edges.sort_unstable();
    RepairOutcome {
        edges,
        added,
        examined,
    }
}

/// Convenience wrapper operating on a [`ChordalResult`] with a throwaway
/// [`Workspace`]; see [`repair_result_with`].
pub fn repair_result<'a>(graph: impl Into<GraphRef<'a>>, result: &ChordalResult) -> ChordalResult {
    repair_result_with(graph, result, &mut Workspace::new())
}

/// Repairs a [`ChordalResult`], returning a new result with the augmented
/// edge set. The repair pass is counted as one extra iteration, and — when
/// the inner extraction recorded per-iteration stats — one aggregate stats
/// record (`examined` candidates as the work proxy, `added.len()` edges) is
/// appended, so the repaired result keeps the stats invariants of the
/// unrepaired one.
pub fn repair_result_with<'a>(
    graph: impl Into<GraphRef<'a>>,
    result: &ChordalResult,
    workspace: &mut Workspace,
) -> ChordalResult {
    repair_result_impl(graph.into(), result, workspace, false)
}

/// [`repair_result_with`], skipping the up-front chordality certification
/// when `assume_chordal` is set: the registry's post-pass
/// ([`crate::ExtractorConfig::extract_into`]).
pub(crate) fn repair_result_impl(
    graph: GraphRef<'_>,
    result: &ChordalResult,
    workspace: &mut Workspace,
    assume_chordal: bool,
) -> ChordalResult {
    let outcome = repair_with(graph, result.edges(), workspace, assume_chordal);
    let mut stats = result.stats.clone();
    if let Some(stats) = &mut stats {
        stats.record(outcome.examined, outcome.added.len());
    }
    ChordalResult::new(
        graph.num_vertices(),
        outcome.edges,
        result.iterations + 1,
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_maximality, is_chordal};
    use crate::{extract_maximal_chordal_serial, reference::extract_reference};
    use chordal_generators::{rmat::RmatKind, rmat::RmatParams, structured};
    use chordal_graph::builder::graph_from_edges;

    /// The graph on which the bulk-synchronous reference drops exactly one
    /// edge, `(2,3)`, from an already chordal graph.
    fn figure1_gap_graph() -> chordal_graph::CsrGraph {
        graph_from_edges(
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
        )
    }

    #[test]
    fn repairs_the_synchronous_figure1_gap() {
        // The repair pass puts the dropped edge back.
        let g = figure1_gap_graph();
        let r = extract_reference(&g);
        assert_eq!(r.num_chordal_edges(), g.num_edges() - 1);
        let repaired = repair_result(&g, &r);
        assert_eq!(repaired.num_chordal_edges(), g.num_edges());
        assert!(is_chordal(&repaired.subgraph(&g)));
        assert_eq!(
            repaired.edges(),
            repair_maximality_reference(&g, r.edges()).edges
        );
    }

    #[test]
    fn repair_never_breaks_chordality_and_achieves_maximality() {
        let mut workspace = Workspace::new();
        for seed in 0..3 {
            let g = RmatParams::preset(RmatKind::G, 7, seed).generate();
            let r = extract_maximal_chordal_serial(&g);
            let outcome = repair_maximality_with(&g, r.edges(), &mut workspace);
            let sub = edge_subgraph(&g, &outcome.edges);
            assert!(is_chordal(&sub), "seed {seed}");
            assert!(
                check_maximality(&g, &outcome.edges, None, 0).is_maximal(),
                "seed {seed}: repaired subgraph must be maximal"
            );
            assert!(outcome.edges.len() >= r.num_chordal_edges());
            assert_eq!(
                outcome.edges.len(),
                r.num_chordal_edges() + outcome.added.len()
            );
            assert_eq!(
                outcome,
                repair_maximality_reference(&g, r.edges()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn repair_matches_the_reference_edge_for_edge() {
        for seed in 0..4 {
            let g = RmatParams::preset(RmatKind::B, 7, seed).generate();
            let r = extract_maximal_chordal_serial(&g);
            let mut ws = Workspace::new();
            let repaired = repair_maximality_with(&g, r.edges(), &mut ws);
            let reference = repair_maximality_reference(&g, r.edges());
            assert_eq!(repaired, reference, "seed {seed}");
        }
    }

    #[test]
    fn repair_is_a_no_op_on_already_maximal_output() {
        let g = structured::cycle(8);
        let r = extract_maximal_chordal_serial(&g);
        let outcome = repair_maximality(&g, r.edges());
        assert!(outcome.added.is_empty());
        assert_eq!(outcome.edges.len(), r.num_chordal_edges());
        assert_eq!(outcome, repair_maximality_reference(&g, r.edges()));
    }

    #[test]
    fn repaired_stats_and_iterations_stay_consistent() {
        use crate::config::{AdjacencyMode, ExtractorConfig};
        use crate::ExtractionSession;
        let g = RmatParams::preset(RmatKind::G, 7, 5).generate();
        let config = ExtractorConfig::serial(AdjacencyMode::Sorted)
            .with_stats(true)
            .with_repair(true);
        let mut session = ExtractionSession::new(config);
        let result = session.extract(&g);
        let stats = result.stats.as_ref().expect("stats were requested");
        assert_eq!(stats.iterations(), result.iterations);
        assert_eq!(
            stats.total_edges(),
            result.num_chordal_edges(),
            "repaired stats must account for the edges the repair pass added"
        );
    }

    #[test]
    fn repeated_repairs_reuse_the_workspace() {
        let g = RmatParams::preset(RmatKind::G, 8, 2).generate();
        let r = extract_maximal_chordal_serial(&g);
        let mut ws = Workspace::new();
        let first = repair_maximality_with(&g, r.edges(), &mut ws);
        let allocations = ws.allocations();
        let again = repair_maximality_with(&g, r.edges(), &mut ws);
        assert_eq!(first, again);
        assert_eq!(
            ws.allocations(),
            allocations,
            "second repair of the same graph must not grow the workspace"
        );
    }

    #[test]
    fn registry_built_repair_is_maximal_and_named() {
        use crate::config::{AdjacencyMode, ExtractorConfig};
        use crate::{Algorithm, ExtractionSession};
        let config = ExtractorConfig::serial(AdjacencyMode::Sorted).with_repair(true);
        let mut session = ExtractionSession::new(config);
        assert_eq!(session.extractor_name(), "alg1+repair");
        for seed in 0..3 {
            let g = RmatParams::preset(RmatKind::G, 7, seed).generate();
            let result = session.extract(&g);
            assert!(is_chordal(&result.subgraph(&g)), "seed {seed}");
            assert!(
                check_maximality(&g, result.edges(), None, 0).is_maximal(),
                "seed {seed}: alg1 + repair must be strictly maximal"
            );
        }
        // Repaired Dearing output is unchanged: the baseline is already
        // maximal, so the post-pass adds nothing.
        let g = structured::grid(5, 5);
        let mut dearing =
            ExtractionSession::new(ExtractorConfig::default().with_algorithm(Algorithm::Dearing));
        let mut repaired_dearing = ExtractionSession::new(
            ExtractorConfig::default()
                .with_algorithm(Algorithm::Dearing)
                .with_repair(true),
        );
        assert_eq!(repaired_dearing.extractor_name(), "dearing+repair");
        assert_eq!(
            dearing.extract(&g).edges(),
            repaired_dearing.extract(&g).edges()
        );
    }

    #[test]
    fn non_chordal_input_falls_back_to_the_reference() {
        // A chordless 4-cycle as the "chordal" input fails certification.
        // On the bare cycle no candidate is left; with the chord (0,2) in
        // the host, the chord is the one candidate and adding it makes the
        // whole host, which is chordal.
        let cycle = structured::cycle(4);
        let base: Vec<_> = cycle.edges().collect();
        let mut ws = Workspace::new();
        let repaired = repair_maximality_with(&cycle, &base, &mut ws);
        assert_eq!(repaired, repair_maximality_reference(&cycle, &base));
        let chorded = graph_from_edges(4, vec![(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]);
        let repaired = repair_maximality_with(&chorded, &base, &mut ws);
        assert_eq!(repaired.edges, vec![(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]);
        assert_eq!(repaired.added, vec![(0, 2)]);
        assert_eq!(repaired, repair_maximality_reference(&chorded, &base));
    }

    #[test]
    fn repaired_names_cover_the_registry() {
        use crate::Algorithm;
        for algorithm in Algorithm::ALL {
            let repaired = algorithm.repaired_name();
            assert!(repaired.starts_with(algorithm.name()));
            assert!(repaired.ends_with("+repair"));
        }
    }
}
