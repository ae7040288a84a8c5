//! The paper's Algorithm 1: multithreaded maximal chordal subgraph
//! extraction, as a pull over each vertex's own parents.
//!
//! # The pull form
//!
//! Algorithm 1 walks every vertex `w` through its *parents*, the neighbours
//! with smaller ids, in ascending order. At parent `p` it tests
//! `C[w] ⊆ C[p]` and, when the test passes, adds `p` to `w`'s
//! chordal-neighbour set `C[w]`. The paper phrases this as a push: a queue
//! of lowest parents, each handing its children on to their next parent.
//! Here every vertex pulls instead. `w` walks its own parents (the sorted
//! prefix of its adjacency for the Opt variant, [`next_parent_scan`] for
//! Unopt) and reads their sets. A step writes only `C[w]` and the slot
//! holding where it starts, and reads `|C[p]|`, that slot and `C[p]`.
//!
//! The sets live in an arena of [`AtomicU32`] with one slot per directed
//! edge, packed: a piece of vertices `[a, b)` writes its sets back to back
//! from `offsets[a]` ([`GraphRef::offsets`]), and each vertex stores where
//! its set starts in a per-vertex start slot. A set is no longer than its
//! vertex's degree, so a piece's sets end by `offsets[b]` and no piece
//! writes into another's. A one-thread engine runs the pass as the single
//! piece `0..n`, so its sets form one dense prefix of the arena; on the
//! pool they pack within each piece. The pass copies nothing from the
//! graph. Each length sits in a [`Published`] array. Arena, start slots
//! and lengths live in a caller-supplied [`Workspace`]
//! ([`ExtractorConfig::extract_into`]), so repeated extractions over
//! same-sized graphs reuse the buffers.
//!
//! # One ascending pass
//!
//! A parent always has a smaller id than its child, so ascending id order
//! visits every parent before its children: when `w` is reached, every
//! `C[p]` it reads is final. The extraction is therefore one pass in which
//! each subset test sees its parent's final set, the paper's "each thread
//! can asynchronously update" taken to its limit. On a one-thread engine
//! the pass is a plain loop. On the pool it is a doacross
//! ([`Published::doacross`]): participants claim 64-vertex pieces in
//! ascending order, and `w` waits until `|C[p]|` is published. That wait is
//! an acquire load paired with the release store that ends `p`'s step, so
//! the relaxed stores of `C[p]`'s entries and of its start are visible once
//! it returns. `w` needs no wait for its first parent: an empty `C[w]` is a
//! subset of any set. The output depends neither on the engine nor on the
//! thread count or the schedule, and equals the serial oracle
//! [`crate::reference::extract_pull_reference`].
//!
//! The bulk-synchronous reading of the pseudocode, in which iteration `t`
//! tests every vertex against its `t`-th parent's set as it stood when the
//! iteration began, is the registry's [`crate::Algorithm::Reference`]
//! ([`mod@crate::reference`]). It takes as many iterations
//! as the largest parent count, and its per-iteration trace is the source
//! of the `figure7` experiment's counts.

use crate::config::{AdjacencyMode, ExtractorConfig};
use crate::parent::{first_parent_scan, next_parent_scan};
use crate::result::ChordalResult;
use crate::stats::IterationStats;
use crate::workspace::Workspace;
use chordal_graph::{Edge, GraphRef, VertexId, NO_VERTEX};
use chordal_runtime::{Engine, Published};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Algorithm 1 on `graph`, on `config`'s engine and variant, reusing
/// `workspace`; the registry's [`crate::Algorithm::Parallel`].
///
/// For [`AdjacencyMode::Sorted`] the graph's adjacency lists must be
/// sorted ascending; if they are not, a sorted copy is made on the
/// extraction's engine (the cost of that copy is *not* what the paper's
/// Opt timings include, so benchmarks pre-sort their inputs).
pub(crate) fn extract_into(
    config: &ExtractorConfig,
    graph: GraphRef<'_>,
    workspace: &mut Workspace,
) -> ChordalResult {
    if config.adjacency == AdjacencyMode::Sorted && !graph.is_sorted() {
        let mut sorted = graph.to_csr_graph();
        sorted.sort_adjacency(config.engine);
        return extract_into(config, GraphRef::from(&sorted), workspace);
    }
    let n = graph.num_vertices();
    let mut stats = config.record_stats.then(IterationStats::new);
    if n == 0 {
        return ChordalResult::new(0, Vec::new(), 0, stats);
    }
    workspace.prepare_pull(graph);
    let Workspace {
        clen,
        cdata,
        starts,
        ..
    } = workspace;
    let adjacency = Adjacency {
        mode: config.adjacency,
        neighbors: graph.adjacency(),
        offsets: graph.offsets(),
    };
    let cdata = &mut cdata[..graph.num_directed_edges()];
    let starts = &mut starts[..=n];
    pull(&config.engine, adjacency, clen, cdata, starts);
    let edges = sorted_edges(clen, cdata, starts);
    // One pass, in which every vertex with a child serves as a parent.
    let iterations = usize::from(graph.num_directed_edges() > 0);
    if let Some(s) = stats.as_mut().filter(|_| iterations == 1) {
        let parents = (0..n).filter(|&v| adjacency.has_child(v)).count();
        s.record(parents, edges.len());
    }
    ChordalResult::new(n, edges, iterations, stats)
}

/// The graph as the pass reads it: the flat adjacency array through the
/// graph's own CSR offsets. A vertex can never have more chordal
/// neighbours than its degree, so a piece `[a, b)` whose sets start at
/// `offsets[a]` fits below `offsets[b]`.
#[derive(Clone, Copy)]
struct Adjacency<'a> {
    mode: AdjacencyMode,
    neighbors: &'a [VertexId],
    offsets: &'a [usize],
}

impl<'a> Adjacency<'a> {
    fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbours of `v`.
    #[inline]
    fn of(&self, v: usize) -> &'a [VertexId] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The parents of `w` in ascending order.
    #[inline]
    fn parents(&self, w: usize) -> Parents<'a> {
        let neighbors = self.of(w);
        let w = w as VertexId;
        match self.mode {
            AdjacencyMode::Sorted => Parents::Prefix(neighbors.iter(), w),
            AdjacencyMode::Unsorted => Parents::Scan {
                neighbors,
                w,
                next: first_parent_scan(neighbors, w),
            },
        }
    }

    /// Whether `v` is the parent of some vertex.
    fn has_child(&self, v: usize) -> bool {
        let neighbors = self.of(v);
        let v = v as VertexId;
        match self.mode {
            AdjacencyMode::Sorted => neighbors.last().is_some_and(|&x| x > v),
            AdjacencyMode::Unsorted => neighbors.iter().any(|&x| x > v),
        }
    }
}

/// The parents of one vertex in ascending order; see [`Adjacency::parents`].
enum Parents<'a> {
    /// Opt: the sorted adjacency, up to the first neighbour above `w`.
    Prefix(std::slice::Iter<'a, VertexId>, VertexId),
    /// Unopt: each parent found by scanning from the one before.
    Scan {
        neighbors: &'a [VertexId],
        w: VertexId,
        next: VertexId,
    },
}

impl Iterator for Parents<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        match self {
            Parents::Prefix(rest, w) => rest.next().copied().filter(|p| p < w),
            Parents::Scan { neighbors, w, next } => {
                let p = *next;
                if p == NO_VERTEX {
                    return None;
                }
                *next = next_parent_scan(neighbors, *w, p);
                Some(p)
            }
        }
    }
}

/// The pass (module docs): every vertex, in ascending order, tests its set
/// against each parent's final set, reading the graph through `adjacency`.
/// A piece `[a, b)` writes its sets to the arena `cdata` back to back from
/// `offsets[a]`; `w` stores where `C[w]` starts in `starts[w]` and then
/// publishes `|C[w]|` to `clen`, so a child that waits on the length reads
/// the start after it.
fn pull(
    engine: &Engine,
    adjacency: Adjacency<'_>,
    clen: &Published,
    cdata: &[AtomicU32],
    starts: &[AtomicUsize],
) {
    clen.doacross(engine, adjacency.num_vertices(), |range| {
        let mut base_w = adjacency.offsets[range.start];
        for w in range {
            let mut len_w = 0;
            for p in adjacency.parents(w) {
                let p_idx = p as usize;
                let accept = len_w == 0
                    || match clen.wait(p_idx) {
                        Some(len_p) => subset(
                            cdata,
                            base_w,
                            len_w,
                            starts[p_idx].load(Ordering::Relaxed),
                            len_p as usize,
                        ),
                        // A piece below panicked; the caller unwinds.
                        None => return,
                    };
                if accept {
                    cdata[base_w + len_w].store(p, Ordering::Relaxed);
                    len_w += 1;
                }
            }
            starts[w].store(base_w, Ordering::Relaxed);
            clen.publish(w, len_w as u32);
            base_w += len_w;
        }
    });
}

/// Ordered-merge subset test `C[a] ⊆ C[b]` over the sets' first `len_a`
/// and `len_b` entries, which start at arena slots `base_a` and `base_b`.
/// Both sets are sorted ascending because parents are accepted in
/// increasing-id order; elements live in the atomic arena, so the shared
/// kernel is used through its accessor form with relaxed per-element loads
/// (the same instruction as a plain load).
#[inline]
fn subset(arena: &[AtomicU32], base_a: usize, len_a: usize, base_b: usize, len_b: usize) -> bool {
    crate::kernels::sorted_subset_by(
        len_a,
        |i| arena[base_a + i].load(Ordering::Relaxed),
        len_b,
        |j| arena[base_b + j].load(Ordering::Relaxed),
    )
}

/// EC in canonical sorted order. Runs after the pass has finished, so it
/// reads lengths, starts and entries through the owner forms.
///
/// First every set moves down to its place in ascending-`w` order, which
/// leaves the sets dense from slot 0; the one-thread layout already is, so
/// nothing moves. A set never moves up, so the move never overwrites a set
/// it has not moved yet: if `w`'s piece starts at `a`, the sets below `a`
/// hold no more entries than their degrees, `offsets[a]`, and the piece's
/// sets below `w` lie between `offsets[a]` and `w`'s start. Then every
/// entry `p` of `C[w]` is the edge `(p, w)` with `p < w`, so a counting
/// sort on `p` that visits `w` in ascending order sorts the edges without
/// comparing them. The start slots, free once the sets are dense, hold its
/// per-parent bucket starts.
fn sorted_edges(
    clen: &mut Published,
    cdata: &mut [AtomicU32],
    starts: &mut [AtomicUsize],
) -> Vec<Edge> {
    let n = starts.len() - 1;
    let mut dense = 0;
    for (w, start) in starts[..n].iter_mut().enumerate() {
        let start = *start.get_mut();
        let len = clen.get_mut(w) as usize;
        if start != dense {
            for i in 0..len {
                let p = *cdata[start + i].get_mut();
                *cdata[dense + i].get_mut() = p;
            }
        }
        dense += len;
    }
    let entries = &mut cdata[..dense];
    for slot in starts.iter_mut() {
        *slot.get_mut() = 0;
    }
    for p in entries.iter_mut() {
        *starts[*p.get_mut() as usize + 1].get_mut() += 1;
    }
    for p in 0..n {
        let below = *starts[p].get_mut();
        *starts[p + 1].get_mut() += below;
    }
    let mut edges = vec![(0, 0); dense];
    let mut entries = entries.iter_mut();
    for w in 0..n {
        for p in entries.by_ref().take(clen.get_mut(w) as usize) {
            let p = *p.get_mut();
            let slot = starts[p as usize].get_mut();
            edges[*slot] = (p, w as VertexId);
            *slot += 1;
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{extract_pull_reference, extract_reference};
    use crate::verify;
    use chordal_generators::{rmat::RmatKind, rmat::RmatParams, structured};
    use chordal_graph::builder::graph_from_edges;
    use chordal_graph::CsrGraph;
    use chordal_runtime::Engine;

    /// One thread, and the doacross at four and eight participants (more
    /// than the cores of a small host, so waiters must yield to publishers).
    fn all_engines() -> Vec<Engine> {
        vec![Engine::serial(), Engine::chunked(8), Engine::chunked(4)]
    }

    fn extract_with(graph: &CsrGraph, engine: Engine, adjacency: AdjacencyMode) -> ChordalResult {
        ExtractorConfig::default()
            .with_engine(engine)
            .with_adjacency(adjacency)
            .with_stats(true)
            .extract(graph)
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let empty = CsrGraph::empty(0);
        let r = extract_with(&empty, Engine::serial(), AdjacencyMode::Sorted);
        assert_eq!(r.num_chordal_edges(), 0);

        let isolated = CsrGraph::empty(7);
        let r = extract_with(&isolated, Engine::chunked(2), AdjacencyMode::Sorted);
        assert_eq!(r.num_chordal_edges(), 0);
        assert_eq!(r.iterations, 0);

        let single_edge = graph_from_edges(2, vec![(0, 1)]);
        let r = extract_with(&single_edge, Engine::serial(), AdjacencyMode::Sorted);
        assert_eq!(r.edges(), &[(0, 1)]);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn matches_the_pull_oracle_on_structured_graphs() {
        let graphs = vec![
            structured::path(20),
            structured::cycle(21),
            structured::complete(8),
            structured::grid(6, 7),
            structured::star(15),
            structured::complete_bipartite(5, 6),
            structured::disjoint_cliques(4, 5),
        ];
        for g in graphs {
            let expected = extract_pull_reference(&g, true);
            for engine in all_engines() {
                for adjacency in [AdjacencyMode::Sorted, AdjacencyMode::Unsorted] {
                    let got = extract_with(&g, engine, adjacency);
                    assert_eq!(got, expected, "engine={engine:?} adjacency={adjacency:?}");
                }
            }
        }
    }

    #[test]
    fn matches_the_pull_oracle_on_rmat_graphs() {
        for kind in [RmatKind::Er, RmatKind::G, RmatKind::B] {
            let g = RmatParams::preset(kind, 10, 4).generate();
            let expected = extract_pull_reference(&g, true);
            for engine in all_engines() {
                let got = extract_with(&g, engine, AdjacencyMode::Sorted);
                assert_eq!(got, expected, "{kind:?} {engine:?}");
            }
        }
    }

    #[test]
    fn output_is_chordal_on_random_inputs() {
        for seed in 0..4 {
            let g = RmatParams::preset(RmatKind::G, 8, seed).generate();
            let r = extract_with(&g, Engine::chunked(4), AdjacencyMode::Sorted);
            let sub = r.subgraph(&g);
            assert!(verify::is_chordal(&sub), "seed {seed}");
            // EC is a subset of E.
            for &(u, v) in r.edges() {
                assert!(g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn clique_retained_in_one_iteration_in_parallel() {
        // The bulk-synchronous reference needs k - 1 iterations for a
        // k-clique; the pass keeps it whole in one.
        let k = 7;
        let g = structured::complete(k);
        for engine in all_engines() {
            let r = extract_with(&g, engine, AdjacencyMode::Sorted);
            assert_eq!(r.num_chordal_edges(), k * (k - 1) / 2);
            assert_eq!(r.iterations, 1);
        }
    }

    #[test]
    fn unsorted_mode_on_scrambled_adjacency_matches_the_pull_oracle() {
        let g = RmatParams::preset(RmatKind::Er, 8, 11).generate();
        let scrambled = g.with_scrambled_adjacency(5);
        let expected = extract_pull_reference(&g, false);
        let got = extract_with(&scrambled, Engine::chunked(3), AdjacencyMode::Unsorted);
        assert_eq!(got.edges(), expected.edges());
    }

    #[test]
    fn asynchronous_serial_retains_every_edge_of_the_figure1_example() {
        // The chordal input on which the bulk-synchronous interpretation
        // drops (2,3): the paper-faithful asynchronous sweep (ascending
        // queue order) observes the intra-iteration acceptance of (1,2) and
        // keeps the whole graph.
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
        let r = ExtractorConfig::serial(AdjacencyMode::Sorted).extract(&g);
        assert_eq!(r.num_chordal_edges(), g.num_edges());
        assert!(verify::is_chordal(&r.subgraph(&g)));
    }

    #[test]
    fn asynchronous_serial_output_is_near_maximal_on_connected_inputs() {
        // Reproduction finding: Algorithm 1 as published is not strictly
        // maximal in every case — a vertex can reject an edge against a
        // chordal-neighbour set that is still growing (the gap in Theorem
        // 2's proof; `experiments maximality-gap` measures it). Empirically
        // the output is *near*
        // maximal: only a small fraction of the rejected edges could be
        // re-added. This test pins that bound so regressions that make the
        // output substantially less maximal are caught.
        use chordal_graph::permute::apply_permutation;
        use chordal_graph::traversal::bfs_numbering;
        for seed in 0..3 {
            let g = RmatParams::preset(RmatKind::G, 7, seed).generate();
            // BFS renumbering, as the paper recommends for connectivity.
            let perm = bfs_numbering(&g);
            let g = apply_permutation(&g, &perm).unwrap();
            let r = ExtractorConfig::serial(AdjacencyMode::Sorted).extract(&g);
            assert!(verify::is_chordal(&r.subgraph(&g)), "seed {seed}");
            let sample = 200;
            let report = verify::check_maximality(&g, r.edges(), Some(sample), seed);
            let violations = match &report {
                verify::MaximalityReport::Maximal => 0,
                verify::MaximalityReport::Violations(v) => v.len(),
            };
            assert!(
                violations * 4 <= sample,
                "seed {seed}: {violations} of {sample} sampled rejected edges could be re-added"
            );
        }
    }

    #[test]
    fn one_pass_needs_fewer_iterations_than_the_bulk_synchronous_reference() {
        // Ascending id order visits every parent before its children, so
        // the pass tests each vertex against all of its parents' final sets
        // in one iteration; the bulk-synchronous reference advances every
        // vertex by one parent per iteration, as many iterations as the
        // largest parent count.
        let g = RmatParams::preset(RmatKind::B, 9, 5).generate();
        let sync = extract_reference(&g);
        let async_r = ExtractorConfig::serial(AdjacencyMode::Sorted)
            .with_stats(true)
            .extract(&g);
        assert_eq!(async_r.iterations, 1);
        assert!(
            async_r.iterations < sync.iterations,
            "async {} vs sync {}",
            async_r.iterations,
            sync.iterations
        );
    }

    #[test]
    fn asynchronous_semantics_still_produces_chordal_output() {
        let g = RmatParams::preset(RmatKind::B, 8, 2).generate();
        let r = ExtractorConfig::default()
            .with_engine(Engine::chunked(4))
            .extract(&g);
        assert!(verify::is_chordal(&r.subgraph(&g)));
        for &(u, v) in r.edges() {
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn asynchronous_pass_matches_the_pull_oracle_on_every_engine_and_variant() {
        for kind in [RmatKind::Er, RmatKind::G, RmatKind::B] {
            let g = RmatParams::preset(kind, 9, 3).generate();
            let expected = extract_pull_reference(&g, true);
            let scrambled = g.with_scrambled_adjacency(5);
            for engine in all_engines() {
                for (adjacency, graph) in [
                    (AdjacencyMode::Sorted, &g),
                    (AdjacencyMode::Unsorted, &scrambled),
                ] {
                    let got = extract_with(graph, engine, adjacency);
                    assert_eq!(got, expected, "{kind:?} {engine:?} {adjacency:?}");
                }
            }
        }
    }

    #[test]
    fn pool_pass_matches_the_pull_oracle_when_sets_fill_their_piece() {
        // Every set of `complete(150)` holds all of its vertex's parents, the
        // longest a set can be, in each of the pieces [0,64), [64,128) and
        // [128,150). The cliques of `disjoint_cliques(3, 70)` straddle the
        // piece boundaries. In `shifted`, vertex 63's one edge is the only
        // arena slot below the second piece, so every set of that piece's
        // 64-clique moves down by one slot, onto itself. The workspace then
        // serves a smaller graph, over the entries and starts these runs left.
        let clique = (64..128).flat_map(|u| (u + 1..128).map(move |v| (u, v)));
        let shifted = graph_from_edges(128, clique.chain([(63, 64)]));
        let mut workspace = Workspace::new();
        for g in [
            structured::complete(150),
            structured::disjoint_cliques(3, 70),
            shifted,
        ] {
            let expected = extract_pull_reference(&g, true);
            let scrambled = g.with_scrambled_adjacency(7);
            for engine in [Engine::chunked(2), Engine::chunked(4)] {
                for (adjacency, graph) in [
                    (AdjacencyMode::Sorted, &g),
                    (AdjacencyMode::Unsorted, &scrambled),
                ] {
                    let config = ExtractorConfig::default()
                        .with_engine(engine)
                        .with_adjacency(adjacency)
                        .with_stats(true);
                    let got = config.extract_into(graph.into(), &mut workspace);
                    assert_eq!(got, expected, "{engine:?} {adjacency:?}");
                }
            }
        }
        let grid = structured::grid(6, 7);
        for engine in [Engine::chunked(2), Engine::chunked(4)] {
            let config = ExtractorConfig::default().with_engine(engine);
            let reused = config.extract_into((&grid).into(), &mut workspace);
            assert_eq!(reused, config.extract(&grid), "{engine:?}");
        }
    }

    #[test]
    fn stats_are_recorded_and_consistent() {
        let g = structured::disjoint_cliques(3, 5);
        let r = extract_with(&g, Engine::chunked(2), AdjacencyMode::Sorted);
        let stats = r.stats.as_ref().expect("stats requested");
        assert_eq!(stats.iterations(), r.iterations);
        assert_eq!(stats.total_edges(), r.num_chordal_edges());
        assert!(stats.queue_sizes[0] >= 1);
    }

    #[test]
    fn sorted_mode_transparently_sorts_unsorted_input() {
        let g = structured::grid(5, 5).with_scrambled_adjacency(9);
        assert!(!g.is_sorted());
        let r = extract_with(&g, Engine::serial(), AdjacencyMode::Sorted);
        assert_eq!(r, extract_pull_reference(&g, true));
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs_and_stops_allocating() {
        let config = ExtractorConfig::serial(AdjacencyMode::Sorted);
        let mut workspace = Workspace::new();
        let graphs: Vec<CsrGraph> = (0..3)
            .map(|seed| RmatParams::preset(RmatKind::G, 8, seed).generate())
            .collect();
        // First pass warms the workspace up to the largest graph seen; the
        // second pass must neither allocate nor change any result.
        let warm: Vec<ChordalResult> = graphs
            .iter()
            .map(|g| config.extract_into(g.into(), &mut workspace))
            .collect();
        let allocations = workspace.allocations();
        for (g, first) in graphs.iter().zip(&warm) {
            let reused = config.extract_into(g.into(), &mut workspace);
            let fresh = config.extract(g);
            assert_eq!(reused.edges(), fresh.edges());
            assert_eq!(reused.edges(), first.edges());
        }
        assert_eq!(
            workspace.allocations(),
            allocations,
            "already-seen graph shapes must not grow the workspace"
        );
    }

    #[test]
    fn alternating_engines_and_variants_on_one_workspace_match_fresh_runs() {
        // Every run resets the set lengths to unpublished; each must leave
        // the workspace ready for the next, on every engine and variant.
        let g = RmatParams::preset(RmatKind::B, 8, 4).generate();
        let scrambled = g.with_scrambled_adjacency(3);
        let mut workspace = Workspace::new();
        for _round in 0..2 {
            for engine in all_engines() {
                for (adjacency, graph) in [
                    (AdjacencyMode::Sorted, &g),
                    (AdjacencyMode::Unsorted, &scrambled),
                ] {
                    let config = ExtractorConfig::default()
                        .with_engine(engine)
                        .with_adjacency(adjacency);
                    let reused = config.extract_into(graph.into(), &mut workspace);
                    assert!(verify::is_chordal(&reused.subgraph(graph)));
                    assert_eq!(reused, config.extract(graph), "{engine:?} {adjacency:?}");
                }
            }
        }
    }
}
