//! The paper's Algorithm 1: multithreaded maximal chordal subgraph
//! extraction.
//!
//! # Shared state and synchronisation
//!
//! The extraction keeps, for every vertex `w`:
//!
//! * a place on the *child list* of its current lowest parent — intrusive
//!   lists of [`ListHeads`] and [`ListLinks`], so a parent's step visits
//!   exactly the children due to it instead of rescanning its neighbours;
//! * `cursor[w]` — for the Opt variant, the index of the current parent in
//!   `w`'s sorted adjacency list;
//! * `C[w]` — the chordal-neighbour set, stored in a CSR-shaped arena of
//!   [`AtomicU32`] sized by `w`'s degree with a published length `clen[w]`.
//!
//! All of that state lives in a caller-supplied [`Workspace`]
//! ([`ChordalExtractor::extract_into`]), so repeated extractions over
//! same-sized graphs reuse the buffers instead of reallocating them.
//!
//! **Who owns `w`.** The task whose take of a child list returned `w` owns
//! it: that task alone writes `C[w]` and `cursor[w]`, runs the subset test
//! and moves `w` on. Moving `w` is a push onto the list of its next parent,
//! which gives `w` up; from the push until some parent's take returns it,
//! no task touches `w`'s state. The push is a release CAS on the list head
//! and the take an acquire swap (`chordal_runtime::lists`), so the next
//! owner sees everything the previous one wrote: plain relaxed accesses
//! suffice for `C[w]` and `cursor[w]`. Lowest parents are unique, so every
//! vertex sits on at most one list.
//!
//! **The frontier.** A push also flags the new parent in [`AtomicFlags`].
//! The next iteration's queue is the set of flagged parents, drained in
//! ascending order between parallel regions. The drain needs no ordering
//! of its own: the join of the region that set the flags happens before it,
//! and it happens before the start of the next region.
//!
//! **Reading another vertex's set.** The subset test `C[w] ⊆ C[v]` reads
//! `C[v]`, which `v`'s own owner may be extending concurrently. Under
//! [`Semantics::Synchronous`] each queue entry's `|C[v]|` is frozen when the
//! iteration starts (the prefix below it is immutable — sets are
//! append-only), and children moved during iteration `t` join the second
//! head array, which becomes the current one in iteration `t + 1`. That makes
//! the algorithm entirely deterministic: every engine, thread count and
//! schedule returns the same edge set as
//! [`crate::reference::extract_reference`]. Under the default
//! [`Semantics::Asynchronous`] the reader acquires the live length (paired
//! with the owner's release store of `clen`), and moved children join the
//! live lists, so a parent later in the same sweep picks them up. That
//! matches the paper's "asynchronous update" wording; the output is still a
//! maximal chordal subgraph but the exact edge set may vary between runs.

use crate::config::{AdjacencyMode, ExtractorConfig, Semantics};
use crate::extractor::ChordalExtractor;
use crate::parent::{first_parent_scan, next_parent_scan};
use crate::result::ChordalResult;
use crate::stats::IterationStats;
use crate::workspace::Workspace;
use chordal_graph::{Edge, GraphRef, VertexId, NO_VERTEX};
use chordal_runtime::{AtomicFlags, ListHeads, ListLinks};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Multithreaded maximal chordal subgraph extractor (Algorithm 1 of the
/// paper).
#[derive(Debug, Clone)]
pub struct MaximalChordalExtractor {
    config: ExtractorConfig,
}

impl MaximalChordalExtractor {
    /// Creates an extractor with the given configuration.
    pub fn new(config: ExtractorConfig) -> Self {
        Self { config }
    }

    /// The extractor's configuration.
    pub fn config(&self) -> &ExtractorConfig {
        &self.config
    }

    /// Extracts a maximal chordal subgraph of `graph` with a throwaway
    /// workspace. Prefer [`crate::ExtractionSession`] (or
    /// [`ChordalExtractor::extract_into`]) when extracting repeatedly.
    pub fn extract<'a>(&self, graph: impl Into<GraphRef<'a>>) -> ChordalResult {
        let mut workspace = Workspace::new();
        self.extract_into(graph.into(), &mut workspace)
    }

    fn run(&self, graph: GraphRef<'_>, workspace: &mut Workspace) -> ChordalResult {
        let n = graph.num_vertices();
        let mut stats = self.config.record_stats.then(IterationStats::new);
        if n == 0 {
            return ChordalResult::new(0, Vec::new(), 0, stats);
        }
        let engine = &self.config.engine;
        let sync = self.config.semantics == Semantics::Synchronous;
        workspace.prepare_atomic_from(graph, sync);
        // Plain buffers, taken out of the workspace so the shared state can
        // borrow it immutably.
        let mut queue = std::mem::take(&mut workspace.queue_a);
        let mut frozen_clen = std::mem::take(&mut workspace.ids_b);
        let mut starts = std::mem::take(&mut workspace.starts);

        let state = SharedState::borrowed(workspace, graph, self.config.adjacency);
        let mut current = &workspace.heads;
        let mut next = if sync {
            &workspace.next_heads
        } else {
            &workspace.heads
        };

        // Initialisation: every vertex joins the list of its lowest parent,
        // which is flagged for the first iteration.
        engine.parallel_for(n, |v| {
            let v = v as VertexId;
            let parent = state.first_parent(v);
            if parent != NO_VERTEX {
                state.hand_over(current, parent, v);
            }
        });

        let mut iterations = 0usize;
        loop {
            // The frontier in ascending id order. Under the asynchronous
            // semantics this is what lets a vertex walk through several
            // parents in one iteration (its next parent always has a larger
            // id, so it is scheduled later in the same sweep whenever it is
            // present in the queue) — the behaviour behind the paper's
            // ~3-iteration observation on R-MAT inputs. Under the
            // synchronous semantics ordering is irrelevant to the result.
            queue.clear();
            queue.extend(state.flags.drain().map(|v| v as VertexId));
            if queue.is_empty() {
                break;
            }
            iterations += 1;
            if sync {
                frozen_clen.clear();
                frozen_clen.extend(
                    queue
                        .iter()
                        .map(|&v| state.clen[v as usize].load(Ordering::Relaxed)),
                );
            }
            let accepted = AtomicUsize::new(0);
            engine.parallel_for_chunks(queue.len(), |range| {
                let mut local = 0;
                for qi in range {
                    let frozen_len = sync.then(|| frozen_clen[qi]);
                    local += state.step(current, next, queue[qi], frozen_len);
                }
                if local > 0 {
                    accepted.fetch_add(local, Ordering::Relaxed);
                }
            });
            if let Some(s) = stats.as_mut() {
                s.record(queue.len(), accepted.into_inner());
            }
            std::mem::swap(&mut current, &mut next);
        }

        let edges = state.sorted_edges(&mut starts);

        // Return the plain buffers to the workspace for the next run.
        workspace.queue_a = queue;
        workspace.ids_b = frozen_clen;
        workspace.starts = starts;

        ChordalResult::new(n, edges, iterations, stats)
    }
}

impl ChordalExtractor for MaximalChordalExtractor {
    fn name(&self) -> &'static str {
        "alg1"
    }

    /// Extracts a maximal chordal subgraph of `graph`, reusing `workspace`.
    ///
    /// For [`AdjacencyMode::Sorted`] the graph's adjacency lists must be
    /// sorted ascending; if they are not, a sorted copy is made (the cost of
    /// that copy is *not* what the paper's Opt timings include, so
    /// benchmarks pre-sort their inputs).
    fn extract_into(&self, graph: GraphRef<'_>, workspace: &mut Workspace) -> ChordalResult {
        if self.config.adjacency == AdjacencyMode::Sorted && !graph.is_sorted() {
            let mut sorted = graph.to_csr_graph();
            sorted.sort_adjacency();
            return self.run(GraphRef::from(&sorted), workspace);
        }
        self.run(graph, workspace)
    }
}

/// The shared state of an extraction run, borrowed from a [`Workspace`]
/// prepared for the current graph.
struct SharedState<'a> {
    adjacency: AdjacencyMode,
    /// The graph's flat adjacency array.
    neighbors: &'a [VertexId],
    /// Per-vertex offsets into `neighbors` and `cdata` (copied from the
    /// graph's CSR offsets: a vertex can never have more chordal neighbours
    /// than its degree).
    offsets: &'a [usize],
    /// Cursor of the current parent in the sorted adjacency (Opt variant).
    cursor: &'a [AtomicU32],
    /// Chordal-neighbour arena.
    cdata: &'a [AtomicU32],
    /// Published length of every chordal-neighbour set.
    clen: &'a [AtomicU32],
    /// Successor links of the child lists.
    links: &'a ListLinks,
    /// The next iteration's frontier.
    flags: &'a AtomicFlags,
}

impl<'a> SharedState<'a> {
    /// Borrows the buffers of `workspace`, prepared for `graph`.
    fn borrowed(workspace: &'a Workspace, graph: GraphRef<'a>, adjacency: AdjacencyMode) -> Self {
        let n = graph.num_vertices();
        Self {
            adjacency,
            neighbors: graph.adjacency(),
            offsets: &workspace.offsets[..n + 1],
            cursor: &workspace.cursor[..n],
            cdata: &workspace.cdata[..graph.num_directed_edges()],
            clen: &workspace.clen[..n],
            links: &workspace.links,
            flags: workspace.flags(),
        }
    }

    /// Neighbours of `v`.
    #[inline]
    fn neighbors_of(&self, v: usize) -> &'a [VertexId] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The lowest parent of `v`, or [`NO_VERTEX`]. The Opt cursor starts at
    /// zero, the first slot of the sorted list.
    fn first_parent(&self, v: VertexId) -> VertexId {
        let neighbors = self.neighbors_of(v as usize);
        match self.adjacency {
            AdjacencyMode::Sorted => match neighbors.first() {
                Some(&p) if p < v => p,
                _ => NO_VERTEX,
            },
            AdjacencyMode::Unsorted => first_parent_scan(neighbors, v),
        }
    }

    /// The parent of `w` after `current`, or [`NO_VERTEX`]; advances the Opt
    /// cursor. Only `w`'s owner calls it.
    #[inline]
    fn next_parent(&self, w: VertexId, current: VertexId) -> VertexId {
        let w_idx = w as usize;
        let neighbors = self.neighbors_of(w_idx);
        match self.adjacency {
            AdjacencyMode::Sorted => {
                let cursor = self.cursor[w_idx].load(Ordering::Relaxed) + 1;
                match neighbors.get(cursor as usize) {
                    Some(&p) if p < w => {
                        self.cursor[w_idx].store(cursor, Ordering::Relaxed);
                        p
                    }
                    _ => NO_VERTEX,
                }
            }
            AdjacencyMode::Unsorted => next_parent_scan(neighbors, w, current),
        }
    }

    /// Gives `w` up to `parent`: pushes it onto `parent`'s list in `lists`
    /// and flags `parent` for the next iteration.
    #[inline]
    fn hand_over(&self, lists: &ListHeads, parent: VertexId, w: VertexId) {
        lists.push(self.links, parent, w);
        self.flags.test_and_set(parent as usize);
    }

    /// Parent `v`'s step: for every child taken from `v`'s
    /// list in `current`, the subset test `C[w] ⊆ C[v]`, possibly the edge
    /// `(v, w)`, then the hand-over of `w` to its next parent in `next`.
    /// `frozen_len_v` is `|C[v]|` at the start of the iteration under the
    /// synchronous semantics, `None` to read it live. Returns the number of
    /// edges accepted.
    fn step(
        &self,
        current: &ListHeads,
        next: &ListHeads,
        v: VertexId,
        frozen_len_v: Option<u32>,
    ) -> usize {
        let v_idx = v as usize;
        let mut accepted = 0;
        for w in current.take(self.links, v) {
            // The take made this task w's unique owner.
            let w_idx = w as usize;
            let len_w = self.clen[w_idx].load(Ordering::Relaxed) as usize;
            let len_v =
                frozen_len_v.unwrap_or_else(|| self.clen[v_idx].load(Ordering::Acquire)) as usize;
            if self.subset(w_idx, len_w, v_idx, len_v) {
                // C[w] ← C[w] ∪ {v}; the new entry is published with a
                // release store on the length so asynchronous readers see a
                // complete prefix.
                let base = self.offsets[w_idx];
                self.cdata[base + len_w].store(v, Ordering::Relaxed);
                self.clen[w_idx].store((len_w + 1) as u32, Ordering::Release);
                accepted += 1;
            }
            // Advance w's lowest parent (lines 18-22), whether or not the
            // edge was accepted.
            let parent = self.next_parent(w, v);
            if parent != NO_VERTEX {
                self.hand_over(next, parent, w);
            }
        }
        accepted
    }

    /// Ordered-merge subset test `C[a][..len_a] ⊆ C[b][..len_b]`. Both sets
    /// are sorted ascending because parents are accepted in increasing-id
    /// order; elements live in the atomic arena, so the shared kernel is
    /// used through its accessor form with relaxed per-element loads.
    fn subset(&self, a: usize, len_a: usize, b: usize, len_b: usize) -> bool {
        let base_a = self.offsets[a];
        let base_b = self.offsets[b];
        crate::kernels::sorted_subset_by(
            len_a,
            |i| self.cdata[base_a + i].load(Ordering::Relaxed),
            len_b,
            |j| self.cdata[base_b + j].load(Ordering::Relaxed),
        )
    }

    /// `C[w]` as published at the end of the run.
    fn chordal_set(&self, w: usize) -> &'a [AtomicU32] {
        let base = self.offsets[w];
        &self.cdata[base..base + self.clen[w].load(Ordering::Relaxed) as usize]
    }

    /// EC in canonical sorted order: every entry `p` of `C[w]` is the edge
    /// `(p, w)` with `p < w`, so a counting sort on `p` that visits `w` in
    /// ascending order sorts the edges without comparing them. `starts`
    /// holds the per-parent bucket starts. Runs after the last region has
    /// joined, so relaxed loads see every write.
    fn sorted_edges(&self, starts: &mut Vec<usize>) -> Vec<Edge> {
        let n = self.clen.len();
        starts.clear();
        starts.resize(n + 1, 0);
        for w in 0..n {
            for p in self.chordal_set(w) {
                starts[p.load(Ordering::Relaxed) as usize + 1] += 1;
            }
        }
        for p in 0..n {
            starts[p + 1] += starts[p];
        }
        let mut edges = vec![(0, 0); starts[n]];
        for w in 0..n {
            for p in self.chordal_set(w) {
                let p = p.load(Ordering::Relaxed);
                let slot = &mut starts[p as usize];
                edges[*slot] = (p, w as VertexId);
                *slot += 1;
            }
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::extract_reference;
    use crate::verify;
    use chordal_generators::{rmat::RmatKind, rmat::RmatParams, structured};
    use chordal_graph::builder::graph_from_edges;
    use chordal_graph::CsrGraph;
    use chordal_runtime::Engine;

    fn all_engines() -> Vec<Engine> {
        vec![
            Engine::serial(),
            Engine::chunked_with_grain(4, 8),
            Engine::rayon(4),
        ]
    }

    fn extract_with(graph: &CsrGraph, engine: Engine, adjacency: AdjacencyMode) -> ChordalResult {
        let config = ExtractorConfig::default()
            .with_engine(engine)
            .with_adjacency(adjacency)
            .with_semantics(Semantics::Synchronous)
            .with_stats(true);
        MaximalChordalExtractor::new(config).extract(graph)
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let empty = CsrGraph::empty(0);
        let r = extract_with(&empty, Engine::serial(), AdjacencyMode::Sorted);
        assert_eq!(r.num_chordal_edges(), 0);

        let isolated = CsrGraph::empty(7);
        let r = extract_with(&isolated, Engine::rayon(2), AdjacencyMode::Sorted);
        assert_eq!(r.num_chordal_edges(), 0);
        assert_eq!(r.iterations, 0);

        let single_edge = graph_from_edges(2, vec![(0, 1)]);
        let r = extract_with(&single_edge, Engine::serial(), AdjacencyMode::Sorted);
        assert_eq!(r.edges(), &[(0, 1)]);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn matches_reference_on_structured_graphs() {
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
            let expected = extract_reference(&g);
            for engine in all_engines() {
                for adjacency in [AdjacencyMode::Sorted, AdjacencyMode::Unsorted] {
                    let got = extract_with(&g, engine.clone(), adjacency);
                    assert_eq!(
                        got.edges(),
                        expected.edges(),
                        "engine={engine:?} adjacency={adjacency:?}"
                    );
                    assert_eq!(got.iterations, expected.iterations);
                }
            }
        }
    }

    #[test]
    fn matches_reference_on_rmat_graphs() {
        for kind in [RmatKind::Er, RmatKind::G, RmatKind::B] {
            let g = RmatParams::preset(kind, 9, 3).generate();
            let expected = extract_reference(&g);
            for engine in all_engines() {
                let got = extract_with(&g, engine.clone(), AdjacencyMode::Sorted);
                assert_eq!(got.edges(), expected.edges(), "{kind:?} {engine:?}");
            }
        }
    }

    #[test]
    fn output_is_chordal_on_random_inputs() {
        for seed in 0..4 {
            let g = RmatParams::preset(RmatKind::G, 8, seed).generate();
            let r = extract_with(&g, Engine::rayon(4), AdjacencyMode::Sorted);
            let sub = r.subgraph(&g);
            assert!(verify::is_chordal(&sub), "seed {seed}");
            // EC is a subset of E.
            for &(u, v) in r.edges() {
                assert!(g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn clique_retained_in_k_minus_one_iterations_in_parallel() {
        let k = 7;
        let g = structured::complete(k);
        for engine in all_engines() {
            let r = extract_with(&g, engine, AdjacencyMode::Sorted);
            assert_eq!(r.num_chordal_edges(), k * (k - 1) / 2);
            assert_eq!(r.iterations, k - 1);
        }
    }

    #[test]
    fn unsorted_mode_on_scrambled_adjacency_matches_reference() {
        let g = RmatParams::preset(RmatKind::Er, 8, 11).generate();
        let scrambled = g.with_scrambled_adjacency(5);
        let expected = extract_reference(&g);
        let got = extract_with(&scrambled, Engine::rayon(3), AdjacencyMode::Unsorted);
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
        let config = ExtractorConfig::serial(AdjacencyMode::Sorted);
        let r = MaximalChordalExtractor::new(config).extract(&g);
        assert_eq!(r.num_chordal_edges(), g.num_edges());
        assert!(verify::is_chordal(&r.subgraph(&g)));
    }

    #[test]
    fn asynchronous_serial_output_is_near_maximal_on_connected_inputs() {
        // Reproduction finding: Algorithm 1 as published is not strictly
        // maximal in every case — a vertex can reject an edge against a
        // chordal-neighbour set that is still growing (the gap in Theorem
        // 2's proof; see EXPERIMENTS.md). Empirically the output is *near*
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
            let config = ExtractorConfig::serial(AdjacencyMode::Sorted);
            let r = MaximalChordalExtractor::new(config).extract(&g);
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
    fn asynchronous_needs_fewer_iterations_than_synchronous() {
        // The cascading behind the paper's ~3-iteration observation: the
        // asynchronous sweep finishes a clique-rich graph in far fewer
        // iterations than the one-parent-per-iteration synchronous mode.
        let g = RmatParams::preset(RmatKind::B, 9, 5).generate();
        let sync = extract_with(&g, Engine::serial(), AdjacencyMode::Sorted);
        let config = ExtractorConfig::serial(AdjacencyMode::Sorted).with_stats(true);
        let async_r = MaximalChordalExtractor::new(config).extract(&g);
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
        let config = ExtractorConfig::default()
            .with_engine(Engine::rayon(4))
            .with_semantics(Semantics::Asynchronous);
        let r = MaximalChordalExtractor::new(config).extract(&g);
        assert!(verify::is_chordal(&r.subgraph(&g)));
        for &(u, v) in r.edges() {
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn stats_are_recorded_and_consistent() {
        let g = structured::disjoint_cliques(3, 5);
        let r = extract_with(&g, Engine::rayon(2), AdjacencyMode::Sorted);
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
        let expected = extract_reference(&g);
        assert_eq!(r.edges(), expected.edges());
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs_and_stops_allocating() {
        let extractor =
            MaximalChordalExtractor::new(ExtractorConfig::serial(AdjacencyMode::Sorted));
        let mut workspace = Workspace::new();
        let graphs: Vec<CsrGraph> = (0..3)
            .map(|seed| RmatParams::preset(RmatKind::G, 8, seed).generate())
            .collect();
        // First pass warms the workspace up to the largest graph seen; the
        // second pass must neither allocate nor change any result.
        let warm: Vec<ChordalResult> = graphs
            .iter()
            .map(|g| extractor.extract_into(g.into(), &mut workspace))
            .collect();
        let allocations = workspace.allocations();
        for (g, first) in graphs.iter().zip(&warm) {
            let reused = extractor.extract_into(g.into(), &mut workspace);
            let fresh = extractor.extract(g);
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
    fn alternating_semantics_on_one_workspace_match_fresh_runs() {
        // The synchronous run sizes the second head array; the runs around
        // it must find every child list empty and every flag clear.
        let g = RmatParams::preset(RmatKind::B, 8, 4).generate();
        let mut workspace = Workspace::new();
        for engine in all_engines() {
            for semantics in [
                Semantics::Asynchronous,
                Semantics::Synchronous,
                Semantics::Asynchronous,
            ] {
                let extractor = MaximalChordalExtractor::new(
                    ExtractorConfig::default()
                        .with_engine(engine.clone())
                        .with_semantics(semantics),
                );
                let reused = extractor.extract_into((&g).into(), &mut workspace);
                assert!(verify::is_chordal(&reused.subgraph(&g)));
                if semantics == Semantics::Synchronous || engine.threads() == 1 {
                    assert_eq!(reused, extractor.extract(&g), "{engine:?} {semantics:?}");
                }
            }
        }
    }
}
