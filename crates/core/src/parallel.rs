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
//! Unopt) and reads their sets. A step writes only `C[w]` and reads
//! `offsets[p]`, `|C[p]|` and `C[p]`.
//!
//! `C[w]` lives in a CSR-shaped arena of [`AtomicU32`] sized by `w`'s
//! degree; its length sits in a [`Published`] array. Both live in a
//! caller-supplied [`Workspace`] ([`ChordalExtractor::extract_into`]), so
//! repeated extractions over same-sized graphs reuse the buffers.
//!
//! # Asynchronous semantics: one ascending pass
//!
//! A parent always has a smaller id than its child, so ascending id order
//! visits every parent before its children: when `w` is reached, every
//! `C[p]` it reads is final. Under [`Semantics::Asynchronous`] the
//! extraction is therefore one pass in which each subset test sees its
//! parent's final set. On a one-thread engine the pass is a plain loop. On
//! the pool it is a doacross ([`Published::doacross`]): participants claim
//! 64-vertex pieces in ascending order, and `w` waits until `|C[p]|` is
//! published. That wait is an acquire load paired with the release store
//! that ends `p`'s step, so the relaxed stores of `C[p]`'s entries are
//! visible once it returns. `w` needs no wait for its first parent: an
//! empty `C[w]` is a subset of any set. The output depends neither on the
//! engine nor on the thread count or the schedule.
//!
//! # Synchronous semantics: one region per iteration
//!
//! [`Semantics::Synchronous`] is the bulk-synchronous reading of the
//! pseudocode that [`crate::reference::extract_reference`] implements.
//! Iteration `t` tests every vertex with at least `t` parents against its
//! `t`-th parent `p`, and sees `C[p]` as it stood when the iteration
//! began. During iteration `t`, `p` can only append its own `t`-th parent,
//! so that state is exactly the entries of `C[p]` below `p`'s `t`-th
//! parent. The reader acquires `|C[p]|` and drops the last entry if it is
//! that parent; no snapshot is needed. Vertices are counting-sorted by
//! parent count once, most parents first, so iteration `t`'s region runs
//! over a prefix of that order. The Unopt variant finds each vertex's next
//! parent by scanning from the current one, which it keeps per vertex.

use crate::config::{AdjacencyMode, ExtractorConfig, Semantics};
use crate::extractor::ChordalExtractor;
use crate::parent::{first_parent_scan, next_parent_scan};
use crate::result::ChordalResult;
use crate::stats::IterationStats;
use crate::workspace::Workspace;
use chordal_graph::{Edge, GraphRef, VertexId, NO_VERTEX};
use chordal_runtime::publish::UNPUBLISHED;
use chordal_runtime::{Engine, Published};
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
        let mode = self.config.adjacency;
        let sync = self.config.semantics == Semantics::Synchronous;
        let scan = sync && mode == AdjacencyMode::Unsorted;
        workspace.prepare_pull(graph, if sync { 0 } else { UNPUBLISHED }, scan);
        let Workspace {
            clen,
            cdata,
            offsets,
            scan,
            queue_a: order,
            starts,
            ids_b: marks,
            ..
        } = workspace;
        let adjacency = Adjacency {
            mode,
            neighbors: graph.adjacency(),
            offsets: &offsets[..=n],
        };
        let cdata = &cdata[..graph.num_directed_edges()];
        let pass = Pass {
            adjacency,
            clen,
            cdata,
        };
        let engine = &self.config.engine;
        let (iterations, queue) = if sync {
            let iterations = pass.synchronous(engine, order, starts, scan, marks, stats.as_mut());
            (iterations, None)
        } else {
            pass.asynchronous(engine);
            // One pass, in which every vertex with a child serves as a
            // parent.
            let iterations = usize::from(graph.num_directed_edges() > 0);
            let queue = (stats.is_some() && iterations == 1)
                .then(|| (0..n).filter(|&v| adjacency.has_child(v)).count());
            (iterations, queue)
        };
        let edges = sorted_edges(adjacency.offsets, clen, cdata, starts);
        if let (Some(s), Some(queue)) = (stats.as_mut(), queue) {
            s.record(queue, edges.len());
        }
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

/// The graph as the pass reads it: the flat adjacency array through the
/// workspace's copy of the CSR offsets. A vertex can never have more
/// chordal neighbours than its degree, so the same offsets place `C[w]` in
/// the arena.
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

    /// Number of parents of `w`.
    fn parent_count(&self, w: usize) -> usize {
        let neighbors = self.of(w);
        let w = w as VertexId;
        match self.mode {
            AdjacencyMode::Sorted => neighbors.partition_point(|&p| p < w),
            AdjacencyMode::Unsorted => neighbors.iter().filter(|&&p| p < w).count(),
        }
    }

    /// Whether parent `e` of `p` is `p`'s parent number `rank` (from 0).
    #[inline]
    fn is_parent_number(&self, p: usize, rank: usize, e: VertexId) -> bool {
        let neighbors = self.of(p);
        match self.mode {
            AdjacencyMode::Sorted => neighbors.get(rank) == Some(&e),
            AdjacencyMode::Unsorted => neighbors.iter().filter(|&&x| x < e).count() == rank,
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

/// What every step reads and writes: the graph, the published set lengths
/// and the chordal-neighbour arena.
#[derive(Clone, Copy)]
struct Pass<'a> {
    adjacency: Adjacency<'a>,
    clen: &'a Published,
    cdata: &'a [AtomicU32],
}

impl Pass<'_> {
    /// The asynchronous semantics: one ascending pass (module docs).
    fn asynchronous(&self, engine: &Engine) {
        let Pass {
            adjacency,
            clen,
            cdata,
        } = *self;
        clen.doacross(engine, adjacency.num_vertices(), |range| {
            for w in range {
                let base_w = adjacency.offsets[w];
                let mut len_w = 0;
                for p in adjacency.parents(w) {
                    let p_idx = p as usize;
                    let accept = len_w == 0
                        || match clen.wait(p_idx) {
                            Some(len_p) => subset(
                                cdata,
                                base_w,
                                len_w,
                                adjacency.offsets[p_idx],
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
                clen.publish(w, len_w as u32);
            }
        });
    }

    /// The synchronous semantics: one region per iteration (module docs);
    /// returns the number of iterations. `order` and `starts` are scratch
    /// for the counting sort, `scan` holds the Unopt walk's current parents
    /// (unused for Opt) and `marks` the stamps that count distinct parents
    /// for `stats`.
    fn synchronous(
        &self,
        engine: &Engine,
        order: &mut Vec<VertexId>,
        starts: &mut Vec<usize>,
        scan: &mut [AtomicU32],
        marks: &mut Vec<u32>,
        mut stats: Option<&mut IterationStats>,
    ) -> usize {
        let adjacency = self.adjacency;
        let n = adjacency.num_vertices();
        // Counting sort by parent count, most parents first; ties stay in
        // ascending id order. Afterwards `starts[k]` is the position of the
        // first vertex with `k` parents, which is the number of vertices
        // with more than `k`.
        starts.clear();
        for w in 0..n {
            let k = adjacency.parent_count(w);
            if starts.len() <= k {
                starts.resize(k + 1, 0);
            }
            starts[k] += 1;
        }
        let iterations = starts.len() - 1;
        for k in (0..iterations).rev() {
            starts[k] += starts[k + 1];
        }
        order.clear();
        order.resize(n, 0);
        for w in (0..n).rev() {
            let k = adjacency.parent_count(w);
            starts[k] -= 1;
            order[starts[k]] = w as VertexId;
        }
        if adjacency.mode == AdjacencyMode::Unsorted {
            for (w, current) in scan[..n].iter_mut().enumerate() {
                *current.get_mut() = first_parent_scan(adjacency.of(w), w as VertexId);
            }
        }
        if stats.is_some() {
            marks.clear();
            marks.resize(n, 0);
        }

        let scan = &*scan;
        for t in 1..=iterations {
            let active = &order[..starts[t - 1]];
            let parents = stats.as_ref().map(|_| {
                active
                    .iter()
                    .filter(|&&w| {
                        let p = self.parent_number(w as usize, t, scan) as usize;
                        std::mem::replace(&mut marks[p], t as u32) != t as u32
                    })
                    .count()
            });
            let accepted = AtomicUsize::new(0);
            engine.parallel_for_chunks(active.len(), |range| {
                let local = active[range]
                    .iter()
                    .filter(|&&w| self.synchronous_step(w as usize, t, scan))
                    .count();
                if local > 0 {
                    accepted.fetch_add(local, Ordering::Relaxed);
                }
            });
            if let (Some(s), Some(parents)) = (stats.as_mut(), parents) {
                s.record(parents, accepted.into_inner());
            }
        }
        iterations
    }

    /// Parent number `t` (from 1) of `w`: read from the sorted prefix, or
    /// the Unopt walk's current parent, which is number `t` during
    /// iteration `t`.
    #[inline]
    fn parent_number(&self, w: usize, t: usize, scan: &[AtomicU32]) -> VertexId {
        match self.adjacency.mode {
            AdjacencyMode::Sorted => self.adjacency.of(w)[t - 1],
            AdjacencyMode::Unsorted => scan[w].load(Ordering::Relaxed),
        }
    }

    /// `w`'s step in iteration `t`: the subset test against its `t`-th
    /// parent's set as it stood when the iteration began. Returns whether
    /// the edge was accepted.
    #[inline]
    fn synchronous_step(&self, w: usize, t: usize, scan: &[AtomicU32]) -> bool {
        let Pass {
            adjacency,
            clen,
            cdata,
        } = *self;
        let p = self.parent_number(w, t, scan);
        if adjacency.mode == AdjacencyMode::Unsorted {
            // Only `w`'s own step reads or writes its walk position.
            scan[w].store(
                next_parent_scan(adjacency.of(w), w as VertexId, p),
                Ordering::Relaxed,
            );
        }
        let p_idx = p as usize;
        let base_w = adjacency.offsets[w];
        // Only this step appends to C[w]; earlier iterations' appends were
        // published before this region began.
        let len_w = clen.load(w) as usize;
        // An empty C[w] is a subset of any set: `p` is not read.
        let accept = len_w == 0 || {
            let base_p = adjacency.offsets[p_idx];
            // Acquire: if `p`'s own step already published this iteration's
            // append, its entry is visible; it is `p`'s `t`-th parent, which
            // the iteration's start did not hold. A shorter C[p] fails the
            // test either way.
            let mut len_p = clen.load(p_idx) as usize;
            if len_p >= len_w
                && adjacency.is_parent_number(
                    p_idx,
                    t - 1,
                    cdata[base_p + len_p - 1].load(Ordering::Relaxed),
                )
            {
                len_p -= 1;
            }
            subset(cdata, base_w, len_w, base_p, len_p)
        };
        if accept {
            cdata[base_w + len_w].store(p, Ordering::Relaxed);
            clen.publish(w, (len_w + 1) as u32);
        }
        accept
    }
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

/// EC in canonical sorted order: every entry `p` of `C[w]` is the edge
/// `(p, w)` with `p < w`, so a counting sort on `p` that visits `w` in
/// ascending order sorts the edges without comparing them. `starts` holds
/// the per-parent bucket starts. Runs after the pass has finished, so the
/// lengths are read through the owner form and relaxed loads see every
/// entry.
fn sorted_edges(
    offsets: &[usize],
    clen: &mut Published,
    cdata: &[AtomicU32],
    starts: &mut Vec<usize>,
) -> Vec<Edge> {
    let n = offsets.len() - 1;
    let mut chordal_set = |w: usize| {
        let base = offsets[w];
        &cdata[base..base + clen.get_mut(w) as usize]
    };
    starts.clear();
    starts.resize(n + 1, 0);
    for w in 0..n {
        for p in chordal_set(w) {
            starts[p.load(Ordering::Relaxed) as usize + 1] += 1;
        }
    }
    for p in 0..n {
        starts[p + 1] += starts[p];
    }
    let mut edges = vec![(0, 0); starts[n]];
    for w in 0..n {
        for p in chordal_set(w) {
            let p = p.load(Ordering::Relaxed);
            let slot = &mut starts[p as usize];
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

    fn all_engines() -> Vec<Engine> {
        vec![
            Engine::serial(),
            Engine::chunked_with_grain(4, 8),
            Engine::chunked(4),
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
        let r = extract_with(&isolated, Engine::chunked(2), AdjacencyMode::Sorted);
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
                    let got = extract_with(&g, engine, adjacency);
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
                let got = extract_with(&g, engine, AdjacencyMode::Sorted);
                assert_eq!(got.edges(), expected.edges(), "{kind:?} {engine:?}");
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
        // Ascending id order visits every parent before its children, so
        // the asynchronous pass tests each vertex against all of its
        // parents' final sets in one iteration; the synchronous semantics
        // advances every vertex by one parent per iteration, as many
        // iterations as the largest parent count.
        let g = RmatParams::preset(RmatKind::B, 9, 5).generate();
        let sync = extract_with(&g, Engine::serial(), AdjacencyMode::Sorted);
        let config = ExtractorConfig::serial(AdjacencyMode::Sorted).with_stats(true);
        let async_r = MaximalChordalExtractor::new(config).extract(&g);
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
        let config = ExtractorConfig::default()
            .with_engine(Engine::chunked(4))
            .with_semantics(Semantics::Asynchronous);
        let r = MaximalChordalExtractor::new(config).extract(&g);
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
                    let config = ExtractorConfig::default()
                        .with_engine(engine)
                        .with_adjacency(adjacency)
                        .with_stats(true);
                    let got = MaximalChordalExtractor::new(config).extract(graph);
                    assert_eq!(got, expected, "{kind:?} {engine:?} {adjacency:?}");
                }
            }
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
        // The synchronous iterations reset the set lengths to zero and the
        // asynchronous pass to unpublished; each must leave the workspace
        // ready for the other, on every engine and variant.
        let g = RmatParams::preset(RmatKind::B, 8, 4).generate();
        let scrambled = g.with_scrambled_adjacency(3);
        let mut workspace = Workspace::new();
        for engine in all_engines() {
            for (adjacency, graph) in [
                (AdjacencyMode::Sorted, &g),
                (AdjacencyMode::Unsorted, &scrambled),
            ] {
                for semantics in [
                    Semantics::Asynchronous,
                    Semantics::Synchronous,
                    Semantics::Asynchronous,
                ] {
                    let extractor = MaximalChordalExtractor::new(
                        ExtractorConfig::default()
                            .with_engine(engine)
                            .with_adjacency(adjacency)
                            .with_semantics(semantics),
                    );
                    let reused = extractor.extract_into(graph.into(), &mut workspace);
                    assert!(verify::is_chordal(&reused.subgraph(graph)));
                    assert_eq!(
                        reused,
                        extractor.extract(graph),
                        "{engine:?} {adjacency:?} {semantics:?}"
                    );
                }
            }
        }
    }
}
