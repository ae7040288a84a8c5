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
//! **Single owner.** An engine with one thread
//! ([`Engine::threads`]` == 1`: the serial engine, every
//! [`crate::ExtractionSession::extract_batch`] fan-out participant, serve
//! requests with `engine=serial`) runs the whole extraction on the calling
//! thread, so no step ever has a second party. That sweep borrows the state
//! mutably from the workspace and uses the owner form of every operation:
//! a push is a load and two stores, a take a load and a store, a frontier
//! flag a load, an OR and a store, and an append plain stores. It also
//! reads `|C[v]|` once per parent step instead of once per child: only a
//! step that takes `v` as a child can grow `C[v]`, and `v` is never its own
//! child. The two modes run one step body (the `Access` trait is the seam),
//! so the owner sweep returns exactly what the shared sweep returns when
//! one thread runs every region in ascending order.
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
use chordal_runtime::lists::{Taken, TakenMut};
use chordal_runtime::{AtomicFlags, Engine, ListHeads, ListLinks};
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
        let sync = self.config.semantics == Semantics::Synchronous;
        workspace.prepare_atomic_from(graph, sync);
        // Plain buffers, taken out of the workspace so the sweep can borrow
        // the rest of it.
        let mut queue = std::mem::take(&mut workspace.queue_a);
        let mut frozen_clen = std::mem::take(&mut workspace.ids_b);
        let mut starts = std::mem::take(&mut workspace.starts);

        let mode = self.config.adjacency;
        let iterations = if self.config.engine.threads() == 1 {
            let (adjacency, mut state) = Owned::borrowed(workspace, graph, mode, sync);
            self.sweep(
                adjacency,
                &mut state,
                &mut queue,
                &mut frozen_clen,
                stats.as_mut(),
            )
        } else {
            let (adjacency, mut state) = Shared::borrowed(workspace, graph, mode, sync);
            self.sweep(
                adjacency,
                &mut state,
                &mut queue,
                &mut frozen_clen,
                stats.as_mut(),
            )
        };
        let edges = sorted_edges(
            &workspace.offsets[..=n],
            &workspace.clen[..n],
            &workspace.cdata,
            &mut starts,
        );

        // Return the plain buffers to the workspace for the next run.
        workspace.queue_a = queue;
        workspace.ids_b = frozen_clen;
        workspace.starts = starts;

        ChordalResult::new(n, edges, iterations, stats)
    }

    /// The initialisation and every iteration, in `state`'s access mode;
    /// returns the number of iterations.
    fn sweep<A: Access>(
        &self,
        adjacency: Adjacency<'_>,
        state: &mut A,
        queue: &mut Vec<VertexId>,
        frozen_clen: &mut Vec<u32>,
        mut stats: Option<&mut IterationStats>,
    ) -> usize {
        let engine = &self.config.engine;
        let sync = self.config.semantics == Semantics::Synchronous;

        // Initialisation: every vertex joins the list of its lowest parent,
        // which is flagged for the first iteration. Like every iteration it
        // hands vertices over to the next lists, which then become current.
        state.for_each(engine, adjacency.num_vertices(), |state, v| {
            let v = v as VertexId;
            let parent = adjacency.first_parent(v);
            if parent != NO_VERTEX {
                state.hand_over(parent, v);
            }
            0
        });
        state.swap_lists();

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
            queue.extend(state.flags().drain().map(|v| v as VertexId));
            if queue.is_empty() {
                break;
            }
            iterations += 1;
            if sync {
                frozen_clen.clear();
                frozen_clen.extend(queue.iter().map(|&v| state.len(v as usize) as u32));
            }
            let (queue, frozen_clen) = (&*queue, &*frozen_clen);
            let accepted = state.for_each(engine, queue.len(), |state, qi| {
                step(adjacency, state, queue[qi], sync.then(|| frozen_clen[qi]))
            });
            if let Some(s) = stats.as_mut() {
                s.record(queue.len(), accepted);
            }
            state.swap_lists();
        }
        iterations
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

/// The graph as the sweep reads it: the flat adjacency array through the
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
    fn new(graph: GraphRef<'a>, mode: AdjacencyMode, offsets: &'a [usize]) -> Self {
        Self {
            mode,
            neighbors: graph.adjacency(),
            offsets,
        }
    }

    fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbours of `v`.
    #[inline]
    fn of(&self, v: usize) -> &'a [VertexId] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The lowest parent of `v`, or [`NO_VERTEX`]. The Opt cursor starts at
    /// zero, the first slot of the sorted list.
    fn first_parent(&self, v: VertexId) -> VertexId {
        let neighbors = self.of(v as usize);
        match self.mode {
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
    fn next_parent<A: Access>(&self, state: &mut A, w: VertexId, current: VertexId) -> VertexId {
        let w_idx = w as usize;
        let neighbors = self.of(w_idx);
        match self.mode {
            AdjacencyMode::Sorted => {
                let cursor = state.cursor(w_idx) + 1;
                match neighbors.get(cursor as usize) {
                    Some(&p) if p < w => {
                        state.set_cursor(w_idx, cursor);
                        p
                    }
                    _ => NO_VERTEX,
                }
            }
            AdjacencyMode::Unsorted => next_parent_scan(neighbors, w, current),
        }
    }
}

/// Parent `v`'s step: for every child taken from `v`'s list, the subset
/// test `C[w] ⊆ C[v]`, possibly the edge `(v, w)`, then the hand-over of `w`
/// to its next parent. `frozen_len_v` is `|C[v]|` at the start of the
/// iteration under the synchronous semantics, `None` otherwise. Returns the
/// number of edges accepted.
#[inline]
fn step<A: Access>(
    adjacency: Adjacency<'_>,
    state: &mut A,
    v: VertexId,
    frozen_len_v: Option<u32>,
) -> usize {
    let v_idx = v as usize;
    let base_v = adjacency.offsets[v_idx];
    let step_len_v = match frozen_len_v {
        Some(len) => Some(len as usize),
        None => state.step_len(v_idx),
    };
    let mut accepted = 0;
    let mut children = state.take(v);
    while let Some(w) = state.next_child(&mut children) {
        // The take made this task w's unique owner.
        let w_idx = w as usize;
        let base_w = adjacency.offsets[w_idx];
        let len_w = state.len(w_idx);
        let len_v = step_len_v.unwrap_or_else(|| state.live_len(v_idx));
        if subset(state.arena(), base_w, len_w, base_v, len_v) {
            // C[w] ← C[w] ∪ {v}.
            state.append(w_idx, base_w, len_w, v);
            accepted += 1;
        }
        // Advance w's lowest parent (lines 18-22), whether or not the edge
        // was accepted.
        let parent = adjacency.next_parent(state, w, v);
        if parent != NO_VERTEX {
            state.hand_over(parent, w);
        }
    }
    accepted
}

/// Ordered-merge subset test `C[a] ⊆ C[b]` over the sets' first `len_a`
/// and `len_b` entries, which start at arena slots `base_a` and `base_b`.
/// Both sets are sorted ascending because parents are accepted in
/// increasing-id order; elements live in the atomic arena, so the shared
/// kernel is used through its accessor form with relaxed per-element loads
/// (the plain load of an exclusive owner is the same instruction).
fn subset(arena: &[AtomicU32], base_a: usize, len_a: usize, base_b: usize, len_b: usize) -> bool {
    crate::kernels::sorted_subset_by(
        len_a,
        |i| arena[base_a + i].load(Ordering::Relaxed),
        len_b,
        |j| arena[base_b + j].load(Ordering::Relaxed),
    )
}

/// How a sweep reaches the per-vertex state: [`Shared`] through the
/// concurrent protocol, so the tasks of a parallel region can run steps at
/// once, or [`Owned`] through plain loads and stores of an exclusive
/// borrow. [`step`] and [`MaximalChordalExtractor::sweep`] are written once
/// against it.
trait Access: Sized {
    /// A taken child list being walked.
    type Children;

    /// Runs `body` for every index of `0..len` and sums its results.
    fn for_each(
        &mut self,
        engine: &Engine,
        len: usize,
        body: impl Fn(&mut Self, usize) -> usize + Sync,
    ) -> usize;

    /// The next iteration's frontier.
    fn flags(&self) -> &AtomicFlags;

    /// Makes the lists that moved children joined the current ones.
    fn swap_lists(&mut self);

    /// Empties `v`'s list among the current lists; the caller owns every
    /// child the walk returns.
    fn take(&mut self, v: VertexId) -> Self::Children;

    /// The next child of a taken list.
    fn next_child(&mut self, children: &mut Self::Children) -> Option<VertexId>;

    /// Gives `w` up to `parent`: pushes it onto `parent`'s list among the
    /// lists moved children join, and flags `parent` for the next
    /// iteration.
    fn hand_over(&mut self, parent: VertexId, w: VertexId);

    /// The Opt cursor of `w`, read by `w`'s owner.
    fn cursor(&mut self, w: usize) -> u32;

    /// Moves the Opt cursor of `w`; only `w`'s owner calls it.
    fn set_cursor(&mut self, w: usize, cursor: u32);

    /// `|C[w]|`, read by `w`'s owner (or between regions).
    fn len(&mut self, w: usize) -> usize;

    /// `|C[v]|` for the whole of `v`'s step, or `None` when another task
    /// may grow `C[v]` meanwhile and each child must read
    /// [`Access::live_len`].
    fn step_len(&mut self, v: usize) -> Option<usize>;

    /// `|C[v]|` as published now.
    fn live_len(&mut self, v: usize) -> usize;

    /// The chordal-neighbour arena.
    fn arena(&self) -> &[AtomicU32];

    /// Appends `v` to `C[w]`, whose `len_w` entries start at arena slot
    /// `base_w`; only `w`'s owner calls it.
    fn append(&mut self, w: usize, base_w: usize, len_w: usize, v: VertexId);
}

/// The concurrent protocol of the module docs. Every task of a parallel
/// region works on its own copy.
#[derive(Clone, Copy)]
struct Shared<'a> {
    /// The lists steps take children from.
    current: &'a ListHeads,
    /// The lists moved children join: the second head array under the
    /// synchronous semantics, `current` itself otherwise.
    next: &'a ListHeads,
    /// Successor links of the child lists.
    links: &'a ListLinks,
    /// The next iteration's frontier.
    flags: &'a AtomicFlags,
    /// Cursor of the current parent in the sorted adjacency (Opt variant).
    cursor: &'a [AtomicU32],
    /// Published length of every chordal-neighbour set.
    clen: &'a [AtomicU32],
    /// Chordal-neighbour arena.
    cdata: &'a [AtomicU32],
}

impl<'a> Shared<'a> {
    /// Borrows the buffers of `workspace`, prepared for `graph`.
    fn borrowed(
        workspace: &'a Workspace,
        graph: GraphRef<'a>,
        mode: AdjacencyMode,
        sync: bool,
    ) -> (Adjacency<'a>, Self) {
        let n = graph.num_vertices();
        let state = Self {
            current: &workspace.heads,
            next: if sync {
                &workspace.next_heads
            } else {
                &workspace.heads
            },
            links: &workspace.links,
            flags: workspace.flags(),
            cursor: &workspace.cursor[..n],
            clen: &workspace.clen[..n],
            cdata: &workspace.cdata[..graph.num_directed_edges()],
        };
        let adjacency = Adjacency::new(graph, mode, &workspace.offsets[..=n]);
        (adjacency, state)
    }
}

impl<'a> Access for Shared<'a> {
    type Children = Taken<'a>;

    fn for_each(
        &mut self,
        engine: &Engine,
        len: usize,
        body: impl Fn(&mut Self, usize) -> usize + Sync,
    ) -> usize {
        let state = *self;
        let total = AtomicUsize::new(0);
        engine.parallel_for_chunks(len, |range| {
            let mut task = state;
            let local: usize = range.map(|i| body(&mut task, i)).sum();
            if local > 0 {
                total.fetch_add(local, Ordering::Relaxed);
            }
        });
        total.into_inner()
    }

    fn flags(&self) -> &AtomicFlags {
        self.flags
    }

    fn swap_lists(&mut self) {
        std::mem::swap(&mut self.current, &mut self.next);
    }

    #[inline]
    fn take(&mut self, v: VertexId) -> Taken<'a> {
        self.current.take(self.links, v)
    }

    #[inline]
    fn next_child(&mut self, children: &mut Taken<'a>) -> Option<VertexId> {
        children.next()
    }

    #[inline]
    fn hand_over(&mut self, parent: VertexId, w: VertexId) {
        self.next.push(self.links, parent, w);
        self.flags.test_and_set(parent as usize);
    }

    #[inline]
    fn cursor(&mut self, w: usize) -> u32 {
        self.cursor[w].load(Ordering::Relaxed)
    }

    #[inline]
    fn set_cursor(&mut self, w: usize, cursor: u32) {
        self.cursor[w].store(cursor, Ordering::Relaxed);
    }

    #[inline]
    fn len(&mut self, w: usize) -> usize {
        self.clen[w].load(Ordering::Relaxed) as usize
    }

    #[inline]
    fn step_len(&mut self, _v: usize) -> Option<usize> {
        None
    }

    #[inline]
    fn live_len(&mut self, v: usize) -> usize {
        // Acquire: pairs with the release store of `append`, so the prefix
        // below the length is complete.
        self.clen[v].load(Ordering::Acquire) as usize
    }

    fn arena(&self) -> &[AtomicU32] {
        self.cdata
    }

    #[inline]
    fn append(&mut self, w: usize, base_w: usize, len_w: usize, v: VertexId) {
        // The new entry is published with a release store on the length so
        // asynchronous readers see a complete prefix.
        self.cdata[base_w + len_w].store(v, Ordering::Relaxed);
        self.clen[w].store((len_w + 1) as u32, Ordering::Release);
    }
}

/// The owner mode: one thread holds every buffer through an exclusive
/// borrow of the workspace, so each operation is a plain load or store.
struct Owned<'a> {
    /// The lists steps take children from.
    current: &'a mut ListHeads,
    /// The second head array of the synchronous semantics; `None` when
    /// moved children join `current`.
    next: Option<&'a mut ListHeads>,
    links: &'a mut ListLinks,
    flags: &'a mut AtomicFlags,
    cursor: &'a mut [AtomicU32],
    clen: &'a mut [AtomicU32],
    cdata: &'a mut [AtomicU32],
}

impl<'a> Owned<'a> {
    /// Borrows the buffers of `workspace`, prepared for `graph`.
    fn borrowed(
        workspace: &'a mut Workspace,
        graph: GraphRef<'a>,
        mode: AdjacencyMode,
        sync: bool,
    ) -> (Adjacency<'a>, Self) {
        let n = graph.num_vertices();
        let Workspace {
            heads,
            next_heads,
            links,
            cursor,
            clen,
            cdata,
            offsets,
            flags,
            ..
        } = workspace;
        let state = Self {
            current: heads,
            next: sync.then_some(next_heads),
            links,
            flags: flags.as_mut().expect("workspace flags not prepared"),
            cursor: &mut cursor[..n],
            clen: &mut clen[..n],
            cdata: &mut cdata[..graph.num_directed_edges()],
        };
        let adjacency = Adjacency::new(graph, mode, &offsets[..=n]);
        (adjacency, state)
    }
}

impl Access for Owned<'_> {
    type Children = TakenMut;

    fn for_each(
        &mut self,
        _engine: &Engine,
        len: usize,
        body: impl Fn(&mut Self, usize) -> usize + Sync,
    ) -> usize {
        (0..len).map(|i| body(self, i)).sum()
    }

    fn flags(&self) -> &AtomicFlags {
        self.flags
    }

    fn swap_lists(&mut self) {
        if let Some(next) = &mut self.next {
            std::mem::swap(&mut self.current, next);
        }
    }

    #[inline]
    fn take(&mut self, v: VertexId) -> TakenMut {
        self.current.take_mut(v)
    }

    #[inline]
    fn next_child(&mut self, children: &mut TakenMut) -> Option<VertexId> {
        children.next(self.links)
    }

    #[inline]
    fn hand_over(&mut self, parent: VertexId, w: VertexId) {
        let lists = match &mut self.next {
            Some(next) => next,
            None => &mut self.current,
        };
        lists.push_mut(self.links, parent, w);
        self.flags.test_and_set_mut(parent as usize);
    }

    #[inline]
    fn cursor(&mut self, w: usize) -> u32 {
        *self.cursor[w].get_mut()
    }

    #[inline]
    fn set_cursor(&mut self, w: usize, cursor: u32) {
        *self.cursor[w].get_mut() = cursor;
    }

    #[inline]
    fn len(&mut self, w: usize) -> usize {
        *self.clen[w].get_mut() as usize
    }

    #[inline]
    fn step_len(&mut self, v: usize) -> Option<usize> {
        Some(self.len(v))
    }

    #[inline]
    fn live_len(&mut self, v: usize) -> usize {
        self.len(v)
    }

    fn arena(&self) -> &[AtomicU32] {
        self.cdata
    }

    #[inline]
    fn append(&mut self, w: usize, base_w: usize, len_w: usize, v: VertexId) {
        *self.cdata[base_w + len_w].get_mut() = v;
        *self.clen[w].get_mut() = (len_w + 1) as u32;
    }
}

/// EC in canonical sorted order: every entry `p` of `C[w]` is the edge
/// `(p, w)` with `p < w`, so a counting sort on `p` that visits `w` in
/// ascending order sorts the edges without comparing them. `starts` holds
/// the per-parent bucket starts. Runs after the sweep has finished, so
/// relaxed loads see every write.
fn sorted_edges(
    offsets: &[usize],
    clen: &[AtomicU32],
    cdata: &[AtomicU32],
    starts: &mut Vec<usize>,
) -> Vec<Edge> {
    let n = clen.len();
    let chordal_set = |w: usize| {
        let base = offsets[w];
        &cdata[base..base + clen[w].load(Ordering::Relaxed) as usize]
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
            .with_engine(Engine::chunked(4))
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

    /// Every child list the run used is empty and every flag clear, as the
    /// next run (in either access mode) expects.
    fn assert_quiescent(workspace: &Workspace, n: usize, semantics: Semantics) {
        assert_eq!(workspace.flags().count_set(), 0, "a flag was left set");
        for v in 0..n as VertexId {
            assert_eq!(workspace.heads.take(&workspace.links, v).count(), 0);
            if semantics == Semantics::Synchronous {
                assert_eq!(workspace.next_heads.take(&workspace.links, v).count(), 0);
            }
        }
    }

    #[test]
    fn alternating_semantics_on_one_workspace_match_fresh_runs() {
        // The synchronous run sizes the second head array; the runs around
        // it must find every child list empty and every flag clear. The
        // serial engine runs the owner sweep, the others the shared one.
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
                        .with_engine(engine)
                        .with_semantics(semantics),
                );
                let reused = extractor.extract_into((&g).into(), &mut workspace);
                assert_quiescent(&workspace, g.num_vertices(), semantics);
                assert!(verify::is_chordal(&reused.subgraph(&g)));
                if semantics == Semantics::Synchronous || engine.threads() == 1 {
                    assert_eq!(reused, extractor.extract(&g), "{engine:?} {semantics:?}");
                }
            }
        }
    }
}
