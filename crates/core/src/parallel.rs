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
//! The sets live in an arena of fixed-size blocks (`SetArena`), so its
//! memory follows |EC|, the chordal edges, rather than the graph's 2|E|
//! adjacency entries: on R-MAT, |EC| is 4–6% of 2|E|. A participant of the
//! pass builds `C[w]` in a plain buffer of its own, where the subset tests
//! read it, and then copies it at its exact length into the block it holds
//! (`SetArena::place`). When the set does not fit, the participant
//! claims the next block id from the arena's one cursor; a block is
//! created on its first claim and kept across runs. A set never straddles
//! two blocks, and a set longer than a block gets a block of its own
//! length. Each vertex stores where its set starts, the pair (block,
//! offset) as `block · SET_BLOCK + offset` ([`SET_BLOCK`]), in a
//! per-vertex start slot, and its set's length in a [`Published`] array.
//! A set of at most two entries, most sets on R-MAT, skips the blocks:
//! its entries are packed into the start slot itself, so a child that
//! tests against it reads no block at all. A longer set's start slot keeps
//! the start in its low 40 bits and the set's 24-bit signature above them
//! (`signature`): a one-word Bloom filter with one bit per entry.
//! Blocks, start slots and lengths live in a caller-supplied
//! [`Workspace`] ([`ExtractorConfig::extract_into`]), so repeated
//! extractions reuse them. The pass copies nothing from the graph.
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
//! ascending order, and `w` reads `C[p]` only once `|C[p]|` is published.
//! That read is an acquire load paired with the release store that ends
//! `p`'s step, so the block holding `C[p]`, whose creation came first, and
//! the relaxed stores of `C[p]`'s entries and of its start are visible
//! once it returns a length. `w` needs no length for its first parent: an
//! empty `C[w]` is a subset of any set. The output depends neither on the
//! engine nor on the thread count or the schedule, and equals the serial
//! oracle [`crate::reference::extract_pull_reference`].
//!
//! # Deferring instead of waiting
//!
//! Each `C[w]` depends only on its parents' final sets, so any order that
//! finishes parents first gives the same sets, and `sorted_edges` sorts
//! the result wherever the sets were placed. A pool participant therefore
//! does not spin on a parent it finds unpublished ([`Published::peek`]).
//! It sets `w` aside on a pending list of its own, with its staged prefix
//! of `C[w]`, that prefix's signature and the parent where its walk
//! stopped, and moves on to `w + 1`. A later vertex whose parent is
//! pending finds that parent unpublished and is set aside too. At the end
//! of each piece the participant retries its pending vertices in ascending
//! order without waiting; those still stopped stay. Only when the list is
//! full (`PENDING`, one piece's worth) or once it has claimed its last
//! piece does it finish them in ascending order, waiting where it must. The
//! piece it depends on is usually the other participant's concurrent one,
//! which is still running when its own piece ends, so finishing at every
//! piece's end would still block: on RMAT-B(16), a variant that did
//! blocked about 450 times per two-thread run, the full-list rule about 20
//! (the pass that spun on every unpublished parent: about 800).
//!
//! The pass cannot deadlock. The owner of the lowest unpublished vertex
//! never blocks: all of that vertex's parents are published, any pending
//! vertex it could block on would be lower, and fresh vertices never
//! block. A one-thread pass never meets an unpublished parent, so its loop
//! keeps no list and no counts (`Pull::run`'s `DEFER` is false there).
//! [`Workspace::doacross_counts`] reports the deferrals and blocking waits
//! of the last pass.
//!
//! # Cost
//!
//! The pass is bound by the branches of its parent tests, not by memory.
//! Walking every parent of RMAT-ER/G/B(16) and loading both of its
//! per-vertex words (length and start) takes 1.5–3 ms per graph on a
//! 2-core x86-64 host, the one-thread pass about 4, 4 and 8 ms (minima of
//! interleaved runs). Nearly every test asks whether `C[w]`'s one entry,
//! its lowest parent, is in `C[p]`, and on ER and G nearly every `C[p]`
//! that passes the length check sits in its start slot (on B about half).
//! So those two shapes are tested without a data-dependent branch
//! (`Directory::contains`): a merge's early exits would mispredict on
//! nearly every edge. On RMAT-B(16), 44% of the tests read a block-held
//! set; the signature rules out 86% of those before the block is read,
//! and a multi-entry `C[w]` that passes it is missing its last entry, which
//! the test looks for first, in 56% of the rest. Without the signature and
//! the deferral, RMAT-B(16)'s one-thread pass took 11.5 ms, now 7.6–7.9,
//! and its two-thread pass 10.4–11.5 ms, now 5.7 (minima of interleaved
//! runs).
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
use chordal_runtime::publish::{doacross_participants, DOACROSS_PIECE};
use chordal_runtime::{Engine, Published};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::OnceLock;

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
        workspace.doacross = DoacrossCounts::default();
        return ChordalResult::from_sorted(0, Vec::new(), 0, stats);
    }
    let participants = doacross_participants(&config.engine, n);
    workspace.prepare_pull(graph, participants);
    let Workspace {
        clen, sets, starts, ..
    } = workspace;
    let adjacency = Adjacency {
        mode: config.adjacency,
        neighbors: graph.adjacency(),
        offsets: graph.offsets(),
    };
    let (edges, doacross) = pass(&config.engine, adjacency, clen, sets, &mut starts[..n]);
    workspace.doacross = doacross;
    // One pass, in which every vertex with a child serves as a parent.
    let iterations = usize::from(graph.num_directed_edges() > 0);
    if let Some(s) = stats.as_mut().filter(|_| iterations == 1) {
        let parents = (0..n).filter(|&v| adjacency.has_child(v)).count();
        s.record(parents, edges.len());
    }
    ChordalResult::from_sorted(n, edges, iterations, stats)
}

/// The graph as the pass reads it: the flat adjacency array through the
/// graph's own CSR offsets.
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

    /// How many neighbours `v` has: at most that many parents.
    #[inline]
    fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
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

/// The pass on an arena prepared for `adjacency` ([`SetArena::prepare`]),
/// then the result edges in canonical order ([`sorted_edges`]) and what the
/// doacross did. `starts` has one slot per vertex.
fn pass<const BLOCK: usize>(
    engine: &Engine,
    adjacency: Adjacency<'_>,
    clen: &mut Published,
    sets: &mut SetArena<BLOCK>,
    starts: &mut [AtomicUsize],
) -> (Vec<Edge>, DoacrossCounts) {
    let doacross = pull(engine, adjacency, clen, sets, starts);
    (sorted_edges(clen, sets, starts), doacross)
}

/// What the doacross of an Algorithm 1 pass did, summed over its
/// participants when they finish ([`Workspace::doacross_counts`]). A
/// one-thread pass counts nothing: it never meets an unpublished parent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DoacrossCounts {
    /// Vertices set aside because a parent's set was not yet published.
    pub deferred: usize,
    /// Waits that found their parent's set unpublished and blocked.
    pub blocked_waits: usize,
    /// Times a participant's pending list was full, so that it finished
    /// every vertex on it before setting another aside.
    pub full_lists: usize,
}

/// The pass (module docs): every vertex, in ascending order, tests its set
/// against each parent's final set, reading the graph through `adjacency`.
/// Each participant builds `C[w]` in its own buffer and places it in
/// `sets` ([`SetArena::place`]), or packs it into `starts[w]` when it has
/// at most [`INLINE`] entries. It stores the set's start in `starts[w]` and
/// then publishes `|C[w]|` to `clen`, so a child that reads the length
/// reads the start after it. On the pool a participant sets a vertex with
/// an unpublished parent aside ([`Pull::run`]) and finishes it later.
fn pull<const BLOCK: usize>(
    engine: &Engine,
    adjacency: Adjacency<'_>,
    clen: &Published,
    sets: &SetArena<BLOCK>,
    starts: &[AtomicUsize],
) -> DoacrossCounts {
    let pull = Pull {
        adjacency,
        clen,
        sets,
        directory: sets.directory(),
        starts,
    };
    let n = adjacency.num_vertices();
    if doacross_participants(engine, n) <= 1 {
        clen.doacross(
            engine,
            n,
            Participant::default,
            |me, range| pull.run::<false>(me, range),
            |_| {},
        );
        return DoacrossCounts::default();
    }
    let [deferred, blocked_waits, full_lists] = [0; 3].map(AtomicUsize::new);
    clen.doacross(
        engine,
        n,
        Participant::default,
        |me, range| pull.run::<true>(me, range),
        |me| {
            pull.retry::<true>(me);
            // Counts carry no data; the region's join orders them before
            // the totals are read.
            deferred.fetch_add(me.counts.deferred, Ordering::Relaxed);
            blocked_waits.fetch_add(me.counts.blocked_waits, Ordering::Relaxed);
            full_lists.fetch_add(me.counts.full_lists, Ordering::Relaxed);
        },
    );
    DoacrossCounts {
        deferred: deferred.into_inner(),
        blocked_waits: blocked_waits.into_inner(),
        full_lists: full_lists.into_inner(),
    }
}

/// Vertices a pool participant may hold aside at once: one piece's worth.
/// On RMAT-B(18), in 11 interleaved two-thread runs on a 2-core host, a
/// list of 16 took 30.9 ms (median, 443 blocking waits), one of 64 took
/// 28.7 ms (60) and one of 256 took 29.0 ms (0).
const PENDING: usize = DOACROSS_PIECE;

/// What every participant of the pass reads and writes.
#[derive(Clone, Copy)]
struct Pull<'a, const BLOCK: usize> {
    adjacency: Adjacency<'a>,
    clen: &'a Published,
    sets: &'a SetArena<BLOCK>,
    directory: Directory<'a, BLOCK>,
    starts: &'a [AtomicUsize],
}

/// One participant's own state: the buffer it stages `C[w]` in, the block
/// it holds, and on the pool the vertices it has set aside, in ascending
/// order.
#[derive(Default)]
struct Participant<'a> {
    buffer: Vec<VertexId>,
    writer: Writer<'a>,
    pending: Vec<Pending<'a>>,
    counts: DoacrossCounts,
}

/// A vertex set aside at a parent whose set was not yet published.
struct Pending<'a> {
    w: usize,
    /// The parent whose length was unpublished: the walk resumes there.
    stalled: VertexId,
    /// The parents after `stalled`.
    rest: Parents<'a>,
    /// `C[w]`'s prefix so far, in `set[..staged.len]`; `set` has `w`'s
    /// degree.
    set: Vec<VertexId>,
    staged: Staged,
}

/// How much of `C[w]` is staged, and its signature ([`signature`]).
#[derive(Clone, Copy, Default)]
struct Staged {
    len: usize,
    signature: usize,
}

impl<'a, const BLOCK: usize> Pull<'a, BLOCK> {
    /// Runs the vertices of `range` in ascending order. With `DEFER`
    /// (two or more participants) a vertex whose next parent has an
    /// unpublished length is set aside ([`Pull::defer`]) instead of
    /// waited for, and the piece ends by retrying the vertices set aside
    /// without waiting ([`Pull::retry`]). Without it (one participant)
    /// every parent is published already, so the loop waits, which never
    /// spins, and keeps no list.
    fn run<const DEFER: bool>(self, me: &mut Participant<'a>, range: Range<usize>) {
        for w in range {
            let degree = self.adjacency.degree(w);
            if me.buffer.len() < degree {
                me.buffer.resize(degree, 0);
            }
            let mut parents = self.adjacency.parents(w);
            let mut staged = Staged::default();
            // The lowest parent needs no test: an empty `C[w]` is a subset
            // of any set.
            if let Some(p) = parents.next() {
                me.buffer[0] = p;
                staged = Staged {
                    len: 1,
                    signature: signature(p),
                };
            }
            let next = parents.next();
            let set = &mut me.buffer;
            let walked = if DEFER {
                self.walk(next, &mut parents, set, &mut staged, |p| self.clen.peek(p))
            } else {
                self.walk(next, &mut parents, set, &mut staged, |p| self.clen.wait(p))
            };
            match walked {
                Ok(()) => self.publish(w, &me.buffer, staged, &mut me.writer),
                Err(p) if DEFER => {
                    if !self.defer(me, w, p, parents, staged) {
                        return;
                    }
                }
                // A piece below panicked; the caller unwinds.
                Err(_) => return,
            }
        }
        if DEFER && !me.pending.is_empty() {
            self.retry::<false>(me);
        }
    }

    /// Tests the non-empty `C[w]`, staged in `set[..staged.len]`, against
    /// `next` and then the rest of `parents`, adding each parent whose set
    /// holds it. `length` reads a parent's published length; the walk stops
    /// at the first parent it gives none for and returns that parent.
    #[inline(always)]
    fn walk(
        self,
        mut next: Option<VertexId>,
        parents: &mut Parents<'a>,
        set: &mut [VertexId],
        staged: &mut Staged,
        mut length: impl FnMut(usize) -> Option<u32>,
    ) -> Result<(), VertexId> {
        while let Some(p) = next {
            let p_idx = p as usize;
            let Some(len_p) = length(p_idx) else {
                return Err(p);
            };
            let slot = self.starts[p_idx].load(Ordering::Relaxed);
            let set_w = &set[..staged.len];
            if self
                .directory
                .contains(slot, len_p as usize, set_w, staged.signature)
            {
                set[staged.len] = p;
                staged.len += 1;
                staged.signature |= signature(p);
            }
            next = parents.next();
        }
        Ok(())
    }

    /// Places `C[w]`, the staged `set[..staged.len]`, and publishes its
    /// length: a set of at most [`INLINE`] entries goes into its start
    /// slot, a longer one into the arena, with its signature above its
    /// start.
    #[inline(always)]
    fn publish(self, w: usize, set: &[VertexId], staged: Staged, writer: &mut Writer<'a>) {
        let set = &set[..staged.len];
        let slot = if staged.len <= INLINE {
            inline(set)
        } else {
            self.sets.place(writer, set) | staged.signature
        };
        self.starts[w].store(slot, Ordering::Relaxed);
        self.clen.publish(w, staged.len as u32);
    }

    /// Sets `w` aside at `stalled`, with a copy of its staging buffer cut to
    /// `w`'s degree. (Moving the staging buffer itself into the list and
    /// recycling the lists' buffers grew each of them to the largest degree
    /// it had staged, and `serve-mixed`'s peak RSS by about 1 MB.) A full
    /// list is first finished ([`Pull::retry`]). Returns false if the
    /// doacross was aborted meanwhile.
    #[cold]
    #[inline(never)]
    fn defer(
        self,
        me: &mut Participant<'a>,
        w: usize,
        stalled: VertexId,
        rest: Parents<'a>,
        staged: Staged,
    ) -> bool {
        if me.pending.len() == PENDING {
            me.counts.full_lists += 1;
            if !self.retry::<true>(me) {
                return false;
            }
        }
        let set = me.buffer[..self.adjacency.degree(w)].to_vec();
        me.pending.push(Pending {
            w,
            stalled,
            rest,
            set,
            staged,
        });
        me.counts.deferred += 1;
        true
    }

    /// Retries the vertices set aside, in ascending order: each finishes,
    /// or stays on the list at the parent that stopped it again. A later
    /// vertex may need an earlier one's set, so ascending order lets one
    /// sweep finish both. With `WAIT` (a full list, and once the
    /// participant has claimed its last piece) it waits where it must, so
    /// every vertex finishes unless the doacross was aborted. Returns
    /// whether the list is empty.
    ///
    /// Waiting here cannot deadlock (module docs): the owner of the lowest
    /// unpublished vertex never blocks.
    #[cold]
    #[inline(never)]
    fn retry<const WAIT: bool>(self, me: &mut Participant<'a>) -> bool {
        let Participant {
            pending,
            writer,
            counts,
            ..
        } = me;
        pending.retain_mut(|v| {
            let length = |p| match self.clen.peek(p) {
                None if WAIT => {
                    counts.blocked_waits += 1;
                    // After an abort the wait gives up: the vertex stays.
                    self.clen.wait(p)
                }
                peeked => peeked,
            };
            let (rest, set, staged) = (&mut v.rest, &mut v.set, &mut v.staged);
            match self.walk(Some(v.stalled), rest, set, staged, length) {
                Ok(()) => {
                    self.publish(v.w, &v.set, v.staged, writer);
                    false
                }
                Err(p) => {
                    v.stalled = p;
                    true
                }
            }
        });
        pending.is_empty()
    }
}

/// EC in canonical sorted order, counting-sorted straight from the blocks
/// (and from the start slots that hold the smallest sets).
/// Runs after the pass has finished, so it reads lengths and starts
/// through the owner forms.
///
/// Every entry `p` of `C[w]` is the edge `(p, w)` with `p < w`, so a
/// counting sort on `p` of the edges listed in ascending `w` sorts them
/// without comparing them. One visit of every set, in ascending `w`, lists
/// its edges and counts each parent's children in the length slots, free
/// once a vertex's own length has been read: `w`'s count starts at zero
/// when `w` is visited, before any of its children. The start slots, free
/// once the sets are listed, then hold the buckets' starts. The visit also
/// measures the sets, which lets the arena keep the blocks a rerun may
/// claim ([`SetArena::keep_for_reruns`]).
fn sorted_edges<const BLOCK: usize>(
    clen: &mut Published,
    sets: &mut SetArena<BLOCK>,
    starts: &mut [AtomicUsize],
) -> Vec<Edge> {
    let directory = sets.directory();
    let (mut in_blocks, mut longest) = (0, 0);
    let listed = (0..starts.len()).map(|w| clen.get_mut(w) as usize).sum();
    let mut by_child = Vec::with_capacity(listed);
    for (w, start) in starts.iter_mut().enumerate() {
        let len = clen.get_mut(w) as usize;
        clen.set_mut(w, 0);
        let mut list = |p: VertexId| {
            let count = clen.get_mut(p as usize);
            clen.set_mut(p as usize, count + 1);
            by_child.push((p, w as VertexId));
        };
        let start = *start.get_mut();
        if len <= INLINE {
            (0..len).for_each(|i| list(inlined(start, len, i)));
        } else {
            if len <= BLOCK {
                in_blocks += len;
                longest = longest.max(len);
            }
            for p in directory.get(start & START_MASK, len) {
                list(p.load(Ordering::Relaxed));
            }
        }
    }
    let mut below = 0;
    for (w, start) in starts.iter_mut().enumerate() {
        *start.get_mut() = below;
        below += clen.get_mut(w) as usize;
    }
    let mut edges = vec![(0, 0); by_child.len()];
    for &(p, w) in &by_child {
        let slot = starts[p as usize].get_mut();
        edges[*slot] = (p, w);
        *slot += 1;
    }
    sets.keep_for_reruns(in_blocks, longest);
    edges
}

/// Entries per block of the chordal-set arena (16 KiB). Fixed, not an
/// option: the tests that need small blocks instantiate the arena with
/// their own block size.
pub const SET_BLOCK: usize = 4096;

/// The arena that holds Algorithm 1's chordal sets: a directory of
/// `BLOCK`-entry blocks, each created on its first claim and kept across
/// runs, plus a directory of one-set blocks for sets longer than a block.
///
/// A participant of the pass holds one block at a time ([`Writer`]) and
/// copies each set, at its exact length, to the block's unused tail
/// ([`SetArena::place`]). When the set does not fit, the participant
/// claims the next block id from one atomic cursor. A set never straddles
/// two blocks. A set longer than `BLOCK` entries gets a block of its own
/// length from the second directory, while the participant keeps its
/// block; such a block lives until the next run starts, when
/// [`SetArena::prepare`] drops it and counts its successor as a new
/// allocation.
///
/// **Bounds.** Each set is a subset of its vertex's parents, so the sets
/// hold Σ|C[w]| ≤ |E| entries on a symmetric graph, and never more than
/// the `2|E|` adjacency entries `A` of any input. A participant leaves a
/// block only for a set of `L ≤ BLOCK` entries that does not fit, so the
/// block it leaves holds `u` entries with `u + L > BLOCK`; the blocks left
/// are distinct and each set causes at most one move, so the moves number
/// at most `2Σ|C[w]| / (BLOCK + 1)`. A run with `P` participants therefore
/// claims at most `P + 2A / (BLOCK + 1)` blocks, and at most
/// `A / (BLOCK + 1)` long ones; [`SetArena::prepare`] sizes the two
/// directories by these bounds, taken from `A` so that no input, however
/// malformed, claims past them.
///
/// **Memory.** A block left behind is full but for a tail shorter than
/// the set that did not fit, so with `L` the longest set of at most
/// `BLOCK` entries and `S` their total, a run claims at most
/// `P + S / (BLOCK − L + 1)` blocks: about `S` entries plus `P` blocks
/// when the sets are short, as on R-MAT (the test
/// `the_block_arena_follows_the_chordal_edges` holds the blocks to
/// 4·(|EC| + (P + 1)·BLOCK) bytes).
///
/// **Reruns.** A one-participant placement is deterministic, so a serial
/// rerun of a graph claims exactly the blocks its first run created. The
/// sets themselves do not depend on the schedule, but a pool run places
/// them by its schedule: a rerun may claim up to that bound, more than its
/// first run did. So after a run with two or more participants the arena
/// creates the blocks up to `P + S / (BLOCK − L + 1)`
/// ([`SetArena::keep_for_reruns`]), and a pool rerun of a graph on the
/// same engine needs no new block either. After any run it keeps at least
/// one block per participant, even when every set fitted its start slot:
/// a batch hands its graphs to its participants in whatever order they
/// claim them, and a participant's workspace must not grow when a later
/// batch of the same graphs gives it one whose sets need a block.
#[derive(Default)]
pub(crate) struct SetArena<const BLOCK: usize = SET_BLOCK> {
    /// `BLOCK`-entry blocks by id, created on first claim, kept.
    blocks: Vec<OnceLock<Box<[AtomicU32; BLOCK]>>>,
    /// One-set blocks of sets longer than `BLOCK`, dropped by the next
    /// [`SetArena::prepare`].
    long: Vec<OnceLock<Box<[AtomicU32]>>>,
    /// The next block id to claim.
    next_block: AtomicUsize,
    /// The next long block id to claim.
    next_long: AtomicUsize,
    /// Blocks created over the arena's life: its growth events.
    created: AtomicUsize,
    /// Participants of the run the arena was last prepared for.
    participants: usize,
}

/// A participant's hold on a [`SetArena`]: the block it fills and how many
/// of its entries are used. The default holds no block, so the first set
/// placed claims one.
#[derive(Default)]
pub(crate) struct Writer<'a> {
    /// Id of the held block.
    id: usize,
    /// The held block (empty before the first claim).
    block: &'a [AtomicU32],
    /// Entries of the held block already used.
    used: usize,
}

impl<const BLOCK: usize> std::fmt::Debug for SetArena<BLOCK> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetArena")
            .field("block", &BLOCK)
            .field("directory", &self.blocks.len())
            .field("allocated_bytes", &self.allocated_bytes())
            .finish()
    }
}

/// The two directories of a [`SetArena`] as plain slices.
#[derive(Clone, Copy)]
struct Directory<'a, const BLOCK: usize> {
    blocks: &'a [OnceLock<Box<[AtomicU32; BLOCK]>>],
    long: &'a [OnceLock<Box<[AtomicU32]>>],
}

impl<'a, const BLOCK: usize> Directory<'a, BLOCK> {
    /// The set of `len` entries that [`SetArena::place`] put at `start`.
    #[inline]
    fn get(self, start: usize, len: usize) -> &'a [AtomicU32] {
        if len > BLOCK {
            self.long[start].get().expect(PLACED)
        } else if len == 0 {
            &[]
        } else {
            let block = self.blocks[start / BLOCK].get().expect(PLACED);
            &block[start % BLOCK..start % BLOCK + len]
        }
    }

    /// Whether the non-empty `set`, whose [`signature`] is `signature`, is a
    /// subset of the set of `len` entries whose start slot is `slot`. Both
    /// are sorted ascending (parents are accepted in increasing-id order).
    /// The parent test takes one of three shapes, and the two that nearly
    /// every test takes have no data-dependent branch:
    ///
    /// * **A set in its start slot** (at most [`INLINE`] entries): its
    ///   entries are compared with `set`'s one or two through [`inlined`],
    ///   with `==`, `&` and `|`. The slot's low half holds the last entry
    ///   of any non-empty set and its high half the first entry of a full
    ///   slot; the high half of a one-entry slot is zero, so `len` masks
    ///   it out (`{0} ⊄ {5}`).
    /// * **A one-entry `set` against a set in a block**: a lower bound over
    ///   the set's first `len − 1` entries, whose steps depend only on
    ///   `len` (std's `partition_point`), then one equality with the entry
    ///   it lands on. Most tests ask whether `w`'s lowest parent is in
    ///   `C[p]`.
    /// * **A longer `set` against a set in a block**: the same lower bound
    ///   finds `set`'s last entry first, which is missing in most such
    ///   tests, and only then does an ordered merge
    ///   ([`crate::kernels::sorted_subset_by`]) look for the rest of `set`
    ///   among the entries below it.
    ///
    /// A set in a block carries its signature above its start. Before
    /// either of the last two shapes reads the block, a signature that
    /// lacks a bit of `signature` rules the set out: some entry of `set`
    /// is not in it. On RMAT-B(16) this leaves 14% of the block tests.
    ///
    /// The arena's entries are atomic and read with relaxed loads (the same
    /// instruction as a plain load). Always inlined: the pass calls it from
    /// several loops, and with a plain `#[inline]` LLVM outlined it, which
    /// slowed the one-thread pass on RMAT-ER/G(16) by 11–16%.
    #[inline(always)]
    fn contains(self, slot: usize, len: usize, set: &[VertexId], signature: usize) -> bool {
        if len <= INLINE {
            let first = inlined(slot, INLINE, 0);
            let last = inlined(slot, INLINE, INLINE - 1);
            return match *set {
                [x] => ((len != 0) & (x == last)) | ((len == INLINE) & (x == first)),
                [x, y] => (len == INLINE) & (x == first) & (y == last),
                _ => false,
            };
        }
        if signature & !slot != 0 {
            return false;
        }
        let held = self.get(slot & START_MASK, len);
        let entry = |j: usize| held[j].load(Ordering::Relaxed);
        match *set {
            [x] => {
                let below = held[..len - 1].partition_point(|p| p.load(Ordering::Relaxed) < x);
                entry(below) == x
            }
            [ref rest @ .., last] => {
                let below = held[..len - 1].partition_point(|p| p.load(Ordering::Relaxed) < last);
                entry(below) == last
                    && crate::kernels::sorted_subset_by(rest.len(), |i| rest[i], below, entry)
            }
            [] => true,
        }
    }
}

/// Sets of at most this many entries live in their start slot itself,
/// not in a block: a `usize` holds two `u32` ids on a 64-bit target.
const INLINE: usize = std::mem::size_of::<usize>() / std::mem::size_of::<VertexId>();

/// Bits above the start in a block-held set's start slot, which hold the
/// set's signature ([`signature`]). A 32-bit target has no room for one:
/// there every signature is empty and the parent test reads the block.
#[cfg(target_pointer_width = "64")]
const SIGNATURE_BITS: u32 = 24;
#[cfg(not(target_pointer_width = "64"))]
const SIGNATURE_BITS: u32 = 0;

/// The bits of a start slot that hold a block-held set's start: 40 on a
/// 64-bit target, enough for a graph of fewer than about 2^39 adjacency
/// entries ([`SetArena::prepare`] checks it).
const START_MASK: usize = usize::MAX >> SIGNATURE_BITS;

/// The signature bit of entry `x`, in its place above a start slot's
/// start: bit `(u64::from(x.wrapping_mul(0x9E37_79B9)) * 24) >> 32` of the
/// 24 (a multiplicative hash's top bits, scaled). A set's signature is the
/// OR of its entries' bits, a one-word Bloom filter (Bloom, CACM 1970): a
/// set whose signature lacks a bit of another's cannot hold that other.
#[inline]
fn signature(x: VertexId) -> usize {
    if SIGNATURE_BITS == 0 {
        return 0;
    }
    let bit = (u64::from(x.wrapping_mul(0x9E37_79B9)) * u64::from(SIGNATURE_BITS)) >> 32;
    1 << (usize::BITS - SIGNATURE_BITS + bit as u32)
}

/// A set of at most [`INLINE`] entries packed into a start slot, the first
/// entry in the highest bits.
#[inline]
fn inline(set: &[VertexId]) -> usize {
    set.iter().fold(0, |packed: usize, &p| {
        packed.wrapping_shl(VertexId::BITS) | p as usize
    })
}

/// Entry `i` of the `len`-entry set [`inline`] packed into `start`.
#[inline]
fn inlined(start: usize, len: usize, i: usize) -> VertexId {
    (start >> (VertexId::BITS as usize * (len - 1 - i))) as VertexId
}

/// Why a set's block exists when it is read: the block was created
/// before the set's entries were written, and both happened before the
/// release publish of the set's length that the reader acquired.
const PLACED: &str = "a published set's block exists";

impl<const BLOCK: usize> SetArena<BLOCK> {
    /// Block ids and long block ids a run over a graph with `adjacency`
    /// entries may claim with `participants` (type docs).
    pub(crate) fn bounds(adjacency: usize, participants: usize) -> (usize, usize) {
        (
            participants + 2 * adjacency / (BLOCK + 1),
            adjacency / (BLOCK + 1),
        )
    }

    /// Sizes both directories for a run over a graph with `adjacency`
    /// entries by `participants`, rewinds both cursors and drops the last
    /// run's long blocks. Returns whether a directory had to grow; the
    /// blocks a run creates count in [`SetArena::blocks_created`].
    ///
    /// # Panics
    /// Panics if a start could exceed the start field of a start slot
    /// ([`START_MASK`]): a graph of about 2^39 adjacency entries or more
    /// on a 64-bit target.
    pub(crate) fn prepare(&mut self, adjacency: usize, participants: usize) -> bool {
        let (blocks, long) = Self::bounds(adjacency, participants);
        let end = blocks
            .checked_mul(BLOCK)
            .filter(|&end| end.saturating_sub(1) <= START_MASK);
        assert!(
            end.is_some(),
            "{adjacency} adjacency entries: set starts would not fit a start slot"
        );
        let grew = self.blocks.len() < blocks || self.long.len() < long;
        if self.blocks.len() < blocks {
            self.blocks.resize_with(blocks, OnceLock::new);
        }
        let used_long = (*self.next_long.get_mut()).min(self.long.len());
        for slot in &mut self.long[..used_long] {
            slot.take();
        }
        if self.long.len() < long {
            self.long.resize_with(long, OnceLock::new);
        }
        *self.next_block.get_mut() = 0;
        *self.next_long.get_mut() = 0;
        self.participants = participants;
        grew
    }

    /// Copies `set` into the arena and returns where it starts, which
    /// [`Directory::get`] turns back into the set given its length: `id ·
    /// BLOCK + offset` for a set of at most `BLOCK` entries, which goes to
    /// the tail of `writer`'s block, or to the start of the next block
    /// claimed when it does not fit; the id of its own block for a longer
    /// set. The entries are relaxed stores: the caller publishes the set
    /// with release ordering.
    ///
    /// # Panics
    /// Panics if the run claims past the directories' bounds, which the
    /// sets of a graph the arena was prepared for cannot.
    #[inline]
    pub(crate) fn place<'a>(&'a self, writer: &mut Writer<'a>, set: &[VertexId]) -> usize {
        let at = writer.used;
        match writer.block.get(at..at + set.len()) {
            Some(slots) => {
                for (slot, &p) in slots.iter().zip(set) {
                    slot.store(p, Ordering::Relaxed);
                }
                writer.used = at + set.len();
                writer.id * BLOCK + at
            }
            None => self.place_in_new_block(writer, set),
        }
    }

    /// [`SetArena::place`] for a set that does not fit the writer's block.
    #[cold]
    #[inline(never)]
    fn place_in_new_block<'a>(&'a self, writer: &mut Writer<'a>, set: &[VertexId]) -> usize {
        let len = set.len();
        let (slots, start) = if len > BLOCK {
            let id = self.next_long.fetch_add(1, Ordering::Relaxed);
            (&self.long[id].get_or_init(|| self.new_block(len))[..], id)
        } else {
            let id = self.next_block.fetch_add(1, Ordering::Relaxed);
            let block = &self.blocks[id].get_or_init(|| self.new_full_block())[..];
            *writer = Writer {
                id,
                block,
                used: len,
            };
            (&block[..len], id * BLOCK)
        };
        for (slot, &p) in slots.iter().zip(set) {
            slot.store(p, Ordering::Relaxed);
        }
        start
    }

    /// Both directories, for a reader that looks up many sets.
    #[inline]
    fn directory(&self) -> Directory<'_, BLOCK> {
        Directory {
            blocks: &self.blocks,
            long: &self.long,
        }
    }

    /// After a run whose block-held sets hold `in_blocks` entries, the
    /// longest `longest`: keeps one block per participant, and when the run
    /// had two or more participants, creates the blocks any schedule of
    /// these sets could claim (type docs), so that a rerun of the graph
    /// creates none.
    pub(crate) fn keep_for_reruns(&mut self, in_blocks: usize, longest: usize) {
        let moves = if self.participants < 2 || longest == 0 {
            0
        } else {
            (in_blocks / (BLOCK - longest + 1)).min(2 * in_blocks / (BLOCK + 1))
        };
        let most = (self.participants + moves).min(self.blocks.len());
        for slot in &self.blocks[..most] {
            slot.get_or_init(|| self.new_full_block());
        }
    }

    /// A zeroed block of `len` entries, counted as a growth event.
    fn new_block(&self, len: usize) -> Box<[AtomicU32]> {
        self.created.fetch_add(1, Ordering::Relaxed);
        (0..len).map(|_| AtomicU32::new(0)).collect()
    }

    /// A zeroed `BLOCK`-entry block, counted as a growth event.
    fn new_full_block(&self) -> Box<[AtomicU32; BLOCK]> {
        self.new_block(BLOCK)
            .try_into()
            .expect("a block has BLOCK entries")
    }

    /// Blocks created so far, long ones included: the arena's growth
    /// events, which [`Workspace::allocations`] counts.
    pub(crate) fn blocks_created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }

    /// Heap bytes of both directories and every block they hold.
    pub(crate) fn allocated_bytes(&self) -> usize {
        use std::mem::size_of;
        let blocks = self
            .blocks
            .iter()
            .filter(|slot| slot.get().is_some())
            .count();
        let long: usize = self
            .long
            .iter()
            .filter_map(OnceLock::get)
            .map(|b| b.len())
            .sum();
        self.blocks.capacity() * size_of::<OnceLock<Box<[AtomicU32; BLOCK]>>>()
            + self.long.capacity() * size_of::<OnceLock<Box<[AtomicU32]>>>()
            + (blocks * BLOCK + long) * size_of::<AtomicU32>()
    }
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
        // [128,150); the second piece's sets alone hold 6,112 entries, so
        // the participant that runs it moves to a new block partway. The
        // cliques of `disjoint_cliques(3, 70)` straddle the piece
        // boundaries. In `shifted`, vertex 63's one edge is the only set
        // below the second piece, whose 64-clique fills it. The workspace
        // then serves a smaller graph, over the entries and starts these
        // runs left.
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

    /// Runs the pass and its sort on an arena of `BLOCK`-entry blocks, as
    /// `extract_into` does on the workspace's.
    fn pass_with<const BLOCK: usize>(
        g: &CsrGraph,
        engine: Engine,
        sets: &mut SetArena<BLOCK>,
        clen: &mut Published,
        starts: &mut Vec<AtomicUsize>,
    ) -> Vec<Edge> {
        let graph = GraphRef::from(g);
        let n = graph.num_vertices();
        clen.reset(n);
        if starts.len() < n {
            starts.resize_with(n, || AtomicUsize::new(0));
        }
        sets.prepare(
            graph.num_directed_edges(),
            doacross_participants(&engine, n),
        );
        let adjacency = Adjacency {
            mode: AdjacencyMode::Sorted,
            neighbors: graph.adjacency(),
            offsets: graph.offsets(),
        };
        pass(&engine, adjacency, clen, sets, &mut starts[..n]).0
    }

    /// Places `set` and reads it back from where the arena says it starts.
    fn place_and_read<'a, const BLOCK: usize>(
        sets: &'a SetArena<BLOCK>,
        writer: &mut Writer<'a>,
        set: &[VertexId],
    ) -> (usize, Vec<VertexId>) {
        let start = sets.place(writer, set);
        let read = sets.directory().get(start, set.len());
        (
            start,
            read.iter().map(|p| p.load(Ordering::Relaxed)).collect(),
        )
    }

    #[test]
    fn small_blocks_match_the_pull_oracle_and_reruns_create_only_long_blocks() {
        // Eight-entry blocks: `complete(20)`'s sets run up to 19 entries,
        // so most of them get long blocks of their own; the other graphs
        // fill blocks with short sets, some ending exactly at a block's
        // end. The second round reruns every graph on every engine: it may
        // create the long blocks again, but no block of eight.
        let graphs = [
            structured::complete(20),
            RmatParams::preset(RmatKind::G, 9, 2).generate(),
            RmatParams::preset(RmatKind::B, 9, 2).generate(),
            structured::grid(6, 7),
            structured::disjoint_cliques(3, 9),
        ];
        let mut sets = SetArena::<8>::default();
        let mut clen = Published::default();
        let mut starts = Vec::new();
        for round in 0..2 {
            for g in &graphs {
                let expected = extract_pull_reference(g, true);
                let mut lens = vec![0; g.num_vertices()];
                for &(_, w) in expected.edges() {
                    lens[w as usize] += 1;
                }
                let long = lens.iter().filter(|&&len| len > 8).count();
                for engine in [Engine::serial(), Engine::chunked(2), Engine::chunked(8)] {
                    let created = sets.blocks_created();
                    let edges = pass_with(g, engine, &mut sets, &mut clen, &mut starts);
                    assert_eq!(edges, expected.edges(), "{engine:?}");
                    if round == 1 {
                        assert_eq!(sets.blocks_created() - created, long, "{engine:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_shape_of_the_parent_test_agrees_with_the_definition_of_subset() {
        // Every C[p] over a ten-id universe with 0 and the ids just below
        // NO_VERTEX, held where the pass holds it on eight-entry blocks (at
        // most INLINE entries in its start slot, up to eight in a block, more
        // in a long block), against every non-empty C[w] of at most three.
        let top = NO_VERTEX - 1;
        let universe = [0, 1, 2, 5, 7, 8, 100, top - 2, top - 1, top];
        let subsets: Vec<Vec<VertexId>> = (0..1u32 << universe.len())
            .map(|mask| {
                let members = universe.iter().enumerate();
                members
                    .filter(|&(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &x)| x)
                    .collect()
            })
            .collect();
        let mut sets = SetArena::<8>::default();
        sets.prepare(subsets.iter().map(Vec::len).sum::<usize>() + 16, 1);
        let mut writer = Writer::default();
        let mut slot = |p: &[VertexId]| match p.len() {
            0..=INLINE => inline(p),
            _ => sets.place(&mut writer, p) | signature_of(p),
        };
        let starts: Vec<usize> = subsets.iter().map(|p| slot(p)).collect();
        // Two ids with the same signature bit, and a block-held set that
        // holds the first but not the second: its signature covers sets it
        // does not hold.
        let (a, b) = (0..)
            .flat_map(|b| (0..b).map(move |a| (a, b)))
            .find(|&(a, b)| a > 2 && signature(a) == signature(b))
            .expect("24 bits collide");
        let top_parent = [1, a, b + 1, b + 2];
        let collides = slot(&top_parent);
        assert!(sets.blocks_created() > 1 && sets.next_long.load(Ordering::Relaxed) == 11);
        let directory = sets.directory();
        for (parent, &start) in subsets.iter().zip(&starts) {
            for child in subsets.iter().filter(|s| (1..=3).contains(&s.len())) {
                let subset = child.iter().all(|x| parent.contains(x));
                let got = directory.contains(start, parent.len(), child, signature_of(child));
                assert_eq!(got, subset, "{child:?} ⊆ {parent:?}");
            }
        }
        // The packing's trap: a one-entry slot's high half reads as 0.
        assert!(!directory.contains(inline(&[5]), 1, &[0], signature(0)));
        assert!(!directory.contains(inline(&[]), 0, &[0], signature(0)));
        // Past the signature: `b` collides with `a`, so only the block
        // tells the sets apart, whether `b` is `C[w]`'s last entry or an
        // earlier one whose last entry `C[p]` holds.
        for (child, subset) in [
            (vec![b], false),
            (vec![a], true),
            (vec![1, b], false),
            (vec![b, b + 2], false),
            (vec![1, b, b + 2], false),
            (vec![1, a, b + 2], true),
            (vec![a, b + 1, b + 2], true),
        ] {
            let covers = signature_of(&child) & !collides == 0;
            let got = directory.contains(collides, top_parent.len(), &child, signature_of(&child));
            assert!(covers, "{child:?}'s signature is covered");
            assert_eq!(got, subset, "{child:?} ⊆ {top_parent:?}");
        }
    }

    /// The signature of `set` ([`signature`]).
    fn signature_of(set: &[VertexId]) -> usize {
        set.iter().fold(0, |bits, &x| bits | signature(x))
    }

    /// Vertices `1..n` on a path, each also joined to vertex 0: every
    /// vertex's one tested parent is the one before it (its lowest parent,
    /// 0, needs no test), so each vertex waits on its predecessor. A bare
    /// path never reads a parent at all.
    fn fan(n: usize) -> CsrGraph {
        let n = n as VertexId;
        let spokes = (1..n).map(|w| (0, w));
        graph_from_edges(n as usize, spokes.chain((2..n).map(|w| (w - 1, w))))
    }

    #[test]
    fn the_deferring_pool_pass_matches_the_pull_oracle() {
        // Graphs whose vertices wait on the piece before theirs: the fan,
        // where every vertex waits on its predecessor; `complete(150)`,
        // where each waits on all of its parents; and a graph where every
        // vertex has a parent 64 ids back, in the previous 64-vertex piece,
        // besides vertex 0 and its predecessor.
        let back = (64..4_096).map(|w| (w - 64, w));
        let piece_back = graph_from_edges(4_096, fan(4_096).edges().chain(back));
        for g in [fan(4_096), structured::complete(150), piece_back] {
            let expected = extract_pull_reference(&g, true);
            let scrambled = g.with_scrambled_adjacency(3);
            for engine in [Engine::chunked(2), Engine::chunked(8)] {
                for (adjacency, graph) in [
                    (AdjacencyMode::Sorted, &g),
                    (AdjacencyMode::Unsorted, &scrambled),
                ] {
                    let got = extract_with(graph, engine, adjacency);
                    assert_eq!(got, expected, "{engine:?} {adjacency:?}");
                }
            }
        }
    }

    #[test]
    fn a_participant_sets_aside_what_it_cannot_finish_and_finishes_it_later() {
        // Two participants of the fan's pass, interleaved by hand: B runs
        // [64, 128) before A runs [0, 64), so B sets its whole piece aside
        // and its list is full. After A's piece, B's next piece [128, 192)
        // starts by setting 128 aside, which first finishes the full list
        // without a blocking wait; 129.. wait on 128, and the piece's
        // retry finishes them all.
        let g = fan(192);
        let expected = extract_pull_reference(&g, true);
        let graph = GraphRef::from(&g);
        let (mut clen, mut sets) = (Published::default(), SetArena::<8>::default());
        let mut starts: Vec<AtomicUsize> = (0..192).map(|_| AtomicUsize::new(0)).collect();
        clen.reset(192);
        sets.prepare(graph.num_directed_edges(), 2);
        {
            let pull = Pull {
                adjacency: Adjacency {
                    mode: AdjacencyMode::Sorted,
                    neighbors: graph.adjacency(),
                    offsets: graph.offsets(),
                },
                clen: &clen,
                sets: &sets,
                directory: sets.directory(),
                starts: &starts,
            };
            let (mut a, mut b) = (Participant::default(), Participant::default());
            pull.run::<true>(&mut b, 64..128);
            assert_eq!((b.pending.len(), b.counts.deferred), (PENDING, 64));
            assert_eq!(clen.peek(64), None);
            pull.run::<true>(&mut a, 0..64);
            assert!(a.pending.is_empty() && a.counts == DoacrossCounts::default());
            pull.run::<true>(&mut b, 128..192);
            let counts = DoacrossCounts {
                deferred: 128,
                blocked_waits: 0,
                full_lists: 1,
            };
            assert!(b.pending.is_empty());
            assert_eq!(b.counts, counts);
            assert!(pull.retry::<true>(&mut a) && pull.retry::<true>(&mut b));
        }
        assert_eq!(
            sorted_edges(&mut clen, &mut sets, &mut starts),
            expected.edges()
        );
    }

    #[test]
    fn the_pool_pass_sets_vertices_aside_and_the_serial_pass_never_does() {
        // Whether the two participants overlap is up to the host; over a
        // hundred runs of the fan they do, wherever two cores are free.
        let g = fan(64 * 256);
        let mut workspace = Workspace::new();
        let serial = ExtractorConfig::serial(AdjacencyMode::Sorted);
        let expected = serial.extract_into((&g).into(), &mut workspace);
        assert_eq!(workspace.doacross_counts(), DoacrossCounts::default());
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            return;
        }
        let pool = ExtractorConfig::default().with_engine(Engine::chunked(2));
        let overlapped = (0..100).find_map(|_| {
            assert_eq!(pool.extract_into((&g).into(), &mut workspace), expected);
            Some(workspace.doacross_counts()).filter(|c| c.deferred > 0 && c.full_lists > 0)
        });
        assert!(overlapped.is_some(), "no run set a full list aside");
        serial.extract_into((&g).into(), &mut workspace);
        assert_eq!(workspace.doacross_counts(), DoacrossCounts::default());
    }

    #[test]
    fn one_entry_sets_against_long_clique_sets_match_the_pull_oracle() {
        // A 300-clique on the lowest ids and 3,000 vertices above it, each
        // joining two clique members a < b: each tests its one-entry set
        // {a} against C[b], b's whole lower clique, held in a block (and in
        // a long block of eight-entry blocks). A scrambled numbering of the
        // same graph mixes in tests that fail and sets of every length.
        let (k, n) = (300, 3_300);
        let clique = (0..k).flat_map(|u| (u + 1..k).map(move |v| (u, v)));
        let joins = (k..n).flat_map(|v| {
            let a = v * 7 % k;
            let b = (a + 1 + v * 13 % (k - 1)) % k;
            [(a, v), (b, v)]
        });
        let edges: Vec<Edge> = clique.chain(joins).collect();
        let relabel = |v: VertexId| v * 1_009 % n;
        let scrambled = edges.iter().map(|&(u, v)| (relabel(u), relabel(v)));
        for g in [
            graph_from_edges(n as usize, edges.iter().copied()),
            graph_from_edges(n as usize, scrambled),
        ] {
            let expected = extract_pull_reference(&g, true);
            let mut small = SetArena::<8>::default();
            let (mut clen, mut starts) = (Published::default(), Vec::new());
            for engine in [Engine::serial(), Engine::chunked(2), Engine::chunked(8)] {
                let config = ExtractorConfig::default()
                    .with_engine(engine)
                    .with_stats(true);
                assert_eq!(config.extract(&g), expected, "{engine:?}");
                let edges = pass_with(&g, engine, &mut small, &mut clen, &mut starts);
                assert_eq!(edges, expected.edges(), "{engine:?} on eight-entry blocks");
            }
        }
    }

    #[test]
    fn the_arena_places_sets_at_block_ends_in_long_blocks_and_in_kept_blocks() {
        let mut sets = SetArena::<8>::default();
        assert!(sets.prepare(100, 1));
        let mut writer = Writer::default();
        assert_eq!(
            place_and_read(&sets, &mut writer, &[1, 2, 3]),
            (0, vec![1, 2, 3])
        );
        // Fills block 0 exactly: the next set starts block 1.
        let b = place_and_read(&sets, &mut writer, &[4, 5, 6, 7, 8]);
        assert_eq!(b, (3, vec![4, 5, 6, 7, 8]));
        assert_eq!(place_and_read(&sets, &mut writer, &[9]), (8, vec![9]));
        // Longer than a block: a block of its own, long block 0, and the
        // writer keeps block 1 for the next short set.
        let long: Vec<VertexId> = (10..21).collect();
        assert_eq!(place_and_read(&sets, &mut writer, &long), (0, long.clone()));
        assert_eq!(
            place_and_read(&sets, &mut writer, &[30, 31]),
            (9, vec![30, 31])
        );
        assert!(place_and_read(&sets, &mut writer, &[]).1.is_empty());
        assert_eq!((writer.id, writer.used), (1, 3));
        assert_eq!(
            sets.blocks_created(),
            3,
            "blocks 0 and 1 and one long block"
        );
        assert_eq!(
            sets.allocated_bytes(),
            sets.blocks.capacity() * std::mem::size_of::<OnceLock<Box<[AtomicU32; 8]>>>()
                + sets.long.capacity() * std::mem::size_of::<OnceLock<Box<[AtomicU32]>>>()
                + (2 * 8 + 11) * 4
        );
        // A smaller graph reuses the kept blocks; the long block went with
        // its run, so a long set needs a new one.
        assert!(!sets.prepare(40, 1));
        let mut writer = Writer::default();
        let full: Vec<VertexId> = (0..8).collect();
        assert_eq!(place_and_read(&sets, &mut writer, &full), (0, full.clone()));
        assert_eq!(place_and_read(&sets, &mut writer, &full), (8, full.clone()));
        assert_eq!(sets.blocks_created(), 3, "kept blocks 0 and 1 serve");
        assert_eq!(place_and_read(&sets, &mut writer, &[1]), (16, vec![1]));
        assert_eq!(sets.blocks_created(), 4, "block 2 is new");
        assert_eq!(place_and_read(&sets, &mut writer, &long), (0, long.clone()));
        assert_eq!(sets.blocks_created(), 5);
    }

    #[test]
    fn claims_stay_within_the_directory_bounds() {
        // The placements that claim the most: each participant alternates a
        // one-entry set with a set of a whole block, so every full set
        // moves it to a new block, with long sets mixed in, until the sets
        // hold as many entries as the adjacency.
        for participants in 1..=3 {
            for adjacency in [1, 8, 9, 40, 100, 1_000] {
                let mut sets = SetArena::<8>::default();
                sets.prepare(adjacency, participants);
                let mut writers: Vec<Writer<'_>> =
                    (0..participants).map(|_| Writer::default()).collect();
                let mut placed = 0;
                for i in 0.. {
                    let len = [1, 8, 1, 8, 9][(i / participants) % 5];
                    if placed + len > adjacency {
                        break;
                    }
                    sets.place(&mut writers[i % participants], &vec![0; len]);
                    placed += len;
                }
                let (blocks, long) = SetArena::<8>::bounds(adjacency, participants);
                let claimed = sets.next_block.load(Ordering::Relaxed);
                let claimed_long = sets.next_long.load(Ordering::Relaxed);
                assert!(claimed <= blocks, "{participants} {adjacency}: {claimed}");
                assert!(claimed_long <= long, "{participants} {adjacency}");
            }
        }
    }

    #[test]
    fn the_block_arena_follows_the_chordal_edges() {
        // Through one workspace, on one thread and on the pool: the bytes
        // the workspace holds are its per-vertex arrays and block
        // directory, plus at most 4·(|EC| + (P + 1)·SET_BLOCK) bytes of
        // blocks for the largest run so far (no set here is longer than a
        // block). A serial rerun of a graph allocates nothing.
        use std::mem::size_of;
        let graphs = [
            RmatParams::preset(RmatKind::Er, 12, 1).generate(),
            RmatParams::preset(RmatKind::G, 12, 1).generate(),
            RmatParams::preset(RmatKind::B, 12, 1).generate(),
            structured::complete(150),
            structured::disjoint_cliques(3, 70),
        ];
        let mut workspace = Workspace::new();
        let mut blocks_bound = 0;
        for g in &graphs {
            for engine in [Engine::serial(), Engine::chunked(2), Engine::chunked(8)] {
                let config = ExtractorConfig::default().with_engine(engine);
                let result = config.extract_into(g.into(), &mut workspace);
                let participants = doacross_participants(&engine, g.num_vertices());
                blocks_bound = blocks_bound
                    .max(4 * (result.num_chordal_edges() + (participants + 1) * SET_BLOCK));
                let sets = &workspace.sets;
                let directory = sets.blocks.capacity()
                    * size_of::<OnceLock<Box<[AtomicU32; SET_BLOCK]>>>()
                    + sets.long.capacity() * size_of::<OnceLock<Box<[AtomicU32]>>>();
                let per_vertex = workspace.clen.allocated_bytes()
                    + workspace.starts.capacity() * size_of::<AtomicUsize>();
                let bytes = workspace.allocated_bytes();
                assert!(
                    bytes <= per_vertex + directory + blocks_bound,
                    "{engine:?}: {bytes} > {per_vertex} + {directory} + {blocks_bound}"
                );
                if engine == Engine::serial() {
                    let allocations = workspace.allocations();
                    let rerun = config.extract_into(g.into(), &mut workspace);
                    assert_eq!(rerun, result);
                    assert_eq!(workspace.allocations(), allocations);
                    assert_eq!(workspace.allocated_bytes(), bytes);
                }
            }
        }
    }
}
