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
//! tests against it reads no block at all.
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
//! ascending order, and `w` waits until `|C[p]|` is published. That wait is
//! an acquire load paired with the release store that ends `p`'s step, so
//! the block holding `C[p]`, whose creation came first, and the relaxed
//! stores of `C[p]`'s entries and of its start are visible once it
//! returns. `w` needs no wait for its first parent: an empty `C[w]` is a
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
use chordal_runtime::publish::doacross_participants;
use chordal_runtime::{Engine, Published};
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
        return ChordalResult::new(0, Vec::new(), 0, stats);
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
    let edges = pass(&config.engine, adjacency, clen, sets, &mut starts[..n]);
    // One pass, in which every vertex with a child serves as a parent.
    let iterations = usize::from(graph.num_directed_edges() > 0);
    if let Some(s) = stats.as_mut().filter(|_| iterations == 1) {
        let parents = (0..n).filter(|&v| adjacency.has_child(v)).count();
        s.record(parents, edges.len());
    }
    ChordalResult::new(n, edges, iterations, stats)
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
/// then the result edges in canonical order ([`sorted_edges`]). `starts`
/// has one slot per vertex.
fn pass<const BLOCK: usize>(
    engine: &Engine,
    adjacency: Adjacency<'_>,
    clen: &mut Published,
    sets: &mut SetArena<BLOCK>,
    starts: &mut [AtomicUsize],
) -> Vec<Edge> {
    pull(engine, adjacency, clen, sets, starts);
    sorted_edges(clen, sets, starts)
}

/// The pass (module docs): every vertex, in ascending order, tests its set
/// against each parent's final set, reading the graph through `adjacency`.
/// Each participant builds `C[w]` in its own buffer and places it in
/// `sets` ([`SetArena::place`]), or packs it into `starts[w]` when it has
/// at most [`INLINE`] entries. It stores the set's start in `starts[w]` and
/// then publishes `|C[w]|` to `clen`, so a child that waits on the length
/// reads the start after it.
fn pull<const BLOCK: usize>(
    engine: &Engine,
    adjacency: Adjacency<'_>,
    clen: &Published,
    sets: &SetArena<BLOCK>,
    starts: &[AtomicUsize],
) {
    clen.doacross(
        engine,
        adjacency.num_vertices(),
        || (Vec::new(), Writer::default()),
        |(buffer, writer), range| {
            let directory = sets.directory();
            for w in range {
                // A set holds at most its vertex's degree.
                let degree = adjacency.offsets[w + 1] - adjacency.offsets[w];
                if buffer.len() < degree {
                    buffer.resize(degree, 0);
                }
                let set_w = &mut buffer[..degree];
                let mut len_w = 0;
                for p in adjacency.parents(w) {
                    let p_idx = p as usize;
                    let accept = len_w == 0
                        || match clen.wait(p_idx) {
                            Some(len_p) => directory.contains(
                                starts[p_idx].load(Ordering::Relaxed),
                                len_p as usize,
                                &set_w[..len_w],
                            ),
                            // A piece below panicked; the caller unwinds.
                            None => return,
                        };
                    if accept {
                        set_w[len_w] = p;
                        len_w += 1;
                    }
                }
                let set_w = &set_w[..len_w];
                let start = if len_w <= INLINE {
                    inline(set_w)
                } else {
                    sets.place(writer, set_w)
                };
                starts[w].store(start, Ordering::Relaxed);
                clen.publish(w, len_w as u32);
            }
        },
    );
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
            for p in directory.get(start, len) {
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

    /// Whether `set` is a subset of the set of `len` entries at `start`:
    /// an ordered merge, since both are sorted ascending (parents are
    /// accepted in increasing-id order). The arena's entries are atomic,
    /// so the shared kernel is used through its accessor form with relaxed
    /// loads (the same instruction as a plain load). A set of at most
    /// [`INLINE`] entries is read from `start` itself; a set in a block is
    /// indexed within the block's fixed length, once the lengths allow it.
    #[inline]
    fn contains(self, start: usize, len: usize, set: &[VertexId]) -> bool {
        let subset = |b: &[AtomicU32], at: usize| {
            crate::kernels::sorted_subset_by(
                set.len(),
                |i| set[i],
                len,
                |j| b[at + j].load(Ordering::Relaxed),
            )
        };
        if len <= INLINE {
            crate::kernels::sorted_subset_by(set.len(), |i| set[i], len, |j| inlined(start, len, j))
        } else if len > BLOCK {
            subset(self.get(start, len), 0)
        } else {
            set.len() <= len
                && subset(
                    &self.blocks[start / BLOCK].get().expect(PLACED)[..],
                    start % BLOCK,
                )
        }
    }
}

/// Sets of at most this many entries live in their start slot itself,
/// not in a block: a `usize` holds two `u32` ids on a 64-bit target.
const INLINE: usize = std::mem::size_of::<usize>() / std::mem::size_of::<VertexId>();

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
    pub(crate) fn prepare(&mut self, adjacency: usize, participants: usize) -> bool {
        let (blocks, long) = Self::bounds(adjacency, participants);
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
        pass(&engine, adjacency, clen, sets, &mut starts[..n])
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
