//! Reusable per-extraction scratch state.
//!
//! Every extraction needs per-vertex working buffers: the atomic child
//! lists and chordal-set arrays of the parallel extractor, the plain
//! queues and candidate sets of the serial algorithms, and the frozen
//! snapshots of the synchronous semantics. Allocating them per run is cheap
//! for a one-off extraction but dominates short runs under repeated traffic
//! (benchmark loops, serving-style workloads, batch jobs). A [`Workspace`]
//! owns all of those buffers and is handed to
//! [`crate::ChordalExtractor::extract_into`], so consecutive extractions
//! over same-sized graphs reuse the previous run's allocations.
//!
//! The [`Workspace::allocations`] counter increments whenever a buffer has
//! to grow; a steady-state session over same-shaped graphs stops
//! incrementing after the first run, which the test-suite (and the quick
//! start doctests) assert.

use crate::repair::incremental::RepairScratch;
use chordal_graph::{GraphRef, VertexId, NO_VERTEX};
use chordal_runtime::{AtomicFlags, ListHeads, ListLinks};
use std::sync::atomic::{AtomicU32, Ordering};

/// Owned, reusable scratch buffers for one extraction at a time.
///
/// A workspace is not tied to a graph size: buffers grow on demand and are
/// retained between runs. See [`crate::ExtractionSession`] for the
/// convenience wrapper that pairs a workspace with a configured extractor.
#[derive(Debug, Default)]
pub struct Workspace {
    // --- atomic state used by the parallel extractor -----------------------
    /// Child-list heads: every vertex waits on the list of its current
    /// lowest parent.
    pub(crate) heads: ListHeads,
    /// The next iteration's child-list heads under the synchronous
    /// semantics (left empty otherwise).
    pub(crate) next_heads: ListHeads,
    /// Child-list links, shared by both head arrays.
    pub(crate) links: ListLinks,
    /// Sorted-adjacency parent cursor per vertex (Opt variant).
    pub(crate) cursor: Vec<AtomicU32>,
    /// Published chordal-set length per vertex.
    pub(crate) clen: Vec<AtomicU32>,
    /// CSR-shaped chordal-neighbour arena (sized by directed edge count).
    pub(crate) cdata: Vec<AtomicU32>,
    /// Copy of the graph's CSR offsets.
    pub(crate) offsets: Vec<usize>,
    /// Per-vertex queue-membership flags (the next iteration's frontier).
    pub(crate) flags: Option<AtomicFlags>,
    /// Per-parent bucket starts of the result's counting sort.
    pub(crate) starts: Vec<usize>,
    // --- plain scratch shared by the serial algorithms and snapshots -------
    /// u32-per-vertex scratch A (the reference extractor's lowest parents).
    pub(crate) ids_a: Vec<VertexId>,
    /// u32-per-vertex scratch B (frozen chordal-set lengths; per queue
    /// entry in the parallel extractor).
    pub(crate) ids_b: Vec<u32>,
    /// u32-per-vertex scratch C (the reference extractor's frozen lowest
    /// parents).
    pub(crate) ids_c: Vec<VertexId>,
    /// bool-per-vertex scratch (queue membership / selected marks).
    pub(crate) marks: Vec<bool>,
    /// Vertex queue A (current iteration / traversal seed order).
    pub(crate) queue_a: Vec<VertexId>,
    /// Vertex queue B (next iteration).
    pub(crate) queue_b: Vec<VertexId>,
    /// Per-vertex growable id lists (chordal sets / candidate sets).
    pub(crate) lists: Vec<Vec<VertexId>>,
    /// Bucket queue over set cardinalities (Dearing's max-selection).
    pub(crate) buckets: Vec<Vec<VertexId>>,
    /// Pool of child workspaces for nested extractions that run
    /// concurrently (one per partition of the partitioned baseline, one per
    /// participant of a batch fan-out). Grown on demand, retained across
    /// runs.
    pub(crate) subs: Vec<Workspace>,
    /// Scratch of the maximality-repair pass: candidate marks plus the
    /// incrementally maintained chordal subgraph (adjacency, stamps,
    /// union-find). Retained across repairs, so repeated `alg1 + repair`
    /// traffic stops allocating.
    pub(crate) repair: RepairScratch,
    /// Number of buffer-growth events since the workspace was created.
    allocations: usize,
}

impl Workspace {
    /// Creates an empty workspace; buffers are allocated lazily by the first
    /// extraction.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffer-growth events so far, child workspaces included.
    /// Two consecutive extractions over graphs of the same shape leave this
    /// unchanged — that is the reuse guarantee [`crate::ExtractionSession`]
    /// is built on.
    pub fn allocations(&self) -> usize {
        self.allocations + self.subs.iter().map(Workspace::allocations).sum::<usize>()
    }

    /// Heap bytes currently retained by the workspace's buffers (counted
    /// from capacities, so it reflects what the allocator handed out, not
    /// the live lengths). Like [`Workspace::allocations`] it is flat across
    /// same-shaped runs; unlike it, it quantifies the serving path's memory
    /// footprint, which benches report per record.
    pub fn allocated_bytes(&self) -> usize {
        use std::mem::size_of;
        let vec_bytes = |cap: usize, elem: usize| cap * elem;
        let nested = |lists: &Vec<Vec<VertexId>>| {
            lists.capacity() * size_of::<Vec<VertexId>>()
                + lists
                    .iter()
                    .map(|l| l.capacity() * size_of::<VertexId>())
                    .sum::<usize>()
        };
        self.heads.allocated_bytes()
            + self.next_heads.allocated_bytes()
            + self.links.allocated_bytes()
            + vec_bytes(self.cursor.capacity(), size_of::<AtomicU32>())
            + vec_bytes(self.clen.capacity(), size_of::<AtomicU32>())
            + vec_bytes(self.cdata.capacity(), size_of::<AtomicU32>())
            + vec_bytes(self.offsets.capacity(), size_of::<usize>())
            + self.flags.as_ref().map_or(0, |f| f.allocated_bytes())
            + vec_bytes(self.starts.capacity(), size_of::<usize>())
            + vec_bytes(self.ids_a.capacity(), size_of::<VertexId>())
            + vec_bytes(self.ids_b.capacity(), size_of::<u32>())
            + vec_bytes(self.ids_c.capacity(), size_of::<VertexId>())
            + self.marks.capacity()
            + vec_bytes(self.queue_a.capacity(), size_of::<VertexId>())
            + vec_bytes(self.queue_b.capacity(), size_of::<VertexId>())
            + nested(&self.lists)
            + nested(&self.buckets)
            + self.subs.capacity() * std::mem::size_of::<Workspace>()
            + self
                .subs
                .iter()
                .map(Workspace::allocated_bytes)
                .sum::<usize>()
            + self.repair.allocated_bytes()
    }

    /// Sizes and resets the repair scratch: candidate marks for a host
    /// graph with `directed_edges` directed CSR slots, plus — when
    /// `vertices` is given — the incremental maintainer's per-vertex state.
    /// Growth is counted in [`Workspace::allocations`], so repeated repairs
    /// over same-shaped graphs keep the counter flat.
    pub(crate) fn prepare_repair(
        &mut self,
        directed_edges: usize,
        vertices: Option<usize>,
    ) -> &mut RepairScratch {
        if self.repair.marks.prepare(directed_edges) {
            self.allocations += 1;
        }
        if let Some(n) = vertices {
            if self.repair.incr.prepare(n) {
                self.allocations += 1;
            }
        }
        &mut self.repair
    }

    /// A pool of `count` child workspaces, one per concurrent nested
    /// extraction (one per partition of the partitioned baseline, one per
    /// batch fan-out participant). Children are created once and reused
    /// across runs, so repeated extractions with the same count stop
    /// allocating.
    pub(crate) fn sub_pool(&mut self, count: usize) -> &mut [Workspace] {
        if self.subs.len() < count {
            self.allocations += 1;
            self.subs.resize_with(count, Workspace::new);
        }
        &mut self.subs[..count]
    }

    /// Resets and sizes the atomic per-vertex state for a graph with `n`
    /// vertices and `directed_edges` directed edges. Child lists start
    /// empty (`next_lists` also sizes the second head array), cursors and
    /// chordal-set lengths at zero; the arena is left untouched (its live
    /// prefix is defined by `clen`).
    #[cfg(test)]
    pub(crate) fn prepare_atomic(
        &mut self,
        n: usize,
        directed_edges: usize,
        offsets: &[usize],
        next_lists: bool,
    ) {
        self.prepare_atomic_arrays(n, directed_edges, next_lists);
        self.offsets.clear();
        if self.offsets.capacity() < offsets.len() {
            self.allocations += 1;
        }
        self.offsets.extend_from_slice(offsets);
        self.prepare_flags(n);
    }

    /// [`Workspace::prepare_atomic`] driven directly by a [`GraphRef`].
    /// Both heap and mmap-backed graphs fill the copy through
    /// [`GraphRef::adjacency_start`] — heap graphs store offsets at the
    /// compact width ([`chordal_graph::layout`]), so neither representation
    /// has a `&[usize]` slice to hand over wholesale.
    pub(crate) fn prepare_atomic_from(&mut self, graph: GraphRef<'_>, next_lists: bool) {
        let n = graph.num_vertices();
        self.prepare_atomic_arrays(n, graph.num_directed_edges(), next_lists);
        self.offsets.clear();
        if self.offsets.capacity() < n + 1 {
            self.allocations += 1;
        }
        self.offsets
            .extend((0..=n).map(|i| graph.adjacency_start(i)));
        self.prepare_flags(n);
    }

    fn prepare_atomic_arrays(&mut self, n: usize, directed_edges: usize, next_lists: bool) {
        if self.cursor.len() < n {
            self.allocations += 1;
            self.cursor.resize_with(n, || AtomicU32::new(0));
            self.clen.resize_with(n, || AtomicU32::new(0));
        }
        for i in 0..n {
            self.cursor[i].store(0, Ordering::Relaxed);
            self.clen[i].store(0, Ordering::Relaxed);
        }
        let mut grew = self.heads.reset(n);
        grew |= self.links.reserve(n);
        if next_lists {
            grew |= self.next_heads.reset(n);
        }
        if grew {
            self.allocations += 1;
        }
        if self.cdata.len() < directed_edges {
            self.allocations += 1;
            self.cdata.resize_with(directed_edges, || AtomicU32::new(0));
        }
    }

    fn prepare_flags(&mut self, n: usize) {
        match &self.flags {
            Some(flags) if flags.len() >= n => flags.clear_all(),
            _ => {
                self.allocations += 1;
                self.flags = Some(AtomicFlags::new(n));
            }
        }
    }

    /// The prepared queue-membership flags.
    ///
    /// # Panics
    /// Panics if [`Workspace::prepare_atomic_from`] has not run for this
    /// extraction.
    pub(crate) fn flags(&self) -> &AtomicFlags {
        self.flags.as_ref().expect("workspace flags not prepared")
    }

    /// Resets and sizes the plain per-vertex scratch (`ids_a`, `marks`,
    /// `lists`, queues) for a graph with `n` vertices. `ids_a` is filled
    /// with [`NO_VERTEX`], marks with `false`, and every list is cleared
    /// while keeping its capacity.
    pub(crate) fn prepare_plain(&mut self, n: usize) {
        if self.ids_a.capacity() < n || self.marks.capacity() < n {
            self.allocations += 1;
        }
        self.ids_a.clear();
        self.ids_a.resize(n, NO_VERTEX);
        self.marks.clear();
        self.marks.resize(n, false);
        if self.lists.len() < n {
            self.allocations += 1;
            self.lists.resize_with(n, Vec::new);
        }
        for list in &mut self.lists[..n] {
            list.clear();
        }
        self.queue_a.clear();
        self.queue_b.clear();
    }

    /// Resets and sizes the bucket queue for cardinalities `0..=n`.
    pub(crate) fn prepare_buckets(&mut self, n: usize) {
        let wanted = n.max(1) + 1;
        if self.buckets.len() < wanted {
            self.allocations += 1;
            self.buckets.resize_with(wanted, Vec::new);
        }
        for bucket in &mut self.buckets[..wanted] {
            bucket.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_workspace_has_no_allocations() {
        let ws = Workspace::new();
        assert_eq!(ws.allocations(), 0);
        assert_eq!(ws.allocated_bytes(), 0);
    }

    #[test]
    fn allocated_bytes_tracks_growth_and_stays_flat_on_reuse() {
        let mut ws = Workspace::new();
        ws.prepare_atomic(64, 256, &vec![0usize; 65], false);
        ws.prepare_plain(64);
        let bytes = ws.allocated_bytes();
        // At minimum the per-vertex atomic arrays (heads, links, cursors,
        // lengths), the arena and the offsets copy.
        assert!(bytes >= 64 * 4 * 4 + 256 * 4 + 65 * 8, "bytes {bytes}");
        ws.prepare_atomic(64, 256, &vec![0usize; 65], false);
        ws.prepare_plain(64);
        assert_eq!(ws.allocated_bytes(), bytes, "same shape must stay flat");
        ws.prepare_atomic(64, 256, &vec![0usize; 65], true);
        assert!(
            ws.allocated_bytes() >= bytes + 64 * 4,
            "the second head array must be counted"
        );
        ws.prepare_atomic(128, 512, &vec![0usize; 129], false);
        assert!(ws.allocated_bytes() > bytes, "growth must be visible");
    }

    #[test]
    fn prepare_atomic_grows_once_per_shape() {
        let mut ws = Workspace::new();
        let offsets = vec![0usize, 2, 4];
        ws.prepare_atomic(2, 4, &offsets, true);
        let first = ws.allocations();
        assert!(first > 0);
        ws.prepare_atomic(2, 4, &offsets, true);
        ws.prepare_atomic(2, 4, &offsets, false);
        assert_eq!(ws.allocations(), first, "same shape must not reallocate");
        ws.prepare_atomic(3, 8, &[0, 2, 4, 8], false);
        assert!(ws.allocations() > first, "growth must be counted");
    }

    #[test]
    fn prepare_atomic_resets_state() {
        let mut ws = Workspace::new();
        ws.prepare_atomic(2, 2, &[0, 1, 2], true);
        ws.heads.push(&ws.links, 0, 1);
        ws.next_heads.push(&ws.links, 1, 0);
        ws.cursor[0].store(7, Ordering::Relaxed);
        ws.clen[1].store(9, Ordering::Relaxed);
        ws.flags().test_and_set(1);
        ws.prepare_atomic(2, 2, &[0, 1, 2], true);
        assert_eq!(ws.heads.take(&ws.links, 0).count(), 0);
        assert_eq!(ws.next_heads.take(&ws.links, 1).count(), 0);
        assert_eq!(ws.cursor[0].load(Ordering::Relaxed), 0);
        assert_eq!(ws.clen[1].load(Ordering::Relaxed), 0);
        assert!(ws.flags().test_and_set(1), "flags must have been cleared");
    }

    #[test]
    fn allocations_count_child_workspaces() {
        let mut ws = Workspace::new();
        ws.sub_pool(2);
        let pooled = ws.allocations();
        assert_eq!(pooled, 1, "growing the pool is one event");
        ws.sub_pool(2)[1].prepare_plain(8);
        assert!(
            ws.allocations() > pooled,
            "a child's growth must be counted"
        );
        let grown = ws.allocations();
        ws.sub_pool(2)[1].prepare_plain(8);
        assert_eq!(ws.allocations(), grown, "same shape must stay flat");
    }

    #[test]
    fn prepare_plain_clears_but_keeps_capacity() {
        let mut ws = Workspace::new();
        ws.prepare_plain(4);
        ws.lists[2].extend([1, 2, 3]);
        let cap = ws.lists[2].capacity();
        let allocs = ws.allocations();
        ws.prepare_plain(4);
        assert!(ws.lists[2].is_empty());
        assert_eq!(ws.lists[2].capacity(), cap);
        assert_eq!(ws.allocations(), allocs);
    }
}
