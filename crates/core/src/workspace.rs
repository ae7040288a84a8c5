//! Reusable per-extraction scratch state.
//!
//! Every extraction needs per-vertex working buffers: the chordal-set arena
//! and published set lengths of the parallel extractor, the plain queues
//! and candidate sets of the serial algorithms, and the frozen snapshots of
//! the reference's bulk-synchronous iterations. Allocating them per run is
//! cheap for a one-off extraction but dominates short runs under repeated
//! traffic (benchmark loops, serving-style workloads, batch jobs). A
//! [`Workspace`] owns all of those buffers and is handed to
//! [`crate::ExtractorConfig::extract_into`], so consecutive extractions
//! over same-sized graphs reuse the previous run's allocations.
//!
//! The [`Workspace::allocations`] counter increments whenever a buffer has
//! to grow; a steady-state session over same-shaped graphs stops
//! incrementing after the first run, which the test-suite (and the quick
//! start doctests) assert.

use crate::repair::incremental::RepairScratch;
use chordal_graph::{GraphRef, VertexId, NO_VERTEX};
use chordal_runtime::Published;
use std::sync::atomic::{AtomicU32, AtomicUsize};

/// Owned, reusable scratch buffers for one extraction at a time.
///
/// A workspace is not tied to a graph size: buffers grow on demand and are
/// retained between runs. See [`crate::ExtractionSession`] for the
/// convenience wrapper that pairs a workspace with an extraction config.
#[derive(Debug, Default)]
pub struct Workspace {
    // --- shared state of the parallel extractor -----------------------------
    /// Published chordal-set length per vertex.
    pub(crate) clen: Published,
    /// Chordal-neighbour arena, one slot per directed edge. Each piece of
    /// the pass packs its sets from the graph's offset of its first vertex.
    pub(crate) cdata: Vec<AtomicU32>,
    /// Per-vertex start of its set in `cdata`, stored before the set's
    /// length is published; once the pass has finished, the bucket starts
    /// of the counting sort of the result edges by parent (one more entry
    /// than vertices).
    pub(crate) starts: Vec<AtomicUsize>,
    // --- plain scratch shared by the serial algorithms and snapshots -------
    /// u32-per-vertex scratch A (the reference extractor's lowest parents).
    pub(crate) ids_a: Vec<VertexId>,
    /// u32-per-vertex scratch B (the reference's frozen chordal-set
    /// lengths).
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
        self.clen.allocated_bytes()
            + vec_bytes(self.cdata.capacity(), size_of::<AtomicU32>())
            + vec_bytes(self.starts.capacity(), size_of::<AtomicUsize>())
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
    /// graph with `directed_edges` directed CSR slots, plus the incremental
    /// maintainer's state for `vertices` vertices. Growth is counted in
    /// [`Workspace::allocations`], so repeated repairs over same-shaped
    /// graphs keep the counter flat.
    pub(crate) fn prepare_repair(
        &mut self,
        directed_edges: usize,
        vertices: usize,
    ) -> &mut RepairScratch {
        if self.repair.marks.prepare(directed_edges) {
            self.allocations += 1;
        }
        if self.repair.incr.prepare(vertices) {
            self.allocations += 1;
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

    /// Sizes the parallel extractor's shared state for `graph` and resets
    /// every published set length to
    /// [`chordal_runtime::publish::UNPUBLISHED`]. The arena and the start
    /// slots are left untouched: every vertex stores its start before it
    /// publishes its length, and a set's live entries are defined by both.
    /// Nothing is copied from the graph: the pass reads its offsets and
    /// adjacency in place ([`GraphRef::offsets`]).
    pub(crate) fn prepare_pull(&mut self, graph: GraphRef<'_>) {
        let n = graph.num_vertices();
        let directed_edges = graph.num_directed_edges();
        let mut grew = self.clen.reset(n);
        if self.starts.len() <= n {
            grew = true;
            self.starts.resize_with(n + 1, || AtomicUsize::new(0));
        }
        if self.cdata.len() < directed_edges {
            grew = true;
            self.cdata.resize_with(directed_edges, || AtomicU32::new(0));
        }
        if grew {
            self.allocations += 1;
        }
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
    use chordal_runtime::publish::UNPUBLISHED;

    #[test]
    fn fresh_workspace_has_no_allocations() {
        let ws = Workspace::new();
        assert_eq!(ws.allocations(), 0);
        assert_eq!(ws.allocated_bytes(), 0);
    }

    fn star(leaves: u32) -> chordal_graph::CsrGraph {
        chordal_graph::builder::graph_from_edges(
            leaves as usize + 1,
            (1..=leaves).map(|v| (0, v)).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn allocated_bytes_tracks_growth_and_stays_flat_on_reuse() {
        let mut ws = Workspace::new();
        let small = star(63);
        ws.prepare_pull((&small).into());
        ws.prepare_plain(64);
        let bytes = ws.allocated_bytes();
        // At minimum the published lengths and the arena.
        assert!(bytes >= 64 * 4 + 126 * 4, "bytes {bytes}");
        ws.prepare_pull((&small).into());
        ws.prepare_plain(64);
        assert_eq!(ws.allocated_bytes(), bytes, "same shape must stay flat");
        ws.prepare_pull((&star(127)).into());
        assert!(ws.allocated_bytes() > bytes, "growth must be visible");
    }

    #[test]
    fn prepare_pull_grows_once_per_shape() {
        let mut ws = Workspace::new();
        let graph = star(2);
        ws.prepare_pull((&graph).into());
        let first = ws.allocations();
        assert!(first > 0);
        ws.prepare_pull((&graph).into());
        assert_eq!(ws.allocations(), first, "same shape must not reallocate");
        ws.prepare_pull((&star(5)).into());
        assert!(ws.allocations() > first, "growth must be counted");
    }

    #[test]
    fn prepare_pull_resets_the_published_lengths() {
        let mut ws = Workspace::new();
        let graph = star(2);
        ws.prepare_pull((&graph).into());
        ws.clen.publish(1, 9);
        ws.prepare_pull((&graph).into());
        assert_eq!(
            (0..3).map(|v| ws.clen.get_mut(v)).collect::<Vec<_>>(),
            [UNPUBLISHED; 3]
        );
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
