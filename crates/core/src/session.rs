//! Reusable extraction sessions: one [`ExtractorConfig`] plus one owned
//! [`Workspace`], amortising allocations across runs — and a batch mode
//! that places whole graphs across the configured engine.
//!
//! # Single-graph traffic
//!
//! ```
//! use chordal_core::prelude::*;
//! use chordal_graph::builder::graph_from_edges;
//!
//! let graph = graph_from_edges(5, vec![(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (3, 4)]);
//! let mut session = ExtractionSession::new(ExtractorConfig::serial(AdjacencyMode::Sorted));
//!
//! let first = session.extract(&graph);
//! let allocations = session.workspace().allocations();
//!
//! // The second extraction reuses every buffer the first one grew.
//! let second = session.extract(&graph);
//! assert_eq!(first.edges(), second.edges());
//! assert_eq!(session.workspace().allocations(), allocations);
//! ```
//!
//! # Batch traffic
//!
//! [`ExtractionSession::extract_batch`] fans the graphs of a batch out: at
//! most `threads` participants take them from one shared cursor, longest
//! first by canonical edge count ([`GraphRef::num_canonical_edges`]; ties
//! keep input order), and extract each with the serial variant of the
//! configured algorithm into the participant's own child workspace of the
//! session workspace. Participant `p` always starts with the `p`-th longest
//! graph and every graph it takes later is no longer, so its workspace is
//! sized by the first batch and a repeated batch stops allocating (unless a
//! shorter graph has more vertices); [`Workspace::allocations`] counts the
//! children. A serial engine or a single graph has nothing to fan out to:
//! the graphs run back to back through [`ExtractionSession::extract`].
//!
//! No graph of a batch runs with intra-graph parallelism, because on the
//! measured batch it loses. The `scheduler` experiment
//! (`BENCH_scheduler.json`) times one mixed batch, 48 RMAT-G(7) graphs and
//! three RMAT-B(12) graphs, on two threads of a 2-vCPU host, best of 11, in
//! six runs: a loop of intra-graph `extract` calls (51 pool regions per
//! batch against 1) took 1.57–2.24 ms and lost to the fastest policy in
//! every run and to `extract_batch` (0.78–1.58 ms) in five of the six; an
//! input-order fan-out of serial sessions took 0.83–1.52 ms and beat
//! `extract_batch` in two. On that host the best of 11 moves by up to 2x
//! between runs, so the runs show a ranking, not a ratio.
//!
//! Fanning out only moves *where* a graph runs: each slot equals a single
//! run of the same graph. All parallel regions execute on the process-wide
//! persistent worker pool, so batches never spawn threads.

use crate::config::ExtractorConfig;
use crate::extractor::Algorithm;
use crate::result::ChordalResult;
use crate::workspace::Workspace;
use chordal_graph::GraphRef;
use chordal_runtime::{pool_size, Engine};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Scheduler counters of a session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerFeedback {
    /// Fan-out graphs moved to intra-graph runs during a batch. Always 0:
    /// a batch never runs a graph intra-graph.
    pub rebalanced: u64,
}

/// The order in which [`ExtractionSession::extract_batch`] fans out a
/// batch whose graphs have `edges` canonical edges each on an engine with
/// `threads` workers: graph indices, longest first (ties keep input order).
/// `None` means the batch runs sequentially through
/// [`ExtractionSession::extract`]: one thread has nothing to fan out to,
/// and one graph is its own critical path.
fn plan_batch(edges: &[usize], threads: usize) -> Option<Vec<usize>> {
    if threads <= 1 || edges.len() <= 1 {
        return None;
    }
    let mut order: Vec<usize> = (0..edges.len()).collect();
    // A stable sort, so ties keep input order.
    order.sort_by_key(|&i| std::cmp::Reverse(edges[i]));
    Some(order)
}

/// An extraction configuration paired with a reusable [`Workspace`].
pub struct ExtractionSession {
    config: ExtractorConfig,
    workspace: Workspace,
    /// Participants the most recent batch fanned out over (0 if none).
    participants: usize,
}

impl ExtractionSession {
    /// Builds the session for `config`, with an empty workspace.
    pub fn new(config: ExtractorConfig) -> Self {
        Self {
            config,
            workspace: Workspace::new(),
            participants: 0,
        }
    }

    /// Convenience constructor: the given algorithm with default settings.
    pub fn with_algorithm(algorithm: Algorithm) -> Self {
        Self::new(ExtractorConfig::default().with_algorithm(algorithm))
    }

    /// The session's configuration.
    pub fn config(&self) -> &ExtractorConfig {
        &self.config
    }

    /// The algorithm this session runs.
    pub fn algorithm(&self) -> Algorithm {
        self.config.algorithm
    }

    /// The registry name of the session's extraction
    /// ([`ExtractorConfig::name`]).
    pub fn extractor_name(&self) -> &'static str {
        self.config.name()
    }

    /// Read access to the owned workspace (its
    /// [`allocations`](Workspace::allocations) counter is how tests observe
    /// buffer reuse).
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// Extracts from one graph — heap-resident or mmap-backed, anything
    /// viewable as a [`GraphRef`] — reusing the session workspace.
    pub fn extract<'a>(&mut self, graph: impl Into<GraphRef<'a>>) -> ChordalResult {
        self.config.extract_into(graph.into(), &mut self.workspace)
    }

    /// The session's scheduler counters.
    pub fn scheduler_feedback(&self) -> SchedulerFeedback {
        SchedulerFeedback::default()
    }

    /// Fewest canonical edges with which a graph of the most recent batch
    /// ran intra-graph: always `usize::MAX`, because
    /// [`ExtractionSession::extract_batch`] either fans every graph out or
    /// runs the batch sequentially. Kept because the benchmark reads it for
    /// `session.intra_graphs`.
    pub fn effective_batch_threshold(&self) -> usize {
        usize::MAX
    }

    /// Participants the most recent [`ExtractionSession::extract_batch`]
    /// fanned its graphs out over: at most the engine's threads, the
    /// batch's graphs and the pool's threads. 0 before the first batch and
    /// after a batch that ran sequentially.
    pub fn batch_participants(&self) -> usize {
        self.participants
    }

    /// Extracts from every graph of a batch; results come back in input
    /// order.
    ///
    /// With a serial engine, or a single graph, the graphs run back to back
    /// through [`ExtractionSession::extract`]. Otherwise they fan out
    /// longest first over at most `threads` participants (see the module
    /// docs).
    ///
    /// Results are slot-identical to single-graph runs of the same
    /// configuration: no registered algorithm's output depends on the
    /// schedule, and a fan-out resolves the partitioned baseline's
    /// partition count against the configured engine. The batch may mix
    /// storage representations — anything convertible to [`GraphRef`]
    /// (`&CsrGraph`, `&MmapCsrGraph`, or `GraphRef` itself) schedules the
    /// same way.
    pub fn extract_batch<'a, G>(&mut self, graphs: &[G]) -> Vec<ChordalResult>
    where
        G: Into<GraphRef<'a>> + Copy,
    {
        let views: Vec<GraphRef<'a>> = graphs.iter().map(|&g| g.into()).collect();
        let edges: Vec<usize> = views.iter().map(|g| g.num_canonical_edges()).collect();
        let Some(order) = plan_batch(&edges, self.config.engine.threads()) else {
            self.participants = 0;
            return views.iter().map(|&g| self.extract(g)).collect();
        };
        let slots: Vec<OnceLock<ChordalResult>> = views.iter().map(|_| OnceLock::new()).collect();
        self.fan_out(&views, &order, &slots);
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every batch slot is written"))
            .collect()
    }

    /// Extracts `views[i]` for every `i` of `queue` (longest first) into
    /// `slots[i]`, over at most `threads` participants with one child
    /// workspace each.
    fn fan_out(
        &mut self,
        views: &[GraphRef<'_>],
        queue: &[usize],
        slots: &[OnceLock<ChordalResult>],
    ) {
        // The fan-out is the batch's one pool region: each participant runs
        // its graphs on the serial engine, so no extraction submits a
        // region of its own (`tests/engine_bounds.rs` counts them). Pin the
        // partition count first: "one partition per engine worker"
        // resolves against the configured engine, not the serial one.
        let serial = self
            .config
            .clone()
            .with_partitions(self.config.effective_partitions())
            .with_engine(Engine::serial());
        // More participants than the pool runs at once would only start
        // their first (long) graph after the others drained the queue.
        let participants = self
            .config
            .engine
            .threads()
            .min(queue.len())
            .min(pool_size());
        self.participants = participants;
        // Participant `p` starts with `queue[p]`; the cursor hands out the
        // rest. Every seat is an item of its own (grain 1).
        let cursor = AtomicUsize::new(participants);
        let seats = self.workspace.sub_pool(participants);
        self.config
            .engine
            .with_grain(1)
            .for_each_mut(seats, |first, workspace| {
                let mut next = first;
                while let Some(&i) = queue.get(next) {
                    slots[i]
                        .set(serial.extract_into(views[i], workspace))
                        .expect("each batch slot is written once");
                    next = cursor.fetch_add(1, Ordering::SeqCst);
                }
            });
    }
}

impl std::fmt::Debug for ExtractionSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtractionSession")
            .field("algorithm", &self.config.algorithm)
            .field("engine", &self.config.engine)
            .field("workspace_allocations", &self.workspace.allocations())
            .field("batch_participants", &self.participants)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdjacencyMode;
    use chordal_generators::{rmat::RmatKind, rmat::RmatParams, structured};
    use chordal_graph::CsrGraph;

    #[test]
    fn session_reuse_keeps_results_identical_and_allocations_flat() {
        let g = RmatParams::preset(RmatKind::G, 8, 1).generate();
        let mut session = ExtractionSession::new(ExtractorConfig::serial(AdjacencyMode::Sorted));
        let first = session.extract(&g);
        let allocations = session.workspace().allocations();
        for _ in 0..3 {
            let again = session.extract(&g);
            assert_eq!(again.edges(), first.edges());
        }
        assert_eq!(session.workspace().allocations(), allocations);
    }

    #[test]
    fn session_dispatches_every_algorithm() {
        let g = structured::grid(5, 5);
        for algorithm in Algorithm::ALL {
            let mut session = ExtractionSession::new(
                ExtractorConfig::serial(AdjacencyMode::Sorted).with_algorithm(algorithm),
            );
            assert_eq!(session.algorithm(), algorithm);
            assert_eq!(session.extractor_name(), algorithm.name());
            let result = session.extract(&g);
            assert!(result.num_chordal_edges() > 0, "{algorithm}");
        }
    }

    /// Participants a batch of `graphs` fans out over on `threads`.
    fn participants(threads: usize, graphs: usize) -> usize {
        threads.min(graphs).min(pool_size())
    }

    #[test]
    fn placement_fans_equal_sizes_out_longest_first() {
        assert_eq!(plan_batch(&[10, 10, 10, 10], 2), Some(vec![0, 1, 2, 3]));
        assert_eq!(plan_batch(&[3, 9, 5, 7, 1], 2), Some(vec![1, 3, 2, 0, 4]));
    }

    #[test]
    fn placement_fans_out_a_dominant_graph_first() {
        // A graph above an even share of the batch still fans out, ahead of
        // the rest.
        assert_eq!(plan_batch(&[10, 100, 10, 10], 2), Some(vec![1, 0, 2, 3]));
        // Two near-equal graphs on two threads, and fewer graphs than
        // threads: running one intra-graph would serialise the batch.
        assert_eq!(plan_batch(&[3658, 3656], 2), Some(vec![0, 1]));
        assert_eq!(plan_batch(&[40, 50], 3), Some(vec![1, 0]));
    }

    #[test]
    fn placement_ties_keep_input_order() {
        assert_eq!(plan_batch(&[4, 8, 4, 8, 4], 3), Some(vec![1, 3, 0, 2, 4]));
    }

    #[test]
    fn placement_is_sequential_on_one_thread_or_one_graph() {
        assert_eq!(plan_batch(&[100, 1, 1], 1), None);
        assert_eq!(plan_batch(&[100, 1, 1], 0), None);
        assert_eq!(plan_batch(&[100], 4), None);
        assert_eq!(plan_batch(&[], 4), None);
    }

    #[test]
    fn batch_results_match_single_runs_in_order() {
        let graphs: Vec<CsrGraph> = (0..6)
            .map(|seed| RmatParams::preset(RmatKind::Er, 7, seed).generate())
            .collect();
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        // The output does not depend on the engine, so serial and
        // fanned-out batches must agree exactly.
        let config = ExtractorConfig::default().with_engine(chordal_runtime::Engine::chunked(3));
        let mut parallel_session = ExtractionSession::new(config.clone());
        let batch = parallel_session.extract_batch(&refs);
        assert_eq!(batch.len(), graphs.len());
        assert_eq!(parallel_session.batch_participants(), participants(3, 6));
        let mut serial_session =
            ExtractionSession::new(config.with_engine(chordal_runtime::Engine::serial()));
        for (graph, from_batch) in graphs.iter().zip(&batch) {
            let single = serial_session.extract(graph);
            assert_eq!(single.edges(), from_batch.edges());
        }
    }

    #[test]
    fn batch_on_serial_engine_reuses_the_session_workspace() {
        let graphs: Vec<CsrGraph> = (0..4).map(|_| structured::grid(6, 6)).collect();
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        let mut session = ExtractionSession::new(ExtractorConfig::serial(AdjacencyMode::Sorted));
        let first = session.extract_batch(&refs);
        let allocations = session.workspace().allocations();
        let second = session.extract_batch(&refs);
        assert_eq!(session.workspace().allocations(), allocations);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.edges(), b.edges());
        }
        // A serial engine runs the batch sequentially.
        assert_eq!(session.batch_participants(), 0);
    }

    #[test]
    fn empty_batch_is_empty() {
        let mut session = ExtractionSession::with_algorithm(Algorithm::Dearing);
        assert!(session.extract_batch::<&CsrGraph>(&[]).is_empty());
    }

    #[test]
    fn dominant_graph_fans_out_and_matches_single_runs() {
        // One dominant scale-10 graph plus small scale-6 ones: the large
        // graph holds more than a third of the edges, and still fans out
        // with the rest on three threads.
        let mut graphs = vec![RmatParams::preset(RmatKind::Er, 10, 0).generate()];
        graphs.extend((0..5).map(|seed| RmatParams::preset(RmatKind::G, 6, seed).generate()));
        let total: usize = graphs.iter().map(CsrGraph::num_canonical_edges).sum();
        assert!(graphs[0].num_canonical_edges() > total / 3);
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        let config = ExtractorConfig::default().with_engine(chordal_runtime::Engine::chunked(3));
        let mut session = ExtractionSession::new(config.clone());
        let batch = session.extract_batch(&refs);
        assert_eq!(session.batch_participants(), participants(3, graphs.len()));
        let mut single =
            ExtractionSession::new(config.with_engine(chordal_runtime::Engine::serial()));
        for (graph, from_batch) in graphs.iter().zip(&batch) {
            assert_eq!(single.extract(graph).edges(), from_batch.edges());
        }
    }

    #[test]
    fn single_graph_and_fanned_out_batches_match_single_runs() {
        let graphs: Vec<CsrGraph> = (0..4)
            .map(|seed| RmatParams::preset(RmatKind::Er, 7, seed).generate())
            .collect();
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        let config = ExtractorConfig::default().with_engine(chordal_runtime::Engine::chunked(3));
        let mut session = ExtractionSession::new(config.clone());
        let fanned = session.extract_batch(&refs);
        assert_eq!(session.batch_participants(), participants(3, 4));
        // A single-graph batch runs on the configured engine.
        let mut alone = Vec::new();
        for graph in refs.chunks(1) {
            alone.extend(session.extract_batch(graph));
            assert_eq!(session.batch_participants(), 0);
        }
        // The output is schedule-independent: both placements equal single
        // serial runs slot for slot.
        let mut single =
            ExtractionSession::new(config.with_engine(chordal_runtime::Engine::serial()));
        for ((graph, a), b) in graphs.iter().zip(&fanned).zip(&alone) {
            let expected = single.extract(graph);
            assert_eq!(a.edges(), expected.edges());
            assert_eq!(b.edges(), expected.edges());
        }
    }

    #[test]
    fn intra_graph_path_reuses_the_session_workspace() {
        // A single-graph batch on a parallel engine runs intra-graph
        // through the session workspace, so a second identical batch must
        // not allocate.
        let graph = structured::grid(8, 8);
        let mut session = ExtractionSession::new(
            ExtractorConfig::default().with_engine(chordal_runtime::Engine::chunked(3)),
        );
        let first = session.extract_batch(&[&graph]);
        assert_eq!(session.batch_participants(), 0);
        let allocations = session.workspace().allocations();
        let second = session.extract_batch(&[&graph]);
        assert_eq!(session.workspace().allocations(), allocations);
        assert_eq!(first[0].num_vertices(), second[0].num_vertices());
    }

    #[test]
    fn repeated_mixed_batch_keeps_allocations_flat_and_a_larger_graph_grows_them() {
        let mut graphs: Vec<CsrGraph> = (0..3)
            .flat_map(|seed| {
                [
                    RmatParams::preset(RmatKind::Er, 8, seed).generate(),
                    RmatParams::preset(RmatKind::G, 6, seed).generate(),
                ]
            })
            .collect();
        let mut session = ExtractionSession::new(
            ExtractorConfig::default().with_engine(chordal_runtime::Engine::chunked(2)),
        );
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        session.extract_batch(&refs);
        let allocations = session.workspace().allocations();
        assert!(allocations > 0);
        for _ in 0..3 {
            session.extract_batch(&refs);
            assert_eq!(session.workspace().allocations(), allocations);
        }
        graphs.push(RmatParams::preset(RmatKind::Er, 9, 7).generate());
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        session.extract_batch(&refs);
        assert!(session.workspace().allocations() > allocations);
    }

    #[test]
    fn batch_participants_report_the_last_batch() {
        let graphs: Vec<CsrGraph> = (0..3).map(|n| structured::grid(4 + n, 4 + n)).collect();
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        let mut session = ExtractionSession::new(
            ExtractorConfig::default().with_engine(chordal_runtime::Engine::chunked(2)),
        );
        assert_eq!(session.batch_participants(), 0);
        session.extract_batch(&refs);
        assert_eq!(session.batch_participants(), participants(2, 3));
        session.extract_batch(&refs[..1]);
        assert_eq!(
            session.batch_participants(),
            0,
            "one graph runs sequentially"
        );
        // No batch ever runs a graph intra-graph or moves one there.
        assert_eq!(session.effective_batch_threshold(), usize::MAX);
        assert_eq!(session.scheduler_feedback().rebalanced, 0);
    }

    #[test]
    fn batch_works_for_serial_algorithms_on_parallel_engines() {
        let graphs: Vec<CsrGraph> = (0..5)
            .map(|seed| RmatParams::preset(RmatKind::B, 6, seed).generate())
            .collect();
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        let mut session = ExtractionSession::new(
            ExtractorConfig::default()
                .with_algorithm(Algorithm::Dearing)
                .with_engine(chordal_runtime::Engine::chunked(4)),
        );
        let batch = session.extract_batch(&refs);
        for (graph, result) in graphs.iter().zip(&batch) {
            assert_eq!(
                result.edges(),
                crate::dearing::extract_dearing(graph).edges()
            );
        }
    }
}
