//! # maximal-chordal
//!
//! A multithreaded toolkit for extracting **maximal chordal subgraphs** from
//! large sparse graphs — a Rust reproduction of *"A Novel Multithreaded
//! Algorithm for Extracting Maximal Chordal Subgraphs"* (Halappanavar, Feo,
//! Dempsey, Ali, Bhowmick; ICPP 2012).
//!
//! This facade crate re-exports the workspace crates so applications can
//! depend on a single package:
//!
//! * [`graph`] — CSR graph substrate (construction, traversal, statistics).
//! * [`generators`] — R-MAT, Erdős–Rényi, structured graphs and synthetic
//!   gene-correlation networks.
//! * [`runtime`] — the execution engine: a thread count and a grain for
//!   dynamic self-scheduling on the persistent worker pool (one thread is
//!   the serial engine).
//! * [`core`] — the extraction algorithms of the [`Algorithm`] registry
//!   (the paper's Algorithm 1, the sequential reference, the Dearing serial
//!   baseline, the partitioned baseline) behind one dispatch,
//!   [`ExtractorConfig::extract_into`], the reusable [`ExtractionSession`]
//!   API, verification and component stitching.
//! * [`analysis`] — clustering coefficients, shortest-path distributions
//!   and assortativity.
//! * [`serve`] — the resident extraction service behind `chordal serve`:
//!   TCP protocol, content-hash graph cache, admission control.
//!
//! ## Quick start
//!
//! One-off extraction:
//!
//! ```
//! use maximal_chordal::prelude::*;
//!
//! // Generate a small scale-free graph (R-MAT "B" preset, 2^9 vertices).
//! let graph = RmatParams::preset(RmatKind::B, 9, 42).generate();
//!
//! // Extract a maximal chordal subgraph with the default configuration
//! // (Algorithm 1 on the pool engine over all cores, sorted adjacency).
//! let result = extract_maximal_chordal(&graph);
//!
//! // The extracted edge set always induces a chordal subgraph.
//! assert!(is_chordal(&result.subgraph(&graph)));
//! assert!(result.num_chordal_edges() <= graph.num_edges());
//! ```
//!
//! ## Serving repeated traffic
//!
//! An [`ExtractionSession`] owns a reusable [`core::Workspace`], so back-to-
//! back extractions stop paying per-run allocation — and
//! [`ExtractionSession::extract_batch`] extracts a whole slice of graphs in
//! one call:
//!
//! ```
//! use maximal_chordal::prelude::*;
//!
//! let graphs: Vec<_> = (0..4)
//!     .map(|seed| RmatParams::preset(RmatKind::G, 7, seed).generate())
//!     .collect();
//!
//! let mut session = ExtractionSession::new(ExtractorConfig::serial(AdjacencyMode::Sorted));
//! let first = session.extract(&graphs[0]);
//! let allocations = session.workspace().allocations();
//! let again = session.extract(&graphs[0]);
//! assert_eq!(first.edges(), again.edges());
//! assert_eq!(session.workspace().allocations(), allocations); // buffers reused
//!
//! let refs: Vec<&_> = graphs.iter().collect();
//! let results = session.extract_batch(&refs);
//! assert_eq!(results.len(), graphs.len());
//! ```
//!
//! ## Batch scheduling
//!
//! On a parallel engine, `extract_batch` fans the graphs of a batch out: at
//! most `threads` participants take them longest first and extract each
//! serially into their own reusable workspace. No graph of a batch runs
//! with intra-graph parallelism (the paper's Algorithm 1 scaling regime,
//! which `extract` runs on one graph): on the measured mixed batch it lost
//! to `extract_batch` in five of six runs, 1.57–2.24 ms against 0.78–1.58
//! ms (the `chordal_core::session` docs give the numbers). Every parallel
//! region executes on the process-wide persistent worker pool (sized by
//! `CHORDAL_POOL_THREADS`, default all logical CPUs), so batches never
//! spawn threads:
//!
//! ```
//! use maximal_chordal::prelude::*;
//!
//! // One dominant graph plus small ones: the scale-11 graph holds more
//! // than a quarter of the batch's edges, and on four threads it fans out
//! // first, ahead of the scale-7 graphs.
//! let mut graphs = vec![RmatParams::preset(RmatKind::G, 11, 0).generate()];
//! graphs.extend((1..6).map(|seed| RmatParams::preset(RmatKind::G, 7, seed).generate()));
//! let refs: Vec<&_> = graphs.iter().collect();
//!
//! let mut session = ExtractionSession::new(ExtractorConfig::default().with_engine(Engine::chunked(4)));
//! let results = session.extract_batch(&refs);
//! assert_eq!(results.len(), graphs.len());
//! assert!(session.batch_participants() >= 1);
//! ```
//!
//! ## The algorithm registry
//!
//! Every algorithm is reachable through [`Algorithm`] and one
//! [`ExtractorConfig`], whose [`ExtractorConfig::extract`] runs it — the
//! CLI, serve, benches and experiments all dispatch this way:
//!
//! ```
//! use maximal_chordal::prelude::*;
//!
//! let graph = graph_from_edges(4, vec![(0, 1), (1, 2), (2, 3), (0, 3)]);
//! for algorithm in Algorithm::ALL {
//!     let config = ExtractorConfig::serial(AdjacencyMode::Sorted).with_algorithm(algorithm);
//!     let result = config.extract(&graph);
//!     assert_eq!(result.num_vertices(), 4, "{algorithm}");
//! }
//! ```

#![deny(missing_docs)]

pub use chordal_analysis as analysis;
pub use chordal_core as core;
pub use chordal_generators as generators;
pub use chordal_graph as graph;
pub use chordal_runtime as runtime;
pub use chordal_serve as serve;

pub use chordal_core::{
    extract_maximal_chordal, extract_maximal_chordal_serial, AdjacencyMode, Algorithm,
    ChordalResult, ExtractError, ExtractionSession, ExtractorConfig,
};

/// The most commonly used items across the workspace, re-exported for
/// applications and examples. A result's share of the input's edges is
/// [`ChordalResult::chordal_fraction`]; Table I's statistics are
/// [`graph::GraphStats`].
pub mod prelude {
    pub use chordal_analysis::clustering::average_clustering;
    pub use chordal_analysis::degree_assortativity;
    pub use chordal_core::connect::{stitch_components, stitched_edge_set};
    pub use chordal_core::dearing::extract_dearing;
    pub use chordal_core::verify::{check_maximality, is_chordal};
    pub use chordal_core::{
        extract_maximal_chordal, extract_maximal_chordal_serial, AdjacencyMode, Algorithm,
        ChordalResult, ExtractError, ExtractionSession, ExtractorConfig,
    };
    pub use chordal_generators::bio::{CorrelationNetworkParams, GeneNetworkKind};
    pub use chordal_generators::rmat::{RmatKind, RmatParams};
    pub use chordal_graph::builder::graph_from_edges;
    pub use chordal_graph::{CsrGraph, GraphStats};
    pub use chordal_runtime::Engine;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let graph = graph_from_edges(4, vec![(0, 1), (1, 2), (2, 3), (0, 3)]);
        let result = extract_maximal_chordal_serial(&graph);
        assert_eq!(result.num_chordal_edges(), 3);
        assert!(is_chordal(&result.subgraph(&graph)));
        let stats = GraphStats::compute(&graph);
        assert_eq!(stats.edges, 4);
    }

    #[test]
    fn facade_exposes_the_session_api() {
        let graph = graph_from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]);
        let mut session = ExtractionSession::new(ExtractorConfig::serial(AdjacencyMode::Sorted));
        let a = session.extract(&graph);
        let b = session.extract(&graph);
        assert_eq!(a.edges(), b.edges());
        assert_eq!(session.algorithm(), Algorithm::Parallel);
    }
}
