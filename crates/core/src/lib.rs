//! Maximal chordal subgraph extraction.
//!
//! This crate implements the contribution of *"A Novel Multithreaded
//! Algorithm for Extracting Maximal Chordal Subgraphs"* (Halappanavar, Feo,
//! Dempsey, Ali, Bhowmick — ICPP 2012) together with the baselines it is
//! evaluated against and the verification machinery needed to test it.
//!
//! # Architecture
//!
//! The algorithms form the closed [`Algorithm`] registry. One
//! [`ExtractorConfig`] names an algorithm and how to run it, and
//! [`ExtractorConfig::extract_into`] is the one dispatch: a single `match`
//! over [`Algorithm`] that calls the algorithm's module, then the repair
//! post-pass when it is configured. Per-run scratch state lives in a
//! reusable [`Workspace`], and [`ExtractionSession`] pairs a config with a
//! workspace for repeated traffic:
//!
//! * [`Algorithm::Parallel`] → [`parallel`] — the paper's Algorithm 1: a
//!   fine-grained multithreaded extraction in which every vertex walks its
//!   *parents* (smaller-id neighbours) in ascending order and keeps a
//!   growing set of *chordal neighbors*, as one ascending pass: a plain
//!   loop on one thread, a doacross on the pool, with one output on every
//!   engine. The sets live in 4,096-entry blocks created on first claim
//!   and kept in the [`Workspace`], so the pass's memory follows the
//!   chordal edges |EC| rather than the graph's 2|E| adjacency entries.
//!   Both the paper's variants are available:
//!   **Opt** (sorted adjacency, the parents are a prefix) and **Unopt**
//!   (unsorted adjacency, scan-based parent walk), on any
//!   [`chordal_runtime::Engine`]. Its oracle is the serial
//!   [`reference::extract_pull_reference`].
//! * [`Algorithm::Reference`] → [`mod@reference`] — the bulk-synchronous
//!   reading of the pseudocode, sequential: iteration `t` tests every
//!   vertex against its `t`-th parent's set as it stood when the iteration
//!   began. Its per-iteration trace is the source of the
//!   `figure7` experiment's iteration counts.
//! * [`Algorithm::Dearing`] → [`dearing`] — the serial maximal chordal
//!   subgraph algorithm of Dearing, Shier and Warner (1988), the baseline
//!   the paper builds on.
//! * [`Algorithm::Partitioned`] → [`partitioned`] — the earlier
//!   distributed-memory "nearly chordal" approach (partition, solve
//!   locally, re-add border edges) that the paper discusses and rejects for
//!   multithreaded use; included for comparison.
//! * [`verify`] — chordality (MCS + perfect elimination ordering) and
//!   maximality checkers.
//! * [`kernels`] — the branch-light sorted-set primitives (adaptive
//!   merge/gallop intersection, subset, blocked-frontier separator search)
//!   the extractors, checkers and repair pass share.
//! * [`connect`] — the component-stitching post-pass described alongside
//!   Theorem 2.
//!
//! Configuration and front-end errors are reported as typed
//! [`ExtractError`] values with per-category process exit codes.
//!
//! # Quick start
//!
//! One-off extraction through the convenience wrapper:
//!
//! ```
//! use chordal_core::prelude::*;
//! use chordal_graph::builder::graph_from_edges;
//!
//! // A 4-cycle with one chord plus a pendant vertex.
//! let graph = graph_from_edges(5, vec![(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (3, 4)]);
//! let result = extract_maximal_chordal(&graph);
//! assert!(verify::is_chordal(&result.subgraph(&graph)));
//! assert_eq!(result.num_chordal_edges(), 6); // the whole graph is chordal
//! ```
//!
//! Repeated traffic through an [`ExtractionSession`], which reuses its
//! [`Workspace`] between runs (the allocation counter stays flat):
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
//! let second = session.extract(&graph);
//!
//! assert_eq!(first.edges(), second.edges());
//! assert_eq!(session.workspace().allocations(), allocations); // buffers reused
//! ```
//!
//! One dispatch over the whole registry:
//!
//! ```
//! use chordal_core::prelude::*;
//! use chordal_graph::builder::graph_from_edges;
//!
//! let graph = graph_from_edges(4, vec![(0, 1), (1, 2), (2, 3), (0, 3)]);
//! for algorithm in Algorithm::ALL {
//!     let config = ExtractorConfig::serial(AdjacencyMode::Sorted).with_algorithm(algorithm);
//!     assert_eq!(config.name(), algorithm.name());
//!     let result = config.extract(&graph);
//!     assert_eq!(result.num_vertices(), 4, "{algorithm}");
//! }
//! ```
//!
//! # Batch scheduling
//!
//! [`ExtractionSession::extract_batch`] fans a slice of graphs out: at most
//! `threads` serial participants, each owning a child workspace of the
//! session workspace, take the graphs longest first. No graph of a batch
//! runs with intra-graph parallelism: on every measured batch, serial runs
//! side by side beat intra-graph regions (see [`session`]'s module docs
//! for the measurement). All parallel regions execute on the process-wide
//! persistent worker pool (`CHORDAL_POOL_THREADS` controls its size), so
//! batch traffic never spawns threads.
//!
//! # Repair
//!
//! Adding [`ExtractorConfig::repair`] (CLI `--repair`) appends the
//! maximality repair post-pass, making `alg1 + repair` comparable against
//! the Dearing baseline end to end. The pass runs the incremental
//! chordality maintainer ([`repair::incremental`]: maintained chordal
//! subgraph + separator test per candidate, no per-candidate subgraph
//! rebuild) on input certified chordal; the from-scratch
//! [`repair::repair_maximality_reference`] is its test oracle and repairs
//! the input that fails certification (the partitioned baseline's).

#![deny(missing_docs)]

pub mod config;
pub mod connect;
pub mod dearing;
pub mod error;
pub mod extractor;
pub mod kernels;
pub mod parallel;
pub mod parent;
pub mod partitioned;
pub mod reference;
pub mod repair;
pub mod result;
pub mod session;
pub mod stats;
pub mod verify;
pub mod workspace;

pub use config::{AdjacencyMode, ExtractorConfig};
pub use error::ExtractError;
pub use extractor::Algorithm;
pub use parallel::DoacrossCounts;
pub use result::ChordalResult;
pub use session::{ExtractionSession, SchedulerFeedback};
pub use stats::IterationStats;
pub use workspace::Workspace;

/// Commonly used items.
pub mod prelude {
    pub use crate::config::{AdjacencyMode, ExtractorConfig};
    pub use crate::error::ExtractError;
    pub use crate::extract_maximal_chordal;
    pub use crate::extractor::Algorithm;
    pub use crate::result::ChordalResult;
    pub use crate::session::ExtractionSession;
    pub use crate::verify;
    pub use crate::workspace::Workspace;
    pub use chordal_runtime::Engine;
}

use chordal_graph::GraphRef;

/// Extracts a maximal chordal subgraph with the default configuration
/// (Algorithm 1, sorted adjacency, pool engine over all available cores).
/// Accepts anything viewable as a [`GraphRef`] — `&CsrGraph` or
/// `&MmapCsrGraph` alike.
///
/// This is a thin convenience wrapper over [`ExtractionSession`]; use a
/// session directly when extracting repeatedly, so the scratch buffers are
/// reused.
pub fn extract_maximal_chordal<'a>(graph: impl Into<GraphRef<'a>>) -> ChordalResult {
    ExtractionSession::new(ExtractorConfig::default()).extract(graph)
}

/// Extracts a maximal chordal subgraph serially (no worker threads); useful
/// for small graphs and for single-thread baselines.
pub fn extract_maximal_chordal_serial<'a>(graph: impl Into<GraphRef<'a>>) -> ChordalResult {
    let config = ExtractorConfig::default().with_engine(chordal_runtime::Engine::serial());
    ExtractionSession::new(config).extract(graph)
}
