//! Extraction configuration: algorithm, variant, iteration semantics and
//! execution engine.

use crate::error::ExtractError;
use crate::extractor::Algorithm;
use chordal_runtime::Engine;

/// How neighbour lists are traversed when searching for the next lowest
/// parent. Corresponds to the paper's two measured variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdjacencyMode {
    /// The paper's **Opt** variant: adjacency lists are sorted ascending, so
    /// the lower-numbered neighbours (the parents) form a prefix of the
    /// list and the next parent is the next entry.
    Sorted,
    /// The paper's **Unopt** variant: adjacency lists are in arbitrary
    /// (generator) order and every parent advance scans the whole list.
    Unsorted,
}

impl AdjacencyMode {
    /// Label used in benchmark output ("Opt" / "Unopt"), matching the paper's
    /// figure legends.
    pub fn label(self) -> &'static str {
        match self {
            AdjacencyMode::Sorted => "Opt",
            AdjacencyMode::Unsorted => "Unopt",
        }
    }

    /// Parses a variant name as accepted by front ends ("opt"/"unopt", with
    /// "sorted"/"unsorted" as aliases).
    pub fn parse(name: &str) -> Result<Self, ExtractError> {
        match name {
            "opt" | "sorted" => Ok(AdjacencyMode::Sorted),
            "unopt" | "unsorted" => Ok(AdjacencyMode::Unsorted),
            other => Err(ExtractError::UnknownVariant(other.to_string())),
        }
    }
}

/// Which chordal-neighbour sets a subset test sees.
///
/// Every hand-over of Algorithm 1 goes from a parent to a vertex with a
/// larger id, so the test of `w` against its parent `p` can wait until
/// `C[p]` is final. [`Semantics::Asynchronous`] does exactly that: one
/// ascending pass in which every test sees its parent's final set. It is
/// the default, it is deterministic on every engine, and it is the
/// paper's "each thread can asynchronously update" taken to its limit.
/// [`Semantics::Synchronous`] is the bulk-synchronous reading of the
/// pseudocode: it freezes the state at the start of every iteration and
/// advances every vertex by one parent per iteration, so it takes as many
/// iterations as the largest parent count (the `figure7` experiment
/// records both against the paper's ~3 and ~10). Both always produce a
/// chordal subgraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Semantics {
    /// Deterministic bulk-synchronous interpretation of Algorithm 1: subset
    /// tests inside iteration *t* observe the chordal-neighbour sets and
    /// lowest parents as they were at the *start* of iteration *t*. The
    /// result is identical for every engine, thread count and schedule (it
    /// equals [`crate::reference::extract_reference`]), which is what the
    /// cross-engine determinism tests rely on.
    Synchronous,
    /// Paper-faithful asynchronous interpretation ("each thread can
    /// asynchronously update a subset of edges"): one ascending pass in
    /// which every vertex tests its set against each parent's *final* set,
    /// so the whole extraction is one iteration. On the pool it is a
    /// doacross in which a vertex waits until its parent's set length is
    /// published (a release store paired with an acquire wait). Because
    /// every subset test sees its parent's final set, the output is
    /// deterministic: identical for every engine, thread count and
    /// schedule, and equal to
    /// [`crate::reference::extract_pull_reference`].
    Asynchronous,
}

impl Semantics {
    /// Short label for benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            Semantics::Synchronous => "sync",
            Semantics::Asynchronous => "async",
        }
    }

    /// Parses a semantics name as accepted by front ends.
    pub fn parse(name: &str) -> Result<Self, ExtractError> {
        match name {
            "async" | "asynchronous" => Ok(Semantics::Asynchronous),
            "sync" | "synchronous" => Ok(Semantics::Synchronous),
            other => Err(ExtractError::UnknownSemantics(other.to_string())),
        }
    }
}

/// Full configuration of an extraction: which [`Algorithm`] to run and how.
///
/// A config is the single input of the registry
/// ([`Algorithm::build`] / [`ExtractorConfig::build_extractor`]) and of
/// [`crate::ExtractionSession::new`]. Fields that only concern one
/// algorithm (the partition count, the iteration semantics) are ignored by
/// the others.
#[derive(Debug, Clone)]
pub struct ExtractorConfig {
    /// Which algorithm of the registry to run.
    pub algorithm: Algorithm,
    /// Execution engine (serial or pool).
    pub engine: Engine,
    /// Opt (sorted) or Unopt (unsorted) adjacency handling.
    pub adjacency: AdjacencyMode,
    /// Synchronous or asynchronous iteration semantics (both
    /// deterministic).
    pub semantics: Semantics,
    /// Record per-iteration queue sizes and edge counts (Figure 7 of the
    /// paper). Small constant overhead per iteration.
    pub record_stats: bool,
    /// Number of partitions for [`Algorithm::Partitioned`], each a
    /// contiguous block of vertex ids; 0 means "one per engine worker
    /// thread".
    pub partitions: usize,
    /// Run the [`crate::repair`] maximality post-pass after every
    /// extraction, restoring strict maximality (`alg1 + repair` is the
    /// configuration comparable against the Dearing baseline end to end).
    /// The pass runs the incremental chordality maintainer; input it cannot
    /// certify chordal goes to the reference repair instead.
    pub repair: bool,
}

impl Default for ExtractorConfig {
    fn default() -> Self {
        Self {
            algorithm: Algorithm::Parallel,
            engine: Engine::chunked(chordal_runtime::available_threads()),
            adjacency: AdjacencyMode::Sorted,
            semantics: Semantics::Asynchronous,
            record_stats: false,
            partitions: 0,
            repair: false,
        }
    }
}

impl ExtractorConfig {
    /// A serial configuration with the given adjacency mode (asynchronous
    /// semantics).
    pub fn serial(adjacency: AdjacencyMode) -> Self {
        Self {
            engine: Engine::serial(),
            adjacency,
            ..Self::default()
        }
    }

    /// Builder-style: replaces the algorithm.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Builder-style: replaces the engine.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Builder-style: resolves and replaces the engine by name
    /// ("serial", or "pool" and its aliases "rayon"/"chunked") and thread
    /// count.
    pub fn with_engine_name(mut self, name: &str, threads: usize) -> Result<Self, ExtractError> {
        self.engine = Engine::by_name(name, threads)
            .ok_or_else(|| ExtractError::UnknownEngine(name.to_string()))?;
        Ok(self)
    }

    /// Builder-style: replaces the adjacency mode.
    pub fn with_adjacency(mut self, adjacency: AdjacencyMode) -> Self {
        self.adjacency = adjacency;
        self
    }

    /// Builder-style: replaces the iteration semantics.
    pub fn with_semantics(mut self, semantics: Semantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// Builder-style: enables or disables per-iteration statistics.
    pub fn with_stats(mut self, record: bool) -> Self {
        self.record_stats = record;
        self
    }

    /// Builder-style: sets the partition count for the partitioned
    /// baseline.
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    /// Builder-style: enables or disables the maximality repair post-pass.
    pub fn with_repair(mut self, repair: bool) -> Self {
        self.repair = repair;
        self
    }

    /// The partition count the partitioned baseline will actually use
    /// (explicit value, or one partition per engine worker).
    pub fn effective_partitions(&self) -> usize {
        if self.partitions == 0 {
            self.engine.threads()
        } else {
            self.partitions
        }
    }

    /// Builds the configured algorithm's extractor via the registry.
    pub fn build_extractor(&self) -> Box<dyn crate::extractor::ChordalExtractor> {
        self.algorithm.build(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_terms() {
        assert_eq!(AdjacencyMode::Sorted.label(), "Opt");
        assert_eq!(AdjacencyMode::Unsorted.label(), "Unopt");
        assert_eq!(Semantics::Synchronous.label(), "sync");
        assert_eq!(Semantics::Asynchronous.label(), "async");
    }

    #[test]
    fn default_config_is_parallel_sorted_asynchronous_with_stats_off() {
        let c = ExtractorConfig::default();
        assert_eq!(c.algorithm, Algorithm::Parallel);
        assert_eq!(c.adjacency, AdjacencyMode::Sorted);
        assert_eq!(c.semantics, Semantics::Asynchronous);
        assert!(!c.record_stats);
        assert!(!c.repair);
        assert!(c.engine.threads() >= 1);
        assert_eq!(c.effective_partitions(), c.engine.threads());
    }

    #[test]
    fn builder_methods_replace_fields() {
        let c = ExtractorConfig::serial(AdjacencyMode::Unsorted)
            .with_stats(true)
            .with_semantics(Semantics::Asynchronous)
            .with_adjacency(AdjacencyMode::Sorted)
            .with_engine(Engine::chunked(2))
            .with_algorithm(Algorithm::Dearing)
            .with_partitions(6)
            .with_repair(true);
        assert!(c.record_stats);
        assert!(c.repair);
        assert_eq!(c.semantics, Semantics::Asynchronous);
        assert_eq!(c.adjacency, AdjacencyMode::Sorted);
        assert_eq!(c.engine.threads(), 2);
        assert_eq!(c.engine.name(), "pool");
        assert_eq!(c.algorithm, Algorithm::Dearing);
        assert_eq!(c.effective_partitions(), 6);
    }

    #[test]
    fn parse_helpers_accept_front_end_spellings() {
        assert_eq!(AdjacencyMode::parse("opt").unwrap(), AdjacencyMode::Sorted);
        assert_eq!(
            AdjacencyMode::parse("unopt").unwrap(),
            AdjacencyMode::Unsorted
        );
        assert!(AdjacencyMode::parse("fast").is_err());
        assert_eq!(Semantics::parse("sync").unwrap(), Semantics::Synchronous);
        assert_eq!(Semantics::parse("async").unwrap(), Semantics::Asynchronous);
        assert!(Semantics::parse("chaotic").is_err());
    }

    #[test]
    fn engine_name_resolution_goes_through_the_runtime() {
        let c = ExtractorConfig::default()
            .with_engine_name("pool", 3)
            .unwrap();
        assert_eq!(c.engine.name(), "pool");
        assert_eq!(c.engine.threads(), 3);
        assert!(ExtractorConfig::default()
            .with_engine_name("gpu", 1)
            .is_err());
    }
}
