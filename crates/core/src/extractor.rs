//! The extractor trait and the algorithm registry.
//!
//! Every extraction algorithm in this crate — the paper's parallel
//! Algorithm 1, the sequential reference, the Dearing–Shier–Warner baseline
//! and the partitioned "nearly chordal" baseline — implements
//! [`ChordalExtractor`], so front ends dispatch uniformly: parse a name
//! into an [`Algorithm`], build a boxed extractor from an
//! [`ExtractorConfig`], and call [`ChordalExtractor::extract_into`] with a
//! reusable [`Workspace`]. No per-algorithm `match` arms live outside this
//! registry.

use crate::config::ExtractorConfig;
use crate::dearing::DearingExtractor;
use crate::error::ExtractError;
use crate::parallel::MaximalChordalExtractor;
use crate::partitioned::PartitionedExtractor;
use crate::reference::ReferenceExtractor;
use crate::result::ChordalResult;
use crate::workspace::Workspace;
use chordal_graph::GraphRef;

/// A maximal-chordal-subgraph extraction algorithm.
///
/// Implementations are cheap, immutable handles: all mutable per-run state
/// lives in the [`Workspace`] passed to [`ChordalExtractor::extract_into`],
/// so one extractor can serve many graphs (and, with one workspace per
/// worker, many threads).
///
/// Extraction operates on a [`GraphRef`], the storage-agnostic view over
/// heap [`CsrGraph`](chordal_graph::CsrGraph)s and mmap-backed
/// [`MmapCsrGraph`](chordal_graph::MmapCsrGraph)s — every algorithm runs
/// unchanged on either representation.
pub trait ChordalExtractor: Send + Sync {
    /// Stable short name of the algorithm (`"alg1"`, `"reference"`,
    /// `"dearing"`, `"partitioned"`), used in logs and benchmark output.
    fn name(&self) -> &'static str;

    /// Extracts a chordal edge set from `graph`, using (and growing)
    /// `workspace` for every scratch buffer the run needs.
    fn extract_into(&self, graph: GraphRef<'_>, workspace: &mut Workspace) -> ChordalResult;

    /// Convenience wrapper allocating a throwaway [`Workspace`]. Prefer
    /// [`crate::ExtractionSession`] when extracting repeatedly. (The
    /// `Sized` bound only keeps the trait object-safe; boxed
    /// `dyn ChordalExtractor` values keep the same spelling through the
    /// blanket `Box` impl below.)
    fn extract<'a>(&self, graph: impl Into<GraphRef<'a>>) -> ChordalResult
    where
        Self: Sized,
    {
        let mut workspace = Workspace::new();
        self.extract_into(graph.into(), &mut workspace)
    }
}

/// Delegating impl so `Box<dyn ChordalExtractor>` (what [`Algorithm::build`]
/// returns) is itself an extractor — in particular, the generic
/// [`ChordalExtractor::extract`] convenience applies to boxed registry
/// extractors without unsizing gymnastics at call sites.
impl<T: ChordalExtractor + ?Sized> ChordalExtractor for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn extract_into(&self, graph: GraphRef<'_>, workspace: &mut Workspace) -> ChordalResult {
        (**self).extract_into(graph, workspace)
    }
}

/// Registry of every extraction algorithm in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The paper's multithreaded Algorithm 1
    /// ([`crate::parallel::MaximalChordalExtractor`]).
    Parallel,
    /// The sequential bulk-synchronous reference implementation
    /// ([`crate::reference::ReferenceExtractor`]).
    Reference,
    /// The serial Dearing–Shier–Warner baseline
    /// ([`crate::dearing::DearingExtractor`]).
    Dearing,
    /// The partitioned "nearly chordal" baseline
    /// ([`crate::partitioned::PartitionedExtractor`]).
    Partitioned,
}

impl Algorithm {
    /// Every registered algorithm, in presentation order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Parallel,
        Algorithm::Reference,
        Algorithm::Dearing,
        Algorithm::Partitioned,
    ];

    /// Stable short name (`"alg1"`, `"reference"`, `"dearing"`,
    /// `"partitioned"`).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Parallel => "alg1",
            Algorithm::Reference => "reference",
            Algorithm::Dearing => "dearing",
            Algorithm::Partitioned => "partitioned",
        }
    }

    /// Parses an algorithm name as accepted by front ends.
    pub fn parse(name: &str) -> Result<Self, ExtractError> {
        match name {
            "alg1" | "parallel" => Ok(Algorithm::Parallel),
            "reference" | "ref" => Ok(Algorithm::Reference),
            "dearing" => Ok(Algorithm::Dearing),
            "partitioned" => Ok(Algorithm::Partitioned),
            other => Err(ExtractError::UnknownAlgorithm(other.to_string())),
        }
    }

    /// Whether this algorithm's output is guaranteed chordal. True for all
    /// but [`Algorithm::Partitioned`] — the partitioned baseline's border
    /// edges can re-introduce long cycles, which is exactly the deficiency
    /// the paper documents.
    pub fn guarantees_chordal(self) -> bool {
        !matches!(self, Algorithm::Partitioned)
    }

    /// Whether this algorithm's output is guaranteed *maximal*. Only the
    /// greedy Dearing baseline is maximal by construction; Algorithm 1 and
    /// the reference are near-maximal (see `repair` and the
    /// `experiments maximality-gap` probe).
    pub fn guarantees_maximal(self) -> bool {
        matches!(self, Algorithm::Dearing)
    }

    /// Registry name of this algorithm with the repair post-pass attached
    /// (`"alg1+repair"`, ...), as reported by the wrapped extractor built
    /// for a config with [`ExtractorConfig::repair`] set.
    pub fn repaired_name(self) -> &'static str {
        match self {
            Algorithm::Parallel => "alg1+repair",
            Algorithm::Reference => "reference+repair",
            Algorithm::Dearing => "dearing+repair",
            Algorithm::Partitioned => "partitioned+repair",
        }
    }

    /// Builds the extractor this variant names, configured by `config`.
    /// This is the only algorithm dispatch point in the workspace. With
    /// [`ExtractorConfig::repair`] set, the extractor is wrapped in the
    /// [`crate::repair::RepairExtractor`] maximality post-pass.
    pub fn build(self, config: &ExtractorConfig) -> Box<dyn ChordalExtractor> {
        let inner: Box<dyn ChordalExtractor> = match self {
            Algorithm::Parallel => Box::new(MaximalChordalExtractor::new(config.clone())),
            Algorithm::Reference => Box::new(ReferenceExtractor::new(config.record_stats)),
            Algorithm::Dearing => Box::new(DearingExtractor::new()),
            Algorithm::Partitioned => Box::new(PartitionedExtractor::new(
                config.effective_partitions(),
                config.engine,
            )),
        };
        if config.repair {
            Box::new(crate::repair::RepairExtractor::new(inner, self))
        } else {
            inner
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chordal_generators::structured;

    #[test]
    fn names_round_trip_through_parse() {
        for algorithm in Algorithm::ALL {
            assert_eq!(Algorithm::parse(algorithm.name()).unwrap(), algorithm);
            assert_eq!(algorithm.to_string(), algorithm.name());
        }
        assert!(matches!(
            Algorithm::parse("magic"),
            Err(ExtractError::UnknownAlgorithm(_))
        ));
    }

    #[test]
    fn aliases_parse() {
        assert_eq!(Algorithm::parse("parallel").unwrap(), Algorithm::Parallel);
        assert_eq!(Algorithm::parse("ref").unwrap(), Algorithm::Reference);
    }

    #[test]
    fn registry_builds_every_algorithm_and_extracts() {
        let graph = structured::cycle(6);
        let config = ExtractorConfig::default().with_engine(chordal_runtime::Engine::serial());
        for algorithm in Algorithm::ALL {
            let extractor = algorithm.build(&config);
            assert_eq!(extractor.name(), algorithm.name());
            let result = extractor.extract(&graph);
            assert!(
                result.num_chordal_edges() >= 5,
                "{algorithm}: a 6-cycle retains at least 5 edges"
            );
            assert_eq!(result.num_vertices(), 6);
        }
    }

    #[test]
    fn guarantees_match_the_paper() {
        assert!(Algorithm::Parallel.guarantees_chordal());
        assert!(!Algorithm::Partitioned.guarantees_chordal());
        assert!(Algorithm::Dearing.guarantees_maximal());
        assert!(!Algorithm::Parallel.guarantees_maximal());
    }
}
