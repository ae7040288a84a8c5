//! The algorithm registry and its one dispatch.
//!
//! The crate's extraction algorithms — the paper's parallel Algorithm 1,
//! its bulk-synchronous reading, the Dearing–Shier–Warner baseline and the
//! partitioned "nearly chordal" baseline — form the closed set
//! [`Algorithm`]. Front ends parse a name into it, fill one
//! [`ExtractorConfig`], and call [`ExtractorConfig::extract_into`] with a
//! reusable [`Workspace`]. Its `match` over [`Algorithm`] is the only
//! place that runs an algorithm by variant; each arm calls a plain
//! function of the algorithm's module.
//!
//! Extraction operates on a [`GraphRef`], the storage-agnostic view over
//! heap [`CsrGraph`](chordal_graph::CsrGraph)s and mmap-backed
//! [`MmapCsrGraph`](chordal_graph::MmapCsrGraph)s, so every algorithm runs
//! unchanged on either representation.

use crate::config::ExtractorConfig;
use crate::error::ExtractError;
use crate::repair::repair_result_impl;
use crate::result::ChordalResult;
use crate::workspace::Workspace;
use crate::{dearing, parallel, partitioned, reference};
use chordal_graph::GraphRef;

/// Registry of every extraction algorithm in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The paper's multithreaded Algorithm 1 ([`crate::parallel`]).
    Parallel,
    /// The bulk-synchronous reading of Algorithm 1, run sequentially: each
    /// iteration tests every vertex against one more parent's set as it
    /// stood when the iteration began. It is the source of Figure 7's
    /// iteration counts ([`mod@crate::reference`]).
    Reference,
    /// The serial Dearing–Shier–Warner baseline ([`crate::dearing`]).
    Dearing,
    /// The partitioned "nearly chordal" baseline ([`crate::partitioned`]).
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
    /// (`"alg1+repair"`, ...), as [`ExtractorConfig::name`] reports it for
    /// a config with [`ExtractorConfig::repair`] set.
    pub fn repaired_name(self) -> &'static str {
        match self {
            Algorithm::Parallel => "alg1+repair",
            Algorithm::Reference => "reference+repair",
            Algorithm::Dearing => "dearing+repair",
            Algorithm::Partitioned => "partitioned+repair",
        }
    }
}

impl ExtractorConfig {
    /// Registry name of the configured extraction: [`Algorithm::name`], or
    /// [`Algorithm::repaired_name`] when [`ExtractorConfig::repair`] is set.
    pub fn name(&self) -> &'static str {
        if self.repair {
            self.algorithm.repaired_name()
        } else {
            self.algorithm.name()
        }
    }

    /// Runs the configured algorithm on `graph`, using (and growing)
    /// `workspace` for every scratch buffer the run needs, then the
    /// [`crate::repair`] post-pass when [`ExtractorConfig::repair`] is set.
    /// The post-pass shares the workspace and skips the up-front
    /// chordality certification when the algorithm
    /// [guarantees chordal output](Algorithm::guarantees_chordal).
    pub fn extract_into(&self, graph: GraphRef<'_>, workspace: &mut Workspace) -> ChordalResult {
        let result = match self.algorithm {
            Algorithm::Parallel => parallel::extract_into(self, graph, workspace),
            Algorithm::Reference => {
                reference::extract_reference_into(graph, workspace, self.record_stats)
            }
            Algorithm::Dearing => dearing::extract_dearing_into(graph, workspace),
            Algorithm::Partitioned => partitioned::extract_partitioned_into(
                graph,
                self.effective_partitions(),
                self.engine,
                workspace,
            ),
        };
        if self.repair {
            repair_result_impl(
                graph,
                &result,
                workspace,
                self.algorithm.guarantees_chordal(),
            )
        } else {
            result
        }
    }

    /// [`ExtractorConfig::extract_into`] with a throwaway [`Workspace`].
    /// Prefer [`crate::ExtractionSession`] when extracting repeatedly.
    pub fn extract<'a>(&self, graph: impl Into<GraphRef<'a>>) -> ChordalResult {
        self.extract_into(graph.into(), &mut Workspace::new())
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
            let config = config.clone().with_algorithm(algorithm);
            assert_eq!(config.name(), algorithm.name());
            assert_eq!(
                config.clone().with_repair(true).name(),
                algorithm.repaired_name()
            );
            let result = config.extract(&graph);
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
