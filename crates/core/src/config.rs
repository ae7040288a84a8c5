//! Extraction configuration: algorithm, variant and execution engine.

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

/// Full configuration of an extraction: which [`Algorithm`] to run and how.
///
/// A config is the single input of the registry's dispatch
/// ([`ExtractorConfig::extract_into`]) and of
/// [`crate::ExtractionSession::new`]. Fields that only concern one
/// algorithm (the partition count) are ignored by the others.
#[derive(Debug, Clone)]
pub struct ExtractorConfig {
    /// Which algorithm of the registry to run.
    pub algorithm: Algorithm,
    /// Execution engine (serial or pool).
    pub engine: Engine,
    /// Opt (sorted) or Unopt (unsorted) adjacency handling.
    pub adjacency: AdjacencyMode,
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
            record_stats: false,
            partitions: 0,
            repair: false,
        }
    }
}

impl ExtractorConfig {
    /// Builds a configuration from a front end's extraction keys, each
    /// looked up through `key` (a CLI flag or a serve request argument):
    /// `algorithm`, `variant`, `threads`, `partitions`, `repair` and
    /// `engine`. An absent key takes its default: `alg1`, `opt`,
    /// `default_threads`, 0 partitions (one per engine worker), no repair
    /// and `default_engine`. `repair` is `true` or `false`. The first
    /// invalid key, in that order, is the error; a `threads`, `partitions`
    /// or `repair` value that does not parse is an
    /// [`ExtractError::InvalidOption`] naming its key.
    pub fn from_keys<'a>(
        key: impl Fn(&str) -> Option<&'a str>,
        default_engine: &str,
        default_threads: usize,
    ) -> Result<Self, ExtractError> {
        let number = |name: &str, default: usize| match key(name) {
            None => Ok(default),
            Some(given) => given
                .parse()
                .map_err(|_| ExtractError::invalid_option(name, given)),
        };
        let algorithm = Algorithm::parse(key("algorithm").unwrap_or("alg1"))?;
        let adjacency = AdjacencyMode::parse(key("variant").unwrap_or("opt"))?;
        let threads = number("threads", default_threads)?;
        let partitions = number("partitions", 0)?;
        let repair = match key("repair") {
            None | Some("false") => false,
            Some("true") => true,
            Some(given) => return Err(ExtractError::invalid_option("repair", given)),
        };
        Self {
            algorithm,
            adjacency,
            partitions,
            repair,
            ..Self::default()
        }
        .with_engine_name(key("engine").unwrap_or(default_engine), threads)
    }

    /// A serial configuration with the given adjacency mode.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_terms() {
        assert_eq!(AdjacencyMode::Sorted.label(), "Opt");
        assert_eq!(AdjacencyMode::Unsorted.label(), "Unopt");
    }

    #[test]
    fn default_config_is_parallel_sorted_with_stats_off() {
        let c = ExtractorConfig::default();
        assert_eq!(c.algorithm, Algorithm::Parallel);
        assert_eq!(c.adjacency, AdjacencyMode::Sorted);
        assert!(!c.record_stats);
        assert!(!c.repair);
        assert!(c.engine.threads() >= 1);
        assert_eq!(c.effective_partitions(), c.engine.threads());
    }

    #[test]
    fn builder_methods_replace_fields() {
        let c = ExtractorConfig::serial(AdjacencyMode::Unsorted)
            .with_stats(true)
            .with_adjacency(AdjacencyMode::Sorted)
            .with_engine(Engine::chunked(2))
            .with_algorithm(Algorithm::Dearing)
            .with_partitions(6)
            .with_repair(true);
        assert!(c.record_stats);
        assert!(c.repair);
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
    }

    #[test]
    fn keys_parse_with_front_end_defaults_and_name_the_bad_one() {
        let parse = |pairs: &[(&str, &str)]| {
            let pairs = pairs.to_vec();
            ExtractorConfig::from_keys(
                |key| pairs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v),
                "serial",
                3,
            )
        };
        let c = parse(&[]).unwrap();
        assert_eq!(c.algorithm, Algorithm::Parallel);
        assert_eq!(c.adjacency, AdjacencyMode::Sorted);
        assert_eq!(c.engine, Engine::serial());
        assert_eq!((c.partitions, c.repair, c.record_stats), (0, false, false));
        let c = parse(&[
            ("algorithm", "ref"),
            ("variant", "unopt"),
            ("engine", "rayon"),
            ("threads", "2"),
            ("partitions", "5"),
            ("repair", "true"),
        ])
        .unwrap();
        assert_eq!(c.algorithm, Algorithm::Reference);
        assert_eq!(c.adjacency, AdjacencyMode::Unsorted);
        assert_eq!((c.engine.name(), c.engine.threads()), ("pool", 2));
        assert_eq!((c.partitions, c.repair), (5, true));
        assert!(!parse(&[("repair", "false")]).unwrap().repair);
        assert_eq!(parse(&[("engine", "pool")]).unwrap().engine.threads(), 3);

        assert!(matches!(
            parse(&[("algorithm", "magic")]),
            Err(ExtractError::UnknownAlgorithm(name)) if name == "magic"
        ));
        assert!(matches!(
            parse(&[("variant", "fast")]),
            Err(ExtractError::UnknownVariant(name)) if name == "fast"
        ));
        assert!(matches!(
            parse(&[("engine", "gpu")]),
            Err(ExtractError::UnknownEngine(name)) if name == "gpu"
        ));
        for key in ["threads", "partitions", "repair"] {
            assert!(
                matches!(
                    parse(&[(key, "x")]),
                    Err(ExtractError::InvalidOption { option, given })
                        if option == key && given == "x"
                ),
                "{key}"
            );
        }
        // The first bad key in parse order is the one named.
        assert!(matches!(
            parse(&[("threads", "x"), ("algorithm", "magic")]),
            Err(ExtractError::UnknownAlgorithm(_))
        ));
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
