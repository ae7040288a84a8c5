//! Trait-conformance suite for the `ChordalExtractor` registry: every
//! [`Algorithm`] × [`Engine`] (serial, pool at three and eight threads)
//! combination is driven through the same [`ExtractionSession`] API and
//! checked against the guarantees the registry advertises —
//! chordality ([`Algorithm::guarantees_chordal`]), maximality
//! ([`Algorithm::guarantees_maximal`]), and that reusing a session's
//! [`Workspace`](maximal_chordal::core::Workspace) across consecutive runs
//! yields exactly what fresh runs yield. Every cell is deterministic, the
//! pool cells included.

use maximal_chordal::core::verify::{check_maximality, MaximalityReport};
use maximal_chordal::prelude::*;

/// The serial engine and the pool engine at three and at eight threads
/// (more than a small host's cores, so waiters must yield to publishers),
/// small enough to keep the full matrix fast.
fn engines() -> Vec<Engine> {
    vec![Engine::serial(), Engine::chunked(8), Engine::chunked(3)]
}

fn workloads() -> Vec<(String, CsrGraph)> {
    let mut graphs = vec![(
        "RMAT-G(8)".to_string(),
        RmatParams::preset(RmatKind::G, 8, 17).generate(),
    )];
    graphs.push((
        "grid(8x7)".to_string(),
        maximal_chordal::generators::structured::grid(8, 7),
    ));
    graphs.push((
        "GSE5140(UNT)-mini".to_string(),
        GeneNetworkKind::Gse5140Unt.network(220, 3),
    ));
    graphs
}

/// Every cell of the Algorithm × Engine matrix, as a session.
fn matrix() -> Vec<(String, ExtractorConfig)> {
    let mut cells = Vec::new();
    for algorithm in Algorithm::ALL {
        for engine in engines() {
            let config = ExtractorConfig::default()
                .with_algorithm(algorithm)
                .with_engine(engine);
            let label = format!("{algorithm}/{}x{}", engine.name(), engine.threads());
            cells.push((label, config));
        }
    }
    cells
}

#[test]
fn every_algorithm_engine_cell_honours_its_guarantees() {
    for (name, graph) in workloads() {
        for (label, config) in matrix() {
            let algorithm = config.algorithm;
            let mut session = ExtractionSession::new(config);
            assert_eq!(session.extractor_name(), algorithm.name());
            let result = session.extract(&graph);
            // Output edges always come from the host graph.
            for &(u, v) in result.edges() {
                assert!(graph.has_edge(u, v), "{name} {label}: foreign edge");
            }
            assert_eq!(result.num_vertices(), graph.num_vertices());
            // Chordality, where the registry guarantees it. (The partitioned
            // baseline intentionally does not — that deficiency is the
            // paper's motivation for Algorithm 1.)
            if algorithm.guarantees_chordal() {
                assert!(
                    is_chordal(&result.subgraph(&graph)),
                    "{name} {label}: non-chordal output"
                );
            }
            // Maximality, where guaranteed; near-maximality everywhere else
            // that promises chordal output (bounded sampled violations).
            if algorithm.guarantees_maximal() {
                assert!(
                    check_maximality(&graph, result.edges(), Some(120), 11).is_maximal(),
                    "{name} {label}: output must be maximal"
                );
            } else if algorithm.guarantees_chordal() {
                let sample = 120;
                let report = check_maximality(&graph, result.edges(), Some(sample), 11);
                let violations = match report {
                    MaximalityReport::Maximal => 0,
                    MaximalityReport::Violations(v) => v.len(),
                };
                assert!(
                    violations <= sample,
                    "{name} {label}: impossible violation count"
                );
            }
        }
    }
}

#[test]
fn workspace_reuse_across_consecutive_runs_equals_fresh_runs() {
    // For every cell of the matrix: run the same session twice back to back
    // (second run reuses the grown workspace) and once with a fresh
    // session; all three must agree bit for bit, and the reused workspace
    // must not allocate again.
    for (name, graph) in workloads() {
        for (label, config) in matrix() {
            let mut session = ExtractionSession::new(config.clone());
            let first = session.extract(&graph);
            let allocations = session.workspace().allocations();
            let second = session.extract(&graph);
            let fresh = ExtractionSession::new(config).extract(&graph);
            assert_eq!(first.edges(), second.edges(), "{name} {label}");
            assert_eq!(first.edges(), fresh.edges(), "{name} {label}");
            assert_eq!(first.iterations, second.iterations, "{name} {label}");
            assert_eq!(
                session.workspace().allocations(),
                allocations,
                "{name} {label}: rerun on the same graph must not allocate"
            );
        }
    }
}

#[test]
fn trait_objects_dispatch_uniformly() {
    // The registry hands out boxed trait objects usable without knowing the
    // concrete type — the shape the CLI and benches rely on.
    let graph = maximal_chordal::generators::structured::cycle(12);
    let extractors: Vec<Box<dyn ChordalExtractor>> = Algorithm::ALL
        .iter()
        .map(|algorithm| {
            ExtractorConfig::serial(AdjacencyMode::Sorted)
                .with_algorithm(*algorithm)
                .build_extractor()
        })
        .collect();
    for (algorithm, extractor) in Algorithm::ALL.iter().zip(&extractors) {
        assert_eq!(extractor.name(), algorithm.name());
        let result = extractor.extract(&graph);
        assert!(result.num_chordal_edges() >= 11, "{algorithm}");
    }
}

#[test]
fn batch_extraction_covers_every_algorithm() {
    let graphs: Vec<CsrGraph> = (0..4)
        .map(|seed| RmatParams::preset(RmatKind::Er, 7, seed).generate())
        .collect();
    let refs: Vec<&CsrGraph> = graphs.iter().collect();
    for algorithm in Algorithm::ALL {
        let config = ExtractorConfig::default()
            .with_algorithm(algorithm)
            .with_engine(Engine::chunked(3));
        let batch = ExtractionSession::new(config.clone()).extract_batch(&refs);
        assert_eq!(batch.len(), graphs.len(), "{algorithm}");
        // Every algorithm must match its single-graph runs slot for slot.
        // The comparison config pins the partition count to what the batch
        // resolved it to (one per configured-engine worker), mirroring
        // extract_batch's documented semantics.
        let serial_config = config
            .clone()
            .with_partitions(config.effective_partitions())
            .with_engine(Engine::serial());
        let mut single = ExtractionSession::new(serial_config);
        for (graph, from_batch) in graphs.iter().zip(&batch) {
            assert_eq!(
                single.extract(graph).edges(),
                from_batch.edges(),
                "{algorithm}"
            );
        }
    }
}
