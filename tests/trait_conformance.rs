//! Conformance suite for the [`Algorithm`] registry's one dispatch,
//! [`ExtractorConfig::extract_into`]: every [`Algorithm`] × [`Engine`]
//! (serial, pool at three and eight threads) × {plain, repaired} cell is
//! driven through the same [`ExtractionSession`] API and checked against
//! the guarantees the registry advertises — chordality
//! ([`Algorithm::guarantees_chordal`]), maximality
//! ([`Algorithm::guarantees_maximal`], and the repair post-pass after a
//! chordal algorithm), the registry name ([`ExtractorConfig::name`]), and
//! that reusing a [`Workspace`](maximal_chordal::core::Workspace) across
//! consecutive runs, of one cell or of every cell in turn, yields exactly
//! what fresh runs yield. Every cell is deterministic, the pool cells
//! included.

use maximal_chordal::core::verify::{check_maximality, MaximalityReport};
use maximal_chordal::core::Workspace;
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

/// Every cell of the Algorithm × Engine × {plain, repaired} matrix, as a
/// config.
fn matrix() -> Vec<(String, ExtractorConfig)> {
    let mut cells = Vec::new();
    for algorithm in Algorithm::ALL {
        for engine in engines() {
            for repair in [false, true] {
                let config = ExtractorConfig::default()
                    .with_algorithm(algorithm)
                    .with_engine(engine)
                    .with_repair(repair);
                let label = format!("{}/{}x{}", config.name(), engine.name(), engine.threads());
                cells.push((label, config));
            }
        }
    }
    cells
}

/// The session for `config`, checked to report the config's registry
/// name.
fn session(config: &ExtractorConfig) -> ExtractionSession {
    let session = ExtractionSession::new(config.clone());
    assert_eq!(session.extractor_name(), config.name());
    session
}

#[test]
fn every_algorithm_engine_cell_honours_its_guarantees() {
    for (name, graph) in workloads() {
        for (label, config) in matrix() {
            let algorithm = config.algorithm;
            let result = session(&config).extract(&graph);
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
            // Maximality, where guaranteed (the repair post-pass makes
            // chordal output strictly maximal); near-maximality everywhere
            // else that promises chordal output (bounded sampled
            // violations).
            let maximal =
                algorithm.guarantees_maximal() || (config.repair && algorithm.guarantees_chordal());
            if maximal {
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
            let mut session = session(&config);
            let first = session.extract(&graph);
            let allocations = session.workspace().allocations();
            let second = session.extract(&graph);
            let fresh = config.extract(&graph);
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
fn one_workspace_serves_every_cell_in_turn() {
    // Every algorithm's arm of the dispatch shares the caller's workspace,
    // so whatever one arm leaves in it must not leak into the next. One
    // workspace runs every cell of the matrix on every workload, forwards
    // and then backwards (so each arm inherits another arm's buffers, grown
    // on other graphs), and each run must equal a fresh one.
    let graphs = workloads();
    let cells = matrix();
    let fresh: Vec<Vec<ChordalResult>> = cells
        .iter()
        .map(|(_, config)| graphs.iter().map(|(_, g)| config.extract(g)).collect())
        .collect();
    let mut workspace = Workspace::new();
    let forwards = (0..cells.len()).flat_map(|c| (0..graphs.len()).map(move |g| (c, g)));
    let backwards = (0..cells.len())
        .rev()
        .flat_map(|c| (0..graphs.len()).rev().map(move |g| (c, g)));
    for (c, g) in forwards.chain(backwards) {
        let ((label, config), (name, graph)) = (&cells[c], &graphs[g]);
        let shared = config.extract_into(graph.into(), &mut workspace);
        let expected = &fresh[c][g];
        assert_eq!(shared.edges(), expected.edges(), "{name} {label}");
        assert_eq!(shared.iterations, expected.iterations, "{name} {label}");
    }
}

#[test]
fn batch_extraction_covers_every_algorithm() {
    let graphs: Vec<CsrGraph> = (0..4)
        .map(|seed| RmatParams::preset(RmatKind::Er, 7, seed).generate())
        .collect();
    let refs: Vec<&CsrGraph> = graphs.iter().collect();
    for algorithm in Algorithm::ALL {
        for repair in [false, true] {
            let config = ExtractorConfig::default()
                .with_algorithm(algorithm)
                .with_engine(Engine::chunked(3))
                .with_repair(repair);
            let label = config.name();
            let batch = session(&config).extract_batch(&refs);
            assert_eq!(batch.len(), graphs.len(), "{label}");
            // Every cell must match its single-graph runs slot for slot,
            // the repaired ones included (the fan-out runs a serial clone of
            // the whole config). The comparison config pins the partition
            // count to what the batch resolved it to (one per
            // configured-engine worker), mirroring extract_batch's
            // documented semantics.
            let serial_config = config
                .clone()
                .with_partitions(config.effective_partitions())
                .with_engine(Engine::serial());
            let mut single = session(&serial_config);
            for (graph, from_batch) in graphs.iter().zip(&batch) {
                let expected = single.extract(graph);
                assert_eq!(expected.edges(), from_batch.edges(), "{label}");
                assert_eq!(expected.iterations, from_batch.iterations, "{label}");
            }
        }
    }
}
