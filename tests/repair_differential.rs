//! Differential and property suite for the maximality repair.
//!
//! The production repair (the incremental maintainer: maintained chordal
//! subgraph + separator test) must be observably identical to its test
//! oracle, `repair_maximality_reference` (full re-verification per
//! candidate): same repaired edge sets, same added edges, same examined
//! counts — across every algorithm of the registry and under every pool
//! size of the CI matrix (`CHORDAL_POOL_THREADS={1,2,8}`). On top of the
//! differential checks, a property sweep asserts the repaired output is
//! *strictly maximal* (no rejected edge remains addable) and that repeated
//! repairs through a session stop allocating.

use maximal_chordal::core::repair::{repair_maximality_reference, repair_maximality_with};
use maximal_chordal::core::verify::{check_maximality, is_chordal};
use maximal_chordal::core::{Algorithm, ExtractionSession, ExtractorConfig, Workspace};
use maximal_chordal::generators::rmat::{RmatKind, RmatParams};
use maximal_chordal::generators::structured;
use maximal_chordal::graph::CsrGraph;

fn workloads() -> Vec<(String, CsrGraph)> {
    let mut graphs = vec![
        ("grid-7x7".to_string(), structured::grid(7, 7)),
        ("cycle-12".to_string(), structured::cycle(12)),
        (
            "bipartite-4x5".to_string(),
            structured::complete_bipartite(4, 5),
        ),
    ];
    for seed in 0..3u64 {
        for kind in [RmatKind::Er, RmatKind::G, RmatKind::B] {
            graphs.push((
                format!("rmat-{kind:?}-{seed}"),
                RmatParams::preset(kind, 7, seed).generate(),
            ));
        }
    }
    graphs
}

fn serial(algorithm: Algorithm) -> ExtractorConfig {
    ExtractorConfig::default()
        .with_engine(maximal_chordal::runtime::Engine::serial())
        .with_algorithm(algorithm)
}

#[test]
fn repair_matches_the_reference_across_algorithms() {
    let mut workspace = Workspace::new();
    for algorithm in Algorithm::ALL {
        let mut session = ExtractionSession::new(serial(algorithm));
        for (name, graph) in workloads() {
            let base = session.extract(&graph);
            let repaired = repair_maximality_with(&graph, base.edges(), &mut workspace);
            let reference = repair_maximality_reference(&graph, base.edges());
            assert_eq!(
                repaired, reference,
                "{algorithm}/{name}: repair and reference must produce identical outcomes"
            );
        }
    }
}

#[test]
fn session_level_repair_matches_the_reference_under_the_configured_pool() {
    // Parallel extraction + repair through the registry must equal the
    // oracle's repair of the unrepaired output, whatever
    // CHORDAL_POOL_THREADS the CI matrix sets.
    for algorithm in [Algorithm::Parallel, Algorithm::Reference] {
        let base = ExtractorConfig::default().with_algorithm(algorithm);
        let mut unrepaired = ExtractionSession::new(base.clone());
        let mut repaired = ExtractionSession::new(base.with_repair(true));
        for (name, graph) in workloads() {
            let reference = repair_maximality_reference(&graph, unrepaired.extract(&graph).edges());
            assert_eq!(
                repaired.extract(&graph).edges(),
                reference.edges,
                "{algorithm}/{name}: session-level repair differs from the reference"
            );
        }
    }
}

#[test]
fn repaired_output_is_strictly_maximal() {
    // Property: after repair, no rejected edge remains addable. Verified
    // with the independent maximality checker for every algorithm whose
    // output the repair pass guarantees to keep chordal.
    for algorithm in Algorithm::ALL {
        let mut unrepaired = ExtractionSession::new(serial(algorithm));
        let mut session = ExtractionSession::new(serial(algorithm).with_repair(true));
        for seed in 0..3u64 {
            let graph = RmatParams::preset(RmatKind::G, 7, seed).generate();
            let result = session.extract(&graph);
            if algorithm.guarantees_chordal() {
                assert!(
                    is_chordal(&result.subgraph(&graph)),
                    "{algorithm} seed {seed}: repaired output must stay chordal"
                );
            }
            assert!(
                check_maximality(&graph, result.edges(), None, 0).is_maximal(),
                "{algorithm} seed {seed}: a rejected edge is still addable after repair"
            );
            let base = unrepaired.extract(&graph);
            assert_eq!(
                result.edges(),
                repair_maximality_reference(&graph, base.edges()).edges,
                "{algorithm} seed {seed}: repair differs from the reference"
            );
        }
    }
}

#[test]
fn repeated_session_repairs_stop_allocating() {
    // The allocation/regression lock of the incremental maintainer: a warm
    // `alg1 + repair` session must not grow its workspace on subsequent
    // extractions — per-candidate work never rebuilds the subgraph.
    let graph = RmatParams::preset(RmatKind::B, 9, 3).generate();
    let mut session = ExtractionSession::new(serial(Algorithm::Parallel).with_repair(true));
    let first = session.extract(&graph);
    let allocations = session.workspace().allocations();
    for _ in 0..2 {
        let again = session.extract(&graph);
        assert_eq!(again.edges(), first.edges());
    }
    assert_eq!(
        session.workspace().allocations(),
        allocations,
        "repeated repairs over the same graph must reuse every buffer"
    );
    let base = ExtractionSession::new(serial(Algorithm::Parallel)).extract(&graph);
    assert_eq!(
        first.edges(),
        repair_maximality_reference(&graph, base.edges()).edges
    );
}

#[test]
fn repair_examines_every_rejected_edge_exactly_once() {
    // `examined` counts distinct candidates: every host edge the input
    // rejected is examined once, however many greedy passes revisit it. A
    // second repair of the repaired output adds nothing and examines exactly
    // the edges that stayed rejected.
    let mut workspace = Workspace::new();
    for algorithm in Algorithm::ALL {
        let mut session = ExtractionSession::new(serial(algorithm));
        for (name, graph) in workloads() {
            let base = session.extract(&graph);
            let rejected = graph.num_canonical_edges() - base.num_chordal_edges();
            let first = repair_maximality_with(&graph, base.edges(), &mut workspace);
            assert_eq!(first.examined, rejected, "{algorithm}/{name}");
            assert_eq!(
                first.edges.len(),
                base.num_chordal_edges() + first.added.len(),
                "{algorithm}/{name}: repair only adds edges"
            );
            let again = repair_maximality_with(&graph, &first.edges, &mut workspace);
            assert!(again.added.is_empty(), "{algorithm}/{name}: not a fixpoint");
            assert_eq!(again.edges, first.edges, "{algorithm}/{name}");
            assert_eq!(
                again.examined,
                rejected - first.added.len(),
                "{algorithm}/{name}"
            );
        }
    }
}
