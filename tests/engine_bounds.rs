//! The configured engine bounds an extraction's parallelism.
//!
//! Every parallel loop goes through `Engine`, and a loop with an engine in
//! scope runs on it. So an extraction on the serial engine submits no pool
//! region, and a fanned-out batch submits one: the fan-out, whose
//! participants extract serially. The test counts regions through
//! `pool_stats()`, which is process-wide, so it lives alone in this binary:
//! no other test can submit a region between two reads.

use maximal_chordal::prelude::*;
use maximal_chordal::runtime::pool_stats;

/// Pool regions submitted while `f` runs.
fn regions_during(f: impl FnOnce()) -> u64 {
    let before = pool_stats().regions;
    f();
    pool_stats().regions - before
}

#[test]
fn the_configured_engine_bounds_the_regions_of_every_algorithm() {
    let graphs: Vec<CsrGraph> = (1..=4)
        .map(|seed| RmatParams::preset(RmatKind::G, 8, seed).generate())
        .collect();
    let refs: Vec<&CsrGraph> = graphs.iter().collect();
    for algorithm in Algorithm::ALL {
        let config = ExtractorConfig::default().with_algorithm(algorithm);
        let mut serial = ExtractionSession::new(
            config
                .clone()
                .with_engine(Engine::serial())
                .with_partitions(4),
        );
        for (k, graph) in graphs.iter().enumerate() {
            let regions = regions_during(|| {
                serial.extract(graph);
            });
            assert_eq!(regions, 0, "{algorithm}, graph {k}, serial engine");
        }
        for partitions in [0, 4] {
            let mut batch = ExtractionSession::new(
                config
                    .clone()
                    .with_engine(Engine::chunked(2))
                    .with_partitions(partitions),
            );
            let regions = regions_during(|| {
                batch.extract_batch(&refs);
            });
            assert!(
                regions <= 1,
                "{algorithm}, {partitions} partitions: a batch submitted {regions} regions, \
                 not just its fan-out"
            );
        }
    }
}
