//! The configured engine bounds an extraction's parallelism.
//!
//! Every parallel loop goes through `Engine`, and a loop with an engine in
//! scope runs on it. So an extraction on the serial engine submits no pool
//! region, on sorted or scrambled adjacency, and a fanned-out batch submits
//! one: the fan-out, whose participants extract serially. Serve's `payload=edges` writes the
//! result's edges as they are, so a serial `EXTRACT` submits none either.
//! The test counts regions through `pool_stats()`, which is process-wide,
//! so it lives alone in this binary: no other test can submit a region
//! between two reads.

use maximal_chordal::graph::storage::write_binary_file;
use maximal_chordal::prelude::*;
use maximal_chordal::runtime::pool_stats;
use maximal_chordal::serve::{ServeClient, ServeConfig, Server};

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
    // On 256 vertices every per-vertex pool loop runs inline. A 4,096-vertex
    // graph makes the partitioned baseline's builds visible: each partition
    // and the union check go through `CsrGraph::from_edges`, which must not
    // sort on the pool when its buckets are already sorted. Its copy with
    // scrambled lists makes Algorithm 1 sort a copy (on the extraction's
    // engine) and hands the partitions' builds unsorted host lists.
    let large = RmatParams::preset(RmatKind::G, 12, 1).generate();
    let scrambled = large.with_scrambled_adjacency(7);
    for algorithm in Algorithm::ALL {
        let config = ExtractorConfig::default().with_algorithm(algorithm);
        for repair in [false, true] {
            let mut serial = ExtractionSession::new(
                config
                    .clone()
                    .with_engine(Engine::serial())
                    .with_partitions(4)
                    .with_repair(repair),
            );
            for (k, graph) in graphs.iter().chain([&large, &scrambled]).enumerate() {
                let regions = regions_during(|| {
                    serial.extract(graph);
                });
                assert_eq!(
                    regions, 0,
                    "{algorithm}, repair {repair}, graph {k}, serial engine"
                );
            }
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
    // A resident graph of more than 256 vertices: a per-vertex pool loop
    // over at most one default grain runs inline and would submit nothing
    // whatever the payload path did.
    let graph = RmatParams::preset(RmatKind::G, 10, 1).generate();
    let path =
        std::env::temp_dir().join(format!("chordal_engine_bounds_{}.bin", std::process::id()));
    write_binary_file(&graph, &path).expect("writing the binary graph");
    let mut server = Server::start(ServeConfig::default()).expect("starting server");
    let mut client = ServeClient::connect(server.addr()).expect("connecting");
    let load = client
        .request(&format!("LOAD path={}", path.display()))
        .expect("LOAD");
    assert!(load.ok(), "{}", load.raw);
    let key = load.str_field("graph").expect("graph key").to_string();
    let mut reply = None;
    let regions = regions_during(|| {
        reply = Some(
            client
                .request(&format!("EXTRACT graph={key} engine=serial payload=edges"))
                .expect("EXTRACT"),
        );
    });
    let reply = reply.expect("the request ran");
    assert!(reply.ok() && !reply.payload.is_empty(), "{}", reply.raw);
    assert_eq!(
        regions, 0,
        "a serial EXTRACT with payload=edges submitted {regions} pool regions"
    );
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}
