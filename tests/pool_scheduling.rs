//! Cross-algorithm lock-down suite for the persistent worker pool and
//! batch fan-out.
//!
//! `extract_batch` fans every graph of a batch out, longest first, over at
//! most `threads` participants; a single-graph batch runs on the
//! configured engine. These tests pin the concurrency behaviour down so it
//! cannot regress silently:
//!
//! * property sweeps over seeded random and R-MAT graphs asserting every
//!   `Algorithm × Engine` output is chordal (where guaranteed) and
//!   edge-subset-valid;
//! * bit-for-bit agreement between pooled and serial engines for every
//!   algorithm;
//! * batch slot equivalence with single runs for every algorithm, over
//!   batch compositions (one dominant graph plus small ones, every graph
//!   repeated `threads` times, single-graph batches) — placement must
//!   never change extraction output, also across repeated batches on warm
//!   child workspaces;
//! * under the default configuration, every fanned-out slot equals a
//!   serial single run;
//! * a batch reports the participants it fanned out over;
//! * an end-to-end assertion that sustained extraction traffic reuses the
//!   pool's workers instead of spawning threads, with the pool's dispatch
//!   counters growing as regions are submitted.

use maximal_chordal::prelude::*;
use maximal_chordal::runtime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Participants a batch of `graphs` fans out over on `threads`.
fn participants(threads: usize, graphs: usize) -> usize {
    threads.min(graphs).min(runtime::pool_size())
}

/// Seeded cases per property (kept moderate: the full matrix multiplies).
const CASES: u64 = 12;

/// The serial engine and two pool engines (four and eight participants);
/// thread counts deliberately exceed the single-core CI floor and eight
/// exceeds a two-core host's cores, so the pool paths are exercised
/// everywhere.
fn engines() -> Vec<Engine> {
    vec![Engine::serial(), Engine::chunked(4), Engine::chunked(8)]
}

fn random_graph(rng: &mut StdRng, max_n: usize, max_edges: usize) -> CsrGraph {
    let n = rng.gen_range(2..max_n);
    let cap = (n * (n - 1) / 2).min(max_edges);
    let m = rng.gen_range(0..cap.max(1) + 1);
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        edges.push((u, v));
    }
    graph_from_edges(n, edges)
}

/// Graph suite for the matrix sweeps: seeded random graphs plus one R-MAT
/// preset per shape family.
fn workloads(seed: u64) -> Vec<CsrGraph> {
    let mut rng = StdRng::seed_from_u64(0x90_01 ^ seed);
    vec![
        random_graph(&mut rng, 36, 140),
        RmatParams::preset(RmatKind::Er, 7, seed).generate(),
        RmatParams::preset(RmatKind::B, 7, seed).generate(),
    ]
}

#[test]
fn every_algorithm_engine_pair_is_chordal_and_subset_valid() {
    for seed in 0..CASES {
        for graph in workloads(seed) {
            for algorithm in Algorithm::ALL {
                for engine in engines() {
                    let label = format!("seed {seed} {algorithm}/{}", engine.name());
                    let config = ExtractorConfig::default()
                        .with_algorithm(algorithm)
                        .with_engine(engine);
                    let result = ExtractionSession::new(config).extract(&graph);
                    for &(u, v) in result.edges() {
                        assert!(graph.has_edge(u, v), "{label}: foreign edge ({u},{v})");
                    }
                    if algorithm.guarantees_chordal() {
                        assert!(
                            is_chordal(&result.subgraph(&graph)),
                            "{label}: non-chordal output"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn pooled_engines_match_the_serial_engine_bit_for_bit() {
    // Every algorithm's output is independent of the engine, so the pooled
    // schedules must reproduce the serial result exactly — the strongest
    // cross-engine agreement the registry offers.
    for seed in 0..CASES {
        for graph in workloads(seed) {
            for algorithm in Algorithm::ALL {
                let serial = ExtractorConfig::default()
                    .with_algorithm(algorithm)
                    .with_engine(Engine::serial())
                    // Pin the partition count so the partitioned baseline
                    // does not re-derive it from each engine's threads.
                    .with_partitions(3);
                let expected = ExtractionSession::new(serial.clone()).extract(&graph);
                for engine in engines() {
                    let config = serial.clone().with_engine(engine);
                    let got = ExtractionSession::new(config.clone()).extract(&graph);
                    assert_eq!(
                        got.edges(),
                        expected.edges(),
                        "seed {seed} {algorithm}/{} diverged from serial",
                        config.engine.name()
                    );
                }
            }
        }
    }
}

#[test]
fn hybrid_batches_agree_with_single_runs_for_every_algorithm() {
    // One dominant scale-9 graph plus small ones: on three threads the
    // large graph exceeds a third of the batch and still fans out, first.
    let mut graphs = vec![RmatParams::preset(RmatKind::Er, 9, 0).generate()];
    for seed in 0..2 {
        graphs.push(RmatParams::preset(RmatKind::Er, 7, seed).generate());
        graphs.push(RmatParams::preset(RmatKind::G, 6, seed).generate());
    }
    let refs: Vec<&CsrGraph> = graphs.iter().collect();
    for algorithm in Algorithm::ALL {
        let config = ExtractorConfig::default()
            .with_algorithm(algorithm)
            .with_engine(Engine::chunked(3));
        let mut session = ExtractionSession::new(config.clone());
        let batch = session.extract_batch(&refs);
        assert_eq!(batch.len(), graphs.len());
        assert_eq!(
            session.batch_participants(),
            participants(3, graphs.len()),
            "{algorithm}"
        );
        let single_config = config
            .clone()
            .with_partitions(config.effective_partitions())
            .with_engine(Engine::serial());
        let mut single = ExtractionSession::new(single_config);
        for (i, (graph, from_batch)) in graphs.iter().zip(&batch).enumerate() {
            assert_eq!(
                single.extract(graph).edges(),
                from_batch.edges(),
                "{algorithm} slot {i}"
            );
        }
    }
}

#[test]
fn batch_threshold_extremes_agree_on_random_batches() {
    for seed in 0..6 {
        let mut rng = StdRng::seed_from_u64(0xBA7C02 ^ seed);
        let graphs: Vec<CsrGraph> = (0..5).map(|_| random_graph(&mut rng, 30, 120)).collect();
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        let base = ExtractorConfig::default();
        let mut serial = ExtractionSession::new(base.clone().with_engine(Engine::serial()));
        let expected: Vec<ChordalResult> = graphs.iter().map(|g| serial.extract(g)).collect();
        for engine in [Engine::chunked(3), Engine::chunked(8)] {
            let threads = engine.threads();
            let mut session = ExtractionSession::new(base.clone().with_engine(engine));
            // Intra-graph: single-graph batches run on the engine.
            let intra: Vec<ChordalResult> = refs
                .iter()
                .flat_map(|g| session.extract_batch(std::slice::from_ref(g)))
                .collect();
            // Fan-out with every graph repeated `threads` times. Run it
            // twice, so the second batch reuses warm child workspaces.
            let repeated: Vec<&CsrGraph> = (0..threads).flat_map(|_| refs.clone()).collect();
            let mut fanned = Vec::new();
            for _ in 0..2 {
                fanned.extend(session.extract_batch(&repeated));
                assert_eq!(
                    session.batch_participants(),
                    participants(threads, repeated.len())
                );
            }
            // The plain batch fans out too.
            let hybrid = session.extract_batch(&refs);
            for (label, batch) in [("intra", &intra), ("fan-out", &fanned), ("hybrid", &hybrid)] {
                for (i, (a, b)) in batch.iter().zip(expected.iter().cycle()).enumerate() {
                    assert_eq!(a.edges(), b.edges(), "seed {seed} {label} slot {i}");
                }
            }
        }
    }
}

#[test]
fn every_placement_agrees_for_every_algorithm() {
    // The same graphs placed three ways — each alone (intra-graph), every
    // graph repeated `threads` times (fan-out) and as one plain batch
    // (fan-out) — with the partition count pinned, so that every placement
    // of every algorithm must reproduce single serial runs slot for slot.
    let graphs: Vec<CsrGraph> = (0..3)
        .flat_map(|seed| {
            [
                RmatParams::preset(RmatKind::Er, 9, seed).generate(),
                RmatParams::preset(RmatKind::G, 6, seed).generate(),
            ]
        })
        .collect();
    let refs: Vec<&CsrGraph> = graphs.iter().collect();
    let threads = 3;
    let repeated: Vec<&CsrGraph> = (0..threads).flat_map(|_| refs.clone()).collect();
    for algorithm in Algorithm::ALL {
        let base = ExtractorConfig::default()
            .with_algorithm(algorithm)
            .with_partitions(3);
        let mut serial = ExtractionSession::new(base.clone().with_engine(Engine::serial()));
        let expected: Vec<ChordalResult> = graphs.iter().map(|g| serial.extract(g)).collect();
        let mut session = ExtractionSession::new(base.with_engine(Engine::chunked(threads)));
        let intra: Vec<ChordalResult> = refs
            .iter()
            .flat_map(|g| session.extract_batch(std::slice::from_ref(g)))
            .collect();
        let fanned = session.extract_batch(&repeated);
        assert_eq!(
            session.batch_participants(),
            participants(threads, repeated.len()),
            "{algorithm}: a repeated batch must fan out"
        );
        let plain = session.extract_batch(&refs);
        for (label, batch) in [("intra", &intra), ("fan-out", &fanned), ("plain", &plain)] {
            assert_eq!(batch.len() % graphs.len(), 0, "{algorithm} {label}");
            for (i, (a, b)) in batch.iter().zip(expected.iter().cycle()).enumerate() {
                assert_eq!(a.edges(), b.edges(), "{algorithm} {label} slot {i}");
            }
        }
    }
}

#[test]
fn repeated_batches_stay_byte_identical_on_both_engines() {
    // Later batches run on warm child workspaces that still hold the
    // previous batch's state, and each participant may claim other graphs
    // than the first time. None of that may change output: every round
    // matches single serial runs slot for slot.
    // CI runs this under CHORDAL_POOL_THREADS={1,2,8}.
    let mut graphs = vec![RmatParams::preset(RmatKind::Er, 10, 3).generate()];
    for seed in 0..3 {
        graphs.push(RmatParams::preset(RmatKind::Er, 8, seed).generate());
        graphs.push(RmatParams::preset(RmatKind::G, 6, seed).generate());
    }
    let refs: Vec<&CsrGraph> = graphs.iter().collect();
    let base = ExtractorConfig::default();
    let mut serial = ExtractionSession::new(base.clone().with_engine(Engine::serial()));
    let expected: Vec<ChordalResult> = graphs.iter().map(|g| serial.extract(g)).collect();
    for engine in [Engine::chunked(3), Engine::chunked(8)] {
        let name = engine.name();
        let mut session = ExtractionSession::new(base.clone().with_engine(engine));
        for round in 0..4 {
            let batch = session.extract_batch(&refs);
            // The dominant scale-10 graph fans out with the rest.
            assert!(session.batch_participants() >= 1, "{name}");
            for (i, (a, b)) in batch.iter().zip(&expected).enumerate() {
                assert_eq!(a.edges(), b.edges(), "{name} round {round} slot {i}");
            }
            assert_eq!(session.scheduler_feedback().rebalanced, 0, "{name}");
        }
    }
}

#[test]
fn asynchronous_batches_stay_chordal_and_fan_out_serially() {
    // Under the default configuration placement pins down what a slot
    // holds: a fanned-out graph runs the serial variant of the
    // configured algorithm, so its slot equals a single run on the serial
    // engine, and a single-graph batch runs intra-graph and is
    // edge-subset-valid (and chordal where the algorithm guarantees it).
    let mut graphs = vec![RmatParams::preset(RmatKind::Er, 10, 5).generate()];
    graphs.extend((0..4).map(|seed| RmatParams::preset(RmatKind::B, 7, seed).generate()));
    let refs: Vec<&CsrGraph> = graphs.iter().collect();
    for algorithm in Algorithm::ALL {
        let config = ExtractorConfig::default()
            .with_algorithm(algorithm)
            .with_engine(Engine::chunked(3));
        let mut session = ExtractionSession::new(config.clone());
        let batch = session.extract_batch(&refs);
        let alone = session.extract_batch(&refs[..1]);
        let single_config = config
            .clone()
            .with_partitions(config.effective_partitions())
            .with_engine(Engine::serial());
        let mut single = ExtractionSession::new(single_config);
        for (i, (graph, result)) in graphs.iter().zip(&batch).enumerate() {
            assert_eq!(
                single.extract(graph).edges(),
                result.edges(),
                "{algorithm} slot {i}: a fanned-out slot must equal a serial run"
            );
        }
        let label = format!("{algorithm} alone");
        for &(u, v) in alone[0].edges() {
            assert!(graphs[0].has_edge(u, v), "{label}: foreign edge ({u},{v})");
        }
        if algorithm.guarantees_chordal() {
            assert!(
                is_chordal(&alone[0].subgraph(&graphs[0])),
                "{label}: non-chordal output"
            );
        }
    }
}

#[test]
fn batch_participants_track_the_last_batch() {
    // Every batch of two or more graphs on a parallel engine fans out over
    // at most the engine's threads, the batch's graphs and the pool's
    // threads. Single-graph batches and a serial engine run sequentially,
    // and no batch runs a graph intra-graph.
    let graphs: Vec<CsrGraph> = (0..4)
        .map(|seed| RmatParams::preset(RmatKind::B, 7, seed).generate())
        .collect();
    let refs: Vec<&CsrGraph> = graphs.iter().collect();
    for engine in [
        Engine::chunked(2),
        Engine::chunked(3),
        Engine::chunked(4),
        Engine::chunked(8),
    ] {
        let threads = engine.threads();
        let name = engine.name();
        let mut session = ExtractionSession::new(ExtractorConfig::default().with_engine(engine));
        assert_eq!(session.batch_participants(), 0, "{name}");
        for len in 1..=refs.len() {
            session.extract_batch(&refs[..len]);
            let expected = if len == 1 {
                0
            } else {
                participants(threads, len)
            };
            assert_eq!(session.batch_participants(), expected, "{name}: {len}");
            assert_eq!(session.effective_batch_threshold(), usize::MAX, "{name}");
        }
        assert_eq!(session.scheduler_feedback().rebalanced, 0, "{name}");
    }
    let mut serial =
        ExtractionSession::new(ExtractorConfig::default().with_engine(Engine::serial()));
    serial.extract_batch(&refs);
    assert_eq!(serial.batch_participants(), 0);
}

#[test]
fn batch_traffic_grows_the_pool_dispatch_counters() {
    // Scale 11 (2048 vertices): comfortably above the engines' grain, so
    // the intra-graph sweeps split into several chunks and submit real
    // regions instead of running inline.
    let graphs: Vec<CsrGraph> = (0..3)
        .map(|seed| RmatParams::preset(RmatKind::Er, 11, seed).generate())
        .collect();
    let refs: Vec<&CsrGraph> = graphs.iter().collect();
    // Each graph alone is a single-graph batch: it runs intra-graph on the
    // engine and submits regions. Then all three fan out together.
    let mut session =
        ExtractionSession::new(ExtractorConfig::default().with_engine(Engine::chunked(4)));
    let before = runtime::pool_stats();
    for graph in refs.chunks(1) {
        session.extract_batch(graph);
    }
    session.extract_batch(&refs);
    let after = runtime::pool_stats();
    assert!(
        after.regions > before.regions,
        "intra-graph batch extraction must submit pool regions ({} -> {})",
        before.regions,
        after.regions
    );
    assert!(after.tickets >= before.tickets);
}

#[test]
fn sustained_extraction_traffic_never_spawns_threads_after_warmup() {
    // The pool spawns its workers once, in `Pool::new` under its
    // `OnceLock`. Warm it with one parallel extraction, then drive
    // sustained single-graph and batch traffic over two pool engines: the
    // single-graph runs are intra-graph; the batch, one dominant graph plus
    // small ones, fans out. Every repeat returns the first run's output.
    let warm_graph = RmatParams::preset(RmatKind::G, 8, 1).generate();
    let mut session =
        ExtractionSession::new(ExtractorConfig::default().with_engine(Engine::chunked(4)));
    let warm = session.extract(&warm_graph);
    let mut graphs = vec![RmatParams::preset(RmatKind::Er, 10, 9).generate()];
    graphs.extend((0..6).map(|seed| RmatParams::preset(RmatKind::Er, 7, seed).generate()));
    let refs: Vec<&CsrGraph> = graphs.iter().collect();
    for engine in [Engine::chunked(4), Engine::chunked(2)] {
        let mut session = ExtractionSession::new(ExtractorConfig::default().with_engine(engine));
        let batch = session.extract_batch(&refs);
        assert!(session.batch_participants() >= 1);
        for _ in 0..8 {
            assert_eq!(session.extract(&warm_graph), warm, "{engine:?}");
            assert_eq!(session.extract_batch(&refs), batch, "{engine:?}");
        }
    }
}
