//! Golden outputs of Algorithm 1: one ascending pull pass, whose output
//! does not depend on the engine.
//!
//! These values lock the pass: iteration count, queue sizes, `|EC|` and an
//! FNV-1a hash of the sorted edge list, for RMAT-ER/G/B at scale 12 and two
//! gene networks. They were recorded from the serial pull oracle
//! `extract_pull_reference`, which shares no code with the extractor but
//! the subset kernel, and the first test checks the oracle still
//! reproduces them.

use maximal_chordal::core::reference::extract_pull_reference;
use maximal_chordal::prelude::*;

/// FNV-1a over the little-endian bytes of every `(u, v)` pair.
fn fnv1a(edges: &[(u32, u32)]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &(u, v) in edges {
        for byte in u.to_le_bytes().into_iter().chain(v.to_le_bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

struct Golden {
    name: &'static str,
    graph: CsrGraph,
    iterations: usize,
    queue_sizes: &'static [usize],
    chordal_edges: usize,
    hash: u64,
}

fn goldens() -> Vec<Golden> {
    vec![
        Golden {
            name: "RMAT-ER(12)",
            graph: RmatParams::preset(RmatKind::Er, 12, 1).generate(),
            iterations: 1,
            queue_sizes: &[3839],
            chordal_edges: 3911,
            hash: 0xce28_f537_491e_57b1,
        },
        Golden {
            name: "RMAT-G(12)",
            graph: RmatParams::preset(RmatKind::G, 12, 1).generate(),
            iterations: 1,
            queue_sizes: &[3625],
            chordal_edges: 4525,
            hash: 0xa6e4_6529_3892_96d7,
        },
        Golden {
            name: "RMAT-B(12)",
            graph: RmatParams::preset(RmatKind::B, 12, 1).generate(),
            iterations: 1,
            queue_sizes: &[2566],
            chordal_edges: 5516,
            hash: 0xf5e2_5a96_f752_3c1c,
        },
        Golden {
            name: "GSE5140(UNT)",
            graph: GeneNetworkKind::Gse5140Unt.network(1000, 3),
            iterations: 1,
            queue_sizes: &[584],
            chordal_edges: 1560,
            hash: 0x0f33_0cc8_1ab9_19b0,
        },
        Golden {
            name: "GSE17072(NON)",
            graph: GeneNetworkKind::Gse17072Non.network(1000, 3),
            iterations: 1,
            queue_sizes: &[468],
            chordal_edges: 1908,
            hash: 0x9d4c_8a07_7c3e_2455,
        },
    ]
}

fn serial_config() -> ExtractorConfig {
    ExtractorConfig::default()
        .with_engine(Engine::serial())
        .with_stats(true)
}

#[test]
fn serial_asynchronous_outputs_match_the_golden_values() {
    for golden in goldens() {
        let result = ExtractionSession::new(serial_config()).extract(&golden.graph);
        assert_eq!(
            result,
            extract_pull_reference(&golden.graph, true),
            "{}: extractor and oracle",
            golden.name
        );
        let stats = result.stats.as_ref().expect("stats requested");
        let name = golden.name;
        assert_eq!(result.iterations, golden.iterations, "{name}: iterations");
        assert_eq!(stats.queue_sizes, golden.queue_sizes, "{name}: queue sizes");
        assert_eq!(
            result.num_chordal_edges(),
            golden.chordal_edges,
            "{name}: |EC|"
        );
        assert_eq!(fnv1a(result.edges()), golden.hash, "{name}: edge hash");
    }
}

#[test]
fn unopt_walk_reproduces_the_opt_output_on_scrambled_adjacency() {
    // Both variants visit each vertex's parents in ascending order, so the
    // serial sweep is the same whichever way the next parent is found.
    for golden in goldens() {
        let opt = ExtractionSession::new(serial_config()).extract(&golden.graph);
        let scrambled = golden.graph.with_scrambled_adjacency(7);
        let unopt = ExtractionSession::new(serial_config().with_adjacency(AdjacencyMode::Unsorted))
            .extract(&scrambled);
        assert_eq!(unopt, opt, "{}", golden.name);
    }
}

/// The doacross engines: two participants, and eight (more than a small
/// host's cores, so waiters must yield to publishers).
fn doacross_engines() -> [Engine; 2] {
    [Engine::chunked(2), Engine::chunked(8)]
}

/// Both adjacency modes, each with the graph it runs on: Unopt walks the
/// scrambled copy.
fn modes(golden: &Golden) -> [(ExtractorConfig, CsrGraph); 2] {
    let unopt = serial_config().with_adjacency(AdjacencyMode::Unsorted);
    [
        (serial_config(), golden.graph.clone()),
        (unopt, golden.graph.with_scrambled_adjacency(7)),
    ]
}

#[test]
fn serial_pass_matches_the_doacross() {
    // `Engine::serial()` runs the pass as one plain loop; the pool engines
    // run it as a doacross. Results compare stats included.
    for golden in goldens() {
        for (config, graph) in modes(&golden) {
            let serial = ExtractionSession::new(config.clone()).extract(&graph);
            for engine in doacross_engines() {
                let pooled =
                    ExtractionSession::new(config.clone().with_engine(engine)).extract(&graph);
                assert_eq!(
                    serial, pooled,
                    "{}: {engine:?} {:?}",
                    golden.name, config.adjacency
                );
            }
        }
    }
}

#[test]
fn serial_pass_and_doacross_alternate_on_one_workspace() {
    // Each engine must leave the workspace ready for the others: alternating
    // them on one workspace reproduces fresh runs, and a second pass over
    // the same graphs allocates nothing.
    let mut workspace = maximal_chordal::core::Workspace::new();
    let mut warm = None;
    for _pass in 0..2 {
        for golden in goldens() {
            for (config, graph) in modes(&golden) {
                let fresh = config.extract(&graph);
                let [two, three] = doacross_engines().map(|e| config.clone().with_engine(e));
                for run in [&config, &two, &three, &config] {
                    let reused = run.extract_into((&graph).into(), &mut workspace);
                    assert_eq!(
                        reused, fresh,
                        "{}: {:?} {:?}",
                        golden.name, run.engine, config.adjacency
                    );
                }
            }
        }
        let allocations = workspace.allocations();
        assert_eq!(
            *warm.get_or_insert(allocations),
            allocations,
            "graphs the workspace has seen must not grow it"
        );
    }
}

#[test]
fn asynchronous_outputs_are_identical_across_engines_and_runs() {
    // Every subset test of the pass reads its parent's final set, so the
    // output cannot depend on the participants or their schedule. The
    // CHORDAL_POOL_THREADS matrix runs this with pools of 1, 2 and 8
    // workers.
    let mut graphs: Vec<(String, CsrGraph)> = Vec::new();
    for scale in 12..=14 {
        for kind in [RmatKind::Er, RmatKind::G, RmatKind::B] {
            let graph = RmatParams::preset(kind, scale, 1).generate();
            graphs.push((format!("{}({scale})", kind.name()), graph));
        }
    }
    for kind in GeneNetworkKind::all() {
        graphs.push((kind.name().to_string(), kind.network(1000, 1)));
    }
    for (name, graph) in &graphs {
        let expected = ExtractionSession::new(serial_config()).extract(graph);
        for engine in [Engine::serial(), Engine::chunked(2), Engine::chunked(8)] {
            let mut session = ExtractionSession::new(serial_config().with_engine(engine));
            for run in 0..2 {
                assert_eq!(
                    session.extract(graph),
                    expected,
                    "{name}: {engine:?}, run {run}"
                );
            }
        }
    }
}
