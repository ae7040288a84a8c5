//! Golden outputs of Algorithm 1 under the default (asynchronous) semantics
//! on the serial engine, where the sweep is deterministic.
//!
//! The synchronous semantics is checked against the reference oracle
//! elsewhere; the asynchronous one has no oracle, so these values lock it
//! instead: iteration count, per-iteration queue sizes, `|EC|` and an
//! FNV-1a hash of the sorted edge list, for RMAT-ER/G/B at scale 12 and two
//! gene networks. A change to the sweep's data structures must reproduce
//! them exactly; a change to its semantics must update them on purpose.

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
            iterations: 13,
            queue_sizes: &[831, 1548, 1700, 1503, 1223, 824, 432, 147, 51, 19, 12, 5, 2],
            chordal_edges: 3911,
            hash: 0xce28_f537_491e_57b1,
        },
        Golden {
            name: "RMAT-G(12)",
            graph: RmatParams::preset(RmatKind::G, 12, 1).generate(),
            iterations: 15,
            queue_sizes: &[
                1153, 2163, 2319, 1520, 662, 206, 65, 27, 15, 10, 7, 4, 2, 2, 2,
            ],
            chordal_edges: 4523,
            hash: 0xd8d1_86cd_f8ec_9b30,
        },
        Golden {
            name: "RMAT-B(12)",
            graph: RmatParams::preset(RmatKind::B, 12, 1).generate(),
            iterations: 39,
            queue_sizes: &[
                961, 1635, 1693, 989, 426, 136, 62, 42, 27, 21, 16, 13, 12, 11, 9, 6, 5, 5, 4, 4,
                4, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
            ],
            chordal_edges: 5511,
            hash: 0x1953_83be_7b56_b71f,
        },
        Golden {
            name: "GSE5140(UNT)",
            graph: GeneNetworkKind::Gse5140Unt.network(1000, 3),
            iterations: 25,
            queue_sizes: &[
                162, 258, 252, 189, 123, 76, 53, 42, 31, 23, 20, 20, 17, 12, 9, 12, 9, 6, 6, 7, 5,
                3, 2, 1, 1,
            ],
            chordal_edges: 1455,
            hash: 0xb810_ba21_79b6_c42a,
        },
        Golden {
            name: "GSE17072(NON)",
            graph: GeneNetworkKind::Gse17072Non.network(1000, 3),
            iterations: 27,
            queue_sizes: &[
                104, 171, 169, 144, 106, 57, 51, 49, 41, 36, 19, 10, 10, 8, 5, 3, 2, 2, 1, 1, 1, 1,
                1, 1, 1, 1, 1,
            ],
            chordal_edges: 1637,
            hash: 0xfa83_a2a5_327f_feb8,
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

/// The two-thread engine whose grain exceeds every queue and vertex count:
/// each region of the shared sweep runs inline on the caller, in ascending
/// order, so it follows the owner sweep's schedule through the concurrent
/// protocol.
fn inline_shared_engine() -> Engine {
    Engine::chunked_with_grain(2, usize::MAX)
}

/// Every combination of semantics and adjacency mode, each with the graph
/// it runs on: Unopt walks the scrambled copy.
fn modes(golden: &Golden) -> Vec<(ExtractorConfig, CsrGraph)> {
    let scrambled = golden.graph.with_scrambled_adjacency(7);
    let mut modes = Vec::new();
    for semantics in [Semantics::Asynchronous, Semantics::Synchronous] {
        for (adjacency, graph) in [
            (AdjacencyMode::Sorted, &golden.graph),
            (AdjacencyMode::Unsorted, &scrambled),
        ] {
            let config = serial_config()
                .with_semantics(semantics)
                .with_adjacency(adjacency);
            modes.push((config, graph.clone()));
        }
    }
    modes
}

#[test]
fn owner_sweep_matches_the_shared_sweep_run_inline() {
    // `Engine::serial()` runs the owner sweep; the inline two-thread engine
    // runs the shared one. Results compare stats included.
    for golden in goldens() {
        for (config, graph) in modes(&golden) {
            let owner = ExtractionSession::new(config.clone()).extract(&graph);
            let shared = ExtractionSession::new(config.clone().with_engine(inline_shared_engine()))
                .extract(&graph);
            assert_eq!(
                owner, shared,
                "{}: {:?} {:?}",
                golden.name, config.semantics, config.adjacency
            );
        }
    }
}

#[test]
fn owner_and_shared_sweeps_alternate_on_one_workspace() {
    // Each mode must leave the workspace's lists empty and flags clear for
    // the other: alternating them on one workspace reproduces fresh runs,
    // and a second pass over the same graphs allocates nothing.
    let mut workspace = maximal_chordal::core::Workspace::new();
    let mut warm = None;
    for _pass in 0..2 {
        for golden in goldens() {
            for (config, graph) in modes(&golden) {
                let owner = MaximalChordalExtractor::new(config.clone());
                let shared = MaximalChordalExtractor::new(
                    config.clone().with_engine(inline_shared_engine()),
                );
                let fresh = owner.extract(&graph);
                for extractor in [&owner, &shared] {
                    let reused = extractor.extract_into((&graph).into(), &mut workspace);
                    assert_eq!(
                        reused,
                        fresh,
                        "{}: {:?} {:?} {:?}",
                        golden.name,
                        extractor.config().engine,
                        config.semantics,
                        config.adjacency
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
