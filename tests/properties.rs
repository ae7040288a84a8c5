//! Property-style tests over the core invariants of the workspace, using
//! deterministic seeded random graphs.
//!
//! The external `proptest` crate is unavailable in this build environment,
//! so the same invariants are exercised with an explicit seeded sweep: every
//! case draws a random simple graph from the in-tree `rand` substitute and
//! asserts the property; failures print the offending seed so the case can
//! be replayed.

use maximal_chordal::graph::subgraph::edge_subgraph;
use maximal_chordal::graph::traversal::connected_components;
use maximal_chordal::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of random cases per property (mirrors the old proptest config).
const CASES: u64 = 48;

/// Draws a random simple graph with `2..max_n` vertices and up to
/// `max_edges` undirected edges (self loops discarded, duplicates merged).
fn random_graph(rng: &mut StdRng, max_n: usize, max_edges: usize) -> CsrGraph {
    let n = rng.gen_range(2..max_n);
    let cap = (n * (n - 1) / 2).min(max_edges);
    let m = rng.gen_range(0..cap.max(1) + 1);
    let mut builder = GraphBuilder::new(n);
    for _ in 0..m {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        if u != v {
            builder.add_edge(u, v);
        }
    }
    builder.build()
}

/// Graphs of up to this many vertices span several 64-vertex doacross
/// pieces, so a pool pass really waits on sets published by other pieces.
const DOACROSS_MAX_N: usize = 400;

#[test]
fn extraction_always_chordal() {
    // Algorithm 1 always returns a chordal subgraph whose edges come from
    // the input, on pool engines of two to eight participants.
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = random_graph(&mut rng, DOACROSS_MAX_N, 1_600);
        let threads = rng.gen_range(2..9usize);
        let config = ExtractorConfig::default().with_engine(Engine::chunked(threads));
        let result = ExtractionSession::new(config).extract(&graph);
        let sub = result.subgraph(&graph);
        assert!(is_chordal(&sub), "seed {seed}");
        for &(u, v) in result.edges() {
            assert!(graph.has_edge(u, v), "seed {seed}: foreign edge ({u},{v})");
        }
    }
}

#[test]
fn pool_pass_matches_the_pull_oracle() {
    // The doacross result equals the serial pull oracle.
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED ^ seed);
        let graph = random_graph(&mut rng, DOACROSS_MAX_N, 1_600);
        let threads = rng.gen_range(2..9usize);
        let oracle = maximal_chordal::core::reference::extract_pull_reference(&graph, false);
        let config = ExtractorConfig::default().with_engine(Engine::chunked(threads));
        let result = ExtractionSession::new(config).extract(&graph);
        assert_eq!(result.edges(), oracle.edges(), "seed {seed}");
    }
}

#[test]
fn dearing_is_chordal_and_maximal() {
    // The Dearing baseline returns a chordal and maximal subgraph.
    let mut session = ExtractionSession::with_algorithm(Algorithm::Dearing);
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD0_0D ^ seed);
        let graph = random_graph(&mut rng, 40, 160);
        let result = session.extract(&graph);
        let sub = result.subgraph(&graph);
        assert!(is_chordal(&sub), "seed {seed}");
        assert!(
            check_maximality(&graph, result.edges(), None, 0).is_maximal(),
            "seed {seed}"
        );
    }
}

#[test]
fn stitching_preserves_chordality() {
    // Stitching never breaks chordality and never merges further than the
    // host graph's own components.
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x517C ^ seed);
        let graph = random_graph(&mut rng, 40, 160);
        let result = extract_maximal_chordal_serial(&graph);
        let stitched = stitched_edge_set(&graph, result.edges());
        let sub = edge_subgraph(&graph, &stitched);
        assert!(is_chordal(&sub), "seed {seed}");
        assert_eq!(
            connected_components(&sub).count,
            connected_components(&graph).count,
            "seed {seed}"
        );
    }
}

#[test]
fn csr_roundtrip() {
    // CSR construction, edge listing and reconstruction round-trip.
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC5_12 ^ seed);
        let graph = random_graph(&mut rng, 40, 160);
        let edges: Vec<_> = graph.edges().collect();
        let rebuilt = CsrGraph::from_canonical_edges(graph.num_vertices(), &edges);
        assert_eq!(&graph, &rebuilt, "seed {seed}");
        assert_eq!(graph.num_edges(), edges.len(), "seed {seed}");
    }
}

#[test]
fn batch_extraction_matches_individual_runs() {
    // extract_batch returns, per slot, exactly what a single-graph
    // extraction of that slot returns.
    for seed in 0..8 {
        let mut rng = StdRng::seed_from_u64(0xBA7C ^ seed);
        let graphs: Vec<CsrGraph> = (0..5).map(|_| random_graph(&mut rng, 30, 120)).collect();
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        let config = ExtractorConfig::default().with_engine(Engine::chunked(3));
        let batch = ExtractionSession::new(config).extract_batch(&refs);
        for (i, (graph, result)) in graphs.iter().zip(&batch).enumerate() {
            let expected = maximal_chordal::core::reference::extract_pull_reference(graph, false);
            assert_eq!(result.edges(), expected.edges(), "seed {seed} slot {i}");
        }
    }
}

#[test]
fn chordality_checker_matches_bruteforce() {
    // The chordality checker agrees with a brute-force chordless-cycle
    // search on small graphs.
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB1_7E ^ seed);
        let graph = random_graph(&mut rng, 9, 28);
        assert_eq!(
            is_chordal(&graph),
            bruteforce_is_chordal(&graph),
            "seed {seed}"
        );
    }
}

#[test]
fn canonicalize_matches_a_sort_and_dedup_oracle() {
    // Random lists with self loops and duplicates in both orientations; the
    // larger ones sort their buckets on the pool. The oracle orients every
    // edge, drops the loops, sorts the whole list and drops repeats.
    let mut cases = vec![EdgeList::new(0), EdgeList::new(1)];
    let mut one_vertex = EdgeList::new(1);
    one_vertex.push(0, 0);
    one_vertex.push(0, 0);
    cases.push(one_vertex);
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xCA_70 ^ seed);
        let n = rng.gen_range(2..2_000usize);
        let mut list = EdgeList::new(n);
        for _ in 0..rng.gen_range(0..8 * n) {
            let u = rng.gen_range(0..n) as u32;
            let v = if rng.gen_range(0..8usize) == 0 {
                u
            } else {
                rng.gen_range(0..n) as u32
            };
            list.push(u, v);
            if rng.gen_range(0..4usize) == 0 {
                list.push(v, u);
            }
        }
        cases.push(list);
    }
    for (k, list) in cases.into_iter().enumerate() {
        let mut oracle: Vec<(u32, u32)> = list
            .iter()
            .filter(|&(u, v)| u != v)
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        oracle.sort_unstable();
        oracle.dedup();
        assert_eq!(list.canonicalized().edges(), &oracle[..], "case {k}");
    }
}

#[test]
fn degree_variance_is_a_serial_fold_whatever_the_pool_size() {
    // On RMAT-B(16) a sum of per-chunk partial sums rounds differently from
    // one ascending sum, so a variance summed in pool-sized chunks changed
    // with CHORDAL_POOL_THREADS.
    let graph = RmatParams::preset(RmatKind::B, 16, 1).generate();
    let n = graph.num_vertices() as f64;
    let degrees: Vec<usize> = (0..graph.num_vertices() as u32)
        .map(|v| graph.degree(v))
        .collect();
    let mean = degrees.iter().sum::<usize>() as f64 / n;
    let fold = degrees
        .iter()
        .map(|&d| (d as f64 - mean) * (d as f64 - mean))
        .fold(0.0, |sum, x| sum + x)
        / n;
    let stats = GraphStats::compute(&graph);
    assert_eq!(stats.degree_variance.to_bits(), fold.to_bits());
    assert_eq!(stats.degree_variance.to_bits(), 0x409c_90f5_32f4_e001);
    assert_eq!(stats.max_degree, degrees.iter().copied().max().unwrap());
    assert_eq!(stats.avg_degree.to_bits(), mean.to_bits());
}

/// Exponential-time oracle: a graph is chordal iff it has no chordless cycle
/// of length ≥ 4. Searches all vertex subsets for induced cycles (fine for
/// ≤ 8 vertices).
fn bruteforce_is_chordal(graph: &CsrGraph) -> bool {
    let n = graph.num_vertices();
    // Enumerate all subsets of size >= 4 and check whether the induced
    // subgraph is a cycle (every vertex degree 2, connected) without chords.
    let vertices: Vec<u32> = (0..n as u32).collect();
    let mut found_chordless_cycle = false;
    let total_subsets = 1usize << n;
    for mask in 0..total_subsets {
        let subset: Vec<u32> = vertices
            .iter()
            .copied()
            .filter(|&v| mask & (1 << v) != 0)
            .collect();
        if subset.len() < 4 {
            continue;
        }
        // Induced subgraph degrees.
        let mut degrees = vec![0usize; subset.len()];
        let mut edge_count = 0usize;
        for (i, &u) in subset.iter().enumerate() {
            for (j, &v) in subset.iter().enumerate().skip(i + 1) {
                if graph.has_edge(u, v) {
                    degrees[i] += 1;
                    degrees[j] += 1;
                    edge_count += 1;
                }
            }
        }
        // An induced chordless cycle has exactly |S| edges, every degree 2,
        // and is connected.
        if edge_count == subset.len() && degrees.iter().all(|&d| d == 2) {
            let induced = maximal_chordal::graph::subgraph::induced_subgraph(graph, &subset);
            if connected_components(&induced.graph).count == 1 {
                found_chordless_cycle = true;
                break;
            }
        }
    }
    !found_chordless_cycle
}
