//! End-to-end integration tests spanning every crate of the workspace:
//! generate → extract (every engine/variant) → verify → stitch → analyse.

use maximal_chordal::graph::subgraph::edge_subgraph;
use maximal_chordal::graph::traversal::connected_components;
use maximal_chordal::prelude::*;

fn engines() -> Vec<Engine> {
    vec![
        Engine::serial(),
        Engine::chunked(4),
        Engine::chunked(8),
        Engine::chunked(2),
    ]
}

fn workloads() -> Vec<(String, CsrGraph)> {
    let mut graphs = vec![];
    for kind in [RmatKind::Er, RmatKind::G, RmatKind::B] {
        let g = RmatParams::preset(kind, 9, 11).generate();
        graphs.push((format!("{}(9)", kind.name()), g));
    }
    graphs.push((
        "GSE5140(UNT)-mini".to_string(),
        GeneNetworkKind::Gse5140Unt.network(300, 5),
    ));
    graphs
}

#[test]
fn extraction_is_chordal_for_every_engine_variant_and_workload() {
    for (name, graph) in workloads() {
        for engine in engines() {
            for adjacency in [AdjacencyMode::Sorted, AdjacencyMode::Unsorted] {
                let config = ExtractorConfig::default()
                    .with_engine(engine)
                    .with_adjacency(adjacency)
                    .with_stats(true);
                let result = ExtractionSession::new(config).extract(&graph);
                let sub = result.subgraph(&graph);
                assert!(
                    is_chordal(&sub),
                    "{name}: {engine:?} {adjacency:?} produced a non-chordal subgraph"
                );
                // Every retained edge exists in the host graph.
                for &(u, v) in result.edges() {
                    assert!(graph.has_edge(u, v), "{name}: foreign edge ({u},{v})");
                }
                // Stats agree with the result.
                let stats = result.stats.as_ref().unwrap();
                assert_eq!(stats.iterations(), result.iterations);
                assert_eq!(stats.total_edges(), result.num_chordal_edges());
            }
        }
    }
}

#[test]
fn results_are_identical_across_engines_and_thread_counts() {
    for (name, graph) in workloads() {
        let oracle = maximal_chordal::core::reference::extract_pull_reference(&graph, false);
        for engine in engines() {
            let config = ExtractorConfig::default().with_engine(engine);
            let result = ExtractionSession::new(config).extract(&graph);
            assert_eq!(
                result.edges(),
                oracle.edges(),
                "{name}: {engine:?} deviates from the serial pull oracle"
            );
        }
    }
}

#[test]
fn asynchronous_serial_runs_are_deterministic() {
    for (name, graph) in workloads() {
        // Two runs through one session (reused workspace) and one through a
        // fresh session must all agree.
        let mut session = ExtractionSession::new(ExtractorConfig::serial(AdjacencyMode::Sorted));
        let a = session.extract(&graph);
        let b = session.extract(&graph);
        let fresh =
            ExtractionSession::new(ExtractorConfig::serial(AdjacencyMode::Sorted)).extract(&graph);
        assert_eq!(a.edges(), b.edges(), "{name}");
        assert_eq!(a.edges(), fresh.edges(), "{name}");
        assert_eq!(a.iterations, b.iterations, "{name}");
    }
}

#[test]
fn stitched_extraction_is_connected_when_the_host_graph_is() {
    for (name, graph) in workloads() {
        let host_components = connected_components(&graph).count;
        let result = extract_maximal_chordal(&graph);
        let stitched = stitched_edge_set(&graph, result.edges());
        let stitched_graph = edge_subgraph(&graph, &stitched);
        assert!(is_chordal(&stitched_graph), "{name}");
        assert_eq!(
            connected_components(&stitched_graph).count,
            host_components,
            "{name}: stitching should reach the host graph's component count"
        );
    }
}

#[test]
fn dearing_baseline_is_chordal_and_maximal_on_the_workloads() {
    for (name, graph) in workloads() {
        let result = extract_dearing(&graph);
        assert!(is_chordal(&result.subgraph(&graph)), "{name}");
        let report = check_maximality(&graph, result.edges(), Some(100), 3);
        assert!(
            report.is_maximal(),
            "{name}: Dearing output must be maximal"
        );
    }
}

#[test]
fn chordal_inputs_pass_through_dearing_untouched_and_alg1_keeps_them_chordal() {
    use maximal_chordal::generators::chordal_gen::{interval_graph, k_tree};
    for graph in [k_tree(60, 3, 5), interval_graph(80, 0.08, 9)] {
        assert!(is_chordal(&graph));
        let dearing = extract_dearing(&graph);
        assert_eq!(dearing.num_chordal_edges(), graph.num_edges());
        let alg1 = extract_maximal_chordal(&graph);
        assert!(is_chordal(&alg1.subgraph(&graph)));
        assert!(alg1.num_chordal_edges() <= graph.num_edges());
    }
}

#[test]
fn partitioned_baseline_reports_its_violations_honestly() {
    use maximal_chordal::core::partitioned::extract_partitioned;
    let graph = RmatParams::preset(RmatKind::G, 9, 2).generate();
    for parts in [1usize, 2, 8] {
        let result = extract_partitioned(&graph, parts);
        let subgraph = edge_subgraph(&graph, &result.edges);
        assert_eq!(result.chordal, is_chordal(&subgraph));
        if parts == 1 {
            assert!(result.chordal, "single partition is plain Dearing");
        }
    }
}

#[test]
fn cli_style_roundtrip_through_text_files() {
    use maximal_chordal::graph::io::{read_edge_list_file, write_edge_list_file};
    let dir = std::env::temp_dir().join("maximal_chordal_it");
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("graph.txt");
    let sub_path = dir.join("chordal.txt");

    let graph = RmatParams::preset(RmatKind::Er, 9, 4).generate();
    write_edge_list_file(&graph, &graph_path).unwrap();
    let loaded = read_edge_list_file(&graph_path).unwrap();
    assert_eq!(graph, loaded);

    let result = extract_maximal_chordal(&loaded);
    let sub = result.subgraph(&loaded);
    write_edge_list_file(&sub, &sub_path).unwrap();
    let sub_loaded = read_edge_list_file(&sub_path).unwrap();
    assert!(is_chordal(&sub_loaded));
    assert_eq!(sub_loaded.num_edges(), result.num_chordal_edges());
    let _ = std::fs::remove_dir_all(&dir);
}
