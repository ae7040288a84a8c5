//! Quick start: build a graph, extract a maximal chordal subgraph, verify
//! the result, and stitch its components together.
//!
//! Run with `cargo run --release --example quickstart`.

use maximal_chordal::prelude::*;

fn main() {
    // A small hand-built graph: two squares sharing a corner, plus chords.
    //
    //   0 - 1        4 - 5
    //   |   |  \   / |   |
    //   3 - 2 -- 6 - 7 - 8
    //
    let graph = graph_from_edges(
        9,
        vec![
            (0, 1),
            (1, 2),
            (2, 3),
            (0, 3),
            (0, 2), // chord of the first square
            (2, 6),
            (1, 6),
            (4, 5),
            (4, 6),
            (5, 7),
            (4, 7),
            (6, 7),
            (7, 8),
            (5, 8),
        ],
    );
    println!(
        "input graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // Extract with the default (parallel, paper-faithful) configuration.
    // A session owns reusable scratch buffers, so follow-up extractions on
    // same-sized graphs are allocation-free.
    let mut session = ExtractionSession::new(ExtractorConfig::default());
    let result = session.extract(&graph);
    println!(
        "maximal chordal subgraph: {} edges ({:.1}% of the input) in {} iterations",
        result.num_chordal_edges(),
        chordal_edge_percentage(&graph, &result),
        result.iterations
    );

    // The result always induces a chordal graph.
    let subgraph = result.subgraph(&graph);
    assert!(is_chordal(&subgraph));
    println!("chordality verified with the MCS / perfect-elimination-ordering check");

    // List the edges that were dropped.
    let dropped: Vec<_> = graph
        .edges()
        .filter(|&(u, v)| !result.contains_edge(u, v))
        .collect();
    println!("dropped edges: {dropped:?}");

    // If the chordal subgraph ended up with several components, connect them
    // with original-graph edges without breaking chordality.
    let stitch = stitch_components(&graph, result.edges());
    println!(
        "components before/after stitching: {} -> {} (added {:?})",
        stitch.components_before, stitch.components_after, stitch.added_edges
    );
    let stitched = stitched_edge_set(&graph, result.edges());
    assert!(is_chordal(
        &maximal_chordal::graph::subgraph::edge_subgraph(&graph, &stitched)
    ));

    // Compare against the serial Dearing baseline, dispatched through the
    // same registry as every other algorithm.
    let dearing = ExtractionSession::with_algorithm(Algorithm::Dearing).extract(&graph);
    println!(
        "Dearing baseline retains {} edges (Algorithm 1 retained {})",
        dearing.num_chordal_edges(),
        result.num_chordal_edges()
    );

    // Re-running through the session reuses its workspace: the allocation
    // counter stays flat, and the pass keeps the same edges on every run,
    // engine and thread count.
    let allocations = session.workspace().allocations();
    let rerun = session.extract(&graph);
    assert_eq!(rerun.edges(), result.edges());
    assert_eq!(session.workspace().allocations(), allocations);
    println!("second session run reused all {allocations} workspace allocations");
}
