//! Gene-correlation network sampling — the application that motivates the
//! paper's biological experiments.
//!
//! A synthetic microarray expression matrix is generated, turned into a
//! correlation network by thresholding Pearson correlations at 0.95 (exactly
//! the paper's pipeline for GSE5140/GSE17072), and then *sampled* by
//! extracting a maximal chordal subgraph. The example reports how much of
//! the network's structure (clustering, assortativity, component count) the
//! chordal sample preserves.
//!
//! Run with `cargo run --release --example gene_network_sampling`.

use maximal_chordal::graph::traversal::connected_components;
use maximal_chordal::prelude::*;

fn describe(label: &str, graph: &CsrGraph) {
    let stats = GraphStats::compute(graph);
    println!(
        "{label:<22} V={:<6} E={:<7} avg deg={:<6.2} max deg={:<5} clustering={:.4} assortativity={:+.3} components={}",
        stats.vertices,
        stats.edges,
        stats.avg_degree,
        stats.max_degree,
        average_clustering(graph),
        degree_assortativity(graph),
        connected_components(graph).count,
    );
}

fn main() {
    // Build the untreated-mice network analogue at a laptop-friendly size.
    let genes = 1_500;
    println!("synthesising expression data and thresholding correlations (|rho| >= 0.95)...");
    let network = GeneNetworkKind::Gse5140Unt.network(genes, 7);
    describe("correlation network", &network);

    // Extract the maximal chordal subgraph — the paper's sampling operator.
    let config = ExtractorConfig::default().with_stats(true);
    let result = ExtractionSession::new(config).extract(&network);
    println!(
        "\nchordal sample: {} of {} edges ({:.1}%), {} iterations",
        result.num_chordal_edges(),
        network.num_edges(),
        100.0 * result.chordal_fraction(&network),
        result.iterations
    );
    if let Some(stats) = &result.stats {
        println!("queue sizes per iteration: {:?}", stats.queue_sizes);
    }

    let sample = result.subgraph(&network);
    assert!(is_chordal(&sample));
    describe("chordal sample", &sample);

    // Compare with the serial Dearing baseline (same sampling idea, no
    // parallelism), built through the same registry.
    let dearing = ExtractionSession::with_algorithm(Algorithm::Dearing).extract(&network);
    let dearing_graph = dearing.subgraph(&network);
    describe("dearing sample", &dearing_graph);

    println!(
        "\nthe chordal sample keeps the module structure (high clustering at low degree)\n\
         while discarding most long-range edges — the paper's noise-reducing sampling idea."
    );
}
