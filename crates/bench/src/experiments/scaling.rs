//! Scaling experiments: Figures 4 and 5.
//!
//! * **Figure 4** — strong and weak scaling of the Opt/Unopt variants on the
//!   three R-MAT presets, on the pool engine. The paper's two hardware
//!   platforms (Cray XMT, AMD Opteron) are machines, not schedulers, so
//!   one engine stands for both; the paper's Figure 6 (the two platforms on
//!   the same RMAT-ER / RMAT-B input) is a subset of this sweep.
//! * **Figure 5** — the same sweep on the four gene-correlation networks.

use super::HarnessOptions;
use crate::records::ScalingPoint;
use crate::timing::time_best_of;
use crate::workloads::{bio_suite, rmat_graph, NamedGraph};
use chordal_core::{AdjacencyMode, ExtractionSession, ExtractorConfig};
use chordal_generators::rmat::RmatKind;
use chordal_graph::CsrGraph;
use chordal_runtime::Engine;
use std::borrow::Cow;

/// The input of `variant`: the sorted graph itself for Opt, and for Unopt
/// a deterministically scrambled copy (the paper's unoptimised code stores
/// neighbour lists in generator order), so a graph is copied only when an
/// Unopt point is measured, and only while it is.
pub fn variant_input(graph: &CsrGraph, variant: AdjacencyMode) -> Cow<'_, CsrGraph> {
    match variant {
        AdjacencyMode::Sorted => Cow::Borrowed(graph),
        AdjacencyMode::Unsorted => Cow::Owned(graph.with_scrambled_adjacency(0xC0FFEE)),
    }
}

/// Measures one timing point of the graph `name` on the pool engine at
/// `threads`, given its input for `variant` ([`variant_input`]).
pub fn measure_point(
    experiment: &str,
    name: &str,
    input: &CsrGraph,
    variant: AdjacencyMode,
    threads: usize,
    repeats: usize,
) -> ScalingPoint {
    let engine = Engine::chunked(threads);
    let config = ExtractorConfig::default()
        .with_engine(engine)
        .with_adjacency(variant);
    // A session per point: repeats after the first reuse the workspace, so
    // best-of-N measures the steady (allocation-amortised) serving path.
    let mut session = ExtractionSession::new(config);
    let stats_before = chordal_runtime::pool_stats();
    let (elapsed, result) = time_best_of(repeats, || session.extract(input));
    let stats = chordal_runtime::pool_stats();
    ScalingPoint {
        experiment: experiment.to_string(),
        graph: name.to_string(),
        engine: engine.name().to_string(),
        variant: variant.label().to_string(),
        threads,
        seconds: elapsed.as_secs_f64(),
        chordal_edges: result.num_chordal_edges(),
        iterations: result.iterations,
        workspace_bytes: session.workspace().allocated_bytes(),
        regions: stats.regions - stats_before.regions,
        region_overhead_ns: chordal_runtime::estimated_region_overhead_ns_for(threads),
    }
}

/// Runs a full strong-scaling sweep over one graph.
pub fn sweep_graph(
    experiment: &str,
    named: &NamedGraph,
    options: &HarnessOptions,
) -> Vec<ScalingPoint> {
    let mut points = Vec::new();
    for variant in [AdjacencyMode::Sorted, AdjacencyMode::Unsorted] {
        let input = variant_input(&named.graph, variant);
        for &threads in &options.threads() {
            points.push(measure_point(
                experiment,
                &named.name,
                &input,
                variant,
                threads,
                options.repeats,
            ));
        }
    }
    points
}

fn print_points(points: &[ScalingPoint]) {
    println!(
        "  {:<16} {:>6} {:>7} {:>8} {:>10} {:>12} {:>6}",
        "graph", "engine", "variant", "threads", "seconds", "EC edges", "iters"
    );
    for p in points {
        println!(
            "  {:<16} {:>6} {:>7} {:>8} {:>10.4} {:>12} {:>6}",
            p.graph, p.engine, p.variant, p.threads, p.seconds, p.chordal_edges, p.iterations
        );
    }
}

/// Figure 4: strong + weak scaling on the R-MAT presets.
pub fn figure4(options: &HarnessOptions) -> Vec<ScalingPoint> {
    let mut all = Vec::new();
    for kind in [RmatKind::Er, RmatKind::G, RmatKind::B] {
        for scale in options.weak_scaling_scales() {
            all.extend(sweep_graph("figure4", &rmat_graph(kind, scale), options));
        }
    }
    all
}

/// Figure 4 with printing and record output.
pub fn figure4_and_print(options: &HarnessOptions) -> Vec<ScalingPoint> {
    println!("Figure 4: scaling of Algorithm 1 on the R-MAT suite");
    let points = figure4(options);
    print_points(&points);
    options.write_records(&points);
    points
}

/// Figure 5: scaling on the gene-correlation networks.
pub fn figure5(options: &HarnessOptions) -> Vec<ScalingPoint> {
    let mut all = Vec::new();
    for named in bio_suite(options.genes) {
        all.extend(sweep_graph("figure5", &named, options));
    }
    all
}

/// Figure 5 with printing and record output.
pub fn figure5_and_print(options: &HarnessOptions) -> Vec<ScalingPoint> {
    println!("Figure 5: scaling of Algorithm 1 on the gene-correlation networks");
    let points = figure5(options);
    print_points(&points);
    options.write_records(&points);
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::rmat_graph;

    #[test]
    fn measure_point_produces_consistent_metadata() {
        let named = rmat_graph(RmatKind::Er, 8);
        let p = measure_point(
            "test",
            &named.name,
            &named.graph,
            AdjacencyMode::Sorted,
            2,
            1,
        );
        assert_eq!(p.threads, 2);
        assert_eq!(p.engine, "pool");
        assert_eq!(p.variant, "Opt");
        assert!(p.seconds > 0.0);
        assert!(p.chordal_edges > 0);
        assert!(p.iterations > 0);
        assert!(
            p.workspace_bytes > 0,
            "a timed session must retain workspace buffers"
        );
    }

    #[test]
    fn opt_and_unopt_find_subgraphs_of_similar_size() {
        let named = rmat_graph(RmatKind::G, 8);
        let sorted = variant_input(&named.graph, AdjacencyMode::Sorted);
        assert!(matches!(sorted, Cow::Borrowed(_)), "Opt copies nothing");
        let point = |variant| {
            let input = variant_input(&named.graph, variant);
            measure_point("test", &named.name, &input, variant, 2, 1)
        };
        let (opt, unopt) = (point(AdjacencyMode::Sorted), point(AdjacencyMode::Unsorted));
        let ratio = opt.chordal_edges as f64 / unopt.chordal_edges as f64;
        assert!(ratio > 0.9 && ratio < 1.1, "ratio {ratio}");
    }
}
