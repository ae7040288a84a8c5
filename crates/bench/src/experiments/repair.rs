//! Repair ablation: incremental vs scratch maximality repair.
//!
//! The `repair` post-pass restores strict maximality after an `alg1`
//! extraction. It runs the incremental maintainer
//! ([`chordal_core::repair::incremental`]), which keeps the chordal
//! subgraph across candidates and answers each with one early-exit
//! separator search. Its test oracle,
//! [`chordal_core::repair::repair_maximality_reference`] (the `scratch`
//! rows), re-verifies chordality from scratch per candidate edge, which is
//! quadratic over a pass. This ablation times both on a small graph (where
//! the oracle is still tractable) and the maintainer on a benchmark-scale
//! graph of at least 100k edges, recording per point the repair-only
//! seconds next to the base extraction seconds, plus the workspace's
//! allocation-growth delta across the timed repairs — the machine-checked
//! contract that repeated repairs are allocation-free.

use super::HarnessOptions;
use crate::records::RepairPoint;
use crate::timing::time_best_of;
use crate::workloads::SUITE_SEED;
use chordal_core::repair::{
    repair_maximality_assume_chordal, repair_maximality_reference, repair_maximality_with,
};
use chordal_core::verify::is_chordal;
use chordal_core::{AdjacencyMode, ExtractionSession, ExtractorConfig, Workspace};
use chordal_generators::rmat::{RmatKind, RmatParams};
use chordal_graph::CsrGraph;

/// Minimum host-graph size of the ablation's "benchmark scale" point. The
/// incremental maintainer must complete a full repair here; the scratch
/// oracle is only run on the small graph.
pub const LARGE_GRAPH_MIN_EDGES: usize = 100_000;

/// R-MAT scale of the benchmark-scale point (edge factor 8 puts scale 14
/// comfortably above [`LARGE_GRAPH_MIN_EDGES`] after deduplication).
const LARGE_SCALE: u32 = 14;

struct RepairWorkload {
    name: String,
    graph: CsrGraph,
    /// Whether the quadratic scratch oracle is tractable on this graph.
    scratch_too: bool,
    /// Nanoseconds spent generating this host graph (recorded per point as
    /// the cold-start cost next to the extract/repair timings).
    load_ns: u64,
}

fn timed_generate(params: RmatParams) -> (CsrGraph, u64) {
    let start = std::time::Instant::now();
    let graph = params.generate();
    (graph, start.elapsed().as_nanos() as u64)
}

fn workloads(options: &HarnessOptions) -> Vec<RepairWorkload> {
    let small_scale = if options.quick { 7 } else { 10 };
    let (small, small_ns) =
        timed_generate(RmatParams::preset(RmatKind::G, small_scale, SUITE_SEED));
    let (large, large_ns) =
        timed_generate(RmatParams::preset(RmatKind::Er, LARGE_SCALE, SUITE_SEED));
    assert!(
        large.num_edges() >= LARGE_GRAPH_MIN_EDGES,
        "benchmark-scale repair point must cover >= {LARGE_GRAPH_MIN_EDGES} edges, got {}",
        large.num_edges()
    );
    vec![
        RepairWorkload {
            name: format!("RMAT-G({small_scale})"),
            graph: small,
            scratch_too: true,
            load_ns: small_ns,
        },
        RepairWorkload {
            name: format!("RMAT-ER({LARGE_SCALE})"),
            graph: large,
            scratch_too: false,
            load_ns: large_ns,
        },
    ]
}

/// Runs the ablation and returns one point per graph × repair (the
/// maintainer, plus the oracle where it is tractable).
pub fn run(options: &HarnessOptions) -> Vec<RepairPoint> {
    let repeats = options.repeats.max(1);
    let mut points = Vec::new();
    for workload in workloads(options) {
        let graph = &workload.graph;
        // Deterministic base extraction so both repairs start from the
        // exact same edge set.
        let mut session = ExtractionSession::new(ExtractorConfig::serial(AdjacencyMode::Sorted));
        let base = session.extract(graph);
        let mut extract_seconds = f64::MAX;
        for _ in 0..repeats {
            let start = std::time::Instant::now();
            let again = session.extract(graph);
            extract_seconds = extract_seconds.min(start.elapsed().as_secs_f64());
            assert_eq!(again.num_chordal_edges(), base.num_chordal_edges());
        }
        // Certify the base once; the timed repairs then use the
        // assume-chordal entry point that the registry's post-pass runs
        // after alg1 (`ExtractorConfig::extract_into` with `repair` set),
        // so the steady state being measured — and locked allocation-free
        // below — contains no subgraph rebuild at all.
        assert!(
            is_chordal(&base.subgraph(graph)),
            "alg1 output must be chordal"
        );
        let mut workspace = Workspace::new();
        // Warm-up grows the repair scratch; the timed repeats measure (and
        // the allocation delta locks) the steady state. The warm-up goes
        // through the certifying public entry point on purpose, as a
        // differential check against the assume-chordal fast path.
        let outcome = repair_maximality_with(graph, base.edges(), &mut workspace);
        let allocations = workspace.allocations();
        let (elapsed, again) = time_best_of(repeats, || {
            repair_maximality_assume_chordal(graph, base.edges(), &mut workspace)
        });
        assert_eq!(
            again, outcome,
            "certified and assume-chordal repairs must agree"
        );
        let point =
            |strategy: &str, repair_seconds: f64, workspace_bytes, allocations_delta| RepairPoint {
                experiment: "repair".to_string(),
                graph: workload.name.clone(),
                strategy: strategy.to_string(),
                graph_edges: graph.num_edges(),
                base_edges: base.num_chordal_edges(),
                repaired_edges: outcome.edges.len(),
                added: outcome.added.len(),
                examined: outcome.examined,
                extract_seconds,
                repair_seconds,
                workspace_bytes,
                allocations_delta,
                load_ns: workload.load_ns,
            };
        points.push(point(
            "incremental",
            elapsed.as_secs_f64(),
            workspace.allocated_bytes(),
            workspace.allocations() - allocations,
        ));
        if workload.scratch_too {
            // The oracle allocates afresh on every call: no workspace.
            let (elapsed, reference) =
                time_best_of(repeats, || repair_maximality_reference(graph, base.edges()));
            assert_eq!(
                reference, outcome,
                "the reference repair must agree with the maintainer"
            );
            points.push(point("scratch", elapsed.as_secs_f64(), 0, 0));
        }
    }
    points
}

/// Runs the ablation with printing and record output.
pub fn run_and_print(options: &HarnessOptions) -> Vec<RepairPoint> {
    println!("Repair ablation: incremental vs scratch maximality repair (alg1 base)");
    let points = run(options);
    println!(
        "  {:<13} {:>12} {:>10} {:>9} {:>7} {:>9} {:>12} {:>12} {:>7}",
        "graph",
        "strategy",
        "edges",
        "base",
        "added",
        "examined",
        "extract(s)",
        "repair(s)",
        "allocs"
    );
    for p in &points {
        println!(
            "  {:<13} {:>12} {:>10} {:>9} {:>7} {:>9} {:>12.4} {:>12.4} {:>7}",
            p.graph,
            p.strategy,
            p.graph_edges,
            p.base_edges,
            p.added,
            p.examined,
            p.extract_seconds,
            p.repair_seconds,
            p.allocations_delta
        );
    }
    options.write_records(&points);
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use chordal_serve::json::ToJson;

    #[test]
    fn ablation_covers_benchmark_scale_and_strategies_agree() {
        let options = HarnessOptions::tiny();
        let points = run(&options);
        // Small graph under both repairs, large graph incremental only.
        assert_eq!(points.len(), 3);
        let small: Vec<_> = points
            .iter()
            .filter(|p| p.graph.starts_with("RMAT-G"))
            .collect();
        assert_eq!(small.len(), 2);
        assert_eq!(
            small[0].repaired_edges, small[1].repaired_edges,
            "maintainer and oracle must repair to identical edge counts"
        );
        assert_eq!(small[0].added, small[1].added);
        assert_eq!(small[0].examined, small[1].examined);
        let large = points
            .iter()
            .find(|p| p.graph.starts_with("RMAT-ER"))
            .expect("benchmark-scale point");
        assert_eq!(large.strategy, "incremental");
        assert!(
            large.graph_edges >= LARGE_GRAPH_MIN_EDGES,
            "the incremental maintainer must complete on a >= 100k-edge graph"
        );
        assert!(large.repaired_edges >= large.base_edges);
        for p in &points {
            assert!(p.repair_seconds > 0.0);
            assert!(
                p.load_ns > 0,
                "{}: workload build time must be recorded",
                p.graph
            );
            assert!(p.to_json().contains("\"experiment\":\"repair\""));
            assert!(p.to_json().contains("\"load_ns\":"));
            if p.strategy == "incremental" {
                // The regression lock: warmed-up incremental repairs must
                // not grow the workspace (no per-candidate rebuilds).
                assert_eq!(
                    p.allocations_delta, 0,
                    "{}: incremental repair allocated after warm-up",
                    p.graph
                );
            }
        }
    }
}
