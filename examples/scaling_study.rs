//! Strong-scaling study on one R-MAT graph: the Figure-4 experiment in
//! miniature, runnable in a few seconds.
//!
//! Run with `cargo run --release --example scaling_study -- [scale]`
//! (default scale 13, i.e. 8,192 vertices and ~65k edges).

use maximal_chordal::prelude::*;
use std::time::Instant;

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(13);
    let max_threads = maximal_chordal::runtime::available_threads();

    println!("generating RMAT-B at scale {scale} (edge factor 8)...");
    let graph = RmatParams::preset(RmatKind::B, scale, 1).generate();
    println!(
        "graph: {} vertices, {} edges, max degree {}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.max_degree()
    );

    println!(
        "\n{:<8} {:>10} {:>12} {:>12} {:>10}",
        "threads", "engine", "seconds", "EC edges", "speedup"
    );

    let mut baseline = None;
    let mut threads = 1usize;
    while threads <= max_threads {
        let engine = Engine::chunked(threads);
        let config = ExtractorConfig::default().with_engine(engine);
        // One session per point: the repeat runs reuse its workspace, so
        // best-of-three measures the allocation-amortised steady state.
        let mut session = ExtractionSession::new(config);
        let mut best = f64::INFINITY;
        let mut edges = 0;
        for _ in 0..3 {
            let start = Instant::now();
            let result = session.extract(&graph);
            best = best.min(start.elapsed().as_secs_f64());
            edges = result.num_chordal_edges();
        }
        let baseline_time = *baseline.get_or_insert(best);
        println!(
            "{threads:<8} {:>10} {best:>12.4} {edges:>12} {:>10.2}",
            engine.name(),
            baseline_time / best
        );
        if threads == max_threads {
            break;
        }
        threads = (threads * 2).min(max_threads);
    }
    println!();
    println!("(the same sweep at paper scale is `cargo run -p chordal-bench --release --bin experiments -- figure4`)");
}
