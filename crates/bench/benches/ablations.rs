//! Ablation benchmarks for three design choices:
//! iteration semantics (synchronous vs asynchronous), grain size of the
//! dynamic self-scheduling pool, and BFS renumbering of the input.

use chordal_bench::workloads::{bfs_renumbered, rmat_graph};
use chordal_core::{ExtractionSession, ExtractorConfig, Semantics};
use chordal_generators::rmat::RmatKind;
use chordal_runtime::{available_threads, Engine};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

const SCALE: u32 = 11;

fn bench_semantics(c: &mut Criterion) {
    let threads = available_threads().min(8);
    let mut group = c.benchmark_group("ablation_semantics");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(1));
    group.warm_up_time(Duration::from_millis(300));

    let graph = rmat_graph(RmatKind::G, SCALE).graph;
    for (label, semantics) in [
        ("async", Semantics::Asynchronous),
        ("sync", Semantics::Synchronous),
    ] {
        let config = ExtractorConfig::default()
            .with_engine(Engine::chunked(threads))
            .with_semantics(semantics);
        let mut session = ExtractionSession::new(config);
        group.bench_with_input(BenchmarkId::new("RMAT-G", label), &graph, |b, g| {
            b.iter(|| session.extract(g));
        });
    }
    group.finish();
}

fn bench_grain_size(c: &mut Criterion) {
    let threads = available_threads().min(8);
    let mut group = c.benchmark_group("ablation_pool_grain");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(1));
    group.warm_up_time(Duration::from_millis(300));

    let graph = rmat_graph(RmatKind::B, SCALE).graph;
    for grain in [16usize, 64, 256, 1024, 4096] {
        let config =
            ExtractorConfig::default().with_engine(Engine::chunked_with_grain(threads, grain));
        let mut session = ExtractionSession::new(config);
        group.bench_with_input(
            BenchmarkId::new("RMAT-B", format!("grain{grain}")),
            &graph,
            |b, g| b.iter(|| session.extract(g)),
        );
    }
    group.finish();
}

fn bench_bfs_renumbering(c: &mut Criterion) {
    let threads = available_threads().min(8);
    let mut group = c.benchmark_group("ablation_bfs_renumbering");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(1));
    group.warm_up_time(Duration::from_millis(300));

    let original = rmat_graph(RmatKind::B, SCALE).graph;
    let renumbered = bfs_renumbered(&original);
    let mut session =
        ExtractionSession::new(ExtractorConfig::default().with_engine(Engine::chunked(threads)));
    for (label, graph) in [("original", &original), ("bfs-renumbered", &renumbered)] {
        group.bench_with_input(BenchmarkId::new("RMAT-B", label), graph, |b, g| {
            b.iter(|| session.extract(g));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_semantics,
    bench_grain_size,
    bench_bfs_renumbering
);
criterion_main!(benches);
