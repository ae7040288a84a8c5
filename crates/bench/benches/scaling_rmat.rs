//! Criterion counterpart of Figure 4: extraction time on the three R-MAT
//! presets, across variants and thread counts.
//!
//! Workload sizes are reduced so `cargo bench` completes in minutes; the
//! `experiments figure4` binary covers larger sweeps.

use chordal_bench::workloads::{rmat_graph, thread_sweep};
use chordal_core::{AdjacencyMode, ExtractionSession, ExtractorConfig};
use chordal_generators::rmat::RmatKind;
use chordal_runtime::{available_threads, Engine};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

const SCALE: u32 = 12;

fn bench_scaling_rmat(c: &mut Criterion) {
    let max_threads = available_threads().min(8);
    let mut group = c.benchmark_group("figure4_rmat_scaling");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(1));
    group.warm_up_time(Duration::from_millis(300));

    for kind in [RmatKind::Er, RmatKind::G, RmatKind::B] {
        let named = rmat_graph(kind, SCALE);
        let graph = named.graph;
        group.throughput(Throughput::Elements(graph.num_edges() as u64));
        for &threads in &thread_sweep(max_threads) {
            let mut session = ExtractionSession::new(
                ExtractorConfig::default().with_engine(Engine::chunked(threads)),
            );
            let id = BenchmarkId::new(kind.name(), format!("t{threads}"));
            group.bench_with_input(id, &graph, |b, g| {
                b.iter(|| session.extract(g));
            });
        }
    }
    group.finish();
}

fn bench_opt_vs_unopt(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure4_opt_vs_unopt");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(1));
    group.warm_up_time(Duration::from_millis(300));

    let threads = available_threads().min(8);
    for kind in [RmatKind::Er, RmatKind::B] {
        let named = rmat_graph(kind, SCALE);
        let sorted = named.graph.clone();
        let scrambled = named.graph.with_scrambled_adjacency(0xC0FFEE);
        for (label, graph, mode) in [
            ("Opt", &sorted, AdjacencyMode::Sorted),
            ("Unopt", &scrambled, AdjacencyMode::Unsorted),
        ] {
            let config = ExtractorConfig::default()
                .with_engine(Engine::chunked(threads))
                .with_adjacency(mode);
            let mut session = ExtractionSession::new(config);
            group.bench_with_input(BenchmarkId::new(kind.name(), label), graph, |b, g| {
                b.iter(|| session.extract(g));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_scaling_rmat, bench_opt_vs_unopt);
criterion_main!(benches);
