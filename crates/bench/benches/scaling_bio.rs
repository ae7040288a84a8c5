//! Criterion counterpart of Figure 5: extraction time on the synthetic
//! gene-correlation networks across thread counts.

use chordal_bench::workloads::{bio_suite, thread_sweep};
use chordal_core::{ExtractionSession, ExtractorConfig};
use chordal_runtime::{available_threads, Engine};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

const GENES: usize = 600;

fn bench_scaling_bio(c: &mut Criterion) {
    let max_threads = available_threads().min(8);
    let mut group = c.benchmark_group("figure5_bio_scaling");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(1));
    group.warm_up_time(Duration::from_millis(300));

    for named in bio_suite(GENES) {
        let graph = named.graph;
        group.throughput(Throughput::Elements(graph.num_edges() as u64));
        for &threads in &thread_sweep(max_threads) {
            let mut session = ExtractionSession::new(
                ExtractorConfig::default().with_engine(Engine::chunked(threads)),
            );
            let id = BenchmarkId::new(&named.name, format!("t{threads}"));
            group.bench_with_input(id, &graph, |b, g| {
                b.iter(|| session.extract(g));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_scaling_bio);
criterion_main!(benches);
