//! Algorithm 1 versus the baselines it is motivated by, dispatched
//! uniformly through the [`Algorithm`] registry: the serial
//! Dearing–Shier–Warner algorithm, the sequential reference and the
//! partitioned "nearly chordal" approach from the authors' earlier
//! distributed work.

use chordal_bench::workloads::{bio_suite, rmat_graph};
use chordal_core::{Algorithm, ExtractionSession, ExtractorConfig};
use chordal_generators::rmat::RmatKind;
use chordal_runtime::{available_threads, Engine};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

const SCALE: u32 = 11;
const GENES: usize = 500;

fn bench_baselines(c: &mut Criterion) {
    let threads = available_threads().min(8);
    let mut group = c.benchmark_group("baselines");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(1));
    group.warm_up_time(Duration::from_millis(300));

    let mut workloads = vec![
        rmat_graph(RmatKind::Er, SCALE),
        rmat_graph(RmatKind::B, SCALE),
    ];
    workloads.extend(bio_suite(GENES).into_iter().take(1));

    for named in workloads {
        let graph = named.graph;
        // Every algorithm of the registry on the parallel engine, plus
        // Algorithm 1 single-threaded for the serial baseline.
        let mut configs: Vec<(String, ExtractorConfig)> = Algorithm::ALL
            .into_iter()
            .map(|algorithm| {
                let config = ExtractorConfig::default()
                    .with_algorithm(algorithm)
                    .with_engine(Engine::chunked(threads));
                (algorithm.name().to_string(), config)
            })
            .collect();
        configs.push((
            "alg1_serial".to_string(),
            ExtractorConfig::default().with_engine(Engine::serial()),
        ));
        for (label, config) in configs {
            let mut session = ExtractionSession::new(config);
            group.bench_with_input(BenchmarkId::new(label, &named.name), &graph, |b, g| {
                b.iter(|| session.extract(g))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
