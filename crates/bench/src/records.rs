//! Serialisable experiment records.
//!
//! Every experiment run by the `experiments` binary prints a human-readable
//! table *and* appends machine-readable JSON-lines records, so that the
//! checked-in `BENCH_*.json` snapshots and any downstream plotting can be
//! regenerated without re-running the sweeps. Records encode themselves through
//! [`ToJson`], the trait of the project's one JSON encoder in
//! `chordal-serve` (which writes every serve reply too).

use chordal_serve::impl_to_json;
use chordal_serve::json::{JsonObject, ToJson};
use std::io::Write;
use std::path::Path;

/// One timing point of a scaling experiment (Figures 4 and 5, Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// Experiment id (e.g. `"figure4"`).
    pub experiment: String,
    /// Graph name (e.g. `"RMAT-B(14)"`).
    pub graph: String,
    /// Execution engine (`"pool"`).
    pub engine: String,
    /// Algorithm variant (`"Opt"` / `"Unopt"`).
    pub variant: String,
    /// Number of worker threads.
    pub threads: usize,
    /// Wall-clock seconds of the extraction.
    pub seconds: f64,
    /// Number of chordal edges found.
    pub chordal_edges: usize,
    /// Number of outer iterations.
    pub iterations: usize,
    /// Vertices the doacross of the last timed run set aside because a
    /// parent's set was unpublished ([`chordal_core::DoacrossCounts`]); 0 on
    /// one thread.
    pub deferred: usize,
    /// Waits of the last timed run that found their parent's set
    /// unpublished and blocked; 0 on one thread.
    pub blocked_waits: usize,
    /// Heap bytes retained by the session workspace after the runs
    /// ([`chordal_core::Workspace::allocated_bytes`]) — the steady-state
    /// memory footprint of the serving path.
    pub workspace_bytes: usize,
    /// Parallel regions the timed runs submitted to the pool (delta of
    /// [`chordal_runtime::pool_stats`]).
    pub regions: u64,
    /// The pool's calibrated per-region dispatch overhead at this point's
    /// thread count, in nanoseconds
    /// ([`chordal_runtime::estimated_region_overhead_ns_for`]).
    pub region_overhead_ns: u64,
}

impl_to_json!(ScalingPoint {
    experiment,
    graph,
    engine,
    variant,
    threads,
    seconds,
    chordal_edges,
    iterations,
    deferred,
    blocked_waits,
    workspace_bytes,
    regions,
    region_overhead_ns,
});

/// One timing point of the `scheduler` ablation: a mixed batch extracted
/// under one batch-scheduling policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerPoint {
    /// Experiment id (`"scheduler"`).
    pub experiment: String,
    /// Execution engine (`"pool"`).
    pub engine: String,
    /// Number of worker threads.
    pub threads: usize,
    /// Batch policy (`"batch"`, `"intra"`, `"fan-out"`).
    pub policy: String,
    /// Graphs in the batch.
    pub batch_graphs: usize,
    /// Best wall-clock seconds over the repeats.
    pub seconds: f64,
    /// Total chordal edges across the batch.
    pub chordal_edges: usize,
    /// Pool regions attributable to the timed runs (delta).
    pub regions: u64,
    /// Calibrated per-region dispatch overhead for this point's thread
    /// count, nanoseconds
    /// ([`chordal_runtime::estimated_region_overhead_ns_for`]).
    pub region_overhead_ns: u64,
    /// Help-invitation tickets dropped by saturated pool queues during the
    /// timed runs (delta of `pool_stats().tickets_dropped`).
    pub tickets_dropped: u64,
    /// Nanoseconds spent building/loading the batch workload, separated
    /// from the extraction `seconds` so cold-start cost stays visible.
    pub load_ns: u64,
}

impl_to_json!(SchedulerPoint {
    experiment,
    engine,
    threads,
    policy,
    batch_graphs,
    seconds,
    chordal_edges,
    regions,
    region_overhead_ns,
    tickets_dropped,
    load_ns,
});

/// One point of the `repair` ablation: one graph repaired after an `alg1`
/// extraction, by the production maintainer or by the test oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairPoint {
    /// Experiment id (`"repair"`).
    pub experiment: String,
    /// Graph name (e.g. `"RMAT-ER(14)"`).
    pub graph: String,
    /// Which repair ran: `"incremental"` (the production maintainer of
    /// [`chordal_core::repair::repair_maximality_with`]) or `"scratch"`
    /// (the oracle [`chordal_core::repair::repair_maximality_reference`]).
    pub strategy: String,
    /// Edges of the host graph.
    pub graph_edges: usize,
    /// Chordal edges before the repair pass.
    pub base_edges: usize,
    /// Chordal edges after the repair pass.
    pub repaired_edges: usize,
    /// Edges the repair pass added back.
    pub added: usize,
    /// Distinct rejected candidates the pass examined.
    pub examined: usize,
    /// Best wall-clock seconds of the base extraction (no repair).
    pub extract_seconds: f64,
    /// Best wall-clock seconds of the repair pass alone.
    pub repair_seconds: f64,
    /// Heap bytes retained by the repair workspace after the runs (0 for
    /// the oracle, which uses none).
    pub workspace_bytes: usize,
    /// Workspace buffer-growth events during the timed (post-warm-up)
    /// repairs — the regression lock that repeated repairs are
    /// allocation-free (expected 0).
    pub allocations_delta: usize,
    /// Nanoseconds spent building/loading this point's host graph,
    /// separated from the extract/repair timings so cold-start cost stays
    /// visible.
    pub load_ns: u64,
}

impl_to_json!(RepairPoint {
    experiment,
    graph,
    strategy,
    graph_edges,
    base_edges,
    repaired_edges,
    added,
    examined,
    extract_seconds,
    repair_seconds,
    workspace_bytes,
    allocations_delta,
    load_ns,
});

/// One cold-start point of the `storage` experiment: the same graph loaded
/// from one on-disk representation and extracted once warm.
#[derive(Debug, Clone, PartialEq)]
pub struct StoragePoint {
    /// Experiment id (`"storage"`).
    pub experiment: String,
    /// Graph name (e.g. `"RMAT-B(14)"`).
    pub graph: String,
    /// On-disk representation (`"text"`, `"binary"`).
    pub representation: String,
    /// Size of the on-disk file in bytes.
    pub file_bytes: u64,
    /// Nanoseconds to produce the file (text write, or streaming text →
    /// binary conversion).
    pub prepare_ns: u64,
    /// Best-of nanoseconds to load the graph from disk: full text parse
    /// for `"text"`, mmap open + `O(V)` validation for `"binary"`. The
    /// ratio between the two representations is the cold-start speedup the
    /// binary format exists for.
    pub load_ns: u64,
    /// Best wall-clock seconds of one serial extraction from the loaded
    /// representation (identical across representations by construction).
    pub seconds: f64,
    /// Chordal edges extracted (byte-identical across representations;
    /// asserted by the experiment).
    pub chordal_edges: usize,
}

impl_to_json!(StoragePoint {
    experiment,
    graph,
    representation,
    file_bytes,
    prepare_ns,
    load_ns,
    seconds,
    chordal_edges,
});

/// One point of the `kernels` ablation: one intersection variant timed on
/// one input family of synthetic skewed sorted lists, or one correlation
/// kernel timed on the gene networks' expression matrices (`pearson`).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPoint {
    /// Experiment id (`"kernels"`).
    pub experiment: String,
    /// Input family (`"uniform"`, `"skewed-16x"`, `"skewed-256x"`,
    /// `"needle"`, `"pearson"`).
    pub family: String,
    /// Kernel: an intersection (`"merge"`, `"gallop"`, `"adaptive"`) or a
    /// correlation kernel (`"scalar"`, `"blocked"`).
    pub variant: String,
    /// Length of the smaller input list (`pearson`: samples per gene).
    pub len_small: usize,
    /// Length of the larger input list (`pearson`: genes per matrix).
    pub len_large: usize,
    /// Number of intersection calls in the timed sweep (`pearson`: gene
    /// pairs over all matrices).
    pub pairs: usize,
    /// Total elements across both inputs of every pair — the `edge`
    /// denominator of `ns_per_edge` (`pearson`: pairs × samples, one
    /// multiply and add each).
    pub elements: u64,
    /// Best-of wall-clock seconds of the whole sweep.
    pub seconds: f64,
    /// Nanoseconds per input element (`seconds * 1e9 / elements`).
    pub ns_per_edge: f64,
    /// Estimated bytes the variant reads: merge touches both lists in
    /// full, galloping touches the small list plus `O(log |large|)` probes
    /// per element. `pearson`: the computed bytes of standardised rows the
    /// per-pair loop streams, or of tiles and block rows the blocked
    /// kernel streams.
    pub bytes_touched: u64,
    /// Total intersection size across the sweep (`pearson`: edges kept) —
    /// a determinism checksum that must agree across the variants of a
    /// family.
    pub matches: u64,
}

impl_to_json!(KernelPoint {
    experiment,
    family,
    variant,
    len_small,
    len_large,
    pairs,
    elements,
    seconds,
    ns_per_edge,
    bytes_touched,
    matches,
});

/// One point of the `serving` ablation: a closed-loop client population
/// driving one server configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingPoint {
    /// Experiment id (`"serving"`).
    pub experiment: String,
    /// Workload label (e.g. `"hot-cache"`, `"cold-cache"`).
    pub workload: String,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests attempted across all clients.
    pub requests: u64,
    /// Requests answered `ok`.
    pub ok: u64,
    /// Requests answered `overload` by admission control even after the
    /// client retry policy was exhausted.
    pub overloaded: u64,
    /// Requests whose `deadline_ms` expired in the admission queue.
    pub deadline_exceeded: u64,
    /// Overload retries the closed-loop clients performed (server
    /// `retry_after_ms` hints honoured with jittered backoff).
    pub retries: u64,
    /// Median end-to-end request latency, nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile end-to-end request latency, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile end-to-end request latency, nanoseconds.
    pub p99_ns: u64,
    /// Mean server-side extraction time (`extract_ns`) of ok requests.
    pub mean_extract_ns: u64,
    /// Mean server-side pre-extraction time (`wait_ns`: admission + cache
    /// + session setup) of ok requests.
    pub mean_wait_ns: u64,
    /// Mean time ok requests spent parked in the admission queue
    /// (`queue_wait_ns`).
    pub mean_queue_wait_ns: u64,
    /// 95th-percentile admission-queue wait of ok requests, nanoseconds.
    pub p95_queue_wait_ns: u64,
    /// Graph-cache hits over the run (delta of server `STATS`).
    pub cache_hits: u64,
    /// Graph-cache misses over the run (delta).
    pub cache_misses: u64,
    /// Graph-cache evictions over the run (delta).
    pub cache_evictions: u64,
    /// Help-invitation tickets dropped by saturated pool queues over the
    /// run (delta of `pool.tickets_dropped`).
    pub tickets_dropped: u64,
    /// Worker threads of the shared persistent pool.
    pub pool_threads: usize,
}

impl_to_json!(ServingPoint {
    experiment,
    workload,
    clients,
    requests,
    ok,
    overloaded,
    deadline_exceeded,
    retries,
    p50_ns,
    p95_ns,
    p99_ns,
    mean_extract_ns,
    mean_wait_ns,
    mean_queue_wait_ns,
    p95_queue_wait_ns,
    cache_hits,
    cache_misses,
    cache_evictions,
    tickets_dropped,
    pool_threads,
});

/// A free-form experiment record: an id plus a JSON-encodable payload. Used
/// for the non-timing experiments (Table I, Figures 2-3, 7, Table II,
/// chordal fractions).
#[derive(Debug, Clone)]
pub struct ExperimentRecord<T> {
    /// Experiment id (e.g. `"table1"`).
    pub experiment: String,
    /// Payload.
    pub data: T,
}

impl<T: ToJson> ToJson for ExperimentRecord<T> {
    fn write_json(&self, out: &mut String) {
        JsonObject::new()
            .field("experiment", &self.experiment)
            .field("data", &self.data)
            .write_json(out);
    }
}

/// Appends encodable records to a JSON-lines file, creating it (and its
/// parent directory) if needed.
pub fn append_jsonl<T: ToJson>(path: &Path, records: &[T]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for r in records {
        writeln!(file, "{}", r.to_json())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_point_serialises_to_json() {
        let p = ScalingPoint {
            experiment: "figure4".into(),
            graph: "RMAT-ER(10)".into(),
            engine: "pool".into(),
            variant: "Opt".into(),
            threads: 4,
            seconds: 0.125,
            chordal_edges: 1000,
            iterations: 3,
            deferred: 12,
            blocked_waits: 2,
            workspace_bytes: 65_536,
            regions: 40,
            region_overhead_ns: 4_200,
        };
        let json = p.to_json();
        assert!(json.contains("\"threads\":4"));
        assert!(json.contains("RMAT-ER"));
        assert!(json.contains("\"deferred\":12,\"blocked_waits\":2"));
        assert!(json.contains("\"workspace_bytes\":65536"));
        assert!(json.contains("\"regions\":40"));
        assert!(json.contains("\"region_overhead_ns\":4200"));
    }

    #[test]
    fn scheduler_point_serialises_to_json() {
        let p = SchedulerPoint {
            experiment: "scheduler".into(),
            engine: "pool".into(),
            threads: 4,
            policy: "batch".into(),
            batch_graphs: 17,
            seconds: 0.01,
            chordal_edges: 999,
            regions: 21,
            region_overhead_ns: 5_000,
            tickets_dropped: 0,
            load_ns: 1_500_000,
        };
        let json = p.to_json();
        assert!(json.contains("\"experiment\":\"scheduler\""));
        assert!(json.contains("\"policy\":\"batch\""));
        assert!(json.contains("\"batch_graphs\":17"));
        assert!(json.contains("\"tickets_dropped\":0"));
        assert!(json.contains("\"load_ns\":1500000"));
    }

    #[test]
    fn repair_point_serialises_to_json() {
        let p = RepairPoint {
            experiment: "repair".into(),
            graph: "RMAT-ER(14)".into(),
            strategy: "incremental".into(),
            graph_edges: 131_000,
            base_edges: 15_000,
            repaired_edges: 16_000,
            added: 1_000,
            examined: 115_000,
            extract_seconds: 0.007,
            repair_seconds: 0.008,
            workspace_bytes: 1_048_576,
            allocations_delta: 0,
            load_ns: 2_000_000,
        };
        let json = p.to_json();
        assert!(json.contains("\"experiment\":\"repair\""));
        assert!(json.contains("\"strategy\":\"incremental\""));
        assert!(json.contains("\"graph_edges\":131000"));
        assert!(json.contains("\"allocations_delta\":0"));
        assert!(json.contains("\"load_ns\":2000000"));
    }

    #[test]
    fn storage_point_serialises_to_json() {
        let p = StoragePoint {
            experiment: "storage".into(),
            graph: "RMAT-B(14)".into(),
            representation: "binary".into(),
            file_bytes: 4_194_304,
            prepare_ns: 90_000_000,
            load_ns: 350_000,
            seconds: 0.02,
            chordal_edges: 40_000,
        };
        let json = p.to_json();
        assert!(json.contains("\"experiment\":\"storage\""));
        assert!(json.contains("\"representation\":\"binary\""));
        assert!(json.contains("\"file_bytes\":4194304"));
        assert!(json.contains("\"prepare_ns\":90000000"));
        assert!(json.contains("\"load_ns\":350000"));
    }

    #[test]
    fn append_jsonl_writes_one_line_per_record() {
        let dir = std::env::temp_dir().join("chordal_bench_records_test");
        let path = dir.join("records.jsonl");
        let _ = std::fs::remove_file(&path);
        let records = vec![
            ExperimentRecord {
                experiment: "t".into(),
                data: 1usize,
            },
            ExperimentRecord {
                experiment: "t".into(),
                data: 2usize,
            },
        ];
        append_jsonl(&path, &records).unwrap();
        append_jsonl(&path, &records).unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents.lines().count(), 4);
        assert!(contents.starts_with("{\"experiment\":\"t\",\"data\":1}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
