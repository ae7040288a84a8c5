//! `chordal` — command-line front end for the maximal chordal subgraph
//! library.
//!
//! ```text
//! chordal generate --kind rmat-b --scale 14 --out graph.txt
//! chordal generate --kind bio-unt --genes 2000 --out genes.txt
//! chordal convert  --in graph.txt --out graph.bin [--window-bytes N] [--verify]
//! chordal extract  --in graph.txt --out chordal.txt [--algorithm alg1|reference|dearing|partitioned]
//!                  [--threads 8] [--engine pool|serial] [--variant opt|unopt]
//!                  [--partitions N] [--stats] [--stitch] [--repair] [--format text|bin|auto]
//! chordal batch    --in a.txt,b.bin,c.txt [--threads 8] [--engine pool|serial]
//!                  [--repeat N] [...extract flags]
//! chordal analyze  --in graph.txt
//! chordal verify   --graph graph.txt --subgraph chordal.txt
//! chordal serve    [--addr 127.0.0.1:0] [--max-sessions N] [--max-inflight N]
//!                  [--max-queue N] [--default-deadline-ms N] [--drain-timeout-ms N]
//!                  [--cache-budget-bytes N] [--engine pool|serial] [--threads N]
//! ```
//!
//! `--engine rayon` (and `chunked`) is accepted as an alias of `pool`.
//! `--algorithm alg1` (the default) runs Algorithm 1 as one ascending pass,
//! with one output on every engine and thread count; `--algorithm
//! reference` runs the bulk-synchronous reading of the pseudocode serially,
//! the one whose `--stats` trace has the paper's per-iteration meaning.
//!
//! Every graph-loading path accepts either a plain-text edge list or the
//! binary CSR format of [`chordal_graph::storage`]; the format is sniffed
//! from the magic bytes by default and can be forced with `--format`.
//! Binary inputs are memory-mapped ([`chordal_graph::MmapCsrGraph`]),
//! verified against their checksum, and extracted in place — `convert`
//! produces them from text in bounded memory via the streaming converter.
//!
//! `batch` drives many input files through
//! [`ExtractionSession::extract_batch`]: on a parallel engine the files fan
//! out longest first across the engine's workers, each extracted serially;
//! a serial engine or a single file runs sequentially. The command reports
//! the placement the session used (`fan-out` over how many participants, or
//! `sequential`), per-file results and the pool's scheduling counters for
//! the run.
//!
//! All extraction configuration parsing goes through one parser of
//! `chordal-core` ([`ExtractorConfig::from_keys`], which serve shares), and
//! every failure is a structured
//! [`ExtractError`] mapped to a distinct exit code: 2 for usage/parse
//! errors (an unknown flag among them, which also prints the usage text),
//! 3 for I/O failures (a closed stdout among them), 4 for failed
//! verifications.

use chordal_analysis::clustering::average_clustering;
use chordal_analysis::degree_assortativity;
use chordal_core::connect::stitch_components;
use chordal_core::verify::{check_maximality, is_chordal, MaximalityReport};
use chordal_core::{ExtractError, ExtractionSession, ExtractorConfig};
use chordal_generators::bio::GeneNetworkKind;
use chordal_generators::rmat::{RmatKind, RmatParams};
use chordal_graph::io::{write_edge_list_file, write_edges};
use chordal_graph::storage::{
    convert_edge_list_to_binary_with, ConvertOptions, FileFormat, LoadedGraph, MmapCsrGraph,
};
use chordal_graph::subgraph::edges_subset_of_graph;
use chordal_graph::{CsrGraph, GraphError, GraphRef, GraphStats};
use chordal_serve::ServeConfig;
use std::collections::HashMap;
use std::io::Write as _;
use std::process::ExitCode;

/// Writes one line to stdout through [`say`]; every line the CLI prints
/// goes through here.
macro_rules! say {
    ($($arg:tt)*) => {
        say(format_args!($($arg)*))
    };
}

/// Writes `line` and a newline to stdout. The process ignores SIGPIPE (Rust
/// sets that up, and `serve` relies on it to outlive a client that vanishes
/// mid-write), so a closed stdout (`chordal analyze ... | head -c 1`) is a
/// `BrokenPipe` error here, where `println!` would panic. It ends the
/// command as an I/O error: exit code 3.
fn say(line: std::fmt::Arguments<'_>) -> Result<(), ExtractError> {
    writeln!(std::io::stdout().lock(), "{line}")
        .map_err(|e| ExtractError::io("writing to stdout", e))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        // Exit 2 whether or not the usage text could be written.
        let _ = say!("{USAGE}");
        return ExitCode::from(2);
    }
    let command = args[0].clone();
    let outcome = parse_flags(&args[1..]).and_then(|options| match command.as_str() {
        "generate" => cmd_generate(&options),
        "convert" => cmd_convert(&options),
        "extract" => cmd_extract(&options),
        "batch" => cmd_batch(&options),
        "analyze" => cmd_analyze(&options),
        "verify" => cmd_verify(&options),
        "serve" => cmd_serve(&options),
        "help" | "--help" | "-h" => say!("{USAGE}"),
        other => Err(ExtractError::UnknownCommand(other.to_string())),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("error: {error}");
            if matches!(error, ExtractError::UnexpectedArgument(_)) {
                eprintln!("{USAGE}");
            }
            ExitCode::from(error.exit_code())
        }
    }
}

const USAGE: &str = "chordal — maximal chordal subgraph toolkit\n\
    \n\
    commands:\n\
    \x20 generate --kind <rmat-er|rmat-g|rmat-b|bio-crt|bio-unt|bio-ctl|bio-non> \n\
    \x20          [--scale N] [--genes N] [--seed N] --out FILE\n\
    \x20 convert  --in FILE --out FILE [--window-bytes N] [--verify]\n\
    \x20 extract  --in FILE [--out FILE] [--algorithm alg1|reference|dearing|partitioned]\n\
    \x20          [--threads N] [--engine serial|pool] [--variant opt|unopt]\n\
    \x20          [--partitions N] [--stats] [--stitch] [--repair]\n\
    \x20 batch    --in FILE[,FILE...] [--repeat N] [...extract flags]\n\
    \x20 analyze  --in FILE\n\
    \x20 verify   --graph FILE --subgraph FILE [--maximality N]\n\
    \x20 serve    [--addr HOST:PORT] [--max-sessions N] [--max-inflight N]\n\
    \x20          [--max-queue N] [--default-deadline-ms N] [--drain-timeout-ms N]\n\
    \x20          [--cache-budget-bytes N] [--engine serial|pool] [--threads N]\n\
    \x20 help\n\
    \n\
    graph inputs may be text edge lists or binary CSR files (`convert`\n\
    produces the latter); the format is auto-detected, or forced with\n\
    --format text|bin|auto on any graph-loading command; `rayon` is\n\
    accepted as an alias of the `pool` engine.\n\
    \n\
    `alg1` (the default) runs Algorithm 1 as one ascending pass, with one\n\
    output on every engine and thread count; `reference` runs the\n\
    bulk-synchronous reading of its pseudocode serially.\n\
    \n\
    exit codes: 0 success, 2 usage error, 3 I/O error, 4 verification failure";

type Flags = HashMap<String, String>;

/// Flags that take no value.
const SWITCHES: &[&str] = &["stats", "stitch", "repair", "verify"];

/// Flags that take a value.
const OPTIONS: &[&str] = &[
    "in",
    "out",
    "format",
    "kind",
    "scale",
    "genes",
    "seed",
    "window-bytes",
    "algorithm",
    "threads",
    "engine",
    "variant",
    "partitions",
    "repeat",
    "graph",
    "subgraph",
    "maximality",
    "addr",
    "max-sessions",
    "max-inflight",
    "max-queue",
    "default-deadline-ms",
    "drain-timeout-ms",
    "cache-budget-bytes",
];

fn parse_flags(args: &[String]) -> Result<Flags, ExtractError> {
    let mut flags = Flags::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let name = match arg.strip_prefix("--") {
            Some(name) if SWITCHES.contains(&name) => {
                flags.insert(name.to_string(), "true".to_string());
                continue;
            }
            Some(name) if OPTIONS.contains(&name) => name,
            _ => return Err(ExtractError::UnexpectedArgument(arg.clone())),
        };
        let value = iter
            .next()
            .ok_or_else(|| ExtractError::MissingOption(name.to_string()))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn require<'a>(flags: &'a Flags, key: &str) -> Result<&'a str, ExtractError> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| ExtractError::MissingOption(key.to_string()))
}

fn parse_number<T: std::str::FromStr>(
    flags: &Flags,
    key: &str,
    default: T,
) -> Result<T, ExtractError> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse::<T>()
            .map_err(|_| ExtractError::invalid_option(key, v)),
    }
}

/// The graph families `generate` can produce: one parse table, one
/// construction point — no per-preset duplication.
enum GraphKind {
    Rmat(RmatKind),
    Bio(GeneNetworkKind),
}

impl GraphKind {
    fn parse(name: &str) -> Result<Self, ExtractError> {
        match name {
            "rmat-er" => Ok(GraphKind::Rmat(RmatKind::Er)),
            "rmat-g" => Ok(GraphKind::Rmat(RmatKind::G)),
            "rmat-b" => Ok(GraphKind::Rmat(RmatKind::B)),
            "bio-crt" => Ok(GraphKind::Bio(GeneNetworkKind::Gse5140Crt)),
            "bio-unt" => Ok(GraphKind::Bio(GeneNetworkKind::Gse5140Unt)),
            "bio-ctl" => Ok(GraphKind::Bio(GeneNetworkKind::Gse17072Ctl)),
            "bio-non" => Ok(GraphKind::Bio(GeneNetworkKind::Gse17072Non)),
            other => Err(ExtractError::invalid_option("kind", other)),
        }
    }

    fn generate(&self, flags: &Flags, seed: u64) -> Result<CsrGraph, ExtractError> {
        match self {
            GraphKind::Rmat(kind) => {
                let scale: u32 = parse_number(flags, "scale", 14)?;
                Ok(RmatParams::preset(*kind, scale, seed).generate())
            }
            GraphKind::Bio(kind) => {
                let genes: usize = parse_number(flags, "genes", 1_200)?;
                Ok(kind.network(genes, seed))
            }
        }
    }
}

fn cmd_generate(flags: &Flags) -> Result<(), ExtractError> {
    let kind = require(flags, "kind")?;
    let out = require(flags, "out")?;
    let seed: u64 = parse_number(flags, "seed", 1)?;
    let graph = GraphKind::parse(kind)?.generate(flags, seed)?;
    write_edge_list_file(&graph, out).map_err(|e| ExtractError::io(format!("writing {out}"), e))?;
    say!(
        "generated {kind}: {} vertices, {} edges -> {out}",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    Ok(())
}

/// Resolves the `--format` flag (absent or `auto` means sniff the file).
fn requested_format(flags: &Flags) -> Result<Option<FileFormat>, ExtractError> {
    match flags.get("format") {
        None => Ok(None),
        Some(name) => {
            FileFormat::parse(name).map_err(|_| ExtractError::invalid_option("format", name))
        }
    }
}

/// Loads a graph in whichever on-disk format it uses: text edge lists
/// parse into heap CSR, binary CSR files are memory-mapped and pass the
/// checksum walk of `convert --verify`, which also rejects adjacency
/// entries past the last vertex before any command indexes with them.
fn load_input(path: &str, format: Option<FileFormat>) -> Result<LoadedGraph, ExtractError> {
    let loaded = chordal_graph::storage::load_graph(path, format)
        .map_err(|e| ExtractError::io(format!("reading {path}"), e))?;
    if let LoadedGraph::Mapped(mapped) = &loaded {
        mapped
            .verify_checksum()
            .map_err(|e| ExtractError::io(format!("verifying {path}"), e))?;
    }
    Ok(loaded)
}

fn cmd_convert(flags: &Flags) -> Result<(), ExtractError> {
    let input = require(flags, "in")?;
    let output = require(flags, "out")?;
    let mut options = ConvertOptions::default();
    options.window_bytes = parse_number(flags, "window-bytes", options.window_bytes)?;
    if options.window_bytes == 0 {
        return Err(ExtractError::invalid_option("window-bytes", "0"));
    }
    let start = std::time::Instant::now();
    let stats = convert_edge_list_to_binary_with(input, output, options)
        .map_err(|e| ExtractError::io(format!("converting {input}"), e))?;
    let elapsed = start.elapsed();
    say!(
        "converted {input} -> {output}: {} vertices, {} edges ({} directed entries), {} spill bucket(s), {:.4}s",
        stats.num_vertices,
        stats.num_canonical_edges,
        stats.num_directed_edges,
        stats.buckets,
        elapsed.as_secs_f64()
    )?;
    if flags.contains_key("verify") {
        let mapped = MmapCsrGraph::open(output)
            .map_err(|e| ExtractError::io(format!("reopening {output}"), e))?;
        mapped.verify_checksum().map_err(|e| {
            ExtractError::Verification(format!("checksum of {output} does not match: {e}"))
        })?;
        say!(
            "verified {output}: header valid, checksum matches ({} vertices, {} edges)",
            mapped.view().num_vertices(),
            mapped.view().num_edges()
        )?;
    }
    Ok(())
}

/// Builds the extraction configuration from the shared flag set through
/// the core's key parser (serve parses its request arguments with the
/// same one), on the `pool` engine over every available thread unless the
/// flags say otherwise. `--repair` is a switch stored as `true`.
fn extraction_config(flags: &Flags) -> Result<ExtractorConfig, ExtractError> {
    let config = ExtractorConfig::from_keys(
        |key| flags.get(key).map(String::as_str),
        "pool",
        chordal_runtime::available_threads(),
    )?;
    Ok(config.with_stats(flags.contains_key("stats")))
}

fn cmd_extract(flags: &Flags) -> Result<(), ExtractError> {
    let input = require(flags, "in")?;
    let loaded = load_input(input, requested_format(flags)?)?;
    let view = loaded.as_graph_ref();
    let config = extraction_config(flags)?;
    let mut session = ExtractionSession::new(config);
    let start = std::time::Instant::now();
    let result = session.extract(view);
    let elapsed = start.elapsed();
    say!(
        "{}: extracted {} chordal edges out of {} ({:.2}%) in {} iterations, {:.4}s",
        session.extractor_name(),
        result.num_chordal_edges(),
        view.num_edges(),
        100.0 * result.chordal_fraction(view),
        result.iterations,
        elapsed.as_secs_f64()
    )?;
    if let Some(stats) = &result.stats {
        say!("queue sizes per iteration: {:?}", stats.queue_sizes)?;
    }
    let mut edges = result.edges().to_vec();
    if flags.contains_key("stitch") {
        // Stitching walks the host adjacency repeatedly; run it on a heap
        // graph (a no-op borrow for text inputs, one materialisation for
        // mmapped ones).
        let stitched = match &loaded {
            LoadedGraph::Heap(g) => stitch_components(g, &edges),
            LoadedGraph::Mapped(_) => stitch_components(&loaded.to_csr_graph(), &edges),
        };
        say!(
            "stitching: {} -> {} components, {} edges added",
            stitched.components_before,
            stitched.components_after,
            stitched.added_edges.len()
        )?;
        // Each added edge joins two components, so it is canonical and new:
        // one sort restores the result's ascending order.
        edges.extend(stitched.added_edges);
        edges.sort_unstable();
    }
    if let Some(out) = flags.get("out") {
        std::fs::File::create(out)
            .map_err(GraphError::from)
            .and_then(|file| {
                write_edges(
                    view.num_vertices(),
                    edges.len(),
                    edges.iter().copied(),
                    file,
                )
            })
            .map_err(|e| ExtractError::io(format!("writing {out}"), e))?;
        say!("chordal subgraph written to {out}")?;
    }
    Ok(())
}

fn cmd_batch(flags: &Flags) -> Result<(), ExtractError> {
    let inputs = require(flags, "in")?;
    let paths: Vec<&str> = inputs.split(',').filter(|p| !p.is_empty()).collect();
    if paths.is_empty() {
        return Err(ExtractError::invalid_option("in", inputs));
    }
    let format = requested_format(flags)?;
    let graphs: Vec<LoadedGraph> = paths
        .iter()
        .map(|path| load_input(path, format))
        .collect::<Result<_, _>>()?;
    let repeats: usize = parse_number(flags, "repeat", 1)?;
    if repeats == 0 {
        return Err(ExtractError::invalid_option("repeat", "0"));
    }
    let config = extraction_config(flags)?;
    let mut session = ExtractionSession::new(config);
    // Mixed text/binary batches flow through the scheduler as uniform
    // storage-agnostic views; mmapped inputs are extracted in place.
    let views: Vec<GraphRef<'_>> = graphs.iter().map(|g| g.as_graph_ref()).collect();
    let engine = &session.config().engine;
    say!(
        "batch: {} graphs, engine {} x{}, {} repeat(s)",
        graphs.len(),
        engine.name(),
        engine.threads(),
        repeats
    )?;
    let stats_before = chordal_runtime::pool_stats();
    let mut results = Vec::new();
    let mut best = f64::MAX;
    let start = std::time::Instant::now();
    for _ in 0..repeats {
        let round_start = std::time::Instant::now();
        results = session.extract_batch(&views);
        best = best.min(round_start.elapsed().as_secs_f64());
    }
    let total = start.elapsed().as_secs_f64();
    let stats = chordal_runtime::pool_stats();
    let placement = match session.batch_participants() {
        0 => {
            say!("placement: sequential")?;
            "sequential"
        }
        participants => {
            say!("placement: fan-out over {participants} participant(s), longest first")?;
            "fan-out"
        }
    };
    for (path, (&view, result)) in paths.iter().zip(views.iter().zip(&results)) {
        say!(
            "  {:<32} {:>9} edges -> {:>9} chordal ({:.2}%) [{placement}]",
            path,
            view.num_canonical_edges(),
            result.num_chordal_edges(),
            100.0 * result.chordal_fraction(view),
        )?;
    }
    say!(
        "batch done: {} chordal edges total, best {:.4}s (total {:.4}s); pool: +{} regions, +{} tickets, +{} dropped",
        results.iter().map(|r| r.num_chordal_edges()).sum::<usize>(),
        best,
        total,
        stats.regions - stats_before.regions,
        stats.tickets - stats_before.tickets,
        stats.tickets_dropped - stats_before.tickets_dropped,
    )?;
    Ok(())
}

/// Set from the signal handler; the serve loop polls it and turns the
/// signal into the same graceful drain `SHUTDOWN` performs.
static SHUTDOWN_SIGNAL: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_signum: i32) {
    // A store to an atomic is async-signal-safe; everything else (the
    // drain itself, printing) happens on the main thread.
    SHUTDOWN_SIGNAL.store(true, std::sync::atomic::Ordering::SeqCst);
}

#[cfg(unix)]
fn install_shutdown_signal_handlers() {
    // Minimal libc binding — std already links libc on unix, so no new
    // dependency. `signal` is sufficient here: the handler only stores a
    // flag, so SA_RESTART semantics don't matter.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal(2)` with a handler that only stores to an atomic —
    // async-signal-safe — and function-pointer-to-usize casts matching the
    // C prototype; installing a handler has no memory-safety preconditions.
    unsafe {
        signal(SIGINT, on_shutdown_signal as *const () as usize);
        signal(SIGTERM, on_shutdown_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_shutdown_signal_handlers() {}

fn cmd_serve(flags: &Flags) -> Result<(), ExtractError> {
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| defaults.addr.clone()),
        max_sessions: parse_number(flags, "max-sessions", defaults.max_sessions)?,
        max_inflight: parse_number(flags, "max-inflight", defaults.max_inflight)?,
        // `--max-queue 0` is legal: bounce-only admission, no queueing.
        max_queue: parse_number(flags, "max-queue", defaults.max_queue)?,
        default_deadline_ms: parse_number(
            flags,
            "default-deadline-ms",
            defaults.default_deadline_ms,
        )?,
        drain_timeout_ms: parse_number(flags, "drain-timeout-ms", defaults.drain_timeout_ms)?,
        cache_budget_bytes: parse_number(flags, "cache-budget-bytes", defaults.cache_budget_bytes)?,
        default_engine: flags
            .get("engine")
            .cloned()
            .unwrap_or_else(|| defaults.default_engine.clone()),
        default_threads: parse_number(flags, "threads", defaults.default_threads)?,
        // The HOLD saturation hook is a test-only verb; the CLI never
        // exposes it.
        test_hooks: false,
    };
    if config.max_sessions == 0 || config.max_inflight == 0 {
        return Err(ExtractError::invalid_option(
            "max-sessions/max-inflight",
            "0",
        ));
    }
    // Validate the default engine spelling up front rather than on the
    // first EXTRACT of every connection.
    ExtractorConfig::default().with_engine_name(&config.default_engine, config.default_threads)?;
    install_shutdown_signal_handlers();
    let mut handle =
        chordal_serve::Server::start(config).map_err(|e| ExtractError::io("starting server", e))?;
    // Scripted clients read this line to learn the bound port (`--addr`
    // with port 0 picks a free one).
    say!("serving on {}", handle.addr())?;
    while !handle.is_shut_down() {
        if SHUTDOWN_SIGNAL.load(std::sync::atomic::Ordering::SeqCst) {
            say!("signal received, draining")?;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    // Either path ends in the same graceful drain: stop accepting, wait up
    // to --drain-timeout-ms for queued and in-flight requests, answer any
    // straggler, then close.
    handle.shutdown();
    say!("server stopped")?;
    Ok(())
}

fn cmd_analyze(flags: &Flags) -> Result<(), ExtractError> {
    let input = require(flags, "in")?;
    // The analysis helpers (clustering, assortativity, chordality) all
    // walk heap adjacency slices, so mmapped inputs materialise once.
    let graph = load_input(input, requested_format(flags)?)?.to_csr_graph();
    say!("{}", GraphStats::header())?;
    say!("{}", GraphStats::compute(&graph).row(input))?;
    say!(
        "average clustering coefficient: {:.4}",
        average_clustering(&graph)
    )?;
    say!(
        "degree assortativity:           {:.4}",
        degree_assortativity(&graph)
    )?;
    let components = chordal_graph::traversal::connected_components(&graph);
    say!("connected components:           {}", components.count)?;
    say!("already chordal:                {}", is_chordal(&graph))?;
    let memory = graph.memory_breakdown();
    say!(
        "memory bytes:                   {} (offsets {}, neighbors {})",
        memory.total_bytes(),
        memory.offsets_bytes,
        memory.neighbors_bytes
    )?;
    Ok(())
}

fn cmd_verify(flags: &Flags) -> Result<(), ExtractError> {
    let format = requested_format(flags)?;
    // Chordality and maximality checking run on heap graphs; verification
    // is a one-shot full read anyway, so materialising mmapped inputs
    // costs nothing extra.
    let graph = load_input(require(flags, "graph")?, format)?.to_csr_graph();
    let sub = load_input(require(flags, "subgraph")?, format)?.to_csr_graph();
    if sub.num_vertices() > graph.num_vertices() {
        return Err(ExtractError::Verification(
            "subgraph has more vertices than the host graph".to_string(),
        ));
    }
    let edges: Vec<_> = sub.edges().collect();
    if !edges_subset_of_graph(&graph, &edges) {
        say!("FAIL: subgraph contains edges that are not in the host graph")?;
        return Err(ExtractError::Verification(
            "subgraph is not contained in the host graph".to_string(),
        ));
    }
    let chordal = is_chordal(&sub);
    say!("chordal: {chordal}")?;
    let sample: usize = parse_number(flags, "maximality", 0)?;
    if sample > 0 {
        let report = check_maximality(&graph, &edges, Some(sample), 7);
        match report {
            MaximalityReport::Maximal => say!("maximal: true (sampled {sample} edges)")?,
            MaximalityReport::Violations(v) => say!(
                "maximal: false ({} of {sample} sampled edges addable)",
                v.len()
            )?,
        }
    }
    if chordal {
        Ok(())
    } else {
        Err(ExtractError::Verification(
            "subgraph is not chordal".to_string(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        for flag in [
            "--batch-threshold",
            "--adaptive",
            "--ewma",
            "--no-ewma",
            "--rebalance",
            "--no-rebalance",
            "--repair-strategy",
            "--semantics",
            "--bogus",
        ] {
            let error = parse_flags(&args(&["--in", "a.txt", flag, "1"])).unwrap_err();
            assert!(
                matches!(&error, ExtractError::UnexpectedArgument(arg) if arg == flag),
                "{flag}: {error}"
            );
            assert_eq!(error.exit_code(), 2);
        }
    }

    #[test]
    fn known_flags_parse() {
        let flags =
            parse_flags(&args(&["--in", "a.txt,b.bin", "--stats", "--repeat", "3"])).unwrap();
        assert_eq!(flags["in"], "a.txt,b.bin");
        assert_eq!(flags["stats"], "true");
        assert_eq!(flags["repeat"], "3");
    }
}
