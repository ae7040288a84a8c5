//! The repository benchmark: Algorithm 1 on scale-16 R-MAT graphs at one
//! and at every available thread, a batch of gene-correlation networks,
//! and closed-loop serving, each with a correctness gate. An untraced run
//! reports the end-to-end metrics; a traced run (`--trace 1`) records spans
//! around the benchmark's calls into each layer and reports the per-layer
//! metrics. `BENCHMARK.json` at the repository root lists both sets.

pub mod gate;
pub mod inputs;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;

use gate::Gate;
use inputs::{ScratchDir, Sizes};
use stats::{median, Timing};
use std::fmt::Write as _;
use std::time::Instant;
use trace::Trace;
use workloads::{prepare, Workload};

/// Set-ups (rounds) per untraced run; `setup_s` is their median.
const ROUNDS: usize = 3;

/// Repetitions per graph in the per-layer probes.
const PROBE_REPS: usize = 5;

/// Metrics in emission order: name, value, unit.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

/// Everything one run produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub gate: Gate,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// The report written under `out/`, as JSON.
    pub report: String,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.gate.failures.is_empty()
    }

    pub fn failed(&self) -> u64 {
        self.gate.failed().min(self.attempted)
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed()
        );
        for (i, (name, value, unit)) in self.metrics.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number (non-finite values cannot be encoded; they read 0).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Resets the peak resident set (`VmHWM`) to the current resident set, so a
/// later [`peak_rss_mb`] covers only what ran after the reset. Returns
/// whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".to_string()
    } else {
        commit.to_string()
    }
}

/// Seed, core and pool sizes, thread count, commit and compiler.
pub fn provenance(opts: &Options) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool_env = std::env::var("CHORDAL_POOL_THREADS").unwrap_or_else(|_| "unset".to_string());
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"pool_size\":{},\"CHORDAL_POOL_THREADS\":{},\"threads\":{:?},\"git_commit\":{},\"rustc\":{}}}",
        json_str(opts.workload.name()),
        opts.seed,
        opts.seconds,
        opts.trace,
        chordal_runtime::pool_size(),
        json_str(&pool_env),
        opts.workload.threads(),
        json_str(&git_commit()),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
    )
}

fn timing_note(name: &str, t: &Timing) -> String {
    format!(
        "timing {name}: median {:.4} ms, p{} {:.4} ms, {} samples",
        t.median, t.tail_pct, t.tail, t.samples
    )
}

fn timing_json(t: &Timing) -> String {
    format!(
        "{{\"median_ms\":{},\"tail_pct\":{},\"tail_ms\":{},\"samples\":{}}}",
        number(t.median),
        t.tail_pct,
        number(t.tail),
        t.samples
    )
}

fn failures_json(gate: &Gate) -> String {
    let items: Vec<String> = gate.failures.iter().map(|f| json_str(f)).collect();
    items.join(",")
}

/// Runs one workload and returns its metrics and report.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    if opts.trace {
        run_traced(opts)
    } else {
        run_untraced(opts)
    }
}

/// The end-to-end run with tracing off: `ROUNDS` rounds, each of which
/// sets the workload up afresh (new files, mappings, session or server)
/// and measures for its share of the run. One set-up's memory placement
/// then does not decide the run's latency.
fn run_untraced(opts: &Options) -> Result<Outcome, String> {
    let mut gate = Gate::new();
    let mut setup_s = Vec::new();
    let mut attempted = 0;
    let mut op_ms = Vec::new();
    let (mut t1_ms, mut tmax_ms) = (Vec::new(), Vec::new());
    let mut round_medians = Vec::new();
    let mut chordal_fraction = 0.0;
    let mut peak_mb: f64 = 0.0;
    let mut peak_reset = true;
    for rep in 0..ROUNDS {
        let start = Instant::now();
        let mut p = prepare(
            opts.workload,
            &opts.sizes,
            opts.seed,
            &rep.to_string(),
            &mut gate,
        )?;
        setup_s.push(start.elapsed().as_secs_f64());
        attempted += p.warm_ops;
        // The generator's peak is set-up's; `peak_rss_mb` covers the
        // measured loops over the prepared inputs.
        peak_reset &= reset_peak_rss();
        let out = workloads::measure(
            &mut p,
            opts.workload,
            opts.seconds / ROUNDS as f64,
            opts.seed,
            &mut Trace::new(false),
            &mut gate,
        )?;
        peak_mb = peak_mb.max(peak_rss_mb());
        attempted += out.ops;
        round_medians.push(median(&out.op_ms));
        op_ms.extend(out.op_ms);
        t1_ms.extend(out.t1_ms);
        tmax_ms.extend(out.tmax_ms);
        // The same inputs every round, so every round has the same fraction.
        chordal_fraction = out.chordal_fraction;
    }
    let timing = Timing::of(&op_ms);
    let (t1, tmax) = (Timing::of(&t1_ms), Timing::of(&tmax_ms));

    let mut metrics = Metrics::default();
    metrics.push("setup_s", median(&setup_s), "s");
    metrics.push("latency_ms", timing.median, "ms");
    metrics.push("chordal_fraction", chordal_fraction, "ratio");
    metrics.push("peak_rss_mb", peak_mb, "MB");

    let mut notes = vec![
        timing_note("latency_ms", &timing),
        format!("latency_ms round medians: {round_medians:?}"),
    ];
    if !t1_ms.is_empty() {
        notes.push(timing_note("alg1_t1_ms (t1 part of a pass)", &t1));
        notes.push(timing_note("alg1_tmax_ms (tmax part of a pass)", &tmax));
    }
    notes.push(format!("setup_s samples: {setup_s:?}"));
    notes.push(format!(
        "peak_rss_mb covers the measured loops only: {peak_reset}"
    ));
    let report = format!(
        "{{\"provenance\":{},\"timing\":{},\"t1_timing\":{},\"tmax_timing\":{},\"op_ms\":{:?},\"t1_ms\":{:?},\"tmax_ms\":{:?},\"setup_s\":{:?},\"peak_rss_reset\":{peak_reset},\"failures\":[{}]}}",
        provenance(opts),
        timing_json(&timing),
        timing_json(&t1),
        timing_json(&tmax),
        op_ms,
        t1_ms,
        tmax_ms,
        setup_s,
        failures_json(&gate)
    );
    Ok(Outcome {
        metrics,
        attempted,
        gate,
        notes,
        report,
    })
}

/// The per-layer run: one set-up, the measured loop untraced, traced and
/// untraced again (the medians give the tracing overhead), then every
/// layer probe on the workload's inputs.
fn run_traced(opts: &Options) -> Result<Outcome, String> {
    let mut gate = Gate::new();
    let mut trace = Trace::new(true);
    let span = trace.begin("bench.setup", 0, 0);
    let mut p = prepare(opts.workload, &opts.sizes, opts.seed, "trace", &mut gate)?;
    trace.end(span);
    // Untraced, traced, untraced again: the two untraced halves bracket the
    // traced phase, so a host that drifts during the run moves both sides
    // of `trace.overhead_ratio` alike.
    let phase = opts.seconds / 3.0;
    let mut untraced = Vec::new();
    // Probe extractions pass the gate too, but only the workload's own
    // operations count as attempted.
    let mut attempted = p.warm_ops;
    let mut traced = None;
    for traced_phase in [false, true, false] {
        let seconds = if traced_phase { phase } else { phase / 2.0 };
        let seed = opts.seed ^ u64::from(traced_phase);
        let mut off = Trace::new(false);
        let recorder = if traced_phase { &mut trace } else { &mut off };
        let out = workloads::measure(&mut p, opts.workload, seconds, seed, recorder, &mut gate)?;
        attempted += out.ops;
        if traced_phase {
            traced = Some(out);
        } else {
            untraced.extend(out.op_ms);
        }
    }
    let traced = traced.expect("the traced phase ran");
    let untraced_timing = Timing::of(&untraced);
    let traced_timing = Timing::of(&traced.op_ms);

    let mut m = Metrics::default();
    let pool_before = chordal_runtime::pool_stats();
    // Heap inputs get binary files for the storage, cache and serve probes.
    let probe_dir = ScratchDir::create("probe")?;
    let files = if p.files.is_empty() {
        inputs::write_files(
            probe_dir.path(),
            p.inputs.iter().map(|i| (i.name.as_str(), i.view())),
        )?
    } else {
        p.files.clone()
    };
    probes::storage(&files, PROBE_REPS, &mut trace, &mut m)?;
    probes::cache(&files, PROBE_REPS, &mut trace, &mut m)?;
    let alg1 = probes::alg1(&p.inputs, PROBE_REPS, &mut trace, &mut gate, &mut m);
    probes::maximality_gap(&p.inputs, &alg1.tmax_results, opts.seed, &mut trace, &mut m);
    let batch_alloc_delta = probes::session(
        &p.inputs,
        PROBE_REPS,
        alg1.t1_sum_ms,
        &mut trace,
        &mut gate,
        &mut m,
    );
    m.push(
        "session.workspace_alloc_delta",
        (alg1.workspace_alloc_delta + batch_alloc_delta) as f64,
        "count",
    );
    probes::payload(&p.inputs, &alg1.tmax_results, &mut trace, &mut m);
    let serve_run = match traced.serve {
        Some(run) => run,
        None => {
            // The serving layer on this workload's inputs: the serve-mixed
            // rig over these files, driven for a sixth of the run.
            let mut rig = workloads::ServeRig::start(&files, workloads::half_of(&files))?;
            let run = rig.drive(opts.seconds / 6.0, opts.seed, &mut trace)?;
            workloads::check_serve_run(&run, &p.inputs, &mut gate);
            run
        }
    };
    probes::serve(&serve_run, &mut m);
    let pool = chordal_runtime::pool_stats();
    m.push(
        "pool.tickets_dropped",
        (pool.tickets_dropped - pool_before.tickets_dropped) as f64,
        "count",
    );
    m.push(
        "pool.region_overhead_ns",
        chordal_runtime::estimated_region_overhead_ns_for(chordal_runtime::available_threads())
            as f64,
        "ns",
    );
    m.push("mem.workspace_bytes", alg1.workspace_bytes as f64, "bytes");
    m.push(
        "mem.input_bytes",
        p.inputs.iter().map(|i| i.bytes()).sum::<usize>() as f64,
        "bytes",
    );
    m.push(
        "trace.overhead_ratio",
        if untraced_timing.median > 0.0 {
            traced_timing.median / untraced_timing.median
        } else {
            0.0
        },
        "ratio",
    );
    m.push("trace.spans", trace.spans().len() as f64, "count");

    let mut notes = vec![
        timing_note("untraced op", &untraced_timing),
        timing_note("traced op", &traced_timing),
    ];
    let mut graphs_json = Vec::new();
    for g in &alg1.graphs {
        let tmax_iters = g
            .iterations_tmax
            .iter()
            .map(|&x| x as f64)
            .collect::<Vec<_>>();
        notes.push(format!(
            "alg1 {}: t1 {:.3} ms / tmax {:.3} ms, iterations t1 {} tmax median {} [{}..{}], small-queue iterations {}, queue entries {}, chordal edges {} of {}",
            g.name,
            g.t1_ms,
            g.tmax_ms,
            g.iterations_t1,
            median(&tmax_iters),
            g.iterations_tmax.iter().min().unwrap_or(&0),
            g.iterations_tmax.iter().max().unwrap_or(&0),
            g.small_queue_iterations_t1,
            g.queue_entries_t1,
            g.chordal_edges_t1,
            g.edges
        ));
        notes.push(format!(
            "figure7 {}: serial queue sizes {:?}",
            g.name, g.queue_sizes_t1
        ));
        graphs_json.push(format!(
            "{{\"name\":{},\"edges\":{},\"t1_ms\":{},\"tmax_ms\":{},\"iterations_t1\":{},\"iterations_tmax\":{:?},\"small_queue_iterations_t1\":{},\"queue_entries_t1\":{},\"chordal_edges_t1\":{},\"figure7_queue_sizes_t1\":{:?}}}",
            json_str(&g.name),
            g.edges,
            number(g.t1_ms),
            number(g.tmax_ms),
            g.iterations_t1,
            g.iterations_tmax,
            g.small_queue_iterations_t1,
            g.queue_entries_t1,
            g.chordal_edges_t1,
            g.queue_sizes_t1
        ));
    }
    let totals = trace::self_times(trace.spans());
    let mut self_json = Vec::new();
    for (name, t) in &totals {
        notes.push(format!(
            "span {name}: {} spans, total {:.3} ms, self {:.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
        self_json.push(format!(
            "{}:{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            json_str(name),
            t.count,
            t.total_ns,
            t.self_ns
        ));
    }
    let report = format!(
        "{{\"provenance\":{},\"untraced\":{},\"traced\":{},\"graphs\":[{}],\"self_times\":{{{}}},\"failures\":[{}],\"spans\":{}}}",
        provenance(opts),
        timing_json(&untraced_timing),
        timing_json(&traced_timing),
        graphs_json.join(","),
        self_json.join(","),
        failures_json(&gate),
        trace::spans_json(trace.spans())
    );
    drop(probe_dir);
    Ok(Outcome {
        metrics: m,
        attempted,
        gate,
        notes,
        report,
    })
}
