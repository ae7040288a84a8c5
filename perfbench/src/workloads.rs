//! The workloads: set-up (inputs, mapping, warm sessions, server) and the
//! measured loop of each.

use crate::gate::Gate;
use crate::inputs::{self, derive_seed, Input, ScratchDir, Sizes};
use crate::trace::Trace;
use chordal_core::{ExtractionSession, ExtractorConfig};
use chordal_graph::GraphRef;
use chordal_runtime::Engine;
use chordal_serve::{
    JsonValue, Response, RetryPolicy, ServeClient, ServeConfig, Server, ServerHandle,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Algorithm 1 on RMAT-ER/G/B at scale 16, serial engine and default
    /// engine.
    Rmat16,
    /// One `extract_batch` of gene networks plus RMAT-G graphs.
    GeneBatch,
    /// Closed-loop `EXTRACT payload=edges` traffic against a server.
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Rmat16, Workload::GeneBatch, Workload::ServeMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Rmat16 => "rmat16",
            Workload::GeneBatch => "gene-batch",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads the workload's extractions use: `t1` and `tmax` on `rmat16`,
    /// `tmax` elsewhere.
    pub fn threads(self) -> Vec<usize> {
        let tmax = chordal_runtime::available_threads();
        match self {
            Workload::Rmat16 => vec![1, tmax],
            _ => vec![tmax],
        }
    }
}

pub fn t1_config() -> ExtractorConfig {
    ExtractorConfig::default().with_engine(Engine::serial())
}

/// A workload after set-up, ready to measure.
pub struct Prepared {
    pub inputs: Vec<Input>,
    /// Binary CSR files of the inputs (empty for heap-only inputs).
    pub files: Vec<PathBuf>,
    /// The default engine (Opt, async) at `tmax`.
    pub session: ExtractionSession,
    /// The serial engine (`t1`); `rmat16` only.
    pub serial: Option<ExtractionSession>,
    pub serve: Option<ServeRig>,
    /// Holds the input files; removes them when dropped.
    pub dir: ScratchDir,
    /// Operations run during warm-up.
    pub warm_ops: u64,
}

/// Generates the inputs, converts and maps them, warms the session (or
/// starts and warms the server). Warm-up outputs pass the gate too.
pub fn prepare(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    tag: &str,
    gate: &mut Gate,
) -> Result<Prepared, String> {
    let dir = ScratchDir::create(tag)?;
    let (inputs, files) = match workload {
        Workload::Rmat16 => inputs::mapped(dir.path(), inputs::rmat_suite(sizes.rmat_scale, seed))?,
        Workload::GeneBatch => (inputs::on_heap(inputs::gene_batch(sizes, seed)), Vec::new()),
        Workload::ServeMixed => inputs::mapped(dir.path(), inputs::serve_set(sizes, seed))?,
    };
    let mut session = ExtractionSession::new(ExtractorConfig::default());
    let mut serial = None;
    let mut serve = None;
    let warm_ops = match workload {
        Workload::Rmat16 => {
            let mut t1 = ExtractionSession::new(t1_config());
            for (i, input) in inputs.iter().enumerate() {
                gate.check_serial(i, input.view(), &t1.extract(input.view()));
                gate.check_result(i, input.view(), &session.extract(input.view()));
            }
            serial = Some(t1);
            2 * inputs.len() as u64
        }
        Workload::GeneBatch => {
            let views: Vec<GraphRef<'_>> = inputs.iter().map(Input::view).collect();
            for (i, result) in session.extract_batch(&views).iter().enumerate() {
                gate.check_result(i, views[i], result);
            }
            1
        }
        Workload::ServeMixed => {
            serve = Some(ServeRig::start(&files, half_of(&files))?);
            files.len() as u64
        }
    };
    Ok(Prepared {
        inputs,
        files,
        session,
        serial,
        serve,
        dir,
        warm_ops,
    })
}

/// About half the working set: the cache budget of the serve rig.
pub fn half_of(files: &[PathBuf]) -> usize {
    let total: u64 = files
        .iter()
        .filter_map(|f| std::fs::metadata(f).ok())
        .map(|m| m.len())
        .sum();
    (total / 2) as usize
}

/// What one measured loop produced.
#[derive(Default)]
pub struct LoopOut {
    /// Milliseconds per operation: a pass over the three graphs at `t1` and
    /// at `tmax`, one batch, or one request as the client saw it.
    pub op_ms: Vec<f64>,
    /// `rmat16` only: the `t1` and the `tmax` part of each pass.
    pub t1_ms: Vec<f64>,
    pub tmax_ms: Vec<f64>,
    pub ops: u64,
    /// Mean chordal edges over input edges across the outputs (on `rmat16`,
    /// the `tmax` outputs).
    pub chordal_fraction: f64,
    pub serve: Option<ServeRun>,
}

fn fraction(chordal: usize, edges: usize) -> f64 {
    if edges == 0 {
        0.0
    } else {
        chordal as f64 / edges as f64
    }
}

/// Runs the workload's measured loop for `seconds`; the gate checks every
/// output between timed operations.
pub fn measure(
    p: &mut Prepared,
    workload: Workload,
    seconds: f64,
    seed: u64,
    trace: &mut Trace,
    gate: &mut Gate,
) -> Result<LoopOut, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = LoopOut::default();
    let mut fractions = 0.0;
    let mut outputs = 0usize;
    match workload {
        Workload::Rmat16 => {
            let serial = p.serial.as_mut().ok_or("rmat16 without a serial session")?;
            while out.op_ms.is_empty() || Instant::now() < deadline {
                let pass = trace.begin("bench.pass", 0, 0);
                let (mut t1_ns, mut tmax_ns) = (0u128, 0u128);
                for (i, input) in p.inputs.iter().enumerate() {
                    let view = input.view();
                    let span = trace.begin("core.parallel.extract.t1", pass.id(), 0);
                    let start = Instant::now();
                    let serial_result = serial.extract(view);
                    t1_ns += start.elapsed().as_nanos();
                    trace.end(span);
                    let span = trace.begin("core.parallel.extract.tmax", pass.id(), 0);
                    let start = Instant::now();
                    let result = p.session.extract(view);
                    tmax_ns += start.elapsed().as_nanos();
                    trace.end(span);
                    let span = trace.begin("bench.gate", pass.id(), 0);
                    gate.check_serial(i, view, &serial_result);
                    gate.check_result(i, view, &result);
                    fractions += fraction(result.num_chordal_edges(), view.num_canonical_edges());
                    outputs += 1;
                    trace.end(span);
                }
                trace.end(pass);
                out.t1_ms.push(t1_ns as f64 / 1e6);
                out.tmax_ms.push(tmax_ns as f64 / 1e6);
                out.op_ms.push((t1_ns + tmax_ns) as f64 / 1e6);
                // Attempted operations are extractions, as in the warm-up.
                out.ops += 2 * p.inputs.len() as u64;
            }
        }
        Workload::GeneBatch => {
            let views: Vec<GraphRef<'_>> = p.inputs.iter().map(Input::view).collect();
            while out.op_ms.is_empty() || Instant::now() < deadline {
                let batch = trace.begin("bench.batch", 0, 0);
                let span = trace.begin("core.session.extract_batch", batch.id(), 0);
                let start = Instant::now();
                let results = p.session.extract_batch(&views);
                let elapsed = start.elapsed();
                trace.end(span);
                let span = trace.begin("bench.gate", batch.id(), 0);
                for (i, result) in results.iter().enumerate() {
                    fractions +=
                        fraction(result.num_chordal_edges(), views[i].num_canonical_edges());
                    outputs += 1;
                    gate.check_result(i, views[i], result);
                }
                trace.end(span);
                trace.end(batch);
                out.op_ms.push(elapsed.as_secs_f64() * 1e3);
                out.ops += 1;
            }
        }
        Workload::ServeMixed => {
            let rig = p.serve.as_mut().ok_or("serve-mixed without a server")?;
            let run = rig.drive(seconds, seed, trace)?;
            check_serve_run(&run, &p.inputs, gate);
            for s in run.samples.iter().filter(|s| s.ok) {
                out.op_ms.push(s.latency_ns as f64 / 1e6);
                fractions += fraction(s.chordal_edges as usize, s.canonical_edges as usize);
                outputs += 1;
            }
            out.ops = run.samples.len() as u64;
            out.serve = Some(run);
        }
    }
    out.chordal_fraction = if outputs == 0 {
        0.0
    } else {
        fractions / outputs as f64
    };
    Ok(out)
}

/// Gate checks of a serve run: refused or failed requests, and the sampled
/// payloads.
pub fn check_serve_run(run: &ServeRun, inputs: &[Input], gate: &mut Gate) {
    for s in run.samples.iter().filter(|s| !s.ok) {
        gate.refuse(format!("request for input {} failed: {}", s.input, s.code));
    }
    for sample in &run.payloads {
        let graph = inputs[sample.input].view();
        gate.check_payload(sample.input, graph, &sample.bytes, sample.chordal_edges);
    }
}

/// One request as a load client measured it.
#[derive(Clone, Debug)]
pub struct ServeSample {
    pub input: usize,
    pub ok: bool,
    /// The error code of a failed request.
    pub code: String,
    pub latency_ns: u64,
    pub extract_ns: u64,
    pub wait_ns: u64,
    pub queue_wait_ns: u64,
    pub hit: bool,
    pub retries: u64,
    pub chordal_edges: u64,
    pub canonical_edges: u64,
}

/// A reply payload kept for the gate.
pub struct PayloadSample {
    pub input: usize,
    pub chordal_edges: u64,
    pub bytes: Vec<u8>,
}

/// Cache counters read through `STATS`.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatsCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

pub struct ServeRun {
    pub samples: Vec<ServeSample>,
    pub payloads: Vec<PayloadSample>,
    pub before: StatsCounters,
    pub after: StatsCounters,
}

/// Every 64th request keeps its payload for the gate, at most this many.
const PAYLOAD_SAMPLES: usize = 16;

/// An in-process server over a set of binary graph files, driven by one
/// closed-loop connection. One, not one per core: each request then has
/// the whole pool, as a waiting pipeline stage would. With one connection
/// per core, two asynchronous extractions share the two-worker pool and the
/// run's median latency flips between modes from run to run (7.8 to 9.4 ms
/// on one seed on a 2-core host, against 7.2 to 7.6 ms with one
/// connection).
pub struct ServeRig {
    client: ServeClient,
    handle: ServerHandle,
    lines: Vec<String>,
}

impl ServeRig {
    /// Starts the server with the default configuration and a cache budget
    /// of `budget` bytes, connects the load connection and warms it with one
    /// request per file.
    pub fn start(files: &[PathBuf], budget: usize) -> Result<ServeRig, String> {
        let handle = Server::start(ServeConfig {
            cache_budget_bytes: budget,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("starting the server: {e}"))?;
        let lines: Vec<String> = files
            .iter()
            .map(|f| format!("EXTRACT path={} payload=edges", f.display()))
            .collect();
        let mut client =
            ServeClient::connect(handle.addr()).map_err(|e| format!("connecting: {e}"))?;
        for line in &lines {
            let response = client
                .request(line)
                .map_err(|e| format!("warm-up request: {e}"))?;
            if !response.ok() {
                return Err(format!("warm-up request failed: {}", response.raw));
            }
        }
        Ok(ServeRig {
            client,
            handle,
            lines,
        })
    }

    fn stats(&mut self) -> Result<StatsCounters, String> {
        let response = self
            .client
            .request("STATS")
            .map_err(|e| format!("STATS: {e}"))?;
        let field = |path: &[&str]| {
            response
                .json
                .path(path)
                .and_then(JsonValue::as_u64)
                .unwrap_or(0)
        };
        Ok(StatsCounters {
            hits: field(&["cache", "hits"]),
            misses: field(&["cache", "misses"]),
            evictions: field(&["cache", "evictions"]),
        })
    }

    /// Drives the connection in a closed loop for `seconds`, picking files
    /// from a seeded stream; `STATS` goes over the same connection before
    /// and after.
    pub fn drive(
        &mut self,
        seconds: f64,
        seed: u64,
        trace: &mut Trace,
    ) -> Result<ServeRun, String> {
        let before = self.stats()?;
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let (samples, payloads) = client_loop(
            &mut self.client,
            &self.lines,
            derive_seed(seed, 400),
            deadline,
            trace,
        )?;
        Ok(ServeRun {
            samples,
            payloads,
            before,
            after: self.stats()?,
        })
    }
}

impl Drop for ServeRig {
    fn drop(&mut self) {
        // Close the load connection first so the server's connection thread
        // sees EOF, then drain and join.
        let _ = self.client.close_write();
        self.handle.shutdown();
    }
}

fn client_loop(
    client: &mut ServeClient,
    lines: &[String],
    mut stream: u64,
    deadline: Instant,
    trace: &mut Trace,
) -> Result<(Vec<ServeSample>, Vec<PayloadSample>), String> {
    let policy = RetryPolicy {
        seed: derive_seed(stream, 1),
        ..RetryPolicy::default()
    };
    let mut samples = Vec::new();
    let mut payloads = Vec::new();
    let mut index = 0u64;
    while Instant::now() < deadline {
        // A uniform seeded file choice: with the cache at half the working
        // set, requests both hit and evict.
        stream = derive_seed(stream, 0);
        let input = (stream % lines.len() as u64) as usize;
        let span = trace.begin("serve.request", 0, index + 1);
        let start = Instant::now();
        let (response, attempts) = client
            .request_with_retry(&lines[input], &policy)
            .map_err(|e| format!("load request: {e}"))?;
        let latency_ns = start.elapsed().as_nanos() as u64;
        trace.end(span);
        let mut sample = sample_of(&response, input, latency_ns);
        sample.retries = u64::from(attempts.saturating_sub(1));
        if sample.ok && index.is_multiple_of(64) && payloads.len() < PAYLOAD_SAMPLES {
            payloads.push(PayloadSample {
                input,
                chordal_edges: sample.chordal_edges,
                bytes: response.payload,
            });
        }
        samples.push(sample);
        index += 1;
    }
    Ok((samples, payloads))
}

fn sample_of(response: &Response, input: usize, latency_ns: u64) -> ServeSample {
    let field = |key: &str| response.u64_field(key).unwrap_or(0);
    ServeSample {
        input,
        ok: response.ok(),
        code: response.code().unwrap_or("").to_string(),
        latency_ns,
        extract_ns: field("extract_ns"),
        wait_ns: field("wait_ns"),
        queue_wait_ns: field("queue_wait_ns"),
        hit: response.str_field("cache") == Some("hit"),
        retries: 0,
        chordal_edges: field("chordal_edges"),
        canonical_edges: field("canonical_edges"),
    }
}
