//! The resident TCP server: accept loop, session-per-connection threads,
//! deadline-aware admission queueing, and the request handlers.
//!
//! Admission is a bounded FIFO wait queue ([`crate::queue::AdmissionQueue`]):
//! work beyond `max_inflight` parks on a condvar until a permit frees or
//! its `deadline_ms` expires (`deadline-exceeded`), and only a full queue
//! answers `overload`. Shutdown drains queued + in-flight requests under
//! [`ServeConfig::drain_timeout_ms`] before closing sockets. With the
//! `fault-injection` feature (or under test) the `FAULT` verb arms the
//! deterministic chaos schedule of the `fault` module.
//!
//! Concurrency model: one OS thread per admitted connection (sessions are
//! long-lived and mostly blocked on socket reads; extraction parallelism
//! comes from the process-wide persistent worker pool, not from connection
//! threads). Every connection owns its [`ExtractionSession`]s — workspaces
//! are never shared across connections — while the graph cache and the
//! pool are shared by all of them. That is exactly the multi-session shape
//! the pool's region accounting was built for.
//!
//! See the crate docs for the protocol specification this module
//! implements.

use crate::cache::{CacheError, GraphCache};
#[cfg(any(test, feature = "fault-injection"))]
use crate::fault::{FaultInjector, FaultKind};
use crate::protocol::{
    error_frame, error_frame_with, json_escape, ErrorCode, Request, MAX_REQUEST_BYTES,
};
use crate::queue::{AcquireError, AdmissionQueue};
use chordal_core::{AdjacencyMode, Algorithm, ExtractionSession, ExtractorConfig};
use chordal_graph::io::write_edge_list;
use chordal_graph::storage::FileFormat;
use chordal_graph::subgraph::edge_subgraph;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

// The queue's deadline parameter is the cfg-selected `Instant` (virtual
// under `--cfg chordal_model`); everything else here is wall-clock and
// never runs under the model.
#[cfg(not(chordal_model))]
use std::time::Instant;

#[cfg(chordal_model)]
use chordal_checker::time::Instant;

/// How long blocked reads wait before re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Upper bound on per-connection cached extraction sessions (one per
/// distinct request configuration). Beyond it an arbitrary session is
/// dropped — a workspace rebuild, not an error.
const MAX_SESSIONS_PER_CONNECTION: usize = 8;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, `host:port` (port 0 picks a free port).
    pub addr: String,
    /// Connections serviced concurrently; one beyond this is answered with
    /// a single `overload` frame and closed.
    pub max_sessions: usize,
    /// Extractions running concurrently; work beyond this parks in the
    /// bounded FIFO admission queue instead of being bounced.
    pub max_inflight: usize,
    /// Requests that may wait in the admission queue at once; one beyond
    /// this is answered `overload`. `0` restores bounce-only admission.
    pub max_queue: usize,
    /// Default queue-wait deadline (milliseconds) for requests that carry
    /// no `deadline_ms=`; `0` means wait indefinitely.
    pub default_deadline_ms: u64,
    /// How long shutdown waits for queued + in-flight requests to finish
    /// before force-answering the stragglers and closing sockets.
    pub drain_timeout_ms: u64,
    /// Resident-byte budget of the graph cache.
    pub cache_budget_bytes: usize,
    /// Default execution engine for `EXTRACT` requests that name none.
    pub default_engine: String,
    /// Default engine thread count for `EXTRACT` requests that name none.
    pub default_threads: usize,
    /// Enables the deterministic-saturation test verb (`HOLD`). Never set
    /// in production configurations.
    pub test_hooks: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        // One extraction per pool worker plus the submitting connection
        // thread: beyond that, requests would only queue on the pool's
        // ticket queue — exactly the unbounded buildup admission control
        // is there to refuse.
        let threads = chordal_runtime::pool_size().max(1);
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_sessions: 64,
            max_inflight: threads + 1,
            max_queue: 32,
            default_deadline_ms: 0,
            drain_timeout_ms: 5_000,
            cache_budget_bytes: 256 << 20,
            default_engine: "pool".to_string(),
            default_threads: chordal_runtime::available_threads(),
            test_hooks: false,
        }
    }
}

/// Monotonic serving counters (see the `STATS` verb).
struct Counters {
    sessions_active: AtomicUsize,
    sessions_total: AtomicU64,
    requests_total: AtomicU64,
    extractions_total: AtomicU64,
    overloaded_total: AtomicU64,
}

/// State shared between the accept loop and every connection thread.
struct Shared {
    config: ServeConfig,
    shutdown: AtomicBool,
    counters: Counters,
    cache: GraphCache,
    admission: AdmissionQueue,
    #[cfg(any(test, feature = "fault-injection"))]
    faults: FaultInjector,
}

impl Shared {
    /// Resolves the request's queue-wait deadline: an explicit
    /// `deadline_ms=` wins (`0` means fail fast — expire unless a permit
    /// is free right now), otherwise the configured default applies (`0`
    /// meaning wait indefinitely).
    fn request_deadline(&self, request: &Request) -> Result<Option<Instant>, String> {
        match request.arg("deadline_ms") {
            Some(v) => {
                let ms = v
                    .parse::<u64>()
                    .map_err(|_| format!("invalid value `{v}` for `deadline_ms`"))?;
                Ok(Some(Instant::now() + Duration::from_millis(ms)))
            }
            None if self.config.default_deadline_ms > 0 => Ok(Some(
                Instant::now() + Duration::from_millis(self.config.default_deadline_ms),
            )),
            None => Ok(None),
        }
    }

    /// Acquires one admission permit, parking FIFO behind earlier work
    /// when saturated. `Ok` carries the permit and the nanoseconds spent
    /// queued; `Err` is the ready-to-send rejection frame.
    fn acquire_permit(
        self: &Arc<Self>,
        request: &Request,
    ) -> Result<(AdmissionPermit, u64), Outcome> {
        let deadline = match self.request_deadline(request) {
            Ok(deadline) => deadline,
            Err(message) => return Err(Outcome::error(ErrorCode::BadArg, &message)),
        };
        match self.admission.acquire(deadline) {
            Ok(waited_ns) => Ok((AdmissionPermit(Arc::clone(self)), waited_ns)),
            Err(AcquireError::QueueFull { queue_depth }) => {
                self.counters
                    .overloaded_total
                    .fetch_add(1, Ordering::SeqCst);
                // A deterministic back-off hint: deeper queues suggest
                // longer waits. Clients without their own policy can sleep
                // exactly this long before retrying.
                let retry_after_ms = ((queue_depth as u64 + 1) * 5).clamp(5, 500);
                Err(Outcome::reply(error_frame_with(
                    ErrorCode::Overload,
                    &format!(
                        "admission queue full ({queue_depth} waiting, {} in flight, {} pool workers idle)",
                        self.config.max_inflight,
                        chordal_runtime::pool_idle_workers()
                    ),
                    &[
                        ("retry_after_ms", retry_after_ms),
                        ("queue_depth", queue_depth as u64),
                    ],
                )))
            }
            Err(AcquireError::DeadlineExceeded { waited_ns }) => {
                Err(Outcome::reply(error_frame_with(
                    ErrorCode::DeadlineExceeded,
                    "deadline expired while queued; the request did not execute",
                    &[("queue_wait_ns", waited_ns)],
                )))
            }
            Err(AcquireError::ShuttingDown { waited_ns }) => {
                self.counters
                    .overloaded_total
                    .fetch_add(1, Ordering::SeqCst);
                Err(Outcome::reply(error_frame_with(
                    ErrorCode::Overload,
                    "server is shutting down; the request did not execute",
                    &[("queue_wait_ns", waited_ns)],
                )))
            }
        }
    }
}

/// RAII admission permit. Dropping it — normally or by panic unwinding —
/// returns the permit and wakes the next FIFO waiter, so a panicking
/// request handler cannot poison the queue.
struct AdmissionPermit(Arc<Shared>);

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        self.0.admission.release();
    }
}

/// RAII active-session count.
struct SessionGuard(Arc<Shared>);

impl Drop for SessionGuard {
    fn drop(&mut self) {
        self.0
            .counters
            .sessions_active
            .fetch_sub(1, Ordering::SeqCst);
    }
}

/// The server factory. [`Server::start`] binds, spawns the accept loop and
/// returns the [`ServerHandle`] controlling it.
pub struct Server;

/// A running server: its bound address plus shutdown control. Dropping the
/// handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    connections: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Binds `config.addr` and starts serving. Returns once the listener
    /// is live — connections are accepted from that point on.
    pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            cache: GraphCache::new(config.cache_budget_bytes),
            admission: AdmissionQueue::new(config.max_inflight, config.max_queue),
            config,
            shutdown: AtomicBool::new(false),
            counters: Counters {
                sessions_active: AtomicUsize::new(0),
                sessions_total: AtomicU64::new(0),
                requests_total: AtomicU64::new(0),
                extractions_total: AtomicU64::new(0),
                overloaded_total: AtomicU64::new(0),
            },
            #[cfg(any(test, feature = "fault-injection"))]
            faults: FaultInjector::default(),
        });
        let connections: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_connections = Arc::clone(&connections);
        let accept_thread = std::thread::Builder::new()
            .name("chordal-serve-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared, accept_connections))?;
        Ok(ServerHandle {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            connections,
        })
    }
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown, drains, and joins every server thread.
    /// Idempotent.
    ///
    /// Shutdown is graceful in three phases: stop accepting (the flag plus
    /// the accept thread's exit), then **drain** — wait up to
    /// [`ServeConfig::drain_timeout_ms`] for every queued and in-flight
    /// request to finish — then halt, answering any straggler still parked
    /// in the queue with an `overload` frame before the connection threads
    /// are joined. Every request that was queued when shutdown began gets
    /// a response either way.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.shared
            .admission
            .drain(Duration::from_millis(self.shared.config.drain_timeout_ms));
        // Halt even after a clean drain: it closes the window where a
        // connection thread still draining buffered pipelined lines could
        // park new work behind a server that has stopped serving.
        self.shared.admission.halt();
        let handles: Vec<_> = self
            .connections
            .lock()
            .expect("connection registry")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Whether a `SHUTDOWN` request (or an explicit [`ServerHandle::shutdown`])
    /// has stopped the server.
    pub fn is_shut_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept loop: admit up to `max_sessions` concurrent connections, answer
/// the rest with one `overload` frame, poll the shutdown flag in between.
fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    connections: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Injected accept fault: the connection vanishes before it
                // is serviced, as if the peer (or the kernel) dropped it.
                #[cfg(any(test, feature = "fault-injection"))]
                if shared.faults.fire(FaultKind::Accept).is_some() {
                    drop(stream);
                    continue;
                }
                let active = shared.counters.sessions_active.load(Ordering::SeqCst);
                if active >= shared.config.max_sessions {
                    shared
                        .counters
                        .overloaded_total
                        .fetch_add(1, Ordering::SeqCst);
                    let mut stream = stream;
                    let _ = stream.write_all(
                        format!(
                            "{}\n",
                            error_frame_with(
                                ErrorCode::Overload,
                                &format!("session limit reached ({} active)", active),
                                &[("retry_after_ms", 50)],
                            )
                        )
                        .as_bytes(),
                    );
                    continue;
                }
                shared
                    .counters
                    .sessions_active
                    .fetch_add(1, Ordering::SeqCst);
                shared
                    .counters
                    .sessions_total
                    .fetch_add(1, Ordering::SeqCst);
                let conn_shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("chordal-serve-conn".to_string())
                    .spawn(move || {
                        let guard = SessionGuard(Arc::clone(&conn_shared));
                        run_connection(stream, conn_shared);
                        drop(guard);
                    });
                match handle {
                    Ok(handle) => connections
                        .lock()
                        .expect("connection registry")
                        .push(handle),
                    Err(_) => {
                        // Spawn failure: the guard above never ran, so the
                        // active count must be released here.
                        shared
                            .counters
                            .sessions_active
                            .fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// What a request handler wants done with its response.
struct Outcome {
    /// The JSON header line (without the terminating newline).
    frame: String,
    /// Length-prefixed payload bytes announced by the frame.
    payload: Vec<u8>,
    /// Close the connection after writing.
    close: bool,
    /// Trip the server-wide shutdown flag after writing.
    shutdown: bool,
    /// Exempt this response from injected write faults (the `FAULT`
    /// verb's own acks, so chaos scripts can always steer the schedule).
    #[cfg(any(test, feature = "fault-injection"))]
    fault_immune: bool,
}

impl Outcome {
    fn reply(frame: String) -> Outcome {
        Outcome {
            frame,
            payload: Vec::new(),
            close: false,
            shutdown: false,
            #[cfg(any(test, feature = "fault-injection"))]
            fault_immune: false,
        }
    }

    fn error(code: ErrorCode, message: &str) -> Outcome {
        Outcome::reply(error_frame(code, message))
    }

    fn closing(mut self) -> Outcome {
        self.close = true;
        self
    }
}

/// Per-connection state: the extraction sessions this connection has built,
/// keyed by their canonical configuration string.
struct Connection {
    shared: Arc<Shared>,
    sessions: HashMap<String, ExtractionSession>,
}

/// Reads frames off one connection until EOF, error, or shutdown.
fn run_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let mut reader = stream.try_clone().ok();
    let mut writer = stream;
    let mut connection = Connection {
        shared: Arc::clone(&shared),
        sessions: HashMap::new(),
    };
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let Some(reader) = reader.as_mut() else {
        return;
    };
    'outer: loop {
        // Drain every complete line already buffered (pipelining).
        while let Some(newline) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=newline).collect();
            let line = &line[..line.len() - 1];
            let line = match std::str::from_utf8(line) {
                Ok(text) => text.trim_end_matches('\r'),
                Err(_) => {
                    let frame = error_frame(ErrorCode::BadFrame, "request line is not UTF-8");
                    if write_frame(&mut writer, &frame, &[]).is_err() {
                        break 'outer;
                    }
                    continue;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            shared
                .counters
                .requests_total
                .fetch_add(1, Ordering::SeqCst);
            let outcome = catch_unwind(AssertUnwindSafe(|| handle_line(&mut connection, line)))
                .unwrap_or_else(|_| {
                    Outcome::error(ErrorCode::Internal, "request handler panicked").closing()
                });
            // Injected write fault: the response write fails as if the
            // pipe broke — the connection closes, nothing else suffers.
            // The FAULT verb's own acks are immune so chaos scripts can
            // always arm, inspect and clear the schedule.
            #[cfg(any(test, feature = "fault-injection"))]
            if !outcome.fault_immune && shared.faults.fire(FaultKind::Write).is_some() {
                break 'outer;
            }
            if write_frame(&mut writer, &outcome.frame, &outcome.payload).is_err() {
                break 'outer;
            }
            if outcome.shutdown {
                shared.shutdown.store(true, Ordering::SeqCst);
            }
            if outcome.close || outcome.shutdown {
                break 'outer;
            }
        }
        if buf.len() >= MAX_REQUEST_BYTES {
            let frame = error_frame(
                ErrorCode::BadFrame,
                &format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
            );
            let _ = write_frame(&mut writer, &frame, &[]);
            break;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                // Injected read faults act on data-bearing reads only:
                // a slow-read delays the data (a slow client on the wire),
                // a read fault behaves like an I/O error — the connection
                // closes, the server keeps serving everyone else.
                #[cfg(any(test, feature = "fault-injection"))]
                {
                    if let Some(ms) = shared.faults.fire(FaultKind::SlowRead) {
                        std::thread::sleep(Duration::from_millis(ms.min(10_000)));
                    }
                    if shared.faults.fire(FaultKind::Read).is_some() {
                        break;
                    }
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Writes one response frame (header line + optional payload) and flushes.
fn write_frame(writer: &mut TcpStream, frame: &str, payload: &[u8]) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(frame.len() + 1 + payload.len());
    bytes.extend_from_slice(frame.as_bytes());
    bytes.push(b'\n');
    bytes.extend_from_slice(payload);
    writer.write_all(&bytes)?;
    writer.flush()
}

/// Parses and dispatches one request line.
fn handle_line(connection: &mut Connection, line: &str) -> Outcome {
    let request = match Request::parse(line) {
        Ok(request) => request,
        Err(message) => return Outcome::error(ErrorCode::BadArg, &message),
    };
    match request.verb.as_str() {
        "PING" => reads(&request, &[], || {
            Outcome::reply("{\"ok\":true,\"verb\":\"PING\"}".to_string())
        }),
        "LOAD" => reads(&request, &["path", "format", "deadline_ms"], || {
            handle_load(connection, &request)
        }),
        "EXTRACT" => reads(&request, EXTRACT_KEYS, || {
            handle_extract(connection, &request)
        }),
        "STATS" => reads(&request, &[], || {
            Outcome::reply(stats_frame(&connection.shared))
        }),
        "SHUTDOWN" => reads(&request, &[], || {
            let mut outcome = Outcome::reply("{\"ok\":true,\"verb\":\"SHUTDOWN\"}".to_string());
            outcome.shutdown = true;
            outcome
        }),
        "HOLD" if connection.shared.config.test_hooks => {
            reads(&request, &["ms", "deadline_ms"], || {
                handle_hold(connection, &request)
            })
        }
        #[cfg(any(test, feature = "fault-injection"))]
        "FAULT" => {
            let keys = ["kind", "count", "ms", "seed", "prob", "clear"];
            let mut outcome = reads(&request, &keys, || handle_fault(connection, &request));
            outcome.fault_immune = true;
            outcome
        }
        other => Outcome::error(ErrorCode::BadVerb, &format!("unknown verb `{other}`")),
    }
}

/// The argument keys `EXTRACT` reads.
const EXTRACT_KEYS: &[&str] = &[
    "graph",
    "path",
    "format",
    "algorithm",
    "variant",
    "engine",
    "threads",
    "partitions",
    "repair",
    "payload",
    "deadline_ms",
];

/// Runs `handler` when every argument key of `request` is one of `keys`,
/// the keys its verb reads; otherwise answers `bad-arg` naming the
/// smallest other key, so a misspelt or retired argument is refused
/// instead of silently ignored.
fn reads(request: &Request, keys: &[&str], handler: impl FnOnce() -> Outcome) -> Outcome {
    match request
        .args
        .keys()
        .filter(|key| !keys.contains(&key.as_str()))
        .min()
    {
        Some(key) => Outcome::error(
            ErrorCode::BadArg,
            &format!("`{}` does not read argument `{key}`", request.verb),
        ),
        None => handler(),
    }
}

/// Resolves the optional `format=` argument.
fn requested_format(request: &Request) -> Result<Option<FileFormat>, String> {
    match request.arg("format") {
        None => Ok(None),
        Some(name) => {
            FileFormat::parse(name).map_err(|_| format!("invalid value `{name}` for `format`"))
        }
    }
}

/// Maps a cache resolution failure to its wire frame: `io` for read and
/// decode errors, `corrupt` for a quarantined checksum failure.
fn cache_error_outcome(path: &str, error: CacheError) -> Outcome {
    let code = match &error {
        CacheError::Io(_) => ErrorCode::Io,
        CacheError::Corrupt { .. } => ErrorCode::Corrupt,
    };
    Outcome::error(code, &format!("loading {path}: {error}"))
}

fn handle_load(connection: &mut Connection, request: &Request) -> Outcome {
    let path = match request.require("path") {
        Ok(path) => path,
        Err(message) => return Outcome::error(ErrorCode::MissingArg, &message),
    };
    let format = match requested_format(request) {
        Ok(format) => format,
        Err(message) => return Outcome::error(ErrorCode::BadArg, &message),
    };
    // Loading is admission-controlled work too: parsing or checksumming a
    // large graph competes with extractions for memory bandwidth.
    let shared = Arc::clone(&connection.shared);
    let (permit, queue_wait_ns) = match shared.acquire_permit(request) {
        Ok(granted) => granted,
        Err(outcome) => return outcome,
    };
    let cache = &connection.shared.cache;
    let outcome = match cache.get_or_load(std::path::Path::new(path), format) {
        Ok((graph, hash, hit)) => {
            let view = graph.as_graph_ref();
            let stats = cache.stats();
            Outcome::reply(format!(
                "{{\"ok\":true,\"verb\":\"LOAD\",\"graph\":\"{hash:016x}\",\
                 \"vertices\":{},\"edges\":{},\"canonical_edges\":{},\
                 \"cache\":\"{}\",\"resident_bytes\":{},\
                 \"queue_wait_ns\":{queue_wait_ns}}}",
                view.num_vertices(),
                view.num_edges(),
                view.num_canonical_edges(),
                if hit { "hit" } else { "miss" },
                stats.resident_bytes,
            ))
        }
        Err(e) => cache_error_outcome(path, e),
    };
    drop(permit);
    outcome
}

/// Builds the extraction configuration named by a request's arguments and
/// a canonical key for session reuse.
fn request_config(
    defaults: &ServeConfig,
    request: &Request,
) -> Result<(ExtractorConfig, String), String> {
    let algorithm =
        Algorithm::parse(request.arg("algorithm").unwrap_or("alg1")).map_err(|e| e.to_string())?;
    let adjacency =
        AdjacencyMode::parse(request.arg("variant").unwrap_or("opt")).map_err(|e| e.to_string())?;
    let engine_name = request.arg("engine").unwrap_or(&defaults.default_engine);
    let threads = match request.arg("threads") {
        None => defaults.default_threads,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("invalid value `{v}` for `threads`"))?,
    };
    let partitions = match request.arg("partitions") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("invalid value `{v}` for `partitions`"))?,
    };
    let repair = match request.arg("repair") {
        None | Some("false") => false,
        Some("true") => true,
        Some(other) => return Err(format!("invalid value `{other}` for `repair`")),
    };
    let config = ExtractorConfig::default()
        .with_algorithm(algorithm)
        .with_adjacency(adjacency)
        .with_repair(repair)
        .with_partitions(partitions)
        .with_engine_name(engine_name, threads)
        .map_err(|e| e.to_string())?;
    // Keyed by the resolved engine, so spellings that build one engine
    // (`engine=serial` at any `threads=`, `rayon` and `pool`) share a
    // session and its workspace.
    let key = format!(
        "{}|{:?}|{}x{}|p{}|r{}",
        algorithm.name(),
        adjacency,
        config.engine.name(),
        config.engine.threads(),
        partitions,
        repair,
    );
    Ok((config, key))
}

fn handle_extract(connection: &mut Connection, request: &Request) -> Outcome {
    let wait_start = Instant::now();
    let shared = Arc::clone(&connection.shared);
    // Admission first: a saturated server must park (or answer) before
    // paying any cache or configuration work.
    let (permit, queue_wait_ns) = match shared.acquire_permit(request) {
        Ok(granted) => granted,
        Err(outcome) => return outcome,
    };
    // Injected worker panic: fires *after* admission so the test proves
    // unwinding releases the permit and the queue is not poisoned.
    #[cfg(any(test, feature = "fault-injection"))]
    if shared.faults.fire(FaultKind::Panic).is_some() {
        panic!("injected worker panic");
    }
    let (config, session_key) = match request_config(&shared.config, request) {
        Ok(built) => built,
        Err(message) => return Outcome::error(ErrorCode::BadArg, &message),
    };
    // Resolve the graph: resident hash, or path through the cache.
    let (graph, hash, hit) = if let Some(hex) = request.arg("graph") {
        let Ok(hash) = u64::from_str_radix(hex, 16) else {
            return Outcome::error(ErrorCode::BadArg, &format!("invalid graph key `{hex}`"));
        };
        match shared.cache.get(hash) {
            Some(graph) => (graph, hash, true),
            None => {
                return Outcome::error(
                    ErrorCode::NotFound,
                    &format!("graph {hash:016x} is not resident (evicted or never loaded); re-LOAD or pass path="),
                )
            }
        }
    } else {
        let path = match request.require("path") {
            Ok(path) => path,
            Err(_) => {
                return Outcome::error(
                    ErrorCode::MissingArg,
                    "EXTRACT needs `graph=` (resident key) or `path=` (file)",
                )
            }
        };
        let format = match requested_format(request) {
            Ok(format) => format,
            Err(message) => return Outcome::error(ErrorCode::BadArg, &message),
        };
        match shared.cache.get_or_load(std::path::Path::new(path), format) {
            Ok(resolved) => resolved,
            Err(e) => return cache_error_outcome(path, e),
        }
    };
    let payload_edges = match request.arg("payload") {
        None | Some("none") => false,
        Some("edges") => true,
        Some(other) => {
            return Outcome::error(
                ErrorCode::BadArg,
                &format!("invalid value `{other}` for `payload`"),
            )
        }
    };
    // Session reuse: one ExtractionSession per distinct configuration per
    // connection, so repeated same-shape requests stop paying workspace
    // growth. The map is small and bounded; overflow drops an arbitrary
    // session (a rebuild, not an error).
    if !connection.sessions.contains_key(&session_key)
        && connection.sessions.len() >= MAX_SESSIONS_PER_CONNECTION
    {
        if let Some(victim) = connection.sessions.keys().next().cloned() {
            connection.sessions.remove(&victim);
        }
    }
    let session = connection
        .sessions
        .entry(session_key)
        .or_insert_with(|| ExtractionSession::new(config));
    let view = graph.as_graph_ref();
    let wait_ns = wait_start.elapsed().as_nanos() as u64;
    let result = session.extract(view);
    shared
        .counters
        .extractions_total
        .fetch_add(1, Ordering::SeqCst);
    drop(permit);
    let payload = if payload_edges {
        let sub = edge_subgraph(view, result.edges());
        let mut bytes = Vec::new();
        write_edge_list(&sub, &mut bytes).expect("serialising to memory cannot fail");
        bytes
    } else {
        Vec::new()
    };
    let mut frame = format!(
        "{{\"ok\":true,\"verb\":\"EXTRACT\",\"graph\":\"{hash:016x}\",\
         \"algorithm\":\"{}\",\"vertices\":{},\"canonical_edges\":{},\
         \"chordal_edges\":{},\"iterations\":{},\"extract_ns\":{},\
         \"wait_ns\":{wait_ns},\"queue_wait_ns\":{queue_wait_ns},\"cache\":\"{}\"",
        json_escape(session.extractor_name()),
        view.num_vertices(),
        view.num_canonical_edges(),
        result.num_chordal_edges(),
        result.iterations,
        result.extract_ns(),
        if hit { "hit" } else { "miss" },
    );
    if payload_edges {
        frame.push_str(&format!(",\"payload_bytes\":{}", payload.len()));
    }
    frame.push('}');
    let mut outcome = Outcome::reply(frame);
    outcome.payload = payload;
    outcome
}

/// Test hook: hold one admission permit for `ms=` milliseconds, so
/// saturation tests are deterministic. Goes through the same admission
/// queue as real work — HOLDs park FIFO and honor `deadline_ms` too.
fn handle_hold(connection: &mut Connection, request: &Request) -> Outcome {
    let ms = match request.require("ms").map(|v| v.parse::<u64>()) {
        Ok(Ok(ms)) => ms.min(10_000),
        Ok(Err(_)) | Err(_) => return Outcome::error(ErrorCode::BadArg, "HOLD needs ms=N"),
    };
    let shared = Arc::clone(&connection.shared);
    let (permit, queue_wait_ns) = match shared.acquire_permit(request) {
        Ok(granted) => granted,
        Err(outcome) => return outcome,
    };
    std::thread::sleep(Duration::from_millis(ms));
    drop(permit);
    Outcome::reply(format!(
        "{{\"ok\":true,\"verb\":\"HOLD\",\"held_ms\":{ms},\"queue_wait_ns\":{queue_wait_ns}}}"
    ))
}

/// The `FAULT` verb (compiled only with the `fault-injection` feature or
/// under test): arms the chaos schedule.
///
/// * `FAULT kind=K [count=N] [ms=M]` — the next N (default 1) operations
///   of kind `accept|read|write|slow-read|panic` fire; `ms` is the
///   slow-read delay.
/// * `FAULT kind=K seed=S [prob=P] [ms=M]` — seeded probabilistic mode:
///   each operation fires with probability P/1000 (default 500), drawn
///   from a SplitMix64 stream so the schedule replays per seed.
/// * `FAULT kind=corrupt-cache [count=N]` — the next N cache admissions
///   are treated as checksum failures (quarantine + `corrupt` reply).
/// * `FAULT clear=true` — disarm everything.
/// * `FAULT` — report armed directives and fired counters.
#[cfg(any(test, feature = "fault-injection"))]
fn handle_fault(connection: &mut Connection, request: &Request) -> Outcome {
    let shared = &connection.shared;
    let parse_u64 = |key: &str, default: u64| -> Result<u64, Outcome> {
        match request.arg(key) {
            None => Ok(default),
            Some(v) => v.parse::<u64>().map_err(|_| {
                Outcome::error(
                    ErrorCode::BadArg,
                    &format!("invalid value `{v}` for `{key}`"),
                )
            }),
        }
    };
    if request.arg("clear") == Some("true") {
        shared.faults.clear();
        return Outcome::reply("{\"ok\":true,\"verb\":\"FAULT\",\"armed\":0}".to_string());
    }
    let Some(kind_name) = request.arg("kind") else {
        let counts = shared.faults.counts();
        return Outcome::reply(format!(
            "{{\"ok\":true,\"verb\":\"FAULT\",\"armed\":{},\
             \"fired\":{{\"accept\":{},\"read\":{},\"write\":{},\
             \"slow_read\":{},\"panic\":{}}}}}",
            shared.faults.armed(),
            counts.accept,
            counts.read,
            counts.write,
            counts.slow_read,
            counts.panic,
        ));
    };
    let count = match parse_u64("count", 1) {
        Ok(count) => count,
        Err(outcome) => return outcome,
    };
    if kind_name == "corrupt-cache" {
        shared.cache.arm_corruption(count);
        return Outcome::reply(format!(
            "{{\"ok\":true,\"verb\":\"FAULT\",\"kind\":\"corrupt-cache\",\"count\":{count}}}"
        ));
    }
    let Some(kind) = FaultKind::parse(kind_name) else {
        return Outcome::error(
            ErrorCode::BadArg,
            &format!("invalid value `{kind_name}` for `kind`"),
        );
    };
    let ms = match parse_u64("ms", 0) {
        Ok(ms) => ms.min(10_000),
        Err(outcome) => return outcome,
    };
    match request.arg("seed") {
        Some(v) => {
            let Ok(seed) = v.parse::<u64>() else {
                return Outcome::error(
                    ErrorCode::BadArg,
                    &format!("invalid value `{v}` for `seed`"),
                );
            };
            let prob = match parse_u64("prob", 500) {
                Ok(prob) => prob,
                Err(outcome) => return outcome,
            };
            shared.faults.arm_seeded(kind, seed, prob, ms);
        }
        None => shared.faults.arm(kind, count, ms),
    }
    Outcome::reply(format!(
        "{{\"ok\":true,\"verb\":\"FAULT\",\"kind\":\"{}\",\"armed\":{}}}",
        json_escape(kind_name),
        shared.faults.armed(),
    ))
}

/// Builds the `STATS` frame: server counters (including the admission
/// queue observables), cache snapshot, pool introspection — plus the
/// fired-fault counters when fault injection is compiled in.
fn stats_frame(shared: &Arc<Shared>) -> String {
    let c = &shared.counters;
    let q = shared.admission.stats();
    let cache = shared.cache.stats();
    let pool = chordal_runtime::pool_stats();
    let mut frame = format!(
        "{{\"ok\":true,\"verb\":\"STATS\",\
         \"server\":{{\"sessions_active\":{},\"sessions_total\":{},\
         \"requests_total\":{},\"extractions_total\":{},\
         \"overloaded_total\":{},\"inflight\":{},\
         \"queue_depth\":{},\"queue_waits\":{},\"deadline_expired\":{},\
         \"max_queue_wait_ns\":{},\
         \"max_inflight\":{},\"max_queue\":{},\"max_sessions\":{}}},\
         \"cache\":{{\"entries\":{},\"resident_bytes\":{},\"budget_bytes\":{},\
         \"hits\":{},\"misses\":{},\"evictions\":{},\"corruptions\":{}}},\
         \"pool\":{{\"size\":{},\"idle_workers\":{},\"regions\":{},\
         \"tickets\":{},\"tickets_dropped\":{}}}",
        c.sessions_active.load(Ordering::SeqCst),
        c.sessions_total.load(Ordering::SeqCst),
        c.requests_total.load(Ordering::SeqCst),
        c.extractions_total.load(Ordering::SeqCst),
        c.overloaded_total.load(Ordering::SeqCst),
        q.inflight,
        q.queue_depth,
        q.queue_waits,
        q.deadline_expired,
        q.max_queue_wait_ns,
        shared.config.max_inflight,
        shared.config.max_queue,
        shared.config.max_sessions,
        cache.entries,
        cache.resident_bytes,
        cache.budget_bytes,
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.corruptions,
        chordal_runtime::pool_size(),
        chordal_runtime::pool_idle_workers(),
        pool.regions,
        pool.tickets,
        pool.tickets_dropped,
    );
    #[cfg(any(test, feature = "fault-injection"))]
    {
        let f = shared.faults.counts();
        frame.push_str(&format!(
            ",\"faults\":{{\"accept\":{},\"read\":{},\"write\":{},\
             \"slow_read\":{},\"panic\":{}}}",
            f.accept, f.read, f.write, f.slow_read, f.panic,
        ));
    }
    frame.push('}');
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spellings_of_one_engine_share_a_session_key() {
        let key = |args: &str| {
            let request = Request::parse(&format!("EXTRACT path=g {args}")).unwrap();
            request_config(&ServeConfig::default(), &request).unwrap().1
        };
        let serial = key("engine=serial threads=1");
        assert_eq!(key("engine=serial threads=4"), serial);
        let pool = key("engine=pool threads=2");
        assert_eq!(key("engine=rayon threads=2"), pool);
        assert_ne!(pool, serial);
        assert_ne!(key("engine=pool threads=3"), pool);
    }
}
