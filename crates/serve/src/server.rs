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
//! threads). Every connection owns one [`Workspace`], which each of its
//! extractions reuses whatever the request's configuration — workspaces
//! are never shared across connections — while the graph cache and the
//! pool are shared by all of them. That is exactly the multi-session shape
//! the pool's region accounting was built for. The accept loop joins the
//! threads of connections that have ended, so its registry holds only
//! live connections.
//!
//! See the crate docs for the protocol specification this module
//! implements.

use crate::cache::{CacheError, GraphCache};
#[cfg(any(test, feature = "fault-injection"))]
use crate::fault::{FaultInjector, FaultKind};
use crate::json::{JsonObject, ToJson};
use crate::protocol::{error_frame, ok_frame, ErrorCode, Request, MAX_REQUEST_BYTES};
use crate::queue::{AcquireError, AdmissionQueue};
use chordal_core::{ExtractError, ExtractorConfig, Workspace};
use chordal_graph::io::write_edges;
use chordal_graph::storage::FileFormat;
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
                let message = format!(
                    "admission queue full ({queue_depth} waiting, {} in flight, {} pool workers idle)",
                    self.config.max_inflight,
                    chordal_runtime::pool_idle_workers()
                );
                Err(Outcome::reply(
                    error_frame(ErrorCode::Overload, &message)
                        .field("retry_after_ms", retry_after_ms)
                        .field("queue_depth", queue_depth),
                ))
            }
            Err(AcquireError::DeadlineExceeded { waited_ns }) => Err(Outcome::reply(
                error_frame(
                    ErrorCode::DeadlineExceeded,
                    "deadline expired while queued; the request did not execute",
                )
                .field("queue_wait_ns", waited_ns),
            )),
            Err(AcquireError::ShuttingDown { waited_ns }) => {
                self.counters
                    .overloaded_total
                    .fetch_add(1, Ordering::SeqCst);
                Err(Outcome::reply(
                    error_frame(
                        ErrorCode::Overload,
                        "server is shutting down; the request did not execute",
                    )
                    .field("queue_wait_ns", waited_ns),
                ))
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
            Ok((mut stream, _)) => {
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
                    let frame = error_frame(
                        ErrorCode::Overload,
                        &format!("session limit reached ({active} active)"),
                    )
                    .field("retry_after_ms", 50);
                    let _ = write_frame(&mut stream, &frame.to_json(), &[]);
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
                    Ok(handle) => {
                        let mut registry = connections.lock().expect("connection registry");
                        // A thread that has exited keeps its stack mapped
                        // until it is joined.
                        for ended in registry.extract_if(.., |h| h.is_finished()) {
                            let _ = ended.join();
                        }
                        registry.push(handle);
                    }
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
    fn reply(frame: JsonObject) -> Outcome {
        Outcome {
            frame: frame.to_json(),
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

/// Per-connection state: the workspace every extraction of this connection
/// reuses, whatever its configuration.
struct Connection {
    shared: Arc<Shared>,
    workspace: Workspace,
}

/// Reads frames off one connection until EOF, error, or shutdown.
fn run_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let mut reader = stream.try_clone().ok();
    let mut writer = stream;
    let mut connection = Connection {
        shared: Arc::clone(&shared),
        workspace: Workspace::new(),
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
                    if write_frame(&mut writer, &frame.to_json(), &[]).is_err() {
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
            let _ = write_frame(&mut writer, &frame.to_json(), &[]);
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
        "PING" => reads(&request, &[], || Outcome::reply(ok_frame("PING"))),
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
            let mut outcome = Outcome::reply(ok_frame("SHUTDOWN"));
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
            Outcome::reply(
                ok_frame("LOAD")
                    .field("graph", format!("{hash:016x}"))
                    .field("vertices", view.num_vertices())
                    .field("edges", view.num_edges())
                    .field("canonical_edges", view.num_canonical_edges())
                    .field("cache", if hit { "hit" } else { "miss" })
                    .field("resident_bytes", cache.stats().resident_bytes)
                    .field("queue_wait_ns", queue_wait_ns),
            )
        }
        Err(e) => cache_error_outcome(path, e),
    };
    drop(permit);
    outcome
}

/// Builds the extraction configuration named by a request's arguments,
/// through the core's key parser (the CLI's too) with the server's default
/// engine and thread count. A `threads`, `partitions` or `repair` value
/// that does not parse reads "invalid value `x` for `threads`"; an unknown
/// name keeps the core's wording.
fn request_config(defaults: &ServeConfig, request: &Request) -> Result<ExtractorConfig, String> {
    ExtractorConfig::from_keys(
        |key| request.arg(key),
        &defaults.default_engine,
        defaults.default_threads,
    )
    .map_err(|error| match error {
        ExtractError::InvalidOption { option, given } => {
            format!("invalid value `{given}` for `{option}`")
        }
        other => other.to_string(),
    })
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
    let config = match request_config(&shared.config, request) {
        Ok(config) => config,
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
    let view = graph.as_graph_ref();
    let wait_ns = wait_start.elapsed().as_nanos() as u64;
    let extract_start = Instant::now();
    let result = config.extract_into(view, &mut connection.workspace);
    let extract_ns = extract_start.elapsed().as_nanos() as u64;
    shared
        .counters
        .extractions_total
        .fetch_add(1, Ordering::SeqCst);
    drop(permit);
    let payload = if payload_edges {
        let edges = result.edges();
        let mut bytes = Vec::new();
        write_edges(
            view.num_vertices(),
            edges.len(),
            edges.iter().copied(),
            &mut bytes,
        )
        .expect("serialising to memory cannot fail");
        bytes
    } else {
        Vec::new()
    };
    let mut frame = ok_frame("EXTRACT")
        .field("graph", format!("{hash:016x}"))
        .field("algorithm", config.name())
        .field("vertices", view.num_vertices())
        .field("canonical_edges", view.num_canonical_edges())
        .field("chordal_edges", result.num_chordal_edges())
        .field("iterations", result.iterations)
        .field("extract_ns", extract_ns)
        .field("wait_ns", wait_ns)
        .field("queue_wait_ns", queue_wait_ns)
        .field("cache", if hit { "hit" } else { "miss" });
    if payload_edges {
        frame = frame.field("payload_bytes", payload.len());
    }
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
    Outcome::reply(
        ok_frame("HOLD")
            .field("held_ms", ms)
            .field("queue_wait_ns", queue_wait_ns),
    )
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
        return Outcome::reply(ok_frame("FAULT").field("armed", 0));
    }
    let Some(kind_name) = request.arg("kind") else {
        return Outcome::reply(
            ok_frame("FAULT")
                .field("armed", shared.faults.armed())
                .field("fired", shared.faults.counts()),
        );
    };
    let count = match parse_u64("count", 1) {
        Ok(count) => count,
        Err(outcome) => return outcome,
    };
    if kind_name == "corrupt-cache" {
        shared.cache.arm_corruption(count);
        return Outcome::reply(
            ok_frame("FAULT")
                .field("kind", "corrupt-cache")
                .field("count", count),
        );
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
    Outcome::reply(
        ok_frame("FAULT")
            .field("kind", kind_name)
            .field("armed", shared.faults.armed()),
    )
}

/// Builds the `STATS` frame: server counters (including the admission
/// queue observables), cache snapshot, pool introspection — plus the
/// fired-fault counters when fault injection is compiled in.
fn stats_frame(shared: &Shared) -> JsonObject {
    let c = &shared.counters;
    let q = shared.admission.stats();
    let pool = chordal_runtime::pool_stats();
    let server = JsonObject::new()
        .field("sessions_active", c.sessions_active.load(Ordering::SeqCst))
        .field("sessions_total", c.sessions_total.load(Ordering::SeqCst))
        .field("requests_total", c.requests_total.load(Ordering::SeqCst))
        .field(
            "extractions_total",
            c.extractions_total.load(Ordering::SeqCst),
        )
        .field(
            "overloaded_total",
            c.overloaded_total.load(Ordering::SeqCst),
        )
        .field("inflight", q.inflight)
        .field("queue_depth", q.queue_depth)
        .field("queue_waits", q.queue_waits)
        .field("deadline_expired", q.deadline_expired)
        .field("max_queue_wait_ns", q.max_queue_wait_ns)
        .field("max_inflight", shared.config.max_inflight)
        .field("max_queue", shared.config.max_queue)
        .field("max_sessions", shared.config.max_sessions);
    let frame = ok_frame("STATS")
        .field("server", server)
        .field("cache", shared.cache.stats())
        .field(
            "pool",
            JsonObject::new()
                .field("size", chordal_runtime::pool_size())
                .field("idle_workers", chordal_runtime::pool_idle_workers())
                .field("regions", pool.regions)
                .field("tickets", pool.tickets)
                .field("tickets_dropped", pool.tickets_dropped),
        );
    #[cfg(any(test, feature = "fault-injection"))]
    let frame = frame.field("faults", shared.faults.counts());
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unparsable_number_names_its_argument() {
        let request = Request::parse("EXTRACT path=g threads=many").unwrap();
        let error = request_config(&ServeConfig::default(), &request).unwrap_err();
        assert_eq!(error, "invalid value `many` for `threads`");
    }

    // Starts a real server, whose admission queue runs only outside the
    // model checker.
    #[cfg(not(chordal_model))]
    #[test]
    fn the_registry_holds_only_live_connections() {
        use crate::client::ServeClient;
        let mut server = Server::start(ServeConfig::default()).unwrap();
        let all_ended = |server: &ServerHandle| {
            let registry = server.connections.lock().unwrap();
            registry.iter().all(std::thread::JoinHandle::is_finished)
        };
        for _ in 0..100 {
            let mut client = ServeClient::connect(server.addr()).unwrap();
            assert!(client.request("PING").unwrap().ok());
            drop(client);
            // The connection's thread ends before the next accept, which
            // must then join it.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while !all_ended(&server) {
                assert!(
                    std::time::Instant::now() < deadline,
                    "a connection never ended"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let registered = server.connections.lock().unwrap().len();
        assert!(
            registered <= 2,
            "{registered} handles after 100 connections"
        );
        server.shutdown();
    }
}
