//! `chordal serve` — the resident extraction service.
//!
//! The batch CLI pays graph parsing, pool spawn-up and workspace growth on
//! every invocation; production traffic is a resident process that pays
//! them once. This crate turns the extraction stack into that process: a
//! TCP front end speaking a small hand-rolled protocol, a
//! session-per-connection model multiplexed onto the shared persistent
//! worker pool, a graph cache keyed by content hash (load once, extract
//! many), and deadline-aware admission queueing that absorbs bursts in a
//! bounded FIFO queue and answers overload explicitly when even the queue
//! is full.
//!
//! # Protocol specification
//!
//! The protocol is line-oriented requests with JSON responses, plus a
//! length-prefixed binary payload for extraction output. It is hand-rolled
//! (the build environment has no serde; the encoder mirrors the
//! JSON-lines encoder of `chordal-bench`).
//!
//! ## Framing
//!
//! * **Requests** are UTF-8 lines terminated by `\n` (a trailing `\r` is
//!   stripped), at most [`protocol::MAX_REQUEST_BYTES`] bytes including
//!   the terminator. A line is a verb followed by space-separated
//!   `key=value` arguments: `EXTRACT path=/tmp/g.bin algorithm=alg1`.
//!   Empty lines are ignored. Requests may be pipelined: the server
//!   answers strictly in request order.
//! * **Responses** are exactly one JSON object per request, on one line.
//!   Success frames carry `"ok":true` and a `"verb"` echo; error frames
//!   carry `"ok":false`, a stable `"code"` and a human-readable
//!   `"error"`. When a response announces `"payload_bytes":N`, exactly
//!   `N` raw bytes follow the header line's `\n` — the length prefix is
//!   the framing, the payload is not JSON.
//!
//! ## Verbs
//!
//! | verb | arguments | reply |
//! |------|-----------|-------|
//! | `PING` | — | liveness echo |
//! | `LOAD` | `path=` (required), `format=text\|bin\|auto`, `deadline_ms=N` | loads the graph through the content-hash cache (checksum-verified on admission); replies with the 16-hex-digit `graph` key, vertex/edge counts, `cache=hit\|miss`, resident bytes and `queue_wait_ns` |
//! | `EXTRACT` | `graph=<16-hex>` **or** `path=` (+`format=`), `algorithm=alg1\|reference\|dearing\|partitioned`, `variant=opt\|unopt`, `semantics=async\|sync`, `engine=serial\|pool` (`rayon` is an alias of `pool`), `threads=N`, `partitions=N`, `repair=true\|false`, `payload=none\|edges`, `deadline_ms=N` | runs one extraction; replies with chordal edge count, iterations, `extract_ns` (extraction proper), `wait_ns` (admission + cache + session setup) and `queue_wait_ns` (time parked in the admission queue), then the edge-list payload when `payload=edges` |
//! | `STATS` | — | server/cache/pool introspection (see below) |
//! | `SHUTDOWN` | — | acknowledges, then stops the server gracefully (drain semantics below) |
//! | `HOLD` | `ms=N`, `deadline_ms=N` | **test hook** (only with [`ServeConfig::test_hooks`]): occupies one admission permit for `N` ms through the same FIFO queue as real work, so saturation and queueing tests are deterministic instead of timing-dependent |
//! | `FAULT` | `kind=accept\|read\|write\|slow-read\|panic\|corrupt-cache`, `count=N`, `ms=M`, `seed=S`, `prob=P`, `clear=true` | **chaos hook** (compiled only under `cfg(test)` or the `fault-injection` feature): arms the deterministic fault schedule of the `fault` module. With no arguments, reports armed directives and fired counters |
//!
//! A verb reads only the arguments its row lists. Any other key — a typo
//! such as `semantic=sync`, or a retired argument — is answered `bad-arg`
//! naming the key, and the request does nothing. The verb is checked
//! first, so an unknown verb answers `bad-verb` whatever its arguments.
//!
//! `EXTRACT payload=edges` serialises the extracted chordal subgraph in
//! the same edge-list text format `chordal extract --out` writes — the
//! differential suite asserts the bytes are identical.
//!
//! ## Deadlines
//!
//! `LOAD`, `EXTRACT` and `HOLD` accept `deadline_ms=N`: a bound on the
//! time the request may spend **parked in the admission queue**. A request
//! whose deadline passes before a permit frees is removed from the queue,
//! never executes, and is answered `deadline-exceeded` with the
//! `queue_wait_ns` it spent parked. The deadline does not bound execution:
//! once a permit is granted the request runs to completion. `deadline_ms=0`
//! means fail fast — succeed only if a permit is free right now.
//! [`ServeConfig::default_deadline_ms`] supplies a default for requests
//! that carry no `deadline_ms=` (0 = wait indefinitely).
//!
//! ## Error codes and admission semantics
//!
//! | code | meaning | connection |
//! |------|---------|------------|
//! | `bad-frame` | not UTF-8, or the line exceeded [`protocol::MAX_REQUEST_BYTES`] | closed after an oversized frame (the stream cannot be resynchronised); kept open for a non-UTF-8 line |
//! | `bad-verb` | unknown verb | open |
//! | `missing-arg` / `bad-arg` | required argument absent / value unparsable, or a key the verb does not read | open |
//! | `not-found` | `EXTRACT graph=` names a hash the cache no longer holds (e.g. evicted) — re-`LOAD` or use `path=` | open |
//! | `io` | graph file unreadable/undecodable | open |
//! | `corrupt` | the file failed its FNV-1a section checksum on cache admission; the entry was quarantined (resident copy evicted, `cache.corruptions` bumped) — distinct from `not-found`: the file exists but its bytes are damaged | open |
//! | `overload` | the admission queue is full, the session limit was hit, or the server is shutting down; carries a `retry_after_ms` back-off hint | open (session-limit rejections close) |
//! | `deadline-exceeded` | the request's `deadline_ms` expired while queued; it did not execute; carries `queue_wait_ns` | open |
//! | `internal` | a request handler panicked; the admission permit was released by unwinding (the queue is not poisoned) | closed |
//!
//! **Admission control** is a bounded FIFO wait queue, never an unbounded
//! one: at most [`ServeConfig::max_sessions`] connections are serviced — a
//! connection beyond that is answered with one `overload` frame and closed
//! — and at most [`ServeConfig::max_inflight`] admission-controlled
//! requests run at once. A request beyond that parks in strict FIFO order
//! in a queue bounded by [`ServeConfig::max_queue`] until a permit frees
//! or its deadline expires; only a *full queue* answers `overload`
//! (`max_queue = 0` restores bounce-only admission). Queue pressure is
//! observable in `STATS` (`queue_depth`, `queue_waits`,
//! `deadline_expired`, `max_queue_wait_ns`), and saturation of the pool's
//! ticket queues as `tickets_dropped`, so clients and tests assert on
//! counters rather than timing heuristics.
//!
//! **Graceful shutdown**: `SHUTDOWN` (and the CLI's SIGTERM/SIGINT path)
//! stops accepting, then *drains* — waits up to
//! [`ServeConfig::drain_timeout_ms`] for every queued and in-flight
//! request to finish — and finally answers any straggler still parked in
//! the queue with `overload` before sockets close. Every request that was
//! queued when shutdown began receives a response.
//!
//! ## The content-hash cache key
//!
//! Graphs are cached under
//! [`chordal_graph::storage::content_hash`]: FNV-1a 64 over the vertex
//! count, directed adjacency-entry count and the sections checksum of the
//! graph's canonical binary CSR encoding. For a **binary** file the key is
//! derived from the 48-byte header alone
//! ([`content_hash_from_header`](chordal_graph::storage::content_hash_from_header))
//! — the header `checksum` field is exactly the FNV-1a value
//! `chordal convert` writes and `chordal convert --verify` validates, so a
//! cache hit on a converted graph is **zero-parse**: one header read, then
//! the existing mmap (page-cache-shared across every session) serves all
//! extractions. On a **miss**, admission verifies the stored checksum
//! against the data sections before the entry may become resident — a
//! corrupt file is quarantined with a `corrupt` error instead of being
//! served; hits skip re-verification because residency implies the check
//! passed. A **text** file must be parsed once, after which its hash
//! equals its converted binary's — the two on-disk representations of one
//! graph share a single cache entry. Entries are evicted LRU when resident
//! bytes exceed [`ServeConfig::cache_budget_bytes`]; in-flight extractions
//! keep evicted graphs alive through their `Arc` until they finish.
//!
//! ## `STATS` layout
//!
//! ```json
//! {"ok":true,"verb":"STATS",
//!  "server":{"sessions_active":1,"sessions_total":3,"requests_total":17,
//!            "extractions_total":9,"overloaded_total":2,"inflight":0,
//!            "queue_depth":0,"queue_waits":4,"deadline_expired":1,
//!            "max_queue_wait_ns":1048576,
//!            "max_inflight":8,"max_queue":32,"max_sessions":64},
//!  "cache":{"entries":2,"resident_bytes":123456,"budget_bytes":1048576,
//!           "hits":7,"misses":2,"evictions":1,"corruptions":0},
//!  "pool":{"size":8,"idle_workers":8,"regions":41,"tickets":120,
//!          "tickets_dropped":0}}
//! ```
//!
//! Builds with fault injection compiled in add a `"faults"` object with
//! the fired-fault counters
//! (`{"accept":0,"read":1,"write":0,"slow_read":0,"panic":1}`).
//!
//! `pool.idle_workers` and `pool.tickets_dropped` surface
//! [`chordal_runtime::pool_idle_workers`] and
//! [`chordal_runtime::pool_stats`]`().tickets_dropped` so admission-control
//! tests assert on counters, not timing heuristics.

#![deny(missing_docs)]

pub mod cache;
pub mod client;
#[cfg(any(test, feature = "fault-injection"))]
pub mod fault;
pub mod protocol;
pub mod queue;
pub mod server;

// Chaos tests drive a real TCP server on real threads; under the model
// cfg the admission queue is backed by the checker facade, which only
// works inside `chordal_checker::model` — see queue.rs's `model_tests`.
#[cfg(all(test, not(chordal_model)))]
mod chaos_tests;

pub use cache::{CacheError, CacheStats, GraphCache};
pub use client::{Response, RetryPolicy, ServeClient};
pub use protocol::{ErrorCode, JsonValue, Request};
pub use queue::{AcquireError, AdmissionQueue, QueueStats};
pub use server::{ServeConfig, Server, ServerHandle};
