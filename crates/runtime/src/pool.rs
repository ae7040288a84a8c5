//! The persistent worker pool behind every parallel region of the workspace.
//!
//! The first parallel region lazily spawns a fixed set of worker threads
//! (sized by the `CHORDAL_POOL_THREADS` environment variable, falling back
//! to the number of logical CPUs). `Pool::new`, which runs once under the
//! `POOL` `OnceLock`, is the only place the pool spawns a thread, so every
//! subsequent region is executed by those same workers — no per-region
//! thread spawning — with one primitive: participants draining a shared
//! cursor.
//!
//! * A **region** is one parallel call site: an iteration space `0..len`
//!   split into `grain`-sized chunks behind an atomic cursor (dynamic
//!   self-scheduling, so skewed chunks load-balance).
//! * Submitting a region queues `participants - 1` *tickets* and then
//!   the submitting thread joins the region itself. A ticket is an
//!   **invitation** to help: the thread that pops it claims chunks from the
//!   region's cursor until the region is drained. Every ticket, whether a
//!   region is submitted from outside the pool or nested inside a running
//!   chunk, goes through one bounded FIFO queue behind a `Mutex`. A worker
//!   that finds the queue empty waits on a `Condvar`, and a submission
//!   notifies it only when a worker is waiting. A lock fits the traffic.
//!   A region takes it once for all its tickets, and the benchmark's
//!   workloads submit one to three regions per extraction, batch or
//!   request, each worth milliseconds of work, while a region's dispatch
//!   and join cost microseconds ([`estimated_region_overhead_ns_for`]).
//! * Because a ticket is only an invitation, a full queue simply drops it
//!   (the submitter keeps one fewer helper) and a *stale* ticket — one
//!   popped after its region already finished — is a no-op. Region
//!   accounting is two atomic counters: `pending` (invitations not yet
//!   claimed) and `active` (threads executing chunks). A helper *claims* an
//!   invitation by incrementing `active` **before** decrementing `pending`,
//!   so the joiner can never observe both counters at zero while a claimed
//!   helper has yet to start.
//! * The submitting thread participates too; when its share of the cursor
//!   is drained it **cancels** the remaining invitations (one atomic swap
//!   of `pending` to zero) and then waits, spinning briefly and parking,
//!   until `active` reaches zero. The last finishing helper unparks it. A
//!   joining thread never executes *foreign* chunks — the
//!   region-restricted-helping rule that keeps chunk bodies free to hold
//!   thread-local state across nested regions — and never waits on
//!   anything but actively-running chunks, so nested regions cannot
//!   deadlock even on a single-worker pool.
//! * Panics inside a chunk abort the region's remaining chunks, are carried
//!   across the pool, and are re-thrown on the submitting thread once every
//!   active participant has retired (a panic-propagating join, matching
//!   `std::thread::scope` semantics). The panic payload slot is a second
//!   mutex, only ever touched on the panic path.
//!
//! Safety of the lifetime-erased region body rests on one invariant:
//! [`Pool::run_region`] does not return until `pending` has been cancelled
//! and `active` has reached zero, and a helper only dereferences the body
//! after successfully claiming a `pending` invitation — so no dereference
//! of the body can outlive the caller's borrow.
//!
//! The pool also keeps [scheduling counters](PoolStats) (regions
//! submitted, tickets queued and dropped) and can
//! [calibrate](estimated_region_overhead_ns_for) the per-region dispatch
//! overhead; benchmarks report that sample next to their timings.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

// Under `cfg(chordal_model)` the atomics, mutexes, condvar and thread
// handles come from the chordal-checker facade so the model tests below can
// explore the ticket queue and the region join protocol deterministically
// (see docs/concurrency.md).
#[cfg(not(chordal_model))]
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
#[cfg(not(chordal_model))]
use std::sync::{Condvar, Mutex};
#[cfg(not(chordal_model))]
use std::thread;
#[cfg(not(chordal_model))]
use std::thread::Thread;

#[cfg(chordal_model)]
use chordal_checker::sync::{AtomicBool, AtomicUsize, Condvar, Mutex, Ordering};
#[cfg(chordal_model)]
use chordal_checker::thread;
#[cfg(chordal_model)]
use chordal_checker::thread::Thread;

/// Capacity of the ticket queue (tickets, not chunks).
const QUEUE_CAPACITY: usize = 1024;

/// Spin iterations before a joining thread parks.
#[cfg(not(chordal_model))]
const JOIN_SPINS: u32 = 128;
/// Under the model checker every spin iteration is a schedule point, so the
/// joiner parks almost immediately to keep the state space tractable.
#[cfg(chordal_model)]
const JOIN_SPINS: u32 = 1;

/// Backstop park timeout for a joining thread waiting on active helpers.
const JOIN_PARK: Duration = Duration::from_micros(200);

/// Regions timed per [`estimated_region_overhead_ns_for`] round.
const OVERHEAD_SAMPLES: usize = 64;

/// Rounds [`estimated_region_overhead_ns_for`] may time before it settles
/// for the regions that every participant joined, however few.
const OVERHEAD_ROUNDS: usize = 4;

/// Longest wait for an idle pool before one timed calibration region, and
/// for its helpers to join it.
const IDLE_WAIT: Duration = Duration::from_millis(2);

/// Why `expect` on the queue's lock cannot fire: no critical section of
/// the queue runs code that can panic.
const UNPOISONED: &str = "the ticket queue's critical sections do not panic";

/// One parallel region: an iteration space drained cooperatively by the
/// submitting thread and any pool workers that claim its invitations.
struct Region {
    /// Next unclaimed index of the iteration space.
    cursor: AtomicUsize,
    /// Total length of the iteration space.
    len: usize,
    /// Indices claimed per scheduling step.
    grain: usize,
    /// Set when a chunk panicked: remaining chunks are abandoned.
    aborted: AtomicBool,
    /// The region body, lifetime-erased to a raw pointer. Only dereferenced
    /// by a thread that claimed a `pending` invitation (or by the submitter
    /// itself), both of which [`Pool::run_region`] outlives. A raw pointer
    /// (not a reference) because cancelled tickets keep their `Region`
    /// alive in the queue after `run_region` returns — the body is dead by
    /// then, and a dangling pointer that is never dereferenced is sound
    /// where a dangling reference would not be.
    func: FuncPtr,
    /// Invitations published and not yet claimed. The joiner swaps this to
    /// zero when it finishes participating; stale tickets then no-op.
    pending: AtomicUsize,
    /// Threads executing (or committed to executing) chunks, including the
    /// submitter.
    active: AtomicUsize,
    /// The submitting thread, unparked when the region quiesces.
    joiner: Thread,
    /// First panic payload raised by a chunk (cold path only).
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A lifetime-erased `&dyn Fn(Range<usize>)` region body, stored raw.
struct FuncPtr(*const (dyn Fn(Range<usize>) + Sync));

// `Pool::run_region` guarantees every dereference happens before the
// caller's borrow ends (see module docs); after that the pointer may
// dangle inside stale tickets but is never dereferenced again (the
// `pending == 0` claim guard).
// SAFETY: the pointee is `Sync` and the liveness argument above bounds
// every cross-thread dereference inside the caller's borrow.
unsafe impl Send for FuncPtr {}
// SAFETY: shared access is read-only (the pointer is only ever read and
// dereferenced to a `Sync` pointee); see the liveness argument on Send.
unsafe impl Sync for FuncPtr {}

impl Region {
    /// Claims and executes chunks until the region is drained or aborted.
    /// The caller must already be counted in `active`.
    fn execute_chunks(&self) {
        while !self.aborted.load(Ordering::Relaxed) {
            let start = self.cursor.fetch_add(self.grain, Ordering::Relaxed);
            if start >= self.len {
                break;
            }
            let end = (start + self.grain).min(self.len);
            // SAFETY: reaching a chunk means this thread claimed a
            // `pending` invitation (or is the submitter), so `run_region`
            // is still on the submitter's stack and the body is alive.
            let body = unsafe { &*self.func.0 };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(start..end))) {
                self.aborted.store(true, Ordering::Relaxed);
                let mut slot = self.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
    }

    /// Retires one participation; the last one out wakes the joiner.
    fn finish(&self) {
        if self.active.fetch_sub(1, Ordering::SeqCst) == 1
            && self.pending.load(Ordering::SeqCst) == 0
        {
            self.joiner.unpark();
        }
    }

    /// Entry point for a popped ticket: claim one invitation and help, or
    /// no-op if the region was already cancelled.
    ///
    /// The order is load-bearing: `active` is incremented *before* the
    /// `pending` claim, so once the joiner has cancelled `pending` and seen
    /// `active == 0` (both SeqCst), no helper can still be about to
    /// dereference the body.
    fn help(&self) {
        self.active.fetch_add(1, Ordering::SeqCst);
        let mut invitations = self.pending.load(Ordering::SeqCst);
        loop {
            if invitations == 0 {
                // Cancelled or fully claimed: stale ticket, nothing to do.
                self.finish();
                return;
            }
            match self.pending.compare_exchange_weak(
                invitations,
                invitations - 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(current) => invitations = current,
            }
        }
        self.execute_chunks();
        self.finish();
    }
}

/// Monotonic scheduling counters of the shared pool.
///
/// All counters start at zero when the process starts and only ever grow;
/// callers interested in one workload's behaviour take a delta around it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Parallel regions submitted to the pool (excludes inline serial runs).
    pub regions: u64,
    /// Help-invitation tickets queued.
    pub tickets: u64,
    /// Always 0: the pool has no per-worker queues to steal from. Kept so
    /// callers that build or difference the struct field by field compile.
    pub steals: u64,
    /// Help-invitation tickets that could not be queued because the queue
    /// was full. A dropped ticket degrades a region to fewer helpers
    /// (the submitter still drains the cursor, so correctness is
    /// unaffected) — this counter is the only trace saturation leaves.
    pub tickets_dropped: u64,
}

/// The ticket queue and its counters, guarded by [`Shared::queue`].
#[derive(Default)]
struct Queue {
    /// Queued tickets, oldest first; never more than [`QUEUE_CAPACITY`].
    tickets: VecDeque<Arc<Region>>,
    /// Workers blocked in [`Shared::next_ticket`]'s condvar wait.
    waiting: usize,
    /// Parallel regions submitted.
    regions: u64,
    /// Tickets queued.
    queued: u64,
    /// Tickets dropped because the queue was full.
    dropped: u64,
}

/// The shared state of the persistent pool.
struct Shared {
    /// Worker threads of the pool: a region has at most this many helpers.
    workers: usize,
    /// The queue every ticket goes through.
    queue: Mutex<Queue>,
    /// Waited on by workers that find the queue empty; notified once per
    /// queued ticket while a worker waits.
    ticket_queued: Condvar,
}

impl Shared {
    /// The state of a pool of `workers` threads. Spawns nothing: the model
    /// tests drive a worker's steps on threads of their own.
    fn new(workers: usize) -> Self {
        Self {
            workers,
            queue: Mutex::new(Queue::default()),
            ticket_queued: Condvar::new(),
        }
    }

    /// Queues `count` tickets of `region` and wakes one waiting worker per
    /// queued ticket. Returns how many tickets a full queue dropped: a
    /// dropped invitation costs parallelism, never correctness (the
    /// submitter drains the cursor regardless).
    fn invite(&self, region: &Arc<Region>, count: usize) -> usize {
        let mut queue = self.queue.lock().expect(UNPOISONED);
        let queued = count.min(QUEUE_CAPACITY - queue.tickets.len());
        for _ in 0..queued {
            queue.tickets.push_back(Arc::clone(region));
        }
        queue.regions += 1;
        queue.queued += queued as u64;
        queue.dropped += (count - queued) as u64;
        let wake = queued.min(queue.waiting);
        drop(queue);
        for _ in 0..wake {
            self.ticket_queued.notify_one();
        }
        count - queued
    }

    /// Pops the oldest ticket, waiting on the condvar while the queue is
    /// empty. A worker that finds the queue empty counts itself as waiting
    /// under the lock, so a submission that queues a ticket after that
    /// check sees the count and notifies.
    fn next_ticket(&self) -> Arc<Region> {
        let mut queue = self.queue.lock().expect(UNPOISONED);
        loop {
            if let Some(ticket) = queue.tickets.pop_front() {
                return ticket;
            }
            queue.waiting += 1;
            queue = self.ticket_queued.wait(queue).expect(UNPOISONED);
            queue.waiting -= 1;
        }
    }
}

/// Handle to the lazily-spawned persistent pool.
pub(crate) struct Pool {
    shared: Arc<Shared>,
}

impl Pool {
    fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared::new(workers));
        for index in 0..workers {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("chordal-pool-{index}"))
                .spawn(move || loop {
                    shared.next_ticket().help();
                })
                .expect("failed to spawn pool worker");
        }
        Self { shared }
    }

    /// The process-wide pool, spawned on first use.
    pub(crate) fn global() -> &'static Pool {
        POOL.get_or_init(|| Pool::new(pool_size()))
    }

    /// Runs `f` over `grain`-sized chunks of `0..len`, using at most
    /// `parallelism` threads (the caller plus up to `parallelism - 1` pool
    /// workers). Blocks until the region quiesces; re-throws the first chunk
    /// panic on the calling thread.
    pub(crate) fn run_region<F>(&self, len: usize, grain: usize, parallelism: usize, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if len == 0 {
            return;
        }
        let grain = grain.max(1);
        let chunks = len.div_ceil(grain);
        // Cap at the pool size plus the caller: invitations beyond the
        // worker count can never be claimed concurrently, so queueing them
        // would be pure dispatch waste (a ticket and a wake each).
        let participants = parallelism.max(1).min(chunks).min(self.shared.workers + 1);
        if participants <= 1 {
            f(0..len);
            return;
        }
        let body: &(dyn Fn(Range<usize>) + Sync) = &f;
        // Lifetime erasure to a raw wide pointer (same layout). This
        // function does not return until the region quiesces (pending
        // invitations cancelled, no thread active in the region), so the
        // pointer outlives every dereference; cancelled tickets may keep it
        // around longer, but they never dereference it (`Region::help`).
        // SAFETY: same-layout transmute; liveness argument above.
        let body: *const (dyn Fn(Range<usize>) + Sync) = unsafe { std::mem::transmute(body) };
        let region = Arc::new(Region {
            cursor: AtomicUsize::new(0),
            len,
            grain,
            aborted: AtomicBool::new(false),
            func: FuncPtr(body),
            pending: AtomicUsize::new(participants - 1),
            // The submitter counts as active from the start, so helpers'
            // quiescence checks cannot fire before it has joined.
            active: AtomicUsize::new(1),
            joiner: thread::current(),
            panic: Mutex::new(None),
        });
        let dropped = self.shared.invite(&region, participants - 1);
        if dropped > 0 {
            // Queue full: withdraw the invitations it had no room for.
            region.pending.fetch_sub(dropped, Ordering::SeqCst);
        }
        region.execute_chunks();
        // Join. Cancel every unclaimed invitation — stale tickets in the
        // queue become no-ops (the cursor is already drained or aborted
        // once `execute_chunks` returns, so cancelled helpers lose nothing)
        // — then wait for in-flight helpers to retire. Only actively
        // running chunks are ever waited on, which is what keeps nested
        // regions deadlock-free on any pool size.
        region.pending.swap(0, Ordering::SeqCst);
        region.active.fetch_sub(1, Ordering::SeqCst);
        let mut spins = 0u32;
        while region.active.load(Ordering::SeqCst) > 0 {
            if spins < JOIN_SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                thread::park_timeout(JOIN_PARK);
            }
        }
        if region.aborted.load(Ordering::Relaxed) {
            let panicked = region.panic.lock().unwrap().take();
            if let Some(payload) = panicked {
                resume_unwind(payload);
            }
        }
    }

    /// Current scheduling counters.
    pub(crate) fn stats(&self) -> PoolStats {
        let queue = self.shared.queue.lock().expect(UNPOISONED);
        PoolStats {
            regions: queue.regions,
            tickets: queue.queued,
            steals: 0,
            tickets_dropped: queue.dropped,
        }
    }

    /// Number of pool workers waiting for a ticket (a racy hint, read
    /// under the queue's lock) that callers use to detect spare capacity.
    pub(crate) fn idle_workers(&self) -> usize {
        self.shared.queue.lock().expect(UNPOISONED).waiting
    }
}

/// The lazily-initialised process-wide pool.
static POOL: OnceLock<Pool> = OnceLock::new();

/// Current scheduling counters of the shared pool; all zero before the
/// first parallel region. Take a delta around a workload to attribute
/// regions and tickets to it.
pub fn pool_stats() -> PoolStats {
    POOL.get().map(Pool::stats).unwrap_or_default()
}

/// Measured cost of dispatching and joining one (near-empty) parallel
/// region with `parallelism` participants on this machine, in nanoseconds.
///
/// Calibrated on first call *per participant count* and memoised per
/// count for the process lifetime. The workloads submit their regions to
/// an idle pool and every participant joins them, so each region pays the
/// helpers' wake-ups. A timed region is therefore submitted only once
/// every worker waits for a ticket, and each of its chunks waits until
/// every participant holds one; both waits are bounded at 2 ms, for a pool
/// that other regions keep busy. A region in which some chunk gave up on
/// that second wait did not see every participant join, and its time is
/// mostly the bound itself, so it is no sample: before, two of nine
/// traced benchmark runs memoised 2.00–2.01 ms, against 6.0–8.5 µs in the
/// other seven. The estimate is the median of the regions every
/// participant joined (`median_of_joined`). Regions are timed in rounds
/// of 64, up to 4 rounds, until at least half of those timed so far
/// joined. If no region joined in all 4 rounds, the function returns the
/// 2 ms wait bound: a full join took at least that long on this pool.
///
/// On a 2-core host, regions timed back to back read 0.24–0.53 µs or
/// 2.9–4.4 µs, depending on whether the previous region's helpers were
/// still awake; from an idle pool without the second wait, 0.44–3.6 µs,
/// depending on whether the submitter drained the region before its
/// helper woke; with both waits, 6.9–8.2 µs over 32 fresh processes.
/// Keying the sample by participant count is load-bearing: a region with
/// more participants publishes more tickets and pays more wake-ups, so a
/// session whose engine runs 8 threads must not reuse the sample a
/// 2-thread session happened to take first (the stale-calibration bug).
/// The sample covers ticket publication, the worker wake-ups, the cursor
/// handshake and the park/unpark join.
///
/// `parallelism` is clamped to `[2, pool size + 1]` — the range of
/// participant counts a region can actually have — so distinct requested
/// thread counts that resolve to the same participant count share one
/// sample.
pub fn estimated_region_overhead_ns_for(parallelism: usize) -> u64 {
    static SAMPLES: OnceLock<Mutex<std::collections::HashMap<usize, u64>>> = OnceLock::new();
    let key = parallelism.clamp(2, pool_size() + 1);
    let samples = SAMPLES.get_or_init(|| Mutex::new(std::collections::HashMap::new()));
    if let Some(&sample) = samples.lock().unwrap().get(&key) {
        return sample;
    }
    // Calibrate outside the lock: the burst below submits pool regions, and
    // a region body must never be able to re-enter this path while the map
    // is held.
    let pool = Pool::global();
    // Warm up: spawn the workers and fault in the code paths.
    for _ in 0..8 {
        pool.run_region(key, 1, key, |_| {});
    }
    let mut timings = Vec::with_capacity(OVERHEAD_SAMPLES);
    for _ in 0..OVERHEAD_ROUNDS {
        timings.extend((0..OVERHEAD_SAMPLES).map(|_| time_joined_region(pool, key)));
        let joined = timings.iter().filter(|&&(_, joined)| joined).count();
        if 2 * joined >= timings.len() {
            break;
        }
    }
    let sample = median_of_joined(&mut timings).unwrap_or(IDLE_WAIT.as_nanos() as u64);
    // First writer wins, so the memoised value is stable even when two
    // threads calibrate the same key concurrently.
    *samples.lock().unwrap().entry(key).or_insert(sample.max(1))
}

/// Times one calibration region of `key` one-index chunks on `pool`, once
/// every worker waits for a ticket (or [`IDLE_WAIT`] has passed). Returns
/// the nanoseconds and whether every chunk saw all `key` participants
/// join within [`IDLE_WAIT`].
fn time_joined_region(pool: &Pool, key: usize) -> (u64, bool) {
    let idle_by = Instant::now() + IDLE_WAIT;
    while pool.idle_workers() < pool.shared.workers && Instant::now() < idle_by {
        thread::yield_now();
    }
    // Each chunk waits until every participant holds one, so the submitter
    // cannot drain the region alone before a woken helper claims its
    // invitation.
    let joined = AtomicUsize::new(0);
    let gave_up = AtomicBool::new(false);
    let start = Instant::now();
    let joined_by = start + IDLE_WAIT;
    pool.run_region(key, 1, key, |_| {
        joined.fetch_add(1, Ordering::SeqCst);
        while joined.load(Ordering::SeqCst) < key {
            if Instant::now() >= joined_by {
                gave_up.store(true, Ordering::SeqCst);
                break;
            }
            std::hint::spin_loop();
        }
    });
    let elapsed = start.elapsed().as_nanos() as u64;
    (elapsed, !gave_up.load(Ordering::SeqCst))
}

/// The median time of the regions every participant joined, or `None` if
/// none did. `timings` pairs each region's nanoseconds with whether it
/// joined; the joined ones are moved to the front and sorted.
fn median_of_joined(timings: &mut [(u64, bool)]) -> Option<u64> {
    timings.sort_unstable_by_key(|&(ns, joined)| (!joined, ns));
    let joined = timings.iter().take_while(|&&(_, joined)| joined).count();
    (joined > 0).then(|| timings[joined / 2].0)
}

/// Number of shared-pool workers currently waiting for a ticket — a
/// constant-time, racy capacity hint read under the ticket queue's lock
/// (zero before the first parallel region spawns the pool: an unspawned
/// pool has no waiting workers to recruit *now*, and the first region's
/// tickets will wake them anyway). The serve tier reports it in `STATS` and
/// overload replies.
pub fn pool_idle_workers() -> usize {
    POOL.get().map(Pool::idle_workers).unwrap_or(0)
}

/// Number of worker threads the shared pool has (or will have once the
/// first parallel region spawns it): `CHORDAL_POOL_THREADS` when set to a
/// positive integer, otherwise the number of logical CPUs. Computed once,
/// without spawning any threads. An engine may be configured with more
/// threads than this; a region's real parallelism is capped at the pool's
/// workers plus the submitting thread.
pub fn pool_size() -> usize {
    static SIZE: OnceLock<usize> = OnceLock::new();
    *SIZE.get_or_init(|| {
        std::env::var("CHORDAL_POOL_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

#[cfg(all(test, not(chordal_model)))]
mod tests {
    use super::*;

    #[test]
    fn counters_grow_with_submitted_regions() {
        let pool = Pool::global();
        let before = pool.stats();
        for _ in 0..16 {
            pool.run_region(64, 1, 2, |_| {});
        }
        let after = pool.stats();
        assert!(
            after.regions >= before.regions + 16,
            "regions {} -> {}",
            before.regions,
            after.regions
        );
        assert!(after.tickets >= before.tickets, "tickets must not shrink");
    }

    #[test]
    fn overhead_estimate_is_positive_and_memoised_per_parallelism() {
        // Regression test for the stale-calibration bug: the sample is
        // keyed by participant count, so a 2-participant calibration and a
        // wider one are taken (and memoised) independently — a session
        // running a different thread count can no longer inherit whichever
        // sample happened to be taken first.
        let narrow = estimated_region_overhead_ns_for(2);
        assert!(narrow >= 1);
        assert_eq!(
            narrow,
            estimated_region_overhead_ns_for(2),
            "sample must be memoised per key"
        );
        let wide_key = pool_size() + 1;
        let wide = estimated_region_overhead_ns_for(wide_key);
        assert!(wide >= 1);
        assert_eq!(
            wide,
            estimated_region_overhead_ns_for(wide_key),
            "each key memoises its own sample"
        );
        // Out-of-range requests clamp onto the calibrated range instead of
        // growing the table without bound.
        assert_eq!(estimated_region_overhead_ns_for(0), narrow);
        assert_eq!(estimated_region_overhead_ns_for(usize::MAX), wide);
    }

    #[test]
    fn overhead_estimate_drops_regions_that_did_not_join() {
        // Every region joined: the plain median.
        let mut all = [(9, true), (7, true), (8, true), (6, true)];
        assert_eq!(median_of_joined(&mut all), Some(8));
        // Regions that timed out sit at the wait bound and must not count,
        // even when they are most of the round.
        let bound = IDLE_WAIT.as_nanos() as u64;
        let mut some = [
            (bound, false),
            (7, true),
            (bound + 3, false),
            (5, true),
            (bound, false),
        ];
        assert_eq!(median_of_joined(&mut some), Some(7));
        // No region joined: no estimate.
        let mut none = [(bound, false), (bound + 1, false)];
        assert_eq!(median_of_joined(&mut none), None);
        assert_eq!(median_of_joined(&mut []), None);
    }

    #[test]
    fn full_queues_count_dropped_tickets_and_stay_correct() {
        // A private one-worker pool whose worker is parked inside a gated
        // region: every stale ticket the main thread leaves behind then
        // accumulates in the queue until it saturates, which must (a)
        // never affect results and (b) leave a trace in `tickets_dropped`.
        let pool = Pool::new(1);
        let gate = Arc::new(AtomicBool::new(false));
        let entered = Arc::new(AtomicUsize::new(0));
        let blocker = {
            let shared = Arc::clone(&pool.shared);
            let gate = Arc::clone(&gate);
            let entered = Arc::clone(&entered);
            std::thread::spawn(move || {
                let pool = Pool { shared };
                // Two chunks, two participants: the submitter blocks on one
                // chunk, the worker claims the invitation and blocks on the
                // other.
                pool.run_region(2, 1, 2, |_| {
                    entered.fetch_add(1, Ordering::SeqCst);
                    while !gate.load(Ordering::SeqCst) {
                        std::thread::park_timeout(Duration::from_micros(50));
                    }
                });
            })
        };
        while entered.load(Ordering::SeqCst) < 2 {
            std::hint::spin_loop();
        }
        // Both the worker and the blocker thread are now pinned inside the
        // gated region; nothing can drain the queue.
        let before = pool.stats();
        let total = AtomicUsize::new(0);
        let floods = QUEUE_CAPACITY + 200;
        for _ in 0..floods {
            // Each submission publishes one invitation; the submitter
            // drains both chunks itself and cancels the invitation, which
            // stays in the queue as a stale ticket.
            pool.run_region(2, 1, 2, |r| {
                total.fetch_add(r.len(), Ordering::Relaxed);
            });
        }
        let after = pool.stats();
        assert_eq!(
            total.into_inner(),
            floods * 2,
            "every flooded region must complete exactly despite saturation"
        );
        assert!(
            after.tickets_dropped > before.tickets_dropped,
            "saturating the queue must be visible in tickets_dropped \
             ({} -> {})",
            before.tickets_dropped,
            after.tickets_dropped
        );
        gate.store(true, Ordering::SeqCst);
        blocker.join().unwrap();
        // The pool still runs work (the worker drains the stale backlog as
        // no-ops).
        let sum = AtomicUsize::new(0);
        pool.run_region(64, 4, 2, |r| {
            sum.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 64);
    }

    #[test]
    fn nested_regions_finish_on_a_one_worker_pool() {
        // Inner regions are submitted from inside a chunk, also by the one
        // worker, and their tickets queue behind the outer one's: every
        // join must still complete.
        let pool = Pool::new(1);
        let total = AtomicUsize::new(0);
        pool.run_region(4, 1, 2, |outer| {
            for _ in outer {
                pool.run_region(64, 8, 2, |inner| {
                    total.fetch_add(inner.len(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.into_inner(), 4 * 64);
    }

    #[test]
    fn concurrent_external_submitters_all_complete() {
        // Many non-worker threads submitting regions at once exercises the
        // queue's lock and the condvar wake under contention.
        let pool = Pool::global();
        let totals: Vec<usize> = std::thread::scope(|s| {
            (0..6usize)
                .map(|t| {
                    s.spawn(move || {
                        let sum = AtomicUsize::new(0);
                        for round in 0..24 {
                            pool.run_region(500 + t + round, 16, 3, |r| {
                                sum.fetch_add(r.len(), Ordering::Relaxed);
                            });
                        }
                        sum.into_inner()
                    })
                })
                .map(|h| h.join().unwrap())
                .collect()
        });
        for (t, total) in totals.into_iter().enumerate() {
            let expected: usize = (0..24).map(|round| 500 + t + round).sum();
            assert_eq!(total, expected, "submitter {t}");
        }
    }

    #[test]
    fn panics_under_contention_reach_their_own_submitter() {
        // Several concurrent submitters, half of them panicking: each panic
        // must surface on its own submitting thread and leave the others
        // (and the pool) intact.
        let pool = Pool::global();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4usize)
                .map(|t| {
                    s.spawn(move || {
                        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            pool.run_region(2_000, 8, 3, |r| {
                                if t % 2 == 0 && r.contains(&1_111) {
                                    panic!("contended boom {t}");
                                }
                            });
                        }));
                        (t, outcome)
                    })
                })
                .collect();
            for handle in handles {
                let (t, outcome) = handle.join().unwrap();
                if t % 2 == 0 {
                    let payload = outcome.expect_err("even submitters must observe their panic");
                    let message = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default();
                    assert!(
                        message.contains(&format!("contended boom {t}")),
                        "wrong payload for submitter {t}: {message}"
                    );
                } else {
                    outcome.expect("odd submitters must complete cleanly");
                }
            }
        });
        // The pool still runs work afterwards.
        let sum = AtomicUsize::new(0);
        pool.run_region(100, 4, 2, |r| {
            sum.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 100);
    }
}

/// Model-checker tests for the ticket queue and the region join protocol;
/// compiled only under `RUSTFLAGS="--cfg chordal_model"`. They construct
/// `Shared` and `Region` directly (the full `Pool` spawns forever-looping
/// workers, which a finite exploration cannot model) and exhaustively
/// explore the wait/wake of the queue and the claim/cancel/quiesce
/// handshake.
#[cfg(all(test, chordal_model))]
mod model_tests {
    use super::*;
    use chordal_checker::model;

    /// Runs the submitter side of `run_region`'s join: cancel unclaimed
    /// invitations, retire, and wait for in-flight helpers.
    fn join(region: &Region) {
        region.pending.swap(0, Ordering::SeqCst);
        region.active.fetch_sub(1, Ordering::SeqCst);
        let mut spins = 0u32;
        while region.active.load(Ordering::SeqCst) > 0 {
            if spins < JOIN_SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                thread::park_timeout(JOIN_PARK);
            }
        }
    }

    fn make_region(len: usize, pending: usize, body: &(dyn Fn(Range<usize>) + Sync)) -> Region {
        // SAFETY: same lifetime erasure as `run_region`; each test joins the
        // region (and its helper thread) before `body` goes out of scope.
        let body: *const (dyn Fn(Range<usize>) + Sync) = unsafe { std::mem::transmute(body) };
        Region {
            cursor: AtomicUsize::new(0),
            len,
            grain: 1,
            aborted: AtomicBool::new(false),
            func: FuncPtr(body),
            pending: AtomicUsize::new(pending),
            active: AtomicUsize::new(1),
            joiner: thread::current(),
            panic: Mutex::new(None),
        }
    }

    /// The load-bearing claim order (`active` up *before* the `pending`
    /// claim, both SeqCst): once the joiner has cancelled `pending` and
    /// observed `active == 0`, no helper may still be about to dereference
    /// the body. The body asserts it never runs after quiescence, and the
    /// chunk accounting must be exact in every interleaving.
    #[test]
    fn region_join_quiesces_exactly() {
        model(|| {
            let hits = Arc::new(AtomicUsize::new(0));
            let retired = Arc::new(AtomicBool::new(false));
            let (h2, r2) = (Arc::clone(&hits), Arc::clone(&retired));
            let body = move |r: Range<usize>| {
                assert!(
                    !r2.load(Ordering::SeqCst),
                    "chunk body ran after the joiner observed quiescence"
                );
                h2.fetch_add(r.len(), Ordering::SeqCst);
            };
            let region = Arc::new(make_region(2, 1, &body));
            let helper = {
                let region = Arc::clone(&region);
                thread::spawn(move || region.help())
            };
            region.execute_chunks();
            join(&region);
            retired.store(true, Ordering::SeqCst);
            assert_eq!(hits.load(Ordering::SeqCst), 2, "every chunk exactly once");
            helper.join().unwrap();
        });
    }

    /// A panicking chunk must still retire its participation (the
    /// permit-release-on-panic invariant): the joiner never deadlocks, the
    /// region aborts, and the payload is captured for rethrow.
    #[test]
    fn region_panic_still_quiesces() {
        model(|| {
            let body = |r: Range<usize>| {
                if r.start == 0 {
                    panic!("chunk boom");
                }
            };
            let region = Arc::new(make_region(2, 1, &body));
            let helper = {
                let region = Arc::clone(&region);
                thread::spawn(move || region.help())
            };
            region.execute_chunks();
            join(&region);
            helper.join().unwrap();
            assert!(
                region.aborted.load(Ordering::SeqCst),
                "a chunk panic must abort the region"
            );
            let payload = region.panic.lock().unwrap().take();
            assert!(payload.is_some(), "the panic payload must be captured");
        });
    }

    /// The queue's wait and wake: one worker step (`next_ticket`, then
    /// `help`) races the submission of a two-chunk region's one ticket.
    /// Whether the worker finds the ticket queued or waits on the condvar
    /// first, it must get the ticket and run both chunks; a submission
    /// that skipped the notify would leave it waiting forever, which the
    /// checker reports as a lost wakeup.
    #[test]
    fn a_queued_ticket_reaches_a_waiting_worker() {
        model(|| {
            let hits: Arc<[AtomicUsize; 2]> = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
            let counted = Arc::clone(&hits);
            let body = move |r: Range<usize>| {
                for i in r {
                    counted[i].fetch_add(1, Ordering::SeqCst);
                }
            };
            let shared = Arc::new(Shared::new(1));
            let region = Arc::new(make_region(2, 1, &body));
            let worker = {
                let shared = Arc::clone(&shared);
                thread::spawn(move || shared.next_ticket().help())
            };
            assert_eq!(shared.invite(&region, 1), 0, "an empty queue has room");
            worker.join().unwrap();
            join(&region);
            for (chunk, hit) in hits.iter().enumerate() {
                assert_eq!(hit.load(Ordering::SeqCst), 1, "chunk {chunk} ran once");
            }
        });
    }

    /// A stale ticket (region already cancelled) is a strict no-op: the
    /// helper must not run the body and must not disturb the accounting.
    #[test]
    fn stale_ticket_is_a_noop() {
        model(|| {
            let body = |_: Range<usize>| {
                panic!("a cancelled region's body must never run");
            };
            let region = Arc::new(make_region(2, 1, &body));
            // The submitter cancels before helping at all (as when its own
            // drain raced ahead); mark the cursor drained so execute_chunks
            // is not needed.
            region.cursor.store(2, Ordering::SeqCst);
            region.pending.swap(0, Ordering::SeqCst);
            let helper = {
                let region = Arc::clone(&region);
                thread::spawn(move || region.help())
            };
            region.active.fetch_sub(1, Ordering::SeqCst);
            let mut spins = 0u32;
            while region.active.load(Ordering::SeqCst) > 0 {
                if spins < JOIN_SPINS {
                    spins += 1;
                } else {
                    thread::park_timeout(JOIN_PARK);
                }
            }
            helper.join().unwrap();
            assert_eq!(region.active.load(Ordering::SeqCst), 0);
        });
    }
}
