//! Per-region dispatch overhead microbenchmark.
//!
//! Run with `cargo run --release --example pool_overhead`. Times how long
//! it takes to dispatch and join one nearly-empty parallel region —
//! ticket publication, worker wake-up, cursor handshake, join — on:
//!
//! * the workspace's **lock-free pool** (one bounded MPMC injector, atomic
//!   `pending`/`active` region accounting, park/unpark joins), and
//! * a **mutex-queue reference dispatcher** replicating the previous
//!   design: per-worker `Mutex<Vec<_>>` ticket queues behind one dispatch
//!   lock, condvar wake-ups, and a mutex-guarded quiescence count per
//!   region.
//!
//! The reference spawns its own small thread set (it exists only for this
//! comparison); the lock-free numbers come from the shared persistent
//! pool, and its calibrated overhead sample
//! (`runtime::estimated_region_overhead_ns_for`) is printed alongside so it
//! can be eyeballed against the raw measurement.

use maximal_chordal::runtime;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One region of the mutex-queue reference: an atomic cursor plus
/// lock-guarded participation/ticket accounting (the PR 2 design).
struct MxRegion {
    cursor: AtomicUsize,
    len: usize,
    grain: usize,
    /// `(active participants, unclaimed tickets)`.
    sync: Mutex<(usize, usize)>,
    quiescent: Condvar,
    /// Sink the chunks write to, standing in for a real body.
    sink: AtomicUsize,
}

impl MxRegion {
    fn participate(&self) {
        self.sync.lock().unwrap().0 += 1;
        loop {
            let start = self.cursor.fetch_add(self.grain, Ordering::Relaxed);
            if start >= self.len {
                break;
            }
            let end = (start + self.grain).min(self.len);
            self.sink.fetch_add(end - start, Ordering::Relaxed);
        }
        let mut sync = self.sync.lock().unwrap();
        sync.0 -= 1;
        if sync.0 == 0 && sync.1 == 0 {
            self.quiescent.notify_all();
        }
    }

    fn retire_ticket(&self) {
        let mut sync = self.sync.lock().unwrap();
        sync.1 -= 1;
        if sync.0 == 0 && sync.1 == 0 {
            self.quiescent.notify_all();
        }
    }
}

/// Ticket queues + pending count under one dispatch lock (PR 2's
/// `Dispatch`), plus the worker set that drains them.
struct MxPool {
    dispatch: Mutex<(Vec<Vec<Arc<MxRegion>>>, usize)>,
    available: Condvar,
    next_queue: AtomicUsize,
    stop: AtomicBool,
}

impl MxPool {
    fn start(workers: usize) -> (Arc<Self>, Vec<std::thread::JoinHandle<()>>) {
        let pool = Arc::new(Self {
            dispatch: Mutex::new(((0..workers).map(|_| Vec::new()).collect(), 0)),
            available: Condvar::new(),
            next_queue: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|home| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || pool.worker_loop(home))
            })
            .collect();
        (pool, handles)
    }

    fn take(&self, home: usize) -> Option<Arc<MxRegion>> {
        let mut dispatch = self.dispatch.lock().unwrap();
        let n = dispatch.0.len();
        for k in 0..n {
            let q = (home + k) % n;
            if let Some(ticket) = dispatch.0[q].pop() {
                dispatch.1 -= 1;
                return Some(ticket);
            }
        }
        None
    }

    fn worker_loop(&self, home: usize) {
        loop {
            if let Some(region) = self.take(home) {
                region.participate();
                region.retire_ticket();
                continue;
            }
            let mut dispatch = self.dispatch.lock().unwrap();
            while dispatch.1 == 0 {
                if self.stop.load(Ordering::Relaxed) {
                    return;
                }
                let (guard, _) = self
                    .available
                    .wait_timeout(dispatch, std::time::Duration::from_millis(10))
                    .unwrap();
                dispatch = guard;
            }
        }
    }

    fn run_region(&self, len: usize, grain: usize, participants: usize) {
        let region = Arc::new(MxRegion {
            cursor: AtomicUsize::new(0),
            len,
            grain,
            sync: Mutex::new((0, participants - 1)),
            quiescent: Condvar::new(),
            sink: AtomicUsize::new(0),
        });
        for _ in 0..participants - 1 {
            let mut dispatch = self.dispatch.lock().unwrap();
            let q = self.next_queue.fetch_add(1, Ordering::Relaxed) % dispatch.0.len();
            dispatch.0[q].push(Arc::clone(&region));
            dispatch.1 += 1;
            drop(dispatch);
            self.available.notify_one();
        }
        region.participate();
        // Retire our region's still-queued tickets, as PR 2's joiner did.
        loop {
            let ticket = {
                let mut dispatch = self.dispatch.lock().unwrap();
                let mut found = None;
                for q in 0..dispatch.0.len() {
                    if let Some(pos) = dispatch.0[q].iter().position(|t| Arc::ptr_eq(t, &region)) {
                        found = Some(dispatch.0[q].swap_remove(pos));
                        dispatch.1 -= 1;
                        break;
                    }
                }
                found
            };
            match ticket {
                Some(ticket) => {
                    ticket.participate();
                    ticket.retire_ticket();
                }
                None => break,
            }
        }
        let sync = region.sync.lock().unwrap();
        let _unused = region
            .quiescent
            .wait_while(sync, |s| s.0 > 0 || s.1 > 0)
            .unwrap();
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.available.notify_all();
    }
}

/// Times `rounds` dispatches of a nearly-empty region and returns ns/region.
fn time_regions<F: FnMut()>(rounds: u32, mut dispatch_one: F) -> f64 {
    // Warm up outside the timed window.
    for _ in 0..64 {
        dispatch_one();
    }
    let start = Instant::now();
    for _ in 0..rounds {
        dispatch_one();
    }
    start.elapsed().as_nanos() as f64 / f64::from(rounds)
}

fn main() {
    let rounds = 2_000u32;
    // Two chunks + parallelism 2: one ticket published per region, the
    // minimal real dispatch (inline fast paths would measure nothing).
    let (len, grain, parallelism) = (2usize, 1usize, 2usize);

    println!("per-region dispatch overhead, {rounds} rounds of a {len}-chunk region:");

    let lock_free_ns = time_regions(rounds, || {
        rayon::run_pooled_region(len, grain, parallelism, |r: Range<usize>| {
            std::hint::black_box(r.len());
        });
    });
    println!("  lock-free pool (MPMC injector):         {lock_free_ns:>10.0} ns/region");

    let stats_before = runtime::pool_stats();
    let (mx_pool, handles) = MxPool::start(2);
    let mutex_ns = time_regions(rounds, || {
        mx_pool.run_region(len, grain, parallelism);
    });
    mx_pool.shutdown();
    for handle in handles {
        let _unused = handle.join();
    }
    println!("  mutex-queue reference (PR 2 design):    {mutex_ns:>10.0} ns/region");
    println!(
        "  ratio: lock-free is {:.2}x the mutex-queue cost (lower is better)",
        lock_free_ns / mutex_ns
    );
    println!(
        "\ncalibrated overhead sample: {} ns",
        runtime::estimated_region_overhead_ns_for(parallelism)
    );
    let stats = runtime::pool_stats();
    println!(
        "pool counters since start: {} regions, {} tickets (+{} regions during this run)",
        stats.regions,
        stats.tickets,
        stats.regions - stats_before.regions
    );
}
