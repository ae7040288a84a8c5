//! Parallel execution engines for the maximal chordal subgraph workspace.
//!
//! The ICPP 2012 paper evaluates its algorithm on two very different
//! shared-memory machines: a Cray XMT (massive fine-grained multithreading,
//! 100+ hardware streams per processor, dynamic interleaved scheduling) and a
//! 48-core AMD Magny-Cours (conventional cache-based multicore). Neither
//! machine is available here, so this crate provides two software execution
//! engines with analogous scheduling behaviour plus a serial reference:
//!
//! * [`Engine::Chunked`] — a fine-grained dynamic self-scheduling executor:
//!   worker threads repeatedly claim small chunks of the iteration space from
//!   an atomic counter, the software analogue of the XMT's interleaved
//!   scheduling over many thread streams.
//! * [`Engine::Rayon`] — a work-stealing executor scheduled through a
//!   [`rayon::ThreadPool`] scope, the analogue of running one software
//!   thread per core on the Opteron.
//! * [`Engine::Serial`] — single-threaded reference used for speedup
//!   baselines and determinism tests.
//!
//! All engines present the same `parallel_for` interface so the algorithm in
//! `chordal-core` is written once and scheduled three ways — and both
//! parallel engines execute on the workspace's single **persistent worker
//! pool** (see the in-tree `rayon` substitute): a parallel region is a
//! ticket push onto already-running workers, never a thread spawn, so
//! region-heavy workloads (batch serving, generators, iterative
//! extraction) pay queue-transfer costs instead of thread-creation costs.
//! The pool is sized by `CHORDAL_POOL_THREADS` (default: all logical
//! CPUs); an engine's thread count bounds how many of those workers one of
//! its regions may occupy.

#![deny(missing_docs)]

pub mod chunked;
pub mod collect;
pub mod flags;
pub mod lists;

pub use chunked::ChunkedEngine;
pub use collect::ParallelCollector;
pub use flags::AtomicFlags;
pub use lists::{ListHeads, ListLinks};

use std::ops::Range;
use std::sync::Arc;

/// Default chunk (grain) size for the dynamic self-scheduling engine.
pub const DEFAULT_GRAIN: usize = 256;

/// A parallel execution engine. Cheap to clone (the rayon pool is shared
/// behind an [`Arc`]).
#[derive(Clone, Default)]
pub enum Engine {
    /// Single-threaded execution, in index order.
    #[default]
    Serial,
    /// Fine-grained dynamic self-scheduling on the persistent worker pool
    /// (XMT-style analogue).
    Chunked(ChunkedEngine),
    /// Work-stealing execution scheduled through a rayon thread-pool scope
    /// (multicore/Opteron-style analogue).
    Rayon {
        /// The pool scope this engine submits through.
        pool: Arc<rayon::ThreadPool>,
        /// Number of worker threads in the pool.
        threads: usize,
        /// Minimum number of indices a stolen task will process.
        grain: usize,
    },
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Serial => write!(f, "Engine::Serial"),
            Engine::Chunked(c) => write!(
                f,
                "Engine::Chunked(threads={}, grain={})",
                c.threads(),
                c.grain()
            ),
            Engine::Rayon { threads, grain, .. } => {
                write!(f, "Engine::Rayon(threads={threads}, grain={grain})")
            }
        }
    }
}

impl Engine {
    /// The serial reference engine.
    pub fn serial() -> Self {
        Engine::Serial
    }

    /// A dynamic self-scheduling engine with `threads` workers and the
    /// default grain.
    pub fn chunked(threads: usize) -> Self {
        Engine::Chunked(ChunkedEngine::new(threads, DEFAULT_GRAIN))
    }

    /// A dynamic self-scheduling engine with an explicit grain size.
    pub fn chunked_with_grain(threads: usize, grain: usize) -> Self {
        Engine::Chunked(ChunkedEngine::new(threads, grain))
    }

    /// A work-stealing engine with `threads` rayon workers.
    ///
    /// # Panics
    /// Panics if the rayon pool cannot be built (e.g. `threads == 0`).
    pub fn rayon(threads: usize) -> Self {
        Self::rayon_with_grain(threads, DEFAULT_GRAIN)
    }

    /// A work-stealing engine with explicit grain size.
    pub fn rayon_with_grain(threads: usize, grain: usize) -> Self {
        assert!(threads > 0, "rayon engine needs at least one thread");
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .thread_name(|i| format!("chordal-rayon-{i}"))
            .build()
            .expect("failed to build rayon thread pool");
        Engine::Rayon {
            pool: Arc::new(pool),
            threads,
            grain: grain.max(1),
        }
    }

    /// Returns a clone of this engine scheduling `grain` indices per work
    /// unit (sharing the same rayon pool where applicable). Callers with
    /// coarse work items — e.g. whole graphs in a batch extraction — use
    /// grain 1 so every item can be claimed independently.
    pub fn with_grain(&self, grain: usize) -> Self {
        let grain = grain.max(1);
        match self {
            Engine::Serial => Engine::Serial,
            Engine::Chunked(c) => Engine::Chunked(ChunkedEngine::new(c.threads(), grain)),
            Engine::Rayon { pool, threads, .. } => Engine::Rayon {
                pool: Arc::clone(pool),
                threads: *threads,
                grain,
            },
        }
    }

    /// Number of worker threads this engine uses (1 for serial).
    pub fn threads(&self) -> usize {
        match self {
            Engine::Serial => 1,
            Engine::Chunked(c) => c.threads(),
            Engine::Rayon { threads, .. } => *threads,
        }
    }

    /// Constructs an engine from its short name (`"serial"`, `"pool"`,
    /// `"rayon"`) and a worker-thread count, or `None` for an unknown name.
    /// This is the single place front ends resolve engine names, so the CLI,
    /// benchmarks and experiments accept the same spellings.
    pub fn by_name(name: &str, threads: usize) -> Option<Self> {
        match name {
            "serial" => Some(Engine::serial()),
            "pool" | "chunked" => Some(Engine::chunked(threads.max(1))),
            "rayon" => Some(Engine::rayon(threads.max(1))),
            _ => None,
        }
    }

    /// Short human-readable name used in benchmark output
    /// (`"serial"`, `"pool"`, `"rayon"`).
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Serial => "serial",
            Engine::Chunked(_) => "pool",
            Engine::Rayon { .. } => "rayon",
        }
    }

    /// Runs `f` for every index in `0..n`. Iteration order is unspecified for
    /// the parallel engines; `f` must be safe to call concurrently.
    pub fn parallel_for<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.parallel_for_chunks(n, |range| {
            for i in range {
                f(i);
            }
        });
    }

    /// Runs `f` on disjoint chunks covering `0..n`. This is the primitive the
    /// other helpers are built on.
    pub fn parallel_for_chunks<F>(&self, n: usize, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if n == 0 {
            return;
        }
        match self {
            Engine::Serial => f(0..n),
            Engine::Chunked(c) => c.for_chunks(n, &f),
            Engine::Rayon { pool, grain, .. } => {
                let grain = *grain;
                pool.install(|| {
                    use rayon::prelude::*;
                    let chunks = n.div_ceil(grain);
                    (0..chunks).into_par_iter().for_each(|c| {
                        let start = c * grain;
                        let end = (start + grain).min(n);
                        f(start..end);
                    });
                });
            }
        }
    }

    /// Indices one scheduled work unit of this engine processes (the grain
    /// size); irrelevant for the serial engine, which runs everything as a
    /// single unit.
    fn grain_size(&self) -> usize {
        match self {
            Engine::Serial => usize::MAX,
            Engine::Chunked(c) => c.grain(),
            Engine::Rayon { grain, .. } => *grain,
        }
    }

    /// Runs `f` for every index, collecting the items each call appends to a
    /// thread-local buffer into one output vector, in chunk order.
    ///
    /// Collection is slot-based ([`rayon::slots::ChunkSlots`]): every chunk
    /// of the iteration space owns one pre-sized result slot that it writes
    /// without synchronization, so the former per-chunk mutex append is
    /// gone from the region hot path — and, as a byproduct, the output
    /// order is deterministic (index order, matching the serial engine)
    /// instead of completion order.
    pub fn parallel_collect<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut Vec<T>) + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let grain = self.grain_size();
        let chunks = n.div_ceil(grain.max(1));
        if self.threads() <= 1 || chunks <= 1 {
            let mut out = Vec::new();
            for i in 0..n {
                f(i, &mut out);
            }
            return out;
        }
        let slots: rayon::slots::ChunkSlots<Vec<T>> = rayon::slots::ChunkSlots::new(chunks);
        self.parallel_for_chunks(n, |range| {
            let mut local = Vec::new();
            for i in range.clone() {
                f(i, &mut local);
            }
            slots.write(range.start / grain, local);
        });
        let buffers = slots.into_vec();
        let mut out = Vec::with_capacity(buffers.iter().map(Vec::len).sum());
        for buffer in buffers {
            out.extend(buffer);
        }
        out
    }
}

/// Returns the number of logical CPUs available to this process (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Monotonic scheduling counters of the shared persistent pool (regions
/// submitted, tickets published, steals). Re-exported from the pool layer
/// so schedulers and benchmarks above the runtime can observe dispatch
/// behaviour without depending on the rayon substitute directly.
pub use rayon::PoolStats;

/// Current scheduling counters of the shared persistent pool; all zero
/// before the first parallel region. Take a delta around a workload to
/// attribute regions/tickets/steals to it.
pub fn pool_stats() -> PoolStats {
    rayon::pool_stats()
}

/// Calibrated dispatch overhead of one two-participant region of the shared
/// pool in nanoseconds (ticket publication, worker wake-up, cursor
/// handshake, join). Memoised after the first call. Shorthand for
/// [`estimated_region_overhead_ns_for`]`(2)`.
pub fn estimated_region_overhead_ns() -> u64 {
    rayon::estimated_region_overhead_ns()
}

/// Calibrated per-region dispatch overhead for a region with `threads`
/// participants, in nanoseconds, memoised per participant count, so a
/// caller asking about 8-thread regions never reuses the sample a 2-thread
/// caller happened to calibrate first.
pub fn estimated_region_overhead_ns_for(threads: usize) -> u64 {
    rayon::estimated_region_overhead_ns_for(threads)
}

/// Number of shared-pool workers currently parked with nothing to do — a
/// constant-time, racy capacity hint (zero before the first parallel region
/// spawns the pool). The serve tier reports it in `STATS` and overload
/// replies.
pub fn pool_idle_workers() -> usize {
    rayon::pool_idle_workers()
}

/// Number of worker threads the shared persistent pool has (or will have
/// once the first region spawns it). An engine may be configured with more
/// threads than this; a region's real parallelism is capped at the pool's
/// workers plus the submitting thread.
pub fn pool_size() -> usize {
    rayon::pool_size()
}

// Gated out under `chordal_model`: these tests drive the real pool, whose
// atomics resolve to the checker facade there (see `lists::model_tests`).
#[cfg(all(test, not(chordal_model)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn engines() -> Vec<Engine> {
        vec![
            Engine::serial(),
            Engine::chunked(4),
            Engine::chunked_with_grain(3, 7),
            Engine::rayon(4),
            Engine::rayon_with_grain(2, 5),
        ]
    }

    #[test]
    fn parallel_for_visits_every_index_exactly_once() {
        for engine in engines() {
            let n = 10_000;
            let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            engine.parallel_for(n, |i| {
                counters[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counters.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "engine {:?} missed or repeated an index",
                engine
            );
        }
    }

    #[test]
    fn parallel_for_chunks_covers_range_disjointly() {
        for engine in engines() {
            let n = 4_321;
            let sum = AtomicUsize::new(0);
            engine.parallel_for_chunks(n, |r| {
                sum.fetch_add(r.len(), Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), n, "engine {:?}", engine);
        }
    }

    #[test]
    fn parallel_for_empty_range_is_noop() {
        for engine in engines() {
            let called = AtomicUsize::new(0);
            engine.parallel_for(0, |_| {
                called.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(called.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn parallel_collect_gathers_all_items() {
        for engine in engines() {
            let n = 1000;
            let mut out = engine.parallel_collect(n, |i, buf| {
                if i % 3 == 0 {
                    buf.push(i);
                }
            });
            out.sort_unstable();
            let expected: Vec<usize> = (0..n).filter(|i| i % 3 == 0).collect();
            assert_eq!(out, expected, "engine {:?}", engine);
        }
    }

    #[test]
    fn parallel_collect_returns_items_in_index_order() {
        // Slot-based collection makes the output deterministic: chunk order
        // equals index order, matching the serial engine exactly — no sort
        // needed.
        for engine in engines() {
            let n = 2_377;
            let out = engine.parallel_collect(n, |i, buf| {
                if i % 5 != 2 {
                    buf.push(i * 3);
                }
            });
            let expected: Vec<usize> = (0..n).filter(|i| i % 5 != 2).map(|i| i * 3).collect();
            assert_eq!(out, expected, "engine {:?}", engine);
        }
    }

    #[test]
    fn pool_stats_and_overhead_are_observable() {
        let before = pool_stats();
        Engine::chunked(4).parallel_for(50_000, |_| {});
        let after = pool_stats();
        assert!(after.regions >= before.regions, "regions must not shrink");
        assert!(
            after.tickets_dropped >= before.tickets_dropped,
            "tickets_dropped must not shrink"
        );
        assert!(estimated_region_overhead_ns() >= 1);
        assert!(estimated_region_overhead_ns_for(4) >= 1);
        assert!(pool_idle_workers() <= rayon::pool_size());
    }

    #[test]
    fn engine_metadata() {
        assert_eq!(Engine::serial().threads(), 1);
        assert_eq!(Engine::serial().name(), "serial");
        assert_eq!(Engine::chunked(8).threads(), 8);
        assert_eq!(Engine::chunked(8).name(), "pool");
        assert_eq!(Engine::rayon(2).threads(), 2);
        assert_eq!(Engine::rayon(2).name(), "rayon");
        assert!(available_threads() >= 1);
    }

    #[test]
    #[should_panic]
    fn rayon_engine_rejects_zero_threads() {
        let _ = Engine::rayon(0);
    }

    #[test]
    fn default_engine_is_serial() {
        assert!(matches!(Engine::default(), Engine::Serial));
    }

    #[test]
    fn parallel_engines_reuse_the_persistent_pool_after_warmup() {
        let engines = [Engine::chunked(4), Engine::rayon(4)];
        // Warm-up: the first parallel region spawns the pool workers.
        for engine in &engines {
            engine.parallel_for(10_000, |_| {});
        }
        let spawned = rayon::pool_spawned_threads();
        assert_eq!(
            spawned,
            rayon::pool_size(),
            "warm-up must spawn exactly the configured pool"
        );
        for _ in 0..32 {
            for engine in &engines {
                let sum = AtomicUsize::new(0);
                engine.parallel_for(10_000, |i| {
                    sum.fetch_add(i, Ordering::Relaxed);
                });
                assert_eq!(sum.load(Ordering::Relaxed), 49_995_000);
            }
        }
        assert_eq!(
            rayon::pool_spawned_threads(),
            spawned,
            "parallel regions after warm-up must not spawn threads"
        );
    }

    #[test]
    fn engines_are_cloneable_and_share_pools() {
        let e = Engine::rayon(2);
        let e2 = e.clone();
        let sum = AtomicUsize::new(0);
        e2.parallel_for(100, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }
}
