//! Parallel execution engines for the maximal chordal subgraph workspace.
//!
//! The ICPP 2012 paper evaluates its algorithm on two very different
//! shared-memory machines: a Cray XMT (massive fine-grained multithreading,
//! 100+ hardware streams per processor, dynamic interleaved scheduling,
//! full/empty bits on every word) and a 48-core AMD Magny-Cours
//! (conventional cache-based multicore). Those are machines, not
//! schedulers: on both, Algorithm 1 needs one parallel primitive —
//! participants claiming pieces of an index range through one shared
//! cursor. This crate provides that primitive plus a serial reference, and
//! every parallel loop of the workspace goes through it:
//!
//! * [`Engine::Pool`] — dynamic self-scheduling on the workspace's single
//!   **persistent worker pool** (the private `pool` module): a region's
//!   participants, the calling thread and up to `threads - 1` pool workers,
//!   claim grain-aligned pieces of the iteration space from one atomic
//!   counter, the software analogue of the XMT's interleaved scheduling
//!   over many thread streams and of one thread per Opteron core. A region
//!   is a ticket push onto already-running workers, never a thread spawn,
//!   so region-heavy workloads (batch serving, generators, iterative
//!   extraction) pay queue-transfer costs instead of thread-creation costs.
//! * [`Engine::Serial`] — single-threaded reference used for speedup
//!   baselines and determinism tests.
//!
//! Both engines present the same interface, so each loop is written once:
//! [`Engine::parallel_for_chunks`] runs a body on disjoint pieces,
//! [`Engine::map_pieces`] collects one result per piece in index order,
//! and [`Engine::for_each_mut`] hands every item of a mutable slice to a
//! body. A loop with a configured engine runs on it; a loop without one
//! (graph construction, the generators, the analysis kernels) runs on an
//! engine of [`pool_size`] threads. The [`publish`] module adds the one
//! cross-task wait Algorithm 1 needs, the software form of the XMT's
//! full/empty bits: a release store of a value, an acquire wait for it, and
//! a doacross loop whose participants claim small pieces in ascending order
//! and wait only on smaller indices. The pool is sized by
//! `CHORDAL_POOL_THREADS` (default: all logical CPUs); an engine's thread
//! count bounds how many of those workers one of its regions may occupy.

#![deny(missing_docs)]

mod pool;
pub mod publish;

pub use pool::{
    estimated_region_overhead_ns_for, pool_idle_workers, pool_size, pool_stats, PoolStats,
};
pub use publish::Published;

use pool::Pool;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

/// Default chunk (grain) size of the pool engine.
pub const DEFAULT_GRAIN: usize = 256;

/// An execution engine: a thread count and a grain, so `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Single-threaded execution, in index order.
    #[default]
    Serial,
    /// Dynamic self-scheduling on the persistent worker pool: a region's
    /// participants claim grain-aligned pieces from one shared cursor.
    Pool {
        /// Participants one region may use: the calling thread plus up to
        /// `threads - 1` pool workers.
        threads: usize,
        /// Claims are whole multiples of this many indices; a region of at
        /// most one grain runs inline.
        grain: usize,
    },
}

impl Engine {
    /// The serial reference engine.
    pub fn serial() -> Self {
        Engine::Serial
    }

    /// A pool engine with `threads` participants and the default grain.
    pub fn chunked(threads: usize) -> Self {
        Self::chunked_with_grain(threads, DEFAULT_GRAIN)
    }

    /// A pool engine with an explicit grain size. Both values are clamped
    /// to at least 1.
    pub fn chunked_with_grain(threads: usize, grain: usize) -> Self {
        Engine::Pool {
            threads: threads.max(1),
            grain: grain.max(1),
        }
    }

    /// This engine with its grain replaced (the serial engine is returned
    /// unchanged). Callers with coarse work items — e.g. whole graphs in a
    /// batch extraction — use grain 1 so every item can be claimed
    /// independently.
    pub fn with_grain(self, grain: usize) -> Self {
        match self {
            Engine::Serial => Engine::Serial,
            Engine::Pool { threads, .. } => Self::chunked_with_grain(threads, grain),
        }
    }

    /// Number of worker threads this engine uses (1 for serial).
    pub fn threads(&self) -> usize {
        match *self {
            Engine::Serial => 1,
            Engine::Pool { threads, .. } => threads,
        }
    }

    /// Constructs an engine from its short name and a worker-thread count,
    /// or `None` for an unknown name: `"serial"`, or `"pool"` with its
    /// aliases `"rayon"` and `"chunked"`. This is the single place front
    /// ends resolve engine names, so the CLI, serve, benchmarks and
    /// experiments accept the same spellings.
    pub fn by_name(name: &str, threads: usize) -> Option<Self> {
        match name {
            "serial" => Some(Engine::serial()),
            "pool" | "rayon" | "chunked" => Some(Engine::chunked(threads)),
            _ => None,
        }
    }

    /// Short human-readable name used in benchmark output (`"serial"`,
    /// `"pool"`).
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Serial => "serial",
            Engine::Pool { .. } => "pool",
        }
    }

    /// Runs `f` for every index in `0..n`. Iteration order is unspecified for
    /// the pool engine; `f` must be safe to call concurrently.
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

    /// Runs `f` on disjoint ranges covering `0..n`. This is the primitive the
    /// other helpers are built on.
    ///
    /// The pool engine hands out grain-aligned pieces of
    /// `⌈⌈n/grain⌉ / (4·threads)⌉ · grain` indices (the last one shorter),
    /// so a region has at most `4·threads` pieces whatever its size, and
    /// four pieces per participant still absorb skewed work. Claiming one
    /// grain at a time instead made two-thread extractions on a 2-core host
    /// 6–21% slower on RMAT-G(13–16) and 1–8% slower on RMAT-B(16), for
    /// 0–3% gained on RMAT-ER(16).
    pub fn parallel_for_chunks<F>(&self, n: usize, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if n == 0 {
            return;
        }
        match self.piece(n) {
            None => f(0..n),
            Some(piece) => Pool::global().run_region(n, piece, self.threads(), f),
        }
    }

    /// Runs `f` on the pieces [`Engine::parallel_for_chunks`] hands out
    /// over `0..n` and returns their results in index order: one result on
    /// the serial engine, none for an empty range. Each piece writes its
    /// result into its own slot, so collection takes no lock.
    pub fn map_pieces<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send + Sync,
        F: Fn(Range<usize>) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let Some(piece) = self.piece(n) else {
            return vec![f(0..n)];
        };
        let slots: Vec<OnceLock<R>> = (0..n.div_ceil(piece)).map(|_| OnceLock::new()).collect();
        Pool::global().run_region(n, piece, self.threads(), |range| {
            // A piece starts at a multiple of `piece`, so it owns one slot.
            let first = slots[range.start / piece].set(f(range)).is_ok();
            assert!(first, "the region runs each piece once");
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("the region runs every piece"))
            .collect()
    }

    /// Runs `f(i, &mut items[i])` for every item, on the pieces
    /// [`Engine::parallel_for_chunks`] hands out over the slice's indices.
    /// Each piece's sub-slice sits behind its own `Mutex`, which only the
    /// participant that claimed the piece ever locks.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let Some(piece) = self.piece(items.len()) else {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        };
        let n = items.len();
        let pieces: Vec<Mutex<&mut [T]>> = items.chunks_mut(piece).map(Mutex::new).collect();
        Pool::global().run_region(n, piece, self.threads(), |range| {
            let mut sub = pieces[range.start / piece]
                .lock()
                .expect("the region runs each piece once, so no lock is poisoned");
            for (k, item) in sub.iter_mut().enumerate() {
                f(range.start + k, item);
            }
        });
    }

    /// The piece length of a pool region over `0..n`, or `None` when the
    /// engine runs the range as one inline call: the serial engine, one
    /// participant, or a range within one grain (a region submission would
    /// only add overhead). A region always has at least two pieces, so the
    /// pool splits it by exactly this length and never runs it inline.
    fn piece(&self, n: usize) -> Option<usize> {
        match *self {
            Engine::Pool { threads, grain } if threads > 1 && n > grain => Some(
                n.div_ceil(grain)
                    .div_ceil(threads.saturating_mul(4))
                    .saturating_mul(grain)
                    .min(n),
            ),
            _ => None,
        }
    }
}

/// Returns the number of logical CPUs available to this process (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

// Gated out under `chordal_model`: these tests drive the real pool, whose
// atomics resolve to the checker facade there (see `publish::model_tests`).
#[cfg(all(test, not(chordal_model)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn engines() -> Vec<Engine> {
        vec![
            Engine::serial(),
            Engine::chunked(4),
            Engine::chunked_with_grain(3, 7),
            Engine::chunked_with_grain(2, 5),
        ]
    }

    /// The ranges `engine` hands out over `0..n`, in index order.
    fn ranges(engine: Engine, n: usize) -> Vec<Range<usize>> {
        let seen = Mutex::new(Vec::new());
        engine.parallel_for_chunks(n, |r| seen.lock().unwrap().push(r));
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|r| r.start);
        seen
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
    fn pool_engine_claims_coarse_grain_aligned_pieces() {
        // 65,536 indices are 256 grains; two participants claim pieces of
        // ⌈256 / 8⌉ = 32 grains, so at most 8 ranges, not 256.
        let got = ranges(Engine::chunked(2), 65_536);
        assert!(got.len() <= 8, "{} ranges, not at most 8", got.len());
        let mut next = 0;
        for (k, r) in got.iter().enumerate() {
            assert_eq!(r.start, next, "ranges must tile 0..n: {got:?}");
            assert!(
                r.len() % DEFAULT_GRAIN == 0 || k + 1 == got.len(),
                "only the last range may be a partial grain: {got:?}"
            );
            next = r.end;
        }
        assert_eq!(next, 65_536);
        // A piece never exceeds the range, and a ragged tail stays last.
        let ragged = ranges(Engine::chunked_with_grain(3, 7), 100);
        assert_eq!(ragged.iter().map(|r| r.len()).sum::<usize>(), 100);
        assert!(ragged[..ragged.len() - 1].iter().all(|r| r.len() % 7 == 0));
        // One participant, or a range within one grain, runs inline.
        assert_eq!(ranges(Engine::chunked(1), 10_000), vec![0..10_000]);
        assert_eq!(
            ranges(Engine::chunked_with_grain(8, 1_000), 10),
            vec![0..10]
        );
        assert_eq!(
            ranges(Engine::chunked_with_grain(2, usize::MAX), 1 << 20),
            vec![0..1 << 20]
        );
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
        assert_eq!(after.steals, 0, "the pool has nothing to steal from");
        assert!(estimated_region_overhead_ns_for(4) >= 1);
        assert!(pool_idle_workers() <= pool_size());
    }

    #[test]
    fn engine_metadata() {
        assert_eq!(Engine::serial().threads(), 1);
        assert_eq!(Engine::serial().name(), "serial");
        assert_eq!(Engine::chunked(8).threads(), 8);
        assert_eq!(Engine::chunked(8).name(), "pool");
        assert_eq!(
            Engine::chunked_with_grain(0, 0),
            Engine::Pool {
                threads: 1,
                grain: 1
            },
            "constructors clamp to one thread and a grain of one"
        );
        assert_eq!(
            Engine::chunked(3).with_grain(1),
            Engine::chunked_with_grain(3, 1)
        );
        assert_eq!(Engine::serial().with_grain(1), Engine::Serial);
        assert!(available_threads() >= 1);
    }

    #[test]
    fn rayon_pool_and_chunked_name_one_engine() {
        for name in ["rayon", "pool", "chunked"] {
            assert_eq!(Engine::by_name(name, 3), Some(Engine::chunked(3)), "{name}");
        }
        assert_eq!(Engine::by_name("serial", 3), Some(Engine::Serial));
        assert_eq!(Engine::by_name("pool", 0), Some(Engine::chunked(1)));
        assert_eq!(Engine::by_name("xmt", 3), None);
    }

    #[test]
    fn default_engine_is_serial() {
        assert_eq!(Engine::default(), Engine::Serial);
    }

    #[test]
    fn pool_engines_reuse_the_persistent_pool_after_warmup() {
        let engines = [Engine::chunked(4), Engine::chunked_with_grain(2, 16)];
        // Warm-up: the first parallel region spawns the pool workers.
        for engine in &engines {
            engine.parallel_for(10_000, |_| {});
        }
        for _ in 0..32 {
            for engine in &engines {
                let sum = AtomicUsize::new(0);
                engine.parallel_for(10_000, |i| {
                    sum.fetch_add(i, Ordering::Relaxed);
                });
                assert_eq!(sum.load(Ordering::Relaxed), 49_995_000);
            }
        }
    }

    #[test]
    fn map_pieces_returns_the_pieces_in_index_order() {
        for engine in engines() {
            let n = 4_321;
            let pieces = engine.map_pieces(n, |r| r);
            let mut next = 0;
            for r in &pieces {
                assert_eq!(r.start, next, "engine {engine:?}: {pieces:?}");
                next = r.end;
            }
            assert_eq!(next, n, "engine {engine:?}");
            assert_eq!(pieces, ranges(engine, n), "engine {engine:?}");
            let squares: Vec<usize> = engine
                .map_pieces(n, |r| r.map(|i| i * i).collect::<Vec<_>>())
                .concat();
            assert_eq!(squares, (0..n).map(|i| i * i).collect::<Vec<_>>());
            assert!(engine.map_pieces(0, |r| r).is_empty());
        }
        assert_eq!(Engine::serial().map_pieces(10, |r| r), vec![0..10]);
        // At grain 1, coarse items are claimed ⌈n / (4·threads)⌉ at a time.
        assert_eq!(
            Engine::chunked_with_grain(2, 1).map_pieces(9, |r| r.len()),
            vec![2, 2, 2, 2, 1]
        );
    }

    #[test]
    fn for_each_mut_visits_every_item_once() {
        for engine in engines() {
            for n in [0, 1, 7, 5_000] {
                let mut items = vec![0usize; n];
                engine.for_each_mut(&mut items, |i, item| *item += i + 1);
                assert!(
                    items.iter().enumerate().all(|(i, &item)| item == i + 1),
                    "engine {engine:?}, {n} items"
                );
            }
        }
    }

    #[test]
    fn region_bodies_run_only_on_pool_workers_or_the_caller() {
        let seen = Mutex::new(std::collections::HashSet::new());
        for _ in 0..32 {
            Engine::chunked_with_grain(pool_size() + 1, 1).parallel_for(2_000, |_| {
                seen.lock().unwrap().insert(std::thread::current().id());
            });
        }
        let distinct = seen.into_inner().unwrap().len();
        assert!(
            distinct <= pool_size() + 1,
            "{distinct} distinct executing threads exceeds pool ({}) + caller",
            pool_size()
        );
    }

    #[test]
    fn nested_regions_complete_and_agree_with_serial() {
        // The inner regions are submitted from pool workers; their tickets
        // join the outer region's in the one ticket queue.
        let engine = Engine::chunked_with_grain(4, 1);
        let totals: Vec<usize> = engine
            .map_pieces(8, |outer| {
                outer
                    .map(|i| {
                        engine
                            .map_pieces(1_000, |inner| inner.map(|j| i * j).sum::<usize>())
                            .into_iter()
                            .sum::<usize>()
                    })
                    .collect::<Vec<_>>()
            })
            .concat();
        let expected: Vec<usize> = (0..8usize)
            .map(|i| (0..1_000usize).map(|j| i * j).sum())
            .collect();
        assert_eq!(totals, expected);
    }

    #[test]
    fn deeply_nested_regions_do_not_deadlock_on_a_small_pool() {
        // Three levels of nesting: a joining thread waits only on pieces
        // that are already running, never on a queued ticket, so nesting
        // cannot deadlock (the CHORDAL_POOL_THREADS=2 CI leg runs this on a
        // two-worker pool; `pool::tests` nests on a one-worker pool).
        let engine = Engine::chunked_with_grain(4, 1);
        let sum = |n: usize, f: &(dyn Fn(usize) -> usize + Sync)| -> usize {
            engine
                .map_pieces(n, |r| r.map(f).sum::<usize>())
                .into_iter()
                .sum()
        };
        let total = sum(4, &|a| sum(4, &|b| sum(64, &|c| a ^ b ^ c)));
        let expected: usize = (0..4usize)
            .map(|a| {
                (0..4usize)
                    .map(|b| (0..64usize).map(|c| a ^ b ^ c).sum::<usize>())
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(total, expected);
    }
}
