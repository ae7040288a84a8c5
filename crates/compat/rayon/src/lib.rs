//! Minimal in-tree substitute for the subset of the `rayon` API this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so this crate provides
//! drop-in implementations of the combinators the workspace calls —
//! `into_par_iter` on ranges, `par_iter`/`par_iter_mut`/`par_chunks`/
//! `par_chunks_mut`/`par_sort_unstable` on slices, `map`/`flat_map_iter`/
//! `for_each`/`collect`/`sum`/`max`, and [`current_num_threads`].
//!
//! All parallel work runs on one **lazily-spawned persistent worker pool**
//! (the private `pool` module) with one scheduling primitive: a region's
//! participants drain a shared cursor. A region publishes help tickets to
//! one bounded lock-free MPMC injector, which nested and outside
//! submissions share; panics propagate to the submitting thread, and no OS
//! thread is ever spawned per region — after warm-up the pool's thread
//! count is constant ([`pool_spawned_threads`]). Per-chunk results are
//! collected through pre-sized write-once slots ([`slots::ChunkSlots`])
//! instead of a mutex-guarded vector, so neither ticket dispatch nor result
//! collection takes a lock on the region hot path. The pool is sized by the
//! `CHORDAL_POOL_THREADS` environment variable (default: all logical CPUs).
//! `par_sort_unstable` is a genuinely parallel merge sort (parallel chunk
//! sorts + parallel merge passes).
//!
//! Extensions beyond the real rayon API, used by `chordal-runtime` and the
//! test-suite: [`run_pooled_region`], [`pool_size`],
//! [`pool_spawned_threads`], [`pool_stats`],
//! [`estimated_region_overhead_ns_for`], and the [`slots`] module.

mod injector;
mod pool;
pub mod slots;
mod sort;

pub use pool::PoolStats;

use slots::{ChunkSlots, ItemSlots};
use std::ops::Range;

/// Number of worker threads parallel operations use: the shared pool's
/// size.
pub fn current_num_threads() -> usize {
    pool::configured_size()
}

/// Runs `f` over `grain`-sized chunks of `0..len` on the shared persistent
/// pool, using at most `parallelism` threads (the calling thread plus pool
/// workers). Chunks are claimed dynamically, so skewed work load-balances;
/// a panic in any chunk aborts the region and is re-thrown on the calling
/// thread once in-flight chunks retire.
///
/// This is an extension beyond the real rayon API: it is the primitive the
/// `chordal-runtime` chunked engine schedules through, so that *every*
/// engine in the workspace reuses the same persistent workers.
pub fn run_pooled_region<F>(len: usize, grain: usize, parallelism: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    pool::Pool::global().run_region(len, grain, parallelism, f);
}

/// Number of worker threads the shared persistent pool has (or will have
/// once the first parallel region spawns it): the `CHORDAL_POOL_THREADS`
/// environment variable when set, otherwise the number of logical CPUs.
pub fn pool_size() -> usize {
    pool::configured_size()
}

/// Total OS threads the shared pool has spawned so far: zero before the
/// first parallel region, and exactly [`pool_size`] afterwards. Tests use
/// this to prove that parallel regions reuse pool workers instead of
/// spawning threads.
pub fn pool_spawned_threads() -> usize {
    pool::spawned_so_far()
}

/// Monotonic scheduling counters of the shared pool (regions submitted,
/// tickets published and dropped); all zero before the first parallel
/// region. Callers interested in one workload take a delta around
/// it — benchmarks report those deltas next to their timings.
pub fn pool_stats() -> PoolStats {
    pool::stats_so_far()
}

/// Measured per-region dispatch-and-join cost for a region with
/// `parallelism` participants, in nanoseconds. Calibrated on the shared
/// pool at first call *per participant count* and memoised per count (a
/// wider region publishes more tickets and pays more wake-ups, so the
/// samples genuinely differ).
pub fn estimated_region_overhead_ns_for(parallelism: usize) -> u64 {
    pool::estimated_overhead_ns(parallelism)
}

/// Number of shared-pool workers currently parked with nothing to do — a
/// constant-time, racy hint (zero before the first parallel region spawns
/// the pool) that callers use to spot spare capacity.
pub fn pool_idle_workers() -> usize {
    pool::idle_so_far()
}

// ---------------------------------------------------------------------------
// Execution driver
// ---------------------------------------------------------------------------

/// Splits `0..len` into chunks and runs `f` over them on the persistent
/// pool, returning the per-chunk results in chunk order.
///
/// Collection is slot-based: the region's cursor hands out disjoint,
/// grain-aligned ranges, so chunk `range.start / chunk` writes its result
/// into its own pre-sized slot — no mutex, no append contention, no
/// post-hoc sort (the slots are already in chunk order).
fn drive_chunks<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let threads = current_num_threads().min(len).max(1);
    if threads == 1 {
        return vec![f(0..len)];
    }
    // Over-decompose so skewed chunks load-balance, like rayon's splitting.
    // `threads >= 2` here, so the region below always splits by `chunk`
    // (never the inline single-range path) and the slot indexing is exact.
    let chunk = len.div_ceil(threads * 4).max(1);
    let chunks = len.div_ceil(chunk);
    let out: ChunkSlots<T> = ChunkSlots::new(chunks);
    pool::Pool::global().run_region(len, chunk, threads, |range| {
        let index = range.start / chunk;
        out.write(index, f(range));
    });
    out.into_vec()
}

/// Runs `f` over every work item exactly once, on the persistent pool.
/// Used for mutable-slice iteration where index math cannot express the
/// split.
fn drive_items<I, F>(items: Vec<I>, f: F)
where
    I: Send,
    F: Fn(I) + Sync,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    let threads = current_num_threads().min(n).max(1);
    if threads == 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let slots = ItemSlots::new(items);
    pool::Pool::global().run_region(n, 1, threads, |range| {
        for i in range {
            // SAFETY: the region hands out disjoint ranges, so this thread
            // is the unique taker of index `i`.
            if let Some(item) = unsafe { slots.take(i) } {
                f(item);
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Parallel iterators over ranges
// ---------------------------------------------------------------------------

/// Parallel iterator over a `Range<usize>`.
pub struct ParRange {
    range: Range<usize>,
}

impl ParRange {
    fn len(&self) -> usize {
        self.range.end.saturating_sub(self.range.start)
    }

    /// Runs `f` for every index, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let start = self.range.start;
        drive_chunks(self.len(), |r| {
            for i in r {
                f(start + i);
            }
        });
    }

    /// Maps every index through `f`.
    pub fn map<B, F>(self, f: F) -> RangeMap<B, F>
    where
        F: Fn(usize) -> B + Sync,
        B: Send,
    {
        RangeMap {
            range: self.range,
            f,
            _marker: std::marker::PhantomData,
        }
    }

    /// Maps every index to a serial iterator and concatenates the results
    /// (rayon's `flat_map_iter`).
    pub fn flat_map_iter<U, F>(self, f: F) -> RangeFlatMap<F>
    where
        F: Fn(usize) -> U + Sync,
        U: IntoIterator,
        U::Item: Send,
    {
        RangeFlatMap {
            range: self.range,
            f,
        }
    }
}

/// Mapped parallel range iterator.
pub struct RangeMap<B, F> {
    range: Range<usize>,
    f: F,
    _marker: std::marker::PhantomData<fn() -> B>,
}

impl<B, F> RangeMap<B, F>
where
    F: Fn(usize) -> B + Sync,
    B: Send,
{
    /// Collects the mapped values in index order.
    pub fn collect<C>(self) -> C
    where
        C: FromIterator<B>,
    {
        let start = self.range.start;
        let len = self.range.end.saturating_sub(start);
        let f = &self.f;
        drive_chunks(len, |r| r.map(|i| f(start + i)).collect::<Vec<B>>())
            .into_iter()
            .flatten()
            .collect()
    }

    /// Sums the mapped values.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<B> + std::iter::Sum<S> + Send,
    {
        let start = self.range.start;
        let len = self.range.end.saturating_sub(start);
        let f = &self.f;
        drive_chunks(len, |r| r.map(|i| f(start + i)).sum::<S>())
            .into_iter()
            .sum()
    }

    /// Maximum of the mapped values.
    pub fn max(self) -> Option<B>
    where
        B: Ord,
    {
        let start = self.range.start;
        let len = self.range.end.saturating_sub(start);
        let f = &self.f;
        drive_chunks(len, |r| r.map(|i| f(start + i)).max())
            .into_iter()
            .flatten()
            .max()
    }

    /// Runs the mapped computation for its side effects.
    pub fn for_each(self) {
        let start = self.range.start;
        let len = self.range.end.saturating_sub(start);
        let f = &self.f;
        drive_chunks(len, |r| {
            for i in r {
                let _ = f(start + i);
            }
        });
    }
}

/// Flat-mapped parallel range iterator.
pub struct RangeFlatMap<F> {
    range: Range<usize>,
    f: F,
}

impl<F> RangeFlatMap<F> {
    /// Collects the concatenation of every produced iterator, preserving
    /// index order.
    pub fn collect<U, C>(self) -> C
    where
        F: Fn(usize) -> U + Sync,
        U: IntoIterator,
        U::Item: Send,
        C: FromIterator<U::Item>,
    {
        let start = self.range.start;
        let len = self.range.end.saturating_sub(start);
        let f = &self.f;
        drive_chunks(len, |r| {
            let mut local = Vec::new();
            for i in r {
                local.extend(f(start + i));
            }
            local
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

// ---------------------------------------------------------------------------
// Parallel iterators over slices
// ---------------------------------------------------------------------------

/// Parallel iterator over `&[T]`.
pub struct ParSlice<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParSlice<'a, T> {
    /// Maps every element reference through `f`.
    pub fn map<B, F>(self, f: F) -> SliceMap<'a, T, B, F>
    where
        F: Fn(&'a T) -> B + Sync,
        B: Send,
    {
        SliceMap {
            slice: self.slice,
            f,
            _marker: std::marker::PhantomData,
        }
    }

    /// Copies every element (for `.copied().max()` style chains).
    pub fn copied(self) -> SliceCopied<'a, T>
    where
        T: Copy,
    {
        SliceCopied { slice: self.slice }
    }

    /// Sums the element references.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<&'a T> + std::iter::Sum<S> + Send,
    {
        let slice = self.slice;
        drive_chunks(slice.len(), |r| slice[r].iter().sum::<S>())
            .into_iter()
            .sum()
    }
}

/// Mapped parallel slice iterator.
pub struct SliceMap<'a, T, B, F> {
    slice: &'a [T],
    f: F,
    _marker: std::marker::PhantomData<fn() -> B>,
}

impl<'a, T: Sync, B, F> SliceMap<'a, T, B, F>
where
    F: Fn(&'a T) -> B + Sync,
    B: Send,
{
    /// Collects the mapped values in element order.
    pub fn collect<C>(self) -> C
    where
        C: FromIterator<B>,
    {
        let slice = self.slice;
        let f = &self.f;
        drive_chunks(slice.len(), |r| slice[r].iter().map(f).collect::<Vec<B>>())
            .into_iter()
            .flatten()
            .collect()
    }

    /// Sums the mapped values.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<B> + std::iter::Sum<S> + Send,
    {
        let slice = self.slice;
        let f = &self.f;
        drive_chunks(slice.len(), |r| slice[r].iter().map(f).sum::<S>())
            .into_iter()
            .sum()
    }
}

/// Copied parallel slice iterator.
pub struct SliceCopied<'a, T> {
    slice: &'a [T],
}

impl<T: Sync + Send + Copy> SliceCopied<'_, T> {
    /// Maximum element.
    pub fn max(self) -> Option<T>
    where
        T: Ord,
    {
        let slice = self.slice;
        drive_chunks(slice.len(), |r| slice[r].iter().copied().max())
            .into_iter()
            .flatten()
            .max()
    }

    /// Sum of the elements.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<T> + std::iter::Sum<S> + Send,
    {
        let slice = self.slice;
        drive_chunks(slice.len(), |r| slice[r].iter().copied().sum::<S>())
            .into_iter()
            .sum()
    }
}

/// Parallel iterator over `&mut [T]`.
pub struct ParSliceMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParSliceMut<'a, T> {
    /// Runs `f` on every element, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a mut T) + Sync,
    {
        let threads = current_num_threads().max(1);
        let len = self.slice.len();
        if len == 0 {
            return;
        }
        let chunk = len.div_ceil(threads * 4).max(1);
        let pieces: Vec<&'a mut [T]> = self.slice.chunks_mut(chunk).collect();
        drive_items(pieces, |piece| {
            for item in piece {
                f(item);
            }
        });
    }
}

/// Parallel iterator over immutable chunks of a slice.
pub struct ParChunks<'a, T> {
    chunks: Vec<&'a [T]>,
}

/// Parallel iterator over mutable chunks of a slice.
pub struct ParChunksMut<'a, T> {
    chunks: Vec<&'a mut [T]>,
}

impl<'a, T: Send + Sync> ParChunksMut<'a, T> {
    /// Pairs the mutable chunks with another chunk iterator.
    pub fn zip<U>(self, other: ParChunks<'a, U>) -> ParZipChunks<'a, T, U> {
        ParZipChunks {
            pairs: self.chunks.into_iter().zip(other.chunks).collect(),
        }
    }

    /// Runs `f` on every chunk, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a mut [T]) + Sync,
    {
        drive_items(self.chunks, f);
    }
}

/// Zipped mutable/immutable chunk pairs.
pub struct ParZipChunks<'a, T, U> {
    pairs: Vec<(&'a mut [T], &'a [U])>,
}

impl<'a, T: Send, U: Sync + Send> ParZipChunks<'a, T, U> {
    /// Runs `f` on every `(mutable chunk, immutable chunk)` pair.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((&'a mut [T], &'a [U])) + Sync,
    {
        drive_items(self.pairs, f);
    }
}

// ---------------------------------------------------------------------------
// Prelude traits
// ---------------------------------------------------------------------------

/// Extension traits mirroring `rayon::prelude`.
pub mod prelude {
    use super::*;

    /// `into_par_iter` for owned iterables (ranges).
    pub trait IntoParallelIterator {
        /// The parallel iterator type.
        type ParIter;
        /// Converts `self` into a parallel iterator.
        fn into_par_iter(self) -> Self::ParIter;
    }

    impl IntoParallelIterator for Range<usize> {
        type ParIter = ParRange;
        fn into_par_iter(self) -> ParRange {
            ParRange { range: self }
        }
    }

    /// `par_iter` / `par_chunks` over shared slices.
    pub trait ParallelSliceExt<T: Sync> {
        /// Parallel iterator over the elements.
        fn par_iter(&self) -> ParSlice<'_, T>;
        /// Parallel iterator over `size`-element chunks.
        fn par_chunks(&self, size: usize) -> ParChunks<'_, T>;
    }

    impl<T: Sync> ParallelSliceExt<T> for [T] {
        fn par_iter(&self) -> ParSlice<'_, T> {
            ParSlice { slice: self }
        }
        fn par_chunks(&self, size: usize) -> ParChunks<'_, T> {
            ParChunks {
                chunks: self.chunks(size.max(1)).collect(),
            }
        }
    }

    /// `par_iter_mut` / `par_chunks_mut` / `par_sort_unstable` over mutable
    /// slices.
    pub trait ParallelSliceMutExt<T: Send> {
        /// Parallel iterator over mutable element references.
        fn par_iter_mut(&mut self) -> ParSliceMut<'_, T>;
        /// Parallel iterator over mutable `size`-element chunks.
        fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
        /// Unstable parallel merge sort on the persistent pool (sequential
        /// below the `sort` module's size threshold or on one thread).
        fn par_sort_unstable(&mut self)
        where
            T: Ord;
    }

    impl<T: Send> ParallelSliceMutExt<T> for [T] {
        fn par_iter_mut(&mut self) -> ParSliceMut<'_, T> {
            ParSliceMut { slice: self }
        }
        fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
            ParChunksMut {
                chunks: self.chunks_mut(size.max(1)).collect(),
            }
        }
        fn par_sort_unstable(&mut self)
        where
            T: Ord,
        {
            crate::sort::par_sort_unstable(self);
        }
    }
}

// Gated out under `chordal_model`: these tests drive the real pool (whose
// workers loop forever), which the finite model exploration cannot host;
// the model suites live in `injector::model_tests` and `pool::model_tests`.
#[cfg(all(test, not(chordal_model)))]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn range_for_each_visits_every_index_once() {
        let n = 10_000;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        (0..n).into_par_iter().for_each(|i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn range_map_collect_preserves_order() {
        let v: Vec<usize> = (0..5_000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..5_000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn range_map_sum_and_max() {
        let s: usize = (0..1_000).into_par_iter().map(|i| i).sum();
        assert_eq!(s, 499_500);
        let m = (0..1_000).into_par_iter().map(|i| i ^ 0x2a).max();
        assert_eq!(m, (0..1_000).map(|i| i ^ 0x2a).max());
    }

    #[test]
    fn flat_map_iter_concatenates_in_order() {
        let v: Vec<usize> = (0..100)
            .into_par_iter()
            .flat_map_iter(|i| vec![i; i % 3])
            .collect();
        let expected: Vec<usize> = (0..100).flat_map(|i| vec![i; i % 3]).collect();
        assert_eq!(v, expected);
    }

    #[test]
    fn slice_combinators() {
        let data: Vec<u32> = (0..4_000).map(|i| (i * 7) % 1_000).collect();
        let doubled: Vec<u32> = data.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled[17], data[17] * 2);
        assert_eq!(data.par_iter().copied().max(), data.iter().copied().max());
        let total: u32 = data.par_iter().sum();
        assert_eq!(total, data.iter().sum::<u32>());
    }

    #[test]
    fn slice_mut_for_each_and_sort() {
        let mut data: Vec<u64> = (0..3_000).rev().collect();
        data.par_iter_mut().for_each(|x| *x += 1);
        assert_eq!(data[0], 3_000);
        data.par_sort_unstable();
        assert_eq!(data[0], 1);
        assert_eq!(data[2_999], 3_000);
    }

    #[test]
    fn zipped_chunks_pair_up() {
        let src: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let mut dst = vec![0.0f64; 100];
        dst.par_chunks_mut(10)
            .zip(src.par_chunks(10))
            .for_each(|(out, row)| {
                for (o, &x) in out.iter_mut().zip(row) {
                    *o = x * 3.0;
                }
            });
        assert_eq!(dst[33], 99.0);
    }

    #[test]
    fn regions_reuse_pool_workers_instead_of_spawning() {
        // Warm-up: the first region spawns the persistent workers.
        (0..1_000).into_par_iter().for_each(|_| {});
        let after_warmup = pool_spawned_threads();
        assert_eq!(
            after_warmup,
            pool_size(),
            "warm-up must spawn exactly the configured pool"
        );
        for round in 0..64 {
            let sum: usize = (0..10_000).into_par_iter().map(|i| i).sum();
            assert_eq!(sum, 49_995_000, "round {round}");
        }
        assert_eq!(
            pool_spawned_threads(),
            after_warmup,
            "parallel regions after warm-up must not spawn threads"
        );
    }

    #[test]
    fn region_bodies_run_only_on_pool_workers_or_the_caller() {
        let seen: Mutex<std::collections::HashSet<std::thread::ThreadId>> =
            Mutex::new(std::collections::HashSet::new());
        for _ in 0..32 {
            (0..2_000).into_par_iter().for_each(|_| {
                seen.lock().unwrap().insert(std::thread::current().id());
            });
        }
        let distinct = seen.lock().unwrap().len();
        assert!(
            distinct <= pool_size() + 1,
            "{distinct} distinct executing threads exceeds pool ({}) + caller",
            pool_size()
        );
    }

    #[test]
    fn panics_propagate_to_the_submitting_thread() {
        let outcome = std::panic::catch_unwind(|| {
            (0..1_000).into_par_iter().for_each(|i| {
                if i == 371 {
                    panic!("boom at {i}");
                }
            });
        });
        let payload = outcome.expect_err("worker panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("boom at 371"), "payload: {message}");
        // The pool survives a panicked region and keeps executing work.
        let sum: usize = (0..100).into_par_iter().map(|i| i).sum();
        assert_eq!(sum, 4_950);
    }

    #[test]
    fn nested_regions_complete_and_agree_with_serial() {
        // The inner regions are submitted from pool workers; their tickets
        // join the outer region's in the one injector.
        let totals: Vec<usize> = (0..8usize)
            .into_par_iter()
            .map(|i| {
                (0..1_000usize)
                    .into_par_iter()
                    .map(|j| i * j)
                    .sum::<usize>()
            })
            .collect();
        let expected: Vec<usize> = (0..8usize)
            .map(|i| (0..1_000usize).map(|j| i * j).sum())
            .collect();
        assert_eq!(totals, expected);
    }

    #[test]
    fn deeply_nested_regions_do_not_deadlock_on_a_small_pool() {
        // Three levels of nesting: a joining thread waits only on chunks
        // that are already running, never on a queued ticket, so nesting
        // cannot deadlock (the CHORDAL_POOL_THREADS=2 CI leg runs this on a
        // two-worker pool; `pool::tests` nests on a one-worker pool).
        let total: usize = (0..4usize)
            .into_par_iter()
            .map(|a| {
                (0..4usize)
                    .into_par_iter()
                    .map(|b| {
                        (0..64usize)
                            .into_par_iter()
                            .map(|c| a ^ b ^ c)
                            .sum::<usize>()
                    })
                    .sum::<usize>()
            })
            .sum();
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
