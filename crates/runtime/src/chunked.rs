//! Fine-grained dynamic self-scheduling executor.
//!
//! Worker threads repeatedly claim the next `grain` indices from a shared
//! atomic counter until the iteration space is exhausted. This mirrors the
//! scheduling style of the Cray XMT targeted by the paper: many lightweight
//! workers pulling small units of work, with no static partitioning, so load
//! imbalance from skewed vertex degrees (the R-MAT "B" graphs have maximum
//! degrees in the tens of thousands) is absorbed dynamically.
//!
//! Execution happens on the workspace's shared persistent worker pool
//! ([`rayon::run_pooled_region`], an extension of the in-tree rayon
//! substitute): a region submits work tickets to the already-running pool
//! workers instead of spawning scoped threads, so the per-region cost is a
//! queue push rather than thread creation. The grain-size ablation
//! benchmark (`ablations` bench target) quantifies the remaining region
//! overhead.

use std::ops::Range;

/// Dynamic self-scheduling executor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkedEngine {
    threads: usize,
    grain: usize,
}

impl ChunkedEngine {
    /// Creates an engine with `threads` workers claiming `grain` indices at a
    /// time. Both values are clamped to at least 1.
    pub fn new(threads: usize, grain: usize) -> Self {
        Self {
            threads: threads.max(1),
            grain: grain.max(1),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Chunk size claimed per scheduling step.
    pub fn grain(&self) -> usize {
        self.grain
    }

    /// Runs `f` over disjoint chunks covering `0..n`.
    pub fn for_chunks<F>(&self, n: usize, f: &F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if n == 0 {
            return;
        }
        // For tiny iteration spaces or a single worker, run inline: even a
        // pooled region submission would only add overhead.
        if self.threads == 1 || n <= self.grain {
            f(0..n);
            return;
        }
        rayon::run_pooled_region(n, self.grain, self.threads, f);
    }
}

// Gated out under `chordal_model`: these tests drive the real pool.
#[cfg(all(test, not(chordal_model)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn clamps_to_minimum_configuration() {
        let e = ChunkedEngine::new(0, 0);
        assert_eq!(e.threads(), 1);
        assert_eq!(e.grain(), 1);
    }

    #[test]
    fn covers_entire_range() {
        let e = ChunkedEngine::new(4, 16);
        let n = 1_000;
        let sum = AtomicU64::new(0);
        e.for_chunks(n, &|r: Range<usize>| {
            for i in r {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), (n as u64 - 1) * n as u64 / 2);
    }

    #[test]
    fn single_thread_runs_inline() {
        let e = ChunkedEngine::new(1, 4);
        let count = AtomicUsize::new(0);
        e.for_chunks(100, &|r: Range<usize>| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn small_range_runs_inline() {
        let e = ChunkedEngine::new(8, 1000);
        let count = AtomicUsize::new(0);
        e.for_chunks(10, &|r: Range<usize>| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn zero_items_is_noop() {
        let e = ChunkedEngine::new(4, 8);
        let count = AtomicUsize::new(0);
        e.for_chunks(0, &|_r: Range<usize>| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn grain_of_one_still_covers_everything() {
        let e = ChunkedEngine::new(3, 1);
        let n = 257;
        let count = AtomicUsize::new(0);
        e.for_chunks(n, &|r: Range<usize>| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), n);
    }
}
