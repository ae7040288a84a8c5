//! Publish once, wait for it: per-index values that one task writes while
//! later tasks wait to read them, and the doacross loop built on them.
//!
//! Algorithm 1's pull pass finishes vertex `w` only after every parent of
//! `w`, all of which have smaller ids, has finished. On the Cray XMT the
//! paper evaluates on, that wait is a full/empty bit per word: a reader
//! blocks until the writer fills it. [`Published`] is the software form: one
//! `u32` per index with an [`UNPUBLISHED`] sentinel as the "empty" state.
//!
//! # Protocol
//!
//! * [`Published::publish`] stores the value with **release**. The
//!   publisher first writes the data the value describes (for Algorithm 1,
//!   the entries of `C[w]` and the start slot that says where they begin)
//!   with relaxed stores; the release orders them before the value.
//! * [`Published::wait`] **acquire**-loads the slot until it holds a value.
//!   Once it returns, every store the publisher made before publishing is
//!   visible, so the reader may load the data with relaxed loads, the start
//!   slot first. The model test `waiter_sees_every_entry_the_length_covers`
//!   explores this pairing, and the seeded mutant
//!   `chordal_mutate = "clen_publish"` (which weakens the release to
//!   relaxed) makes it fail.
//!
//! A waiter spins `SPINS` times and then yields its core, so a publisher
//! that shares the core still gets to run. It gives up, returning `None`,
//! once the doacross it runs in has been aborted by a panicking piece: the
//! value it waits for may never come.
//!
//! # Owner forms
//!
//! [`Published::reset`] and [`Published::get_mut`] reach the slots through
//! `AtomicU32::get_mut`. They take `&mut self`, so no other thread can hold
//! a reference meanwhile, and whatever handed the array to this thread (a
//! region join, a spawn) already made every earlier publish visible.
//!
//! # Doacross
//!
//! [`Published::doacross`] runs a body over `0..n` in ascending order. On an
//! engine with one thread it is one plain call. On the pool, the region's
//! participants claim pieces of [`DOACROSS_PIECE`] indices from the
//! region's one cursor, so pieces are claimed in ascending order and every
//! claimed piece is being run by the thread that claimed it. If a body only
//! waits on smaller indices, the lowest unfinished piece never waits: the
//! pieces below it are finished and its own smaller indices were run first
//! by the same thread. So some participant always makes progress and the
//! loop cannot deadlock, whatever the thread count or the pool size.

use crate::pool::Pool;
use crate::Engine;
use std::ops::Range;

// Under `cfg(chordal_model)` the atomics and the thread calls come from the
// chordal-checker facade, so the model tests below explore every
// interleaving (see docs/concurrency.md).
#[cfg(not(chordal_model))]
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
#[cfg(not(chordal_model))]
use std::thread;

#[cfg(chordal_model)]
use chordal_checker::sync::{AtomicBool, AtomicU32, Ordering};
#[cfg(chordal_model)]
use chordal_checker::thread;

/// The value of a slot nobody has published yet.
pub const UNPUBLISHED: u32 = u32::MAX;

/// Indices a doacross participant claims at a time. Measured, not tuned
/// per call: on the two-thread half of an RMAT-ER/G/B(16) pull pass on a
/// 2-core host, 64-index pieces took 29–35 ms, 256-index pieces 40–42 ms
/// and the engine's coarse pieces (`Engine::parallel_for_chunks`) 51–55 ms.
/// Smaller pieces keep the participants close together in id order, so a
/// waiter's parents are more often finished already.
pub const DOACROSS_PIECE: usize = 64;

/// Failed loads before a waiter starts to yield its core.
#[cfg(not(chordal_model))]
const SPINS: u32 = 64;
/// Under the model checker every load is a schedule point, so a waiter
/// backs off after one.
#[cfg(chordal_model)]
const SPINS: u32 = 1;

/// Ordering of the publishing store. Release is load-bearing: it makes the
/// data written before the value visible to a waiter that acquires it
/// (model test `waiter_sees_every_entry_the_length_covers`). The
/// `chordal_mutate = "clen_publish"` cfg weakens it to Relaxed so the
/// checker can prove it detects the stale read.
#[inline]
fn publish_ordering() -> Ordering {
    #[cfg(chordal_mutate = "clen_publish")]
    {
        Ordering::Relaxed
    }
    #[cfg(not(chordal_mutate = "clen_publish"))]
    {
        Ordering::Release
    }
}

/// Gives the core away once spinning has not helped.
#[inline]
fn back_off() {
    // Under the model checker a yield is just another schedule point: a
    // waiter that keeps being chosen would spin past the step cap. A timed
    // park blocks it until no other thread can run, which is when the
    // virtual clock fires.
    #[cfg(chordal_model)]
    thread::park_timeout(std::time::Duration::from_micros(1));
    #[cfg(not(chordal_model))]
    thread::yield_now();
}

/// Per-index published values; see the module docs.
pub struct Published {
    slots: Vec<AtomicU32>,
    /// Set when a doacross piece panicked; waiters then give up.
    aborted: AtomicBool,
}

impl Default for Published {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            aborted: AtomicBool::new(false),
        }
    }
}

impl Published {
    /// Covers at least `len` indices and marks the first `len`
    /// [`UNPUBLISHED`]; returns whether the array had to grow. Owner form:
    /// plain stores through `get_mut`.
    pub fn reset(&mut self, len: usize) -> bool {
        let grew = self.slots.len() < len;
        if grew {
            self.slots.resize_with(len, || AtomicU32::new(UNPUBLISHED));
        }
        for slot in &mut self.slots[..len] {
            *slot.get_mut() = UNPUBLISHED;
        }
        self.aborted.store(false, Ordering::Relaxed);
        grew
    }

    /// Heap bytes backing the slots.
    pub fn allocated_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<AtomicU32>()
    }

    /// Publishes `value` at `index` with a release store: every store this
    /// thread made before is visible to the thread that acquires it.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    #[inline]
    pub fn publish(&self, index: usize, value: u32) {
        self.slots[index].store(value, publish_ordering());
    }

    /// The value at `index` (an acquire load, no wait).
    #[inline]
    fn load(&self, index: usize) -> u32 {
        self.slots[index].load(Ordering::Acquire)
    }

    /// Waits until `index` is published and returns its value (acquire), or
    /// `None` once the doacross this runs in was aborted.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    #[inline]
    pub fn wait(&self, index: usize) -> Option<u32> {
        match self.load(index) {
            UNPUBLISHED => self.wait_slow(index),
            value => Some(value),
        }
    }

    #[cold]
    fn wait_slow(&self, index: usize) -> Option<u32> {
        let mut spins = 0u32;
        loop {
            // The abort flag transfers no data: relaxed suffices, and a
            // waiter sees it within a few iterations.
            if self.aborted.load(Ordering::Relaxed) {
                return None;
            }
            if spins < SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                back_off();
            }
            let value = self.load(index);
            if value != UNPUBLISHED {
                return Some(value);
            }
        }
    }

    /// The value at `index`, read through the owner form: no wait and no
    /// acquire, because `&mut self` already orders every publish before it.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    #[inline]
    pub fn get_mut(&mut self, index: usize) -> u32 {
        *self.slots[index].get_mut()
    }

    /// Runs `body` over `0..n` in ascending order (module docs): one call
    /// on a one-thread engine, a doacross over [`DOACROSS_PIECE`]-index
    /// pieces on the pool. `body` may [`Published::wait`] on indices below
    /// the start of its range. A panic in a piece aborts the loop: waiters
    /// return `None`, and the panic reaches the caller.
    pub fn doacross<F>(&self, engine: &Engine, n: usize, body: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if engine.threads() <= 1 {
            body(0..n);
            return;
        }
        Pool::global().run_region(n, DOACROSS_PIECE, engine.threads(), |range| {
            let _abort = AbortOnUnwind(&self.aborted);
            body(range);
        });
    }
}

impl std::fmt::Debug for Published {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Published")
            .field("len", &self.slots.len())
            .finish()
    }
}

/// Sets the abort flag if the piece it guards unwinds.
struct AbortOnUnwind<'a>(&'a AtomicBool);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(all(test, not(chordal_model)))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    /// The index `i` waits on in the chain tests: up to 100 indices back.
    fn dependency(i: usize) -> usize {
        (i - 1).saturating_sub(i % 100)
    }

    fn published(len: usize) -> Published {
        let mut published = Published::default();
        assert!(published.reset(len));
        published
    }

    #[test]
    fn reset_sets_every_slot_and_reports_growth() {
        let mut p = published(4);
        p.publish(2, 7);
        assert_eq!(p.load(2), 7);
        assert!(!p.reset(4), "same size must not grow");
        assert_eq!(
            (0..4).map(|i| p.get_mut(i)).collect::<Vec<_>>(),
            [UNPUBLISHED; 4]
        );
        p.publish(3, 5);
        assert_eq!(p.wait(3), Some(5));
        assert!(p.reset(9) && p.allocated_bytes() >= 36);
        assert_eq!(p.load(8), UNPUBLISHED);
    }

    #[test]
    fn doacross_runs_every_index_once_after_the_ones_it_waits_on() {
        // Each index publishes one more than the value of the index it
        // waits on, a chain from 0 that skips back up to 100 indices: every
        // participant count must produce the same values.
        let n = 5_000;
        for engine in [
            Engine::serial(),
            Engine::chunked(2),
            Engine::chunked(8),
            Engine::chunked_with_grain(3, 1),
        ] {
            let mut p = published(n);
            let runs = AtomicUsize::new(0);
            p.doacross(&engine, n, |range| {
                for i in range {
                    runs.fetch_add(1, Ordering::Relaxed);
                    let value = match i {
                        0 => 0,
                        _ => p.wait(dependency(i)).expect("not aborted") + 1,
                    };
                    p.publish(i, value);
                }
            });
            assert_eq!(runs.into_inner(), n, "{engine:?}");
            for i in 1..n {
                let j = dependency(i);
                assert_eq!(p.get_mut(i), p.get_mut(j) + 1, "{engine:?} index {i}");
            }
        }
    }

    #[test]
    fn a_panicking_piece_aborts_the_waiters_and_reaches_the_caller() {
        // Index 0's piece panics while the second piece waits on index 0,
        // which is never published. The waiter must notice the abort, or
        // the region never quiesces.
        let n = 2 * DOACROSS_PIECE;
        let p = published(n);
        let waiting = AtomicUsize::new(0);
        let gave_up = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            p.doacross(&Engine::chunked(2), n, |range| {
                if range.start == 0 {
                    // Give the other participant time to start waiting, but
                    // do not depend on it: with one participant the second
                    // piece never starts.
                    let start = Instant::now();
                    while waiting.load(Ordering::SeqCst) == 0
                        && start.elapsed() < Duration::from_millis(200)
                    {
                        thread::yield_now();
                    }
                    panic!("piece 0 failed");
                }
                waiting.fetch_add(1, Ordering::SeqCst);
                if p.wait(0).is_none() {
                    gave_up.fetch_add(1, Ordering::SeqCst);
                }
            });
        }));
        let payload = outcome.expect_err("the panic must reach the caller");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "piece 0 failed");
        assert_eq!(
            waiting.load(Ordering::SeqCst),
            gave_up.load(Ordering::SeqCst),
            "every waiter must give up"
        );
    }
}

/// Deterministic model-checker tests; compiled only under
/// `RUSTFLAGS="--cfg chordal_model"`, where the atomics above resolve to the
/// chordal-checker facade.
#[cfg(all(test, chordal_model))]
mod model_tests {
    use super::*;
    use chordal_checker::sync::AtomicUsize;
    use chordal_checker::{run, Config};
    use std::sync::Arc;

    /// Message passing over one published length, as Algorithm 1's pass
    /// does it: the writer stores two entries at offset 2 and that offset in
    /// a start slot, all relaxed, then publishes the length 2; a waiter that
    /// sees the length must read the start and both entries, never the
    /// initial zeroes.
    fn publish_race() {
        let mut len = Published::default();
        len.reset(1);
        let entries = [0; 4].map(AtomicU32::new);
        let shared = Arc::new((entries, AtomicUsize::new(0), len));
        let writer = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                let (entries, start, len) = &*shared;
                entries[2].store(7, Ordering::Relaxed);
                entries[3].store(9, Ordering::Relaxed);
                start.store(2, Ordering::Relaxed);
                len.publish(0, 2);
            })
        };
        let (entries, start, len) = &*shared;
        let published = len.wait(0).expect("never aborted") as usize;
        let start = start.load(Ordering::Relaxed);
        for (k, want) in [7, 9].into_iter().enumerate().take(published) {
            assert_eq!(
                entries[start + k].load(Ordering::Relaxed),
                want,
                "a waiter saw the length but not every entry it covers"
            );
        }
        writer.join().unwrap();
    }

    /// Under the `clen_publish` mutant the checker must observe the start or
    /// an entry the length covers still at its initial value; with the real
    /// release publish it must pass exhaustively.
    #[test]
    fn waiter_sees_every_entry_the_length_covers() {
        let cfg = Config::dfs(2);
        let outcome = run(cfg, publish_race);
        if cfg!(chordal_mutate = "clen_publish") {
            let f = outcome
                .failure
                .expect("a relaxed publish must yield a failing schedule");
            assert!(f.message.contains("every entry"), "{}", f.message);
            eprintln!("the clen_publish mutant fails as expected:\n{}", f.report());
            let again = run(cfg, publish_race);
            assert_eq!(
                f.execution,
                again.failure.expect("rerun must fail too").execution,
                "deterministic reproduction"
            );
        } else if let Some(f) = outcome.failure {
            panic!("a release publish must pass exhaustively:\n{}", f.report());
        }
    }
}
