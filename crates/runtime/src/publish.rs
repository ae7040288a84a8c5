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
//!   slot first. [`Published::peek`] is the same acquire load without the
//!   wait: `None` while the slot is unpublished, and once it returns a
//!   value the same stores are visible. The model tests
//!   `waiter_sees_every_entry_the_length_covers` and
//!   `deferred_waiter_sees_every_entry_the_length_covers` (a reader that
//!   peeks, sets the index aside and waits for it later) explore this
//!   pairing, and the seeded mutant `chordal_mutate = "clen_publish"`
//!   (which weakens the release to relaxed) makes both fail.
//!
//! A waiter spins `SPINS` times and then yields its core, so a publisher
//! that shares the core still gets to run. It gives up, returning `None`,
//! once the doacross it runs in has been aborted by a panicking piece: the
//! value it waits for may never come.
//!
//! # Owner forms
//!
//! [`Published::reset`], [`Published::get_mut`] and [`Published::set_mut`]
//! reach the slots through `AtomicU32::get_mut`. They take `&mut self`, so no other thread can hold
//! a reference meanwhile, and whatever handed the array to this thread (a
//! region join, a spawn) already made every earlier publish visible.
//!
//! # Doacross
//!
//! [`Published::doacross`] runs a body over `0..n` in ascending order, and
//! hands each participant a state of its own (Algorithm 1 keeps its
//! staging buffer, its block of the set arena and its pending list there).
//! On an engine with one thread it is one plain call with one state, then
//! one call of `finish` on it. On the pool, each chunk of a region of
//! [`doacross_participants`] chunks is one participant: it makes its state
//! when it claims its first piece, claims pieces of [`DOACROSS_PIECE`]
//! indices from the doacross's one cursor until none is left, and then
//! calls `finish` on its state once, unless the loop was aborted. So
//! pieces are claimed in ascending order and every claimed piece is being
//! run by the thread that claimed it.
//!
//! A body may wait on smaller indices, or peek at them and set aside the
//! work that needs one still unpublished, to finish it later: in a later
//! piece, or in `finish`, where it may wait. The loop cannot deadlock if a
//! participant blocks only to finish the work it set aside, in ascending
//! index order, and a fresh index never blocks. Then the participant that
//! owns the lowest unpublished index never blocks: every index it could
//! wait on is lower and so published, and any work it set aside that it
//! could block on would be lower still. (With only waits, this is the
//! plain doacross argument: the lowest unfinished piece never waits, since
//! the pieces below it are finished and its own smaller indices were run
//! first by the same thread.) An unclaimed index lies above every claimed
//! one, so it cannot be the lowest unpublished while all participants
//! block. Some participant always makes progress, whatever the thread
//! count or the pool size.

use crate::pool::{pool_size, Pool};
use crate::Engine;
use std::ops::Range;

// Under `cfg(chordal_model)` the atomics and the thread calls come from the
// chordal-checker facade, so the model tests below explore every
// interleaving (see docs/concurrency.md).
#[cfg(not(chordal_model))]
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
#[cfg(not(chordal_model))]
use std::thread;

#[cfg(chordal_model)]
use chordal_checker::sync::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
#[cfg(chordal_model)]
use chordal_checker::thread;

/// The value of a slot nobody has published yet.
pub const UNPUBLISHED: u32 = u32::MAX;

/// Indices a doacross participant claims at a time. Measured, not tuned
/// per call: on the two-thread half of an RMAT-ER/G/B(16) pull pass on a
/// 2-core host, 64-index pieces took 29–35 ms, 256-index pieces 40–42 ms
/// and the engine's coarse pieces (those of `Engine::map_pieces`) 51–55 ms.
/// Smaller pieces keep the participants close together in id order, so a
/// waiter's parents are more often finished already.
pub const DOACROSS_PIECE: usize = 64;

/// Participants of a [`Published::doacross`] over `0..n` on `engine`: one
/// on a one-thread engine or for a single piece, otherwise one per thread
/// a pool region can hold (the engine's threads, at most the pool's
/// workers plus the caller), at most one per piece. Each participant has
/// a state of its own, so a caller sizes per-participant resources by it.
pub fn doacross_participants(engine: &Engine, n: usize) -> usize {
    engine
        .threads()
        .min(n.div_ceil(DOACROSS_PIECE))
        .min(pool_size() + 1)
        .max(1)
}

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

    /// The value at `index` if it is published (the acquire load of
    /// [`Published::wait`], without the wait), `None` if not yet. A
    /// doacross participant peeks to set a step aside instead of spinning.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    #[inline]
    pub fn peek(&self, index: usize) -> Option<u32> {
        match self.load(index) {
            UNPUBLISHED => None,
            value => Some(value),
        }
    }

    /// Waits until `index` is published and returns its value (acquire), or
    /// `None` once the doacross this runs in was aborted.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    #[inline]
    pub fn wait(&self, index: usize) -> Option<u32> {
        self.peek(index).or_else(|| self.wait_slow(index))
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

    /// Stores `value` at `index` through the owner form, for a caller that
    /// reuses the slots once every value has been read (Algorithm 1 counts
    /// its result edges per parent in them).
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    #[inline]
    pub fn set_mut(&mut self, index: usize, value: u32) {
        *self.slots[index].get_mut() = value;
    }

    /// Runs `body` over `0..n` in ascending order (module docs), handing it
    /// each time the state of the participant that runs it: one call with
    /// one state on a one-thread engine, a doacross over
    /// [`DOACROSS_PIECE`]-index pieces on the pool, where each of the
    /// [`doacross_participants`] makes its state with `init` when it claims
    /// its first piece. `body` may [`Published::wait`] on indices below the
    /// start of its range, or [`Published::peek`] at them and leave the
    /// work that needs them for later. Each participant calls `finish` on
    /// its state once, after its last piece, to finish whatever it left;
    /// `finish` may wait on any index. A panic in a piece aborts the loop:
    /// waiters return `None`, no further piece starts, no `finish` runs,
    /// and the panic reaches the caller.
    pub fn doacross<S, I, F, G>(&self, engine: &Engine, n: usize, init: I, body: F, finish: G)
    where
        I: Fn() -> S + Sync,
        F: Fn(&mut S, Range<usize>) + Sync,
        G: Fn(&mut S) + Sync,
    {
        let participants = doacross_participants(engine, n);
        if participants <= 1 {
            let mut state = init();
            body(&mut state, 0..n);
            finish(&mut state);
            return;
        }
        let next = AtomicUsize::new(0);
        Pool::global().run_region(participants, 1, participants, |chunk| {
            let _abort = AbortOnUnwind(&self.aborted);
            for _participant in chunk {
                let mut state = None;
                // Claims carry no data: the cursor's modification order
                // alone makes them ascending.
                while !self.aborted.load(Ordering::Relaxed) {
                    let start = next.fetch_add(DOACROSS_PIECE, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let state = state.get_or_insert_with(&init);
                    body(state, start..(start + DOACROSS_PIECE).min(n));
                }
                if let Some(state) = state.as_mut() {
                    if !self.aborted.load(Ordering::Relaxed) {
                        finish(state);
                    }
                }
            }
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
            p.doacross(
                &engine,
                n,
                || (),
                |_, range| {
                    for i in range {
                        runs.fetch_add(1, Ordering::Relaxed);
                        let value = match i {
                            0 => 0,
                            _ => p.wait(dependency(i)).expect("not aborted") + 1,
                        };
                        p.publish(i, value);
                    }
                },
                |_| {},
            );
            assert_eq!(runs.into_inner(), n, "{engine:?}");
            for i in 1..n {
                let j = dependency(i);
                assert_eq!(p.get_mut(i), p.get_mut(j) + 1, "{engine:?} index {i}");
            }
        }
    }

    #[test]
    fn each_participant_runs_its_own_pieces_in_ascending_order() {
        // Every state records the pieces its participant ran and how often
        // it was finished: a state runs ascending pieces, no two states
        // share a piece, together they cover `0..n`, there are at most
        // `doacross_participants`, and each is finished once, after its
        // last piece (no piece runs on a finished state).
        let n = 40 * DOACROSS_PIECE + 7;
        for engine in [Engine::serial(), Engine::chunked(2), Engine::chunked(8)] {
            let p = published(n);
            let states = std::sync::Mutex::new(Vec::new());
            /// The pieces a state ran and how often it was finished.
            type Record = (Vec<Range<usize>>, usize);
            struct Ran<'a>(Vec<Range<usize>>, usize, &'a std::sync::Mutex<Vec<Record>>);
            impl Drop for Ran<'_> {
                fn drop(&mut self) {
                    let ran = (std::mem::take(&mut self.0), self.1);
                    self.2.lock().unwrap().push(ran);
                }
            }
            p.doacross(
                &engine,
                n,
                || Ran(Vec::new(), 0, &states),
                |ran, range| {
                    assert_eq!(ran.1, 0, "a piece after finish");
                    for i in range.clone() {
                        p.publish(i, 1);
                    }
                    ran.0.push(range);
                },
                |ran| ran.1 += 1,
            );
            let states = states.into_inner().unwrap();
            assert!(
                !states.is_empty() && states.len() <= doacross_participants(&engine, n),
                "{engine:?}: {} states",
                states.len()
            );
            let mut covered = Vec::new();
            for (ran, finished) in &states {
                assert_eq!(*finished, 1, "{engine:?}");
                assert!(ran.windows(2).all(|w| w[0].end <= w[1].start), "{engine:?}");
                covered.extend(ran.iter().flat_map(Clone::clone));
            }
            covered.sort_unstable();
            assert_eq!(covered, (0..n).collect::<Vec<_>>(), "{engine:?}");
        }
        assert_eq!(
            doacross_participants(&Engine::chunked(8), DOACROSS_PIECE),
            1
        );
        assert_eq!(
            doacross_participants(&Engine::serial(), 10 * DOACROSS_PIECE),
            1
        );
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
        let finished = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            p.doacross(
                &Engine::chunked(2),
                n,
                || (),
                |_, range| {
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
                },
                |_| {
                    finished.fetch_add(1, Ordering::SeqCst);
                },
            );
        }));
        let payload = outcome.expect_err("the panic must reach the caller");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "piece 0 failed");
        assert_eq!(
            waiting.load(Ordering::SeqCst),
            gave_up.load(Ordering::SeqCst),
            "every waiter must give up"
        );
        assert_eq!(finished.into_inner(), 0, "no participant finishes an abort");
    }

    #[test]
    fn peek_sees_a_value_only_once_it_is_published() {
        let p = published(3);
        assert_eq!(p.peek(1), None);
        p.publish(1, 4);
        assert_eq!((p.peek(1), p.peek(0)), (Some(4), None));
        p.publish(0, 0);
        assert_eq!(p.peek(0), Some(0));
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

    /// [`publish_race`] as a deferring participant runs it: it peeks the
    /// length first, and when it is unpublished it sets the index aside,
    /// publishes an index of its own meanwhile, and waits in its finish.
    /// Either way it must read the start and both entries.
    fn deferred_publish_race() {
        let mut len = Published::default();
        len.reset(2);
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
        let published = match len.peek(0) {
            Some(published) => published,
            None => {
                len.publish(1, 0);
                len.wait(0).expect("never aborted")
            }
        } as usize;
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
        check_publish(publish_race);
    }

    /// The same for a participant that peeks, defers and waits in its
    /// finish.
    #[test]
    fn deferred_waiter_sees_every_entry_the_length_covers() {
        check_publish(deferred_publish_race);
    }

    fn check_publish(race: fn()) {
        let cfg = Config::dfs(2);
        let outcome = run(cfg, race);
        if cfg!(chordal_mutate = "clen_publish") {
            let f = outcome
                .failure
                .expect("a relaxed publish must yield a failing schedule");
            assert!(f.message.contains("every entry"), "{}", f.message);
            eprintln!("the clen_publish mutant fails as expected:\n{}", f.report());
            let again = run(cfg, race);
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
