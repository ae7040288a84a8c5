//! The persistent pool's ticket queue: a bounded lock-free MPMC ring
//! (Dmitry Vyukov's bounded queue) that every region submission, from
//! inside the pool or outside it, publishes its help invitations to.
//!
//! The queue moves opaque `*mut ()` values (the pool stores `Arc<Region>`
//! tickets through `Arc::into_raw`); ownership of the pointee transfers to
//! whoever pops the value. Capacity is fixed and a full queue rejects the
//! push. That is safe for the pool because a ticket is only an
//! *invitation* to help with a region, never the work itself (the
//! region's iteration space lives behind an atomic cursor that the
//! submitting thread always drains), so a dropped invitation costs
//! parallelism, not correctness.
//!
//! Producers claim a slot by CAS on `tail` and publish the value with a
//! release store of the slot's sequence number; consumers mirror the
//! protocol on `head`. No element is ever observed half-written and the
//! queue is linearisable without any lock.

// Under `cfg(chordal_model)` the atomics come from the chordal-checker
// facade: every operation becomes a schedule point of the deterministic
// interleaving explorer (see crates/checker and docs/concurrency.md).
#[cfg(not(chordal_model))]
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

#[cfg(chordal_model)]
use chordal_checker::sync::{AtomicPtr, AtomicUsize, Ordering};

/// Ordering of the injector's slot-sequence publish store. Release is
/// load-bearing: it is the edge that makes the just-written `value` visible
/// to the consumer that acquires the sequence (model test
/// `injector_publish_is_release`). The `chordal_mutate = "injector_publish"`
/// cfg weakens it to Relaxed so the checker can prove it detects the
/// stale-value read.
#[inline]
fn injector_publish_ordering() -> Ordering {
    #[cfg(chordal_mutate = "injector_publish")]
    {
        Ordering::Relaxed
    }
    #[cfg(not(chordal_mutate = "injector_publish"))]
    {
        Ordering::Release
    }
}

/// One slot of the [`Injector`] ring: a sequence number gating a value.
struct InjectorSlot {
    sequence: AtomicUsize,
    value: AtomicPtr<()>,
}

/// Bounded lock-free MPMC queue of `*mut ()` values (Vyukov's algorithm).
pub(crate) struct Injector {
    slots: Box<[InjectorSlot]>,
    mask: usize,
    /// Consumer cursor.
    head: AtomicUsize,
    /// Producer cursor.
    tail: AtomicUsize,
}

// SAFETY: all fields are atomics; values are opaque pointers moved by
// value, never dereferenced by the queue itself.
unsafe impl Send for Injector {}
// SAFETY: the per-slot sequence protocol serializes all access to a slot's
// value; concurrent callers only ever touch atomics (see Send above).
unsafe impl Sync for Injector {}

impl Injector {
    /// Creates an injector with the given power-of-two capacity.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(
            capacity.is_power_of_two(),
            "capacity must be a power of two"
        );
        Self {
            slots: (0..capacity)
                .map(|i| InjectorSlot {
                    sequence: AtomicUsize::new(i),
                    value: AtomicPtr::new(std::ptr::null_mut()),
                })
                .collect(),
            mask: capacity - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Enqueues a value; returns it back when the queue is full.
    pub(crate) fn push(&self, value: *mut ()) -> Result<(), *mut ()> {
        let mut tail = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[tail & self.mask];
            let seq = slot.sequence.load(Ordering::Acquire);
            let dif = seq as isize - tail as isize;
            if dif == 0 {
                // Slot free for this lap; claim it.
                match self.tail.compare_exchange_weak(
                    tail,
                    tail + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        slot.value.store(value, Ordering::Relaxed);
                        // Release publish (via the mutation seam): makes the
                        // value store above visible to the consumer that
                        // acquires this sequence number.
                        slot.sequence.store(tail + 1, injector_publish_ordering());
                        return Ok(());
                    }
                    Err(current) => tail = current,
                }
            } else if dif < 0 {
                // A full lap behind: the queue is full.
                return Err(value);
            } else {
                tail = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeues the oldest value, or `None` when the queue is empty.
    pub(crate) fn pop(&self) -> Option<*mut ()> {
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[head & self.mask];
            let seq = slot.sequence.load(Ordering::Acquire);
            let dif = seq as isize - (head + 1) as isize;
            if dif == 0 {
                match self.head.compare_exchange_weak(
                    head,
                    head + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let value = slot.value.load(Ordering::Relaxed);
                        // Release the slot for the producers' next lap.
                        slot.sequence.store(head + self.mask + 1, Ordering::Release);
                        return Some(value);
                    }
                    Err(current) => head = current,
                }
            } else if dif < 0 {
                return None;
            } else {
                head = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Whether the queue currently appears empty (racy; scheduling hint
    /// only).
    pub(crate) fn is_empty(&self) -> bool {
        self.head.load(Ordering::Acquire) >= self.tail.load(Ordering::Acquire)
    }
}

#[cfg(all(test, not(chordal_model)))]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;

    fn boxed(v: usize) -> *mut () {
        Box::into_raw(Box::new(v)) as *mut ()
    }

    fn unbox(p: *mut ()) -> usize {
        // Every pointer in these tests comes from `boxed`, and the
        // injector surfaces each pushed pointer exactly once (that
        // uniqueness is the very invariant the tests assert).
        // SAFETY: unique surfacing (above) means the Box reconstruction
        // never aliases.
        unsafe { *Box::from_raw(p as *mut usize) }
    }

    #[test]
    fn injector_fifo_and_full_behaviour() {
        let q = Injector::new(4);
        for v in 0..4 {
            q.push(boxed(v)).unwrap();
        }
        let extra = boxed(42);
        let rejected = q.push(extra).expect_err("full injector must reject");
        assert_eq!(unbox(rejected), 42);
        for v in 0..4 {
            assert_eq!(unbox(q.pop().unwrap()), v, "FIFO order");
        }
        assert!(q.pop().is_none());
        assert!(q.is_empty());
        // Wrap-around lap works.
        q.push(boxed(7)).unwrap();
        assert_eq!(unbox(q.pop().unwrap()), 7);
    }

    #[test]
    fn injector_stress_mpmc_accounts_for_every_value() {
        const PER_PRODUCER: usize = 8_000;
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        let q = Injector::new(128);
        let done = AtomicBool::new(false);
        let (q, done) = (&q, &done);
        let consumed: Vec<usize> = std::thread::scope(|s| {
            let mut consumers = Vec::new();
            for _ in 0..CONSUMERS {
                consumers.push(s.spawn(|| {
                    let mut got = Vec::new();
                    loop {
                        match q.pop() {
                            Some(p) => got.push(unbox(p)),
                            None if done.load(Ordering::Acquire) => match q.pop() {
                                Some(p) => got.push(unbox(p)),
                                None => break,
                            },
                            None => std::hint::spin_loop(),
                        }
                    }
                    got
                }));
            }
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    s.spawn(move || {
                        for i in 0..PER_PRODUCER {
                            let mut value = boxed(p * PER_PRODUCER + i);
                            loop {
                                match q.push(value) {
                                    Ok(()) => break,
                                    Err(back) => {
                                        value = back;
                                        std::hint::spin_loop();
                                    }
                                }
                            }
                        }
                    })
                })
                .collect();
            for h in producers {
                h.join().unwrap();
            }
            done.store(true, Ordering::Release);
            consumers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let unique: HashSet<usize> = consumed.iter().copied().collect();
        assert_eq!(
            consumed.len(),
            PRODUCERS * PER_PRODUCER,
            "duplicates or loss"
        );
        assert_eq!(unique.len(), PRODUCERS * PER_PRODUCER);
    }
}

/// Deterministic model-checker tests; compiled only under
/// `RUSTFLAGS="--cfg chordal_model"`, where the atomics above resolve to the
/// chordal-checker facade. Values are tagged integers disguised as pointers
/// (never dereferenced), so failing schedules leak nothing.
#[cfg(all(test, chordal_model))]
mod model_tests {
    use super::*;
    use chordal_checker::{model, run, thread, Config};
    use std::sync::Arc;

    fn tag(v: usize) -> *mut () {
        (v + 1) as *mut ()
    }

    fn untag(p: *mut ()) -> usize {
        assert!(!p.is_null(), "observed an unpublished (null) slot value");
        p as usize - 1
    }

    /// Asserts that every value surfaced exactly once across `got`.
    fn assert_exactly_once(mut got: Vec<usize>, expect: usize) {
        got.sort_unstable();
        let n = got.len();
        got.dedup();
        assert_eq!(got.len(), n, "a value surfaced twice: {got:?}");
        assert_eq!(n, expect, "values lost: {got:?}");
    }

    /// The injector publish edge: a consumer that acquires the published
    /// sequence must see the value store, never the initial null.
    fn injector_publish_race() {
        let q = Arc::new(Injector::new(2));
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || {
            if let Some(p) = q2.pop() {
                assert_eq!(untag(p), 7, "consumer saw the published value");
            }
        });
        q.push(tag(7)).unwrap();
        h.join().unwrap();
        // Whatever the race outcome, the value is still exactly-once.
        if let Some(p) = q.pop() {
            assert_eq!(untag(p), 7);
        }
    }

    /// Under the `injector_publish` mutant the checker must observe the
    /// stale (null) slot value; on the real Release publish it must pass.
    #[test]
    fn injector_publish_is_release() {
        let cfg = Config::dfs(2);
        let outcome = run(cfg, injector_publish_race);
        if cfg!(chordal_mutate = "injector_publish") {
            let f = outcome
                .failure
                .expect("Relaxed publish must yield a failing schedule");
            assert!(
                f.message.contains("unpublished") || f.message.contains("published value"),
                "{}",
                f.message
            );
            let again = run(cfg, injector_publish_race);
            assert_eq!(
                f.execution,
                again.failure.expect("rerun must fail too").execution,
                "deterministic reproduction"
            );
        } else if let Some(f) = outcome.failure {
            panic!("Release publish must pass exhaustively:\n{}", f.report());
        }
    }

    /// Two producers race for slots while the consumer drains: MPMC
    /// accounting stays exact and the full/empty laps stay consistent.
    #[test]
    fn injector_mpmc_accounting() {
        fn mpmc_round_trip() {
            let q = Arc::new(Injector::new(2));
            let mut producers = Vec::new();
            for v in 0..2 {
                let q = Arc::clone(&q);
                producers.push(thread::spawn(move || q.push(tag(v)).is_ok()));
            }
            let mut got = Vec::new();
            if let Some(p) = q.pop() {
                got.push(untag(p));
            }
            for h in producers {
                assert!(h.join().unwrap(), "capacity 2 never rejects 2 pushes");
            }
            while let Some(p) = q.pop() {
                got.push(untag(p));
            }
            assert_exactly_once(got, 2);
        }
        let outcome = run(Config::default(), mpmc_round_trip);
        if cfg!(chordal_mutate = "injector_publish") {
            // The weakened publish store also breaks MPMC accounting; the
            // checker must surface it here too, not just in the targeted
            // `injector_publish_is_release` test.
            assert!(
                outcome.failure.is_some(),
                "weakened injector publish must fail MPMC accounting"
            );
        } else if let Some(f) = outcome.failure {
            panic!("correct orderings must pass exhaustively:\n{}", f.report());
        }
    }

    /// Sequence laps: a slot is reusable after pop releases it, and a
    /// full queue rejects the producer without corrupting the ring.
    #[test]
    fn injector_lap_reuse() {
        model(|| {
            let q = Injector::new(2);
            q.push(tag(0)).unwrap();
            q.push(tag(1)).unwrap();
            assert_eq!(untag(q.push(tag(9)).unwrap_err()), 9, "full rejects");
            assert_eq!(untag(q.pop().unwrap()), 0, "FIFO");
            q.push(tag(2)).unwrap();
            assert_eq!(untag(q.pop().unwrap()), 1);
            assert_eq!(untag(q.pop().unwrap()), 2);
            assert!(q.pop().is_none());
        });
    }
}
