//! Sanity suite for the model checker itself: known-racy programs must
//! produce failing schedules, known-correct ones must pass exhaustively,
//! and failures must be deterministically reproducible.

use chordal_checker::sync::{fence, AtomicUsize, Condvar, Mutex, Ordering};
use chordal_checker::{model, model_with, run, thread, time, Config};
use std::sync::Arc;

/// Lost-update race: two unsynchronized load+store increments can both
/// read 0; the explorer must find the interleaving where the final value
/// is 1.
#[test]
fn catches_lost_update() {
    let outcome = run(Config::default(), || {
        let c = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || {
            let v = c2.load(Ordering::SeqCst);
            c2.store(v + 1, Ordering::SeqCst);
        });
        let v = c.load(Ordering::SeqCst);
        c.store(v + 1, Ordering::SeqCst);
        h.join().unwrap();
        assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
    });
    let failure = outcome
        .failure
        .expect("explorer must catch the lost update");
    assert!(
        failure.message.contains("lost update"),
        "{}",
        failure.message
    );
    assert!(
        failure.schedule.contains("load"),
        "schedule should list ops"
    );
}

/// The same program with an atomic RMW is correct and must pass.
#[test]
fn passes_atomic_increment() {
    model(|| {
        let c = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || {
            c2.fetch_add(1, Ordering::SeqCst);
        });
        c.fetch_add(1, Ordering::SeqCst);
        h.join().unwrap();
        assert_eq!(c.load(Ordering::SeqCst), 2);
    });
}

/// Message passing with Relaxed publication: the reader may see the flag
/// but stale data. The explorer must find the stale-read interleaving.
#[test]
fn catches_relaxed_publication() {
    let outcome = run(Config::default(), || {
        let data = Arc::new(AtomicUsize::new(0));
        let flag = Arc::new(AtomicUsize::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let h = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Relaxed); // BUG: should be Release
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(data.load(Ordering::Relaxed), 42, "stale data");
        }
        h.join().unwrap();
    });
    let failure = outcome
        .failure
        .expect("explorer must catch the relaxed publication race");
    assert!(
        failure.message.contains("stale data"),
        "{}",
        failure.message
    );
}

/// Release/Acquire message passing is correct and must pass exhaustively.
#[test]
fn passes_release_acquire_publication() {
    model(|| {
        let data = Arc::new(AtomicUsize::new(0));
        let flag = Arc::new(AtomicUsize::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let h = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(data.load(Ordering::Relaxed), 42);
        }
        h.join().unwrap();
    });
}

/// Store buffering: with only Relaxed accesses both threads can read the
/// other's flag as 0 (each reads the initial store).
#[test]
fn catches_store_buffering_without_fences() {
    let outcome = run(Config::default(), || {
        let x = Arc::new(AtomicUsize::new(0));
        let y = Arc::new(AtomicUsize::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let h = thread::spawn(move || {
            x2.store(1, Ordering::Relaxed);
            y2.load(Ordering::Relaxed)
        });
        y.store(1, Ordering::Relaxed);
        let ry = x.load(Ordering::Relaxed);
        let rx = h.join().unwrap();
        assert!(rx != 0 || ry != 0, "store buffering: both read 0");
    });
    let failure = outcome.failure.expect("must catch store-buffering outcome");
    assert!(
        failure.message.contains("both read 0"),
        "{}",
        failure.message
    );
}

/// The same program with SeqCst fences between store and load is the
/// classic Dekker publication pattern and must pass.
#[test]
fn passes_store_buffering_with_seqcst_fences() {
    model(|| {
        let x = Arc::new(AtomicUsize::new(0));
        let y = Arc::new(AtomicUsize::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let h = thread::spawn(move || {
            x2.store(1, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            y2.load(Ordering::Relaxed)
        });
        y.store(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let ry = x.load(Ordering::Relaxed);
        let rx = h.join().unwrap();
        assert!(rx != 0 || ry != 0, "store buffering: both read 0");
    });
}

/// ABBA lock ordering deadlock: must be reported with both held locks.
#[test]
fn catches_abba_deadlock() {
    let outcome = run(Config::default(), || {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let h = thread::spawn(move || {
            let _ga = a2.lock().unwrap();
            let _gb = b2.lock().unwrap();
        });
        let _gb = b.lock().unwrap();
        let _ga = a.lock().unwrap();
        drop((_ga, _gb));
        h.join().unwrap();
    });
    let failure = outcome.failure.expect("must catch ABBA deadlock");
    assert!(failure.message.contains("deadlock"), "{}", failure.message);
}

/// Lost wakeup: a notify that races ahead of the wait leaves the waiter
/// blocked forever; reported as a deadlock naming the condvar wait.
#[test]
fn catches_lost_wakeup() {
    let outcome = run(Config::default(), || {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = thread::spawn(move || {
            // BUG: flag set without holding the mutex until after notify;
            // the waiter can check the flag, then this notify fires, then
            // the waiter blocks forever.
            let (lock, cond) = &*pair2;
            *lock.lock().unwrap() = true;
            cond.notify_one();
        });
        let (lock, cond) = &*pair;
        let ready = { *lock.lock().unwrap() };
        if !ready {
            // BUG: the flag was checked under a *previous* lock; by the
            // time we re-lock and wait, the notify may already be gone.
            let guard = lock.lock().unwrap();
            let _g = cond.wait(guard).unwrap();
        }
        h.join().unwrap();
    });
    // Either the wait completes (notify arrived later) in some schedules,
    // but at least one schedule must lose the wakeup.
    let failure = outcome.failure.expect("must catch the lost wakeup");
    assert!(
        failure.message.contains("lost wakeup") || failure.message.contains("deadlock"),
        "{}",
        failure.message
    );
}

/// Correct condvar protocol (re-check under the lock, wait in a loop):
/// must pass exhaustively, including the FIFO handoff paths.
#[test]
fn passes_condvar_protocol() {
    model(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = thread::spawn(move || {
            let (lock, cond) = &*pair2;
            *lock.lock().unwrap() = true;
            cond.notify_one();
        });
        let (lock, cond) = &*pair;
        let mut guard = lock.lock().unwrap();
        while !*guard {
            guard = cond.wait(guard).unwrap();
        }
        drop(guard);
        h.join().unwrap();
    });
}

/// Timed wait: with no one to notify, the virtual clock fires the timeout
/// and the waiter observes `timed_out()` — no deadlock report.
#[test]
fn timed_wait_fires_virtual_clock() {
    model(|| {
        let pair = (Mutex::new(()), Condvar::new());
        let guard = pair.0.lock().unwrap();
        let before = time::Instant::now();
        let (guard, res) = pair
            .1
            .wait_timeout(guard, time::Duration::from_millis(5))
            .unwrap();
        assert!(res.timed_out());
        assert!(time::Instant::now().duration_since(before) >= time::Duration::from_millis(5));
        drop(guard);
    });
}

/// park/unpark: the token protocol never loses a wakeup even when unpark
/// races ahead of park.
#[test]
fn passes_park_unpark_token() {
    model(|| {
        let me = thread::current();
        let h = thread::spawn(move || {
            me.unpark();
        });
        thread::park(); // token or live unpark: must never hang
        h.join().unwrap();
    });
}

/// Random-walk mode: same seed, same failing schedule (deterministic
/// reproduction); different seeds may fail on different executions.
#[test]
fn random_walk_is_deterministic() {
    let racy = || {
        let c = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || {
            let v = c2.load(Ordering::SeqCst);
            c2.store(v + 1, Ordering::SeqCst);
        });
        let v = c.load(Ordering::SeqCst);
        c.store(v + 1, Ordering::SeqCst);
        h.join().unwrap();
        assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
    };
    let a = run(Config::random(0xC0FFEE, 500), racy);
    let b = run(Config::random(0xC0FFEE, 500), racy);
    let fa = a.failure.expect("seeded walk must find the race");
    let fb = b.failure.expect("same seed must find it again");
    assert_eq!(
        fa.execution, fb.execution,
        "same seed, same failing execution"
    );
    assert_eq!(fa.schedule, fb.schedule, "same seed, same schedule");
    assert_eq!(fa.trail, fb.trail, "same seed, same trail");
}

/// DFS is exhaustive: a 3-thread interleaving-sensitive assertion that
/// only fails in one specific schedule is still found.
#[test]
fn dfs_finds_needle_schedule() {
    let outcome = run(Config::dfs(3), || {
        let x = Arc::new(AtomicUsize::new(0));
        let (x1, x2) = (Arc::clone(&x), Arc::clone(&x));
        let h1 = thread::spawn(move || x1.fetch_add(3, Ordering::SeqCst));
        let h2 = thread::spawn(move || {
            let v = x2.load(Ordering::SeqCst);
            x2.store(v * 2, Ordering::SeqCst);
            v
        });
        let a = h1.join().unwrap();
        let b = h2.join().unwrap();
        // Fails only when h2 doubled between nothing and h1's add in one
        // particular order: final==6 requires load 3, store 6.
        assert!(
            !(a == 0 && b == 3 && x.load(Ordering::SeqCst) == 6),
            "needle schedule reached"
        );
    });
    let failure = outcome.failure.expect("DFS must reach the needle schedule");
    assert!(failure.message.contains("needle"), "{}", failure.message);
}

/// Step-cap livelock detection terminates unbounded spinning with a
/// report instead of hanging the test suite.
#[test]
fn livelock_reports_step_cap() {
    let outcome = run(
        Config {
            max_steps: 200,
            ..Config::default()
        },
        || {
            let x = AtomicUsize::new(0);
            loop {
                if x.load(Ordering::SeqCst) == 1 {
                    break; // never: single thread spinning on itself
                }
            }
        },
    );
    let failure = outcome.failure.expect("must report livelock");
    assert!(failure.message.contains("livelock"), "{}", failure.message);
}

/// model_with panics with the full report (message + schedule + trail).
#[test]
fn model_panics_with_report() {
    let r = std::panic::catch_unwind(|| {
        model_with(Config::default(), || {
            let x = AtomicUsize::new(0);
            assert_eq!(x.load(Ordering::SeqCst), 1, "always fails");
        });
    });
    let err = r.expect_err("model_with must panic on failure");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("failing schedule"), "{msg}");
    assert!(msg.contains("trail"), "{msg}");
    assert!(msg.contains("always fails"), "{msg}");
}

/// `get_mut` is plain access: its writes reach the thread the atomic is
/// handed to by a spawn and come back through the join, and it adds no
/// schedule point, so the program explores exactly as many executions as
/// the same handoff without it.
#[test]
fn get_mut_is_plain_access_handed_over_by_spawn_and_join() {
    let handoff = |exclusive: bool| {
        run(Config::default(), move || {
            let mut counter = AtomicUsize::new(1);
            if exclusive {
                *counter.get_mut() += 1;
            }
            let child = thread::spawn(move || {
                let mut counter = counter;
                if exclusive {
                    *counter.get_mut() *= 10;
                }
                counter
            });
            let mut counter = child.join().unwrap();
            let expected = if exclusive { 20 } else { 1 };
            assert_eq!(*counter.get_mut(), expected);
            assert_eq!(counter.load(Ordering::Relaxed), expected);
        })
    };
    let (plain, bare) = (handoff(true), handoff(false));
    assert!(plain.failure.is_none(), "{:?}", plain.failure);
    assert!(bare.failure.is_none(), "{:?}", bare.failure);
    assert_eq!(plain.executions, bare.executions);
}
