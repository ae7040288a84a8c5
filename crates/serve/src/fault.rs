//! Deterministic fault injection for chaos testing the serving tier.
//!
//! Compiled only under `cfg(any(test, feature = "fault-injection"))` — the
//! same spirit as the `HOLD` test hook, but gated at compile time so the
//! CI chaos smoke can drive the *real* `chordal serve` binary (built with
//! `--features fault-injection`) while production builds contain none of
//! this machinery.
//!
//! The injector is a schedule of [`Directive`]s armed through the `FAULT`
//! verb. Each server I/O site asks [`FaultInjector::fire`] whether a fault
//! of its kind is due:
//!
//! * **count mode** (`FAULT kind=read count=2`): the next N matching
//!   operations fail — exact, ordering-deterministic chaos for scripted
//!   scenarios.
//! * **seeded mode** (`FAULT kind=write seed=7 prob=250`): each matching
//!   operation draws from a SplitMix64 stream seeded by the schedule and
//!   fails when `draw % 1000 < prob` — probabilistic chaos that replays
//!   identically for the same seed, so a failing soak run can be
//!   reproduced bit-for-bit.
//!
//! Fired faults are counted per kind and surfaced in `STATS` under
//! `"faults"`, so tests assert that chaos actually happened rather than
//! passing vacuously. Cache-entry corruption is a sixth injectable fault
//! but lives in [`GraphCache::arm_corruption`](crate::cache::GraphCache::arm_corruption)
//! — it must act at the admission site, inside the cache's own lock.

use crate::protocol::splitmix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Drop a freshly accepted connection before it is serviced.
    Accept,
    /// Fail a socket read (the connection closes, the server survives).
    Read,
    /// Fail a response write (the connection closes, the server survives).
    Write,
    /// Delay a socket read by the directive's `ms` — a slow client.
    SlowRead,
    /// Panic inside the request handler after admission — proves the
    /// permit is released by unwinding and the queue is not poisoned.
    Panic,
}

impl FaultKind {
    /// Parses the wire spelling used by the `FAULT` verb.
    pub fn parse(name: &str) -> Option<FaultKind> {
        match name {
            "accept" => Some(FaultKind::Accept),
            "read" => Some(FaultKind::Read),
            "write" => Some(FaultKind::Write),
            "slow-read" => Some(FaultKind::SlowRead),
            "panic" => Some(FaultKind::Panic),
            _ => None,
        }
    }
}

/// One armed fault schedule.
struct Directive {
    kind: FaultKind,
    /// Remaining fires in count mode; unused in seeded mode.
    count: u64,
    /// Sleep duration for [`FaultKind::SlowRead`] fires.
    ms: u64,
    /// Seeded mode: the SplitMix64 state and the per-mille fire
    /// probability.
    seeded: Option<(u64, u64)>,
}

/// Monotonic count of fired faults per kind (the `STATS` `"faults"`
/// object).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Accepted connections dropped.
    pub accept: u64,
    /// Reads failed.
    pub read: u64,
    /// Writes failed.
    pub write: u64,
    /// Reads delayed.
    pub slow_read: u64,
    /// Handlers panicked.
    pub panic: u64,
}

crate::impl_to_json!(FaultCounts {
    accept,
    read,
    write,
    slow_read,
    panic
});

/// The armed fault schedule plus fired-fault counters.
pub struct FaultInjector {
    directives: Mutex<Vec<Directive>>,
    accept: AtomicU64,
    read: AtomicU64,
    write: AtomicU64,
    slow_read: AtomicU64,
    panic: AtomicU64,
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector {
            directives: Mutex::new(Vec::new()),
            accept: AtomicU64::new(0),
            read: AtomicU64::new(0),
            write: AtomicU64::new(0),
            slow_read: AtomicU64::new(0),
            panic: AtomicU64::new(0),
        }
    }
}

impl FaultInjector {
    /// Arms a count-mode directive: the next `count` operations of `kind`
    /// fire (with `ms` as the slow-read delay).
    pub fn arm(&self, kind: FaultKind, count: u64, ms: u64) {
        self.directives
            .lock()
            .expect("fault schedule")
            .push(Directive {
                kind,
                count,
                ms,
                seeded: None,
            });
    }

    /// Arms a seeded directive: each operation of `kind` fires with
    /// probability `prob_per_mille`/1000, drawn from a SplitMix64 stream
    /// seeded by `seed` — reproducible probabilistic chaos.
    pub fn arm_seeded(&self, kind: FaultKind, seed: u64, prob_per_mille: u64, ms: u64) {
        self.directives
            .lock()
            .expect("fault schedule")
            .push(Directive {
                kind,
                count: 0,
                ms,
                seeded: Some((seed, prob_per_mille.min(1000))),
            });
    }

    /// Disarms every directive (counters are monotonic and keep their
    /// values).
    pub fn clear(&self) {
        self.directives.lock().expect("fault schedule").clear();
    }

    /// Number of directives currently armed.
    pub fn armed(&self) -> usize {
        self.directives.lock().expect("fault schedule").len()
    }

    /// Asks whether a fault of `kind` is due at this operation. `Some(ms)`
    /// means fire (`ms` is the delay for slow reads, 0 otherwise); the
    /// fired counter for `kind` is bumped.
    pub fn fire(&self, kind: FaultKind) -> Option<u64> {
        let mut directives = self.directives.lock().expect("fault schedule");
        let mut fired = None;
        for d in directives.iter_mut() {
            if d.kind != kind {
                continue;
            }
            match &mut d.seeded {
                Some((state, prob)) => {
                    if splitmix64(state) % 1000 < *prob {
                        fired = Some(d.ms);
                        break;
                    }
                }
                None => {
                    if d.count > 0 {
                        d.count -= 1;
                        fired = Some(d.ms);
                        break;
                    }
                }
            }
        }
        directives.retain(|d| d.seeded.is_some() || d.count > 0);
        drop(directives);
        if fired.is_some() {
            self.counter(kind).fetch_add(1, Ordering::SeqCst);
        }
        fired
    }

    fn counter(&self, kind: FaultKind) -> &AtomicU64 {
        match kind {
            FaultKind::Accept => &self.accept,
            FaultKind::Read => &self.read,
            FaultKind::Write => &self.write,
            FaultKind::SlowRead => &self.slow_read,
            FaultKind::Panic => &self.panic,
        }
    }

    /// A snapshot of the fired-fault counters.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            accept: self.accept.load(Ordering::SeqCst),
            read: self.read.load(Ordering::SeqCst),
            write: self.write.load(Ordering::SeqCst),
            slow_read: self.slow_read.load(Ordering::SeqCst),
            panic: self.panic.load(Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_mode_fires_exactly_n_times_then_disarms() {
        let injector = FaultInjector::default();
        injector.arm(FaultKind::Read, 2, 0);
        assert_eq!(injector.fire(FaultKind::Write), None, "kinds are scoped");
        assert!(injector.fire(FaultKind::Read).is_some());
        assert!(injector.fire(FaultKind::Read).is_some());
        assert_eq!(injector.fire(FaultKind::Read), None, "budget exhausted");
        assert_eq!(injector.armed(), 0, "spent directives are dropped");
        let counts = injector.counts();
        assert_eq!((counts.read, counts.write), (2, 0));
    }

    #[test]
    fn slow_read_carries_its_delay() {
        let injector = FaultInjector::default();
        injector.arm(FaultKind::SlowRead, 1, 250);
        assert_eq!(injector.fire(FaultKind::SlowRead), Some(250));
        assert_eq!(injector.counts().slow_read, 1);
    }

    #[test]
    fn seeded_schedules_replay_identically() {
        let run = |seed: u64| -> Vec<bool> {
            let injector = FaultInjector::default();
            injector.arm_seeded(FaultKind::Write, seed, 300, 0);
            (0..64)
                .map(|_| injector.fire(FaultKind::Write).is_some())
                .collect()
        };
        let a = run(1234);
        assert_eq!(a, run(1234), "same seed, same schedule");
        assert_ne!(a, run(1235), "different seed, different schedule");
        let fired = a.iter().filter(|&&f| f).count();
        // 300/1000 over 64 draws: loose sanity bounds, not a statistics
        // test — determinism above is the real assertion.
        assert!(fired > 5 && fired < 40, "fired {fired}/64");
    }

    #[test]
    fn clear_disarms_but_keeps_counters() {
        let injector = FaultInjector::default();
        injector.arm(FaultKind::Panic, 5, 0);
        assert!(injector.fire(FaultKind::Panic).is_some());
        injector.clear();
        assert_eq!(injector.fire(FaultKind::Panic), None);
        assert_eq!(injector.counts().panic, 1);
    }
}
