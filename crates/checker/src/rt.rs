//! Deterministic interleaving explorer (the model-checking runtime).
//!
//! Executions run on real OS threads, but only one thread is ever allowed
//! to make progress at a time: every visible operation (atomic access,
//! fence, mutex/condvar op, park, spawn, join, clock read) is a *schedule
//! point* where the running thread consults the controller for the next
//! decision and hands the baton to the chosen thread. A decision is either
//! "which thread performs the next operation" or "which store does this
//! load observe". The sequence of decisions (the *trail*) fully determines
//! an execution, so replaying a trail replays the interleaving bit-for-bit.
//!
//! Exploration modes:
//! - **DFS** (default): exhaustive depth-first search over the decision
//!   tree with a bounded number of preemptions (switching away from a
//!   thread that could still run). Bounded preemption keeps the tree
//!   finite and small while still covering the racy schedules that matter
//!   in practice.
//! - **Random walk**: `iterations` executions, each driven by a SplitMix64
//!   stream derived from `(seed, execution_index)` — deterministically
//!   reproducible from the seed.
//!
//! Memory model (documented in `docs/concurrency.md`): per-location total
//! modification order, per-thread vector clocks, release clocks on stores,
//! per-thread coherence floors, and a global SC clock that serializes
//! `SeqCst` operations and fences in execution order. Every behavior the
//! model produces is allowed by the C11 model (it is *stronger* than C11
//! in mixed-ordering corner cases), so an algorithm correct under C11 can
//! never produce a false positive here, while weakened orderings expose
//! real stale-read behaviors — enough to catch the seeded mutants.

use crate::clock::VClock;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard, Once};

// ---------------------------------------------------------------------------
// Public configuration and result types
// ---------------------------------------------------------------------------

/// Exploration strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Exhaustive bounded-preemption depth-first search.
    Dfs,
    /// Seeded random walk: `iterations` executions driven by SplitMix64.
    Random { seed: u64, iterations: usize },
}

/// Model-checker configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Maximum number of preemptive context switches per execution (DFS).
    pub preemption_bound: usize,
    /// Per-execution step cap; exceeding it reports a livelock.
    pub max_steps: usize,
    /// Hard cap on explored executions (runaway-DFS backstop).
    pub max_executions: usize,
    /// Exploration mode.
    pub mode: Mode,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            preemption_bound: 3,
            max_steps: 8192,
            max_executions: 2_000_000,
            mode: Mode::Dfs,
        }
    }
}

impl Config {
    /// Exhaustive DFS with the given preemption bound.
    pub fn dfs(preemption_bound: usize) -> Self {
        Config {
            preemption_bound,
            ..Config::default()
        }
    }

    /// Seeded random walk.
    pub fn random(seed: u64, iterations: usize) -> Self {
        Config {
            mode: Mode::Random { seed, iterations },
            ..Config::default()
        }
    }
}

/// A failing interleaving, with everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// 1-based index of the failing execution.
    pub execution: usize,
    /// The panic/deadlock/livelock message.
    pub message: String,
    /// Human-readable schedule: one line per executed operation.
    pub schedule: String,
    /// Compact decision trail (`s<i>` = schedule choice, `v<i>` = value
    /// choice); replaying these decisions replays the interleaving.
    pub trail: String,
}

impl Failure {
    /// Full report: message, schedule, and reproduction line.
    pub fn report(&self) -> String {
        format!(
            "model checking failed on execution {}: {}\n--- failing schedule ---\n{}--- trail: {} ---\n",
            self.execution, self.message, self.schedule, self.trail
        )
    }
}

/// Result of an exploration run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Number of executions explored.
    pub executions: usize,
    /// First failure found, if any.
    pub failure: Option<Failure>,
    /// True if exploration stopped at `max_executions` without finishing.
    pub capped: bool,
}

// ---------------------------------------------------------------------------
// Decision trail
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct Choice {
    /// Number of alternatives at this decision point.
    n: usize,
    /// Alternative taken in the current execution.
    taken: usize,
    /// True for thread-schedule decisions, false for value choices.
    sched: bool,
}

struct Controller {
    mode: Mode,
    trail: Vec<Choice>,
    pos: usize,
    rng: u64,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Controller {
    fn choose(&mut self, n: usize, sched: bool) -> usize {
        debug_assert!(n >= 1);
        if n == 1 {
            return 0;
        }
        let taken = match self.mode {
            Mode::Dfs => {
                if self.pos < self.trail.len() {
                    let c = self.trail[self.pos];
                    debug_assert_eq!(c.n, n, "nondeterministic replay: choice arity changed");
                    c.taken
                } else {
                    self.trail.push(Choice { n, taken: 0, sched });
                    0
                }
            }
            Mode::Random { .. } => {
                let taken = (splitmix(&mut self.rng) % n as u64) as usize;
                self.trail.push(Choice { n, taken, sched });
                taken
            }
        };
        self.pos += 1;
        taken
    }

    /// Advance to the next unexplored DFS branch. Returns false when the
    /// whole tree has been explored.
    fn backtrack(&mut self) -> bool {
        while let Some(c) = self.trail.last_mut() {
            if c.taken + 1 < c.n {
                c.taken += 1;
                return true;
            }
            self.trail.pop();
        }
        false
    }

    fn render_trail(&self) -> String {
        let mut s = String::new();
        for c in &self.trail {
            let _ = write!(s, "{}{} ", if c.sched { 's' } else { 'v' }, c.taken);
        }
        if s.is_empty() {
            s.push_str("(empty)");
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

/// One store in a location's modification order.
struct StoreEvent {
    value: u64,
    /// (thread, tick) identity of the store for visibility checks.
    stamp: (usize, u32),
    /// Clock published to acquire-readers of this store.
    release: VClock,
}

struct LocState {
    history: Vec<StoreEvent>,
}

struct MutexState {
    owner: Option<usize>,
    waiters: VecDeque<usize>,
    clock: VClock,
}

struct CondvarState {
    waiters: VecDeque<usize>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum BlockKind {
    Park {
        deadline: Option<u64>,
    },
    CondWait {
        cv: usize,
        mx: usize,
        deadline: Option<u64>,
    },
    MutexWait {
        mx: usize,
    },
    Join {
        target: usize,
    },
}

impl BlockKind {
    fn describe(&self) -> String {
        match self {
            BlockKind::Park { deadline: None } => "park (untimed)".into(),
            BlockKind::Park { deadline: Some(d) } => format!("park_timeout (deadline {d}ns)"),
            BlockKind::CondWait { deadline: None, .. } => {
                "Condvar::wait (untimed — lost wakeup?)".into()
            }
            BlockKind::CondWait {
                deadline: Some(d), ..
            } => {
                format!("Condvar::wait_timeout (deadline {d}ns)")
            }
            BlockKind::MutexWait { mx } => format!("Mutex::lock (mutex {mx})"),
            BlockKind::Join { target } => format!("join (thread {target})"),
        }
    }

    fn deadline(&self) -> Option<u64> {
        match self {
            BlockKind::Park { deadline } | BlockKind::CondWait { deadline, .. } => *deadline,
            _ => None,
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Status {
    Runnable,
    Blocked(BlockKind),
    Finished,
}

struct ThreadState {
    status: Status,
    clock: VClock,
    /// Per-location coherence floor: index of the newest store in that
    /// location's modification order this thread has already observed.
    seen: Vec<usize>,
    /// Per-location count of stale (non-newest) reads this execution; once
    /// [`STALE_READ_BUDGET`] is spent the thread reads the newest store.
    /// Bounds the branching of unsynchronized retry loops (a thread
    /// spinning on a Relaxed load would otherwise re-read the stale value
    /// forever, turning every such loop into a spurious livelock report).
    stale_reads: Vec<u8>,
    park_token: bool,
    park_clock: VClock,
    /// Set when the thread was released by a timeout firing.
    timed_out: bool,
}

impl ThreadState {
    fn new(clock: VClock) -> Self {
        ThreadState {
            status: Status::Runnable,
            clock,
            seen: Vec::new(),
            stale_reads: Vec::new(),
            park_token: false,
            park_clock: VClock::new(),
            timed_out: false,
        }
    }
}

struct LogEntry {
    tid: usize,
    desc: String,
}

struct ExecInner {
    cfg: Config,
    ctrl: Controller,
    threads: Vec<ThreadState>,
    current: usize,
    steps: usize,
    preemptions: usize,
    locs: Vec<LocState>,
    mutexes: Vec<MutexState>,
    condvars: Vec<CondvarState>,
    /// Global SC clock: serializes SeqCst operations in execution order.
    sc: VClock,
    /// Virtual monotonic clock (ns); advances only when timeouts fire.
    now_ns: u64,
    abort: bool,
    done: bool,
    failure: Option<Failure>,
    log: Vec<LogEntry>,
}

pub(crate) struct Exec {
    m: StdMutex<ExecInner>,
    cv: StdCondvar,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Exec>, usize)>> = const { RefCell::new(None) };
}

fn ctx() -> (Arc<Exec>, usize) {
    CTX.with(|c| {
        c.borrow()
            .clone()
            .expect("chordal-checker sync primitive used outside checker::model")
    })
}

/// Sentinel panic payload used to unwind threads of an aborted execution.
struct AbortSignal;

fn panic_abort() -> ! {
    panic::panic_any(AbortSignal)
}

fn install_hook_once() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            // Silence panics on model-managed threads (they are captured and
            // re-reported with their schedule); leave everything else alone.
            let managed = CTX.with(|c| c.borrow().is_some());
            if !managed {
                prev(info);
            }
        }));
    });
}

fn is_acquire(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

impl Exec {
    fn new(cfg: Config, ctrl: Controller) -> Self {
        Exec {
            m: StdMutex::new(ExecInner {
                cfg,
                ctrl,
                threads: vec![ThreadState::new({
                    let mut c = VClock::new();
                    c.tick(0);
                    c
                })],
                current: 0,
                steps: 0,
                preemptions: 0,
                locs: Vec::new(),
                mutexes: Vec::new(),
                condvars: Vec::new(),
                sc: VClock::new(),
                now_ns: 0,
                abort: false,
                done: false,
                failure: None,
                log: Vec::new(),
            }),
            cv: StdCondvar::new(),
        }
    }

    // -- failure plumbing ---------------------------------------------------

    /// Record a failure (first one wins), abort the execution, and wake
    /// every thread so it can unwind. Does not panic; callers decide.
    fn fail_record(&self, g: &mut ExecInner, message: String) {
        if g.failure.is_none() {
            let mut schedule = String::new();
            for (i, e) in g.log.iter().enumerate() {
                let _ = writeln!(schedule, "  step {:>4}  t{}  {}", i, e.tid, e.desc);
            }
            g.failure = Some(Failure {
                execution: 0, // filled in by the runner
                message,
                schedule,
                trail: g.ctrl.render_trail(),
            });
        }
        g.abort = true;
        g.done = true;
        for t in &mut g.threads {
            if matches!(t.status, Status::Blocked(_)) {
                t.status = Status::Runnable;
            }
        }
        self.cv.notify_all();
    }

    // -- scheduling core ----------------------------------------------------

    /// Pick the next thread to run among `Runnable` threads, honoring the
    /// preemption bound, and hand the baton over. Returns with the lock
    /// held once `me` is granted again.
    fn reschedule<'a>(
        self: &Arc<Self>,
        mut g: MutexGuard<'a, ExecInner>,
        me: usize,
    ) -> MutexGuard<'a, ExecInner> {
        let enabled: Vec<usize> = g
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t.status, Status::Runnable))
            .map(|(i, _)| i)
            .collect();
        if enabled.is_empty() {
            g = self.handle_stuck(g);
            if g.abort {
                drop(g);
                panic_abort();
            }
            return self.wait_granted(g, me);
        }
        let me_enabled = enabled.contains(&me);
        let choices: Vec<usize> =
            if me_enabled && g.preemptions >= g.cfg.preemption_bound && enabled.len() > 1 {
                vec![me]
            } else {
                enabled
            };
        let idx = g.ctrl.choose(choices.len(), true);
        let next = choices[idx];
        if me_enabled && next != me {
            g.preemptions += 1;
        }
        g.current = next;
        if next == me {
            return g;
        }
        self.cv.notify_all();
        self.wait_granted(g, me)
    }

    fn wait_granted<'a>(
        self: &Arc<Self>,
        mut g: MutexGuard<'a, ExecInner>,
        me: usize,
    ) -> MutexGuard<'a, ExecInner> {
        loop {
            if g.abort {
                drop(g);
                panic_abort();
            }
            if g.current == me && matches!(g.threads[me].status, Status::Runnable) {
                return g;
            }
            g = self.cv.wait(g).unwrap();
        }
    }

    /// Entry point for every visible operation: counts the step, checks the
    /// abort/livelock caps, then lets the controller decide who runs next.
    /// Returns with the lock held and `me` granted; the caller then
    /// performs its operation atomically.
    fn op_point<'a>(
        self: &Arc<Self>,
        mut g: MutexGuard<'a, ExecInner>,
        me: usize,
    ) -> MutexGuard<'a, ExecInner> {
        if g.abort {
            drop(g);
            panic_abort();
        }
        g.steps += 1;
        if g.steps > g.cfg.max_steps {
            let cap = g.cfg.max_steps;
            self.fail_record(
                &mut g,
                format!("livelock: execution exceeded {cap} steps without completing"),
            );
            drop(g);
            panic_abort();
        }
        self.reschedule(g, me)
    }

    /// Block the calling thread with `kind`, schedule someone else, and
    /// return once this thread is runnable and granted again.
    fn block<'a>(
        self: &Arc<Self>,
        mut g: MutexGuard<'a, ExecInner>,
        me: usize,
        kind: BlockKind,
    ) -> MutexGuard<'a, ExecInner> {
        g.threads[me].status = Status::Blocked(kind);
        g = self.dispatch_after_yield(g);
        if g.abort {
            drop(g);
            panic_abort();
        }
        self.wait_granted(g, me)
    }

    /// The calling thread can no longer run (blocked or finished): pick the
    /// next runnable thread, or fire timeouts / report deadlock.
    fn dispatch_after_yield<'a>(
        self: &Arc<Self>,
        mut g: MutexGuard<'a, ExecInner>,
    ) -> MutexGuard<'a, ExecInner> {
        let enabled: Vec<usize> = g
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t.status, Status::Runnable))
            .map(|(i, _)| i)
            .collect();
        if enabled.is_empty() {
            return self.handle_stuck(g);
        }
        let idx = g.ctrl.choose(enabled.len(), true);
        g.current = enabled[idx];
        self.cv.notify_all();
        g
    }

    /// No thread is runnable. Fire the earliest pending timeout(s) if any
    /// exist, otherwise report a deadlock (or clean completion if every
    /// thread finished).
    fn handle_stuck<'a>(
        self: &Arc<Self>,
        mut g: MutexGuard<'a, ExecInner>,
    ) -> MutexGuard<'a, ExecInner> {
        loop {
            if g.threads.iter().all(|t| t.status == Status::Finished) {
                g.done = true;
                self.cv.notify_all();
                return g;
            }
            if g.threads
                .iter()
                .any(|t| matches!(t.status, Status::Runnable))
            {
                // A timeout firing made someone runnable: schedule them.
                return self.dispatch_after_yield(g);
            }
            let next_deadline = g
                .threads
                .iter()
                .filter_map(|t| match &t.status {
                    Status::Blocked(k) => k.deadline(),
                    _ => None,
                })
                .min();
            match next_deadline {
                None => {
                    let mut msg =
                        String::from("deadlock: no runnable threads and no pending timeouts\n");
                    for (i, t) in g.threads.iter().enumerate() {
                        if let Status::Blocked(k) = &t.status {
                            let _ = writeln!(msg, "  t{} blocked on {}", i, k.describe());
                        }
                    }
                    self.fail_record(&mut g, msg);
                    return g;
                }
                Some(d) => {
                    g.now_ns = g.now_ns.max(d);
                    let fire: Vec<usize> = g
                        .threads
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| match &t.status {
                            Status::Blocked(k) => k.deadline().is_some_and(|dl| dl <= d),
                            _ => false,
                        })
                        .map(|(i, _)| i)
                        .collect();
                    for tid in fire {
                        let kind = match &g.threads[tid].status {
                            Status::Blocked(k) => k.clone(),
                            _ => unreachable!(),
                        };
                        match kind {
                            BlockKind::Park { .. } => {
                                g.threads[tid].status = Status::Runnable;
                                g.threads[tid].timed_out = true;
                            }
                            BlockKind::CondWait { cv, mx, .. } => {
                                g.condvars[cv].waiters.retain(|&w| w != tid);
                                g.threads[tid].timed_out = true;
                                self.requeue_on_mutex(&mut g, tid, mx);
                            }
                            _ => unreachable!(),
                        }
                    }
                }
            }
        }
    }

    /// A thread leaving a condvar wait (notified or timed out) must hold
    /// the mutex again before resuming: hand it over if free, else queue.
    fn requeue_on_mutex(&self, g: &mut ExecInner, tid: usize, mx: usize) {
        if g.mutexes[mx].owner.is_none() {
            g.mutexes[mx].owner = Some(tid);
            let mc = g.mutexes[mx].clock.clone();
            g.threads[tid].clock.join(&mc);
            g.threads[tid].status = Status::Runnable;
        } else {
            g.mutexes[mx].waiters.push_back(tid);
            g.threads[tid].status = Status::Blocked(BlockKind::MutexWait { mx });
        }
    }

    fn log(&self, g: &mut ExecInner, tid: usize, desc: String) {
        g.log.push(LogEntry { tid, desc });
    }

    // -- thread lifecycle ---------------------------------------------------

    fn thread_finish(
        self: &Arc<Self>,
        tid: usize,
        panic_payload: Option<Box<dyn std::any::Any + Send>>,
    ) {
        let mut g = self.m.lock().unwrap();
        if let Some(p) = panic_payload {
            if p.is::<AbortSignal>() {
                g.threads[tid].status = Status::Finished;
                self.cv.notify_all();
                return;
            }
            let msg = if let Some(s) = p.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = p.downcast_ref::<String>() {
                s.clone()
            } else {
                "panic with non-string payload".to_string()
            };
            self.log(&mut g, tid, format!("panic: {msg}"));
            g.threads[tid].status = Status::Finished;
            self.fail_record(&mut g, format!("thread t{tid} panicked: {msg}"));
            return;
        }
        if g.abort {
            g.threads[tid].status = Status::Finished;
            self.cv.notify_all();
            return;
        }
        g.threads[tid].clock.tick(tid);
        g.threads[tid].status = Status::Finished;
        self.log(&mut g, tid, "thread finished".to_string());
        // Wake joiners.
        let child_clock = g.threads[tid].clock.clone();
        for i in 0..g.threads.len() {
            if g.threads[i].status == Status::Blocked(BlockKind::Join { target: tid }) {
                g.threads[i].clock.join(&child_clock);
                g.threads[i].status = Status::Runnable;
            }
        }
        drop(self.dispatch_after_yield(g));
    }
}

// ---------------------------------------------------------------------------
// Operations called by the sync/thread/time facades
// ---------------------------------------------------------------------------

pub(crate) fn atomic_new(init: u64) -> usize {
    let (exec, tid) = ctx();
    let mut g = exec.m.lock().unwrap();
    if g.abort {
        drop(g);
        panic_abort();
    }
    // Creation is not a schedule point: the object is not shared yet, and
    // whatever later publishes it (Arc, spawn closure capture) synchronizes.
    let tick = g.threads[tid].clock.tick(tid);
    let release = g.threads[tid].clock.clone();
    g.locs.push(LocState {
        history: vec![StoreEvent {
            value: init,
            stamp: (tid, tick),
            release,
        }],
    });
    g.locs.len() - 1
}

/// How many stale (non-newest) values a thread may read from one location
/// per execution before its loads snap to the newest store. Three covers
/// every single- and double-stale-read bug pattern the suite targets while
/// keeping unsynchronized retry loops finite.
const STALE_READ_BUDGET: u8 = 3;

/// Candidate range for a load: stores at or after both the thread's
/// coherence floor and the newest store that happens-before the load.
fn visible_floor(g: &ExecInner, tid: usize, loc: usize) -> usize {
    let t = &g.threads[tid];
    let mut lb = t.seen.get(loc).copied().unwrap_or(0);
    for (i, s) in g.locs[loc].history.iter().enumerate() {
        if i > lb && t.clock.sees(s.stamp.0, s.stamp.1) {
            lb = i;
        }
    }
    lb
}

fn note_seen(g: &mut ExecInner, tid: usize, loc: usize, idx: usize) {
    let seen = &mut g.threads[tid].seen;
    if seen.len() <= loc {
        seen.resize(loc + 1, 0);
    }
    if idx > seen[loc] {
        seen[loc] = idx;
    }
}

pub(crate) fn atomic_load(loc: usize, ord: Ordering, what: &str) -> u64 {
    let (exec, tid) = ctx();
    let mut g = exec.m.lock().unwrap();
    if g.abort {
        // Teardown fast path: no scheduling, just return the latest value.
        return g.locs[loc].history.last().unwrap().value;
    }
    g = exec.op_point(g, tid);
    if ord == Ordering::SeqCst {
        let sc = g.sc.clone();
        g.threads[tid].clock.join(&sc);
    }
    let lb = visible_floor(&g, tid, loc);
    let newest = g.locs[loc].history.len() - 1;
    let spent = g.threads[tid].stale_reads.get(loc).copied().unwrap_or(0);
    let idx = if spent >= STALE_READ_BUDGET {
        // Budget exhausted: stop branching on stale values so that
        // unsynchronized retry loops converge instead of spinning.
        newest
    } else {
        let n = newest + 1 - lb;
        lb + g.ctrl.choose(n, false)
    };
    if idx < newest {
        let sr = &mut g.threads[tid].stale_reads;
        if sr.len() <= loc {
            sr.resize(loc + 1, 0);
        }
        sr[loc] += 1;
    }
    let value = g.locs[loc].history[idx].value;
    if is_acquire(ord) {
        let rel = g.locs[loc].history[idx].release.clone();
        g.threads[tid].clock.join(&rel);
    }
    if ord == Ordering::SeqCst {
        let tc = g.threads[tid].clock.clone();
        g.sc.join(&tc);
    }
    note_seen(&mut g, tid, loc, idx);
    let stale = g.locs[loc].history.len() - 1 - idx;
    exec.log(
        &mut g,
        tid,
        format!(
            "load  {what} [loc{loc}] ({ord:?}) -> {value}{}",
            if stale > 0 {
                format!(" (stale: {stale} newer store(s) unread)")
            } else {
                String::new()
            }
        ),
    );
    value
}

/// Reads `loc` through an exclusive borrow (the facade's `get_mut`). Not a
/// schedule point: while the borrow lasts no other thread can reach the
/// location, so there is nothing to interleave, and whatever handed the
/// borrow over (a spawn, a join, a mutex) already made the newest store
/// visible.
pub(crate) fn atomic_read_exclusive(loc: usize) -> u64 {
    let (exec, tid) = ctx();
    let mut g = exec.m.lock().unwrap();
    let newest = g.locs[loc].history.len() - 1;
    note_seen(&mut g, tid, loc, newest);
    g.locs[loc].history[newest].value
}

/// Writes `loc` through an exclusive borrow; like [`atomic_read_exclusive`]
/// not a schedule point. The store publishes no release clock: another
/// thread sees it only through the synchronisation that hands the location
/// over.
pub(crate) fn atomic_write_exclusive(loc: usize, value: u64) {
    let (exec, tid) = ctx();
    let mut g = exec.m.lock().unwrap();
    let tick = if g.abort {
        u32::MAX
    } else {
        g.threads[tid].clock.tick(tid)
    };
    g.locs[loc].history.push(StoreEvent {
        value,
        stamp: (tid, tick),
        release: VClock::new(),
    });
    let idx = g.locs[loc].history.len() - 1;
    note_seen(&mut g, tid, loc, idx);
}

pub(crate) fn atomic_store(loc: usize, value: u64, ord: Ordering, what: &str) {
    let (exec, tid) = ctx();
    let mut g = exec.m.lock().unwrap();
    if g.abort {
        g.locs[loc].history.push(StoreEvent {
            value,
            stamp: (tid, u32::MAX),
            release: VClock::new(),
        });
        return;
    }
    g = exec.op_point(g, tid);
    if ord == Ordering::SeqCst {
        let sc = g.sc.clone();
        g.threads[tid].clock.join(&sc);
    }
    let tick = g.threads[tid].clock.tick(tid);
    let release = if is_release(ord) {
        g.threads[tid].clock.clone()
    } else {
        VClock::new()
    };
    if ord == Ordering::SeqCst {
        let tc = g.threads[tid].clock.clone();
        g.sc.join(&tc);
    }
    g.locs[loc].history.push(StoreEvent {
        value,
        stamp: (tid, tick),
        release,
    });
    let idx = g.locs[loc].history.len() - 1;
    note_seen(&mut g, tid, loc, idx);
    exec.log(
        &mut g,
        tid,
        format!("store {what} [loc{loc}] ({ord:?}) <- {value}"),
    );
}

/// Read-modify-write: reads the newest store (atomicity), applies `f`, and
/// appends the result. Returns the previous value.
pub(crate) fn atomic_rmw(loc: usize, ord: Ordering, what: &str, f: impl FnOnce(u64) -> u64) -> u64 {
    let (exec, tid) = ctx();
    let mut g = exec.m.lock().unwrap();
    if g.abort {
        let old = g.locs[loc].history.last().unwrap().value;
        let new = f(old);
        g.locs[loc].history.push(StoreEvent {
            value: new,
            stamp: (tid, u32::MAX),
            release: VClock::new(),
        });
        return old;
    }
    g = exec.op_point(g, tid);
    if ord == Ordering::SeqCst {
        let sc = g.sc.clone();
        g.threads[tid].clock.join(&sc);
    }
    let idx = g.locs[loc].history.len() - 1;
    let old = g.locs[loc].history[idx].value;
    let read_release = g.locs[loc].history[idx].release.clone();
    if is_acquire(ord) {
        g.threads[tid].clock.join(&read_release);
    }
    let tick = g.threads[tid].clock.tick(tid);
    let mut release = if is_release(ord) {
        g.threads[tid].clock.clone()
    } else {
        VClock::new()
    };
    // Release-sequence carry: an acquire reader of this RMW also
    // synchronizes with the store the RMW read from.
    release.join(&read_release);
    if ord == Ordering::SeqCst {
        let tc = g.threads[tid].clock.clone();
        g.sc.join(&tc);
    }
    let new = f(old);
    g.locs[loc].history.push(StoreEvent {
        value: new,
        stamp: (tid, tick),
        release,
    });
    let new_idx = g.locs[loc].history.len() - 1;
    note_seen(&mut g, tid, loc, new_idx);
    exec.log(
        &mut g,
        tid,
        format!("rmw   {what} [loc{loc}] ({ord:?}) {old} -> {new}"),
    );
    old
}

pub(crate) fn atomic_cas(
    loc: usize,
    expected: u64,
    new: u64,
    success: Ordering,
    failure: Ordering,
    what: &str,
) -> Result<u64, u64> {
    let (exec, tid) = ctx();
    let mut g = exec.m.lock().unwrap();
    if g.abort {
        let cur = g.locs[loc].history.last().unwrap().value;
        if cur == expected {
            g.locs[loc].history.push(StoreEvent {
                value: new,
                stamp: (tid, u32::MAX),
                release: VClock::new(),
            });
            return Ok(cur);
        }
        return Err(cur);
    }
    g = exec.op_point(g, tid);
    let ord = if g.locs[loc].history.last().unwrap().value == expected {
        success
    } else {
        failure
    };
    if ord == Ordering::SeqCst {
        let sc = g.sc.clone();
        g.threads[tid].clock.join(&sc);
    }
    let idx = g.locs[loc].history.len() - 1;
    let cur = g.locs[loc].history[idx].value;
    let read_release = g.locs[loc].history[idx].release.clone();
    if is_acquire(ord) {
        g.threads[tid].clock.join(&read_release);
    }
    let res = if cur == expected {
        let tick = g.threads[tid].clock.tick(tid);
        let mut release = if is_release(success) {
            g.threads[tid].clock.clone()
        } else {
            VClock::new()
        };
        release.join(&read_release);
        g.locs[loc].history.push(StoreEvent {
            value: new,
            stamp: (tid, tick),
            release,
        });
        Ok(cur)
    } else {
        Err(cur)
    };
    if ord == Ordering::SeqCst {
        let tc = g.threads[tid].clock.clone();
        g.sc.join(&tc);
    }
    let new_idx = g.locs[loc].history.len() - 1;
    note_seen(&mut g, tid, loc, new_idx);
    exec.log(
        &mut g,
        tid,
        format!(
            "cas   {what} [loc{loc}] ({success:?}/{failure:?}) {expected}=>{new}: {}",
            if res.is_ok() { "ok" } else { "failed" }
        ),
    );
    res
}

pub(crate) fn fence(ord: Ordering) {
    let (exec, tid) = ctx();
    let mut g = exec.m.lock().unwrap();
    if g.abort {
        return;
    }
    g = exec.op_point(g, tid);
    // All fences in the codebase are SeqCst; model weaker fences as SeqCst
    // too (strictly stronger, so no false positives are introduced).
    let sc = g.sc.clone();
    g.threads[tid].clock.join(&sc);
    g.threads[tid].clock.tick(tid);
    let tc = g.threads[tid].clock.clone();
    g.sc.join(&tc);
    exec.log(&mut g, tid, format!("fence ({ord:?})"));
}

// -- mutex / condvar --------------------------------------------------------

pub(crate) fn mutex_new() -> usize {
    let (exec, _) = ctx();
    let mut g = exec.m.lock().unwrap();
    g.mutexes.push(MutexState {
        owner: None,
        waiters: VecDeque::new(),
        clock: VClock::new(),
    });
    g.mutexes.len() - 1
}

pub(crate) fn mutex_lock(mx: usize) {
    let (exec, tid) = ctx();
    let mut g = exec.m.lock().unwrap();
    if g.abort {
        return;
    }
    g = exec.op_point(g, tid);
    if g.mutexes[mx].owner.is_none() {
        g.mutexes[mx].owner = Some(tid);
        let mc = g.mutexes[mx].clock.clone();
        g.threads[tid].clock.join(&mc);
        exec.log(&mut g, tid, format!("lock  mutex{mx}"));
    } else {
        exec.log(
            &mut g,
            tid,
            format!("lock  mutex{mx} (contended; blocking)"),
        );
        g.mutexes[mx].waiters.push_back(tid);
        g = exec.block(g, tid, BlockKind::MutexWait { mx });
        // Ownership was handed to us by the unlocker (clock already joined).
        debug_assert_eq!(g.mutexes[mx].owner, Some(tid));
    }
}

pub(crate) fn mutex_unlock(mx: usize) {
    let (exec, tid) = ctx();
    let mut g = exec.m.lock().unwrap();
    if g.abort {
        return;
    }
    g = exec.op_point(g, tid);
    debug_assert_eq!(g.mutexes[mx].owner, Some(tid));
    g.threads[tid].clock.tick(tid);
    let tc = g.threads[tid].clock.clone();
    g.mutexes[mx].clock.join(&tc);
    // Direct handoff to the first FIFO waiter (reduces redundant wakeups;
    // the interleavings that matter are still explored via scheduling).
    if let Some(next) = g.mutexes[mx].waiters.pop_front() {
        g.mutexes[mx].owner = Some(next);
        let mc = g.mutexes[mx].clock.clone();
        g.threads[next].clock.join(&mc);
        g.threads[next].status = Status::Runnable;
    } else {
        g.mutexes[mx].owner = None;
    }
    exec.log(&mut g, tid, format!("unlock mutex{mx}"));
}

pub(crate) fn condvar_new() -> usize {
    let (exec, _) = ctx();
    let mut g = exec.m.lock().unwrap();
    g.condvars.push(CondvarState {
        waiters: VecDeque::new(),
    });
    g.condvars.len() - 1
}

/// Atomically release `mx` and wait on `cv`; re-acquires `mx` before
/// returning. Returns true if the wait timed out.
pub(crate) fn condvar_wait(cv: usize, mx: usize, timeout_ns: Option<u64>) -> bool {
    let (exec, tid) = ctx();
    let mut g = exec.m.lock().unwrap();
    if g.abort {
        return false;
    }
    g = exec.op_point(g, tid);
    debug_assert_eq!(g.mutexes[mx].owner, Some(tid));
    // Release the mutex exactly like unlock does.
    g.threads[tid].clock.tick(tid);
    let tc = g.threads[tid].clock.clone();
    g.mutexes[mx].clock.join(&tc);
    if let Some(next) = g.mutexes[mx].waiters.pop_front() {
        g.mutexes[mx].owner = Some(next);
        let mc = g.mutexes[mx].clock.clone();
        g.threads[next].clock.join(&mc);
        g.threads[next].status = Status::Runnable;
    } else {
        g.mutexes[mx].owner = None;
    }
    let deadline = timeout_ns.map(|t| g.now_ns.saturating_add(t));
    g.condvars[cv].waiters.push_back(tid);
    g.threads[tid].timed_out = false;
    exec.log(
        &mut g,
        tid,
        format!(
            "wait  condvar{cv} (mutex{mx}{})",
            match timeout_ns {
                Some(t) => format!(", timeout {t}ns"),
                None => String::new(),
            }
        ),
    );
    g = exec.block(g, tid, BlockKind::CondWait { cv, mx, deadline });
    // We only resume once we own the mutex again (notify/timeout paths
    // route through requeue_on_mutex / unlock handoff).
    debug_assert_eq!(g.mutexes[mx].owner, Some(tid));
    let timed_out = g.threads[tid].timed_out;
    g.threads[tid].timed_out = false;
    timed_out
}

pub(crate) fn condvar_notify(cv: usize, all: bool) {
    let (exec, tid) = ctx();
    let mut g = exec.m.lock().unwrap();
    if g.abort {
        return;
    }
    g = exec.op_point(g, tid);
    let count = if all { g.condvars[cv].waiters.len() } else { 1 };
    let mut woken = 0usize;
    for _ in 0..count {
        let Some(w) = g.condvars[cv].waiters.pop_front() else {
            break;
        };
        let mx = match &g.threads[w].status {
            Status::Blocked(BlockKind::CondWait { mx, .. }) => *mx,
            other => unreachable!("condvar waiter t{w} in unexpected state {other:?}"),
        };
        exec.requeue_on_mutex(&mut g, w, mx);
        woken += 1;
    }
    exec.log(
        &mut g,
        tid,
        format!(
            "{} condvar{cv} (woke {woken})",
            if all { "notify_all" } else { "notify_one" }
        ),
    );
}

// -- park / unpark ----------------------------------------------------------

pub(crate) fn park(timeout_ns: Option<u64>) {
    let (exec, tid) = ctx();
    let mut g = exec.m.lock().unwrap();
    if g.abort {
        return;
    }
    g = exec.op_point(g, tid);
    if g.threads[tid].park_token {
        g.threads[tid].park_token = false;
        let pc = g.threads[tid].park_clock.clone();
        g.threads[tid].clock.join(&pc);
        exec.log(&mut g, tid, "park (token available; no block)".to_string());
        return;
    }
    let deadline = timeout_ns.map(|t| g.now_ns.saturating_add(t));
    exec.log(
        &mut g,
        tid,
        format!(
            "park{}",
            match timeout_ns {
                Some(t) => format!("_timeout ({t}ns)"),
                None => String::new(),
            }
        ),
    );
    let mut g = exec.block(g, tid, BlockKind::Park { deadline });
    g.threads[tid].timed_out = false;
    let pc = g.threads[tid].park_clock.clone();
    g.threads[tid].clock.join(&pc);
}

pub(crate) fn unpark(target: usize) {
    let (exec, tid) = ctx();
    let mut g = exec.m.lock().unwrap();
    if g.abort {
        return;
    }
    g = exec.op_point(g, tid);
    g.threads[tid].clock.tick(tid);
    let tc = g.threads[tid].clock.clone();
    g.threads[target].park_clock.join(&tc);
    if matches!(
        g.threads[target].status,
        Status::Blocked(BlockKind::Park { .. })
    ) {
        g.threads[target].status = Status::Runnable;
    } else {
        g.threads[target].park_token = true;
    }
    exec.log(&mut g, tid, format!("unpark t{target}"));
}

pub(crate) fn yield_now() {
    let (exec, tid) = ctx();
    let g = exec.m.lock().unwrap();
    if g.abort {
        return;
    }
    let mut g = exec.op_point(g, tid);
    exec.log(&mut g, tid, "yield_now".to_string());
}

pub(crate) fn now_ns() -> u64 {
    let (exec, tid) = ctx();
    let g = exec.m.lock().unwrap();
    if g.abort {
        return g.now_ns;
    }
    let mut g = exec.op_point(g, tid);
    let now = g.now_ns;
    exec.log(&mut g, tid, format!("Instant::now -> {now}ns"));
    now
}

// -- spawn / join -----------------------------------------------------------

pub(crate) fn current_tid() -> usize {
    ctx().1
}

pub(crate) fn spawn(f: Box<dyn FnOnce() + Send>) -> usize {
    let (exec, tid) = ctx();
    let mut g = exec.m.lock().unwrap();
    if g.abort {
        drop(g);
        panic_abort();
    }
    g = exec.op_point(g, tid);
    g.threads[tid].clock.tick(tid);
    let mut child_clock = g.threads[tid].clock.clone();
    let child = g.threads.len();
    child_clock.tick(child);
    g.threads.push(ThreadState::new(child_clock));
    exec.log(&mut g, tid, format!("spawn t{child}"));
    drop(g);
    let exec2 = Arc::clone(&exec);
    std::thread::Builder::new()
        .name(format!("chordal-model-t{child}"))
        .spawn(move || {
            CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec2), child)));
            {
                // Wait to be granted before running any user code.
                let mut g = exec2.m.lock().unwrap();
                loop {
                    if g.abort {
                        g.threads[child].status = Status::Finished;
                        exec2.cv.notify_all();
                        CTX.with(|c| *c.borrow_mut() = None);
                        return;
                    }
                    if g.current == child && matches!(g.threads[child].status, Status::Runnable) {
                        break;
                    }
                    g = exec2.cv.wait(g).unwrap();
                }
            }
            let r = panic::catch_unwind(AssertUnwindSafe(f));
            exec2.thread_finish(child, r.err());
            CTX.with(|c| *c.borrow_mut() = None);
        })
        .expect("failed to spawn model thread");
    child
}

pub(crate) fn join(target: usize) {
    let (exec, tid) = ctx();
    let mut g = exec.m.lock().unwrap();
    if g.abort {
        drop(g);
        panic_abort();
    }
    g = exec.op_point(g, tid);
    if g.threads[target].status != Status::Finished {
        exec.log(&mut g, tid, format!("join  t{target} (blocking)"));
        g = exec.block(g, tid, BlockKind::Join { target });
        // thread_finish joined the child clock into ours before waking us.
        let _ = &g;
    } else {
        let child_clock = g.threads[target].clock.clone();
        g.threads[tid].clock.join(&child_clock);
        exec.log(&mut g, tid, format!("join  t{target}"));
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Explore all interleavings of `f` under `cfg`; returns the outcome
/// instead of panicking. Used directly by mutation tests that *expect* a
/// failing schedule.
pub fn run<F>(cfg: Config, f: F) -> Outcome
where
    F: Fn() + Send + Sync + 'static,
{
    install_hook_once();
    let f = Arc::new(f);
    let mut trail: Vec<Choice> = Vec::new();
    let mut executions = 0usize;
    loop {
        executions += 1;
        let (seed_rng, is_random, iterations) = match cfg.mode {
            Mode::Dfs => (0, false, 0),
            Mode::Random { seed, iterations } => {
                let mut s = seed ^ (executions as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
                let r = splitmix(&mut s);
                (r, true, iterations)
            }
        };
        let ctrl = Controller {
            mode: cfg.mode,
            trail: if is_random {
                Vec::new()
            } else {
                std::mem::take(&mut trail)
            },
            pos: 0,
            rng: seed_rng,
        };
        let exec = Arc::new(Exec::new(cfg, ctrl));
        let exec2 = Arc::clone(&exec);
        let f2 = Arc::clone(&f);
        let h = std::thread::Builder::new()
            .name("chordal-model-t0".to_string())
            .spawn(move || {
                CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec2), 0)));
                let r = panic::catch_unwind(AssertUnwindSafe(|| f2()));
                exec2.thread_finish(0, r.err());
                CTX.with(|c| *c.borrow_mut() = None);
            })
            .expect("failed to spawn model main thread");
        let (failure, final_trail) = {
            let mut g = exec.m.lock().unwrap();
            while !g.done && g.failure.is_none() {
                g = exec.cv.wait(g).unwrap();
            }
            (g.failure.take(), std::mem::take(&mut g.ctrl.trail))
        };
        let _ = h.join();
        if let Some(mut fl) = failure {
            fl.execution = executions;
            return Outcome {
                executions,
                failure: Some(fl),
                capped: false,
            };
        }
        if is_random {
            if executions >= iterations {
                return Outcome {
                    executions,
                    failure: None,
                    capped: false,
                };
            }
        } else {
            let mut ctrl = Controller {
                mode: Mode::Dfs,
                trail: final_trail,
                pos: 0,
                rng: 0,
            };
            if !ctrl.backtrack() {
                return Outcome {
                    executions,
                    failure: None,
                    capped: false,
                };
            }
            trail = ctrl.trail;
        }
        if executions >= cfg.max_executions {
            return Outcome {
                executions,
                failure: None,
                capped: true,
            };
        }
    }
}

/// Explore all interleavings of `f` with the default config; panics with
/// the failing schedule if any interleaving fails.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    model_with(Config::default(), f)
}

/// Explore all interleavings of `f` under `cfg`; panics with the failing
/// schedule if any interleaving fails.
pub fn model_with<F>(cfg: Config, f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let outcome = run(cfg, f);
    if let Some(failure) = outcome.failure {
        panic!("{}", failure.report());
    }
    assert!(
        !outcome.capped,
        "model exploration hit the max_executions cap ({}) without finishing",
        outcome.executions
    );
}
