//! Model-aware drop-in replacements for `std::sync` primitives.
//!
//! Code under test swaps its imports to this module under
//! `cfg(chordal_model)`; every operation becomes a schedule point of the
//! deterministic explorer behind [`crate::model`]. The API mirrors the
//! subset of `std` the workspace actually uses.

use crate::rt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

pub use std::sync::atomic::Ordering;

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// A SeqCst (or weaker, per the `Ordering` argument) memory fence.
pub fn fence(ord: Ordering) {
    rt::fence(ord);
}

/// The value behind an exclusive borrow of a facade atomic, returned by
/// `get_mut` where `std` returns `&mut` to the integer. It reads the
/// location once when created and writes it back on drop if it changed;
/// neither access is a schedule point.
pub struct ExclusiveMut<'a, T: Copy + PartialEq> {
    loc: usize,
    read: T,
    value: T,
    encode: fn(T) -> u64,
    _borrow: PhantomData<&'a mut T>,
}

impl<T: Copy + PartialEq> Deref for ExclusiveMut<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T: Copy + PartialEq> DerefMut for ExclusiveMut<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T: Copy + PartialEq> Drop for ExclusiveMut<'_, T> {
    fn drop(&mut self) {
        if self.value != self.read {
            rt::atomic_write_exclusive(self.loc, (self.encode)(self.value));
        }
    }
}

macro_rules! int_atomic {
    ($name:ident, $ty:ty, $label:literal, $to:expr, $from:expr) => {
        pub struct $name {
            loc: usize,
        }

        impl $name {
            #[allow(clippy::new_without_default)]
            pub fn new(v: $ty) -> Self {
                #[allow(clippy::redundant_closure_call)]
                $name {
                    loc: rt::atomic_new(($to)(v)),
                }
            }

            /// Plain access through an exclusive borrow, like `std`'s
            /// `get_mut`. Not a schedule point: an exclusive borrow has no
            /// interleavings.
            #[allow(clippy::redundant_closure_call)]
            pub fn get_mut(&mut self) -> ExclusiveMut<'_, $ty> {
                let read = ($from)(rt::atomic_read_exclusive(self.loc));
                ExclusiveMut {
                    loc: self.loc,
                    read,
                    value: read,
                    encode: $to,
                    _borrow: PhantomData,
                }
            }

            #[allow(clippy::redundant_closure_call)]
            pub fn load(&self, ord: Ordering) -> $ty {
                ($from)(rt::atomic_load(self.loc, ord, $label))
            }

            #[allow(clippy::redundant_closure_call)]
            pub fn store(&self, v: $ty, ord: Ordering) {
                rt::atomic_store(self.loc, ($to)(v), ord, $label)
            }

            #[allow(clippy::redundant_closure_call)]
            pub fn swap(&self, v: $ty, ord: Ordering) -> $ty {
                ($from)(rt::atomic_rmw(self.loc, ord, $label, |_| ($to)(v)))
            }

            #[allow(clippy::redundant_closure_call)]
            pub fn compare_exchange(
                &self,
                current: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                rt::atomic_cas(
                    self.loc,
                    ($to)(current),
                    ($to)(new),
                    success,
                    failure,
                    $label,
                )
                .map($from)
                .map_err($from)
            }

            /// The model never fails spuriously, so `_weak` is `_strong`.
            pub fn compare_exchange_weak(
                &self,
                current: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                self.compare_exchange(current, new, success, failure)
            }

            #[allow(clippy::redundant_closure_call)]
            pub fn fetch_add(&self, v: $ty, ord: Ordering) -> $ty {
                ($from)(rt::atomic_rmw(self.loc, ord, $label, |old| {
                    ($to)(($from)(old).wrapping_add(v))
                }))
            }

            #[allow(clippy::redundant_closure_call)]
            pub fn fetch_sub(&self, v: $ty, ord: Ordering) -> $ty {
                ($from)(rt::atomic_rmw(self.loc, ord, $label, |old| {
                    ($to)(($from)(old).wrapping_sub(v))
                }))
            }
        }
    };
}

int_atomic!(
    AtomicUsize,
    usize,
    "usize",
    |v: usize| v as u64,
    |v: u64| v as usize
);
int_atomic!(
    AtomicIsize,
    isize,
    "isize",
    |v: isize| v as i64 as u64,
    |v: u64| v as i64 as isize
);
int_atomic!(AtomicU32, u32, "u32", |v: u32| v as u64, |v: u64| v as u32);
int_atomic!(AtomicU64, u64, "u64", |v: u64| v, |v: u64| v);

pub struct AtomicBool {
    loc: usize,
}

impl AtomicBool {
    pub fn new(v: bool) -> Self {
        AtomicBool {
            loc: rt::atomic_new(v as u64),
        }
    }

    pub fn load(&self, ord: Ordering) -> bool {
        rt::atomic_load(self.loc, ord, "bool") != 0
    }

    pub fn store(&self, v: bool, ord: Ordering) {
        rt::atomic_store(self.loc, v as u64, ord, "bool")
    }

    pub fn swap(&self, v: bool, ord: Ordering) -> bool {
        rt::atomic_rmw(self.loc, ord, "bool", |_| v as u64) != 0
    }

    pub fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        rt::atomic_cas(
            self.loc,
            current as u64,
            new as u64,
            success,
            failure,
            "bool",
        )
        .map(|v| v != 0)
        .map_err(|v| v != 0)
    }
}

// ---------------------------------------------------------------------------
// Mutex / Condvar
// ---------------------------------------------------------------------------

/// Poison placeholder so `lock().unwrap()` compiles like `std`; the model
/// mutex never poisons (a panicking execution aborts as a model failure).
pub struct PoisonError<T> {
    _guard: PhantomData<T>,
}

// Manual impl: `std`'s `PoisonError<T>` is `Debug` for every `T`, and
// `lock().expect(..)` on a mutex of a non-Debug type relies on that.
impl<T> std::fmt::Debug for PoisonError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PoisonError { .. }")
    }
}

pub type LockResult<T> = Result<T, PoisonError<T>>;

/// Model-scheduled mutex. A real `std::sync::Mutex` still guards the data
/// so that aborted (failing) executions tear down without data races; in
/// healthy executions the model scheduler serializes access and the inner
/// lock is always uncontended.
pub struct Mutex<T> {
    id: usize,
    inner: std::sync::Mutex<T>,
}

pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").field("id", &self.id).finish()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex {
            id: rt::mutex_new(),
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        rt::mutex_lock(self.id);
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        Ok(MutexGuard {
            lock: self,
            inner: Some(inner),
        })
    }

    pub fn into_inner(self) -> LockResult<T> {
        Ok(self.inner.into_inner().unwrap_or_else(|e| e.into_inner()))
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed during wait")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard accessed during wait")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            rt::mutex_unlock(self.lock.id);
        }
    }
}

#[derive(Debug)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Model-scheduled condition variable with FIFO wakeups, virtual-clock
/// timeouts, and lost-wakeup detection (an untimed wait that can never be
/// notified is reported as a deadlock with the failing schedule).
pub struct Condvar {
    id: usize,
}

impl Condvar {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Condvar {
            id: rt::condvar_new(),
        }
    }

    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let lock = guard.lock;
        // Release the real lock; the model-level release + re-acquire is
        // done inside condvar_wait, so skip the guard's Drop.
        guard.inner.take();
        std::mem::forget(guard);
        let _ = rt::condvar_wait(self.id, lock.id, None);
        let inner = lock.inner.lock().unwrap_or_else(|e| e.into_inner());
        Ok(MutexGuard {
            lock,
            inner: Some(inner),
        })
    }

    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        timeout: std::time::Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        let lock = guard.lock;
        guard.inner.take();
        std::mem::forget(guard);
        let ns = u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX);
        let timed_out = rt::condvar_wait(self.id, lock.id, Some(ns));
        let inner = lock.inner.lock().unwrap_or_else(|e| e.into_inner());
        Ok((
            MutexGuard {
                lock,
                inner: Some(inner),
            },
            WaitTimeoutResult { timed_out },
        ))
    }

    pub fn notify_one(&self) {
        rt::condvar_notify(self.id, false);
    }

    pub fn notify_all(&self) {
        rt::condvar_notify(self.id, true);
    }
}
