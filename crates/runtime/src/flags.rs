//! A fixed-size array of atomic flags with test-and-set semantics.
//!
//! Algorithm 1 must insert each vertex into the next-iteration queue at most
//! once ("if x ∉ Q2 then Q2 ← Q2 ∪ {x}", lines 21–22). The parallel
//! implementation realises the membership test with one atomic flag per
//! vertex; `test_and_set` returns whether the caller is the first to claim
//! the vertex this iteration.
//!
//! The flags double as the next iteration's frontier: [`AtomicFlags::drain`]
//! reads the set flags back in ascending order and clears them, so the
//! queue needs neither a collect pass nor a sort.
//!
//! [`AtomicFlags::test_and_set_mut`] is the owner form of `test_and_set`
//! for a sweep that runs on one thread: a plain load, an OR and a store
//! through `AtomicU64::get_mut` instead of a `fetch_or`. It takes `&mut
//! self`, and that borrow is what makes it sound: while it lasts no other
//! reference to the flags exists, so no setter can race it, and whatever
//! handed the flags to this thread already made every earlier set visible.
//! The same borrow keeps the two forms from ever running on the same flags
//! at once.

use std::sync::atomic::{AtomicU64, Ordering};

/// A dense array of atomic booleans packed 64 per word.
#[derive(Debug)]
pub struct AtomicFlags {
    words: Vec<AtomicU64>,
    len: usize,
}

impl AtomicFlags {
    /// Creates `len` flags, all clear.
    pub fn new(len: usize) -> Self {
        let words = (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        Self { words, len }
    }

    /// Number of flags.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Heap bytes backing the flag words.
    pub fn allocated_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<AtomicU64>()
    }

    /// Whether the array holds zero flags.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Atomically sets flag `idx`, returning `true` when the flag was
    /// previously clear (i.e. the caller won the race).
    #[inline]
    pub fn test_and_set(&self, idx: usize) -> bool {
        debug_assert!(idx < self.len);
        let mask = 1u64 << (idx % 64);
        let prev = self.words[idx / 64].fetch_or(mask, Ordering::AcqRel);
        prev & mask == 0
    }

    /// Owner form of [`AtomicFlags::test_and_set`]: a plain load, OR and
    /// store of the flag's word.
    #[inline]
    pub fn test_and_set_mut(&mut self, idx: usize) -> bool {
        debug_assert!(idx < self.len);
        let mask = 1u64 << (idx % 64);
        let word = self.words[idx / 64].get_mut();
        let prev = *word;
        *word |= mask;
        prev & mask == 0
    }

    /// Reads flag `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> bool {
        debug_assert!(idx < self.len);
        let mask = 1u64 << (idx % 64);
        self.words[idx / 64].load(Ordering::Acquire) & mask != 0
    }

    /// Clears flag `idx`.
    #[inline]
    pub fn clear(&self, idx: usize) {
        debug_assert!(idx < self.len);
        let mask = !(1u64 << (idx % 64));
        self.words[idx / 64].fetch_and(mask, Ordering::AcqRel);
    }

    /// Clears every flag. Not atomic as a whole; callers must ensure no
    /// concurrent setters (the algorithm clears between iterations, outside
    /// the parallel region).
    pub fn clear_all(&self) {
        for w in &self.words {
            w.store(0, Ordering::Release);
        }
    }

    /// Clears the set flags while yielding their indices in ascending
    /// order; flags the iterator has not reached stay set. Like
    /// [`AtomicFlags::clear_all`] it must not run concurrently with setters.
    /// Relaxed accesses suffice: the caller orders every earlier
    /// [`AtomicFlags::test_and_set`] before the drain, and the drain before
    /// every later one, by joining the parallel region that set them and
    /// starting the next region after the drain.
    pub fn drain(&self) -> Drain<'_> {
        Drain {
            words: self.words.iter().enumerate(),
            base: 0,
            bits: 0,
        }
    }

    /// Number of set flags (linear scan; diagnostic use only).
    pub fn count_set(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Acquire).count_ones() as usize)
            .sum()
    }
}

/// Iterator returned by [`AtomicFlags::drain`].
pub struct Drain<'a> {
    words: std::iter::Enumerate<std::slice::Iter<'a, AtomicU64>>,
    /// Index of the first flag of the word `bits` came from.
    base: usize,
    /// Set flags of the current word not yet yielded.
    bits: u64,
}

impl Iterator for Drain<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            let (i, word) = self.words.next()?;
            self.bits = word.load(Ordering::Relaxed);
            if self.bits != 0 {
                word.store(0, Ordering::Relaxed);
            }
            self.base = i * 64;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn test_and_set_reports_first_setter() {
        let flags = AtomicFlags::new(100);
        assert!(flags.test_and_set(5));
        assert!(!flags.test_and_set(5));
        assert!(flags.get(5));
        assert!(!flags.get(6));
    }

    #[test]
    fn owner_form_agrees_with_the_atomic_one() {
        let mut flags = AtomicFlags::new(130);
        assert!(flags.test_and_set_mut(64));
        assert!(!flags.test_and_set_mut(64));
        assert!(!flags.test_and_set(64), "both forms see one bit");
        assert!(flags.test_and_set(129));
        assert!(!flags.test_and_set_mut(129));
        assert!(flags.test_and_set_mut(0));
        assert_eq!(flags.drain().collect::<Vec<_>>(), vec![0, 64, 129]);
    }

    #[test]
    fn clear_and_clear_all() {
        let flags = AtomicFlags::new(130);
        flags.test_and_set(0);
        flags.test_and_set(64);
        flags.test_and_set(129);
        assert_eq!(flags.count_set(), 3);
        flags.clear(64);
        assert!(!flags.get(64));
        assert_eq!(flags.count_set(), 2);
        flags.clear_all();
        assert_eq!(flags.count_set(), 0);
    }

    #[test]
    fn drain_yields_set_flags_in_ascending_order_and_clears_them() {
        let flags = AtomicFlags::new(200);
        for i in [130, 3, 64, 199, 63, 0] {
            flags.test_and_set(i);
        }
        assert_eq!(
            flags.drain().collect::<Vec<_>>(),
            vec![0, 3, 63, 64, 130, 199]
        );
        assert_eq!(flags.count_set(), 0);
        assert_eq!(flags.drain().count(), 0);
        assert!(flags.test_and_set(64), "drained flags can be set again");
        flags.test_and_set(150);
        assert_eq!(flags.drain().next(), Some(64));
        assert!(!flags.get(64));
        assert!(flags.get(150), "flags the drain did not reach stay set");
    }

    #[test]
    fn len_and_empty() {
        assert_eq!(AtomicFlags::new(0).len(), 0);
        assert!(AtomicFlags::new(0).is_empty());
        assert_eq!(AtomicFlags::new(65).len(), 65);
        assert!(!AtomicFlags::new(65).is_empty());
    }

    #[test]
    fn concurrent_test_and_set_admits_exactly_one_winner_per_flag() {
        let flags = AtomicFlags::new(1000);
        let winners = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..1000 {
                        if flags.test_and_set(i) {
                            winners.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(winners.load(Ordering::Relaxed), 1000);
        assert_eq!(flags.count_set(), 1000);
    }

    #[test]
    fn boundary_indices_across_words() {
        let flags = AtomicFlags::new(128);
        assert!(flags.test_and_set(63));
        assert!(flags.test_and_set(64));
        assert!(flags.test_and_set(127));
        assert!(flags.get(63));
        assert!(flags.get(64));
        assert!(flags.get(127));
        assert!(!flags.get(62));
        assert!(!flags.get(65));
    }
}
