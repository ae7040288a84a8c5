//! Pre-sized, synchronization-free result slots for parallel regions.
//!
//! The pool's regions hand out **disjoint, grain-aligned** index ranges
//! from an atomic cursor, so the chunk index `range.start / grain`
//! identifies each chunk uniquely. That makes per-chunk result collection
//! embarrassingly lock-free: pre-size one slot per chunk and let every
//! chunk write its own slot, with no mutex, no append contention and no
//! post-hoc sorting (the slots *are* in chunk order). [`ChunkSlots`] is the
//! write-once result buffer behind `drive_chunks`; [`ItemSlots`] is the
//! move-out counterpart used to feed owned work items into a region.
//!
//! Cross-thread visibility of the slot writes comes from the region join
//! (a finished region happens-before `run_region` returning); the per-slot
//! written flags exist to make double writes panic instead of corrupting
//! memory and to drop initialised values if the region unwinds.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, Ordering};

/// A fixed-size array of write-once result slots, one per chunk of a
/// parallel region.
pub struct ChunkSlots<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    written: Box<[AtomicBool]>,
}

// SAFETY: every slot is written at most once (enforced by `written`) and
// only read after the parallel region has joined, so no slot is ever
// accessed concurrently from two threads.
unsafe impl<T: Send> Sync for ChunkSlots<T> {}

impl<T> ChunkSlots<T> {
    /// Creates `len` empty slots.
    pub fn new(len: usize) -> Self {
        Self {
            slots: (0..len)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            written: (0..len).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Writes the result of chunk `index`.
    ///
    /// # Panics
    /// Panics if the slot was already written — chunk indices of one region
    /// are unique, so a double write is a scheduling bug.
    pub fn write(&self, index: usize, value: T) {
        assert!(
            !self.written[index].swap(true, Ordering::AcqRel),
            "chunk slot {index} written twice"
        );
        // SAFETY: the swap above makes this thread the unique writer of the
        // slot, and readers only run after the region joins.
        unsafe { (*self.slots[index].get()).write(value) };
    }

    /// Consumes the slots and returns the values in chunk order.
    ///
    /// # Panics
    /// Panics if any slot was never written (the region did not cover its
    /// full iteration space).
    pub fn into_vec(self) -> Vec<T> {
        let len = self.len();
        let mut out = Vec::with_capacity(len);
        for index in 0..len {
            assert!(
                // Relaxed is enough: the region join already ordered every
                // write before this consume.
                self.written[index].swap(false, Ordering::Relaxed),
                "chunk slot {index} never written"
            );
            // SAFETY: the slot was written exactly once and the flag reset
            // above keeps `Drop` from double-dropping it.
            out.push(unsafe { (*self.slots[index].get()).assume_init_read() });
        }
        out
    }
}

impl<T> Drop for ChunkSlots<T> {
    fn drop(&mut self) {
        // Drop whatever was initialised but never consumed (the unwinding
        // path of a panicked region).
        for (slot, written) in self.slots.iter().zip(self.written.iter()) {
            if written.load(Ordering::Acquire) {
                // SAFETY: the flag says the slot holds an initialised value
                // that `into_vec` did not consume.
                unsafe { (*slot.get()).assume_init_drop() };
            }
        }
    }
}

/// A fixed array of owned work items moved out of a parallel region, one
/// take per item, without synchronization.
pub struct ItemSlots<T> {
    slots: Box<[UnsafeCell<Option<T>>]>,
}

// SAFETY: `take` requires (per its contract) that each index is taken by
// exactly one thread, which the region's disjoint ranges guarantee.
unsafe impl<T: Send> Sync for ItemSlots<T> {}

impl<T> ItemSlots<T> {
    /// Wraps the items into takeable slots.
    pub fn new(items: Vec<T>) -> Self {
        Self {
            slots: items
                .into_iter()
                .map(|i| UnsafeCell::new(Some(i)))
                .collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Moves item `index` out of its slot.
    ///
    /// # Safety
    /// Each index must be taken by at most one thread (regions guarantee
    /// this by handing out disjoint ranges); concurrent takes of the *same*
    /// index are a data race.
    // SAFETY: contract is the `# Safety` section above.
    pub unsafe fn take(&self, index: usize) -> Option<T> {
        // SAFETY: the caller guarantees exclusive access to this index (the
        // region protocol hands out disjoint ranges), so the UnsafeCell
        // dereference cannot race.
        unsafe { (*self.slots[index].get()).take() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn chunk_slots_return_values_in_order() {
        let slots = ChunkSlots::new(5);
        for i in (0..5).rev() {
            slots.write(i, i * 10);
        }
        assert_eq!(slots.into_vec(), vec![0, 10, 20, 30, 40]);
    }

    #[test]
    #[should_panic(expected = "written twice")]
    fn chunk_slots_reject_double_writes() {
        let slots = ChunkSlots::new(2);
        slots.write(0, 1u32);
        slots.write(0, 2u32);
    }

    #[test]
    #[should_panic(expected = "never written")]
    fn chunk_slots_reject_missing_writes() {
        let slots: ChunkSlots<u32> = ChunkSlots::new(2);
        slots.write(1, 7);
        let _ = slots.into_vec();
    }

    #[test]
    fn chunk_slots_drop_unconsumed_values() {
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let slots = ChunkSlots::new(3);
        slots.write(0, Counted(Arc::clone(&drops)));
        slots.write(2, Counted(Arc::clone(&drops)));
        drop(slots);
        assert_eq!(drops.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn item_slots_hand_out_each_item_once() {
        let slots = ItemSlots::new(vec!["a".to_string(), "b".to_string()]);
        assert_eq!(slots.len(), 2);
        assert!(!slots.is_empty());
        // SAFETY: single-threaded test; each index taken once (the repeat
        // take checks the None path, which is the same unique accessor).
        unsafe {
            assert_eq!(slots.take(1).as_deref(), Some("b"));
            assert_eq!(slots.take(1), None);
            assert_eq!(slots.take(0).as_deref(), Some("a"));
        }
    }
}
