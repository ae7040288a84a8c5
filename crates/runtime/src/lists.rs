//! Intrusive lock-free lists with a CAS push and a take-all swap, and the
//! plain forms of both for a single owner.
//!
//! Algorithm 1 hands every vertex from one lowest parent to the next. The
//! parallel extractor keeps each vertex on an intrusive singly linked list
//! of its current lowest parent, so a parent's step visits exactly its due
//! children instead of rescanning its whole neighbourhood. The lists are
//! two `u32` arrays: [`ListHeads`] holds the first item of every list and
//! [`ListLinks`] the successor of every item. Several head arrays may
//! share one link array, as long as an item sits on at most one list at a
//! time.
//!
//! # Protocol
//!
//! * [`ListHeads::push`] writes the item's link to the observed head with a
//!   relaxed store, then publishes the item as the new head with a
//!   **release** CAS (retrying with the fresh head on failure).
//! * [`ListHeads::take`] empties a list with one **acquire** swap and
//!   returns an iterator that follows the links with relaxed loads.
//!
//! Every successful push is a release RMW on the head, and every later RMW
//! on that head (pushes and swaps) continues its release sequence. The
//! taker's acquire swap therefore synchronises with every push whose item
//! it returns, so all of their link stores — and whatever the pushers wrote
//! before pushing — are visible to the walk. The model test
//! `two_pushers_race_a_take` explores this pairing.
//!
//! Ownership: the caller that pushes an item gives it up; the caller whose
//! take returns it owns it until it pushes it again. An item must not be
//! pushed while it sits on a list. The iterator reads an item's link
//! before yielding the item, so the new owner may push it onto another
//! list immediately. A take is a single swap, so pushes can interleave
//! with it freely: the ABA problem of CAS-based pops does not arise.
//!
//! # Owner forms
//!
//! [`ListHeads::push_mut`], [`ListHeads::take_mut`] and [`TakenMut::next`]
//! do the same on lists one thread holds exclusively: a push is a load and
//! two stores, a take a load and a store, and the walk plain loads, all
//! through `AtomicU32::get_mut`. They take `&mut` to the heads and links,
//! and that borrow is what makes them sound: while it lasts no other
//! reference to the lists exists, so no other thread can push or take, and
//! whatever handed the lists to this thread (a join, a spawn) already made
//! every earlier push visible. For the same reason the two forms never mix
//! on the same lists at once: the borrow checker refuses the exclusive
//! borrow while any shared reference, and so any concurrent push or take,
//! is live. Both forms use one format, so between borrows a workspace moves
//! freely from one protocol to the other, and a list left empty by either
//! is empty for both.

// Under `cfg(chordal_model)` the atomics come from the chordal-checker
// facade: every operation but `get_mut` becomes a schedule point of the
// deterministic interleaving explorer (see crates/checker and
// docs/concurrency.md).
#[cfg(not(chordal_model))]
use std::sync::atomic::{AtomicU32, Ordering};

#[cfg(chordal_model)]
use chordal_checker::sync::{AtomicU32, Ordering};

/// Marker of an empty head and of the end of a list.
const NIL: u32 = u32::MAX;

/// The successor link of every item (indices `0..len`).
#[derive(Default)]
pub struct ListLinks {
    next: Vec<AtomicU32>,
}

impl ListLinks {
    /// Covers at least `len` items; returns whether the array had to grow.
    /// Links need no reset: a push always writes the link before it
    /// publishes the item.
    pub fn reserve(&mut self, len: usize) -> bool {
        if self.next.len() >= len {
            return false;
        }
        self.next.resize_with(len, || AtomicU32::new(NIL));
        true
    }

    /// Heap bytes backing the links.
    pub fn allocated_bytes(&self) -> usize {
        self.next.capacity() * std::mem::size_of::<AtomicU32>()
    }
}

impl std::fmt::Debug for ListLinks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ListLinks")
            .field("len", &self.next.len())
            .finish()
    }
}

/// The first item of every list (indices `0..len`), linked through a
/// [`ListLinks`].
#[derive(Default)]
pub struct ListHeads {
    heads: Vec<AtomicU32>,
}

impl ListHeads {
    /// Covers at least `len` lists and empties the first `len`; returns
    /// whether the array had to grow.
    pub fn reset(&mut self, len: usize) -> bool {
        let grew = self.heads.len() < len;
        if grew {
            self.heads.resize_with(len, || AtomicU32::new(NIL));
        }
        for head in &self.heads[..len] {
            head.store(NIL, Ordering::Relaxed);
        }
        grew
    }

    /// Heap bytes backing the heads.
    pub fn allocated_bytes(&self) -> usize {
        self.heads.capacity() * std::mem::size_of::<AtomicU32>()
    }

    /// Pushes `item` onto list `list`, giving up ownership of it.
    ///
    /// # Panics
    /// Panics if `list` or `item` is out of range.
    #[inline]
    pub fn push(&self, links: &ListLinks, list: u32, item: u32) {
        let head = &self.heads[list as usize];
        let link = &links.next[item as usize];
        let mut first = head.load(Ordering::Relaxed);
        loop {
            link.store(first, Ordering::Relaxed);
            // Release: publishes the link store (and everything the pusher
            // wrote before) to the acquire swap of the next take.
            match head.compare_exchange_weak(first, item, Ordering::Release, Ordering::Relaxed) {
                Ok(_) => return,
                Err(current) => first = current,
            }
        }
    }

    /// Empties list `list` and returns its items, most recently pushed
    /// first. The caller owns every item the iterator yields.
    ///
    /// # Panics
    /// Panics if `list` is out of range.
    #[inline]
    pub fn take<'a>(&self, links: &'a ListLinks, list: u32) -> Taken<'a> {
        // Acquire: synchronises with the release CAS of every push whose
        // item the walk below returns.
        let first = self.heads[list as usize].swap(NIL, Ordering::Acquire);
        Taken { links, next: first }
    }

    /// Owner form of [`ListHeads::push`]: a plain load of the head and
    /// plain stores of the link and the head.
    ///
    /// # Panics
    /// Panics if `list` or `item` is out of range.
    #[inline]
    pub fn push_mut(&mut self, links: &mut ListLinks, list: u32, item: u32) {
        let first = *self.heads[list as usize].get_mut();
        *links.next[item as usize].get_mut() = first;
        *self.heads[list as usize].get_mut() = item;
    }

    /// Owner form of [`ListHeads::take`]: a plain load and store of the
    /// head. The returned walk borrows nothing, so the owner may push the
    /// items it yields while it walks.
    ///
    /// # Panics
    /// Panics if `list` is out of range.
    #[inline]
    pub fn take_mut(&mut self, list: u32) -> TakenMut {
        TakenMut {
            next: std::mem::replace(&mut *self.heads[list as usize].get_mut(), NIL),
        }
    }
}

impl std::fmt::Debug for ListHeads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ListHeads")
            .field("len", &self.heads.len())
            .finish()
    }
}

/// The items of a taken list; see [`ListHeads::take`].
pub struct Taken<'a> {
    links: &'a ListLinks,
    next: u32,
}

impl Iterator for Taken<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.next == NIL {
            return None;
        }
        let item = self.next;
        // Read before yielding: the owner may push `item` elsewhere at once,
        // which overwrites its link.
        self.next = self.links.next[item as usize].load(Ordering::Relaxed);
        Some(item)
    }
}

/// The items of a list taken by [`ListHeads::take_mut`], most recently
/// pushed first.
#[derive(Debug)]
pub struct TakenMut {
    next: u32,
}

impl TakenMut {
    /// The next item, read from `links` with a plain load. The caller owns
    /// it and may push it elsewhere at once: its link has been read.
    #[inline]
    pub fn next(&mut self, links: &mut ListLinks) -> Option<u32> {
        if self.next == NIL {
            return None;
        }
        let item = self.next;
        self.next = *links.next[item as usize].get_mut();
        Some(item)
    }
}

#[cfg(all(test, not(chordal_model)))]
mod tests {
    use super::*;

    fn lists(lists: usize, items: usize) -> (ListHeads, ListLinks) {
        let mut heads = ListHeads::default();
        let mut links = ListLinks::default();
        assert!(heads.reset(lists));
        assert!(links.reserve(items));
        (heads, links)
    }

    #[test]
    fn take_returns_pushed_items_newest_first_and_empties_the_list() {
        let (heads, links) = lists(3, 8);
        for item in [4, 1, 6] {
            heads.push(&links, 2, item);
        }
        heads.push(&links, 0, 7);
        assert_eq!(heads.take(&links, 2).collect::<Vec<_>>(), vec![6, 1, 4]);
        assert_eq!(heads.take(&links, 2).count(), 0);
        assert_eq!(heads.take(&links, 1).count(), 0);
        assert_eq!(heads.take(&links, 0).collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn items_can_move_to_another_list_while_the_walk_continues() {
        let (heads, links) = lists(2, 4);
        for item in 0..4 {
            heads.push(&links, 0, item);
        }
        let mut seen = Vec::new();
        for item in heads.take(&links, 0) {
            seen.push(item);
            heads.push(&links, 1, item);
        }
        assert_eq!(seen, vec![3, 2, 1, 0]);
        assert_eq!(heads.take(&links, 1).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn reset_empties_and_reports_growth() {
        let (mut heads, mut links) = lists(2, 2);
        heads.push(&links, 1, 0);
        assert!(!heads.reset(2), "same size must not grow");
        assert_eq!(heads.take(&links, 1).count(), 0);
        assert!(!links.reserve(1));
        assert!(heads.reset(5) && links.reserve(5));
        assert!(heads.allocated_bytes() >= 20 && links.allocated_bytes() >= 20);
        heads.push(&links, 4, 4);
        assert_eq!(heads.take(&links, 4).collect::<Vec<_>>(), vec![4]);
    }

    fn drain_mut(heads: &mut ListHeads, links: &mut ListLinks, list: u32) -> Vec<u32> {
        let mut taken = heads.take_mut(list);
        std::iter::from_fn(|| taken.next(links)).collect()
    }

    #[test]
    fn owner_forms_keep_the_order_and_move_items_during_the_walk() {
        let (mut heads, mut links) = lists(2, 4);
        for item in 0..4 {
            heads.push_mut(&mut links, 0, item);
        }
        let mut taken = heads.take_mut(0);
        let mut seen = Vec::new();
        while let Some(item) = taken.next(&mut links) {
            seen.push(item);
            heads.push_mut(&mut links, 1, item);
        }
        assert_eq!(seen, vec![3, 2, 1, 0]);
        assert_eq!(drain_mut(&mut heads, &mut links, 0), Vec::<u32>::new());
        assert_eq!(drain_mut(&mut heads, &mut links, 1), vec![0, 1, 2, 3]);
    }

    #[test]
    fn owner_and_shared_forms_share_one_format() {
        let (mut heads, mut links) = lists(2, 4);
        heads.push(&links, 0, 2);
        heads.push_mut(&mut links, 0, 1);
        assert_eq!(drain_mut(&mut heads, &mut links, 0), vec![1, 2]);
        heads.push_mut(&mut links, 1, 3);
        heads.push(&links, 1, 0);
        assert_eq!(heads.take(&links, 1).collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(heads.take(&links, 0).count(), 0);
        assert_eq!(drain_mut(&mut heads, &mut links, 1), Vec::<u32>::new());
    }
}

/// Deterministic model-checker tests; compiled only under
/// `RUSTFLAGS="--cfg chordal_model"`, where the atomics above resolve to the
/// chordal-checker facade.
#[cfg(all(test, chordal_model))]
mod model_tests {
    use super::*;
    use chordal_checker::{model, thread};
    use std::sync::Arc;

    /// Two pushers race a take-all on one head. Every item is taken exactly
    /// once, and the taker never follows a link whose store it cannot see:
    /// a stale link would end the walk early (or at the initial NIL) and
    /// lose an item.
    #[test]
    fn two_pushers_race_a_take() {
        model(|| {
            let mut heads = ListHeads::default();
            let mut links = ListLinks::default();
            heads.reset(1);
            links.reserve(2);
            let shared = Arc::new((heads, links));
            let pushers: Vec<_> = (0..2u32)
                .map(|item| {
                    let shared = Arc::clone(&shared);
                    thread::spawn(move || shared.0.push(&shared.1, 0, item))
                })
                .collect();
            let (heads, links) = &*shared;
            let mut got: Vec<u32> = heads.take(links, 0).collect();
            for p in pushers {
                p.join().unwrap();
            }
            got.extend(heads.take(links, 0));
            got.sort_unstable();
            assert_eq!(got, vec![0, 1], "an item was lost or taken twice");
        });
    }

    /// Lists filled with the owner forms pass to the shared protocol once
    /// the exclusive borrow ends: a spawned taker races a shared push, and
    /// every item surfaces exactly once.
    #[test]
    fn owner_filled_lists_pass_to_the_shared_protocol() {
        model(|| {
            let mut heads = ListHeads::default();
            let mut links = ListLinks::default();
            heads.reset(1);
            links.reserve(3);
            heads.push_mut(&mut links, 0, 0);
            heads.push_mut(&mut links, 0, 1);
            let shared = Arc::new((heads, links));
            let taker = {
                let shared = Arc::clone(&shared);
                thread::spawn(move || shared.0.take(&shared.1, 0).collect::<Vec<u32>>())
            };
            let (heads, links) = &*shared;
            heads.push(links, 0, 2);
            let mut got = taker.join().unwrap();
            got.extend(heads.take(links, 0));
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 2], "an item was lost or taken twice");
        });
    }
}
