//! Parallel unstable sort: chunked `sort_unstable` runs followed by
//! parallel bottom-up merge passes, all scheduled on the persistent pool.
//!
//! The slice is split into roughly thread-count pieces which are sorted
//! concurrently in place; sorted runs are then merged pairwise, doubling
//! the run width each pass, with every pair merged by one pool task. Each
//! merge buffers only its *left* run (the `MergeGuard` restores the buffer
//! into the slice if a comparison panics, so the slice always holds a
//! permutation of its input — matching `slice::sort` panic semantics).

use crate::pool::Pool;

/// Below this length the parallel machinery costs more than it saves.
const MIN_PARALLEL_SORT: usize = 4 * 1024;

/// A `*mut T` that may cross thread boundaries. Disjointness of the regions
/// accessed through it is guaranteed by the chunk/pair index math below.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// The wrapped pointer. Going through a method (rather than field
    /// access) makes closures capture the `Sync` wrapper, not the raw
    /// pointer itself.
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: only the owning region moves the pointer across threads, and the
// index math below hands each task a disjoint subrange (see module docs).
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: shared tasks only read the pointer value; disjointness of the
// ranges they dereference is the Send argument above.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Sorts `slice` in parallel (unstable), falling back to the sequential
/// sort for small inputs or single-threaded configurations.
pub(crate) fn par_sort_unstable<T: Ord + Send>(slice: &mut [T]) {
    let len = slice.len();
    let threads = crate::current_num_threads();
    if threads <= 1 || len < MIN_PARALLEL_SORT {
        slice.sort_unstable();
        return;
    }
    // Piece width: one piece per thread, but never below half the parallel
    // threshold so tiny pieces don't drown in scheduling overhead.
    let pieces = threads.min(len / (MIN_PARALLEL_SORT / 2)).max(2);
    let width = len.div_ceil(pieces);
    let base = SendPtr(slice.as_mut_ptr());

    // Pass 1: sort the pieces concurrently, each in place.
    Pool::global().run_region(pieces, 1, threads, |range| {
        for piece in range {
            let start = piece * width;
            let end = ((piece + 1) * width).min(len);
            if start < end {
                // SAFETY: pieces are disjoint subranges of the slice, and
                // the region completes before `par_sort_unstable` returns.
                let run =
                    unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
                run.sort_unstable();
            }
        }
    });

    // Pass 2..: merge adjacent runs, doubling the width until one run
    // spans the whole slice. Every pair is one independent task.
    let mut run = width;
    while run < len {
        let pairs = len.div_ceil(2 * run);
        Pool::global().run_region(pairs, 1, threads, |range| {
            for pair in range {
                let start = pair * 2 * run;
                let mid = (start + run).min(len);
                let end = (start + 2 * run).min(len);
                if mid < end {
                    // SAFETY: pairs cover disjoint subranges; see above.
                    let sub = unsafe {
                        std::slice::from_raw_parts_mut(base.get().add(start), end - start)
                    };
                    merge_halves(sub, mid - start);
                }
            }
        });
        run *= 2;
    }
}

/// Restores the unconsumed prefix of the merge buffer into the destination
/// gap when dropped — on the normal path this writes the left-run tail, on
/// a comparison panic it restores the slice to a permutation of its input.
struct MergeGuard<T> {
    src: *const T,
    dst: *mut T,
    remaining: usize,
}

impl<T> Drop for MergeGuard<T> {
    fn drop(&mut self) {
        // SAFETY: `src` points at `remaining` initialised elements of the
        // merge buffer whose originals have been logically moved out of the
        // slice; `dst` is the equally-sized gap they belong in.
        unsafe {
            std::ptr::copy_nonoverlapping(self.src, self.dst, self.remaining);
        }
    }
}

/// Merges the sorted runs `slice[..mid]` and `slice[mid..]` in place, using
/// a buffer of the left run.
fn merge_halves<T: Ord>(slice: &mut [T], mid: usize) {
    let len = slice.len();
    if mid == 0 || mid == len || slice[mid - 1] <= slice[mid] {
        return;
    }
    let base = slice.as_mut_ptr();
    let mut buffer: Vec<T> = Vec::with_capacity(mid);
    // SAFETY: the left run is moved into the buffer bitwise; `buffer` keeps
    // length zero so it never drops those elements itself — ownership
    // returns to the slice through the merge writes / the guard.
    unsafe {
        std::ptr::copy_nonoverlapping(base, buffer.as_mut_ptr(), mid);
        let buf = buffer.as_ptr();
        let mut guard = MergeGuard {
            src: buf,
            dst: base,
            remaining: mid,
        };
        let mut i = 0; // consumed from the buffered left run
        let mut j = mid; // consumed from the right run (in place)
        let mut k = 0; // written back
        while i < mid && j < len {
            // `k < j` always (k = i + j - mid < j since i < mid), so the
            // write below never clobbers an unread right-run element.
            if *base.add(j) < *buf.add(i) {
                std::ptr::copy_nonoverlapping(base.add(j), base.add(k), 1);
                j += 1;
            } else {
                std::ptr::copy_nonoverlapping(buf.add(i), base.add(k), 1);
                i += 1;
                guard.src = buf.add(i);
                guard.remaining = mid - i;
            }
            k += 1;
            guard.dst = base.add(k);
        }
        // The guard's drop writes any left-run tail into the final gap
        // (`k..k + remaining == len`); an exhausted left run makes it a
        // no-op and the right tail is already in place.
    }
}

// Gated out under `chordal_model`: these tests drive the real pool.
#[cfg(all(test, not(chordal_model)))]
mod tests {
    use super::*;

    #[test]
    fn merge_halves_handles_all_layouts() {
        let cases: Vec<(Vec<u32>, usize)> = vec![
            (vec![1, 3, 5, 2, 4, 6], 3),
            (vec![4, 5, 6, 1, 2, 3], 3),
            (vec![1, 2, 3, 4, 5, 6], 3),
            (vec![2, 2, 2, 1, 1], 3),
            (vec![7], 1),
            (vec![2, 1], 1),
        ];
        for (mut v, mid) in cases {
            let mut expected = v.clone();
            expected.sort_unstable();
            merge_halves(&mut v, mid);
            assert_eq!(v, expected);
        }
    }

    #[test]
    fn par_sort_matches_sequential_sort() {
        // Deterministic pseudo-random input large enough for the parallel
        // path, plus adversarial patterns.
        let mut lcg = 0x2545F4914F6CDD1Du64;
        let mut random: Vec<u64> = (0..50_000)
            .map(|_| {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                lcg >> 17
            })
            .collect();
        let mut reversed: Vec<u64> = (0..30_000).rev().collect();
        let mut sawtooth: Vec<u64> = (0..40_000).map(|i| (i % 7) as u64).collect();
        for input in [&mut random, &mut reversed, &mut sawtooth] {
            let mut expected = input.clone();
            expected.sort_unstable();
            par_sort_unstable(input);
            assert_eq!(*input, expected);
        }
    }

    #[test]
    fn par_sort_handles_non_copy_elements() {
        let mut v: Vec<String> = (0..12_000)
            .map(|i| format!("{:05}", (i * 37) % 9973))
            .collect();
        let mut expected = v.clone();
        expected.sort_unstable();
        par_sort_unstable(&mut v);
        assert_eq!(v, expected);
    }
}
