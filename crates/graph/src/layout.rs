//! The in-memory CSR layout and its one narrowing seam.
//!
//! A graph is two arrays: `usize` offsets, one entry per vertex plus one,
//! and `u32` neighbor ids ([`crate::VertexId`]). Heap graphs own both
//! ([`crate::CsrGraph`]); mapped graphs own the offsets, decoded once at
//! open, and borrow the adjacency from the file
//! ([`crate::storage::MmapCsrGraph`]). Either way the read surface is one
//! view of two slices, [`crate::GraphRef`].
//!
//! The on-disk format still stores offsets as `u32` whenever the directed
//! edge count fits ([`crate::storage::offsets_width`]). Writing them is the
//! one place a graph index narrows, and **every width-narrowing cast of a
//! graph index lives here**, behind [`narrow_index`]: `chordal-lint` rejects
//! `as u32` on graph code anywhere else in the crate.
//!
//! The full layout story (including the on-disk v2 section format) is
//! documented in `docs/layout.md` at the repository root.

/// Narrows a graph index to `u32`.
///
/// This is the *only* sanctioned narrowing cast on graph indices in the
/// crate (enforced by the `chordal-lint` width rule): callers must have
/// already established that the value fits — the binary writers select
/// the on-disk width from the directed edge count before encoding.
#[inline]
pub fn narrow_index(value: usize) -> u32 {
    debug_assert!(
        value <= u32::MAX as usize,
        "index {value} does not fit a u32 entry"
    );
    value as u32
}

/// Byte accounting of a graph's in-memory layout, as reported by
/// `chordal analyze`'s memory section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// Bytes of the `usize` offsets array.
    pub offsets_bytes: usize,
    /// Bytes of the neighbor id array.
    pub neighbors_bytes: usize,
    /// Always 0: graphs carry no per-edge flags.
    pub flags_bytes: usize,
}

impl MemoryBreakdown {
    /// Total bytes of the two arrays.
    pub fn total_bytes(&self) -> usize {
        self.offsets_bytes + self.neighbors_bytes + self.flags_bytes
    }
}
