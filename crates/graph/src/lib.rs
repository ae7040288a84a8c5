//! Compressed-sparse-row graph substrate for the maximal chordal subgraph library.
//!
//! This crate provides the data structures that every other crate in the
//! workspace builds on:
//!
//! * [`Edge`] slices — the interchange format between generators, file I/O
//!   and the graphs. Raw edges enter through one builder,
//!   [`CsrGraph::from_edges`], and canonical edges in ascending order leave
//!   through one writer, [`io::write_edges`].
//! * [`CsrGraph`] — an immutable compressed-sparse-row adjacency structure
//!   with optional sorted adjacency (the paper's "Opt" variant sorts the
//!   neighbour lists, the "Unopt" variant leaves them in generator order).
//! * Breadth-first traversal, connected components and vertex renumbering
//!   ([`traversal`], [`permute`]) — the paper uses a BFS numbering to
//!   guarantee that the extracted chordal edge set is connected.
//! * Structural statistics ([`stats`]) reproducing the columns of Table I of
//!   the paper.
//! * Out-of-core storage ([`storage`]) — a versioned binary CSR file format,
//!   mmap-backed [`MmapCsrGraph`] loading, and bounded-memory text-to-binary
//!   conversion. [`GraphRef`] is the storage-agnostic view that lets
//!   consumers run on either representation.
//!
//! The crate is deliberately free of any chordality-specific logic; that
//! lives in `chordal-core`.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod builder;
pub mod csr;
pub mod error;
pub mod graphref;
pub mod io;
pub mod layout;
pub mod permute;
pub mod stats;
pub mod storage;
pub mod subgraph;
pub mod traversal;

pub use csr::CsrGraph;
pub use error::GraphError;
pub use graphref::GraphRef;
pub use layout::MemoryBreakdown;
pub use stats::GraphStats;
pub use storage::MmapCsrGraph;

/// Identifier of a vertex. Graphs in this workspace are limited to
/// `u32::MAX - 1` vertices, which keeps the hot arrays half the size of a
/// `usize`-based representation (the paper's largest graph has 2^26
/// vertices, well within range).
pub type VertexId = u32;

/// Sentinel used throughout the workspace for "no vertex".
pub const NO_VERTEX: VertexId = u32::MAX;

/// An undirected edge given by its two endpoints.
///
/// Raw edges may come in either orientation. The canonical form is
/// `(min(u, v), max(u, v))` ([`canonical_edge`]): [`CsrGraph::edges`] and
/// every extraction result list edges in it, sorted ascending.
pub type Edge = (VertexId, VertexId);

/// Returns the canonical form of an edge: endpoints ordered ascending.
#[inline]
pub fn canonical_edge(u: VertexId, v: VertexId) -> Edge {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_edge_orders_endpoints() {
        assert_eq!(canonical_edge(3, 7), (3, 7));
        assert_eq!(canonical_edge(7, 3), (3, 7));
        assert_eq!(canonical_edge(5, 5), (5, 5));
    }

    #[test]
    fn no_vertex_is_max() {
        assert_eq!(NO_VERTEX, u32::MAX);
    }
}
