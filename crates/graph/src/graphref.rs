//! A borrowed, storage-agnostic view of a CSR graph.
//!
//! [`GraphRef`] is the seam that lets every consumer of the graph substrate —
//! the five extraction algorithms, the repair pass, the batch scheduler —
//! run unchanged on either a heap-resident [`CsrGraph`] or an mmap-backed
//! [`MmapCsrGraph`](crate::storage::MmapCsrGraph). It is a two-variant enum
//! rather than a trait object so the hot accessors (`neighbors`, `degree`)
//! stay `#[inline]`-able branch dispatches with no vtable indirection, and so
//! the whole view is `Copy` (freely captured by worker closures).
//!
//! Both graph references convert with `Into`:
//!
//! ```
//! use chordal_graph::{CsrGraph, GraphRef};
//! let g = CsrGraph::from_canonical_edges(3, &[(0, 1), (1, 2)]);
//! let r = GraphRef::from(&g);
//! assert_eq!(r.num_edges(), 2);
//! assert_eq!(r.neighbors(1), &[0, 2]);
//! ```

use crate::storage::MmapCsrGraph;
use crate::{CsrGraph, Edge, EdgeList, VertexId};

/// A borrowed view of a CSR graph, independent of where the arrays live.
///
/// All accessors take `self` by value (the view is `Copy`), which lets
/// returned slices borrow for the full underlying lifetime `'a` rather than
/// the lifetime of a `&GraphRef` temporary.
#[derive(Debug, Clone, Copy)]
pub enum GraphRef<'a> {
    /// A heap-resident graph.
    Heap(&'a CsrGraph),
    /// An mmap-backed (or file-decoded) graph.
    Mapped(&'a MmapCsrGraph),
}

impl<'a> From<&'a CsrGraph> for GraphRef<'a> {
    #[inline]
    fn from(graph: &'a CsrGraph) -> Self {
        GraphRef::Heap(graph)
    }
}

impl<'a> From<&'a MmapCsrGraph> for GraphRef<'a> {
    #[inline]
    fn from(graph: &'a MmapCsrGraph) -> Self {
        GraphRef::Mapped(graph)
    }
}

impl<'a> GraphRef<'a> {
    /// Number of vertices.
    #[inline]
    pub fn num_vertices(self) -> usize {
        match self {
            GraphRef::Heap(g) => g.num_vertices(),
            GraphRef::Mapped(g) => g.num_vertices(),
        }
    }

    /// Number of undirected edges as half the stored adjacency entries (see
    /// [`CsrGraph::num_edges`] for the duplicate-entry caveat).
    #[inline]
    pub fn num_edges(self) -> usize {
        match self {
            GraphRef::Heap(g) => g.num_edges(),
            GraphRef::Mapped(g) => g.num_edges(),
        }
    }

    /// Number of distinct undirected, non-loop edges. `O(1)` for mapped
    /// graphs (stored in the file header) and cached for heap graphs.
    #[inline]
    pub fn num_canonical_edges(self) -> usize {
        match self {
            GraphRef::Heap(g) => g.num_canonical_edges(),
            GraphRef::Mapped(g) => g.num_canonical_edges(),
        }
    }

    /// Number of directed adjacency entries (twice the edge count).
    #[inline]
    pub fn num_directed_edges(self) -> usize {
        match self {
            GraphRef::Heap(g) => g.num_directed_edges(),
            GraphRef::Mapped(g) => g.num_directed_edges(),
        }
    }

    /// Sum of all degrees (equals `num_directed_edges`).
    #[inline]
    pub fn total_degree(self) -> usize {
        self.num_directed_edges()
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(self, v: VertexId) -> usize {
        match self {
            GraphRef::Heap(g) => g.degree(v),
            GraphRef::Mapped(g) => g.degree(v),
        }
    }

    /// Neighbours of `v` as a slice borrowing the underlying storage.
    #[inline]
    pub fn neighbors(self, v: VertexId) -> &'a [VertexId] {
        match self {
            GraphRef::Heap(g) => g.neighbors(v),
            GraphRef::Mapped(g) => g.neighbors(v),
        }
    }

    /// The flat adjacency array: `v`'s neighbours are the entries from
    /// [`GraphRef::adjacency_start`]`(v)` up to `adjacency_start(v + 1)`.
    /// Hot loops that keep their own copy of the offsets slice it directly
    /// and skip the per-call offset decode of [`GraphRef::neighbors`].
    #[inline]
    pub fn adjacency(self) -> &'a [VertexId] {
        match self {
            GraphRef::Heap(g) => g.adjacency(),
            GraphRef::Mapped(g) => g.adjacency(),
        }
    }

    /// Start of vertex `i`'s adjacency range in the (conceptual) flat
    /// adjacency array. Valid for `i` in `0..=num_vertices()`; the value at
    /// `num_vertices()` equals [`GraphRef::num_directed_edges`]. This
    /// replaces direct `offsets()[i]` indexing, which would force mapped
    /// graphs to materialise a `usize` offset array.
    #[inline]
    pub fn adjacency_start(self, i: usize) -> usize {
        match self {
            GraphRef::Heap(g) => g.adjacency_start(i),
            GraphRef::Mapped(g) => g.adjacency_start(i),
        }
    }

    /// Whether every adjacency list is sorted ascending.
    #[inline]
    pub fn is_sorted(self) -> bool {
        match self {
            GraphRef::Heap(g) => g.is_sorted(),
            GraphRef::Mapped(g) => g.is_sorted(),
        }
    }

    /// Tests whether the edge `{u, v}` exists.
    #[inline]
    pub fn has_edge(self, u: VertexId, v: VertexId) -> bool {
        match self {
            GraphRef::Heap(g) => g.has_edge(u, v),
            GraphRef::Mapped(g) => g.has_edge(u, v),
        }
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(self) -> usize {
        match self {
            GraphRef::Heap(g) => g.max_degree(),
            GraphRef::Mapped(g) => g.max_degree(),
        }
    }

    /// Iterates over every undirected edge once, in canonical orientation
    /// `(u, v)` with `u < v`.
    pub fn edges(self) -> impl Iterator<Item = Edge> + 'a {
        (0..self.num_vertices() as VertexId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Collects every undirected edge into an [`EdgeList`] (canonical form).
    pub fn to_edge_list(self) -> EdgeList {
        let mut el = EdgeList::with_capacity(self.num_vertices(), self.num_edges());
        for (u, v) in self.edges() {
            el.push(u, v);
        }
        el
    }

    /// Materialises a heap-resident copy of the graph. For `Heap` views this
    /// is a plain clone; for mapped views the offset and adjacency sections
    /// are copied out of the mapping.
    pub fn to_csr_graph(self) -> CsrGraph {
        match self {
            GraphRef::Heap(g) => g.clone(),
            GraphRef::Mapped(g) => g.to_csr_graph(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> CsrGraph {
        CsrGraph::from_canonical_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn heap_view_mirrors_csr_surface() {
        let g = path4();
        let r = GraphRef::from(&g);
        assert_eq!(r.num_vertices(), 4);
        assert_eq!(r.num_edges(), 3);
        assert_eq!(r.num_canonical_edges(), 3);
        assert_eq!(r.num_directed_edges(), 6);
        assert_eq!(r.total_degree(), 6);
        assert_eq!(r.degree(1), 2);
        assert_eq!(r.neighbors(1), &[0, 2]);
        assert_eq!(r.adjacency_start(0), 0);
        assert_eq!(r.adjacency_start(4), 6);
        assert_eq!(r.adjacency(), &[1, 0, 2, 1, 3, 2]);
        assert!(r.is_sorted());
        assert!(r.has_edge(2, 3));
        assert!(!r.has_edge(0, 3));
        assert_eq!(r.max_degree(), 2);
        assert_eq!(r.edges().collect::<Vec<_>>(), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(r.to_csr_graph(), g);
    }

    #[test]
    fn view_is_copy_and_into_converts() {
        fn takes<'a>(g: impl Into<GraphRef<'a>>) -> usize {
            g.into().num_edges()
        }
        let g = path4();
        let r = GraphRef::from(&g);
        let r2 = r; // Copy
        assert_eq!(r.num_edges(), r2.num_edges());
        assert_eq!(takes(&g), 3);
        assert_eq!(takes(r), 3);
    }

    #[test]
    fn to_edge_list_roundtrips() {
        let g = path4();
        let el = GraphRef::from(&g).to_edge_list();
        assert_eq!(CsrGraph::from_edge_list(&el), g);
    }
}
