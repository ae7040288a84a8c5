//! A borrowed view of a CSR graph: its offsets and adjacency slices.
//!
//! [`GraphRef`] is the one read surface of the graph substrate. Every
//! consumer — the extraction algorithms, the repair pass, the batch
//! scheduler — runs on it, and every read method is implemented here once.
//! A heap [`CsrGraph`] lends its two vectors; an
//! [`MmapCsrGraph`] lends the offsets it
//! decoded at open and the adjacency section of its mapping. The view is
//! `Copy`, so worker closures capture it freely.
//!
//! Both graph references convert with `Into`:
//!
//! ```
//! use chordal_graph::{CsrGraph, GraphRef};
//! let g = CsrGraph::from_canonical_edges(3, &[(0, 1), (1, 2)]);
//! let r = GraphRef::from(&g);
//! assert_eq!(r.num_edges(), 2);
//! assert_eq!(r.neighbors(1), &[0, 2]);
//! assert_eq!(r.offsets(), &[0, 1, 3, 4]);
//! ```

use crate::storage::MmapCsrGraph;
use crate::{CsrGraph, Edge, VertexId};
use std::sync::OnceLock;

/// A borrowed view of a CSR graph, independent of where the arrays live.
///
/// All accessors take `self` by value (the view is `Copy`), which lets
/// returned slices borrow for the full underlying lifetime `'a` rather than
/// the lifetime of a `&GraphRef` temporary.
#[derive(Debug, Clone, Copy)]
pub struct GraphRef<'a> {
    /// `offsets[v]..offsets[v + 1]` is `v`'s range in `adjacency`.
    offsets: &'a [usize],
    adjacency: &'a [VertexId],
    sorted: bool,
    /// The owner's canonical edge count: set at open for a mapped graph,
    /// computed on first use for a heap graph.
    canonical_edges: &'a OnceLock<usize>,
}

impl<'a> From<&'a CsrGraph> for GraphRef<'a> {
    #[inline]
    fn from(graph: &'a CsrGraph) -> Self {
        graph.view()
    }
}

impl<'a> From<&'a MmapCsrGraph> for GraphRef<'a> {
    #[inline]
    fn from(graph: &'a MmapCsrGraph) -> Self {
        graph.view()
    }
}

impl<'a> GraphRef<'a> {
    /// A view over arrays that already hold the CSR invariants: `offsets`
    /// starts at 0, never decreases and ends at `adjacency.len()`.
    #[inline]
    pub(crate) fn new(
        offsets: &'a [usize],
        adjacency: &'a [VertexId],
        sorted: bool,
        canonical_edges: &'a OnceLock<usize>,
    ) -> Self {
        debug_assert_eq!(offsets.last(), Some(&adjacency.len()));
        Self {
            offsets,
            adjacency,
            sorted,
            canonical_edges,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges as *half the stored adjacency entries*.
    ///
    /// For graphs built from edges ([`CsrGraph::from_edges`]) this equals
    /// the distinct edge count. For raw CSR input
    /// ([`CsrGraph::from_parts`]) the adjacency may still contain duplicate
    /// entries and self loops, which this method counts. Callers making
    /// *cost* decisions (e.g. batch placement) should use
    /// [`GraphRef::num_canonical_edges`] instead.
    #[inline]
    pub fn num_edges(self) -> usize {
        self.adjacency.len() / 2
    }

    /// Number of *distinct* undirected, non-loop edges — the canonical edge
    /// count, independent of duplicate adjacency entries or self loops that
    /// raw [`CsrGraph::from_parts`] input may carry.
    ///
    /// This is the contract quantity for workload-size decisions: the batch
    /// scheduler orders graphs longest first on this count, so a noisy,
    /// non-canonicalised input cannot be misplaced by its duplicate edges.
    /// `O(1)` for a mapped graph, whose file header stores it. A heap graph
    /// computes it on the first call — `O(V + E)`, plus a per-vertex sort
    /// of a scratch buffer for unsorted adjacency — and caches it (the
    /// graph is immutable, so the value never goes stale).
    ///
    /// **Contract:** edges are counted from the *lower* endpoint's
    /// adjacency list, which is exact for symmetric adjacency — what every
    /// constructor produces and the extraction algorithms require.
    /// [`CsrGraph::from_parts`] technically admits asymmetric adjacency; an
    /// edge stored only in its higher endpoint's list is not counted.
    /// Validate such inputs with [`CsrGraph::validate_symmetry`] before
    /// relying on this count.
    pub fn num_canonical_edges(self) -> usize {
        *self.canonical_edges.get_or_init(|| {
            let mut scratch: Vec<VertexId> = Vec::new();
            let mut count = 0usize;
            for u in 0..self.num_vertices() as VertexId {
                let higher = self.neighbors(u).iter().copied().filter(|&v| v > u);
                if self.sorted {
                    let mut prev = None;
                    for v in higher {
                        count += usize::from(Some(v) != prev);
                        prev = Some(v);
                    }
                } else {
                    scratch.clear();
                    scratch.extend(higher);
                    scratch.sort_unstable();
                    scratch.dedup();
                    count += scratch.len();
                }
            }
            count
        })
    }

    /// Number of directed adjacency entries (twice the edge count).
    #[inline]
    pub fn num_directed_edges(self) -> usize {
        self.adjacency.len()
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Neighbours of `v` as a slice borrowing the underlying storage.
    #[inline]
    pub fn neighbors(self, v: VertexId) -> &'a [VertexId] {
        let v = v as usize;
        &self.adjacency[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The CSR offsets: `v`'s neighbours are
    /// `adjacency()[offsets()[v]..offsets()[v + 1]]`. `num_vertices() + 1`
    /// entries, the last equal to [`GraphRef::num_directed_edges`].
    #[inline]
    pub fn offsets(self) -> &'a [usize] {
        self.offsets
    }

    /// The flat adjacency array, indexed through [`GraphRef::offsets`].
    #[inline]
    pub fn adjacency(self) -> &'a [VertexId] {
        self.adjacency
    }

    /// Whether every adjacency list is sorted ascending.
    #[inline]
    pub fn is_sorted(self) -> bool {
        self.sorted
    }

    /// Tests whether the edge `{u, v}` exists. Binary search in the shorter
    /// list when the adjacency is sorted, linear scan otherwise.
    pub fn has_edge(self, u: VertexId, v: VertexId) -> bool {
        let n = self.num_vertices();
        if u as usize >= n || v as usize >= n {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let adj = self.neighbors(a);
        if self.sorted {
            adj.binary_search(&b).is_ok()
        } else {
            adj.contains(&b)
        }
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
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

    /// Copies the two arrays into a heap-resident [`CsrGraph`], which keeps
    /// the view's sorted flag and, once known, its canonical edge count.
    pub fn to_csr_graph(self) -> CsrGraph {
        CsrGraph::from_trusted_parts(
            self.offsets.to_vec(),
            self.adjacency.to_vec(),
            self.sorted,
            self.canonical_edges.clone(),
        )
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
        assert_eq!(r.degree(1), 2);
        assert_eq!(r.neighbors(1), &[0, 2]);
        assert_eq!(r.offsets(), &[0, 1, 3, 5, 6]);
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
}
