//! Flat edge-list representation used as the interchange format between
//! generators, file I/O and the CSR builder.

use crate::csr::split_by_offsets;
use crate::{canonical_edge, Edge, GraphError, VertexId};
use chordal_runtime::{pool_size, Engine};

/// A list of undirected edges over a fixed vertex range `0..num_vertices`.
///
/// An `EdgeList` may contain duplicates and self loops until
/// [`EdgeList::canonicalize`] is called; generators produce raw lists (R-MAT
/// in particular emits many duplicate edges) and canonicalisation is a single
/// explicit pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeList {
    num_vertices: usize,
    edges: Vec<Edge>,
}

impl EdgeList {
    /// Creates an empty edge list over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Creates an edge list with pre-allocated capacity for `capacity` edges.
    pub fn with_capacity(num_vertices: usize, capacity: usize) -> Self {
        Self {
            num_vertices,
            edges: Vec::with_capacity(capacity),
        }
    }

    /// Creates an edge list from raw parts, validating that every endpoint is
    /// in range.
    pub fn from_edges(num_vertices: usize, edges: Vec<Edge>) -> Result<Self, GraphError> {
        for &(u, v) in &edges {
            if u as usize >= num_vertices || v as usize >= num_vertices {
                return Err(GraphError::VertexOutOfRange {
                    vertex: u.max(v) as u64,
                    num_vertices: num_vertices as u64,
                });
            }
        }
        Ok(Self {
            num_vertices,
            edges,
        })
    }

    /// Number of vertices in the underlying vertex range.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges currently stored (including duplicates and self loops
    /// if the list has not been canonicalised).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` when no edges are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The edges as a slice.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Adds an edge without validation. Callers constructing very large lists
    /// (the generators) validate by construction.
    #[inline]
    pub fn push(&mut self, u: VertexId, v: VertexId) {
        debug_assert!((u as usize) < self.num_vertices);
        debug_assert!((v as usize) < self.num_vertices);
        self.edges.push((u, v));
    }

    /// Adds an edge, returning an error if either endpoint is out of range.
    pub fn try_push(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        if u as usize >= self.num_vertices || v as usize >= self.num_vertices {
            return Err(GraphError::VertexOutOfRange {
                vertex: u.max(v) as u64,
                num_vertices: self.num_vertices as u64,
            });
        }
        self.edges.push((u, v));
        Ok(())
    }

    /// Appends all edges of `other`, which must be over the same vertex range.
    pub fn extend_from(&mut self, other: &EdgeList) {
        debug_assert_eq!(self.num_vertices, other.num_vertices);
        self.edges.extend_from_slice(&other.edges);
    }

    /// Removes self loops and duplicate edges (in either orientation) and
    /// stores every edge in canonical `(min, max)` order, sorted
    /// lexicographically.
    ///
    /// A counting sort buckets every edge under its smaller endpoint; the
    /// buckets are sorted on an engine of [`pool_size`] threads and then
    /// emitted in vertex order, each repeat dropped. On a 2-core host, for
    /// the 524,288 raw edges of RMAT-ER/G/B(16), this took 11–16 ms,
    /// against 14–25 ms for the parallel merge sort of the whole list it
    /// replaced and 17–37 ms for a serial `sort_unstable` (medians of 7
    /// runs, two sessions on a shared host).
    pub fn canonicalize(&mut self) {
        let n = self.num_vertices;
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &self.edges {
            if u != v {
                offsets[u.min(v) as usize + 1] += 1;
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut next = offsets.clone();
        let mut larger = vec![0 as VertexId; offsets[n]];
        for &(u, v) in &self.edges {
            if u != v {
                let (a, b) = canonical_edge(u, v);
                larger[next[a as usize]] = b;
                next[a as usize] += 1;
            }
        }
        let mut buckets = split_by_offsets(&mut larger, &offsets);
        Engine::chunked(pool_size()).for_each_mut(&mut buckets, |_, bucket| bucket.sort_unstable());
        self.edges.clear();
        for (u, bucket) in buckets.iter().enumerate() {
            for (k, &v) in bucket.iter().enumerate() {
                if k == 0 || bucket[k - 1] != v {
                    self.edges.push((u as VertexId, v));
                }
            }
        }
    }

    /// Returns a canonicalised copy, leaving `self` untouched.
    pub fn canonicalized(&self) -> EdgeList {
        let mut copy = self.clone();
        copy.canonicalize();
        copy
    }

    /// Consumes the list and returns the raw edge vector.
    pub fn into_edges(self) -> Vec<Edge> {
        self.edges
    }

    /// Iterates over the edges.
    pub fn iter(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().copied()
    }

    /// Maximum degree implied by this edge list (counting both endpoints of
    /// every stored edge). Intended for canonicalised lists.
    pub fn degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices];
        for &(u, v) in &self.edges {
            deg[u as usize] += 1;
            if u != v {
                deg[v as usize] += 1;
            }
        }
        deg
    }
}

impl IntoIterator for EdgeList {
    type Item = Edge;
    type IntoIter = std::vec::IntoIter<Edge>;

    fn into_iter(self) -> Self::IntoIter {
        self.edges.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_len() {
        let mut el = EdgeList::new(4);
        el.push(0, 1);
        el.push(1, 2);
        assert_eq!(el.num_edges(), 2);
        assert_eq!(el.num_vertices(), 4);
        assert!(!el.is_empty());
    }

    #[test]
    fn try_push_rejects_out_of_range() {
        let mut el = EdgeList::new(3);
        assert!(el.try_push(0, 2).is_ok());
        assert!(el.try_push(0, 3).is_err());
        assert!(el.try_push(5, 0).is_err());
        assert_eq!(el.num_edges(), 1);
    }

    #[test]
    fn from_edges_validates() {
        assert!(EdgeList::from_edges(3, vec![(0, 1), (1, 2)]).is_ok());
        assert!(EdgeList::from_edges(3, vec![(0, 3)]).is_err());
    }

    #[test]
    fn canonicalize_removes_duplicates_self_loops_and_orients() {
        let mut el = EdgeList::new(5);
        el.push(1, 0);
        el.push(0, 1);
        el.push(2, 2); // self loop
        el.push(3, 4);
        el.push(4, 3);
        el.push(3, 4);
        el.canonicalize();
        assert_eq!(el.edges(), &[(0, 1), (3, 4)]);
    }

    #[test]
    fn canonicalized_leaves_original_untouched() {
        let mut el = EdgeList::new(3);
        el.push(2, 1);
        let canon = el.canonicalized();
        assert_eq!(canon.edges(), &[(1, 2)]);
        assert_eq!(el.edges(), &[(2, 1)]);
    }

    #[test]
    fn degrees_counts_both_endpoints() {
        let mut el = EdgeList::new(4);
        el.push(0, 1);
        el.push(0, 2);
        el.push(0, 3);
        el.canonicalize();
        assert_eq!(el.degrees(), vec![3, 1, 1, 1]);
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = EdgeList::new(4);
        a.push(0, 1);
        let mut b = EdgeList::new(4);
        b.push(2, 3);
        a.extend_from(&b);
        assert_eq!(a.num_edges(), 2);
    }

    #[test]
    fn empty_list_canonicalizes() {
        let mut el = EdgeList::new(0);
        el.canonicalize();
        assert!(el.is_empty());
    }
}
