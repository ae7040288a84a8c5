//! Compressed-sparse-row adjacency structure.

use crate::layout::MemoryBreakdown;
use crate::{canonical_edge, Edge, GraphError, GraphRef, VertexId};
use chordal_runtime::{pool_size, Engine};
use std::sync::OnceLock;

/// An immutable undirected graph in compressed-sparse-row form.
///
/// Every undirected edge `{u, v}` is stored twice, once in the adjacency of
/// `u` and once in the adjacency of `v`. The structure records whether every
/// adjacency list is sorted ascending; the "Opt" variant of the paper's
/// algorithm requires sorted adjacency while the "Unopt" variant operates on
/// generator-ordered lists.
///
/// Storage is two vectors, `usize` offsets and `u32` neighbour ids.
/// [`CsrGraph::view`] lends them as a [`GraphRef`], which implements every
/// read method once; the read methods here forward to it.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` is `v`'s range in `neighbors`.
    offsets: Vec<usize>,
    /// Neighbor ids, contiguous per vertex.
    neighbors: Vec<VertexId>,
    sorted: bool,
    /// Lazily computed cache of [`GraphRef::num_canonical_edges`]. No
    /// method changes the stored edge multiset after construction
    /// (`sort_adjacency` and scrambling only permute adjacency lists), so
    /// a computed value never goes stale.
    canonical_edges: OnceLock<usize>,
}

impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        // The canonical-edge cache is derived data, deliberately ignored.
        self.offsets == other.offsets
            && self.neighbors == other.neighbors
            && self.sorted == other.sorted
    }
}

impl Eq for CsrGraph {}

impl CsrGraph {
    /// Builds a graph from raw edges over `0..num_vertices`: the one
    /// builder from an edge list. Edges may come in either orientation and
    /// repeat; self loops and repeats are dropped, and every adjacency list
    /// comes out sorted ascending. Returns
    /// [`GraphError::VertexOutOfRange`] for an endpoint at or past
    /// `num_vertices`.
    ///
    /// A counting sort buckets every edge under its smaller endpoint, the
    /// buckets are sorted on an engine of [`pool_size`] threads (sorting
    /// them serially was 4–17% slower on R-MAT(13–16), 2-core host), and
    /// each distinct edge is stored in both directions in ascending
    /// `(min, max)` order. A vertex thus receives its smaller neighbours,
    /// from earlier buckets, before its larger ones, from its own bucket,
    /// each run ascending, so no list needs a second sort.
    ///
    /// Edges that arrive in ascending order, as an extraction result, an
    /// induced subgraph over sorted lists and the gene-network generator
    /// hand them in, fill every bucket in order. Then the pool sort is skipped, so such a build
    /// submits no pool region and runs on the caller's thread alone.
    pub fn from_edges(num_vertices: usize, edges: Vec<Edge>) -> Result<Self, GraphError> {
        let n = num_vertices;
        let mut starts = vec![0usize; n + 1];
        for &(u, v) in &edges {
            let (a, b) = canonical_edge(u, v);
            if b as usize >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: u64::from(b),
                    num_vertices: n as u64,
                });
            }
            if a != b {
                starts[a as usize + 1] += 1;
            }
        }
        for v in 0..n {
            starts[v + 1] += starts[v];
        }
        let mut next = starts.clone();
        let mut larger = vec![0 as VertexId; starts[n]];
        for (u, v) in edges {
            if u != v {
                let (a, b) = canonical_edge(u, v);
                larger[next[a as usize]] = b;
                next[a as usize] += 1;
            }
        }
        let mut buckets = split_by_offsets(&mut larger, &starts);
        if !buckets.iter().all(|bucket| bucket.is_sorted()) {
            Engine::chunked(pool_size())
                .for_each_mut(&mut buckets, |_, bucket| bucket.sort_unstable());
        }
        let mut offsets = vec![0usize; n + 1];
        for (u, bucket) in buckets.iter().enumerate() {
            for run in bucket.chunk_by(|a, b| a == b) {
                offsets[u + 1] += 1;
                offsets[run[0] as usize + 1] += 1;
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut neighbors = vec![0 as VertexId; offsets[n]];
        for (u, bucket) in buckets.iter().enumerate() {
            for run in bucket.chunk_by(|a, b| a == b) {
                let v = run[0] as usize;
                neighbors[cursor[u]] = v as VertexId;
                cursor[u] += 1;
                neighbors[cursor[v]] = u as VertexId;
                cursor[v] += 1;
            }
        }
        Ok(Self::from_trusted_parts(
            offsets,
            neighbors,
            true,
            OnceLock::new(),
        ))
    }

    /// Builds a graph from canonical edges (`u < v`, no repeats) in any
    /// order, through [`CsrGraph::from_edges`]. Adjacency is sorted
    /// ascending. Panics on an endpoint at or past `num_vertices`.
    pub fn from_canonical_edges(num_vertices: usize, edges: &[Edge]) -> Self {
        Self::from_edges(num_vertices, edges.to_vec())
            .expect("canonical edges name vertices below num_vertices")
    }

    /// Constructs a graph directly from CSR arrays.
    ///
    /// `offsets` must have length `num_vertices + 1`, start at 0, be
    /// non-decreasing and end at `neighbors.len()`; every neighbour must be a
    /// valid vertex id. The adjacency is *not* required to be sorted or
    /// symmetric; [`CsrGraph::validate_symmetry`] can check symmetry
    /// separately. Note that the extraction algorithms and
    /// [`GraphRef::num_canonical_edges`] assume symmetric adjacency —
    /// asymmetric input is only suitable for structural inspection.
    pub fn from_parts(
        num_vertices: usize,
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
    ) -> Result<Self, GraphError> {
        if offsets.len() != num_vertices + 1 {
            return Err(GraphError::Inconsistent(format!(
                "offsets length {} does not match num_vertices + 1 = {}",
                offsets.len(),
                num_vertices + 1
            )));
        }
        if offsets.first() != Some(&0) {
            return Err(GraphError::Inconsistent(
                "offsets must start at 0".to_string(),
            ));
        }
        if *offsets.last().unwrap() != neighbors.len() {
            return Err(GraphError::Inconsistent(format!(
                "last offset {} does not match adjacency length {}",
                offsets.last().unwrap(),
                neighbors.len()
            )));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::Inconsistent(
                "offsets must be non-decreasing".to_string(),
            ));
        }
        if let Some(&bad) = neighbors.iter().find(|&&v| v as usize >= num_vertices) {
            return Err(GraphError::VertexOutOfRange {
                vertex: bad as u64,
                num_vertices: num_vertices as u64,
            });
        }
        let mut graph = Self::from_trusted_parts(offsets, neighbors, false, OnceLock::new());
        graph.sorted = graph.lists_sorted();
        Ok(graph)
    }

    /// Wraps arrays that already hold the CSR invariants, without checks.
    pub(crate) fn from_trusted_parts(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        sorted: bool,
        canonical_edges: OnceLock<usize>,
    ) -> Self {
        Self {
            offsets,
            neighbors,
            sorted,
            canonical_edges,
        }
    }

    /// An empty graph on `num_vertices` isolated vertices.
    pub fn empty(num_vertices: usize) -> Self {
        Self::from_trusted_parts(vec![0; num_vertices + 1], Vec::new(), true, OnceLock::new())
    }

    /// The borrowed view every read method forwards to.
    #[inline]
    pub fn view(&self) -> GraphRef<'_> {
        GraphRef::new(
            &self.offsets,
            &self.neighbors,
            self.sorted,
            &self.canonical_edges,
        )
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.view().num_vertices()
    }

    /// Half the stored adjacency entries; see [`GraphRef::num_edges`].
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.view().num_edges()
    }

    /// Distinct undirected, non-loop edges, computed once; see
    /// [`GraphRef::num_canonical_edges`].
    pub fn num_canonical_edges(&self) -> usize {
        self.view().num_canonical_edges()
    }

    /// Number of directed adjacency entries (twice the edge count).
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.view().num_directed_edges()
    }

    /// Sum of all degrees (equals `2 * num_edges`).
    #[inline]
    pub fn total_degree(&self) -> usize {
        self.view().total_degree()
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.view().degree(v)
    }

    /// Neighbours of `v` as a slice.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.view().neighbors(v)
    }

    /// The CSR offsets; see [`GraphRef::offsets`].
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw adjacency array.
    #[inline]
    pub fn adjacency(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// Whether every adjacency list is sorted ascending.
    #[inline]
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Tests whether the edge `{u, v}` exists; see [`GraphRef::has_edge`].
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.view().has_edge(u, v)
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.view().max_degree()
    }

    /// Iterates over every undirected edge once, in canonical orientation
    /// `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.view().edges()
    }

    /// Byte accounting of the two arrays.
    pub fn memory_breakdown(&self) -> MemoryBreakdown {
        MemoryBreakdown {
            offsets_bytes: std::mem::size_of_val(self.offsets.as_slice()),
            neighbors_bytes: std::mem::size_of_val(self.neighbors.as_slice()),
            flags_bytes: 0,
        }
    }

    /// Sorts every adjacency list ascending on `engine`, so a serial
    /// caller's sort submits no pool region. Afterwards
    /// [`CsrGraph::is_sorted`] returns `true`.
    pub fn sort_adjacency(&mut self, engine: Engine) {
        let mut lists = split_by_offsets(&mut self.neighbors, &self.offsets);
        engine.for_each_mut(&mut lists, |_, list| list.sort_unstable());
        self.sorted = true;
    }

    /// Returns a copy of this graph whose adjacency lists are shuffled into a
    /// deterministic "unordered" arrangement. This models the paper's
    /// unoptimised variant, where neighbour lists are stored in generator
    /// order rather than ascending order.
    pub fn with_scrambled_adjacency(&self, seed: u64) -> Self {
        let mut clone = self.clone();
        for (v, w) in self.offsets.windows(2).enumerate() {
            let slice = &mut clone.neighbors[w[0]..w[1]];
            // Deterministic Fisher-Yates driven by a splitmix64 stream.
            let mut state = seed ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            for i in (1..slice.len()).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                slice.swap(i, j);
            }
        }
        clone.sorted = clone.lists_sorted();
        clone
    }

    fn lists_sorted(&self) -> bool {
        self.offsets
            .windows(2)
            .all(|w| self.neighbors[w[0]..w[1]].windows(2).all(|p| p[0] <= p[1]))
    }

    /// Checks that the adjacency structure is symmetric: `v ∈ adj(u)` iff
    /// `u ∈ adj(v)`, with matching multiplicity. Returns a description of the
    /// first violation found.
    pub fn validate_symmetry(&self) -> Result<(), GraphError> {
        for u in 0..self.num_vertices() as VertexId {
            for &v in self.neighbors(u) {
                let back = self.neighbors(v).iter().filter(|&&x| x == u).count();
                let fwd = self.neighbors(u).iter().filter(|&&x| x == v).count();
                if back != fwd {
                    return Err(GraphError::Inconsistent(format!(
                        "asymmetric adjacency between {u} and {v}: {fwd} vs {back}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Splits `values` into the consecutive lists `offsets` delimits:
/// `values[offsets[v]..offsets[v + 1]]` for every `v`, without aliasing.
pub(crate) fn split_by_offsets<'a, T>(
    mut values: &'a mut [T],
    offsets: &[usize],
) -> Vec<&'a mut [T]> {
    let mut lists = Vec::with_capacity(offsets.len().saturating_sub(1));
    for w in offsets.windows(2) {
        let (head, tail) = values.split_at_mut(w[1] - w[0]);
        lists.push(head);
        values = tail;
    }
    lists
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> CsrGraph {
        // 0 - 1 - 2 - 3
        CsrGraph::from_canonical_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn from_canonical_edges_builds_symmetric_csr() {
        let g = path4();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_directed_edges(), 6);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1, 3]);
        assert_eq!(g.neighbors(3), &[2]);
        assert!(g.is_sorted());
        g.validate_symmetry().unwrap();
    }

    #[test]
    fn from_edges_orients_and_drops_loops_and_repeats() {
        let g =
            CsrGraph::from_edges(5, vec![(1, 0), (0, 1), (2, 2), (4, 3), (3, 4), (3, 4)]).unwrap();
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1), (3, 4)]);
        assert_eq!(g.neighbors(2), &[] as &[VertexId]);
        assert!(g.is_sorted());
        assert_eq!(
            CsrGraph::from_edges(0, Vec::new()).unwrap(),
            CsrGraph::empty(0)
        );
    }

    #[test]
    fn from_edges_rejects_an_out_of_range_endpoint() {
        for edges in [vec![(0, 1), (1, 3)], vec![(3, 0)], vec![(5, 5)]] {
            let err = CsrGraph::from_edges(3, edges.clone()).unwrap_err();
            assert!(
                matches!(
                    err,
                    GraphError::VertexOutOfRange {
                        num_vertices: 3,
                        ..
                    }
                ),
                "{edges:?}: {err:?}"
            );
        }
        assert!(matches!(
            CsrGraph::from_edges(0, vec![(0, 0)]),
            Err(GraphError::VertexOutOfRange { vertex: 0, .. })
        ));
    }

    #[test]
    fn degrees_and_max_degree() {
        let g = CsrGraph::from_canonical_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(4), 1);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn has_edge_sorted_and_unsorted() {
        let g = path4();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 99));
        let scrambled = g.with_scrambled_adjacency(7);
        assert!(scrambled.has_edge(0, 1));
        assert!(!scrambled.has_edge(0, 3));
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = path4();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn edges_roundtrip_through_from_edges() {
        let g = path4();
        assert_eq!(CsrGraph::from_edges(4, g.edges().collect()).unwrap(), g);
    }

    #[test]
    fn from_parts_validates() {
        assert!(CsrGraph::from_parts(2, vec![0, 1, 2], vec![1, 0]).is_ok());
        // wrong offsets length
        assert!(CsrGraph::from_parts(2, vec![0, 2], vec![1, 0]).is_err());
        // decreasing offsets
        assert!(CsrGraph::from_parts(2, vec![0, 2, 1], vec![1, 0]).is_err());
        // neighbor out of range
        assert!(CsrGraph::from_parts(2, vec![0, 1, 2], vec![1, 5]).is_err());
        // last offset mismatch
        assert!(CsrGraph::from_parts(2, vec![0, 1, 1], vec![1, 0]).is_err());
        // does not start at zero
        assert!(CsrGraph::from_parts(2, vec![1, 1, 2], vec![1, 0]).is_err());
    }

    #[test]
    fn canonical_edge_count_ignores_duplicates_and_self_loops() {
        // Canonical construction: the two counts agree.
        let g = path4();
        assert_eq!(g.num_canonical_edges(), g.num_edges());
        // Raw CSR input with duplicate entries and a self loop: vertex 0
        // lists a self loop and neighbour 1 twice; vertex 1 mirrors the
        // duplication. num_edges() (stored entries / 2) counts the noise,
        // the canonical count does not.
        let noisy = CsrGraph::from_parts(3, vec![0, 3, 6, 7], vec![0, 1, 1, 0, 0, 2, 1]).unwrap();
        assert!(noisy.is_sorted());
        assert_eq!(noisy.num_edges(), 3);
        assert_eq!(noisy.num_canonical_edges(), 2, "{{0-1}}, {{1-2}} only");
        // The unsorted path agrees with the sorted one.
        let unsorted =
            CsrGraph::from_parts(3, vec![0, 3, 6, 7], vec![1, 0, 1, 2, 0, 0, 1]).unwrap();
        assert!(!unsorted.is_sorted());
        assert_eq!(unsorted.num_edges(), 3);
        assert_eq!(unsorted.num_canonical_edges(), 2);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.is_sorted());
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn scrambled_adjacency_preserves_edge_set() {
        let g = CsrGraph::from_canonical_edges(
            6,
            &[(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4), (4, 5)],
        );
        let s = g.with_scrambled_adjacency(42);
        assert_eq!(g.num_edges(), s.num_edges());
        for (u, v) in g.edges() {
            assert!(s.has_edge(u, v));
        }
        // Degrees unchanged.
        for v in 0..6 {
            assert_eq!(g.degree(v), s.degree(v));
        }
    }

    #[test]
    fn sort_adjacency_after_scramble_restores_order() {
        let g = CsrGraph::from_canonical_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        for engine in [Engine::serial(), Engine::chunked_with_grain(2, 1)] {
            let mut s = g.with_scrambled_adjacency(3);
            assert!(!s.is_sorted());
            s.sort_adjacency(engine);
            assert_eq!(s, g, "{engine:?}");
            assert!(s.is_sorted());
        }
    }
}
