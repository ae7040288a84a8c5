//! Compressed-sparse-row adjacency structure.

use crate::layout::{ColdCsr, EdgeFlags, HotCsr, IndexWidth, MemoryBreakdown};
use crate::{EdgeList, GraphError, VertexId};
use rayon::prelude::*;
use std::sync::OnceLock;

/// An immutable undirected graph in compressed-sparse-row form.
///
/// Every undirected edge `{u, v}` is stored twice, once in the adjacency of
/// `u` and once in the adjacency of `v`. The structure records whether every
/// adjacency list is sorted ascending; the "Opt" variant of the paper's
/// algorithm requires sorted adjacency while the "Unopt" variant operates on
/// generator-ordered lists.
///
/// Storage follows the hot/cold split of [`crate::layout`]: the traversal
/// arrays ([`HotCsr`]: offsets at the narrowest sound index width, `u32`
/// neighbor ids, packed per-edge flags) are separated from lazily
/// materialized cold metadata ([`ColdCsr`]), so kernels touch only the
/// bytes they need.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    num_vertices: usize,
    /// The hot traversal arrays (offsets, neighbors, per-edge flags).
    hot: HotCsr,
    /// Lazily materialized cold companion arrays; excluded from equality.
    cold: ColdCsr,
    sorted: bool,
    /// Lazily computed cache of [`CsrGraph::num_canonical_edges`]. No
    /// method changes the stored edge multiset after construction
    /// (`sort_adjacency` and scrambling only permute adjacency lists), so
    /// a computed value never goes stale.
    canonical_edges: OnceLock<usize>,
}

impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        // The canonical-edge cache and the cold arrays are derived data,
        // deliberately ignored. Offset comparison is width-agnostic, so a
        // deliberately widened copy equals the graph it mirrors.
        self.num_vertices == other.num_vertices
            && self.hot == other.hot
            && self.sorted == other.sorted
    }
}

impl Eq for CsrGraph {}

impl CsrGraph {
    /// Builds a graph from a (possibly non-canonical) edge list. Duplicates
    /// and self loops are removed. Adjacency lists are sorted ascending.
    pub fn from_edge_list(edges: &EdgeList) -> Self {
        let canon = edges.canonicalized();
        Self::from_canonical_edges(canon.num_vertices(), canon.edges())
    }

    /// Builds a graph from edges that are already canonical (deduplicated,
    /// no self loops, `u < v`). Adjacency is sorted ascending.
    pub fn from_canonical_edges(num_vertices: usize, edges: &[(VertexId, VertexId)]) -> Self {
        // Count degrees.
        let mut degrees = vec![0usize; num_vertices];
        for &(u, v) in edges {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        // Prefix sum.
        let mut offsets = Vec::with_capacity(num_vertices + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for &d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        // Fill.
        let mut cursor = offsets[..num_vertices].to_vec();
        let mut neighbors = vec![0 as VertexId; acc];
        for &(u, v) in edges {
            neighbors[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        let mut graph = Self {
            num_vertices,
            hot: HotCsr::new(offsets, neighbors),
            cold: ColdCsr::default(),
            sorted: false,
            canonical_edges: OnceLock::new(),
        };
        graph.sort_adjacency();
        graph
    }

    /// Constructs a graph directly from CSR arrays.
    ///
    /// `offsets` must have length `num_vertices + 1`, start at 0, be
    /// non-decreasing and end at `neighbors.len()`; every neighbour must be a
    /// valid vertex id. The adjacency is *not* required to be sorted or
    /// symmetric; [`CsrGraph::validate_symmetry`] can check symmetry
    /// separately. Note that the extraction algorithms and
    /// [`CsrGraph::num_canonical_edges`] assume symmetric adjacency —
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
        let sorted = (0..num_vertices).all(|v| {
            let range = offsets[v]..offsets[v + 1];
            neighbors[range].windows(2).all(|w| w[0] <= w[1])
        });
        Ok(Self {
            num_vertices,
            hot: HotCsr::new(offsets, neighbors),
            cold: ColdCsr::default(),
            sorted,
            canonical_edges: OnceLock::new(),
        })
    }

    /// An empty graph on `num_vertices` isolated vertices.
    pub fn empty(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            hot: HotCsr::new(vec![0; num_vertices + 1], Vec::new()),
            cold: ColdCsr::default(),
            sorted: true,
            canonical_edges: OnceLock::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of undirected edges as *half the stored adjacency entries*.
    ///
    /// For graphs built through the canonicalising constructors
    /// ([`CsrGraph::from_edge_list`], [`CsrGraph::from_canonical_edges`]
    /// with genuinely canonical input) this equals the distinct edge count.
    /// For raw CSR input ([`CsrGraph::from_parts`]) the adjacency may still
    /// contain duplicate entries and self loops, which this method counts —
    /// mirroring [`crate::EdgeList::num_edges`] on a non-canonicalised
    /// list. Callers making *cost* decisions (e.g. batch placement) should
    /// use [`CsrGraph::num_canonical_edges`] instead.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.hot.neighbors().len() / 2
    }

    /// Number of *distinct* undirected, non-loop edges — the canonical edge
    /// count, independent of duplicate adjacency entries or self loops that
    /// raw [`CsrGraph::from_parts`] input may carry.
    ///
    /// This is the contract quantity for workload-size decisions: the batch
    /// scheduler orders graphs longest first on this count, so a noisy,
    /// non-canonicalised input cannot be misplaced by its duplicate edges. Computed lazily — `O(V + E)` on the first call
    /// (unsorted adjacency pays an additional per-vertex sort of a scratch
    /// buffer), `O(1)` afterwards (the graph is immutable, so the cached
    /// value never goes stale).
    ///
    /// **Contract:** edges are counted from the *lower* endpoint's
    /// adjacency list, which is exact for symmetric adjacency — what every
    /// constructor produces and the extraction algorithms require.
    /// [`CsrGraph::from_parts`] technically admits asymmetric adjacency; an
    /// edge stored only in its higher endpoint's list is not counted.
    /// Validate such inputs with [`CsrGraph::validate_symmetry`] before
    /// relying on this count.
    pub fn num_canonical_edges(&self) -> usize {
        *self.canonical_edges.get_or_init(|| {
            if self.sorted {
                let mut count = 0usize;
                for u in 0..self.num_vertices as VertexId {
                    let mut prev = None;
                    for &v in self.neighbors(u) {
                        if v > u && Some(v) != prev {
                            count += 1;
                        }
                        prev = Some(v);
                    }
                }
                count
            } else {
                let mut scratch: Vec<VertexId> = Vec::new();
                let mut count = 0usize;
                for u in 0..self.num_vertices as VertexId {
                    scratch.clear();
                    scratch.extend(self.neighbors(u).iter().copied().filter(|&v| v > u));
                    scratch.sort_unstable();
                    scratch.dedup();
                    count += scratch.len();
                }
                count
            }
        })
    }

    /// Number of directed adjacency entries (twice the edge count).
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.hot.neighbors().len()
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let range = self.hot.offsets().range(v as usize);
        range.end - range.start
    }

    /// Neighbours of `v` as a slice.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.hot.neighbors_of(v)
    }

    /// Start of vertex `i`'s adjacency range (`i` may be `num_vertices`,
    /// yielding the directed edge count) — the heap-side mirror of
    /// [`crate::storage::MmapCsrGraph::adjacency_start`].
    #[inline]
    pub fn adjacency_start(&self, i: usize) -> usize {
        self.hot.offsets().get(i)
    }

    /// The chosen offset index width of the hot layout.
    #[inline]
    pub fn offset_width(&self) -> IndexWidth {
        self.hot.offsets().width()
    }

    /// The packed per-edge flags of the hot layout (canonical-orientation
    /// bits).
    #[inline]
    pub fn edge_flags(&self) -> &EdgeFlags {
        self.hot.flags()
    }

    /// The lazily materialized cold companion arrays.
    #[inline]
    pub fn cold(&self) -> &ColdCsr {
        &self.cold
    }

    /// Byte accounting of the in-memory layout: chosen width, hot/cold
    /// array bytes, and the projected wide-layout comparison.
    pub fn memory_breakdown(&self) -> MemoryBreakdown {
        let offsets = self.hot.offsets();
        MemoryBreakdown {
            width: offsets.width(),
            offsets_bytes: offsets.bytes(),
            neighbors_bytes: std::mem::size_of_val(self.hot.neighbors()),
            flags_bytes: self.hot.flags().bytes(),
            cold_bytes: self.cold.bytes(),
            wide_offsets_bytes: offsets.len() * std::mem::size_of::<usize>(),
        }
    }

    /// A copy of this graph with forcibly wide (`usize`) offsets — the
    /// ablation baseline the compact layout is measured against. Compares
    /// equal to `self` (offset equality is width-agnostic).
    pub fn with_wide_offsets(&self) -> Self {
        let offsets: Vec<usize> = self.hot.offsets().iter().collect();
        Self {
            num_vertices: self.num_vertices,
            hot: HotCsr::new_wide(offsets, self.hot.neighbors().to_vec()),
            cold: ColdCsr::default(),
            sorted: self.sorted,
            canonical_edges: OnceLock::new(),
        }
    }

    /// The raw adjacency array.
    #[inline]
    pub fn adjacency(&self) -> &[VertexId] {
        self.hot.neighbors()
    }

    /// Whether every adjacency list is sorted ascending.
    #[inline]
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Sorts every adjacency list ascending (in parallel). Afterwards
    /// [`CsrGraph::is_sorted`] returns `true`.
    pub fn sort_adjacency(&mut self) {
        let num_vertices = self.num_vertices;
        let (offsets, neighbors) = self.hot.parts_mut();
        // Split the adjacency into per-vertex chunks without aliasing.
        let mut slices: Vec<&mut [VertexId]> = Vec::with_capacity(num_vertices);
        let mut rest: &mut [VertexId] = neighbors;
        let mut consumed = 0usize;
        for v in 0..num_vertices {
            let range = offsets.range(v);
            let len = range.end - range.start;
            let (head, tail) = rest.split_at_mut(len);
            slices.push(head);
            rest = tail;
            consumed += len;
        }
        debug_assert_eq!(consumed, offsets.get(num_vertices));
        slices.par_iter_mut().for_each(|s| s.sort_unstable());
        // In-list permutation moves slots, so the per-edge flag bits must
        // follow.
        self.hot.rebuild_flags();
        self.sorted = true;
    }

    /// Returns a copy of this graph whose adjacency lists are shuffled into a
    /// deterministic "unordered" arrangement. This models the paper's
    /// unoptimised variant, where neighbour lists are stored in generator
    /// order rather than ascending order.
    pub fn with_scrambled_adjacency(&self, seed: u64) -> Self {
        let mut clone = self.clone();
        let (offsets, neighbors) = clone.hot.parts_mut();
        for v in 0..self.num_vertices {
            let slice = &mut neighbors[offsets.range(v)];
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
        clone.hot.rebuild_flags();
        clone.sorted = clone.check_sorted();
        clone
    }

    fn check_sorted(&self) -> bool {
        (0..self.num_vertices).all(|v| {
            self.neighbors(v as VertexId)
                .windows(2)
                .all(|w| w[0] <= w[1])
        })
    }

    /// Tests whether the edge `{u, v}` exists. Uses binary search when the
    /// adjacency is sorted, linear scan otherwise.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u as usize >= self.num_vertices || v as usize >= self.num_vertices {
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
    pub fn max_degree(&self) -> usize {
        let offsets = self.hot.offsets();
        (0..self.num_vertices)
            .into_par_iter()
            .map(|v| {
                let range = offsets.range(v);
                range.end - range.start
            })
            .max()
            .unwrap_or(0)
    }

    /// Iterates over every undirected edge once, in canonical orientation
    /// `(u, v)` with `u < v` — driven by the packed per-edge orientation
    /// bits of the hot layout rather than re-comparing endpoint ids.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        let offsets = self.hot.offsets();
        let flags = self.hot.flags();
        (0..self.num_vertices as VertexId).flat_map(move |u| {
            let range = offsets.range(u as usize);
            let base = range.start;
            self.hot.neighbors()[range]
                .iter()
                .copied()
                .enumerate()
                .filter(move |&(i, _)| flags.get(base + i))
                .map(move |(_, v)| (u, v))
        })
    }

    /// Collects every undirected edge into an [`EdgeList`] (canonical form).
    pub fn to_edge_list(&self) -> EdgeList {
        let mut el = EdgeList::with_capacity(self.num_vertices, self.num_edges());
        for (u, v) in self.edges() {
            el.push(u, v);
        }
        el
    }

    /// Checks that the adjacency structure is symmetric: `v ∈ adj(u)` iff
    /// `u ∈ adj(v)`, with matching multiplicity. Returns a description of the
    /// first violation found.
    pub fn validate_symmetry(&self) -> Result<(), GraphError> {
        for u in 0..self.num_vertices as VertexId {
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

    /// Sum of all degrees (equals `2 * num_edges`).
    pub fn total_degree(&self) -> usize {
        self.hot.neighbors().len()
    }
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
    fn from_edge_list_dedupes() {
        let mut el = EdgeList::new(3);
        el.push(0, 1);
        el.push(1, 0);
        el.push(1, 1);
        el.push(1, 2);
        let g = CsrGraph::from_edge_list(&el);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(1), 2);
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
    fn to_edge_list_roundtrip() {
        let g = path4();
        let el = g.to_edge_list();
        let g2 = CsrGraph::from_edge_list(&el);
        assert_eq!(g, g2);
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
        let mut s = g.with_scrambled_adjacency(3);
        s.sort_adjacency();
        assert_eq!(s.neighbors(0), &[1, 2, 3, 4]);
        assert!(s.is_sorted());
    }
}
