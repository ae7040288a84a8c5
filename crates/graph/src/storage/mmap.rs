//! Memory-mapped binary CSR graphs.
//!
//! [`MmapCsrGraph`] opens a file in the [`format`](super::format) described
//! layout and lends a [`GraphRef`] over it. Opening parses the header,
//! locates the sections, and decodes the offsets section (u32 or u64 on
//! disk) into a `Vec<usize>` — an `O(V)` pass that also validates the
//! offsets. The adjacency section stays mapped: it is reinterpreted in
//! place as a `&[u32]` slice (the format guarantees 4-byte alignment
//! relative to the file start, and the kernel guarantees page-aligned
//! mappings), and its pages fault in lazily as extraction touches them.
//!
//! On big-endian hosts (or when the mmap shim falls back to a heap read
//! that happens to be misaligned) the file is copied into an 8-aligned
//! owned buffer, byte-swapping where needed; the public API is identical.

use super::format::{
    checksum_sections, decode_offsets, Fnv1a, Header, SectionLayout, FORMAT_VERSION,
};
use crate::{GraphError, GraphRef, VertexId};
use memmap2::Mmap;
use std::fs::File;
use std::path::Path;
use std::sync::OnceLock;

/// Owned, 8-aligned byte buffer used when the raw mapping cannot be used
/// directly (misaligned heap fallback, or a big-endian host that needs the
/// sections byte-swapped).
#[derive(Debug)]
struct AlignedBytes {
    buf: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    fn from_slice(bytes: &[u8]) -> Self {
        let words = bytes.len().div_ceil(8);
        let mut buf = vec![0u64; words];
        // SAFETY: u64 -> u8 reinterpretation of an initialised buffer with
        // capacity >= bytes.len(); u8 has no alignment or validity needs.
        let dst =
            unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, bytes.len()) };
        dst.copy_from_slice(bytes);
        AlignedBytes {
            buf,
            len: bytes.len(),
        }
    }

    #[inline]
    fn as_bytes(&self) -> &[u8] {
        // SAFETY: same reinterpretation as in `from_slice`.
        unsafe { std::slice::from_raw_parts(self.buf.as_ptr() as *const u8, self.len) }
    }
}

#[derive(Debug)]
enum Backing {
    Mapped(Mmap),
    Owned(AlignedBytes),
}

impl Backing {
    #[inline]
    fn bytes(&self) -> &[u8] {
        match self {
            Backing::Mapped(map) => map,
            Backing::Owned(buf) => buf.as_bytes(),
        }
    }
}

/// A read-only CSR graph served from a binary graph file.
///
/// Its read surface is [`MmapCsrGraph::view`]: a [`GraphRef`] over the
/// offsets decoded at open and the mapped adjacency section, so every
/// extractor runs on it unchanged. The canonical edge count is `O(1)` — it
/// is stored in the file header rather than recomputed.
#[derive(Debug)]
pub struct MmapCsrGraph {
    backing: Backing,
    header: Header,
    layout: SectionLayout,
    /// The offsets section, decoded and validated at open.
    offsets: Vec<usize>,
    /// The header's canonical edge count, set at open.
    canonical_edges: OnceLock<usize>,
}

impl MmapCsrGraph {
    /// Opens a binary CSR graph file as a memory-mapped graph.
    ///
    /// Performs the structural validation described in the
    /// [format docs](super::format): header sanity, file length, and an
    /// `O(V)` decode of the offsets section that checks they start at 0,
    /// never decrease and end at the directed edge count. The adjacency is
    /// not read, and the full data checksum is *not* verified here (it
    /// would fault in every page); call [`MmapCsrGraph::verify_checksum`]
    /// when integrity matters more than load time.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, GraphError> {
        let file = File::open(path)?;
        Self::from_file(&file)
    }

    /// Opens an already-open file as a memory-mapped graph. See
    /// [`MmapCsrGraph::open`].
    pub fn from_file(file: &File) -> Result<Self, GraphError> {
        // All byte accesses made through this type are bounds-checked
        // against the mapping length captured here, and the parsed
        // contents are treated as untrusted input.
        // SAFETY: the standard mmap caveat — the caller must not truncate
        // the file while the map is alive.
        let map = unsafe { Mmap::map(file) }?;
        let backing = Self::normalize(map)?;
        let bytes = backing.bytes();
        let header = Header::parse(bytes)?;
        let layout = SectionLayout::locate(&header, bytes)?;
        let offsets = decode_offsets(&header, &bytes[layout.offsets_pos..])?;
        Ok(MmapCsrGraph {
            backing,
            header,
            layout,
            offsets,
            canonical_edges: OnceLock::from(header.num_canonical_edges as usize),
        })
    }

    /// Turns the raw mapping into a backing whose adjacency section can be
    /// reinterpreted as native-endian `&[u32]` in place.
    fn normalize(map: Mmap) -> Result<Backing, GraphError> {
        #[cfg(target_endian = "little")]
        {
            // The sections sit at 4-aligned file offsets, so 4-alignment of
            // the base pointer is all the adjacency cast needs. Kernel
            // mappings are page-aligned; only the shim's heap fallback can
            // ever be misaligned, and then we pay one copy.
            if (map.as_ptr() as usize).is_multiple_of(4) {
                Ok(Backing::Mapped(map))
            } else {
                Ok(Backing::Owned(AlignedBytes::from_slice(&map)))
            }
        }
        #[cfg(target_endian = "big")]
        {
            // The file stores little-endian sections; swap the adjacency
            // section into native order once so the hot accessors stay
            // cast-based.
            let header = Header::parse(&map)?;
            let layout = SectionLayout::locate(&header, &map)?;
            let mut owned = AlignedBytes::from_slice(&map);
            let len = owned.len;
            // u64 -> u8 reinterpretation of `owned`'s initialised buffer,
            // same as `as_bytes`, but mutable.
            // SAFETY: `owned` is uniquely held, so nothing aliases it.
            let bytes =
                unsafe { std::slice::from_raw_parts_mut(owned.buf.as_mut_ptr() as *mut u8, len) };
            let adj =
                &mut bytes[layout.adjacency_pos..layout.adjacency_pos + header.adjacency_len()];
            for chunk in adj.chunks_exact_mut(4) {
                chunk.reverse();
            }
            Ok(Backing::Owned(owned))
        }
    }

    /// The parsed file header.
    #[inline]
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The graph's read surface: the decoded offsets over the mapped
    /// adjacency section.
    #[inline]
    pub fn view(&self) -> GraphRef<'_> {
        GraphRef::new(
            &self.offsets,
            self.adjacency(),
            self.header.sorted,
            &self.canonical_edges,
        )
    }

    /// The whole adjacency section as a typed slice into the mapping.
    #[inline]
    fn adjacency(&self) -> &[VertexId] {
        let bytes = &self.backing.bytes()
            [self.layout.adjacency_pos..self.layout.adjacency_pos + self.header.adjacency_len()];
        debug_assert_eq!(bytes.as_ptr() as usize % 4, 0);
        // SAFETY: construction guarantees a 4-aligned base (normalize plus
        // the section table's alignment rule), native-endian u32 contents,
        // and exactly num_directed_edges entries (section-length check).
        unsafe {
            std::slice::from_raw_parts(
                bytes.as_ptr() as *const VertexId,
                self.header.num_directed_edges as usize,
            )
        }
    }

    /// Recomputes the checksum over the offsets and adjacency sections —
    /// the lane checksum for a version 3 file, byte FNV-1a for versions 1
    /// and 2 ([format docs](super::format)) — and compares it against the
    /// header, then checks what the checksum cannot: that every adjacency
    /// entry names a vertex below `num_vertices`
    /// ([`GraphError::VertexOutOfRange`]), and — if the header claims
    /// sorted adjacency ([`FLAG_SORTED`](super::format::FLAG_SORTED)) — that
    /// every neighbor list really is sorted ascending
    /// ([`GraphError::SortedFlagViolation`]). These checks follow the
    /// checksum walk while the adjacency pages are resident, so they add no
    /// extra I/O. `O(file size)`; faults in every page.
    pub fn verify_checksum(&self) -> Result<(), GraphError> {
        let offsets = &self.backing.bytes()
            [self.layout.offsets_pos..self.layout.offsets_pos + self.header.offsets_len()];
        // Both hashers read the adjacency as words and take their
        // little-endian bytes, so neither depends on the host's byte order.
        let computed = match self.header.version {
            FORMAT_VERSION => checksum_sections(offsets, self.adjacency()),
            _ => {
                let mut hasher = Fnv1a::new();
                hasher.update(offsets);
                for &w in self.adjacency() {
                    hasher.update(&w.to_le_bytes());
                }
                hasher.finish()
            }
        };
        if computed != self.header.checksum {
            return Err(GraphError::Format(format!(
                "checksum mismatch: header says {:#018x}, data hashes to {computed:#018x}",
                self.header.checksum
            )));
        }
        // The checksum only proves the bytes are the ones the writer hashed
        // — not that the writer told the truth about their range or order.
        // An entry past the last vertex breaks every per-vertex array an
        // extraction indexes, and a wrong sorted claim silently breaks every
        // binary-search lookup, so the verification pass (cache admission,
        // `convert --verify`, CLI loads) checks both while the pages are
        // still warm.
        let graph = self.view();
        if self.header.sorted {
            check_sorted_lists(graph)
        } else if let Some(&w) = graph
            .adjacency()
            .iter()
            .find(|&&w| w as usize >= graph.num_vertices())
        {
            Err(out_of_range(graph, w))
        } else {
            Ok(())
        }
    }
}

/// The positions `i` with `adj[i] < adj[i - 1]`. Each block's compares
/// are summed in `u32`, which no block can overflow and which vectorises
/// four compares wide where a `usize` sum does two.
fn count_descents(adj: &[VertexId]) -> usize {
    const BLOCK: usize = 1 << 16;
    let next = adj.get(1..).unwrap_or_default();
    adj.chunks(BLOCK)
        .zip(next.chunks(BLOCK))
        .map(|(prev, next)| {
            let block: u32 = prev.iter().zip(next).map(|(&p, &c)| u32::from(c < p)).sum();
            block as usize
        })
        .sum()
}

fn out_of_range(graph: GraphRef<'_>, vertex: VertexId) -> GraphError {
    GraphError::VertexOutOfRange {
        vertex: vertex as u64,
        num_vertices: graph.num_vertices() as u64,
    }
}

/// Checks a sorted claim and the range of a graph whose header claims
/// sorted lists, reporting the first violation in vertex order.
///
/// A sorted graph's adjacency array descends (`adj[i] < adj[i - 1]`) only
/// where a new list starts. So one branch-free count of the descents over
/// the whole array, less the descents at the starts of non-empty lists
/// (an empty list shares its offset with the next list, so each start
/// counts once), is zero exactly when every list is sorted. Then each list
/// is in range iff its last entry is: an `O(V)` check. Only a file that
/// fails either runs the per-list scan, which names the vertex and
/// position of the first violation.
fn check_sorted_lists(graph: GraphRef<'_>) -> Result<(), GraphError> {
    let (offsets, adj, n) = (graph.offsets(), graph.adjacency(), graph.num_vertices());
    let descents = count_descents(adj);
    let mut start_descents = 0;
    let mut in_range = true;
    for bounds in offsets.windows(2) {
        let (start, end) = (bounds[0], bounds[1]);
        if start < end {
            start_descents += usize::from(start > 0 && adj[start] < adj[start - 1]);
            in_range &= (adj[end - 1] as usize) < n;
        }
    }
    if descents == start_descents && in_range {
        return Ok(());
    }
    for v in 0..n as VertexId {
        let list = graph.neighbors(v);
        if let Some(position) = (1..list.len()).find(|&i| list[i] < list[i - 1]) {
            return Err(GraphError::SortedFlagViolation {
                vertex: v as u64,
                position,
            });
        }
        // A sorted list is in range iff its last entry is.
        if let Some(&last) = list.last().filter(|&&w| w as usize >= n) {
            return Err(out_of_range(graph, last));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::format::{
        content_hash, content_hash_from_header, section_table_bytes, write_binary_file,
        OffsetsWidth, FORMAT_VERSION_V1, HEADER_LEN,
    };
    use super::*;
    use crate::CsrGraph;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("chordal_mmap_{}_{name}.bin", std::process::id()))
    }

    fn sample() -> CsrGraph {
        CsrGraph::from_canonical_edges(6, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (0, 5)])
    }

    /// Byte position of the offsets payload in a freshly written file.
    fn offsets_pos(bytes: &[u8]) -> usize {
        let header = Header::parse(bytes).unwrap();
        SectionLayout::locate(&header, bytes).unwrap().offsets_pos
    }

    /// Applies `edit` to the adjacency entries of an encoded v3 file and
    /// re-seals it with the v3 checksum, so only the checks behind the
    /// checksum can object.
    fn edit_adjacency(bytes: &mut [u8], edit: impl FnOnce(&mut [VertexId])) {
        let header = Header::parse(bytes).unwrap();
        let layout = SectionLayout::locate(&header, bytes).unwrap();
        let section = layout.adjacency_pos..layout.adjacency_pos + header.adjacency_len();
        let mut words: Vec<VertexId> = bytes[section.clone()]
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
            .collect();
        edit(&mut words);
        for (b, w) in bytes[section].chunks_exact_mut(4).zip(&words) {
            b.copy_from_slice(&w.to_le_bytes());
        }
        let offsets = &bytes[layout.offsets_pos..layout.offsets_pos + header.offsets_len()];
        let seal = checksum_sections(offsets, &words);
        bytes[40..48].copy_from_slice(&seal.to_le_bytes());
    }

    /// Sets the last adjacency entry of an encoded file to `value`.
    fn set_last_entry(bytes: &mut [u8], value: VertexId) {
        edit_adjacency(bytes, |adj| *adj.last_mut().unwrap() = value);
    }

    /// Writes `g`, applies `edit` to its adjacency (the header still claims
    /// sorted lists) and returns what `verify_checksum` says.
    fn verify_edited(tag: &str, g: &CsrGraph, edit: impl FnOnce(&mut [VertexId])) -> GraphError {
        assert!(g.is_sorted());
        let path = temp_path(tag);
        write_binary_file(g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        edit_adjacency(&mut bytes, edit);
        std::fs::write(&path, &bytes).unwrap();
        let err = MmapCsrGraph::open(&path)
            .unwrap()
            .verify_checksum()
            .unwrap_err();
        let _ = std::fs::remove_file(&path);
        err
    }

    /// The per-list scan: the vertex and position of the first descent
    /// inside one list, in vertex order.
    fn first_descent(offsets: &[usize], adj: &[VertexId]) -> Option<(u64, usize)> {
        offsets.windows(2).enumerate().find_map(|(v, w)| {
            let list = &adj[w[0]..w[1]];
            (1..list.len())
                .find(|&i| list[i] < list[i - 1])
                .map(|i| (v as u64, i))
        })
    }

    #[test]
    fn mapped_graph_mirrors_heap_surface() {
        let g = sample();
        let path = temp_path("mirror");
        write_binary_file(&g, &path).unwrap();
        let mapped = MmapCsrGraph::open(&path).unwrap();
        let m = mapped.view();
        assert_eq!(m.num_vertices(), g.num_vertices());
        assert_eq!(m.num_edges(), g.num_edges());
        assert_eq!(m.num_directed_edges(), g.num_directed_edges());
        assert_eq!(m.num_canonical_edges(), g.num_canonical_edges());
        assert_eq!(m.is_sorted(), g.is_sorted());
        assert_eq!(m.offsets(), g.offsets());
        assert_eq!(m.adjacency(), g.adjacency());
        assert!(m.has_edge(0, 5));
        assert!(!m.has_edge(1, 5));
        assert_eq!(m.to_csr_graph(), g);
        mapped.verify_checksum().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn canonical_edge_count_comes_from_the_header() {
        let g = sample();
        let path = temp_path("canonical");
        write_binary_file(&g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // The count is not covered by the checksum; a doctored one shows
        // the view reads the header instead of walking the adjacency.
        bytes[32..40].copy_from_slice(&99u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let m = MmapCsrGraph::open(&path).unwrap();
        assert_eq!(m.view().num_canonical_edges(), 99);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_rejects_truncated_file() {
        let g = sample();
        let path = temp_path("trunc");
        write_binary_file(&g, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 2]).unwrap();
        assert!(MmapCsrGraph::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn verify_checksum_catches_corruption() {
        let g = sample();
        let path = temp_path("corrupt");
        write_binary_file(&g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        std::fs::write(&path, &bytes).unwrap();
        // Structural validation alone does not touch the adjacency…
        let m = MmapCsrGraph::open(&path).unwrap();
        // …but the full checksum pass does.
        assert!(m.verify_checksum().is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn verify_checksum_rejects_out_of_range_adjacency() {
        // A sorted file is checked through the last entry of each list, an
        // unsorted one entry by entry; the last entry of vertex 5's list
        // keeps a sorted file sorted.
        for (tag, g) in [
            ("oob_sorted", sample()),
            ("oob_unsorted", sample().with_scrambled_adjacency(5)),
        ] {
            let path = temp_path(tag);
            write_binary_file(&g, &path).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            set_last_entry(&mut bytes, 99);
            std::fs::write(&path, &bytes).unwrap();
            let m = MmapCsrGraph::open(&path).unwrap();
            assert_eq!(m.view().neighbors(5), &[99]);
            let err = m.verify_checksum().unwrap_err();
            assert!(
                matches!(
                    err,
                    GraphError::VertexOutOfRange {
                        vertex: 99,
                        num_vertices: 6
                    }
                ),
                "{tag}: {err:?}"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn open_rejects_nonmonotone_offsets() {
        let g = sample();
        let path = temp_path("monotone");
        write_binary_file(&g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Corrupt the second offset entry to be larger than the third.
        let at = offsets_pos(&bytes) + 4;
        bytes[at..at + 4].copy_from_slice(&1000u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = MmapCsrGraph::open(&path).unwrap_err();
        assert!(err.to_string().contains("non-decreasing"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    /// A file with u64 offsets needs more than 2^32 directed entries. A
    /// sparse file has them: one vertex, offsets `[0, 2^32 + 2]`, and an
    /// adjacency section that `set_len` leaves as a hole. Opening decodes
    /// the offsets and never reads the hole.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn wide_offsets_decode_from_a_sparse_file() {
        let directed = (1u64 << 32) + 2;
        let header = Header {
            version: FORMAT_VERSION,
            sorted: true,
            width: OffsetsWidth::U64,
            num_vertices: 1,
            num_directed_edges: directed,
            num_canonical_edges: 0,
            checksum: 0,
        };
        let path = temp_path("sparse_wide");
        {
            use std::io::Write;
            let mut file = File::create(&path).unwrap();
            file.write_all(&header.to_bytes()).unwrap();
            file.write_all(&section_table_bytes(&header)).unwrap();
            file.write_all(&0u64.to_le_bytes()).unwrap();
            file.write_all(&directed.to_le_bytes()).unwrap();
            file.set_len(header.file_len() as u64).unwrap();
        }
        let m = MmapCsrGraph::open(&path).unwrap();
        assert_eq!(m.header().width, OffsetsWidth::U64);
        let g = m.view();
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.offsets(), &[0, 4_294_967_298]);
        assert_eq!(g.degree(0), 4_294_967_298);
        assert_eq!(g.num_directed_edges(), 4_294_967_298);
        assert_eq!(g.max_degree(), 4_294_967_298);
        drop(m);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_graph_maps() {
        let g = CsrGraph::empty(4);
        let path = temp_path("empty");
        write_binary_file(&g, &path).unwrap();
        let m = MmapCsrGraph::open(&path).unwrap();
        assert_eq!(m.view().num_vertices(), 4);
        assert_eq!(m.view().num_edges(), 0);
        assert_eq!(m.view().neighbors(2), &[] as &[VertexId]);
        assert_eq!(m.view().to_csr_graph(), g);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unsorted_graph_preserves_adjacency_order() {
        let g = sample().with_scrambled_adjacency(5);
        let path = temp_path("unsorted");
        write_binary_file(&g, &path).unwrap();
        let m = MmapCsrGraph::open(&path).unwrap();
        let m = m.view();
        assert!(!m.is_sorted());
        assert_eq!(m.adjacency(), g.adjacency());
        assert!(m.has_edge(0, 2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn legacy_v1_file_maps_and_verifies() {
        let g = sample();
        let path = temp_path("v1compat");
        write_binary_file(&g, &path).unwrap();
        // Re-encode the written v3 file as its v1 equivalent: version 1
        // stamped, the payloads re-sealed with byte FNV-1a, section table
        // cut out, payloads right after the header.
        let v3 = std::fs::read(&path).unwrap();
        let payload = offsets_pos(&v3);
        let mut seal = Fnv1a::new();
        seal.update(&v3[payload..]);
        let mut v1 = Vec::with_capacity(HEADER_LEN + (v3.len() - payload));
        v1.extend_from_slice(&v3[..HEADER_LEN]);
        v1[8..12].copy_from_slice(&FORMAT_VERSION_V1.to_le_bytes());
        v1[40..48].copy_from_slice(&seal.finish().to_le_bytes());
        v1.extend_from_slice(&v3[payload..]);
        std::fs::write(&path, &v1).unwrap();
        let m = MmapCsrGraph::open(&path).unwrap();
        assert_eq!(m.header().version, FORMAT_VERSION_V1);
        assert_eq!(m.view().to_csr_graph(), g);
        m.verify_checksum().unwrap();
        // Its key follows its byte-FNV checksum, not the v3 content hash.
        assert_ne!(content_hash_from_header(m.header()), content_hash(&g));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn verify_checksum_rejects_lying_sorted_flag() {
        // An unsorted graph whose header is doctored to claim FLAG_SORTED:
        // the checksum still matches (it does not cover the header), so
        // only the sortedness walk can catch the lie.
        let g = sample().with_scrambled_adjacency(5);
        assert!(!g.is_sorted());
        let path = temp_path("lying_flag");
        write_binary_file(&g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let flags = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        bytes[12..16].copy_from_slice(&(flags | 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let m = MmapCsrGraph::open(&path).unwrap();
        assert!(m.view().is_sorted(), "doctored header should claim sorted");
        let err = m.verify_checksum().unwrap_err();
        assert!(
            matches!(err, GraphError::SortedFlagViolation { .. }),
            "{err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sorted_walk_accepts_isolated_vertices_and_descents_at_list_starts() {
        for (tag, g) in [
            // Lists 1: [4, 7], 4: [1, 7], 7: [1, 4, 9], 9: [7]; 0 and the
            // vertices between the lists are isolated, and the array
            // descends at the starts of 4's and 7's lists.
            (
                "walk_isolated",
                CsrGraph::from_canonical_edges(10, &[(1, 4), (1, 7), (4, 7), (7, 9)]),
            ),
            // Lists 0: [5], 1: [2], 2: [1], 5: [0]: every list start
            // descends, the last one after two empty lists.
            (
                "walk_boundaries",
                CsrGraph::from_canonical_edges(6, &[(0, 5), (1, 2)]),
            ),
            ("walk_no_edges", CsrGraph::empty(4)),
        ] {
            let path = temp_path(tag);
            write_binary_file(&g, &path).unwrap();
            let m = MmapCsrGraph::open(&path).unwrap();
            assert!(m.view().is_sorted());
            m.verify_checksum()
                .unwrap_or_else(|e| panic!("{tag}: {e:?}"));
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn sorted_walk_reports_the_first_violation_of_the_per_list_scan() {
        // Lists 0: [1, 2, 3], 1: [0, 2], 2: [0, 1], 3: [0, 5, 7], 4: [],
        // 5: [3, 6, 7], 6: [5, 7], 7: [3, 5, 6].
        let g = CsrGraph::from_canonical_edges(
            8,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (3, 5),
                (3, 7),
                (5, 6),
                (5, 7),
                (6, 7),
            ],
        );
        let at = |v: usize, i: usize| g.offsets()[v] + i;
        // Swaps of entries `i` and `j` of vertex `v`'s list, and the first
        // violation they make.
        type Swaps = &'static [(usize, usize, usize)];
        let descents: [(&str, Swaps, (u64, usize)); 4] = [
            // The first two entries of a list swapped: position 1.
            ("walk_pos1", &[(3, 0, 1)], (3, 1)),
            // The last two entries of the last list swapped.
            ("walk_last", &[(7, 1, 2)], (7, 2)),
            // A list right after an empty one.
            ("walk_after_empty", &[(5, 1, 2)], (5, 2)),
            // Two violations: the scan names the earlier vertex.
            ("walk_two", &[(6, 0, 1), (2, 0, 1)], (2, 1)),
        ];
        for (tag, swaps, (vertex, position)) in descents {
            let edit = |adj: &mut [VertexId]| {
                for &(v, i, j) in swaps {
                    adj.swap(at(v, i), at(v, j));
                }
            };
            let mut adj = g.adjacency().to_vec();
            edit(&mut adj);
            assert_eq!(first_descent(g.offsets(), &adj), Some((vertex, position)));
            let err = verify_edited(tag, &g, edit);
            assert!(
                matches!(
                    err,
                    GraphError::SortedFlagViolation { vertex: v, position: p }
                        if (v, p) == (vertex, position)
                ),
                "{tag}: {err:?}"
            );
        }
        // Range and order together: the scan reports whichever vertex
        // comes first. Vertex 3's last entry past the vertex count keeps
        // its list sorted.
        let err = verify_edited("walk_range", &g, |adj| adj[at(3, 2)] = 9);
        assert!(
            matches!(
                err,
                GraphError::VertexOutOfRange {
                    vertex: 9,
                    num_vertices: 8
                }
            ),
            "{err:?}"
        );
        let err = verify_edited("walk_range_first", &g, |adj| {
            adj[at(1, 1)] = 8;
            adj.swap(at(5, 0), at(5, 1));
        });
        assert!(
            matches!(
                err,
                GraphError::VertexOutOfRange {
                    vertex: 8,
                    num_vertices: 8
                }
            ),
            "{err:?}"
        );
        let err = verify_edited("walk_order_first", &g, |adj| {
            adj.swap(at(0, 1), at(0, 2));
            adj[at(7, 2)] = 8;
        });
        assert!(
            matches!(
                err,
                GraphError::SortedFlagViolation {
                    vertex: 0,
                    position: 2
                }
            ),
            "{err:?}"
        );
    }
}
