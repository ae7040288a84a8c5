//! The `CHRDLCSR` on-disk binary CSR format.
//!
//! # Format specification (version 3)
//!
//! A binary graph file is a fixed 48-byte header, a section table, and the
//! section payloads, all little-endian:
//!
//! ```text
//! offset  size  field
//! ------  ----  ----------------------------------------------------------
//!      0     8  magic: the ASCII bytes "CHRDLCSR"
//!      8     4  version: u32, currently 3 (readers also accept 1 and 2)
//!     12     4  flags: u32 bitset
//!                 bit 0 — every adjacency list is sorted ascending
//!                 bit 1 — the offsets section uses u64 entries (else u32)
//!                 all other bits must be zero
//!     16     8  num_vertices: u64
//!     24     8  num_directed_edges: u64 (adjacency entries; 2x edge count)
//!     32     8  num_canonical_edges: u64 (distinct undirected edges)
//!     40     8  checksum: u64 over the offsets and adjacency section
//!               payloads exactly as stored on disk: the lane checksum
//!               below (byte FNV-1a 64 in v1 and v2). The header and the
//!               section table are NOT covered.
//!     48     4  section_count: u32 (≥ 2)
//!     52     4  reserved padding, must be zero
//!     56     —  section table: section_count entries of 24 bytes each
//!               { id: u64, offset: u64 from file start, len: u64 bytes }
//!      …     —  section payloads
//! ```
//!
//! Two section ids are defined and mandatory:
//!
//! * [`SECTION_OFFSETS`] (1) — `num_vertices + 1` entries, u32 or u64 LE
//!   per the index-width rule; `len` must equal the implied byte length.
//! * [`SECTION_ADJACENCY`] (2) — `num_directed_edges` u32 LE entries; the
//!   payload offset must be 4-aligned.
//!
//! Entries with unknown ids are *ignored* (skipped over), reserving the
//! table for forward-compatible extensions that old readers can safely not
//! understand. Unknown *flag* bits are still rejected: flags change the
//! meaning of the mandatory sections.
//!
//! ## The checksum (version 3)
//!
//! The lane checksum is FNV-1a's step fed 32 bits at a time over eight
//! independent accumulators, as xxHash splits its stream (Collet,
//! <https://github.com/Cyan4973/xxHash>):
//!
//! * Read the offsets payload, then the adjacency payload, as one stream
//!   of little-endian `u32` words. A wide (u64) offsets entry is two
//!   words, low word first.
//! * Word `i` goes to lane `i mod 8`. Each of the 8 lanes starts at the
//!   FNV offset basis `0xcbf29ce484222325` and steps
//!   `h = (h ^ w) * 0x100000001b3` (mod 2^64).
//! * Fold the lanes in order with the same step, fed 64 bits at a time:
//!   `h = 0xcbf29ce484222325; for l in lanes { h = (h ^ l) * 0x100000001b3 }`.
//! * Known answers: no words give `0x52fcc39ebac1808d`; the words `0..=9`
//!   give `0x68b8bb0ee6927176`.
//!
//! Every step is a bijection of its state (the prime is odd) and injective
//! in its input, so any change confined to one word changes the checksum,
//! as with byte FNV-1a. Byte FNV-1a is one multiply chain per byte and
//! waits on each multiply; eight lanes keep eight multiplies in flight and
//! consume four bytes per step.
//!
//! ## Versions 1 and 2 (read compatibility)
//!
//! Version 2 has version 3's layout exactly; its `checksum` is byte FNV-1a
//! 64 over the same payload bytes. Version 1 files have no section table
//! either: the offsets section starts immediately at byte 48 and the
//! adjacency section follows it. Readers accept all three versions
//! ([`Header::parse`] records which one it saw, [`SectionLayout::locate`]
//! resolves the payload positions either way, and
//! [`MmapCsrGraph::verify_checksum`](super::MmapCsrGraph::verify_checksum)
//! picks the checksum by version); writers always emit version 3.
//!
//! **Index-width rule.** Vertex ids are `u32` workspace-wide (graphs are
//! capped at `u32::MAX - 1` vertices), so adjacency entries are always
//! `u32`. Only the *offsets* section varies: entries are `u64` iff the
//! directed edge count exceeds `u32::MAX` (a `u32` offset could not address
//! past the end of the adjacency array), `u32` otherwise. The choice is a
//! pure function of the edge count ([`offsets_width`]), so writers are
//! deterministic and readers never guess. In memory, offsets are always
//! `usize`: the reader, [`MmapCsrGraph::open`](super::MmapCsrGraph::open),
//! widens the section once as it decodes it.
//!
//! **Alignment.** The header is 48 bytes and the canonical two-section
//! table ends at byte 104; both are 8-aligned. The offsets section is
//! `4·(nv+1)` or `8·(nv+1)` bytes, so the adjacency payload stays 4-aligned
//! relative to the start of the file in every version — a page-aligned
//! mmap can reinterpret either section as a typed slice without copying.
//!
//! **Checksum stability.** The checksum covers exactly the offsets and
//! adjacency payload bytes — not the header, not the section table — so a
//! v1 and a v2 file of one graph carry the same byte-FNV checksum and the
//! same [`content_hash_from_header`] key. A v3 file carries the lane
//! checksum instead, so a v2 file and a v3 file of the same graph get two
//! different keys: a serving cache holds them as two entries. Keys of v1
//! and v2 files do not move. [`content_hash`] follows the v3 checksum, so
//! a parsed text graph keys equal to its conversion by any writer.
//!
//! **Versioning policy.** The version field is bumped on any
//! layout-incompatible change and on any change to what a field means
//! (version 3 changed only the checksum); readers reject versions they do
//! not know (no silent best-effort parsing). Within a version, unknown
//! section ids are the sanctioned extension point; unknown flag bits remain
//! rejected.
//!
//! **Integrity.** Loading performs cheap structural validation (magic,
//! version, flags, section table bounds, section sizes derived from the
//! header vs the actual file length, offsets monotone and consistent with
//! the edge count). The full checksum over both sections is *not*
//! verified on load — that would fault in every page and defeat lazy
//! mapping — but is available via
//! [`MmapCsrGraph::verify_checksum`](super::MmapCsrGraph::verify_checksum),
//! which also checks every adjacency entry against the vertex count and
//! the [`FLAG_SORTED`] claim against the actual neighbor order.
//!
//! The in-memory layout this format feeds is documented in
//! `docs/layout.md` at the repository root.

use crate::layout::narrow_index;
use crate::{GraphError, GraphRef};
use std::io::Write;
use std::path::Path;

/// Magic bytes identifying a binary CSR graph file.
pub const MAGIC: [u8; 8] = *b"CHRDLCSR";

/// Current format version, the one writers emit: sections sealed with the
/// lane checksum.
pub const FORMAT_VERSION: u32 = 3;

/// The sectioned version sealed with byte FNV-1a, which readers still
/// accept.
pub const FORMAT_VERSION_V2: u32 = 2;

/// The legacy sectionless version readers still accept.
pub const FORMAT_VERSION_V1: u32 = 1;

/// Size of the fixed header in bytes (identical in every version).
pub const HEADER_LEN: usize = 48;

/// Section id of the mandatory offsets section (versions 2 and 3).
pub const SECTION_OFFSETS: u64 = 1;

/// Section id of the mandatory adjacency section (versions 2 and 3).
pub const SECTION_ADJACENCY: u64 = 2;

/// Byte length of one section-table entry (versions 2 and 3).
pub const SECTION_ENTRY_LEN: usize = 24;

/// File offset of the section count field (versions 2 and 3).
const SECTION_COUNT_POS: usize = HEADER_LEN;

/// File offset of the first section-table entry (versions 2 and 3).
const SECTION_TABLE_POS: usize = HEADER_LEN + 8;

/// Flag bit: every adjacency list is sorted ascending.
pub const FLAG_SORTED: u32 = 1 << 0;

/// Flag bit: the offsets section stores u64 entries instead of u32.
pub const FLAG_WIDE_OFFSETS: u32 = 1 << 1;

const KNOWN_FLAGS: u32 = FLAG_SORTED | FLAG_WIDE_OFFSETS;

/// Entry width of the offsets section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffsetsWidth {
    /// 4-byte offset entries; sufficient while every offset fits a `u32`.
    U32,
    /// 8-byte offset entries; required once offsets exceed `u32::MAX`.
    U64,
}

impl OffsetsWidth {
    /// Bytes per offset entry.
    #[inline]
    pub fn bytes(self) -> usize {
        match self {
            OffsetsWidth::U32 => 4,
            OffsetsWidth::U64 => 8,
        }
    }
}

/// The index-width rule: offsets are stored as `u64` iff the directed edge
/// count (the largest value the offsets array must represent) exceeds
/// `u32::MAX`. Adjacency entries are always `u32` because vertex ids are.
#[inline]
pub fn offsets_width(num_directed_edges: u64) -> OffsetsWidth {
    if num_directed_edges > u32::MAX as u64 {
        OffsetsWidth::U64
    } else {
        OffsetsWidth::U32
    }
}

/// The parsed fixed-size header of a binary CSR graph file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Format version: 1, 2 or 3 ([`FORMAT_VERSION`], the one writers
    /// emit).
    pub version: u32,
    /// Whether every adjacency list is sorted ascending.
    pub sorted: bool,
    /// Entry width of the offsets section.
    pub width: OffsetsWidth,
    /// Number of vertices.
    pub num_vertices: u64,
    /// Number of directed adjacency entries.
    pub num_directed_edges: u64,
    /// Number of distinct undirected, non-loop edges.
    pub num_canonical_edges: u64,
    /// Checksum over the offsets and adjacency sections: the lane checksum
    /// in version 3, byte FNV-1a 64 in versions 1 and 2.
    pub checksum: u64,
}

impl Header {
    /// Byte length of the offsets section this header describes.
    #[inline]
    pub fn offsets_len(&self) -> usize {
        (self.num_vertices as usize + 1) * self.width.bytes()
    }

    /// Byte length of the adjacency section this header describes.
    #[inline]
    pub fn adjacency_len(&self) -> usize {
        self.num_directed_edges as usize * 4
    }

    /// Byte length of everything before the first section payload: the
    /// 48-byte header alone for version 1, header + section count +
    /// canonical two-entry section table for versions 2 and 3.
    #[inline]
    pub fn prologue_len(&self) -> usize {
        if self.version == FORMAT_VERSION_V1 {
            HEADER_LEN
        } else {
            SECTION_TABLE_POS + 2 * SECTION_ENTRY_LEN
        }
    }

    /// Total file length implied by this header for the canonical writer
    /// layout (the two mandatory sections, in order, nothing else). Files
    /// with additional sections are longer; [`SectionLayout::locate`] is
    /// the authoritative bounds check.
    #[inline]
    pub fn file_len(&self) -> usize {
        self.prologue_len() + self.offsets_len() + self.adjacency_len()
    }

    /// Serialises the header into its 48-byte on-disk form.
    pub fn to_bytes(&self) -> [u8; HEADER_LEN] {
        let mut buf = [0u8; HEADER_LEN];
        buf[0..8].copy_from_slice(&MAGIC);
        buf[8..12].copy_from_slice(&self.version.to_le_bytes());
        let mut flags = 0u32;
        if self.sorted {
            flags |= FLAG_SORTED;
        }
        if self.width == OffsetsWidth::U64 {
            flags |= FLAG_WIDE_OFFSETS;
        }
        buf[12..16].copy_from_slice(&flags.to_le_bytes());
        buf[16..24].copy_from_slice(&self.num_vertices.to_le_bytes());
        buf[24..32].copy_from_slice(&self.num_directed_edges.to_le_bytes());
        buf[32..40].copy_from_slice(&self.num_canonical_edges.to_le_bytes());
        buf[40..48].copy_from_slice(&self.checksum.to_le_bytes());
        buf
    }

    /// Parses and validates a header from the first bytes of a file.
    ///
    /// Rejects wrong magic, unknown versions, unknown flag bits, vertex
    /// counts outside the workspace's `u32` id range, a stored width that
    /// contradicts the width rule, and counts whose implied section sizes
    /// overflow `usize`.
    pub fn parse(bytes: &[u8]) -> Result<Header, GraphError> {
        if bytes.len() < HEADER_LEN {
            return Err(GraphError::Format(format!(
                "file too short for a binary CSR header: {} bytes, need {HEADER_LEN}",
                bytes.len()
            )));
        }
        if bytes[0..8] != MAGIC {
            return Err(GraphError::Format(
                "bad magic: not a binary CSR graph file".to_string(),
            ));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if !(FORMAT_VERSION_V1..=FORMAT_VERSION).contains(&version) {
            return Err(GraphError::Format(format!(
                "unsupported format version {version} (this reader supports \
                 {FORMAT_VERSION_V1} to {FORMAT_VERSION})"
            )));
        }
        let flags = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        if flags & !KNOWN_FLAGS != 0 {
            return Err(GraphError::Format(format!(
                "unknown flag bits {:#x} set",
                flags & !KNOWN_FLAGS
            )));
        }
        let num_vertices = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let num_directed_edges = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
        let num_canonical_edges = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
        let checksum = u64::from_le_bytes(bytes[40..48].try_into().unwrap());
        if num_vertices >= u32::MAX as u64 {
            return Err(GraphError::Format(format!(
                "vertex count {num_vertices} exceeds the u32 vertex-id range"
            )));
        }
        let width = offsets_width(num_directed_edges);
        let stored_wide = flags & FLAG_WIDE_OFFSETS != 0;
        if stored_wide != (width == OffsetsWidth::U64) {
            return Err(GraphError::Format(format!(
                "offsets width flag (wide={stored_wide}) contradicts the width rule for \
                 {num_directed_edges} directed edges"
            )));
        }
        // Guard the usize arithmetic in the section-length accessors on
        // 32-bit hosts; 64-bit hosts cannot overflow here.
        let prologue = if version == FORMAT_VERSION_V1 {
            HEADER_LEN
        } else {
            SECTION_TABLE_POS + 2 * SECTION_ENTRY_LEN
        };
        let implied = (num_vertices + 1)
            .checked_mul(width.bytes() as u64)
            .and_then(|o| num_directed_edges.checked_mul(4).map(|a| (o, a)))
            .and_then(|(o, a)| o.checked_add(a))
            .and_then(|s| s.checked_add(prologue as u64));
        match implied {
            Some(total) if total <= usize::MAX as u64 => {}
            _ => {
                return Err(GraphError::Format(
                    "section sizes implied by header overflow this platform".to_string(),
                ));
            }
        }
        Ok(Header {
            version,
            sorted: flags & FLAG_SORTED != 0,
            width,
            num_vertices,
            num_directed_edges,
            num_canonical_edges,
            checksum,
        })
    }
}

/// Resolved byte positions of the mandatory section payloads within a
/// binary CSR file — the version seam between the sectionless v1 layout and
/// the section table of versions 2 and 3. The reader ([`MmapCsrGraph`](super::MmapCsrGraph))
/// locates sections through this type and never hardcodes payload
/// positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionLayout {
    /// File offset of the offsets payload.
    pub offsets_pos: usize,
    /// File offset of the adjacency payload (4-aligned).
    pub adjacency_pos: usize,
    /// Total file length implied by every declared section (v2, v3) or the
    /// two implicit sections (v1); must equal the actual file length.
    pub file_len: usize,
}

impl SectionLayout {
    /// Resolves the section payload positions for a parsed header against
    /// the full file bytes.
    ///
    /// Version 1 files place the offsets payload at byte 48 with the
    /// adjacency payload immediately after. Later versions are resolved
    /// through the section table: the two mandatory sections must be
    /// present with exactly the byte lengths the header implies, the
    /// adjacency payload must be 4-aligned, every declared section (known
    /// or not) must lie within the file, and the file must end where its
    /// last section does. Unknown section ids are skipped — they are the
    /// format's forward-compatible extension point.
    pub fn locate(header: &Header, bytes: &[u8]) -> Result<SectionLayout, GraphError> {
        if header.version == FORMAT_VERSION_V1 {
            let layout = SectionLayout {
                offsets_pos: HEADER_LEN,
                adjacency_pos: HEADER_LEN + header.offsets_len(),
                file_len: HEADER_LEN + header.offsets_len() + header.adjacency_len(),
            };
            if bytes.len() != layout.file_len {
                return Err(GraphError::Format(format!(
                    "file length {} does not match the {} bytes implied by the v1 header \
                     (truncated or trailing garbage)",
                    bytes.len(),
                    layout.file_len
                )));
            }
            return Ok(layout);
        }
        if bytes.len() < SECTION_TABLE_POS {
            return Err(GraphError::Format(format!(
                "file too short for a section table: {} bytes",
                bytes.len()
            )));
        }
        let count = u32::from_le_bytes(
            bytes[SECTION_COUNT_POS..SECTION_COUNT_POS + 4]
                .try_into()
                .unwrap(),
        ) as usize;
        let table_end = SECTION_TABLE_POS
            .checked_add(count.checked_mul(SECTION_ENTRY_LEN).ok_or_else(|| {
                GraphError::Format(format!("section count {count} overflows the table size"))
            })?)
            .filter(|&end| end <= bytes.len())
            .ok_or_else(|| {
                GraphError::Format(format!(
                    "section table ({count} entries) extends past the end of the file"
                ))
            })?;
        let mut offsets_pos = None;
        let mut adjacency_pos = None;
        let mut file_len = table_end;
        for entry in bytes[SECTION_TABLE_POS..table_end].chunks_exact(SECTION_ENTRY_LEN) {
            let id = u64::from_le_bytes(entry[0..8].try_into().unwrap());
            let pos = u64::from_le_bytes(entry[8..16].try_into().unwrap());
            let len = u64::from_le_bytes(entry[16..24].try_into().unwrap());
            let end = pos
                .checked_add(len)
                .filter(|&end| end <= bytes.len() as u64)
                .ok_or_else(|| {
                    GraphError::Format(format!(
                        "section {id} ({pos}+{len} bytes) extends past the end of the file"
                    ))
                })?;
            if (pos as usize) < table_end {
                return Err(GraphError::Format(format!(
                    "section {id} payload at {pos} overlaps the section table"
                )));
            }
            file_len = file_len.max(end as usize);
            match id {
                SECTION_OFFSETS => {
                    if len as usize != header.offsets_len() {
                        return Err(GraphError::Format(format!(
                            "offsets section is {len} bytes, header implies {}",
                            header.offsets_len()
                        )));
                    }
                    offsets_pos = Some(pos as usize);
                }
                SECTION_ADJACENCY => {
                    if len as usize != header.adjacency_len() {
                        return Err(GraphError::Format(format!(
                            "adjacency section is {len} bytes, header implies {}",
                            header.adjacency_len()
                        )));
                    }
                    if pos % 4 != 0 {
                        return Err(GraphError::Format(format!(
                            "adjacency section at {pos} is not 4-aligned"
                        )));
                    }
                    adjacency_pos = Some(pos as usize);
                }
                // Unknown ids are the forward-compatible extension point.
                _ => {}
            }
        }
        let offsets_pos = offsets_pos.ok_or_else(|| {
            GraphError::Format("section table is missing the offsets section".to_string())
        })?;
        let adjacency_pos = adjacency_pos.ok_or_else(|| {
            GraphError::Format("section table is missing the adjacency section".to_string())
        })?;
        if bytes.len() != file_len {
            return Err(GraphError::Format(format!(
                "file length {} does not match the {file_len} bytes implied by the section \
                 table (truncated or trailing garbage)",
                bytes.len()
            )));
        }
        Ok(SectionLayout {
            offsets_pos,
            adjacency_pos,
            file_len,
        })
    }
}

/// Incremental FNV-1a 64 hasher: the sections checksum of versions 1 and
/// 2, and the mix behind [`content_hash`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// FNV-1a's step: xor the input in, then multiply by the prime.
    #[inline]
    fn step(h: u64, input: u64) -> u64 {
        (h ^ input).wrapping_mul(Self::PRIME)
    }

    #[inline]
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        self.0 = bytes
            .iter()
            .fold(self.0, |h, &b| Self::step(h, u64::from(b)));
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Accumulators of the version 3 lane checksum.
const LANES: usize = 8;

/// The version 3 sections checksum (module docs): FNV-1a's step fed one
/// `u32` word at a time, word `i` into lane `i mod 8`, the lanes folded in
/// order. The eight chains do not depend on each other, so their
/// multiplies overlap where byte FNV-1a waits on every one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneHash {
    lanes: [u64; LANES],
    /// The lane the next word goes to.
    next: usize,
}

impl LaneHash {
    pub(crate) fn new() -> Self {
        LaneHash {
            lanes: [Fnv1a::OFFSET_BASIS; LANES],
            next: 0,
        }
    }

    /// Hashes `words` as the next words of the stream.
    pub(crate) fn update_words(&mut self, words: &[u32]) {
        self.absorb(words, |&w| w);
    }

    /// Hashes `bytes`, a whole number of little-endian `u32` words, as the
    /// next words of the stream.
    pub(crate) fn update_le_bytes(&mut self, bytes: &[u8]) {
        let (words, partial) = bytes.as_chunks::<4>();
        assert!(partial.is_empty(), "the checksum reads whole words");
        self.absorb(words, |&b| u32::from_le_bytes(b));
    }

    /// Feeds words one by one up to a lane-0 boundary, then eight at a
    /// time with the lanes in locals, then the rest one by one.
    #[inline]
    fn absorb<T>(&mut self, items: &[T], word: impl Fn(&T) -> u32) {
        let head = items.len().min((LANES - self.next) % LANES);
        let (head, body) = items.split_at(head);
        let (blocks, tail) = body.as_chunks::<LANES>();
        head.iter().for_each(|w| self.push(word(w)));
        let mut lanes = self.lanes;
        for block in blocks {
            for (h, w) in lanes.iter_mut().zip(block) {
                *h = Fnv1a::step(*h, u64::from(word(w)));
            }
        }
        self.lanes = lanes;
        tail.iter().for_each(|w| self.push(word(w)));
    }

    #[inline]
    fn push(&mut self, w: u32) {
        self.lanes[self.next] = Fnv1a::step(self.lanes[self.next], u64::from(w));
        self.next = (self.next + 1) % LANES;
    }

    pub(crate) fn finish(&self) -> u64 {
        self.lanes
            .iter()
            .fold(Fnv1a::OFFSET_BASIS, |h, &lane| Fnv1a::step(h, lane))
    }
}

/// The version 3 checksum of an offsets payload, as the file stores it,
/// followed by an adjacency section.
pub(crate) fn checksum_sections(offsets: &[u8], adjacency: &[u32]) -> u64 {
    let mut hash = LaneHash::new();
    hash.update_le_bytes(offsets);
    hash.update_words(adjacency);
    hash.finish()
}

/// An offsets section as the file stores it: every entry little-endian at
/// `width`.
pub(crate) fn offsets_section(
    offsets: impl ExactSizeIterator<Item = u64>,
    width: OffsetsWidth,
) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(offsets.len() * width.bytes());
    match width {
        OffsetsWidth::U32 => {
            for o in offsets {
                bytes.extend_from_slice(&narrow_index(o as usize).to_le_bytes());
            }
        }
        OffsetsWidth::U64 => {
            for o in offsets {
                bytes.extend_from_slice(&o.to_le_bytes());
            }
        }
    }
    bytes
}

/// A graph's offsets section as the file stores it.
fn graph_offsets_section(graph: GraphRef<'_>, width: OffsetsWidth) -> Vec<u8> {
    offsets_section(graph.offsets().iter().map(|&o| o as u64), width)
}

/// Quick check whether `bytes` begin with the binary CSR magic. Used for
/// `--format auto` detection on graph-loading paths.
#[inline]
pub fn is_binary_header(bytes: &[u8]) -> bool {
    bytes.len() >= 8 && bytes[0..8] == MAGIC
}

/// Content hash of a graph: FNV-1a 64 over the vertex count, the directed
/// adjacency-entry count and the version 3 sections checksum of the
/// graph's canonical binary CSR encoding. Two graphs hash equal exactly
/// when their binary CSR files would be byte-identical, whatever
/// representation they currently live in — so the hash is a
/// storage-independent identity for "the same graph bytes", usable as a
/// cache key by serving layers.
///
/// This pays one `O(V + E)` checksum pass — the same pass `write_binary`
/// (and therefore `chordal convert`) performs, so the hash of a parsed text
/// file equals the hash of its converted binary. For a binary file the
/// **zero-parse** path is [`content_hash_from_header`]: every input is
/// already in the 48-byte header, so hashing costs no page faults.
pub fn content_hash<'a>(graph: impl Into<GraphRef<'a>>) -> u64 {
    let graph = graph.into();
    let offsets = graph_offsets_section(graph, offsets_width(graph.num_directed_edges() as u64));
    content_hash_parts(
        graph.num_vertices() as u64,
        graph.num_directed_edges() as u64,
        checksum_sections(&offsets, graph.adjacency()),
    )
}

/// [`content_hash`] computed from a parsed binary CSR [`Header`] alone —
/// the zero-parse path: a serving layer can derive the cache key of a
/// binary graph file from its first 48 bytes, without touching the offsets
/// or adjacency sections. The `checksum` header field is the value
/// `chordal convert --verify` validates, so a verified conversion pins the
/// cache key. For a version 3 file the key equals [`content_hash`] of its
/// graph; a v1 or v2 file keeps the key of its byte-FNV checksum
/// (module docs, "Checksum stability").
pub fn content_hash_from_header(header: &Header) -> u64 {
    content_hash_parts(
        header.num_vertices,
        header.num_directed_edges,
        header.checksum,
    )
}

/// The shared mix behind [`content_hash`]/[`content_hash_from_header`]:
/// FNV-1a 64 over the three little-endian u64 identity fields.
fn content_hash_parts(num_vertices: u64, num_directed_edges: u64, checksum: u64) -> u64 {
    let mut hasher = Fnv1a::new();
    hasher.update(&num_vertices.to_le_bytes());
    hasher.update(&num_directed_edges.to_le_bytes());
    hasher.update(&checksum.to_le_bytes());
    hasher.finish()
}

/// Serialises the canonical section table for a header: the two
/// mandatory sections, offsets first, packed immediately after the table.
/// Shared by [`write_binary`] and the streaming converter so both emit
/// byte-identical prologues.
pub(crate) fn section_table_bytes(header: &Header) -> Vec<u8> {
    let prologue = SECTION_TABLE_POS + 2 * SECTION_ENTRY_LEN;
    let offsets_pos = prologue as u64;
    let adjacency_pos = offsets_pos + header.offsets_len() as u64;
    let mut buf = Vec::with_capacity(prologue - HEADER_LEN);
    buf.extend_from_slice(&2u32.to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes());
    for (id, pos, len) in [
        (SECTION_OFFSETS, offsets_pos, header.offsets_len() as u64),
        (
            SECTION_ADJACENCY,
            adjacency_pos,
            header.adjacency_len() as u64,
        ),
    ] {
        buf.extend_from_slice(&id.to_le_bytes());
        buf.extend_from_slice(&pos.to_le_bytes());
        buf.extend_from_slice(&len.to_le_bytes());
    }
    buf
}

/// Writes a graph in the binary CSR format (version 3). The checksum lives
/// in the header, before the data it covers, so the offsets section is
/// encoded once and hashed with the adjacency before anything is written.
pub fn write_binary<'a, W: Write>(
    graph: impl Into<GraphRef<'a>>,
    writer: W,
) -> Result<(), GraphError> {
    let graph = graph.into();
    let width = offsets_width(graph.num_directed_edges() as u64);
    let offsets = graph_offsets_section(graph, width);
    let header = Header {
        version: FORMAT_VERSION,
        sorted: graph.is_sorted(),
        width,
        num_vertices: graph.num_vertices() as u64,
        num_directed_edges: graph.num_directed_edges() as u64,
        num_canonical_edges: graph.num_canonical_edges() as u64,
        checksum: checksum_sections(&offsets, graph.adjacency()),
    };
    let mut w = std::io::BufWriter::new(writer);
    w.write_all(&header.to_bytes())?;
    w.write_all(&section_table_bytes(&header))?;
    w.write_all(&offsets)?;
    for &nb in graph.adjacency() {
        w.write_all(&nb.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Writes a graph in the binary CSR format to a file path.
pub fn write_binary_file<'a, P: AsRef<Path>>(
    graph: impl Into<GraphRef<'a>>,
    path: P,
) -> Result<(), GraphError> {
    let file = std::fs::File::create(path)?;
    write_binary(graph, file)
}

/// Decodes the offsets section at the start of `bytes` into `usize`
/// entries, checking that they start at 0, never decrease and end at the
/// header's directed edge count. `O(V)`; called by
/// [`MmapCsrGraph::open`](super::MmapCsrGraph::open).
pub(crate) fn decode_offsets(header: &Header, bytes: &[u8]) -> Result<Vec<usize>, GraphError> {
    let mut offsets = Vec::with_capacity(header.num_vertices as usize + 1);
    let mut prev = 0usize;
    for (i, chunk) in bytes[..header.offsets_len()]
        .chunks_exact(header.width.bytes())
        .enumerate()
    {
        let entry = match header.width {
            OffsetsWidth::U32 => u64::from(u32::from_le_bytes(chunk.try_into().unwrap())),
            OffsetsWidth::U64 => u64::from_le_bytes(chunk.try_into().unwrap()),
        };
        let cur = usize::try_from(entry)
            .map_err(|_| GraphError::Format(format!("offset {entry} overflows usize")))?;
        if cur < prev {
            return Err(GraphError::Format(format!(
                "offsets must be non-decreasing (offset {i} is {cur}, previous {prev})"
            )));
        }
        offsets.push(cur);
        prev = cur;
    }
    if offsets[0] != 0 {
        return Err(GraphError::Format(
            "offsets section must start at 0".to_string(),
        ));
    }
    if prev as u64 != header.num_directed_edges {
        return Err(GraphError::Format(format!(
            "last offset {prev} does not match the directed edge count {}",
            header.num_directed_edges
        )));
    }
    Ok(offsets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrGraph, MmapCsrGraph};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Reads `bytes` as production does: [`MmapCsrGraph::open`] on a file
    /// holding them, then [`MmapCsrGraph::verify_checksum`].
    fn read_mapped(bytes: &[u8]) -> Result<CsrGraph, GraphError> {
        // Tests run concurrently; each read gets a file of its own.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "chordal_format_{}_{}.bin",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::write(&path, bytes)?;
        let read = MmapCsrGraph::open(&path).and_then(|mapped| {
            mapped.verify_checksum()?;
            Ok(mapped.view().to_csr_graph())
        });
        let _ = std::fs::remove_file(&path);
        read
    }

    fn sample() -> CsrGraph {
        CsrGraph::from_canonical_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    }

    /// Canonical prologue length of a v2 or v3 file with the two mandatory
    /// sections: header + section count + padding + two table entries.
    const V2_PROLOGUE: usize = HEADER_LEN + 8 + 2 * SECTION_ENTRY_LEN;

    /// The two section payloads of an encoded file, offsets first.
    fn payloads(bytes: &[u8]) -> (&[u8], &[u8]) {
        let h = Header::parse(bytes).unwrap();
        let layout = SectionLayout::locate(&h, bytes).unwrap();
        (
            &bytes[layout.offsets_pos..layout.offsets_pos + h.offsets_len()],
            &bytes[layout.adjacency_pos..layout.adjacency_pos + h.adjacency_len()],
        )
    }

    /// Byte FNV-1a over a file's section payloads: the v1 and v2 seal.
    fn byte_fnv_seal(bytes: &[u8]) -> u64 {
        let (offsets, adjacency) = payloads(bytes);
        let mut hasher = Fnv1a::new();
        hasher.update(offsets);
        hasher.update(adjacency);
        hasher.finish()
    }

    /// The lane checksum over a file's section payloads: the v3 seal.
    fn lane_seal(bytes: &[u8]) -> u64 {
        let (offsets, adjacency) = payloads(bytes);
        let mut hasher = LaneHash::new();
        hasher.update_le_bytes(offsets);
        hasher.update_le_bytes(adjacency);
        hasher.finish()
    }

    /// A copy of a sectioned file with `version` stamped and `checksum`
    /// written into its header.
    fn restamped(bytes: &[u8], version: u32, checksum: u64) -> Vec<u8> {
        let mut copy = bytes.to_vec();
        copy[8..12].copy_from_slice(&version.to_le_bytes());
        copy[40..48].copy_from_slice(&checksum.to_le_bytes());
        copy
    }

    /// Re-encodes a canonical v3 buffer as the equivalent legacy v1 file:
    /// same header with version 1 stamped and the payloads re-sealed with
    /// byte FNV-1a, section table dropped, payloads immediately after the
    /// header.
    fn downgrade_to_v1(v3: &[u8]) -> Vec<u8> {
        let mut v1 = restamped(v3, FORMAT_VERSION_V1, byte_fnv_seal(v3));
        v1.drain(HEADER_LEN..V2_PROLOGUE);
        v1
    }

    #[test]
    fn width_rule_boundary() {
        assert_eq!(offsets_width(0), OffsetsWidth::U32);
        assert_eq!(offsets_width(u32::MAX as u64), OffsetsWidth::U32);
        assert_eq!(offsets_width(u32::MAX as u64 + 1), OffsetsWidth::U64);
        assert_eq!(OffsetsWidth::U32.bytes(), 4);
        assert_eq!(OffsetsWidth::U64.bytes(), 8);
    }

    #[test]
    fn write_read_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(buf.len(), V2_PROLOGUE + 4 * 6 + 4 * g.num_directed_edges());
        let g2 = read_mapped(&buf).unwrap();
        assert_eq!(g, g2);
        assert_eq!(g2.num_canonical_edges(), g.num_canonical_edges());
    }

    #[test]
    fn v1_files_still_load() {
        let g = sample();
        let mut v2 = Vec::new();
        write_binary(&g, &mut v2).unwrap();
        let v1 = downgrade_to_v1(&v2);
        let h = Header::parse(&v1).unwrap();
        assert_eq!(h.version, FORMAT_VERSION_V1);
        assert_eq!(h.prologue_len(), HEADER_LEN);
        assert_eq!(h.file_len(), v1.len());
        let layout = SectionLayout::locate(&h, &v1).unwrap();
        assert_eq!(layout.offsets_pos, HEADER_LEN);
        assert_eq!(layout.adjacency_pos, HEADER_LEN + h.offsets_len());
        assert_eq!(read_mapped(&v1).unwrap(), g);
        // A truncated v1 file is still rejected.
        assert!(read_mapped(&v1[..v1.len() - 2]).is_err());
    }

    #[test]
    fn checksum_and_content_hash_stable_across_versions() {
        let g = sample();
        let mut v3 = Vec::new();
        write_binary(&g, &mut v3).unwrap();
        let v1 = downgrade_to_v1(&v3);
        let v2 = restamped(&v3, FORMAT_VERSION_V2, byte_fnv_seal(&v3));
        let h1 = Header::parse(&v1).unwrap();
        let h2 = Header::parse(&v2).unwrap();
        let h3 = Header::parse(&v3).unwrap();
        // Byte FNV-1a covers only the payload bytes, so the v1 -> v2 bump
        // did not move serve-tier cache keys.
        assert_eq!(h1.checksum, h2.checksum);
        assert_eq!(content_hash_from_header(&h1), content_hash_from_header(&h2));
        // The v3 key is the graph's content hash; the v2 key is another.
        assert_eq!(content_hash(&g), content_hash_from_header(&h3));
        assert_ne!(content_hash_from_header(&h2), content_hash_from_header(&h3));
    }

    #[test]
    fn lane_checksum_matches_its_known_answers() {
        // Computed by an independent implementation of the module spec.
        assert_eq!(LaneHash::new().finish(), 0x52fc_c39e_bac1_808d);
        let words: Vec<u32> = (0..10).collect();
        let mut h = LaneHash::new();
        h.update_words(&words);
        assert_eq!(h.finish(), 0x68b8_bb0e_e692_7176);
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut h = LaneHash::new();
        h.update_le_bytes(&bytes);
        assert_eq!(h.finish(), 0x68b8_bb0e_e692_7176);
    }

    #[test]
    fn lane_checksum_does_not_depend_on_how_the_stream_is_split() {
        // A lane-by-lane statement of the spec, one word at a time.
        let spec = |words: &[u32]| {
            let step = |h: u64, x: u64| (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
            let mut lanes = [0xcbf2_9ce4_8422_2325u64; 8];
            for (i, &w) in words.iter().enumerate() {
                lanes[i % 8] = step(lanes[i % 8], u64::from(w));
            }
            lanes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &l| step(h, l))
        };
        let words: Vec<u32> = (0..1000u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        let want = spec(&words);
        for piece in [1, 3, 7, 8, 9, 64, 999] {
            let mut by_words = LaneHash::new();
            let mut by_bytes = LaneHash::new();
            for chunk in words.chunks(piece) {
                by_words.update_words(chunk);
                let bytes: Vec<u8> = chunk.iter().flat_map(|w| w.to_le_bytes()).collect();
                by_bytes.update_le_bytes(&bytes);
            }
            assert_eq!(by_words.finish(), want, "pieces of {piece} words");
            assert_eq!(by_bytes.finish(), want, "pieces of {piece} words as bytes");
        }
    }

    #[test]
    fn every_flipped_section_byte_fails_verification() {
        let g = sample();
        let mut v3 = Vec::new();
        write_binary(&g, &mut v3).unwrap();
        let seal = lane_seal(&v3);
        let h = Header::parse(&v3).unwrap();
        assert_eq!(h.checksum, seal);
        let adjacency_pos = V2_PROLOGUE + h.offsets_len();
        for at in V2_PROLOGUE..v3.len() {
            let mut copy = v3.clone();
            copy[at] ^= 0xff;
            // The checksum itself moves, whatever the check that fires.
            assert_ne!(lane_seal(&copy), seal, "byte {at}");
            let err = read_mapped(&copy).unwrap_err();
            // Opening never reads the adjacency, so only the checksum can
            // refuse a flip there; an offsets flip may fail the decode.
            if at >= adjacency_pos {
                assert!(
                    err.to_string().contains("checksum mismatch"),
                    "byte {at}: {err}"
                );
            }
        }
    }

    #[test]
    fn a_v2_copy_verifies_and_keeps_its_byte_fnv_key() {
        let g = sample();
        let mut v3 = Vec::new();
        write_binary(&g, &mut v3).unwrap();
        let v2 = restamped(&v3, FORMAT_VERSION_V2, byte_fnv_seal(&v3));
        assert_eq!(read_mapped(&v2).unwrap(), g);
        let h = Header::parse(&v2).unwrap();
        assert_eq!(h.version, FORMAT_VERSION_V2);
        assert_eq!(
            content_hash_from_header(&h),
            content_hash_parts(5, 10, byte_fnv_seal(&v3))
        );
    }

    #[test]
    fn cross_sealed_copies_are_refused() {
        let g = sample();
        let mut v3 = Vec::new();
        write_binary(&g, &mut v3).unwrap();
        for copy in [
            restamped(&v3, FORMAT_VERSION, byte_fnv_seal(&v3)),
            restamped(&v3, FORMAT_VERSION_V2, lane_seal(&v3)),
        ] {
            let err = read_mapped(&copy).unwrap_err();
            assert!(err.to_string().contains("checksum mismatch"), "{err}");
        }
    }

    #[test]
    fn unknown_sections_are_ignored() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Append an unknown cold-extension section and register it in the
        // table: count 2 -> 3, one more entry, payloads shifted by 24.
        let shift = SECTION_ENTRY_LEN as u64;
        let mut extended = Vec::new();
        extended.extend_from_slice(&buf[..HEADER_LEN]);
        extended.extend_from_slice(&3u32.to_le_bytes());
        extended.extend_from_slice(&0u32.to_le_bytes());
        let h = Header::parse(&buf).unwrap();
        let payload_len = h.offsets_len() + h.adjacency_len();
        let cold = [0xabu8; 8];
        for (id, pos, len) in [
            (
                SECTION_OFFSETS,
                V2_PROLOGUE as u64 + shift,
                h.offsets_len() as u64,
            ),
            (
                SECTION_ADJACENCY,
                V2_PROLOGUE as u64 + shift + h.offsets_len() as u64,
                h.adjacency_len() as u64,
            ),
            (
                0xdead_beef,
                V2_PROLOGUE as u64 + shift + payload_len as u64,
                cold.len() as u64,
            ),
        ] {
            extended.extend_from_slice(&id.to_le_bytes());
            extended.extend_from_slice(&pos.to_le_bytes());
            extended.extend_from_slice(&len.to_le_bytes());
        }
        extended.extend_from_slice(&buf[V2_PROLOGUE..]);
        extended.extend_from_slice(&cold);
        assert_eq!(read_mapped(&extended).unwrap(), g);
    }

    #[test]
    fn rejects_missing_mandatory_section() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Rename the adjacency section to an unknown id: the table is still
        // well-formed, but the mandatory section is gone.
        let entry = SECTION_TABLE_POS + SECTION_ENTRY_LEN;
        buf[entry..entry + 8].copy_from_slice(&0x7777u64.to_le_bytes());
        let err = read_mapped(&buf).unwrap_err();
        assert!(err.to_string().contains("missing the adjacency"), "{err}");
    }

    #[test]
    fn rejects_bad_section_table() {
        let g = sample();
        let base = {
            let mut buf = Vec::new();
            write_binary(&g, &mut buf).unwrap();
            buf
        };
        // Section count far past the end of the file.
        let mut buf = base.clone();
        buf[SECTION_COUNT_POS..SECTION_COUNT_POS + 4].copy_from_slice(&1000u32.to_le_bytes());
        assert!(read_mapped(&buf)
            .unwrap_err()
            .to_string()
            .contains("section table"));
        // Offsets section length that contradicts the header.
        let mut buf = base.clone();
        buf[SECTION_TABLE_POS + 16..SECTION_TABLE_POS + 24].copy_from_slice(&3u64.to_le_bytes());
        assert!(read_mapped(&buf).is_err());
        // Section payload overlapping the table.
        let mut buf = base.clone();
        buf[SECTION_TABLE_POS + 8..SECTION_TABLE_POS + 16].copy_from_slice(&8u64.to_le_bytes());
        assert!(read_mapped(&buf)
            .unwrap_err()
            .to_string()
            .contains("overlaps"));
        // Misaligned adjacency payload (also breaks the length check order:
        // keep len correct, move pos by 2).
        let mut buf = base.clone();
        let entry = SECTION_TABLE_POS + SECTION_ENTRY_LEN;
        let pos = u64::from_le_bytes(buf[entry + 8..entry + 16].try_into().unwrap());
        buf[entry + 8..entry + 16].copy_from_slice(&(pos + 2).to_le_bytes());
        assert!(read_mapped(&buf).is_err());
    }

    #[test]
    fn content_hash_is_representation_independent() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let header = Header::parse(&buf).unwrap();
        // Heap graph, parsed header, and decoded copy all agree on the key.
        assert_eq!(content_hash(&g), content_hash_from_header(&header));
        assert_eq!(content_hash(&g), content_hash(&read_mapped(&buf).unwrap()));
        // A different graph (one edge dropped) must not collide.
        let other = CsrGraph::from_canonical_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3)]);
        assert_ne!(content_hash(&g), content_hash(&other));
        // Same edges, different vertex count: different identity.
        let padded = CsrGraph::from_canonical_edges(6, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]);
        assert_ne!(content_hash(&g), content_hash(&padded));
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = CsrGraph::empty(0);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_mapped(&buf).unwrap();
        assert_eq!(g, g2);
        let g = CsrGraph::empty(7);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(read_mapped(&buf).unwrap(), g);
    }

    #[test]
    fn header_roundtrips_and_preserves_counts() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let h = Header::parse(&buf).unwrap();
        assert_eq!(h.version, FORMAT_VERSION);
        assert!(h.sorted);
        assert_eq!(h.width, OffsetsWidth::U32);
        assert_eq!(h.num_vertices, 5);
        assert_eq!(h.num_directed_edges, 10);
        assert_eq!(h.num_canonical_edges, 5);
        assert_eq!(h.file_len(), buf.len());
        assert_eq!(Header::parse(&h.to_bytes()).unwrap(), h);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        buf[0] = b'X';
        let err = read_mapped(&buf).unwrap_err();
        assert!(matches!(err, GraphError::Format(_)), "{err:?}");
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        buf[8..12].copy_from_slice(&99u32.to_le_bytes());
        let err = read_mapped(&buf).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn rejects_unknown_flags() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        buf[12..16].copy_from_slice(&(KNOWN_FLAGS | 0x80).to_le_bytes());
        assert!(read_mapped(&buf).is_err());
    }

    #[test]
    fn rejects_truncated_file() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_mapped(&buf).unwrap_err();
        assert!(err.to_string().contains("past the end"), "{err}");
        // Truncation into the header itself.
        let err = read_mapped(&buf[..20]).unwrap_err();
        assert!(err.to_string().contains("too short"), "{err}");
    }

    #[test]
    fn rejects_corrupted_payload() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xff;
        let err = read_mapped(&buf).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn detects_binary_header() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        assert!(is_binary_header(&buf));
        assert!(!is_binary_header(b"# vertices 5"));
        assert!(!is_binary_header(b"CHRDL"));
    }

    #[test]
    fn unsorted_flag_survives_roundtrip() {
        let g = sample().with_scrambled_adjacency(11);
        assert!(!g.is_sorted());
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert!(!Header::parse(&buf).unwrap().sorted);
        let g2 = read_mapped(&buf).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut h = Fnv1a::new();
        h.update(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.update(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }
}
