//! The content-hash graph cache: load once, extract many.
//!
//! Entries are keyed by [`chordal_graph::storage::content_hash`] — a
//! storage-independent identity of the graph bytes (see the crate docs for
//! how the key relates to `chordal convert` checksums). Loading is built
//! directly on [`chordal_graph::storage::load_graph`], so a binary file
//! becomes an [`MmapCsrGraph`](chordal_graph::storage::MmapCsrGraph)
//! handle whose pages the kernel shares between every session extracting
//! from it concurrently — the cache hands out `Arc<LoadedGraph>` clones,
//! never copies.
//!
//! Two properties matter for the serving path:
//!
//! * **Zero-parse hits for binary files.** Resolving a path whose file is
//!   binary CSR reads 48 header bytes and derives the content hash from
//!   them. A hit through a path the entry has already verified never opens
//!   the data sections at all. A text file must be parsed once to learn
//!   its hash; after that it shares the entry with any binary copy of the
//!   same graph.
//! * **Bounded residency.** The cache tracks an estimate of each entry's
//!   resident bytes (file length for mapped graphs, array footprint for
//!   heap graphs) and evicts least-recently-used entries whenever the
//!   total exceeds the byte budget. A single graph larger than the whole
//!   budget is still admitted (the budget bounds the *cache*, it does not
//!   forbid serving big graphs) and becomes the first eviction candidate.
//!   Eviction drops the cache's `Arc`; sessions mid-extraction on the
//!   evicted graph keep it alive through theirs until they finish.
//! * **Verified admission.** A binary file must pass its stored section
//!   checksum (the lane checksum of format v3, byte FNV-1a for v1 and v2)
//!   before it is admitted: `load_graph` validates
//!   structure only (offsets monotone, counts consistent), so a bit flip
//!   in the adjacency section would otherwise be served silently forever.
//!   A failed check quarantines the entry — any resident copy under the
//!   header-claimed hash is evicted, the `corruptions` counter is bumped,
//!   and the caller gets [`CacheError::Corrupt`] (the wire `corrupt` code)
//!   instead of garbage bytes. The header only *claims* a checksum, so a
//!   damaged copy of a resident graph claims the resident key. Each entry
//!   therefore records the paths whose files it verified: a hit through
//!   one of them skips re-verification, and a hit through any other path
//!   maps that file and verifies it first, answering `corrupt` (with the
//!   same quarantine) when the check fails.

use chordal_graph::storage::{
    content_hash, content_hash_from_header, detect_format, load_graph, FileFormat, Header,
    LoadedGraph,
};
use chordal_graph::GraphError;
use std::collections::HashMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Why a cache resolution failed.
#[derive(Debug)]
pub enum CacheError {
    /// Reading or decoding the graph file failed before any checksum work.
    Io(GraphError),
    /// The file's data sections do not hash to the checksum its header
    /// claims. The entry was quarantined: any resident copy under the
    /// claimed content hash was evicted and the corruption counter bumped.
    Corrupt {
        /// The content hash the (untrusted) header claimed.
        claimed_hash: u64,
        /// What the verification found.
        message: String,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "{e}"),
            CacheError::Corrupt {
                claimed_hash,
                message,
            } => {
                write!(f, "graph {claimed_hash:016x} is corrupt: {message}")
            }
        }
    }
}

impl From<GraphError> for CacheError {
    fn from(e: GraphError) -> Self {
        CacheError::Io(e)
    }
}

/// Counters and occupancy of a [`GraphCache`], as one consistent snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Entries currently resident.
    pub entries: usize,
    /// Estimated resident bytes across all entries.
    pub resident_bytes: usize,
    /// The configured byte budget.
    pub budget_bytes: usize,
    /// Lookups that found the graph resident.
    pub hits: u64,
    /// Lookups that had to load from disk (or missed a `graph=` key).
    pub misses: u64,
    /// Entries evicted to keep residency within budget.
    pub evictions: u64,
    /// Checksum failures detected on admission (each one quarantined).
    pub corruptions: u64,
}

// The `STATS` reply's `cache` object, in the documented field order.
crate::impl_to_json!(CacheStats {
    entries,
    resident_bytes,
    budget_bytes,
    hits,
    misses,
    evictions,
    corruptions
});

/// One resident graph.
struct Entry {
    graph: Arc<LoadedGraph>,
    bytes: usize,
    last_used: u64,
    /// The paths whose files were verified (or parsed) into this entry.
    verified: Vec<PathBuf>,
}

/// What a binary path's header key finds in the cache.
enum Resident {
    /// The entry, reached through a path it has verified.
    Verified(Arc<LoadedGraph>),
    /// An entry that has not verified this path's file.
    Unverified,
    /// No entry.
    Absent,
}

/// Mutable cache state behind the one lock.
struct Inner {
    map: HashMap<u64, Entry>,
    resident_bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    corruptions: u64,
}

/// A bounded, shared, content-hash-keyed graph cache.
pub struct GraphCache {
    inner: Mutex<Inner>,
    budget_bytes: usize,
    /// Fault injection: the next N admissions are treated as corrupt.
    #[cfg(any(test, feature = "fault-injection"))]
    armed_corruptions: std::sync::atomic::AtomicU64,
}

/// Estimated resident footprint of a loaded graph: the mapped file length
/// for mmap-backed graphs (what the page cache can charge us), the offset +
/// adjacency array footprint for heap graphs.
fn resident_bytes(graph: &LoadedGraph) -> usize {
    match graph {
        LoadedGraph::Heap(g) => g.memory_breakdown().total_bytes(),
        LoadedGraph::Mapped(m) => m.header().file_len(),
    }
}

/// Reads and parses the 48-byte binary CSR header of `path`, or `None`
/// when the file is not binary (or too short).
fn binary_header(path: &Path) -> Option<Header> {
    let mut file = std::fs::File::open(path).ok()?;
    let mut head = vec![0u8; chordal_graph::storage::format::HEADER_LEN];
    let mut filled = 0;
    while filled < head.len() {
        match file.read(&mut head[filled..]) {
            Ok(0) => return None,
            Ok(n) => filled += n,
            Err(_) => return None,
        }
    }
    Header::parse(&head).ok()
}

impl GraphCache {
    /// Creates an empty cache with the given resident-byte budget.
    pub fn new(budget_bytes: usize) -> Self {
        GraphCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                resident_bytes: 0,
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                corruptions: 0,
            }),
            budget_bytes,
            #[cfg(any(test, feature = "fault-injection"))]
            armed_corruptions: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Fault injection: treat the next `n` path resolutions as corrupt —
    /// each quarantines like a real checksum failure (resident copy
    /// evicted, counter bumped, `corrupt` answered).
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn arm_corruption(&self, n: u64) {
        self.armed_corruptions
            .fetch_add(n, std::sync::atomic::Ordering::SeqCst);
    }

    /// Consumes one armed forced corruption, if any.
    #[cfg(any(test, feature = "fault-injection"))]
    fn take_armed_corruption(&self) -> bool {
        self.armed_corruptions
            .fetch_update(
                std::sync::atomic::Ordering::SeqCst,
                std::sync::atomic::Ordering::SeqCst,
                |n| n.checked_sub(1),
            )
            .is_ok()
    }

    /// Quarantines `hash`: evicts any resident copy and counts the
    /// corruption. Returns a [`CacheError::Corrupt`] describing it.
    fn quarantine(&self, hash: u64, message: String) -> CacheError {
        let mut inner = self.inner.lock().expect("cache lock");
        if let Some(entry) = inner.map.remove(&hash) {
            inner.resident_bytes -= entry.bytes;
        }
        inner.corruptions += 1;
        CacheError::Corrupt {
            claimed_hash: hash,
            message,
        }
    }

    /// Looks up a resident graph by its content hash, bumping its LRU
    /// position. Counts a hit or a miss.
    pub fn get(&self, hash: u64) -> Option<Arc<LoadedGraph>> {
        match self.resident(hash, None) {
            Resident::Verified(graph) => Some(graph),
            Resident::Unverified | Resident::Absent => None,
        }
    }

    /// Looks up `hash`, through `path` when the key came from that file's
    /// header. A resident entry counts a hit and bumps its LRU position if
    /// it has verified `path` (or no path is given); no entry counts a
    /// miss; an entry that has not verified `path` counts nothing yet,
    /// since the caller verifies the file first.
    fn resident(&self, hash: u64, path: Option<&Path>) -> Resident {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&hash) {
            Some(entry) if path.is_none_or(|path| entry.verified.iter().any(|p| p == path)) => {
                entry.last_used = tick;
                let graph = Arc::clone(&entry.graph);
                inner.hits += 1;
                Resident::Verified(graph)
            }
            Some(_) => Resident::Unverified,
            None => {
                inner.misses += 1;
                Resident::Absent
            }
        }
    }

    /// Resolves a path through the cache: derive the content hash as
    /// cheaply as the format allows, return the resident entry on a hit
    /// through a path it has verified, verify + load + insert +
    /// evict-to-budget on a miss. A binary file whose header names a
    /// resident entry that has not verified its path is loaded and
    /// verified like a miss, then served from the entry as a hit. Returns
    /// the graph, its content hash, and whether the lookup hit.
    pub fn get_or_load(
        &self,
        path: &Path,
        format: Option<FileFormat>,
    ) -> Result<(Arc<LoadedGraph>, u64, bool), CacheError> {
        let format = match format {
            Some(f) => f,
            None => detect_format(path)?,
        };
        // Fault injection: a forced corruption behaves exactly like a real
        // checksum failure on this path — quarantine and answer `corrupt`.
        #[cfg(any(test, feature = "fault-injection"))]
        if self.take_armed_corruption() {
            let hash = if format == FileFormat::Binary {
                binary_header(path)
                    .map(|h| content_hash_from_header(&h))
                    .unwrap_or(0)
            } else {
                0
            };
            return Err(self.quarantine(hash, "injected cache corruption".to_string()));
        }
        // Binary fast path: the content hash is a function of the header,
        // so a resident graph that has verified this path costs one 48-byte
        // read — no section parse, no second mmap. A fast-path lookup that
        // comes up empty already counted the miss; remember that so the
        // slow path below does not count the same resolution twice. An
        // entry that has not verified this path falls through to the
        // checksum below, which serves it as a hit only if the file passes.
        let mut miss_counted = false;
        if format == FileFormat::Binary {
            if let Some(header) = binary_header(path) {
                let hash = content_hash_from_header(&header);
                match self.resident(hash, Some(path)) {
                    Resident::Verified(graph) => return Ok((graph, hash, true)),
                    Resident::Unverified => {}
                    Resident::Absent => miss_counted = true,
                }
            }
        }
        let loaded = load_graph(path, Some(format))?;
        // Admission gate: a mapped binary graph must hash to the checksum
        // its header claims before anything downstream may trust it.
        // `load_graph` validated structure only; this pass covers the data
        // sections a bit flip would silently poison. Once verified, the
        // header also gives the graph its content hash, so a miss pays one
        // O(E) pass, not a second one over the same bytes.
        let hash = match &loaded {
            LoadedGraph::Mapped(m) => {
                let claimed = content_hash_from_header(m.header());
                if let Err(e) = m.verify_checksum() {
                    return Err(self.quarantine(claimed, e.to_string()));
                }
                claimed
            }
            LoadedGraph::Heap(g) => content_hash(g),
        };
        // The load above raced nothing (text files can't know their hash
        // before parsing), so re-check residency before inserting: another
        // session may have loaded the same graph meanwhile, or the entry
        // is resident and this path's file has just been verified for it.
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&hash) {
            entry.last_used = tick;
            if !entry.verified.iter().any(|p| p == path) {
                entry.verified.push(path.to_path_buf());
            }
            let graph = Arc::clone(&entry.graph);
            inner.hits += 1;
            return Ok((graph, hash, true));
        }
        if !miss_counted {
            inner.misses += 1;
        }
        let graph = Arc::new(loaded);
        let bytes = resident_bytes(&graph);
        inner.map.insert(
            hash,
            Entry {
                graph: Arc::clone(&graph),
                bytes,
                last_used: tick,
                verified: vec![path.to_path_buf()],
            },
        );
        inner.resident_bytes += bytes;
        self.evict_to_budget(&mut inner, hash);
        Ok((graph, hash, false))
    }

    /// Evicts least-recently-used entries until residency fits the budget.
    /// The entry named by `keep` (the one just inserted) is evicted only
    /// last — a graph larger than the whole budget still gets served, it
    /// just cannot keep neighbours resident.
    fn evict_to_budget(&self, inner: &mut Inner, keep: u64) {
        while inner.resident_bytes > self.budget_bytes && inner.map.len() > 1 {
            let victim = inner
                .map
                .iter()
                .filter(|(&hash, _)| hash != keep)
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(&hash, _)| hash);
            let Some(victim) = victim else { break };
            if let Some(entry) = inner.map.remove(&victim) {
                inner.resident_bytes -= entry.bytes;
                inner.evictions += 1;
            }
        }
    }

    /// A consistent snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            entries: inner.map.len(),
            resident_bytes: inner.resident_bytes,
            budget_bytes: self.budget_bytes,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            corruptions: inner.corruptions,
        }
    }
}

// Gated out under `chordal_model`: loading drives the real worker pool,
// whose atomics resolve to the checker facade there.
#[cfg(all(test, not(chordal_model)))]
mod tests {
    use super::*;
    use chordal_generators::rmat::{RmatKind, RmatParams};
    use chordal_graph::io::write_edge_list_file;
    use chordal_graph::storage::convert_edge_list_to_binary;
    use std::path::PathBuf;

    struct Scratch(Vec<PathBuf>);

    impl Scratch {
        fn path(&mut self, name: &str) -> PathBuf {
            let p = std::env::temp_dir()
                .join(format!("chordal_serve_cache_{}_{name}", std::process::id()));
            self.0.push(p.clone());
            p
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            for p in &self.0 {
                let _ = std::fs::remove_file(p);
            }
        }
    }

    fn write_pair(scratch: &mut Scratch, tag: &str, scale: u32, seed: u64) -> (PathBuf, PathBuf) {
        let graph = RmatParams::preset(RmatKind::G, scale, seed).generate();
        let txt = scratch.path(&format!("{tag}.txt"));
        let bin = scratch.path(&format!("{tag}.bin"));
        write_edge_list_file(&graph, &txt).unwrap();
        convert_edge_list_to_binary(&txt, &bin).unwrap();
        (txt, bin)
    }

    #[test]
    fn text_and_binary_share_one_entry() {
        let mut scratch = Scratch(Vec::new());
        let (txt, bin) = write_pair(&mut scratch, "share", 7, 11);
        let cache = GraphCache::new(usize::MAX);
        let (_, hash_text, hit_text) = cache.get_or_load(&txt, None).unwrap();
        assert!(!hit_text);
        let (_, hash_bin, hit_bin) = cache.get_or_load(&bin, None).unwrap();
        assert_eq!(hash_text, hash_bin, "one graph, one cache key");
        assert!(hit_bin, "the binary copy must hit the text entry");
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let mut scratch = Scratch(Vec::new());
        let pairs: Vec<_> = (0..3)
            .map(|i| write_pair(&mut scratch, &format!("lru{i}"), 7, 100 + i as u64))
            .collect();
        // Budget sized for roughly two of the three mapped graphs.
        let sizes: Vec<u64> = pairs
            .iter()
            .map(|(_, bin)| std::fs::metadata(bin).unwrap().len())
            .collect();
        let budget = (sizes[0] + sizes[1] + sizes[2] / 2) as usize;
        let cache = GraphCache::new(budget);
        let mut hashes = Vec::new();
        for (_, bin) in &pairs {
            let (_, hash, _) = cache.get_or_load(bin, None).unwrap();
            hashes.push(hash);
        }
        let stats = cache.stats();
        assert!(stats.evictions >= 1, "{stats:?}");
        assert!(stats.resident_bytes <= budget, "{stats:?}");
        // The least recently used entry (the first) is the one gone.
        assert!(cache.get(hashes[0]).is_none());
        assert!(cache.get(hashes[2]).is_some());
    }

    #[test]
    fn corrupt_binary_is_rejected_on_admission_and_never_cached() {
        let mut scratch = Scratch(Vec::new());
        let (_, bin) = write_pair(&mut scratch, "flip", 7, 21);
        // Flip one adjacency byte: the header (and so the claimed content
        // hash) still parses, only the section checksum can catch it.
        let mut bytes = std::fs::read(&bin).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        std::fs::write(&bin, &bytes).unwrap();
        let cache = GraphCache::new(usize::MAX);
        match cache.get_or_load(&bin, None) {
            Err(CacheError::Corrupt { claimed_hash, .. }) => {
                assert_ne!(claimed_hash, 0);
                assert!(
                    cache.get(claimed_hash).is_none(),
                    "a corrupt graph must not become resident"
                );
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!(stats.corruptions, 1);
        assert_eq!(stats.entries, 0);
        // Deterministic: the same file fails the same way.
        assert!(matches!(
            cache.get_or_load(&bin, None),
            Err(CacheError::Corrupt { .. })
        ));
        assert_eq!(cache.stats().corruptions, 2);
    }

    #[test]
    fn a_resident_graph_does_not_vouch_for_a_damaged_copy_at_another_path() {
        let mut scratch = Scratch(Vec::new());
        let (_, bin) = write_pair(&mut scratch, "intact", 7, 23);
        let copy = scratch.path("copy.bin");
        std::fs::copy(&bin, &copy).unwrap();
        // The damaged copy's header still claims the intact graph's key.
        let damaged = scratch.path("damaged.bin");
        let mut bytes = std::fs::read(&bin).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        std::fs::write(&damaged, &bytes).unwrap();
        let cache = GraphCache::new(usize::MAX);
        let (_, hash, hit) = cache.get_or_load(&bin, None).unwrap();
        assert!(!hit);
        // An intact copy at another path passes its check and hits.
        let (_, copy_hash, copy_hit) = cache.get_or_load(&copy, None).unwrap();
        assert_eq!((copy_hash, copy_hit), (hash, true));
        match cache.get_or_load(&damaged, None) {
            Err(CacheError::Corrupt { claimed_hash, .. }) => assert_eq!(claimed_hash, hash),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.corruptions), (1, 1, 1));
        // The quarantine evicted the resident copy under the claimed key;
        // the intact file re-admits it.
        assert_eq!(stats.entries, 0);
        let (_, rehash, hit) = cache.get_or_load(&bin, None).unwrap();
        assert_eq!((rehash, hit), (hash, false));
    }

    #[test]
    fn forced_corruption_quarantines_the_resident_entry_then_readmits() {
        let mut scratch = Scratch(Vec::new());
        let (_, bin) = write_pair(&mut scratch, "armed", 7, 22);
        let cache = GraphCache::new(usize::MAX);
        let (_, hash, _) = cache.get_or_load(&bin, None).unwrap();
        assert!(cache.get(hash).is_some());
        cache.arm_corruption(1);
        match cache.get_or_load(&bin, None) {
            Err(CacheError::Corrupt { claimed_hash, .. }) => assert_eq!(claimed_hash, hash),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(
            cache.get(hash).is_none(),
            "quarantine must evict the resident copy"
        );
        assert_eq!(cache.stats().corruptions, 1);
        // The fault was one-shot: the (healthy) file re-admits cleanly.
        let (_, rehash, hit) = cache.get_or_load(&bin, None).unwrap();
        assert_eq!(rehash, hash);
        assert!(!hit);
    }

    #[test]
    fn oversized_single_graph_is_still_served() {
        let mut scratch = Scratch(Vec::new());
        let (_, bin) = write_pair(&mut scratch, "big", 8, 5);
        let cache = GraphCache::new(1);
        let (graph, hash, hit) = cache.get_or_load(&bin, None).unwrap();
        assert!(!hit);
        assert!(graph.as_graph_ref().num_edges() > 0);
        // Still resident (nothing else to evict), still findable.
        assert!(cache.get(hash).is_some());
    }
}
