//! Out-of-core storage conformance: every extraction algorithm (and the
//! repair post-pass) must produce byte-identical results whether the host
//! graph lives in a heap [`CsrGraph`] or in an mmap-backed
//! [`MmapCsrGraph`](maximal_chordal::graph::MmapCsrGraph) served from the
//! binary CSR file format.
//!
//! The pipeline under test is the real deployment path: generate → write
//! text edge list → stream-convert to binary
//! ([`convert_edge_list_to_binary`]) → mmap-load → extract. CI runs this
//! suite under the `CHORDAL_POOL_THREADS={1,2,8}` matrix, so the
//! storage-agnostic [`GraphRef`](maximal_chordal::graph::GraphRef) seam is
//! exercised by every pool size.

use maximal_chordal::core::repair::repair_maximality;
use maximal_chordal::graph::storage::{
    convert_edge_list_to_binary, detect_format, load_graph, FileFormat, LoadedGraph, MmapCsrGraph,
};
use maximal_chordal::graph::{io::write_edge_list_file, CsrGraph, GraphRef};
use maximal_chordal::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Text + binary on-disk copies of a generated graph, removed on drop.
struct DiskPair {
    txt: std::path::PathBuf,
    bin: std::path::PathBuf,
}

/// Numbers every [`DiskPair`] of the process: tests run concurrently and
/// reuse tags, so the tag alone would let one test overwrite (or delete)
/// another's mapped file.
static NEXT_PAIR: AtomicUsize = AtomicUsize::new(0);

impl DiskPair {
    fn create(tag: &str, graph: &CsrGraph) -> DiskPair {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let id = NEXT_PAIR.fetch_add(1, Ordering::Relaxed);
        let txt = dir.join(format!("chordal_roundtrip_{pid}_{id}_{tag}.txt"));
        let bin = dir.join(format!("chordal_roundtrip_{pid}_{id}_{tag}.bin"));
        write_edge_list_file(graph, &txt).expect("writing text edge list");
        convert_edge_list_to_binary(&txt, &bin).expect("streaming conversion");
        DiskPair { txt, bin }
    }

    fn mmap(&self) -> MmapCsrGraph {
        MmapCsrGraph::open(&self.bin).expect("mmap-loading binary CSR")
    }
}

impl Drop for DiskPair {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.txt);
        let _ = std::fs::remove_file(&self.bin);
    }
}

fn workloads() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("rmat_g9", RmatParams::preset(RmatKind::G, 9, 17).generate()),
        (
            "grid9x7",
            maximal_chordal::generators::structured::grid(9, 7),
        ),
        ("bio_unt", GeneNetworkKind::Gse5140Unt.network(200, 3)),
    ]
}

#[test]
fn text_binary_mmap_roundtrip_preserves_the_graph() {
    for (tag, graph) in workloads() {
        let disk = DiskPair::create(tag, &graph);
        assert_eq!(detect_format(&disk.txt).unwrap(), FileFormat::Text);
        assert_eq!(detect_format(&disk.bin).unwrap(), FileFormat::Binary);
        let mapped = disk.mmap();
        mapped.verify_checksum().expect("converted file checksum");
        assert_eq!(
            mapped.to_csr_graph(),
            graph,
            "{tag}: binary round trip must reproduce the generated graph"
        );
        // The format-agnostic loader picks the right representation.
        let loaded = load_graph(&disk.bin, None).unwrap();
        assert!(matches!(loaded, LoadedGraph::Mapped(_)));
        assert_eq!(loaded.to_csr_graph(), graph);
    }
}

#[test]
fn every_algorithm_is_byte_identical_on_mmap_and_heap() {
    for (tag, graph) in workloads() {
        let disk = DiskPair::create(tag, &graph);
        let mapped = disk.mmap();
        for algorithm in Algorithm::ALL {
            // Both adjacency variants on the serial engine; parallel engines
            // are covered by the conformance suite — here the contract under
            // test is the storage seam, so results must match bit for bit.
            for variant in [AdjacencyMode::Sorted, AdjacencyMode::Unsorted] {
                let config = ExtractorConfig::default()
                    .with_algorithm(algorithm)
                    .with_adjacency(variant)
                    .with_engine(Engine::serial());
                let from_heap = ExtractionSession::new(config.clone()).extract(&graph);
                let from_mmap = ExtractionSession::new(config).extract(&mapped);
                assert_eq!(
                    from_heap,
                    from_mmap,
                    "{tag}/{algorithm}/{}: mmap extraction diverged from heap",
                    variant.label()
                );
            }
        }
    }
}

#[test]
fn parallel_pool_extraction_agrees_across_representations() {
    // Synchronous semantics are deterministic on every engine, so heap and
    // mmap runs under the CI pool matrix must agree exactly.
    for (tag, graph) in workloads() {
        let disk = DiskPair::create(tag, &graph);
        let mapped = disk.mmap();
        let config = ExtractorConfig::default()
            .with_semantics(Semantics::Synchronous)
            .with_engine(Engine::chunked(4));
        let from_heap = ExtractionSession::new(config.clone()).extract(&graph);
        let from_mmap = ExtractionSession::new(config).extract(&mapped);
        assert_eq!(from_heap, from_mmap, "{tag}: pool run diverged");
    }
}

#[test]
fn repair_pass_is_byte_identical_on_mmap_and_heap() {
    for (tag, graph) in workloads() {
        let disk = DiskPair::create(tag, &graph);
        let mapped = disk.mmap();
        let config = ExtractorConfig::serial(AdjacencyMode::Sorted);
        let base = ExtractionSession::new(config).extract(&graph);
        let on_heap = repair_maximality(&graph, base.edges(), None);
        let on_mmap = repair_maximality(&mapped, base.edges(), None);
        assert_eq!(
            on_heap, on_mmap,
            "{tag}: repair outcome diverged between representations"
        );
        // End to end: the repair-wrapped registry extractor over the mmap.
        let repaired_config = ExtractorConfig::serial(AdjacencyMode::Sorted).with_repair(true);
        let heap_repaired = ExtractionSession::new(repaired_config.clone()).extract(&graph);
        let mmap_repaired = ExtractionSession::new(repaired_config).extract(&mapped);
        assert_eq!(
            heap_repaired, mmap_repaired,
            "{tag}: repaired extraction diverged"
        );
    }
}

#[test]
fn batch_scheduler_handles_mixed_heap_and_mmap_views() {
    let graphs = workloads();
    let disks: Vec<DiskPair> = graphs
        .iter()
        .map(|(tag, g)| DiskPair::create(&format!("batch_{tag}"), g))
        .collect();
    let mapped: Vec<MmapCsrGraph> = disks.iter().map(DiskPair::mmap).collect();
    let config = ExtractorConfig::default()
        .with_semantics(Semantics::Synchronous)
        .with_engine(Engine::chunked(4));
    // All-heap batch vs the same batch served from mmaps, interleaved with
    // heap views — placement and results must not depend on storage.
    let heap_views: Vec<GraphRef<'_>> = graphs.iter().map(|(_, g)| g.into()).collect();
    let mut mixed_views: Vec<GraphRef<'_>> = mapped.iter().map(GraphRef::from).collect();
    mixed_views[1] = heap_views[1];
    let heap_results = ExtractionSession::new(config.clone()).extract_batch(&heap_views);
    let mixed_results = ExtractionSession::new(config).extract_batch(&mixed_views);
    assert_eq!(heap_results, mixed_results, "mixed batch diverged");
}

#[test]
fn loader_rejects_corrupt_truncated_and_wrong_version_files() {
    let (_, graph) = &workloads()[0];
    let disk = DiskPair::create("reject", graph);
    let bytes = std::fs::read(&disk.bin).unwrap();
    let dir = std::env::temp_dir();
    let pid = std::process::id();

    // Corrupt magic.
    let bad_magic = dir.join(format!("chordal_roundtrip_{pid}_badmagic.bin"));
    let mut copy = bytes.clone();
    copy[0] ^= 0xFF;
    std::fs::write(&bad_magic, &copy).unwrap();
    assert!(MmapCsrGraph::open(&bad_magic).is_err());
    // ... and a forced-binary load of a corrupt file fails rather than
    // falling back to text parsing.
    assert!(load_graph(&bad_magic, Some(FileFormat::Binary)).is_err());
    let _ = std::fs::remove_file(&bad_magic);

    // Unsupported version.
    let bad_version = dir.join(format!("chordal_roundtrip_{pid}_badversion.bin"));
    let mut copy = bytes.clone();
    copy[8] = 0xFE;
    std::fs::write(&bad_version, &copy).unwrap();
    assert!(MmapCsrGraph::open(&bad_version).is_err());
    let _ = std::fs::remove_file(&bad_version);

    // Truncated payload.
    let truncated = dir.join(format!("chordal_roundtrip_{pid}_truncated.bin"));
    std::fs::write(&truncated, &bytes[..bytes.len() - 4]).unwrap();
    assert!(MmapCsrGraph::open(&truncated).is_err());
    let _ = std::fs::remove_file(&truncated);

    // Flipped adjacency byte: structurally valid, caught by the checksum.
    let corrupt = dir.join(format!("chordal_roundtrip_{pid}_corrupt.bin"));
    let mut copy = bytes.clone();
    let last = copy.len() - 1;
    copy[last] ^= 0x01;
    std::fs::write(&corrupt, &copy).unwrap();
    if let Ok(mapped) = MmapCsrGraph::open(&corrupt) {
        assert!(mapped.verify_checksum().is_err());
    }
    let _ = std::fs::remove_file(&corrupt);
}
