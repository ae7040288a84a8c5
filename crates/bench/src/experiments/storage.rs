//! Storage cold-start experiment: text re-parse vs binary mmap reload.
//!
//! The out-of-core storage subsystem
//! ([`chordal_graph::storage`]) exists to cut graph *load* time out of the
//! serving path: a text edge list must be fully re-parsed (`O(E)` integer
//! parsing plus CSR construction) on every cold start, while the binary
//! CSR format is memory-mapped with `O(V)` offset validation and faults
//! adjacency pages in lazily. This experiment makes that trade measurable:
//! it writes the same R-MAT graph in both representations (the binary one
//! through the bounded-memory streaming converter, exactly what
//! `chordal convert` runs), times a cold load of each best-of-`repeats`,
//! then runs one deterministic serial extraction per representation and
//! asserts the results are byte-identical — the end-to-end guarantee that
//! the mmap path is a pure load-time win, not a different computation.
//!
//! The recorded [`StoragePoint`]s carry the load cost in the `load_ns`
//! field next to the extraction `seconds`, so the cold-start speedup
//! (`text.load_ns / binary.load_ns`, reported as `reload speedup` by the
//! printer and expected to be well above 10× at benchmark scale) stays
//! diffable across PRs in the ablation JSON.

use super::HarnessOptions;
use crate::records::StoragePoint;
use crate::workloads::SUITE_SEED;
use chordal_core::{AdjacencyMode, ExtractionSession, ExtractorConfig};
use chordal_generators::rmat::{RmatKind, RmatParams};
use chordal_graph::io::{read_edge_list_file, write_edge_list_file};
use chordal_graph::storage::{convert_edge_list_to_binary, MmapCsrGraph};
use std::path::PathBuf;

/// Scratch files removed when the experiment finishes (or unwinds).
struct ScratchFiles(Vec<PathBuf>);

impl Drop for ScratchFiles {
    fn drop(&mut self) {
        for path in &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Runs the experiment and returns one point per representation.
pub fn run(options: &HarnessOptions) -> Vec<StoragePoint> {
    let scale = if options.quick {
        options.rmat_scale.min(10)
    } else {
        options.rmat_scale
    };
    let repeats = options.repeats.max(1);
    let graph_name = format!("RMAT-B({scale})");
    let graph = RmatParams::preset(RmatKind::B, scale, SUITE_SEED).generate();

    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let txt = dir.join(format!("chordal_storage_bench_{tag}_{scale}.txt"));
    let bin = dir.join(format!("chordal_storage_bench_{tag}_{scale}.bin"));
    let _scratch = ScratchFiles(vec![txt.clone(), bin.clone()]);

    // Prepare both on-disk representations. The binary file comes from the
    // streaming converter — the same path `chordal convert` exercises — so
    // the timing covers a realistic text → binary migration, not just an
    // in-memory serialisation.
    let start = std::time::Instant::now();
    write_edge_list_file(&graph, &txt).expect("writing the text edge list");
    let text_prepare_ns = start.elapsed().as_nanos() as u64;
    let start = std::time::Instant::now();
    convert_edge_list_to_binary(&txt, &bin).expect("converting to binary CSR");
    let convert_ns = start.elapsed().as_nanos() as u64;

    // Cold-load timings, best-of-`repeats`. Each iteration performs the
    // full load an application cold start would: text re-parses the whole
    // file into a heap CSR; binary re-opens and re-validates the mapping.
    let mut text_load_ns = u64::MAX;
    let mut parsed = None;
    for _ in 0..repeats {
        let start = std::time::Instant::now();
        let g = read_edge_list_file(&txt).expect("re-parsing the text edge list");
        text_load_ns = text_load_ns.min(start.elapsed().as_nanos() as u64);
        parsed = Some(g);
    }
    let parsed = parsed.expect("at least one text load");
    let mut binary_load_ns = u64::MAX;
    let mut mapped = None;
    for _ in 0..repeats {
        let start = std::time::Instant::now();
        let g = MmapCsrGraph::open(&bin).expect("mmapping the binary CSR file");
        binary_load_ns = binary_load_ns.min(start.elapsed().as_nanos() as u64);
        mapped = Some(g);
    }
    let mapped = mapped.expect("at least one binary load");
    assert_eq!(
        mapped.view().to_csr_graph(),
        parsed,
        "binary round trip must reproduce the parsed graph exactly"
    );

    // One deterministic extraction per representation; byte-identical
    // output is the contract the storage seam is test-locked to.
    let mut session = ExtractionSession::new(ExtractorConfig::serial(AdjacencyMode::Sorted));
    let mut time_extract = |graph_ref: chordal_graph::GraphRef<'_>| {
        let reference = session.extract(graph_ref);
        let mut best = f64::MAX;
        for _ in 0..repeats {
            let start = std::time::Instant::now();
            let again = session.extract(graph_ref);
            best = best.min(start.elapsed().as_secs_f64());
            assert_eq!(again, reference, "repeated extraction must be stable");
        }
        (reference, best)
    };
    let (text_result, text_seconds) = time_extract((&parsed).into());
    let (binary_result, binary_seconds) = time_extract((&mapped).into());
    assert_eq!(
        text_result, binary_result,
        "extraction from the mmap-backed graph must be byte-identical to heap CSR"
    );

    let file_len = |path: &PathBuf| std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    vec![
        StoragePoint {
            experiment: "storage".to_string(),
            graph: graph_name.clone(),
            representation: "text".to_string(),
            file_bytes: file_len(&txt),
            prepare_ns: text_prepare_ns,
            load_ns: text_load_ns,
            seconds: text_seconds,
            chordal_edges: text_result.num_chordal_edges(),
        },
        StoragePoint {
            experiment: "storage".to_string(),
            graph: graph_name,
            representation: "binary".to_string(),
            file_bytes: file_len(&bin),
            prepare_ns: convert_ns,
            load_ns: binary_load_ns,
            seconds: binary_seconds,
            chordal_edges: binary_result.num_chordal_edges(),
        },
    ]
}

/// Runs the experiment with printing and record output.
pub fn run_and_print(options: &HarnessOptions) -> Vec<StoragePoint> {
    println!("Storage cold start: text re-parse vs binary mmap reload");
    let points = run(options);
    println!(
        "  {:<12} {:>8} {:>12} {:>14} {:>14} {:>12} {:>10}",
        "graph", "repr", "file(bytes)", "prepare(ns)", "load(ns)", "extract(s)", "chordal"
    );
    for p in &points {
        println!(
            "  {:<12} {:>8} {:>12} {:>14} {:>14} {:>12.4} {:>10}",
            p.graph,
            p.representation,
            p.file_bytes,
            p.prepare_ns,
            p.load_ns,
            p.seconds,
            p.chordal_edges
        );
    }
    if let (Some(text), Some(binary)) = (
        points.iter().find(|p| p.representation == "text"),
        points.iter().find(|p| p.representation == "binary"),
    ) {
        println!(
            "  reload speedup: binary mmap {:.1}x faster than text re-parse",
            text.load_ns as f64 / binary.load_ns.max(1) as f64
        );
    }
    options.write_records(&points);
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use chordal_serve::json::ToJson;

    #[test]
    fn cold_start_points_cover_both_representations_and_agree() {
        let options = HarnessOptions::tiny();
        let points = run(&options);
        assert_eq!(points.len(), 2);
        let text = points.iter().find(|p| p.representation == "text").unwrap();
        let binary = points
            .iter()
            .find(|p| p.representation == "binary")
            .unwrap();
        assert_eq!(
            text.chordal_edges, binary.chordal_edges,
            "extractions must agree across representations"
        );
        assert!(text.chordal_edges > 0);
        for p in &points {
            assert!(p.load_ns > 0 && p.prepare_ns > 0 && p.file_bytes > 0);
            assert!(p.seconds > 0.0);
            let json = p.to_json();
            assert!(json.contains("\"experiment\":\"storage\""));
            assert!(json.contains("\"load_ns\":"));
        }
        // The whole point of the binary format: reloading must beat
        // re-parsing even at test scale (the margin grows with |E| since
        // the mmap path validates O(V) instead of parsing O(E)).
        assert!(
            binary.load_ns < text.load_ns,
            "mmap reload ({}) must be faster than text re-parse ({})",
            binary.load_ns,
            text.load_ns
        );
    }
}
