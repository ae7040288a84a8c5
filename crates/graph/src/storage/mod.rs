//! Out-of-core graph storage: the binary CSR file format, mmap-backed
//! graphs, and bounded-memory conversion.
//!
//! Three submodules, one concern each:
//!
//! * [`mod@format`] — the versioned little-endian `CHRDLCSR` on-disk layout
//!   (full specification in its module docs) and its writer.
//! * [`mmap`] — [`MmapCsrGraph`], the one reader, which lends a
//!   [`GraphRef`] over its decoded offsets and a memory-mapped adjacency
//!   section; adjacency pages fault in lazily, so load time is an `O(V)`
//!   offsets decode instead of an `O(E)` parse.
//! * [`stream`] — [`convert_edge_list_to_binary`], a spill-to-disk
//!   converter that turns arbitrarily large text edge lists into binary
//!   files using bounded memory.
//!
//! This module also provides the format-agnostic loading entry points used
//! by the CLI and benchmarks: [`detect_format`] sniffs the magic bytes,
//! and [`load_graph`] returns a [`LoadedGraph`] that yields a
//! [`GraphRef`] over either representation.

pub mod format;
pub mod mmap;
pub mod stream;

pub use format::{
    content_hash, content_hash_from_header, is_binary_header, offsets_width, write_binary,
    write_binary_file, Header, OffsetsWidth, SectionLayout, FORMAT_VERSION, FORMAT_VERSION_V1,
};
pub use mmap::MmapCsrGraph;
pub use stream::{
    convert_edge_list_to_binary, convert_edge_list_to_binary_with, ConvertOptions, ConvertStats,
};

use crate::io::read_edge_list_file;
use crate::{CsrGraph, GraphError, GraphRef};
use std::io::Read;
use std::path::Path;

/// On-disk representation of a graph file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileFormat {
    /// Plain-text edge list (see [`crate::io`]).
    Text,
    /// Binary CSR (see [`mod@format`]).
    Binary,
}

impl FileFormat {
    /// Parses a `--format` style name. `auto` maps to `None` (sniff).
    pub fn parse(name: &str) -> Result<Option<FileFormat>, GraphError> {
        match name {
            "text" | "txt" => Ok(Some(FileFormat::Text)),
            "bin" | "binary" => Ok(Some(FileFormat::Binary)),
            "auto" => Ok(None),
            other => Err(GraphError::Format(format!(
                "unknown graph format {other:?} (expected text, bin or auto)"
            ))),
        }
    }
}

/// Sniffs a graph file's format from its first bytes (the binary magic is
/// 8 bytes; anything else — including a short file — is treated as text).
pub fn detect_format<P: AsRef<Path>>(path: P) -> Result<FileFormat, GraphError> {
    let mut file = std::fs::File::open(path)?;
    let mut head = [0u8; 8];
    let mut filled = 0;
    while filled < head.len() {
        let n = file.read(&mut head[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    Ok(if is_binary_header(&head[..filled]) {
        FileFormat::Binary
    } else {
        FileFormat::Text
    })
}

/// A graph loaded from disk in whichever representation the file used.
///
/// Borrow it as a [`GraphRef`] to run extraction; the enum only exists so
/// callers own exactly one value regardless of format.
#[derive(Debug)]
pub enum LoadedGraph {
    /// A text edge list parsed into a heap CSR graph.
    Heap(CsrGraph),
    /// A binary file served through an mmap.
    Mapped(MmapCsrGraph),
}

impl LoadedGraph {
    /// A storage-agnostic view of the loaded graph.
    #[inline]
    pub fn as_graph_ref(&self) -> GraphRef<'_> {
        match self {
            LoadedGraph::Heap(g) => g.view(),
            LoadedGraph::Mapped(g) => g.view(),
        }
    }

    /// Materialises a heap CSR graph (no-op clone for `Heap`).
    pub fn to_csr_graph(&self) -> CsrGraph {
        self.as_graph_ref().to_csr_graph()
    }
}

/// Loads a graph file, auto-detecting the format when `format` is `None`.
/// Binary files are mmapped ([`MmapCsrGraph::open`]); text files are parsed
/// into a heap [`CsrGraph`].
pub fn load_graph<P: AsRef<Path>>(
    path: P,
    format: Option<FileFormat>,
) -> Result<LoadedGraph, GraphError> {
    let path = path.as_ref();
    let format = match format {
        Some(f) => f,
        None => detect_format(path)?,
    };
    match format {
        FileFormat::Text => Ok(LoadedGraph::Heap(read_edge_list_file(path)?)),
        FileFormat::Binary => Ok(LoadedGraph::Mapped(MmapCsrGraph::open(path)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::write_edge_list_file;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("chordal_storage_{}_{name}", std::process::id()))
    }

    fn sample() -> CsrGraph {
        CsrGraph::from_canonical_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)])
    }

    #[test]
    fn detects_and_loads_both_formats() {
        let g = sample();
        let txt = temp_path("auto.txt");
        let bin = temp_path("auto.bin");
        write_edge_list_file(&g, &txt).unwrap();
        write_binary_file(&g, &bin).unwrap();
        assert_eq!(detect_format(&txt).unwrap(), FileFormat::Text);
        assert_eq!(detect_format(&bin).unwrap(), FileFormat::Binary);
        let from_txt = load_graph(&txt, None).unwrap();
        let from_bin = load_graph(&bin, None).unwrap();
        assert!(matches!(from_txt, LoadedGraph::Heap(_)));
        assert!(matches!(from_bin, LoadedGraph::Mapped(_)));
        assert_eq!(from_txt.to_csr_graph(), g);
        assert_eq!(from_bin.to_csr_graph(), g);
        assert_eq!(
            from_txt.as_graph_ref().num_edges(),
            from_bin.as_graph_ref().num_edges()
        );
        let _ = std::fs::remove_file(&txt);
        let _ = std::fs::remove_file(&bin);
    }

    #[test]
    fn explicit_format_overrides_detection() {
        let g = sample();
        let bin = temp_path("explicit.bin");
        write_binary_file(&g, &bin).unwrap();
        // Forcing text on a binary file fails the text parser loudly
        // rather than silently misloading.
        assert!(load_graph(&bin, Some(FileFormat::Text)).is_err());
        assert!(load_graph(&bin, Some(FileFormat::Binary)).is_ok());
        let _ = std::fs::remove_file(&bin);
    }

    #[test]
    fn format_names_parse() {
        assert_eq!(FileFormat::parse("text").unwrap(), Some(FileFormat::Text));
        assert_eq!(FileFormat::parse("bin").unwrap(), Some(FileFormat::Binary));
        assert_eq!(
            FileFormat::parse("binary").unwrap(),
            Some(FileFormat::Binary)
        );
        assert_eq!(FileFormat::parse("auto").unwrap(), None);
        assert!(FileFormat::parse("yaml").is_err());
    }

    #[test]
    fn short_text_file_detected_as_text() {
        let txt = temp_path("short.txt");
        std::fs::write(&txt, "0 1").unwrap();
        assert_eq!(detect_format(&txt).unwrap(), FileFormat::Text);
        let _ = std::fs::remove_file(&txt);
    }
}
