//! Bounded-memory conversion of text edge lists to the binary CSR format.
//!
//! [`convert_edge_list_to_binary`] never holds the edge set in memory. It
//! makes two streaming passes over the text file and one over temporary
//! spill files:
//!
//! 1. **Degree pass** — stream the text, counting the raw (pre-dedup)
//!    degree of every vertex and resolving the vertex count. Memory:
//!    `O(V)`.
//! 2. **Scatter pass** — stream the text again, appending each directed
//!    entry `(u → v)` to the spill bucket owning `u`. Buckets cover
//!    contiguous vertex ranges chosen so one bucket's adjacency window
//!    fits the configured memory budget.
//! 3. **Build pass** — per bucket: load its directed entries into an
//!    in-memory window sized by the raw degrees, sort and deduplicate each
//!    vertex's list, and append the compacted lists to an adjacency spill
//!    file. Memory: `O(bucket window + V)`.
//! 4. **Assembly** — with final degrees known, write the v3 prologue
//!    (header + section table) and the offsets section (width chosen by
//!    the [rule](super::format)), then stream-copy the adjacency spill
//!    file, hashing both section payloads and patching the checksum into
//!    the header.
//!
//! The output is byte-identical to
//! [`write_binary`](super::format::write_binary) applied to the heap graph
//! [`read_edge_list_file`](crate::io::read_edge_list_file) would build from
//! the same text: adjacency sorted ascending, duplicates and self loops
//! removed.

use super::format::{
    offsets_section, offsets_width, section_table_bytes, Header, LaneHash, FORMAT_VERSION,
};
use crate::io::scan_edge_list_lines;
use crate::{GraphError, VertexId};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Tuning knobs for the streaming converter.
#[derive(Debug, Clone, Copy)]
pub struct ConvertOptions {
    /// Upper bound, in bytes, for one bucket's in-memory adjacency window
    /// (pass 3). A single vertex whose raw degree alone exceeds the budget
    /// still gets a window of its own size. Default: 64 MiB.
    pub window_bytes: usize,
}

impl Default for ConvertOptions {
    fn default() -> Self {
        ConvertOptions {
            window_bytes: 64 << 20,
        }
    }
}

/// Summary of a completed conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvertStats {
    /// Vertices in the converted graph.
    pub num_vertices: usize,
    /// Distinct undirected, non-loop edges.
    pub num_canonical_edges: usize,
    /// Directed adjacency entries written (twice the edge count).
    pub num_directed_edges: usize,
    /// Spill buckets used by the scatter pass.
    pub buckets: usize,
}

/// Best-effort deletion of spill files when conversion unwinds early.
struct TempFiles(Vec<PathBuf>);

impl TempFiles {
    fn add(&mut self, path: PathBuf) -> PathBuf {
        self.0.push(path.clone());
        path
    }
}

impl Drop for TempFiles {
    fn drop(&mut self) {
        for path in &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Converts a text edge list to a binary CSR graph file in bounded memory.
/// See the [module docs](self) for the pass structure.
pub fn convert_edge_list_to_binary<P: AsRef<Path>, Q: AsRef<Path>>(
    input: P,
    output: Q,
) -> Result<ConvertStats, GraphError> {
    convert_edge_list_to_binary_with(input, output, ConvertOptions::default())
}

/// [`convert_edge_list_to_binary`] with explicit tuning options.
pub fn convert_edge_list_to_binary_with<P: AsRef<Path>, Q: AsRef<Path>>(
    input: P,
    output: Q,
    options: ConvertOptions,
) -> Result<ConvertStats, GraphError> {
    let input = input.as_ref();
    let output = output.as_ref();
    let mut temps = TempFiles(Vec::new());

    // Pass 1: raw degrees and vertex count. Self loops are dropped (they
    // carry no adjacency entries) but still extend the vertex range check,
    // matching the in-memory `CsrGraph::from_edges` validation.
    let mut raw_degrees: Vec<u64> = Vec::new();
    let mut max_seen: Option<u64> = None;
    let declared = scan_edge_list_lines(BufReader::new(File::open(input)?), |u, v| {
        let hi = u.max(v) as u64;
        max_seen = Some(max_seen.map_or(hi, |m| m.max(hi)));
        if u != v {
            let need = hi as usize + 1;
            if raw_degrees.len() < need {
                raw_degrees.resize(need, 0);
            }
            raw_degrees[u as usize] += 1;
            raw_degrees[v as usize] += 1;
        }
    })?;
    let num_vertices = match declared {
        Some(n) => {
            if let Some(max) = max_seen {
                if max >= n as u64 {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: max,
                        num_vertices: n as u64,
                    });
                }
            }
            n
        }
        None => max_seen.map_or(0, |m| m as usize + 1),
    };
    raw_degrees.resize(num_vertices, 0);

    // Raw offsets (prefix sums) over the un-deduplicated degrees; these
    // place entries inside each bucket's window in pass 3.
    let mut raw_offsets: Vec<u64> = Vec::with_capacity(num_vertices + 1);
    raw_offsets.push(0);
    let mut acc = 0u64;
    for &d in &raw_degrees {
        acc += d;
        raw_offsets.push(acc);
    }
    drop(raw_degrees);

    // Bucket boundaries: contiguous vertex ranges whose raw windows fit
    // the budget (4 bytes per directed entry).
    let target_entries = (options.window_bytes / 4).max(1) as u64;
    let mut bounds: Vec<usize> = vec![0];
    let mut in_bucket = 0u64;
    for v in 0..num_vertices {
        let d = raw_offsets[v + 1] - raw_offsets[v];
        if in_bucket > 0 && in_bucket + d > target_entries {
            bounds.push(v);
            in_bucket = 0;
        }
        in_bucket += d;
    }
    bounds.push(num_vertices);
    let num_buckets = bounds.len() - 1;

    // Pass 2: scatter directed entries to their owning bucket's spill file.
    let mut bucket_writers: Vec<BufWriter<File>> = Vec::with_capacity(num_buckets);
    let mut bucket_paths: Vec<PathBuf> = Vec::with_capacity(num_buckets);
    for b in 0..num_buckets {
        let path = temps.add(spill_path(output, &format!("bucket{b}")));
        bucket_writers.push(BufWriter::new(File::create(&path)?));
        bucket_paths.push(path);
    }
    {
        let bucket_of = |v: VertexId| -> usize {
            // bounds is sorted; partition_point returns the first bound
            // greater than v, whose predecessor opens v's bucket.
            bounds.partition_point(|&b| b <= v as usize) - 1
        };
        let mut scatter_io: Result<(), std::io::Error> = Ok(());
        scan_edge_list_lines(BufReader::new(File::open(input)?), |u, v| {
            if u == v || scatter_io.is_err() {
                return;
            }
            let mut pair = [0u8; 8];
            pair[0..4].copy_from_slice(&u.to_le_bytes());
            pair[4..8].copy_from_slice(&v.to_le_bytes());
            if let Err(e) = bucket_writers[bucket_of(u)].write_all(&pair) {
                scatter_io = Err(e);
                return;
            }
            pair[0..4].copy_from_slice(&v.to_le_bytes());
            pair[4..8].copy_from_slice(&u.to_le_bytes());
            if let Err(e) = bucket_writers[bucket_of(v)].write_all(&pair) {
                scatter_io = Err(e);
            }
        })?;
        scatter_io?;
        for w in &mut bucket_writers {
            w.flush()?;
        }
    }
    drop(bucket_writers);

    // Pass 3: per bucket, fill the window, sort + dedup each vertex's
    // list, and append the compacted lists to the adjacency spill file.
    let adj_path = temps.add(spill_path(output, "adj"));
    let mut adj_writer = BufWriter::new(File::create(&adj_path)?);
    let mut final_offsets: Vec<u64> = Vec::with_capacity(num_vertices + 1);
    final_offsets.push(0);
    let mut written = 0u64;
    for b in 0..num_buckets {
        let (lo, hi) = (bounds[b], bounds[b + 1]);
        let base = raw_offsets[lo];
        let window_len = usize::try_from(raw_offsets[hi] - base).map_err(|_| {
            GraphError::Format("bucket window exceeds addressable memory".to_string())
        })?;
        let mut window: Vec<VertexId> = vec![0; window_len];
        let mut cursors: Vec<usize> = (lo..hi).map(|v| (raw_offsets[v] - base) as usize).collect();
        let mut reader = BufReader::new(File::open(&bucket_paths[b])?);
        let mut pair = [0u8; 8];
        loop {
            match reader.read_exact(&mut pair) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
                Err(e) => return Err(e.into()),
            }
            let u = u32::from_le_bytes(pair[0..4].try_into().unwrap()) as usize;
            let v = u32::from_le_bytes(pair[4..8].try_into().unwrap());
            let cursor = &mut cursors[u - lo];
            window[*cursor] = v;
            *cursor += 1;
        }
        for v in lo..hi {
            let start = (raw_offsets[v] - base) as usize;
            let end = (raw_offsets[v + 1] - base) as usize;
            let list = &mut window[start..end];
            list.sort_unstable();
            let mut prev: Option<VertexId> = None;
            let mut kept = 0u64;
            for &nb in list.iter() {
                if prev != Some(nb) {
                    adj_writer.write_all(&nb.to_le_bytes())?;
                    kept += 1;
                    prev = Some(nb);
                }
            }
            written += kept;
            final_offsets.push(written);
        }
        let _ = std::fs::remove_file(&bucket_paths[b]);
    }
    adj_writer.flush()?;
    drop(adj_writer);
    drop(raw_offsets);

    // Pass 4: assemble header + offsets + adjacency, patching the checksum
    // once both sections have been hashed. Every undirected edge appears in
    // exactly two (deduplicated) lists, so the canonical count is half the
    // directed count.
    let num_directed_edges = written;
    let width = offsets_width(num_directed_edges);
    let header = Header {
        version: FORMAT_VERSION,
        sorted: true,
        width,
        num_vertices: num_vertices as u64,
        num_directed_edges,
        num_canonical_edges: num_directed_edges / 2,
        checksum: 0,
    };
    let out_file = File::create(output)?;
    let mut out = BufWriter::new(out_file);
    out.write_all(&header.to_bytes())?;
    // The checksum covers only the section payloads, so the table can be
    // written before hashing starts.
    out.write_all(&section_table_bytes(&header))?;
    let offsets = offsets_section(final_offsets.into_iter(), width);
    let mut hasher = LaneHash::new();
    hasher.update_le_bytes(&offsets);
    out.write_all(&offsets)?;
    // The spill file holds exactly the adjacency section, so whole chunks
    // of it are whole words.
    let mut adj_reader = File::open(&adj_path)?;
    let mut chunk = vec![0u8; 64 << 10];
    let mut left = header.adjacency_len();
    while left > 0 {
        let n = left.min(chunk.len());
        adj_reader.read_exact(&mut chunk[..n])?;
        hasher.update_le_bytes(&chunk[..n]);
        out.write_all(&chunk[..n])?;
        left -= n;
    }
    out.flush()?;
    let mut out_file = out.into_inner().map_err(|e| e.into_error())?;
    out_file.seek(SeekFrom::Start(40))?;
    out_file.write_all(&hasher.finish().to_le_bytes())?;
    out_file.flush()?;
    drop(out_file);

    Ok(ConvertStats {
        num_vertices,
        num_canonical_edges: (num_directed_edges / 2) as usize,
        num_directed_edges: num_directed_edges as usize,
        buckets: num_buckets,
    })
}

fn spill_path(output: &Path, tag: &str) -> PathBuf {
    let mut name = output
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "graph.bin".into());
    name.push(format!(".{tag}.{}.tmp", std::process::id()));
    output.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::super::format::write_binary_file;
    use super::super::MmapCsrGraph;
    use super::*;
    use crate::io::{read_edge_list_file, write_edge_list_file};
    use crate::CsrGraph;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("chordal_stream_{}_{name}", std::process::id()))
    }

    fn messy_text(path: &Path) {
        // Duplicates in both orientations, a self loop, comments, blanks.
        std::fs::write(
            path,
            "# vertices 7\n% comment\n\n0 1\n1 0\n2 2\n1 2\n2 3\n3 2\n4 5\n0 6\n",
        )
        .unwrap();
    }

    #[test]
    fn streamed_output_is_byte_identical_to_in_memory_writer() {
        let txt = temp_path("ident.txt");
        let streamed = temp_path("ident_stream.bin");
        let direct = temp_path("ident_direct.bin");
        messy_text(&txt);
        let stats = convert_edge_list_to_binary(&txt, &streamed).unwrap();
        let heap = read_edge_list_file(&txt).unwrap();
        write_binary_file(&heap, &direct).unwrap();
        assert_eq!(
            std::fs::read(&streamed).unwrap(),
            std::fs::read(&direct).unwrap()
        );
        assert_eq!(stats.num_vertices, 7);
        assert_eq!(stats.num_canonical_edges, heap.num_canonical_edges());
        for p in [&txt, &streamed, &direct] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn tiny_window_forces_multiple_buckets_with_same_output() {
        let txt = temp_path("bucketed.txt");
        let one = temp_path("bucketed_one.bin");
        let many = temp_path("bucketed_many.bin");
        let g =
            CsrGraph::from_canonical_edges(32, &(0..31u32).map(|i| (i, i + 1)).collect::<Vec<_>>());
        write_edge_list_file(&g, &txt).unwrap();
        let s1 = convert_edge_list_to_binary(&txt, &one).unwrap();
        let s2 = convert_edge_list_to_binary_with(&txt, &many, ConvertOptions { window_bytes: 16 })
            .unwrap();
        assert_eq!(s1.buckets, 1);
        assert!(s2.buckets > 1, "window of 16 bytes must split buckets");
        assert_eq!(std::fs::read(&one).unwrap(), std::fs::read(&many).unwrap());
        let mapped = MmapCsrGraph::open(&many).unwrap();
        assert_eq!(mapped.view().to_csr_graph(), g);
        mapped.verify_checksum().unwrap();
        for p in [&txt, &one, &many] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn converted_file_loads_and_matches_text_graph() {
        let txt = temp_path("load.txt");
        let bin = temp_path("load.bin");
        messy_text(&txt);
        convert_edge_list_to_binary(&txt, &bin).unwrap();
        let mapped = MmapCsrGraph::open(&bin).unwrap();
        let heap = read_edge_list_file(&txt).unwrap();
        assert_eq!(mapped.view().to_csr_graph(), heap);
        assert_eq!(
            mapped.view().num_canonical_edges(),
            heap.num_canonical_edges()
        );
        mapped.verify_checksum().unwrap();
        let _ = std::fs::remove_file(&txt);
        let _ = std::fs::remove_file(&bin);
    }

    #[test]
    fn empty_input_converts_to_empty_graph() {
        let txt = temp_path("empty.txt");
        let bin = temp_path("empty.bin");
        std::fs::write(&txt, "").unwrap();
        let stats = convert_edge_list_to_binary(&txt, &bin).unwrap();
        assert_eq!(stats.num_vertices, 0);
        assert_eq!(stats.num_directed_edges, 0);
        let mapped = MmapCsrGraph::open(&bin).unwrap();
        assert_eq!(mapped.view().num_vertices(), 0);
        let _ = std::fs::remove_file(&txt);
        let _ = std::fs::remove_file(&bin);
    }

    #[test]
    fn out_of_range_edge_is_rejected() {
        let txt = temp_path("oob.txt");
        let bin = temp_path("oob.bin");
        std::fs::write(&txt, "# vertices 3\n0 5\n").unwrap();
        let err = convert_edge_list_to_binary(&txt, &bin).unwrap_err();
        assert!(
            matches!(err, GraphError::VertexOutOfRange { .. }),
            "{err:?}"
        );
        let _ = std::fs::remove_file(&txt);
        let _ = std::fs::remove_file(&bin);
    }

    #[test]
    fn parse_error_surfaces_from_converter() {
        let txt = temp_path("bad.txt");
        let bin = temp_path("bad.bin");
        std::fs::write(&txt, "0 1\nnot-a-number 2\n").unwrap();
        let err = convert_edge_list_to_binary(&txt, &bin).unwrap_err();
        match err {
            GraphError::Parse { line, content, .. } => {
                assert_eq!(line, 2);
                assert!(content.contains("not-a-number"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        let _ = std::fs::remove_file(&txt);
        let _ = std::fs::remove_file(&bin);
    }
}
