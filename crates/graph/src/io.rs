//! Plain-text edge-list I/O.
//!
//! Format: an optional header line `# vertices <n>`, then one edge per line
//! as two whitespace-separated vertex ids. Lines starting with `#` or `%`
//! (Matrix-Market style comments) are ignored. This is sufficient for the
//! CLI and for persisting generated test graphs; it intentionally avoids a
//! dependency on any serialization framework for the hot path.
//!
//! The writer, [`write_edges`], renders edge lines without `fmt`. Serve's
//! `payload=edges` writes a result's edges on every request, and a
//! `writeln!` per line took 0.42–0.65 ms of one RMAT-G(13) payload (8,660
//! edges, 75 KB; 2-core host). So each id becomes decimal digits two at a
//! time through a 200-byte table of the pairs `00`..`99`, the lines go into
//! one stack buffer, and each full buffer reaches the writer in one
//! `write_all`: 0.06–0.10 ms for the same payload, with the same bytes.
//! Only the two header lines, once per call, go through `write!`.

use crate::{CsrGraph, Edge, GraphError, VertexId};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Bytes of text staged on the stack before each `write_all`.
const CHUNK: usize = 8 * 1024;

/// The longest edge line: two 10-digit `u32`s, a space and a newline.
const MAX_LINE: usize = 22;

/// The two decimal digits of every value below 100, in order.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes `value` in decimal into `buf` at `at` and returns the index just
/// past its last digit. The digit count comes first, so the digits go
/// straight to their places, two per step from the right.
#[inline]
fn put_decimal(buf: &mut [u8], at: usize, mut value: u32) -> usize {
    let end = at + value.checked_ilog10().map_or(1, |d| d as usize + 1);
    let mut pos = end;
    while value >= 100 {
        let pair = (value % 100) as usize * 2;
        value /= 100;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if value >= 10 {
        let pair = value as usize * 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        buf[at] = b'0' + value as u8;
    }
    end
}

/// Writes `num_edges` edges over `num_vertices` vertices as a text edge
/// list: the `# vertices` and `# edges` header lines, then one `u v` line
/// per edge, in the order `edges` yields them. Canonical edges in
/// ascending order, as [`CsrGraph::edges`] and an extraction result hold
/// them, read back as the same graph. The one edge writer: graphs, serve's
/// `payload=edges` and `chordal extract --out` all go through it.
///
/// The bytes equal a `writeln!` of each line. They are staged in an 8 KiB
/// stack buffer, and `writer` sees one `write_all` per full buffer, then a
/// `flush`, so it needs no buffering of its own.
pub fn write_edges<W: Write>(
    num_vertices: usize,
    num_edges: usize,
    edges: impl IntoIterator<Item = Edge>,
    mut writer: W,
) -> Result<(), GraphError> {
    let mut buf = [0u8; CHUNK];
    let mut header = &mut buf[..];
    write!(header, "# vertices {num_vertices}\n# edges {num_edges}\n")?;
    let mut len = CHUNK - header.len();
    for (u, v) in edges {
        if len > CHUNK - MAX_LINE {
            writer.write_all(&buf[..len])?;
            len = 0;
        }
        len = put_decimal(&mut buf, len, u);
        buf[len] = b' ';
        len = put_decimal(&mut buf, len + 1, v);
        buf[len] = b'\n';
        len += 1;
    }
    writer.write_all(&buf[..len])?;
    writer.flush()?;
    Ok(())
}

/// Writes a graph as a text edge list (see [`write_edges`]).
pub fn write_edge_list<W: Write>(graph: &CsrGraph, writer: W) -> Result<(), GraphError> {
    write_edges(
        graph.num_vertices(),
        graph.num_edges(),
        graph.edges(),
        writer,
    )
}

/// Writes a graph to a file path.
pub fn write_edge_list_file<P: AsRef<Path>>(graph: &CsrGraph, path: P) -> Result<(), GraphError> {
    let file = std::fs::File::create(path)?;
    write_edge_list(graph, file)
}

/// Streams a text edge list line by line, invoking `on_edge` for every
/// parsed edge, and returns the vertex count declared by a `# vertices`
/// header (if any). This is the single parser behind both
/// [`read_edge_list`] and the bounded-memory converter in
/// [`crate::storage::stream`]; parse errors report the 1-based line number
/// *and* the offending line content.
pub(crate) fn scan_edge_list_lines<R: BufRead, F: FnMut(VertexId, VertexId)>(
    reader: R,
    mut on_edge: F,
) -> Result<Option<usize>, GraphError> {
    let mut declared_vertices: Option<usize> = None;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('#') {
            let mut tokens = rest.split_whitespace();
            if tokens.next() == Some("vertices") {
                if let Some(v) = tokens.next() {
                    declared_vertices =
                        Some(v.parse::<usize>().map_err(|e| GraphError::Parse {
                            line: line_no,
                            message: format!("bad vertex count: {e}"),
                            content: trimmed.to_string(),
                        })?);
                }
            }
            continue;
        }
        if trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let u: u64 = parts
            .next()
            .ok_or_else(|| GraphError::Parse {
                line: line_no,
                message: "missing first endpoint".into(),
                content: trimmed.to_string(),
            })?
            .parse()
            .map_err(|e| GraphError::Parse {
                line: line_no,
                message: format!("bad vertex id: {e}"),
                content: trimmed.to_string(),
            })?;
        let v: u64 = parts
            .next()
            .ok_or_else(|| GraphError::Parse {
                line: line_no,
                message: "missing second endpoint".into(),
                content: trimmed.to_string(),
            })?
            .parse()
            .map_err(|e| GraphError::Parse {
                line: line_no,
                message: format!("bad vertex id: {e}"),
                content: trimmed.to_string(),
            })?;
        if u >= u32::MAX as u64 || v >= u32::MAX as u64 {
            return Err(GraphError::Parse {
                line: line_no,
                message: "vertex id exceeds u32 range".into(),
                content: trimmed.to_string(),
            });
        }
        on_edge(u as VertexId, v as VertexId);
    }
    Ok(declared_vertices)
}

/// Reads a graph from a text edge list. If no `# vertices` header is present
/// the vertex count is inferred as `max id + 1`.
pub fn read_edge_list<R: Read>(reader: R) -> Result<CsrGraph, GraphError> {
    let buf = BufReader::new(reader);
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut max_id: u64 = 0;
    let declared_vertices = scan_edge_list_lines(buf, |u, v| {
        max_id = max_id.max(u as u64).max(v as u64);
        edges.push((u, v));
    })?;
    let num_vertices = match declared_vertices {
        Some(n) => n,
        None => {
            if edges.is_empty() {
                0
            } else {
                (max_id + 1) as usize
            }
        }
    };
    CsrGraph::from_edges(num_vertices, edges)
}

/// Reads a graph from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<CsrGraph, GraphError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn write_then_read_roundtrips() {
        let g = graph_from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn read_without_header_infers_vertex_count() {
        let text = "0 1\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn read_skips_comments_and_blank_lines() {
        let text = "# vertices 4\n% a matrix-market style comment\n\n0 1\n# another comment\n2 3\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn read_reports_parse_errors_with_line_numbers() {
        let text = "0 1\nnot-a-number 2\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        match err {
            GraphError::Parse {
                line, ref content, ..
            } => {
                assert_eq!(line, 2);
                assert_eq!(content, "not-a-number 2");
            }
            ref other => panic!("unexpected error {other:?}"),
        }
        // The rendered message carries both pieces.
        let text = err.to_string();
        assert!(text.contains("line 2"), "{text}");
        assert!(text.contains("not-a-number"), "{text}");
    }

    #[test]
    fn read_rejects_missing_endpoint() {
        let text = "0\n";
        assert!(read_edge_list(text.as_bytes()).is_err());
    }

    #[test]
    fn read_empty_input_gives_empty_graph() {
        let g = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn file_roundtrip() {
        let g = graph_from_edges(3, vec![(0, 1), (1, 2)]);
        let dir = std::env::temp_dir();
        let path = dir.join("chordal_graph_io_test.txt");
        write_edge_list_file(&g, &path).unwrap();
        let g2 = read_edge_list_file(&path).unwrap();
        assert_eq!(g, g2);
        let _ = std::fs::remove_file(&path);
    }

    /// The text [`write_edges`] must produce, rendered through `fmt`.
    fn fmt_text(num_vertices: usize, num_edges: usize, edges: &[Edge]) -> Vec<u8> {
        let mut text = Vec::new();
        writeln!(text, "# vertices {num_vertices}").unwrap();
        writeln!(text, "# edges {num_edges}").unwrap();
        for (u, v) in edges {
            writeln!(text, "{u} {v}").unwrap();
        }
        text
    }

    fn written(num_vertices: usize, num_edges: usize, edges: &[Edge]) -> Vec<u8> {
        let mut text = Vec::new();
        write_edges(num_vertices, num_edges, edges.iter().copied(), &mut text).unwrap();
        text
    }

    #[test]
    fn writer_matches_fmt_at_every_digit_count_boundary() {
        // 0, then `10^k - 1` and `10^k` for every width up to `u32`'s ten
        // digits, then the largest vertex id.
        let ids: [u32; 20] = [
            0,
            9,
            10,
            99,
            100,
            999,
            1_000,
            9_999,
            10_000,
            99_999,
            100_000,
            999_999,
            1_000_000,
            9_999_999,
            10_000_000,
            99_999_999,
            100_000_000,
            999_999_999,
            1_000_000_000,
            u32::MAX - 1,
        ];
        // Every boundary in either column, beside every width.
        let edges: Vec<Edge> = ids
            .iter()
            .flat_map(|&u| ids.iter().map(move |&v| (u, v)))
            .collect();
        let n = u32::MAX as usize;
        assert!(written(n, edges.len(), &edges) == fmt_text(n, edges.len(), &edges));
    }

    #[test]
    fn an_empty_edge_list_writes_the_header_only() {
        assert_eq!(written(5, 0, &[]), b"# vertices 5\n# edges 0\n");
        let longest = fmt_text(usize::MAX, usize::MAX, &[]);
        assert_eq!(written(usize::MAX, usize::MAX, &[]), longest);
    }

    #[test]
    fn a_longest_line_fits_at_every_offset_before_the_buffer_ends() {
        // Headers of 22 consecutive lengths (23 to 44 bytes) before lines of
        // 22 bytes: some line starts at each offset near the buffer's end.
        let longest = (u32::MAX - 1, u32::MAX - 1);
        let edges = vec![longest; CHUNK / MAX_LINE + 1];
        for vertices in [1, 10, 100] {
            for digits in 0..20 {
                let count = 10usize.pow(digits);
                let text = written(vertices, count, &edges);
                assert!(
                    text == fmt_text(vertices, count, &edges),
                    "{vertices}, {count}"
                );
            }
        }
    }

    #[test]
    fn writer_matches_fmt_across_many_stack_buffers_into_memory_and_a_file() {
        // Lines of 7 to 22 bytes, so the buffer fills at shifting offsets.
        let edges: Vec<Edge> = (0..20_000u32)
            .map(|i| (i, i.wrapping_mul(2_654_435_761) % u32::MAX))
            .collect();
        let expected = fmt_text(u32::MAX as usize, edges.len(), &edges);
        assert!(expected.len() > 8 * CHUNK, "{} bytes", expected.len());
        assert!(written(u32::MAX as usize, edges.len(), &edges) == expected);

        let path = std::env::temp_dir().join(format!(
            "chordal_graph_io_writer_{}.txt",
            std::process::id()
        ));
        let file = std::fs::File::create(&path).unwrap();
        write_edges(u32::MAX as usize, edges.len(), edges.iter().copied(), file).unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(on_disk == expected, "the file differs from the fmt text");
    }
}
