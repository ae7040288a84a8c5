//! Plain-text edge-list I/O.
//!
//! Format: an optional header line `# vertices <n>`, then one edge per line
//! as two whitespace-separated vertex ids. Lines starting with `#` or `%`
//! (Matrix-Market style comments) are ignored. This is sufficient for the
//! CLI and for persisting generated test graphs; it intentionally avoids a
//! dependency on any serialization framework for the hot path.

use crate::{CsrGraph, Edge, GraphError, VertexId};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Writes `num_edges` edges over `num_vertices` vertices as a text edge
/// list: the `# vertices` and `# edges` header lines, then one `u v` line
/// per edge, in the order `edges` yields them. Canonical edges in
/// ascending order, as [`CsrGraph::edges`] and an extraction result hold
/// them, read back as the same graph. The one edge writer: graphs, serve's
/// `payload=edges` and `chordal extract --out` all go through it.
pub fn write_edges<W: Write>(
    num_vertices: usize,
    num_edges: usize,
    edges: impl IntoIterator<Item = Edge>,
    writer: W,
) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# vertices {num_vertices}")?;
    writeln!(w, "# edges {num_edges}")?;
    for (u, v) in edges {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()?;
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
}
