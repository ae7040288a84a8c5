//! Shortest-path-length distribution (Figure 3 of the paper).
//!
//! The paper uses the histogram of pairwise shortest-path lengths to explain
//! why the biological networks need more extraction iterations: their
//! densely connected modules are far apart, giving a much wider distribution
//! (paths up to length 19 for GSE5140) than the R-MAT graphs (lengths ≤ 7).

use chordal_graph::traversal::{bfs_levels, UNREACHABLE};
use chordal_graph::{CsrGraph, VertexId};
use chordal_runtime::{pool_size, Engine};

/// Histogram of shortest path lengths: `histogram[l]` is the number of
/// unordered vertex pairs whose distance is exactly `l` (index 0 is unused
/// and always zero). Unreachable pairs are not counted.
///
/// `sources` selects which BFS roots to run; pass `None` to use every vertex
/// (exact distribution, `O(V·E)`), or a subset for an estimate on large
/// graphs. When a subset is used the counts are raw (per-source) pair
/// counts, which is what the shape comparison in Figure 3 needs.
pub fn shortest_path_distribution(graph: &CsrGraph, sources: Option<&[VertexId]>) -> Vec<u64> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let all: Vec<VertexId>;
    let sources = match sources {
        Some(s) => s,
        None => {
            all = (0..n as VertexId).collect();
            &all
        }
    };
    let exact = sources.len() == n;
    // One BFS per source, one source per grain; each piece sums its own
    // histogram.
    let per_piece: Vec<Vec<u64>> =
        Engine::chunked_with_grain(pool_size(), 1).map_pieces(sources.len(), |range| {
            let mut hist = Vec::new();
            for &s in &sources[range] {
                let dist = bfs_levels(graph, s);
                for (t, &d) in dist.iter().enumerate() {
                    if d == UNREACHABLE || d == 0 {
                        continue;
                    }
                    // For the exact (all-sources) case count each unordered
                    // pair once by requiring target > source.
                    if exact && (t as VertexId) < s {
                        continue;
                    }
                    let d = d as usize;
                    if hist.len() <= d {
                        hist.resize(d + 1, 0);
                    }
                    hist[d] += 1;
                }
            }
            hist
        });
    let max_len = per_piece.iter().map(Vec::len).max().unwrap_or(0);
    let mut total = vec![0u64; max_len];
    for h in per_piece {
        for (i, c) in h.into_iter().enumerate() {
            total[i] += c;
        }
    }
    total
}

/// Summary of a distance distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSummary {
    /// Largest observed finite distance (diameter when every source is used
    /// and the graph is connected).
    pub max_length: usize,
    /// Mean finite distance.
    pub mean_length: f64,
    /// Total number of counted pairs.
    pub pairs: u64,
}

/// Summarises a histogram produced by [`shortest_path_distribution`].
pub fn summarize_distribution(histogram: &[u64]) -> PathSummary {
    let mut pairs = 0u64;
    let mut weighted = 0.0f64;
    let mut max_length = 0usize;
    for (l, &c) in histogram.iter().enumerate() {
        if c > 0 {
            pairs += c;
            weighted += (l as f64) * c as f64;
            max_length = l;
        }
    }
    PathSummary {
        max_length,
        mean_length: if pairs > 0 {
            weighted / pairs as f64
        } else {
            0.0
        },
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chordal_generators::structured;

    #[test]
    fn path_graph_distribution() {
        // Path on 4 vertices: distances 1 (×3), 2 (×2), 3 (×1).
        let g = structured::path(4);
        let hist = shortest_path_distribution(&g, None);
        assert_eq!(hist, vec![0, 3, 2, 1]);
        let s = summarize_distribution(&hist);
        assert_eq!(s.max_length, 3);
        assert_eq!(s.pairs, 6);
        assert!((s.mean_length - 10.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn complete_graph_all_distances_one() {
        let g = structured::complete(5);
        let hist = shortest_path_distribution(&g, None);
        assert_eq!(hist, vec![0, 10]);
    }

    #[test]
    fn disconnected_pairs_are_not_counted() {
        let g = structured::disjoint_cliques(2, 3);
        let hist = shortest_path_distribution(&g, None);
        assert_eq!(hist.iter().sum::<u64>(), 6); // 3 pairs per triangle
    }

    #[test]
    fn sampled_sources_give_per_source_counts() {
        let g = structured::path(5);
        let hist = shortest_path_distribution(&g, Some(&[0]));
        // From vertex 0: distances 1,2,3,4 each once.
        assert_eq!(hist, vec![0, 1, 1, 1, 1]);
    }

    #[test]
    fn empty_graph_gives_empty_histogram() {
        let g = chordal_graph::CsrGraph::empty(0);
        assert!(shortest_path_distribution(&g, None).is_empty());
        let s = summarize_distribution(&[]);
        assert_eq!(s.pairs, 0);
        assert_eq!(s.mean_length, 0.0);
    }

    #[test]
    fn star_has_diameter_two() {
        let g = structured::star(10);
        let hist = shortest_path_distribution(&g, None);
        let s = summarize_distribution(&hist);
        assert_eq!(s.max_length, 2);
        assert_eq!(hist[1] as usize, 9);
        assert_eq!(hist[2] as usize, 9 * 8 / 2);
    }
}
