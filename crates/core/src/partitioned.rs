//! The distributed-memory "nearly chordal" baseline.
//!
//! Section II of the paper describes the earlier approach of Dempsey,
//! Duraisamy, Ali and Bhowmick: partition the graph across processors, run
//! the serial Dearing algorithm on every partition independently, then add
//! the *border* edges (edges whose endpoints live in different partitions)
//! that form a triangle with an already-chordal edge. The paper explains why
//! this approach is unsuitable for multithreading — border edges can
//! re-introduce cycles longer than three, and eliminating them can cascade
//! until the computation degenerates to sequential — and uses it as
//! motivation for Algorithm 1.
//!
//! This module simulates that pipeline on shared memory so the benchmark
//! suite can compare against it and *measure* the chordality violations the
//! paper only discusses qualitatively. Vertices are split into contiguous
//! blocks of ids, which is what a typical distribution of a renumbered
//! graph looks like.

use crate::dearing::{extract_dearing_into, insert_sorted};
use crate::result::ChordalResult;
use crate::verify::is_chordal;
use crate::workspace::Workspace;
use chordal_graph::subgraph::{edge_subgraph, induced_subgraph};
use chordal_graph::{Edge, GraphRef, VertexId};
use chordal_runtime::{pool_size, Engine};
use std::collections::HashSet;

/// Result of the partitioned extraction.
#[derive(Debug, Clone)]
pub struct PartitionedResult {
    /// The union of per-partition chordal edges and the accepted border
    /// edges.
    pub edges: Vec<Edge>,
    /// Number of partitions used.
    pub partitions: usize,
    /// Number of edges whose endpoints fell in different partitions.
    pub border_edges: usize,
    /// Number of border edges added back (triangle rule).
    pub border_edges_added: usize,
    /// Whether the combined edge set is still chordal. The whole point of
    /// the paper's critique is that this is often `false`.
    pub chordal: bool,
}

impl PartitionedResult {
    /// Number of edges in the combined subgraph.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }
}

/// The partitioned baseline with `partitions` parts on `engine`, the
/// registry's [`crate::Algorithm::Partitioned`].
///
/// It returns the combined edge set as a [`ChordalResult`], reporting the
/// partition count as its iteration count; callers that need the
/// border-edge statistics or the honesty flag use [`extract_partitioned`].
/// Unlike every other algorithm of the registry, its output is **not**
/// guaranteed chordal — that deficiency is the paper's motivation for
/// Algorithm 1, and [`crate::Algorithm::guarantees_chordal`] reports it.
/// Each partition's Dearing run borrows its own child workspace from
/// `workspace`'s sub-pool, so repeated extractions with the same partition
/// count reuse every per-part scratch buffer.
pub(crate) fn extract_partitioned_into(
    graph: GraphRef<'_>,
    partitions: usize,
    engine: Engine,
    workspace: &mut Workspace,
) -> ChordalResult {
    let partitions = clamp_partitions(graph, partitions);
    let report =
        extract_partitioned_with(graph, partitions, workspace.sub_pool(partitions), engine);
    ChordalResult::new(graph.num_vertices(), report.edges, report.partitions, None)
}

/// Clamps a requested partition count to `[1, num_vertices]`.
fn clamp_partitions(graph: GraphRef<'_>, partitions: usize) -> usize {
    partitions.max(1).min(graph.num_vertices().max(1))
}

/// Runs the partitioned baseline with `partitions` parts and throwaway
/// per-partition workspaces, on an engine of [`pool_size`] threads,
/// returning the partition-level report.
pub fn extract_partitioned<'a>(
    graph: impl Into<GraphRef<'a>>,
    partitions: usize,
) -> PartitionedResult {
    let graph = graph.into();
    let partitions = clamp_partitions(graph, partitions);
    let mut workspace = Workspace::new();
    let subs = workspace.sub_pool(partitions);
    extract_partitioned_with(graph, partitions, subs, Engine::chunked(pool_size()))
}

/// The partitioned pipeline over caller-supplied per-partition workspaces
/// (`subs.len() >= partitions`, already clamped), with one partition per
/// grain of `engine`.
fn extract_partitioned_with(
    graph: GraphRef<'_>,
    partitions: usize,
    subs: &mut [Workspace],
    engine: Engine,
) -> PartitionedResult {
    let n = graph.num_vertices();
    let size = n.div_ceil(partitions);
    let part_of = |v: VertexId| -> usize { (v as usize / size).min(partitions - 1) };

    // Vertices of every partition.
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); partitions];
    for v in 0..n as VertexId {
        members[part_of(v)].push(v);
    }

    // Per-partition Dearing extraction (in parallel, as the distributed
    // algorithm would run them concurrently on different processors). Each
    // partition owns one task pairing its member list with its reusable
    // child workspace and an output slot, so the parallel sweep shares
    // nothing and the collected edge order stays deterministic (partition
    // order, then Dearing's own order).
    struct PartTask<'a> {
        workspace: &'a mut Workspace,
        members: &'a [VertexId],
        edges: Vec<Edge>,
    }
    let mut tasks: Vec<PartTask<'_>> = subs
        .iter_mut()
        .zip(&members)
        .map(|(workspace, members)| PartTask {
            workspace,
            members,
            edges: Vec::new(),
        })
        .collect();
    engine.with_grain(1).for_each_mut(&mut tasks, |_, task| {
        if task.members.is_empty() {
            return;
        }
        let sub = induced_subgraph(graph, task.members);
        let local = extract_dearing_into((&sub.graph).into(), task.workspace);
        task.edges = local
            .edges()
            .iter()
            .map(|&(a, b)| {
                let ga = sub.local_to_global[a as usize];
                let gb = sub.local_to_global[b as usize];
                if ga < gb {
                    (ga, gb)
                } else {
                    (gb, ga)
                }
            })
            .collect();
    });

    let mut edges: Vec<Edge> = Vec::with_capacity(tasks.iter().map(|t| t.edges.len()).sum());
    for task in &mut tasks {
        edges.append(&mut task.edges);
    }
    let chordal_set: HashSet<Edge> = edges.iter().copied().collect();

    // Adjacency of the current chordal set as sorted neighbour lists, so
    // the triangle test below is a branch-light sorted intersection
    // ([`crate::kernels::intersect_any`]) instead of per-element hash
    // probes. Border acceptances are rare relative to tests, so the
    // occasional binary-search insert is the cheap side of the trade.
    let mut chordal_adj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    for &(u, v) in &edges {
        chordal_adj[u as usize].push(v);
        chordal_adj[v as usize].push(u);
    }
    for list in &mut chordal_adj {
        list.sort_unstable();
    }

    // Border edges: endpoints in different partitions. Added when they close
    // a triangle with already-chordal edges.
    let mut border_edges = 0usize;
    let mut border_added = 0usize;
    for (u, v) in graph.edges() {
        if part_of(u) == part_of(v) {
            continue;
        }
        border_edges += 1;
        if chordal_set.contains(&(u, v)) {
            continue;
        }
        let forms_triangle =
            crate::kernels::intersect_any(&chordal_adj[u as usize], &chordal_adj[v as usize]);
        if forms_triangle {
            edges.push(if u < v { (u, v) } else { (v, u) });
            insert_sorted(&mut chordal_adj[u as usize], v);
            insert_sorted(&mut chordal_adj[v as usize], u);
            border_added += 1;
        }
    }

    let chordal = is_chordal(&edge_subgraph(graph, &edges));
    PartitionedResult {
        edges,
        partitions,
        border_edges,
        border_edges_added: border_added,
        chordal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dearing::extract_dearing;
    use chordal_generators::{rmat::RmatKind, rmat::RmatParams, structured};
    use chordal_graph::CsrGraph;

    #[test]
    fn single_partition_reduces_to_dearing() {
        let g = structured::grid(4, 5);
        let part = extract_partitioned(&g, 1);
        let dearing = extract_dearing(&g);
        assert_eq!(part.border_edges, 0);
        assert_eq!(part.num_edges(), dearing.num_chordal_edges());
        assert!(part.chordal);
    }

    #[test]
    fn partitioned_run_reports_border_statistics() {
        let g = RmatParams::preset(RmatKind::G, 8, 5).generate();
        let r = extract_partitioned(&g, 4);
        assert_eq!(r.partitions, 4);
        assert!(r.border_edges > 0);
        assert!(r.border_edges_added <= r.border_edges);
        assert!(r.num_edges() > 0);
    }

    #[test]
    fn per_partition_subgraphs_are_chordal_even_when_union_is_not() {
        // The union may violate chordality (that is the paper's point), but
        // each partition's own extraction is chordal by construction. We
        // verify that by re-checking the local edge sets.
        let g = RmatParams::preset(RmatKind::B, 8, 9).generate();
        let r = extract_partitioned(&g, 8);
        // The combined result may or may not be chordal; simply exercise the
        // field so regressions in the checker are caught.
        let _ = r.chordal;
        // Without border edges the union of vertex-disjoint chordal
        // subgraphs is chordal.
        let no_border: Vec<Edge> = r
            .edges
            .iter()
            .copied()
            .filter(|&(u, v)| {
                let size = g.num_vertices().div_ceil(8);
                (u as usize / size).min(7) == (v as usize / size).min(7)
            })
            .collect();
        assert!(is_chordal(&edge_subgraph(&g, &no_border)));
    }

    #[test]
    fn repeated_extractions_reuse_the_per_partition_sub_workspaces() {
        let g = RmatParams::preset(RmatKind::G, 8, 3).generate();
        let extract = |workspace: &mut Workspace| {
            extract_partitioned_into((&g).into(), 4, Engine::chunked(2), workspace)
        };
        let mut workspace = Workspace::new();
        let first = extract(&mut workspace);
        let allocations = workspace.allocations();
        let bytes = workspace.allocated_bytes();
        assert!(bytes > 0, "per-part workspaces must be retained");
        let second = extract(&mut workspace);
        assert_eq!(
            first.edges(),
            second.edges(),
            "reuse must not change output"
        );
        assert_eq!(
            workspace.allocations(),
            allocations,
            "same graph and partition count must not grow the sub-pool"
        );
        assert_eq!(workspace.allocated_bytes(), bytes);
        // The registry path agrees with the standalone pipeline.
        let standalone = extract_partitioned(&g, 4);
        assert_eq!(first.edges().len(), standalone.num_edges());
    }

    #[test]
    fn empty_graph_handled() {
        let g = CsrGraph::empty(0);
        let r = extract_partitioned(&g, 4);
        assert_eq!(r.num_edges(), 0);
        assert!(r.chordal);
    }
}
