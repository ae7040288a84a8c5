//! Construction of the paper's test suite at a configurable (reduced) scale.
//!
//! The paper runs R-MAT graphs at SCALE 24–26 (up to 537 million edges) and
//! four gene-correlation networks with ~45k genes. Those sizes exceed this
//! environment, so the harness builds the same *families* at a smaller,
//! configurable scale; `experiments table1` prints the resulting sizes
//! (Table I of the paper lists the originals). Weak-scaling
//! experiments use three consecutive scales exactly as the paper does.

use chordal_generators::bio::GeneNetworkKind;
use chordal_generators::rmat::{RmatKind, RmatParams};
use chordal_graph::permute::apply_permutation;
use chordal_graph::traversal::bfs_numbering;
use chordal_graph::CsrGraph;

/// A graph plus the name it carries in tables and figures.
#[derive(Debug, Clone)]
pub struct NamedGraph {
    /// Display name, e.g. `"RMAT-B(14)"` or `"GSE5140(CRT)"`.
    pub name: String,
    /// The graph itself (sorted adjacency).
    pub graph: CsrGraph,
}

impl NamedGraph {
    /// Creates a named graph.
    pub fn new(name: impl Into<String>, graph: CsrGraph) -> Self {
        Self {
            name: name.into(),
            graph,
        }
    }
}

/// Default R-MAT scale used when none is given on the command line. Chosen
/// so a full figure sweep finishes in minutes on a laptop-class machine.
pub const DEFAULT_RMAT_SCALE: u32 = 14;

/// Default number of genes for the synthetic gene-correlation networks.
pub const DEFAULT_GENES: usize = 1_200;

/// Base RNG seed for all workloads (deterministic suite).
pub const SUITE_SEED: u64 = 20120910; // ICPP 2012 nod

/// Builds the three R-MAT presets at one scale (paper edge factor 8).
pub fn rmat_suite(scale: u32) -> Vec<NamedGraph> {
    RmatKind::all()
        .into_iter()
        .map(|kind| {
            let graph = RmatParams::preset(kind, scale, SUITE_SEED ^ scale as u64).generate();
            NamedGraph::new(format!("{}({})", kind.name(), scale), graph)
        })
        .collect()
}

/// Builds one R-MAT preset at one scale.
pub fn rmat_graph(kind: RmatKind, scale: u32) -> NamedGraph {
    let graph = RmatParams::preset(kind, scale, SUITE_SEED ^ scale as u64).generate();
    NamedGraph::new(format!("{}({})", kind.name(), scale), graph)
}

/// Builds the four synthetic gene-correlation networks with `genes` genes
/// each (paper names preserved).
pub fn bio_suite(genes: usize) -> Vec<NamedGraph> {
    GeneNetworkKind::all()
        .into_iter()
        .map(|kind| bio_graph(kind, genes))
        .collect()
}

/// Builds one gene-correlation network with `genes` genes.
pub fn bio_graph(kind: GeneNetworkKind, genes: usize) -> NamedGraph {
    NamedGraph::new(kind.name().to_string(), kind.network(genes, SUITE_SEED))
}

/// Applies the BFS renumbering the paper recommends (so that the extracted
/// chordal edge set is connected when the input is connected).
pub fn bfs_renumbered(graph: &CsrGraph) -> CsrGraph {
    let perm = bfs_numbering(graph);
    apply_permutation(graph, &perm).expect("BFS numbering is a valid permutation")
}

/// Thread counts for strong-scaling sweeps: powers of two up to `max`,
/// always including `max` itself.
pub fn thread_sweep(max: usize) -> Vec<usize> {
    let max = max.max(1);
    let mut counts = Vec::new();
    let mut t = 1usize;
    while t < max {
        counts.push(t);
        t *= 2;
    }
    counts.push(max);
    counts.dedup();
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_suite_has_three_presets() {
        let suite = rmat_suite(8);
        assert_eq!(suite.len(), 3);
        assert!(suite[0].name.starts_with("RMAT-ER"));
        assert!(suite.iter().all(|g| g.graph.num_vertices() == 256));
    }

    #[test]
    fn bio_suite_has_four_networks() {
        let suite = bio_suite(300);
        assert_eq!(suite.len(), 4);
        assert!(suite.iter().all(|g| g.graph.num_vertices() == 300));
        assert!(suite.iter().any(|g| g.name.contains("GSE17072")));
    }

    #[test]
    fn thread_sweep_is_powers_of_two_plus_max() {
        assert_eq!(thread_sweep(1), vec![1]);
        assert_eq!(thread_sweep(8), vec![1, 2, 4, 8]);
        assert_eq!(thread_sweep(12), vec![1, 2, 4, 8, 12]);
        assert_eq!(thread_sweep(0), vec![1]);
    }

    #[test]
    fn bfs_renumbering_preserves_size() {
        let g = rmat_graph(RmatKind::Er, 7).graph;
        let r = bfs_renumbered(&g);
        assert_eq!(g.num_vertices(), r.num_vertices());
        assert_eq!(g.num_edges(), r.num_edges());
    }
}
