//! The correctness gate. It runs outside every timed region and feeds
//! `failed`: every extraction output must be a chordal edge set contained in
//! its input graph, serial outputs must repeat exactly, and sampled serve
//! payloads must parse into such an edge set.

use chordal_core::verify::is_chordal;
use chordal_core::ChordalResult;
use chordal_graph::io::read_edge_list;
use chordal_graph::subgraph::{edge_subgraph, edges_subset_of_graph};
use chordal_graph::{Edge, GraphRef};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

#[derive(Default)]
pub struct Gate {
    /// Outputs and payloads checked.
    pub checked: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Verdicts of distinct outputs, keyed by (input id, edge-set hash):
    /// a repeated output is not verified twice.
    verdicts: HashMap<(usize, u64), bool>,
    /// Edge-set hash of the first serial output of each input.
    serial: HashMap<usize, u64>,
}

fn edge_hash(edges: &[Edge]) -> u64 {
    let mut hasher = DefaultHasher::new();
    edges.hash(&mut hasher);
    hasher.finish()
}

/// Whether `edges` is a chordal edge set of `graph`.
pub fn is_chordal_subset(graph: GraphRef<'_>, edges: &[Edge]) -> bool {
    edges_subset_of_graph(graph, edges) && is_chordal(&edge_subgraph(graph, edges))
}

impl Gate {
    pub fn new() -> Gate {
        Gate::default()
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    fn record(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.checked += 1;
        if !ok {
            self.failures.push(what());
        }
        ok
    }

    fn verdict(&mut self, input: usize, graph: GraphRef<'_>, edges: &[Edge]) -> bool {
        *self
            .verdicts
            .entry((input, edge_hash(edges)))
            .or_insert_with(|| is_chordal_subset(graph, edges))
    }

    /// Checks an edge set against its input graph.
    pub fn check_edges(&mut self, input: usize, graph: GraphRef<'_>, edges: &[Edge]) -> bool {
        let ok = self.verdict(input, graph, edges);
        self.record(ok, || {
            format!("input {input}: output is not a chordal subgraph of the input")
        })
    }

    /// Checks one extraction output.
    pub fn check_result(
        &mut self,
        input: usize,
        graph: GraphRef<'_>,
        result: &ChordalResult,
    ) -> bool {
        self.check_edges(input, graph, result.edges())
    }

    /// Checks one serial output: chordal, and identical to the first
    /// serial output of the same input.
    pub fn check_serial(
        &mut self,
        input: usize,
        graph: GraphRef<'_>,
        result: &ChordalResult,
    ) -> bool {
        let hash = edge_hash(result.edges());
        let repeated = *self.serial.entry(input).or_insert(hash) == hash;
        let ok = self.verdict(input, graph, result.edges());
        self.record(ok && repeated, || {
            if repeated {
                format!("input {input}: output is not a chordal subgraph of the input")
            } else {
                format!("input {input}: serial output differs from the first repetition")
            }
        })
    }

    /// Checks one `payload=edges` reply: the payload parses as an edge list
    /// over the input's vertex set, holds the reply's edge count, and is a
    /// chordal edge set of the input.
    pub fn check_payload(
        &mut self,
        input: usize,
        graph: GraphRef<'_>,
        payload: &[u8],
        chordal_edges: u64,
    ) -> bool {
        let ok = match read_edge_list(payload) {
            Ok(parsed) => {
                let edges: Vec<Edge> = parsed.edges().collect();
                parsed.num_vertices() == graph.num_vertices()
                    && edges.len() as u64 == chordal_edges
                    && is_chordal_subset(graph, &edges)
            }
            Err(_) => false,
        };
        self.record(ok, || {
            format!("input {input}: serve payload failed to parse or is not chordal")
        })
    }

    /// Counts a failed or refused operation.
    pub fn refuse(&mut self, what: String) {
        self.record(false, || what);
    }
}
