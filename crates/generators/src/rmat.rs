//! R-MAT recursive matrix graph generator (Chakrabarti, Zhan, Faloutsos 2004).
//!
//! The paper generates its synthetic test suite with R-MAT: the number of
//! vertices is `2^SCALE`, the number of (pre-deduplication) edges is
//! `edge_factor × 2^SCALE` with `edge_factor = 8`, and three probability
//! presets are used:
//!
//! * **RMAT-ER** `{0.25, 0.25, 0.25, 0.25}` — Erdős–Rényi-like, normal degree
//!   distribution;
//! * **RMAT-G**  `{0.45, 0.15, 0.15, 0.25}` — skewed, scale-free-like;
//! * **RMAT-B**  `{0.55, 0.15, 0.15, 0.15}` — strongly skewed, very high
//!   maximum degree and dense local communities.

use chordal_graph::{CsrGraph, EdgeList, VertexId};
use chordal_runtime::{pool_size, Engine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's three R-MAT presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RmatKind {
    /// `{0.25, 0.25, 0.25, 0.25}` — Erdős–Rényi-like degree distribution.
    Er,
    /// `{0.45, 0.15, 0.15, 0.25}` — skewed degree distribution.
    G,
    /// `{0.55, 0.15, 0.15, 0.15}` — strongly skewed degree distribution.
    B,
}

impl RmatKind {
    /// The four quadrant probabilities `(a, b, c, d)` of this preset.
    pub fn probabilities(self) -> (f64, f64, f64, f64) {
        match self {
            RmatKind::Er => (0.25, 0.25, 0.25, 0.25),
            RmatKind::G => (0.45, 0.15, 0.15, 0.25),
            RmatKind::B => (0.55, 0.15, 0.15, 0.15),
        }
    }

    /// Name used in benchmark output and tables ("RMAT-ER" etc.).
    pub fn name(self) -> &'static str {
        match self {
            RmatKind::Er => "RMAT-ER",
            RmatKind::G => "RMAT-G",
            RmatKind::B => "RMAT-B",
        }
    }

    /// All three presets, in the order the paper lists them.
    pub fn all() -> [RmatKind; 3] {
        [RmatKind::Er, RmatKind::G, RmatKind::B]
    }
}

/// Parameters of an R-MAT generation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Number of generated edges per vertex (before deduplication); the paper
    /// uses 8.
    pub edge_factor: usize,
    /// Quadrant probability `a` (top-left).
    pub a: f64,
    /// Quadrant probability `b` (top-right).
    pub b: f64,
    /// Quadrant probability `c` (bottom-left).
    pub c: f64,
    /// Quadrant probability `d` (bottom-right).
    pub d: f64,
    /// RNG seed; generation is deterministic given the seed.
    pub seed: u64,
}

impl RmatParams {
    /// Parameters for one of the paper's presets at the given scale with the
    /// paper's edge factor of 8.
    pub fn preset(kind: RmatKind, scale: u32, seed: u64) -> Self {
        let (a, b, c, d) = kind.probabilities();
        Self {
            scale,
            edge_factor: 8,
            a,
            b,
            c,
            d,
            seed,
        }
    }

    /// Number of vertices (`2^scale`).
    pub fn num_vertices(&self) -> usize {
        1usize << self.scale
    }

    /// Number of edges generated before deduplication.
    pub fn num_generated_edges(&self) -> usize {
        self.num_vertices() * self.edge_factor
    }

    /// Validates that the probabilities are non-negative and sum to ~1.
    pub fn validate(&self) -> Result<(), String> {
        let sum = self.a + self.b + self.c + self.d;
        if self.a < 0.0 || self.b < 0.0 || self.c < 0.0 || self.d < 0.0 {
            return Err("R-MAT probabilities must be non-negative".into());
        }
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("R-MAT probabilities must sum to 1 (got {sum})"));
        }
        if self.scale == 0 || self.scale > 31 {
            return Err(format!(
                "scale {} out of supported range 1..=31",
                self.scale
            ));
        }
        Ok(())
    }

    /// Generates the raw edge list (duplicates and self loops included, as
    /// produced by the recursive quadrant descent). Runs on an engine of
    /// [`pool_size`] threads in chunks of 65,536 edges, each seeded from its
    /// index, so the output does not depend on the schedule.
    pub fn generate_edge_list(&self) -> EdgeList {
        self.validate().expect("invalid R-MAT parameters");
        let n = self.num_vertices();
        let m = self.num_generated_edges();
        let scale = self.scale;
        let (a, b, c, _d) = (self.a, self.b, self.c, self.d);
        let chunk = 1usize << 16;
        let chunks = m.div_ceil(chunk);
        let seed = self.seed;
        let edges: Vec<(VertexId, VertexId)> = Engine::chunked_with_grain(pool_size(), 1)
            .map_pieces(chunks, |range| {
                let mut local = Vec::new();
                for ci in range {
                    let count = chunk.min(m - ci * chunk);
                    let mut rng =
                        StdRng::seed_from_u64(seed ^ ((ci as u64) << 20).wrapping_add(ci as u64));
                    local.extend((0..count).map(|_| sample_edge(&mut rng, scale, a, b, c)));
                }
                local
            })
            .concat();
        EdgeList::from_edges(n, edges).expect("generated edges are always in range")
    }

    /// Generates the deduplicated, self-loop-free graph with sorted
    /// adjacency.
    pub fn generate(&self) -> CsrGraph {
        CsrGraph::from_edge_list(&self.generate_edge_list())
    }
}

/// Samples a single edge by recursive quadrant descent.
fn sample_edge<R: Rng>(rng: &mut R, scale: u32, a: f64, b: f64, c: f64) -> (VertexId, VertexId) {
    let mut u: u64 = 0;
    let mut v: u64 = 0;
    for _ in 0..scale {
        u <<= 1;
        v <<= 1;
        let r: f64 = rng.gen();
        if r < a {
            // top-left: no bits set
        } else if r < a + b {
            v |= 1;
        } else if r < a + b + c {
            u |= 1;
        } else {
            u |= 1;
            v |= 1;
        }
    }
    (u as VertexId, v as VertexId)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_valid_probabilities() {
        for kind in RmatKind::all() {
            let (a, b, c, d) = kind.probabilities();
            assert!((a + b + c + d - 1.0).abs() < 1e-12, "{kind:?}");
            let p = RmatParams::preset(kind, 8, 1);
            assert!(p.validate().is_ok());
            assert_eq!(p.edge_factor, 8);
        }
        assert_eq!(RmatKind::Er.name(), "RMAT-ER");
        assert_eq!(RmatKind::G.name(), "RMAT-G");
        assert_eq!(RmatKind::B.name(), "RMAT-B");
    }

    #[test]
    fn vertex_and_edge_counts_follow_scale() {
        let p = RmatParams::preset(RmatKind::Er, 10, 3);
        assert_eq!(p.num_vertices(), 1024);
        assert_eq!(p.num_generated_edges(), 8192);
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let mut p = RmatParams::preset(RmatKind::Er, 10, 3);
        p.a = 0.9;
        assert!(p.validate().is_err());
        let mut p = RmatParams::preset(RmatKind::Er, 0, 3);
        p.scale = 0;
        assert!(p.validate().is_err());
        let mut p = RmatParams::preset(RmatKind::Er, 10, 3);
        p.a = -0.1;
        p.b = 0.6;
        assert!(p.validate().is_err());
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let p = RmatParams::preset(RmatKind::G, 8, 42);
        let g1 = p.generate();
        let g2 = p.generate();
        assert_eq!(g1, g2);
        let p2 = RmatParams::preset(RmatKind::G, 8, 43);
        let g3 = p2.generate();
        assert_ne!(g1, g3);
    }

    #[test]
    fn generated_graph_is_well_formed() {
        let p = RmatParams::preset(RmatKind::B, 9, 7);
        let g = p.generate();
        assert_eq!(g.num_vertices(), 512);
        assert!(g.num_edges() > 0);
        assert!(g.num_edges() <= p.num_generated_edges());
        assert!(g.is_sorted());
        // No self loops survive.
        for v in 0..g.num_vertices() as VertexId {
            assert!(!g.neighbors(v).contains(&v));
        }
        g.validate_symmetry().unwrap();
    }

    #[test]
    fn rmat_b_is_more_skewed_than_rmat_er() {
        let scale = 11;
        let er = RmatParams::preset(RmatKind::Er, scale, 5).generate();
        let b = RmatParams::preset(RmatKind::B, scale, 5).generate();
        assert!(
            b.max_degree() > 2 * er.max_degree(),
            "expected RMAT-B max degree ({}) to dominate RMAT-ER ({})",
            b.max_degree(),
            er.max_degree()
        );
    }

    #[test]
    fn average_degree_is_close_to_twice_edge_factor_for_er() {
        // ER preset has few duplicate collisions at moderate scale, so the
        // deduplicated average degree stays near 2 * edge_factor (the paper's
        // Table I reports avg degree 8 with edge factor 8 counting each
        // undirected edge once).
        let g = RmatParams::preset(RmatKind::Er, 12, 11).generate();
        let avg = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(avg > 12.0 && avg < 16.5, "avg degree {avg}");
    }
}
