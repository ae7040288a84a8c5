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
//!
//! Each edge descends `scale` levels of the adjacency matrix, one draw per
//! level picking a quadrant. The draw is `rng.gen::<f64>()`, which is
//! exactly `k·2^-53` with `k = next_u64() >> 11`, so `r < t` holds exactly
//! when `k < ⌈t·2^53⌉`. [`RmatParams::generate`] therefore compares the raw
//! `k` with three integer thresholds, computed once per graph from `a`,
//! `a + b` and `a + b + c`, and sets each level's two bits without a
//! branch. [`RmatParams::generate_reference`] keeps the float descent (an
//! `if r < a … else if r < a + b …` chain) as the oracle; both share the
//! chunk seeds and the RNG stream, one `next_u64` per level, so they build
//! the same graph bit for bit.

use chordal_graph::{CsrGraph, Edge, VertexId};
use chordal_runtime::{pool_size, Engine};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Edges sampled from one seeded RNG; the last chunk may be shorter.
const CHUNK: usize = 1 << 16;

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

    /// Validates that the probabilities are finite, non-negative and sum
    /// to ~1.
    pub fn validate(&self) -> Result<(), String> {
        let probabilities = [self.a, self.b, self.c, self.d];
        if !probabilities.iter().all(|p| p.is_finite()) {
            return Err("R-MAT probabilities must be finite".into());
        }
        let sum = self.a + self.b + self.c + self.d;
        if probabilities.iter().any(|&p| p < 0.0) {
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

    /// Generates the deduplicated, self-loop-free graph with sorted
    /// adjacency. The raw edges (duplicates and self loops included, as
    /// produced by the recursive quadrant descent) are sampled on an engine
    /// of [`pool_size`] threads in chunks of 65,536 edges, each seeded from
    /// its index and written in place into one edge vector, so the output
    /// does not depend on the schedule.
    ///
    /// Each level compares the raw draw `k = next_u64() >> 11` with the
    /// integer thresholds `⌈t·2^53⌉` of `t = a`, `a + b` and `a + b + c`:
    /// the float draw is exactly `k·2^-53`, so `r < t` ⇔ `k < ⌈t·2^53⌉`,
    /// and the graph equals [`RmatParams::generate_reference`]'s bit for
    /// bit (the chunk seeds and the RNG stream are the same).
    pub fn generate(&self) -> CsrGraph {
        let thresholds = Thresholds::new(self.a, self.b, self.c);
        let scale = self.scale;
        self.generate_with(|rng| thresholds.sample_edge(rng, scale))
    }

    /// [`RmatParams::generate`] with the float descent: each level draws
    /// `r = rng.gen::<f64>()` and picks the first quadrant whose cumulative
    /// probability exceeds it. It shares the chunking and seeding with
    /// `generate`, so only the per-level descent differs; it is the tests'
    /// oracle and the `float` variant of `experiments kernels`.
    pub fn generate_reference(&self) -> CsrGraph {
        let (scale, a, b, c) = (self.scale, self.a, self.b, self.c);
        self.generate_with(|rng| sample_edge_reference(rng, scale, a, b, c))
    }

    /// Samples every chunk's edges with `sample_edge`, then builds the graph.
    fn generate_with(&self, sample_edge: impl Fn(&mut StdRng) -> Edge + Sync) -> CsrGraph {
        self.validate().expect("invalid R-MAT parameters");
        let seed = self.seed;
        let mut edges: Vec<Edge> = vec![(0, 0); self.num_generated_edges()];
        let mut chunks: Vec<&mut [Edge]> = edges.chunks_mut(CHUNK).collect();
        Engine::chunked_with_grain(pool_size(), 1).for_each_mut(&mut chunks, |ci, chunk| {
            let mut rng = StdRng::seed_from_u64(seed ^ ((ci as u64) << 20).wrapping_add(ci as u64));
            for edge in chunk.iter_mut() {
                *edge = sample_edge(&mut rng);
            }
        });
        CsrGraph::from_edges(self.num_vertices(), edges)
            .expect("generated edges are always in range")
    }
}

/// The descent's three cumulative probabilities `t` as thresholds `T` on
/// the raw draw: `k < T` exactly when the float draw `k·2^-53` is below `t`.
struct Thresholds {
    a: u64,
    ab: u64,
    abc: u64,
}

impl Thresholds {
    /// The thresholds of `a`, `a + b` and `a + b + c`, summed as the float
    /// descent sums them.
    fn new(a: f64, b: f64, c: f64) -> Self {
        Self {
            a: threshold(a),
            ab: threshold(a + b),
            abc: threshold(a + b + c),
        }
    }

    /// Samples a single edge: each level's `u` bit is `k ≥ T_ab` (quadrant
    /// c or d) and its `v` bit is `T_a ≤ k < T_ab` (b) or `k ≥ T_abc` (d),
    /// exactly the quadrant the float chain picks. `a ≤ a + b ≤ a + b + c`
    /// for non-negative `b` and `c`, so the thresholds are ordered.
    #[inline(always)]
    fn sample_edge<R: RngCore>(&self, rng: &mut R, scale: u32) -> Edge {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..scale {
            let k = rng.next_u64() >> 11;
            let u_bit = k >= self.ab;
            let v_bit = ((k >= self.a) & !u_bit) | (k >= self.abc);
            u = (u << 1) | u32::from(u_bit);
            v = (v << 1) | u32::from(v_bit);
        }
        (u, v)
    }
}

/// `⌈t·2^53⌉`, the least raw draw `k` whose float `k·2^-53` is not below
/// `t`. Scaling a finite `t ≥ 0` by `2^53` is exact, so only the ceiling
/// rounds; a `t` at or above 1 passes every draw (`k < 2^53`).
fn threshold(t: f64) -> u64 {
    (t * (1u64 << 53) as f64).ceil() as u64
}

/// Samples a single edge by recursive quadrant descent on float draws.
fn sample_edge_reference<R: Rng>(rng: &mut R, scale: u32, a: f64, b: f64, c: f64) -> Edge {
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
        // NaN compares false with everything, so neither the sign nor the
        // sum check alone would catch it.
        let mut p = RmatParams::preset(RmatKind::Er, 10, 3);
        p.a = f64::NAN;
        assert_eq!(
            p.validate(),
            Err("R-MAT probabilities must be finite".into())
        );
        let mut p = RmatParams::preset(RmatKind::Er, 10, 3);
        p.d = f64::NAN;
        assert!(p.validate().is_err());
        let mut p = RmatParams::preset(RmatKind::Er, 10, 3);
        p.c = f64::INFINITY;
        assert!(p.validate().is_err());
    }

    /// Quadrant probabilities `(a, b, c, d)` the threshold descent is
    /// checked on: the presets, Graph500's, a non-dyadic and a dyadic set,
    /// and sets whose mass sits on one quadrant or on three.
    const PROBABILITY_SETS: [(f64, f64, f64, f64); 10] = [
        (0.25, 0.25, 0.25, 0.25),
        (0.45, 0.15, 0.15, 0.25),
        (0.55, 0.15, 0.15, 0.15),
        (0.57, 0.19, 0.19, 0.05),
        (0.1, 0.2, 0.3, 0.4),
        (0.5, 0.25, 0.125, 0.125),
        (1.0, 0.0, 0.0, 0.0),
        (0.0, 1.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, 1.0),
        (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.0),
    ];

    /// A source that returns one word forever, so a test picks the raw draw.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn integer_thresholds_agree_with_float_draws_at_every_boundary() {
        let mut cutoffs: Vec<f64> = PROBABILITY_SETS
            .iter()
            .flat_map(|&(a, b, c, _)| [a, a + b, a + b + c])
            .collect();
        let ulp = f64::EPSILON / 2.0;
        cutoffs.extend([
            5e-324,
            f64::MIN_POSITIVE,
            ulp,
            0.1 + 0.2,
            1.0 - ulp,
            1.0 + 2.0 * ulp,
        ]);
        for t in cutoffs {
            let bound = threshold(t);
            for k in [bound.wrapping_sub(1), bound, bound + 1] {
                if k >= 1 << 53 {
                    continue;
                }
                let r: f64 = Fixed(k << 11).gen();
                assert_eq!(k < bound, r < t, "t = {t:e}, k = {k}");
            }
        }
        // Every level's quadrant, at and beside each threshold of each set.
        for &(a, b, c, _) in &PROBABILITY_SETS {
            let thresholds = Thresholds::new(a, b, c);
            for boundary in [thresholds.a, thresholds.ab, thresholds.abc] {
                for k in [boundary.wrapping_sub(1), boundary, boundary + 1] {
                    if k >= 1 << 53 {
                        continue;
                    }
                    assert_eq!(
                        thresholds.sample_edge(&mut Fixed(k << 11), 3),
                        sample_edge_reference(&mut Fixed(k << 11), 3, a, b, c),
                        "({a}, {b}, {c}), k = {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_threshold_descent_samples_the_float_descents_edges() {
        for &(a, b, c, _) in &PROBABILITY_SETS {
            let thresholds = Thresholds::new(a, b, c);
            for seed in 0..20 {
                for scale in 1..=31 {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut oracle = rng.clone();
                    for _ in 0..16 {
                        assert_eq!(
                            thresholds.sample_edge(&mut rng, scale),
                            sample_edge_reference(&mut oracle, scale, a, b, c),
                            "({a}, {b}, {c}), seed {seed}, scale {scale}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn generate_builds_the_reference_graph() {
        for &(a, b, c, d) in &PROBABILITY_SETS {
            for scale in 1..=10 {
                let p = RmatParams {
                    scale,
                    edge_factor: 8,
                    a,
                    b,
                    c,
                    d,
                    seed: u64::from(scale),
                };
                assert_eq!(p.generate(), p.generate_reference(), "{p:?}");
            }
        }
        // Two chunks, the second one short.
        let p = RmatParams {
            edge_factor: 9,
            ..RmatParams::preset(RmatKind::G, 13, 5)
        };
        assert_eq!(p.num_generated_edges() % CHUNK, 8_192);
        assert_eq!(p.generate(), p.generate_reference());
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
