//! Per-kernel ablations: intersection variants across degree-skew
//! families, the Pearson correlation kernel behind the gene networks, and
//! the R-MAT generator's quadrant descent.
//!
//! The extraction stack's hot predicates (triangle tests, subset checks,
//! separator searches — see [`chordal_core::kernels`]) all reduce to
//! intersections of sorted neighbor lists, and the right algorithm depends
//! on the *size ratio* of the two lists: linear merging is optimal for
//! comparable sizes, galloping (exponential probe + binary search) wins
//! once one side dwarfs the other, and the adaptive entry point switches
//! between them at [`chordal_core::kernels::GALLOP_RATIO`]. This
//! experiment measures all three variants on synthetic sorted-list
//! families spanning the skew spectrum (uniform, 16×, 256×, needle).
//!
//! The `pearson` family times the construction of the gene networks: the
//! per-pair loop ([`correlation_network_reference`], variant `scalar`)
//! against the blocked kernel ([`correlation_network`], variant
//! `blocked`), over the expression matrices of the four 3,000-gene
//! networks (1,000 genes with `--quick`), each at the paper's threshold.
//!
//! The `rmat` family times R-MAT generation: the float descent
//! ([`RmatParams::generate_reference`], variant `float`) against the
//! integer-threshold descent ([`RmatParams::generate`], variant
//! `threshold`), each building RMAT-ER, RMAT-G and RMAT-B at scale 16
//! (scale 12 with `--quick`), seed 1.
//!
//! Each [`KernelPoint`] records `ns_per_edge` (nanoseconds per input
//! element) and a `bytes_touched` estimate, so the ablation JSON shows
//! both the time and the traffic story. The `matches` checksum is asserted
//! identical across the variants of a family — the ablation never trades
//! correctness.

use super::HarnessOptions;
use crate::records::KernelPoint;
use crate::timing::time_best_of;
use crate::workloads::SUITE_SEED;
use chordal_core::kernels::{
    intersect_count, intersect_count_gallop, intersect_count_merge, GALLOP_RATIO,
};
use chordal_generators::bio::{
    correlation_network, correlation_network_reference, ExpressionMatrix, GeneNetworkKind, LANES,
    ROWS,
};
use chordal_generators::rmat::{RmatKind, RmatParams};
use chordal_graph::{CsrGraph, Edge, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// One synthetic input family: `pairs` pairs of ascending duplicate-free
/// lists with the given lengths drawn from a shared universe.
struct Family {
    name: &'static str,
    len_small: usize,
    len_large: usize,
}

fn families(quick: bool) -> Vec<Family> {
    let l = if quick { 4_096 } else { 65_536 };
    vec![
        Family {
            name: "uniform",
            len_small: l,
            len_large: l,
        },
        Family {
            name: "skewed-16x",
            len_small: l / 16,
            len_large: l,
        },
        Family {
            name: "skewed-256x",
            len_small: l / 256,
            len_large: l,
        },
        Family {
            name: "needle",
            len_small: 4,
            len_large: l,
        },
    ]
}

/// Draws an ascending duplicate-free list of `len` ids below `universe`.
fn sorted_ids(rng: &mut StdRng, len: usize, universe: u32) -> Vec<VertexId> {
    let mut set = BTreeSet::new();
    while set.len() < len {
        set.insert(rng.gen_range(0..universe));
    }
    set.into_iter().collect()
}

/// Estimated bytes one intersection reads: merge scans both lists, gallop
/// touches the small list plus `O(log |large|)` probes per element (capped
/// at the merge cost — galloping never reads more than a full scan).
fn bytes_estimate(variant: &str, len_small: usize, len_large: usize) -> u64 {
    let merge = 4 * (len_small + len_large) as u64;
    let log_large = (usize::BITS - len_large.max(1).leading_zeros()) as u64;
    let gallop = (4 * len_small as u64 * (log_large + 2)).min(merge);
    match variant {
        "merge" => merge,
        "gallop" => gallop,
        _ => {
            if len_large / len_small.max(1) >= GALLOP_RATIO {
                gallop
            } else {
                merge
            }
        }
    }
}

/// An intersection-count kernel under test.
type CountKernel = fn(&[VertexId], &[VertexId]) -> usize;

/// A correlation-network kernel under test.
type PearsonKernel = fn(&ExpressionMatrix, f64) -> CsrGraph;

/// Computed bytes one Pearson variant streams over a `genes` x `samples`
/// matrix. The per-pair loop reads each row once for itself and once for
/// every earlier row. The blocked kernel reads each tile at or above a
/// block once for the whole block, plus the block's own rows.
fn pearson_bytes(variant: &str, genes: usize, samples: usize) -> u64 {
    let row = 8 * samples as u64;
    let rows = match variant {
        "scalar" => genes + genes * genes.saturating_sub(1) / 2,
        _ => {
            let tiles = genes.div_ceil(LANES);
            (0..genes.div_ceil(ROWS))
                .map(|block| {
                    let first = block * ROWS;
                    (tiles - first / LANES) * LANES + ROWS.min(genes - first)
                })
                .sum()
        }
    };
    rows as u64 * row
}

/// The `pearson` family: both correlation kernels over the four gene
/// networks' expression matrices, best of `repeats` runs each.
fn pearson_points(quick: bool, repeats: usize) -> Vec<KernelPoint> {
    let genes = if quick { 1_000 } else { 3_000 };
    let inputs: Vec<(ExpressionMatrix, f64)> = GeneNetworkKind::all()
        .into_iter()
        .map(|kind| {
            let params = kind.params(genes, SUITE_SEED);
            (params.synthesize_expression(), params.threshold)
        })
        .collect();
    let samples = inputs[0].0.samples();
    let pairs = inputs.len() * genes * (genes - 1) / 2;
    let elements = (pairs * samples) as u64;
    let variants: [(&str, PearsonKernel); 2] = [
        ("scalar", correlation_network_reference),
        ("blocked", correlation_network),
    ];
    variants
        .into_iter()
        .map(|(variant, kernel)| {
            let mut best = f64::MAX;
            let mut matches = 0u64;
            for _ in 0..repeats {
                let start = std::time::Instant::now();
                let mut edges = 0usize;
                for (matrix, threshold) in &inputs {
                    edges += kernel(matrix, *threshold).num_edges();
                }
                best = best.min(start.elapsed().as_secs_f64());
                matches = edges as u64;
            }
            KernelPoint {
                experiment: "kernels".to_string(),
                family: "pearson".to_string(),
                variant: variant.to_string(),
                len_small: samples,
                len_large: genes,
                pairs,
                elements,
                seconds: best,
                ns_per_edge: best * 1e9 / elements as f64,
                bytes_touched: inputs.len() as u64 * pearson_bytes(variant, genes, samples),
                matches,
            }
        })
        .collect()
}

/// An R-MAT generator under test.
type RmatGenerator = fn(&RmatParams) -> CsrGraph;

/// The `rmat` family: both descents building the three presets, best of
/// `repeats` runs each. An element is one generated edge (duplicates and
/// self loops included), and the bytes are the raw edges the sampling
/// writes.
fn rmat_points(quick: bool, repeats: usize) -> Vec<KernelPoint> {
    let scale = if quick { 12 } else { 16 };
    let inputs = RmatKind::all().map(|kind| RmatParams::preset(kind, scale, 1));
    let generated = inputs[0].num_generated_edges();
    let elements = (inputs.len() * generated) as u64;
    let variants: [(&str, RmatGenerator); 2] = [
        ("float", RmatParams::generate_reference),
        ("threshold", RmatParams::generate),
    ];
    variants
        .into_iter()
        .map(|(variant, generate)| {
            let (best, edges) = time_best_of(repeats, || {
                inputs
                    .iter()
                    .map(|p| generate(p).num_edges())
                    .sum::<usize>()
            });
            let best = best.as_secs_f64();
            KernelPoint {
                experiment: "kernels".to_string(),
                family: "rmat".to_string(),
                variant: variant.to_string(),
                len_small: scale as usize,
                len_large: generated,
                pairs: inputs.len(),
                elements,
                seconds: best,
                ns_per_edge: best * 1e9 / elements as f64,
                bytes_touched: elements * std::mem::size_of::<Edge>() as u64,
                matches: edges as u64,
            }
        })
        .collect()
}

/// Runs the ablation and returns one point per (family, variant).
pub fn run(options: &HarnessOptions) -> Vec<KernelPoint> {
    let repeats = options.repeats.max(1);
    let pairs = if options.quick { 8 } else { 32 };
    let mut points = Vec::new();

    for family in families(options.quick) {
        // Deterministic inputs shared by every variant of the family.
        let mut rng = StdRng::seed_from_u64(0x5EED ^ family.len_small as u64);
        let universe = (family.len_large * 4) as u32;
        let inputs: Vec<(Vec<VertexId>, Vec<VertexId>)> = (0..pairs)
            .map(|_| {
                (
                    sorted_ids(&mut rng, family.len_small, universe),
                    sorted_ids(&mut rng, family.len_large, universe),
                )
            })
            .collect();
        let elements = (pairs * (family.len_small + family.len_large)) as u64;

        let variants: [(&str, CountKernel); 3] = [
            ("merge", intersect_count_merge),
            ("gallop", intersect_count_gallop),
            ("adaptive", intersect_count),
        ];
        for (variant, kernel) in variants {
            let mut best = f64::MAX;
            let mut matches = 0u64;
            for _ in 0..repeats {
                let start = std::time::Instant::now();
                let mut total = 0usize;
                for (a, b) in &inputs {
                    total += kernel(a, b);
                }
                best = best.min(start.elapsed().as_secs_f64());
                matches = total as u64;
            }
            points.push(KernelPoint {
                experiment: "kernels".to_string(),
                family: family.name.to_string(),
                variant: variant.to_string(),
                len_small: family.len_small,
                len_large: family.len_large,
                pairs,
                elements,
                seconds: best,
                ns_per_edge: best * 1e9 / elements as f64,
                bytes_touched: pairs as u64
                    * bytes_estimate(variant, family.len_small, family.len_large),
                matches,
            });
        }
    }

    points.extend(pearson_points(options.quick, repeats));
    points.extend(rmat_points(options.quick, repeats));

    // Checksum lock: every variant of a family must count the same
    // intersections (or, for `pearson` and `rmat`, keep the same edges).
    for family in points
        .iter()
        .map(|p| p.family.clone())
        .collect::<BTreeSet<_>>()
    {
        let in_family: Vec<&KernelPoint> = points.iter().filter(|p| p.family == family).collect();
        for p in &in_family[1..] {
            assert_eq!(
                p.matches, in_family[0].matches,
                "{family}: {} disagrees with {}",
                p.variant, in_family[0].variant
            );
        }
    }
    points
}

/// Runs the ablation with printing and record output.
pub fn run_and_print(options: &HarnessOptions) -> Vec<KernelPoint> {
    println!(
        "Kernels: intersections (merge vs gallop vs adaptive), Pearson (scalar vs blocked), \
         R-MAT (float vs threshold)"
    );
    let points = run(options);
    println!(
        "  {:<14} {:>8} {:>9} {:>9} {:>12} {:>10} {:>14}",
        "family", "variant", "small", "large", "ns/edge", "matches", "bytes-touched"
    );
    for p in &points {
        println!(
            "  {:<14} {:>8} {:>9} {:>9} {:>12.3} {:>10} {:>14}",
            p.family,
            p.variant,
            p.len_small,
            p.len_large,
            p.ns_per_edge,
            p.matches,
            p.bytes_touched
        );
    }
    for family in ["skewed-256x", "needle"] {
        let find = |variant: &str| {
            points
                .iter()
                .find(|p| p.family == family && p.variant == variant)
        };
        if let (Some(merge), Some(gallop)) = (find("merge"), find("gallop")) {
            println!(
                "  {family}: gallop {:.1}x vs merge (ns/edge {:.3} vs {:.3})",
                merge.ns_per_edge / gallop.ns_per_edge.max(1e-9),
                gallop.ns_per_edge,
                merge.ns_per_edge
            );
        }
    }
    // Each generator kernel against the reference it must match.
    for (family, reference, kernel) in [
        ("pearson", "scalar", "blocked"),
        ("rmat", "float", "threshold"),
    ] {
        let find = |variant: &str| {
            points
                .iter()
                .find(|p| p.family == family && p.variant == variant)
        };
        if let (Some(slow), Some(fast)) = (find(reference), find(kernel)) {
            println!(
                "  {family}: {kernel} {:.1}x vs {reference} ({:.3} vs {:.3} s)",
                slow.seconds / fast.seconds.max(1e-9),
                fast.seconds,
                slow.seconds
            );
        }
    }
    options.write_records(&points);
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use chordal_serve::json::ToJson;

    #[test]
    fn ablation_covers_every_family_and_variant() {
        let options = HarnessOptions::tiny();
        let points = run(&options);
        // 4 synthetic families x 3 variants, then the two Pearson kernels
        // and the two R-MAT descents.
        assert_eq!(points.len(), 16);
        let pearson: Vec<_> = points.iter().filter(|p| p.family == "pearson").collect();
        assert_eq!(pearson.len(), 2);
        assert_eq!(pearson[0].matches, pearson[1].matches);
        assert!(pearson[0].matches > 0 && pearson[0].pairs == 4 * 1_000 * 999 / 2);
        let rmat: Vec<_> = points.iter().filter(|p| p.family == "rmat").collect();
        assert_eq!(rmat.len(), 2);
        assert_eq!(
            (rmat[0].variant.as_str(), rmat[1].variant.as_str()),
            ("float", "threshold")
        );
        assert_eq!(rmat[0].matches, rmat[1].matches);
        assert!(rmat[0].matches > 0 && rmat[0].elements == 3 * (8 << 12));
        for family in ["uniform", "skewed-16x", "skewed-256x", "needle"] {
            let of_family: Vec<_> = points.iter().filter(|p| p.family == family).collect();
            assert_eq!(of_family.len(), 3, "{family}");
            // The checksum is the correctness lock across variants.
            assert!(of_family.windows(2).all(|w| w[0].matches == w[1].matches));
            for p in &of_family {
                assert!(p.seconds >= 0.0 && p.ns_per_edge >= 0.0);
                assert!(p.elements > 0 && p.bytes_touched > 0);
                assert!(p.to_json().contains("\"experiment\":\"kernels\""));
            }
        }
    }

    #[test]
    fn gallop_touches_fewer_bytes_on_skewed_families() {
        // The traffic model, independent of timing noise: on a 256x skew
        // the gallop estimate must be far below the merge estimate.
        let merge = bytes_estimate("merge", 256, 65_536);
        let gallop = bytes_estimate("gallop", 256, 65_536);
        assert!(gallop * 10 < merge, "gallop {gallop} vs merge {merge}");
        // Adaptive picks merge below the crossover, gallop above it.
        assert_eq!(bytes_estimate("adaptive", 4_096, 4_096), merge_of(4_096));
        assert_eq!(
            bytes_estimate("adaptive", 256, 65_536),
            bytes_estimate("gallop", 256, 65_536)
        );
    }

    #[test]
    fn blocked_pearson_streams_a_block_fraction_of_the_scalar_bytes() {
        // One block of rows streams each tile once, so at 3,000 genes the
        // blocked kernel reads far fewer bytes than the per-pair loop.
        let scalar = pearson_bytes("scalar", 3_000, 60);
        let blocked = pearson_bytes("blocked", 3_000, 60);
        assert_eq!(scalar, (3_000 + 3_000 * 2_999 / 2) * 480);
        assert!(
            blocked * (ROWS as u64 / 2) < scalar,
            "{blocked} vs {scalar}"
        );
        // A single block reads every tile once, plus its own rows.
        assert_eq!(pearson_bytes("blocked", LANES, 60), 2 * LANES as u64 * 480);
    }

    fn merge_of(l: usize) -> u64 {
        bytes_estimate("merge", l, l)
    }
}
