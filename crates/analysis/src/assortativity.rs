//! Degree assortativity (Newman 2002), used by the paper to characterise the
//! gene-correlation networks: biological networks tend to be assortative in
//! the sense that hubs avoid connecting to other hubs, which shows up as a
//! negative degree-degree correlation over edges combined with high local
//! clustering of low-degree vertices.

use chordal_graph::CsrGraph;

/// Newman's degree assortativity coefficient: the Pearson correlation of the
/// degrees at the two ends of every edge. Returns 0 for graphs with no edges
/// or degenerate (constant-degree) graphs.
pub fn degree_assortativity(graph: &CsrGraph) -> f64 {
    let m = graph.num_edges();
    if m == 0 {
        return 0.0;
    }
    // Use the remaining-degree formulation over each edge counted once.
    let mut sum_xy = 0.0f64;
    let mut sum_x = 0.0f64;
    let mut sum_y = 0.0f64;
    let mut sum_x2 = 0.0f64;
    let mut sum_y2 = 0.0f64;
    let mut count = 0.0f64;
    for (u, v) in graph.edges() {
        // Count each edge in both orientations so the measure is symmetric.
        let du = graph.degree(u) as f64;
        let dv = graph.degree(v) as f64;
        for (x, y) in [(du, dv), (dv, du)] {
            sum_xy += x * y;
            sum_x += x;
            sum_y += y;
            sum_x2 += x * x;
            sum_y2 += y * y;
            count += 1.0;
        }
    }
    let mean_x = sum_x / count;
    let mean_y = sum_y / count;
    let cov = sum_xy / count - mean_x * mean_y;
    let var_x = sum_x2 / count - mean_x * mean_x;
    let var_y = sum_y2 / count - mean_y * mean_y;
    if var_x <= 0.0 || var_y <= 0.0 {
        return 0.0;
    }
    cov / (var_x.sqrt() * var_y.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chordal_generators::structured;

    #[test]
    fn star_is_disassortative() {
        let g = structured::star(20);
        assert!(degree_assortativity(&g) < -0.5);
    }

    #[test]
    fn cycle_is_degenerate_zero() {
        // Every vertex has degree 2: zero variance → defined as 0.
        let g = structured::cycle(10);
        assert_eq!(degree_assortativity(&g), 0.0);
    }

    #[test]
    fn empty_graph_is_zero() {
        assert_eq!(
            degree_assortativity(&chordal_graph::CsrGraph::empty(5)),
            0.0
        );
    }

    #[test]
    fn coefficient_is_bounded() {
        let g = chordal_generators::rmat::RmatParams::preset(
            chordal_generators::rmat::RmatKind::B,
            9,
            3,
        )
        .generate();
        let r = degree_assortativity(&g);
        assert!((-1.0..=1.0).contains(&r), "r = {r}");
    }
}
