//! Per-iteration instrumentation of the extraction (Figure 7 of the paper).

/// Statistics recorded across the iterations of the while-loop of
/// Algorithm 1.
///
/// The paper's Figure 7 plots the size of queue `Q1` at every iteration —
/// the amount of parallel work available — and discusses the total number of
/// iterations (≈3 for the R-MAT inputs, ≈10 for the biological networks).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IterationStats {
    /// `queue_sizes[t]` is the number of lowest-parent vertices processed in
    /// iteration `t` (the size of `Q1`).
    pub queue_sizes: Vec<usize>,
    /// `edges_added[t]` is the number of edges accepted into the chordal set
    /// during iteration `t`.
    pub edges_added: Vec<usize>,
}

impl IterationStats {
    /// Creates an empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of iterations recorded.
    pub fn iterations(&self) -> usize {
        self.queue_sizes.len()
    }

    /// Total number of edges accepted over all iterations.
    pub fn total_edges(&self) -> usize {
        self.edges_added.iter().sum()
    }

    /// Total queue entries processed over all iterations (a proxy for total
    /// work).
    pub fn total_queue_entries(&self) -> usize {
        self.queue_sizes.iter().sum()
    }

    /// Records one iteration.
    pub fn record(&mut self, queue_size: usize, edges_added: usize) {
        self.queue_sizes.push(queue_size);
        self.edges_added.push(edges_added);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut s = IterationStats::new();
        s.record(10, 4);
        s.record(25, 9);
        s.record(3, 1);
        assert_eq!(s.iterations(), 3);
        assert_eq!(s.total_edges(), 14);
        assert_eq!(s.total_queue_entries(), 38);
    }

    #[test]
    fn empty_stats() {
        let s = IterationStats::new();
        assert_eq!(s.iterations(), 0);
        assert_eq!(s.total_edges(), 0);
    }
}
