//! Options shared by every experiment.

use std::path::PathBuf;

/// Knobs of the experiment harness. All experiments accept the same options
/// and ignore the ones they do not use.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Base R-MAT scale (the paper uses 24; the harness default is laptop
    /// sized). Weak-scaling experiments use `scale`, `scale+1`, `scale+2`.
    pub rmat_scale: u32,
    /// Number of genes in the synthetic gene-correlation networks.
    pub genes: usize,
    /// Maximum number of worker threads for scaling sweeps.
    pub max_threads: usize,
    /// Wall-clock repetitions per timing point (best-of).
    pub repeats: usize,
    /// Optional JSON-lines output file for machine-readable records.
    pub out: Option<PathBuf>,
    /// Quick mode: shrink the sweeps so every experiment finishes in
    /// seconds (used by integration tests and smoke runs).
    pub quick: bool,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        Self {
            rmat_scale: crate::workloads::DEFAULT_RMAT_SCALE,
            genes: crate::workloads::DEFAULT_GENES,
            max_threads: chordal_runtime::available_threads(),
            repeats: 2,
            out: None,
            quick: false,
        }
    }
}

impl HarnessOptions {
    /// A configuration small enough for integration tests (sub-second
    /// experiments).
    pub fn tiny() -> Self {
        Self {
            rmat_scale: 9,
            genes: 250,
            max_threads: 4,
            repeats: 1,
            out: None,
            quick: true,
        }
    }

    /// Scales covered by weak-scaling experiments.
    pub fn weak_scaling_scales(&self) -> Vec<u32> {
        if self.quick {
            vec![self.rmat_scale]
        } else {
            vec![self.rmat_scale, self.rmat_scale + 1, self.rmat_scale + 2]
        }
    }

    /// Thread counts for strong-scaling sweeps.
    pub fn threads(&self) -> Vec<usize> {
        if self.quick {
            let m = self.max_threads.min(4);
            crate::workloads::thread_sweep(m)
        } else {
            crate::workloads::thread_sweep(self.max_threads)
        }
    }

    /// Writes records if an output path was configured.
    pub fn write_records<T: chordal_serve::json::ToJson>(&self, records: &[T]) {
        if let Some(path) = &self.out {
            if let Err(err) = crate::records::append_jsonl(path, records) {
                eprintln!(
                    "warning: failed to write records to {}: {err}",
                    path.display()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_sane() {
        let o = HarnessOptions::default();
        assert!(o.rmat_scale >= 10);
        assert!(o.max_threads >= 1);
        assert!(!o.quick);
        assert_eq!(o.weak_scaling_scales().len(), 3);
    }

    #[test]
    fn tiny_options_shrink_sweeps() {
        let o = HarnessOptions::tiny();
        assert!(o.quick);
        assert_eq!(o.weak_scaling_scales(), vec![9]);
        assert!(o.threads().len() <= 3);
    }
}
