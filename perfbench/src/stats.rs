//! Order statistics for timing samples.

/// Nearest-rank quantile (`q` in `0..=1`) of an ascending slice; 0 when
/// empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// A timing reported as its median plus the highest whole percentile that
/// still has at least ten samples beyond it, with the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    pub median: f64,
    pub tail: f64,
    /// The percentile `tail` reports; 100 (the maximum) when fewer than 20
    /// samples leave no percentile at or above the median with ten beyond.
    pub tail_pct: u32,
    pub samples: usize,
}

impl Timing {
    pub fn of(samples: &[f64]) -> Timing {
        let sorted = sorted(samples);
        let n = sorted.len();
        let tail_pct = (50..=99u32)
            .rev()
            .find(|&p| {
                let rank = (n as f64 * f64::from(p) / 100.0).ceil() as usize;
                n >= rank + 10
            })
            .unwrap_or(100);
        Timing {
            median: quantile(&sorted, 0.5),
            tail: quantile(&sorted, f64::from(tail_pct) / 100.0),
            tail_pct,
            samples: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_once_a_thousand_samples_exist() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = Timing::of(&samples);
        assert_eq!(t.tail_pct, 99);
        assert_eq!(t.tail, 990.0);
        assert_eq!(t.median, 500.0);
        assert_eq!(t.samples, 1000);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = Timing::of(&samples);
        assert_eq!(t.tail_pct, 75);
        assert_eq!(t.tail, 30.0);
        assert_eq!(Timing::of(&[3.0, 1.0, 2.0]).tail_pct, 100);
    }
}
