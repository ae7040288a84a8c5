//! Minimal wall-clock timing helpers for the `experiments` binary.
//!
//! The figure-regeneration binary needs stable, quick numbers, so it uses
//! a best-of-N wall clock measurement.

use std::time::{Duration, Instant};

/// Runs `f` once and returns the elapsed wall-clock time.
pub fn time_once<T>(mut f: impl FnMut() -> T) -> (Duration, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed(), value)
}

/// Runs `f` `repeats` times (at least once) and returns the best (smallest)
/// wall-clock time together with the value of the last run.
pub fn time_best_of<T>(repeats: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let repeats = repeats.max(1);
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..repeats {
        let (elapsed, value) = time_once(&mut f);
        if elapsed < best {
            best = elapsed;
        }
        last = Some(value);
    }
    (best, last.expect("at least one repetition"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_measures_and_returns_value() {
        let (d, v) = time_once(|| {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(d >= Duration::from_millis(4));
    }

    #[test]
    fn best_of_returns_minimum() {
        let mut calls = 0;
        let (d, _) = time_best_of(3, || {
            calls += 1;
            std::thread::sleep(Duration::from_millis(2));
        });
        assert_eq!(calls, 3);
        assert!(d >= Duration::from_millis(1));
    }

    #[test]
    fn best_of_zero_clamps_to_one() {
        let (_, v) = time_best_of(0, || 7);
        assert_eq!(v, 7);
    }
}
