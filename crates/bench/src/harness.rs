//! The measurement harness under [`crate::suite`]: [`measure`] hands a
//! [`Bencher`] to an entry's body and returns its timing samples.
//!
//! Measurement is deliberately simple — per sample it times a
//! calibrated batch of iterations and reports wall-clock nanoseconds
//! per iteration. Numbers are comparable between runs on one machine;
//! the workspace builds fully offline, so there is no statistical
//! machinery beyond the min / median / mean the suite derives.

use std::time::{Duration, Instant};

/// Target wall-clock time for one measurement sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(20);

/// Runs closures under timing; handed to the bench body.
pub struct Bencher {
    sample_size: usize,
    samples: Vec<f64>,
}

impl Bencher {
    /// Times `f`, collecting `sample_size` samples of a batch each.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        // Warm-up and calibration: how many iterations fit in one sample?
        // st-lint: allow(no-wall-clock) -- a benchmark harness times real code
        let start = Instant::now();
        std::hint::black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let batch = (SAMPLE_TARGET.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;

        self.samples.clear();
        for _ in 0..self.sample_size {
            // st-lint: allow(no-wall-clock) -- the measured sample itself
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            let elapsed = start.elapsed();
            self.samples.push(elapsed.as_nanos() as f64 / batch as f64);
        }
    }
}

/// Runs `body` under the harness and returns the raw per-iteration
/// samples in nanoseconds, sorted ascending (empty when the body never
/// called [`Bencher::iter`]).
pub fn measure(sample_size: usize, mut body: impl FnMut(&mut Bencher)) -> Vec<f64> {
    assert!(sample_size > 0, "sample size must be positive");
    let mut b = Bencher {
        sample_size,
        samples: Vec::with_capacity(sample_size),
    };
    body(&mut b);
    b.samples.sort_by(|a, b| a.total_cmp(b));
    b.samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_sorted_samples() {
        let mut ran = 0u64;
        let s = measure(4, |b| b.iter(|| ran += 1));
        assert!(ran > 0);
        assert_eq!(s.len(), 4);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(s[0] >= 0.0);
    }

    #[test]
    fn measure_without_iter_is_empty() {
        assert!(measure(3, |_| {}).is_empty());
    }
}
