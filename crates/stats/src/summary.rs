//! Streaming summary statistics.

/// Streaming count / mean / variance / min / max accumulator.
///
/// Uses Welford's online algorithm, which is numerically stable for long
/// runs (the trigger-interval experiments record millions of samples).
///
/// # Examples
///
/// ```
/// use st_stats::Summary;
///
/// let mut s = Summary::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(v);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_stddev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the observations; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Population variance (divides by `n`); 0 when fewer than 2 samples.
    pub fn population_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by `n - 1`); 0 when fewer than 2 samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn population_stddev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Merges another summary into this one (parallel-combinable).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_benign() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn single_sample() {
        let mut s = Summary::new();
        s.record(42.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.min(), Some(42.0));
        assert_eq!(s.max(), Some(42.0));
        assert_eq!(s.population_stddev(), 0.0);
    }

    #[test]
    fn mean_and_variance_match_naive_formulas() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64) * 0.37 - 12.0).collect();
        let mut s = Summary::new();
        for &v in &data {
            s.record(v);
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.population_variance() - var).abs() < 1e-6);
    }

    #[test]
    fn merge_equals_sequential() {
        let a: Vec<f64> = (0..500).map(|i| (i * i % 97) as f64).collect();
        let b: Vec<f64> = (0..700).map(|i| (i * 13 % 41) as f64 - 20.0).collect();
        let mut all = Summary::new();
        for v in a.iter().chain(b.iter()) {
            all.record(*v);
        }
        let mut s1 = Summary::new();
        let mut s2 = Summary::new();
        for &v in &a {
            s1.record(v);
        }
        for &v in &b {
            s2.record(v);
        }
        s1.merge(&s2);
        assert_eq!(s1.count(), all.count());
        assert!((s1.mean() - all.mean()).abs() < 1e-9);
        assert!((s1.population_variance() - all.population_variance()).abs() < 1e-6);
        assert_eq!(s1.min(), all.min());
        assert_eq!(s1.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::new();
        s.record(1.0);
        s.record(3.0);
        let before = (s.count(), s.mean(), s.m2);
        s.merge(&Summary::new());
        assert_eq!((s.count(), s.mean(), s.m2), before);

        let mut e = Summary::new();
        e.merge(&s);
        assert_eq!(e.count(), 2);
        assert_eq!(e.mean(), 2.0);
    }

    #[test]
    fn sum_matches() {
        let mut s = Summary::new();
        for v in [1.5, 2.5, 3.0] {
            s.record(v);
        }
        assert!((s.sum() - 7.0).abs() < 1e-12);
    }
}
