//! Exact sample sets.

/// An exact collection of samples supporting order statistics.
///
/// The paper's Table 1 reports exact medians over two million samples; at
/// that size keeping the raw values is cheap and avoids interpolation error.
///
/// # Examples
///
/// ```
/// use st_stats::Samples;
///
/// let mut s = Samples::new();
/// for v in [5.0, 1.0, 9.0, 3.0] {
///     s.record(v);
/// }
/// assert_eq!(s.quantile(0.0), Some(1.0));
/// assert_eq!(s.quantile(1.0), Some(9.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Creates an empty sample set with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            values: Vec::with_capacity(n),
            sorted: true,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
            self.sorted = true;
        }
    }

    /// Exact `q`-quantile using the nearest-rank method; `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.values.len() as f64).ceil() as usize).saturating_sub(1);
        Some(self.values[idx.min(self.values.len() - 1)])
    }

    /// Exact median.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// Largest observation.
    pub fn max(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.values.last().copied()
    }

    /// Population standard deviation; `None` when empty.
    pub fn population_stddev(&self) -> Option<f64> {
        let mean = self.mean()?;
        let var = self
            .values
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / self.values.len() as f64;
        Some(var.sqrt())
    }

    /// Fraction of observations strictly greater than `threshold`.
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let above = self.values.iter().filter(|&&v| v > threshold).count();
        above as f64 / self.values.len() as f64
    }

    /// Read-only view of the raw values (unspecified order).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let mut s = Samples::new();
        for v in [10.0, 20.0, 30.0, 40.0] {
            s.record(v);
        }
        assert_eq!(s.quantile(0.25), Some(10.0));
        assert_eq!(s.quantile(0.5), Some(20.0));
        assert_eq!(s.quantile(0.75), Some(30.0));
        assert_eq!(s.quantile(1.0), Some(40.0));
        assert_eq!(s.max(), Some(40.0));
    }

    #[test]
    fn empty_samples() {
        let mut s = Samples::new();
        assert!(s.is_empty());
        assert_eq!(s.median(), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.fraction_above(0.0), 0.0);
    }

    #[test]
    fn fraction_above_is_strict() {
        let mut s = Samples::new();
        for v in [1.0, 2.0, 2.0, 3.0] {
            s.record(v);
        }
        assert!((s.fraction_above(2.0) - 0.25).abs() < 1e-12);
        assert!((s.fraction_above(1.9) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn interleaved_record_and_query() {
        let mut s = Samples::new();
        s.record(5.0);
        assert_eq!(s.median(), Some(5.0));
        s.record(1.0);
        s.record(9.0);
        assert_eq!(s.median(), Some(5.0));
        assert_eq!(s.max(), Some(9.0));
    }
}
