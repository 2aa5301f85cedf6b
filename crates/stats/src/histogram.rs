//! Linear and logarithmic histograms.

/// Fixed-width linear histogram over `[0, bucket_width * buckets)`.
///
/// Values at or above the upper edge are counted in a dedicated overflow
/// bucket so that no observation is silently dropped. Quantiles are computed
/// by linear interpolation within the containing bucket, which is the usual
/// trade-off for constant-space distribution tracking; use
/// [`crate::Samples`] when exact order statistics are required.
///
/// # Examples
///
/// ```
/// use st_stats::Histogram;
///
/// // Track trigger intervals from 0 to 1000 µs in 1 µs buckets.
/// let mut h = Histogram::new(1.0, 1000);
/// for v in [2.0, 2.0, 18.0, 45.0, 300.0] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.fraction_above(100.0) - 0.2 < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    bucket_width: f64,
    counts: Vec<u64>,
    overflow: u64,
    underflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` buckets of width `bucket_width`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is not strictly positive or `buckets` is 0.
    pub fn new(bucket_width: f64, buckets: usize) -> Self {
        assert!(bucket_width > 0.0, "bucket width must be positive");
        assert!(buckets > 0, "need at least one bucket");
        Histogram {
            bucket_width,
            counts: vec![0; buckets], // st-lint: allow(hot-path-cost) -- enabled path: built once per metric name, and only while a trace session is recording
            overflow: 0,
            underflow: 0,
            total: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.total += 1;
        if value < 0.0 {
            self.underflow += 1;
            return;
        }
        let idx = (value / self.bucket_width) as usize;
        if idx >= self.counts.len() {
            self.overflow += 1;
        } else {
            self.counts[idx] += 1;
        }
    }

    /// Total number of recorded observations (including under/overflow).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Number of observations that fell above the histogram range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Fraction of observations strictly greater than `threshold`.
    ///
    /// Observations are resolved at bucket granularity: a bucket counts as
    /// "above" when its lower edge is strictly greater than `threshold`.
    /// With the 1 µs buckets used for trigger intervals this matches the
    /// paper's "> 100 µs" accounting exactly.
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let start = (threshold / self.bucket_width).floor() as usize + 1;
        let above: u64 = self.counts.iter().skip(start).sum::<u64>() + self.overflow;
        above as f64 / self.total as f64
    }

    /// Approximate `q`-quantile (`q` in `[0, 1]`) by in-bucket interpolation.
    ///
    /// Returns `None` when the histogram is empty. Under/overflow samples
    /// clamp to the range edges.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.total as f64;
        let mut cum = self.underflow as f64;
        if cum >= target && self.underflow > 0 {
            return Some(0.0);
        }
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cum + c as f64;
            if next >= target && c > 0 {
                let within = if c == 0 {
                    0.0
                } else {
                    (target - cum) / c as f64
                };
                return Some((i as f64 + within) * self.bucket_width);
            }
            cum = next;
        }
        Some(self.counts.len() as f64 * self.bucket_width)
    }

    /// Median (the 0.5 quantile).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The 99.9th percentile (the 0.999 quantile) — the tail-latency
    /// headline the overload and timeline experiments report.
    pub fn p999(&self) -> Option<f64> {
        self.quantile(0.999)
    }

    /// Snapshot of the standard reporting quantiles in one pass.
    ///
    /// An empty histogram snapshots to all-zero quantiles with
    /// `count == 0`, so periodic samplers need no special case.
    pub fn quantile_snapshot(&self) -> QuantileSnapshot {
        QuantileSnapshot {
            count: self.total,
            p50: self.quantile(0.50).unwrap_or(0.0),
            p90: self.quantile(0.90).unwrap_or(0.0),
            p99: self.quantile(0.99).unwrap_or(0.0),
            p999: self.quantile(0.999).unwrap_or(0.0),
        }
    }

    /// Records `n` observations of `value` in one step (bulk transfer
    /// when re-bucketing into a different geometry).
    pub fn record_n(&mut self, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        self.total += n;
        if value < 0.0 {
            self.underflow += n;
            return;
        }
        let idx = (value / self.bucket_width) as usize;
        if idx >= self.counts.len() {
            self.overflow += n;
        } else {
            self.counts[idx] += n;
        }
    }

    /// Iterates over `(bucket_lower_edge, count)` pairs for plotting.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &c)| (i as f64 * self.bucket_width, c))
    }

    /// Emits the cumulative distribution as `(upper_edge, cumulative_fraction)`.
    ///
    /// This is the series plotted in the paper's Figures 4 and 6.
    pub fn cdf_points(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(self.counts.len());
        if self.total == 0 {
            return out;
        }
        let mut cum = self.underflow;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            out.push((
                (i + 1) as f64 * self.bucket_width,
                cum as f64 / self.total as f64,
            ));
        }
        out
    }

    /// Merges another histogram with identical geometry.
    ///
    /// # Panics
    ///
    /// Panics if the bucket width or bucket count differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bucket_width, other.bucket_width,
            "bucket width mismatch"
        );
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "bucket count mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.underflow += other.underflow;
        self.total += other.total;
    }
}

/// One-pass snapshot of a histogram's reporting quantiles.
///
/// The fields are the estimates a periodic sampler flushes into a
/// timeline series; `count` is the window's observation count so a
/// reader can weight (or discard) sparse windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileSnapshot {
    /// Observations in the window (including under/overflow).
    pub count: u64,
    /// Median estimate.
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
    /// 99.9th-percentile estimate.
    pub p999: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_expected_buckets() {
        let mut h = Histogram::new(10.0, 10);
        h.record(0.0);
        h.record(9.99);
        h.record(10.0);
        h.record(99.99);
        h.record(100.0); // overflow
        h.record(-1.0); // underflow
        let buckets: Vec<(f64, u64)> = h.buckets().collect();
        assert_eq!(buckets[0], (0.0, 2));
        assert_eq!(buckets[1], (10.0, 1));
        assert_eq!(buckets[9], (90.0, 1));
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn fraction_above_counts_overflow() {
        let mut h = Histogram::new(1.0, 100);
        for _ in 0..90 {
            h.record(5.0);
        }
        for _ in 0..10 {
            h.record(500.0);
        }
        assert!((h.fraction_above(100.0) - 0.10).abs() < 1e-12);
        // Samples equal to the threshold are not "above" it.
        assert!((h.fraction_above(5.0) - 0.10).abs() < 1e-12);
        // A threshold below the bucket includes the whole bucket.
        assert!((h.fraction_above(4.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let mut h = Histogram::new(1.0, 10);
        for i in 0..10 {
            h.record(i as f64 + 0.5);
        }
        let med = h.median().unwrap();
        assert!(med > 4.0 && med < 6.0, "median {med} out of range");
        assert_eq!(h.quantile(0.0), Some(0.0));
        let q100 = h.quantile(1.0).unwrap();
        assert!(q100 >= 9.0);
    }

    #[test]
    fn quantile_empty_is_none() {
        let h = Histogram::new(1.0, 4);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn cdf_points_are_monotone_and_end_at_coverage() {
        let mut h = Histogram::new(2.0, 50);
        for i in 0..100 {
            h.record((i % 60) as f64);
        }
        let pts = h.cdf_points();
        let mut last = 0.0;
        for &(_, f) in &pts {
            assert!(f >= last);
            last = f;
        }
        assert!((last - 1.0).abs() < 1e-12, "no overflow expected");
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(1.0, 10);
        let mut b = Histogram::new(1.0, 10);
        a.record(1.0);
        b.record(1.0);
        b.record(100.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.overflow(), 1);
    }

    #[test]
    #[should_panic(expected = "bucket width mismatch")]
    fn merge_rejects_mismatched_geometry() {
        let mut a = Histogram::new(1.0, 10);
        let b = Histogram::new(2.0, 10);
        a.merge(&b);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = Histogram::new(1.0, 10);
        for v in [2.5, 3.5, 7.5] {
            a.record(v);
        }
        let before_median = a.median();
        let empty = Histogram::new(1.0, 10);
        a.merge(&empty);
        assert_eq!(a.count(), 3);
        assert_eq!(a.median(), before_median);

        let mut e = Histogram::new(1.0, 10);
        e.merge(&a);
        assert_eq!(e.count(), 3);
        assert_eq!(e.median(), before_median);
    }

    #[test]
    fn empty_histogram_queries_are_well_defined() {
        let h = Histogram::new(1.0, 10);
        assert_eq!(h.count(), 0);
        assert_eq!(h.median(), None);
        assert_eq!(h.quantile(0.99), None);
        assert_eq!(h.fraction_above(0.0), 0.0);
        assert!(h.cdf_points().is_empty());
    }

    #[test]
    fn single_bucket_histogram_clamps_quantiles_to_range() {
        // Everything non-negative lands in one bucket or the overflow;
        // every quantile must stay within [0, width].
        let mut h = Histogram::new(5.0, 1);
        for v in [0.0, 1.0, 4.9] {
            h.record(v);
        }
        h.record(1_000.0); // overflow
        assert_eq!(h.count(), 4);
        assert_eq!(h.overflow(), 1);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let x = h.quantile(q).expect("non-empty");
            assert!(
                (0.0..=5.0).contains(&x),
                "quantile({q}) = {x} escaped the single bucket"
            );
        }
    }

    #[test]
    fn sparse_high_percentiles_find_the_tail_bucket() {
        // 999 fast observations and one slow outlier: p99 stays in the
        // fast bucket, p999+ finds the outlier's bucket, and merging two
        // such histograms leaves the percentiles unchanged.
        let mut h = Histogram::new(1.0, 2_000);
        for _ in 0..999 {
            h.record(3.5);
        }
        h.record(1_500.5);
        let p99 = h.quantile(0.99).expect("non-empty");
        assert!((3.0..4.0).contains(&p99), "p99 = {p99}");
        let p9995 = h.quantile(0.9995).expect("non-empty");
        assert!((1_500.0..1_501.0).contains(&p9995), "p99.95 = {p9995}");

        let mut merged = h.clone();
        merged.merge(&h);
        assert_eq!(merged.count(), 2 * h.count());
        assert_eq!(merged.quantile(0.99), h.quantile(0.99));
        assert_eq!(merged.quantile(0.9995), h.quantile(0.9995));
        // The tail fraction is a count ratio, invariant under merge.
        assert_eq!(merged.fraction_above(100.0), h.fraction_above(100.0));
    }

    #[test]
    fn p999_and_snapshot_agree_with_quantile() {
        let mut h = Histogram::new(1.0, 4_096);
        for i in 0..2_000 {
            h.record((i % 1_000) as f64 + 0.5);
        }
        assert_eq!(h.p999(), h.quantile(0.999));
        let snap = h.quantile_snapshot();
        assert_eq!(snap.count, 2_000);
        assert_eq!(snap.p50, h.median().unwrap());
        assert_eq!(snap.p99, h.quantile(0.99).unwrap());
        assert_eq!(snap.p999, h.p999().unwrap());
        assert!(snap.p50 <= snap.p90 && snap.p90 <= snap.p99 && snap.p99 <= snap.p999);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let h = Histogram::new(1.0, 8);
        let snap = h.quantile_snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p50, 0.0);
        assert_eq!(snap.p999, 0.0);
    }

    #[test]
    fn histogram_quantiles_agree_with_exact_order_statistics() {
        // `Samples` keeps every value and answers with exact order
        // statistics; the histogram interpolates inside 1-unit buckets.
        // On a common deterministic stream the two must land within one
        // bucket width of each other, or the interpolation is broken.
        use crate::cdf::Samples;
        let mut h = Histogram::new(1.0, 4_096);
        let mut exact = Samples::with_capacity(50_000);
        // A deterministic LCG stream over [0, 2000) with a heavy-ish
        // spread so the estimate sees a non-trivial distribution.
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for _ in 0..50_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let v = ((x >> 33) % 2_000) as f64;
            h.record(v);
            exact.record(v);
        }
        // Uniform over [0,2000): p50 ~ 1000, p99 ~ 1980.
        for q in [0.50, 0.90, 0.99, 0.999] {
            let est = h.quantile(q).unwrap();
            let truth = exact.quantile(q).unwrap();
            assert!(
                (est - truth).abs() <= 1.0,
                "q{q}: histogram {est} vs exact {truth}"
            );
        }
    }
}
