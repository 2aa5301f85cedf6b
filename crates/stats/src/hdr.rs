//! HDR-style log-bucketed histogram for wall-clock nanosecond ranges.
//!
//! The linear [`crate::Histogram`] is the right shape for the paper's
//! 1 µs-tick trigger intervals (a few thousand buckets cover the whole
//! range), but host-runtime measurements span seven decades — a 20 ns
//! trigger check and a 100 ms scheduler stall land in the same
//! distribution. A linear histogram either saturates its overflow bucket
//! or wastes millions of buckets; plain power-of-two buckets keep
//! constant space but only ~50 % relative precision.
//!
//! [`HdrHistogram`] takes the classic high-dynamic-range compromise:
//! each power-of-two octave is split into `2^sub_bucket_bits` linear
//! sub-buckets, so relative error is bounded by `2 / 2^sub_bucket_bits`
//! at every magnitude while the whole `u64` range still fits in a few
//! thousand counters. Values below `2^sub_bucket_bits` are recorded
//! exactly (unit-width buckets).

/// Log-bucketed histogram with bounded relative error across all of `u64`.
///
/// # Bucket geometry
///
/// With `scb = 2^sub_bucket_bits` and `half = scb / 2`:
///
/// - indices `0 .. scb` hold values `0 .. scb` exactly (width 1);
/// - octave `k >= 1` covers `[scb << (k-1), scb << k)` in `half`
///   sub-buckets of width `2^k`.
///
/// Recording is O(1) (a `leading_zeros` and a shift); space grows only
/// with the largest magnitude seen (at most `scb + 64 * half` counters).
///
/// # Examples
///
/// ```
/// use st_stats::HdrHistogram;
///
/// let mut h = HdrHistogram::new(7); // 128 sub-buckets: <= ~1.6% error
/// for ns in [95_u64, 100, 30_000, 2_000_000] {
///     h.record(ns);
/// }
/// assert_eq!(h.count(), 4);
/// let p50 = h.quantile(0.5).unwrap();
/// assert!((95..=101).contains(&p50));
/// ```
#[derive(Debug, Clone)]
pub struct HdrHistogram {
    sub_bucket_bits: u32,
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl HdrHistogram {
    /// Creates an empty histogram with `2^sub_bucket_bits` sub-buckets
    /// per octave (relative quantile error is at most
    /// `2 / 2^sub_bucket_bits`).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= sub_bucket_bits <= 16`.
    pub fn new(sub_bucket_bits: u32) -> Self {
        assert!(
            (1..=16).contains(&sub_bucket_bits),
            "sub_bucket_bits must be in 1..=16"
        );
        HdrHistogram {
            sub_bucket_bits,
            counts: Vec::new(),
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// The configured precision parameter.
    pub fn sub_bucket_bits(&self) -> u32 {
        self.sub_bucket_bits
    }

    fn scb(&self) -> u64 {
        1u64 << self.sub_bucket_bits
    }

    fn half(&self) -> u64 {
        self.scb() / 2
    }

    /// Slot index for a value (see the type docs for the geometry).
    fn index_of(&self, value: u64) -> usize {
        let scb = self.scb();
        if value < scb {
            return value as usize;
        }
        // value >= scb, so bit_len >= sub_bucket_bits + 1.
        let bit_len = 64 - u64::from(value.leading_zeros());
        let k = bit_len - u64::from(self.sub_bucket_bits);
        let sub = (value >> k) - self.half();
        (scb + (k - 1) * self.half() + sub) as usize
    }

    /// `[lower, upper)` value bounds of slot `index`; the top bucket's
    /// exclusive upper bound saturates at `u64::MAX` rather than wrap.
    ///
    /// Useful for exporting the distribution and for pinning the bucket
    /// geometry in tests.
    pub fn bucket_bounds(&self, index: usize) -> (u64, u64) {
        let scb = self.scb();
        let idx = index as u64;
        if idx < scb {
            return (idx, idx + 1);
        }
        let k = (idx - scb) / self.half() + 1;
        let pos = (idx - scb) % self.half();
        let lower = (self.half() + pos) << k;
        (lower, lower.saturating_add(1u64 << k))
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of `value` in one step.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.index_of(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.total += n;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += u128::from(value) * u128::from(n);
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Exact mean of the recorded values (0.0 when empty).
    ///
    /// Exact because the integer sum is tracked alongside the buckets —
    /// only quantiles pay the bucket-resolution error.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// Exact integer sum of the recorded values.
    ///
    /// Where the histogram holds durations (st-guard records one entry
    /// per degraded window), this is the exact total without the float
    /// round-trip of `mean() * count()`.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Approximate `q`-quantile (`q` in `[0, 1]`), `None` when empty.
    ///
    /// Interpolates linearly inside the containing bucket and clamps to
    /// the exact recorded `min`/`max`, so the estimate is always within
    /// one bucket width (bounded *relative* error) of the true order
    /// statistic.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.total as f64;
        let mut cum = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c as f64;
            if next >= target {
                let (lo, hi) = self.bucket_bounds(i);
                let within = ((target - cum) / c as f64).clamp(0.0, 1.0);
                let est = lo as f64 + within * (hi - lo) as f64;
                // est lies in [lo, hi], which fits u64 by construction.
                let est = est as u64;
                return Some(est.clamp(self.min, self.max));
            }
            cum = next;
        }
        Some(self.max)
    }

    /// Median (the 0.5 quantile).
    pub fn median(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// Iterates over non-empty buckets as `(lower, upper, count)`.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(move |(i, &c)| {
                let (lo, hi) = self.bucket_bounds(i);
                (lo, hi, c)
            })
    }

    /// Merges another histogram recorded with the same precision.
    ///
    /// # Panics
    ///
    /// Panics if `sub_bucket_bits` differ (the bucket geometries would
    /// not line up).
    pub fn merge(&mut self, other: &HdrHistogram) {
        assert_eq!(
            self.sub_bucket_bits, other.sub_bucket_bits,
            "sub_bucket_bits mismatch"
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = HdrHistogram::new(7);
        for v in 0..128 {
            h.record(v);
        }
        // Every value below 2^7 owns a unit-width bucket.
        for (i, (lo, hi, c)) in h.buckets().enumerate() {
            assert_eq!((lo, hi, c), (i as u64, i as u64 + 1, 1));
        }
        // The exact sum survives bucketing: 0 + 1 + ... + 127.
        assert_eq!(h.sum(), 127 * 128 / 2);
    }

    #[test]
    fn bucket_boundaries_pin_the_geometry() {
        let h = HdrHistogram::new(3); // scb = 8, half = 4
                                      // Linear region: indices 0..8 are unit buckets.
        assert_eq!(h.bucket_bounds(0), (0, 1));
        assert_eq!(h.bucket_bounds(7), (7, 8));
        // Octave 1 covers [8, 16) in 4 buckets of width 2.
        assert_eq!(h.bucket_bounds(8), (8, 10));
        assert_eq!(h.bucket_bounds(11), (14, 16));
        // Octave 2 covers [16, 32) in 4 buckets of width 4.
        assert_eq!(h.bucket_bounds(12), (16, 20));
        assert_eq!(h.bucket_bounds(15), (28, 32));
        // Index round-trips: the bucket of a bound's lower edge is itself.
        for idx in 0..64usize {
            let (lo, hi) = h.bucket_bounds(idx);
            assert_eq!(h.index_of(lo), idx, "lower edge of {idx}");
            assert_eq!(h.index_of(hi - 1), idx, "last value of {idx}");
            if idx > 0 {
                let (prev_lo, prev_hi) = h.bucket_bounds(idx - 1);
                assert_eq!(prev_hi, lo, "buckets must tile contiguously");
                assert!(prev_lo < lo);
            }
        }
    }

    #[test]
    fn extreme_values_do_not_panic_or_misfile() {
        let mut h = HdrHistogram::new(7);
        for v in [0, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.min(), Some(0));
        // The top bucket's exclusive upper bound saturates instead of
        // wrapping, so it must still sit above its lower bound.
        let (lo, hi) = h.bucket_bounds(h.index_of(u64::MAX));
        assert!(lo < hi, "top bucket bounds wrapped: {lo}..{hi}");
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn relative_error_is_bounded() {
        let bits = 7u32;
        let mut h = HdrHistogram::new(bits);
        // A deterministic geometric sweep across six decades.
        let mut v = 1u64;
        let mut values = Vec::new();
        while v < 10_000_000_000 {
            h.record(v);
            values.push(v);
            v += v / 3 + 1;
        }
        values.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let est = h.quantile(q).unwrap() as f64;
            // Same rank convention the histogram uses: first sample with
            // cumulative count >= q * total.
            let rank = (q * values.len() as f64).ceil() as usize;
            let exact = values[rank.saturating_sub(1)] as f64;
            let rel = (est - exact).abs() / exact;
            // est falls in the same bucket as the exact order statistic,
            // so the error is at most one bucket width: 2 / 2^bits.
            let bound = 4.0 / (1u64 << bits) as f64;
            assert!(
                rel <= bound,
                "q={q}: est {est} vs exact {exact} (rel {rel})"
            );
        }
    }

    #[test]
    fn quantiles_clamp_to_recorded_min_max() {
        let mut h = HdrHistogram::new(4);
        h.record(1_000_003);
        h.record(1_000_003);
        assert_eq!(h.quantile(0.0), Some(1_000_003));
        assert_eq!(h.quantile(1.0), Some(1_000_003));
        assert_eq!(h.median(), Some(1_000_003));
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = HdrHistogram::new(7);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.buckets().count(), 0);
    }

    #[test]
    fn merge_is_count_and_moment_exact() {
        let mut a = HdrHistogram::new(6);
        let mut b = HdrHistogram::new(6);
        let mut all = HdrHistogram::new(6);
        for i in 0..500u64 {
            let v = i * i + 7;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        assert_eq!(a.mean(), all.mean());
        for q in [0.1, 0.5, 0.9, 0.999] {
            assert_eq!(a.quantile(q), all.quantile(q), "q={q}");
        }
    }

    #[test]
    #[should_panic(expected = "sub_bucket_bits mismatch")]
    fn merge_rejects_mismatched_precision() {
        let mut a = HdrHistogram::new(6);
        a.merge(&HdrHistogram::new(7));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = HdrHistogram::new(6);
        a.record(42);
        let empty = HdrHistogram::new(6);
        a.merge(&empty);
        assert_eq!(a.count(), 1);
        assert_eq!(a.min(), Some(42));
        let mut e = HdrHistogram::new(6);
        e.merge(&a);
        assert_eq!(e.count(), 1);
        assert_eq!(e.median(), Some(42));
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = HdrHistogram::new(5);
        let mut b = HdrHistogram::new(5);
        a.record_n(12_345, 10);
        a.record_n(0, 3);
        a.record_n(99, 0); // no-op
        for _ in 0..10 {
            b.record(12_345);
        }
        for _ in 0..3 {
            b.record(0);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.quantile(0.5), b.quantile(0.5));
    }
}
