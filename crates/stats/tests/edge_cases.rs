//! Edge-case coverage for the linear histogram's boundary/overflow
//! bucketing.

use st_stats::Histogram;

#[test]
fn histogram_boundary_values_land_in_the_upper_bucket() {
    // Buckets are half-open [lo, hi): a value exactly on an edge belongs
    // to the bucket it opens.
    let mut h = Histogram::new(10.0, 4);
    h.record(0.0);
    h.record(10.0);
    h.record(9.999_999);
    let counts: Vec<u64> = h.buckets().map(|(_, c)| c).collect();
    assert_eq!(counts, vec![2, 1, 0, 0]);
}

#[test]
fn histogram_top_edge_is_overflow_not_last_bucket() {
    let mut h = Histogram::new(10.0, 4);
    h.record(39.999);
    h.record(40.0); // exactly the upper edge of the range
    h.record(1e12);
    assert_eq!(h.count(), 3);
    assert_eq!(h.overflow(), 2);
    let last = h.buckets().last().unwrap();
    assert_eq!(last, (30.0, 1));
}

#[test]
fn histogram_overflow_keeps_tail_accounting_honest() {
    let mut h = Histogram::new(1.0, 100);
    for _ in 0..90 {
        h.record(50.0);
    }
    for _ in 0..10 {
        h.record(5_000.0); // far past the range
    }
    // The overflow samples still count as "above" any in-range threshold
    // and still participate in quantiles (clamped to the upper edge).
    assert!((h.fraction_above(60.0) - 0.1).abs() < 1e-12);
    assert_eq!(h.quantile(0.99), Some(100.0));
    assert_eq!(h.quantile(0.5), Some(50.0 + 50.0 / 90.0));
}

#[test]
fn histogram_negative_values_underflow_without_poisoning_quantiles() {
    let mut h = Histogram::new(1.0, 10);
    h.record(-3.0);
    h.record(2.5);
    h.record(2.5);
    assert_eq!(h.count(), 3);
    assert_eq!(h.overflow(), 0);
    // The underflow sample clamps to the bottom of the range.
    assert_eq!(h.quantile(0.0), Some(0.0));
    let median = h.median().unwrap();
    assert!((2.0..3.0).contains(&median), "median {median}");
}

#[test]
fn histogram_merge_sums_overflow_and_underflow() {
    let mut a = Histogram::new(1.0, 4);
    a.record(-1.0);
    a.record(2.0);
    a.record(100.0);
    let mut b = Histogram::new(1.0, 4);
    b.record(200.0);
    b.record(3.0);
    a.merge(&b);
    assert_eq!(a.count(), 5);
    assert_eq!(a.overflow(), 2);
    assert!((a.fraction_above(3.5) - 0.4).abs() < 1e-12);
}

#[test]
fn histogram_empty_and_single_bucket() {
    let h = Histogram::new(1.0, 1);
    assert_eq!(h.quantile(0.5), None);
    assert_eq!(h.median(), None);
    assert_eq!(h.fraction_above(0.0), 0.0);
    let mut h = Histogram::new(1.0, 1);
    h.record(0.5);
    assert_eq!(h.count(), 1);
    assert_eq!(h.overflow(), 0);
    assert!(h.median().unwrap() <= 1.0);
}
