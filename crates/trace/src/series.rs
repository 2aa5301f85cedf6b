//! Ring-buffered time series: the over-time view of a session.
//!
//! A [`Timeline`] holds a set of named [`Series`], each a fixed-capacity
//! [`Ring`] of `(tick, value)` points.  Three kinds of series exist:
//!
//! - **gauges** — instantaneous values appended directly by the caller
//!   (connection counts, admission limits, congestion windows);
//! - **counter deltas** — per-sample-window increments of the session
//!   registry's monotone counters, computed against the previous sample;
//! - **quantile snapshots** — p50/p99/p99.9 of a windowed histogram of
//!   observations, flushed and reset at each sample tick.
//!
//! All three share one namespace, so a name belongs to one kind: writing
//! a series as a second kind panics, naming both.
//!
//! The sampling *cadence* is not the timeline's business: callers drive
//! [`crate::sample`] from a periodic soft-timer event so that the
//! telemetry flush itself rides trigger states, the same economics as
//! every other soft-timer application in this repository.

use std::collections::BTreeMap;

use st_stats::Histogram;

use crate::ring::Ring;

/// What a series' points mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Instantaneous values appended by the caller.
    Gauge,
    /// Per-window increments of a monotone counter.
    CounterDelta,
    /// A quantile of a windowed observation histogram.
    Quantile,
}

impl SeriesKind {
    /// Stable label used by the JSONL export.
    pub fn label(self) -> &'static str {
        match self {
            SeriesKind::Gauge => "gauge",
            SeriesKind::CounterDelta => "counter_delta",
            SeriesKind::Quantile => "quantile",
        }
    }
}

/// One named, fixed-capacity ring of `(tick, value)` points.
#[derive(Debug, Clone)]
pub struct Series {
    kind: SeriesKind,
    points: Ring<(u64, f64)>,
}

impl Series {
    /// The series kind.
    pub fn kind(&self) -> SeriesKind {
        self.kind
    }

    /// Retained points, oldest first.
    pub fn points(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.points.oldest_first()
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no points are retained.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Points evicted because the ring was full — never silent.
    pub fn dropped(&self) -> u64 {
        self.points.dropped()
    }
}

/// Geometry of the windowed observation histograms; matches the
/// facility's delay histogram so tick-valued observations share a
/// resolution.
const WINDOW_BUCKETS: usize = 4096;

/// Suffixes of the quantile series flushed per observation window at
/// each sample: `<name>.p50`, `<name>.p99`, `<name>.p999`.
const QUANTILES: [&str; 3] = ["p50", "p99", "p999"];

/// One windowed-observation histogram and the names of the three
/// quantile series it flushes into (built once, at the window's first
/// flush, so later sample ticks format nothing).
#[derive(Debug, Clone)]
struct Window {
    width: f64,
    hist: Histogram,
    series: Option<[String; 3]>,
}

/// The full set of series plus the sampling state feeding them.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    capacity: usize,
    series: BTreeMap<String, Series>,
    last_counters: BTreeMap<&'static str, u64>,
    windows: BTreeMap<&'static str, Window>,
    samples: u64,
}

/// The series called `name`, created as `kind` when first seen.
///
/// # Panics
///
/// Panics when the series exists as another kind: names are `&'static
/// str` literals at the emit sites, so two kinds under one name is a
/// programming error that would otherwise interleave silently.
fn series_mut<'a>(
    series: &'a mut BTreeMap<String, Series>,
    capacity: usize,
    name: &str,
    kind: SeriesKind,
) -> &'a mut Series {
    if !series.contains_key(name) {
        let points = Ring::new(capacity);
        series.insert(name.to_string(), Series { kind, points }); // st-lint: allow(hot-path-cost) -- enabled path: interns a first-seen series name (later points look it up, no allocation) while a session is recording
    }
    let s = series.get_mut(name).expect("inserted above on a miss");
    assert!(
        s.kind == kind,
        "series {name:?} is a {} series but was written as a {}",
        s.kind.label(),
        kind.label()
    );
    s
}

impl Timeline {
    /// An empty timeline whose series each retain at most `capacity`
    /// points.
    pub fn new(capacity: usize) -> Timeline {
        Timeline {
            capacity,
            ..Timeline::default()
        }
    }

    /// Appends an instantaneous gauge point.
    pub fn gauge(&mut self, tick: u64, name: &'static str, value: f64) {
        series_mut(&mut self.series, self.capacity, name, SeriesKind::Gauge)
            .points
            .push((tick, value));
    }

    /// Records one observation into `name`'s current sample window.
    ///
    /// Windowed observations are tick-valued (latencies, delays); the
    /// window histogram starts at a 1-unit bucket width, so quantile
    /// estimates resolve to one tick.  A value beyond the window's
    /// range doubles the bucket width (re-bucketing what the window
    /// already holds) until it fits, so overload-scale tails are never
    /// silently clamped to the range edge — a collapsed run's p99 reads
    /// in seconds, not at the 4096-tick ceiling.
    pub fn observe_window(&mut self, name: &'static str, value: f64) {
        let w = self.windows.entry(name).or_insert_with(|| Window {
            width: 1.0,
            hist: Histogram::new(1.0, WINDOW_BUCKETS),
            series: None,
        });
        if value >= w.width * WINDOW_BUCKETS as f64 {
            while value >= w.width * WINDOW_BUCKETS as f64 {
                w.width *= 2.0;
            }
            let mut wider = Histogram::new(w.width, WINDOW_BUCKETS);
            for (edge, count) in w.hist.buckets() {
                wider.record_n(edge, count);
            }
            w.hist = wider;
        }
        w.hist.record(value);
    }

    /// One sample tick at `tick`: counter deltas against `counters`
    /// (the session registry's running totals) and quantile flushes of
    /// every observation window, which then reset.
    pub fn sample(&mut self, tick: u64, counters: impl IntoIterator<Item = (&'static str, u64)>) {
        self.samples += 1;
        for (name, total) in counters {
            let prev = self.last_counters.insert(name, total).unwrap_or(0);
            let delta = total.saturating_sub(prev);
            series_mut(
                &mut self.series,
                self.capacity,
                name,
                SeriesKind::CounterDelta,
            )
            .points
            .push((tick, delta as f64));
        }
        for (name, w) in &mut self.windows {
            if w.hist.count() == 0 {
                continue;
            }
            let snap = w.hist.quantile_snapshot();
            let names = w
                .series
                .get_or_insert_with(|| QUANTILES.map(|suffix| format!("{name}.{suffix}")));
            for (name, value) in names.iter().zip([snap.p50, snap.p99, snap.p999]) {
                series_mut(&mut self.series, self.capacity, name, SeriesKind::Quantile)
                    .points
                    .push((tick, value));
            }
            // Each window starts back at 1-tick resolution; the next
            // overflow re-widens it if the tail is still there.
            w.width = 1.0;
            w.hist = Histogram::new(1.0, WINDOW_BUCKETS);
        }
    }

    /// Sample ticks taken so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// All series in name order.
    pub fn series(&self) -> impl Iterator<Item = (&str, &Series)> {
        self.series.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Looks up one series by name.
    pub fn get(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// Number of distinct series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_points_ride_a_bounded_ring() {
        let mut t = Timeline::new(3);
        for i in 0..5u64 {
            t.gauge(i, "x", i as f64);
        }
        let s = t.get("x").unwrap();
        assert_eq!(s.kind(), SeriesKind::Gauge);
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        let pts: Vec<_> = s.points().collect();
        assert_eq!(pts, vec![(2, 2.0), (3, 3.0), (4, 4.0)]);
    }

    #[test]
    fn counter_deltas_difference_successive_samples() {
        let mut t = Timeline::new(8);
        t.sample(100, [("c", 10)]);
        t.sample(200, [("c", 25)]);
        t.sample(300, [("c", 25)]);
        let pts: Vec<_> = t.get("c").unwrap().points().collect();
        assert_eq!(pts, vec![(100, 10.0), (200, 15.0), (300, 0.0)]);
        assert_eq!(t.samples(), 3);
    }

    #[test]
    #[should_panic(expected = "series \"x\" is a gauge series but was written as a counter_delta")]
    fn one_name_under_two_kinds_panics_naming_both() {
        let mut t = Timeline::new(8);
        t.gauge(1, "x", 1.0);
        t.sample(2, [("x", 1)]);
    }

    #[test]
    #[should_panic(expected = "series \"lat.p99\" is a gauge series but was written as a quantile")]
    fn a_flushed_quantile_cannot_land_in_a_gauge() {
        let mut t = Timeline::new(8);
        t.gauge(1, "lat.p99", 1.0);
        t.observe_window("lat", 5.0);
        t.sample(2, []);
    }

    #[test]
    fn observation_windows_widen_instead_of_clamping() {
        let mut t = Timeline::new(8);
        // 99 small values then one overload-scale outlier: a fixed
        // 4096x1 window would clamp the tail to 4096.
        for _ in 0..99 {
            t.observe_window("lat", 100.0);
        }
        t.observe_window("lat", 1_200_000.0);
        t.sample(1_000, []);
        let p999 = t.get("lat.p999").unwrap().points().next().unwrap().1;
        assert!(p999 > 1_000_000.0, "tail clamped: p999 {p999}");
        // The median survives re-bucketing at its coarser resolution.
        let p50 = t.get("lat.p50").unwrap().points().next().unwrap().1;
        assert!(p50 < 1_000.0, "median distorted: p50 {p50}");
        // The next window starts back at 1-tick resolution.
        t.observe_window("lat", 10.0);
        t.observe_window("lat", 12.0);
        t.sample(2_000, []);
        let pts: Vec<_> = t.get("lat.p50").unwrap().points().collect();
        assert!(pts[1].1 >= 10.0 && pts[1].1 <= 13.0, "p50 {}", pts[1].1);
    }

    #[test]
    fn observation_windows_flush_quantiles_and_reset() {
        let mut t = Timeline::new(8);
        for v in 1..=100 {
            t.observe_window("lat", v as f64);
        }
        t.sample(1_000, []);
        let p99 = t.get("lat.p99").unwrap().points().next().unwrap().1;
        assert!((95.0..=101.0).contains(&p99), "p99 {p99}");
        // The window reset: an empty window flushes nothing.
        t.sample(2_000, []);
        assert_eq!(t.get("lat.p99").unwrap().len(), 1);
        assert!(t.get("lat.p50").is_some());
        assert!(t.get("lat.p999").is_some());
    }
}
