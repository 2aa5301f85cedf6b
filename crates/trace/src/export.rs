//! Exporters: Chrome `trace_event` JSON, JSON-lines metrics, a human
//! summary (the event view), and the `st-scope-timeline-v1` JSON lines
//! (the series view).

use std::fmt::Write as _;

use crate::event::Category;
use crate::json::{number, validate, ObjectBuilder};
use crate::snapshot::Snapshot;

/// Schema tag carried in the header line of [`Snapshot::timeline_jsonl`].  The
/// name predates the one-session merge and is frozen: readers key on it.
pub const TIMELINE_SCHEMA: &str = "st-scope-timeline-v1";

fn points_json(points: impl Iterator<Item = (u64, f64)>) -> String {
    let mut out = String::from("[");
    for (i, (tick, value)) in points.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{tick},{}]", number(value));
    }
    out.push(']');
    out
}

impl Snapshot {
    /// Renders the snapshot as Chrome `trace_event` JSON.
    ///
    /// Load the result in [Perfetto](https://ui.perfetto.dev) or
    /// `chrome://tracing`.  Every event becomes an instant event (`"ph":
    /// "i"`), timestamps are interpreted as microseconds, and each
    /// [`Category`] maps to its own `tid` so layers render as separate
    /// tracks.  Thread-name metadata rows label the tracks.
    pub fn chrome_trace_json(&self) -> String {
        let mut rows: Vec<String> = Vec::with_capacity(self.events.len() + Category::ALL.len());
        for cat in Category::ALL {
            rows.push(
                ObjectBuilder::new()
                    .str("name", "thread_name")
                    .str("ph", "M")
                    .u64("pid", 1)
                    .u64("tid", cat.index() as u64 + 1)
                    .raw(
                        "args",
                        &ObjectBuilder::new().str("name", cat.label()).build(),
                    )
                    .build(),
            );
        }
        for ev in &self.events {
            rows.push(
                ObjectBuilder::new()
                    .str("name", ev.name)
                    .str("cat", ev.cat.label())
                    .str("ph", "i")
                    .str("s", "t")
                    .u64("ts", ev.ts)
                    .u64("pid", 1)
                    .u64("tid", ev.cat.index() as u64 + 1)
                    .raw(
                        "args",
                        &ObjectBuilder::new().u64("a", ev.a).u64("b", ev.b).build(),
                    )
                    .build(),
            );
        }
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\",\"otherData\":{}}}",
            rows.join(",\n"),
            ObjectBuilder::new()
                .u64("dropped_events", self.dropped)
                .build()
        )
    }

    /// Renders the metrics registry as JSON lines.
    ///
    /// One object per line: a `trace` header (event/drop totals), then one
    /// `counter` object per counter and one `histogram` object per
    /// histogram (count, quantiles, overflow).
    pub fn metrics_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(
            &ObjectBuilder::new()
                .str("type", "trace")
                .u64("events", self.events.len() as u64)
                .u64("dropped", self.dropped)
                .u64("truncated", u64::from(self.dropped > 0))
                .build(),
        );
        out.push('\n');
        for (name, value) in self.registry.counters() {
            out.push_str(
                &ObjectBuilder::new()
                    .str("type", "counter")
                    .str("name", name)
                    .u64("value", value)
                    .build(),
            );
            out.push('\n');
        }
        for (name, hist) in self.registry.histograms() {
            out.push_str(
                &ObjectBuilder::new()
                    .str("type", "histogram")
                    .str("name", name)
                    .u64("count", hist.count())
                    .f64("p50", hist.quantile(0.5).unwrap_or(f64::NAN))
                    .f64("p90", hist.quantile(0.9).unwrap_or(f64::NAN))
                    .f64("p99", hist.quantile(0.99).unwrap_or(f64::NAN))
                    .u64("overflow", hist.overflow())
                    .build(),
            );
            out.push('\n');
        }
        out
    }

    /// Renders a short human-readable summary of the recording.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} events retained, {} dropped",
            self.events.len(),
            self.dropped
        );
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "WARNING: flight recorder truncated — the {} oldest events were \
             evicted; raise TraceConfig.capacity to keep the full run",
                self.dropped
            );
        }
        let mut per_cat = [0usize; Category::ALL.len()];
        for ev in &self.events {
            per_cat[ev.cat.index()] += 1;
        }
        for cat in Category::ALL {
            if per_cat[cat.index()] > 0 {
                let _ = writeln!(
                    out,
                    "  {:<11} {:>8} events",
                    cat.label(),
                    per_cat[cat.index()]
                );
            }
        }
        let mut counters = self.registry.counters().peekable();
        if counters.peek().is_some() {
            let _ = writeln!(out, "counters:");
            for (name, value) in counters {
                let _ = writeln!(out, "  {name:<32} {value:>12}");
            }
        }
        let mut hists = self.registry.histograms().peekable();
        if hists.peek().is_some() {
            let _ = writeln!(out, "histograms (count / p50 / p99 / overflow):");
            for (name, hist) in hists {
                let _ = writeln!(
                    out,
                    "  {name:<32} {:>8} / {} / {} / {}",
                    hist.count(),
                    number(hist.quantile(0.5).unwrap_or(f64::NAN)),
                    number(hist.quantile(0.99).unwrap_or(f64::NAN)),
                    hist.overflow()
                );
            }
        }
        out
    }

    /// Renders the series view as validated JSON lines, schema
    /// `st-scope-timeline-v1`:
    ///
    /// - a header: `{"type":"timeline","schema":...,"series":N,
    ///   "samples":K,"lanes":L,"points_dropped":D}`;
    /// - one line per series: `{"type":"series","name":...,"kind":
    ///   "gauge"|"counter_delta"|"quantile","dropped":D,
    ///   "points":[[tick,value],...]}`;
    /// - one line per waterfall lane: `{"type":"waterfall","lane":...,
    ///   "fires":N,"trigger_wait_ticks":S,"cascade_ticks":S,
    ///   "wait_p50":...,"wait_p99":...,"cascade_p99":...}`.
    ///
    /// # Panics
    ///
    /// Panics if a rendered line fails validation — that is a bug in the
    /// writer, not a data error, so it fails here and never at a reader.
    pub fn timeline_jsonl(&self) -> Vec<String> {
        let mut lines = Vec::new();
        let dropped: u64 = self.timeline.series().map(|(_, s)| s.dropped()).sum();
        lines.push(
            ObjectBuilder::new()
                .str("type", "timeline")
                .str("schema", TIMELINE_SCHEMA)
                .u64("series", self.timeline.series_count() as u64)
                .u64("samples", self.timeline.samples())
                .u64("lanes", self.waterfall.lanes().count() as u64)
                .u64("points_dropped", dropped)
                .build(),
        );
        for (name, series) in self.timeline.series() {
            lines.push(
                ObjectBuilder::new()
                    .str("type", "series")
                    .str("name", name)
                    .str("kind", series.kind().label())
                    .u64("dropped", series.dropped())
                    .raw("points", &points_json(series.points()))
                    .build(),
            );
        }
        for (lane, l) in self.waterfall.lanes() {
            let q = |h: &st_stats::Histogram, q: f64| h.quantile(q).unwrap_or(0.0);
            lines.push(
                ObjectBuilder::new()
                    .str("type", "waterfall")
                    .str("lane", lane)
                    .u64("fires", l.fires())
                    .u64("trigger_wait_ticks", l.trigger_wait_sum())
                    .u64("cascade_ticks", l.cascade_sum())
                    .f64("wait_p50", q(l.trigger_wait_hist(), 0.50))
                    .f64("wait_p99", q(l.trigger_wait_hist(), 0.99))
                    .f64("cascade_p99", q(l.cascade_hist(), 0.99))
                    .build(),
            );
        }
        for line in &lines {
            validate(line).expect("timeline export emitted invalid JSON");
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::json::parse;
    use crate::registry::Registry;
    use crate::series::Timeline;
    use crate::waterfall::Waterfall;

    fn sample() -> Snapshot {
        let mut registry = Registry::new();
        registry.count("facility.fired.trigger", 41);
        registry.observe("facility.delay_ticks", 3.0);
        registry.observe("facility.delay_ticks", 1e9);
        Snapshot {
            events: vec![
                Event {
                    ts: 5,
                    cat: Category::Kernel,
                    name: "syscalls",
                    a: 0,
                    b: 12,
                },
                Event {
                    ts: 9,
                    cat: Category::Facility,
                    name: "facility.fire.trigger",
                    a: 8,
                    b: 1,
                },
            ],
            dropped: 2,
            registry,
            timeline: Timeline::default(),
            waterfall: Waterfall::default(),
        }
    }

    #[test]
    fn timeline_jsonl_is_the_frozen_schema_line_for_line() {
        let mut snap = sample();
        snap.timeline = Timeline::new(2);
        for (tick, v) in [(100, 7.0), (200, 9.0), (300, 8.5)] {
            snap.timeline.gauge(tick, "http.conns", v);
        }
        snap.timeline.observe_window("http.latency_us", 1_500.0);
        snap.timeline.sample(1_000, snap.registry.counters());
        snap.waterfall.record("ip_output", 14, 3);
        snap.waterfall.record("backup", 950, 40);
        let lines = snap.timeline_jsonl();
        lines
            .iter()
            .for_each(|l| drop(parse(l).expect("parses back")));
        // Name order, the evicted gauge point counted, exact lane sums.
        let expect = [
            r#"{"type":"timeline","schema":"st-scope-timeline-v1","series":5,"samples":1,"lanes":2,"points_dropped":1}"#,
            r#"{"type":"series","name":"facility.fired.trigger","kind":"counter_delta","dropped":0,"points":[[1000,41]]}"#,
            r#"{"type":"series","name":"http.conns","kind":"gauge","dropped":1,"points":[[200,9],[300,8.5]]}"#,
            r#"{"type":"series","name":"http.latency_us.p50","kind":"quantile","dropped":0,"points":[[1000,1500.5]]}"#,
            r#"{"type":"series","name":"http.latency_us.p99","kind":"quantile","dropped":0,"points":[[1000,1500.99]]}"#,
            r#"{"type":"series","name":"http.latency_us.p999","kind":"quantile","dropped":0,"points":[[1000,1500.999]]}"#,
            r#"{"type":"waterfall","lane":"backup","fires":1,"trigger_wait_ticks":950,"cascade_ticks":40,"wait_p50":950.5,"wait_p99":950.99,"cascade_p99":40.99}"#,
            r#"{"type":"waterfall","lane":"ip_output","fires":1,"trigger_wait_ticks":14,"cascade_ticks":3,"wait_p50":14.5,"wait_p99":14.99,"cascade_p99":3.99}"#,
        ];
        assert_eq!(lines, expect);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_rows() {
        let json = sample().chrome_trace_json();
        validate(&json).expect("chrome trace must be valid JSON");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"facility.fire.trigger\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"dropped_events\":2"));
    }

    #[test]
    fn metrics_jsonl_lines_each_validate() {
        let dump = sample().metrics_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3); // trace header + 1 counter + 1 histogram
        for line in &lines {
            validate(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(lines[1].contains("\"facility.fired.trigger\""));
        assert!(lines[2].contains("\"overflow\":1"));
    }

    #[test]
    fn summary_mentions_counts() {
        let text = sample().summary();
        assert!(text.contains("2 events retained"));
        assert!(text.contains("facility.fired.trigger"));
        assert!(text.contains("kernel"));
    }

    #[test]
    fn truncation_is_never_silent() {
        // The sample snapshot dropped 2 events: the summary warns and
        // the JSONL header flags it.
        let text = sample().summary();
        assert!(text.contains("WARNING"), "no truncation warning:\n{text}");
        assert!(text.contains("2 oldest events"), "{text}");
        let header = sample().metrics_jsonl();
        let header = header.lines().next().unwrap().to_string();
        assert!(header.contains("\"truncated\":1"), "{header}");

        // An un-truncated snapshot stays quiet.
        let mut snap = sample();
        snap.dropped = 0;
        assert!(!snap.summary().contains("WARNING"));
        assert!(snap
            .metrics_jsonl()
            .lines()
            .next()
            .unwrap()
            .contains("\"truncated\":0"));
    }
}
