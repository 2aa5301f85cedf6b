//! End-to-end: record a session, export it in every format, and check
//! that the exports are valid and internally consistent.

use st_trace::{json, Category, TraceConfig, TraceSession};

#[test]
fn record_export_roundtrip() {
    let session = TraceSession::start(TraceConfig {
        capacity: 1024,
        ..TraceConfig::default()
    });
    for t in 0..200u64 {
        let (cat, name) = match t % 4 {
            0 => (Category::Kernel, "syscalls"),
            1 => (Category::Facility, "facility.fire.trigger"),
            2 => (Category::Net, "net.rx"),
            _ => (Category::Tcp, "tcp.pace.release"),
        };
        st_trace::emit(cat, name, t, t / 4, t % 2);
        st_trace::count("events.total", 1);
        st_trace::observe("interval_us", (t % 50) as f64);
        st_trace::gauge(t, "queue.depth", (t % 7) as f64);
        if t % 50 == 49 {
            st_trace::sample(t);
        }
    }
    st_trace::observe("interval_us", 1e12); // force histogram overflow
    let snap = session.finish();

    assert_eq!(snap.events.len(), 200);
    assert_eq!(snap.dropped, 0);
    assert_eq!(snap.counter("events.total"), 200);
    assert_eq!(snap.event_count("facility.fire.trigger"), 50);

    let chrome = snap.chrome_trace_json();
    json::validate(&chrome).expect("chrome trace export must be valid JSON");
    assert!(chrome.contains("\"tcp.pace.release\""));

    let jsonl = snap.metrics_jsonl();
    for line in jsonl.lines() {
        json::validate(line).expect("each metrics line must be valid JSON");
    }
    assert!(jsonl.contains("\"events.total\""));
    assert!(jsonl.contains("\"overflow\":1"));

    let text = snap.summary();
    assert!(text.contains("200 events retained"));

    // The series view of the same recording: the sampler differenced
    // the counter this very session accumulated.
    let timeline = snap.timeline_jsonl();
    for line in &timeline {
        json::validate(line).expect("each timeline line must be valid JSON");
    }
    assert!(timeline[0].contains("\"samples\":4"));
    let deltas = snap.timeline.get("events.total").unwrap();
    assert!(deltas.points().all(|(_, d)| d == 50.0));
    assert_eq!(snap.timeline.get("queue.depth").unwrap().len(), 200);
}

#[test]
fn bounded_session_reports_losses_in_exports() {
    let session = TraceSession::start(TraceConfig {
        capacity: 16,
        ..TraceConfig::default()
    });
    for t in 0..64u64 {
        st_trace::emit(Category::Experiment, "tick", t, 0, 0);
    }
    let snap = session.finish();
    assert_eq!(snap.events.len(), 16);
    assert_eq!(snap.dropped, 48);
    // The newest events survive; the trace admits the loss.
    assert_eq!(snap.events.first().unwrap().ts, 48);
    assert!(snap.chrome_trace_json().contains("\"dropped_events\":48"));
    assert!(snap.metrics_jsonl().contains("\"dropped\":48"));
}
