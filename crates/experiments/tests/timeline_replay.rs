//! `repro --timeline` is observation-only: `--json` output is
//! byte-identical with and without it — the acceptance gate for the
//! timeline telemetry work.
//!
//! A sampling session hooks the same worlds the experiments replay
//! deterministically: gauges on the NIC ring, the congestion window and
//! the admission limits, a 1 kHz observation event in the saturation
//! harness, fire-delay attribution on every soft-timer fire. None of it
//! may charge modeled cost, touch an RNG, or reorder events; a single
//! byte of drift between the paired runs here is a telemetry leak into
//! the model. The emitted `timeline.jsonl` must also round-trip through
//! the st-trace JSON validator line by line.

use std::process::Command;

fn repro(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro {:?} failed: {}",
        args,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty(), "no JSON on stdout");
    out.stdout
}

fn assert_timeline_invisible(experiment: &str) -> String {
    let dir = std::env::temp_dir().join(format!(
        "st-timeline-replay-{experiment}-{}",
        std::process::id()
    ));
    let bare = repro(&[experiment, "--quick", "--seed", "1", "--json", "-"]);
    let timeline = repro(&[
        experiment,
        "--quick",
        "--seed",
        "1",
        "--json",
        "-",
        "--timeline",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(
        bare,
        timeline,
        "--timeline changed {experiment}'s --json output:\n--- bare\n{}\n--- timeline\n{}",
        String::from_utf8_lossy(&bare),
        String::from_utf8_lossy(&timeline)
    );
    let jsonl = std::fs::read_to_string(dir.join("timeline.jsonl")).expect("timeline.jsonl");
    std::fs::remove_dir_all(&dir).ok();
    // Every exported line round-trips through the validator.
    let mut lines = 0;
    for line in jsonl.lines() {
        st_trace::json::validate(line).unwrap_or_else(|e| panic!("invalid line {line:?}: {e}"));
        lines += 1;
    }
    assert!(lines >= 1, "timeline.jsonl is empty");
    assert!(
        jsonl.starts_with("{\"type\":\"timeline\",\"schema\":\"st-scope-timeline-v1\""),
        "missing header: {}",
        jsonl.lines().next().unwrap_or("")
    );
    jsonl
}

#[test]
fn overload_json_is_byte_identical_with_and_without_timeline() {
    let jsonl = assert_timeline_invisible("overload");
    // The overload run actually produced telemetry: series lines with
    // points and waterfall lanes with fires.
    assert!(
        jsonl.contains("\"type\":\"series\"") && jsonl.contains("\"name\":\"http.conns\""),
        "no series captured"
    );
    assert!(
        jsonl.contains("\"type\":\"waterfall\""),
        "no waterfall lanes captured"
    );
}

#[test]
fn congestion_json_is_byte_identical_with_and_without_timeline() {
    let jsonl = assert_timeline_invisible("congestion");
    // The TCP path gauges its congestion window into the timeline.
    assert!(
        jsonl.contains("\"name\":\"tcp.cwnd\""),
        "no tcp.cwnd series captured:\n{}",
        jsonl.lines().next().unwrap_or("")
    );
}
