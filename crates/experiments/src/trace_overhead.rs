//! st-trace self-measurement: what does the tracer cost, and does the
//! trace stream agree with the facility's own counters?
//!
//! Three parts:
//!
//! 1. **Cost** — the per-check price of [`st_core::facility::SoftTimerCore::poll`]
//!    with tracing disabled (the sealed no-op path) vs. enabled, measured
//!    with `std::time::Instant` over the same rearming-event loop.
//! 2. **Fidelity** — a seeded ST-Apache trigger stream is replayed
//!    through a [`SoftClock`] under a [`TraceSession`] sized so nothing
//!    drops; the per-source trigger shares (Table 2's accounting) are
//!    re-derived from the trace stream *and* from the registry counters,
//!    and both must match the [`TriggerRecorder`]'s own counts exactly.
//!    Likewise `facility.fired.trigger` / `facility.fired.backup` must
//!    equal the [`FacilityStats`] fire counters exactly.
//! 3. **Round-trip** — the snapshot's Chrome-trace and JSON-lines
//!    exports must pass the crate's own JSON validator.
//!
//! The run suspends any caller-owned session (`repro --trace` wraps
//! experiments in one) and resumes it on exit, so the self-measurement
//! never records into — or is polluted by — an outer recording.
//!
//! [`TriggerRecorder`]: st_kernel::trigger::TriggerRecorder
//! [`FacilityStats`]: st_core::stats::FacilityStats

use std::time::Instant;

use st_core::facility::{Config, SoftTimerCore};
use st_kernel::softclock::SoftClock;
use st_kernel::trigger::TriggerSource;
use st_sim::SimTime;
use st_trace::{json, TraceConfig, TraceSession};
use st_workloads::{TriggerStream, WorkloadId};

use crate::Scale;

/// Rearming-event period in measurement ticks (µs): faster than the
/// paper's 20 ms TCP events so the fire path is exercised constantly.
const EVENT_PERIOD: u64 = 50;

/// Backup-interrupt period in ticks (1 kHz at the 1 MHz measurement
/// clock), as in the paper.
const BACKUP_PERIOD: u64 = 1_000;

/// One per-source row of the share comparison.
#[derive(Debug)]
pub struct ShareRow {
    /// The trigger source.
    pub source: TriggerSource,
    /// Triggers the recorder attributed to this source.
    pub recorder_count: u64,
    /// Triggers the trace stream attributed to this source (registry
    /// counter; the retained event stream is checked to agree).
    pub trace_count: u64,
    /// This source's share of all triggers.
    pub share: f64,
}

/// The self-measurement report.
#[derive(Debug)]
pub struct TraceOverhead {
    /// Checks timed in each cost run.
    pub checks: u64,
    /// Mean cost of one check with no session active, ns.
    pub ns_per_check_disabled: f64,
    /// Mean cost of one check while recording, ns.
    pub ns_per_check_enabled: f64,
    /// Triggers replayed in the fidelity run.
    pub triggers: u64,
    /// Events retained by the session's ring.
    pub events_captured: u64,
    /// Events the ring evicted (must be 0 — the ring is sized to fit).
    pub events_dropped: u64,
    /// Events fired from trigger-state checks.
    pub fired_trigger: u64,
    /// Events fired from the backup sweep.
    pub fired_backup: u64,
    /// Per-source share comparison, in Table 2 order.
    pub shares: Vec<ShareRow>,
    /// Did both exports pass the JSON validator?
    pub exports_valid: bool,
}

impl TraceOverhead {
    /// Enabled-over-disabled cost ratio.
    pub fn overhead_ratio(&self) -> f64 {
        if self.ns_per_check_disabled > 0.0 {
            self.ns_per_check_enabled / self.ns_per_check_disabled
        } else {
            f64::NAN
        }
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== trace overhead: st-trace measured by itself ==\n");
        out.push_str(&format!(
            "check cost over {} checks:  {:>7.1} ns disabled | {:>7.1} ns enabled  (x{:.2})\n",
            self.checks,
            self.ns_per_check_disabled,
            self.ns_per_check_enabled,
            self.overhead_ratio(),
        ));
        out.push_str(&format!(
            "replayed {} ST-Apache triggers: {} events captured, {} dropped\n",
            self.triggers, self.events_captured, self.events_dropped
        ));
        out.push_str(&format!(
            "fires: {} by trigger + {} by backup — trace counters == FacilityStats exactly\n",
            self.fired_trigger, self.fired_backup
        ));
        out.push_str("source        | share   | recorder == trace\n");
        for r in &self.shares {
            out.push_str(&format!(
                "{:<13} | {:>6.4} | {:>8} == {:<8}\n",
                r.source.label(),
                r.share,
                r.recorder_count,
                r.trace_count
            ));
        }
        out.push_str(&format!(
            "exports validate (chrome trace + metrics JSONL): {}\n",
            if self.exports_valid { "yes" } else { "NO" }
        ));
        out
    }

    /// Flat `(name, value)` metric pairs for `repro --json`.
    pub fn key_metrics(&self) -> Vec<(String, f64)> {
        let mut m = vec![
            (
                "ns_per_check_disabled".to_string(),
                self.ns_per_check_disabled,
            ),
            (
                "ns_per_check_enabled".to_string(),
                self.ns_per_check_enabled,
            ),
            ("overhead_ratio".to_string(), self.overhead_ratio()),
            ("triggers".to_string(), self.triggers as f64),
            ("events_captured".to_string(), self.events_captured as f64),
            ("events_dropped".to_string(), self.events_dropped as f64),
            ("fired_trigger".to_string(), self.fired_trigger as f64),
            ("fired_backup".to_string(), self.fired_backup as f64),
            (
                "exports_valid".to_string(),
                if self.exports_valid { 1.0 } else { 0.0 },
            ),
        ];
        for r in &self.shares {
            m.push((
                format!("share_{}", crate::metric_key(r.source.label())),
                r.share,
            ));
        }
        m
    }
}

/// Times `n` poll checks against a rearming event, returning mean ns
/// per check. Whether tracing is active is up to the caller.
fn bench_checks(n: u64) -> f64 {
    let mut core: SoftTimerCore<u64> = SoftTimerCore::new(Config::default());
    let mut out = Vec::new();
    let mut now = 0u64;
    core.schedule(now, EVENT_PERIOD, 0);
    #[expect(
        clippy::disallowed_methods,
        reason = "this experiment exists to measure the real-time cost of a poll check; \
                  simulated ticks cannot price it"
    )]
    let start = Instant::now();
    for _ in 0..n {
        now += 7;
        core.poll(now, &mut out);
        for e in out.drain(..) {
            core.schedule(now, EVENT_PERIOD, e.payload);
        }
    }
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Runs the self-measurement.
///
/// # Panics
///
/// Panics when the trace stream disagrees with the recorder or the
/// facility counters, when the ring dropped events, or when an export
/// fails validation — that is the experiment's acceptance check.
pub fn run(scale: Scale, seed: u64) -> TraceOverhead {
    // Never record into (or get polluted by) a caller's session.
    let outer = st_trace::suspend();

    // Part 1: per-check cost, sealed no-op vs. recording. Warm up
    // first so the disabled run doesn't also pay cold-start costs
    // (allocations, page faults) that would mask the comparison.
    let checks = scale.count(2_000_000);
    bench_checks(checks.min(50_000));
    let ns_disabled = bench_checks(checks);
    let session = TraceSession::start(TraceConfig::default());
    let ns_enabled = bench_checks(checks);
    drop(session.finish());

    // Part 2: fidelity — replay ST-Apache through a SoftClock under a
    // session sized so the ring never evicts (every trigger, schedule,
    // fire and backup tick emits at most one event each).
    let triggers = scale.count(2_000_000).min(500_000);
    let session = TraceSession::start(TraceConfig {
        capacity: (triggers as usize) * 4 + 4_096,
        ..TraceConfig::default()
    });
    let mut clock: SoftClock<u64> = SoftClock::new(false);
    let mut stream = TriggerStream::new(WorkloadId::StApache.spec(), seed);
    let mut out = Vec::new();
    clock.schedule(SimTime::ZERO, EVENT_PERIOD, 0);
    let mut next_backup = BACKUP_PERIOD;
    for _ in 0..triggers {
        let (now, source) = stream.next_trigger();
        while clock.ticks(now) >= next_backup {
            clock.backup_tick(SimTime::from_micros(next_backup), &mut out);
            next_backup += BACKUP_PERIOD;
        }
        clock.trigger(now, source, &mut out);
        for e in out.drain(..) {
            clock.schedule(now, EVENT_PERIOD, e.payload);
        }
    }
    let stats = clock.core().stats().clone();
    let recorder_counts: Vec<u64> = TriggerSource::ALL
        .iter()
        .map(|&s| clock.recorder().count(s))
        .collect();
    let total = clock.recorder().total();
    let snap = session.finish();

    assert_eq!(snap.dropped, 0, "ring was sized to retain everything");
    let mut shares = Vec::new();
    for (i, &source) in TriggerSource::ALL.iter().enumerate() {
        let from_counter = snap.counter(source.counter_key());
        let from_stream = snap.event_count(source.label()) as u64;
        assert_eq!(
            from_counter,
            recorder_counts[i],
            "trace counter vs recorder for {}",
            source.label()
        );
        assert_eq!(
            from_stream,
            recorder_counts[i],
            "trace event stream vs recorder for {}",
            source.label()
        );
        shares.push(ShareRow {
            source,
            recorder_count: recorder_counts[i],
            trace_count: from_counter,
            share: from_counter as f64 / total.max(1) as f64,
        });
    }
    assert_eq!(
        snap.counter("facility.fired.trigger"),
        stats.fired_trigger,
        "trace vs FacilityStats: trigger fires"
    );
    assert_eq!(
        snap.counter("facility.fired.backup"),
        stats.fired_backup,
        "trace vs FacilityStats: backup fires"
    );
    assert_eq!(
        snap.counter("facility.scheduled"),
        stats.scheduled,
        "trace vs FacilityStats: schedules"
    );
    assert!(stats.fired() > 0, "the rearming chain must actually fire");

    // Part 3: exports round-trip through the JSON validator.
    let chrome_ok = json::validate(&snap.chrome_trace_json()).is_ok();
    let jsonl_ok = snap
        .metrics_jsonl()
        .lines()
        .all(|line| json::validate(line).is_ok());
    let exports_valid = chrome_ok && jsonl_ok;
    assert!(exports_valid, "exports must validate");

    st_trace::resume(outer);
    TraceOverhead {
        checks,
        ns_per_check_disabled: ns_disabled,
        ns_per_check_enabled: ns_enabled,
        triggers,
        events_captured: snap.events.len() as u64,
        events_dropped: snap.dropped,
        fired_trigger: stats.fired_trigger,
        fired_backup: stats.fired_backup,
        shares,
        exports_valid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_match_and_exports_validate() {
        // run() itself asserts the exact counter/stream/stats agreement.
        let r = run(Scale::Quick, 7);
        let total_share: f64 = r.shares.iter().map(|s| s.share).sum();
        assert!((total_share - 1.0).abs() < 1e-9, "shares sum {total_share}");
        assert!(r.exports_valid);
        assert_eq!(r.events_dropped, 0);
        assert!(r.events_captured > r.triggers, "stream + fires + backups");
        // Timing is environment-dependent: only sanity, no absolutes.
        assert!(r.ns_per_check_disabled > 0.0);
        assert!(r.ns_per_check_enabled > 0.0);
    }

    #[test]
    fn rearming_chain_survives_under_tracing() {
        let r = run(Scale::Quick, 8);
        assert!(r.fired_trigger > 0, "triggers must catch most fires");
        // Backup fires are rare (tail intervals only) but the counters
        // must still reconcile — run() asserted that already.
        assert!(r.fired_trigger + r.fired_backup > 0);
    }
}
