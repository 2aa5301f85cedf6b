//! Fault-injected runs must leave matching evidence in the trace
//! stream: every fault the plan injects — and every recovery the
//! facility performs — shows up in `st-trace` counters and events that
//! reconcile exactly with the run's own [`FaultReport`] accounting.

use st_fault::{FaultPlan, Scenario};
use st_trace::{TraceConfig, TraceSession};

const DURATION: u64 = 200_000;

fn traced_run(plan: FaultPlan, seed: u64) -> (st_fault::FaultReport, st_trace::Snapshot) {
    let session = TraceSession::start(TraceConfig {
        capacity: 1 << 20,
        ..TraceConfig::default()
    });
    let report = Scenario::new(plan, seed, DURATION).run();
    let snap = session.finish();
    assert_eq!(snap.dropped, 0, "ring must retain the whole run");
    (report, snap)
}

#[test]
fn clock_anomalies_leave_matching_trace_evidence() {
    let (report, snap) = traced_run(FaultPlan::clock_anomalies(), 42);
    assert!(
        report.clock_regressions_injected > 0,
        "plan must actually inject regressions"
    );

    // Injections: the fault layer's own counters and events.
    assert_eq!(
        snap.counter("fault.clock.regressions"),
        report.clock_regressions_injected
    );
    assert_eq!(snap.counter("fault.clock.jumps"), report.clock_jumps);
    assert_eq!(
        snap.event_count("fault.clock.regression") as u64,
        report.clock_regressions_injected,
        "one regression event per injection"
    );

    // Recoveries: the facility's clamp counter must agree with what the
    // report copied out of FacilityStats.
    assert_eq!(
        snap.counter("facility.clock_regressions"),
        report.clock_regressions_absorbed
    );
    // A clamp can only happen when the facility actually observes a
    // regressed reading, so absorbed <= injected.
    assert!(report.clock_regressions_absorbed <= report.clock_regressions_injected);
}

#[test]
fn dropped_backups_leave_matching_trace_evidence() {
    let (report, snap) = traced_run(FaultPlan::backup_loss(), 43);
    assert!(report.backups_dropped > 0, "plan must actually drop slots");

    assert_eq!(snap.counter("fault.backup.dropped"), report.backups_dropped);
    assert_eq!(snap.counter("fault.backup.delayed"), report.backups_delayed);

    // Fire provenance: the trace's per-origin fire counters must equal
    // the harness's FireOrigin accounting exactly, so the backup-rescue
    // evidence survives into the trace even when slots go missing.
    assert_eq!(snap.counter("facility.fired.trigger"), report.fired_trigger);
    assert_eq!(snap.counter("facility.fired.backup"), report.fired_backup);
    assert_eq!(
        snap.event_count("facility.fire.backup") as u64,
        report.fired_backup
    );
}

#[test]
fn clean_runs_leave_no_fault_evidence() {
    let (report, snap) = traced_run(FaultPlan::none(), 44);
    assert_eq!(snap.counter("fault.clock.regressions"), 0);
    assert_eq!(snap.counter("fault.clock.jumps"), 0);
    assert_eq!(snap.counter("fault.backup.dropped"), 0);
    assert_eq!(snap.counter("facility.clock_regressions"), 0);
    // The ordinary machinery still traces. (facility.scheduled counts
    // every schedule — poll chain and pacer included — so it exceeds
    // the report's workload-only count rather than matching it.)
    assert!(snap.counter("facility.scheduled") >= report.scheduled);
    assert_eq!(
        snap.counter("facility.fired.trigger") + snap.counter("facility.fired.backup"),
        report.fired
    );
    assert!(snap.counter("facility.fired.trigger") > 0);
}

#[test]
fn tracing_does_not_perturb_the_run() {
    // A (plan, seed) pair replays byte-identically; recording the run
    // must not change a single decision.
    let plan = FaultPlan::everything();
    let bare = Scenario::new(plan, 45, DURATION).run();
    let (traced, _snap) = traced_run(plan, 45);
    assert_eq!(bare, traced);
}
