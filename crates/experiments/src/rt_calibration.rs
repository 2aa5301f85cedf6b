//! The `rt_calibration` experiment: measure the real machine, fit the
//! sim's cost model to it, and report the sim-vs-reality error.
//!
//! Three phases:
//!
//! 1. **Measure** (st-rt): microbenchmark probes fit the host's
//!    trigger-check / dispatch / clock-read costs and sleep-vs-spin
//!    wake-up slack; then the host runtime runs `SoftTimerCore` on real
//!    OS threads (worker task-returns + idle poller + backup sweeps) and
//!    records trigger-interval and fire-delay distributions in
//!    wall-clock nanoseconds.
//! 2. **Fit**: the probed constants become
//!    [`CostModel::calibrated_host`] — the simulator's machine model,
//!    expressed in this machine's numbers instead of the paper's 1999
//!    hardware.
//! 3. **Replay**: [`host::twin`] runs the host's own lanes — their waits
//!    and checks, over the same `SoftTimerCore` and periodic workload — in
//!    virtual time, each lane's stretches between checks resampled from
//!    the intervals its class measured (inverse-CDF sampling from the
//!    recorded histograms under [`SimRng`]). It predicts fire delays and
//!    the backup share; its checks and fires at the fitted costs predict
//!    the facility's CPU share. The gap between prediction and the host's
//!    in-situ measurement is the reported calibration error per metric.
//!
//! What models the machine stays here: the resampling, the rule that a
//! stretch of up to twice the idle pause was spent on the core, the
//! backup sweeps' phase and the event cap. What a lane does inside a
//! stretch is the host's code, so a change to a lane reaches the replay
//! without an edit here.
//!
//! The determinism split: the twin runs **twice** and its report must be
//! byte-identical under the fixed seed (`sim_replay_identical` = 1);
//! host-side numbers are real measurements and are only bounds-checked.
//!
//! [`CostModel::calibrated_host`]: st_kernel::CostModel::calibrated_host

use std::time::Duration;

use st_kernel::CostModel;
use st_rt::clock::nanos;
use st_rt::host::{self, Stretch};
use st_rt::{probe, Calibration, HostConfig, HostReport, LaneClass, SourceReport};
use st_sim::SimRng;
use st_stats::HdrHistogram;

use crate::Scale;

/// An interval distribution in replayable form: `(lower, upper,
/// cumulative count)` per non-empty bucket of a measured [`HdrHistogram`].
type Buckets = Vec<(u64, u64, u64)>;

/// `h` in replayable form.
fn cumulative(h: &HdrHistogram) -> Buckets {
    let mut total = 0;
    h.buckets()
        .map(|(lo, hi, count)| {
            total += count;
            (lo, hi, total)
        })
        .collect()
}

/// The full report.
#[derive(Debug)]
pub struct RtCalibration {
    /// Host-side measurements.
    pub host: HostReport,
    /// Probe results.
    pub calibration: Calibration,
    /// The fitted cost model.
    pub model: CostModel,
    /// The twin's replay (first run; the second only checks its bytes).
    pub sim: HostReport,
    /// Predicted facility CPU fraction: the twin's checks and fires at the
    /// fitted costs.
    pub sim_facility_cpu_fraction: f64,
    /// Whether two replays under the same seed were byte-identical.
    pub sim_replay_identical: bool,
    /// Relative error, sim vs host, fire-delay p50.
    pub err_fire_delay_p50: f64,
    /// Relative error, sim vs host, fire-delay p99.
    pub err_fire_delay_p99: f64,
    /// Absolute error, sim vs host, backup share of fires.
    pub err_backup_share: f64,
    /// Relative error, predicted vs in-situ facility CPU fraction.
    pub err_facility_cpu_fraction: f64,
}

fn rel_err(sim: f64, host: f64) -> f64 {
    (sim - host).abs() / host.abs().max(1e-9)
}

/// The `p` quantile of `h` (0 when empty).
fn q(h: &HdrHistogram, p: f64) -> f64 {
    h.quantile(p).unwrap_or(0) as f64
}

/// Every fire's delay in a run, both origins merged (ns).
fn fire_delays(report: &HostReport) -> HdrHistogram {
    let mut merged = report.fired_trigger.delay_ns.clone();
    merged.merge(&report.fired_backup.delay_ns);
    merged
}

/// Trigger-state checks of a run: the workers' and the idle lane's.
fn trigger_checks(report: &HostReport) -> u64 {
    report.task_return.checks + report.idle_poll.as_ref().map_or(0, |s| s.checks)
}

/// Inverse-CDF sample from a measured bucket list: pick a bucket by
/// count, then uniform within it. Returns `fallback` for an empty list.
fn sample_interval(buckets: &Buckets, rng: &mut SimRng, fallback: u64) -> u64 {
    let Some(&(_, _, total)) = buckets.last() else {
        return fallback;
    };
    let r = rng.range_u64(0, total);
    let bucket = buckets.partition_point(|&(_, _, upto)| upto <= r);
    // `range_u64` draws from `[lo, hi)`, which is what a bucket is: a
    // 1 ns bucket (any interval below 128 ns) is a range of one value.
    buckets
        .get(bucket)
        .map_or(fallback, |&(lo, hi, _)| rng.range_u64(lo, hi.max(lo + 1)))
}

/// The measured intervals of the task-return, idle-poll and backup-sweep
/// sources, in that order (an absent source measured none).
fn measured_intervals(report: &HostReport) -> [Buckets; 3] {
    let buckets = |s: &SourceReport| cumulative(&s.intervals);
    [
        buckets(&report.task_return),
        report.idle_poll.as_ref().map(buckets).unwrap_or_default(),
        buckets(&report.backup_sweep),
    ]
}

/// The twin of a run of `config` that measured `intervals`, for
/// `duration_ns` under `seed`: each lane's stretches resampled from its
/// class's intervals (a class that measured none never checks).
fn replay(
    config: &HostConfig,
    [task, idle, backup]: &[Buckets; 3],
    duration_ns: u64,
    wake_ns: u64,
    seed: u64,
) -> HostReport {
    let mut rng = SimRng::seed(seed ^ 0x057C_411B_8A7E);
    let far = duration_ns.saturating_add(1);
    let period = nanos(config.backup_period).max(1);
    // The backup sweeps start half a period out of phase and replay their
    // measured intervals: the host backup thread sleeps and always
    // overshoots, so its sweeps drift against the timer deadlines. On the
    // bare period they stay phase-locked with every timer that divides half
    // of it and win each tie — an artifact, not a prediction.
    let mut phase = period / 2;
    host::twin(config, duration_ns, wake_ns, |class| {
        let ns = match class {
            LaneClass::Worker => sample_interval(task, &mut rng, far),
            LaneClass::IdlePoll => sample_interval(idle, &mut rng, far),
            LaneClass::Backup => {
                std::mem::take(&mut phase) + sample_interval(backup, &mut rng, period)
            }
        };
        // A stretch the idle lane could have chosen (up to twice its pause:
        // the pause, the check, a short interrupt) was spent on the core. A
        // longer one was measured across a stretch off it (three lanes spin
        // on however many cores there are), and no deadline cuts it short.
        let on_core = Duration::from_nanos(ns) <= config.idle_pause.saturating_mul(2);
        Stretch { ns, on_core }
    })
}

/// The facility CPU fraction a twin run predicts from the fitted costs:
/// its trigger checks at `check_ns` and its fires at `dispatch_ns`, over
/// the whole run of every worker and idle lane.
fn predicted_cpu_fraction(
    config: &HostConfig,
    sim: &HostReport,
    check_ns: f64,
    dispatch_ns: f64,
) -> f64 {
    let fires = sim.fired_trigger.count + sim.fired_backup.count;
    let facility_ns = trigger_checks(sim) as f64 * check_ns + fires as f64 * dispatch_ns;
    let busy_lanes = config.workers.max(1) + usize::from(config.idle_poller);
    facility_ns / (busy_lanes as f64 * sim.duration_ns as f64)
}

/// Wall-clock budget for the host-side phases, honouring the
/// `RT_SMOKE_SECS` cap used by constrained CI environments.
fn host_budget(scale: Scale) -> Duration {
    let default = match scale {
        Scale::Quick => Duration::from_millis(400),
        Scale::Full => Duration::from_millis(2_500),
    };
    match std::env::var("RT_SMOKE_SECS")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
    {
        Some(secs) if secs > 0.0 => default.min(Duration::from_secs_f64(secs)),
        _ => default,
    }
}

/// Runs the full calibration loop.
///
/// # Panics
///
/// Panics when the sim replay is not byte-identical across two runs with
/// the same seed, or when a probe reports a nonsensical constant.
pub fn run(scale: Scale, seed: u64) -> RtCalibration {
    let budget = host_budget(scale);
    // ~30 % of the budget to the probes, the rest to the host run.
    let probe_budget = budget.mul_f64(0.3);
    let host_duration = budget.mul_f64(0.6);

    let calibration = probe::calibrate(probe_budget);
    assert!(
        calibration.trigger_check_ns > 0.0 && calibration.fire_dispatch_ns > 0.0,
        "probes returned non-positive costs"
    );

    let config = HostConfig {
        duration: host_duration,
        ..HostConfig::default()
    };
    let report = host::run(&config);
    report.emit_telemetry();

    let model = CostModel::calibrated_host(
        st_sim::SimDuration::from_nanos(calibration.trigger_check_ns.round() as u64),
        st_sim::SimDuration::from_nanos(calibration.fire_dispatch_ns.round() as u64),
    );

    // Replay the measured distributions deterministically. Cap the event
    // count so an extremely fast idle poller cannot explode the replay.
    let cap_events = match scale {
        Scale::Quick => 300_000u64,
        Scale::Full => 1_500_000u64,
    };
    let idle_density = report.idle_poll.as_ref().map_or(0.0, |s| s.density_hz);
    let total_density =
        (report.task_return.density_hz + idle_density + report.backup_sweep.density_hz).max(1.0);
    let sim_duration_ns = (report.duration_ns as f64)
        .min(cap_events as f64 / total_density * 1e9)
        .round() as u64;
    let intervals = measured_intervals(&report);
    let wake_ns = calibration.wake_fire_ns.round() as u64;
    let twin = || replay(&config, &intervals, sim_duration_ns.max(1), wake_ns, seed);
    let sim = twin();
    let sim_replay_identical = sim.to_json() == twin().to_json();
    assert!(
        sim_replay_identical,
        "sim replay diverged under fixed seed {seed}"
    );

    let (host_delay, sim_delay) = (fire_delays(&report), fire_delays(&sim));
    let sim_facility_cpu_fraction = predicted_cpu_fraction(
        &config,
        &sim,
        calibration.trigger_check_ns,
        calibration.fire_dispatch_ns,
    );
    RtCalibration {
        err_fire_delay_p50: rel_err(q(&sim_delay, 0.5), q(&host_delay, 0.5)),
        err_fire_delay_p99: rel_err(q(&sim_delay, 0.99), q(&host_delay, 0.99)),
        err_backup_share: (sim.backup_share - report.backup_share).abs(),
        err_facility_cpu_fraction: rel_err(sim_facility_cpu_fraction, report.facility_cpu_fraction),
        host: report,
        calibration,
        model,
        sim,
        sim_facility_cpu_fraction,
        sim_replay_identical,
    }
}

impl RtCalibration {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== rt_calibration: host measurement + sim calibration ==\n");
        out.push_str(&format!(
            "host run: {:.1} ms, {} workers | probes: check {:.0} ns, dispatch {:.0} ns, clock read {:.0} ns, wake-to-fire {:.0} ns\n",
            self.host.duration_ns as f64 / 1e6,
            self.host.workers,
            self.calibration.trigger_check_ns,
            self.calibration.fire_dispatch_ns,
            self.calibration.clock_read_ns,
            self.calibration.wake_fire_ns,
        ));
        out.push_str("source       |   checks | density(Hz) | interval p50/p99 (ns)\n");
        let mut row = |s: &st_rt::SourceReport| {
            out.push_str(&format!(
                "{:<12} | {:>8} | {:>11.0} | {} / {}\n",
                s.source.name(),
                s.checks,
                s.density_hz,
                s.intervals.quantile(0.5).unwrap_or(0),
                s.intervals.quantile(0.99).unwrap_or(0),
            ));
        };
        row(&self.host.task_return);
        if let Some(idle) = &self.host.idle_poll {
            row(idle);
        }
        row(&self.host.backup_sweep);
        out.push_str(&format!(
            "fires: {} trigger + {} backup (backup share {:.4}) | facility CPU {:.5} (raw {:.5})\n",
            self.host.fired_trigger.count,
            self.host.fired_backup.count,
            self.host.backup_share,
            self.host.facility_cpu_fraction,
            self.host.facility_cpu_fraction_raw,
        ));
        out.push_str(&format!(
            "in-situ check cost p50/p99: {} / {} ns (probe, uncontended: {:.0} ns)\n",
            self.host.check_cost.quantile(0.5).unwrap_or(0),
            self.host.check_cost.quantile(0.99).unwrap_or(0),
            self.calibration.trigger_check_ns,
        ));
        if let Some(idle) = &self.host.idle_poll {
            out.push_str(&format!(
                "idle lane's own fires, delay p50: {} ns (probe, uncontended wake-to-fire: {:.0} ns)\n",
                idle.fire_delay_ns.quantile(0.5).unwrap_or(0),
                self.calibration.wake_fire_ns,
            ));
        }
        out.push_str(&format!(
            "wake-up slack p50: sleep(1ms) {} ns | spin(50us) {} ns | probe batch retries: {}\n",
            self.calibration.sleep_slack_ns.quantile(0.5).unwrap_or(0),
            self.calibration.spin_slack_ns.quantile(0.5).unwrap_or(0),
            self.calibration.probe_retries,
        ));
        out.push_str(&format!(
            "fitted model: soft_check {} ns, soft_dispatch {} ns (prof {} / scope {} ns derived)\n",
            self.model.soft_check.as_nanos(),
            self.model.soft_dispatch.as_nanos(),
            self.model.prof_sample.as_nanos(),
            self.model.scope_sample.as_nanos(),
        ));
        out.push_str(&format!(
            "sim replay: {} checks, {} fires, byte-identical under seed: {}\n",
            trigger_checks(&self.sim),
            self.sim.handler_runs,
            if self.sim_replay_identical {
                "yes"
            } else {
                "NO"
            },
        ));
        out.push_str("metric                  |       sim |      host | error\n");
        let (sim_delay, host_delay) = (fire_delays(&self.sim), fire_delays(&self.host));
        out.push_str(&format!(
            "fire delay p50 (ns)     | {:>9} | {:>9} | {:.3}\n",
            sim_delay.quantile(0.5).unwrap_or(0),
            host_delay.quantile(0.5).unwrap_or(0),
            self.err_fire_delay_p50,
        ));
        out.push_str(&format!(
            "fire delay p99 (ns)     | {:>9} | {:>9} | {:.3}\n",
            sim_delay.quantile(0.99).unwrap_or(0),
            host_delay.quantile(0.99).unwrap_or(0),
            self.err_fire_delay_p99,
        ));
        out.push_str(&format!(
            "backup share            | {:>9.4} | {:>9.4} | {:.4} (abs)\n",
            self.sim.backup_share, self.host.backup_share, self.err_backup_share,
        ));
        out.push_str(&format!(
            "facility CPU fraction   | {:>9.5} | {:>9.5} | {:.3}\n",
            self.sim_facility_cpu_fraction,
            self.host.facility_cpu_fraction,
            self.err_facility_cpu_fraction,
        ));
        out
    }

    /// Flat `(name, value)` metric pairs for `repro --json`.
    pub fn key_metrics(&self) -> Vec<(String, f64)> {
        let (host, sim, cal) = (&self.host, &self.sim, &self.calibration);
        let mut m: Vec<(String, f64)> = Vec::new();
        for s in [
            Some(&host.task_return),
            host.idle_poll.as_ref(),
            Some(&host.backup_sweep),
        ]
        .into_iter()
        .flatten()
        {
            let n = s.source.name();
            m.push((format!("host_{n}_density_hz"), s.density_hz));
            m.push((format!("host_{n}_interval_p50_ns"), q(&s.intervals, 0.5)));
            m.push((format!("host_{n}_interval_p99_ns"), q(&s.intervals, 0.99)));
            m.push((
                format!("host_{n}_fire_delay_p50_ns"),
                q(&s.fire_delay_ns, 0.5),
            ));
        }
        let (sim_delay, host_delay) = (fire_delays(sim), fire_delays(host));
        let flat = [
            ("host_fired_trigger", host.fired_trigger.count as f64),
            ("host_fired_backup", host.fired_backup.count as f64),
            ("host_fire_delay_p50_ns", q(&host_delay, 0.5)),
            ("host_fire_delay_p99_ns", q(&host_delay, 0.99)),
            ("host_backup_share", host.backup_share),
            ("host_facility_cpu_fraction", host.facility_cpu_fraction),
            (
                "host_facility_cpu_fraction_raw",
                host.facility_cpu_fraction_raw,
            ),
            ("host_check_cost_p50_ns", q(&host.check_cost, 0.5)),
            ("host_sleep_slack_p50_ns", q(&cal.sleep_slack_ns, 0.5)),
            ("host_spin_slack_p50_ns", q(&cal.spin_slack_ns, 0.5)),
            ("probe_retries", cal.probe_retries as f64),
            ("fitted_trigger_check_ns", cal.trigger_check_ns),
            ("fitted_fire_dispatch_ns", cal.fire_dispatch_ns),
            ("fitted_clock_read_ns", cal.clock_read_ns),
            ("fitted_wake_fire_ns", cal.wake_fire_ns),
            ("fitted_max_idle_density_hz", cal.max_idle_density_hz),
            (
                "model_prof_sample_ns",
                self.model.prof_sample.as_nanos() as f64,
            ),
            (
                "model_scope_sample_ns",
                self.model.scope_sample.as_nanos() as f64,
            ),
            ("sim_checks", trigger_checks(sim) as f64),
            ("sim_fired_trigger", sim.fired_trigger.count as f64),
            ("sim_fired_backup", sim.fired_backup.count as f64),
            ("sim_fire_delay_p50_ns", q(&sim_delay, 0.5)),
            ("sim_fire_delay_p99_ns", q(&sim_delay, 0.99)),
            ("sim_backup_share", sim.backup_share),
            ("sim_facility_cpu_fraction", self.sim_facility_cpu_fraction),
            (
                "sim_replay_identical",
                f64::from(u8::from(self.sim_replay_identical)),
            ),
            ("err_fire_delay_p50", self.err_fire_delay_p50),
            ("err_fire_delay_p99", self.err_fire_delay_p99),
            ("err_backup_share", self.err_backup_share),
            ("err_facility_cpu_fraction", self.err_facility_cpu_fraction),
        ];
        m.extend(flat.map(|(key, value)| (key.to_string(), value)));
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The twin of a fixed, machine-independent measurement: ~30 µs task
    /// intervals, ~2 µs idle polls on a 2 µs pause, 1 ms backups and two
    /// periodic timers, for 50 ms.
    fn synthetic(seed: u64) -> (HostConfig, HostReport) {
        let mut task = HdrHistogram::new(7);
        let mut idle = HdrHistogram::new(7);
        for i in 0..1000u64 {
            task.record(25_000 + (i % 17) * 1_000);
            idle.record(1_500 + (i % 7) * 300);
        }
        let config = HostConfig {
            idle_pause: Duration::from_micros(2),
            timer_periods: vec![Duration::from_micros(200), Duration::from_millis(1)],
            ..HostConfig::default()
        };
        let intervals = [cumulative(&task), cumulative(&idle), Vec::new()];
        let sim = replay(&config, &intervals, 50_000_000, 90, seed);
        (config, sim)
    }

    #[test]
    fn the_twin_is_byte_identical_under_fixed_seed() {
        let a = synthetic(42).1.to_json();
        assert_eq!(a, synthetic(42).1.to_json(), "replay diverged");
        // A different seed samples different intervals — the report is a
        // real function of the randomness, not a constant.
        assert_ne!(a, synthetic(43).1.to_json(), "the twin ignores the seed");
    }

    #[test]
    fn the_twin_predictions_are_physical() {
        let (config, s) = synthetic(7);
        // 50 ms of 200 µs + 1 ms timers ≈ 250 + 50 firings.
        let fired = s.fired_trigger.count + s.fired_backup.count;
        assert!((200..=400).contains(&fired), "{fired} fires");
        // µs-dense idle polls catch nearly everything before the 1 ms
        // backup sweep does.
        assert!(s.backup_share < 0.2, "backup share {}", s.backup_share);
        // Fire delays are bounded by the backup period + one interval.
        let p99 = fire_delays(&s).quantile(0.99).unwrap_or(0);
        assert!(p99 < 2_100_000, "p99 delay {p99} ns");
        let cpu = predicted_cpu_fraction(&config, &s, 45.0, 400.0);
        assert!(cpu > 0.0 && cpu < 0.5, "{cpu}");
    }

    #[test]
    fn host_side_bounds_are_generous_not_bytes() {
        // The real-machine half of the determinism split: assert only
        // load-tolerant bounds on a quick run.
        let r = run(Scale::Quick, 3);
        assert!(r.sim_replay_identical);
        assert!(r.host.task_return.checks > 10);
        assert!(r.host.handler_runs > 5);
        assert!(r.calibration.trigger_check_ns > 0.0);
        assert!(r.calibration.trigger_check_ns < 1_000_000.0);
        assert!((0.0..=1.0).contains(&r.host.backup_share));
        assert!(r.err_fire_delay_p99.is_finite());
        assert!(r.err_backup_share <= 1.0);
        // The fitted model keeps the simulator's cost-ordering contract.
        assert!(r.model.prof_sample.as_nanos() > r.model.soft_check.as_nanos());
        assert!(r.model.scope_sample.as_nanos() < r.model.soft_dispatch.as_nanos());
    }
}
