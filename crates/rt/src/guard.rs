//! st-guard: supervision and self-healing for the host runtime.
//!
//! The paper's bound assumes the machinery that performs checks keeps
//! running. On a real machine it doesn't: threads wedge (scheduler
//! pathology, runaway callbacks), handlers panic, clocks step. This
//! module wraps the `host` runtime in a supervisor that makes those
//! failures *detected, bounded, and audible* instead of silent:
//!
//! - every lane (worker shims, idle poller, backup sweep) beats a
//!   [`Heartbeat`] — one relaxed atomic store — at the top of its loop;
//! - a supervisor thread scans heartbeat ages every `scan_period` with a
//!   pure [`SupervisorCore`], detecting stalls older than
//!   `stall_window`, restarting dead lanes under an exponential-backoff
//!   restart budget, and giving up audibly when the budget is spent;
//! - when the idle-poll lane (the trigger stream that makes fire delays
//!   small) starves, the supervisor **degrades**: it tightens the
//!   backup-sweep period to `degraded_backup_period` via
//!   [`st_core::SoftTimerCore::set_interrupt_hz`], so the fire-delay
//!   bound collapses to a *predicted* envelope — degraded period plus
//!   wake-up slack — instead of widening silently; recovery restores
//!   the configured period;
//! - panicking handlers are isolated at the dispatch boundary (the host
//!   runs each under `catch_unwind`, with no lock held) and poisoned
//!   locks recover *counted* ([`crate::lock_recoveries`]).
//!
//! The [`SupervisorCore`] is pure — time in, actions out — so the
//! `rt_chaos` experiment drives the identical policy code in virtual
//! time as its deterministic sim twin.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use st_fault::HostFaults;
use st_stats::HdrHistogram;
use st_trace::json::ObjectBuilder;

use crate::chaos::{ChaosSchedule, ChaosState, FaultClock};
use crate::clock::nanos;
use crate::host::{
    finish_report, hist_json, lane_classes, HostConfig, HostReport, LaneClass, Lanes, Shared,
    SUB_BUCKET_BITS,
};
use crate::shared::{interrupt_hz, lock_recoveries};

/// A lane's liveness signal: the owning thread stores the current clock
/// reading at the top of every loop iteration; the supervisor compares
/// against it. One relaxed store — cheap enough for a µs-cadence idle
/// loop (`guard.heartbeat_beat` in the bench suite pins it).
#[derive(Debug, Clone, Default)]
pub struct Heartbeat(Arc<AtomicU64>);

impl Heartbeat {
    /// A heartbeat whose last beat is `now_ns` (so a freshly spawned
    /// lane is not instantly stalled).
    pub fn starting_at(now_ns: u64) -> Self {
        Heartbeat(Arc::new(AtomicU64::new(now_ns)))
    }

    /// Records liveness. // st-lint: hot-path
    #[inline]
    pub fn beat(&self, now_ns: u64) {
        self.0.store(now_ns, Ordering::Relaxed);
    }

    /// The last recorded beat (ns).
    pub fn last(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Pure supervision policy parameters (all in nanoseconds, so the sim
/// twin can drive the same core in virtual time).
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// A lane whose heartbeat is older than this is stalled.
    pub stall_window_ns: u64,
    /// Restarts allowed per lane before the supervisor gives up on it.
    pub restart_budget: u32,
    /// Base restart backoff; doubles with each restart of the same lane.
    pub restart_backoff_ns: u64,
}

/// One decision the supervisor made during a scan. Pure data: the host
/// executor spawns threads and retunes the facility; the sim twin just
/// records the sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// A lane's heartbeat crossed the stall window.
    Detected {
        /// Lane index.
        lane: usize,
        /// Heartbeat age at detection (ns).
        age_ns: u64,
    },
    /// Spawn a replacement thread for a stalled lane.
    Restart {
        /// Lane index.
        lane: usize,
        /// 1-based restart attempt for this lane.
        attempt: u32,
    },
    /// A stalled lane is beating again.
    Recovered {
        /// Lane index.
        lane: usize,
    },
    /// The lane's restart budget is exhausted; it stays down.
    GiveUp {
        /// Lane index.
        lane: usize,
    },
    /// Enter degraded mode: tighten the backup period.
    Degrade,
    /// Leave degraded mode: restore the configured backup period.
    Restore,
}

#[derive(Debug, Clone, Copy)]
struct LaneState {
    stalled: bool,
    restarts: u32,
    next_restart_at: u64,
    gave_up: bool,
}

/// The pure supervision state machine: heartbeat ages in, [`Action`]s
/// out. No clocks, no threads, no allocation on the healthy path — the
/// host supervisor thread and the `rt_chaos` sim twin both run exactly
/// this code, which is what makes the twin's predictions binding.
#[derive(Debug, Clone)]
pub struct SupervisorCore {
    config: SupervisorConfig,
    classes: Vec<LaneClass>,
    lanes: Vec<LaneState>,
    degraded: bool,
}

impl SupervisorCore {
    /// A supervisor over `classes.len()` lanes, all healthy.
    pub fn new(config: SupervisorConfig, classes: Vec<LaneClass>) -> Self {
        let lanes = vec![
            LaneState {
                stalled: false,
                restarts: 0,
                next_restart_at: 0,
                gave_up: false,
            };
            classes.len()
        ];
        SupervisorCore {
            config,
            classes,
            lanes,
            degraded: false,
        }
    }

    /// Whether the supervisor currently holds the runtime degraded.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Total restarts issued for `lane` so far.
    pub fn restarts(&self, lane: usize) -> u32 {
        self.lanes[lane].restarts
    }

    /// One scan: compare each lane's last beat against `now_ns`, append
    /// the resulting actions to `out` (not cleared here; a healthy scan
    /// appends nothing and allocates nothing). // st-lint: hot-path
    pub fn scan(&mut self, now_ns: u64, last_beats: &[u64], out: &mut Vec<Action>) {
        debug_assert_eq!(last_beats.len(), self.lanes.len());
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let age = now_ns.saturating_sub(last_beats[i]);
            if age > self.config.stall_window_ns {
                if !lane.stalled {
                    lane.stalled = true;
                    out.push(Action::Detected {
                        lane: i,
                        age_ns: age,
                    });
                }
                if lane.restarts < self.config.restart_budget {
                    if now_ns >= lane.next_restart_at {
                        lane.restarts += 1;
                        out.push(Action::Restart {
                            lane: i,
                            attempt: lane.restarts,
                        });
                        // Exponential backoff before the *next* restart
                        // of this lane (shift capped well below overflow).
                        let backoff = self
                            .config
                            .restart_backoff_ns
                            .saturating_mul(1u64 << lane.restarts.min(20));
                        lane.next_restart_at = now_ns.saturating_add(backoff);
                    }
                } else if !lane.gave_up {
                    lane.gave_up = true;
                    out.push(Action::GiveUp { lane: i });
                }
            } else if lane.stalled {
                lane.stalled = false;
                out.push(Action::Recovered { lane: i });
            }
        }
        // Degradation tracks the idle-poll trigger stream: while any
        // idle lane is stalled the fire-delay bound rests entirely on
        // the backup grid, so tighten it; restore once the stream is
        // back. Runs with no idle lane configured never degrade (the
        // backup grid already is the bound).
        let idle_starved = self
            .classes
            .iter()
            .zip(&self.lanes)
            .any(|(c, l)| *c == LaneClass::IdlePoll && l.stalled);
        if idle_starved && !self.degraded {
            self.degraded = true;
            out.push(Action::Degrade);
        } else if !idle_starved && self.degraded {
            self.degraded = false;
            out.push(Action::Restore);
        }
    }
}

/// Chaos injection settings for a supervised run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Fault magnitudes/probabilities (tick units, like the sim).
    pub faults: HostFaults,
    /// Seed for the schedule (fork label 10 of this seed's master rng).
    pub seed: u64,
    /// Inject stall windows into worker lanes.
    pub stall_workers: bool,
    /// Inject stall windows into the idle-poll lane.
    pub stall_idle: bool,
    /// Give every stalled lane the *same* windows (full trigger-stream
    /// starvation) instead of independent per-lane draws.
    pub synchronized_stalls: bool,
}

/// Configuration for a supervised (and optionally chaos-injected) run.
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// The underlying host runtime configuration.
    pub host: HostConfig,
    /// Heartbeat age past which a lane counts as stalled.
    pub stall_window: Duration,
    /// Supervisor scan cadence.
    pub scan_period: Duration,
    /// Restarts allowed per lane.
    pub restart_budget: u32,
    /// Base backoff between restarts of one lane (doubles each time).
    pub restart_backoff: Duration,
    /// Backup period while degraded (must be tighter than the
    /// configured one to mean anything).
    pub degraded_backup_period: Duration,
    /// Wake-up slack allowance added to the degraded period to form the
    /// predicted envelope (measure with the probes; sleep p99 plus
    /// scheduler margin).
    pub envelope_slack: Duration,
    /// Fault injection; `None` supervises a healthy run.
    pub chaos: Option<ChaosConfig>,
}

impl GuardConfig {
    /// Supervision defaults around a given host config: 25 ms stall
    /// window, 5 ms scans, 3 restarts per lane at 10 ms base backoff,
    /// 250 µs degraded backup period, 2 ms envelope slack.
    pub fn new(host: HostConfig) -> Self {
        GuardConfig {
            host,
            stall_window: Duration::from_millis(25),
            scan_period: Duration::from_millis(5),
            restart_budget: 3,
            restart_backoff: Duration::from_millis(10),
            degraded_backup_period: Duration::from_micros(250),
            envelope_slack: Duration::from_millis(2),
            chaos: None,
        }
    }
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig::new(HostConfig::default())
    }
}

/// Everything a supervised run measured: the inner host report plus the
/// supervision/chaos story.
#[derive(Debug, Clone)]
pub struct GuardReport {
    /// The host runtime's own measurements (all generations merged).
    pub host: HostReport,
    /// Supervised lane count.
    pub lanes: usize,
    /// Supervisor scans performed.
    pub scans: u64,
    /// Stall windows scheduled by the chaos plan.
    pub stalls_injected: u64,
    /// Forward clock jumps actually applied during the run.
    pub clock_jumps_applied: u64,
    /// Handler panics injected by the chaos plan.
    pub panics_injected: u64,
    /// Handler panics the dispatcher caught (must equal injected).
    pub panics_caught: u64,
    /// Stalls detected (heartbeat age crossed the window).
    pub detections: u64,
    /// Heartbeat age at each detection (ns): detection latency.
    pub detect_age_ns: HdrHistogram,
    /// Lane restarts issued.
    pub restarts: u64,
    /// Stalled lanes that came back (restart or natural recovery).
    pub recoveries: u64,
    /// Lanes whose restart budget was exhausted.
    pub giveups: u64,
    /// Degraded-mode windows entered.
    pub degraded_windows: u64,
    /// Duration of each degraded window (ns); `sum()` is total degraded
    /// time.
    pub degraded_window_ns: HdrHistogram,
    /// Fire delays recorded while degraded (ns) — the population the
    /// envelope bounds.
    pub degraded_delay_ns: HdrHistogram,
    /// Predicted degraded-mode fire-delay envelope (ns): degraded backup
    /// period + envelope slack.
    pub envelope_ns: u64,
    /// Poisoned-lock recoveries during this run (process-wide delta).
    pub lock_recoveries: u64,
    /// Stall window the run used (ns), echoed for analysis.
    pub stall_window_ns: u64,
    /// Scan period the run used (ns), echoed for analysis.
    pub scan_period_ns: u64,
}

/// Expands a [`ChaosConfig`] into per-lane stall windows plus the full
/// [`ChaosSchedule`], deterministically. Backup lanes never stall (the
/// backup sweep is the safety net under test, not the fault surface);
/// `synchronized_stalls` hands every targeted lane the same windows.
/// Pure in `(classes, chaos, duration_ns)` — the host run and the sim
/// twin both call exactly this, so the twin predicts the same injections
/// the host executes.
pub fn plan_lane_stalls(
    classes: &[LaneClass],
    chaos: &ChaosConfig,
    duration_ns: u64,
) -> (Vec<Vec<(u64, u64)>>, ChaosSchedule) {
    let mut lane_stalls: Vec<Vec<(u64, u64)>> = vec![Vec::new(); classes.len()];
    let targets: Vec<usize> = classes
        .iter()
        .enumerate()
        .filter(|(_, c)| match c {
            LaneClass::Worker => chaos.stall_workers,
            LaneClass::IdlePoll => chaos.stall_idle,
            LaneClass::Backup => false,
        })
        .map(|(i, _)| i)
        .collect();
    let schedule = if chaos.synchronized_stalls {
        let one = ChaosSchedule::generate(&chaos.faults, chaos.seed, duration_ns, 1);
        ChaosSchedule {
            stalls: vec![one.stalls.first().cloned().unwrap_or_default(); targets.len()],
            ..one
        }
    } else {
        ChaosSchedule::generate(&chaos.faults, chaos.seed, duration_ns, targets.len())
    };
    for (slot, lane) in targets.into_iter().enumerate() {
        lane_stalls[lane] = schedule.stalls.get(slot).cloned().unwrap_or_default();
    }
    (lane_stalls, schedule)
}

/// The supervisor thread: every `scan_period` read the lanes' heartbeats,
/// let the pure [`SupervisorCore`] decide, execute what it decided on the
/// lane table and the facility, and account it straight into `report`.
fn supervise(config: &GuardConfig, shared: &Shared, lanes: &mut Lanes, report: &mut GuardReport) {
    let degraded_period_ns = nanos(config.degraded_backup_period).max(1);
    let normal_period_ns = nanos(config.host.backup_period).max(1);
    let mut core = SupervisorCore::new(
        SupervisorConfig {
            stall_window_ns: nanos(config.stall_window),
            restart_budget: config.restart_budget,
            restart_backoff_ns: nanos(config.restart_backoff),
        },
        lane_classes(&config.host),
    );
    let retune = |period_ns: u64| {
        shared.backup_period_ns.store(period_ns, Ordering::Relaxed);
        shared.core.lock().set_interrupt_hz(interrupt_hz(period_ns));
    };
    let mut actions: Vec<Action> = Vec::new();
    let mut beats: Vec<u64> = Vec::new();
    let mut degraded_since: Option<u64> = None;
    while !shared.stop.load(Ordering::Relaxed) {
        std::thread::sleep(config.scan_period);
        let now = shared.clock.now_ns();
        lanes.last_beats(&mut beats);
        actions.clear();
        core.scan(now, &beats, &mut actions);
        report.scans += 1;
        for action in &actions {
            match *action {
                Action::Detected { age_ns, .. } => {
                    report.detections += 1;
                    report.detect_age_ns.record(age_ns);
                    st_trace::count("rt.guard.detections", 1);
                    st_trace::observe_window("rt.guard.detect_age_ns", age_ns as f64);
                }
                Action::Restart { lane, attempt } => {
                    report.restarts += 1;
                    lanes.restart(lane, now);
                    st_trace::count("rt.guard.restarts", 1);
                    st_trace::observe_window("rt.guard.restart_attempt", attempt as f64);
                }
                Action::Recovered { .. } => report.recoveries += 1,
                Action::GiveUp { .. } => {
                    report.giveups += 1;
                    st_trace::count("rt.guard.giveups", 1);
                }
                Action::Degrade => {
                    report.degraded_windows += 1;
                    degraded_since = Some(now);
                    retune(degraded_period_ns);
                    shared.degraded.store(true, Ordering::Relaxed);
                    st_trace::gauge(now, "rt.guard.degraded", 1.0);
                }
                Action::Restore => {
                    shared.degraded.store(false, Ordering::Relaxed);
                    retune(normal_period_ns);
                    if let Some(start) = degraded_since.take() {
                        report.degraded_window_ns.record(now.saturating_sub(start));
                    }
                    st_trace::gauge(now, "rt.guard.degraded", 0.0);
                }
            }
        }
    }
    // A window still open at shutdown closes at stop time.
    if let Some(start) = degraded_since.take() {
        let now = shared.clock.now_ns();
        report.degraded_window_ns.record(now.saturating_sub(start));
    }
}

/// Runs the host runtime under supervision for `config.host.duration`
/// and reports what happened: the host measurements plus detections,
/// restarts, degraded windows, and the chaos actually injected. The same
/// launch → sleep → stop → join → fold as `host::run`, with the
/// supervisor thread holding the lane table in between.
pub fn run_guarded(config: &GuardConfig) -> GuardReport {
    // Fix the whole chaos run up front from the plan's seed.
    let mut lane_stalls = Vec::new();
    let mut jumps = Vec::new();
    let mut chaos_state = None;
    let mut stalls_injected = 0u64;
    if let Some(ch) = &config.chaos {
        let classes = lane_classes(&config.host);
        let (stalls, schedule) = plan_lane_stalls(&classes, ch, nanos(config.host.duration));
        lane_stalls = stalls;
        stalls_injected = schedule.stall_count();
        jumps = schedule.jumps.clone();
        chaos_state = Some(ChaosState::new(schedule.panic_chance, schedule.panic_seed));
    }

    let lock_recoveries_before = lock_recoveries();
    let shared = Shared::build(&config.host, FaultClock::with_jumps(jumps), chaos_state);
    let mut lanes = Lanes::launch(&shared, &config.host, lane_stalls);

    // The report exists before the run so the supervisor accounts into
    // it in place; `host` is folded again once the lanes are joined.
    let mut report = GuardReport {
        host: finish_report(&shared, config.host.workers, 1, Vec::new()),
        lanes: lane_classes(&config.host).len(),
        scans: 0,
        stalls_injected,
        clock_jumps_applied: 0,
        panics_injected: 0,
        panics_caught: 0,
        detections: 0,
        detect_age_ns: HdrHistogram::new(SUB_BUCKET_BITS),
        restarts: 0,
        recoveries: 0,
        giveups: 0,
        degraded_windows: 0,
        degraded_window_ns: HdrHistogram::new(SUB_BUCKET_BITS),
        degraded_delay_ns: HdrHistogram::new(SUB_BUCKET_BITS),
        envelope_ns: nanos(config.degraded_backup_period)
            .max(1)
            .saturating_add(nanos(config.envelope_slack)),
        lock_recoveries: 0,
        stall_window_ns: nanos(config.stall_window),
        scan_period_ns: nanos(config.scan_period),
    };
    let measured_ns = std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("st-guard-supervisor".into())
            .spawn_scoped(scope, || {
                supervise(config, &shared, &mut lanes, &mut report)
            })
            .expect("failed to spawn supervisor thread");
        let started = shared.clock.now_ns();
        std::thread::sleep(config.host.duration);
        shared.stop.store(true, Ordering::Relaxed);
        shared.clock.now_ns().saturating_sub(started).max(1)
    });

    // Superseded generations are joined too: what a wedged thread fired
    // before its restart still counts.
    let outs = lanes.join();
    for (_, out) in &outs {
        report.degraded_delay_ns.merge(&out.fires.degraded_delay);
    }
    report.host = finish_report(&shared, config.host.workers, measured_ns, outs);
    // The dispatch boundary notes each panic it catches in the core.
    report.panics_caught = report.host.stats.handler_panics;
    report.panics_injected = shared.ctx.as_ref().map_or(0, |c| c.panics_injected());
    report.clock_jumps_applied = shared.clock.jumps_applied();
    report.lock_recoveries = lock_recoveries().saturating_sub(lock_recoveries_before);
    report
}

impl GuardReport {
    /// Total time spent degraded (ns) — exact sum of the window
    /// durations.
    pub fn degraded_total_ns(&self) -> u64 {
        u64::try_from(self.degraded_window_ns.sum()).unwrap_or(u64::MAX)
    }

    /// Fraction of degraded-mode fires whose delay exceeded the
    /// predicted envelope (0.0 when none were recorded).
    pub fn envelope_excess_fraction(&self) -> f64 {
        if self.degraded_delay_ns.count() == 0 {
            return 0.0;
        }
        self.degraded_delay_ns.fraction_above(self.envelope_ns)
    }

    /// Single-line JSON document (schema `st-rt-guard-v1`); the inner
    /// host report nests under `"host"`.
    pub fn to_json(&self) -> String {
        ObjectBuilder::new()
            .str("schema", "st-rt-guard-v1")
            .u64("lanes", self.lanes as u64)
            .u64("scans", self.scans)
            .u64("stall_window_ns", self.stall_window_ns)
            .u64("scan_period_ns", self.scan_period_ns)
            .u64("stalls_injected", self.stalls_injected)
            .u64("clock_jumps_applied", self.clock_jumps_applied)
            .u64("panics_injected", self.panics_injected)
            .u64("panics_caught", self.panics_caught)
            .u64("detections", self.detections)
            .raw("detect_age_ns", &hist_json(&self.detect_age_ns))
            .u64("restarts", self.restarts)
            .u64("recoveries", self.recoveries)
            .u64("giveups", self.giveups)
            .u64("degraded_windows", self.degraded_windows)
            .u64("degraded_total_ns", self.degraded_total_ns())
            .raw("degraded_delay_ns", &hist_json(&self.degraded_delay_ns))
            .u64("envelope_ns", self.envelope_ns)
            .f64("envelope_excess_fraction", self.envelope_excess_fraction())
            .u64("lock_recoveries", self.lock_recoveries)
            .raw("host", &self.host.to_json())
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn sup_config() -> SupervisorConfig {
        SupervisorConfig {
            stall_window_ns: 25 * MS,
            restart_budget: 2,
            restart_backoff_ns: 10 * MS,
        }
    }

    #[test]
    fn supervisor_detects_restarts_and_gives_up_in_virtual_time() {
        let mut core = SupervisorCore::new(
            sup_config(),
            vec![LaneClass::Worker, LaneClass::IdlePoll, LaneClass::Backup],
        );
        let mut out = Vec::new();

        // All lanes beating: silence.
        core.scan(30 * MS, &[29 * MS, 29 * MS, 29 * MS], &mut out);
        assert!(out.is_empty(), "{out:?}");

        // Worker (lane 0) last beat at 10 ms, now 40 ms: age 30 ms > 25.
        core.scan(40 * MS, &[10 * MS, 39 * MS, 39 * MS], &mut out);
        assert_eq!(
            out,
            vec![
                Action::Detected {
                    lane: 0,
                    age_ns: 30 * MS
                },
                Action::Restart {
                    lane: 0,
                    attempt: 1
                }
            ]
        );
        assert_eq!(core.restarts(0), 1);

        // Still stalled next scan (restart didn't cure it): backoff
        // (10 ms * 2^1 = 20 ms from t=40) blocks a second restart at 45,
        // allows it at 65.
        out.clear();
        core.scan(45 * MS, &[10 * MS, 44 * MS, 44 * MS], &mut out);
        assert!(out.is_empty(), "backoff must hold: {out:?}");
        out.clear();
        core.scan(65 * MS, &[10 * MS, 64 * MS, 64 * MS], &mut out);
        assert_eq!(
            out,
            vec![Action::Restart {
                lane: 0,
                attempt: 2
            }]
        );

        // Budget (2) exhausted: give up once, audibly, and only once.
        out.clear();
        core.scan(200 * MS, &[10 * MS, 199 * MS, 199 * MS], &mut out);
        assert_eq!(out, vec![Action::GiveUp { lane: 0 }]);
        out.clear();
        core.scan(210 * MS, &[10 * MS, 209 * MS, 209 * MS], &mut out);
        assert!(out.is_empty());

        // The lane comes back (e.g. the wedge cleared): recovered.
        out.clear();
        core.scan(220 * MS, &[219 * MS, 219 * MS, 219 * MS], &mut out);
        assert_eq!(out, vec![Action::Recovered { lane: 0 }]);
    }

    #[test]
    fn idle_starvation_degrades_and_recovery_restores() {
        let mut core =
            SupervisorCore::new(sup_config(), vec![LaneClass::Worker, LaneClass::IdlePoll]);
        let mut out = Vec::new();
        // Idle lane (1) stalls: detect, restart, and degrade.
        core.scan(40 * MS, &[39 * MS, 5 * MS], &mut out);
        assert!(out.contains(&Action::Detected {
            lane: 1,
            age_ns: 35 * MS
        }));
        assert!(out.contains(&Action::Degrade));
        assert!(core.degraded());
        // Worker stalls do NOT degrade further or restore.
        out.clear();
        core.scan(80 * MS, &[10 * MS, 5 * MS], &mut out);
        assert!(!out.contains(&Action::Degrade) && !out.contains(&Action::Restore));
        // Idle beats again: restore.
        out.clear();
        core.scan(100 * MS, &[99 * MS, 99 * MS], &mut out);
        assert!(out.contains(&Action::Restore));
        assert!(!core.degraded());
    }

    #[test]
    fn guarded_healthy_run_stays_quiet() {
        let config = GuardConfig {
            host: HostConfig {
                workers: 1,
                duration: Duration::from_millis(80),
                ..HostConfig::default()
            },
            ..GuardConfig::default()
        };
        let report = run_guarded(&config);
        assert_eq!(report.detections, 0, "healthy lanes must not trip");
        assert_eq!(report.restarts, 0);
        assert_eq!(report.degraded_windows, 0);
        assert_eq!(report.panics_caught, 0);
        assert!(report.scans > 0);
        assert_eq!(report.lanes, 3); // 1 worker + idle + backup
        assert!(report.host.handler_runs > 0, "workload still fires");
        assert_eq!(report.host.stats.fired(), report.host.handler_runs);
        let json = report.to_json();
        st_trace::json::validate(&json).expect("invalid guard JSON");
        assert!(json.contains("\"schema\":\"st-rt-guard-v1\""));
        assert!(json.contains("\"schema\":\"st-rt-host-v1\""));
    }

    #[test]
    fn run_and_run_guarded_launch_the_same_lanes() {
        for idle_poller in [true, false] {
            let host = HostConfig {
                workers: 2,
                duration: Duration::from_millis(40),
                idle_poller,
                ..HostConfig::default()
            };
            let classes = lane_classes(&host);
            assert_eq!(classes.len(), 2 + usize::from(idle_poller) + 1);
            // The table itself: one thread per lane, in lane order.
            let shared = Shared::build(&host, FaultClock::healthy(), None);
            let lanes = Lanes::launch(&shared, &host, Vec::new());
            shared.stop.store(true, Ordering::Relaxed);
            let launched: Vec<LaneClass> = lanes.join().into_iter().map(|(c, _)| c).collect();
            assert_eq!(launched, classes);
            // Both entry points run that table and fold it the same way.
            let plain = crate::host::run(&host);
            let guarded = run_guarded(&GuardConfig::new(host));
            assert_eq!(guarded.lanes, classes.len());
            for report in [&plain, &guarded.host] {
                assert_eq!(report.idle_poll.is_some(), idle_poller);
                assert!(report.task_return.checks > 0);
                assert!(report.backup_sweep.checks > 0);
                assert_eq!(report.stats.fired(), report.handler_runs);
            }
        }
    }

    /// One long idle-lane stall early in a 400 ms supervised run over
    /// `timer_periods`, handlers panicking with `panic_chance`: the
    /// supervisor must detect it within the window, restart the lane, enter
    /// and leave degraded mode, and the workload must keep firing.
    fn idle_stall_run(timer_periods: Vec<Duration>, panic_chance: f64) -> GuardReport {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let config = GuardConfig {
            host: HostConfig {
                workers: 1,
                duration: Duration::from_millis(400),
                timer_periods,
                ..HostConfig::default()
            },
            chaos: Some(ChaosConfig {
                faults: HostFaults {
                    stall_chance: 0.002, // ~1 window in 400 ms (floor: >= 1)
                    min_stall: 60_000,   // 60-80 ms: several stall windows
                    max_stall: 80_000,
                    panic_chance,
                    jump_chance: 0.0,
                    max_jump: 0,
                },
                seed: 42,
                stall_workers: false,
                stall_idle: true,
                synchronized_stalls: false,
            }),
            ..GuardConfig::default()
        };
        let report = run_guarded(&config);
        std::panic::set_hook(hook);
        assert!(report.detections >= 1, "stall never detected");
        assert!(report.restarts >= 1, "stalled idle lane never restarted");
        assert!(report.recoveries >= 1, "lane never recovered");
        report
    }

    #[test]
    fn an_idle_stall_under_saturation_loses_no_event_and_runs_none_twice() {
        let report = idle_stall_run(crate::host::tests::saturating(0).timer_periods, 0.0);
        // What the stalled generation had fired came home with it; what it
        // had polled it armed before it went silent; its replacement and the
        // other lanes fired on — some of it while degraded, the idle lane out.
        crate::host::tests::assert_conserved(&report.host, 1_000);
        assert!(report.degraded_delay_ns.count() > 0);
        let fired = |source: &crate::host::SourceReport| source.fire_delay_ns.count();
        assert!(fired(&report.host.task_return) > 0 && fired(&report.host.backup_sweep) > 0);
    }

    #[test]
    fn injected_idle_stall_is_detected_restarted_and_degrades() {
        let report = idle_stall_run(HostConfig::default().timer_periods, 0.05);
        assert!(report.stalls_injected >= 1);
        assert!(
            report.restarts <= (report.lanes as u64) * 3,
            "restarts {} blew the budget",
            report.restarts
        );
        assert!(report.degraded_windows >= 1, "idle starvation must degrade");
        assert!(report.degraded_total_ns() > 0);
        // Degradation retuned the facility's backup grid and back.
        assert!(report.host.stats.backup_retunes >= 2);
        // Injected panics were all caught and accounted.
        assert_eq!(report.panics_caught, report.panics_injected);
        assert_eq!(report.host.stats.handler_panics, report.panics_caught);
        assert!(report.panics_injected > 0, "5% of many fires must panic");
        // Detection latency: age at detection sits near the stall window
        // (window + scan jitter), far below the stall length itself.
        let p50 = report.detect_age_ns.quantile(0.5).unwrap();
        assert!(
            p50 >= report.stall_window_ns,
            "detected before the window elapsed?"
        );
        // The stalled generation's fires were not dropped with its thread.
        crate::host::tests::assert_conserved(&report.host, 4);
    }
}
