//! The `rt_chaos` experiment: chaos-inject the supervised host runtime
//! and measure detection, self-healing, and graceful degradation.
//!
//! Six fault classes run back to back, each a supervised host run
//! ([`st_rt::host::run`] with a [`Guard`]) with one fault family injected
//! from the deterministic [`st_rt::ChaosSchedule`] (fork label 10 of the
//! st-fault plan's seed):
//!
//! | class | injects | must demonstrate |
//! |---|---|---|
//! | `control` | nothing | a quiet supervisor on a healthy run |
//! | `worker_stall` | worker-lane busy wedges | detection + restart within budget |
//! | `idle_stall` | idle-poller wedges | detection + restart + degraded mode |
//! | `trigger_starve` | synchronized worker+idle wedges, restart budget 0 | degrade-only: the fire-delay bound collapses to the predicted envelope |
//! | `callback_panic` | handler panics (~20 % of fires) | isolation: every panic caught, runtime keeps firing |
//! | `clock_jump` | forward clock steps (≤ 10 ms) | no spurious stall detections, jumps absorbed |
//!
//! The determinism split mirrors `rt_calibration`: host numbers are real
//! measurements, bounds-checked only; the **sim twin** drives the *same*
//! [`SupervisorCore`] policy code in virtual time over the *same*
//! per-lane stall plan ([`st_rt::plan_lane_stalls`] is pure), logging
//! every action into a digest that is replayed twice and must be
//! byte-identical (`all_twin_replays_identical` = 1).
//!
//! Wall-clock budget: ~0.4 s per class quick, capped by `RT_CHAOS_SECS`
//! (total seconds across all classes; the per-class floor of 250 ms keeps
//! stall windows longer than the detection window).

use std::time::Duration;

use st_fault::HostFaults;
use st_rt::{
    clock::nanos, host, lane_classes, plan_lane_stalls, Action, ChaosConfig, Guard, GuardReport,
    HostConfig, HostReport, LaneClass, SupervisorCore,
};

use crate::Scale;

/// One fault class's injection recipe.
struct ClassSpec {
    name: &'static str,
    faults: Option<HostFaults>,
    stall_workers: bool,
    stall_idle: bool,
    synchronized: bool,
    restart_budget: u32,
}

/// The six classes, in run order.
fn class_specs() -> Vec<ClassSpec> {
    let quiet = HostFaults {
        stall_chance: 0.0,
        min_stall: 0,
        max_stall: 0,
        panic_chance: 0.0,
        jump_chance: 0.0,
        max_jump: 0,
    };
    vec![
        ClassSpec {
            name: "control",
            faults: None,
            stall_workers: false,
            stall_idle: false,
            synchronized: false,
            restart_budget: 3,
        },
        ClassSpec {
            name: "worker_stall",
            faults: Some(HostFaults {
                stall_chance: 0.005,
                min_stall: 40_000, // 40-60 ms wedges vs a 25 ms window
                max_stall: 60_000,
                ..quiet
            }),
            stall_workers: true,
            stall_idle: false,
            synchronized: false,
            restart_budget: 3,
        },
        ClassSpec {
            name: "idle_stall",
            faults: Some(HostFaults {
                stall_chance: 0.005,
                min_stall: 40_000,
                max_stall: 60_000,
                ..quiet
            }),
            stall_workers: false,
            stall_idle: true,
            synchronized: false,
            restart_budget: 3,
        },
        ClassSpec {
            // Full trigger-stream starvation with no restarts allowed:
            // the only defense is degradation, so the degraded envelope
            // is meaningfully exercised instead of cured by a respawn.
            name: "trigger_starve",
            faults: Some(HostFaults {
                stall_chance: 0.003,
                min_stall: 60_000,
                max_stall: 80_000,
                ..quiet
            }),
            stall_workers: true,
            stall_idle: true,
            synchronized: true,
            restart_budget: 0,
        },
        ClassSpec {
            name: "callback_panic",
            faults: Some(HostFaults {
                panic_chance: 0.2,
                ..quiet
            }),
            stall_workers: false,
            stall_idle: false,
            synchronized: false,
            restart_budget: 3,
        },
        ClassSpec {
            // Jumps stay below the stall window so a correct supervisor
            // sees aged-but-legal heartbeats, not phantom stalls.
            name: "clock_jump",
            faults: Some(HostFaults {
                jump_chance: 0.01,
                max_jump: 10_000, // <= 10 ms < 25 ms stall window
                ..quiet
            }),
            stall_workers: false,
            stall_idle: false,
            synchronized: false,
            restart_budget: 3,
        },
    ]
}

/// What one class's host run and sim twin produced.
pub struct ClassOutcome {
    /// Class name (stable metric-key prefix).
    pub name: &'static str,
    /// What supervising the run did (taken out of `host`).
    pub guard: GuardReport,
    /// The supervised host run's own measurements.
    pub host: HostReport,
    /// Whether two sim-twin replays were byte-identical.
    pub twin_identical: bool,
    /// Twin's action count (a cheap visibility check that the twin
    /// actually modeled the injected faults, not an empty loop).
    pub twin_actions: u64,
    /// Whether every detection happened within the configured window
    /// plus scan-cadence slack.
    pub detected_in_window: bool,
    /// Whether the degraded fire-delay p99 stayed within the predicted
    /// envelope (vacuously true when nothing fired degraded).
    pub envelope_ok: bool,
}

/// The full report.
pub struct RtChaos {
    /// Per-class outcomes, in run order.
    pub classes: Vec<ClassOutcome>,
    /// All sim twins byte-identical across two replays.
    pub all_twin_replays_identical: bool,
    /// At least one injected stall was detected (across stall classes).
    pub any_stall_detected: bool,
    /// At least one stalled lane recovered (restart or natural).
    pub any_stall_recovered: bool,
    /// Every class's degraded delays stayed within its envelope.
    pub all_envelopes_ok: bool,
}

/// The sim twin: drives the identical [`SupervisorCore`] policy code in
/// virtual time over the planned stall windows, modeling each lane's
/// heartbeat as "beats now, unless inside an uncancelled stall window
/// (last beat = window start)". Restarting a lane cancels its windows up
/// to the restart instant, exactly like the host executor filters the
/// replacement thread's stalls to future-only. Returns a digest of every
/// action with its virtual timestamp — pure in its inputs, so two calls
/// must agree byte-for-byte. `guard` gives the policy and the scan period.
pub fn twin_digest(
    classes: &[LaneClass],
    guard: &Guard,
    duration_ns: u64,
    stalls: &[Vec<(u64, u64)>],
) -> String {
    let n = classes.len();
    let scan_ns = nanos(guard.scan_period);
    let mut core = SupervisorCore::new(guard, classes.to_vec());
    let mut cancelled_before = vec![0u64; n];
    let mut beats = vec![0u64; n];
    let mut acts: Vec<Action> = Vec::new();
    let mut log = String::new();
    let mut degraded_since: Option<u64> = None;
    let mut degraded_ns = 0u64;
    let mut actions = 0u64;
    let mut t = scan_ns.max(1);
    while t <= duration_ns {
        for i in 0..n {
            let mut beat = t;
            for &(at, dur) in &stalls[i] {
                if at > t {
                    break;
                }
                if at <= cancelled_before[i] {
                    continue;
                }
                if t < at.saturating_add(dur) {
                    beat = at;
                    break;
                }
            }
            beats[i] = beat;
        }
        acts.clear();
        core.scan(t, &beats, &mut acts);
        for a in &acts {
            actions += 1;
            match *a {
                Action::Restart { lane, .. } => cancelled_before[lane] = t,
                Action::Degrade => degraded_since = Some(t),
                Action::Restore => {
                    if let Some(s) = degraded_since.take() {
                        degraded_ns += t - s;
                    }
                }
                _ => {}
            }
            log.push_str(&format!("{t}:{a:?};"));
        }
        t += scan_ns.max(1);
    }
    if let Some(s) = degraded_since {
        degraded_ns += duration_ns.saturating_sub(s);
    }
    format!("lanes={n} actions={actions} degraded_ns={degraded_ns} log={log}")
}

/// Total wall-clock budget across all classes, honouring `RT_CHAOS_SECS`.
fn total_budget(scale: Scale) -> Duration {
    let default = match scale {
        Scale::Quick => Duration::from_millis(2_400),
        Scale::Full => Duration::from_millis(4_800),
    };
    match std::env::var("RT_CHAOS_SECS")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
    {
        Some(secs) if secs > 0.0 => default.min(Duration::from_secs_f64(secs)),
        _ => default,
    }
}

/// Runs all six classes.
///
/// # Panics
///
/// Panics when a sim twin diverges across two replays with the same
/// seed — that is a determinism bug, not a measurement.
pub fn run(scale: Scale, seed: u64) -> RtChaos {
    let specs = class_specs();
    // Per-class floor keeps stall windows (capped at duration/3) longer
    // than the 25 ms detection window.
    let per_class = (total_budget(scale) / specs.len() as u32).max(Duration::from_millis(250));

    let mut classes = Vec::with_capacity(specs.len());
    for spec in &specs {
        let chaos = spec.faults.map(|faults| ChaosConfig {
            faults,
            seed,
            stall_workers: spec.stall_workers,
            stall_idle: spec.stall_idle,
            synchronized_stalls: spec.synchronized,
        });
        let sup = Guard {
            restart_budget: spec.restart_budget,
            // Sleep-overshoot allowance on an oversubscribed container;
            // still several times tighter than the injected stalls.
            envelope_slack: Duration::from_millis(8),
            chaos,
            ..Guard::default()
        };
        let config = HostConfig {
            workers: 1,
            duration: per_class,
            guard: Some(sup),
            ..HostConfig::default()
        };
        let mut report = host::run(&config);
        report.emit_telemetry();
        let guard = report.guard.take().expect("a supervised run reports");

        // The sim twin supervises the same lane layout over the same
        // planned stall windows, in virtual time, twice.
        let duration_ns = nanos(config.duration);
        let lane_set = lane_classes(&config);
        let stalls = match &chaos {
            Some(ch) => plan_lane_stalls(&lane_set, ch, duration_ns).0,
            None => vec![Vec::new(); lane_set.len()],
        };
        let a = twin_digest(&lane_set, &sup, duration_ns, &stalls);
        let b = twin_digest(&lane_set, &sup, duration_ns, &stalls);
        let twin_identical = a == b;
        assert!(
            twin_identical,
            "{}: sim twin diverged under fixed seed {seed}",
            spec.name
        );
        let twin_actions = a
            .split("actions=")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0);

        // Detection latency: heartbeat age at detection must sit near
        // the stall window — window plus a generous scan-cadence slack
        // for a preempted supervising thread, far below the stall length.
        let detect_slack = nanos(sup.stall_window) + 8 * nanos(sup.scan_period);
        let detected_in_window = match guard.detect_age_ns.max() {
            Some(worst) => worst <= detect_slack,
            None => true,
        };
        let envelope_ok = guard.degraded_delay_ns.count() == 0
            || guard
                .degraded_delay_ns
                .quantile(0.99)
                .is_some_and(|p99| p99 <= guard.envelope_ns);

        classes.push(ClassOutcome {
            name: spec.name,
            guard,
            host: report,
            twin_identical,
            twin_actions,
            detected_in_window,
            envelope_ok,
        });
    }

    let stall_classes = |c: &&ClassOutcome| c.guard.stalls_injected > 0;
    RtChaos {
        all_twin_replays_identical: classes.iter().all(|c| c.twin_identical),
        any_stall_detected: classes
            .iter()
            .filter(stall_classes)
            .any(|c| c.guard.detections > 0),
        any_stall_recovered: classes
            .iter()
            .filter(stall_classes)
            .any(|c| c.guard.recoveries > 0),
        all_envelopes_ok: classes.iter().all(|c| c.envelope_ok),
        classes,
    }
}

impl RtChaos {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== rt_chaos: supervised host runtime under fault injection ==\n");
        out.push_str(
            "class          | stalls | det | p50 det(ms) | rst | rec | gvup | degr | degr(ms) | d.p99(us) | env(us) | panics | jumps | twin\n",
        );
        for c in &self.classes {
            let g = &c.guard;
            out.push_str(&format!(
                "{:<14} | {:>6} | {:>3} | {:>11.1} | {:>3} | {:>3} | {:>4} | {:>4} | {:>8.1} | {:>9.0} | {:>7.0} | {:>6} | {:>5} | {}\n",
                c.name,
                g.stalls_injected,
                g.detections,
                g.detect_age_ns.quantile(0.5).unwrap_or(0) as f64 / 1e6,
                g.restarts,
                g.recoveries,
                g.giveups,
                g.degraded_windows,
                g.degraded_total_ns() as f64 / 1e6,
                g.degraded_delay_ns.quantile(0.99).unwrap_or(0) as f64 / 1e3,
                g.envelope_ns as f64 / 1e3,
                c.host.stats.handler_panics,
                g.clock_jumps_applied,
                if c.twin_identical { "ok" } else { "DIVERGED" },
            ));
        }
        out.push_str(&format!(
            "twins byte-identical: {} | stall detected: {} | recovered: {} | envelopes held: {}\n",
            yn(self.all_twin_replays_identical),
            yn(self.any_stall_detected),
            yn(self.any_stall_recovered),
            yn(self.all_envelopes_ok),
        ));
        out
    }

    /// Flat `(name, value)` metric pairs for `repro --json`.
    pub fn key_metrics(&self) -> Vec<(String, f64)> {
        let mut m: Vec<(String, f64)> = vec![("classes".into(), self.classes.len() as f64)];
        for c in &self.classes {
            let (g, h, n) = (&c.guard, &c.host, c.name);
            m.extend([
                (format!("{n}_stalls_injected"), g.stalls_injected as f64),
                (format!("{n}_stalls_detected"), g.detections as f64),
                (
                    format!("{n}_detect_latency_p50_ns"),
                    g.detect_age_ns.quantile(0.5).unwrap_or(0) as f64,
                ),
                (format!("{n}_restarts"), g.restarts as f64),
                (format!("{n}_recovered"), g.recoveries as f64),
                (format!("{n}_giveups"), g.giveups as f64),
                (format!("{n}_degraded_windows"), g.degraded_windows as f64),
                (
                    format!("{n}_degraded_total_ns"),
                    g.degraded_total_ns() as f64,
                ),
                (
                    format!("{n}_degraded_delay_p99_ns"),
                    g.degraded_delay_ns.quantile(0.99).unwrap_or(0) as f64,
                ),
                (format!("{n}_envelope_ns"), g.envelope_ns as f64),
                (
                    format!("{n}_envelope_ok"),
                    f64::from(u8::from(c.envelope_ok)),
                ),
                (
                    format!("{n}_detected_in_window"),
                    f64::from(u8::from(c.detected_in_window)),
                ),
                (format!("{n}_panics_caught"), h.stats.handler_panics as f64),
                (format!("{n}_clock_jumps"), g.clock_jumps_applied as f64),
                (format!("{n}_lock_recoveries"), g.lock_recoveries as f64),
                (format!("{n}_twin_actions"), c.twin_actions as f64),
                (
                    format!("{n}_twin_identical"),
                    f64::from(u8::from(c.twin_identical)),
                ),
            ]);
        }
        m.extend([
            (
                "all_twin_replays_identical".to_string(),
                f64::from(u8::from(self.all_twin_replays_identical)),
            ),
            (
                "any_stall_detected".to_string(),
                f64::from(u8::from(self.any_stall_detected)),
            ),
            (
                "any_stall_recovered".to_string(),
                f64::from(u8::from(self.any_stall_recovered)),
            ),
            (
                "all_envelopes_ok".to_string(),
                f64::from(u8::from(self.all_envelopes_ok)),
            ),
        ]);
        m
    }
}

fn yn(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "NO"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn twin_is_deterministic_and_models_the_stall() {
        let classes = vec![LaneClass::Worker, LaneClass::IdlePoll, LaneClass::Backup];
        // The default policy: 25 ms stall window, 3 restarts at 10 ms backoff.
        let sup = Guard::default();
        // Idle lane (index 1) wedges for 60 ms starting at 100 ms.
        let stalls = vec![Vec::new(), vec![(100 * MS, 60 * MS)], Vec::new()];
        let a = twin_digest(&classes, &sup, 400 * MS, &stalls);
        let b = twin_digest(&classes, &sup, 400 * MS, &stalls);
        assert_eq!(a, b, "twin replay diverged");
        // The stall must surface as a detection, a restart (which cures
        // it in the model), a recovery, and a degrade/restore pair.
        assert!(a.contains("Detected { lane: 1"), "{a}");
        assert!(a.contains("Restart { lane: 1"), "{a}");
        assert!(a.contains("Recovered { lane: 1"), "{a}");
        assert!(a.contains("Degrade"), "{a}");
        assert!(a.contains("Restore"), "{a}");
        // A healthy twin logs nothing.
        let quiet = twin_digest(
            &classes,
            &sup,
            400 * MS,
            &[Vec::new(), Vec::new(), Vec::new()],
        );
        assert!(quiet.contains("actions=0"), "{quiet}");
        assert_ne!(a, quiet);
    }

    #[test]
    fn twin_budget_zero_gives_up_and_recovers_naturally() {
        let classes = vec![LaneClass::Worker, LaneClass::IdlePoll];
        let sup = Guard {
            restart_budget: 0,
            ..Guard::default()
        };
        let stalls = vec![vec![(100 * MS, 60 * MS)], vec![(100 * MS, 60 * MS)]];
        let d = twin_digest(&classes, &sup, 400 * MS, &stalls);
        assert!(d.contains("GiveUp"), "{d}");
        assert!(!d.contains("Restart"), "budget 0 must never restart: {d}");
        // The wedge ends on its own at 160 ms: lanes recover, mode
        // restores, and the degraded span matches the starvation span.
        assert!(d.contains("Recovered"), "{d}");
        assert!(d.contains("Restore"), "{d}");
    }

    #[test]
    fn full_chaos_matrix_detects_restarts_and_holds_envelopes() {
        // The real-machine half: run all six classes quick and assert
        // the robustness story end to end (load-tolerant bounds only).
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = run(Scale::Quick, 42);
        std::panic::set_hook(hook);

        assert_eq!(r.classes.len(), 6);
        assert!(r.all_twin_replays_identical);
        assert!(r.any_stall_detected, "no injected stall was detected");
        assert!(r.any_stall_recovered, "no stalled lane recovered");
        let by_name = |n: &str| r.classes.iter().find(|c| c.name == n).unwrap();
        assert_eq!(by_name("control").guard.stalls_injected, 0);
        assert!(by_name("worker_stall").guard.stalls_injected >= 1);
        assert!(by_name("idle_stall").guard.stalls_injected >= 1);
        let starve = by_name("trigger_starve");
        assert_eq!(
            starve.guard.restarts, 0,
            "restart budget 0 must hold on the host too"
        );
        assert!(
            starve.guard.degraded_windows >= 1,
            "starvation must degrade"
        );
        let panic_class = by_name("callback_panic");
        assert!(panic_class.host.stats.handler_panics > 0);
        assert_eq!(
            panic_class.host.stats.handler_panics,
            panic_class.guard.panics_injected
        );
        assert!(by_name("clock_jump").guard.clock_jumps_applied >= 1);
        // Every class keeps the workload alive.
        for c in &r.classes {
            assert!(c.host.handler_runs > 0, "{} starved out", c.name);
        }
    }
}
