//! Randomized property tests for the facility's firing bounds (section 3
//! of the paper), the pacer's rate invariants (section 4.1) and the poll
//! controller's clamps (section 4.2).
//!
//! Cases are drawn from the in-repo deterministic [`SimRng`] (fixed seed,
//! so failures replay exactly) instead of an external property-testing
//! framework — the workspace builds with no network access.

use st_core::facility::{Config, Expired, FireOrigin, SoftTimerCore};
use st_core::pacer::{Pacer, PacerConfig};
use st_core::poller::{PollController, PollControllerConfig};
use st_sim::SimRng;

const CASES: u64 = 128;

/// With a backup interrupt every `X` ticks and arbitrary trigger-state
/// times, every event fires at an actual delta strictly inside the
/// paper's `(T, T + X + 1)` bound — and the facility's integer counters
/// equal what the `Expired` stream recomputes to.
#[test]
fn facility_firing_bounds() {
    let mut rng = SimRng::seed(0xb0_07d);
    for case in 0..CASES {
        let deltas: Vec<u64> = (0..rng.range_u64(1, 40))
            .map(|_| rng.range_u64(0, 3000))
            .collect();
        let gaps: Vec<u64> = (0..rng.range_u64(1, 400))
            .map(|_| rng.range_u64(1, 700))
            .collect();
        let x = rng.range_u64(100, 2000);

        let config = Config {
            measure_hz: 1_000_000,
            interrupt_hz: 1_000_000 / x,
        };
        let x = config.x_ticks(); // Integer division may round; use actual.
        let mut core: SoftTimerCore<(u64, u64)> = SoftTimerCore::new(config);

        // Schedule everything at t = 0 with its delta recorded.
        for (i, &t) in deltas.iter().enumerate() {
            core.schedule(0, t, (i as u64, t));
        }

        let mut fired: Vec<Expired<(u64, u64)>> = Vec::new();
        let mut now = 0u64;
        let mut next_backup = x;
        for &gap in &gaps {
            let next_trigger = now + gap;
            // Backup interrupts happen on their own grid regardless of
            // trigger states.
            while next_backup < next_trigger {
                core.interrupt_sweep(next_backup, &mut fired);
                next_backup += x;
            }
            now = next_trigger;
            core.poll(now, &mut fired);
        }
        // Drain the rest through backups only.
        while core.pending() > 0 {
            core.interrupt_sweep(next_backup, &mut fired);
            next_backup += x;
        }

        assert_eq!(
            fired.len(),
            deltas.len(),
            "every event fires exactly once (case {case})"
        );
        for ev in &fired {
            let (_, t) = ev.payload;
            let actual = ev.fired_at; // Scheduled at tick 0.
            assert!(actual > t, "fired at {actual} <= T {t} (case {case})");
            assert!(
                actual < t + x + 1 + x, // Backup grid may land up to X late past due.
                "fired at {actual} >= T + 2X + 1 ({t} + {} + 1) (case {case})",
                2 * x
            );
            // The precise paper bound holds when measured against the
            // sweep that caught it: delay past `due` is at most X.
            assert!(
                ev.delay() <= x,
                "delay {} > X {x} (case {case})",
                ev.delay()
            );
        }

        // The counters have one writer (the fire path); recompute each
        // from the stream it produced.
        let stats = core.stats();
        assert_eq!(stats.fired(), fired.len() as u64, "case {case}");
        let by_backup = fired
            .iter()
            .filter(|e| e.origin == FireOrigin::BackupInterrupt)
            .count() as u64;
        assert_eq!(stats.fired_backup, by_backup, "case {case}");
        assert_eq!(
            stats.delay_sum_ticks(),
            fired.iter().map(Expired::delay).sum::<u64>(),
            "case {case}"
        );
        assert_eq!(
            stats.delay_max_ticks,
            fired.iter().map(Expired::delay).max().unwrap_or(0),
            "case {case}"
        );
        // Every backup sweep happened, so nothing may be past X.
        assert_eq!(stats.late_fires, 0, "case {case}");
    }
}

/// The pacer only ever returns the target or the burst interval, and the
/// long-run achieved rate never exceeds the target.
#[test]
fn pacer_invariants() {
    let mut rng = SimRng::seed(0x000f_ace2);
    for case in 0..CASES {
        let target = rng.range_u64(20, 200);
        let burst_frac = rng.range_u64(1, 10);
        let delays: Vec<u64> = (0..rng.range_u64(10, 300))
            .map(|_| rng.range_u64(0, 300))
            .collect();

        let burst = (target / (burst_frac + 1)).max(1);
        let mut p = Pacer::new(PacerConfig::new(target, burst));
        p.start_train(0);
        let mut now = 0u64;
        let mut sent = 0u64;
        let mut last_tx;
        for &d in &delays {
            last_tx = now;
            let interval = p.on_transmit(now);
            assert!(
                interval == target || interval == burst,
                "unexpected interval {interval} (case {case})"
            );
            sent += 1;
            // The event fires no earlier than scheduled, possibly late.
            now += interval + d;
            let _ = last_tx;
        }
        // Achieved rate (packets per tick) never beats the target rate:
        // sent packets take at least (sent - 1) * burst ticks, and the
        // pacer only bursts while behind the target line.
        let min_elapsed = (sent - 1) * burst;
        assert!(now >= min_elapsed, "case {case}");
        // After the final transmit the train is never ahead of schedule
        // by more than one target interval.
        let elapsed = now; // Train started at 0.
        assert!(
            sent * target + target >= elapsed || p.behind(now),
            "pacer lost track of the train (case {case})"
        );
    }
}

/// The poll controller's interval stays within its configured range for
/// arbitrary found-counts.
#[test]
fn poll_controller_clamped() {
    let mut rng = SimRng::seed(0x9011);
    for case in 0..CASES {
        let found: Vec<u64> = (0..rng.range_u64(1, 200))
            .map(|_| rng.range_u64(0, 100))
            .collect();
        let quota = rng.range_u64(1, 20);
        let min = rng.range_u64(1, 50);
        let span = rng.range_u64(1, 2000);

        let config = PollControllerConfig {
            quota: quota as f64,
            min_interval: min,
            max_interval: min + span,
            ewma_alpha: 0.25,
        };
        let mut pc = PollController::new(config);
        for &f in &found {
            let next = pc.on_poll(f);
            assert!(
                next >= min && next <= min + span,
                "interval {next} out of range (case {case})"
            );
        }
    }
}

/// Scheduling and canceling arbitrary subsets never fires canceled events
/// and always fires the rest.
#[test]
fn facility_cancel_subset() {
    let mut rng = SimRng::seed(0xca_9ce1);
    for case in 0..CASES {
        let deltas: Vec<u64> = (0..rng.range_u64(1, 50))
            .map(|_| rng.range_u64(0, 1000))
            .collect();
        let cancel_mask: Vec<bool> = (0..deltas.len()).map(|_| rng.chance(0.5)).collect();

        let mut core: SoftTimerCore<usize> = SoftTimerCore::new(Config::default());
        let handles: Vec<_> = deltas
            .iter()
            .enumerate()
            .map(|(i, &t)| core.schedule(0, t, i))
            .collect();
        let mut canceled = vec![false; deltas.len()];
        for ((c, h), mask) in canceled.iter_mut().zip(&handles).zip(&cancel_mask) {
            if *mask {
                *c = core.cancel(*h).is_some();
            }
        }
        let mut fired = Vec::new();
        core.poll(10_000, &mut fired);
        let fired_ids: std::collections::BTreeSet<usize> =
            fired.iter().map(|e| e.payload).collect();
        for (i, &was_canceled) in canceled.iter().enumerate() {
            assert_eq!(
                fired_ids.contains(&i),
                !was_canceled,
                "event {i} (case {case})"
            );
        }
    }
}
