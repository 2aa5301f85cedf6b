//! Microbenchmark probes: fit the machine's timing constants.
//!
//! The simulator charges every trigger check and event dispatch a cost
//! from `st_kernel::CostModel` — constants transcribed from the paper's
//! 1999 hardware. These probes measure the same quantities on the machine
//! the reproduction actually runs on, so `repro rt_calibration` can build
//! a calibrated model and quantify the sim-vs-reality gap:
//!
//! - cost of reading the clock,
//! - cost of an empty trigger-state check (`poll` finding nothing due),
//! - marginal cost of dispatching a due event,
//! - cost per fire of a due batch through the host runtime's own fire path
//!   (poll, handlers, lane accounting, re-arm pass),
//! - delay of a fire the idle lane wakes for (deadline to `fired_at`),
//! - wake-up precision of `thread::sleep` vs spinning (the Metronome-style
//!   question: how much slack does the OS add to a requested µs delay?).
//!
//! Cost probes report the **minimum over batches** — the canonical
//! noise-rejection estimator for "how fast can this go", since scheduler
//! preemption and cache misses only ever add time. A minimum is only
//! trusted when a *second*, independent batch lands within
//! [`CORROBORATION_FACTOR`] of it; an uncorroborated minimum (one freak
//! batch, e.g. the timer interrupt coalescing reads) triggers a bounded
//! retry of the whole batch set, and every retry is surfaced in
//! [`Calibration::probe_retries`] so a noisy calibration is visible in
//! the report instead of silently wrong.

use std::time::Duration;

use st_core::{Config, Expired, SoftTimerCore};
use st_stats::HdrHistogram;
use st_trace::json::ObjectBuilder;

use crate::chaos::FaultClock;
use crate::clock::{nanos, NanoClock};
use crate::host::{
    hist_json, trigger_check, FireAccum, HostConfig, Payload, PeriodicEvent, Shared,
    SUB_BUCKET_BITS,
};

/// Fitted host timing constants plus wake-up precision distributions.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Cost of one clock read (ns).
    pub clock_read_ns: f64,
    /// Cost of one empty trigger-state check: clock read + `poll` with
    /// nothing due (ns). The paper's `soft_check`.
    pub trigger_check_ns: f64,
    /// Marginal cost of dispatching one due event through `poll` (ns),
    /// check cost subtracted. The paper's `soft_dispatch`.
    pub fire_dispatch_ns: f64,
    /// Delay of a fire the idle lane wakes for, uncontended (ns): see
    /// [`wake_fire_delay`].
    pub wake_fire_ns: f64,
    /// Achievable idle-loop trigger density (checks per second) implied by
    /// the check cost: `1e9 / trigger_check_ns`.
    pub max_idle_density_hz: f64,
    /// Overshoot of `thread::sleep(1 ms)` past the requested delay (ns):
    /// what a timer facility built on OS sleeps would pay per wake-up.
    pub sleep_slack_ns: HdrHistogram,
    /// Overshoot of a spin-wait past its deadline (ns): the precision
    /// floor trigger states can reach.
    pub spin_slack_ns: HdrHistogram,
    /// Batch-set retries the cost probes needed before their minima were
    /// corroborated by a second batch (0 on a quiet machine). A high
    /// count means the constants above were fitted under load — treat
    /// the calibration with suspicion.
    pub probe_retries: u64,
}

/// A second batch must land within this factor of the best batch for the
/// minimum to count as corroborated.
pub const CORROBORATION_FACTOR: f64 = 1.5;

/// Whole-batch-set retries allowed per probe before the (possibly
/// uncorroborated) minimum is reported anyway.
pub const MAX_RETRY_ROUNDS: u32 = 4;

/// Minimum per-iteration time over `batches` batches of `iters` calls of
/// `body` (ns), with an outlier guard: the minimum must be corroborated
/// by a second batch within [`CORROBORATION_FACTOR`], else the whole
/// batch set is retried (up to [`MAX_RETRY_ROUNDS`] extra rounds, each
/// counted into `retries`). Batching amortizes the two boundary clock
/// reads.
fn min_per_iter_guarded(
    clock: &NanoClock,
    batches: usize,
    iters: u64,
    retries: &mut u64,
    mut body: impl FnMut(),
) -> f64 {
    let mut best = f64::INFINITY;
    let mut second = f64::INFINITY;
    for round in 0..=MAX_RETRY_ROUNDS {
        for _ in 0..batches {
            let t0 = clock.now_ns();
            for _ in 0..iters {
                body();
            }
            let elapsed = clock.now_ns() - t0;
            let mean = elapsed as f64 / iters as f64;
            if mean < best {
                second = best;
                best = mean;
            } else if mean < second {
                second = mean;
            }
        }
        if second <= best * CORROBORATION_FACTOR {
            break;
        }
        if round < MAX_RETRY_ROUNDS {
            *retries += 1;
        }
    }
    best
}

/// Cost of one clock read (ns). Batch retries forced by the outlier
/// guard accumulate into `retries`.
pub fn clock_read_cost_tracked(clock: &NanoClock, retries: &mut u64) -> f64 {
    min_per_iter_guarded(clock, 32, 10_000, retries, || {
        std::hint::black_box(clock.now_ns());
    })
}

/// Cost of one clock read (ns).
pub fn clock_read_cost(clock: &NanoClock) -> f64 {
    clock_read_cost_tracked(clock, &mut 0)
}

/// Cost of one `poll` that finds nothing due (ns), the clock read not
/// included: a core holding one far-future event (the common case — events
/// are pending but none is due), so `poll` takes its real earliest-deadline
/// path instead of the empty-wheel shortcut.
fn empty_poll_cost(clock: &NanoClock, retries: &mut u64) -> f64 {
    let mut core: SoftTimerCore<u32> = SoftTimerCore::new(Config::default());
    core.schedule(0, u32::MAX as u64, 0);
    let mut buf: Vec<Expired<u32>> = Vec::new();
    let mut now = 1u64;
    min_per_iter_guarded(clock, 32, 10_000, retries, || {
        now += 1;
        core.poll(std::hint::black_box(now), &mut buf);
        std::hint::black_box(&buf);
    })
}

/// Cost of one empty trigger-state check (ns): a clock read plus an empty
/// `poll`. Batch retries accumulate into `retries`.
pub fn trigger_check_cost_tracked(clock: &NanoClock, retries: &mut u64) -> f64 {
    empty_poll_cost(clock, retries) + clock_read_cost_tracked(clock, retries)
}

/// Cost of one empty trigger-state check (ns).
pub fn trigger_check_cost(clock: &NanoClock) -> f64 {
    trigger_check_cost_tracked(clock, &mut 0)
}

/// Marginal cost of dispatching one due event (ns): schedule-and-fire in
/// a tight loop, minus the empty-check cost measured the same way. Batch
/// retries accumulate into `retries`.
pub fn fire_dispatch_cost_tracked(clock: &NanoClock, retries: &mut u64) -> f64 {
    // Empty-check baseline *without* the clock-read add-on: the
    // subtraction below must compare like with like.
    let check = empty_poll_cost(clock, retries);
    let mut core: SoftTimerCore<u32> = SoftTimerCore::new(Config::default());
    let mut buf: Vec<Expired<u32>> = Vec::new();
    let mut now = 1u64;
    let with_fire = min_per_iter_guarded(clock, 32, 5_000, retries, || {
        // Deadline is now+1; advancing two ticks makes it due, so every
        // iteration is one schedule + one firing poll.
        core.schedule(now, 0, 7);
        now += 2;
        core.poll(std::hint::black_box(now), &mut buf);
        std::hint::black_box(&buf);
    });
    // The loop also pays one `schedule`; attribute half the remainder to
    // dispatch (schedule and dispatch both touch one wheel slot and are
    // within ~2x of each other on every machine we have seen).
    ((with_fire - check) / 2.0).max(1.0)
}

/// Marginal cost of dispatching one due event (ns).
pub fn fire_dispatch_cost(clock: &NanoClock) -> f64 {
    fire_dispatch_cost_tracked(clock, &mut 0)
}

/// Cost per fire of a due batch through the host runtime's real
/// `trigger_check` (ns), one thread, nothing contending: 1 000 timers of
/// one 1 µs period armed together, so every check finds all of them due
/// again (a batch takes tens of µs) and pays exactly what a saturated
/// lane pays per batch — fast-path compare, poll under the core lock,
/// 1 000 handlers against the lane accumulator, one clock read, one
/// re-arm pass with the skip-ahead taken.
pub fn batch_dispatch_cost(clock: &NanoClock) -> f64 {
    const TIMERS: usize = 1_000;
    let config = HostConfig {
        timer_periods: vec![Duration::from_micros(1); TIMERS],
        ..HostConfig::default()
    };
    let shared = Shared::build(&config, FaultClock::healthy(), None);
    let mut acc = FireAccum::new();
    let mut buf = Vec::new();
    let per_batch = min_per_iter_guarded(clock, 32, 4, &mut 0, || {
        let seen = shared.core.wait_due(0, || shared.clock.now_ns(), |_| false);
        let fired = trigger_check(&shared, Some(seen), &mut buf, &mut acc);
        debug_assert_eq!(fired, TIMERS);
    });
    per_batch / TIMERS as f64
}

/// Cost per fire of the idle lane's busy cycle (ns), one thread, nothing
/// contending: two groups of 3 timers on a clock that costs a real reading
/// but tells scripted time, half a period on at each, so every hold re-arms
/// one group and finds exactly the other due. A round is what a busy idle
/// lane pays for a small batch — one hold at one clock reading, 3 handlers
/// against the lane accumulator — so this is the per-round fixed cost
/// spread over 3 fires, where [`batch_dispatch_cost`] spreads `fire_due`'s
/// two holds over 1 000. Minimum over 128 windows of 1 000 rounds.
pub fn busy_round_cost(clock: &NanoClock) -> f64 {
    const GROUP: u64 = 3;
    const ROUNDS: u64 = 1_000;
    let config = HostConfig {
        timer_periods: Vec::new(),
        ..HostConfig::default()
    };
    let shared = Shared::build(&config, FaultClock::healthy(), None);
    let core = &shared.core;
    for first in [1, 3] {
        for _ in 0..GROUP {
            let event = PeriodicEvent { period_ns: 4 };
            core.lock().schedule(0, first - 1, event);
        }
    }
    let tick = std::cell::Cell::new(0u64);
    let now_ns = || {
        std::hint::black_box(clock.now_ns());
        tick.replace(tick.get() + 2) + 2
    };
    let (mut rounds, mut best, mut opened) = (0, u64::MAX, clock.now_ns());
    let mut acc = FireAccum::new();
    let handler = |ev: &mut _| PeriodicEvent::run(ev, &shared, &mut acc);
    core.fire_rounds(1, now_ns, &mut Vec::new(), handler, |_| {
        rounds += 1;
        if rounds % ROUNDS == 0 {
            let closed = clock.now_ns();
            best = best.min(closed - opened);
            opened = closed;
        }
        rounds < 128 * ROUNDS
    });
    debug_assert_eq!(rounds, 128 * ROUNDS, "a poll came back empty");
    best as f64 / (ROUNDS * GROUP) as f64
}

/// Median delay of a fire taken the idle lane's way (ns): wait on the
/// deadline word of one 20 µs timer, check at the reading that ended the
/// wait. One thread, nothing contending, so what is left is what stands
/// between a deadline passing and its `fired_at` — the spin's overshoot,
/// the flag swap, the core lock and the clock read under it.
pub fn wake_fire_delay(samples: usize) -> f64 {
    let config = HostConfig {
        timer_periods: vec![Duration::from_micros(20)],
        ..HostConfig::default()
    };
    let shared = Shared::build(&config, FaultClock::healthy(), None);
    let mut acc = FireAccum::new();
    let mut buf = Vec::new();
    let (core, clock) = (&shared.core, || shared.clock.now_ns());
    let mut now = clock();
    for _ in 0..samples {
        let seen = core.wait_due(now, clock, |_| false);
        let handler = |ev: &mut _| PeriodicEvent::run(ev, &shared, &mut acc);
        let closed = core.fire_rounds(seen, clock, &mut buf, handler, |_| true);
        now = closed.unwrap_or(seen);
    }
    acc.trigger_delay.quantile(0.5).unwrap_or(0) as f64
}

/// Overshoot distribution of `thread::sleep(requested)` (ns).
pub fn sleep_slack(clock: &NanoClock, requested: Duration, samples: usize) -> HdrHistogram {
    let req_ns = nanos(requested);
    let mut h = HdrHistogram::new(SUB_BUCKET_BITS);
    for _ in 0..samples {
        let t0 = clock.now_ns();
        std::thread::sleep(requested);
        let actual = clock.now_ns() - t0;
        h.record(actual.saturating_sub(req_ns));
    }
    h
}

/// Overshoot distribution of a spin-wait past its deadline (ns).
pub fn spin_slack(clock: &NanoClock, requested: Duration, samples: usize) -> HdrHistogram {
    let req_ns = nanos(requested);
    let mut h = HdrHistogram::new(SUB_BUCKET_BITS);
    for _ in 0..samples {
        let t0 = clock.now_ns();
        let reached = clock.spin_until(t0 + req_ns);
        h.record(reached - (t0 + req_ns));
    }
    h
}

/// Runs every probe within roughly `budget` wall-clock time. The cost
/// probes are fast (tens of ms); the budget mostly controls how many
/// sleep-slack samples are taken (each pays a ~1 ms sleep).
pub fn calibrate(budget: Duration) -> Calibration {
    let clock = NanoClock::new();
    let mut probe_retries = 0u64;
    let clock_read_ns = clock_read_cost_tracked(&clock, &mut probe_retries);
    let trigger_check_ns = trigger_check_cost_tracked(&clock, &mut probe_retries);
    let fire_dispatch_ns = fire_dispatch_cost_tracked(&clock, &mut probe_retries);
    let sleep_req = Duration::from_millis(1);
    // Leave half the budget for sleeps; each sample costs ~1 ms + slack.
    let sleep_samples = (budget.as_millis() / 2).clamp(8, 200) as usize;
    let sleep_slack_ns = sleep_slack(&clock, sleep_req, sleep_samples);
    let spin_slack_ns = spin_slack(&clock, Duration::from_micros(50), 200);
    Calibration {
        clock_read_ns,
        trigger_check_ns,
        fire_dispatch_ns,
        wake_fire_ns: wake_fire_delay(500),
        max_idle_density_hz: 1e9 / trigger_check_ns.max(1.0),
        sleep_slack_ns,
        spin_slack_ns,
        probe_retries,
    }
}

impl Calibration {
    /// Single-line JSON document (schema `st-rt-calibration-v1`).
    pub fn to_json(&self) -> String {
        ObjectBuilder::new()
            .str("schema", "st-rt-calibration-v1")
            .f64("clock_read_ns", self.clock_read_ns)
            .f64("trigger_check_ns", self.trigger_check_ns)
            .f64("fire_dispatch_ns", self.fire_dispatch_ns)
            .f64("wake_fire_ns", self.wake_fire_ns)
            .f64("max_idle_density_hz", self.max_idle_density_hz)
            .raw("sleep_slack_ns", &hist_json(&self.sleep_slack_ns))
            .raw("spin_slack_ns", &hist_json(&self.spin_slack_ns))
            .u64("probe_retries", self.probe_retries)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_costs_are_positive_and_sanely_ordered() {
        let clock = NanoClock::new();
        let read = clock_read_cost(&clock);
        let check = trigger_check_cost(&clock);
        // Load-tolerant: bounds are orders of magnitude, not values.
        assert!(read > 0.0 && read < 100_000.0, "clock read {read} ns");
        assert!(check > read, "check ({check}) must include a read ({read})");
        assert!(check < 1_000_000.0, "check {check} ns");
        let dispatch = fire_dispatch_cost(&clock);
        assert!((1.0..10_000_000.0).contains(&dispatch), "{dispatch}");
        let batch = batch_dispatch_cost(&clock);
        assert!((1.0..1_000_000.0).contains(&batch), "{batch}");
        // One hold and one reading a round, spread over 3 fires.
        let round = busy_round_cost(&clock);
        assert!(
            (batch / 2.0..1_000_000.0).contains(&round),
            "{round} vs {batch}"
        );
        // At least the clock read under the lock; far under the 20 µs period.
        let wake = wake_fire_delay(200);
        assert!((1.0..10_000.0).contains(&wake), "wake-to-fire {wake} ns");
    }

    #[test]
    fn sleep_sleeps_longer_than_spin_spins() {
        let clock = NanoClock::new();
        let sleep = sleep_slack(&clock, Duration::from_millis(1), 10);
        let spin = spin_slack(&clock, Duration::from_micros(50), 50);
        assert_eq!(sleep.count(), 10);
        assert_eq!(spin.count(), 50);
        // The central claim behind trigger states: an OS sleep's median
        // slack dwarfs a spin's median slack.
        let sleep_p50 = sleep.quantile(0.5).unwrap();
        let spin_p50 = spin.quantile(0.5).unwrap();
        assert!(
            sleep_p50 > spin_p50,
            "sleep slack {sleep_p50} ns <= spin slack {spin_p50} ns"
        );
    }

    #[test]
    fn calibrate_emits_valid_json_within_budget() {
        let cal = calibrate(Duration::from_millis(100));
        let json = cal.to_json();
        st_trace::json::validate(&json).expect("invalid calibration JSON");
        assert!(json.contains("\"schema\":\"st-rt-calibration-v1\""));
        assert!(json.contains("\"probe_retries\""));
        assert!(cal.max_idle_density_hz > 1_000.0);
        assert!(cal.sleep_slack_ns.count() >= 8);
        // Five guarded batch sets run under calibrate (clock read, check
        // + its read baseline, dispatch + its check baseline), each
        // bounded at MAX_RETRY_ROUNDS.
        assert!(cal.probe_retries <= 5 * MAX_RETRY_ROUNDS as u64);
    }

    #[test]
    fn uncorroborated_minimum_triggers_bounded_retry() {
        // First round: batch 0 is fast, batch 1 spins 200 µs per call —
        // the minimum has no corroborating batch within the factor, so
        // the guard must retry. Later rounds are all fast, so the
        // retried minimum corroborates and the loop stops early.
        let clock = NanoClock::new();
        let mut calls = 0u64;
        let mut retries = 0u64;
        let iters = 200u64;
        let v = min_per_iter_guarded(&clock, 2, iters, &mut retries, || {
            calls += 1;
            if calls > iters && calls <= 2 * iters {
                let t = clock.now_ns();
                clock.spin_until(t + 1_000);
            }
        });
        assert!(retries >= 1, "outlier minimum must force a retry");
        assert!(
            retries <= MAX_RETRY_ROUNDS as u64,
            "retries {retries} unbounded"
        );
        assert!(v < 1_000.0, "estimate {v} ns should come from fast batches");
    }

    #[test]
    fn quiet_batches_need_no_retry() {
        // A body whose batches all behave identically corroborates
        // immediately: retries stays 0.
        let clock = NanoClock::new();
        let mut retries = 0u64;
        let v = min_per_iter_guarded(&clock, 8, 5_000, &mut retries, || {
            std::hint::black_box(clock.now_ns());
        });
        assert_eq!(retries, 0, "uniform batches must corroborate in round 0");
        assert!(v > 0.0);
    }
}
