//! The soft-timer facility core: schedule, trigger-state check, backup
//! sweep, and delay accounting.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use st_wheel::{TimerQueue, TimingWheel};

// `schedule` returns one and `cancel` consumes one, so callers holding a
// pending timer across calls need the type without depending on st-wheel.
pub use st_wheel::TimerHandle;

use crate::stats::FacilityStats;

/// Facility configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Resolution of the measurement clock in Hz. The paper's typical
    /// value is 1 MHz (1 µs ticks).
    pub measure_hz: u64,
    /// Frequency of the backup periodic hardware interrupt in Hz; the
    /// paper's typical value is 1 kHz (one sweep per millisecond). This is
    /// what `interrupt_clock_resolution()` reports.
    pub interrupt_hz: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            measure_hz: 1_000_000,
            interrupt_hz: 1_000,
        }
    }
}

impl Config {
    /// `X`: the resolution of the interrupt clock relative to the
    /// measurement clock — `measure_resolution / interrupt_clock_resolution`
    /// in the paper's notation. An event scheduled with delta `T` fires at
    /// an actual delta strictly between `T` and `T + X + 1`. A zero
    /// `interrupt_hz` reads as 1 Hz, the clamp the facility applies.
    pub fn x_ticks(&self) -> u64 {
        self.measure_hz / self.interrupt_hz.max(1)
    }
}

/// Why an event fired: found due at a trigger state, or swept up by the
/// backup hardware interrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FireOrigin {
    /// A trigger-state check found the event due.
    TriggerState,
    /// The periodic backup interrupt swept the overdue event.
    BackupInterrupt,
}

/// A fired soft-timer event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expired<P> {
    /// The scheduled payload.
    pub payload: P,
    /// The earliest tick at which the event was allowed to fire
    /// (`schedule_time + T + 1`).
    pub due: u64,
    /// The tick at which it actually fired.
    pub fired_at: u64,
    /// What fired it.
    pub origin: FireOrigin,
}

impl<P> Expired<P> {
    /// Delay past the earliest allowed tick (0 = fired as early as legal).
    pub fn delay(&self) -> u64 {
        self.fired_at - self.due
    }
}

/// The facility core, generic over payload type and timer store.
///
/// All methods take the current measurement-clock tick explicitly, which
/// keeps the core free of clock plumbing and lets the simulated kernel and
/// the real-time runtime share it unchanged. The timer store defaults to
/// the paper's choice — a timing wheel — but any
/// [`TimerQueue`] implementation works.
///
/// The firing rule follows section 3 of the paper exactly: an event
/// scheduled at tick `S` with delta `T` fires at the first check whose
/// tick satisfies `now >= S + T + 1` (the paper's "exceeds ... by at least
/// `T + 1`"); the periodic backup sweep bounds the actual firing tick to
/// `S + T < fired_at < S + T + X + 1`.
#[derive(Debug)]
pub struct SoftTimerCore<P, Q: TimerQueue<P> = TimingWheel<P>> {
    wheel: Q,
    /// Cached earliest deadline, so the not-due check is one comparison;
    /// `None` when no events are pending. Lowered by `schedule`, re-read
    /// from the store after every sweep, left alone by `cancel`: it may be
    /// stale-early after one (causing one sweep that finds nothing, which
    /// on the wheel is a single find-first-set), never stale-late.
    earliest: Option<u64>,
    config: Config,
    /// `config.x_ticks()`, cached so the late-fire test is a compare and
    /// not a division per fire; recomputed only by `set_interrupt_hz`.
    x_ticks: u64,
    stats: FacilityStats,
    /// Monotonic check guard: ticks seen so far.
    last_seen: u64,
    /// Reusable sweep buffer: the due-event batch is collected here so the
    /// dispatch path never allocates after the first sweep warms it up.
    scratch: Vec<(u64, P)>,
}

impl<P> SoftTimerCore<P> {
    /// Creates an empty facility over the default timing wheel.
    pub fn new(config: Config) -> Self {
        SoftTimerCore::with_queue(config, TimingWheel::new())
    }
}

impl<P, Q: TimerQueue<P>> SoftTimerCore<P, Q> {
    /// Creates an empty facility over an explicit timer store. A zero
    /// `interrupt_hz` is clamped to 1 Hz, as [`Self::set_interrupt_hz`]
    /// does.
    pub fn with_queue(mut config: Config, queue: Q) -> Self {
        config.interrupt_hz = config.interrupt_hz.max(1);
        SoftTimerCore {
            wheel: queue,
            earliest: None,
            config,
            x_ticks: config.x_ticks(),
            stats: FacilityStats::new(),
            last_seen: 0,
            scratch: Vec::new(),
        }
    }

    /// The facility configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The paper's `interrupt_clock_resolution()`: the backup interrupt
    /// frequency in Hz — the minimum guaranteed event resolution.
    pub fn interrupt_clock_resolution(&self) -> u64 {
        self.config.interrupt_hz
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.wheel.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &FacilityStats {
        &self.stats
    }

    /// Records that an embedding runtime caught a panic from a dispatched
    /// event handler (see [`FacilityStats::handler_panics`]).
    pub fn note_handler_panic(&mut self) {
        self.stats.handler_panics += 1;
    }

    /// Retunes the backup-interrupt frequency in place, clamped to at
    /// least 1 Hz. Changes `x_ticks()` — and with it the `(S+T, S+T+X+1)`
    /// firing bound — for every *subsequent* sweep; pending deadlines are
    /// untouched. This is the hook st-guard's degradation policy uses to
    /// tighten the backup grid while the trigger stream is starved, and
    /// to restore it on recovery. Each effective change is counted in
    /// [`FacilityStats::backup_retunes`]; a no-op retune is not.
    pub fn set_interrupt_hz(&mut self, interrupt_hz: u64) {
        let hz = interrupt_hz.max(1);
        if hz != self.config.interrupt_hz {
            self.config.interrupt_hz = hz;
            self.x_ticks = self.config.x_ticks();
            self.stats.backup_retunes += 1;
        }
    }

    /// The paper's `schedule_soft_event(T, handler)`: schedules `payload`
    /// to fire at least `delta` ticks in the future, measured from `now`.
    ///
    /// Returns a handle usable with [`SoftTimerCore::cancel`].
    pub fn schedule(&mut self, now: u64, delta: u64, payload: P) -> TimerHandle {
        // Earliest legal firing tick: strictly more than `delta` ticks
        // after the schedule tick. The +1 accounts for the schedule time
        // falling between clock ticks (section 3). Saturate: a delta near
        // `u64::MAX` must pin to the end of time, not wrap into the past
        // and fire immediately.
        let deadline = now.saturating_add(delta).saturating_add(1);
        let handle = self.wheel.schedule(deadline, payload);
        self.earliest = Some(match self.earliest {
            Some(e) => e.min(deadline),
            None => deadline,
        });
        self.stats.scheduled += 1;
        if st_trace::active() {
            st_trace::count("facility.scheduled", 1);
            st_trace::emit(
                st_trace::Category::Facility,
                "facility.schedule",
                now,
                deadline,
                delta,
            );
        }
        handle
    }

    /// Cancels a pending event, returning its payload if it had not fired.
    pub fn cancel(&mut self, handle: TimerHandle) -> Option<P> {
        let p = self.wheel.cancel(handle);
        if p.is_some() {
            self.stats.canceled += 1;
            st_trace::count("facility.canceled", 1);
            // `earliest` may now be stale-early; leave it — the next check
            // at that tick performs one store advance that finds nothing
            // (the wheel looks at no bucket for it) and refreshes the cache.
        }
        p
    }

    /// The trigger-state check. Call this at every trigger state; when no
    /// event is due it costs one comparison (the paper's "reading the
    /// clock and a comparison with the ... earliest soft timer event").
    ///
    /// Due events are appended to `out`; returns how many fired.
    // st-lint: hot-path
    pub fn poll(&mut self, now: u64, out: &mut Vec<Expired<P>>) -> usize {
        self.fire(now, FireOrigin::TriggerState, out)
    }

    /// The backup sweep, to be called from the periodic hardware timer
    /// interrupt. Identical to [`SoftTimerCore::poll`] but accounts fired
    /// events to [`FireOrigin::BackupInterrupt`].
    pub fn interrupt_sweep(&mut self, now: u64, out: &mut Vec<Expired<P>>) -> usize {
        self.stats.backup_sweeps += 1;
        st_trace::count("facility.backup_sweeps", 1);
        self.fire(now, FireOrigin::BackupInterrupt, out)
    }

    /// Whether a check at `now` would fire at least one event (the cheap
    /// comparison, with no side effects).
    // st-lint: hot-path
    pub fn has_due(&self, now: u64) -> bool {
        matches!(self.earliest, Some(e) if now >= e)
    }

    /// Earliest pending deadline (tick), if any. May be stale-early after
    /// a cancel.
    pub fn earliest_deadline(&self) -> Option<u64> {
        self.earliest
    }

    fn fire(&mut self, now: u64, origin: FireOrigin, out: &mut Vec<Expired<P>>) -> usize {
        self.stats.checks += 1;
        // A measurement clock can go backwards in the real world (TSC
        // wrap, unsynchronized cores, a buggy clock source). Clamp to the
        // largest tick seen instead of mis-computing delays or handing the
        // wheel a time regression; count it so embeddings can alarm.
        let now = if now < self.last_seen {
            self.stats.clock_regressions += 1;
            if st_trace::active() {
                st_trace::count("facility.clock_regressions", 1);
                st_trace::emit(
                    st_trace::Category::Facility,
                    "facility.clock_clamp",
                    self.last_seen,
                    now,
                    self.last_seen,
                );
            }
            self.last_seen
        } else {
            now
        };
        self.last_seen = now;
        match self.earliest {
            Some(e) if now >= e => {}
            _ => return 0, // The common, cheap path.
        }

        let mut due = std::mem::take(&mut self.scratch);
        self.wheel.advance(now, &mut due);
        let fired = due.len();
        let tracing = st_trace::active();
        for (deadline, payload) in due.drain(..) {
            self.stats.record_fire(origin, now - deadline, self.x_ticks);
            if tracing {
                let (name, counter) = match origin {
                    FireOrigin::TriggerState => ("facility.fire.trigger", "facility.fired.trigger"),
                    FireOrigin::BackupInterrupt => {
                        ("facility.fire.backup", "facility.fired.backup")
                    }
                };
                st_trace::count(counter, 1);
                st_trace::emit(
                    st_trace::Category::Facility,
                    name,
                    now,
                    deadline,
                    now - deadline,
                );
                // st-lint: allow(no-float-in-bounds) -- observability export;
                // the firing-bound comparison above stays in u64 ticks
                st_trace::observe("facility.delay_ticks", (now - deadline) as f64);
            }
            out.push(Expired {
                payload,
                due: deadline,
                fired_at: now,
                origin,
            });
        }
        // Return the (drained) buffer so its capacity is reused next sweep.
        self.scratch = due;
        // Refresh the earliest-deadline cache: exact on every store (a
        // canceled timer never shows), and on the wheel two find-first-set
        // steps plus a minimum over the one bucket they select.
        self.earliest = self.wheel.next_deadline();
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> SoftTimerCore<u32> {
        SoftTimerCore::new(Config::default())
    }

    #[test]
    fn fires_only_after_strict_bound() {
        let mut c = core();
        c.schedule(100, 40, 1);
        let mut out = Vec::new();
        // Exactly S + T is too early: the paper requires now > S + T.
        assert_eq!(c.poll(140, &mut out), 0);
        assert_eq!(c.poll(141, &mut out), 1);
        assert_eq!(out[0].due, 141);
        assert_eq!(out[0].delay(), 0);
        assert_eq!(out[0].origin, FireOrigin::TriggerState);
    }

    #[test]
    fn zero_delta_fires_next_tick() {
        let mut c = core();
        c.schedule(10, 0, 1);
        let mut out = Vec::new();
        assert_eq!(c.poll(10, &mut out), 0);
        assert_eq!(c.poll(11, &mut out), 1);
    }

    #[test]
    fn delayed_fire_reports_delay() {
        let mut c = core();
        c.schedule(0, 40, 1);
        let mut out = Vec::new();
        // No trigger state until tick 90: event is 49 ticks late.
        c.poll(90, &mut out);
        assert_eq!(out[0].delay(), 49);
        assert_eq!(out[0].fired_at, 90);
    }

    #[test]
    fn backup_sweep_origin() {
        let mut c = core();
        c.schedule(0, 10, 1);
        let mut out = Vec::new();
        c.interrupt_sweep(1000, &mut out);
        assert_eq!(out[0].origin, FireOrigin::BackupInterrupt);
        assert_eq!(c.stats().backup_sweeps, 1);
    }

    #[test]
    fn poll_before_due_is_cheap_and_silent() {
        let mut c = core();
        c.schedule(0, 1000, 1);
        let mut out = Vec::new();
        for t in 1..=1000 {
            assert_eq!(c.poll(t, &mut out), 0);
        }
        assert_eq!(c.poll(1001, &mut out), 1);
        assert_eq!(c.stats().checks, 1001);
    }

    #[test]
    fn multiple_events_fire_in_deadline_order() {
        let mut c = core();
        c.schedule(0, 30, 3);
        c.schedule(0, 10, 1);
        c.schedule(0, 20, 2);
        let mut out = Vec::new();
        c.poll(100, &mut out);
        let order: Vec<u32> = out.iter().map(|e| e.payload).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn cancel_prevents_fire() {
        let mut c = core();
        let h = c.schedule(0, 10, 1);
        c.schedule(0, 20, 2);
        assert_eq!(c.cancel(h), Some(1));
        assert_eq!(c.cancel(h), None);
        let mut out = Vec::new();
        c.poll(100, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, 2);
        assert_eq!(c.stats().canceled, 1);
    }

    #[test]
    fn has_due_tracks_earliest() {
        let mut c = core();
        assert!(!c.has_due(u64::MAX));
        c.schedule(0, 10, 1);
        assert!(!c.has_due(10));
        assert!(c.has_due(11));
    }

    #[test]
    fn earliest_refreshes_after_fire() {
        let mut c = core();
        c.schedule(0, 10, 1);
        c.schedule(0, 500, 2);
        let mut out = Vec::new();
        c.poll(50, &mut out);
        assert_eq!(c.earliest_deadline(), Some(501));
        assert_eq!(c.pending(), 1);
    }

    #[test]
    fn x_ticks_default_is_1000() {
        assert_eq!(Config::default().x_ticks(), 1000);
    }

    #[test]
    fn schedule_saturates_instead_of_wrapping() {
        let mut c = core();
        // now + delta + 1 would wrap; the deadline must pin to u64::MAX,
        // i.e. the event stays in the future rather than firing at once.
        c.schedule(u64::MAX - 10, u64::MAX, 1);
        let mut out = Vec::new();
        assert_eq!(c.poll(u64::MAX - 1, &mut out), 0, "must not fire early");
        assert_eq!(c.earliest_deadline(), Some(u64::MAX));
        assert_eq!(c.poll(u64::MAX, &mut out), 1, "fires at the end of time");
        assert_eq!(out[0].due, u64::MAX);
    }

    #[test]
    fn schedule_at_max_now_with_zero_delta() {
        let mut c = core();
        c.schedule(u64::MAX, 0, 7);
        let mut out = Vec::new();
        // Deadline saturates to u64::MAX; a check at u64::MAX fires it.
        assert_eq!(c.poll(u64::MAX, &mut out), 1);
        assert_eq!(out[0].delay(), 0);
    }

    fn pinned_clock_at_end_of_time<Q: TimerQueue<u32>>(queue: Q) {
        let mut c = SoftTimerCore::with_queue(Config::default(), queue);
        c.schedule(5, u64::MAX, 1);
        let mut out = Vec::new();
        assert_eq!(c.poll(u64::MAX, &mut out), 1);
        // The clock is pinned at its maximum (what `rt.rs` counts as a
        // time saturation): a re-arm saturates to the same tick, and the
        // next check — the store's second advance to `u64::MAX` — fires it.
        c.schedule(u64::MAX, u64::MAX, 2);
        assert_eq!(c.poll(u64::MAX, &mut out), 1);
        assert_eq!(c.poll(u64::MAX, &mut out), 0);
        let fired: Vec<(u32, u64)> = out.iter().map(|e| (e.payload, e.fired_at)).collect();
        assert_eq!(fired, vec![(1, u64::MAX), (2, u64::MAX)]);
    }

    #[test]
    fn pinned_clock_at_end_of_time_keeps_firing() {
        pinned_clock_at_end_of_time(TimingWheel::new());
        pinned_clock_at_end_of_time(st_wheel::HeapQueue::new());
    }

    #[test]
    fn clock_regression_is_clamped_and_counted() {
        let mut c = core();
        c.schedule(0, 40, 1);
        let mut out = Vec::new();
        assert_eq!(c.poll(100, &mut out), 1);
        assert_eq!(out[0].fired_at, 100);
        // The clock jumps backwards; the facility clamps to tick 100.
        c.schedule(0, 10, 2);
        assert_eq!(c.poll(50, &mut out), 1, "clamped check still fires");
        assert_eq!(out[1].fired_at, 100, "fired at the clamped tick");
        assert_eq!(out[1].delay(), 89, "delay from clamped now, no underflow");
        assert_eq!(c.stats().clock_regressions, 1);
        // Monotone checks afterwards don't count as regressions.
        c.poll(150, &mut out);
        assert_eq!(c.stats().clock_regressions, 1);
    }

    #[test]
    fn regression_during_backup_sweep_is_release_safe() {
        let mut c = core();
        c.schedule(0, 10, 1);
        let mut out = Vec::new();
        c.poll(2000, &mut out);
        out.clear();
        c.schedule(0, 5, 2); // Due at tick 6, far in the clamped past.
        c.interrupt_sweep(1000, &mut out); // Backup reads a stale clock.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].fired_at, 2000);
        assert_eq!(c.stats().clock_regressions, 1);
    }

    #[test]
    fn stats_record_fire_origins_and_delays() {
        let mut c = core();
        c.schedule(0, 10, 1);
        c.schedule(0, 20, 2);
        let mut out = Vec::new();
        c.poll(15, &mut out);
        c.interrupt_sweep(1000, &mut out);
        let s = c.stats();
        assert_eq!(s.fired_trigger, 1);
        assert_eq!(s.fired_backup, 1);
        assert_eq!(s.scheduled, 2);
        assert_eq!(s.delay_sum_ticks(), (15 - 11) + (1000 - 21));
        assert_eq!(s.delay_max_ticks, 1000 - 21);
        assert_eq!(s.late_fires, 0);
    }

    #[test]
    fn retuning_the_backup_grid_tightens_x_and_is_counted() {
        let mut c = core();
        let x0 = c.config().x_ticks();
        c.set_interrupt_hz(c.config().interrupt_hz * 4);
        assert_eq!(c.config().x_ticks(), x0 / 4, "X must tighten 4x");
        assert_eq!(c.stats().backup_retunes, 1);
        // No-op retunes and zero requests don't count / don't divide by
        // zero: the clamp floors at 1 Hz.
        c.set_interrupt_hz(c.config().interrupt_hz);
        assert_eq!(c.stats().backup_retunes, 1);
        c.set_interrupt_hz(0);
        assert_eq!(c.config().interrupt_hz, 1);
        assert_eq!(c.stats().backup_retunes, 2);
        // Pending events survive a retune and still fire.
        c.schedule(0, 10, 7);
        let mut out = Vec::new();
        c.set_interrupt_hz(1_000);
        c.interrupt_sweep(100, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn zero_hz_config_is_clamped_and_retune_moves_the_late_threshold() {
        let zero = Config {
            measure_hz: 1_000_000,
            interrupt_hz: 0,
        };
        assert_eq!(
            zero.x_ticks(),
            1_000_000,
            "a raw zero-Hz config reads as 1 Hz"
        );
        let mut c: SoftTimerCore<u32> = SoftTimerCore::new(zero);
        assert_eq!(c.interrupt_clock_resolution(), 1);
        assert_eq!(c.config().x_ticks(), 1_000_000);
        let mut out = Vec::new();
        // 5000 ticks late against X = 1e6: inside the bound.
        c.schedule(0, 9, 1);
        c.interrupt_sweep(5_010, &mut out);
        assert_eq!(c.stats().late_fires, 0);
        // Same lateness after the grid tightens to X = 1000: late. The
        // earlier fire is not re-judged.
        c.set_interrupt_hz(1_000);
        c.schedule(5_010, 9, 2);
        c.interrupt_sweep(10_020, &mut out);
        assert_eq!(c.stats().late_fires, 1);
        assert_eq!(c.stats().delay_max_ticks, 5_000);
        assert_eq!(out.len(), 2);
    }
}
