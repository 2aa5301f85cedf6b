//! The soft-timer facility wired to simulated time.
//!
//! [`SoftClock`] owns a [`SoftTimerCore`] whose ticks are the simulated
//! measurement clock (1 MHz by default, i.e. one tick per microsecond of
//! [`SimTime`]) and a [`TriggerRecorder`]. Machine simulations call
//! [`SoftClock::trigger`] at every trigger state and
//! [`SoftClock::backup_tick`] from the periodic hardware timer.

use st_core::facility::{Config, Expired, SoftTimerCore};
use st_sim::SimTime;
use st_wheel::TimerHandle;

use crate::trigger::{TriggerRecorder, TriggerSource};

/// Simulated-kernel soft-timer clock.
#[derive(Debug)]
pub struct SoftClock<P> {
    core: SoftTimerCore<P>,
    recorder: TriggerRecorder,
    measure_hz: u64,
}

impl<P> SoftClock<P> {
    /// Creates a soft clock with the paper's typical resolutions (1 MHz
    /// measurement, 1 kHz backup interrupt).
    ///
    /// `keep_raw` retains the tagged trigger sequence for the Figure 5/6
    /// analyses (costs memory: one entry per trigger).
    pub fn new(keep_raw: bool) -> Self {
        SoftClock::with_config(Config::default(), keep_raw)
    }

    /// Creates a soft clock with an explicit facility configuration.
    pub fn with_config(config: Config, keep_raw: bool) -> Self {
        SoftClock {
            measure_hz: config.measure_hz,
            core: SoftTimerCore::new(config),
            recorder: TriggerRecorder::new(keep_raw),
        }
    }

    /// Converts simulated time to measurement-clock ticks.
    pub fn ticks(&self, t: SimTime) -> u64 {
        t.ticks(self.measure_hz)
    }

    /// The trigger recorder (Figure 4-6 / Table 1-2 data).
    pub fn recorder(&self) -> &TriggerRecorder {
        &self.recorder
    }

    /// The underlying facility.
    pub fn core(&self) -> &SoftTimerCore<P> {
        &self.core
    }

    /// Schedules an event at least `delta_ticks` measurement ticks after
    /// `now`.
    pub fn schedule(&mut self, now: SimTime, delta_ticks: u64, payload: P) -> TimerHandle {
        let t = self.ticks(now);
        self.core.schedule(t, delta_ticks, payload)
    }

    /// Cancels a pending event.
    pub fn cancel(&mut self, handle: TimerHandle) -> Option<P> {
        self.core.cancel(handle)
    }

    /// A trigger state at `now` from `source`: records the interval and
    /// polls the facility. Due events are appended to `out`.
    // st-lint: hot-path
    pub fn trigger(
        &mut self,
        now: SimTime,
        source: TriggerSource,
        out: &mut Vec<Expired<P>>,
    ) -> usize {
        self.recorder.record(now, source);
        let t = self.ticks(now);
        self.core.poll(t, out)
    }

    /// The backup hardware-timer sweep at `now`. Note the sweep itself is
    /// also an interrupt return, i.e. a trigger state — callers should
    /// *additionally* call [`SoftClock::trigger`] with
    /// [`TriggerSource::OtherIntr`] if they want the interval recorded;
    /// this method only sweeps overdue events.
    pub fn backup_tick(&mut self, now: SimTime, out: &mut Vec<Expired<P>>) -> usize {
        let t = self.ticks(now);
        if st_trace::active() {
            st_trace::count("kernel.backup_ticks", 1);
            st_trace::emit(
                st_trace::Category::Kernel,
                "kernel.backup_tick",
                now.as_micros(),
                self.core.pending() as u64,
                0,
            );
        }
        self.core.interrupt_sweep(t, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_and_fire_through_trigger() {
        let mut sc: SoftClock<&str> = SoftClock::new(false);
        sc.schedule(SimTime::from_micros(0), 40, "ev");
        let mut out = Vec::new();
        // Trigger at 35 µs: not due.
        assert_eq!(
            sc.trigger(SimTime::from_micros(35), TriggerSource::Syscall, &mut out),
            0
        );
        // Trigger at 52 µs: due (> 41 ticks).
        assert_eq!(
            sc.trigger(SimTime::from_micros(52), TriggerSource::Syscall, &mut out),
            1
        );
        assert_eq!(out[0].payload, "ev");
        assert_eq!(out[0].fired_at, 52);
    }

    #[test]
    fn triggers_feed_the_recorder() {
        let mut sc: SoftClock<()> = SoftClock::new(false);
        let mut out = Vec::new();
        sc.trigger(SimTime::from_micros(10), TriggerSource::Syscall, &mut out);
        sc.trigger(SimTime::from_micros(30), TriggerSource::IpOutput, &mut out);
        assert_eq!(sc.recorder().total(), 2);
        assert_eq!(sc.recorder().all.mean(), 20.0);
    }

    #[test]
    fn backup_tick_sweeps_overdue() {
        let mut sc: SoftClock<u32> = SoftClock::new(false);
        sc.schedule(SimTime::ZERO, 40, 7);
        let mut out = Vec::new();
        sc.backup_tick(SimTime::from_millis(1), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].origin,
            st_core::facility::FireOrigin::BackupInterrupt
        );
        // Worst-case delay is bounded by the 1 ms backup period.
        assert!(out[0].delay() <= 1000);
    }

    #[test]
    fn tick_conversion_is_micros_at_default_resolution() {
        let sc: SoftClock<()> = SoftClock::new(false);
        assert_eq!(sc.ticks(SimTime::from_micros(123)), 123);
        assert_eq!(sc.ticks(SimTime::from_nanos(1_999)), 1);
    }
}
