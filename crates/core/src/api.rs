//! The paper's facility API, verbatim (§3).
//!
//! Section 3 specifies four operations:
//!
//! - `measure_resolution()` — 64-bit clock resolution in Hz,
//! - `measure_time()` — 64-bit current time in ticks of that clock,
//! - `schedule_soft_event(T, handler)` — call `handler` at least `T`
//!   ticks in the future,
//! - `interrupt_clock_resolution()` — the backup interrupt frequency,
//!   i.e. the minimum guaranteed resolution.
//!
//! [`SoftTimers`] packages [`SoftTimerCore`] with a [`Clock`] under
//! exactly that interface. The owner supplies the trigger states
//! ([`SoftTimers::trigger_state`]) and the periodic backup interrupt
//! ([`SoftTimers::backup_interrupt`]); handlers are plain `FnOnce`
//! closures, dispatched inline at the trigger state that finds them due —
//! the paper's "invoking an event handler costs no more than a function
//! call".

use st_wheel::TimerHandle;

use crate::clock::Clock;
use crate::facility::{Config, Expired, SoftTimerCore};
use crate::stats::FacilityStats;

/// One-shot handler dispatched at a trigger state or backup sweep.
pub type SoftHandler = Box<dyn FnOnce(u64) + Send>;

/// The paper's soft-timer facility over an arbitrary measurement clock.
///
/// # Examples
///
/// ```
/// use st_core::api::SoftTimers;
/// use st_core::clock::ManualClock;
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// // A 1 MHz measurement clock we drive by hand.
/// let mut st = SoftTimers::new(ManualClock::new(1_000_000), 1_000);
/// assert_eq!(st.measure_resolution(), 1_000_000);
/// assert_eq!(st.interrupt_clock_resolution(), 1_000);
///
/// let fired_at = Arc::new(AtomicU64::new(0));
/// let f = fired_at.clone();
/// st.schedule_soft_event(40, move |now| {
///     f.store(now, Ordering::SeqCst);
/// });
///
/// st.clock().set(30);
/// st.trigger_state(); // Not due yet.
/// assert_eq!(fired_at.load(Ordering::SeqCst), 0);
///
/// st.clock().set(52);
/// st.trigger_state(); // Past T + 1: fires, handler sees the time.
/// assert_eq!(fired_at.load(Ordering::SeqCst), 52);
/// ```
pub struct SoftTimers<C: Clock> {
    clock: C,
    core: SoftTimerCore<SoftHandler>,
    scratch: Vec<Expired<SoftHandler>>,
}

impl<C: Clock> SoftTimers<C> {
    /// Creates a facility over `clock`, backed up by a periodic interrupt
    /// at `interrupt_hz`.
    ///
    /// # Panics
    ///
    /// Panics when `interrupt_hz` is zero or exceeds the measurement
    /// resolution (the backup clock is by definition the coarser one).
    pub fn new(clock: C, interrupt_hz: u64) -> Self {
        let measure_hz = clock.measure_resolution();
        assert!(
            interrupt_hz > 0 && interrupt_hz <= measure_hz,
            "interrupt clock {interrupt_hz} Hz must be coarser than the \
             measurement clock ({measure_hz} Hz) and non-zero"
        );
        SoftTimers {
            clock,
            core: SoftTimerCore::new(Config {
                measure_hz,
                interrupt_hz,
            }),
            scratch: Vec::new(),
        }
    }

    /// The paper's `measure_resolution()`.
    pub fn measure_resolution(&self) -> u64 {
        self.clock.measure_resolution()
    }

    /// The paper's `measure_time()`.
    pub fn measure_time(&self) -> u64 {
        self.clock.measure_time()
    }

    /// The paper's `interrupt_clock_resolution()`.
    pub fn interrupt_clock_resolution(&self) -> u64 {
        self.core.interrupt_clock_resolution()
    }

    /// The paper's `schedule_soft_event(T, handler)`: `handler` runs at
    /// the first trigger state (or backup interrupt) after more than `t`
    /// ticks elapse, receiving the firing tick.
    pub fn schedule_soft_event(
        &mut self,
        t: u64,
        handler: impl FnOnce(u64) + Send + 'static,
    ) -> TimerHandle {
        let now = self.clock.measure_time();
        self.core.schedule(now, t, Box::new(handler))
    }

    /// Cancels a pending event; returns whether it was still pending.
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        self.core.cancel(handle).is_some()
    }

    /// Declares a trigger state: checks for due events and runs their
    /// handlers inline. Returns how many ran.
    ///
    /// A panicking handler is caught and counted
    /// ([`FacilityStats::handler_panics`]); remaining due handlers still
    /// run and the facility stays usable.
    pub fn trigger_state(&mut self) -> usize {
        let now = self.clock.measure_time();
        let mut due = std::mem::take(&mut self.scratch);
        due.clear();
        self.core.poll(now, &mut due);
        self.dispatch(due)
    }

    /// The periodic backup interrupt: sweeps overdue events. Handler
    /// panics are isolated exactly as in [`SoftTimers::trigger_state`].
    pub fn backup_interrupt(&mut self) -> usize {
        let now = self.clock.measure_time();
        let mut due = std::mem::take(&mut self.scratch);
        due.clear();
        self.core.interrupt_sweep(now, &mut due);
        self.dispatch(due)
    }

    fn dispatch(&mut self, mut due: Vec<Expired<SoftHandler>>) -> usize {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let n = due.len();
        for ev in due.drain(..) {
            let fired_at = ev.fired_at;
            let payload = ev.payload;
            if catch_unwind(AssertUnwindSafe(move || payload(fired_at))).is_err() {
                self.core.note_handler_panic();
            }
        }
        self.scratch = due;
        n
    }

    /// Pending event count.
    pub fn pending(&self) -> usize {
        self.core.pending()
    }

    /// Facility statistics (fires by origin, delay distribution).
    pub fn stats(&self) -> &FacilityStats {
        self.core.stats()
    }

    /// Access to the clock (e.g. to drive a [`crate::clock::ManualClock`]).
    pub fn clock(&self) -> &C {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn facility() -> SoftTimers<ManualClock> {
        SoftTimers::new(ManualClock::new(1_000_000), 1_000)
    }

    #[test]
    fn paper_operations_report_configured_values() {
        let st = facility();
        assert_eq!(st.measure_resolution(), 1_000_000);
        assert_eq!(st.interrupt_clock_resolution(), 1_000);
        assert_eq!(st.measure_time(), 0);
    }

    #[test]
    fn handler_runs_inline_at_trigger_state() {
        let mut st = facility();
        let count = Arc::new(AtomicU64::new(0));
        let c = count.clone();
        st.schedule_soft_event(10, move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        st.clock().set(10);
        assert_eq!(st.trigger_state(), 0, "T itself is too early");
        st.clock().set(11);
        assert_eq!(st.trigger_state(), 1);
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert_eq!(st.pending(), 0);
    }

    #[test]
    fn backup_interrupt_sweeps() {
        let mut st = facility();
        let fired = Arc::new(AtomicU64::new(0));
        let f = fired.clone();
        st.schedule_soft_event(5, move |at| {
            f.store(at, Ordering::SeqCst);
        });
        st.clock().set(1_000);
        assert_eq!(st.backup_interrupt(), 1);
        assert_eq!(fired.load(Ordering::SeqCst), 1_000);
        assert_eq!(st.stats().fired_backup, 1);
    }

    #[test]
    fn cancel_prevents_dispatch() {
        let mut st = facility();
        let h = st.schedule_soft_event(5, |_| panic!("canceled handler ran"));
        assert!(st.cancel(h));
        assert!(!st.cancel(h));
        st.clock().set(100);
        assert_eq!(st.trigger_state(), 0);
    }

    #[test]
    fn handlers_fire_in_deadline_order() {
        let mut st = facility();
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        for (delta, tag) in [(30u64, 'c'), (10, 'a'), (20, 'b')] {
            let o = order.clone();
            st.schedule_soft_event(delta, move |_| o.lock().unwrap().push(tag));
        }
        st.clock().set(100);
        assert_eq!(st.trigger_state(), 3);
        assert_eq!(*order.lock().unwrap(), vec!['a', 'b', 'c']);
    }

    #[test]
    fn panicking_handler_is_isolated_and_counted() {
        let mut st = facility();
        let count = Arc::new(AtomicU64::new(0));
        st.schedule_soft_event(5, |_| panic!("hostile"));
        let c = count.clone();
        st.schedule_soft_event(10, move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        st.clock().set(50);
        // Both are due; the panic is swallowed and the later handler runs.
        assert_eq!(st.trigger_state(), 2);
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert_eq!(st.stats().handler_panics, 1);

        // The facility is still usable afterwards.
        let c = count.clone();
        st.schedule_soft_event(5, move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        st.clock().set(100);
        assert_eq!(st.backup_interrupt(), 1);
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    #[should_panic(expected = "coarser")]
    fn rejects_backup_finer_than_measurement() {
        let _ = SoftTimers::new(ManualClock::new(1_000), 1_000_000);
    }
}
