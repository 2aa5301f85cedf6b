//! Real-time soft timers for userspace programs.
//!
//! The facility is most valuable inside a kernel, but the same structure
//! works in any program with a hot loop: an event-driven server can call
//! [`RtSoftTimers::run_pending`] once per loop iteration (its "trigger
//! state") and get microsecond-class timers without a timerfd wakeup per
//! event. A backup lane plays the role of the periodic hardware interrupt,
//! bounding event delay when the loop stalls.
//!
//! This is the closure-handler face of the lane table and shared core the
//! measured [`crate::host`] runtime runs on: a `run_pending()` that finds
//! nothing due is a clock read and a compare and takes no lock, however
//! many threads poll one runtime. Ticks are wall-clock nanoseconds.
//!
//! It is the **unsupervised** face: the trigger states are the caller's
//! own threads, so `crate::guard` does not watch its table — nothing
//! restarts a stalled backup lane or tightens its period. A program that
//! needs supervision runs its work on the lanes of a guarded `host::run`.
//!
//! `examples/quickstart.rs` and the `soft_timers` crate docs show it in use.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

use st_core::{Expired, FacilityStats, TimerHandle};

use crate::chaos::FaultClock;
use crate::clock::nanos;
use crate::host::{FireAccum, HostConfig, Lanes, Payload, Shared};
use crate::shared::{lock_recover, Periodic, NANOS_PER_SEC};

/// Real-time runtime configuration.
#[derive(Debug, Clone, Copy)]
pub struct RtConfig {
    /// Backup sweep period — the "hardware interrupt clock". Events are
    /// never delayed longer than about this much past their deadline.
    pub backup_period: Duration,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig {
            backup_period: Duration::from_millis(1),
        }
    }
}

/// A handler as the core stores it: run with the runtime (so it can
/// schedule follow-up events); `true` keeps a periodic event armed.
type Handler = Box<dyn FnMut(&RtSoftTimers) -> bool + Send>;

struct Task {
    /// `Some` while the event is periodic and still wanted.
    period_ns: Option<u64>,
    run: Handler,
}

impl Periodic for Task {
    fn period_ns(&self) -> Option<u64> {
        self.period_ns
    }
}

/// The backup lane runs each fired task against the runtime, which it
/// holds only weakly: a lane must never keep the runtime alive.
impl Payload for Task {
    type Ctx = Weak<RtSoftTimers>;
    fn run(ev: &mut Expired<Task>, shared: &Shared<Task>, _: &mut FireAccum) {
        // `None` mid-drop: whatever it re-arms is dropped with the core.
        if let Some(rt) = shared.ctx.upgrade() {
            rt.run_task(ev);
        }
    }
}

/// Cancelation handle for a periodic event from
/// [`RtSoftTimers::schedule_every`].
pub struct RtPeriodic {
    cancelled: Arc<AtomicBool>,
}

impl RtPeriodic {
    /// Stops the periodic event (takes effect at its next firing).
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }
}

/// Thread-safe soft-timer runtime over the monotonic nanosecond clock.
///
/// Hardened against hostile callbacks: a handler that panics is caught
/// (and counted — see [`RtSoftTimers::handler_panics`]) so it can neither
/// kill the backup-interrupt lane nor poison the shared wheel. A panic
/// costs the firing it happened in, not the timer: events scheduled
/// afterwards fire normally and a periodic event stays on its grid.
pub struct RtSoftTimers {
    shared: Arc<Shared<Task>>,
    /// The backup lane, until [`RtSoftTimers::shutdown`] takes it.
    lanes: Mutex<Option<Lanes<Task>>>,
}

impl RtSoftTimers {
    /// Starts the runtime and its backup lane: a host lane table with no
    /// workers and no idle lane.
    ///
    /// The lane holds the runtime only weakly: it ends on
    /// [`RtSoftTimers::shutdown`] or when the last `Arc` is dropped,
    /// whichever comes first.
    pub fn start(config: RtConfig) -> Arc<Self> {
        let host = HostConfig {
            workers: 0,
            idle_poller: false,
            backup_period: config.backup_period,
            ..HostConfig::default()
        };
        Arc::new_cyclic(|rt| {
            let shared = Shared::new(&host, FaultClock::healthy(), rt.clone());
            let lanes = Mutex::new(Some(Lanes::launch(&shared, &host, Vec::new())));
            RtSoftTimers { shared, lanes }
        })
    }

    /// Handlers that panicked and were caught (the runtime survives them).
    pub fn handler_panics(&self) -> u64 {
        self.shared.core.lock().stats().handler_panics
    }

    /// The paper's `measure_time()`: nanoseconds since the runtime started.
    pub fn measure_time(&self) -> u64 {
        self.shared.clock.now_ns()
    }

    /// The paper's `measure_resolution()` (Hz): ticks are nanoseconds.
    pub fn measure_resolution(&self) -> u64 {
        NANOS_PER_SEC
    }

    /// The paper's `interrupt_clock_resolution()` (Hz): the backup sweep
    /// frequency, i.e. the worst-case event delay bound.
    pub fn interrupt_clock_resolution(&self) -> u64 {
        self.shared.core.lock().interrupt_clock_resolution()
    }

    fn arm(&self, delay_ns: u64, period_ns: Option<u64>, run: Handler) -> TimerHandle {
        let now = self.measure_time();
        let task = Task { period_ns, run };
        self.shared.core.lock().schedule(now, delay_ns, task)
    }

    /// The paper's `schedule_soft_event(T, handler)`: runs `handler` at
    /// least `delay` from now — at the next trigger state after the delay
    /// elapses, or at the next backup sweep, whichever comes first.
    pub fn schedule_in(
        &self,
        delay: Duration,
        handler: impl FnOnce(&RtSoftTimers) + Send + 'static,
    ) -> TimerHandle {
        let mut once = Some(handler);
        let run = move |rt: &RtSoftTimers| {
            if let Some(handler) = once.take() {
                handler(rt);
            }
            false
        };
        self.arm(nanos(delay), None, Box::new(run))
    }

    /// Cancels a scheduled event. Returns whether it was still pending.
    pub fn cancel(&self, handle: TimerHandle) -> bool {
        // The payload outlives the statement that holds the lock: dropping
        // a handler may run caller code.
        let removed = self.shared.core.lock().cancel(handle);
        removed.is_some()
    }

    /// Runs `handler` approximately every `period`, starting one period
    /// from now, until it returns `false` or [`RtPeriodic::cancel`] is
    /// called. Rescheduling is drift-free: each deadline is computed from
    /// the previous *deadline*, not the (possibly late) firing time — the
    /// same idea as the paper's pacer keeping a train on its rate line —
    /// and a loop that stalled for whole periods skips them rather than
    /// bursting.
    pub fn schedule_every(
        &self,
        period: Duration,
        mut handler: impl FnMut(&RtSoftTimers) -> bool + Send + 'static,
    ) -> RtPeriodic {
        let cancelled = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&cancelled);
        let run = move |rt: &RtSoftTimers| {
            !flag.load(Ordering::Acquire) && handler(rt) && !flag.load(Ordering::Acquire)
        };
        let period_ns = nanos(period);
        self.arm(period_ns, Some(period_ns), Box::new(run));
        RtPeriodic { cancelled }
    }

    /// Runs a fired task's handler; a finished periodic is not re-armed.
    fn run_task(&self, ev: &mut Expired<Task>) {
        if !(ev.payload.run)(self) {
            ev.payload.period_ns = None;
        }
    }

    /// The trigger-state check: call this at the natural pause points of
    /// your program (event-loop top, after a batch of work, on I/O
    /// readiness). Runs all due handlers on this thread, core unlocked (so
    /// they can schedule and cancel); returns how many ran. With nothing
    /// due it is a clock read and a compare and takes no lock; while
    /// another call (another thread's, or the one a handler is running in)
    /// is mid-batch it runs nothing and leaves the rest to it.
    pub fn run_pending(&self) -> usize {
        let now_ns = || self.measure_time();
        let run = |ev: &mut _| self.run_task(ev);
        self.shared
            .core
            .fire_due(Some(now_ns()), now_ns, &mut Vec::new(), run)
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.shared.core.lock().pending()
    }

    /// Snapshot of facility statistics (delays in nanoseconds).
    pub fn stats(&self) -> FacilityStats {
        self.shared.core.lock().stats().clone()
    }

    /// Stops the backup lane. Pending events no longer have a delay
    /// bound after shutdown (they still fire from `run_pending`).
    /// Idempotent, and callable from a handler on the lane itself.
    pub fn shutdown(&self) {
        // Taken before the join: a handler may call this meanwhile.
        let lanes = lock_recover(&self.lanes).take();
        if let Some(lanes) = lanes {
            lanes.join();
        }
    }
}

impl Drop for RtSoftTimers {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{saturations, spin};
    use crate::host::trigger_check;
    use std::sync::atomic::AtomicU32;
    use std::time::Instant;

    const SEQ: Ordering = Ordering::SeqCst;
    const MS: Duration = Duration::from_millis(1);
    const US: Duration = Duration::from_micros(1);

    fn start(backup_period: Duration) -> Arc<RtSoftTimers> {
        RtSoftTimers::start(RtConfig { backup_period })
    }

    /// A one-shot handler bumping `count`.
    fn bump(count: &Arc<AtomicU32>) -> impl FnOnce(&RtSoftTimers) + Send + 'static {
        let count = Arc::clone(count);
        move |_| {
            count.fetch_add(1, SEQ);
        }
    }

    /// Sleeps `step` at a time until `done`, for at most 2 s; with `poll`
    /// each step is a trigger state, without only the backup sweep fires.
    fn wait(rt: &RtSoftTimers, step: Duration, poll: bool, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(2);
        while !done() && Instant::now() < deadline {
            std::thread::sleep(step);
            if poll {
                rt.run_pending();
            }
        }
    }

    #[test]
    fn fires_at_trigger_point_after_delay() {
        let rt = start(50 * MS);
        let fired = Arc::new(AtomicU32::new(0));
        rt.schedule_in(100 * US, bump(&fired));
        assert_eq!(rt.run_pending(), 0, "not due yet");
        std::thread::sleep(2 * MS);
        assert_eq!(rt.run_pending(), 1);
        assert_eq!(fired.load(SEQ), 1);
        rt.shutdown();
    }

    #[test]
    fn backup_thread_bounds_delay_without_polls() {
        let rt = start(MS);
        let fired = Arc::new(AtomicU32::new(0));
        rt.schedule_in(100 * US, bump(&fired));
        // Never call run_pending; the backup sweep must fire it.
        wait(&rt, MS, false, || fired.load(SEQ) > 0);
        assert_eq!(fired.load(SEQ), 1, "backup sweep never fired");
        rt.shutdown();
    }

    #[test]
    fn handlers_can_reschedule() {
        let rt = RtSoftTimers::start(RtConfig::default());
        let count = Arc::new(AtomicU32::new(0));

        fn tick(rt: &RtSoftTimers, count: Arc<AtomicU32>) {
            let n = count.fetch_add(1, SEQ) + 1;
            if n < 3 {
                rt.schedule_in(10 * US, move |rt| tick(rt, count));
            }
        }
        let c = count.clone();
        rt.schedule_in(10 * US, move |rt| tick(rt, c));
        wait(&rt, 200 * US, true, || count.load(SEQ) >= 3);
        assert_eq!(count.load(SEQ), 3);
        rt.shutdown();
    }

    #[test]
    fn a_check_during_a_batch_fires_nothing_and_a_sweep_still_does() {
        let rt = start(200 * MS);
        let fired = Arc::new(AtomicU32::new(0));
        let (checked, swept) = (Arc::new(AtomicU32::new(9)), Arc::new(AtomicU32::new(9)));
        let (f, c, s) = (fired.clone(), checked.clone(), swept.clone());
        rt.schedule_in(10 * US, move |rt| {
            // A second event comes due while this handler's batch runs.
            rt.schedule_in(10 * US, bump(&f));
            std::thread::sleep(MS);
            c.store(rt.run_pending() as u32, SEQ);
            let now_ns = || rt.measure_time();
            let sweep = trigger_check(
                &rt.shared,
                None,
                now_ns,
                &mut Vec::new(),
                &mut FireAccum::new(),
            );
            s.store(sweep as u32, SEQ);
        });
        std::thread::sleep(MS);
        assert_eq!(rt.run_pending(), 1);
        assert_eq!((checked.load(SEQ), swept.load(SEQ)), (0, 1));
        assert_eq!(fired.load(SEQ), 1);
        rt.shutdown();
    }

    #[test]
    fn cancel_works() {
        let rt = RtSoftTimers::start(RtConfig::default());
        let fired = Arc::new(AtomicU32::new(0));
        let h = rt.schedule_in(5 * MS, bump(&fired));
        assert!(rt.cancel(h));
        assert!(!rt.cancel(h), "second cancel is a no-op");
        std::thread::sleep(10 * MS);
        rt.run_pending();
        assert_eq!(fired.load(SEQ), 0);
        rt.shutdown();
    }

    #[test]
    fn periodic_fires_repeatedly_and_cancels() {
        let rt = RtSoftTimers::start(RtConfig::default());
        let count = Arc::new(AtomicU32::new(0));
        let c = count.clone();
        let periodic = rt.schedule_every(100 * US, move |_| c.fetch_add(1, SEQ) < 100);
        wait(&rt, 100 * US, true, || count.load(SEQ) >= 5);
        assert!(count.load(SEQ) >= 5, "{}", count.load(SEQ));
        periodic.cancel();
        std::thread::sleep(5 * MS);
        rt.run_pending();
        let frozen = count.load(SEQ);
        std::thread::sleep(5 * MS);
        rt.run_pending();
        assert_eq!(count.load(SEQ), frozen, "canceled but still firing");
        assert_eq!(rt.pending(), 0, "a canceled periodic is not re-armed");
        rt.shutdown();
    }

    #[test]
    fn periodic_stops_when_handler_returns_false() {
        let rt = RtSoftTimers::start(RtConfig::default());
        let count = Arc::new(AtomicU32::new(0));
        let c = count.clone();
        let _periodic = rt.schedule_every(50 * US, move |_| c.fetch_add(1, SEQ) + 1 < 3);
        wait(&rt, 100 * US, true, || count.load(SEQ) >= 3);
        std::thread::sleep(3 * MS);
        rt.run_pending();
        assert_eq!(count.load(SEQ), 3);
        rt.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let rt = RtSoftTimers::start(RtConfig::default());
        rt.shutdown();
        rt.shutdown();
    }

    #[test]
    fn panicking_handler_does_not_kill_run_pending() {
        let rt = start(200 * MS);
        rt.schedule_in(10 * US, |_| panic!("hostile"));
        let fired = Arc::new(AtomicU32::new(0));
        rt.schedule_in(20 * US, bump(&fired));
        std::thread::sleep(2 * MS);
        // Both events are due; the panic is caught and the second handler
        // still runs in the same trigger check.
        assert_eq!(rt.run_pending(), 2);
        assert_eq!(fired.load(SEQ), 1);
        assert_eq!(rt.handler_panics(), 1);
        assert_eq!(rt.stats().handler_panics, 1);

        // The wheel is not poisoned: events scheduled afterwards fire.
        rt.schedule_in(10 * US, bump(&fired));
        std::thread::sleep(2 * MS);
        assert_eq!(rt.run_pending(), 1);
        assert_eq!(fired.load(SEQ), 2);
        rt.shutdown();
    }

    #[test]
    fn panicking_handler_does_not_kill_backup_thread() {
        let rt = start(MS);
        rt.schedule_in(10 * US, |_| panic!("hostile"));
        // Never call run_pending: the backup thread must take the panic
        // and survive.
        wait(&rt, MS, false, || rt.handler_panics() > 0);
        assert_eq!(rt.handler_panics(), 1, "backup thread never dispatched");

        // The thread is still alive: a later event fires via the backup
        // sweep with no trigger states at all.
        let fired = Arc::new(AtomicU32::new(0));
        rt.schedule_in(10 * US, bump(&fired));
        wait(&rt, MS, false, || fired.load(SEQ) > 0);
        assert_eq!(fired.load(SEQ), 1, "backup thread died after the panic");
        rt.shutdown();
    }

    #[test]
    fn shutdown_joins_backup_thread_after_panics() {
        let rt = start(MS);
        for _ in 0..3 {
            rt.schedule_in(5 * US, |_| panic!("hostile"));
        }
        wait(&rt, MS, false, || rt.handler_panics() >= 3);
        assert_eq!(rt.handler_panics(), 3);
        // Shutdown joins cleanly even though handlers panicked, and stays
        // idempotent.
        rt.shutdown();
        rt.shutdown();
    }

    #[test]
    fn dropping_the_last_handle_ends_the_backup_thread() {
        let rt = start(20 * MS);
        let weak = Arc::downgrade(&rt);
        let dropped_at = Instant::now();
        // No shutdown(): the drop itself stops and joins the thread, which
        // holds no strong reference that could keep the runtime alive.
        drop(rt);
        assert!(weak.upgrade().is_none(), "the thread leaked the runtime");
        assert!(dropped_at.elapsed() < 40 * MS, "{:?}", dropped_at.elapsed());
    }

    #[test]
    fn shutdown_wakes_the_backup_lane_instead_of_waiting_out_its_period() {
        let rt = start(Duration::from_secs(10));
        std::thread::sleep(10 * MS); // the lane is parked by now
        let started = Instant::now();
        rt.shutdown();
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn a_runtime_ended_from_its_own_backup_lane_ends_there_without_a_deadlock() {
        // Never polled, so the backup lane runs the handler that ends the
        // runtime: by `shutdown()`, or by dropping its only `Arc`.
        for by_shutdown in [true, false] {
            let rt = start(MS);
            let (weak, shared) = (Arc::downgrade(&rt), Arc::downgrade(&rt.shared));
            let (only, ended) = (Arc::clone(&rt), Arc::new(AtomicU32::new(0)));
            let e = ended.clone();
            rt.schedule_in(10 * US, move |rt| {
                if by_shutdown {
                    rt.shutdown();
                }
                drop(only);
                e.store(1, SEQ);
            });
            drop(rt);
            // Freed, and the lane, the last holder of its shared state, gone.
            let done = || ended.load(SEQ) == 1 && weak.strong_count() + shared.strong_count() == 0;
            let deadline = Instant::now() + Duration::from_secs(2);
            while !done() && Instant::now() < deadline {
                std::thread::sleep(MS);
            }
            assert!(done(), "by shutdown: {by_shutdown}");
        }
    }

    #[test]
    fn saturated_duration_is_counted_not_silent() {
        let rt = start(100 * MS);
        let before = saturations();
        // Duration::MAX in ns overflows u64; the clamp must be audible.
        let h = rt.schedule_in(Duration::MAX, |_| {});
        assert!(saturations() > before, "saturation left no trace");
        // The event is pinned at the far future, not lost or due now.
        assert_eq!(rt.run_pending(), 0);
        assert!(rt.cancel(h));
        rt.shutdown();
    }

    #[test]
    fn saturated_period_never_fires_and_never_panics() {
        let rt = start(MS);
        let before = saturations();
        let count = Arc::new(AtomicU32::new(0));
        let handler = |count: &Arc<AtomicU32>| {
            let count = Arc::clone(count);
            move |_: &RtSoftTimers| {
                count.fetch_add(1, SEQ);
                true
            }
        };
        // Period and first deadline both pin at u64::MAX ns: the
        // unchecked `now + period` this replaces overflowed here.
        let forever = rt.schedule_every(Duration::MAX, handler(&count));
        assert!(saturations() > before, "saturated period left no trace");
        std::thread::sleep(3 * MS);
        assert_eq!(rt.run_pending(), 0);
        assert_eq!((count.load(SEQ), rt.pending()), (0, 1));
        forever.cancel();
        // The runtime is intact: an ordinary periodic fires and cancels.
        let periodic = rt.schedule_every(100 * US, handler(&count));
        wait(&rt, MS, false, || count.load(SEQ) >= 3);
        assert!(count.load(SEQ) >= 3, "{}", count.load(SEQ));
        periodic.cancel();
        wait(&rt, MS, false, || rt.pending() == 1);
        assert_eq!(rt.pending(), 1, "only the end-of-time event is left");
        rt.shutdown();
    }

    #[test]
    fn saturation_emits_trace_counter_when_session_active() {
        let session = st_trace::TraceSession::start(st_trace::TraceConfig::default());
        let rt = start(100 * MS);
        let h = rt.schedule_in(Duration::MAX, |_| {});
        rt.cancel(h);
        rt.shutdown();
        let snapshot = session.finish();
        assert!(
            snapshot.counter("rt.time_saturations") >= 1,
            "no rt.time_saturations counter recorded"
        );
    }

    #[test]
    fn reports_paper_api_values() {
        let rt = RtSoftTimers::start(RtConfig::default());
        assert_eq!(rt.measure_resolution(), 1_000_000_000);
        assert_eq!(rt.interrupt_clock_resolution(), 1_000);
        let t1 = rt.measure_time();
        std::thread::sleep(MS);
        let t2 = rt.measure_time();
        assert!(t2 > t1);
        rt.shutdown();
    }

    #[test]
    fn idle_run_pending_never_reaches_poll() {
        // A backup period longer than the test: no sweep adds a check.
        let rt = start(Duration::from_secs(60));
        let h = rt.schedule_in(Duration::from_secs(3_600), |_| {});
        let checks = rt.stats().checks;
        for _ in 0..10_000 {
            assert_eq!(rt.run_pending(), 0);
        }
        assert_eq!(rt.stats().checks, checks, "a not-due check took the lock");
        assert!(rt.cancel(h));
        rt.shutdown();
    }

    #[test]
    fn a_near_event_from_another_thread_lowers_the_cached_earliest() {
        let rt = start(Duration::from_secs(60));
        rt.schedule_in(Duration::from_secs(3_600), |_| {});
        assert_eq!(rt.run_pending(), 0, "the far deadline is cached");
        let fired = Arc::new(AtomicU32::new(0));
        let scheduler = {
            let (rt, handler) = (Arc::clone(&rt), bump(&fired));
            std::thread::spawn(move || rt.schedule_in(200 * US, handler))
        };
        scheduler.join().expect("scheduling thread panicked");
        // That thread's hold of the core republished the earliest
        // deadline, so the lock-free check on this one sees the near event
        // as soon as the clock passes it; nothing else would fire it.
        let due = rt.measure_time() + nanos(200 * US) + 1;
        spin(|| rt.measure_time(), |now| now >= due);
        assert_eq!(rt.run_pending(), 1);
        assert_eq!(fired.load(SEQ), 1);
        rt.shutdown();
    }

    #[test]
    fn panicking_periodic_is_counted_and_keeps_firing() {
        let rt = start(200 * MS);
        let count = Arc::new(AtomicU32::new(0));
        let c = count.clone();
        let periodic = rt.schedule_every(100 * US, move |_| {
            if c.fetch_add(1, SEQ) == 0 {
                panic!("hostile, once");
            }
            true
        });
        wait(&rt, 100 * US, true, || count.load(SEQ) >= 4);
        assert!(count.load(SEQ) >= 4, "the panic took the timer down");
        assert_eq!(rt.handler_panics(), 1);
        assert_eq!(rt.stats().handler_panics, 1);
        periodic.cancel();
        rt.shutdown();
    }
}
