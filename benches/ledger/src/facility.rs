//! The two closed-loop facility workloads, `rearm_16k` and `cancel_16k`,
//! with the oracle that checks every fire and every cancel.
//!
//! Both run `SoftTimerCore<u64>` in virtual time from one thread. The
//! drivers are generic over the timer queue so the traced run can wrap
//! the production queue in `Timed<Q>` and the self-test can plant a
//! broken one; the run that produces the end-to-end metrics uses
//! `SoftTimerCore::new`, exactly what every embedding constructs.

use std::rc::Rc;

use st_core::{Config, Expired, SoftTimerCore};
use st_stats::HdrHistogram;
use st_wheel::{TimerHandle, TimerQueue};

use crate::gen::{
    CancelInput, RearmInput, CANCEL_DELTA, CANCEL_TICKS_PER_OP, FLOWS, REARM_PERIOD,
    REARM_POLL_STEP,
};
use crate::span::{Clock, Probe, SpanName};
use crate::{quietest_high, quietest_low, Measured};

/// The measured box is cut into sub-windows of about this length and a
/// metric is read from the quietest one (see [`quietest_low`]), so
/// disturbed ones do not move it. 200 ms is two turns of `rearm_16k`'s
/// whole population and 2 500 clocked batches of `cancel_16k`, so every
/// window holds the same mix of work, and it is short beside the stretches
/// in which this machine's shared cache is busy with its neighbours: in a
/// box whose median window ran 1.4x slow, 25 windows in a row still ran at
/// full speed.
pub const WINDOW_NS: u64 = 200_000_000;

/// A box shorter than this many windows is cut into this many.
pub const MIN_WINDOWS: u64 = 8;

/// `SoftTimerCore<P, Q>` names its queue type through this, so the
/// benchmark reaches the production queue without naming it:
/// `DefaultQueue<P>` is whatever `SoftTimerCore<P>` defaults `Q` to.
pub trait QueueOf {
    type Q;
}

impl<P, Q: TimerQueue<P>> QueueOf for SoftTimerCore<P, Q> {
    type Q = Q;
}

/// The queue every embedding of the facility runs on.
pub type DefaultQueue<P> = <SoftTimerCore<P> as QueueOf>::Q;

/// What the oracle caught, by kind. Failures are counted, never dropped.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Failures {
    /// `fired_at < due`.
    pub early: u64,
    /// Fired a whole poll step or more after its due tick.
    pub late: u64,
    /// A batch not in deadline order.
    pub out_of_order: u64,
    /// A fire whose due tick is not the one the flow's live timer holds:
    /// a cancelled or duplicated generation.
    pub wrong_generation: u64,
    /// `cancel` returned `None` (or another flow) for a live handle.
    pub cancel_missed: u64,
    /// `pending()` short of (or beyond) the flow count at the end.
    pub lost: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.early
            + self.late
            + self.out_of_order
            + self.wrong_generation
            + self.cancel_missed
            + self.lost
    }

    /// Checks one poll's batch against the due tick each flow holds.
    fn check_batch(&mut self, batch: &[Expired<u64>], due: &[u64], max_delay: u64) {
        let mut prev_due = 0;
        for e in batch {
            if e.fired_at < e.due {
                self.early += 1;
            } else if e.fired_at - e.due >= max_delay {
                self.late += 1;
            }
            if e.due < prev_due {
                self.out_of_order += 1;
            }
            prev_due = e.due;
            let flow = usize::try_from(e.payload).unwrap_or(usize::MAX);
            if due.get(flow) != Some(&e.due) {
                self.wrong_generation += 1;
            }
        }
    }

    fn check_pending(&mut self, pending: usize) {
        self.lost += u64::try_from(pending.abs_diff(FLOWS)).unwrap_or(u64::MAX);
    }
}

/// A workload the box runner can drive.
pub trait Stepper {
    /// Steps between two clock reads (a clock read costs more than some
    /// of the operations, so it is taken at most once per 64 of them).
    const STEPS_PER_BATCH: u64;
    /// One operation.
    fn step(&mut self);
    /// Work units done so far (the numerator of `ops_per_s`).
    fn work(&self) -> u64;
    /// Closes the books: what the oracle caught, and how many operations
    /// it checked.
    fn finish(self) -> (Failures, u64);
}

/// `rearm_16k`: every flow holds one periodic pacer timer; a poll every
/// 20 ticks, every fire re-armed drift-free with seeded jitter.
pub struct Rearm<Q: TimerQueue<u64>, T: Probe> {
    core: SoftTimerCore<u64, Q>,
    probe: T,
    input: Rc<RearmInput>,
    now: u64,
    /// Due tick of each flow's live timer.
    due: Vec<u64>,
    jitter_at: usize,
    out: Vec<Expired<u64>>,
    pub fires: u64,
    pub fails: Failures,
}

impl<Q: TimerQueue<u64>, T: Probe> Rearm<Q, T> {
    /// Arms every flow at its seeded phase, then runs one full period, so
    /// every timer has fired and been re-armed once and every slot of the
    /// queue has reached its working size before the box opens. (Arming
    /// alone is ~2 ms of mostly page faults, which doubles when the
    /// machine is busy; with the warm period `setup_s` is ~0.1 s of the
    /// workload's own work and as steady as the workload.)
    pub fn arm(mut core: SoftTimerCore<u64, Q>, probe: T, input: Rc<RearmInput>) -> Self {
        let mut due = Vec::with_capacity(FLOWS);
        for (flow, &phase) in input.phases.iter().enumerate() {
            // `schedule(now, delta)` arms deadline `now + delta + 1`.
            core.schedule(0, phase - 1, flow as u64);
            due.push(phase);
        }
        let mut w = Rearm {
            core,
            probe,
            input,
            now: 0,
            due,
            jitter_at: 0,
            out: Vec::with_capacity(64),
            fires: 0,
            fails: Failures::default(),
        };
        for _ in 0..REARM_PERIOD / REARM_POLL_STEP {
            w.step();
        }
        w
    }
}

impl<Q: TimerQueue<u64>, T: Probe> Stepper for Rearm<Q, T> {
    /// ~10 fires and as many re-arms per poll step, so four steps are at
    /// least 64 facility operations.
    const STEPS_PER_BATCH: u64 = 4;

    fn step(&mut self) {
        self.now += REARM_POLL_STEP;
        self.probe.begin_op();
        self.out.clear();
        self.probe.begin(SpanName::CorePoll);
        self.core.poll(self.now, &mut self.out);
        self.probe.end();
        self.fails
            .check_batch(&self.out, &self.due, REARM_POLL_STEP);
        for i in 0..self.out.len() {
            let (flow, due) = (self.out[i].payload, self.out[i].due);
            let jitter = self.input.jitter[self.jitter_at];
            self.jitter_at = (self.jitter_at + 1) % self.input.jitter.len();
            // Drift-free: the next due tick counts from the previous due
            // tick, not from when the fire was noticed.
            let next = (due + REARM_PERIOD).saturating_add_signed(jitter);
            self.probe.begin(SpanName::CoreSchedule);
            self.core.schedule(self.now, next - self.now - 1, flow);
            self.probe.end();
            if let Some(slot) = self.due.get_mut(flow as usize) {
                *slot = next;
            }
        }
        self.fires += self.out.len() as u64;
    }

    fn work(&self) -> u64 {
        self.fires
    }

    fn finish(mut self) -> (Failures, u64) {
        self.fails.check_pending(self.core.pending());
        (self.fails, self.fires)
    }
}

/// `cancel_16k`: every flow holds a retransmission timer; each operation
/// cancels one seeded flow's timer and schedules a new one, then polls.
/// Expiry is rare (~2 % of timers).
pub struct Cancel<Q: TimerQueue<u64>, T: Probe> {
    core: SoftTimerCore<u64, Q>,
    probe: T,
    input: Rc<CancelInput>,
    now: u64,
    handles: Vec<TimerHandle>,
    due: Vec<u64>,
    pick_at: usize,
    out: Vec<Expired<u64>>,
    pub ops: u64,
    pub fires: u64,
    pub fails: Failures,
}

impl<Q: TimerQueue<u64>, T: Probe> Cancel<Q, T> {
    /// Arms every flow, then runs [`CANCEL_WARM_OPS`] operations so the
    /// seeded first deltas have all given way to the steady pattern.
    pub fn arm(mut core: SoftTimerCore<u64, Q>, probe: T, input: Rc<CancelInput>) -> Self {
        let mut handles = Vec::with_capacity(FLOWS);
        let mut due = Vec::with_capacity(FLOWS);
        for (flow, &delta) in input.first_delta.iter().enumerate() {
            handles.push(core.schedule(0, delta, flow as u64));
            due.push(delta + 1);
        }
        let mut w = Cancel {
            core,
            probe,
            input,
            now: 0,
            handles,
            due,
            pick_at: 0,
            out: Vec::with_capacity(16),
            ops: 0,
            fires: 0,
            fails: Failures::default(),
        };
        for _ in 0..CANCEL_WARM_OPS {
            w.step();
        }
        w
    }

    fn rearm(&mut self, flow: usize) {
        self.probe.begin(SpanName::CoreSchedule);
        self.handles[flow] = self.core.schedule(self.now, CANCEL_DELTA, flow as u64);
        self.probe.end();
        self.due[flow] = self.now + CANCEL_DELTA + 1;
    }
}

impl<Q: TimerQueue<u64>, T: Probe> Stepper for Cancel<Q, T> {
    const STEPS_PER_BATCH: u64 = 64;

    fn step(&mut self) {
        self.now += CANCEL_TICKS_PER_OP;
        self.probe.begin_op();
        let flow = self.input.picks[self.pick_at] as usize;
        self.pick_at = (self.pick_at + 1) % self.input.picks.len();
        self.probe.begin(SpanName::CoreCancel);
        let got = self.core.cancel(self.handles[flow]);
        self.probe.end();
        if got != Some(flow as u64) {
            self.fails.cancel_missed += 1;
        }
        self.rearm(flow);
        self.out.clear();
        self.probe.begin(SpanName::CorePoll);
        self.core.poll(self.now, &mut self.out);
        self.probe.end();
        self.fails
            .check_batch(&self.out, &self.due, CANCEL_TICKS_PER_OP);
        for i in 0..self.out.len() {
            // A fire of a generation the driver does not hold was counted
            // above; re-arming it would double-arm the flow.
            let (fired, due) = (self.out[i].payload as usize, self.out[i].due);
            if self.due.get(fired) == Some(&due) {
                self.rearm(fired);
            }
        }
        self.fires += self.out.len() as u64;
        self.ops += 1;
    }

    fn work(&self) -> u64 {
        self.ops
    }

    fn finish(mut self) -> (Failures, u64) {
        self.fails.check_pending(self.core.pending());
        (self.fails, self.ops + self.fires)
    }
}

/// The production facility, as every embedding builds it.
pub fn production_core() -> SoftTimerCore<u64> {
    SoftTimerCore::new(Config::default())
}

/// What one measured box saw, window by window.
pub struct BoxRun {
    /// `(work units, wall ns)` of each window.
    pub windows: Vec<(u64, u64)>,
    /// Median wall ns of a clocked batch, per window.
    pub batch_p50_ns: Vec<f64>,
    pub steps_per_batch: u64,
    pub steps: u64,
    pub wall_ns: u64,
}

/// Steps `w` for `box_ns`, reading the clock once per batch of steps.
pub fn run_box<W: Stepper>(clock: Clock, w: &mut W, box_ns: u64) -> BoxRun {
    let steps_per_batch = W::STEPS_PER_BATCH;
    let count = (box_ns / WINDOW_NS).max(MIN_WINDOWS);
    let window_ns = (box_ns / count).max(1);
    let mut windows = Vec::with_capacity(count as usize);
    let mut batch_p50_ns = Vec::with_capacity(count as usize);
    let start = clock.now_ns();
    let mut steps = 0;
    let mut last = start;
    // A window runs for `window_ns` by its own start, not to a mark on the
    // box's schedule: after a stall longer than a window (the hypervisor
    // takes seconds, now and then) the windows behind the marks it jumped
    // would hold one batch each, and the quietest of those is whichever
    // batch had the least to do.
    while last - start < box_ns {
        let (t0, work0) = (last, w.work());
        let mut hist = HdrHistogram::new(10);
        loop {
            for _ in 0..steps_per_batch {
                w.step();
            }
            steps += steps_per_batch;
            let t = clock.now_ns();
            hist.record(t - last);
            last = t;
            if t - t0 >= window_ns {
                break;
            }
        }
        windows.push((w.work() - work0, last - t0));
        batch_p50_ns.push(hist.quantile(0.5).unwrap_or(0) as f64);
    }
    BoxRun {
        windows,
        batch_p50_ns,
        steps_per_batch,
        steps,
        wall_ns: last - start,
    }
}

impl BoxRun {
    /// Folds the windows into the end-to-end figures. Latency is wall ns
    /// per step, from whole clocked batches.
    pub fn measured(&self, attempted: u64, failed: u64) -> Measured {
        let rate: Vec<f64> = self
            .windows
            .iter()
            .map(|&(work, ns)| work as f64 * 1e9 / ns.max(1) as f64)
            .collect();
        Measured {
            ops_per_s: quietest_high(&rate),
            lat_p50_ns: quietest_low(&self.batch_p50_ns) / self.steps_per_batch as f64,
            attempted,
            failed,
        }
    }

    /// Wall ns per step over the whole box.
    pub fn ns_per_step(&self) -> f64 {
        self.wall_ns as f64 / self.steps.max(1) as f64
    }
}

/// Operations `cancel_16k` runs while it sets up.
pub const CANCEL_WARM_OPS: u64 = 100_000;

/// Measures an armed workload for `box_ns` and closes its books.
pub fn measure<W: Stepper>(clock: Clock, mut w: W, box_ns: u64) -> (BoxRun, Failures, u64) {
    let run = run_box(clock, &mut w, box_ns);
    let (fails, attempted) = w.finish();
    (run, fails, attempted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::NoProbe;
    use st_wheel::HeapQueue;

    /// A deliberately broken queue: drops every 1 000th `schedule` and
    /// fires one cancelled timer. The oracle must catch both.
    struct Broken<Q> {
        inner: Q,
        /// Schedules left until the next dropped one.
        until_drop: u64,
        /// Cancels left until one is re-armed behind the driver's back.
        until_resurrect: u64,
    }

    impl<Q: TimerQueue<u64>> Broken<Q> {
        fn new(inner: Q) -> Self {
            Broken {
                inner,
                until_drop: 1_000,
                until_resurrect: 500,
            }
        }
    }

    impl<Q: TimerQueue<u64>> TimerQueue<u64> for Broken<Q> {
        fn schedule(&mut self, deadline: u64, payload: u64) -> TimerHandle {
            let h = self.inner.schedule(deadline, payload);
            self.until_drop -= 1;
            if self.until_drop == 0 {
                // The handle looks live to the caller; the timer is gone.
                self.inner.cancel(h);
                self.until_drop = 1_000;
            }
            h
        }

        fn cancel(&mut self, handle: TimerHandle) -> Option<u64> {
            let p = self.inner.cancel(handle);
            self.until_resurrect = self.until_resurrect.saturating_sub(1);
            if let (1, Some(flow)) = (self.until_resurrect, p) {
                // Fires although the caller cancelled it.
                self.inner.schedule(0, flow);
            }
            p
        }

        fn advance(&mut self, now: u64, out: &mut Vec<(u64, u64)>) {
            self.inner.advance(now, out);
        }

        fn next_deadline(&self) -> Option<u64> {
            self.inner.next_deadline()
        }

        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    fn core_over<Q: TimerQueue<u64>>(q: Q) -> SoftTimerCore<u64, Q> {
        SoftTimerCore::with_queue(Config::default(), q)
    }

    const STEPS: usize = 40_000;

    #[test]
    fn healthy_queue_gives_exactly_zero_failures_on_rearm() {
        let input = Rc::new(RearmInput::generate(11));
        let mut w = Rearm::arm(production_core(), NoProbe, input);
        for _ in 0..STEPS {
            w.step();
        }
        assert!(w.fires > 100_000, "only {} fires", w.fires);
        let (fails, _) = w.finish();
        assert_eq!(fails, Failures::default());
    }

    #[test]
    fn healthy_queue_gives_exactly_zero_failures_on_cancel() {
        let input = Rc::new(CancelInput::generate(11));
        let mut w = Cancel::arm(production_core(), NoProbe, input);
        for _ in 0..10 * STEPS {
            w.step();
        }
        assert!(w.fires > 1_000, "only {} fires", w.fires);
        let (fails, _) = w.finish();
        assert_eq!(fails, Failures::default());
    }

    #[test]
    fn heap_oracle_agrees_with_the_production_queue() {
        let input = Rc::new(RearmInput::generate(5));
        let mut a = Rearm::arm(production_core(), NoProbe, input.clone());
        let mut b = Rearm::arm(core_over(HeapQueue::new()), NoProbe, input);
        for _ in 0..STEPS {
            a.step();
            b.step();
        }
        assert_eq!(a.fires, b.fires);
        assert_eq!(a.due, b.due);
    }

    #[test]
    fn broken_queue_drives_fail_ratio_above_zero_on_rearm() {
        let input = Rc::new(RearmInput::generate(11));
        let q = Broken::new(DefaultQueue::<u64>::default());
        let mut w = Rearm::arm(core_over(q), NoProbe, input);
        for _ in 0..STEPS {
            w.step();
        }
        let (fails, attempted) = w.finish();
        assert!(fails.lost > 0, "dropped schedules must show as lost timers");
        assert!(fails.total() > 0 && attempted > 0);
    }

    #[test]
    fn broken_queue_drives_fail_ratio_above_zero_on_cancel() {
        let input = Rc::new(CancelInput::generate(11));
        let q = Broken::new(DefaultQueue::<u64>::default());
        let mut w = Cancel::arm(core_over(q), NoProbe, input);
        for _ in 0..10 * STEPS {
            w.step();
        }
        let (fails, _) = w.finish();
        assert!(
            fails.cancel_missed > 0,
            "a dropped schedule must show when its handle is cancelled"
        );
        assert!(
            fails.wrong_generation > 0,
            "the resurrected timer must show as a cancelled generation firing"
        );
    }

    #[test]
    fn flows_are_never_double_armed() {
        // By the driver's books every flow holds exactly one live timer
        // after every step: pending() stays at the flow count.
        let mut r = Rearm::arm(production_core(), NoProbe, Rc::new(RearmInput::generate(2)));
        let mut c = Cancel::arm(
            production_core(),
            NoProbe,
            Rc::new(CancelInput::generate(2)),
        );
        for _ in 0..5_000 {
            r.step();
            c.step();
            assert_eq!(r.core.pending(), FLOWS);
            assert_eq!(c.core.pending(), FLOWS);
        }
    }

    #[test]
    fn box_runner_fills_every_window() {
        let clock = Clock::start();
        let input = Rc::new(CancelInput::generate(1));
        let mut w = Cancel::arm(production_core(), NoProbe, input);
        let run = run_box(clock, &mut w, 50_000_000);
        assert!((1..=MIN_WINDOWS).contains(&(run.windows.len() as u64)));
        assert_eq!(run.batch_p50_ns.len(), run.windows.len());
        assert!(run.windows.iter().all(|w| w.1 >= 50_000_000 / MIN_WINDOWS));
        assert!(run.windows.iter().all(|&(work, ns)| work > 0 && ns > 0));
        assert_eq!(
            run.windows.iter().map(|w| w.0).sum::<u64>() + CANCEL_WARM_OPS,
            w.ops,
            "windows partition the measured work"
        );
        let m = run.measured(1, 0);
        assert!(m.ops_per_s > 0.0 && m.lat_p50_ns > 0.0);
    }
}
