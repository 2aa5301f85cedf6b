//! Host runtime: `SoftTimerCore` on OS threads with real trigger states.
//!
//! The paper instruments kernel trigger states (syscall returns, trap
//! returns, the idle loop) and reports how often they occur and how late
//! soft-timer events fire through them (Tables 1-2). Userspace has no trap
//! returns, but an event-driven server has the same structure: a worker
//! pool whose **task-return points** are its syscall-return shims, plus an
//! **idle thread** polling the facility in a tight loop, plus a periodic
//! **backup sweep** lane playing the hardware interrupt. This module
//! runs the *same* `SoftTimerCore` the simulator uses over those three
//! real trigger sources and measures, in wall-clock nanoseconds:
//!
//! - the trigger-*interval* distribution per source (the paper's Table 1),
//! - the fire-*delay* distribution per fire origin (the paper's Table 2),
//! - the share of fires rescued by the backup sweep, and
//! - the facility's in-situ CPU fraction (check + dispatch time over busy
//!   thread time).
//!
//! All distributions are [`HdrHistogram`]s: host spans cover ~20 ns checks
//! to ~10 ms scheduler stalls, far beyond what the simulator's linear tick
//! histograms represent.
//!
//! The lanes share the core through `crate::shared`: a check that finds
//! nothing due is one clock read plus one compare and takes no lock, and
//! every visit to the core is one *hold* — lock, one clock reading, re-arm
//! the batch before, poll the next: two per batch for a worker or a sweep,
//! one per batch for the idle lane while batches keep coming — each handler
//! in between a procedure call on lane-local state.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use st_core::{Expired, FireOrigin};
use st_stats::HdrHistogram;
use st_trace::json::ObjectBuilder;

use crate::chaos::{ChaosState, FaultClock};
use crate::clock::{nanos, spin};
use crate::guard::Heartbeat;
pub use crate::shared::lock_recoveries;
use crate::shared::{Periodic, SharedCore};

/// Sub-bucket bits of every [`HdrHistogram`] this crate records into:
/// 7 bounds the relative error at ~1.6 %.
pub(crate) const SUB_BUCKET_BITS: u32 = 7;

/// A kind of lane thread, which is also a real trigger source: what the
/// lane table launches, the supervisor watches and the report is split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneClass {
    /// A worker running the synthetic task loop; each task return is a
    /// trigger state — the syscall-return shim.
    Worker,
    /// The dedicated polling thread — the kernel idle loop, and the
    /// trigger stream whose starvation makes the supervisor degrade.
    IdlePoll,
    /// The periodic sweep thread — the backup hardware interrupt.
    Backup,
}

impl LaneClass {
    /// Stable lowercase name of the trigger source, used in JSON, metric
    /// keys and the lane's thread name.
    pub fn name(self) -> &'static str {
        match self {
            LaneClass::Worker => "task_return",
            LaneClass::IdlePoll => "idle_poll",
            LaneClass::Backup => "backup_sweep",
        }
    }
}

/// The lane layout of a host configuration: workers, then the idle
/// poller (when configured), then the backup sweep. The one place that
/// decides which lanes exist — [`run`], `run_guarded` and the `rt_chaos`
/// sim twin all take it from here.
pub fn lane_classes(host: &HostConfig) -> Vec<LaneClass> {
    let mut classes: Vec<LaneClass> = vec![LaneClass::Worker; host.workers];
    if host.idle_poller {
        classes.push(LaneClass::IdlePoll);
    }
    classes.push(LaneClass::Backup);
    classes
}

/// Host runtime configuration.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Worker threads running the synthetic task loop.
    pub workers: usize,
    /// Wall-clock measurement duration.
    pub duration: Duration,
    /// Busy-work per synthetic task; the task-return trigger interval is
    /// roughly this plus one check. ~30 µs models the paper's server
    /// (Table 1 measures a 32-64 µs mean trigger interval under load).
    pub task_work: Duration,
    /// Whether to run the idle-loop polling thread.
    pub idle_poller: bool,
    /// Upper bound on the gap between idle checks (0 = check flat out), not
    /// their cadence: the idle lane waits on the earliest armed deadline and
    /// checks the moment it passes, or after this long with nothing due. A
    /// not-due check takes no lock, so the pause buys nothing on the core lock.
    pub idle_pause: Duration,
    /// Backup sweep period — the "hardware interrupt clock".
    pub backup_period: Duration,
    /// Periods of the periodic soft-timer events kept armed for the whole
    /// run (the measured workload; each firing is a real dispatch).
    pub timer_periods: Vec<Duration>,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            workers: 2,
            duration: Duration::from_millis(300),
            task_work: Duration::from_micros(30),
            idle_poller: true,
            idle_pause: Duration::from_micros(1),
            backup_period: Duration::from_millis(1),
            timer_periods: vec![
                Duration::from_micros(100),
                Duration::from_micros(500),
                Duration::from_millis(1),
                Duration::from_millis(5),
            ],
        }
    }
}

/// A periodic event armed in the host core; the payload carries what the
/// re-arm pass needs to reschedule it drift-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PeriodicEvent {
    pub(crate) period_ns: u64,
}

impl Periodic for PeriodicEvent {
    fn period_ns(&self) -> Option<u64> {
        Some(self.period_ns)
    }
}

/// Per-origin fire accounting of one lane thread, carried in its
/// [`ThreadOut`]: a saturated lane fires millions of events a second, so
/// recording one must not synchronise with anything. The lanes'
/// accumulators are merged when the run is reported.
pub(crate) struct FireAccum {
    pub(crate) trigger_delay: HdrHistogram,
    pub(crate) backup_delay: HdrHistogram,
    pub(crate) handler_runs: u64,
    /// Fire delays recorded while the supervisor held the runtime in
    /// degraded mode — the population the predicted envelope bounds.
    pub(crate) degraded_delay: HdrHistogram,
}

impl FireAccum {
    pub(crate) fn new() -> Self {
        FireAccum {
            trigger_delay: HdrHistogram::new(SUB_BUCKET_BITS),
            backup_delay: HdrHistogram::new(SUB_BUCKET_BITS),
            handler_runs: 0,
            degraded_delay: HdrHistogram::new(SUB_BUCKET_BITS),
        }
    }
}

/// What a lane table carries: [`run`]'s [`PeriodicEvent`] or
/// `RtSoftTimers`' boxed closures, each monomorphised into its own lanes.
pub(crate) trait Payload: Periodic + Send + Sized + 'static {
    /// What every handler of the runtime reads, kept in [`Shared::ctx`].
    type Ctx: Send + Sync;
    /// The handler of one fired event, run on the dispatching thread with
    /// nothing locked; accounts the fire in that lane's `acc`.
    fn run(ev: &mut Expired<Self>, shared: &Shared<Self>, acc: &mut FireAccum);
}

pub(crate) struct Shared<P: Payload = PeriodicEvent> {
    /// The facility every lane checks, reached only through
    /// [`SharedCore`]'s guard and its cached earliest-deadline word.
    pub(crate) core: SharedCore<P>,
    /// Host clock; healthy runs use [`FaultClock::healthy`], which reads
    /// the raw clock plus one relaxed load.
    pub(crate) clock: FaultClock,
    pub(crate) stop: AtomicBool,
    /// Backup-sweep period the backup lane re-reads every cycle; the
    /// supervisor tightens it while degraded and restores on recovery.
    pub(crate) backup_period_ns: AtomicU64,
    /// Whether the supervisor currently holds the runtime in degraded
    /// mode (fires also recorded into `FireAccum::degraded_delay`).
    pub(crate) degraded: AtomicBool,
    /// What the payload's handlers run against: for [`run`]'s, the
    /// panic-injection decisions of a chaos run (`None` on healthy runs).
    pub(crate) ctx: P::Ctx,
}

impl<P: Payload> Shared<P> {
    /// The shared runtime state with nothing armed and a backup sweep every
    /// `config.backup_period`.
    pub(crate) fn new(config: &HostConfig, clock: FaultClock, ctx: P::Ctx) -> Arc<Self> {
        let backup_period_ns = nanos(config.backup_period).max(1);
        Arc::new(Shared {
            core: SharedCore::new(backup_period_ns),
            clock,
            stop: AtomicBool::new(false),
            backup_period_ns: AtomicU64::new(backup_period_ns),
            degraded: AtomicBool::new(false),
            ctx,
        })
    }
}

impl Shared {
    /// Builds the shared runtime state with the periodic workload armed,
    /// ready for lanes to start measuring. Healthy runs pass
    /// [`FaultClock::healthy`] and no chaos state.
    pub(crate) fn build(
        config: &HostConfig,
        clock: FaultClock,
        chaos: Option<ChaosState>,
    ) -> Arc<Shared> {
        let shared = Shared::new(config, clock, chaos);
        // Arm the periodic workload before any thread starts measuring.
        {
            let mut core = shared.core.lock();
            let now = shared.clock.now_ns();
            for period in &config.timer_periods {
                let period_ns = nanos(*period).max(1);
                core.schedule(
                    now,
                    period_ns.saturating_sub(1),
                    PeriodicEvent { period_ns },
                );
            }
        }
        shared
    }
}

/// What one lane thread (worker, idle poller or backup sweep) brings home.
pub(crate) struct ThreadOut {
    pub(crate) intervals: HdrHistogram,
    /// Wall-clock cost of each individual trigger check or sweep (ns),
    /// including the batch it fired — the in-situ counterpart of the probe's
    /// uncontended check cost. Its `count()` is the lane's checks, its exact
    /// `sum()` the lane's facility time.
    pub(crate) check_ns: HdrHistogram,
    pub(crate) busy_ns: u64,
    /// Every fire this thread dispatched.
    pub(crate) fires: FireAccum,
}

impl ThreadOut {
    fn empty() -> Self {
        ThreadOut {
            intervals: HdrHistogram::new(SUB_BUCKET_BITS),
            check_ns: HdrHistogram::new(SUB_BUCKET_BITS),
            busy_ns: 0,
            fires: FireAccum::new(),
        }
    }
}

/// Sum of a cost histogram excluding samples at or above the p99.9
/// cutoff. On an oversubscribed host (this container has two cores for
/// four runtime threads) a scheduler preemption landing inside the
/// measured window adds *milliseconds* to a ~100 ns check; those few
/// windows would otherwise dominate the total and report scheduler
/// behaviour, not facility cost. Bucket midpoints keep the estimate
/// within the histogram's relative-error bound.
fn trimmed_sum_ns(h: &HdrHistogram) -> u64 {
    let Some(cutoff) = h.quantile(0.999) else {
        return 0;
    };
    let mut sum = 0u64;
    for (lo, hi, count) in h.buckets() {
        if lo > cutoff {
            continue;
        }
        let mid = lo / 2 + hi / 2;
        sum = sum.saturating_add(mid.saturating_mul(count));
    }
    sum
}

/// One trigger source's measured behaviour.
#[derive(Debug, Clone)]
pub struct SourceReport {
    /// Which source this is.
    pub source: LaneClass,
    /// Total trigger-state checks performed. On the idle lane one *round* —
    /// a poll, its batch, the hold that re-arms it — is one check.
    pub checks: u64,
    /// Checks per second of wall-clock run time.
    pub density_hz: f64,
    /// Distribution of intervals between the starts of consecutive checks
    /// (ns), merged across the source's threads (intervals are
    /// within-thread). A busy idle lane's rounds are back to back: the hold
    /// that closes one opens the next, and the interval is the round.
    pub intervals: HdrHistogram,
    /// Delays of the fires this source's own checks dispatched (ns): for the
    /// idle lane, what waiting on the deadline buys, whatever share of the
    /// fires the other lanes took while it was off its core.
    pub fire_delay_ns: HdrHistogram,
}

/// One fire origin's measured behaviour.
#[derive(Debug, Clone)]
pub struct FireReport {
    /// How many events fired through this origin.
    pub count: u64,
    /// Distribution of fire delays past the earliest legal tick (ns).
    pub delay_ns: HdrHistogram,
}

/// Everything the host runtime measured in one run.
#[derive(Debug, Clone)]
pub struct HostReport {
    /// Actual wall-clock duration of the measuring phase (ns).
    pub duration_ns: u64,
    /// Worker thread count.
    pub workers: usize,
    /// Task-return trigger source (always present).
    pub task_return: SourceReport,
    /// Idle-poll trigger source (when configured).
    pub idle_poll: Option<SourceReport>,
    /// Backup-sweep source.
    pub backup_sweep: SourceReport,
    /// Events fired from trigger-state checks.
    pub fired_trigger: FireReport,
    /// Events rescued by the backup sweep.
    pub fired_backup: FireReport,
    /// Handler bodies actually run.
    pub handler_runs: u64,
    /// Fraction of fires that needed the backup sweep.
    pub backup_share: f64,
    /// Per-check wall-clock cost distribution (ns) merged across worker
    /// and idle threads; dispatches performed by a check are included in
    /// its window (an idle-lane round runs from the reading that polled its
    /// batch to the reading that re-armed it). Compare its p50 against the
    /// probe's uncontended check cost to see what sharing the facility
    /// actually costs in situ.
    pub check_cost: HdrHistogram,
    /// Facility time (checks + dispatches) over busy thread time for the
    /// worker/idle threads — the soft-timer facility's in-situ CPU share.
    /// No gap between a busy idle lane's rounds lies outside a check window,
    /// so under load this approaches that lane's busy share of its time.
    /// Computed from the 99.9 %-trimmed check-cost sum so that scheduler
    /// preemptions landing inside a measured window (milliseconds against
    /// a ~100 ns check on this two-core container) do not masquerade as
    /// facility cost; the untrimmed value is
    /// [`facility_cpu_fraction_raw`](Self::facility_cpu_fraction_raw).
    pub facility_cpu_fraction: f64,
    /// Untrimmed facility fraction: every nanosecond between check start
    /// and check end, preemptions included. The gap between this and the
    /// trimmed value measures how much the host scheduler perturbs the
    /// measurement, not the facility.
    pub facility_cpu_fraction_raw: f64,
    /// Backup thread's facility time over the run duration — the cost the
    /// "hardware interrupt" side contributes, kept separate as the paper
    /// separates interrupt cost from trigger-state cost.
    pub backup_cpu_fraction: f64,
    /// Final facility statistics snapshot (tick units are nanoseconds).
    pub stats: st_core::FacilityStats,
}

/// The measured workload's handler accounts the fire in the lane's
/// accumulator and touches nothing shared but the `degraded` flag.
impl Payload for PeriodicEvent {
    type Ctx = Option<ChaosState>;

    fn run(ev: &mut Expired<Self>, shared: &Shared, acc: &mut FireAccum) {
        let delay = ev.delay();
        match ev.origin {
            FireOrigin::TriggerState => acc.trigger_delay.record(delay),
            FireOrigin::BackupInterrupt => acc.backup_delay.record(delay),
        }
        if shared.degraded.load(Ordering::Relaxed) {
            acc.degraded_delay.record(delay);
        }
        acc.handler_runs += 1;
        // Sealed telemetry: visible to a telemetry session on the
        // dispatching thread, a no-op otherwise (same contract as the sim).
        if st_trace::active() {
            st_trace::count("rt.host.fires", 1);
            st_trace::emit(
                st_trace::Category::Rt,
                "rt.host.fire",
                ev.fired_at,
                ev.due,
                delay,
            );
        }
        match ev.origin {
            FireOrigin::TriggerState => st_trace::fire_delay("rt.host.trigger", delay, 0),
            FireOrigin::BackupInterrupt => st_trace::fire_delay("rt.host.backup", delay, 0),
        }
        // The measured workload's real handler body is empty; a chaos run
        // makes some of them panic, last, so the fire is fully accounted. The
        // dispatch boundary in `fire_due` must contain that to the one fire —
        // not the lane, not the runtime.
        if shared.ctx.as_ref().is_some_and(ChaosState::should_panic) {
            panic!("injected handler panic (due {})", ev.due);
        }
    }
}

/// Per-lane-thread control block threaded through the measuring loops:
/// the heartbeat to beat, the generation cell that supersedes this thread
/// when the lane is restarted, and the chaos stall windows it must
/// execute. Built only by [`Lanes`]; an unsupervised [`run`] pays two
/// relaxed loads and one relaxed store per loop iteration for it.
pub(crate) struct LaneCtl {
    hb: Heartbeat,
    /// When the cell moves past `my_gen` a replacement lane thread is
    /// running and this one must exit.
    gen: Arc<AtomicU64>,
    my_gen: u64,
    /// Absolute `(at_ns, duration_ns)` stall windows, sorted ascending.
    stalls: Vec<(u64, u64)>,
    stall_idx: usize,
}

impl LaneCtl {
    /// True when this lane thread must exit: the run is stopping, or a
    /// replacement for it has been spawned.
    fn over<P: Payload>(&self, shared: &Shared<P>) -> bool {
        shared.stop.load(Ordering::Relaxed) || self.gen.load(Ordering::Relaxed) != self.my_gen
    }

    /// The length of the stall window due at `now`, if one is.
    fn stall_due(&self, now: u64) -> Option<u64> {
        let &(at, dur) = self.stalls.get(self.stall_idx)?;
        (now >= at).then_some(dur)
    }

    /// One loop-top bookkeeping step: beats the heartbeat with `now` (the
    /// lane's latest clock reading) and executes any due stall window as a
    /// spin that stop/supersede still end — the *heartbeat* is what goes
    /// silent, not the process. Returns `false` when the lane should exit.
    fn tick<P: Payload>(&mut self, shared: &Shared<P>, now: u64) -> bool {
        if self.over(shared) {
            return false;
        }
        self.hb.beat(now);
        if let Some(dur) = self.stall_due(now) {
            self.stall_idx += 1;
            let until = now.saturating_add(dur);
            spin(
                || shared.clock.now_ns(),
                |t| t >= until || self.over(shared),
            );
            return !self.over(shared);
        }
        true
    }

    /// The same step between two rounds of the idle lane, at the reading of
    /// the hold between them: beats the heartbeat; `false` when the lane
    /// must exit or a stall window is due — [`Self::tick`]'s to act on, once
    /// the batch in hand is armed and the lane carries nothing.
    fn go_on<P: Payload>(&self, shared: &Shared<P>, now: u64) -> bool {
        self.hb.beat(now);
        !self.over(shared) && self.stall_due(now).is_none()
    }
}

/// One trigger-state check of a lane at its clock reading `seen_ns`, or one
/// backup sweep (`None`): the shared [`SharedCore::fire_due`] pass on the
/// host clock, handlers run against the lane's `acc`. Returns how many fired.
pub(crate) fn trigger_check<P: Payload>(
    shared: &Shared<P>,
    seen_ns: Option<u64>,
    buf: &mut Vec<Expired<P>>,
    acc: &mut FireAccum,
) -> usize {
    let now_ns = || shared.clock.now_ns();
    let handler = |ev: &mut Expired<P>| P::run(ev, shared, acc);
    shared.core.fire_due(seen_ns, now_ns, buf, handler)
}

/// The measuring loop of every lane: reach a trigger state, run the check,
/// record its window and the interval from the start of the check before.
/// A worker gets there by finishing `wait_ns` of busy work, cut short by
/// stop / supersede but never by a deadline (that would be a hardware
/// timer, not a soft one); the backup lane by parking one sweep period
/// (re-read every cycle: the supervisor's retunes take effect at once),
/// unparked early by [`Lanes::join`] and then gone without a sweep: past
/// the stop, a sweep would only fire what the run no longer measures.
/// Both run one batch and read the clock to close the check. The idle lane
/// waits on the deadline word for at most `wait_ns` and runs rounds until
/// a poll comes back empty, each one check; the last hold's reading closes
/// the last round and is the first the next wait tests, so between a
/// deadline passing and its dispatch the clock is read once, under the lock.
fn lane_loop<P: Payload>(
    shared: &Shared<P>,
    class: LaneClass,
    wait_ns: u64,
    mut ctl: LaneCtl,
) -> ThreadOut {
    let mut out = ThreadOut::empty();
    let mut buf: Vec<Expired<P>> = Vec::new();
    let mut last_check: Option<u64> = None;
    // One check, `from` the reading that opened it `to` the one that closed it.
    let mut record = |from: u64, to: u64| {
        out.check_ns.record(to - from);
        if let Some(last) = last_check.replace(from) {
            out.intervals.record(from - last);
        }
    };
    let (core, clock) = (&shared.core, || shared.clock.now_ns());
    let started = clock();
    let mut now = started;
    while ctl.tick(shared, now) {
        let mut t0;
        let closed = match class {
            LaneClass::Worker => {
                let until = now.saturating_add(wait_ns);
                t0 = spin(clock, |t| t >= until || ctl.over(shared));
                trigger_check(shared, Some(t0), &mut buf, &mut out.fires);
                None
            }
            LaneClass::IdlePoll => {
                let pause_end = now.saturating_add(wait_ns);
                let over = |t| t >= pause_end || ctl.over(shared);
                t0 = core.wait_due(now, clock, over);
                let handler = |ev: &mut _| P::run(ev, shared, &mut out.fires);
                core.fire_rounds(t0, clock, &mut buf, handler, |hold_ns| {
                    record(std::mem::replace(&mut t0, hold_ns), hold_ns);
                    ctl.go_on(shared, hold_ns)
                })
            }
            LaneClass::Backup => {
                let period_ns = shared.backup_period_ns.load(Ordering::Relaxed);
                std::thread::park_timeout(Duration::from_nanos(period_ns));
                if ctl.over(shared) {
                    break;
                }
                t0 = clock();
                trigger_check(shared, None, &mut buf, &mut out.fires);
                None
            }
        };
        now = closed.unwrap_or_else(clock);
        record(t0, now);
    }
    out.busy_ns = now - started;
    out
}

/// One row of the lane table.
struct Lane {
    class: LaneClass,
    hb: Heartbeat,
    gen: Arc<AtomicU64>,
    /// Chaos stall windows still ahead of this lane.
    stalls: Vec<(u64, u64)>,
    /// One handle per generation: a superseded thread is joined with the
    /// rest, so what it fired before its restart still counts.
    handles: Vec<JoinHandle<ThreadOut>>,
}

/// The lane table: every lane thread of a run — which exist
/// ([`lane_classes`]), their heartbeats, generation cells, stall windows
/// and join handles. [`run`] launches it, sleeps, stops and joins;
/// `run_guarded` lends it to the supervisor thread in between;
/// `RtSoftTimers` keeps a backup lane alone in one until it ends.
pub(crate) struct Lanes<P: Payload = PeriodicEvent> {
    shared: Arc<Shared<P>>,
    work_ns: u64,
    pause_ns: u64,
    lanes: Vec<Lane>,
}

impl<P: Payload> Lanes<P> {
    /// Starts generation 0 of every lane `config` has. `stalls[i]` are
    /// lane `i`'s chaos stall windows (absent = none).
    pub(crate) fn launch(
        shared: &Arc<Shared<P>>,
        config: &HostConfig,
        mut stalls: Vec<Vec<(u64, u64)>>,
    ) -> Self {
        let classes = lane_classes(config);
        stalls.resize(classes.len(), Vec::new());
        let now = shared.clock.now_ns();
        let mut table = Lanes {
            shared: Arc::clone(shared),
            work_ns: nanos(config.task_work).max(1),
            pause_ns: nanos(config.idle_pause),
            lanes: classes
                .into_iter()
                .zip(stalls)
                .map(|(class, stalls)| Lane {
                    class,
                    hb: Heartbeat::starting_at(now),
                    gen: Arc::new(AtomicU64::new(0)),
                    stalls,
                    handles: Vec::new(),
                })
                .collect(),
        };
        for lane in 0..table.lanes.len() {
            table.spawn(lane);
        }
        table
    }

    /// Spawns a thread for the lane's current generation.
    fn spawn(&mut self, lane: usize) {
        let shared = Arc::clone(&self.shared);
        let l = &mut self.lanes[lane];
        let class = l.class;
        // What the lane waits out between checks: its task, or its pause.
        let wait_ns = match class {
            LaneClass::Worker => self.work_ns,
            _ => self.pause_ns,
        };
        let my_gen = l.gen.load(Ordering::Relaxed);
        let ctl = LaneCtl {
            hb: l.hb.clone(),
            gen: Arc::clone(&l.gen),
            my_gen,
            stalls: l.stalls.clone(),
            stall_idx: 0,
        };
        let handle = std::thread::Builder::new()
            .name(format!("st-rt-{}-g{my_gen}", class.name()))
            .spawn(move || lane_loop(&shared, class, wait_ns, ctl))
            // A host that cannot spawn threads cannot run the runtime
            // at all.
            .expect("failed to spawn lane thread");
        l.handles.push(handle);
    }

    /// Replaces a wedged lane thread: supersedes its generation, resets
    /// the heartbeat so the replacement gets a full stall window, and
    /// drops the stall windows already begun — the replacement models a
    /// fresh thread, not a re-wedged one.
    pub(crate) fn restart(&mut self, lane: usize, now: u64) {
        let l = &mut self.lanes[lane];
        l.gen.fetch_add(1, Ordering::Relaxed);
        l.hb.beat(now);
        l.stalls.retain(|&(at, _)| at > now);
        self.spawn(lane);
    }

    /// Each lane's last heartbeat, in lane order.
    pub(crate) fn last_beats(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.lanes.iter().map(|l| l.hb.last()));
    }

    /// Stops the run, then wakes and joins every thread of every
    /// generation but the calling one: a handler may end its runtime from
    /// the lane it runs on, which then leaves on its own. A lane thread
    /// that panicked, or the calling one, brings nothing home.
    pub(crate) fn join(self) -> Vec<(LaneClass, ThreadOut)> {
        self.shared.stop.store(true, Ordering::Relaxed);
        let me = std::thread::current().id();
        let mut outs = Vec::new();
        for lane in self.lanes {
            for handle in lane.handles {
                handle.thread().unpark();
                if handle.thread().id() == me {
                    continue;
                }
                if let Ok(out) = handle.join() {
                    outs.push((lane.class, out));
                }
            }
        }
        outs
    }
}

/// Runs the host runtime for `config.duration` and reports what the real
/// machine did. Spawns `workers + idle_poller + 1` threads and nothing
/// else (no supervisor: the heartbeats are beaten and never read); the
/// calling thread sleeps for the duration and then joins them.
pub fn run(config: &HostConfig) -> HostReport {
    let shared = Shared::build(config, FaultClock::healthy(), None);
    let lanes = Lanes::launch(&shared, config, Vec::new());

    let started = shared.clock.now_ns();
    std::thread::sleep(config.duration);
    let duration_ns = (shared.clock.now_ns() - started).max(1);

    finish_report(&shared, config.workers, duration_ns, lanes.join())
}

/// Folds the per-thread measurements into a [`HostReport`]. A supervised
/// run hands in several [`ThreadOut`]s per lane (one per restart
/// generation); they merge the same way one does.
pub(crate) fn finish_report(
    shared: &Shared,
    workers: usize,
    duration_ns: u64,
    outs: Vec<(LaneClass, ThreadOut)>,
) -> HostReport {
    let of = |class: LaneClass| outs.iter().filter(move |(c, _)| *c == class);
    let source_report = |class: LaneClass| {
        let mut report = SourceReport {
            source: class,
            checks: 0,
            density_hz: 0.0,
            intervals: HdrHistogram::new(SUB_BUCKET_BITS),
            fire_delay_ns: HdrHistogram::new(SUB_BUCKET_BITS),
        };
        for (_, out) in of(class) {
            report.checks += out.check_ns.count();
            report.intervals.merge(&out.intervals);
            report.fire_delay_ns.merge(&out.fires.trigger_delay);
            report.fire_delay_ns.merge(&out.fires.backup_delay);
        }
        report.density_hz = report.checks as f64 / (duration_ns as f64 / 1e9);
        report
    };
    // Exact: a histogram's `sum()` is the sum of what was recorded into it.
    let facility_ns = |out: &ThreadOut| u64::try_from(out.check_ns.sum()).unwrap_or(u64::MAX);
    let backup_facility_ns: u64 = of(LaneClass::Backup).map(|(_, out)| facility_ns(out)).sum();

    let mut facility_ns_total = 0u64;
    let mut busy_ns_total = 0u64;
    let mut check_cost = HdrHistogram::new(SUB_BUCKET_BITS);
    // Every lane thread of every generation dispatched into its own
    // accumulator; the run's fires are their sum.
    let mut fired_trigger = HdrHistogram::new(SUB_BUCKET_BITS);
    let mut fired_backup = HdrHistogram::new(SUB_BUCKET_BITS);
    let mut handler_runs = 0u64;
    for (class, out) in &outs {
        if *class != LaneClass::Backup {
            check_cost.merge(&out.check_ns);
            facility_ns_total += facility_ns(out);
            busy_ns_total += out.busy_ns;
        }
        fired_trigger.merge(&out.fires.trigger_delay);
        fired_backup.merge(&out.fires.backup_delay);
        handler_runs += out.fires.handler_runs;
    }
    let stats = shared.core.lock().stats().clone();
    // A share of nothing is 0, not NaN.
    let share = |part: u64, whole: u64| {
        if whole > 0 {
            part as f64 / whole as f64
        } else {
            0.0
        }
    };
    HostReport {
        duration_ns,
        workers,
        backup_share: share(
            fired_backup.count(),
            fired_trigger.count() + fired_backup.count(),
        ),
        fired_trigger: FireReport {
            count: fired_trigger.count(),
            delay_ns: fired_trigger,
        },
        fired_backup: FireReport {
            count: fired_backup.count(),
            delay_ns: fired_backup,
        },
        handler_runs,
        facility_cpu_fraction: share(trimmed_sum_ns(&check_cost), busy_ns_total),
        facility_cpu_fraction_raw: share(facility_ns_total, busy_ns_total),
        check_cost,
        backup_cpu_fraction: backup_facility_ns as f64 / duration_ns as f64,
        task_return: source_report(LaneClass::Worker),
        idle_poll: of(LaneClass::IdlePoll)
            .next()
            .map(|_| source_report(LaneClass::IdlePoll)),
        backup_sweep: source_report(LaneClass::Backup),
        stats,
    }
}

/// Serializes an [`HdrHistogram`] summary as a JSON object string — the
/// one shape every document of this crate (`st-rt-host-v1`,
/// `st-rt-guard-v1`, `st-rt-calibration-v1`) embeds.
pub(crate) fn hist_json(h: &HdrHistogram) -> String {
    let q = |p: f64| h.quantile(p).unwrap_or(0);
    ObjectBuilder::new()
        .u64("count", h.count())
        .u64("min", h.min().unwrap_or(0))
        .u64("p50", q(0.5))
        .u64("p90", q(0.9))
        .u64("p99", q(0.99))
        .u64("max", h.max().unwrap_or(0))
        .f64("mean", h.mean())
        .build()
}

fn source_json(s: &SourceReport) -> String {
    ObjectBuilder::new()
        .str("source", s.source.name())
        .u64("checks", s.checks)
        .f64("density_hz", s.density_hz)
        .raw("interval_ns", &hist_json(&s.intervals))
        .raw("fire_delay_ns", &hist_json(&s.fire_delay_ns))
        .build()
}

impl HostReport {
    /// Single-line JSON document (schema `st-rt-host-v1`).
    pub fn to_json(&self) -> String {
        let mut sources = vec![source_json(&self.task_return)];
        if let Some(idle) = &self.idle_poll {
            sources.push(source_json(idle));
        }
        sources.push(source_json(&self.backup_sweep));
        let fires = [
            ObjectBuilder::new()
                .str("origin", "trigger")
                .u64("count", self.fired_trigger.count)
                .raw("delay_ns", &hist_json(&self.fired_trigger.delay_ns))
                .build(),
            ObjectBuilder::new()
                .str("origin", "backup")
                .u64("count", self.fired_backup.count)
                .raw("delay_ns", &hist_json(&self.fired_backup.delay_ns))
                .build(),
        ];
        ObjectBuilder::new()
            .str("schema", "st-rt-host-v1")
            .u64("duration_ns", self.duration_ns)
            .u64("workers", self.workers as u64)
            .raw("sources", &format!("[{}]", sources.join(",")))
            .raw("fires", &format!("[{}]", fires.join(",")))
            .u64("handler_runs", self.handler_runs)
            .f64("backup_share", self.backup_share)
            .raw("check_cost_ns", &hist_json(&self.check_cost))
            .f64("facility_cpu_fraction", self.facility_cpu_fraction)
            .f64("facility_cpu_fraction_raw", self.facility_cpu_fraction_raw)
            .f64("backup_cpu_fraction", self.backup_cpu_fraction)
            .u64("clock_regressions", self.stats.clock_regressions)
            .build()
    }

    /// Pushes the measured aggregates through the sealed st-trace
    /// telemetry channel of the *calling* thread, so an active session's
    /// existing export paths (chrome trace, timeline JSONL) carry host data.
    /// A no-op when no session is active — safe to call unconditionally.
    pub fn emit_telemetry(&self) {
        if st_trace::active() {
            st_trace::count("rt.host.checks.task_return", self.task_return.checks);
            if let Some(idle) = &self.idle_poll {
                st_trace::count("rt.host.checks.idle_poll", idle.checks);
            }
            st_trace::count("rt.host.checks.backup_sweep", self.backup_sweep.checks);
            st_trace::count("rt.host.fired.trigger", self.fired_trigger.count);
            st_trace::count("rt.host.fired.backup", self.fired_backup.count);
            st_trace::observe("rt.host.backup_share", self.backup_share);
            st_trace::observe("rt.host.facility_cpu_fraction", self.facility_cpu_fraction);
            if let Some(p50) = self.check_cost.quantile(0.5) {
                st_trace::observe("rt.host.check_cost_p50_ns", p50 as f64);
            }
            if let Some(p99) = self.fired_trigger.delay_ns.quantile(0.99) {
                st_trace::observe("rt.host.trigger_fire_delay_p99_ns", p99 as f64);
            }
        }
        st_trace::observe_window("rt.host.backup_share", self.backup_share);
        st_trace::observe_window("rt.host.facility_cpu_fraction", self.facility_cpu_fraction);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn quick_config() -> HostConfig {
        HostConfig {
            workers: 1,
            duration: Duration::from_millis(60),
            task_work: Duration::from_micros(20),
            idle_poller: true,
            idle_pause: Duration::from_micros(2),
            backup_period: Duration::from_millis(2),
            timer_periods: vec![Duration::from_micros(200), Duration::from_millis(1)],
        }
    }

    #[test]
    fn host_run_measures_all_sources_and_fires_events() {
        let report = run(&quick_config());
        // Generous load-tolerant bounds: the machine is real.
        assert!(
            report.task_return.checks > 50,
            "{}",
            report.task_return.checks
        );
        let idle = report.idle_poll.as_ref().expect("idle poller configured");
        assert!(idle.checks > 100, "{}", idle.checks);
        // One writer: a lane's checks are its check windows, one interval each.
        assert_eq!(idle.checks, idle.intervals.count() + 1);
        assert!(report.backup_sweep.checks >= 1);
        // A 200 µs periodic timer over ~60 ms must fire many times.
        assert!(report.handler_runs > 20, "{}", report.handler_runs);
        let fired = report.fired_trigger.count + report.fired_backup.count;
        assert_eq!(fired, report.handler_runs);
        // Conservation across lanes: what the core handed out under its
        // lock is what the lanes' accumulators add up to.
        assert_eq!(report.stats.fired(), report.handler_runs);
        // With an idle poller at ~µs cadence almost everything should
        // fire from a trigger state, but only assert the soft bound.
        assert!(report.backup_share <= 1.0);
        assert!(report.facility_cpu_fraction > 0.0);
        assert!(report.facility_cpu_fraction < 1.0);
        // Delay distributions recorded in ns and plausible (< 1 s).
        if let Some(p99) = report.fired_trigger.delay_ns.quantile(0.99) {
            assert!(p99 < 1_000_000_000, "p99 delay {p99} ns");
        }
    }

    /// `quick_config` lanes over 1 000 timers of 100-197 us, first due
    /// 97 ns apart: ~7 M fires/s offered, the idle lane busy.
    pub(crate) fn saturating(duration_ms: u64) -> HostConfig {
        HostConfig {
            duration: Duration::from_millis(duration_ms),
            timer_periods: (0..1_000)
                .map(|i| Duration::from_nanos(100_000 + 97 * i))
                .collect(),
            ..quick_config()
        }
    }

    /// Conservation over a run that kept `armed` periodic events armed: every
    /// fire is one handler run and one re-arm — none lost with a thread that
    /// left, none run or armed twice — so `armed` are pending at the end.
    pub(crate) fn assert_conserved(report: &HostReport, armed: u64) {
        let fires = report.fired_trigger.count + report.fired_backup.count;
        assert!(fires > 0);
        assert_eq!((report.handler_runs, report.stats.fired()), (fires, fires));
        assert_eq!(
            (report.stats.scheduled - armed, report.stats.canceled),
            (fires, 0)
        );
    }

    #[test]
    fn a_saturated_run_conserves_its_events() {
        assert_conserved(&run(&saturating(100)), 1_000);
    }

    #[test]
    fn a_stalled_idle_lane_carries_nothing_and_its_restart_loses_nothing() {
        let config = saturating(0);
        let shared = Shared::build(&config, FaultClock::healthy(), None);
        let started = shared.clock.now_ns();
        // Lanes: worker, idle poller, backup. Only the restart ends the stall.
        let at = started + 20_000_000;
        let stalls = vec![Vec::new(), vec![(at, 10_000_000_000)]];
        let mut lanes = Lanes::launch(&shared, &config, stalls);
        // 10 ms on: (idle lane's last beat, trigger-origin fires, backup-origin
        // fires), again and again until `ok` with them or 2 s have passed.
        let sample_until = |lanes: &Lanes, ok: &dyn Fn((u64, u64, u64)) -> bool| {
            let sample = |_| {
                std::thread::sleep(Duration::from_millis(10));
                let mut beats = Vec::new();
                lanes.last_beats(&mut beats);
                let core = shared.core.lock();
                (
                    beats[1],
                    core.stats().fired_trigger,
                    core.stats().fired_backup,
                )
            };
            (0..200).map(sample).find(|&s| ok(s)).expect("not in 2 s")
        };
        // Stalled: the same beat, past `at`, in two samples running.
        let beat = std::cell::Cell::new(0);
        let early = sample_until(&lanes, &|s| s.0 >= at && beat.replace(s.0) == s.0);
        // A trigger-origin fire during the stall is the worker's: the idle
        // lane went silent with `dispatching` clear, and the sweeps go on.
        let late = sample_until(&lanes, &|s| s.1 > early.1 && s.2 > early.2);
        assert_eq!(late.0, early.0, "the idle lane beat during its stall");
        lanes.restart(1, shared.clock.now_ns());
        sample_until(&lanes, &|s| s.0 > late.0);
        shared.stop.store(true, Ordering::Relaxed);
        let duration_ns = shared.clock.now_ns() - started;
        let report = finish_report(&shared, config.workers, duration_ns, lanes.join());
        assert_conserved(&report, 1_000);
        assert_eq!(shared.core.lock().pending(), 1_000);
    }

    #[test]
    fn a_task_longer_than_the_run_ends_with_it_and_its_return_still_fires() {
        let started = std::time::Instant::now();
        let report = run(&HostConfig {
            duration: Duration::from_millis(20),
            task_work: Duration::from_secs(2),
            idle_poller: false,
            backup_period: Duration::from_millis(100),
            ..quick_config()
        });
        assert!(started.elapsed() < Duration::from_secs(1));
        // The run's one task return, at its stop: both timers long due, and
        // no sweep before it.
        let checked = (report.task_return.checks, report.fired_trigger.count);
        assert_eq!(checked, (1, 2));
    }

    #[test]
    fn a_stop_wakes_the_backup_lane_and_it_sweeps_no_more() {
        let started = std::time::Instant::now();
        let report = run(&HostConfig {
            workers: 0,
            duration: Duration::from_millis(20),
            idle_poller: false,
            backup_period: Duration::from_secs(10),
            timer_periods: vec![Duration::from_millis(1)],
            ..quick_config()
        });
        assert!(started.elapsed() < Duration::from_secs(1));
        // No sweep was due inside the run, so none ran and nothing fired.
        let swept = (report.backup_sweep.checks, report.fired_backup.count);
        assert_eq!(swept, (0, 0));
    }

    #[test]
    fn a_due_batch_costs_one_poll_and_one_rearm_pass() {
        use std::cell::{Cell, RefCell};
        const N: u64 = 64;
        const P: u64 = 50_000;
        const H: u64 = P / 2;
        let config = HostConfig {
            timer_periods: Vec::new(),
            ..quick_config()
        };
        let shared = Shared::build(&config, FaultClock::healthy(), None);
        let core = &shared.core;
        // Two groups of N on period P, half a period apart: A is due at
        // `j * P`, B at `j * P + H`, so every batch is one whole group.
        for first in [P, P + H] {
            for _ in 0..N {
                core.lock()
                    .schedule(0, first - 1, PeriodicEvent { period_ns: P });
            }
        }
        // A scripted clock: a reading the cycle should not take fails the test.
        let script = RefCell::new(std::collections::VecDeque::<u64>::new());
        let last_two = Cell::new((0u64, 0u64));
        let now_ns = || {
            let now = script.borrow_mut().pop_front().expect("a reading too many");
            last_two.set((last_two.get().1, now));
            now
        };
        let play = |readings: &[u64]| script.borrow_mut().extend(readings);
        let mut acc = FireAccum::new();
        let mut buf = Vec::new();
        let mut handler = |ev: &mut Expired<PeriodicEvent>| {
            // Fired at the one reading its hold took, on its grid, and armed
            // strictly after the reading of the hold that armed it.
            let (before, at) = last_two.get();
            assert!(ev.fired_at == at && before < ev.due && ev.due <= at);
            assert_eq!(ev.due % H, 0, "off the drift-free grid");
            PeriodicEvent::run(ev, &shared, &mut acc);
        };
        // (polls, sweeps, events armed / N) so far; nothing carried or lost.
        let totals = || {
            let guard = core.lock();
            assert_eq!(guard.pending() as u64, 2 * N, "armed once, none carried");
            assert_eq!(guard.stats().handler_panics, 0);
            assert_eq!(Some(core.earliest()), guard.earliest_deadline());
            let stats = guard.stats();
            (stats.checks, stats.backup_sweeps, stats.scheduled / N)
        };

        // `fire_due`: two readings and one poll a batch, check or sweep.
        play(&[P + 10, P + 20]);
        let fired = core.fire_due(Some(P + 5), now_ns, &mut buf, &mut handler);
        assert_eq!((fired as u64, totals()), (N, (1, 0, 3)));
        play(&[P + H + 10, P + H + 20]);
        let fired = core.fire_due(None, now_ns, &mut buf, &mut handler);
        assert_eq!((fired as u64, totals()), (N, (2, 1, 4)));

        // The idle loop: k = 4 consecutive due batches (A B A B) cost k + 1
        // readings and polls, the hold between two batches arming one and
        // polling the next; nothing fires in the hold that armed it (every
        // batch is N, not 2 N). `go_on` is asked at the k - 1 holds between.
        let asked = Cell::new(0u64);
        let go_on = |stop_at: u64| {
            let asked = &asked;
            move |_| asked.replace(asked.get() + 1) + 1 < stop_at
        };
        let last = 3 * P + H + 20;
        play(&[2 * P + 10, 2 * P + H + 10, 3 * P + 10, 3 * P + H + 10, last]);
        let closed = core.fire_rounds(2 * P, now_ns, &mut buf, &mut handler, go_on(9));
        assert_eq!((closed, asked.take(), totals()), (Some(last), 3, (7, 1, 8)));

        // Told to leave at the first hold between batches, the loop still
        // runs the batch in hand, arms it with one arm-only hold and lets go
        // of `dispatching`: the next wait takes a due reading as it is.
        let last = 4 * P + H + 20;
        play(&[4 * P + 10, 4 * P + H + 10, last]);
        let closed = core.fire_rounds(4 * P, now_ns, &mut buf, &mut handler, go_on(1));
        assert_eq!(
            (closed, asked.take(), totals()),
            (Some(last), 1, (9, 1, 10))
        );
        assert!(buf.is_empty() && script.borrow().is_empty());
        let never = || unreachable!("a due reading is not read again");
        assert_eq!(core.wait_due(5 * P, never, |_| false), 5 * P);
        let fired = (acc.trigger_delay.count(), acc.backup_delay.count());
        assert_eq!((fired, acc.handler_runs), ((7 * N, N), 8 * N));
        assert_eq!(acc.degraded_delay.count(), 0);
    }

    /// An idle lane alone (no worker to fire ahead of it) over four ~1 ms
    /// timers, backup sweeps too rare to matter.
    fn idle_only(duration_ms: u64, idle_pause: Duration) -> HostConfig {
        HostConfig {
            workers: 0,
            duration: Duration::from_millis(duration_ms),
            idle_pause,
            backup_period: Duration::from_millis(20),
            timer_periods: vec![Duration::from_micros(1_030); 4],
            ..quick_config()
        }
    }

    #[test]
    fn the_idle_lane_fires_at_the_deadline_not_at_the_end_of_its_pause() {
        let report = run(&idle_only(100, Duration::from_micros(200)));
        let fired = &report.fired_trigger;
        assert!(fired.count > 100, "{}", fired.count);
        // A blind pause fires half a pause late in the median (~100 us).
        let p50 = fired.delay_ns.quantile(0.5).unwrap();
        assert!(p50 < 50_000, "trigger-origin p50 delay {p50} ns");
        // The pause still bounds the gap between checks from above.
        let gap = report.idle_poll.unwrap().intervals.quantile(0.5).unwrap();
        assert!(gap < 250_000, "idle interval p50 {gap} ns");
    }

    #[test]
    fn a_pause_longer_than_the_run_neither_holds_the_join_nor_loses_fires() {
        for idle_pause in [Duration::from_secs(10), Duration::MAX] {
            let started = std::time::Instant::now();
            let report = run(&idle_only(30, idle_pause));
            assert!(started.elapsed() < Duration::from_secs(1), "{idle_pause:?}");
            // Only deadlines end the idle lane's waits, and each is a fire.
            assert!(report.fired_trigger.count > 20, "{idle_pause:?}");
            assert!(report.idle_poll.unwrap().checks < 1_000, "{idle_pause:?}");
        }
    }

    #[test]
    fn host_report_json_is_valid_and_carries_the_schema() {
        let report = run(&HostConfig {
            duration: Duration::from_millis(30),
            ..quick_config()
        });
        let json = report.to_json();
        st_trace::json::validate(&json).expect("invalid host report JSON");
        assert!(json.contains("\"schema\":\"st-rt-host-v1\""));
        assert!(json.contains("task_return"));
        assert!(json.contains("idle_poll"));
        assert!(json.contains("backup_sweep"));
    }

    #[test]
    fn emit_telemetry_feeds_an_active_trace_session() {
        let report = run(&HostConfig {
            duration: Duration::from_millis(30),
            idle_poller: false,
            ..quick_config()
        });
        let session = st_trace::TraceSession::start(st_trace::TraceConfig::default());
        report.emit_telemetry();
        let snapshot = session.finish();
        assert_eq!(
            snapshot.counter("rt.host.checks.task_return"),
            report.task_return.checks
        );
        assert_eq!(snapshot.counter("rt.host.checks.idle_poll"), 0);
    }

    #[test]
    fn no_idle_poller_leans_on_the_backup_sweep() {
        // With sparse trigger states (no idle thread, long tasks) and a
        // short timer, the backup sweep must rescue some fires — the
        // paper's delay-bound mechanism, observed on the real machine.
        let report = run(&HostConfig {
            workers: 1,
            duration: Duration::from_millis(80),
            task_work: Duration::from_millis(8),
            idle_poller: false,
            idle_pause: Duration::ZERO,
            backup_period: Duration::from_millis(1),
            timer_periods: vec![Duration::from_micros(500)],
        });
        assert!(
            report.fired_backup.count > 0,
            "8 ms tasks cannot hit 500 µs deadlines from task returns"
        );
        assert!(report.backup_share > 0.0);
    }
}
