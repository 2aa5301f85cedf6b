//! Host runtime: `SoftTimerCore` on OS threads with real trigger states.
//!
//! The paper instruments kernel trigger states (syscall returns, trap
//! returns, the idle loop) and reports how often they occur and how late
//! soft-timer events fire through them (Tables 1-2). Userspace has no trap
//! returns, but an event-driven server has the same structure: a worker
//! pool whose **task-return points** are its syscall-return shims, plus an
//! **idle thread** polling the facility in a tight loop, plus a periodic
//! **backup sweep** thread playing the hardware interrupt. This module
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
//! The check fast path mirrors the paper's cost argument: a trigger-state
//! check is one clock read plus one compare against a cached
//! earliest-deadline word; the shared core lock is taken only when an
//! event is actually due, so check cost stays at probe scale instead of
//! being dominated by cross-thread lock contention. A due batch of any
//! size takes the lock twice — to poll it out, to re-arm all of it — and
//! each handler in between is a procedure call on lane-local state.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use st_core::{Config, Expired, FireOrigin, SoftTimerCore};
use st_stats::HdrHistogram;
use st_trace::json::ObjectBuilder;

use crate::chaos::{ChaosState, FaultClock};
use crate::guard::Heartbeat;

/// A real trigger source in the host runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerSource {
    /// A worker thread finishing one task — the syscall-return shim.
    TaskReturn,
    /// The dedicated polling thread — the kernel idle loop.
    IdlePoll,
    /// The periodic sweep thread — the backup hardware interrupt.
    BackupSweep,
}

impl TriggerSource {
    /// Stable lowercase name used in JSON and metric keys.
    pub fn name(self) -> &'static str {
        match self {
            TriggerSource::TaskReturn => "task_return",
            TriggerSource::IdlePoll => "idle_poll",
            TriggerSource::BackupSweep => "backup_sweep",
        }
    }
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
    /// Pause between idle polls (0 = poll flat out). A small pause
    /// decouples achievable idle density from core-lock contention.
    pub idle_pause: Duration,
    /// Backup sweep period — the "hardware interrupt clock".
    pub backup_period: Duration,
    /// Periods of the periodic soft-timer events kept armed for the whole
    /// run (the measured workload; each firing is a real dispatch).
    pub timer_periods: Vec<Duration>,
    /// Histogram precision (sub-bucket bits; 7 => <= ~1.6 % error).
    pub sub_bucket_bits: u32,
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
            sub_bucket_bits: 7,
        }
    }
}

/// A periodic event armed in the host core; the payload carries what the
/// re-arm pass needs to reschedule it drift-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PeriodicEvent {
    pub(crate) period_ns: u64,
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
    /// Injected handler panics caught at the dispatch boundary.
    pub(crate) panics: u64,
}

impl FireAccum {
    pub(crate) fn new(bits: u32) -> Self {
        FireAccum {
            trigger_delay: HdrHistogram::new(bits),
            backup_delay: HdrHistogram::new(bits),
            handler_runs: 0,
            degraded_delay: HdrHistogram::new(bits),
            panics: 0,
        }
    }
}

/// The facility and its lock on cache lines of their own (128 bytes: x86
/// prefetches lines in adjacent pairs). Every fire writes here — the lock
/// word, `last_seen`, the stats — while every lane reads `Shared`'s other
/// fields (the clock's, `earliest`, `stop`) on every loop iteration; on a
/// shared line each lock acquisition would first wait for the line to
/// come back from the other lanes' cores, ~100 ns added to every paced
/// fire's delay on this machine.
#[repr(align(128))]
struct CoreCell(Mutex<SoftTimerCore<PeriodicEvent>>);

pub(crate) struct Shared {
    core: CoreCell,
    /// Cached earliest armed deadline (ns; `u64::MAX` when none). The
    /// trigger-check fast path compares the clock against this atomic and
    /// only takes the core lock when an event is actually due — the
    /// paper's point that a trigger check is a read + compare, not a
    /// synchronized queue operation. Refreshed under the core lock at the
    /// end of every hold that mutated the queue (after a poll, after a
    /// batch's re-arm pass); a stale value only delays one fire to the
    /// next check or backup sweep, which the facility already tolerates.
    pub(crate) earliest: AtomicU64,
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
    /// Panic-injection decisions for chaos runs; `None` on healthy runs.
    pub(crate) chaos: Option<ChaosState>,
}

impl Shared {
    /// Locks the facility core, recovering (counted) from poisoning.
    pub(crate) fn lock_core(&self) -> MutexGuard<'_, SoftTimerCore<PeriodicEvent>> {
        lock_recover(&self.core.0)
    }

    /// Refreshes the cached earliest deadline. Call with the core lock
    /// held (the `core` borrow proves it).
    pub(crate) fn refresh_earliest(&self, core: &SoftTimerCore<PeriodicEvent>) {
        self.earliest.store(
            core.earliest_deadline().unwrap_or(u64::MAX),
            Ordering::Release,
        );
    }

    /// Builds the shared runtime state with the periodic workload armed,
    /// ready for lanes to start measuring. Healthy runs pass
    /// [`FaultClock::healthy`] and no chaos state.
    pub(crate) fn build(
        config: &HostConfig,
        clock: FaultClock,
        chaos: Option<ChaosState>,
    ) -> Arc<Shared> {
        let backup_period_ns =
            u64::try_from(config.backup_period.as_nanos().max(1)).unwrap_or(u64::MAX);
        let shared = Arc::new(Shared {
            core: CoreCell(Mutex::new(SoftTimerCore::new(Config {
                measure_hz: 1_000_000_000,
                interrupt_hz: (1_000_000_000 / backup_period_ns).max(1),
                record_stats: true,
            }))),
            earliest: AtomicU64::new(u64::MAX),
            clock,
            stop: AtomicBool::new(false),
            backup_period_ns: AtomicU64::new(backup_period_ns),
            degraded: AtomicBool::new(false),
            chaos,
        });
        // Arm the periodic workload before any thread starts measuring.
        {
            let mut core = shared.lock_core();
            let now = shared.clock.now_ns();
            for period in &config.timer_periods {
                let period_ns = u64::try_from(period.as_nanos()).unwrap_or(u64::MAX).max(1);
                core.schedule(
                    now,
                    period_ns.saturating_sub(1),
                    PeriodicEvent { period_ns },
                );
            }
            shared.refresh_earliest(&core);
        }
        shared
    }
}

/// Process-wide count of poisoned-lock recoveries (see
/// [`lock_recoveries`]).
static LOCK_RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// How many times a host-runtime lock was acquired through poison
/// recovery process-wide. A panicking handler (st-guard injects them
/// deliberately) poisons whichever mutex it unwound through; the runtime
/// keeps going because facility state stays consistent under its own
/// methods — but recovery must be audible, not silent, so each one is
/// counted here and in the `rt.lock_recoveries` trace counter.
pub fn lock_recoveries() -> u64 {
    LOCK_RECOVERIES.load(Ordering::Relaxed)
}

/// Locks a mutex, recovering the data if a previous holder panicked (same
/// rationale as `st_core::rt`: state kept consistent by its own methods).
/// Recoveries are counted — see [`lock_recoveries`].
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        LOCK_RECOVERIES.fetch_add(1, Ordering::Relaxed);
        if st_trace::active() {
            st_trace::count("rt.lock_recoveries", 1);
        }
        poisoned.into_inner()
    })
}

/// What one lane thread (worker, idle poller or backup sweep) brings home.
pub(crate) struct ThreadOut {
    pub(crate) intervals: HdrHistogram,
    /// Wall-clock cost of each individual trigger check (ns), including
    /// any batch it fired — the in-situ counterpart of the probe's
    /// uncontended check cost.
    pub(crate) check_ns: HdrHistogram,
    pub(crate) checks: u64,
    pub(crate) facility_ns: u64,
    pub(crate) busy_ns: u64,
    /// Every fire this thread dispatched.
    pub(crate) fires: FireAccum,
}

impl ThreadOut {
    pub(crate) fn empty(bits: u32) -> Self {
        ThreadOut {
            intervals: HdrHistogram::new(bits),
            check_ns: HdrHistogram::new(bits),
            checks: 0,
            facility_ns: 0,
            busy_ns: 0,
            fires: FireAccum::new(bits),
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
    pub source: TriggerSource,
    /// Total trigger-state checks performed.
    pub checks: u64,
    /// Checks per second of wall-clock run time.
    pub density_hz: f64,
    /// Distribution of intervals between consecutive checks (ns), merged
    /// across the source's threads (intervals are within-thread).
    pub intervals: HdrHistogram,
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
    /// its window. Compare its p50 against the probe's uncontended check
    /// cost to see what sharing the facility actually costs in situ.
    pub check_cost: HdrHistogram,
    /// Facility time (checks + dispatches) over busy thread time for the
    /// worker/idle threads — the soft-timer facility's in-situ CPU share.
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

/// Drift-free next deadline of a periodic event that was due at `due` and
/// is re-armed at `now`: one period after `due`, or, when the run fell
/// behind, the first point of the `due + k * period_ns` grid strictly
/// after `now` (missed periods are skipped arithmetically, not fired in a
/// burst). Saturates at the end of time instead of wrapping.
fn next_due(due: u64, period_ns: u64, now: u64) -> u64 {
    let period = period_ns.max(1);
    let next = due.saturating_add(period);
    if next > now {
        return next;
    }
    let skipped = ((now - next) / period).saturating_add(1);
    next.saturating_add(skipped.saturating_mul(period))
}

/// Runs the handler of one fired event and accounts it in the lane's
/// accumulator; touches nothing shared but the `degraded` flag.
fn run_handler(shared: &Shared, ev: &Expired<PeriodicEvent>, acc: &mut FireAccum) {
    let delay = ev.delay();
    // The handler body. The measured workload's real handler is trivial;
    // a chaos run makes some of them panic, and the dispatch boundary
    // must contain that to the one fire — not the lane, not the runtime.
    let panicked = match &shared.chaos {
        Some(chaos) if chaos.should_panic() => {
            let r = catch_unwind(AssertUnwindSafe(|| {
                panic!("injected handler panic (due {})", ev.due)
            }));
            debug_assert!(r.is_err());
            true
        }
        _ => false,
    };
    match ev.origin {
        FireOrigin::TriggerState => acc.trigger_delay.record(delay),
        FireOrigin::BackupInterrupt => acc.backup_delay.record(delay),
    }
    if shared.degraded.load(Ordering::Relaxed) {
        acc.degraded_delay.record(delay);
    }
    acc.handler_runs += 1;
    if panicked {
        acc.panics += 1;
    }
    // Sealed telemetry: visible to a trace/scope session on the
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
        FireOrigin::TriggerState => st_scope::fire_delay("rt.host.trigger", delay, 0),
        FireOrigin::BackupInterrupt => st_scope::fire_delay("rt.host.backup", delay, 0),
    }
}

/// Per-lane control block threaded through the measuring loops: the
/// heartbeat to beat, the generation cell that supersedes this thread
/// when the supervisor restarts the lane, and the chaos stall windows
/// this lane must execute. [`LaneCtl::none`] (plain runs) costs two
/// predictable branches per loop iteration.
pub(crate) struct LaneCtl {
    pub(crate) hb: Option<Heartbeat>,
    /// `(cell, my_generation)`: when the cell moves past my generation a
    /// replacement lane thread is running and this one must exit.
    pub(crate) gen: Option<(Arc<AtomicU64>, u64)>,
    /// Absolute `(at_ns, duration_ns)` stall windows, sorted ascending.
    pub(crate) stalls: Vec<(u64, u64)>,
    stall_idx: usize,
}

impl LaneCtl {
    /// No supervision, no chaos: the plain `run()` configuration.
    pub(crate) fn none() -> Self {
        LaneCtl {
            hb: None,
            gen: None,
            stalls: Vec::new(),
            stall_idx: 0,
        }
    }

    /// A supervised lane, optionally with stall windows to execute.
    pub(crate) fn supervised(
        hb: Heartbeat,
        gen: Arc<AtomicU64>,
        my_gen: u64,
        stalls: Vec<(u64, u64)>,
    ) -> Self {
        LaneCtl {
            hb: Some(hb),
            gen: Some((gen, my_gen)),
            stalls,
            stall_idx: 0,
        }
    }

    /// True when the supervisor has spawned a replacement for this lane
    /// thread and it must exit.
    fn superseded(&self) -> bool {
        match &self.gen {
            Some((cell, mine)) => cell.load(Ordering::Relaxed) != *mine,
            None => false,
        }
    }

    /// One loop-top bookkeeping step: exits a superseded thread, beats
    /// the heartbeat, and executes any due stall window as a
    /// heartbeat-silent spin (in ~1 ms slices so stop/supersede still
    /// terminate a wedged lane promptly — the *heartbeat* is what goes
    /// silent, not the process). Returns `false` when the lane thread
    /// should exit.
    fn tick(&mut self, shared: &Shared) -> bool {
        if self.superseded() {
            return false;
        }
        let now = shared.clock.now_ns();
        if let Some(hb) = &self.hb {
            hb.beat(now);
        }
        if let Some(&(at, dur)) = self.stalls.get(self.stall_idx) {
            if now >= at {
                self.stall_idx += 1;
                let until = now.saturating_add(dur);
                while shared.clock.now_ns() < until {
                    if shared.stop.load(Ordering::Relaxed) || self.superseded() {
                        return false;
                    }
                    let slice = shared.clock.now_ns().saturating_add(1_000_000).min(until);
                    shared.clock.spin_until(slice);
                }
            }
        }
        true
    }
}

/// One trigger-state check (or backup sweep). The check fast path is a
/// clock read plus a compare against the cached earliest deadline; the
/// core lock is taken only when an event is due (or on a sweep). A due
/// batch costs two lock holds and two clock reads whatever its size: it
/// is polled out under the lock, every handler runs with no lock held
/// against the lane's own `acc`, and one pass under the lock re-arms the
/// whole batch from a single post-handler clock read. Returns the number
/// of events fired.
pub(crate) fn trigger_check(
    shared: &Shared,
    buf: &mut Vec<Expired<PeriodicEvent>>,
    sweep: bool,
    acc: &mut FireAccum,
) -> usize {
    if !sweep {
        let due = shared.earliest.load(Ordering::Acquire);
        if shared.clock.now_ns() < due {
            return 0;
        }
    }
    buf.clear();
    {
        let mut core = shared.lock_core();
        let now = shared.clock.now_ns();
        if sweep {
            core.interrupt_sweep(now, buf);
        } else {
            core.poll(now, buf);
        }
        shared.refresh_earliest(&core);
    }
    let n = buf.len();
    if n == 0 {
        return 0;
    }
    let panics_before = acc.panics;
    for ev in buf.iter() {
        run_handler(shared, ev, acc);
    }
    // `now` is the paper's schedule time S of every re-arm in the batch:
    // read after the last handler, so each new deadline is past the
    // moment its handler finished.
    let now = shared.clock.now_ns();
    let mut core = shared.lock_core();
    for _ in panics_before..acc.panics {
        core.note_handler_panic();
    }
    for ev in buf.drain(..) {
        let next = next_due(ev.due, ev.payload.period_ns, now);
        // `schedule(now, delta)` arms deadline `now + delta + 1`.
        core.schedule(now, next.saturating_sub(now).saturating_sub(1), ev.payload);
    }
    shared.refresh_earliest(&core);
    n
}

/// The measuring loop shared by workers and the idle poller: do
/// `work_ns` of busy work (0 for the idle loop), hit a trigger state,
/// time the check, record the inter-check interval. `ctl` carries the
/// lane's supervision hooks (heartbeat, supersede, chaos stalls).
pub(crate) fn measure_loop(
    shared: &Shared,
    work_ns: u64,
    pause_ns: u64,
    bits: u32,
    mut ctl: LaneCtl,
) -> ThreadOut {
    let mut out = ThreadOut::empty(bits);
    let mut buf: Vec<Expired<PeriodicEvent>> = Vec::new();
    let mut last_check: Option<u64> = None;
    let started = shared.clock.now_ns();
    while !shared.stop.load(Ordering::Relaxed) {
        if !ctl.tick(shared) {
            break;
        }
        if work_ns > 0 {
            let t = shared.clock.now_ns();
            shared.clock.spin_until(t + work_ns);
        } else if pause_ns > 0 {
            let t = shared.clock.now_ns();
            shared.clock.spin_until(t + pause_ns);
        }
        let t0 = shared.clock.now_ns();
        if let Some(last) = last_check {
            out.intervals.record(t0 - last);
        }
        last_check = Some(t0);
        trigger_check(shared, &mut buf, false, &mut out.fires);
        let elapsed = shared.clock.now_ns() - t0;
        out.check_ns.record(elapsed);
        out.facility_ns += elapsed;
        out.checks += 1;
    }
    out.busy_ns = shared.clock.now_ns() - started;
    out
}

/// The backup-sweep loop: sleep one period (re-read every cycle so the
/// supervisor's degradation retunes take effect immediately), then sweep.
pub(crate) fn backup_loop(shared: &Shared, bits: u32, mut ctl: LaneCtl) -> ThreadOut {
    let mut out = ThreadOut::empty(bits);
    let mut buf = Vec::new();
    let mut last: Option<u64> = None;
    while !shared.stop.load(Ordering::Relaxed) {
        if !ctl.tick(shared) {
            break;
        }
        let period_ns = shared.backup_period_ns.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_nanos(period_ns));
        let t0 = shared.clock.now_ns();
        if let Some(l) = last {
            out.intervals.record(t0 - l);
        }
        last = Some(t0);
        trigger_check(shared, &mut buf, true, &mut out.fires);
        out.facility_ns += shared.clock.now_ns() - t0;
        out.checks += 1;
    }
    out
}

/// Runs the host runtime for `config.duration` and reports what the real
/// machine did. Spawns `workers + idle_poller + 1` threads; the calling
/// thread sleeps for the duration and then joins them.
pub fn run(config: &HostConfig) -> HostReport {
    let bits = config.sub_bucket_bits;
    let shared = Shared::build(config, FaultClock::healthy(), None);

    let work_ns = u64::try_from(config.task_work.as_nanos()).unwrap_or(u64::MAX);
    let pause_ns = u64::try_from(config.idle_pause.as_nanos()).unwrap_or(u64::MAX);
    let mut worker_handles = Vec::new();
    for i in 0..config.workers {
        let s = Arc::clone(&shared);
        worker_handles.push(
            std::thread::Builder::new()
                .name(format!("st-rt-worker-{i}"))
                .spawn(move || measure_loop(&s, work_ns.max(1), 0, bits, LaneCtl::none()))
                // One-time startup: a host that cannot spawn threads
                // cannot run the runtime at all.
                .expect("failed to spawn worker thread"),
        );
    }
    let idle_handle = config.idle_poller.then(|| {
        let s = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("st-rt-idle".into())
            .spawn(move || measure_loop(&s, 0, pause_ns, bits, LaneCtl::none()))
            .expect("failed to spawn idle thread")
    });
    let backup_handle = {
        let s = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("st-rt-backup".into())
            .spawn(move || backup_loop(&s, bits, LaneCtl::none()))
            .expect("failed to spawn backup thread")
    };

    let started = shared.clock.now_ns();
    std::thread::sleep(config.duration);
    shared.stop.store(true, Ordering::Relaxed);
    let duration_ns = (shared.clock.now_ns() - started).max(1);

    let worker_outs: Vec<ThreadOut> = worker_handles
        .into_iter()
        .filter_map(|h| h.join().ok())
        .collect();
    let idle_outs: Vec<ThreadOut> = idle_handle
        .and_then(|h| h.join().ok())
        .into_iter()
        .collect();
    let backup_outs: Vec<ThreadOut> = backup_handle.join().into_iter().collect();
    finish_report(
        &shared,
        config.workers,
        duration_ns,
        bits,
        worker_outs,
        idle_outs,
        backup_outs,
    )
}

/// Folds the per-thread measurements into a [`HostReport`]. A supervised
/// run hands in several [`ThreadOut`]s per lane (one per restart
/// generation); they merge the same way one does.
pub(crate) fn finish_report(
    shared: &Shared,
    workers: usize,
    duration_ns: u64,
    bits: u32,
    worker_outs: Vec<ThreadOut>,
    idle_outs: Vec<ThreadOut>,
    backup_outs: Vec<ThreadOut>,
) -> HostReport {
    let secs = duration_ns as f64 / 1e9;
    let mut task_return = SourceReport {
        source: TriggerSource::TaskReturn,
        checks: 0,
        density_hz: 0.0,
        intervals: HdrHistogram::new(bits),
    };
    let mut facility_ns_total = 0u64;
    let mut busy_ns_total = 0u64;
    let mut check_cost = HdrHistogram::new(bits);
    for out in &worker_outs {
        task_return.checks += out.checks;
        task_return.intervals.merge(&out.intervals);
        check_cost.merge(&out.check_ns);
        facility_ns_total += out.facility_ns;
        busy_ns_total += out.busy_ns;
    }
    task_return.density_hz = task_return.checks as f64 / secs;

    let idle_poll = (!idle_outs.is_empty()).then(|| {
        let mut idle = SourceReport {
            source: TriggerSource::IdlePoll,
            checks: 0,
            density_hz: 0.0,
            intervals: HdrHistogram::new(bits),
        };
        for out in &idle_outs {
            idle.checks += out.checks;
            idle.intervals.merge(&out.intervals);
            check_cost.merge(&out.check_ns);
            facility_ns_total += out.facility_ns;
            busy_ns_total += out.busy_ns;
        }
        idle.density_hz = idle.checks as f64 / secs;
        idle
    });

    let mut backup_sweep = SourceReport {
        source: TriggerSource::BackupSweep,
        checks: 0,
        density_hz: 0.0,
        intervals: HdrHistogram::new(bits),
    };
    let mut backup_facility_ns = 0u64;
    for out in &backup_outs {
        backup_sweep.checks += out.checks;
        backup_sweep.intervals.merge(&out.intervals);
        backup_facility_ns += out.facility_ns;
    }
    backup_sweep.density_hz = backup_sweep.checks as f64 / secs;

    // Every lane thread of every generation dispatched into its own
    // accumulator; the run's fires are their sum.
    let mut fired_trigger = HdrHistogram::new(bits);
    let mut fired_backup = HdrHistogram::new(bits);
    let mut handler_runs = 0u64;
    for out in worker_outs.iter().chain(&idle_outs).chain(&backup_outs) {
        fired_trigger.merge(&out.fires.trigger_delay);
        fired_backup.merge(&out.fires.backup_delay);
        handler_runs += out.fires.handler_runs;
    }
    let stats = shared.lock_core().stats().clone();
    let fired_total = fired_trigger.count() + fired_backup.count();
    HostReport {
        duration_ns,
        workers,
        backup_share: if fired_total > 0 {
            fired_backup.count() as f64 / fired_total as f64
        } else {
            0.0
        },
        fired_trigger: FireReport {
            count: fired_trigger.count(),
            delay_ns: fired_trigger,
        },
        fired_backup: FireReport {
            count: fired_backup.count(),
            delay_ns: fired_backup,
        },
        handler_runs,
        facility_cpu_fraction: if busy_ns_total > 0 {
            trimmed_sum_ns(&check_cost) as f64 / busy_ns_total as f64
        } else {
            0.0
        },
        facility_cpu_fraction_raw: if busy_ns_total > 0 {
            facility_ns_total as f64 / busy_ns_total as f64
        } else {
            0.0
        },
        check_cost,
        backup_cpu_fraction: backup_facility_ns as f64 / duration_ns as f64,
        task_return,
        idle_poll,
        backup_sweep,
        stats,
    }
}

/// Serializes an [`HdrHistogram`] summary as a JSON object string.
fn hist_json(h: &HdrHistogram) -> String {
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
        .build()
}

impl HostReport {
    /// Mean trigger interval of a source in nanoseconds (0 when the
    /// source recorded nothing).
    pub fn mean_interval_ns(&self, source: TriggerSource) -> f64 {
        let report = match source {
            TriggerSource::TaskReturn => Some(&self.task_return),
            TriggerSource::IdlePoll => self.idle_poll.as_ref(),
            TriggerSource::BackupSweep => Some(&self.backup_sweep),
        };
        report.map_or(0.0, |r| r.intervals.mean())
    }

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

    /// Pushes the measured aggregates through the sealed st-trace/st-scope
    /// telemetry channel of the *calling* thread, so an active session's
    /// existing export paths (chrome trace, scope JSONL) carry host data.
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
        st_scope::observe("rt.host.backup_share", self.backup_share);
        st_scope::observe("rt.host.facility_cpu_fraction", self.facility_cpu_fraction);
    }
}

#[cfg(test)]
mod tests {
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
            sub_bucket_bits: 7,
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

    #[test]
    fn next_due_stays_on_the_grid_and_strictly_ahead() {
        // On time: one period after the previous deadline.
        assert_eq!(next_due(1_000, 100, 1_050), 1_100);
        // `next == now` is not in the future yet: skip one period.
        assert_eq!(next_due(1_000, 100, 1_100), 1_200);
        // One whole period behind, then k periods and a bit.
        assert_eq!(next_due(1_000, 100, 1_200), 1_300);
        for k in [1u64, 2, 7, 1_000] {
            let now = 1_100 + k * 100 + 37;
            assert_eq!(next_due(1_000, 100, now), 1_100 + (k + 1) * 100);
        }
        // Degenerate periods: 1 ns, and 0 treated as 1.
        assert_eq!(next_due(10, 1, 500), 501);
        assert_eq!(next_due(10, 0, 500), 501);
        // Within one period of the end of time: saturated, never wrapped,
        // whether the clock is early or itself at the end.
        assert_eq!(next_due(u64::MAX - 5, 100, 17), u64::MAX);
        assert_eq!(next_due(u64::MAX - 5, 100, u64::MAX), u64::MAX);
        assert_eq!(next_due(0, u64::MAX / 2 + 1, u64::MAX - 1), u64::MAX);
    }

    #[test]
    fn a_due_batch_costs_one_poll_and_one_rearm_pass() {
        const N: usize = 64;
        let period = Duration::from_micros(50);
        let period_ns = period.as_nanos() as u64;
        let config = HostConfig {
            timer_periods: vec![period; N],
            ..quick_config()
        };
        let shared = Shared::build(&config, FaultClock::healthy(), None);
        let mut acc = FireAccum::new(config.sub_bucket_bits);
        let mut buf = Vec::new();
        // Armed from one clock read: all N share their deadlines for ever.
        let mut due = shared.earliest.load(Ordering::Acquire);
        for (sweep, checks, sweeps) in [(false, 1, 0), (true, 2, 1)] {
            let before = shared.clock.spin_until(due);
            assert_eq!(trigger_check(&shared, &mut buf, sweep, &mut acc), N);
            assert!(buf.is_empty());
            let core = shared.lock_core();
            assert_eq!(core.pending(), N);
            assert_eq!(core.stats().checks, checks, "one poll per batch");
            assert_eq!(core.stats().backup_sweeps, sweeps);
            assert_eq!(
                core.stats().scheduled,
                (N as u64) * (checks + 1),
                "one re-arm per fire, none twice"
            );
            let next = shared.earliest.load(Ordering::Acquire);
            assert_eq!(Some(next), core.earliest_deadline());
            assert!(next > before, "re-armed into the past: {next} <= {before}");
            assert_eq!((next - due) % period_ns, 0, "off the drift-free grid");
            due = next;
        }
        assert_eq!(acc.trigger_delay.count(), N as u64);
        assert_eq!(acc.backup_delay.count(), N as u64);
        assert_eq!(acc.handler_runs, 2 * N as u64);
        assert_eq!((acc.panics, acc.degraded_delay.count()), (0, 0));
        // Every timer of the batch, not just the earliest, is past the
        // re-arm's clock read and on its grid.
        let mut core = shared.lock_core();
        assert_eq!(core.poll(due - 1, &mut buf), 0);
        assert_eq!(core.poll(due, &mut buf), N);
        assert!(buf.iter().all(|ev| ev.due == due));
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
    fn lock_recovery_is_counted_not_silent() {
        let m = std::sync::Mutex::new(7u64);
        let before = lock_recoveries();
        // Poison the lock: a thread panics while holding the guard.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison the lock");
        }));
        assert!(r.is_err());
        assert!(m.is_poisoned());
        // A healthy lock doesn't count.
        let healthy = std::sync::Mutex::new(1u64);
        drop(lock_recover(&healthy));
        assert_eq!(lock_recoveries(), before);
        // Recovery yields the data, still consistent, and is counted.
        {
            let mut g = lock_recover(&m);
            assert_eq!(*g, 7);
            *g = 8;
        }
        assert_eq!(lock_recoveries(), before + 1);
        // The recovered mutex stays poisoned (std semantics), so every
        // subsequent recovery is also audible.
        drop(lock_recover(&m));
        assert_eq!(lock_recoveries(), before + 2);
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
            sub_bucket_bits: 7,
        });
        assert!(
            report.fired_backup.count > 0,
            "8 ms tasks cannot hit 500 µs deadlines from task returns"
        );
        assert!(report.backup_share > 0.0);
    }
}
