//! The saturated-server discrete-event simulation.
//!
//! One CPU serves an endless backlog of identical requests (the paper's
//! clients keep the server saturated). Each request is a schedule of work
//! items ending in trigger states; interrupts preempt the current item
//! (extending its completion); soft-timer events fire at trigger states
//! and their handlers run for their modeled cost. Everything the §5
//! server experiments vary is a configuration switch here:
//!
//! - an added periodic hardware timer with a null handler (Figures 2-3);
//! - a maximal-rate null soft event (§5.2);
//! - rate-based clocking of transmitted packets via soft timers or a
//!   50 kHz hardware timer (Table 3);
//! - the packet dispatch policy: per-packet interrupts, pure polling,
//!   hybrid, or soft-timer polling with an aggregation quota (Table 8).
//!
//! The kernel's ordinary 1 kHz clock interrupt exists in the baseline and
//! its cost is part of the calibrated budget; the simulation models only
//! its backup-sweep role for soft timers and charges no extra CPU for it.

use std::collections::VecDeque;

use st_admit::{AdmissionController, Decision, RejectPolicy, RequestClass};
use st_core::facility::Expired;
use st_kernel::cpu::{CpuAccountant, CpuCategory};
use st_kernel::softclock::SoftClock;
use st_kernel::trigger::TriggerSource;
use st_kernel::CostModel;
use st_net::driver::{DriverPolicy, DriverStrategy};
use st_sim::{Ctx, Engine, EventId, SimDuration, SimRng, SimTime, World};
use st_stats::Summary;

use crate::arrival::{Arrival, ArrivalModel, ArrivalProcess, UpdateDriver};
use crate::model::ServerModel;

/// Rate-based clocking configuration (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateClocking {
    /// Packets transmitted inline on the ip-output path (baseline).
    Off,
    /// Transmissions moved into soft-timer events firing at every
    /// trigger state (the paper's "maximal frequency possible").
    Soft,
    /// Transmissions from a periodic hardware timer at this frequency
    /// (the paper programs the 8253 at 50 kHz).
    Hardware {
        /// Interrupt frequency in Hz.
        freq_hz: u64,
    },
}

/// An added periodic hardware timer with a null handler (Figures 2-3).
#[derive(Debug, Clone, Copy)]
pub struct TimerLoad {
    /// Interrupt frequency in Hz.
    pub freq_hz: u64,
}

/// A soft-timer statistical-profiler load: a periodic sampling event that
/// fires from trigger states (the `st-prof` application). Each fire costs
/// [`CostModel::prof_sample`] and the event rearms on a fixed grid so the
/// *effective* sampling rate matches `freq_hz` even when individual fires
/// are delayed past one or more periods.
#[derive(Debug, Clone, Copy)]
pub struct SamplerLoad {
    /// Target sampling frequency in Hz.
    pub freq_hz: u64,
}

/// Telemetry sampling load (the timeline-sampling application).
///
/// `Soft` flushes the timeline from a periodic soft-timer event (cost:
/// `soft_dispatch + scope_sample` per fire, grid-aligned rearm like the
/// profiler); `Hardware` dedicates a periodic hardware timer to the same
/// job (cost: a full interrupt + handler pollution + the sample body) —
/// the `timeline_overhead` contrast. Both also feed the ambient
/// [`st_trace`] session when it keeps a series view. `Off` models no
/// sampling at all; a sampling session then observes through zero-cost
/// bookkeeping events that leave every modeled quantity untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeSampling {
    /// No modeled telemetry sampling (default).
    Off,
    /// Samples taken by a periodic soft-timer event at `freq_hz`.
    Soft {
        /// Target sampling frequency in Hz.
        freq_hz: u64,
    },
    /// Samples taken by a dedicated hardware timer at `freq_hz`.
    Hardware {
        /// Interrupt frequency in Hz.
        freq_hz: u64,
    },
}

/// Saturation experiment configuration.
#[derive(Debug, Clone)]
pub struct SaturationConfig {
    /// Machine cost model.
    pub machine: CostModel,
    /// Server model (calibrated).
    pub server: ServerModel,
    /// Simulated run length.
    pub duration: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Added null-handler hardware timer (Figures 2-3).
    pub extra_timer: Option<TimerLoad>,
    /// Soft-timer profiling sampler (the `profiler_overhead` experiment).
    pub soft_sampler: Option<SamplerLoad>,
    /// Maximal-rate null soft event (§5.2).
    pub soft_null_event: bool,
    /// Rate-based clocking mode (Table 3).
    pub rate_clocking: RateClocking,
    /// Packet dispatch policy (Table 8).
    pub driver: DriverStrategy,
    /// Keep the raw tagged trigger sequence (Figures 5-6).
    pub keep_raw_triggers: bool,
    /// How requests enter: the paper's saturating closed loop, or an
    /// open-loop hostile scenario with optional admission control.
    pub arrivals: ArrivalModel,
    /// Modeled telemetry sampling (the `timeline` experiment).
    pub scope_sampling: ScopeSampling,
}

impl SaturationConfig {
    /// A plain interrupt-driven baseline run.
    pub fn baseline(machine: CostModel, server: ServerModel, seed: u64) -> Self {
        SaturationConfig {
            machine,
            server,
            duration: SimDuration::from_secs(5),
            seed,
            extra_timer: None,
            soft_sampler: None,
            soft_null_event: false,
            rate_clocking: RateClocking::Off,
            driver: DriverStrategy::InterruptDriven,
            keep_raw_triggers: false,
            arrivals: ArrivalModel::Closed,
            scope_sampling: ScopeSampling::Off,
        }
    }
}

/// Overload metrics of one open-loop run.
#[derive(Debug, Clone)]
pub struct OverloadStats {
    /// Arrivals offered by the clients (including slow clients).
    pub offered: u64,
    /// Requests admitted into the work queue.
    pub admitted: u64,
    /// Requests refused by the limiter (503s, immediate or delayed).
    pub shed: u64,
    /// Arrivals refused at accept because the connection table was full.
    pub dropped: u64,
    /// Pinned slowloris connections reaped by the limit-update event.
    pub reaped_pins: u64,
    /// Completions within the SLO.
    pub completed_ok: u64,
    /// Completions past the SLO.
    pub completed_late: u64,
    /// Completions within SLO per second — the headline metric.
    pub goodput: f64,
    /// Fraction of offered requests shed.
    pub shed_rate: f64,
    /// Median completion latency, µs.
    pub p50_us: u64,
    /// 99th-percentile completion latency, µs.
    pub p99_us: u64,
    /// 99.9th-percentile completion latency, µs.
    pub p999_us: u64,
    /// Worst completion latency, µs.
    pub max_us: u64,
    /// Limit-update events that ran.
    pub update_fires: u64,
    /// CPU spent on limit updates, percent of the run.
    pub update_cpu_pct: f64,
    /// Final interactive-class limit.
    pub limit_interactive: u64,
    /// Final bulk-class limit.
    pub limit_bulk: u64,
}

/// Results of one saturation run.
#[derive(Debug)]
pub struct SaturationResult {
    /// Completed requests.
    pub requests: u64,
    /// Simulated elapsed time.
    pub elapsed: SimTime,
    /// Requests per second.
    pub throughput: f64,
    /// CPU time breakdown.
    pub cpu: CpuAccountant,
    /// Mean trigger-state interval, µs.
    pub trigger_mean_us: f64,
    /// Median trigger-state interval, µs.
    pub trigger_median_us: f64,
    /// Soft-timer events fired.
    pub soft_fires: u64,
    /// Profiler samples taken (soft-timer sampler fires).
    pub sampler_fires: u64,
    /// Profiler grid points skipped because the fire lagged past them
    /// (one sample per trigger state; missed grid points are lost, the
    /// soft-timer profiler's inherent delay cost).
    pub sampler_skipped: u64,
    /// Added hardware-timer interrupts actually taken (Figures 2-3 load).
    pub extra_timer_ticks: u64,
    /// Mean interval between soft-event fires, µs (§5.2's 31.5 µs).
    pub soft_fire_interval_us: f64,
    /// Within-train packet transmission intervals, µs (Table 3).
    pub tx_intervals: Summary,
    /// Average packets found per poll (soft-timer polling).
    pub avg_found_per_poll: Option<f64>,
    /// Raw tagged triggers when requested.
    pub raw_triggers: Option<Vec<(SimTime, TriggerSource)>>,
    /// Overload metrics (open-loop runs only).
    pub overload: Option<OverloadStats>,
    /// Telemetry samples taken ([`ScopeSampling`] fires).
    pub scope_fires: u64,
    /// CPU spent on telemetry sampling, percent of the run.
    pub scope_cpu_pct: f64,
    /// Soft-timer facility fires (every payload, every origin).
    pub facility_fires: u64,
    /// Exact integer sum of all facility fire delays, in ticks — the
    /// reconciliation anchor for the session's delay-attribution waterfall.
    pub facility_delay_ticks: u64,
}

/// Soft-timer event payloads used by the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SoftEv {
    /// The §5.2 null handler.
    Null,
    /// Rate-based clocking: transmit one pending packet if any.
    TxPace,
    /// Network poll (pure-polling and soft-timer polling).
    PollNic,
    /// One statistical-profiler sample (the `st-prof` application).
    Sample,
    /// Periodic admission limit update (st-admit, soft-timer driven).
    LimitUpdate,
    /// A soft-timer-delayed 503 going out for a rejected request.
    ShedReply,
    /// One telemetry sample ([`ScopeSampling::Soft`], the timeline
    /// application): flush gauges and counter deltas to the timeline.
    ScopeSample,
    /// Zero-cost observation hook: when the [`st_trace`] session keeps
    /// a series view but no sampling is *modeled* ([`ScopeSampling::Off`]),
    /// this event reads world state into the timeline without charging
    /// CPU, touching the RNG, or perturbing any exported metric.
    ScopeObserve,
}

#[derive(Debug, Clone, Copy)]
enum WorkKind {
    /// A request schedule item ending in a trigger state.
    Request { source: TriggerSource, last: bool },
    /// A process context switch (no trigger).
    ContextSwitch,
    /// Deferred overhead (handler or poll cost) with no trigger.
    Overhead(CpuCategory),
}

#[derive(Debug)]
enum Ev {
    /// Starts the request pipeline at t = 0.
    Boot,
    /// Current work item completes.
    WorkDone { gen: u64 },
    /// Added null-handler timer tick (Figures 2-3).
    ExtraTimer,
    /// Rate-based-clocking hardware timer tick (Table 3).
    RbcTimer,
    /// The kernel's 1 kHz clock: backup sweep for soft timers.
    BackupTimer,
    /// A frame arrives at the NIC.
    RxArrival,
    /// The NIC finished serializing a transmitted frame.
    TxComplete,
    /// Return path of a hardware interrupt: a trigger state.
    IntrReturn { source: TriggerSource },
    /// An open-loop client arrival.
    NewRequest(Arrival),
    /// A pinned (slowloris) connection finally produced its request.
    PinBody { id: u64 },
    /// The hardware-timer variant of the admission limit update.
    AdmitHwTimer,
    /// The hardware-timer variant of telemetry sampling
    /// ([`ScopeSampling::Hardware`], the `timeline_overhead` contrast).
    ScopeHwTimer,
}

struct Current {
    end: SimTime,
    gen: u64,
    kind: WorkKind,
}

/// A slowloris connection holding a slot while its body trickles in.
struct Pin {
    id: u64,
    arrived: SimTime,
    class: RequestClass,
    size_scale: f64,
}

/// An admitted request in the work queue (completions pop in FIFO
/// order because each request's schedule is enqueued contiguously).
struct PendingReq {
    class: RequestClass,
    arrived: SimTime,
}

#[derive(Debug, Default)]
struct OverloadCounters {
    offered: u64,
    admitted: u64,
    shed: u64,
    dropped: u64,
    reaped_pins: u64,
    completed_ok: u64,
    completed_late: u64,
}

/// Open-loop serving-path state (absent in closed-loop runs).
struct OpenState {
    cfg: crate::arrival::OpenLoopConfig,
    /// Occupied connection slots: queued + inflight + pinned + sheds
    /// awaiting their delayed 503.
    conns: u64,
    pending: VecDeque<PendingReq>,
    pins: VecDeque<Pin>,
    next_pin_id: u64,
    /// Pins with an id below this were reaped; their body events are
    /// stale when they fire.
    pins_reaped_below: u64,
    /// Rejected requests waiting for their soft-timer-delayed 503.
    pending_sheds: u64,
    latencies_us: Vec<u64>,
    counters: OverloadCounters,
    update_cpu: SimDuration,
    update_fires: u64,
}

impl OpenState {
    fn new(cfg: crate::arrival::OpenLoopConfig) -> Self {
        OpenState {
            cfg,
            conns: 0,
            pending: VecDeque::new(),
            pins: VecDeque::new(),
            next_pin_id: 0,
            pins_reaped_below: 0,
            pending_sheds: 0,
            latencies_us: Vec::new(),
            counters: OverloadCounters::default(),
            update_cpu: SimDuration::ZERO,
            update_fires: 0,
        }
    }
}

/// Cost of a 503 response: headers only, roughly a third of a full
/// data-frame transmission.
fn shed_reply_cost(server: &ServerModel) -> SimDuration {
    SimDuration::from_nanos(server.tx_cost.as_nanos() / 3)
}

fn percentile_us(sorted: &[u64], num: u64, den: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as u64 * num) / den).min(sorted.len() as u64 - 1);
    sorted[usize::try_from(rank).expect("rank bounded by len")]
}

struct SatWorld {
    config: SaturationConfig,
    soft: SoftClock<SoftEv>,
    cpu: CpuAccountant,
    rng: SimRng,
    policy: DriverPolicy,
    arrivals: Box<dyn ArrivalProcess>,
    arr_rng: SimRng,
    admit: Option<AdmissionController>,
    open: Option<OpenState>,

    queue: VecDeque<(SimDuration, WorkKind)>,
    cur: Option<Current>,
    gen: u64,
    done_event: Option<EventId>,

    /// Frames waiting in the NIC ring.
    ring: usize,
    /// Transmit-completion descriptors waiting to be reaped.
    tx_reap: usize,
    /// Whether an rx interrupt is latched/in progress (interrupt modes):
    /// frames arriving meanwhile coalesce into the next drain.
    rx_busy: bool,
    /// When the previous NIC interrupt ran (cache-residency discount).
    last_nic_intr: Option<SimTime>,
    /// Packets awaiting paced transmission (rate-based clocking).
    pending_tx: u64,
    last_tx: Option<SimTime>,
    /// Whether the previous transmission left more packets queued (the
    /// next gap is then a within-train interval, which is what Table 3's
    /// "avg xmit intvl" reports).
    tx_in_train: bool,
    tx_intervals: Summary,

    completed: u64,
    expected_req: SimDuration,
    /// Whether the session kept a series view when the world was built;
    /// all observation and attribution work is gated on this so the
    /// disabled path stays a sealed no-op.
    scope_on: bool,
    /// Timed-work execution spans for fire-delay attribution.
    ledger: st_scope::ExecLedger,
    scope_fires: u64,
    scope_cpu: SimDuration,
    soft_fires: u64,
    sampler_fires: u64,
    sampler_skipped: u64,
    extra_timer_ticks: u64,
    last_soft_fire: Option<SimTime>,
    soft_fire_gaps: Summary,
    fired: Vec<Expired<SoftEv>>,
    deadline: SimTime,
}

impl SatWorld {
    fn new(config: SaturationConfig) -> Self {
        let soft = SoftClock::new(config.keep_raw_triggers);
        let budget =
            config.server.app_work + config.server.fixed_cost_interrupt_mode(&config.machine);
        let mut rng = SimRng::seed(config.seed);
        // The arrival stream gets its own forked RNG *only* in open-loop
        // mode: closed-loop draws must stay byte-identical to the
        // pre-open-loop harness, and forking mutates the master.
        let (arr_rng, open, admit) = match &config.arrivals {
            ArrivalModel::Closed => (SimRng::seed(config.seed), None, None),
            ArrivalModel::Open(cfg) => {
                let arr_rng = rng.fork(0xA11CE);
                let admit = cfg.admission.map(|m| {
                    AdmissionController::new(m.kind, m.policy, m.rtt_budget_us, m.max_limit)
                });
                (arr_rng, Some(OpenState::new(*cfg)), admit)
            }
        };
        let arrivals = config.arrivals.build();
        SatWorld {
            soft,
            cpu: CpuAccountant::new(),
            rng,
            policy: DriverPolicy::new(config.driver),
            arrivals,
            arr_rng,
            admit,
            open,
            queue: VecDeque::new(),
            cur: None,
            gen: 0,
            done_event: None,
            ring: 0,
            tx_reap: 0,
            rx_busy: false,
            last_nic_intr: None,
            pending_tx: 0,
            last_tx: None,
            tx_in_train: false,
            tx_intervals: Summary::new(),
            completed: 0,
            expected_req: budget,
            scope_on: st_trace::sampling(),
            ledger: st_scope::ExecLedger::new(),
            scope_fires: 0,
            scope_cpu: SimDuration::ZERO,
            soft_fires: 0,
            sampler_fires: 0,
            sampler_skipped: 0,
            extra_timer_ticks: 0,
            last_soft_fire: None,
            soft_fire_gaps: Summary::new(),
            fired: Vec::new(),
            deadline: SimTime::ZERO + config.duration,
            config,
        }
    }

    /// Enqueues the next request's schedule and its rx arrivals.
    fn enqueue_request(&mut self, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        self.enqueue_request_scaled(now, 1.0, ctx);
    }

    /// [`SatWorld::enqueue_request`] for a response `size_scale` times
    /// the base document. At 1.0 the draws and schedule are identical.
    fn enqueue_request_scaled(&mut self, now: SimTime, size_scale: f64, ctx: &mut Ctx<'_, Ev>) {
        let server = self.config.server.clone();
        let machine = self.config.machine;
        let rbc = self.config.rate_clocking != RateClocking::Off;

        for _ in 0..server.context_switches {
            self.queue
                .push_back((machine.context_switch, WorkKind::ContextSwitch));
        }
        let schedule = server.request_schedule_scaled(&machine, &mut self.rng, size_scale);
        let n = schedule.len();
        for (i, (cost, source)) in schedule.into_iter().enumerate() {
            if rbc && source == TriggerSource::IpOutput {
                // Rate-based clocking: the packet is queued for paced
                // transmission instead of going out inline; reaching this
                // point of the request "generates" the packet, and the
                // ip-output cost is charged later in the pacing handler.
                self.pending_tx_markers(i, n);
                self.queue.push_back((
                    SimDuration::from_nanos(200),
                    WorkKind::Request {
                        source: TriggerSource::TcpipOther,
                        last: i + 1 == n,
                    },
                ));
                continue;
            }
            self.queue.push_back((
                cost,
                WorkKind::Request {
                    source,
                    last: i + 1 == n,
                },
            ));
        }

        // Client frames for this request arrive over its expected span,
        // in clusters of two (the client's back-to-back ACK behaviour) —
        // clustering is what lets one interrupt drain several frames on
        // fast servers.
        let mut remaining = server.scaled_rx_packets(size_scale);
        while remaining > 0 {
            let in_cluster = remaining.min(2);
            let frac = self.rng.uniform01();
            let base = now
                + SimDuration::from_nanos(
                    (self.expected_req.as_nanos() as f64 * size_scale * frac).round() as u64,
                );
            for j in 0..in_cluster {
                ctx.schedule_at(base + SimDuration::from_micros(4 * j as u64), Ev::RxArrival);
            }
            remaining -= in_cluster;
        }
    }

    /// Credits one packet to the pacing queue (rate-based clocking).
    fn pending_tx_markers(&mut self, _i: usize, _n: usize) {
        self.pending_tx += 1;
    }

    fn start_next(&mut self, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        if self.cur.is_some() {
            return;
        }
        let Some((cost, kind)) = self.queue.pop_front() else {
            return;
        };
        self.gen += 1;
        let end = now + cost;
        let category = match kind {
            WorkKind::Request { .. } => CpuCategory::Kernel,
            WorkKind::ContextSwitch => CpuCategory::ContextSwitch,
            WorkKind::Overhead(c) => c,
        };
        self.cpu.charge(category, cost);
        self.cur = Some(Current {
            end,
            gen: self.gen,
            kind,
        });
        self.done_event = Some(ctx.schedule_at(end, Ev::WorkDone { gen: self.gen }));
    }

    /// Charges `cost` as an immediate insertion: extends the current item
    /// or, between items, runs as a front-of-queue overhead item (charged
    /// when it starts).
    ///
    /// Timed-work categories (soft-timer dispatch, polling) are also
    /// noted in the attribution ledger as executing at `now`, so a later
    /// fire can see how much of its lateness this work covered.
    fn insert_cost(
        &mut self,
        now: SimTime,
        cost: SimDuration,
        category: CpuCategory,
        ctx: &mut Ctx<'_, Ev>,
    ) {
        if cost == SimDuration::ZERO {
            return;
        }
        if self.scope_on && matches!(category, CpuCategory::SoftTimer | CpuCategory::Polling) {
            let start = now.since(SimTime::ZERO).as_nanos();
            self.ledger.note(start, start + cost.as_nanos());
        }
        if let Some(cur) = &mut self.cur {
            self.cpu.charge(category, cost);
            cur.end += cost;
            self.gen += 1;
            cur.gen = self.gen;
            if let Some(old) = self.done_event.take() {
                ctx.cancel(old);
            }
            self.done_event = Some(ctx.schedule_at(cur.end, Ev::WorkDone { gen: self.gen }));
        } else {
            self.queue.push_front((cost, WorkKind::Overhead(category)));
        }
    }

    /// A trigger state at `now`: record, poll the facility, run fired
    /// handlers.
    fn trigger(&mut self, now: SimTime, source: TriggerSource, ctx: &mut Ctx<'_, Ev>) {
        let mut fired = std::mem::take(&mut self.fired);
        fired.clear();
        self.soft.trigger(now, source, &mut fired);
        // The check itself costs a clock read + compare.
        self.insert_cost(
            now,
            self.config.machine.soft_check,
            CpuCategory::SoftTimer,
            ctx,
        );
        for ev in &fired {
            self.attribute_fire(ev, source.label());
            self.run_soft_handler(now, ev, ctx);
        }
        self.fired = fired;
    }

    /// Backup sweep from the kernel clock tick.
    fn backup(&mut self, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        let mut fired = std::mem::take(&mut self.fired);
        fired.clear();
        self.soft.backup_tick(now, &mut fired);
        for ev in &fired {
            self.attribute_fire(ev, "backup");
            self.run_soft_handler(now, ev, ctx);
        }
        self.fired = fired;
    }

    /// Decomposes one fire's lateness into trigger-wait vs. cascade and
    /// records it on the waterfall lane of the firing trigger source.
    /// The two components sum exactly to the delay the facility itself
    /// recorded (`fired_at - due`), so per-lane sums reconcile against
    /// `FacilityStats::delay_sum_ticks` with no rounding slack.
    fn attribute_fire(&mut self, ev: &Expired<SoftEv>, lane: &'static str) {
        if !self.scope_on {
            return;
        }
        let (wait, cascade) = self.ledger.split(ev.due, ev.fired_at);
        st_trace::fire_delay(lane, wait, cascade);
    }

    fn note_soft_fire(&mut self, now: SimTime) {
        self.soft_fires += 1;
        if let Some(last) = self.last_soft_fire {
            self.soft_fire_gaps.record(now.since(last).as_micros_f64());
        }
        self.last_soft_fire = Some(now);
    }

    fn run_soft_handler(&mut self, now: SimTime, ev: &Expired<SoftEv>, ctx: &mut Ctx<'_, Ev>) {
        if ev.payload == SoftEv::ScopeObserve {
            // Observation only: no cost, no fire accounting, no RNG —
            // a run under a sampling session stays byte-identical
            // to one without. Rearm on the 1 kHz observation grid.
            self.scope_observe(now);
            let lag = ev.fired_at.saturating_sub(ev.due);
            let delta = 999u64.saturating_sub(lag % 1_000);
            self.soft.schedule(now, delta, SoftEv::ScopeObserve);
            return;
        }
        self.note_soft_fire(now);
        match ev.payload {
            SoftEv::Null => {
                self.insert_cost(
                    now,
                    self.config.machine.soft_dispatch,
                    CpuCategory::SoftTimer,
                    ctx,
                );
                // Maximal rate: rearm for the very next trigger state.
                self.soft.schedule(now, 0, SoftEv::Null);
            }
            SoftEv::TxPace => {
                if self.pending_tx > 0 {
                    self.pending_tx -= 1;
                    self.record_tx(now);
                    ctx.schedule_in(SimDuration::from_micros(120), Ev::TxComplete);
                    let cost = self.config.server.tx_cost + self.config.server.soft_handler_cost;
                    self.insert_cost(now, cost, CpuCategory::SoftTimer, ctx);
                } else {
                    self.insert_cost(
                        now,
                        self.config.machine.soft_dispatch,
                        CpuCategory::SoftTimer,
                        ctx,
                    );
                }
                self.soft.schedule(now, 0, SoftEv::TxPace);
            }
            SoftEv::PollNic => {
                let found = self.ring;
                self.ring = 0;
                let reaped = self.tx_reap;
                self.tx_reap = 0;
                let cost = self.poll_cost(found) + self.config.server.tx_reap_cost * reaped as u64;
                self.insert_cost(now, cost, CpuCategory::Polling, ctx);
                if let Some(interval) = self.policy.next_poll_interval(found as u64) {
                    self.soft.schedule(now, interval.max(1), SoftEv::PollNic);
                }
            }
            SoftEv::LimitUpdate => {
                let m = self.config.machine;
                let cost = m.soft_dispatch + m.admit_update;
                self.insert_cost(now, cost, CpuCategory::SoftTimer, ctx);
                if let Some(open) = self.open.as_mut() {
                    open.update_cpu += cost;
                    open.update_fires += 1;
                }
                self.run_limit_update(now);
                if let Some(period) = self.update_period_us() {
                    // Grid-aligned rearm, same pattern as the profiler
                    // sampler: the update rate must not drift down under
                    // exactly the load that makes admission matter.
                    let lag = ev.fired_at.saturating_sub(ev.due);
                    let delta = (period - 1).saturating_sub(lag % period);
                    self.soft.schedule(now, delta, SoftEv::LimitUpdate);
                }
            }
            SoftEv::ShedReply => {
                let cost = shed_reply_cost(&self.config.server);
                self.insert_cost(now, cost, CpuCategory::SoftTimer, ctx);
                if let Some(open) = self.open.as_mut() {
                    if open.pending_sheds > 0 {
                        open.pending_sheds -= 1;
                        open.conns = open.conns.saturating_sub(1);
                    }
                }
            }
            SoftEv::Sample => {
                self.sampler_fires += 1;
                self.insert_cost(
                    now,
                    self.config.machine.prof_sample,
                    CpuCategory::SoftTimer,
                    ctx,
                );
                if let Some(load) = self.config.soft_sampler {
                    // Grid-aligned rearm: the next due tick stays on the
                    // original `period` grid regardless of how late this
                    // fire was, so the effective rate does not drift down
                    // under load. The facility fires at schedule + T + 1,
                    // hence the -1.
                    let period = (1_000_000 / load.freq_hz.max(1)).max(1);
                    let lag = ev.fired_at.saturating_sub(ev.due);
                    self.sampler_skipped += lag / period;
                    let delta = (period - 1).saturating_sub(lag % period);
                    self.soft.schedule(now, delta, SoftEv::Sample);
                }
            }
            SoftEv::ScopeSample => {
                let m = self.config.machine;
                let cost = m.soft_dispatch + m.scope_sample;
                self.insert_cost(now, cost, CpuCategory::SoftTimer, ctx);
                self.scope_fires += 1;
                self.scope_cpu += cost;
                self.scope_observe(now);
                if let ScopeSampling::Soft { freq_hz } = self.config.scope_sampling {
                    // Grid-aligned rearm, same pattern as the profiler
                    // sampler: the effective sampling rate must not
                    // drift down under exactly the load a timeline is
                    // meant to explain.
                    let period = (1_000_000 / freq_hz.max(1)).max(1);
                    let lag = ev.fired_at.saturating_sub(ev.due);
                    let delta = (period - 1).saturating_sub(lag % period);
                    self.soft.schedule(now, delta, SoftEv::ScopeSample);
                }
            }
            SoftEv::ScopeObserve => unreachable!("handled before fire accounting"),
        }
    }

    /// Reads the world into the ambient session's series view: gauges
    /// for the serving path and admission limits, plus a timeline sample
    /// differencing the session's counters. Sealed no-op without a
    /// sampling session; charges nothing to the simulation either way.
    fn scope_observe(&mut self, now: SimTime) {
        let tick = self.soft.ticks(now);
        if let Some(open) = self.open.as_ref() {
            st_trace::gauge(tick, "http.conns", open.conns as f64);
            st_trace::gauge(tick, "http.queue", open.pending.len() as f64);
            st_trace::gauge(tick, "http.pins", open.pins.len() as f64);
        }
        // Admission limits are NOT gauged here: the controller gauges
        // `admit.limit.*` itself at each update, the only place limits
        // change, so sampling them again would only duplicate series.
        st_trace::gauge(tick, "nic.ring", self.ring as f64);
        st_trace::sample(tick);
    }

    /// CPU cost of a poll finding `found` frames: register read, per-frame
    /// driver work, protocol processing with aggregation savings for
    /// frames after the first in a batch.
    fn poll_cost(&self, found: usize) -> SimDuration {
        let m = &self.config.machine;
        let s = &self.config.server;
        let mut cost = m.nic_poll_empty;
        if found > 0 {
            cost += s.rx_poll_driver_cost * found as u64;
            let proto = s.rx_protocol_cost.as_nanos() as f64;
            let saving = m.aggregation_saving;
            let first = proto;
            let rest = proto * (1.0 - saving) * (found as u64 - 1) as f64;
            cost += SimDuration::from_nanos((first + rest).round() as u64);
        }
        cost
    }

    fn record_tx(&mut self, now: SimTime) {
        if let Some(last) = self.last_tx {
            if self.tx_in_train {
                self.tx_intervals.record(now.since(last).as_micros_f64());
            }
        }
        self.last_tx = Some(now);
        // A train continues while more packets wait behind this one.
        self.tx_in_train = self.pending_tx > 0;
    }

    /// Starts a NIC interrupt that drains everything pending: received
    /// frames (protocol work per frame) and transmit completions (reap
    /// per descriptor); interrupt entry/exit and pollution are paid once
    /// per interrupt — the latch's natural coalescing.
    fn begin_rx_interrupt(&mut self, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        self.rx_busy = true;
        let rx_found = self.ring as u64;
        self.ring = 0;
        let tx_found = self.tx_reap as u64;
        self.tx_reap = 0;
        // Cache residency: an interrupt soon after the previous one finds
        // the handler still cached and pays less pollution.
        let tau = self.config.machine.intr_cache_residency_us;
        let residency = match self.last_nic_intr {
            Some(prev) => {
                let gap_us = now.since(prev).as_micros_f64();
                1.0 - (-gap_us / tau.max(1e-9)).exp()
            }
            None => 1.0,
        };
        self.last_nic_intr = Some(now);
        // Everything above the dispatch floor is cache effects and gets
        // the residency discount (most of the 6.3 us base interrupt cost
        // is state save/restore misses and handler-code refetch).
        let floor = self.config.machine.nic_intr_floor;
        let cacheable = (self.config.machine.nic_interrupt - floor
            + self.config.server.nic_intr_pollution)
            .as_nanos() as f64;
        let intr_cost = floor + SimDuration::from_nanos((cacheable * residency).round() as u64);
        let cost = intr_cost
            + self.config.server.rx_protocol_cost * rx_found
            + self.config.server.tx_reap_cost * tx_found;
        self.hardware_interrupt(now, cost, TriggerSource::IpIntr, ctx);
    }

    /// A hardware interrupt at `now` costing `cost`; the return path (a
    /// trigger state) happens after the cost is absorbed.
    fn hardware_interrupt(
        &mut self,
        now: SimTime,
        cost: SimDuration,
        ret_source: TriggerSource,
        ctx: &mut Ctx<'_, Ev>,
    ) {
        // Charge directly (interrupts always preempt, even between items).
        self.cpu.charge(CpuCategory::Interrupt, cost);
        if self.scope_on {
            let start = now.since(SimTime::ZERO).as_nanos();
            self.ledger.note(start, start + cost.as_nanos());
        }
        if let Some(cur) = &mut self.cur {
            cur.end += cost;
            self.gen += 1;
            cur.gen = self.gen;
            if let Some(old) = self.done_event.take() {
                ctx.cancel(old);
            }
            self.done_event = Some(ctx.schedule_at(cur.end, Ev::WorkDone { gen: self.gen }));
        }
        ctx.schedule_at(now + cost, Ev::IntrReturn { source: ret_source });
    }

    /// One arrival reaches the accept path. Closed loop: straight into
    /// the work queue. Open loop: connection table, pinning, admission.
    fn accept_arrival(&mut self, now: SimTime, arr: Arrival, ctx: &mut Ctx<'_, Ev>) {
        let Some(open) = self.open.as_mut() else {
            self.enqueue_request(now, ctx);
            return;
        };
        open.counters.offered += 1;
        if open.conns >= open.cfg.max_connections {
            open.counters.dropped += 1;
            return;
        }
        open.conns += 1;
        if let Some(pin) = arr.pinned_us {
            let id = open.next_pin_id;
            open.next_pin_id += 1;
            open.pins.push_back(Pin {
                id,
                arrived: now,
                class: arr.class,
                size_scale: arr.size_scale,
            });
            ctx.schedule_at(now + SimDuration::from_micros(pin), Ev::PinBody { id });
            return;
        }
        self.admit_body(now, arr.class, arr.size_scale, now, ctx);
    }

    /// The request body is present: run the admission fast path (one
    /// compare), then enqueue or shed per the rejection policy.
    fn admit_body(
        &mut self,
        now: SimTime,
        class: RequestClass,
        size_scale: f64,
        arrived: SimTime,
        ctx: &mut Ctx<'_, Ev>,
    ) {
        if let Some(c) = self.admit.as_mut() {
            let decision = c.try_admit(class);
            self.insert_cost(
                now,
                self.config.machine.admit_check,
                CpuCategory::Kernel,
                ctx,
            );
            match decision {
                Decision::Admit => {}
                Decision::Reject(RejectPolicy::Immediate) => {
                    let open = self.open.as_mut().expect("admission implies open loop");
                    open.counters.shed += 1;
                    open.conns = open.conns.saturating_sub(1);
                    let cost = shed_reply_cost(&self.config.server);
                    self.insert_cost(now, cost, CpuCategory::Kernel, ctx);
                    return;
                }
                Decision::Reject(RejectPolicy::DelayedShed { delay_ticks }) => {
                    let open = self.open.as_mut().expect("admission implies open loop");
                    open.counters.shed += 1;
                    open.pending_sheds += 1;
                    self.soft.schedule(now, delay_ticks, SoftEv::ShedReply);
                    return;
                }
            }
        }
        let open = self.open.as_mut().expect("open loop");
        open.counters.admitted += 1;
        open.pending.push_back(PendingReq { class, arrived });
        self.enqueue_request_scaled(now, size_scale, ctx);
    }

    /// An open-loop request's last work item finished: record latency,
    /// free the slot, feed the admission signal.
    fn finish_open_request(&mut self, now: SimTime) {
        let Some(open) = self.open.as_mut() else {
            return;
        };
        let Some(req) = open.pending.pop_front() else {
            return;
        };
        let lat_us = now.since(req.arrived).as_nanos() / 1_000;
        open.latencies_us.push(lat_us);
        if lat_us <= open.cfg.slo_us {
            open.counters.completed_ok += 1;
        } else {
            open.counters.completed_late += 1;
        }
        st_trace::observe_window("http.latency_us", lat_us as f64);
        st_trace::count("http.completed", 1);
        open.conns = open.conns.saturating_sub(1);
        let class = req.class;
        if let Some(c) = self.admit.as_mut() {
            c.on_complete(class, lat_us);
        }
    }

    /// The periodic limit update: limiter math plus pinned-connection
    /// reaping — all the adaptive work the fast path defers.
    fn run_limit_update(&mut self, now: SimTime) {
        let now_us = now.since(SimTime::ZERO).as_nanos() / 1_000;
        if let Some(c) = self.admit.as_mut() {
            c.update_limits(now_us);
        }
        let Some(open) = self.open.as_mut() else {
            return;
        };
        let Some(mode) = open.cfg.admission else {
            return;
        };
        while let Some(front) = open.pins.front() {
            if now.since(front.arrived).as_nanos() / 1_000 < mode.pin_budget_us {
                break;
            }
            let p = open.pins.pop_front().expect("front exists");
            open.pins_reaped_below = p.id + 1;
            open.conns = open.conns.saturating_sub(1);
            open.counters.reaped_pins += 1;
        }
    }

    /// The soft-timer limit-update grid period, when configured.
    fn update_period_us(&self) -> Option<u64> {
        let ArrivalModel::Open(cfg) = &self.config.arrivals else {
            return None;
        };
        match cfg.admission?.driver {
            UpdateDriver::Soft { period_us } => Some(period_us.max(1)),
            UpdateDriver::Hardware { .. } => None,
        }
    }

    /// The hardware limit-update frequency, when configured.
    fn hw_update_freq(&self) -> Option<u64> {
        let ArrivalModel::Open(cfg) = &self.config.arrivals else {
            return None;
        };
        match cfg.admission?.driver {
            UpdateDriver::Soft { .. } => None,
            UpdateDriver::Hardware { freq_hz } => Some(freq_hz),
        }
    }
}

impl World for SatWorld {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        match ev {
            Ev::Boot => {
                let boots = self.arrivals.at_boot(&mut self.arr_rng);
                for (delay, arr) in boots {
                    if delay == SimDuration::ZERO {
                        self.accept_arrival(now, arr, ctx);
                    } else {
                        ctx.schedule_at(now + delay, Ev::NewRequest(arr));
                    }
                }
                self.start_next(now, ctx);
            }
            Ev::WorkDone { gen } => {
                let Some(cur) = &self.cur else { return };
                if cur.gen != gen {
                    return; // Superseded by an insertion.
                }
                let kind = cur.kind;
                self.cur = None;
                self.done_event = None;
                match kind {
                    WorkKind::Request { source, last } => {
                        if source == TriggerSource::IpOutput
                            && self.config.rate_clocking == RateClocking::Off
                        {
                            // Inline transmission completes here; the NIC
                            // signals completion after serialization
                            // (120 us for a full frame at 100 Mbps).
                            self.record_tx(now);
                            ctx.schedule_in(SimDuration::from_micros(120), Ev::TxComplete);
                        }
                        self.trigger(now, source, ctx);
                        if last {
                            self.completed += 1;
                            self.finish_open_request(now);
                            if now < self.deadline {
                                if let Some(arr) =
                                    self.arrivals.on_completion(now, &mut self.arr_rng)
                                {
                                    self.accept_arrival(now, arr, ctx);
                                }
                            }
                        }
                    }
                    WorkKind::ContextSwitch | WorkKind::Overhead(_) => {}
                }
                self.start_next(now, ctx);
            }
            Ev::ExtraTimer => {
                if now >= self.deadline {
                    return;
                }
                let load = self.config.extra_timer.expect("event implies config");
                self.extra_timer_ticks += 1;
                self.hardware_interrupt(
                    now,
                    self.config.machine.hw_interrupt,
                    TriggerSource::OtherIntr,
                    ctx,
                );
                ctx.schedule_in(SimDuration::from_hz(load.freq_hz), Ev::ExtraTimer);
            }
            Ev::RbcTimer => {
                if now >= self.deadline {
                    return;
                }
                let RateClocking::Hardware { freq_hz } = self.config.rate_clocking else {
                    return;
                };
                // The handler runs on every tick (checks the queue, touches
                // TCP state), so its cache pollution is paid per interrupt
                // whether or not a packet goes out — this is Table 3's
                // extra 6 % / 14 % beyond the null-handler base.
                let mut cost =
                    self.config.machine.hw_interrupt + self.config.server.hw_handler_pollution;
                if self.pending_tx > 0 {
                    self.pending_tx -= 1;
                    self.record_tx(now);
                    ctx.schedule_in(SimDuration::from_micros(120), Ev::TxComplete);
                    cost += self.config.server.tx_cost;
                }
                self.hardware_interrupt(now, cost, TriggerSource::OtherIntr, ctx);
                ctx.schedule_in(SimDuration::from_hz(freq_hz), Ev::RbcTimer);
            }
            Ev::BackupTimer => {
                if now >= self.deadline {
                    return;
                }
                if self.scope_on {
                    // The attribution window never reaches further back
                    // than the worst fire delay; 16 ms is far past it.
                    let now_ns = now.since(SimTime::ZERO).as_nanos();
                    self.ledger.prune(now_ns.saturating_sub(16_000_000));
                }
                self.backup(now, ctx);
                ctx.schedule_in(SimDuration::from_millis(1), Ev::BackupTimer);
                self.start_next(now, ctx);
            }
            Ev::RxArrival => match self.config.driver {
                DriverStrategy::InterruptDriven
                | DriverStrategy::Hybrid
                | DriverStrategy::CoalescedInterrupts { .. } => {
                    self.ring += 1;
                    if !self.rx_busy {
                        self.begin_rx_interrupt(now, ctx);
                    }
                    // Otherwise the frame coalesces into the in-progress
                    // interrupt's follow-up drain (the NIC latch).
                }
                DriverStrategy::PurePolling { .. } | DriverStrategy::SoftTimerPolling { .. } => {
                    self.ring += 1;
                }
            },
            Ev::TxComplete => match self.config.driver {
                DriverStrategy::InterruptDriven
                | DriverStrategy::Hybrid
                | DriverStrategy::CoalescedInterrupts { .. } => {
                    self.tx_reap += 1;
                    if !self.rx_busy {
                        self.begin_rx_interrupt(now, ctx);
                    }
                }
                DriverStrategy::PurePolling { .. } | DriverStrategy::SoftTimerPolling { .. } => {
                    self.tx_reap += 1;
                }
            },
            Ev::IntrReturn { source } => {
                self.trigger(now, source, ctx);
                if source == TriggerSource::IpIntr {
                    if self.ring > 0 || self.tx_reap > 0 {
                        // The latch was re-asserted while we processed:
                        // take another interrupt immediately.
                        self.begin_rx_interrupt(now, ctx);
                    } else {
                        self.rx_busy = false;
                    }
                }
                self.start_next(now, ctx);
            }
            Ev::NewRequest(arr) => {
                if now >= self.deadline {
                    return;
                }
                // Keep the open-loop chain alive first: clients arrive on
                // their own clock whatever happens to this request.
                if let Some((gap, next)) = self.arrivals.next_timed(now, &mut self.arr_rng) {
                    ctx.schedule_at(now + gap, Ev::NewRequest(next));
                }
                self.accept_arrival(now, arr, ctx);
                self.start_next(now, ctx);
            }
            Ev::PinBody { id } => {
                if now >= self.deadline {
                    return;
                }
                let Some(open) = self.open.as_mut() else {
                    return;
                };
                if id < open.pins_reaped_below {
                    return; // Reaped before the body arrived.
                }
                let Some(pos) = open.pins.iter().position(|p| p.id == id) else {
                    return;
                };
                let p = open.pins.remove(pos).expect("position just found");
                let (class, scale, arrived) = (p.class, p.size_scale, p.arrived);
                self.admit_body(now, class, scale, arrived, ctx);
                self.start_next(now, ctx);
            }
            Ev::AdmitHwTimer => {
                if now >= self.deadline {
                    return;
                }
                let m = self.config.machine;
                let cost =
                    m.hw_interrupt + self.config.server.hw_handler_pollution + m.admit_update;
                if let Some(open) = self.open.as_mut() {
                    open.update_cpu += cost;
                    open.update_fires += 1;
                }
                self.run_limit_update(now);
                self.hardware_interrupt(now, cost, TriggerSource::OtherIntr, ctx);
                if let Some(freq) = self.hw_update_freq() {
                    ctx.schedule_in(SimDuration::from_hz(freq), Ev::AdmitHwTimer);
                }
            }
            Ev::ScopeHwTimer => {
                if now >= self.deadline {
                    return;
                }
                let ScopeSampling::Hardware { freq_hz } = self.config.scope_sampling else {
                    return;
                };
                // A dedicated sampling interrupt pays the full price the
                // paper measures for periodic hardware timers: entry/exit
                // plus handler pollution, then the sample body itself.
                let m = self.config.machine;
                let cost =
                    m.hw_interrupt + self.config.server.hw_handler_pollution + m.scope_sample;
                self.scope_fires += 1;
                self.scope_cpu += cost;
                self.scope_observe(now);
                self.hardware_interrupt(now, cost, TriggerSource::OtherIntr, ctx);
                ctx.schedule_in(SimDuration::from_hz(freq_hz), Ev::ScopeHwTimer);
            }
        }
    }
}

/// Runs saturation experiments.
#[derive(Debug)]
pub struct SaturationSim;

impl SaturationSim {
    /// Executes one run and reports results.
    ///
    /// # Panics
    ///
    /// Panics on [`DriverStrategy::CoalescedInterrupts`]: hardware
    /// interrupt moderation is modeled only by the open-loop simulator
    /// (`crate::livelock`); running it here would silently behave like
    /// plain interrupts.
    pub fn run(config: SaturationConfig) -> SaturationResult {
        assert!(
            !matches!(config.driver, DriverStrategy::CoalescedInterrupts { .. }),
            "CoalescedInterrupts is not modeled by the saturation sim;              use st_http::livelock for the interrupt-moderation ablation"
        );
        let duration = config.duration;
        let mut engine = Engine::new(SatWorld::new(config));

        // Boot: pending soft events, timers, first request.
        {
            let w = engine.world_mut();
            let now = SimTime::ZERO;
            if w.config.soft_null_event {
                w.soft.schedule(now, 0, SoftEv::Null);
            }
            if w.config.rate_clocking == RateClocking::Soft {
                w.soft.schedule(now, 0, SoftEv::TxPace);
            }
            if w.policy.polls() {
                let first = w.policy.next_poll_interval(0).expect("polling policy");
                w.soft.schedule(now, first, SoftEv::PollNic);
            }
            if let Some(load) = w.config.soft_sampler {
                let period = (1_000_000 / load.freq_hz.max(1)).max(1);
                w.soft.schedule(now, period - 1, SoftEv::Sample);
            }
            if let Some(period) = w.update_period_us() {
                w.soft.schedule(now, period - 1, SoftEv::LimitUpdate);
            }
            if let ScopeSampling::Soft { freq_hz } = w.config.scope_sampling {
                // Mid-phase start: a sampling grid sharing the backup
                // sweep's phase would be scooped by the 1 kHz backup at
                // exactly zero delay on every period — the samples must
                // ride trigger states to be soft-timer-driven at all.
                // The grid-aligned rearm preserves this phase for the
                // rest of the run.
                let period = (1_000_000 / freq_hz.max(1)).max(1);
                w.soft.schedule(now, period / 2, SoftEv::ScopeSample);
            }
            if w.scope_on && w.config.scope_sampling == ScopeSampling::Off {
                // Pure observation at 1 kHz (mid-phase, like the modeled
                // sampler): the event is free and leaves the modeled run
                // byte-identical, so an outer `--timeline` session can
                // watch any experiment without perturbing it.
                w.soft.schedule(now, 499, SoftEv::ScopeObserve);
            }
        }
        engine.schedule_at(SimTime::ZERO, Ev::Boot);
        engine.schedule_at(SimTime::from_millis(1), Ev::BackupTimer);
        if let Some(load) = engine.world().config.extra_timer {
            engine.schedule_at(
                SimTime::ZERO + SimDuration::from_hz(load.freq_hz),
                Ev::ExtraTimer,
            );
        }
        if let RateClocking::Hardware { freq_hz } = engine.world().config.rate_clocking {
            engine.schedule_at(SimTime::ZERO + SimDuration::from_hz(freq_hz), Ev::RbcTimer);
        }
        if let Some(freq) = engine.world().hw_update_freq() {
            engine.schedule_at(SimTime::ZERO + SimDuration::from_hz(freq), Ev::AdmitHwTimer);
        }
        if let ScopeSampling::Hardware { freq_hz } = engine.world().config.scope_sampling {
            engine.schedule_at(
                SimTime::ZERO + SimDuration::from_hz(freq_hz),
                Ev::ScopeHwTimer,
            );
        }

        let deadline = SimTime::ZERO + duration;
        engine.run_until(deadline);
        let elapsed = engine.now();
        let world = engine.into_world();

        let overload = world.open.as_ref().map(|open| {
            let mut lat = open.latencies_us.clone();
            lat.sort_unstable();
            let secs = elapsed.as_secs_f64().max(1e-9);
            let c = &open.counters;
            let run_ns = elapsed.since(SimTime::ZERO).as_nanos().max(1);
            let (li, lb) = match &world.admit {
                Some(a) => (
                    a.limit(RequestClass::Interactive),
                    a.limit(RequestClass::Bulk),
                ),
                None => (0, 0),
            };
            OverloadStats {
                offered: c.offered,
                admitted: c.admitted,
                shed: c.shed,
                dropped: c.dropped,
                reaped_pins: c.reaped_pins,
                completed_ok: c.completed_ok,
                completed_late: c.completed_late,
                goodput: c.completed_ok as f64 / secs,
                shed_rate: c.shed as f64 / (c.offered as f64).max(1.0),
                p50_us: percentile_us(&lat, 50, 100),
                p99_us: percentile_us(&lat, 99, 100),
                p999_us: percentile_us(&lat, 999, 1_000),
                max_us: lat.last().copied().unwrap_or(0),
                update_fires: open.update_fires,
                update_cpu_pct: 100.0 * open.update_cpu.as_nanos() as f64 / run_ns as f64,
                limit_interactive: li,
                limit_bulk: lb,
            }
        });

        let run_ns = elapsed.since(SimTime::ZERO).as_nanos().max(1);
        let fstats = world.soft.core().stats();
        let facility_fires = fstats.fired();
        let facility_delay_ticks = fstats.delay_sum_ticks();
        let recorder = world.soft.recorder();
        SaturationResult {
            requests: world.completed,
            elapsed,
            throughput: world.completed as f64 / elapsed.as_secs_f64(),
            trigger_mean_us: recorder.all.mean(),
            trigger_median_us: recorder.median_us(),
            soft_fires: world.soft_fires,
            sampler_fires: world.sampler_fires,
            sampler_skipped: world.sampler_skipped,
            extra_timer_ticks: world.extra_timer_ticks,
            soft_fire_interval_us: world.soft_fire_gaps.mean(),
            avg_found_per_poll: world.policy.average_found(),
            raw_triggers: recorder.raw().map(|r| r.to_vec()),
            tx_intervals: world.tx_intervals.clone(),
            cpu: world.cpu.clone(),
            overload,
            scope_fires: world.scope_fires,
            scope_cpu_pct: 100.0 * world.scope_cpu.as_nanos() as f64 / run_ns as f64,
            facility_fires,
            facility_delay_ticks,
        }
    }
}

impl SaturationSim {
    /// Calibrates a server model's `app_work` so that the *simulated*
    /// interrupt-driven baseline hits `target` requests/s.
    ///
    /// Unlike [`ServerModel::calibrated`]'s closed form, this accounts
    /// for NIC-latch coalescing: at high request rates many rx frames and
    /// tx completions share one interrupt, so the per-request interrupt
    /// overhead is lower than the per-frame sum. Binary-searches
    /// `app_work` with short probe runs (monotone: more work = less
    /// throughput).
    ///
    /// # Panics
    ///
    /// Panics when `target` is unreachable even with zero residual work.
    pub fn calibrate_app_work(
        machine: CostModel,
        mut server: ServerModel,
        target: f64,
        probe: SimDuration,
        seed: u64,
    ) -> ServerModel {
        let probe_tput = |server: &ServerModel, seed: u64| {
            let mut cfg = SaturationConfig::baseline(machine, server.clone(), seed);
            cfg.duration = probe;
            SaturationSim::run(cfg).throughput
        };
        server.app_work = SimDuration::ZERO;
        let max = probe_tput(&server, seed);
        assert!(
            max >= target * 0.995,
            "target {target}/s unreachable: fixed costs cap throughput at {max}/s"
        );
        let mut lo = 0u64;
        let mut hi = (1e9 / target) as u64; // A full budget of extra work.
        for i in 0..24 {
            let mid = (lo + hi) / 2;
            server.app_work = SimDuration::from_nanos(mid);
            let t = probe_tput(&server, seed + i);
            if t > target {
                lo = mid;
            } else {
                hi = mid;
            }
            if (t - target).abs() / target < 0.003 {
                break;
            }
        }
        server.app_work = SimDuration::from_nanos((lo + hi) / 2);
        server
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{HttpMode, ServerKind};

    fn apache_cfg(seed: u64) -> SaturationConfig {
        let machine = CostModel::pentium_ii_300();
        let server = ServerModel::calibrated(ServerKind::Apache, HttpMode::Http, &machine, 774.0);
        let mut c = SaturationConfig::baseline(machine, server, seed);
        c.duration = SimDuration::from_secs(2);
        c
    }

    #[test]
    fn baseline_throughput_matches_calibration() {
        let r = SaturationSim::run(apache_cfg(1));
        assert!(
            (r.throughput - 774.0).abs() / 774.0 < 0.05,
            "baseline throughput {}",
            r.throughput
        );
    }

    #[test]
    fn trigger_mean_is_tens_of_microseconds() {
        let r = SaturationSim::run(apache_cfg(2));
        assert!(
            (20.0..45.0).contains(&r.trigger_mean_us),
            "trigger mean {}",
            r.trigger_mean_us
        );
    }

    #[test]
    fn extra_timer_at_100khz_costs_about_45_percent() {
        let base = SaturationSim::run(apache_cfg(3));
        let mut cfg = apache_cfg(3);
        cfg.extra_timer = Some(TimerLoad { freq_hz: 100_000 });
        let loaded = SaturationSim::run(cfg);
        let overhead = 1.0 - loaded.throughput / base.throughput;
        assert!(
            (0.40..0.50).contains(&overhead),
            "overhead at 100 kHz: {overhead}"
        );
    }

    #[test]
    fn extra_timer_overhead_is_linear_in_frequency() {
        let base = SaturationSim::run(apache_cfg(4));
        let at = |hz: u64| {
            let mut cfg = apache_cfg(4);
            cfg.extra_timer = Some(TimerLoad { freq_hz: hz });
            1.0 - SaturationSim::run(cfg).throughput / base.throughput
        };
        let o25 = at(25_000);
        let o50 = at(50_000);
        assert!((o50 / o25 - 2.0).abs() < 0.2, "o25={o25} o50={o50}");
    }

    #[test]
    fn null_soft_event_has_negligible_overhead() {
        // §5.2: "no observable difference in the Web server's throughput".
        let base = SaturationSim::run(apache_cfg(5));
        let mut cfg = apache_cfg(5);
        cfg.soft_null_event = true;
        let soft = SaturationSim::run(cfg);
        let overhead = 1.0 - soft.throughput / base.throughput;
        assert!(overhead < 0.02, "soft null overhead {overhead}");
        // And the handler ran at trigger-state granularity.
        assert!(
            (20.0..45.0).contains(&soft.soft_fire_interval_us),
            "fire interval {}",
            soft.soft_fire_interval_us
        );
    }

    #[test]
    fn soft_rate_clocking_is_much_cheaper_than_hardware() {
        let base = SaturationSim::run(apache_cfg(6));
        let mut cfg = apache_cfg(6);
        cfg.rate_clocking = RateClocking::Soft;
        let soft = SaturationSim::run(cfg);
        let mut cfg = apache_cfg(6);
        cfg.rate_clocking = RateClocking::Hardware { freq_hz: 50_000 };
        let hw = SaturationSim::run(cfg);
        let soft_ovh = 1.0 - soft.throughput / base.throughput;
        let hw_ovh = 1.0 - hw.throughput / base.throughput;
        assert!(soft_ovh < 0.08, "soft overhead {soft_ovh}");
        assert!(hw_ovh > 0.20, "hw overhead {hw_ovh}");
        assert!(hw_ovh > 3.0 * soft_ovh, "soft {soft_ovh} vs hw {hw_ovh}");
    }

    #[test]
    fn soft_polling_beats_interrupts() {
        let base = SaturationSim::run(apache_cfg(7));
        let mut cfg = apache_cfg(7);
        cfg.driver = DriverStrategy::SoftTimerPolling { quota: 1.0 };
        let polled = SaturationSim::run(cfg);
        assert!(
            polled.throughput > base.throughput * 1.02,
            "polling {} vs base {}",
            polled.throughput,
            base.throughput
        );
    }

    #[test]
    fn higher_quota_aggregates_more() {
        let mut cfg = apache_cfg(8);
        cfg.driver = DriverStrategy::SoftTimerPolling { quota: 10.0 };
        let r = SaturationSim::run(cfg);
        let found = r.avg_found_per_poll.unwrap();
        assert!(found > 2.0, "avg found {found}");
    }

    #[test]
    fn soft_sampler_tracks_target_rate_and_stays_cheap() {
        let base = SaturationSim::run(apache_cfg(10));
        let mut cfg = apache_cfg(10);
        cfg.soft_sampler = Some(SamplerLoad { freq_hz: 20_000 });
        let sampled = SaturationSim::run(cfg);
        // Grid-aligned rearm conserves grid points: every period either
        // yields a sample or is counted as skipped (fires can lag past
        // grid points but the grid itself never drifts).
        let expected = 20_000.0 * sampled.elapsed.as_secs_f64();
        let covered = (sampled.sampler_fires + sampled.sampler_skipped) as f64;
        let ratio = covered / expected;
        assert!((0.99..=1.005).contains(&ratio), "grid ratio {ratio}");
        // Most grid points land on a trigger state in time.
        let hit = sampled.sampler_fires as f64 / expected;
        assert!(hit > 0.75, "hit fraction {hit}");
        // And sampling costs well under 1 % of throughput.
        let overhead = 1.0 - sampled.throughput / base.throughput;
        assert!(overhead < 0.01, "sampler overhead {overhead}");
    }

    #[test]
    fn extra_timer_tick_count_matches_frequency() {
        let mut cfg = apache_cfg(11);
        cfg.extra_timer = Some(TimerLoad { freq_hz: 10_000 });
        let r = SaturationSim::run(cfg);
        let expected = 10_000.0 * r.elapsed.as_secs_f64();
        let ratio = r.extra_timer_ticks as f64 / expected;
        assert!((0.99..=1.01).contains(&ratio), "tick ratio {ratio}");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = SaturationSim::run(apache_cfg(9));
        let b = SaturationSim::run(apache_cfg(9));
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.soft_fires, b.soft_fires);
    }

    use crate::arrival::{AdmissionMode, ArrivalModel, OpenLoopConfig, Scenario};
    use st_admit::LimiterKind;

    fn flash_cfg(seed: u64, admission: Option<AdmissionMode>) -> SaturationConfig {
        let scenario = Scenario::FlashCrowd {
            base_rps: 735.0,
            surge_factor: 10.0,
            surge_start: SimDuration::from_millis(500),
            surge_end: SimDuration::from_millis(1_500),
        };
        let mut c = apache_cfg(seed);
        c.arrivals = ArrivalModel::Open(OpenLoopConfig::new(scenario, admission));
        c
    }

    #[test]
    fn flash_crowd_collapses_without_admission() {
        let r = SaturationSim::run(flash_cfg(20, None));
        let o = r.overload.expect("open loop");
        // A full connection table of 1024 queued requests means every
        // completion waited far past the 100 ms SLO: goodput collapses
        // below half the server's single-server capacity and the tail
        // latency is unbounded (whole seconds).
        assert!(o.goodput < 0.5 * 774.0, "goodput {}", o.goodput);
        assert!(o.p999_us > 500_000, "p99.9 {} µs", o.p999_us);
        assert!(o.dropped > 0, "table never filled");
        assert_eq!(o.shed, 0);
    }

    #[test]
    fn soft_timer_admission_holds_goodput_through_the_surge() {
        let r = SaturationSim::run(flash_cfg(20, Some(AdmissionMode::soft(LimiterKind::Aimd))));
        let o = r.overload.expect("open loop");
        assert!(o.goodput >= 0.9 * 774.0, "goodput {}", o.goodput);
        assert!(o.p999_us < 100_000, "p99.9 {} µs", o.p999_us);
        assert!(o.shed > 0, "surge was never shed");
        // Periodic 1 kHz updates from trigger states stay well under 1 %.
        assert!(o.update_cpu_pct < 1.0, "update cpu {} %", o.update_cpu_pct);
        assert!(o.update_fires > 0);
    }

    #[test]
    fn hardware_updates_cost_more_than_soft() {
        let soft = SaturationSim::run(flash_cfg(21, Some(AdmissionMode::soft(LimiterKind::Aimd))));
        let hw = SaturationSim::run(flash_cfg(
            21,
            Some(AdmissionMode::hardware(LimiterKind::Aimd)),
        ));
        let so = soft.overload.expect("open loop");
        let ho = hw.overload.expect("open loop");
        assert!(
            so.update_cpu_pct < ho.update_cpu_pct,
            "soft {} % vs hw {} %",
            so.update_cpu_pct,
            ho.update_cpu_pct
        );
        assert!(
            ho.update_cpu_pct < 1.0,
            "hw update cpu {} %",
            ho.update_cpu_pct
        );
    }

    #[test]
    fn slowloris_exhausts_slots_without_the_reaper() {
        let scenario = Scenario::Slowloris {
            rps: 900.0,
            slow_frac: 0.5,
            pin_us: 10_000_000,
        };
        let mut none = apache_cfg(22);
        let mut open = OpenLoopConfig::new(scenario, None);
        open.max_connections = 512;
        none.arrivals = ArrivalModel::Open(open);
        let r = SaturationSim::run(none);
        let o = r.overload.expect("open loop");
        // Pinned connections are never reaped: the table fills and good
        // clients get refused at accept.
        assert_eq!(o.reaped_pins, 0);
        assert!(o.dropped > 100, "dropped {}", o.dropped);

        let mut defended = apache_cfg(22);
        let mut open = OpenLoopConfig::new(scenario, Some(AdmissionMode::soft(LimiterKind::Vegas)));
        open.max_connections = 512;
        defended.arrivals = ArrivalModel::Open(open);
        let d = SaturationSim::run(defended);
        let od = d.overload.expect("open loop");
        assert!(od.reaped_pins > 0, "reaper never ran");
        // The undefended run got ~1.1 s of service before the table
        // filled; the defended run serves the whole window (the gap
        // widens with run length — at this 2 s test length it is ~1.7x).
        assert!(
            2 * od.completed_ok > 3 * o.completed_ok,
            "defended {} vs undefended {}",
            od.completed_ok,
            o.completed_ok
        );
    }

    #[test]
    fn open_loop_replays_identically() {
        let run = || {
            let r = SaturationSim::run(flash_cfg(
                23,
                Some(AdmissionMode::soft(LimiterKind::Gradient)),
            ));
            let o = r.overload.expect("open loop");
            (
                o.offered,
                o.admitted,
                o.shed,
                o.dropped,
                o.completed_ok,
                o.completed_late,
                o.p999_us,
                o.goodput.to_bits(),
                o.limit_interactive,
            )
        };
        assert_eq!(run(), run());
    }

    fn fingerprint(r: &SaturationResult) -> Vec<u64> {
        let o = r.overload.as_ref().expect("open loop");
        vec![
            r.requests,
            r.throughput.to_bits(),
            r.trigger_mean_us.to_bits(),
            r.soft_fires,
            r.soft_fire_interval_us.to_bits(),
            o.offered,
            o.admitted,
            o.shed,
            o.completed_ok,
            o.completed_late,
            o.p50_us,
            o.p99_us,
            o.goodput.to_bits(),
            o.limit_interactive,
            o.limit_bulk,
        ]
    }

    #[test]
    fn scope_session_leaves_the_modeled_run_byte_identical() {
        let cfg = || flash_cfg(29, Some(AdmissionMode::soft(LimiterKind::Aimd)));
        let bare = SaturationSim::run(cfg());
        let (observed, report) = {
            let s = st_trace::TraceSession::start(st_trace::TraceConfig::default());
            let r = SaturationSim::run(cfg());
            (r, s.finish())
        };
        assert_eq!(fingerprint(&bare), fingerprint(&observed));
        // The observation was real, not a no-op that trivially matched:
        // gauges flowed into the timeline and every fire was attributed.
        assert!(report.timeline.samples() > 1_000, "1 kHz over 2 s");
        assert!(report.timeline.get("http.conns").is_some());
        assert!(report.waterfall.fires() > 0);
        assert_eq!(report.waterfall.fires(), observed.facility_fires);
        // An events-only session is not observed at all: no 1 kHz
        // observer rides the facility, so its trace is the bare run's.
        let events_only = st_trace::TraceSession::start(st_trace::TraceConfig {
            series_capacity: 0,
            ..st_trace::TraceConfig::default()
        });
        let traced = SaturationSim::run(cfg());
        let snap = events_only.finish();
        assert_eq!(traced.facility_fires, bare.facility_fires);
        assert!(observed.facility_fires > bare.facility_fires + 1_000);
        assert_eq!(snap.timeline.series_count(), 0);
        assert!(snap.counter("facility.scheduled") > 0);
    }

    #[test]
    fn delay_attribution_reconciles_exactly_with_the_facility() {
        let s = st_trace::TraceSession::start(st_trace::TraceConfig::default());
        let mut cfg = flash_cfg(31, Some(AdmissionMode::soft(LimiterKind::Aimd)));
        cfg.scope_sampling = ScopeSampling::Soft { freq_hz: 1_000 };
        let r = SaturationSim::run(cfg);
        let report = s.finish();
        // Integer-exact reconciliation: every fire landed on some lane,
        // and the per-lane (wait + cascade) sums rebuild the facility's
        // own delay total with no rounding slack.
        assert_eq!(report.waterfall.fires(), r.facility_fires);
        assert_eq!(report.waterfall.delay_sum(), r.facility_delay_ticks);
        // Under a flash crowd both components are genuinely present.
        assert!(report.waterfall.trigger_wait_sum() > 0, "no trigger-wait");
        assert!(report.waterfall.cascade_sum() > 0, "no cascade");
        // The backup lane exists (some fires always need the sweep) next
        // to trigger-source lanes.
        assert!(report.waterfall.lane("backup").is_some());
        assert!(report.waterfall.lanes().count() >= 2);
    }

    #[test]
    fn soft_timeline_sampling_is_far_cheaper_than_hardware() {
        let run = |sampling| {
            let mut cfg = flash_cfg(33, Some(AdmissionMode::soft(LimiterKind::Aimd)));
            cfg.scope_sampling = sampling;
            SaturationSim::run(cfg)
        };
        let soft = run(ScopeSampling::Soft { freq_hz: 1_000 });
        let hw = run(ScopeSampling::Hardware { freq_hz: 1_000 });
        // Both achieve the target rate (2 s at 1 kHz, grid-aligned).
        assert!(soft.scope_fires > 1_900, "soft fired {}", soft.scope_fires);
        assert!(hw.scope_fires > 1_900, "hw fired {}", hw.scope_fires);
        // The soft sampler rides trigger states (dispatch + sample body);
        // the hardware sampler pays a full interrupt per sample — an
        // order of magnitude more CPU for the same telemetry.
        assert!(soft.scope_cpu_pct > 0.0);
        assert!(
            hw.scope_cpu_pct > 5.0 * soft.scope_cpu_pct,
            "hw {} % vs soft {} %",
            hw.scope_cpu_pct,
            soft.scope_cpu_pct
        );
        assert!(soft.scope_cpu_pct < 0.1, "soft sampling must stay cheap");
    }
}
