//! The fault harness: a facility + pacer + poller system driven under an
//! arbitrary [`FaultPlan`], with the paper's firing bound checked on
//! every event.
//!
//! One [`Scenario`] run simulates a single CPU whose true time advances
//! in 1 µs measurement ticks:
//!
//! - **trigger states** occur at random gaps (suppressed during
//!   starvation windows and while a slow callback hogs the CPU);
//! - **backup interrupts** sit on the `X`-tick grid, routed through a
//!   real [`InterruptController`] ([`IrqLine::Timer`]) after the
//!   [`BackupFaultStream`] decides each slot's fate;
//! - the facility reads time through a [`FaultyClock`];
//! - a [`Pacer`] transmit chain and a [`PollController`]-driven NIC
//!   polling chain run as soft-timer events, so the paper's section 4
//!   consumers are exercised under every fault class;
//! - workload events may panic or run slow per [`CallbackFaults`],
//!   dispatched under `catch_unwind` exactly like the production
//!   runtimes.
//!
//! Every decision draws from per-class forks of one seeded
//! [`SimRng`], so a `(plan, seed)` pair replays byte-identically —
//! asserted by comparing whole [`FaultReport`]s, including the
//! [`FaultReport::fingerprint`] over the fired-event sequence.
//!
//! # Bound checking
//!
//! Always asserted, every fire: `fired_at >= due`, and after every
//! check no still-pending event is overdue (each event fires at the
//! *first performed check* past its deadline — the paper's guarantee
//! restated for a world where some checks never happen).
//!
//! When [`FaultPlan::paper_bound_holds`] (no backup, clock, or callback
//! faults) the unrelaxed paper bound is asserted too: delay past the
//! deadline never exceeds `X` ticks, i.e. every fire lands inside
//! `(S+T, S+T+X+1)`. Violations are counted in
//! [`FaultReport::bound_violations`] and make the run panic in tests.

use std::panic::{catch_unwind, AssertUnwindSafe};

use st_core::clock::Clock;
use st_core::facility::{Config, Expired, FireOrigin, SoftTimerCore};
use st_core::pacer::{Pacer, PacerConfig};
use st_core::poller::{PollController, PollControllerConfig};
use st_kernel::interrupts::{InterruptController, IrqLine};
use st_net::nic::Nic;
use st_net::packet::{ConnId, Packet};
use st_net::{WireFate, WireFaultInjector};
use st_sim::{SimRng, SimTime};

use crate::backup::{BackupFate, BackupFaultStream};
use crate::clock::FaultyClock;
use crate::nic::NicFaultInjector;
use crate::plan::FaultPlan;

/// What a scheduled soft-timer event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// A workload event; may panic or run slow per the plan.
    Workload { panics: bool, slow: bool },
    /// Poll the NIC and reschedule per the poll controller.
    Poll,
    /// Transmit one paced packet and reschedule per the pacer.
    Transmit,
}

#[derive(Debug, Clone, Copy)]
struct EventTag {
    id: u64,
    kind: EventKind,
}

/// A fault-injection scenario: a plan, a seed, and a run length.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Which faults to inject.
    pub plan: FaultPlan,
    /// Master seed; all randomness forks from it.
    pub seed: u64,
    /// True-time run length in measurement ticks (µs at 1 MHz).
    pub duration_ticks: u64,
}

impl Scenario {
    /// A scenario over the paper's default resolutions (1 MHz / 1 kHz).
    pub fn new(plan: FaultPlan, seed: u64, duration_ticks: u64) -> Self {
        Scenario {
            plan,
            seed,
            duration_ticks,
        }
    }

    /// Runs the scenario to completion.
    ///
    /// # Panics
    ///
    /// Panics if any firing-bound invariant is violated — a fault the
    /// hardened facility failed to absorb. The panic message includes
    /// the seed, so the run can be replayed exactly.
    pub fn run(&self) -> FaultReport {
        Harness::new(self).run()
    }
}

/// Everything a run observed, with enough counters to assert on.
///
/// Two runs of the same `(plan, seed, duration)` produce `==` reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// Master seed the run used.
    pub seed: u64,
    /// True ticks simulated.
    pub ticks_run: u64,
    /// Workload events scheduled.
    pub scheduled: u64,
    /// Events fired (workload + poll + transmit).
    pub fired: u64,
    /// Fires from trigger states.
    pub fired_trigger: u64,
    /// Fires from backup sweeps.
    pub fired_backup: u64,
    /// Largest delay past an event's deadline, in ticks.
    pub max_delay: u64,
    /// Fires that broke the asserted bound (always 0 on a passing run).
    pub bound_violations: u64,
    /// Trigger-state checks performed.
    pub trigger_checks: u64,
    /// Starvation windows entered.
    pub starvation_windows: u64,
    /// Backup slots delivered / dropped / delayed.
    pub backups_delivered: u64,
    /// Backup slots lost outright.
    pub backups_dropped: u64,
    /// Backup slots delivered late.
    pub backups_delayed: u64,
    /// Forward clock jumps injected.
    pub clock_jumps: u64,
    /// Transient clock regressions injected.
    pub clock_regressions_injected: u64,
    /// Regressions the facility clamped (from `FacilityStats`).
    pub clock_regressions_absorbed: u64,
    /// Handler panics injected and caught.
    pub handler_panics: u64,
    /// Slow handlers injected.
    pub slow_handlers: u64,
    /// Packets offered to the NIC by the wire.
    pub nic_offered: u64,
    /// Packets the injector dropped before the ring.
    pub nic_injected_drops: u64,
    /// Extra frames injected by storms.
    pub nic_storm_extras: u64,
    /// Frames lost to ring overflow.
    pub nic_ring_drops: u64,
    /// Frames the poll chain retrieved.
    pub nic_polled: u64,
    /// Packets offered to the wire-fault injector.
    pub wire_offered: u64,
    /// Packets the wire dropped in flight.
    pub wire_dropped: u64,
    /// Packets the wire delivered twice.
    pub wire_duplicated: u64,
    /// Packets the wire held back and delivered out of order.
    pub wire_reordered: u64,
    /// Paced transmissions completed.
    pub transmits: u64,
    /// Arrival-surge windows opened by the overload class.
    pub overload_surge_windows: u64,
    /// Slow clients injected by the overload class.
    pub overload_slow_clients: u64,
    /// Runtime-thread wedges injected by the host class (modeled as CPU
    /// stalls: no trigger states, latched backups, until the wedge ends).
    pub host_stalls: u64,
    /// FNV-1a fingerprint of the fired-event sequence; byte-identical
    /// replay means equal fingerprints.
    pub fingerprint: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_mix(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

struct Harness {
    plan: FaultPlan,
    seed: u64,
    duration: u64,
    x: u64,

    clock: FaultyClock,
    core: SoftTimerCore<EventTag>,
    ic: InterruptController,
    backup_stream: BackupFaultStream,
    nic: Nic,
    nic_injector: NicFaultInjector,
    wire_injector: WireFaultInjector,
    poll_ctl: PollController,
    pacer: Pacer,

    rng_triggers: SimRng,
    rng_workload: SimRng,
    rng_callbacks: SimRng,
    rng_arrivals: SimRng,
    rng_overload: SimRng,
    rng_host: SimRng,

    /// True tick before which the CPU is wedged in a slow handler.
    busy_until: u64,
    next_event_id: u64,
    next_packet_id: u64,

    report: FaultReport,
    scratch: Vec<Expired<EventTag>>,
}

impl Harness {
    fn new(scenario: &Scenario) -> Self {
        let plan = scenario.plan;
        let mut master = SimRng::seed(scenario.seed);
        // Stable fork labels: adding a class later must not shift the
        // draws of existing classes.
        let rng_clock = master.fork(1);
        let rng_backup = master.fork(2);
        let rng_nic = master.fork(3);
        let rng_triggers = master.fork(4);
        let rng_workload = master.fork(5);
        let rng_callbacks = master.fork(6);
        let rng_arrivals = master.fork(7);
        let rng_wire = master.fork(8);
        let rng_overload = master.fork(9);
        // Appended after every pre-existing class: forks 1-9 above must
        // keep drawing the exact streams the frozen fault_matrix seed
        // output pins (tests/fault_plan_pin.rs).
        let rng_host = master.fork(10);

        let config = Config {
            measure_hz: 1_000_000,
            interrupt_hz: 1_000,
        };
        let x = config.x_ticks();

        Harness {
            plan,
            seed: scenario.seed,
            duration: scenario.duration_ticks,
            x,
            clock: FaultyClock::new(config.measure_hz, plan.clock, rng_clock),
            core: SoftTimerCore::new(config),
            ic: InterruptController::new(),
            backup_stream: BackupFaultStream::new(plan.backup, rng_backup),
            nic: Nic::default_ring(),
            nic_injector: NicFaultInjector::new(plan.nic, rng_nic),
            wire_injector: WireFaultInjector::new(plan.wire, rng_wire),
            poll_ctl: PollController::new(PollControllerConfig {
                quota: 8.0,
                min_interval: 10,
                max_interval: 500,
                ewma_alpha: 0.25,
            }),
            pacer: Pacer::new(PacerConfig::new(40, 10)),
            rng_triggers,
            rng_workload,
            rng_callbacks,
            rng_arrivals,
            rng_overload,
            rng_host,
            busy_until: 0,
            next_event_id: 0,
            next_packet_id: 0,
            report: FaultReport {
                seed: scenario.seed,
                ticks_run: scenario.duration_ticks,
                scheduled: 0,
                fired: 0,
                fired_trigger: 0,
                fired_backup: 0,
                max_delay: 0,
                bound_violations: 0,
                trigger_checks: 0,
                starvation_windows: 0,
                backups_delivered: 0,
                backups_dropped: 0,
                backups_delayed: 0,
                clock_jumps: 0,
                clock_regressions_injected: 0,
                clock_regressions_absorbed: 0,
                handler_panics: 0,
                slow_handlers: 0,
                nic_offered: 0,
                nic_injected_drops: 0,
                nic_storm_extras: 0,
                nic_ring_drops: 0,
                nic_polled: 0,
                wire_offered: 0,
                wire_dropped: 0,
                wire_duplicated: 0,
                wire_reordered: 0,
                transmits: 0,
                overload_surge_windows: 0,
                overload_slow_clients: 0,
                host_stalls: 0,
                fingerprint: FNV_OFFSET,
            },
            scratch: Vec::new(),
        }
    }

    fn schedule_tagged(&mut self, delta: u64, kind: EventKind) {
        let now = self.clock.measure_time();
        let id = self.next_event_id;
        self.next_event_id += 1;
        self.core.schedule(now, delta, EventTag { id, kind });
    }

    fn schedule_workload(&mut self) {
        let delta = self.rng_workload.range_u64(10, 5_000);
        let (panics, slow) = match self.plan.callbacks {
            Some(f) => (
                self.rng_callbacks.chance(f.panic_chance),
                self.rng_callbacks.chance(f.slow_chance),
            ),
            None => (false, false),
        };
        self.report.scheduled += 1;
        self.schedule_tagged(delta, EventKind::Workload { panics, slow });
    }

    /// Dispatches fired events, verifying the bound on each.
    fn dispatch(&mut self, now_true: u64) {
        let observed = self.clock.measure_time();
        let mut due = std::mem::take(&mut self.scratch);
        for ev in due.drain(..) {
            self.report.fired += 1;
            match ev.origin {
                FireOrigin::TriggerState => self.report.fired_trigger += 1,
                FireOrigin::BackupInterrupt => self.report.fired_backup += 1,
            }
            let delay = ev.delay();
            self.report.max_delay = self.report.max_delay.max(delay);

            // Always: never early.
            if ev.fired_at < ev.due {
                self.report.bound_violations += 1;
                panic!(
                    "event {} fired early: fired_at {} < due {} (seed {})",
                    ev.payload.id, ev.fired_at, ev.due, self.seed
                );
            }
            // The unrelaxed paper bound, when the plan permits it: the
            // backup grid guarantees delay <= X.
            if self.plan.paper_bound_holds() && delay > self.x {
                self.report.bound_violations += 1;
                panic!(
                    "event {} broke the paper bound: delay {} > X {} (seed {})",
                    ev.payload.id, delay, self.x, self.seed
                );
            }

            fnv_mix(&mut self.report.fingerprint, ev.payload.id);
            fnv_mix(&mut self.report.fingerprint, ev.due);
            fnv_mix(&mut self.report.fingerprint, ev.fired_at);
            fnv_mix(
                &mut self.report.fingerprint,
                matches!(ev.origin, FireOrigin::BackupInterrupt) as u64,
            );

            match ev.payload.kind {
                EventKind::Workload { panics, slow } => {
                    if panics {
                        // Dispatch under catch_unwind, exactly like the
                        // production runtimes.
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            panic!("injected handler panic (event {})", ev.payload.id)
                        }));
                        assert!(r.is_err());
                        self.report.handler_panics += 1;
                        self.core.note_handler_panic();
                    }
                    if slow {
                        self.report.slow_handlers += 1;
                        if let Some(f) = self.plan.callbacks {
                            self.busy_until = self.busy_until.max(now_true + f.slow_ticks);
                        }
                    }
                }
                EventKind::Poll => {
                    let found = self
                        .nic
                        .poll_rx(self.poll_ctl.config().quota as usize)
                        .len() as u64;
                    self.report.nic_polled += found;
                    let interval = self.poll_ctl.on_poll(found);
                    self.schedule_tagged(interval, EventKind::Poll);
                }
                EventKind::Transmit => {
                    self.nic.record_tx();
                    self.report.transmits += 1;
                    let interval = self.pacer.on_transmit(observed);
                    let target = self.pacer.config().target_interval;
                    let burst = self.pacer.config().min_burst_interval;
                    assert!(
                        interval == target || interval == burst,
                        "pacer returned {interval}, expected {target} or {burst} (seed {})",
                        self.seed
                    );
                    self.schedule_tagged(self.pacer.next_delta(interval), EventKind::Transmit);
                }
            }
        }
        self.scratch = due;

        // After any check: nothing still pending may be overdue — every
        // event fires at the first performed check past its deadline.
        // The facility may have clamped a regressed clock; its internal
        // time is >= observed, so this check is conservative.
        if let Some(earliest) = self.core.earliest_deadline() {
            if earliest <= observed && self.core.has_due(observed) {
                self.report.bound_violations += 1;
                panic!(
                    "overdue event survived a check at {} (earliest {}, seed {})",
                    observed, earliest, self.seed
                );
            }
        }
    }

    fn trigger_state(&mut self, now_true: u64) {
        self.report.trigger_checks += 1;
        let mut due = std::mem::take(&mut self.scratch);
        due.clear();
        self.core.poll(self.clock.measure_time(), &mut due);
        self.scratch = due;
        self.dispatch(now_true);
    }

    fn backup_sweep(&mut self, now_true: u64) {
        // Route through the interrupt controller: raise the timer line,
        // then deliver it, as the machine loop would.
        self.ic
            .raise(IrqLine::Timer, SimTime::from_micros(now_true));
        if self.ic.take() != Some(IrqLine::Timer) {
            return;
        }
        let mut due = std::mem::take(&mut self.scratch);
        due.clear();
        self.core
            .interrupt_sweep(self.clock.measure_time(), &mut due);
        self.scratch = due;
        self.dispatch(now_true);
    }

    fn run(mut self) -> FaultReport {
        // Seed the event chains.
        self.schedule_tagged(10, EventKind::Poll);
        self.pacer.start_train(0);
        self.schedule_tagged(40, EventKind::Transmit);
        self.schedule_workload();

        let mut next_trigger = self.rng_triggers.range_u64(1, 50);
        let mut next_sched = self.rng_workload.range_u64(50, 500);
        let mut next_arrival = self.rng_arrivals.range_u64(10, 100);
        // Backup deliveries: grid slots with per-slot fate; delayed
        // slots queue here (sorted, since delays are bounded we just
        // re-sort on insert).
        let mut next_slot = self.x;
        let mut pending_backups: Vec<u64> = Vec::new();
        // Reordered packets held back by the wire: (delivery time, frame).
        let mut pending_wire: Vec<(u64, Packet)> = Vec::new();
        // True tick before which arrivals come at the surged rate.
        let mut surge_until: u64 = 0;

        loop {
            // Decide the fate of any grid slot we are about to reach.
            let next_backup = pending_backups.first().copied().unwrap_or(u64::MAX);
            let next_wire = pending_wire.first().map_or(u64::MAX, |&(at, _)| at);
            let t = *[
                next_trigger,
                next_slot,
                next_backup,
                next_sched,
                next_arrival,
                next_wire,
            ]
            .iter()
            .min()
            .unwrap();
            if t >= self.duration {
                break;
            }
            self.clock.set_true(t);

            if t == next_slot {
                match self.backup_stream.next_fate() {
                    BackupFate::Deliver => {
                        let at = next_slot.max(self.busy_until);
                        pending_backups.push(at);
                        pending_backups.sort_unstable();
                    }
                    BackupFate::Drop => {}
                    BackupFate::Delay(d) => {
                        let at = (next_slot + d).max(self.busy_until);
                        pending_backups.push(at);
                        pending_backups.sort_unstable();
                    }
                }
                next_slot += self.x;
            }
            while pending_backups.first() == Some(&t) {
                pending_backups.remove(0);
                if t >= self.busy_until {
                    self.backup_sweep(t);
                } else {
                    // CPU wedged: the latch holds; redeliver when free.
                    pending_backups.push(self.busy_until);
                    pending_backups.sort_unstable();
                }
            }
            // Held-back (reordered) frames whose delivery time arrived:
            // they rejoin the path in front of the NIC injector, behind
            // any same-tick fresh arrival already delivered.
            while pending_wire.first().map(|&(at, _)| at) == Some(t) {
                let (_, pkt) = pending_wire.remove(0);
                self.nic_injector
                    .deliver(&mut self.nic, SimTime::from_micros(t), pkt);
            }
            if t == next_arrival {
                let id = self.next_packet_id;
                self.next_packet_id += 1;
                let pkt = Packet::data(id, ConnId(1), id * 1_000, 1_000, 0, 64_000);
                // The wire decides first; survivors reach the NIC-level
                // injector (storms, ring drops) like any other frame.
                match self.wire_injector.fate() {
                    WireFate::Drop => {}
                    WireFate::Deliver => {
                        self.nic_injector
                            .deliver(&mut self.nic, SimTime::from_micros(t), pkt);
                    }
                    WireFate::Duplicate => {
                        self.nic_injector.deliver(
                            &mut self.nic,
                            SimTime::from_micros(t),
                            pkt.clone(),
                        );
                        self.nic_injector
                            .deliver(&mut self.nic, SimTime::from_micros(t), pkt);
                    }
                    WireFate::Reorder { extra } => {
                        pending_wire.push((t + extra.as_micros(), pkt));
                        pending_wire.sort_by_key(|e| (e.0, e.1.id));
                    }
                }
                // The overload class reshapes arrivals: surge windows
                // compress the drawn gap (the base draw still happens, so
                // the arrival stream's shape is a pure function of the
                // plan), and slow clients park a workload event far out —
                // a connection that arrives but refuses to finish.
                let mut gap = self.rng_arrivals.range_u64(10, 100);
                if let Some(f) = self.plan.overload {
                    if t >= surge_until && self.rng_overload.chance(f.surge_chance) {
                        self.report.overload_surge_windows += 1;
                        surge_until = t + self.rng_overload.range_u64(f.min_surge, f.max_surge + 1);
                    }
                    if t < surge_until {
                        gap = (gap / f.surge_factor).max(1);
                    }
                    if self.rng_overload.chance(f.slow_client_chance) {
                        self.report.overload_slow_clients += 1;
                        self.report.scheduled += 1;
                        self.schedule_tagged(
                            f.pin_ticks,
                            EventKind::Workload {
                                panics: false,
                                slow: false,
                            },
                        );
                    }
                }
                next_arrival = t + gap;
            }
            if t == next_sched {
                self.schedule_workload();
                next_sched = t + self.rng_workload.range_u64(50, 500);
            }
            if t == next_trigger {
                if t >= self.busy_until {
                    self.trigger_state(t);
                    // The host class models a wedged runtime thread as a
                    // CPU stall: no trigger states run and backup sweeps
                    // latch until the wedge ends — the sim twin of the
                    // thread stalls st-guard injects on the real machine.
                    if let Some(f) = self.plan.host {
                        if self.rng_host.chance(f.stall_chance) {
                            self.report.host_stalls += 1;
                            let stall = self.rng_host.range_u64(f.min_stall, f.max_stall + 1);
                            self.busy_until = self.busy_until.max(t + stall);
                        }
                    }
                    // Maybe enter a starvation window.
                    let window = match self.plan.starvation {
                        Some(f) if self.rng_triggers.chance(f.window_chance) => {
                            self.report.starvation_windows += 1;
                            self.rng_triggers.range_u64(f.min_window, f.max_window + 1)
                        }
                        _ => self.rng_triggers.range_u64(1, 50),
                    };
                    next_trigger = t + window;
                } else {
                    next_trigger = self.busy_until;
                }
            }
        }

        // Final accounting from the wrapped components.
        self.report.backups_delivered = self.backup_stream.delivered();
        self.report.backups_dropped = self.backup_stream.dropped();
        self.report.backups_delayed = self.backup_stream.delayed();
        self.report.clock_jumps = self.clock.jumps_injected();
        self.report.clock_regressions_injected = self.clock.regressions_injected();
        self.report.clock_regressions_absorbed = self.core.stats().clock_regressions;
        self.report.nic_offered = self.nic_injector.offered();
        self.report.nic_injected_drops = self.nic_injector.injected_drops();
        self.report.nic_storm_extras = self.nic_injector.storm_extras();
        self.report.nic_ring_drops = self.nic.rx_dropped();
        self.report.wire_offered = self.wire_injector.offered();
        self.report.wire_dropped = self.wire_injector.dropped();
        self.report.wire_duplicated = self.wire_injector.duplicated();
        self.report.wire_reordered = self.wire_injector.reordered();
        fnv_mix(
            &mut self.report.fingerprint,
            self.report.backups_delivered
                ^ self.report.nic_polled.rotate_left(17)
                ^ self.report.transmits.rotate_left(31),
        );
        assert_eq!(
            self.core.stats().handler_panics,
            self.report.handler_panics,
            "facility panic accounting diverged (seed {})",
            self.seed
        );
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DURATION: u64 = 200_000; // 0.2 s of true time.

    #[test]
    fn healthy_run_obeys_the_paper_bound() {
        let r = Scenario::new(FaultPlan::none(), 1, DURATION).run();
        assert_eq!(r.bound_violations, 0);
        assert!(r.max_delay <= 1_000, "delay {} > X", r.max_delay);
        assert!(r.fired > 0 && r.transmits > 0 && r.nic_polled > 0);
        assert_eq!(r.backups_dropped, 0);
        assert_eq!(r.handler_panics, 0);
    }

    #[test]
    fn every_class_runs_and_replays() {
        let classes = [
            FaultPlan::clock_anomalies(),
            FaultPlan::starvation(),
            FaultPlan::backup_loss(),
            FaultPlan::nic_storm(),
            FaultPlan::hostile_callbacks(),
            FaultPlan::wire_faults(),
            FaultPlan::overload(),
            FaultPlan::host_chaos(),
            FaultPlan::everything(),
        ];
        for (i, plan) in classes.iter().enumerate() {
            let a = Scenario::new(*plan, 42, DURATION).run();
            let b = Scenario::new(*plan, 42, DURATION).run();
            assert_eq!(a, b, "class {i} did not replay identically");
            assert_eq!(a.bound_violations, 0, "class {i}");
            assert!(a.fired > 0, "class {i} fired nothing");
        }
    }

    #[test]
    fn fault_classes_actually_inject() {
        let clock = Scenario::new(FaultPlan::clock_anomalies(), 7, DURATION).run();
        assert!(clock.clock_jumps > 0 && clock.clock_regressions_injected > 0);
        assert!(clock.clock_regressions_absorbed > 0, "facility saw none");

        let starve = Scenario::new(FaultPlan::starvation(), 7, DURATION).run();
        assert!(starve.starvation_windows > 0);

        let backup = Scenario::new(FaultPlan::backup_loss(), 7, DURATION).run();
        assert!(backup.backups_dropped > 0 && backup.backups_delayed > 0);

        let nic = Scenario::new(FaultPlan::nic_storm(), 7, DURATION).run();
        assert!(nic.nic_injected_drops > 0 && nic.nic_storm_extras > 0);

        let cb = Scenario::new(FaultPlan::hostile_callbacks(), 7, DURATION).run();
        assert!(cb.handler_panics > 0 && cb.slow_handlers > 0);

        let wire = Scenario::new(FaultPlan::wire_faults(), 7, DURATION).run();
        assert!(wire.wire_offered > 0);
        assert!(wire.wire_dropped > 0 && wire.wire_duplicated > 0 && wire.wire_reordered > 0);

        let ov = Scenario::new(FaultPlan::overload(), 7, DURATION).run();
        assert!(ov.overload_surge_windows > 0 && ov.overload_slow_clients > 0);

        let host = Scenario::new(FaultPlan::host_chaos(), 7, DURATION).run();
        assert!(host.host_stalls > 0, "no host stall injected");
        // A wedged runtime thread stalls trigger states and latches the
        // backup, so delays blow well past X — the bound st-guard's
        // degradation policy exists to re-bound on the real machine.
        assert!(host.max_delay > 1_000, "stalls never delayed a fire");
    }

    #[test]
    fn host_class_leaves_existing_streams_untouched() {
        // The host fork label (10) is appended after labels 1-9, and a
        // plan without host faults never draws from it: every preexisting
        // class must replay the exact run it produced before the host
        // class existed. (The cross-version half of this guarantee is
        // pinned by tests/fault_plan_pin.rs against frozen seed output.)
        let with_field = Scenario::new(FaultPlan::none(), 42, DURATION).run();
        let again = Scenario::new(FaultPlan::none(), 42, DURATION).run();
        assert_eq!(with_field, again);
        assert_eq!(with_field.host_stalls, 0);
    }

    #[test]
    fn wire_faults_keep_the_paper_bound() {
        // The wire sits in front of the NIC: losing, duplicating, or
        // reordering frames must not perturb timer firing at all.
        let r = Scenario::new(FaultPlan::wire_faults(), 23, DURATION).run();
        assert!(r.max_delay <= 1_000, "delay {} > X", r.max_delay);
        assert_eq!(r.bound_violations, 0);
        // Duplicates and held-back frames still reach the ring: the poll
        // chain sees at least the surviving offered load.
        assert!(r.nic_polled > 0);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = Scenario::new(FaultPlan::everything(), 1, DURATION).run();
        let b = Scenario::new(FaultPlan::everything(), 2, DURATION).run();
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn overload_keeps_the_paper_bound_while_surging() {
        // Arrival surges and slow clients pressure the serving path, not
        // the facility: the unrelaxed firing bound must survive them.
        // This is the harness-level half of the admission story — the
        // shedding half lives in st-http's open-loop experiments.
        let r = Scenario::new(FaultPlan::overload(), 17, DURATION).run();
        assert!(r.max_delay <= 1_000, "delay {} > X", r.max_delay);
        assert_eq!(r.bound_violations, 0);
        assert!(r.overload_surge_windows > 0, "no surge ever opened");
        assert!(r.overload_slow_clients > 0, "no slow client injected");
        // More arrivals than the healthy run: surges compress gaps.
        let healthy = Scenario::new(FaultPlan::none(), 17, DURATION).run();
        assert!(r.wire_offered > healthy.wire_offered);
    }

    #[test]
    fn starvation_alone_keeps_the_paper_bound() {
        // The backup interrupt exists precisely to cover starvation: the
        // unrelaxed bound must hold even with long quiet windows.
        let r = Scenario::new(FaultPlan::starvation(), 13, DURATION).run();
        assert!(r.max_delay <= 1_000, "delay {} > X", r.max_delay);
        assert!(r.fired_backup > 0, "starved run must lean on the backup");
    }
}
