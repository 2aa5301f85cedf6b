//! The traced run: every per-layer metric, and the span file.
//!
//! `--trace 1 --workload W` does three things inside `--seconds`:
//!
//! 1. times one probe per layer metric, around calls into that layer's
//!    public functions. Nanosecond-scale calls are timed in batches under
//!    one clock pair, so no figure rests on subtracting the clock's cost;
//! 2. runs every workload for a short slice with spans on (W for three
//!    slices), which gives the metrics that only exist where the work
//!    happens: calls per fire, wasted advances, core self time, what the
//!    host lanes show in situ, wall seconds of each experiment;
//! 3. writes W's kept spans to `benches/ledger/out/trace_<W>.jsonl`.
//!
//! Every traced run prints every per-layer metric, whichever W it was
//! given; end-to-end metrics never come from here.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;

use st_core::pacer::{Pacer, PacerConfig};
use st_core::poller::{PollController, PollControllerConfig};
use st_core::{Config, Expired, SmpFacility, SoftTimerCore};
use st_http::{
    run_livelock, HttpMode, LivelockConfig, SaturationConfig, SaturationSim, ServerKind,
    ServerModel,
};
use st_kernel::{run_machine, CostModel, MachineConfig, SoftClock, TriggerSource};
use st_net::{ConnId, DriverStrategy, Link, Nic, Packet, WanEmulator};
use st_rt::NanoClock;
use st_sim::{Ctx, Engine, SimDuration, SimRng, SimTime, World};
use st_stats::HdrHistogram;
use st_tcp::{
    AckPolicy, SenderConfig, TcpReceiver, TcpSender, TransferConfig, TransferSim, WireFaults,
};
use st_wheel::{HeapQueue, TimerHandle, TimerQueue};

use crate::facility::{measure, production_core, Cancel, DefaultQueue, Rearm, Stepper};
use crate::gen::{CancelInput, RearmInput};
use crate::host::{self, Regime};
use crate::metrics::{all_workloads, PER_LAYER};
use crate::sims::{self, SimSet};
use crate::span::{calibrate_pair, Clock, NoProbe, Probe, Shared, SpanName, Timed, Tracer};
use crate::{median, run_workload, Outcome};

/// Where the span files go, relative to the directory the benchmark is
/// started from (the root of the checkout).
const OUT_DIR: &str = "benches/ledger/out";

/// The values of one traced run, by metric name.
struct Suite {
    clock: Clock,
    seed: u64,
    /// Budget of one micro-probe.
    unit_ns: u64,
    /// Budget of one workload slice.
    slice_ns: u64,
    values: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

/// Median ns per operation over whole timed batches. `batch` returns the
/// wall ns it timed and the operations done in them; it runs until
/// `budget_ns` has gone by and at least three times.
fn per_op(clock: Clock, budget_ns: u64, mut batch: impl FnMut() -> (u64, u64)) -> f64 {
    let start = clock.now_ns();
    let mut samples = Vec::new();
    while samples.len() < 3 || clock.now_ns() - start < budget_ns {
        let (ns, ops) = batch();
        if ops > 0 {
            samples.push(ns as f64 / ops as f64);
        }
        if samples.len() >= 100_000 {
            break;
        }
    }
    median(&mut samples)
}

/// Median ns per call of `body`, timed in batches of `calls`.
fn per_call(clock: Clock, budget_ns: u64, calls: u64, mut body: impl FnMut()) -> f64 {
    per_op(clock, budget_ns, || {
        let t0 = clock.now_ns();
        for _ in 0..calls {
            body();
        }
        (clock.now_ns() - t0, calls)
    })
}

/// Calls per batch for operations from a few ns up.
const BATCH: u64 = 256;

/// Position `i` of `n` (a power of two) in a fixed scattering of
/// `0..n`: an odd multiplier is a bijection modulo a power of two. Timers
/// are armed in this order so that neighbours in a slot are not
/// neighbours in the slab, as after any real run; armed in deadline order
/// the scans below run twice as fast as they do inside a workload.
fn scatter(i: u64, n: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b1) & (n - 1)
}

/// A queue holding `n` timers at two ticks apart — the density of
/// `rearm_16k` — with the probes that keep it that way.
struct Populated<Q> {
    q: Q,
    now: u64,
    horizon: u64,
    fired: Vec<(u64, u64)>,
    handles: Vec<TimerHandle>,
}

impl<Q: TimerQueue<u64>> Populated<Q> {
    fn new(mut q: Q, n: u64) -> Self {
        for i in 0..n {
            q.schedule(1 + 2 * scatter(i, n), i);
        }
        Populated {
            q,
            now: 0,
            horizon: 2 * n,
            fired: Vec::with_capacity(64),
            handles: Vec::with_capacity(BATCH as usize),
        }
    }

    /// `(schedule ns, cancel ns)` per call, the population unchanged
    /// after each batch.
    fn schedule_cancel(&mut self, clock: Clock, budget_ns: u64) -> (f64, f64) {
        let mut cancel = Vec::new();
        let schedule = per_op(clock, budget_ns, || {
            self.handles.clear();
            let base = self.now + self.horizon / 2;
            let t0 = clock.now_ns();
            for k in 0..BATCH {
                self.handles.push(self.q.schedule(base + 7 * k, k));
            }
            let t1 = clock.now_ns();
            for h in self.handles.drain(..) {
                black_box(self.q.cancel(h));
            }
            cancel.push((clock.now_ns() - t1) as f64 / BATCH as f64);
            (t1 - t0, BATCH)
        });
        (schedule, median(&mut cancel))
    }

    fn next_deadline(&mut self, clock: Clock, budget_ns: u64) -> f64 {
        // One call can be a walk over every slot; size the batch so it
        // lasts at least ~20 us.
        let t0 = clock.now_ns();
        black_box(self.q.next_deadline());
        let one = (clock.now_ns() - t0).max(1);
        let calls = (20_000 / one).clamp(1, BATCH);
        per_call(clock, budget_ns, calls, || {
            black_box(self.q.next_deadline());
        })
    }

    /// ns of `advance` per timer it fires; fired timers go back a full
    /// horizon out, untimed.
    fn advance(&mut self, clock: Clock, budget_ns: u64) -> f64 {
        per_op(clock, budget_ns, || {
            self.now += 20;
            self.fired.clear();
            let t0 = clock.now_ns();
            self.q.advance(self.now, &mut self.fired);
            let ns = clock.now_ns() - t0;
            for &(deadline, p) in &self.fired {
                self.q.schedule(deadline + self.horizon, p);
            }
            (ns, self.fired.len() as u64)
        })
    }
}

/// A facility holding `n` timers at the same density.
struct PopulatedCore {
    core: SoftTimerCore<u64>,
    now: u64,
    horizon: u64,
    out: Vec<Expired<u64>>,
}

impl PopulatedCore {
    fn new(n: u64) -> Self {
        let mut core = production_core();
        for i in 0..n {
            core.schedule(0, 2 * scatter(i, n), i);
        }
        PopulatedCore {
            core,
            now: 0,
            horizon: 2 * n,
            out: Vec::with_capacity(64),
        }
    }

    /// ns of a firing `poll` per event it fires (the advance plus the
    /// earliest-deadline refresh); re-arming is untimed.
    fn poll_fire(&mut self, clock: Clock, budget_ns: u64) -> f64 {
        per_op(clock, budget_ns, || {
            self.now += 20;
            self.out.clear();
            let t0 = clock.now_ns();
            self.core.poll(self.now, &mut self.out);
            let ns = clock.now_ns() - t0;
            for e in &self.out {
                let next = e.due + self.horizon;
                self.core.schedule(self.now, next - self.now - 1, e.payload);
            }
            (ns, self.out.len() as u64)
        })
    }

    fn schedule_cancel(&mut self, clock: Clock, budget_ns: u64) -> (f64, f64) {
        let mut handles = Vec::with_capacity(BATCH as usize);
        let mut cancel = Vec::new();
        let schedule = per_op(clock, budget_ns, || {
            let t0 = clock.now_ns();
            for k in 0..BATCH {
                handles.push(self.core.schedule(self.now, self.horizon / 2 + 7 * k, k));
            }
            let t1 = clock.now_ns();
            for h in handles.drain(..) {
                black_box(self.core.cancel(h));
            }
            cancel.push((clock.now_ns() - t1) as f64 / BATCH as f64);
            (t1 - t0, BATCH)
        });
        (schedule, median(&mut cancel))
    }
}

/// A world of self-rescheduling events: the engine's own cost per event.
struct Ticker {
    rng: SimRng,
}

impl World for Ticker {
    type Event = u32;
    fn handle(&mut self, ev: u32, ctx: &mut Ctx<'_, u32>) {
        let delay = 1 + (self.rng.next_u64() & 0xff);
        ctx.schedule_in(SimDuration::from_micros(delay), ev);
    }
}

impl Suite {
    fn set(&mut self, name: impl Into<String>, v: f64) {
        self.values.insert(name.into(), v);
    }

    fn wheel(&mut self) {
        let (clock, unit) = (self.clock, self.unit_ns);
        for (n, tag) in [(256, "n256"), (16_384, "n16k"), (1_048_576, "n1m")] {
            let mut p = Populated::new(DefaultQueue::<u64>::default(), n);
            // Scans first: a cancelled timer stays in its slot until an
            // advance sweeps it, so the schedule/cancel probe leaves
            // behind entries no workload would have.
            let next_deadline = p.next_deadline(clock, unit);
            self.set(format!("wheel.next_deadline_ns.{tag}"), next_deadline);
            let advance = p.advance(clock, unit);
            self.set(format!("wheel.advance_ns_per_fire.{tag}"), advance);
            let (schedule, cancel) = p.schedule_cancel(clock, unit);
            self.set(format!("wheel.schedule_ns.{tag}"), schedule);
            self.set(format!("wheel.cancel_ns.{tag}"), cancel);
            drop(p);
            let mut c = PopulatedCore::new(n);
            let poll_fire = c.poll_fire(clock, unit);
            self.set(format!("core.poll_fire_ns_per_fire.{tag}"), poll_fire);
            if n == 16_384 {
                let (schedule, cancel) = c.schedule_cancel(clock, unit);
                self.set("core.schedule_ns.n16k", schedule);
                self.set("core.cancel_ns.n16k", cancel);
            }
        }
        let mut heap = Populated::new(HeapQueue::<u64>::default(), 16_384);
        self.set(
            "wheel.heap.next_deadline_ns.n16k",
            heap.next_deadline(clock, unit),
        );
        self.set(
            "wheel.heap.advance_ns_per_fire.n16k",
            heap.advance(clock, unit),
        );
        let (schedule, _) = heap.schedule_cancel(clock, unit);
        self.set("wheel.heap.schedule_ns.n16k", schedule);
    }

    fn core(&mut self) {
        let (clock, unit) = (self.clock, self.unit_ns);
        let mut core = production_core();
        core.schedule(0, u64::from(u32::MAX), 1);
        let mut out = Vec::new();
        let mut now = 0u64;
        self.set(
            "core.poll_not_due_ns",
            per_call(clock, unit, BATCH, || {
                now += 1;
                black_box(core.poll(black_box(now), &mut out));
            }),
        );

        let mut pacer = Pacer::new(PacerConfig::new(40, 12));
        pacer.start_train(0);
        let mut now = 0u64;
        self.set(
            "core.pacer_on_transmit_ns",
            per_call(clock, unit, BATCH, || {
                let interval = pacer.on_transmit(black_box(now));
                now += interval + 3;
            }),
        );

        let mut poller = PollController::new(PollControllerConfig::with_quota(5.0));
        let mut found = 0u64;
        self.set(
            "core.poller_on_poll_ns",
            per_call(clock, unit, BATCH, || {
                found = (found + 3) % 11;
                black_box(poller.on_poll(black_box(found)));
            }),
        );

        let mut smp: SmpFacility<u64> = SmpFacility::new(2);
        smp.schedule(0, u64::from(u32::MAX), 1);
        let mut out = Vec::new();
        let mut now = 0u64;
        self.set(
            "core.smp_trigger_ns",
            per_call(clock, unit, BATCH, || {
                now += 1;
                black_box(smp.trigger((now & 1) as usize, black_box(now), &mut out));
            }),
        );
    }

    fn kernel(&mut self) {
        let (clock, unit) = (self.clock, self.unit_ns);
        let mut sc: SoftClock<u64> = SoftClock::new(false);
        let mut now = SimTime::ZERO;
        sc.schedule(now, u64::from(u32::MAX), 1);
        let mut out = Vec::new();
        self.set(
            "kernel.trigger_not_due_ns",
            per_call(clock, unit, BATCH, || {
                now += SimDuration::from_micros(30);
                black_box(sc.trigger(now, TriggerSource::Syscall, &mut out));
            }),
        );
        self.set(
            "kernel.backup_tick_ns",
            per_call(clock, unit, BATCH, || {
                now += SimDuration::from_micros(1_000);
                black_box(sc.backup_tick(now, &mut out));
            }),
        );

        // One schedule plus the trigger that fires it, on a clock that
        // holds nothing else.
        let mut sc: SoftClock<u64> = SoftClock::new(false);
        let mut now = SimTime::ZERO;
        let mut out = Vec::new();
        self.set(
            "kernel.trigger_fire_ns",
            per_call(clock, unit, BATCH, || {
                sc.schedule(now, 10, 1);
                now += SimDuration::from_micros(30);
                out.clear();
                black_box(sc.trigger(now, TriggerSource::Syscall, &mut out));
            }),
        );

        let seed = self.seed;
        self.set(
            "kernel.machine_ns_per_trigger",
            per_op(clock, unit, || {
                let mut cfg = MachineConfig::busy_server(seed);
                cfg.duration = SimDuration::from_millis(100);
                let t0 = clock.now_ns();
                let run = run_machine(cfg);
                (clock.now_ns() - t0, run.recorder.total())
            }),
        );
    }

    fn sim(&mut self) {
        let (clock, unit) = (self.clock, self.unit_ns);
        for (pending, name) in [
            (16u32, "sim.engine_ns_per_event.k16"),
            (16_384, "sim.engine_ns_per_event.k16k"),
        ] {
            let mut engine = Engine::new(Ticker {
                rng: SimRng::seed(self.seed),
            });
            for i in 0..pending {
                engine.schedule_at(SimTime::from_micros(u64::from(i)), i);
            }
            let v = per_call(clock, unit, BATCH, || {
                black_box(engine.step());
            });
            self.set(name, v);
        }

        let mut engine = Engine::new(Ticker {
            rng: SimRng::seed(self.seed),
        });
        let mut ids = Vec::with_capacity(BATCH as usize);
        let v = per_op(clock, unit, || {
            for i in 0..BATCH as u32 {
                ids.push(engine.schedule_in(SimDuration::from_micros(1), i));
            }
            let t0 = clock.now_ns();
            for id in ids.drain(..) {
                black_box(engine.cancel(id));
            }
            let ns = clock.now_ns() - t0;
            // Pops the cancelled entries so the heap does not grow.
            let until = engine.now() + SimDuration::from_micros(2);
            engine.run_until(until);
            (ns, BATCH)
        });
        self.set("sim.engine_cancel_ns", v);

        let mut rng = SimRng::seed(self.seed);
        self.set(
            "sim.rng_next_ns",
            per_call(clock, unit, 4 * BATCH, || {
                black_box(rng.next_u64());
            }),
        );
    }

    fn net(&mut self) {
        let (clock, unit) = (self.clock, self.unit_ns);
        let mut link = Link::fast_ethernet_lan();
        let mut now = SimTime::ZERO;
        self.set(
            "net.link_enqueue_ns",
            per_call(clock, unit, BATCH, || {
                now += SimDuration::from_micros(100);
                black_box(link.enqueue_forward(now, 1_500));
            }),
        );

        let mut nic = Nic::default_ring();
        let mut now = SimTime::ZERO;
        let mut id = 0u64;
        self.set(
            "net.nic_rx_ns_per_packet",
            per_op(clock, unit, || {
                let t0 = clock.now_ns();
                for _ in 0..32 {
                    id += 1;
                    now += SimDuration::from_micros(10);
                    nic.deliver_rx(
                        now,
                        Packet::data(id, ConnId(1), id * 1_448, 1_448, 0, 65_535),
                    );
                }
                let got = nic.poll_rx(32).len() as u64;
                (clock.now_ns() - t0, got)
            }),
        );

        let mut wan = WanEmulator::paper_50mbps();
        let mut now = SimTime::ZERO;
        self.set(
            "net.wan_forward_ns",
            per_call(clock, unit, BATCH, || {
                now += SimDuration::from_micros(240);
                black_box(wan.forward(now, 1_500));
            }),
        );
    }

    fn tcp(&mut self) {
        let (clock, unit, seed) = (self.clock, self.unit_ns, self.seed);
        let transfer = |lossy: bool| {
            per_op(clock, unit, || {
                let mut cfg = TransferConfig::table6(400, true);
                cfg.seed = seed;
                if lossy {
                    cfg = cfg.with_wire_faults(WireFaults::mild());
                }
                let t0 = clock.now_ns();
                let out = TransferSim::run(cfg);
                (clock.now_ns() - t0, out.segments)
            })
        };
        self.set("tcp.transfer_ns_per_segment.lossless", transfer(false));
        self.set("tcp.transfer_ns_per_segment.lossy", transfer(true));

        // What one lost segment costs the endpoints: the receiver buffers
        // the out-of-order tail and emits duplicate ACKs, the sender
        // counts them into fast retransmit and resends the hole, and the
        // cumulative ACK that follows deflates recovery.
        let mut sender = TcpSender::new(SenderConfig::freebsd_defaults(), ConnId(1), u64::MAX);
        let mut receiver = TcpReceiver::new(AckPolicy::DelayedEvery2);
        let mut now = SimTime::ZERO;
        let mut id = 0u64;
        let mut segs = Vec::with_capacity(64);
        self.set(
            "tcp.retransmit_cycle_ns",
            per_call(clock, unit, 8, || {
                segs.clear();
                while segs.len() < 64 {
                    id += 1;
                    match sender.next_segment(id) {
                        Some(p) => segs.push(p),
                        None => break,
                    }
                }
                now += SimDuration::from_micros(100);
                for p in segs.iter().skip(1) {
                    receiver.on_data(now, p.tcp.seq, p.payload_bytes);
                }
                let una = sender.snd_una();
                for _ in 0..3 {
                    if let Some(seq) = sender.on_ack(una).retransmit {
                        id += 1;
                        let p = sender.retransmit_segment(id, seq);
                        receiver.on_data(now, p.tcp.seq, p.payload_bytes);
                    }
                }
                black_box(sender.on_ack(receiver.rcv_nxt()));
            }),
        );
    }

    fn http(&mut self) {
        let (clock, unit, seed) = (self.clock, self.unit_ns, self.seed);
        let machine = CostModel::pentium_ii_300();
        let server = ServerModel::uncalibrated(ServerKind::Apache, HttpMode::Http, &machine);
        let mut speed = Vec::new();
        let ns = per_op(clock, unit, || {
            let mut cfg = SaturationConfig::baseline(machine, server.clone(), seed);
            cfg.duration = SimDuration::from_millis(200);
            cfg.soft_null_event = true;
            let t0 = clock.now_ns();
            let r = SaturationSim::run(cfg);
            let ns = clock.now_ns() - t0;
            speed.push(r.elapsed.as_secs_f64() * 1e9 / ns.max(1) as f64);
            (ns, r.requests)
        });
        self.set("http.saturation_ns_per_request", ns);
        self.set("http.saturation_sim_speed", median(&mut speed));

        let ns = per_op(clock, unit, || {
            let mut cfg = LivelockConfig::baseline(
                DriverStrategy::SoftTimerPolling { quota: 5.0 },
                50e3,
                seed,
            );
            cfg.duration = SimDuration::from_millis(200);
            let t0 = clock.now_ns();
            let r = run_livelock(cfg);
            (clock.now_ns() - t0, r.arrived)
        });
        self.set("http.livelock_ns_per_packet", ns);
    }

    fn small_layers(&mut self) {
        let (clock, unit) = (self.clock, self.unit_ns);
        let nano = NanoClock::new();
        self.set("rt.clock_read_ns", st_rt::probe::clock_read_cost(&nano));
        self.set(
            "rt.trigger_check_ns",
            st_rt::probe::trigger_check_cost(&nano),
        );
        self.set("rt.dispatch_ns", st_rt::probe::fire_dispatch_cost(&nano));

        let mut h = HdrHistogram::new(7);
        let mut x = 0x9e37_79b9u64;
        self.set(
            "stats.hdr_record_ns",
            per_call(clock, unit, BATCH, || {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                h.record(black_box(x >> 44));
            }),
        );
        self.set(
            "stats.hdr_quantile_ns",
            per_call(clock, unit, 16, || {
                black_box(h.quantile(black_box(0.99)));
            }),
        );

        assert!(
            !st_trace::active() && !st_scope::active(),
            "sealed-probe timings need no active session"
        );
        let mut ts = 0u64;
        self.set(
            "trace.sealed_emit_ns",
            per_call(clock, unit, 4 * BATCH, || {
                ts += 1;
                st_trace::emit(st_trace::Category::Rt, "ledger.probe", black_box(ts), 0, 0);
            }),
        );
        self.set(
            "scope.sealed_fire_delay_ns",
            per_call(clock, unit, 4 * BATCH, || {
                ts += 1;
                st_scope::fire_delay("ledger.probe", black_box(ts), 0);
            }),
        );
    }

    /// A slice of `rearm_16k` or `cancel_16k`, untraced then traced.
    /// Returns the recorder of the traced half.
    fn facility_slice(&mut self, workload: &'static str, slices: u64) -> Shared {
        let tracer: Shared = Rc::new(RefCell::new(Tracer::new(self.clock)));
        let traced_core = || {
            let q = Timed::new(DefaultQueue::<u64>::default(), tracer.clone());
            SoftTimerCore::with_queue(Config::default(), q)
        };
        let ratio = if workload == "rearm_16k" {
            let input = Rc::new(RearmInput::generate(self.seed));
            let plain = Rearm::arm(production_core(), NoProbe, input.clone());
            let traced = Rearm::arm(traced_core(), tracer.clone(), input);
            self.untraced_then_traced(&tracer, slices, plain, traced)
        } else {
            let input = Rc::new(CancelInput::generate(self.seed));
            let plain = Cancel::arm(production_core(), NoProbe, input.clone());
            let traced = Cancel::arm(traced_core(), tracer.clone(), input);
            self.untraced_then_traced(&tracer, slices, plain, traced)
        };
        self.set(format!("ledger.trace_overhead_ratio.{workload}"), ratio);
        tracer
    }

    /// Measures `plain`, then `traced` under a workload span, half a
    /// slice each; returns traced wall per step over untraced.
    fn untraced_then_traced(
        &mut self,
        tracer: &Shared,
        slices: u64,
        plain: impl Stepper,
        traced: impl Stepper,
    ) -> f64 {
        let half = slices * self.slice_ns / 2;
        let (plain, f0, a0) = measure(self.clock, plain, half);
        // Arming ran warm steps through the recorder; start it over so it
        // holds the measured box only.
        *tracer.borrow_mut() = Tracer::new(self.clock);
        tracer.begin(SpanName::Workload);
        let (traced, f1, a1) = measure(self.clock, traced, half);
        tracer.end();
        self.attempted += a0 + a1;
        self.failed += f0.total() + f1.total();
        traced.ns_per_step() / plain.ns_per_step()
    }

    /// The metrics only a traced facility workload can give.
    fn span_metrics(&mut self, rearm: &Tracer, cancel: &Tracer, pair_ns: f64, inner_ns: f64) {
        let fires = rearm.stat(SpanName::CoreSchedule).count.max(1) as f64;
        let polls = rearm.stat(SpanName::CorePoll).count.max(1) as f64;
        self.set(
            "wheel.next_deadline_calls_per_fire",
            rearm.stat(SpanName::QueueNextDeadline).count as f64 / fires,
        );
        self.set("core.fires_per_poll", fires / polls);
        // Self time of the core spans: their measured total, minus what
        // their `Timed<Q>` children cover, minus the clock's share — each
        // child costs its parent a span pair less what the child itself
        // measured, and each core span measures `inner_ns` too much.
        let mut self_ns = 0.0;
        for name in SpanName::ALL.into_iter().filter(|n| n.is_core()) {
            let s = rearm.stat(name);
            self_ns += (s.total_ns - s.child_ns) as f64
                - s.children as f64 * (pair_ns - inner_ns)
                - s.count as f64 * inner_ns;
        }
        self.set("core.self_ns_per_fire.n16k", (self_ns / fires).max(0.0));
        let advances = cancel.stat(SpanName::QueueAdvance).count.max(1) as f64;
        self.set(
            "wheel.empty_advance_ratio",
            cancel.empty_advances as f64 / advances,
        );
    }

    fn sim_slice(&mut self, set: &SimSet, slices: u64) -> (Shared, sims::SimRun) {
        let tracer: Shared = Rc::new(RefCell::new(Tracer::new(self.clock)));
        tracer.begin(SpanName::Workload);
        // One pass always; more only when this is the traced workload
        // and its slices leave room.
        let box_ns = if slices > 1 {
            slices * self.slice_ns
        } else {
            0
        };
        let run = sims::run_passes(self.clock, set, self.seed, box_ns, 1, &tracer);
        tracer.end();
        self.attempted += run.attempted;
        self.failed += run.failed;
        (tracer, run)
    }

    fn host_slice(&mut self, regime: Regime, slices: u64) -> Shared {
        let tracer: Shared = Rc::new(RefCell::new(Tracer::new(self.clock)));
        let periods = regime.periods_ns(self.seed);
        tracer.begin(SpanName::Workload);
        let run = host::run_segments(
            &periods,
            slices * self.slice_ns,
            host::TRACED_SEGMENTS,
            &tracer,
        );
        tracer.end();
        let m = run.measured(regime);
        self.attempted += m.attempted;
        self.failed += m.failed;
        let q = |s: &host::Segment, q: f64| s.report.check_cost.quantile(q).unwrap_or(0) as f64;
        let idle = |s: &host::Segment| s.report.idle_poll.as_ref().map_or(0.0, |i| i.density_hz);
        let tag = regime.tag();
        self.set(format!("rt.check_p50_ns.{tag}"), run.med(|s| q(s, 0.5)));
        self.set(format!("rt.check_p99_ns.{tag}"), run.med(|s| q(s, 0.99)));
        self.set(
            format!("rt.backup_share.{tag}"),
            run.med(|s| s.report.backup_share),
        );
        self.set(
            format!("rt.facility_cpu_fraction.{tag}"),
            run.med(|s| s.report.facility_cpu_fraction),
        );
        self.set(
            format!("rt.task_density_hz.{tag}"),
            run.med(|s| s.report.task_return.density_hz),
        );
        self.set(format!("rt.idle_density_hz.{tag}"), run.med(idle));
        self.set(format!("rt.delivered_ratio.{tag}"), run.delivered_ratio());
        self.set(
            format!("rt.fire_delay_p99_ns.{tag}"),
            run.delay_quantile(0.99),
        );
        if regime == Regime::Paced {
            self.set("rt.fire_delay_p999_ns.paced", run.delay_quantile(0.999));
            self.set("rt.late_fire_ratio.paced", run.late_ratio());
        }
        tracer
    }
}

/// The traced run of `workload`.
pub fn run_traced(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let Some(workload) = all_workloads().find(|w| *w == workload) else {
        return Err(format!("unknown workload {workload:?}"));
    };
    let clock = Clock::start();
    let mut s = Suite {
        clock,
        seed,
        unit_ns: ((seconds * 0.005 * 1e9) as u64).max(2_000_000),
        slice_ns: ((seconds * 0.05 * 1e9) as u64).max(20_000_000),
        values: BTreeMap::new(),
        attempted: 0,
        failed: 0,
    };
    let slices = |w: &str| if w == workload { 3 } else { 1 };

    let (pair_ns, inner_ns) = calibrate_pair(clock);
    s.set("ledger.clock_pair_ns", pair_ns);
    s.wheel();
    s.core();
    s.kernel();
    s.sim();
    s.net();
    s.tcp();
    s.http();
    s.small_layers();

    let rearm = s.facility_slice("rearm_16k", slices("rearm_16k"));
    let cancel = s.facility_slice("cancel_16k", slices("cancel_16k"));
    s.span_metrics(&rearm.borrow(), &cancel.borrow(), pair_ns, inner_ns);

    let (timers, timers_run) = s.sim_slice(&sims::SIM_TIMERS, slices("sim_timers"));
    let (stack, stack_run) = s.sim_slice(&sims::SIM_STACK, slices("sim_stack"));
    for (set, run) in [
        (&sims::SIM_TIMERS, &timers_run),
        (&sims::SIM_STACK, &stack_run),
    ] {
        for (i, (name, _)) in set.experiments.iter().enumerate() {
            s.set(format!("experiments.{name}_s"), run.exp_median_ns(i) / 1e9);
        }
    }
    s.set(
        "experiments.digest.sim_timers",
        f64::from(timers_run.digest),
    );
    s.set("experiments.digest.sim_stack", f64::from(stack_run.digest));

    let paced = s.host_slice(Regime::Paced, slices("host_paced"));
    let saturated = s.host_slice(Regime::Saturated, slices("host_saturated"));
    s.set("rt.lock_recoveries", st_rt::lock_recoveries() as f64);

    let tracer = match workload {
        "rearm_16k" => rearm,
        "cancel_16k" => cancel,
        "sim_timers" => timers,
        "sim_stack" => stack,
        "host_paced" => paced,
        _ => saturated,
    };
    {
        let t = tracer.borrow();
        let top = t.stat(SpanName::Workload);
        let ops: u64 = [SpanName::CorePoll, SpanName::Experiment, SpanName::HostRun]
            .iter()
            .map(|&n| t.stat(n).count)
            .sum();
        s.set("ledger.spans_kept", t.kept_len() as f64);
        s.set("ledger.spans_overwritten", t.overwritten() as f64);
        s.set("ledger.traced_ops", ops as f64);
        s.set(
            "ledger.traced_ns_per_op",
            top.total_ns as f64 / ops.max(1) as f64,
        );
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/trace_{workload}.jsonl");
        std::fs::write(&path, t.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    }

    let values = PER_LAYER
        .iter()
        .map(|m| {
            s.values
                .get(m.name)
                .map(|&v| (m, v))
                .ok_or(format!("per-layer metric {} was not measured", m.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Outcome {
        attempted: s.attempted,
        failed: s.failed,
        values,
        digest: 0,
    })
}

/// `--smoke`: every workload once with half-second boxes and one traced
/// run, each result line validated. Meant for CI; about 20 s, most of it
/// the two passes each sim workload makes whatever its box.
pub fn smoke(seed: u64) -> Result<(), String> {
    let check = |label: &str, o: Outcome| {
        let line = o.to_json();
        st_trace::json::validate(&line).map_err(|e| format!("{label}: {e}"))?;
        println!("{label} {line}");
        if o.correct() {
            Ok(())
        } else {
            Err(format!("{label}: run was not correct"))
        }
    };
    for w in all_workloads() {
        check(w, run_workload(w, seed, 0.5)?)?;
    }
    check("trace:rearm_16k", run_traced("rearm_16k", seed, 0.5)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_op_takes_at_least_three_batches_and_reports_their_median() {
        let clock = Clock::start();
        let mut calls = 0;
        let v = per_op(clock, 0, || {
            calls += 1;
            (calls * 100, 10)
        });
        assert_eq!(calls, 3);
        assert_eq!(v, 20.0);
    }

    #[test]
    fn populated_queue_probes_keep_the_population() {
        let clock = Clock::start();
        let mut p = Populated::new(HeapQueue::<u64>::default(), 256);
        p.schedule_cancel(clock, 0);
        assert_eq!(p.q.len(), 256);
        let ns = p.advance(clock, 0);
        assert!(ns > 0.0);
        assert_eq!(p.q.len(), 256, "fired timers are re-armed");
        assert!(p.next_deadline(clock, 0) > 0.0);
    }

    #[test]
    fn populated_core_fires_and_rearms() {
        let clock = Clock::start();
        let mut c = PopulatedCore::new(256);
        assert!(c.poll_fire(clock, 0) > 0.0);
        assert_eq!(c.core.pending(), 256);
        c.schedule_cancel(clock, 0);
        assert_eq!(c.core.pending(), 256);
    }
}
