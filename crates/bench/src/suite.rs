//! The hot-path microbenchmark suite behind the `BENCH_*.json` perf
//! trajectory.
//!
//! Each entry times one path whose cost the paper's argument depends
//! on: the per-trigger check must stay near a clock read (section 4),
//! the wheel operations bound facility overhead under churn (section
//! 3), the pacer release is the per-packet cost of rate-based clocking
//! (section 5.3), the sealed st-trace probes must vanish when no session
//! records, the st-prof sample must stay cheap enough to run from
//! trigger states, and the timeline sample tick / fire-delay
//! attribution must stay far below the sampling period.
//!
//! [`run_suite`] collects the numbers through
//! [`measure`](crate::harness::measure), [`to_json`] freezes
//! them in the `st-bench-v1` schema (validated by `st-trace`'s JSON
//! validator before writing), and [`compare`] parses two snapshots and
//! flags tolerance-exceeding regressions — `scripts/perf_gate.sh`
//! drives that from CI.

use st_admit::{AdmissionController, Decision, LimiterKind, RejectPolicy, RequestClass};
use st_core::facility::{Config, Expired, SoftTimerCore};
use st_core::pacer::{Pacer, PacerConfig};
use st_kernel::softclock::SoftClock;
use st_kernel::trigger::TriggerSource;
use st_prof::Sampler;
use st_scope::ExecLedger;
use st_sim::{SimDuration, SimTime};
use st_trace::json::{self, ObjectBuilder, Value};
use st_wheel::{HeapQueue, TimerQueue, TimingWheel};

use crate::harness::measure;

/// Schema tag written into every snapshot; bump on breaking change.
pub const SCHEMA: &str = "st-bench-v1";

/// Summary statistics for one suite entry, nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchStat {
    /// Stable entry name (`layer.path` style).
    pub name: &'static str,
    /// Fastest sample — the least-noise statistic; the gate compares it.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// Mean over all samples.
    pub mean_ns: f64,
    /// Number of samples collected.
    pub samples: usize,
}

fn stat(name: &'static str, samples: Vec<f64>) -> BenchStat {
    assert!(
        !samples.is_empty(),
        "suite entry {name} produced no samples"
    );
    BenchStat {
        name,
        min_ns: samples[0],
        median_ns: samples[samples.len() / 2],
        mean_ns: samples.iter().sum::<f64>() / samples.len() as f64,
        samples: samples.len(),
    }
}

/// One schedule → fire → cancel cycle over a pre-built timer queue:
/// 256 timers in, advance until half fire, cancel whatever remains.
/// The queue is constructed once outside the timed loop — constructing
/// (and allocating) a wheel per iteration measures the allocator, which
/// is bimodal under CI load; steady-state operation is what the
/// facility actually pays.
struct WheelCycle<Q> {
    queue: Q,
    now: u64,
    handles: Vec<st_wheel::TimerHandle>,
    fired: Vec<(u64, u64)>,
}

impl<Q: TimerQueue<u64>> WheelCycle<Q> {
    fn new(queue: Q) -> Self {
        WheelCycle {
            queue,
            now: 0,
            handles: Vec::with_capacity(256),
            fired: Vec::with_capacity(256),
        }
    }

    fn cycle(&mut self) -> usize {
        self.handles.clear();
        for i in 0..256u64 {
            self.handles
                .push(self.queue.schedule(self.now + i * 7 + 1, i));
        }
        self.fired.clear();
        self.now += 256 * 7 / 2;
        self.queue.advance(self.now, &mut self.fired);
        let mut cancelled = 0;
        for h in self.handles.drain(..) {
            if self.queue.cancel(h).is_some() {
                cancelled += 1;
            }
        }
        self.now += 256 * 7 / 2;
        self.fired.len() + cancelled
    }
}

/// Runs every suite entry and returns the stats in a fixed order.
///
/// `smoke` trades precision for speed (5 samples instead of 30) — CI's
/// default; the perf trajectory snapshots use the full run.
pub fn run_suite(smoke: bool) -> Vec<BenchStat> {
    let n = if smoke { 5 } else { 30 };
    let mut out = Vec::new();

    // Wheel and heap oracle: the full schedule/fire/cancel lifecycle.
    // The wheel's key keeps the name it was frozen under (`hashed`, the
    // production wheel's geometry until PR 13) so `--trend` and the perf
    // gate follow the production queue as one line across snapshots.
    out.push(stat(
        "wheel.hashed.schedule_fire_cancel",
        measure(n, |b| {
            let mut w = WheelCycle::new(TimingWheel::new());
            b.iter(|| w.cycle())
        }),
    ));
    out.push(stat(
        "wheel.heap.schedule_fire_cancel",
        measure(n, |b| {
            let mut w = WheelCycle::new(HeapQueue::new());
            b.iter(|| w.cycle())
        }),
    ));

    // The idle-system case at the queue itself: a 1 ms jump with nothing
    // due. The facility's cached earliest deadline keeps embeddings off
    // this path (st-ledger's `wheel.empty_advance_ratio`), so this is
    // the one place its cost — occupied buckets only, not ticks — shows.
    out.push(stat(
        "wheel.sparse_advance",
        measure(n, |b| {
            let mut q: TimingWheel<()> = TimingWheel::new();
            q.schedule(u64::MAX / 2, ());
            let mut now = 0;
            let mut fired = Vec::new();
            b.iter(|| {
                now += 1_000;
                q.advance(std::hint::black_box(now), &mut fired);
            });
        }),
    ));

    // Facility fast path: poll with nothing due — the cost the paper
    // requires to be invisible at every syscall/trap/interrupt return.
    out.push(stat(
        "facility.poll_not_due",
        measure(n, |b| {
            let mut core: SoftTimerCore<u64> = SoftTimerCore::new(Config::default());
            core.schedule(0, u32::MAX as u64, 1);
            let mut due: Vec<Expired<u64>> = Vec::new();
            let mut now = 0u64;
            b.iter(|| {
                now += 1;
                core.poll(std::hint::black_box(now), &mut due)
            });
        }),
    ));

    // The same idle check one layer up, through the public real-time
    // runtime: `run_pending()` with a far-future event pending is a clock
    // read and a compare against the cached earliest deadline — no lock,
    // so it stays at clock-read scale however many threads poll.
    out.push(stat(
        "rt.timers.run_pending_idle",
        measure(n, |b| {
            use std::time::Duration;
            let rt = st_rt::RtSoftTimers::start(st_rt::RtConfig::default());
            rt.schedule_in(Duration::from_secs(3_600), |_| {});
            b.iter(|| rt.run_pending());
            rt.shutdown();
        }),
    ));

    // Facility steady state: fire and rearm one event per two checks.
    out.push(stat(
        "facility.schedule_fire_cycle",
        measure(n, |b| {
            let mut core: SoftTimerCore<u64> = SoftTimerCore::new(Config::default());
            let mut due = Vec::new();
            let mut now = 0u64;
            core.schedule(now, 40, 1);
            b.iter(|| {
                now += 20;
                due.clear();
                if core.poll(now, &mut due) > 0 {
                    core.schedule(now, 40, 1);
                }
            });
        }),
    ));

    // Kernel trigger check: interval recording plus the facility poll —
    // the whole per-trigger-state cost.
    out.push(stat(
        "kernel.trigger_check",
        measure(n, |b| {
            let mut clock: SoftClock<u64> = SoftClock::new(false);
            let mut now = SimTime::ZERO;
            clock.schedule(now, u32::MAX as u64, 1);
            let mut due = Vec::new();
            b.iter(|| {
                now += SimDuration::from_micros(30);
                clock.trigger(now, TriggerSource::Syscall, &mut due)
            });
        }),
    ));

    // Sealed st-trace probe: no session active, so the emit must cost a
    // thread-local read and a branch.
    out.push(stat(
        "trace.sealed_noop_emit",
        measure(n, |b| {
            assert!(
                !st_trace::active(),
                "sealed-probe bench needs no active trace session"
            );
            let mut ts = 0u64;
            b.iter(|| {
                ts += 1;
                st_trace::emit(
                    st_trace::Category::Kernel,
                    "bench.probe",
                    std::hint::black_box(ts),
                    0,
                    0,
                );
            });
        }),
    ));

    // Pacer release decision: the per-packet cost of rate-based clocking.
    out.push(stat(
        "tcp.pacer_release",
        measure(n, |b| {
            let mut p = Pacer::new(PacerConfig::new(40, 12));
            p.start_train(0);
            let mut now = 0u64;
            b.iter(|| {
                let interval = p.on_transmit(std::hint::black_box(now));
                now += interval + 3;
                interval
            });
        }),
    ));

    // TCP loss-recovery cycle: what one lost segment costs the
    // endpoints — the receiver buffers the out-of-order tail in its
    // reassembly map and emits duplicate ACKs, the sender counts them
    // into fast retransmit, requeues the hole, and the cumulative ACK
    // that follows deflates recovery. This is the retransmit-queue hot
    // path the congestion experiment leans on.
    out.push(stat(
        "tcp.retransmit_queue",
        measure(n, |b| {
            use st_net::packet::ConnId;
            use st_tcp::{AckPolicy, SenderConfig, TcpReceiver, TcpSender};
            let mut sender = TcpSender::new(SenderConfig::freebsd_defaults(), ConnId(1), u64::MAX);
            let mut receiver = TcpReceiver::new(AckPolicy::DelayedEvery2);
            let mut now = SimTime::ZERO;
            let mut id = 0u64;
            let mut segs = Vec::with_capacity(64);
            b.iter(|| {
                // Pump the window, then lose the first frame: the rest
                // land out of order and draw duplicate ACKs.
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
                // Dup ACKs until fast retransmit fires, then deliver the
                // retransmitted hole and the cumulative ACK it unlocks.
                let una = sender.snd_una();
                for _ in 0..3 {
                    if let Some(seq) = sender.on_ack(una).retransmit {
                        id += 1;
                        let p = sender.retransmit_segment(id, seq);
                        receiver.on_data(now, p.tcp.seq, p.payload_bytes);
                    }
                }
                sender.on_ack(receiver.rcv_nxt());
                sender.retransmits()
            });
        }),
    ));

    // st-prof sample: record a borrowed folded stack plus grid rearm —
    // must stay cheap enough to run from trigger states.
    out.push(stat(
        "prof.sample_record",
        measure(n, |b| {
            let mut sampler = Sampler::new(50);
            let mut due = 50u64;
            b.iter(|| {
                let fired = due + 7;
                let delta =
                    sampler.on_fire(std::hint::black_box("request;app;syscall"), due, fired);
                due = fired + delta;
            });
        }),
    ));

    // st-admit fast path: one admit + completion round trip — the
    // per-request cost, which must stay a compare-and-count so it can
    // sit on the accept path of every arrival.
    out.push(stat(
        "admit.admission_check",
        measure(n, |b| {
            let mut c =
                AdmissionController::new(LimiterKind::Aimd, RejectPolicy::Immediate, 25_000, 256);
            b.iter(|| {
                let d = c.try_admit(std::hint::black_box(RequestClass::Interactive));
                if matches!(d, Decision::Admit) {
                    c.on_complete(RequestClass::Interactive, 1_300);
                }
                matches!(d, Decision::Admit)
            });
        }),
    ));

    // st-admit limit re-evaluation: both partitions' limiters step from
    // their EWMAs — the periodic soft-timer event's body, paid once per
    // update period rather than per request.
    out.push(stat(
        "admit.limit_update",
        measure(n, |b| {
            let mut c =
                AdmissionController::new(LimiterKind::Aimd, RejectPolicy::Immediate, 25_000, 256);
            for _ in 0..8 {
                if matches!(c.try_admit(RequestClass::Interactive), Decision::Admit) {
                    c.on_complete(RequestClass::Interactive, 1_300);
                }
                if matches!(c.try_admit(RequestClass::Bulk), Decision::Admit) {
                    c.on_complete(RequestClass::Bulk, 9_000);
                }
            }
            let mut now_us = 0u64;
            b.iter(|| {
                now_us += 1_000;
                c.update_limits(std::hint::black_box(now_us));
                c.limit(RequestClass::Interactive)
            });
        }),
    ));

    // Sealed series probe: the same sealed check as `trace.sealed_noop_emit`
    // under the series view's three-argument signature (no `Event` to
    // build), so gauging a point must cost the same thread-local read and
    // branch. Both keys keep the names they were frozen under, when the
    // series view was st-scope's own session.
    out.push(stat(
        "scope.sealed_noop_emit",
        measure(n, |b| {
            assert!(
                !st_trace::active(),
                "sealed-probe bench needs no active session"
            );
            let mut tick = 0u64;
            b.iter(|| {
                tick += 1;
                st_trace::gauge(std::hint::black_box(tick), "bench.probe", 1.0);
            });
        }),
    ));

    // Timeline sample tick: the body of the periodic sampling soft-timer
    // event — difference the session's counters, flush the deltas and
    // observation-window quantiles into the timeline. Paid once per
    // sampling period (1 ms at 1 kHz), so it must stay far below the
    // period for the CPU share to stay negligible.
    out.push(stat(
        "scope.sample_tick",
        measure(n, |b| {
            let session = st_trace::TraceSession::start(st_trace::TraceConfig::default());
            for name in [
                "bench.rx",
                "bench.tx",
                "bench.admitted",
                "bench.rejected",
                "bench.completed",
                "bench.retransmits",
                "bench.fired",
                "bench.polls",
            ] {
                st_trace::count(name, 1);
            }
            let mut tick = 0u64;
            b.iter(|| {
                tick += 1_000;
                st_trace::count("bench.completed", 3);
                st_trace::observe_window("bench.latency_us", 1_250.0);
                st_trace::sample(std::hint::black_box(tick));
            });
            drop(session);
        }),
    ));

    // Fire-delay attribution: what one late fire costs the
    // world — record the handler's execution span, split the lateness
    // window against the ledger's overhead union, bank the decomposition
    // on the source's waterfall lane, and prune history that can no
    // longer intersect an attribution window.
    out.push(stat(
        "scope.delay_attribution",
        measure(n, |b| {
            let session = st_trace::TraceSession::start(st_trace::TraceConfig::default());
            let mut ledger = ExecLedger::new();
            let mut due = 1_000u64;
            b.iter(|| {
                let start_ns = due * 1_000 + 180;
                ledger.note(start_ns, start_ns + 4_450);
                let fired = due + 9;
                let (wait, cascade) = ledger.split(std::hint::black_box(due), fired);
                st_trace::fire_delay("bench-lane", wait, cascade);
                ledger.prune(start_ns.saturating_sub(64_000));
                due = fired + 91;
                wait + cascade
            });
            drop(session);
        }),
    ));

    // st-guard heartbeat: the store every lane pays at the top of each
    // work loop so the supervisor can see it's alive. Sits inside the
    // host hot path next to the trigger check, so it must stay a single
    // relaxed atomic store — single-digit nanoseconds.
    out.push(stat(
        "guard.heartbeat_beat",
        measure(n, |b| {
            let hb = st_rt::Heartbeat::starting_at(0);
            let mut now = 1u64;
            b.iter(|| {
                now += 1;
                hb.beat(std::hint::black_box(now));
                hb.last()
            });
        }),
    ));

    // st-guard supervisor scan: one pass over a healthy 4-lane host —
    // the periodic cost of supervision when nothing is wrong, paid once
    // per scan period (5 ms default), so it must stay trivially below
    // the period.
    out.push(stat(
        "guard.supervisor_scan",
        measure(n, |b| {
            use st_rt::{Action, Guard, LaneClass, SupervisorCore};
            // The default policy: 25 ms window, 3 restarts at 10 ms backoff.
            let mut core = SupervisorCore::new(
                &Guard::default(),
                vec![
                    LaneClass::Worker,
                    LaneClass::Worker,
                    LaneClass::IdlePoll,
                    LaneClass::Backup,
                ],
            );
            let mut actions: Vec<Action> = Vec::new();
            let mut now = 1_000_000u64;
            let mut beats = [0u64; 4];
            b.iter(|| {
                now += 5_000_000;
                for b in beats.iter_mut() {
                    *b = now - 1_000;
                }
                actions.clear();
                core.scan(std::hint::black_box(now), &beats, &mut actions);
                actions.len()
            });
        }),
    ));

    // Host fire path: ns per fire of a 1 000-event due batch through
    // st-rt's real `trigger_check`, one thread. What a worker lane or a
    // backup sweep pays per fire before any lane contends: `fire_due`'s two
    // lock holds and two clock reads a batch, the rest per-fire and
    // unshared. Each sample is one run of the probe (itself a min over
    // batches).
    // `rt.host.busy_round`: the idle lane's cycle instead, 3 fires a round
    // at one hold and one clock read a round — the per-round fixed cost
    // `host_saturated`'s fire delay rides on, spread over 3 fires.
    type HostProbe = fn(&st_rt::NanoClock) -> f64;
    let host_probes: [(&'static str, HostProbe); 2] = [
        ("rt.host.batch_dispatch", st_rt::probe::batch_dispatch_cost),
        ("rt.host.busy_round", st_rt::probe::busy_round_cost),
    ];
    for (name, probe) in host_probes {
        let clock = st_rt::NanoClock::new();
        let mut samples: Vec<f64> = (0..n).map(|_| probe(&clock)).collect();
        samples.sort_by(f64::total_cmp);
        out.push(stat(name, samples));
    }

    // The two quick-scale paper regenerations st-ledger's
    // `experiments.*_s` probes do not cover: Figure 5's windowed medians
    // and the CPU-scaling study, one whole run per iteration.
    out.push(stat(
        "experiments.fig5_quick",
        measure(n, |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                st_experiments::fig5::run(st_experiments::Scale::Quick, seed)
            });
        }),
    ));
    out.push(stat(
        "experiments.scaling_quick",
        measure(n, |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                st_experiments::scaling::run(st_experiments::Scale::Quick, seed)
            });
        }),
    ));

    // st-lint full-workspace pass: lex, parse, symbol tables, call graph,
    // and all three dataflow analyses over every workspace source,
    // pre-read so the number excludes disk I/O. Not a per-event path, but
    // ci.sh runs the lint before every build under a wall-clock budget,
    // and this entry keeps that budget honest across linter growth.
    out.push(stat(
        "lint.full_workspace",
        measure(n, |b| {
            let cwd = std::env::current_dir().expect("bench has a working directory");
            let root =
                st_lint::find_workspace_root(&cwd).expect("bench must run inside the workspace");
            let sources = st_lint::workspace_sources(&root).expect("workspace sources readable");
            assert!(
                sources.len() > 100,
                "workspace walk looks truncated: {} files",
                sources.len()
            );
            b.iter(|| {
                st_lint::lint_sources(std::hint::black_box(&sources))
                    .findings
                    .len()
            });
        }),
    ));

    out
}

/// Freezes suite stats as one `st-bench-v1` JSON snapshot.
pub fn to_json(stats: &[BenchStat], smoke: bool) -> String {
    let mut rows = String::from("[");
    for (i, s) in stats.iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        rows.push_str(
            &ObjectBuilder::new()
                .str("name", s.name)
                .f64("min_ns", s.min_ns)
                .f64("median_ns", s.median_ns)
                .f64("mean_ns", s.mean_ns)
                .u64("samples", s.samples as u64)
                .build(),
        );
    }
    rows.push(']');
    ObjectBuilder::new()
        .str("schema", SCHEMA)
        .str("mode", if smoke { "smoke" } else { "full" })
        .raw("benches", &rows)
        .build()
}

/// The outcome of comparing two snapshots.
#[derive(Debug)]
pub struct CompareReport {
    /// One human-readable line per bench present in both snapshots.
    pub lines: Vec<String>,
    /// Benches whose `min_ns` regressed beyond tolerance.
    pub regressions: Vec<String>,
}

fn snapshot_benches(v: &Value) -> Result<Vec<(String, f64)>, String> {
    let schema = v
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing schema field")?;
    if schema != SCHEMA {
        return Err(format!("unsupported schema {schema:?} (want {SCHEMA:?})"));
    }
    let benches = v
        .get("benches")
        .and_then(Value::as_arr)
        .ok_or("missing benches array")?;
    let mut out = Vec::with_capacity(benches.len());
    for b in benches {
        let name = b
            .get("name")
            .and_then(Value::as_str)
            .ok_or("bench without name")?;
        let min = b
            .get("min_ns")
            .and_then(Value::as_f64)
            .ok_or("bench without min_ns")?;
        out.push((name.to_string(), min));
    }
    Ok(out)
}

/// Compares two snapshot files' contents.
///
/// A bench regresses when its new `min_ns` exceeds the old by more than
/// `tolerance` (e.g. `0.30` = 30 %) AND by an absolute floor of 20 ns —
/// sub-floor paths are clock-granularity noise, not regressions.
/// Benches present in only one snapshot are reported but never gate.
pub fn compare(old: &str, new: &str, tolerance: f64) -> Result<CompareReport, String> {
    let old = snapshot_benches(&json::parse(old).map_err(|e| format!("old snapshot: {e}"))?)
        .map_err(|e| format!("old snapshot: {e}"))?;
    let new = snapshot_benches(&json::parse(new).map_err(|e| format!("new snapshot: {e}"))?)
        .map_err(|e| format!("new snapshot: {e}"))?;

    let mut report = CompareReport {
        lines: Vec::new(),
        regressions: Vec::new(),
    };
    for (name, new_min) in &new {
        let Some((_, old_min)) = old.iter().find(|(n, _)| n == name) else {
            report
                .lines
                .push(format!("{name:<42} NEW ({new_min:.1} ns)"));
            continue;
        };
        let ratio = if *old_min > 0.0 {
            new_min / old_min
        } else {
            1.0
        };
        let regressed = ratio > 1.0 + tolerance && (new_min - old_min) > 20.0;
        report.lines.push(format!(
            "{name:<42} {old_min:>10.1} ns -> {new_min:>10.1} ns  ({:+.1}%){}",
            (ratio - 1.0) * 100.0,
            if regressed { "  REGRESSION" } else { "" }
        ));
        if regressed {
            report.regressions.push(name.clone());
        }
    }
    for (name, _) in &old {
        if !new.iter().any(|(n, _)| n == name) {
            report.lines.push(format!("{name:<42} REMOVED"));
        }
    }
    Ok(report)
}

/// The per-bench perf trajectory across an ordered snapshot series.
#[derive(Debug)]
pub struct TrendReport {
    /// Column header: one label per snapshot, oldest first.
    pub header: String,
    /// One row per bench (first-seen order): `min_ns` in each snapshot,
    /// `-` where the bench does not exist yet (or was removed), and the
    /// relative change from the bench's first to its last appearance.
    pub lines: Vec<String>,
}

/// Builds the trajectory table across `snapshots` — ordered
/// `(label, file contents)` pairs, oldest first. Every bench that appears
/// in *any* snapshot gets a row; the trajectory is the point of the
/// `BENCH_PR*.json` series, so nothing is dropped or truncated.
pub fn trend(snapshots: &[(String, String)]) -> Result<TrendReport, String> {
    if snapshots.is_empty() {
        return Err("no snapshots to trend".into());
    }
    let mut parsed: Vec<(String, Vec<(String, f64)>)> = Vec::with_capacity(snapshots.len());
    for (label, body) in snapshots {
        let benches = snapshot_benches(&json::parse(body).map_err(|e| format!("{label}: {e}"))?)
            .map_err(|e| format!("{label}: {e}"))?;
        parsed.push((label.clone(), benches));
    }

    let mut names: Vec<String> = Vec::new();
    for (_, benches) in &parsed {
        for (name, _) in benches {
            if !names.contains(name) {
                names.push(name.clone());
            }
        }
    }

    let mut header = format!("{:<42}", "bench (min ns)");
    for (label, _) in &parsed {
        header.push_str(&format!(" {label:>12}"));
    }
    header.push_str("   first->last");

    let mut lines = Vec::with_capacity(names.len());
    for name in &names {
        let series: Vec<Option<f64>> = parsed
            .iter()
            .map(|(_, benches)| benches.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
            .collect();
        let mut row = format!("{name:<42}");
        for v in &series {
            match v {
                Some(v) => row.push_str(&format!(" {v:>12.1}")),
                None => row.push_str(&format!(" {:>12}", "-")),
            }
        }
        let present: Vec<f64> = series.iter().flatten().copied().collect();
        match (present.first(), present.last()) {
            (Some(first), Some(last)) if present.len() > 1 && *first > 0.0 => {
                row.push_str(&format!("   {:+.1}%", (last / first - 1.0) * 100.0));
            }
            _ => row.push_str("   n/a"),
        }
        lines.push(row);
    }
    Ok(TrendReport { header, lines })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_runs_and_serializes_validly() {
        let stats = run_suite(true);
        assert!(stats.len() >= 18, "suite shrank to {} entries", stats.len());
        let names: Vec<&str> = stats.iter().map(|s| s.name).collect();
        for expect in [
            "wheel.hashed.schedule_fire_cancel",
            "wheel.heap.schedule_fire_cancel",
            "wheel.sparse_advance",
            "facility.poll_not_due",
            "rt.timers.run_pending_idle",
            "kernel.trigger_check",
            "trace.sealed_noop_emit",
            "tcp.pacer_release",
            "tcp.retransmit_queue",
            "prof.sample_record",
            "admit.admission_check",
            "admit.limit_update",
            "scope.sealed_noop_emit",
            "scope.sample_tick",
            "scope.delay_attribution",
            "guard.heartbeat_beat",
            "guard.supervisor_scan",
            "rt.host.batch_dispatch",
            "rt.host.busy_round",
            "experiments.fig5_quick",
            "experiments.scaling_quick",
            "lint.full_workspace",
        ] {
            assert!(names.contains(&expect), "missing suite entry {expect}");
        }
        let body = to_json(&stats, true);
        json::validate(&body).expect("snapshot JSON must validate");
        let v = json::parse(&body).expect("snapshot JSON must parse");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(
            v.get("benches").and_then(Value::as_arr).map(|a| a.len()),
            Some(stats.len())
        );
    }

    #[test]
    fn compare_flags_only_material_regressions() {
        let old = r#"{"schema":"st-bench-v1","mode":"full","benches":[
            {"name":"a","min_ns":100.0,"median_ns":1,"mean_ns":1,"samples":5},
            {"name":"b","min_ns":5.0,"median_ns":1,"mean_ns":1,"samples":5},
            {"name":"gone","min_ns":9.0,"median_ns":1,"mean_ns":1,"samples":5}]}"#;
        let new = r#"{"schema":"st-bench-v1","mode":"full","benches":[
            {"name":"a","min_ns":200.0,"median_ns":1,"mean_ns":1,"samples":5},
            {"name":"b","min_ns":9.0,"median_ns":1,"mean_ns":1,"samples":5},
            {"name":"fresh","min_ns":3.0,"median_ns":1,"mean_ns":1,"samples":5}]}"#;
        let r = compare(old, new, 0.30).expect("well-formed snapshots");
        // a doubled (past 30% and past the 20 ns floor); b's +80% is
        // under the absolute floor so it is noise, not a regression.
        assert_eq!(r.regressions, vec!["a".to_string()]);
        assert!(r
            .lines
            .iter()
            .any(|l| l.contains("fresh") && l.contains("NEW")));
        assert!(r
            .lines
            .iter()
            .any(|l| l.contains("gone") && l.contains("REMOVED")));
    }

    #[test]
    fn compare_rejects_foreign_schema() {
        let bad = r#"{"schema":"other","benches":[]}"#;
        let good = r#"{"schema":"st-bench-v1","benches":[]}"#;
        assert!(compare(bad, good, 0.3).is_err());
        assert!(compare(good, good, 0.3).unwrap().regressions.is_empty());
    }

    #[test]
    fn trend_tracks_every_bench_across_the_series() {
        let pr1 = r#"{"schema":"st-bench-v1","mode":"full","benches":[
            {"name":"a","min_ns":100.0,"median_ns":1,"mean_ns":1,"samples":5},
            {"name":"gone","min_ns":9.0,"median_ns":1,"mean_ns":1,"samples":5}]}"#;
        let pr2 = r#"{"schema":"st-bench-v1","mode":"full","benches":[
            {"name":"a","min_ns":150.0,"median_ns":1,"mean_ns":1,"samples":5}]}"#;
        let pr3 = r#"{"schema":"st-bench-v1","mode":"full","benches":[
            {"name":"a","min_ns":50.0,"median_ns":1,"mean_ns":1,"samples":5},
            {"name":"fresh","min_ns":3.0,"median_ns":1,"mean_ns":1,"samples":5}]}"#;
        let r = trend(&[
            ("PR1".to_string(), pr1.to_string()),
            ("PR2".to_string(), pr2.to_string()),
            ("PR3".to_string(), pr3.to_string()),
        ])
        .expect("well-formed snapshots");
        assert!(r.header.contains("PR1") && r.header.contains("PR3"));
        assert_eq!(r.lines.len(), 3, "{:#?}", r.lines);
        // `a` appears in all three with a 100 -> 50 trajectory.
        let a = &r.lines[0];
        assert!(a.contains("100.0") && a.contains("150.0") && a.contains("50.0"));
        assert!(a.contains("-50.0%"), "{a}");
        // `gone` only ever had one point: no trajectory to compute.
        let gone = r.lines.iter().find(|l| l.starts_with("gone")).unwrap();
        assert!(gone.contains("n/a"), "{gone}");
        // `fresh` arrives late but still gets a row with `-` gaps.
        let fresh = r.lines.iter().find(|l| l.starts_with("fresh")).unwrap();
        assert!(fresh.contains('-'), "{fresh}");
    }

    #[test]
    fn trend_rejects_an_empty_series_and_bad_schemas() {
        assert!(trend(&[]).is_err());
        let bad = ("x".to_string(), r#"{"schema":"other"}"#.to_string());
        assert!(trend(&[bad]).is_err());
    }
}
