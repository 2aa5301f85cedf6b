//! End-to-end facility behaviour over realistic trigger streams: the
//! paper's headline delay statistics and bounds across the workloads,
//! and a differential of the production timer store against the heap.

use soft_timers::core::facility::{Config, Expired, SoftTimerCore, TimerHandle};
use soft_timers::sim::SimRng;
use soft_timers::stats::Samples;
use soft_timers::wheel::{HeapQueue, TimingWheel};
use soft_timers::workloads::{TriggerStream, WorkloadId};

/// Drives a facility with a workload's trigger stream plus the 1 kHz
/// backup, repeatedly scheduling one event `delta` ticks out, and returns
/// the observed delays past each deadline.
fn measure_delays(id: WorkloadId, delta: u64, events: usize, seed: u64) -> Samples {
    let mut core = SoftTimerCore::new(Config::default());
    let mut stream = TriggerStream::new(id.spec(), seed);
    let mut now = 0u64;
    let mut next_backup = 1000u64;
    let mut out: Vec<Expired<()>> = Vec::new();
    let mut delays = Samples::with_capacity(events);
    core.schedule(0, delta, ());
    while delays.len() < events {
        now += stream.next_gap().0.round().max(1.0) as u64;
        while next_backup < now {
            core.interrupt_sweep(next_backup, &mut out);
            next_backup += 1000;
        }
        core.poll(now, &mut out);
        for ev in out.drain(..) {
            delays.record(ev.delay() as f64);
            core.schedule(now, delta, ());
        }
    }
    delays
}

#[test]
fn st_apache_delays_match_paper_headline() {
    // Section 3: "the worst case distribution of d results in a mean
    // delay of 31.6 µs ... (median is 18 µs)".
    let mut d = measure_delays(WorkloadId::StApache, 40, 30_000, 1);
    let mean = d.mean().unwrap();
    let median = d.median().unwrap();
    assert!((27.0..37.0).contains(&mean), "mean delay {mean}");
    assert!((14.0..23.0).contains(&median), "median delay {median}");
}

#[test]
fn delays_are_bounded_by_backup_interrupt() {
    for id in [WorkloadId::StApache, WorkloadId::StKernelBuild] {
        let mut d = measure_delays(id, 40, 20_000, 2);
        let max = d.max().unwrap();
        // X = 1000 ticks; a backup sweep may itself be up to one backup
        // period after the due tick.
        assert!(max <= 2000.0, "{}: max delay {max}", id.label());
    }
}

#[test]
fn idle_like_workloads_give_microsecond_delays() {
    // ST-nfs reaches trigger states every ~2 µs: event delays collapse.
    let d = measure_delays(WorkloadId::StNfs, 40, 20_000, 3);
    assert!(d.mean().unwrap() < 5.0, "mean {}", d.mean().unwrap());
}

/// The two facilities under differential test, fed the same calls.
struct Pair {
    wheel: SoftTimerCore<usize, TimingWheel<usize>>,
    heap: SoftTimerCore<usize, HeapQueue<usize>>,
    wheel_fired: Vec<Expired<usize>>,
    heap_fired: Vec<Expired<usize>>,
}

impl Pair {
    fn poll(&mut self, now: u64) {
        self.wheel.poll(now, &mut self.wheel_fired);
        self.heap.poll(now, &mut self.heap_fired);
    }

    fn interrupt_sweep(&mut self, now: u64) {
        self.wheel.interrupt_sweep(now, &mut self.wheel_fired);
        self.heap.interrupt_sweep(now, &mut self.heap_fired);
    }
}

/// The tick scale a differential case runs at. Ranges are `[lo, hi)`.
struct Regime {
    measure_hz: u64,
    /// Usual gap between two trigger states, in ticks.
    gap: (u64, u64),
    /// Event deltas, in ticks.
    delta: (u64, u64),
}

/// The simulated kernel: 1 µs ticks, trigger states tens of ticks apart,
/// deltas that reach the wheel's third level.
const SIM_SCALE: Regime = Regime {
    measure_hz: 1_000_000,
    gap: (1, 120),
    delta: (0, 10_000),
};

/// The host runtime: 1 GHz ticks, deltas of 100 µs - 2 ms and polls
/// 0.5 - 1 000 µs apart, so one poll swallows whole upper-level buckets
/// and the survivors are filed again further down.
const HOST_SCALE: Regime = Regime {
    measure_hz: 1_000_000_000,
    gap: (500, 1_000_001),
    delta: (100_000, 2_000_001),
};

/// One seeded op stream — schedule / cancel / poll at irregular trigger
/// states, the backup sweep on its `X`-tick grid, and one check that reads
/// a regressed clock — through both facilities.
fn differential_case(rng: &mut SimRng, regime: &Regime) {
    let config = Config {
        measure_hz: regime.measure_hz,
        ..Config::default()
    };
    let x = config.x_ticks();
    let mut pair = Pair {
        wheel: SoftTimerCore::with_queue(config, TimingWheel::new()),
        heap: SoftTimerCore::with_queue(config, HeapQueue::new()),
        wheel_fired: Vec::new(),
        heap_fired: Vec::new(),
    };
    // `S + T` per event, indexed by payload.
    let mut s_plus_t: Vec<u64> = Vec::new();
    let mut handles: Vec<(TimerHandle, TimerHandle)> = Vec::new();
    let mut canceled = 0;
    let mut now = 0u64;
    let mut next_backup = x;

    let steps = rng.range_u64(50, 400);
    let regress_at = rng.range_u64(1, steps);
    // Past the last op, keep checking until every deadline has gone by.
    let mut step = 0;
    while step < steps || pair.wheel.pending() > 0 {
        // Mostly the regime's usual trigger-state gap; now and then a
        // stretch with none, so the backup sweep does the firing.
        let prev = now;
        now += match rng.range_u64(0, 16) {
            0 => rng.range_u64(1, 3 * x),
            _ => rng.range_u64(regime.gap.0, regime.gap.1),
        };
        while next_backup < now {
            pair.interrupt_sweep(next_backup);
            next_backup += x;
        }
        if step < steps {
            match rng.range_u64(0, 8) {
                0..=3 => {
                    let delta = rng.range_u64(regime.delta.0, regime.delta.1);
                    let id = s_plus_t.len();
                    s_plus_t.push(now + delta);
                    handles.push((
                        pair.wheel.schedule(now, delta, id),
                        pair.heap.schedule(now, delta, id),
                    ));
                }
                4 if !handles.is_empty() => {
                    let (hw, hh) = handles.swap_remove(rng.index(handles.len()));
                    let gone = pair.wheel.cancel(hw);
                    assert_eq!(gone, pair.heap.cancel(hh), "cancel diverged");
                    canceled += usize::from(gone.is_some());
                }
                _ => {}
            }
        }
        if step == regress_at {
            // Both facilities have seen `prev` or later; this check reads
            // an earlier tick and must be clamped, not passed to the store.
            pair.poll(prev - rng.range_u64(1, prev + 1));
        }
        pair.poll(now);
        assert_eq!(
            pair.wheel.pending(),
            pair.heap.pending(),
            "pending diverged"
        );
        step += 1;
    }

    assert_eq!(pair.wheel_fired, pair.heap_fired, "fire sequences diverged");
    assert_eq!(pair.wheel_fired.len() + canceled, s_plus_t.len());
    assert_eq!(pair.wheel.stats().clock_regressions, 1);
    for ev in &pair.wheel_fired {
        let st = s_plus_t[ev.payload];
        assert!(
            st < ev.fired_at && ev.fired_at < st + x + 1,
            "event {} scheduled for S+T={st} fired at {} (X={x})",
            ev.payload,
            ev.fired_at
        );
    }
}

#[test]
fn every_timer_store_gives_identical_fires() {
    // The facility is store-agnostic: the production wheel and the heap
    // oracle must produce the same `Expired` sequence, every event inside
    // the paper's (S+T, S+T+X+1) window — at the simulator's tick scale
    // and at the host runtime's.
    for regime in [&SIM_SCALE, &HOST_SCALE] {
        let mut rng = SimRng::seed(0x57);
        for _ in 0..64 {
            differential_case(&mut rng, regime);
        }
    }
}

#[test]
fn faster_cpu_reduces_delay() {
    // Table 1's Xeon row: trigger granularity scales with clock speed, so
    // the same event sees less delay on the faster machine.
    let slow = measure_delays(WorkloadId::StApache, 40, 20_000, 5);
    let fast = measure_delays(WorkloadId::StApacheXeon, 40, 20_000, 5);
    assert!(
        fast.mean().unwrap() < slow.mean().unwrap() * 0.75,
        "xeon {} vs p2 {}",
        fast.mean().unwrap(),
        slow.mean().unwrap()
    );
}
