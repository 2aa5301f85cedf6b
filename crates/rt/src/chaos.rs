//! Host-side chaos: deterministic fault injection for the real runtime.
//!
//! The sim harness (`st-fault`) injects faults into a simulated CPU; this
//! module injects the *same plan* into real OS threads. Everything a run
//! will do to the host is decided up front by [`ChaosSchedule::generate`]
//! from the host fork (label 10) of the plan's seeded `SimRng`, so a
//! `(HostFaults, seed)` pair names one reproducible chaos run: the sim
//! twin in `repro rt_chaos` replays the identical schedule in virtual
//! time and must agree byte-for-byte with itself across replays.
//!
//! Units: [`st_fault::HostFaults`] speaks measurement ticks (µs, the
//! sim's 1 MHz clock); the host runs in nanoseconds, so the schedule
//! multiplies by 1 000 on the way out.
//!
//! Three injection mechanisms:
//!
//! - **thread stalls** — absolute `(at_ns, duration_ns)` windows a lane
//!   executes as heartbeat-silent busy spins (`LaneCtl` in `host`),
//!   modeling a wedged or preempted runtime thread;
//! - **callback panics** — per-fire decisions from a hash of the fire
//!   sequence number ([`ChaosState::should_panic`]), caught by the
//!   dispatcher exactly like the sim harness catches them;
//! - **clock jumps** — [`FaultClock`], a `NanoClock` wrapper that applies
//!   scheduled forward jumps; the healthy path costs one extra atomic
//!   load per read.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use st_fault::HostFaults;
use st_sim::SimRng;

use crate::clock::NanoClock;

/// Measurement ticks (µs) to host nanoseconds.
const TICK_NS: u64 = 1_000;

/// A [`NanoClock`] that applies scheduled forward jumps.
///
/// Jumps are fixed at construction as `(at_raw_ns, jump_ns)` pairs sorted
/// by raw (un-jumped) time. Readers advance a shared index with a CAS
/// when raw time passes the next jump and add the cumulative jump total
/// to every read. With no jumps scheduled the read path is the raw clock
/// plus one relaxed atomic load — cheap enough for the check fast path.
///
/// A reader racing the index advance can observe one pre-jump value
/// after another thread saw the post-jump value; `SoftTimerCore` clamps
/// exactly that (`FacilityStats::clock_regressions`), which is the
/// behaviour a real stepped clock forces on the facility anyway.
#[derive(Debug)]
pub struct FaultClock {
    inner: NanoClock,
    /// `(at_raw_ns, cumulative_jump_ns_after)` — cumulative totals so one
    /// index load names the whole offset.
    jumps: Vec<(u64, u64)>,
    applied: AtomicUsize,
}

impl FaultClock {
    /// A clock with no scheduled jumps: reads match the raw clock.
    pub fn healthy() -> Self {
        FaultClock::with_jumps(Vec::new())
    }

    /// A clock that jumps forward by `jumps[i].1` ns when raw time passes
    /// `jumps[i].0` ns. Pairs need not be sorted; zero-size jumps are
    /// dropped.
    pub fn with_jumps(mut jumps: Vec<(u64, u64)>) -> Self {
        jumps.retain(|&(_, j)| j > 0);
        jumps.sort_unstable();
        let mut cum = 0u64;
        let jumps = jumps
            .into_iter()
            .map(|(at, j)| {
                cum = cum.saturating_add(j);
                (at, cum)
            })
            .collect();
        FaultClock {
            inner: NanoClock::new(),
            jumps,
            applied: AtomicUsize::new(0),
        }
    }

    /// Nanoseconds since construction, jumps applied.
    pub fn now_ns(&self) -> u64 {
        let raw = self.inner.now_ns();
        let mut k = self.applied.load(Ordering::Acquire);
        while k < self.jumps.len() && raw >= self.jumps[k].0 {
            // Only the winner advances; losers re-read and retry.
            match self
                .applied
                .compare_exchange(k, k + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => k += 1,
                Err(cur) => k = cur,
            }
        }
        let offset = if k == 0 { 0 } else { self.jumps[k - 1].1 };
        raw.saturating_add(offset)
    }

    /// How many scheduled jumps have been applied so far.
    pub fn jumps_applied(&self) -> u64 {
        self.applied.load(Ordering::Relaxed) as u64
    }
}

const SPLITMIX_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer: a well-mixed hash of one word.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Shared per-run chaos decisions that cannot be scheduled by wall time:
/// panic injection is keyed on the global fire sequence number, so the
/// decision stream is deterministic per run regardless of which thread
/// dispatches which fire.
#[derive(Debug)]
pub struct ChaosState {
    /// `should_panic` fires when `hash < threshold`; `threshold / 2^64`
    /// is the panic probability.
    panic_threshold: u64,
    panic_seed: u64,
    fire_seq: AtomicU64,
    panics_injected: AtomicU64,
}

impl ChaosState {
    /// Decision state drawing panic verdicts at `panic_chance` per fire.
    pub fn new(panic_chance: f64, panic_seed: u64) -> Self {
        let p = panic_chance.clamp(0.0, 1.0);
        ChaosState {
            panic_threshold: (p * u64::MAX as f64) as u64,
            panic_seed,
            fire_seq: AtomicU64::new(0),
            panics_injected: AtomicU64::new(0),
        }
    }

    /// Whether the next dispatched fire should panic. Consumes one fire
    /// sequence number either way.
    pub fn should_panic(&self) -> bool {
        let idx = self.fire_seq.fetch_add(1, Ordering::Relaxed);
        if self.panic_threshold == 0 {
            return false;
        }
        let hit = splitmix64(self.panic_seed ^ idx) < self.panic_threshold;
        if hit {
            self.panics_injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Panics injected so far.
    pub fn panics_injected(&self) -> u64 {
        self.panics_injected.load(Ordering::Relaxed)
    }
}

/// Everything a chaos run will do to the host, fixed before any thread
/// starts: per-lane stall windows, clock jumps, and the panic-decision
/// key. Pure function of `(faults, seed, duration, lanes)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// Per stalled lane: absolute `(at_ns, duration_ns)` windows, sorted.
    pub stalls: Vec<Vec<(u64, u64)>>,
    /// Forward clock jumps `(at_raw_ns, jump_ns)`, sorted.
    pub jumps: Vec<(u64, u64)>,
    /// Per-fire panic probability carried through to [`ChaosState`].
    pub panic_chance: f64,
    /// Panic-decision hash key.
    pub panic_seed: u64,
}

impl ChaosSchedule {
    /// Builds the schedule for a run of `duration_ns` with `stall_lanes`
    /// lanes receiving stalls. Derived from fork label 10 of the seeded
    /// master rng — the same label the sim harness reserves for the host
    /// class, so host chaos never perturbs the sim classes' streams.
    ///
    /// Guaranteed-injection floor: any class with a nonzero chance gets
    /// at least one occurrence, scaled up by the expected count over the
    /// run — a 400 ms smoke run must still exercise every configured
    /// fault, not just flip coins and usually lose.
    pub fn generate(faults: &HostFaults, seed: u64, duration_ns: u64, stall_lanes: usize) -> Self {
        let mut master = SimRng::seed(seed);
        let mut host = master.fork(10);
        let quanta_ms = (duration_ns / 1_000_000).max(1);

        let mut stalls = Vec::with_capacity(stall_lanes);
        for lane in 0..stall_lanes {
            let mut rng = host.fork(lane as u64 + 1);
            let mut windows = Vec::new();
            if faults.stall_chance > 0.0 && faults.max_stall > 0 {
                let expected = quanta_ms as f64 * faults.stall_chance;
                let count = (expected.round() as u64).max(1);
                for _ in 0..count {
                    // Land inside [10%, 70%] of the run so detection and
                    // recovery both fit before the stop flag.
                    let at = rng.range_u64(duration_ns / 10, duration_ns * 7 / 10);
                    let dur = rng
                        .range_u64(faults.min_stall, faults.max_stall.max(faults.min_stall) + 1)
                        .saturating_mul(TICK_NS)
                        .min(duration_ns / 3);
                    windows.push((at, dur));
                }
                windows.sort_unstable();
            }
            stalls.push(windows);
        }

        let mut jump_rng = host.fork(100);
        let mut jumps = Vec::new();
        if faults.jump_chance > 0.0 && faults.max_jump > 0 {
            let expected = quanta_ms as f64 * faults.jump_chance;
            let count = (expected.round() as u64).max(1);
            for _ in 0..count {
                let at = jump_rng.range_u64(duration_ns / 10, duration_ns * 8 / 10);
                let jump = jump_rng
                    .range_u64(1, faults.max_jump + 1)
                    .saturating_mul(TICK_NS);
                jumps.push((at, jump));
            }
            jumps.sort_unstable();
        }

        ChaosSchedule {
            stalls,
            jumps,
            panic_chance: faults.panic_chance,
            panic_seed: host.fork(101).next_u64(),
        }
    }

    /// Total stall windows across all lanes.
    pub fn stall_count(&self) -> u64 {
        self.stalls.iter().map(|l| l.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faults() -> HostFaults {
        HostFaults {
            stall_chance: 0.01,
            min_stall: 30_000,
            max_stall: 60_000,
            panic_chance: 0.2,
            jump_chance: 0.005,
            max_jump: 5_000,
        }
    }

    #[test]
    fn schedules_are_deterministic_and_nonempty() {
        let a = ChaosSchedule::generate(&faults(), 42, 400_000_000, 2);
        let b = ChaosSchedule::generate(&faults(), 42, 400_000_000, 2);
        assert_eq!(a, b, "same (faults, seed) must produce one schedule");
        assert!(a.stall_count() >= 2, "guaranteed floor: one per lane");
        assert!(!a.jumps.is_empty());
        let c = ChaosSchedule::generate(&faults(), 43, 400_000_000, 2);
        assert_ne!(a, c, "different seeds must diverge");
        // Zeroed chances inject nothing.
        let none = ChaosSchedule::generate(
            &HostFaults {
                stall_chance: 0.0,
                min_stall: 0,
                max_stall: 0,
                panic_chance: 0.0,
                jump_chance: 0.0,
                max_jump: 0,
            },
            42,
            400_000_000,
            2,
        );
        assert_eq!(none.stall_count(), 0);
        assert!(none.jumps.is_empty());
    }

    #[test]
    fn stall_windows_fit_the_run() {
        let s = ChaosSchedule::generate(&faults(), 7, 300_000_000, 3);
        for lane in &s.stalls {
            for &(at, dur) in lane {
                assert!((30_000_000..=210_000_000).contains(&at), "at {at}");
                assert!(dur <= 100_000_000, "dur {dur}");
                assert!(dur >= 30_000_000, "dur {dur} below min_stall");
            }
        }
    }

    #[test]
    fn fault_clock_applies_jumps_monotonically_per_reader() {
        // Two jumps well in the past fire immediately; total 3 ms.
        let c = FaultClock::with_jumps(vec![(0, 1_000_000), (1, 2_000_000)]);
        let t = c.now_ns();
        assert!(t >= 3_000_000, "both jumps must apply: {t}");
        assert_eq!(c.jumps_applied(), 2);
        let t2 = c.now_ns();
        assert!(t2 >= t);
        // Healthy clock applies nothing and stays near raw time.
        let h = FaultClock::healthy();
        assert_eq!(h.jumps_applied(), 0);
        assert!(h.now_ns() < 1_000_000_000);
    }

    #[test]
    fn panic_decisions_are_deterministic_and_roughly_calibrated() {
        let a = ChaosState::new(0.2, 99);
        let b = ChaosState::new(0.2, 99);
        let hits_a: Vec<bool> = (0..1000).map(|_| a.should_panic()).collect();
        let hits_b: Vec<bool> = (0..1000).map(|_| b.should_panic()).collect();
        assert_eq!(hits_a, hits_b);
        let hits = hits_a.iter().filter(|&&h| h).count();
        assert!((100..400).contains(&hits), "20% of 1000 ~ {hits}");
        assert_eq!(a.panics_injected(), hits as u64);
        let never = ChaosState::new(0.0, 99);
        assert!((0..1000).all(|_| !never.should_panic()));
    }
}
