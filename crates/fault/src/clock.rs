//! A measurement clock that lies: skew, jumps, transient regressions.

use std::cell::{Cell, RefCell};

use st_core::clock::Clock;
use st_sim::SimRng;

use crate::plan::ClockFaults;

/// A [`Clock`] whose readings are derived from harness-driven "true"
/// time with deterministic anomalies layered on top.
///
/// The harness owns true time and calls [`FaultyClock::set_true`] as the
/// run advances; every probabilistic decision happens there (one RNG
/// fork, one draw sequence), so reads through the [`Clock`] trait are
/// pure and the whole run replays from its seed.
///
/// Anomalies, per [`ClockFaults`]:
///
/// - **skew**: observed time advances at `1 + skew_ppm / 1e6` times the
///   true rate;
/// - **jumps**: with `jump_chance` per advance, the observed clock leaps
///   forward by up to `max_jump` ticks and stays there;
/// - **regressions**: with `regression_chance` per advance, the next
///   reading is up to `max_regression` ticks in the past, after which
///   the clock recovers. This transiently violates the [`Clock`]
///   monotonicity contract on purpose — it is exactly the anomaly the
///   facility's release-safe clamp (`FacilityStats::clock_regressions`)
///   must absorb.
///
/// # Examples
///
/// ```
/// use st_core::clock::Clock;
/// use st_fault::clock::FaultyClock;
/// use st_fault::plan::ClockFaults;
/// use st_sim::SimRng;
///
/// let clock = FaultyClock::new(1_000_000, Some(ClockFaults::nasty()), SimRng::seed(7));
/// clock.set_true(500);
/// let a = clock.measure_time();
/// clock.set_true(1_000);
/// let b = clock.measure_time();
/// // Readings come from the faulty mapping, not true time — but the
/// // same seed always produces the same readings.
/// let replay = FaultyClock::new(1_000_000, Some(ClockFaults::nasty()), SimRng::seed(7));
/// replay.set_true(500);
/// assert_eq!(replay.measure_time(), a);
/// replay.set_true(1_000);
/// assert_eq!(replay.measure_time(), b);
/// ```
#[derive(Debug)]
pub struct FaultyClock {
    hz: u64,
    faults: Option<ClockFaults>,
    rng: RefCell<SimRng>,
    true_ticks: Cell<u64>,
    /// Accumulated forward-jump offset.
    jump_offset: Cell<u64>,
    /// A one-shot backwards glitch to apply to the next readings until
    /// the next advance.
    glitch: Cell<u64>,
    jumps: Cell<u64>,
    regressions: Cell<u64>,
}

impl FaultyClock {
    /// Creates a clock at `hz` with the given fault class (`None` =
    /// healthy) drawing decisions from `rng`.
    pub fn new(hz: u64, faults: Option<ClockFaults>, rng: SimRng) -> Self {
        assert!(hz > 0, "clock resolution must be positive");
        FaultyClock {
            hz,
            faults,
            rng: RefCell::new(rng),
            true_ticks: Cell::new(0),
            jump_offset: Cell::new(0),
            glitch: Cell::new(0),
            jumps: Cell::new(0),
            regressions: Cell::new(0),
        }
    }

    /// Advances true time (monotone) and rolls for anomalies.
    ///
    /// # Panics
    ///
    /// Panics if `ticks` moves true time backwards — true time is the
    /// harness's own clock and must be monotone; only the *observed*
    /// clock misbehaves.
    pub fn set_true(&self, ticks: u64) {
        assert!(
            ticks >= self.true_ticks.get(),
            "true time must be monotone: {} -> {ticks}",
            self.true_ticks.get()
        );
        self.true_ticks.set(ticks);
        self.glitch.set(0);
        if let Some(f) = self.faults {
            let mut rng = self.rng.borrow_mut();
            if rng.chance(f.jump_chance) {
                let jump = if f.max_jump > 0 {
                    rng.range_u64(1, f.max_jump + 1)
                } else {
                    0
                };
                self.jump_offset.set(self.jump_offset.get() + jump);
                self.jumps.set(self.jumps.get() + 1);
                if st_trace::active() {
                    st_trace::count("fault.clock.jumps", 1);
                    st_trace::emit(
                        st_trace::Category::Fault,
                        "fault.clock.jump",
                        ticks,
                        jump,
                        0,
                    );
                }
            }
            if rng.chance(f.regression_chance) {
                let g = if f.max_regression > 0 {
                    rng.range_u64(1, f.max_regression + 1)
                } else {
                    0
                };
                self.glitch.set(g);
                self.regressions.set(self.regressions.get() + 1);
                if st_trace::active() {
                    st_trace::count("fault.clock.regressions", 1);
                    st_trace::emit(
                        st_trace::Category::Fault,
                        "fault.clock.regression",
                        ticks,
                        g,
                        0,
                    );
                }
            }
        }
    }

    /// Forward jumps injected so far.
    pub fn jumps_injected(&self) -> u64 {
        self.jumps.get()
    }

    /// Transient regressions injected so far.
    pub fn regressions_injected(&self) -> u64 {
        self.regressions.get()
    }
}

impl Clock for FaultyClock {
    fn measure_time(&self) -> u64 {
        let t = self.true_ticks.get();
        let skewed = match self.faults {
            Some(f) => {
                let rate = 1.0 + f.skew_ppm / 1e6;
                (t as f64 * rate) as u64
            }
            None => t,
        };
        (skewed + self.jump_offset.get()).saturating_sub(self.glitch.get())
    }

    fn measure_resolution(&self) -> u64 {
        self.hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_clock_tracks_true_time() {
        let c = FaultyClock::new(1_000_000, None, SimRng::seed(1));
        c.set_true(123);
        assert_eq!(c.measure_time(), 123);
        assert_eq!(c.measure_resolution(), 1_000_000);
    }

    #[test]
    fn skew_shifts_rate() {
        let f = ClockFaults {
            skew_ppm: 1_000_000.0, // Runs 2x fast.
            jump_chance: 0.0,
            max_jump: 0,
            regression_chance: 0.0,
            max_regression: 0,
        };
        let c = FaultyClock::new(1_000_000, Some(f), SimRng::seed(1));
        c.set_true(500);
        assert_eq!(c.measure_time(), 1_000);
    }

    #[test]
    fn jumps_accumulate_and_regressions_are_transient() {
        let f = ClockFaults {
            skew_ppm: 0.0,
            jump_chance: 1.0,
            max_jump: 10,
            regression_chance: 1.0,
            max_regression: 5,
        };
        let c = FaultyClock::new(1_000_000, Some(f), SimRng::seed(9));
        c.set_true(100);
        let glitched = c.measure_time();
        assert_eq!(c.jumps_injected(), 1);
        assert_eq!(c.regressions_injected(), 1);
        // Jump >= 1 and glitch <= 5: reading is within (100-5, 100+10].
        assert!(glitched > 95 && glitched <= 110, "reading {glitched}");
        c.set_true(101);
        // Glitch cleared; the jump persists; maybe a new jump/glitch.
        assert_eq!(c.jumps_injected(), 2);
    }

    #[test]
    fn same_seed_replays_identically() {
        let mk = || FaultyClock::new(1_000_000, Some(ClockFaults::nasty()), SimRng::seed(42));
        let (a, b) = (mk(), mk());
        for t in (0..5_000).step_by(37) {
            a.set_true(t);
            b.set_true(t);
            assert_eq!(a.measure_time(), b.measure_time(), "diverged at {t}");
        }
        assert_eq!(a.jumps_injected(), b.jumps_injected());
        assert_eq!(a.regressions_injected(), b.regressions_injected());
    }
}
