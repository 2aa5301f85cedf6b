//! The measurement clock abstraction.
//!
//! The paper's facility exposes `measure_time()` / `measure_resolution()`:
//! a cheap, monotonic, high-resolution clock — "usually a CPU register"
//! (section 3). The facility itself is clock-agnostic; anything that can
//! produce monotone ticks works.

/// A monotonic measurement clock.
///
/// `measure_time` must never decrease between calls. The facility treats
/// ticks as opaque; only differences and the resolution matter, exactly as
/// in the paper ("the time need not be synchronized with any standard time
/// base").
pub trait Clock {
    /// Current time in ticks of a clock running at [`Clock::measure_resolution`] Hz.
    fn measure_time(&self) -> u64;

    /// Resolution of the measurement clock in Hz.
    fn measure_resolution(&self) -> u64;
}

/// A manually driven clock for tests and the simulator.
///
/// # Examples
///
/// ```
/// use st_core::clock::{Clock, ManualClock};
///
/// let clock = ManualClock::new(1_000_000);
/// clock.set(42);
/// assert_eq!(clock.measure_time(), 42);
/// ```
#[derive(Debug)]
pub struct ManualClock {
    // st-lint: allow(shared-state) -- owner: the single driving test/sim
    // thread; ManualClock is !Sync (Cell), so the compiler already forbids
    // sharing it across CPUs
    ticks: std::cell::Cell<u64>,
    hz: u64,
}

impl ManualClock {
    /// Creates a clock at tick 0 with the given resolution.
    ///
    /// # Panics
    ///
    /// Panics when `hz` is zero.
    pub fn new(hz: u64) -> Self {
        assert!(hz > 0, "clock resolution must be positive");
        ManualClock {
            ticks: std::cell::Cell::new(0),
            hz,
        }
    }

    /// Sets the current tick.
    ///
    /// # Panics
    ///
    /// Panics when `ticks` would move the clock backwards.
    pub fn set(&self, ticks: u64) {
        assert!(
            ticks >= self.ticks.get(),
            "clock must be monotone: {} -> {ticks}",
            self.ticks.get()
        );
        self.ticks.set(ticks);
    }

    /// Advances the clock by `delta` ticks.
    pub fn advance(&self, delta: u64) {
        self.ticks.set(self.ticks.get() + delta);
    }
}

impl Clock for ManualClock {
    fn measure_time(&self) -> u64 {
        self.ticks.get()
    }

    fn measure_resolution(&self) -> u64 {
        self.hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_set_and_advance() {
        let c = ManualClock::new(1_000_000);
        assert_eq!(c.measure_time(), 0);
        assert_eq!(c.measure_resolution(), 1_000_000);
        c.advance(10);
        assert_eq!(c.measure_time(), 10);
        c.set(10); // Setting to the same tick is allowed.
        c.set(25);
        assert_eq!(c.measure_time(), 25);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn manual_clock_rejects_regression() {
        let c = ManualClock::new(1_000);
        c.set(5);
        c.set(4);
    }
}
