//! Nanosecond-resolution monotonic clock: the workspace's one wall clock.
//!
//! The paper's "typical" measurement resolution is 1 MHz and the simulator
//! keeps it; host-runtime telemetry needs to resolve a ~20 ns trigger
//! check, so everything on real threads runs the same [`Clock`] contract
//! at 1 GHz (ticks are nanoseconds).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use st_core::Clock;

/// Process-wide count of nanosecond conversions that saturated (see
/// [`saturations`]).
static SATURATIONS: AtomicU64 = AtomicU64::new(0);

/// How many nanosecond conversions (clock reads, scheduling delays,
/// periods) have pinned at `u64::MAX` process-wide. `u64` nanoseconds
/// overflow after ~584 years, so nonzero here means a wildly wrong
/// `Instant` or a caller's nonsense `Duration` — surfaced rather than
/// silently treated as "time stopped", which is how a pinned clock reads
/// to the wheel.
pub fn saturations() -> u64 {
    SATURATIONS.load(Ordering::Relaxed)
}

/// A `Duration` as nanosecond ticks, pinning at `u64::MAX` on overflow —
/// audibly, through [`saturating_ns`].
pub fn nanos(d: Duration) -> u64 {
    saturating_ns(d.as_nanos())
}

/// A wide nanosecond count (a `Duration`, a histogram's exact sum) as
/// `u64`, pinning at `u64::MAX` on overflow — audibly: each clamp is
/// counted (see [`saturations`]) and traced as `rt.time_saturations` when a
/// session is active on the calling thread.
pub(crate) fn saturating_ns(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or_else(|_| {
        SATURATIONS.fetch_add(1, Ordering::Relaxed);
        st_trace::count("rt.time_saturations", 1);
        st_trace::emit(st_trace::Category::Rt, "rt.nanos_saturated", u64::MAX, 0, 0);
        u64::MAX
    })
}

/// Wall-clock measurement via [`Instant`] in nanosecond ticks (1 GHz).
///
/// Tick 0 is the moment of construction. Implements [`st_core::Clock`], so
/// a `SoftTimerCore` driven by this clock does all of its arithmetic —
/// deadlines, fire delays, the backup bound `X` — directly in wall-clock
/// nanoseconds.
#[derive(Debug, Clone)]
pub struct NanoClock {
    start: Instant,
}

impl NanoClock {
    /// Creates a clock whose tick 0 is "now".
    pub fn new() -> Self {
        NanoClock {
            start: Instant::now(),
        }
    }

    /// Nanoseconds since construction (convenience alias of
    /// [`Clock::measure_time`]).
    pub fn now_ns(&self) -> u64 {
        nanos(self.start.elapsed())
    }

    /// Busy-waits until the clock reads at least `deadline_ns`, returning
    /// the first reading at or past it. This is the "spin" arm of the
    /// wake-up precision comparison and also serves as calibrated
    /// busy-work in the host runtime's synthetic tasks.
    pub fn spin_until(&self, deadline_ns: u64) -> u64 {
        spin(|| self.now_ns(), |now| now >= deadline_ns)
    }
}

/// The crate's one spin loop: busy-waits on `now_ns` until `done` accepts
/// a reading, and returns that reading.
pub(crate) fn spin(now_ns: impl Fn() -> u64, done: impl Fn(u64) -> bool) -> u64 {
    loop {
        let now = now_ns();
        if done(now) {
            return now;
        }
        std::hint::spin_loop();
    }
}

impl Default for NanoClock {
    fn default() -> Self {
        NanoClock::new()
    }
}

impl Clock for NanoClock {
    fn measure_time(&self) -> u64 {
        self.now_ns()
    }

    fn measure_resolution(&self) -> u64 {
        1_000_000_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nano_clock_is_monotone_and_advances() {
        let c = NanoClock::new();
        let a = c.measure_time();
        std::thread::sleep(Duration::from_millis(1));
        let b = c.measure_time();
        assert!(b > a, "1 ms sleep must advance a ns clock");
        assert!(b - a >= 500_000, "1 ms sleep advanced only {} ns", b - a);
        assert_eq!(c.measure_resolution(), 1_000_000_000);
    }

    #[test]
    fn spin_until_reaches_the_deadline() {
        let c = NanoClock::new();
        let deadline = c.now_ns() + 50_000;
        let reached = c.spin_until(deadline);
        assert!(reached >= deadline);
        // Overshoot is bounded by scheduler noise, not by sleep quanta:
        // even a loaded machine spins past by far less than a timeslice.
        assert!(reached - deadline < 100_000_000);
    }
}
