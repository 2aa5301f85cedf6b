//! Integer-nanosecond virtual time.
//!
//! The paper's measurement clock is "usually a CPU register" read at 1 MHz
//! or finer; the simulator keeps virtual time in nanoseconds so that every
//! relevant clock (cycle counter, 1 MHz measurement clock, 1 kHz interrupt
//! clock, link serialization times) can be derived without rounding
//! surprises.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// Nanoseconds per microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;
/// Nanoseconds per millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A length of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Constructs from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * NANOS_PER_MICRO)
    }

    /// Constructs from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * NANOS_PER_MILLI)
    }

    /// Constructs from seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Raw nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the epoch (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / NANOS_PER_MICRO
    }

    /// Seconds since the epoch as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// Number of whole ticks of a clock with `hz` resolution at this time.
    ///
    /// E.g. `ticks(1_000_000)` converts to the paper's 1 MHz measurement
    /// clock.
    pub fn ticks(self, hz: u64) -> u64 {
        // Split to avoid overflow: ns * hz can exceed u64 for long runs.
        let secs = self.0 / NANOS_PER_SEC;
        let rem = self.0 % NANOS_PER_SEC;
        secs * hz + rem * hz / NANOS_PER_SEC
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Constructs from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Constructs from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * NANOS_PER_MICRO)
    }

    /// Constructs from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * NANOS_PER_MILLI)
    }

    /// Constructs from seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Constructs from a float number of microseconds (rounds to ns).
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite input.
    pub fn from_micros_f64(us: f64) -> Self {
        assert!(us.is_finite() && us >= 0.0, "invalid duration {us} us");
        SimDuration((us * 1_000.0).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / NANOS_PER_MICRO
    }

    /// Microseconds as a float (for statistics).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Checked multiplication by an integer factor.
    pub fn checked_mul(self, k: u64) -> Option<SimDuration> {
        self.0.checked_mul(k).map(SimDuration)
    }

    /// The period of a clock running at `hz` Hertz.
    ///
    /// # Panics
    ///
    /// Panics when `hz` is zero.
    pub fn from_hz(hz: u64) -> SimDuration {
        assert!(hz > 0, "frequency must be non-zero");
        SimDuration(NANOS_PER_SEC / hz)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        self.0 -= other.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    fn div(self, other: SimDuration) -> u64 {
        self.0 / other.0
    }
}

impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn rem(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 % other.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= NANOS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= NANOS_PER_MILLI {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= NANOS_PER_MICRO {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_hz(1_000).as_micros(), 1_000);
        assert_eq!(SimDuration::from_hz(1_000_000).as_nanos(), 1_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(10) + SimDuration::from_micros(5);
        assert_eq!(t.as_micros(), 15);
        assert_eq!((t - SimTime::from_micros(10)).as_micros(), 5);
        assert_eq!(t.since(SimTime::from_micros(20)), SimDuration::ZERO);
        assert_eq!(SimDuration::from_micros(9) / SimDuration::from_micros(2), 4);
        assert_eq!(
            SimDuration::from_micros(9) % SimDuration::from_micros(2),
            SimDuration::from_micros(1)
        );
    }

    #[test]
    fn ticks_do_not_overflow_for_long_runs() {
        // One day of virtual time at 1 GHz measurement resolution.
        let t = SimTime::from_secs(86_400);
        assert_eq!(t.ticks(1_000_000_000), 86_400_000_000_000);
        // And at the paper's 1 MHz clock.
        assert_eq!(t.ticks(1_000_000), 86_400_000_000);
    }

    #[test]
    fn ticks_truncate() {
        let t = SimTime::from_nanos(2_500);
        assert_eq!(t.ticks(1_000_000), 2); // 2.5 us -> 2 ticks
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
    }

    #[test]
    fn from_micros_f64_rounds() {
        assert_eq!(SimDuration::from_micros_f64(1.2345).as_nanos(), 1_235);
        assert_eq!(SimDuration::from_micros_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn from_micros_f64_rejects_negative() {
        let _ = SimDuration::from_micros_f64(-1.0);
    }
}
