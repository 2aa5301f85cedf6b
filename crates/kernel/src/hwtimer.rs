//! The periodic hardware interval timer (the paper's Intel 8253).
//!
//! Conventional fine-grained event scheduling programs this device at the
//! desired event rate and eats one interrupt per event (section 3). The
//! model includes the detail that matters for Tables 4-5: the device has a
//! single pending latch, so ticks that elapse while interrupts are masked
//! are *lost*, not queued — "some timer interrupts are lost during periods
//! when interrupts are disabled in FreeBSD" (section 5.7), which is why
//! hardware-timer pacing undershoots its target rate.

#![deny(clippy::indexing_slicing)]

use st_sim::{SimDuration, SimTime};

/// Result of delivering a hardware timer interrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerFire {
    /// Periods that elapsed since the last delivery (>= 1).
    pub elapsed_periods: u64,
    /// Periods lost to the single pending latch (`elapsed_periods - 1`).
    pub lost: u64,
}

/// A free-running periodic interval timer.
///
/// # Examples
///
/// ```
/// use st_kernel::hwtimer::HardwareTimer;
/// use st_sim::{SimDuration, SimTime};
///
/// let mut t = HardwareTimer::new(SimDuration::from_micros(20), SimTime::ZERO);
/// assert_eq!(t.next_due(), SimTime::from_micros(20));
/// // Delivered on time: nothing lost.
/// let f = t.fire_at(SimTime::from_micros(20));
/// assert_eq!(f.lost, 0);
/// // Interrupts were masked until t = 120 µs: the ticks at 40, 60, 80,
/// // 100 and 120 collapse into one delivery; four are lost.
/// let f = t.fire_at(SimTime::from_micros(120));
/// assert_eq!(f.elapsed_periods, 5);
/// assert_eq!(f.lost, 4);
/// ```
#[derive(Debug, Clone)]
pub struct HardwareTimer {
    period: SimDuration,
    next_due: SimTime,
    delivered: u64,
    lost: u64,
}

impl HardwareTimer {
    /// Creates a timer whose first interrupt is one period after `start`.
    ///
    /// # Panics
    ///
    /// Panics on a zero period.
    pub fn new(period: SimDuration, start: SimTime) -> Self {
        assert!(period > SimDuration::ZERO, "period must be positive");
        HardwareTimer {
            period,
            next_due: start + period,
            delivered: 0,
            lost: 0,
        }
    }

    /// Creates a timer from a frequency in Hz.
    pub fn with_hz(hz: u64, start: SimTime) -> Self {
        HardwareTimer::new(SimDuration::from_hz(hz), start)
    }

    /// The programmed period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// When the next interrupt is due.
    pub fn next_due(&self) -> SimTime {
        self.next_due
    }

    /// Reprograms the period; the next interrupt is one new period after
    /// `now`. (The paper notes reprogramming is expensive on real devices;
    /// the *cost* is charged by the caller via the cost model.)
    pub fn reprogram(&mut self, period: SimDuration, now: SimTime) {
        assert!(period > SimDuration::ZERO, "period must be positive");
        self.period = period;
        self.next_due = now + period;
    }

    /// Delivers the interrupt at `now`, which must be at or after
    /// [`HardwareTimer::next_due`]. Periods that fully elapsed before
    /// delivery are counted as lost (single pending latch).
    ///
    /// # Panics
    ///
    /// Panics if called before the timer is due.
    pub fn fire_at(&mut self, now: SimTime) -> TimerFire {
        assert!(
            now >= self.next_due,
            "timer not due until {} (now {})",
            self.next_due,
            now
        );
        let late = now.since(self.next_due);
        let elapsed = 1 + late / self.period;
        self.next_due += self.period * elapsed;
        self.delivered += 1;
        self.lost += elapsed - 1;
        TimerFire {
            elapsed_periods: elapsed,
            lost: elapsed - 1,
        }
    }

    /// Interrupts delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Ticks lost to masking so far.
    pub fn lost(&self) -> u64 {
        self.lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn periodic_delivery() {
        let mut t = HardwareTimer::with_hz(50_000, SimTime::ZERO); // 20 µs
        assert_eq!(t.period(), SimDuration::from_micros(20));
        for i in 1..=10 {
            assert_eq!(t.next_due(), us(20 * i));
            let f = t.fire_at(t.next_due());
            assert_eq!(f.lost, 0);
        }
        assert_eq!(t.delivered(), 10);
        assert_eq!(t.lost(), 0);
    }

    #[test]
    fn late_delivery_loses_latched_ticks() {
        let mut t = HardwareTimer::new(SimDuration::from_micros(40), SimTime::ZERO);
        let f = t.fire_at(us(40 + 3 * 40 + 7)); // 3 extra periods + 7 µs late
        assert_eq!(f.elapsed_periods, 4);
        assert_eq!(f.lost, 3);
        // Next due remains on the device's own grid.
        assert_eq!(t.next_due(), us(200));
    }

    #[test]
    fn slightly_late_delivery_loses_nothing() {
        let mut t = HardwareTimer::new(SimDuration::from_micros(40), SimTime::ZERO);
        let f = t.fire_at(us(55));
        assert_eq!(f.lost, 0);
        assert_eq!(t.next_due(), us(80));
    }

    #[test]
    fn reprogram_restarts_grid() {
        let mut t = HardwareTimer::new(SimDuration::from_micros(40), SimTime::ZERO);
        t.fire_at(us(40));
        t.reprogram(SimDuration::from_micros(100), us(50));
        assert_eq!(t.next_due(), us(150));
    }

    #[test]
    #[should_panic(expected = "timer not due")]
    fn early_fire_panics() {
        let mut t = HardwareTimer::new(SimDuration::from_micros(40), SimTime::ZERO);
        t.fire_at(us(39));
    }
}
