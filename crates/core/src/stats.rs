//! Facility statistics: fire counts by origin and the delay distribution.

use st_stats::{Histogram, Summary};

/// Counters and distributions accumulated by a [`crate::SoftTimerCore`].
///
/// The delay histogram uses 1-tick buckets up to 2048 ticks (2 ms at the
/// default 1 MHz measurement clock) — wide enough to hold the paper's
/// worst-case delay of one backup-interrupt period (1 ms).
#[derive(Debug, Clone)]
pub struct FacilityStats {
    /// Events scheduled.
    pub scheduled: u64,
    /// Events canceled before firing.
    pub canceled: u64,
    /// Trigger-state and backup checks performed.
    pub checks: u64,
    /// Backup interrupt sweeps performed.
    pub backup_sweeps: u64,
    /// Events fired from a trigger-state check.
    pub fired_trigger: u64,
    /// Events fired from the backup sweep.
    pub fired_backup: u64,
    /// Checks that handed the facility a clock value smaller than one
    /// already seen (wrapped TSC, badly synchronized clock source). The
    /// facility clamps such reads to the largest tick seen so delay
    /// accounting never underflows; this counts how often it had to.
    pub clock_regressions: u64,
    /// Event handlers that panicked while dispatched by an embedding
    /// runtime ([`crate::api::SoftTimers`], `st_rt::RtSoftTimers`).
    pub handler_panics: u64,
    /// Effective backup-frequency retunes via
    /// [`crate::SoftTimerCore::set_interrupt_hz`] — how often a
    /// supervising runtime moved the backup grid (degradation entries
    /// and exits both count; no-op retunes do not).
    pub backup_retunes: u64,
    /// Delay past the earliest legal tick, in measurement ticks.
    pub delay_ticks: Summary,
    /// Delay histogram (1-tick buckets).
    pub delay_hist: Histogram,
    /// Fires counted independently of the per-origin split, so
    /// [`FacilityStats::fired`] can cross-check the parts in debug
    /// builds.
    fired_total: u64,
    /// Exact integer sum of all recorded fire delays, in ticks.
    delay_sum_ticks: u64,
}

impl FacilityStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        FacilityStats {
            scheduled: 0,
            canceled: 0,
            checks: 0,
            backup_sweeps: 0,
            fired_trigger: 0,
            fired_backup: 0,
            clock_regressions: 0,
            handler_panics: 0,
            backup_retunes: 0,
            delay_ticks: Summary::new(),
            delay_hist: Histogram::new(1.0, 2048),
            fired_total: 0,
            delay_sum_ticks: 0,
        }
    }

    /// Exact integer sum of every recorded fire delay, in ticks.
    ///
    /// This is the reconciliation anchor for external attribution: a
    /// layer that decomposes each fire's lateness (st-trace's waterfall)
    /// must produce components that sum back to precisely this value —
    /// no float summary stands between the two sides.
    pub fn delay_sum_ticks(&self) -> u64 {
        self.delay_sum_ticks
    }

    /// Total events fired.
    ///
    /// In debug builds this checks the independently maintained total
    /// against the sum of the per-origin counters, so a future origin
    /// added to [`crate::facility::FireOrigin`] cannot silently leak
    /// out of the split.
    pub fn fired(&self) -> u64 {
        debug_assert_eq!(
            self.fired_total,
            self.fired_trigger + self.fired_backup,
            "per-origin fire counters disagree with the total"
        );
        self.fired_trigger + self.fired_backup
    }

    /// Fraction of fires that needed the backup interrupt.
    pub fn backup_fraction(&self) -> f64 {
        let total = self.fired();
        if total == 0 {
            0.0
        } else {
            self.fired_backup as f64 / total as f64
        }
    }

    /// Fires whose delay exceeded the histogram range (2048 ticks).
    ///
    /// Such delays still contribute to [`FacilityStats::delay_ticks`]
    /// exactly, but only land in the histogram's overflow bucket; this
    /// accessor makes that truncation explicit instead of silent. A
    /// non-zero value means the facility went more than two backup
    /// periods (at the default 1 kHz backup clock) without any check —
    /// a stall worth alarming on.
    pub fn delay_overflow(&self) -> u64 {
        self.delay_hist.overflow()
    }

    /// Fraction of fires whose delay overflowed the histogram range.
    pub fn delay_overflow_fraction(&self) -> f64 {
        let total = self.fired();
        if total == 0 {
            0.0
        } else {
            self.delay_overflow() as f64 / total as f64
        }
    }

    pub(crate) fn record_fire(&mut self, origin: crate::facility::FireOrigin, delay: u64) {
        self.fired_total += 1;
        match origin {
            crate::facility::FireOrigin::TriggerState => self.fired_trigger += 1,
            crate::facility::FireOrigin::BackupInterrupt => self.fired_backup += 1,
        }
        self.delay_ticks.record(delay as f64);
        self.delay_hist.record(delay as f64);
        self.delay_sum_ticks += delay;
    }
}

impl Default for FacilityStats {
    fn default() -> Self {
        FacilityStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facility::FireOrigin;

    #[test]
    fn counts_and_fractions() {
        let mut s = FacilityStats::new();
        assert_eq!(s.backup_fraction(), 0.0);
        s.record_fire(FireOrigin::TriggerState, 5);
        s.record_fire(FireOrigin::TriggerState, 15);
        s.record_fire(FireOrigin::BackupInterrupt, 900);
        assert_eq!(s.fired(), 3);
        // fired() debug-asserts this; recompute so release builds
        // exercise the cross-check too.
        assert_eq!(s.fired(), s.fired_trigger + s.fired_backup);
        assert!((s.backup_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.delay_ticks.mean() - (5.0 + 15.0 + 900.0) / 3.0).abs() < 1e-9);
        assert_eq!(s.delay_hist.count(), 3);
        assert_eq!(s.delay_sum_ticks(), 5 + 15 + 900);
    }

    #[test]
    fn delays_past_histogram_cap_are_visible_not_silent() {
        let mut s = FacilityStats::new();
        s.record_fire(FireOrigin::TriggerState, 100);
        s.record_fire(FireOrigin::BackupInterrupt, 2047); // last in-range bucket
        s.record_fire(FireOrigin::BackupInterrupt, 2048); // first overflowing delay
        s.record_fire(FireOrigin::BackupInterrupt, 1_000_000);
        assert_eq!(s.delay_overflow(), 2);
        assert!((s.delay_overflow_fraction() - 0.5).abs() < 1e-12);
        // Nothing vanished: the histogram still counts every fire, and
        // the exact summary still sees the full delay.
        assert_eq!(s.delay_hist.count(), s.fired());
        assert_eq!(s.delay_ticks.max(), Some(1_000_000.0));
    }

    #[test]
    fn overflow_fraction_is_zero_when_nothing_fired() {
        let s = FacilityStats::new();
        assert_eq!(s.delay_overflow(), 0);
        assert_eq!(s.delay_overflow_fraction(), 0.0);
    }
}
