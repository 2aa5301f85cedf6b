//! Per-source fire-delay attribution: the waterfall view of a session.
//!
//! The facility records *how late* each soft-timer event fired
//! (`FacilityStats`' delay summary); the waterfall records *why*.  Each
//! fire's lateness — `fired_at - due`, in measurement ticks, exactly the
//! quantity the facility recorded — is split into two components:
//!
//! - **trigger-wait**: ticks spent waiting for the kernel to reach a
//!   trigger state, the paper's Fig 4 story — lateness inherited from
//!   the trigger-interval distribution;
//! - **cascade**: ticks during which the CPU was already executing
//!   timed-work overhead (soft-timer handler dispatch, interrupt
//!   handling, poll work) — lateness caused by *other* timed work
//!   serializing ahead of this event's trigger state.
//!
//! The split is integer-exact by construction: `trigger_wait + cascade
//! == fired_at - due` for every fire, so per-lane sums reconcile against
//! the facility's own recorded delay totals with no float in between.
//! Lanes are keyed by the trigger source that fired the event (or the
//! 1 kHz backup sweep), matching the per-source trigger accounting.

use std::collections::BTreeMap;

use st_stats::Histogram;

/// Geometry shared with `FacilityStats`' delay histogram: 1-tick
/// buckets, overflow past 2048 ticks (2x the backup bound).
const DELAY_BUCKETS: usize = 2048;

/// Attribution for one fire lane (one trigger source, or the backup
/// sweep).
#[derive(Debug, Clone)]
pub struct Lane {
    fires: u64,
    trigger_wait_sum: u64,
    cascade_sum: u64,
    trigger_wait: Histogram,
    cascade: Histogram,
}

impl Lane {
    fn new() -> Lane {
        Lane {
            fires: 0,
            trigger_wait_sum: 0,
            cascade_sum: 0,
            trigger_wait: Histogram::new(1.0, DELAY_BUCKETS),
            cascade: Histogram::new(1.0, DELAY_BUCKETS),
        }
    }

    /// Fires recorded on this lane.
    pub fn fires(&self) -> u64 {
        self.fires
    }

    /// Exact sum of trigger-wait ticks.
    pub fn trigger_wait_sum(&self) -> u64 {
        self.trigger_wait_sum
    }

    /// Exact sum of cascade ticks.
    pub fn cascade_sum(&self) -> u64 {
        self.cascade_sum
    }

    /// Exact sum of recorded lateness: trigger-wait plus cascade.
    pub fn delay_sum(&self) -> u64 {
        self.trigger_wait_sum + self.cascade_sum
    }

    /// Distribution of the trigger-wait component, 1-tick buckets.
    pub fn trigger_wait_hist(&self) -> &Histogram {
        &self.trigger_wait
    }

    /// Distribution of the cascade component, 1-tick buckets.
    pub fn cascade_hist(&self) -> &Histogram {
        &self.cascade
    }
}

/// All lanes of the fire-delay attribution.
#[derive(Debug, Clone, Default)]
pub struct Waterfall {
    lanes: BTreeMap<&'static str, Lane>,
}

impl Waterfall {
    /// An empty waterfall.
    pub fn new() -> Waterfall {
        Waterfall::default()
    }

    /// Records one fire on `lane`, already decomposed.
    pub fn record(&mut self, lane: &'static str, trigger_wait: u64, cascade: u64) {
        let l = self.lanes.entry(lane).or_insert_with(Lane::new);
        l.fires += 1;
        l.trigger_wait_sum += trigger_wait;
        l.cascade_sum += cascade;
        l.trigger_wait.record(trigger_wait as f64);
        l.cascade.record(cascade as f64);
    }

    /// Lanes in name order.
    pub fn lanes(&self) -> impl Iterator<Item = (&'static str, &Lane)> {
        self.lanes.iter().map(|(k, v)| (*k, v))
    }

    /// Looks up one lane.
    pub fn lane(&self, name: &str) -> Option<&Lane> {
        self.lanes.get(name)
    }

    /// Total fires across lanes.
    pub fn fires(&self) -> u64 {
        self.lanes.values().map(Lane::fires).sum()
    }

    /// Exact total recorded lateness across lanes, in ticks — the number
    /// that must equal the facility's delay sum when every fire was
    /// attributed.
    pub fn delay_sum(&self) -> u64 {
        self.lanes.values().map(Lane::delay_sum).sum()
    }

    /// Exact total cascade ticks across lanes.
    pub fn cascade_sum(&self) -> u64 {
        self.lanes.values().map(Lane::cascade_sum).sum()
    }

    /// Exact total trigger-wait ticks across lanes.
    pub fn trigger_wait_sum(&self) -> u64 {
        self.lanes.values().map(Lane::trigger_wait_sum).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_partition_exactly() {
        let mut w = Waterfall::new();
        w.record("ip_output", 10, 2);
        w.record("ip_output", 0, 0);
        w.record("backup", 900, 101);
        assert_eq!(w.fires(), 3);
        assert_eq!(w.trigger_wait_sum(), 910);
        assert_eq!(w.cascade_sum(), 103);
        assert_eq!(w.delay_sum(), 1_013);
        let lane = w.lane("ip_output").unwrap();
        assert_eq!(lane.fires(), 2);
        assert_eq!(lane.delay_sum(), 12);
        assert_eq!(lane.trigger_wait_hist().count(), 2);
    }

    #[test]
    fn lanes_iterate_in_name_order() {
        let mut w = Waterfall::new();
        w.record("zz", 1, 0);
        w.record("aa", 1, 0);
        let names: Vec<_> = w.lanes().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["aa", "zz"]);
    }
}
