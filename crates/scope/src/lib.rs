//! `st-scope`: the overhead ledger — who held the CPU while a timer
//! was late.
//!
//! This crate once held a second thread-local telemetry session; the
//! time series, the fire-delay waterfall and their exporter now live in
//! `st-trace`'s one session.  What stays is the piece with no session
//! state: [`ExecLedger`], the pure interval arithmetic a simulation
//! world runs *before* it calls `st_trace::fire_delay`.
//!
//! Simulation worlds record every *timed-work* execution span —
//! soft-timer handler dispatch, interrupt handling, poll work — as a
//! `[start, end)` nanosecond segment.  When an event fires `delay`
//! ticks late, the ledger answers: of the window between the due tick
//! and the fire, how much was covered by timed-work overhead?  That
//! covered portion is the fire's **cascade** component; the remainder
//! is **trigger-wait**.  The split is computed in integer nanoseconds
//! and floored to ticks, then clamped so the two components always sum
//! exactly to the recorded delay.
//!
//! Segments arrive with non-decreasing start times (simulation time is
//! monotone) and may overlap (an interrupt preempting a handler); the
//! query walks their union, so overlap never double-counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Kept for `benches/ledger`, which path-depends on this package and
/// names `st_scope::{active, fire_delay}`; workspace code calls
/// `st_trace` directly.  The next `[benchmark]` PR drops that path
/// dependency and these two names with it (ROADMAP 3a).
pub use st_trace::{active, fire_delay};

use std::collections::VecDeque;

/// Nanoseconds per measurement tick (the 1 MHz soft-timer clock).
const NS_PER_TICK: u64 = 1_000;

/// A bounded history of timed-work execution segments.
#[derive(Debug, Default)]
pub struct ExecLedger {
    /// `[start_ns, end_ns)` spans, start times non-decreasing.
    segs: VecDeque<(u64, u64)>,
}

impl ExecLedger {
    /// An empty ledger.
    pub fn new() -> ExecLedger {
        ExecLedger::default()
    }

    /// Records one timed-work span.  `start_ns` must be no earlier than
    /// any previously recorded start (simulation time is monotone);
    /// empty spans are ignored.
    pub fn note(&mut self, start_ns: u64, end_ns: u64) {
        if end_ns > start_ns {
            debug_assert!(
                self.segs.back().is_none_or(|&(s, _)| s <= start_ns),
                "ledger segments must start in order"
            );
            self.segs.push_back((start_ns, end_ns));
        }
    }

    /// Drops segments that end before `before_ns`; call periodically so
    /// the history stays bounded by the maximum attribution window.
    pub fn prune(&mut self, before_ns: u64) {
        while let Some(&(_, end)) = self.segs.front() {
            if end >= before_ns {
                break;
            }
            self.segs.pop_front();
        }
    }

    /// Union length of recorded spans intersected with `[lo_ns, hi_ns)`.
    pub fn overhead_within(&self, lo_ns: u64, hi_ns: u64) -> u64 {
        let mut covered = 0u64;
        let mut cursor = lo_ns;
        for &(s, e) in &self.segs {
            if s >= hi_ns {
                break;
            }
            if e <= cursor {
                continue;
            }
            let from = s.max(cursor);
            let to = e.min(hi_ns);
            if to > from {
                covered += to - from;
                cursor = to;
            }
        }
        covered
    }

    /// Decomposes one fire's lateness: the event was due at tick
    /// `due_tick` and fired at `fired_tick`.  Returns `(trigger_wait,
    /// cascade)` in ticks with `trigger_wait + cascade == fired_tick -
    /// due_tick` exactly.
    pub fn split(&self, due_tick: u64, fired_tick: u64) -> (u64, u64) {
        let total = fired_tick.saturating_sub(due_tick);
        if total == 0 {
            return (0, 0);
        }
        let lo = due_tick * NS_PER_TICK;
        let hi = fired_tick * NS_PER_TICK;
        let cascade = (self.overhead_within(lo, hi) / NS_PER_TICK).min(total);
        (total - cascade, cascade)
    }

    /// Retained segments (for tests and diagnostics).
    pub fn len(&self) -> usize {
        self.segs.len()
    }

    /// Whether the ledger holds no segments.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_clips_overlap_and_window() {
        let mut l = ExecLedger::new();
        l.note(100, 200);
        l.note(150, 250); // Overlaps the first.
        l.note(400, 500);
        assert_eq!(l.overhead_within(0, 1_000), 250);
        assert_eq!(l.overhead_within(120, 220), 100);
        assert_eq!(l.overhead_within(260, 390), 0);
    }

    #[test]
    fn split_partitions_exactly() {
        let mut l = ExecLedger::new();
        // 40 µs of overhead inside a 100-tick window.
        l.note(10_000, 50_000);
        let (wait, cascade) = l.split(0, 100);
        assert_eq!(cascade, 40);
        assert_eq!(wait + cascade, 100);
        // Zero-delay fires decompose to nothing.
        assert_eq!(l.split(7, 7), (0, 0));
        // Cascade clamps to the total even if overhead covers more.
        let (w2, c2) = l.split(15, 20);
        assert_eq!(w2 + c2, 5);
    }

    #[test]
    fn prune_keeps_spans_that_still_matter() {
        let mut l = ExecLedger::new();
        l.note(0, 10);
        l.note(20, 30);
        l.note(40, 50);
        l.prune(25);
        assert_eq!(l.len(), 2);
        assert_eq!(l.overhead_within(0, 100), 20);
    }
}
