//! The immutable result of a finished [`crate::TraceSession`].

use crate::event::Event;
use crate::registry::Registry;
use crate::series::Timeline;
use crate::waterfall::Waterfall;

/// Everything a session captured: the retained event stream and its
/// loss counter, the metrics registry, and the series view (time
/// series plus fire-delay lanes; both empty when the session ran with
/// `series_capacity: 0`).  The exporters are methods on it, in
/// [`crate::export`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Events evicted because the ring buffer was full; non-zero means
    /// `events` is the *tail* of the run, not the whole run.
    pub dropped: u64,
    /// Counters and histograms accumulated during the session.
    pub registry: Registry,
    /// Gauge, counter-delta and windowed-quantile series.
    pub timeline: Timeline,
    /// Per-lane fire-delay attribution.
    pub waterfall: Waterfall,
}

impl Snapshot {
    /// Current value of a named counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.registry.counter(name)
    }

    /// Iterates over retained events with the given name.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// Number of retained events with the given name.
    pub fn event_count(&self, name: &str) -> usize {
        self.events_named(name).count()
    }
}
