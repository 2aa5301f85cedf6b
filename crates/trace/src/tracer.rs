//! The thread-local telemetry session and the emit-side API.
//!
//! Instrumentation sites call the free functions — [`emit`], [`count`],
//! [`observe`] for the event view, [`gauge`], [`observe_window`],
//! [`sample`], [`fire_delay`] for the series view; with no active
//! session each is a sealed no-op — one thread-local load and a branch,
//! no locks, no allocation.  A [`TraceSession`] installs the recording
//! state for *its* thread only, which keeps concurrently running tests
//! (and the `rt` backup thread) from polluting each other's recordings;
//! cross-thread activity is intentionally invisible to a session.

use std::cell::RefCell;

use crate::event::{Category, Event};
use crate::registry::Registry;
use crate::ring::Ring;
use crate::series::Timeline;
use crate::snapshot::Snapshot;
use crate::waterfall::Waterfall;

/// Configuration for a [`TraceSession`].
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Maximum number of events retained in the ring buffer; older
    /// events are evicted (and counted as dropped) beyond this.
    pub capacity: usize,
    /// Maximum points retained per time series, evicted and counted
    /// the same way.  Zero keeps no series view at all: [`sampling`]
    /// reads false and the series emit functions stay no-ops, so a
    /// world that observes itself only when asked leaves an
    /// events-only recording exactly as it would be unobserved.
    pub series_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 1 << 16,
            series_capacity: 1 << 12,
        }
    }
}

/// The series view of a recording: time series plus fire-delay lanes.
#[derive(Debug, Default)]
struct SeriesView {
    timeline: Timeline,
    waterfall: Waterfall,
}

#[derive(Debug)]
struct Inner {
    ring: Ring<Event>,
    registry: Registry,
    series: Option<SeriesView>,
}

thread_local! {
    // st-lint: allow(shared-state) -- owner: each thread owns its private
    // session; thread_local is the per-CPU pattern the SMP roadmap item
    // calls for, never cross-thread
    static TRACER: RefCell<Option<Inner>> = const { RefCell::new(None) };
}

/// An active recording on the current thread.
///
/// Dropping the session (or calling [`TraceSession::finish`]) uninstalls
/// it; instrumentation reverts to the no-op path.
#[derive(Debug)]
pub struct TraceSession {
    // !Send: the session must be finished on the thread that started it.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl TraceSession {
    /// Starts recording on the current thread.
    ///
    /// # Panics
    ///
    /// Panics if a session is already active on this thread; use
    /// [`suspend`]/[`resume`] to nest recordings.
    pub fn start(config: TraceConfig) -> TraceSession {
        TRACER.with(|t| {
            let mut slot = t.borrow_mut();
            assert!(
                slot.is_none(),
                "a TraceSession is already active on this thread"
            );
            *slot = Some(Inner {
                ring: Ring::new(config.capacity),
                registry: Registry::new(),
                series: (config.series_capacity > 0).then(|| SeriesView {
                    timeline: Timeline::new(config.series_capacity),
                    waterfall: Waterfall::new(),
                }),
            });
        });
        TraceSession {
            _not_send: std::marker::PhantomData,
        }
    }

    /// Stops recording and returns everything captured.
    pub fn finish(self) -> Snapshot {
        // `self` drops on return, by which time the slot is empty.
        TRACER.with(|t| {
            let inner = t
                .borrow_mut()
                .take()
                .expect("session state missing at finish");
            let series = inner.series.unwrap_or_default();
            Snapshot {
                events: inner.ring.oldest_first().collect(),
                dropped: inner.ring.dropped(),
                registry: inner.registry,
                timeline: series.timeline,
                waterfall: series.waterfall,
            }
        })
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        TRACER.with(|t| t.borrow_mut().take());
    }
}

/// A recording lifted off the current thread by [`suspend`].
#[derive(Debug, Default)]
pub struct Suspended(Option<Inner>);

/// Detaches any active recording from the current thread.
///
/// While suspended, instrumentation is a no-op again.  This is how the
/// self-measuring `trace_overhead` experiment runs its own sessions
/// even when the caller (e.g. `repro --trace`) already has one open.
pub fn suspend() -> Suspended {
    TRACER.with(|t| Suspended(t.borrow_mut().take()))
}

/// Re-attaches a recording previously lifted by [`suspend`].
///
/// # Panics
///
/// Panics if another session became active in the meantime and `s`
/// carries a recording (nothing would be lost silently).
pub fn resume(s: Suspended) {
    if let Suspended(Some(inner)) = s {
        TRACER.with(|t| {
            let mut slot = t.borrow_mut();
            assert!(slot.is_none(), "cannot resume over an active TraceSession");
            *slot = Some(inner);
        });
    }
}

/// True when a session is recording on the current thread.
///
/// Instrumentation sites may use this to skip argument computation
/// that is only needed for tracing.
// st-lint: hot-path
pub fn active() -> bool {
    TRACER.with(|t| t.borrow().is_some())
}

/// Records a structured event (no-op without an active session).
// st-lint: hot-path
pub fn emit(cat: Category, name: &'static str, ts: u64, a: u64, b: u64) {
    TRACER.with(|t| {
        if let Some(inner) = t.borrow_mut().as_mut() {
            inner.ring.push(Event {
                ts,
                cat,
                name,
                a,
                b,
            });
        }
    });
}

/// Adds `n` to a named counter (no-op without an active session).
// st-lint: hot-path
pub fn count(name: &'static str, n: u64) {
    TRACER.with(|t| {
        if let Some(inner) = t.borrow_mut().as_mut() {
            inner.registry.count(name, n);
        }
    });
}

/// Records a histogram observation (no-op without an active session).
// st-lint: hot-path
pub fn observe(name: &'static str, value: f64) {
    TRACER.with(|t| {
        if let Some(inner) = t.borrow_mut().as_mut() {
            inner.registry.observe(name, value);
        }
    });
}

/// True when the session on this thread keeps a series view
/// (`series_capacity > 0`).
///
/// Worlds check this once at construction to decide whether to drive
/// [`sample`] and attribute fire delays at all; the bookkeeping that
/// feeds the series view is skipped entirely when nobody keeps one.
pub fn sampling() -> bool {
    TRACER.with(|t| t.borrow().as_ref().is_some_and(|i| i.series.is_some()))
}

/// Runs `f` on the series view and the registry beside it (no-op
/// without an active session that keeps a series view).
#[inline]
fn with_series(f: impl FnOnce(&mut SeriesView, &Registry)) {
    TRACER.with(|t| {
        if let Some(Inner {
            series: Some(s),
            registry,
            ..
        }) = t.borrow_mut().as_mut()
        {
            f(s, registry);
        }
    });
}

/// Appends a gauge point (no-op without an active session).
// st-lint: hot-path
pub fn gauge(tick: u64, name: &'static str, value: f64) {
    with_series(|s, _| s.timeline.gauge(tick, name, value));
}

/// Records an observation into `name`'s current sample window, whose
/// quantiles the next [`sample`] flushes as series — unlike
/// [`observe`], which accumulates over the whole session (no-op
/// without an active session).
// st-lint: hot-path
pub fn observe_window(name: &'static str, value: f64) {
    with_series(|s, _| s.timeline.observe_window(name, value));
}

/// One sample tick: flushes the registry's counter deltas plus every
/// observation window's quantiles into the timeline (no-op without an
/// active session).
pub fn sample(tick: u64) {
    with_series(|s, registry| s.timeline.sample(tick, registry.counters()));
}

/// Records one fire's decomposed lateness on `lane` (no-op without an
/// active session).
// st-lint: hot-path
pub fn fire_delay(lane: &'static str, trigger_wait: u64, cascade: u64) {
    with_series(|s, _| s.waterfall.record(lane, trigger_wait, cascade));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_session_means_no_recording() {
        assert!(!active());
        emit(Category::Experiment, "ignored", 1, 2, 3);
        count("ignored", 1);
        observe("ignored", 1.0);
        gauge(1, "ignored", 1.0);
        observe_window("ignored", 2.0);
        sample(3);
        fire_delay("ignored", 4, 5);
        let s = TraceSession::start(TraceConfig::default());
        let snap = s.finish();
        assert!(snap.events.is_empty());
        assert_eq!(snap.counter("ignored"), 0);
        assert_eq!(snap.timeline.series_count(), 0);
        assert_eq!(snap.waterfall.fires(), 0);
    }

    /// Events, counters, histograms, all three series kinds and the
    /// waterfall lanes land in one snapshot, and `sample` differences
    /// the registry it lives beside — no second session feeds it.
    #[test]
    fn one_session_captures_all_five_streams() {
        let s = TraceSession::start(TraceConfig {
            capacity: 8,
            series_capacity: 8,
        });
        assert!(active() && sampling());
        emit(Category::Facility, "facility.fire.trigger", 10, 9, 1);
        observe("facility.delay_ticks", 1.0);
        gauge(10, "http.conns", 42.0);
        observe_window("http.latency_us", 900.0);
        count("facility.fired.trigger", 4);
        sample(100);
        count("facility.fired.trigger", 3);
        sample(200);
        fire_delay("ip_output", 12, 3);
        let snap = s.finish();
        assert!(!active() && !sampling());
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].name, "facility.fire.trigger");
        assert_eq!(snap.counter("facility.fired.trigger"), 7);
        let hist = snap.registry.histogram("facility.delay_ticks").unwrap();
        assert_eq!(hist.count(), 1);
        assert_eq!(snap.timeline.get("http.conns").unwrap().len(), 1);
        let deltas = snap.timeline.get("facility.fired.trigger").unwrap();
        assert_eq!(
            deltas.points().collect::<Vec<_>>(),
            vec![(100, 4.0), (200, 3.0)]
        );
        assert_eq!(snap.timeline.samples(), 2);
        assert_eq!(snap.timeline.get("http.latency_us.p99").unwrap().len(), 1);
        assert_eq!(snap.waterfall.delay_sum(), 15);
    }

    #[test]
    fn zero_series_capacity_keeps_events_only() {
        let s = TraceSession::start(TraceConfig {
            capacity: 8,
            series_capacity: 0,
        });
        assert!(active() && !sampling());
        count("c", 1);
        gauge(1, "g", 1.0);
        sample(2);
        fire_delay("lane", 1, 1);
        let snap = s.finish();
        assert_eq!(snap.counter("c"), 1);
        assert_eq!(snap.timeline.series_count(), 0);
        assert_eq!(snap.timeline.samples(), 0);
        assert_eq!(snap.waterfall.fires(), 0);
    }

    #[test]
    fn drop_uninstalls_without_finish() {
        {
            let _s = TraceSession::start(TraceConfig::default());
            assert!(active());
        }
        assert!(!active());
    }

    /// The `experiments/timeline.rs` nesting: one suspend lifts every
    /// stream of the outer recording, one resume restores them all.
    #[test]
    fn suspend_and_resume_nest_all_streams_at_once() {
        let record = |tag: &'static str, tick: u64| {
            emit(Category::Experiment, tag, tick, 0, 0);
            count(tag, 1);
            observe(tag, 1.0);
            gauge(tick, tag, 1.0);
            fire_delay(tag, 1, 0);
        };
        let only = |snap: &Snapshot, tag: &str, other: &str, n: u64| {
            assert_eq!(snap.event_count(tag) as u64, n);
            assert_eq!(snap.counter(tag), n);
            assert_eq!(snap.registry.histogram(tag).unwrap().count(), n);
            assert_eq!(snap.timeline.get(tag).unwrap().len() as u64, n);
            assert_eq!(snap.waterfall.lane(tag).unwrap().fires(), n);
            assert_eq!(snap.event_count(other), 0);
            assert_eq!(snap.counter(other), 0);
            assert!(snap.registry.histogram(other).is_none());
            assert!(snap.timeline.get(other).is_none());
            assert!(snap.waterfall.lane(other).is_none());
        };
        let outer = TraceSession::start(TraceConfig::default());
        record("outer", 1);
        let held = suspend();
        assert!(!active());
        let inner = TraceSession::start(TraceConfig::default());
        record("inner", 2);
        only(&inner.finish(), "inner", "outer", 1);
        resume(held);
        assert!(active());
        record("outer", 3);
        only(&outer.finish(), "outer", "inner", 2);
    }

    #[test]
    fn resume_of_empty_suspension_is_noop() {
        resume(suspend());
        assert!(!active());
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn nested_start_panics() {
        let _outer = TraceSession::start(TraceConfig::default());
        let _inner = TraceSession::start(TraceConfig::default());
    }
}
