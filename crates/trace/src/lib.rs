//! Cross-layer tracing and metrics for the soft-timers reproduction.
//!
//! The paper's evidence is measurement: every check and fire must be
//! attributable to its trigger source with microsecond provenance
//! (Figures 2/3, Table 1) and the facility's own cost must be known
//! (Table 2). This crate is the observability substrate that makes
//! those measurements first-class instead of buried in aggregates:
//!
//! - [`TraceSession`] — the one thread-local telemetry session.  While
//!   active, instrumented code records into two views of the same run:
//!   the **event view** (structured [`Event`]s in a bounded drop-oldest
//!   [`ring::Ring`], counters and histograms in a [`Registry`]) and the
//!   **series view** (a [`Timeline`] of gauge, counter-delta and
//!   windowed-quantile series flushed by [`sample`] — itself driven by
//!   a periodic soft-timer event, the fifth soft-timer application in
//!   the repository — plus the [`Waterfall`] that splits each fire's
//!   lateness, integer-exactly, into trigger-wait and cascade).
//! - [`emit`] / [`count`] / [`observe`] and [`gauge`] /
//!   [`observe_window`] / [`sample`] / [`fire_delay`] — the emit-side
//!   API every layer calls.  With no active session each is a sealed
//!   no-op (one thread-local load and a branch), so always-on
//!   instrumentation costs hot paths nearly nothing.
//! - [`Snapshot`] — everything one session captured, exportable as
//!   Chrome `trace_event` JSON (Perfetto-loadable), JSON-lines metric
//!   dumps, a human summary, or `st-scope-timeline-v1` JSON lines.
//! - [`json`] — the hand-rolled JSON writer/validator the exporters
//!   (and the `repro --json` flag) are built on; the workspace is
//!   hermetic, so no serde.
//!
//! Sessions are per-thread by design: concurrent tests in one binary
//! cannot pollute each other's recordings, and the emit path needs no
//! synchronization.  The flip side is that activity on *other*
//! threads (e.g. the `rt` backup thread) is invisible to a session;
//! callers that need it must start a session on that thread.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod json;
pub mod registry;
pub mod ring;
pub mod series;
pub mod snapshot;
pub mod tracer;
pub mod waterfall;

pub use event::{Category, Event};
pub use registry::Registry;
pub use series::{Series, SeriesKind, Timeline};
pub use snapshot::Snapshot;
pub use tracer::{
    active, count, emit, fire_delay, gauge, observe, observe_window, resume, sample, sampling,
    suspend, Suspended, TraceConfig, TraceSession,
};
pub use waterfall::{Lane, Waterfall};
