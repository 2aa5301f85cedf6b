//! Adaptive overload control as a soft-timer client.
//!
//! The paper proves that µs-granularity *periodic* work is nearly free
//! when it runs from trigger states (sections 3 and 5.2). This crate
//! builds the admission layer that ROADMAP open item 3 asks for on top
//! of that observation: concurrency limits are re-evaluated by a
//! periodic timed event — soft-timer driven at µs granularity, or a
//! 1 kHz hardware timer for the cost contrast — never by per-request
//! bookkeeping. The per-request fast path ([`AdmissionController::try_admit`])
//! is one counter compare; everything adaptive (EWMAs, limit math,
//! pinned-connection reaping) happens in the update event.
//!
//! Three limiter families are provided, all integer-only (the st-lint
//! `no-float-in-bounds` rule is enforced on this crate, exactly like
//! the facility's bound math):
//!
//! - [`AimdLimiter`] — additive increase, multiplicative decrease on a
//!   latency threshold breach;
//! - [`VegasLimiter`] — queue-occupancy estimate from the RTT above its
//!   observed base, held inside an `[alpha, beta]` band;
//! - [`GradientLimiter`] — long-window RTT EWMA against the current
//!   sample; the limit scales by the clamped ratio.
//!
//! Rejection is deterministic ([`RejectPolicy`]): an immediate 503, or
//! soft-timer-delayed shedding where the reply goes out from a timed
//! event some ticks later. Admission is partitioned per request class
//! ([`RequestClass`]) so a hostile bulk/slow mix cannot poison the
//! interactive class's latency signal.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod controller;
pub mod ewma;
pub mod limiter;

pub use controller::{AdmissionController, ClassStats, Decision, RejectPolicy};
pub use ewma::FixedEwma;
pub use limiter::{AimdLimiter, GradientLimiter, Limiter, LimiterKind, Sample, VegasLimiter};

/// Which service class a request belongs to.
///
/// Classes get independent limiters and latency EWMAs: a heavy-tailed
/// bulk mix (or a slowloris client that finally sends its request)
/// inflates only its own partition's RTT signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RequestClass {
    /// Short interactive requests (the paper's 6 KB HTTP responses).
    Interactive,
    /// Large or streaming responses (the RealPlayer-like mix).
    Bulk,
}

impl RequestClass {
    /// Both classes, in partition-index order.
    pub const ALL: [RequestClass; 2] = [RequestClass::Interactive, RequestClass::Bulk];

    /// Dense partition index.
    pub fn index(self) -> usize {
        match self {
            RequestClass::Interactive => 0,
            RequestClass::Bulk => 1,
        }
    }

    /// Stable lower-case label for reports and trace events.
    pub fn label(self) -> &'static str {
        match self {
            RequestClass::Interactive => "interactive",
            RequestClass::Bulk => "bulk",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_dense_and_labels_unique() {
        for (i, c) in RequestClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_ne!(
            RequestClass::Interactive.label(),
            RequestClass::Bulk.label()
        );
    }
}
