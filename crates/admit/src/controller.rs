//! The admission controller: per-class partitions, a one-compare fast
//! path, and soft-timer-driven limit updates.
//!
//! The split of work is the whole point (and mirrors the paper's
//! trigger-state economics):
//!
//! - [`AdmissionController::try_admit`] runs on *every* request and is
//!   one counter compare plus an increment — no EWMA math, no limiter
//!   state, nothing the paper would call "real work";
//! - [`AdmissionController::update_limits`] runs from a periodic timed
//!   event (a soft-timer event in the saturation model) and does all
//!   the adaptive work: fold the latency EWMA sample, run the limiter,
//!   emit provenance trace events.
//!
//! Partitions are per [`RequestClass`]: each class owns its limiter
//! and its latency EWMA, so bulk or slow-client latency cannot poison
//! the interactive class's signal.

use crate::ewma::FixedEwma;
use crate::limiter::{Limiter, LimiterKind, Sample};
use crate::RequestClass;

/// What happens to a request the limiter refuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectPolicy {
    /// Send the 503 immediately on the admission path.
    Immediate,
    /// Shed from a soft-timer event `delay_ticks` later (the reply
    /// batch-drains with other timed work; the connection holds its
    /// slot until then, which is deliberate backpressure).
    DelayedShed {
        /// Ticks (µs at the default 1 MHz) until the shed reply.
        delay_ticks: u64,
    },
}

/// The admission verdict for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Admitted: the caller must later report completion or abandon.
    Admit,
    /// Refused: apply the carried policy.
    Reject(RejectPolicy),
}

/// Per-class counters, readable at any time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassStats {
    /// Requests admitted.
    pub admitted: u64,
    /// Requests refused by the limiter.
    pub rejected: u64,
    /// Admitted requests that completed.
    pub completed: u64,
    /// Admitted requests abandoned (shed pins, client resets).
    pub abandoned: u64,
    /// Smallest limit the updater ever set.
    pub limit_min: u64,
    /// Largest limit the updater ever set.
    pub limit_max: u64,
    /// The limit after the most recent update.
    pub limit_last: u64,
}

struct Partition {
    limiter: Box<dyn Limiter>,
    inflight: u64,
    rtt_ewma: FixedEwma,
    stats: ClassStats,
    trace_name: &'static str,
}

/// The per-class admission state machine.
pub struct AdmissionController {
    parts: [Partition; 2],
    policy: RejectPolicy,
    updates: u64,
}

impl AdmissionController {
    /// Builds a controller with one `kind` limiter per class.
    ///
    /// `rtt_budget_us` is the latency the AIMD family treats as its
    /// congestion threshold; `max_limit` caps every class's limit.
    pub fn new(
        kind: LimiterKind,
        policy: RejectPolicy,
        rtt_budget_us: u64,
        max_limit: u64,
    ) -> Self {
        let part = |class: RequestClass| Partition {
            limiter: kind.build(rtt_budget_us, max_limit),
            inflight: 0,
            rtt_ewma: FixedEwma::new(3),
            stats: ClassStats {
                limit_min: u64::MAX,
                ..ClassStats::default()
            },
            trace_name: match class {
                RequestClass::Interactive => "admit.limit.interactive",
                RequestClass::Bulk => "admit.limit.bulk",
            },
        };
        AdmissionController {
            parts: [part(RequestClass::Interactive), part(RequestClass::Bulk)],
            policy,
            updates: 0,
        }
    }

    fn part(&mut self, class: RequestClass) -> &mut Partition {
        &mut self.parts[class.index()]
    }

    /// The per-request fast path: one compare, one increment.
    // st-lint: hot-path
    pub fn try_admit(&mut self, class: RequestClass) -> Decision {
        let policy = self.policy;
        let p = self.part(class);
        if p.inflight < p.limiter.limit() {
            p.inflight += 1;
            p.stats.admitted += 1;
            Decision::Admit
        } else {
            p.stats.rejected += 1;
            Decision::Reject(policy)
        }
    }

    /// An admitted request finished after `rtt_us` of wall time.
    pub fn on_complete(&mut self, class: RequestClass, rtt_us: u64) {
        let p = self.part(class);
        p.inflight = p.inflight.saturating_sub(1);
        p.stats.completed += 1;
        p.rtt_ewma.update(rtt_us.max(1));
    }

    /// An admitted request went away without completing (a shed pinned
    /// connection, a client reset). Frees the slot without feeding the
    /// latency signal.
    pub fn on_abandon(&mut self, class: RequestClass) {
        let p = self.part(class);
        p.inflight = p.inflight.saturating_sub(1);
        p.stats.abandoned += 1;
    }

    /// The periodic update: runs every class's limiter over the current
    /// `(inflight, rtt)` sample. `now_us` stamps the provenance trace
    /// events. This is the *only* place limits change.
    pub fn update_limits(&mut self, now_us: u64) {
        self.updates += 1;
        let tracing = st_trace::active();
        for p in &mut self.parts {
            let limit = p.limiter.on_update(Sample {
                inflight: p.inflight,
                rtt_us: p.rtt_ewma.value(),
            });
            p.stats.limit_last = limit;
            p.stats.limit_min = p.stats.limit_min.min(limit);
            p.stats.limit_max = p.stats.limit_max.max(limit);
            // st-lint: allow(no-float-in-bounds) -- observability export;
            // the limiter step above stays in integer request counts
            st_trace::gauge(now_us, p.trace_name, limit as f64);
            if tracing {
                st_trace::emit(
                    st_trace::Category::Admit,
                    p.trace_name,
                    now_us,
                    limit,
                    p.inflight,
                );
            }
        }
    }

    /// The rejection policy this controller applies.
    pub fn policy(&self) -> RejectPolicy {
        self.policy
    }

    /// Updates performed so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Current limit for one class.
    pub fn limit(&self, class: RequestClass) -> u64 {
        self.parts[class.index()].limiter.limit()
    }

    /// Requests currently admitted and incomplete in one class.
    pub fn inflight(&self, class: RequestClass) -> u64 {
        self.parts[class.index()].inflight
    }

    /// Counters for one class.
    pub fn stats(&self, class: RequestClass) -> ClassStats {
        self.parts[class.index()].stats
    }

    /// Smoothed latency signal for one class, µs.
    pub fn rtt_us(&self, class: RequestClass) -> u64 {
        self.parts[class.index()].rtt_ewma.value()
    }
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionController")
            .field("policy", &self.policy)
            .field("updates", &self.updates)
            .field("interactive", &self.stats(RequestClass::Interactive))
            .field("bulk", &self.stats(RequestClass::Bulk))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> AdmissionController {
        AdmissionController::new(LimiterKind::Aimd, RejectPolicy::Immediate, 25_000, 100)
    }

    #[test]
    fn fast_path_enforces_the_limit() {
        let mut c = controller();
        // Fresh AIMD limit is 1: first admit passes, second bounces.
        assert_eq!(c.try_admit(RequestClass::Interactive), Decision::Admit);
        assert_eq!(
            c.try_admit(RequestClass::Interactive),
            Decision::Reject(RejectPolicy::Immediate)
        );
        // Completion frees the slot.
        c.on_complete(RequestClass::Interactive, 1_000);
        assert_eq!(c.try_admit(RequestClass::Interactive), Decision::Admit);
        let s = c.stats(RequestClass::Interactive);
        assert_eq!((s.admitted, s.rejected, s.completed), (2, 1, 1));
    }

    #[test]
    fn classes_are_partitioned() {
        let mut c = controller();
        assert_eq!(c.try_admit(RequestClass::Interactive), Decision::Admit);
        // Interactive is full; bulk still has its own slot.
        assert_eq!(c.try_admit(RequestClass::Bulk), Decision::Admit);
        assert_eq!(c.inflight(RequestClass::Interactive), 1);
        assert_eq!(c.inflight(RequestClass::Bulk), 1);
        // Bulk latency cannot move the interactive signal.
        c.on_complete(RequestClass::Bulk, 9_000_000);
        assert_eq!(c.rtt_us(RequestClass::Interactive), 0);
    }

    #[test]
    fn limits_only_change_in_updates() {
        let mut c = controller();
        for _ in 0..10 {
            if c.try_admit(RequestClass::Interactive) == Decision::Admit {
                c.on_complete(RequestClass::Interactive, 500);
            }
        }
        assert_eq!(c.limit(RequestClass::Interactive), 1);
        // One saturated, low-latency update grows the limit.
        let _ = c.try_admit(RequestClass::Interactive);
        c.update_limits(1_000);
        assert_eq!(c.limit(RequestClass::Interactive), 2);
        let s = c.stats(RequestClass::Interactive);
        assert_eq!((s.limit_min, s.limit_max, s.limit_last), (2, 2, 2));
        assert_eq!(c.updates(), 1);
    }

    #[test]
    fn abandon_frees_without_feeding_latency() {
        let mut c = controller();
        assert_eq!(c.try_admit(RequestClass::Bulk), Decision::Admit);
        c.on_abandon(RequestClass::Bulk);
        assert_eq!(c.inflight(RequestClass::Bulk), 0);
        assert_eq!(c.rtt_us(RequestClass::Bulk), 0);
        assert_eq!(c.stats(RequestClass::Bulk).abandoned, 1);
    }

    #[test]
    fn delayed_shed_policy_is_carried_in_the_decision() {
        let mut c = AdmissionController::new(
            LimiterKind::Vegas,
            RejectPolicy::DelayedShed { delay_ticks: 500 },
            25_000,
            1,
        );
        let _ = c.try_admit(RequestClass::Interactive);
        assert_eq!(
            c.try_admit(RequestClass::Interactive),
            Decision::Reject(RejectPolicy::DelayedShed { delay_ticks: 500 })
        );
    }
}
