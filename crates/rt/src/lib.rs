//! st-rt: run the soft-timer facility on the real machine and measure it.
//!
//! Everything else in this workspace observes the *simulator*; the paper's
//! central claims (Tables 1-2) are about distributions measured on real
//! hardware. This crate closes that loop in userspace:
//!
//! - [`clock::NanoClock`] — nanosecond monotonic clock implementing
//!   [`st_core::Clock`], so `SoftTimerCore` arithmetic runs directly in
//!   wall-clock ns.
//! - `shared` (crate-private) — one `SoftTimerCore` behind a mutex, its
//!   lock-free cached earliest deadline (republished by the lock guard at
//!   the end of every hold), the hold itself with its two compositions
//!   (`fire_due`, the idle lane's `fire_rounds`) and the wait on that
//!   deadline; both runtimes below are thin callers of it.
//! - [`timers`] — [`RtSoftTimers`], the closure-handler runtime for real
//!   programs: poll it from your event loop's trigger points, a backup
//!   lane of the host lane table bounds the delay. The unsupervised face:
//!   [`guard`] does not watch it.
//! - [`host`] — a worker-pool runtime whose task-return points act as
//!   syscall-return shims, plus an idle thread that checks the moment
//!   the earliest deadline passes (`idle_pause` at the latest) and a
//!   backup-sweep lane; measures trigger-interval and fire-delay
//!   distributions per source and the in-situ CPU share. One lane table,
//!   generic over its payload ([`lane_classes`] decides which lanes
//!   exist; launch, restart, join), serves [`host::run`], the one entry
//!   point, which spawns the lanes and nothing else and, given a
//!   [`Guard`], supervises them from its calling thread for the run; and
//!   [`RtSoftTimers`], whose table is its backup lane alone. A lane's wait
//!   and its check are two functions that take the clock as an argument:
//!   the lane threads run them on the host clock, and [`host::twin`] runs
//!   the same two on one thread in virtual time — `repro rt_calibration`'s
//!   prediction.
//! - [`probe`] — microbenchmarks fitting the machine's trigger-check /
//!   dispatch / clock-read costs and sleep-vs-spin wake-up precision, the
//!   inputs to `CostModel::calibrated_host` and `repro rt_calibration`.
//! - [`guard`] — supervision and self-healing: per-lane heartbeats, a
//!   pure supervisor core detecting stalls and restarting lanes under a
//!   backoff budget, and graceful degradation that tightens the backup
//!   sweep to a predicted fire-delay envelope when the trigger stream
//!   starves.
//! - [`chaos`] — deterministic host-side fault injection (thread stalls,
//!   handler panics, clock jumps) scheduled up front from the st-fault
//!   plan's seed, so every chaos run has a seed-replayable sim twin.
//!
//! This is, deliberately, the **only** crate allowed to read wall-clock
//! time or spawn threads around the facility — the root `clippy.toml`
//! bans the host clock everywhere else, and the `#![expect]` below lifts
//! the ban here; st-core and the simulator stay deterministic.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![expect(
    clippy::disallowed_methods,
    reason = "st-rt is the host runtime: reading and waiting on the real clock is its job"
)]
#![warn(missing_docs)]

pub mod chaos;
pub mod clock;
pub mod guard;
pub mod host;
pub mod probe;
mod shared;
pub mod timers;

pub use chaos::{ChaosSchedule, ChaosState, FaultClock};
pub use clock::NanoClock;
pub use guard::{
    plan_lane_stalls, Action, ChaosConfig, Guard, GuardReport, Heartbeat, SupervisorCore,
};
pub use host::{
    lane_classes, lock_recoveries, FireReport, HostConfig, HostReport, LaneClass, SourceReport,
};
pub use probe::Calibration;
pub use timers::{RtConfig, RtPeriodic, RtSoftTimers};
