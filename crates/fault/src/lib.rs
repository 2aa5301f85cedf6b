//! Deterministic, seedable fault injection for the soft-timers facility.
//!
//! The paper's guarantee — every event fires inside `(S+T, S+T+X+1)` —
//! is easy to keep on a healthy machine. This crate checks that the
//! implementation keeps (or gracefully relaxes) it on an unhealthy one:
//!
//! - [`plan`] — composable [`plan::FaultPlan`]s covering eight classes:
//!   clock anomalies, trigger-state starvation, backup-interrupt loss,
//!   NIC storms, hostile callbacks, per-packet wire faults (loss,
//!   reordering, duplication — the injector itself lives in
//!   [`st_net::wire`]), overload pressure (arrival surges, slow
//!   clients), and host-runtime chaos (wedged threads, panicking host
//!   callbacks, clock jumps — injected on the real machine by
//!   st-guard, modeled here as CPU wedges);
//! - [`clock`] — [`clock::FaultyClock`], a measurement clock with skew,
//!   jumps, and transient regressions;
//! - [`backup`] — [`backup::BackupFaultStream`], per-slot fates for the
//!   periodic backup interrupt;
//! - [`nic`] — [`nic::NicFaultInjector`], losses and storms in front of
//!   the receive ring;
//! - [`harness`] — [`harness::Scenario`], which drives a facility,
//!   pacer, and poll controller under a plan and asserts the firing
//!   bound on every event.
//!
//! All randomness flows from one seed through per-class
//! [`st_sim::SimRng`] forks, so a failing run replays byte-identically:
//! rerun the same `(plan, seed, duration)` and compare
//! [`harness::FaultReport`]s with `==`.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod backup;
pub mod clock;
pub mod harness;
pub mod nic;
pub mod plan;

pub use harness::{FaultReport, Scenario};
pub use plan::{FaultPlan, HostFaults};
pub use st_net::{WireFate, WireFaultInjector, WireFaults};
