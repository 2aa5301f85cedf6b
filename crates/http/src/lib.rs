//! Web-server workload models and the saturated-server simulation.
//!
//! The paper's Figures 2-3 and Tables 3 and 8 all measure a *saturated*
//! web server's throughput while varying the timer/polling machinery
//! around it. This crate models the two servers (multi-process Apache,
//! event-driven Flash) as per-request CPU work schedules with per-source
//! trigger states, and runs them on the simulated kernel:
//!
//! - [`model`] — server models: event counts and CPU costs per request,
//!   calibrated to the paper's measured baseline throughputs; HTTP and
//!   persistent-HTTP (P-HTTP) variants.
//! - [`saturation`] — the discrete-event saturation harness: one CPU,
//!   interrupts preempt request work, trigger states fire soft timers.
//!   Options cover every §5 server experiment: an added hardware timer at
//!   a chosen frequency (Figures 2-3), a maximal-rate null soft event
//!   (§5.2), rate-based clocking via soft or hardware timers (Table 3),
//!   and the four packet-dispatch policies with aggregation quotas
//!   (Table 8).

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod arrival;
pub mod livelock;
pub mod model;
pub mod saturation;

pub use arrival::{
    AdmissionMode, Arrival, ArrivalModel, ArrivalProcess, ClosedLoop, OpenLoop, OpenLoopConfig,
    Scenario, UpdateDriver,
};
pub use livelock::{run_livelock, LivelockConfig, LivelockResult};
pub use model::{HttpMode, ServerKind, ServerModel};
pub use saturation::{
    OverloadStats, RateClocking, SaturationConfig, SaturationResult, SaturationSim, ScopeSampling,
    TimerLoad,
};
