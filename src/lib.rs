//! # soft-timers
//!
//! A from-scratch Rust reproduction of **"Soft Timers: Efficient
//! Microsecond Software Timer Support for Network Processing"** (Mohit
//! Aron and Peter Druschel, SOSP 1999).
//!
//! Soft timers schedule software events at tens-of-microseconds
//! granularity without per-event hardware interrupts: due events are
//! checked for in *trigger states* — execution points (syscall return,
//! trap return, interrupt return, the idle loop) where a handler runs for
//! the cost of a procedure call — while the ordinary 1 kHz timer interrupt
//! bounds any event's delay. The paper applies this to TCP *rate-based
//! clocking* and to *network polling* with an aggregation quota.
//!
//! This crate re-exports the whole workspace:
//!
//! - [`core`] (`st-core`) — the facility itself, the adaptive rate pacer
//!   and the poll-interval controller; pure and deterministic.
//! - [`rt`] (`st-rt`) — the facility on real threads and the wall clock:
//!   the `RtSoftTimers` userspace runtime, the measured host runtime and
//!   its supervisor.
//! - [`wheel`] (`st-wheel`) — timing wheels (the facility's store).
//! - [`sim`] (`st-sim`) — the deterministic discrete-event engine.
//! - [`kernel`] (`st-kernel`) — the simulated-OS substrate with the
//!   paper's measured cost constants.
//! - [`net`] (`st-net`) — links, NICs, drivers, and the WAN emulator.
//! - [`tcp`] (`st-tcp`) — slow-start/delayed-ACK TCP and rate-based
//!   clocking, plus the WAN transfer experiment.
//! - [`http`] (`st-http`) — Apache/Flash server models and the saturated
//!   server simulation.
//! - [`workloads`] (`st-workloads`) — the six trigger-state workloads of
//!   Table 1.
//! - [`stats`] (`st-stats`) — statistics support.
//! - [`prof`] (`st-prof`) — the soft-timer statistical profiler (folded
//!   stacks, ground-truth comparison).
//! - [`experiments`] (`st-experiments`) — regeneration of every table and
//!   figure in the paper's evaluation (`cargo run -p st-experiments --bin
//!   repro -- all`).
//!
//! ## Quick start (real time)
//!
//! ```
//! use std::sync::atomic::{AtomicBool, Ordering};
//! use std::sync::Arc;
//! use std::time::Duration;
//! use soft_timers::rt::{RtConfig, RtSoftTimers};
//!
//! let timers = RtSoftTimers::start(RtConfig::default());
//! let fired = Arc::new(AtomicBool::new(false));
//! let f = fired.clone();
//! timers.schedule_in(Duration::from_micros(200), move |_| {
//!     f.store(true, Ordering::SeqCst);
//! });
//! // Your event loop's iterations are the trigger states:
//! while !fired.load(Ordering::SeqCst) {
//!     std::thread::sleep(Duration::from_micros(50));
//!     timers.run_pending();
//! }
//! timers.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use st_core as core;
pub use st_experiments as experiments;
pub use st_http as http;
pub use st_kernel as kernel;
pub use st_net as net;
pub use st_prof as prof;
pub use st_rt as rt;
pub use st_sim as sim;
pub use st_stats as stats;
pub use st_tcp as tcp;
pub use st_wheel as wheel;
pub use st_workloads as workloads;
