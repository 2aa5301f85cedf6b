//! The soft-timers facility of Aron & Druschel (SOSP 1999).
//!
//! Soft timers schedule software events at microsecond granularity without
//! per-event hardware interrupts: the system checks for due events in
//! *trigger states* — points in execution (syscall return, trap return,
//! interrupt return, the idle loop) where an event handler can run for the
//! cost of a procedure call. A periodic hardware interrupt at conventional
//! rate (1 kHz) backs the facility up, bounding the delay of any event.
//!
//! This crate is the reusable library: it contains no simulation, reads
//! no wall clock and starts no thread — every method takes the current
//! tick as an argument, so it replays deterministically. The simulated
//! kernel in `st-kernel` embeds it; real programs reach it through
//! `st_rt::RtSoftTimers`, which runs this core on OS threads and is polled
//! at the program's own trigger points (e.g. each event-loop iteration of
//! a userspace network stack).
//!
//! # Layout
//!
//! - [`clock`] — the measurement clock abstraction ([`Clock`]) and the
//!   manually advanced [`ManualClock`] (the wall clock is `st_rt::NanoClock`).
//! - [`facility`] — [`SoftTimerCore`]: tick-driven scheduling, the
//!   trigger-state check, the backup-interrupt sweep, delay accounting, and
//!   the paper's `T < actual < T + X + 1` firing bounds.
//! - [`pacer`] — the adaptive rate-based clocking algorithm of section 4.1
//!   (target rate + maximal burst rate over a packet train).
//! - [`poller`] — the aggregation-quota poll-interval controller of
//!   section 4.2 (soft-timer network polling).
//! - [`api`] — the paper's four-operation interface verbatim
//!   (`measure_resolution` / `measure_time` / `schedule_soft_event` /
//!   `interrupt_clock_resolution`) over any [`Clock`].
//! - [`smp`] — the §5.2 multi-CPU idle rules: one designated idle
//!   checker, halting under rules (a) and (b).
//! - [`stats`] — [`FacilityStats`]: integer counters only (fires by origin,
//!   exact delay sum and maximum, fires past the `X` bound).
//!
//! # Example
//!
//! ```
//! use st_core::facility::{Config, SoftTimerCore};
//!
//! // 1 MHz measurement clock, 1 kHz backup interrupt (X = 1000).
//! let mut core: SoftTimerCore<&str> = SoftTimerCore::new(Config::default());
//! // At tick 100, ask for an event at least 40 ticks out.
//! core.schedule(100, 40, "send-packet");
//!
//! // Trigger states before the deadline are cheap no-ops.
//! let mut due = Vec::new();
//! core.poll(120, &mut due);
//! assert!(due.is_empty());
//!
//! // The first trigger state past the bound fires the handler.
//! core.poll(160, &mut due);
//! assert_eq!(due.len(), 1);
//! assert_eq!(due[0].payload, "send-packet");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod clock;
pub mod facility;
pub mod pacer;
pub mod poller;
pub mod smp;
pub mod stats;

pub use api::SoftTimers;
pub use clock::{Clock, ManualClock};
pub use facility::{Config, Expired, FireOrigin, SoftTimerCore, TimerHandle};
pub use pacer::{Pacer, PacerConfig};
pub use poller::{PollController, PollControllerConfig};
pub use smp::{IdleDirective, SmpFacility};
pub use stats::FacilityStats;
