//! Deterministic discrete-event simulation engine for the soft-timers
//! reproduction.
//!
//! The paper's evaluation runs on real FreeBSD kernels; our substitute is a
//! discrete-event simulation (see `DESIGN.md` section 2). This crate provides
//! the domain-neutral pieces:
//!
//! - [`SimTime`] / [`SimDuration`] — integer-nanosecond virtual time.
//! - [`Bandwidth`] — link and transmission rates with exact serialization
//!   delays.
//! - [`Engine`] — the event loop: a time-ordered queue with FIFO tie-break
//!   (st-wheel's timing wheel at 1 ns ticks), cancelable events and a
//!   [`World`] dispatch trait.
//! - [`SimRng`] and distributions — seeded, reproducible randomness
//!   (exponential, log-normal, Pareto, empirical mixtures).
//!
//! Everything is deterministic given a seed: two runs with the same seed
//! produce bit-identical event orders (asserted by integration tests).

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod dist;
pub mod engine;
pub mod rng;
pub mod time;

pub use bandwidth::Bandwidth;
pub use dist::{Empirical, Exp, Fixed, LogNormal, Mix, Pareto, SampleDist, Uniform};
pub use engine::{Ctx, Engine, EventId, World};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
