//! Simulated operating-system kernel substrate.
//!
//! The paper modifies FreeBSD-2.2.6 on Pentium-II hardware; this crate is
//! the substitute (DESIGN.md section 2): passive, composable components
//! that machine-level simulations (in `st-http`, `st-tcp`,
//! `st-workloads`) assemble and drive from a discrete-event engine.
//!
//! - [`costs`] — the calibrated cost model: every constant is a number the
//!   paper *measured* (4.45 µs per hardware interrupt on a busy PII-300,
//!   etc.).
//! - [`trigger`] — trigger-state sources and the interval recorder behind
//!   Figures 4-6 and Tables 1-2.
//! - [`softclock`] — the soft-timer facility wired to simulated time and
//!   the trigger recorder.
//! - [`hwtimer`] — the periodic hardware interval timer (the "8253"),
//!   including interrupt masking and lost ticks.
//! - [`interrupts`] — interrupt controller: masking, pending latch,
//!   per-source counts.
//! - [`cpu`] — CPU time accounting by category; utilization and capacity
//!   queries used by the saturation experiments.
//! - [`sched`] — a round-robin process scheduler with FreeBSD's 10 ms time
//!   slice and context-switch costs.
//! - [`machine`] — a mechanistic single-CPU machine (scheduler +
//!   interrupts + trigger recorder) deriving the §5.3/§5.4 claims from
//!   first principles.
//! - [`context`] — the execution-context stack with exact per-stack time
//!   accounting: the ground truth the `st-prof` statistical profiler is
//!   validated against.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod context;
pub mod costs;
pub mod cpu;
pub mod hwtimer;
pub mod interrupts;
pub mod machine;
pub mod sched;
pub mod softclock;
pub mod trigger;

pub use context::{ContextFrame, ContextKind, ContextStack, ContextTruth};
pub use costs::{CostModel, MachineKind};
pub use cpu::{CpuAccountant, CpuCategory};
pub use hwtimer::HardwareTimer;
pub use interrupts::{InterruptController, IrqLine};
pub use machine::{run_machine, MachineConfig, MachineRun, ProcessBehavior};
pub use sched::{ProcId, Scheduler};
pub use softclock::SoftClock;
pub use trigger::{TriggerRecorder, TriggerSource};
