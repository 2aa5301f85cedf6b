//! Simulated network substrate.
//!
//! Models the paper's testbed network: switched 100 Mbps Ethernet between
//! Pentium machines, NICs that interrupt per packet (or are polled), and
//! the lab "WAN emulator" router that adds delay and a bottleneck to
//! model high bandwidth-delay-product paths (section 5.8).
//!
//! - [`packet`] — wire frames with a small TCP-ish header (shared wire
//!   format; the protocol machine lives in `st-tcp`).
//! - [`link`] — full-duplex point-to-point links with exact serialization
//!   and propagation times.
//! - [`nic`] — network interfaces: rx/tx descriptor rings, per-packet
//!   interrupts, status-register polling, drop accounting.
//! - [`driver`] — packet dispatch policies: interrupt-driven,
//!   pure-polling, the Mogul-Ramakrishnan hybrid, and soft-timer polling
//!   with an aggregation quota (section 4.2).
//! - [`wan`] — the store-and-forward WAN emulator router of section 5.8,
//!   with an optional finite drop-tail bottleneck buffer.
//! - [`wire`] — deterministic per-packet wire faults: loss, reordering,
//!   duplication, replayable from a `(faults, seed)` pair.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod driver;
pub mod link;
pub mod nic;
pub mod packet;
pub mod wan;
pub mod wire;

pub use driver::{DriverPolicy, DriverStrategy};
pub use link::Link;
pub use nic::Nic;
pub use packet::{ConnId, Packet, TcpFlags, TcpHeader};
pub use wan::{WanDirStats, WanEmulator};
pub use wire::{WireFate, WireFaultInjector, WireFaults};
