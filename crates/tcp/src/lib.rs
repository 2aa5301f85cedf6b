//! Simulated TCP data-transfer engine.
//!
//! Implements the protocol behaviour the paper's evaluation depends on:
//!
//! - [`sender`] — window management: slow start from FreeBSD-2.2.6's
//!   initial window, ACK-clocked growth, receiver-window limiting, and the
//!   paper's *rate-based clocking* mode that skips slow start and paces
//!   segments at a known capacity.
//! - [`receiver`] — in-order reassembly and ACK generation: the standard
//!   delayed-ACK policy (every second segment, with the periodic delayed-
//!   ACK timer) and a slow-reader mode that produces the *big ACKs* of
//!   Appendix A.3.
//! - [`pacing`] — the transmission-process simulator behind Tables 4-5:
//!   the real soft-timer facility driven by a synthetic trigger-state
//!   stream, transmitting through the adaptive pacer.
//! - [`recovery`] — RFC 6298 SRTT/RTTVAR RTO estimation with bounded
//!   exponential backoff, and the loss-adaptive rate pacer.
//! - [`transfer`] — the end-to-end WAN experiment of Tables 6-7: client,
//!   WAN emulator router, server; regular TCP vs. rate-based clocking,
//!   optionally through a finite drop-tail bottleneck with wire faults,
//!   with the retransmission timer running as a soft-timer event.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod pacing;
pub mod receiver;
pub mod recovery;
pub mod sender;
pub mod transfer;

pub use pacing::{PacingRun, TransmissionProcess};
pub use receiver::{AckDecision, AckPolicy, TcpReceiver};
pub use recovery::{LossPacer, RttEstimator, MAX_BACKOFF};
pub use sender::{AckOutcome, SenderConfig, SenderMode, TcpSender, DUP_ACK_THRESHOLD};
pub use transfer::{TransferConfig, TransferOutcome, TransferSim};

// Re-exported so callers configuring a lossy transfer need only this
// crate (the type lives in `st-net`, next to the emulated wire).
pub use st_net::wire::WireFaults;
