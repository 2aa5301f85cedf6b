//! Trigger-state stream generators for the paper's measured workloads.
//!
//! Section 5.3 measures the distribution of times between successive
//! trigger states under six workloads (Figure 4, Table 1) and section 5.5
//! breaks trigger states down by source (Table 2, Figure 6). We cannot
//! rerun Apache/Flash/NFS/RealPlayer on FreeBSD-2.2.6; instead each
//! workload is modeled as a tagged renewal process whose interval mixture
//! is *calibrated to the paper's published statistics* (see
//! [`catalog`]) and whose source labels follow Table 2's measured mix.
//! Calibration tolerances are asserted by this crate's tests; the
//! resulting streams drive the Figure 4-6 / Table 1-2 reproductions and
//! supply the trigger processes for the pacing experiments (Tables 4-5).
//!
//! One paper inconsistency is preserved as documented: Table 1 reports
//! ST-kernel-build with a standard deviation of 47.9 µs, a maximum of
//! 1000 µs and only 0.038 % of samples above 100 µs — jointly impossible
//! (the capped tail bounds the deviation near 20 µs). We match mean,
//! median, max and the tail fractions, and let the deviation land where
//! it mathematically must; EXPERIMENTS.md records the discrepancy.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod catalog;
pub mod gen;
pub mod spec;

pub use catalog::{all_workloads, WorkloadId};
pub use gen::TriggerStream;
pub use spec::{IntervalComponent, WorkloadSpec};
