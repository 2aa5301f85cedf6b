//! The perf trajectory: a fixed hot-path suite ([`suite`], timed by
//! [`harness`], driven by the `bench-suite` binary) whose stats are
//! frozen as `BENCH_*.json` snapshots; `scripts/perf_gate.sh` compares
//! a fresh run against the newest snapshot and fails CI on
//! tolerance-exceeding regressions.
//!
//! This is the micro tier. The repo's benchmark — end-to-end workloads
//! plus ~90 per-layer probes at 256 / 16k / 1M pending timers — is
//! `benches/ledger` (`BENCHMARK.json`); there is no `cargo bench` tier.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod harness;
pub mod suite;
