//! The fixtures of the rules rustc and clippy enforce, as one crate; see
//! the clippy-fixtures step of `scripts/ci.sh`.

#[path = "../forbid_unsafe.rs"]
pub mod forbid_unsafe;
#[path = "../no_panicking_arith.rs"]
pub mod no_panicking_arith;
#[path = "../no_unordered_iteration.rs"]
pub mod no_unordered_iteration;
#[path = "../no_wall_clock.rs"]
pub mod no_wall_clock;
#[path = "../sealed_trace.rs"]
pub mod sealed_trace;

/// A suppression is an `#[expect]` with a reason, never an `#[allow]`.
#[allow(clippy::print_stdout)]
pub fn allowed() {}
