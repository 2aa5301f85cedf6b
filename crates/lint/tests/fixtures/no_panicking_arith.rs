//! Fixture: the denies `crates/kernel/src/hwtimer.rs` inherits from the
//! kernel crate root plus its own, as one attribute.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

pub fn positive(v: &[u64], o: Option<u64>) -> u64 {
    let x = v[0];
    o.unwrap() + x
}

#[expect(clippy::expect_used, reason = "fixture: invariant holds")]
pub fn suppressed(o: Option<u64>) -> u64 {
    o.expect("fixture invariant")
}

#[expect(clippy::expect_used, reason = "fixture: stale annotation")]
pub fn stale() {}

pub fn checked_is_fine(v: &[u64]) -> Option<u64> {
    v.first().copied()
}
