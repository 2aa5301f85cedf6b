//! Fixture: compiled by the clippy fixture crate under the root clippy.toml.
use std::collections::HashMap;

pub fn positive(m: &HashMap<u32, u32>) -> usize {
    m.len()
}

#[expect(clippy::disallowed_types, reason = "fixture: membership only")]
pub fn suppressed(s: &std::collections::HashSet<u32>) -> usize {
    s.len()
}

#[expect(clippy::disallowed_types, reason = "fixture: stale annotation")]
pub fn stale() {}
