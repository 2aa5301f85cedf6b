//! Fixture: compiled by the clippy fixture crate under the root clippy.toml.
use std::time::Instant;

pub fn positive() {
    let _ = Instant::now();
    std::thread::sleep(std::time::Duration::from_millis(1));
}

pub fn suppressed() {
    #[expect(clippy::disallowed_methods, reason = "fixture: a justified real-time read")]
    let _ = Instant::now();
}

#[expect(clippy::disallowed_methods, reason = "fixture: nothing left to allow here")]
pub fn stale() {}

/// The host calendar is banned as a type, not only through `now()`.
pub fn calendar(t: std::time::SystemTime) -> std::time::SystemTime {
    t
}
