//! Fixture: linted under the pretend path `crates/core/src/fixture.rs`.
//! Every annotation below is bad in a different way.

// st-lint: allow(no-silent-cast)
fn missing_reason() {}

// st-lint: allow(not-a-rule) -- the rule does not exist
fn unknown_rule() {}

// st-lint: allow(allow-hygiene) -- hygiene itself is not suppressible
fn unsuppressible() {}

// st-lint: allow(no-silent-cast) -- well-formed but matches nothing
fn stale() {}
