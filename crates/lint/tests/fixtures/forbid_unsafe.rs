//! Fixture: `unsafe_code = "forbid"` comes from the crate's `[lints]`
//! table, so no attribute in the source is needed, or can lift it.

pub fn danger(p: &u64) -> u64 {
    unsafe { *(p as *const u64) }
}
