//! Fixture: the deny every library crate root carries.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub fn positive() {
    println!("chatty library");
    dbg!(42);
}

#[expect(clippy::print_stderr, reason = "fixture: user-facing report")]
pub fn suppressed() {
    eprintln!("deliberate");
}

#[expect(clippy::print_stderr, reason = "fixture: stale annotation")]
pub fn stale() {}

pub fn grabs_a_handle() {
    let _ = std::io::stdout();
}
