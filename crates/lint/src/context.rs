//! Per-file context: what kind of file this is, which crate owns it, and
//! which line ranges are test code.
//!
//! Rules care about *where* code lives: a wall-clock read is fine in a
//! test or an example, a `HashMap` is fine outside the deterministic
//! simulation crates, and the panicking-arithmetic rule watches only the
//! facility/kernel dispatch paths. All of that policy is decided here so
//! the rules themselves stay mechanical.

use crate::lexer::{Spanned, Tok};

/// Broad classification of a source file by path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code (the default).
    Lib,
    /// A binary target (`src/main.rs`, `src/bin/*`).
    Bin,
    /// An example under `examples/`.
    Example,
    /// An integration test or bench (`tests/`, `benches/`).
    Test,
}

/// Everything rules need to know about one file.
#[derive(Debug)]
pub struct FileContext {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The owning crate's directory name under `crates/`, or `"."` for
    /// the root package.
    pub crate_dir: String,
    /// Path-derived classification.
    pub kind: FileKind,
    /// Line ranges (inclusive) covered by `#[cfg(test)]` modules or
    /// `#[test]` functions.
    pub test_regions: Vec<(u32, u32)>,
}

/// Crates whose runs must replay byte-identically from a seed.
const DETERMINISTIC_CRATES: [&str; 8] = [
    "sim", "kernel", "core", "net", "tcp", "admit", "scope", "trace",
];

/// The sanctioned wall-clock home: the st-rt crate — the host runtime
/// whose entire purpose is reading the real clock. Everything else must
/// stay on simulated time.
const WALL_CLOCK_HOME_PREFIXES: [&str; 1] = ["crates/rt/src/"];

/// Facility/kernel hot paths watched for panicking arithmetic, and the
/// host runtime's shared fire pass and closure runtime.
const UNWRAP_WATCHED: [&str; 3] = [
    "crates/core/src/facility.rs",
    "crates/rt/src/shared.rs",
    "crates/rt/src/timers.rs",
];
const UNWRAP_WATCHED_PREFIXES: [&str; 2] = ["crates/kernel/src/", "crates/wheel/src/"];

/// Dispatch-path files where even raw indexing must be justified.
const INDEX_WATCHED: [&str; 3] = [
    "crates/core/src/facility.rs",
    "crates/kernel/src/softclock.rs",
    "crates/kernel/src/hwtimer.rs",
];

/// Files holding the (S+T, S+T+X+1) bound math.
const BOUND_MATH: [&str; 1] = ["crates/core/src/facility.rs"];
const BOUND_MATH_PREFIXES: [&str; 2] = ["crates/wheel/src/", "crates/admit/src/"];

impl FileContext {
    /// Builds the context for a workspace-relative path, extracting test
    /// regions from the token stream.
    pub fn new(path: &str, toks: &[Spanned]) -> FileContext {
        let crate_dir = path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or(".")
            .to_string();
        let has_component = |c: &str| path.split('/').any(|p| p == c);
        let kind = if has_component("tests") || has_component("benches") {
            FileKind::Test
        } else if has_component("examples") {
            FileKind::Example
        } else if path.ends_with("src/main.rs") || path.contains("/bin/") {
            FileKind::Bin
        } else {
            FileKind::Lib
        };
        FileContext {
            path: path.to_string(),
            crate_dir,
            kind,
            test_regions: test_regions(toks),
        }
    }

    /// Whether `line` falls inside `#[cfg(test)]` / `#[test]` code, or the
    /// whole file is a test/bench target.
    pub fn in_test_region(&self, line: u32) -> bool {
        self.kind == FileKind::Test
            || self
                .test_regions
                .iter()
                .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// Is this file a crate root that must carry the forbid attribute?
    pub fn is_crate_root(&self) -> bool {
        self.path.ends_with("src/lib.rs")
            || self.path.ends_with("src/main.rs")
            || (self.path.contains("/bin/") && self.path.ends_with(".rs"))
    }

    pub(crate) fn applies_wall_clock(&self) -> bool {
        self.kind != FileKind::Test
            && self.kind != FileKind::Example
            && !WALL_CLOCK_HOME_PREFIXES
                .iter()
                .any(|p| self.path.starts_with(p))
    }

    pub(crate) fn applies_unordered_iteration(&self) -> bool {
        self.kind != FileKind::Test && DETERMINISTIC_CRATES.contains(&self.crate_dir.as_str())
    }

    pub(crate) fn applies_silent_cast(&self) -> bool {
        self.kind != FileKind::Test && self.kind != FileKind::Example
    }

    pub(crate) fn applies_panicking_unwrap(&self) -> bool {
        self.kind != FileKind::Test
            && (UNWRAP_WATCHED.contains(&self.path.as_str())
                || UNWRAP_WATCHED_PREFIXES
                    .iter()
                    .any(|p| self.path.starts_with(p)))
    }

    pub(crate) fn applies_panicking_index(&self) -> bool {
        self.kind != FileKind::Test && INDEX_WATCHED.contains(&self.path.as_str())
    }

    pub(crate) fn applies_sealed_trace(&self) -> bool {
        self.kind == FileKind::Lib
    }

    pub(crate) fn applies_float_bounds(&self) -> bool {
        self.kind != FileKind::Test
            && (BOUND_MATH.contains(&self.path.as_str())
                || BOUND_MATH_PREFIXES.iter().any(|p| self.path.starts_with(p)))
    }

    /// Unit-taint dataflow: the crates where tick/ns/byte arithmetic is
    /// load-bearing — the deterministic set plus the wheel and profiler.
    pub(crate) fn applies_unit_taint(&self) -> bool {
        self.kind != FileKind::Test
            && self.kind != FileKind::Example
            && (DETERMINISTIC_CRATES.contains(&self.crate_dir.as_str())
                || self.crate_dir == "wheel"
                || self.crate_dir == "prof")
    }

    /// Shared-state audit: library code of the deterministic crates (the
    /// real-time runtime, st-rt, is the declared OS-thread boundary and is
    /// not one of them).
    pub(crate) fn applies_shared_state(&self) -> bool {
        self.kind == FileKind::Lib && DETERMINISTIC_CRATES.contains(&self.crate_dir.as_str())
    }
}

/// Finds line ranges of items marked `#[test]` or `#[cfg(test)]` (or any
/// attribute mentioning `test`, which also covers `#[cfg(any(test, …))]`).
/// The range runs from the attribute to the matching close brace of the
/// item's body.
fn test_regions(toks: &[Spanned]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        // Outer attribute: `#` `[` … `]` (inner `#![…]` has a `!`).
        if matches!(toks[i].tok, Tok::Punct('#'))
            && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
        {
            let attr_line = toks[i].line;
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut is_test_attr = false;
            while j < toks.len() {
                match &toks[j].tok {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    Tok::Ident(id) if id == "test" => is_test_attr = true,
                    _ => {}
                }
                j += 1;
            }
            if is_test_attr {
                // Scan forward past further attributes to the item body:
                // the first `{` before a `;` at depth 0.
                let mut k = j + 1;
                let mut found_body = None;
                while k < toks.len() {
                    match &toks[k].tok {
                        Tok::Punct('{') => {
                            found_body = Some(k);
                            break;
                        }
                        Tok::Punct(';') => break,
                        Tok::Punct('#') => {
                            // Another attribute: skip its bracket group.
                            let mut d = 0i32;
                            k += 1;
                            while k < toks.len() {
                                match &toks[k].tok {
                                    Tok::Punct('[') => d += 1,
                                    Tok::Punct(']') => {
                                        d -= 1;
                                        if d == 0 {
                                            break;
                                        }
                                    }
                                    _ => {}
                                }
                                k += 1;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                if let Some(open) = found_body {
                    let mut d = 0i32;
                    let mut m = open;
                    while m < toks.len() {
                        match &toks[m].tok {
                            Tok::Punct('{') => d += 1,
                            Tok::Punct('}') => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        m += 1;
                    }
                    let end_line = toks.get(m).map_or(u32::MAX, |t| t.line);
                    regions.push((attr_line, end_line));
                    i = m;
                }
            } else {
                i = j;
            }
        }
        i += 1;
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_module_is_a_region() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn after() {}\n";
        let lexed = lex(src);
        let ctx = FileContext::new("crates/core/src/x.rs", &lexed.tokens);
        assert!(!ctx.in_test_region(1));
        assert!(ctx.in_test_region(2));
        assert!(ctx.in_test_region(4));
        assert!(ctx.in_test_region(5));
        assert!(!ctx.in_test_region(6));
    }

    #[test]
    fn test_fn_is_a_region() {
        let src = "fn a() {}\n#[test]\nfn t() {\n    body();\n}\nfn b() {}\n";
        let lexed = lex(src);
        let ctx = FileContext::new("crates/net/src/x.rs", &lexed.tokens);
        assert!(ctx.in_test_region(3));
        assert!(!ctx.in_test_region(6));
    }

    #[test]
    fn kinds_by_path() {
        let t = |p: &str| FileContext::new(p, &[]).kind;
        assert_eq!(t("crates/core/src/facility.rs"), FileKind::Lib);
        assert_eq!(t("crates/experiments/src/bin/repro.rs"), FileKind::Bin);
        assert_eq!(t("examples/quickstart.rs"), FileKind::Example);
        assert_eq!(t("tests/determinism.rs"), FileKind::Test);
        assert_eq!(t("crates/lint/tests/golden.rs"), FileKind::Test);
        assert_eq!(t("src/lib.rs"), FileKind::Lib);
    }

    #[test]
    fn crate_roots() {
        assert!(FileContext::new("crates/core/src/lib.rs", &[]).is_crate_root());
        assert!(FileContext::new("src/lib.rs", &[]).is_crate_root());
        assert!(FileContext::new("crates/experiments/src/bin/repro.rs", &[]).is_crate_root());
        assert!(!FileContext::new("crates/core/src/pacer.rs", &[]).is_crate_root());
    }

    #[test]
    fn crate_dir_extraction() {
        assert_eq!(
            FileContext::new("crates/tcp/src/lib.rs", &[]).crate_dir,
            "tcp"
        );
        assert_eq!(FileContext::new("src/lib.rs", &[]).crate_dir, ".");
    }
}
