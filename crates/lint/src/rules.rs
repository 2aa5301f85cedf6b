//! The per-file rules: project invariants that need st-lint's tokens.
//!
//! Every rule ties back to one of the repro's two load-bearing guarantees:
//!
//! * **the delay bound** — a soft-timer event fires inside
//!   `(S+T, S+T+X+1)`; arithmetic on ticks must therefore never silently
//!   truncate or go through floats, and
//! * **seed replay** — two runs with the same seed are byte-identical.
//!
//! rustc and clippy enforce the lexical rest of both (see DESIGN.md §9).
//! These two stay here because clippy's nearest lints are other rules:
//! its cast lints flag every narrowing cast, not just those on tick/delay
//! lines, and `float_arithmetic` misses a bare `f64` type or literal.
//!
//! Rules operate on the token stream from [`crate::lexer`] plus the raw
//! source lines (for the tick-arithmetic heuristic of `no-silent-cast`).

use crate::context::FileContext;
use crate::lexer::{Spanned, Tok};

/// Identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Narrowing `as` casts in tick/delay arithmetic.
    NoSilentCast,
    /// The firing-bound math stays in integers.
    NoFloatInBounds,
    /// Arithmetic must not mix time/tick/byte units or fold raw
    /// conversion constants into unit-tainted math.
    UnitTaint,
    /// `// st-lint: hot-path` functions must not reach allocation,
    /// locking, formatting, or unsealed emit through any callee.
    HotPathCost,
    /// Every `static`/`thread_local`/interior-mutability cell in the
    /// deterministic crates needs a declared owner.
    SharedState,
    /// Suppressions must be well-formed, reasoned, and still firing.
    AllowHygiene,
}

impl RuleId {
    /// Every rule, in report order.
    pub const ALL: [RuleId; 6] = [
        RuleId::NoSilentCast,
        RuleId::NoFloatInBounds,
        RuleId::UnitTaint,
        RuleId::HotPathCost,
        RuleId::SharedState,
        RuleId::AllowHygiene,
    ];

    /// The kebab-case name used in reports and suppressions.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::NoSilentCast => "no-silent-cast",
            RuleId::NoFloatInBounds => "no-float-in-bounds",
            RuleId::UnitTaint => "unit-taint",
            RuleId::HotPathCost => "hot-path-cost",
            RuleId::SharedState => "shared-state",
            RuleId::AllowHygiene => "allow-hygiene",
        }
    }

    /// Parses a rule name.
    pub fn from_name(name: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.name() == name)
    }

    /// One-line statement of the invariant the rule protects.
    pub fn why(self) -> &'static str {
        match self {
            RuleId::NoSilentCast => {
                "delay bound: a narrowing `as` cast in tick/delay arithmetic truncates \
                 silently and can shrink a deadline instead of failing loudly"
            }
            RuleId::NoFloatInBounds => {
                "delay bound: the (S+T, S+T+X+1) firing-bound math is exact integer \
                 arithmetic; floats would make the bound approximate"
            }
            RuleId::UnitTaint => {
                "delay bound: mixing ns/us/ms/tick/byte quantities or folding a raw \
                 power-of-ten constant into time math silently rescales a deadline"
            }
            RuleId::HotPathCost => {
                "cost model: the paper's argument is a ~20ns trigger check vs a 4.45us \
                 interrupt; an allocation, lock, or format anywhere a hot path can \
                 reach costs more than the operation being modeled"
            }
            RuleId::SharedState => {
                "SMP readiness: per-CPU facilities (ROADMAP item 2) need a machine- \
                 checked map of every shared mutable cell with a declared owner"
            }
            RuleId::AllowHygiene => {
                "suppressions are debts: each carries a reason, and one that no longer \
                 fires must be deleted, not inherited"
            }
        }
    }

    /// How to fix a finding of this rule.
    pub fn fix_hint(self) -> &'static str {
        match self {
            RuleId::NoSilentCast => "use try_from with an explicit failure path",
            RuleId::NoFloatInBounds => "keep tick math in u64; floats only in reporting",
            RuleId::UnitTaint => {
                "convert at the boundary and bind conversion factors to named constants"
            }
            RuleId::HotPathCost => {
                "hoist the allocation out of the path, or suppress with the enabled-path \
                 justification"
            }
            RuleId::SharedState => {
                "declare ownership: `st-lint: allow(shared-state) -- owner: <who>, <why>`"
            }
            RuleId::AllowHygiene => "fix the reason, or delete the stale suppression",
        }
    }
}

/// One rule violation at a location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFinding {
    /// The violated rule.
    pub rule: RuleId,
    /// 1-based line.
    pub line: u32,
    /// Human message (what fired, and the fix hint).
    pub message: String,
}

pub(crate) fn finding(rule: RuleId, line: u32, what: &str) -> RawFinding {
    RawFinding {
        rule,
        line,
        message: format!("{what} [{}: {}]", rule.name(), rule.fix_hint()),
    }
}

/// Runs every location-based rule over one file. (`allow-hygiene` is
/// applied afterwards by the engine, once suppression usage is known.)
pub fn scan(ctx: &FileContext, toks: &[Spanned], lines: &[&str]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    no_silent_cast(ctx, toks, lines, &mut out);
    no_float_in_bounds(ctx, toks, &mut out);
    out.sort_by_key(|f| (f.line, f.rule));
    out
}

fn ident_at(toks: &[Spanned], i: usize) -> Option<&str> {
    match toks.get(i).map(|s| &s.tok) {
        Some(Tok::Ident(id)) => Some(id.as_str()),
        _ => None,
    }
}

/// Words that mark a source line as tick/delay arithmetic.
const TIMING_WORDS: [&str; 9] = [
    "tick", "delay", "deadline", "due", "period", "interval", "horizon", "timeout", "expir",
];

/// Cast targets that can truncate a 64-bit tick count.
const NARROWING: [&str; 8] = ["u8", "u16", "u32", "usize", "i8", "i16", "i32", "isize"];

fn line_is_timing(lines: &[&str], line: u32) -> bool {
    let Some(text) = lines.get(line as usize - 1) else {
        return false;
    };
    // Ignore a trailing line comment so a suppression's prose (or any
    // other comment) cannot make the heuristic fire.
    let code = text.split("//").next().unwrap_or(text).to_ascii_lowercase();
    TIMING_WORDS.iter().any(|w| code.contains(w))
}

fn no_silent_cast(ctx: &FileContext, toks: &[Spanned], lines: &[&str], out: &mut Vec<RawFinding>) {
    if !ctx.applies_silent_cast() {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test_region(t.line) {
            continue;
        }
        if ident_at(toks, i) != Some("as") {
            continue;
        }
        let Some(target) = ident_at(toks, i + 1) else {
            continue;
        };
        let narrowing = NARROWING.contains(&target)
            // `as u64` is widening from every named tick type except the
            // u128 that Duration::as_micros/as_nanos return.
            || (target == "u64"
                && toks[..i]
                    .iter()
                    .rev()
                    .take(8)
                    .any(|p| matches!(&p.tok, Tok::Ident(id) if id == "as_micros" || id == "as_nanos")));
        if narrowing && line_is_timing(lines, t.line) {
            out.push(finding(
                RuleId::NoSilentCast,
                t.line,
                &format!("narrowing `as {target}` in tick/delay arithmetic"),
            ));
        }
    }
}

fn no_float_in_bounds(ctx: &FileContext, toks: &[Spanned], out: &mut Vec<RawFinding>) {
    if !ctx.applies_float_bounds() {
        return;
    }
    for t in toks {
        if ctx.in_test_region(t.line) {
            continue;
        }
        let what = match &t.tok {
            Tok::Float => "float literal",
            Tok::Ident(id) if id == "f32" || id == "f64" => "float type",
            _ => continue,
        };
        out.push(finding(
            RuleId::NoFloatInBounds,
            t.line,
            &format!("{what} in firing-bound code"),
        ));
    }
}
