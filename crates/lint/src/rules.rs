//! The rule set: project invariants `rustc` and clippy cannot express.
//!
//! Every rule ties back to one of the repro's two load-bearing guarantees:
//!
//! * **the delay bound** — a soft-timer event fires inside
//!   `(S+T, S+T+X+1)`; arithmetic on ticks must therefore never silently
//!   truncate, go through floats, or panic mid-sweep, and
//! * **seed replay** — two runs with the same seed are byte-identical;
//!   wall-clock reads and unordered-container iteration are the two ways
//!   that property has historically been lost.
//!
//! Rules operate on the token stream from [`crate::lexer`] plus the raw
//! source lines (for the tick-arithmetic heuristic of `no-silent-cast`).

use crate::context::FileContext;
use crate::lexer::{Spanned, Tok};

/// Identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Wall-clock access outside the real-time runtime.
    NoWallClock,
    /// `HashMap`/`HashSet` in the deterministic simulation crates.
    NoUnorderedIteration,
    /// Narrowing `as` casts in tick/delay arithmetic.
    NoSilentCast,
    /// `.unwrap()` / `.expect()` / indexing in facility/kernel hot paths.
    NoPanickingArith,
    /// Crate roots must carry `#![forbid(unsafe_code)]`.
    ForbidUnsafeEverywhere,
    /// Trace emission only through `st-trace`; no ad-hoc prints in libs.
    SealedTraceOnly,
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
    pub const ALL: [RuleId; 11] = [
        RuleId::NoWallClock,
        RuleId::NoUnorderedIteration,
        RuleId::NoSilentCast,
        RuleId::NoPanickingArith,
        RuleId::ForbidUnsafeEverywhere,
        RuleId::SealedTraceOnly,
        RuleId::NoFloatInBounds,
        RuleId::UnitTaint,
        RuleId::HotPathCost,
        RuleId::SharedState,
        RuleId::AllowHygiene,
    ];

    /// The kebab-case name used in reports and suppressions.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::NoWallClock => "no-wall-clock",
            RuleId::NoUnorderedIteration => "no-unordered-iteration",
            RuleId::NoSilentCast => "no-silent-cast",
            RuleId::NoPanickingArith => "no-panicking-arith",
            RuleId::ForbidUnsafeEverywhere => "forbid-unsafe-everywhere",
            RuleId::SealedTraceOnly => "sealed-trace-only",
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
            RuleId::NoWallClock => {
                "seed replay: simulated time comes from the engine, never the host clock \
                 (only the st-rt crate, tests, and examples touch real time)"
            }
            RuleId::NoUnorderedIteration => {
                "seed replay: HashMap/HashSet iteration order varies per process, so two \
                 identical seeds could diverge (sim/kernel/core/net/tcp crates)"
            }
            RuleId::NoSilentCast => {
                "delay bound: a narrowing `as` cast in tick/delay arithmetic truncates \
                 silently and can shrink a deadline instead of failing loudly"
            }
            RuleId::NoPanickingArith => {
                "delay bound: an unwrap/expect or raw index in the facility or kernel \
                 dispatch path turns a recoverable condition into a lost timer sweep"
            }
            RuleId::ForbidUnsafeEverywhere => {
                "both: every crate root carries #![forbid(unsafe_code)] so no unsafe \
                 block can undermine the facility's memory-safety story"
            }
            RuleId::SealedTraceOnly => {
                "observability stays sealed: library crates emit through the one \
                 st-trace session only, so the zero-overhead disabled path stays \
                 the only path"
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
            RuleId::NoWallClock => {
                "take time from Clock/SimTime, or move the code into the st-rt crate"
            }
            RuleId::NoUnorderedIteration => "use BTreeMap/BTreeSet or sort before iterating",
            RuleId::NoSilentCast => "use try_from with an explicit failure path",
            RuleId::NoPanickingArith => "return Option/Result or use get()/checked ops",
            RuleId::ForbidUnsafeEverywhere => "add #![forbid(unsafe_code)] to the crate root",
            RuleId::SealedTraceOnly => {
                "emit via st_trace::emit/count/observe or gauge/observe_window/fire_delay"
            }
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
    no_wall_clock(ctx, toks, &mut out);
    no_unordered_iteration(ctx, toks, &mut out);
    no_silent_cast(ctx, toks, lines, &mut out);
    no_panicking_arith(ctx, toks, &mut out);
    forbid_unsafe_everywhere(ctx, toks, &mut out);
    sealed_trace_only(ctx, toks, &mut out);
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

fn punct_at(toks: &[Spanned], i: usize) -> Option<char> {
    match toks.get(i).map(|s| &s.tok) {
        Some(Tok::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// Does `toks[i..]` start with `::` followed by the identifier `id`?
fn path_seg(toks: &[Spanned], i: usize, id: &str) -> bool {
    punct_at(toks, i) == Some(':')
        && punct_at(toks, i + 1) == Some(':')
        && ident_at(toks, i + 2) == Some(id)
}

/// The paper's measurement clock is the *only* real-time source; everything
/// else must run on simulated ticks or be explicitly justified.
fn no_wall_clock(ctx: &FileContext, toks: &[Spanned], out: &mut Vec<RawFinding>) {
    if !ctx.applies_wall_clock() {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test_region(t.line) {
            continue;
        }
        let Tok::Ident(id) = &t.tok else { continue };
        let what = match id.as_str() {
            "Instant" if path_seg(toks, i + 1, "now") => "`Instant::now()`",
            "SystemTime" => "`SystemTime`",
            "thread" if path_seg(toks, i + 1, "sleep") => "`thread::sleep`",
            _ => continue,
        };
        out.push(finding(
            RuleId::NoWallClock,
            t.line,
            &format!("wall-clock access via {what}"),
        ));
    }
}

fn no_unordered_iteration(ctx: &FileContext, toks: &[Spanned], out: &mut Vec<RawFinding>) {
    if !ctx.applies_unordered_iteration() {
        return;
    }
    for t in toks {
        if ctx.in_test_region(t.line) {
            continue;
        }
        let Tok::Ident(id) = &t.tok else { continue };
        if id == "HashMap" || id == "HashSet" {
            out.push(finding(
                RuleId::NoUnorderedIteration,
                t.line,
                &format!("`{id}` in a deterministic crate (iteration order is per-process)"),
            ));
        }
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

/// Keywords that may legitimately precede `[` (slice patterns, array
/// types); anything else followed by `[` is an index expression.
const NON_INDEX_KEYWORDS: [&str; 24] = [
    "let", "in", "if", "else", "match", "return", "mut", "ref", "move", "as", "break", "continue",
    "where", "for", "while", "loop", "impl", "fn", "pub", "use", "mod", "const", "static", "dyn",
];

fn no_panicking_arith(ctx: &FileContext, toks: &[Spanned], out: &mut Vec<RawFinding>) {
    let unwraps = ctx.applies_panicking_unwrap();
    let indexing = ctx.applies_panicking_index();
    if !unwraps && !indexing {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test_region(t.line) {
            continue;
        }
        if unwraps {
            if let Some(id @ ("unwrap" | "expect")) = ident_at(toks, i) {
                if punct_at(toks, i.wrapping_sub(1)) == Some('.')
                    && punct_at(toks, i + 1) == Some('(')
                {
                    out.push(finding(
                        RuleId::NoPanickingArith,
                        t.line,
                        &format!("`.{id}()` in a facility/kernel hot path"),
                    ));
                }
            }
        }
        if indexing && punct_at(toks, i) == Some('[') && i > 0 {
            let prev = &toks[i - 1].tok;
            let is_index = match prev {
                Tok::Ident(id) => !NON_INDEX_KEYWORDS.contains(&id.as_str()),
                Tok::Punct(')') | Tok::Punct(']') => true,
                _ => false,
            };
            if is_index {
                out.push(finding(
                    RuleId::NoPanickingArith,
                    t.line,
                    "raw index expression in a facility/kernel hot path",
                ));
            }
        }
    }
}

fn forbid_unsafe_everywhere(ctx: &FileContext, toks: &[Spanned], out: &mut Vec<RawFinding>) {
    // Any `unsafe` token anywhere (tests included) is a finding.
    for t in toks {
        if matches!(&t.tok, Tok::Ident(id) if id == "unsafe") {
            out.push(finding(
                RuleId::ForbidUnsafeEverywhere,
                t.line,
                "`unsafe` is forbidden workspace-wide",
            ));
        }
    }
    if !ctx.is_crate_root() {
        return;
    }
    // Look for #![forbid(unsafe_code)]: a `#` `!` attr containing both
    // identifiers.
    let mut i = 0;
    while i < toks.len() {
        if punct_at(toks, i) == Some('#') && punct_at(toks, i + 1) == Some('!') {
            let mut j = i + 2;
            let mut depth = 0i32;
            let mut saw_forbid = false;
            let mut saw_unsafe_code = false;
            while j < toks.len() {
                match &toks[j].tok {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    Tok::Ident(id) if id == "forbid" => saw_forbid = true,
                    Tok::Ident(id) if id == "unsafe_code" => saw_unsafe_code = true,
                    _ => {}
                }
                j += 1;
            }
            if saw_forbid && saw_unsafe_code {
                return;
            }
            i = j;
        }
        i += 1;
    }
    out.push(finding(
        RuleId::ForbidUnsafeEverywhere,
        1,
        "crate root is missing `#![forbid(unsafe_code)]`",
    ));
}

const PRINT_MACROS: [&str; 5] = ["println", "eprintln", "print", "eprint", "dbg"];

fn sealed_trace_only(ctx: &FileContext, toks: &[Spanned], out: &mut Vec<RawFinding>) {
    if !ctx.applies_sealed_trace() {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test_region(t.line) {
            continue;
        }
        let Tok::Ident(id) = &t.tok else { continue };
        if PRINT_MACROS.contains(&id.as_str()) && punct_at(toks, i + 1) == Some('!') {
            out.push(finding(
                RuleId::SealedTraceOnly,
                t.line,
                &format!("ad-hoc `{id}!` in a library crate"),
            ));
        }
        // `io::stdout()` / `io::stderr()` handle grabs dodge the macro
        // check; `.stdout(...)` builder calls (std::process::Command)
        // are not emission and stay allowed.
        if (id == "stdout" || id == "stderr")
            && punct_at(toks, i + 1) == Some('(')
            && (i == 0 || punct_at(toks, i - 1) != Some('.'))
        {
            out.push(finding(
                RuleId::SealedTraceOnly,
                t.line,
                &format!("direct `{id}()` handle in a library crate"),
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
