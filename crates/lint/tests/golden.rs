//! Golden findings for the fixture corpus: every rule has a fixture with a
//! positive hit, a suppressed hit, and a stale suppression, and the exact
//! `(rule, line, suppressed)` set is pinned here. The fixtures live under
//! `tests/fixtures/` (excluded from workspace walks) and are linted under
//! *pretend* paths, since the path decides which rules apply. (The fixtures
//! of the rules clippy enforces are compiled by `fixtures/clippy/`.)

use st_lint::rules::RuleId;
use st_lint::{lint_source, Report};

/// Collapses findings to comparable `(rule, line, suppressed?)` triples.
fn triples(fs: &[st_lint::Finding]) -> Vec<(RuleId, u32, bool)> {
    fs.iter()
        .map(|f| (f.rule, f.line, f.suppressed.is_some()))
        .collect()
}

fn check(pretend_path: &str, src: &str, expected: &[(RuleId, u32, bool)]) {
    let fs = lint_source(pretend_path, src);
    assert_eq!(
        triples(&fs),
        expected,
        "findings for {pretend_path}:\n{:#?}",
        fs
    );
}

#[test]
fn no_silent_cast_fixture() {
    check(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/no_silent_cast.rs"),
        &[
            (RuleId::NoSilentCast, 4, false),
            (RuleId::NoSilentCast, 8, false),
            (RuleId::NoSilentCast, 13, true),
            (RuleId::AllowHygiene, 16, false),
        ],
    );
}

#[test]
fn no_float_in_bounds_fixture() {
    check(
        "crates/wheel/src/fixture.rs",
        include_str!("fixtures/no_float_in_bounds.rs"),
        &[
            (RuleId::NoFloatInBounds, 6, false),
            (RuleId::NoFloatInBounds, 12, true),
            (RuleId::AllowHygiene, 16, false),
        ],
    );
}

#[test]
fn unit_taint_fixture() {
    check(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/unit_taint.rs"),
        &[
            (RuleId::UnitTaint, 4, false),
            (RuleId::UnitTaint, 5, false),
            (RuleId::UnitTaint, 10, true),
            (RuleId::AllowHygiene, 13, false),
        ],
    );
}

#[test]
fn hot_path_fixture() {
    check(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/hot_path.rs"),
        &[
            (RuleId::HotPathCost, 5, false),
            (RuleId::HotPathCost, 10, false),
            (RuleId::HotPathCost, 16, true),
            (RuleId::AllowHygiene, 19, false),
            (RuleId::AllowHygiene, 22, false),
        ],
    );
}

#[test]
fn shared_state_fixture() {
    check(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/shared_state.rs"),
        &[
            (RuleId::SharedState, 3, false),
            (RuleId::SharedState, 6, false),
            (RuleId::SharedState, 10, false),
            (RuleId::SharedState, 14, true),
            (RuleId::AllowHygiene, 16, false),
        ],
    );
}

/// Timing words, casts, and denied-looking calls inside raw strings and
/// nested block comments must never fire any rule (the lexer masks them).
#[test]
fn lexer_edges_fixture() {
    check(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/lexer_edges.rs"),
        &[],
    );
}

#[test]
fn allow_hygiene_fixture() {
    check(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/allow_hygiene.rs"),
        &[
            (RuleId::AllowHygiene, 4, false),
            (RuleId::AllowHygiene, 7, false),
            (RuleId::AllowHygiene, 10, false),
            (RuleId::AllowHygiene, 13, false),
        ],
    );
}

/// The JSON report round-trips through st-trace's validator and pins the
/// per-rule counts for the hygiene fixture.
#[test]
fn json_report_round_trips_through_st_trace_validator() {
    let report = Report {
        files_scanned: 1,
        findings: lint_source(
            "crates/core/src/fixture.rs",
            include_str!("fixtures/allow_hygiene.rs"),
        ),
    };
    let json = report.to_json();
    st_trace::json::validate(&json).expect("report JSON must validate");
    assert!(json.contains("\"tool\":\"st-lint\""), "{json}");
    assert!(json.contains("\"allow-hygiene\":4"), "{json}");
    assert!(json.contains("\"unsuppressed\":4"), "{json}");
}

/// Every rule name parses back to itself (the suppression syntax depends
/// on this), and the fixture corpus as a whole exercises every rule.
#[test]
fn corpus_covers_every_rule() {
    for r in RuleId::ALL {
        assert_eq!(RuleId::from_name(r.name()), Some(r), "{}", r.name());
    }
    let mut hit: Vec<RuleId> = Vec::new();
    for (path, src) in [
        (
            "crates/core/src/fixture.rs",
            include_str!("fixtures/no_silent_cast.rs"),
        ),
        (
            "crates/wheel/src/fixture.rs",
            include_str!("fixtures/no_float_in_bounds.rs"),
        ),
        (
            "crates/core/src/fixture.rs",
            include_str!("fixtures/allow_hygiene.rs"),
        ),
        (
            "crates/sim/src/fixture.rs",
            include_str!("fixtures/unit_taint.rs"),
        ),
        (
            "crates/core/src/fixture.rs",
            include_str!("fixtures/hot_path.rs"),
        ),
        (
            "crates/sim/src/fixture.rs",
            include_str!("fixtures/shared_state.rs"),
        ),
    ] {
        hit.extend(lint_source(path, src).iter().map(|f| f.rule));
    }
    for r in RuleId::ALL {
        assert!(hit.contains(&r), "no fixture finding for rule {}", r.name());
    }
}
