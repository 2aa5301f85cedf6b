#![forbid(unsafe_code)]
//! `st-lint` — a hermetic workspace linter for determinism and
//! timing-safety invariants.
//!
//! The paper's claims rest on a delay *bound* (a soft-timer event fires
//! within the interrupt-clock period) and this reproduction's claims rest
//! on seed-replayable simulation. Neither property is checkable by
//! `rustc` or clippy — both were, until this crate, enforced only by
//! convention. `st-lint` walks every `.rs` file in the workspace with a
//! hand-rolled token scanner ([`lexer`]), an item-level parser
//! ([`parse`]), and a rule engine ([`rules`]), in the same hermetic
//! spirit as the repo's in-tree SimRng, bench harness, and JSON writer:
//! no `syn`, no registry dependencies.
//!
//! On top of the per-file rules, three whole-workspace analyses run over
//! a symbol-resolved [`model::Model`] ([`analyses`]): **unit-taint**
//! (arithmetic must not mix ns/us/ms/tick/byte quantities or fold raw
//! conversion constants into time math), **hot-path-cost** (a function
//! annotated `// st-lint: hot-path` must not reach allocation, locking,
//! formatting, or unsealed emit through any callee in the [`callgraph`]),
//! and **shared-state** (every static/thread-local/interior-mutability
//! cell in the deterministic crates carries a declared owner).
//!
//! Findings are suppressible only with a reasoned annotation:
//!
//! ```text
//! // st-lint: allow(no-wall-clock) -- measures real tracer cost on purpose
//! ```
//!
//! and a suppression that stops matching anything becomes a finding
//! itself (`allow-hygiene`), so the allow-list can never rot.
//!
//! The JSON report is emitted through `st-trace`'s hand-rolled writer and
//! checked by its validator before it is ever written.

pub mod analyses;
pub mod callgraph;
pub mod context;
pub mod lexer;
pub mod model;
pub mod parse;
pub mod rules;
pub mod suppress;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use model::Model;
use rules::{RawFinding, RuleId};

/// One finding, after suppression processing.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The violated rule.
    pub rule: RuleId,
    /// Human-readable message including the fix hint.
    pub message: String,
    /// The justification, when an allow annotation covers this finding.
    pub suppressed: Option<String>,
}

/// Lint results for a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// Files scanned (including clean ones).
    pub files_scanned: usize,
    /// All findings, suppressed and not, in path/line order.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Findings not covered by an allow annotation.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }

    /// Count of unsuppressed findings (the CI gate: must be zero).
    pub fn unsuppressed_count(&self) -> usize {
        self.unsuppressed().count()
    }

    /// The human report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            match &f.suppressed {
                None => {
                    let _ = writeln!(out, "{}:{}: {}", f.file, f.line, f.message);
                }
                Some(reason) => {
                    let _ = writeln!(
                        out,
                        "{}:{}: allowed({}) -- {}",
                        f.file,
                        f.line,
                        f.rule.name(),
                        reason
                    );
                }
            }
        }
        let suppressed = self.findings.len() - self.unsuppressed_count();
        let _ = writeln!(
            out,
            "st-lint: {} files, {} finding(s), {} suppressed, {} unsuppressed",
            self.files_scanned,
            self.findings.len(),
            suppressed,
            self.unsuppressed_count()
        );
        out
    }

    /// The machine report: one JSON object, already passed through the
    /// st-trace validator.
    ///
    /// # Panics
    ///
    /// Panics if the writer ever emits JSON its own validator rejects —
    /// that is a bug in this crate, not a runtime condition.
    pub fn to_json(&self) -> String {
        let mut items = String::from("[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                items.push(',');
            }
            let mut obj = st_trace::json::ObjectBuilder::new()
                .str("file", &f.file)
                .u64("line", u64::from(f.line))
                .str("rule", f.rule.name())
                .str("message", &f.message)
                .raw(
                    "suppressed",
                    if f.suppressed.is_some() {
                        "true"
                    } else {
                        "false"
                    },
                );
            if let Some(reason) = &f.suppressed {
                obj = obj.str("reason", reason);
            }
            items.push_str(&obj.build());
        }
        items.push(']');
        let mut rule_counts = String::from("{");
        for (i, r) in RuleId::ALL.iter().enumerate() {
            if i > 0 {
                rule_counts.push(',');
            }
            let n = self.findings.iter().filter(|f| f.rule == *r).count();
            let _ = write!(rule_counts, "\"{}\":{n}", st_trace::json::escape(r.name()));
        }
        rule_counts.push('}');
        let json = st_trace::json::ObjectBuilder::new()
            .str("tool", "st-lint")
            .u64("files_scanned", self.files_scanned as u64)
            .u64("findings", self.findings.len() as u64)
            .u64("unsuppressed", self.unsuppressed_count() as u64)
            .raw("by_rule", &rule_counts)
            .raw("items", &items)
            .build();
        st_trace::json::validate(&json).expect("st-lint emitted invalid JSON");
        json
    }
}

/// Lints a set of `(workspace-relative path, source)` pairs as one
/// workspace: the per-file rules run over each file, then the
/// model-wide analyses (unit-taint, hot-path reachability, shared-state)
/// run over the whole set, and suppressions are applied uniformly.
pub fn lint_sources<S: AsRef<str>, T: AsRef<str>>(sources: &[(S, T)]) -> Report {
    let model = Model::from_sources(sources);
    let mut raw: Vec<Vec<RawFinding>> = model
        .files
        .iter()
        .map(|unit| {
            // Rules consume *masked* lines: string/comment content is
            // blanked, so prose can never trip a code heuristic.
            let lines: Vec<&str> = unit.lexed.masked.lines().collect();
            rules::scan(&unit.ctx, &unit.lexed.tokens, &lines)
        })
        .collect();
    analyses::unit_taint(&model, &mut raw);
    analyses::hot_path(&model, &mut raw);
    analyses::shared_state(&model, &mut raw);

    let mut report = Report {
        files_scanned: model.files.len(),
        findings: Vec::new(),
    };
    for (unit, file_raw) in model.files.iter().zip(raw) {
        let mut findings = apply_suppressions(unit, file_raw);
        findings.sort_by_key(|f| (f.line, f.rule));
        report.findings.extend(findings);
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
}

/// Lints one file's source under a workspace-relative path (a
/// single-file workspace).
///
/// The path decides which rules apply (see [`context::FileContext`]), so
/// fixtures can impersonate any location.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    lint_sources(&[(rel_path, src)]).findings
}

/// Matches raw findings against a file's suppressions and appends the
/// allow-hygiene findings (malformed, stale, dangling hot-path).
fn apply_suppressions(unit: &model::FileUnit, raw: Vec<RawFinding>) -> Vec<Finding> {
    let rel_path = unit.rel.as_str();
    let sup = suppress::parse(&unit.lexed.comments, unit.line_count);

    let mut used = vec![false; sup.ok.len()];
    let mut findings: Vec<Finding> = raw
        .into_iter()
        .map(|f| {
            let hit = sup
                .ok
                .iter()
                .enumerate()
                .find(|(_, s)| s.rule == f.rule && s.target_line == f.line);
            let suppressed = hit.map(|(i, s)| {
                used[i] = true;
                s.reason.clone()
            });
            Finding {
                file: rel_path.to_string(),
                line: f.line,
                rule: f.rule,
                message: f.message,
                suppressed,
            }
        })
        .collect();

    // allow-hygiene: malformed annotations and stale suppressions are
    // findings in their own right — and are themselves unsuppressible.
    for bad in &sup.bad {
        findings.push(Finding {
            file: rel_path.to_string(),
            line: bad.line,
            rule: RuleId::AllowHygiene,
            message: format!(
                "malformed suppression: {} [{}: {}]",
                bad.why,
                RuleId::AllowHygiene.name(),
                RuleId::AllowHygiene.fix_hint()
            ),
            suppressed: None,
        });
    }
    for (i, s) in sup.ok.iter().enumerate() {
        if !used[i] {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: s.comment_line,
                rule: RuleId::AllowHygiene,
                message: format!(
                    "stale suppression: allow({}) matches no finding on line {} [{}: {}]",
                    s.rule.name(),
                    s.target_line,
                    RuleId::AllowHygiene.name(),
                    RuleId::AllowHygiene.fix_hint()
                ),
                suppressed: None,
            });
        }
    }
    // A hot-path annotation that attached to no function is as stale as a
    // suppression that covers nothing.
    for h in &unit.items.hot_annotations {
        if !h.attached {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: h.line,
                rule: RuleId::AllowHygiene,
                message: format!(
                    "dangling `st-lint: hot-path` annotation: no fn starts within {} line(s) \
                     [{}: {}]",
                    parse::HOT_ATTACH_WINDOW,
                    RuleId::AllowHygiene.name(),
                    RuleId::AllowHygiene.fix_hint()
                ),
                suppressed: None,
            });
        }
    }
    findings
}

/// Paths never linted: build output, VCS, and the linter's own corpus of
/// deliberately bad fixtures.
fn skip_dir(name: &str) -> bool {
    name == "target" || name.starts_with('.')
}

const FIXTURE_DIR: &str = "crates/lint/tests/fixtures";

/// Collects every workspace `.rs` file, sorted for deterministic reports.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if skip_dir(name) {
                continue;
            }
            let rel = path.strip_prefix(root).unwrap_or(&path);
            if rel.to_string_lossy().replace('\\', "/") == FIXTURE_DIR {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Reads every workspace `.rs` file under `root` as `(relative path,
/// source)` pairs, in deterministic path order. Separated from
/// [`lint_workspace`] so the bench suite can time the analysis alone,
/// free of disk I/O.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs(root, root, &mut files)?;
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(&path)?));
    }
    Ok(sources)
}

/// Lints every `.rs` file under `root` (the workspace).
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    Ok(lint_sources(&workspace_sources(root)?))
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppressed_finding_carries_reason() {
        let src = "use std::time::Instant;\n\
                   fn f() -> u64 {\n\
                       let t = Instant::now(); // st-lint: allow(no-wall-clock) -- measuring real cost\n\
                       t.elapsed().as_micros() as u64\n\
                   }\n";
        let fs = lint_source("crates/stats/src/x.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, RuleId::NoWallClock);
        assert_eq!(fs[0].suppressed.as_deref(), Some("measuring real cost"));
    }

    #[test]
    fn stale_suppression_is_a_finding() {
        let src = "// st-lint: allow(no-wall-clock) -- nothing here anymore\nfn f() {}\n";
        let fs = lint_source("crates/stats/src/x.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, RuleId::AllowHygiene);
        assert!(fs[0].message.contains("stale"));
        assert!(fs[0].suppressed.is_none());
    }

    #[test]
    fn json_report_validates_and_counts() {
        let report = Report {
            files_scanned: 2,
            findings: lint_source(
                "crates/core/src/x.rs",
                "use std::collections::HashMap;\nfn f(m: HashMap<u32, u32>) {}\n",
            ),
        };
        assert_eq!(report.unsuppressed_count(), 2);
        let json = report.to_json();
        st_trace::json::validate(&json).unwrap();
        assert!(json.contains("\"no-unordered-iteration\":2"));
    }

    #[test]
    fn wrong_rule_suppression_does_not_cover_and_goes_stale() {
        let src = "use std::collections::HashMap; // st-lint: allow(no-wall-clock) -- wrong rule\n";
        let fs = lint_source("crates/sim/src/x.rs", src);
        // The HashMap finding survives, and the mismatched allow is stale.
        assert_eq!(fs.len(), 2);
        assert!(fs
            .iter()
            .any(|f| f.rule == RuleId::NoUnorderedIteration && f.suppressed.is_none()));
        assert!(fs.iter().any(|f| f.rule == RuleId::AllowHygiene));
    }
}
