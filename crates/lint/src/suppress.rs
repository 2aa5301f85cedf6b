//! The `st-lint: allow(<rule>) -- <reason>` suppression syntax.
//!
//! A suppression is a comment. Trailing comments suppress their own line;
//! a comment that owns its line suppresses the next line that carries
//! source tokens (consecutive suppression lines stack onto that same
//! target line). The reason after `--` is mandatory: an allow without a
//! justification is itself a finding, as is an allow that no longer
//! matches anything (`allow-hygiene`).

use crate::lexer::Comment;
use crate::rules::RuleId;

/// A parsed suppression comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule being allowed.
    pub rule: RuleId,
    /// The mandatory justification.
    pub reason: String,
    /// Line of the comment itself.
    pub comment_line: u32,
    /// Line whose findings this suppression covers.
    pub target_line: u32,
}

/// A suppression comment that could not be accepted.
#[derive(Debug, Clone)]
pub struct BadSuppression {
    /// Line of the offending comment.
    pub line: u32,
    /// What is wrong with it.
    pub why: String,
}

/// Everything extracted from a file's comments.
#[derive(Debug, Default)]
pub struct Suppressions {
    /// Well-formed suppressions.
    pub ok: Vec<Suppression>,
    /// Malformed ones (missing reason, unknown rule, …).
    pub bad: Vec<BadSuppression>,
}

const MARKER: &str = "st-lint:";

/// Extracts suppressions from a file's comments. `line_count` bounds the
/// target line of a comment on the last line of the file.
pub fn parse(comments: &[Comment], line_count: u32) -> Suppressions {
    let mut out = Suppressions::default();
    // Lines fully occupied by own-line comments: a suppression comment whose
    // prose wraps onto further `//` lines must skip past them to reach the
    // code it annotates.
    let mut comment_lines = std::collections::BTreeSet::new();
    for c in comments {
        if c.owns_line {
            for l in c.line..=c.end_line {
                comment_lines.insert(l);
            }
        }
    }
    for c in comments {
        // Doc comments are documentation (this crate's own docs describe
        // the syntax!), never annotations.
        if c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!")
        {
            continue;
        }
        let Some(at) = c.text.find(MARKER) else {
            continue;
        };
        let body = c.text[at + MARKER.len()..].trim();
        // A `hot-path` body is an annotation for the hot-path analysis
        // (see `crate::parse`), not a suppression.
        if body == "hot-path" {
            continue;
        }
        let target_line = if c.owns_line {
            // Own-line comments cover the next source line, skipping any
            // intervening comment-only lines (stacked suppressions, or a
            // suppression whose prose wraps onto a second `//` line).
            let mut t = c.end_line + 1;
            while comment_lines.contains(&t) {
                t += 1;
            }
            t.min(line_count.max(1))
        } else {
            c.line
        };
        match parse_body(body) {
            Ok((rule, reason)) => {
                if rule == RuleId::AllowHygiene {
                    out.bad.push(BadSuppression {
                        line: c.line,
                        why: "allow-hygiene cannot be suppressed".to_string(),
                    });
                } else {
                    out.ok.push(Suppression {
                        rule,
                        reason: reason.to_string(),
                        comment_line: c.line,
                        target_line,
                    });
                }
            }
            Err(why) => out.bad.push(BadSuppression { line: c.line, why }),
        }
    }
    out
}

/// Parses `allow(<rule>) -- <reason>`.
fn parse_body(body: &str) -> Result<(RuleId, &str), String> {
    let rest = body
        .strip_prefix("allow(")
        .ok_or_else(|| format!("expected `allow(<rule>) -- <reason>`, got `{body}`"))?;
    let close = rest
        .find(')')
        .ok_or_else(|| "unclosed `allow(`".to_string())?;
    let rule_name = rest[..close].trim();
    let rule = RuleId::from_name(rule_name).ok_or_else(|| format!("unknown rule `{rule_name}`"))?;
    let after = rest[close + 1..].trim_start();
    let reason = after.strip_prefix("--").map(str::trim).unwrap_or_default();
    if reason.is_empty() {
        return Err(format!(
            "allow({rule_name}) needs a reason: `st-lint: allow({rule_name}) -- <why>`"
        ));
    }
    // The shared-state whitelist is an ownership declaration, not a mere
    // excuse: the reason must name the owner.
    if rule == RuleId::SharedState && !reason.starts_with("owner:") {
        return Err(format!(
            "allow({rule_name}) must declare an owner: \
             `st-lint: allow({rule_name}) -- owner: <who>, <why>`"
        ));
    }
    Ok((rule, reason))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Suppressions {
        let lexed = lex(src);
        parse(&lexed.comments, src.lines().count() as u32)
    }

    #[test]
    fn trailing_comment_targets_own_line() {
        let s = parse_src("let x = foo(); // st-lint: allow(no-silent-cast) -- test shim\n");
        assert_eq!(s.ok.len(), 1);
        assert_eq!(s.ok[0].target_line, 1);
        assert_eq!(s.ok[0].reason, "test shim");
    }

    #[test]
    fn own_line_comment_targets_next_line() {
        let s = parse_src(
            "// st-lint: allow(no-silent-cast) -- bounded by modulo\nlet x = y as usize;\n",
        );
        assert_eq!(s.ok.len(), 1);
        assert_eq!(s.ok[0].target_line, 2);
    }

    #[test]
    fn wrapped_suppression_reaches_past_continuation_lines() {
        let s = parse_src(
            "// st-lint: allow(no-silent-cast) -- this reason is long and\n\
             // wraps onto a second comment line\n\
             let due = deadline as u32;\n",
        );
        assert_eq!(s.ok.len(), 1);
        assert_eq!(s.ok[0].target_line, 3);
    }

    #[test]
    fn missing_reason_is_rejected() {
        let s = parse_src("// st-lint: allow(no-silent-cast)\nlet x = 1;\n");
        assert!(s.ok.is_empty());
        assert_eq!(s.bad.len(), 1);
        assert!(s.bad[0].why.contains("needs a reason"), "{}", s.bad[0].why);
    }

    #[test]
    fn unknown_rule_is_rejected() {
        let s = parse_src("// st-lint: allow(no-such-rule) -- whatever\n");
        assert_eq!(s.bad.len(), 1);
        assert!(s.bad[0].why.contains("unknown rule"));
    }

    #[test]
    fn hygiene_rule_is_not_suppressible() {
        let s = parse_src("// st-lint: allow(allow-hygiene) -- nice try\n");
        assert_eq!(s.bad.len(), 1);
    }

    #[test]
    fn doc_comments_are_documentation_not_annotations() {
        let s = parse_src(
            "//! st-lint: allow(no-silent-cast) -- syntax shown in docs\n\
             /// st-lint: allow(bogus-rule)\n",
        );
        assert!(s.ok.is_empty() && s.bad.is_empty());
    }

    #[test]
    fn hot_path_annotation_is_not_a_suppression() {
        let s = parse_src("// st-lint: hot-path\nfn fire() {}\n");
        assert!(s.ok.is_empty() && s.bad.is_empty());
    }

    #[test]
    fn shared_state_allow_requires_an_owner() {
        let s = parse_src("// st-lint: allow(shared-state) -- it is fine\nstatic X: u32 = 0;\n");
        assert_eq!(s.bad.len(), 1);
        assert!(s.bad[0].why.contains("owner"), "{}", s.bad[0].why);
        let s = parse_src(
            "// st-lint: allow(shared-state) -- owner: rt thread, handoff cell\n\
             static X: u32 = 0;\n",
        );
        assert_eq!(s.ok.len(), 1);
        assert!(s.bad.is_empty());
    }

    #[test]
    fn non_lint_comments_are_ignored() {
        let s = parse_src("// a normal comment\n/* another */\n");
        assert!(s.ok.is_empty() && s.bad.is_empty());
    }
}
