//! Inline suppression directives.
//!
//! A finding can be acknowledged in place with a comment:
//!
//! ```text
//! // audit:allow(R3) reason="index is bounds-checked two lines up"
//! let v = scores[idx];
//! ```
//!
//! The directive names one or more rules (`audit:allow(R1,R3)`; rule
//! names like `wall_clock` are accepted too) and **must** carry a
//! non-empty `reason="…"` string — a reason-less directive suppresses
//! nothing and is itself reported (rule `S0`), as is a directive that
//! names an unknown rule or matches no finding. A trailing comment
//! applies to its own line; a comment alone on its line(s) — including
//! a multi-line block comment — applies to the next line holding code.
//! Every honored suppression is counted and listed in `AUDIT.json`;
//! suppressions are audited surface, not an escape hatch.

use crate::lexer::{Comment, Scanned};

/// A parsed `audit:allow(…)` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Rule ids the directive names (normalized to upper-case ids where
    /// possible, e.g. `R1`; unknown names are kept verbatim).
    pub rules: Vec<String>,
    /// The mandatory justification. `None` means the directive is
    /// malformed and suppresses nothing.
    pub reason: Option<String>,
    /// Line the directive comment starts on.
    pub comment_line: u32,
    /// The code line the directive applies to.
    pub applies_to: u32,
    /// Whether any finding actually matched this suppression.
    pub used: bool,
}

/// Extract every suppression directive from a file's comments.
#[must_use]
pub fn parse_suppressions(scanned: &Scanned) -> Vec<Suppression> {
    let mut out = Vec::new();
    for comment in &scanned.comments {
        if let Some(mut s) = parse_directive(comment) {
            s.applies_to = if scanned.has_code_on(comment.line) {
                comment.line
            } else {
                scanned
                    .next_code_line_after(comment.end_line)
                    .unwrap_or(comment.end_line + 1)
            };
            out.push(s);
        }
    }
    out
}

/// Parse one comment body; `None` when it holds no directive.
///
/// Doc comments (`///`, `//!`, `/** */`) never carry directives — they
/// *describe* the syntax (as this crate's own docs do); a directive
/// must live in a plain `//` or `/* */` comment next to the code it
/// covers.
fn parse_directive(comment: &Comment) -> Option<Suppression> {
    let text = &comment.text;
    if text.starts_with('/') || text.starts_with('!') || text.starts_with('*') {
        return None;
    }
    let at = text.find("audit:allow(")?;
    let rest = &text[at + "audit:allow(".len()..];
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| normalize_rule(r.trim()))
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return None;
    }
    let after = &rest[close + 1..];
    let reason = after.find("reason=\"").and_then(|p| {
        let r = &after[p + "reason=\"".len()..];
        let end = r.find('"')?;
        let reason = r[..end].trim();
        if reason.is_empty() {
            None
        } else {
            Some(reason.to_string())
        }
    });
    Some(Suppression {
        rules,
        reason,
        comment_line: comment.line,
        applies_to: 0,
        used: false,
    })
}

/// Map rule aliases (`wall_clock`, `r1`, `R1`) to canonical ids.
fn normalize_rule(name: &str) -> String {
    match name.to_ascii_lowercase().as_str() {
        "r1" | "wall_clock" => "R1".to_string(),
        "r2" | "unordered_iter" => "R2".to_string(),
        "r3" | "panic_surface" => "R3".to_string(),
        "r5" | "crate_hygiene" => "R5".to_string(),
        _ => name.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    #[test]
    fn trailing_directive_applies_to_its_own_line() {
        let s = scan("let a = 1; // audit:allow(R3) reason=\"known safe\"\nlet b = 2;");
        let sup = parse_suppressions(&s);
        assert_eq!(sup.len(), 1);
        assert_eq!(sup[0].applies_to, 1);
        assert_eq!(sup[0].rules, vec!["R3"]);
        assert_eq!(sup[0].reason.as_deref(), Some("known safe"));
    }

    #[test]
    fn standalone_directive_applies_to_next_code_line() {
        let s = scan("// audit:allow(wall_clock) reason=\"bench only\"\n\nlet t = now();");
        let sup = parse_suppressions(&s);
        assert_eq!(sup[0].applies_to, 3);
        assert_eq!(sup[0].rules, vec!["R1"]);
    }

    #[test]
    fn multiline_block_directive_applies_past_its_end() {
        let s = scan("/* audit:allow(R2)\n   reason=\"emitted sorted below\" */\nfor x in m {}");
        let sup = parse_suppressions(&s);
        assert_eq!(sup.len(), 1);
        assert_eq!(sup[0].applies_to, 3);
        assert_eq!(sup[0].reason.as_deref(), Some("emitted sorted below"));
    }

    #[test]
    fn missing_reason_is_malformed() {
        let s = scan("// audit:allow(R1)\nlet t = 1;");
        let sup = parse_suppressions(&s);
        assert_eq!(sup.len(), 1);
        assert!(sup[0].reason.is_none());
    }

    #[test]
    fn multiple_rules_parse() {
        let s = scan("// audit:allow(R1, r3) reason=\"both\"\nf();");
        let sup = parse_suppressions(&s);
        assert_eq!(sup[0].rules, vec!["R1", "R3"]);
    }
}
