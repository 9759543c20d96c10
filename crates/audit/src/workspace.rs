//! Workspace discovery and audit orchestration.
//!
//! Walks every `.rs` file of the workspace (skipping `target/` and VCS
//! directories), runs the source rules (R1–R3) over each, applies
//! inline suppressions, reports malformed and stale directives (S0), and
//! layers on the manifest-level crate-hygiene rule (R5): every member
//! must inherit the shared lint wall via `[lints] workspace = true`, the
//! root manifest must forbid `unsafe_code` in `[workspace.lints.rust]`,
//! and every crate root must carry the unwrap/expect deny header (which
//! cannot move into TOML because its `cfg_attr(not(test), …)` test
//! exemption has no manifest equivalent).

use crate::lexer::{scan, test_line_spans, test_regions, Scanned};
use crate::report::{AuditReport, Finding};
use crate::rules::{check_file, FileCtx, RULES};
use crate::suppress::parse_suppressions;
use std::path::{Path, PathBuf};

/// Why an audit run could not complete (distinct from findings).
#[derive(Debug)]
pub enum AuditError {
    /// The root does not look like the hddpred workspace.
    NotAWorkspace(PathBuf),
    /// Reading a file or directory failed.
    Io(PathBuf, std::io::Error),
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::NotAWorkspace(p) => {
                write!(f, "{}: no workspace Cargo.toml here", p.display())
            }
            AuditError::Io(p, e) => write!(f, "{}: {e}", p.display()),
        }
    }
}

impl std::error::Error for AuditError {}

/// Audit the workspace rooted at `root`.
pub fn run_audit(root: &Path) -> Result<AuditReport, AuditError> {
    let root_manifest = root.join("Cargo.toml");
    let manifest_text = std::fs::read_to_string(&root_manifest)
        .map_err(|e| AuditError::Io(root_manifest.clone(), e))?;
    if !manifest_text.contains("[workspace]") {
        return Err(AuditError::NotAWorkspace(root.to_path_buf()));
    }

    let mut report = AuditReport::default();
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    for rel in &files {
        let abs = root.join(rel);
        let source = std::fs::read_to_string(&abs).map_err(|e| AuditError::Io(abs.clone(), e))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        report.findings.extend(audit_source(&rel_str, &source));
        report.files_scanned += 1;
    }

    check_hygiene(root, &manifest_text, &mut report);
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok(report)
}

/// Audit a single source file's text (also the corpus entry point):
/// lex, exempt test regions, run R1–R3, apply suppressions, and report
/// malformed or stale directives as `S0` findings.
#[must_use]
pub fn audit_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let scanned = scan(source);
    let regions = test_regions(&scanned.tokens);
    let spans = test_line_spans(&scanned.tokens, &regions);
    let ctx = FileCtx {
        rel_path,
        tokens: &scanned.tokens,
        test_spans: &spans,
        is_test_file: is_test_collateral(rel_path),
    };
    let violations = check_file(&ctx);
    let mut suppressions = parse_suppressions(&scanned);
    let krate = crate_of(rel_path);
    let lines: Vec<&str> = source.lines().collect();
    let snippet = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .map(|l| truncate(l.trim(), 120))
            .unwrap_or_default()
    };

    let mut findings = Vec::new();
    for v in violations {
        let reason = suppressions
            .iter_mut()
            .find(|s| s.applies_to == v.line && s.rules.iter().any(|r| r == v.rule))
            .and_then(|s| {
                s.used = true;
                s.reason.clone()
            });
        findings.push(Finding {
            rule: v.rule.to_string(),
            file: rel_path.to_string(),
            line: v.line,
            krate: krate.clone(),
            message: v.message,
            snippet: snippet(v.line),
            suppressed: reason,
        });
    }
    // A directive without a reason never suppresses, and one naming an
    // unknown rule or matching no finding is stale; surface both so every
    // directive in the tree is a live, reasoned suppression.
    for s in &suppressions {
        let unknown = s
            .rules
            .iter()
            .find(|r| !RULES.iter().any(|(id, _, _)| id == r));
        let message = if s.reason.is_none() {
            "audit:allow directive without a reason=\"…\" string".to_string()
        } else if let Some(rule) = unknown {
            format!("stale audit:allow directive: unknown rule `{rule}`")
        } else if !s.used {
            "stale audit:allow directive: it suppresses no finding".to_string()
        } else {
            continue;
        };
        findings.push(Finding {
            rule: "S0".to_string(),
            file: rel_path.to_string(),
            line: s.comment_line,
            krate: krate.clone(),
            message,
            snippet: snippet(s.comment_line),
            suppressed: None,
        });
    }
    findings
}

/// R5: manifest- and crate-root-level hygiene.
fn check_hygiene(root: &Path, root_manifest: &str, report: &mut AuditReport) {
    // The root workspace table must forbid unsafe code for everyone.
    if !toml_section_has(
        root_manifest,
        "[workspace.lints.rust]",
        "unsafe_code",
        "forbid",
    ) {
        report.findings.push(hygiene_finding(
            "Cargo.toml",
            "hddpred",
            "[workspace.lints.rust] must set unsafe_code = \"forbid\"",
        ));
    }

    // Every member (crates/* plus the root package) must inherit it and
    // carry the unwrap/expect deny header in its crate roots.
    let mut members: Vec<(String, PathBuf)> = vec![("hddpred".to_string(), root.to_path_buf())];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.join("Cargo.toml").is_file())
            .collect();
        dirs.sort();
        for dir in dirs {
            let name = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            members.push((name, dir));
        }
    }

    for (name, dir) in members {
        let manifest_path = dir.join("Cargo.toml");
        let rel_manifest = rel_to(root, &manifest_path);
        let Ok(manifest) = std::fs::read_to_string(&manifest_path) else {
            continue;
        };
        if !toml_section_has(&manifest, "[lints]", "workspace", "true") {
            report.findings.push(hygiene_finding(
                &rel_manifest,
                &name,
                "crate must inherit the shared lint wall: add `[lints]\\nworkspace = true`",
            ));
        }
        for entry in ["src/lib.rs", "src/main.rs"] {
            let src_path = dir.join(entry);
            let Ok(source) = std::fs::read_to_string(&src_path) else {
                continue;
            };
            if !has_deny_header(&scan(&source)) {
                report.findings.push(hygiene_finding(
                    &rel_to(root, &src_path),
                    &name,
                    "crate root must carry the shared deny header \
                     #![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]",
                ));
            }
        }
    }
}

/// The crate root carries the deny header when `unwrap_used` and
/// `expect_used` both appear as code tokens (inside the inner
/// attribute; strings and comments don't count).
#[must_use]
pub fn has_deny_header(scanned: &Scanned) -> bool {
    let mut saw_unwrap = false;
    let mut saw_expect = false;
    for t in &scanned.tokens {
        if let crate::lexer::Tok::Ident(name) = &t.tok {
            saw_unwrap |= name == "unwrap_used";
            saw_expect |= name == "expect_used";
        }
    }
    saw_unwrap && saw_expect
}

/// Line-level TOML scan: does `section` contain `key = value` (with
/// `value` matched bare or quoted) before the next section header?
#[must_use]
pub fn toml_section_has(manifest: &str, section: &str, key: &str, value: &str) -> bool {
    let mut in_section = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_section = line == section;
            continue;
        }
        if !in_section {
            continue;
        }
        if let Some((k, v)) = line.split_once('=') {
            if k.trim() == key {
                let v = v.trim().trim_matches('"');
                return v == value;
            }
        }
    }
    false
}

fn hygiene_finding(file: &str, krate: &str, message: &str) -> Finding {
    Finding {
        rule: "R5".to_string(),
        file: file.to_string(),
        line: 1,
        krate: krate.to_string(),
        message: message.to_string(),
        snippet: String::new(),
        suppressed: None,
    }
}

/// Truncate to at most `max` chars (snippets stay single-line short).
fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max).collect();
        format!("{cut}…")
    }
}

fn rel_to(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Paths whose contents are test/bench/example collateral, exempt from
/// the source rules (R5 still applies to their crates).
fn is_test_collateral(rel_path: &str) -> bool {
    rel_path
        .split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

/// Crate a workspace-relative path belongs to (directory under
/// `crates/`, else the root `hddpred` package).
fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return name.to_string();
        }
    }
    "hddpred".to_string()
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), AuditError> {
    let entries = std::fs::read_dir(dir).map_err(|e| AuditError::Io(dir.to_path_buf(), e))?;
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_turns_finding_into_reported_allow() {
        let src = "fn f(o: Option<u32>) -> u32 {\n\
                   // audit:allow(R3) reason=\"startup only, before serving\"\n\
                   o.unwrap()\n}";
        let f = audit_source("crates/serve/src/engine.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(
            f[0].suppressed.as_deref(),
            Some("startup only, before serving")
        );
    }

    #[test]
    fn reasonless_suppression_reports_s0_and_does_not_suppress() {
        let src = "fn f(o: Option<u32>) -> u32 {\n\
                   // audit:allow(R3)\n\
                   o.unwrap()\n}";
        let f = audit_source("crates/serve/src/engine.rs", src);
        let rules: Vec<&str> = f.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"R3"));
        assert!(rules.contains(&"S0"));
        assert!(f.iter().all(|f| f.suppressed.is_none()));
    }

    #[test]
    fn stale_and_unknown_rule_directives_report_s0() {
        let stale = "// audit:allow(R3) reason=\"nothing here panics\"\nfn f() {}";
        let f = audit_source("crates/serve/src/engine.rs", stale);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "S0");
        assert!(f[0].message.contains("suppresses no finding"), "{f:?}");
        let unknown = "// audit:allow(R9) reason=\"no such rule\"\nlet x = y as u16;";
        let f = audit_source("crates/core/src/compact.rs", unknown);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("unknown rule `R9`"), "{f:?}");
    }

    #[test]
    fn test_collateral_paths_are_exempt() {
        let f = audit_source("tests/serve_chaos.rs", "let t = Instant::now();");
        assert!(f.is_empty());
        let f = audit_source(
            "crates/serve/tests/chaos.rs",
            "x.unwrap(); let t = Instant::now();",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn toml_scan() {
        let m = "[package]\nname = \"x\"\n[lints]\nworkspace = true\n";
        assert!(toml_section_has(m, "[lints]", "workspace", "true"));
        assert!(!toml_section_has(m, "[lints]", "workspace", "false"));
        assert!(!toml_section_has(
            "[package]\n",
            "[lints]",
            "workspace",
            "true"
        ));
    }

    #[test]
    fn deny_header_detection() {
        let with = scan("#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]");
        assert!(has_deny_header(&with));
        let without = scan("// clippy::unwrap_used clippy::expect_used (comment only)");
        assert!(!has_deny_header(&without));
    }
}
