//! Findings, aggregation, and the `AUDIT.json` machine-readable report.
//!
//! The report is the audit's contract with CI: per-rule and per-crate
//! counts, every unsuppressed finding, and every honored suppression
//! with its reason. Suppressions are first-class output — a growing
//! suppression count is a reviewable event, not a silent drift.

use std::fmt::Write as _;

/// One audited violation, after suppression matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Canonical rule id (`R1` … `R3`, `R5`, `S0`).
    pub rule: String,
    /// Workspace-relative file path (`/`-separated).
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// Crate the file belongs to.
    pub krate: String,
    /// What was found.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// `Some(reason)` when an `audit:allow` directive covers it.
    pub suppressed: Option<String>,
}

/// Aggregated audit outcome for a whole workspace run.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Every finding, suppressed or not, in (file, line) order.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl AuditReport {
    /// Findings no directive covers — these fail the build.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }

    /// Findings covered by an `audit:allow` directive.
    pub fn suppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_some())
    }

    /// Count of unsuppressed findings (the CI gate).
    #[must_use]
    pub fn n_unsuppressed(&self) -> usize {
        self.unsuppressed().count()
    }

    /// Count of suppressed findings (the drift metric).
    #[must_use]
    pub fn n_suppressed(&self) -> usize {
        self.suppressed().count()
    }

    /// `(rule, unsuppressed, suppressed)` for every known rule, in
    /// rule-id order — `AUDIT.json` always carries a row per rule so a
    /// schema gate can prove none was silently dropped.
    #[must_use]
    pub fn per_rule(&self) -> Vec<(String, usize, usize)> {
        crate::rules::RULES
            .iter()
            .map(|(id, _, _)| {
                let open = self
                    .findings
                    .iter()
                    .filter(|f| f.rule == *id && f.suppressed.is_none())
                    .count();
                let allowed = self
                    .findings
                    .iter()
                    .filter(|f| f.rule == *id && f.suppressed.is_some())
                    .count();
                ((*id).to_string(), open, allowed)
            })
            .collect()
    }

    /// `(crate, unsuppressed, suppressed)` for every crate with at
    /// least one finding, sorted by crate name.
    #[must_use]
    pub fn per_crate(&self) -> Vec<(String, usize, usize)> {
        let mut crates: Vec<String> = self.findings.iter().map(|f| f.krate.clone()).collect();
        crates.sort();
        crates.dedup();
        crates
            .into_iter()
            .map(|k| {
                let open = self
                    .findings
                    .iter()
                    .filter(|f| f.krate == k && f.suppressed.is_none())
                    .count();
                let allowed = self
                    .findings
                    .iter()
                    .filter(|f| f.krate == k && f.suppressed.is_some())
                    .count();
                (k, open, allowed)
            })
            .collect()
    }

    /// Render the machine-readable `AUDIT.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"version\": 1,\n  \"tool\": \"hdd-audit\",\n");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(s, "  \"total_unsuppressed\": {},", self.n_unsuppressed());
        let _ = writeln!(s, "  \"total_suppressed\": {},", self.n_suppressed());

        s.push_str("  \"rules\": [\n");
        let rules = self.per_rule();
        for (i, (id, open, allowed)) in rules.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"id\": {}, \"name\": {}, \"unsuppressed\": {open}, \"suppressed\": {allowed}}}",
                json_str(id),
                json_str(crate::rules::rule_name(id)),
            );
            s.push_str(if i + 1 < rules.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ],\n");

        s.push_str("  \"crates\": [\n");
        let crates = self.per_crate();
        for (i, (k, open, allowed)) in crates.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"crate\": {}, \"unsuppressed\": {open}, \"suppressed\": {allowed}}}",
                json_str(k)
            );
            s.push_str(if i + 1 < crates.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ],\n");

        s.push_str("  \"findings\": [\n");
        let open: Vec<&Finding> = self.unsuppressed().collect();
        for (i, f) in open.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"snippet\": {}}}",
                json_str(&f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.message),
                json_str(&f.snippet),
            );
            s.push_str(if i + 1 < open.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ],\n");

        s.push_str("  \"suppressions\": [\n");
        let allowed: Vec<&Finding> = self.suppressed().collect();
        for (i, f) in allowed.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {}}}",
                json_str(&f.rule),
                json_str(&f.file),
                f.line,
                json_str(f.suppressed.as_deref().unwrap_or("")),
            );
            s.push_str(if i + 1 < allowed.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Render the human-readable console summary.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for f in self.unsuppressed() {
            let _ = writeln!(
                s,
                "{}:{}: [{} {}] {}\n    {}",
                f.file,
                f.line,
                f.rule,
                crate::rules::rule_name(&f.rule),
                f.message,
                f.snippet
            );
        }
        let _ = writeln!(s, "rule                     unsuppressed  suppressed");
        for (id, open, allowed) in self.per_rule() {
            let _ = writeln!(
                s,
                "{id} {:<20} {open:>12}  {allowed:>10}",
                crate::rules::rule_name(&id)
            );
        }
        let _ = writeln!(
            s,
            "audited {} files: {} unsuppressed finding(s), {} suppression(s)",
            self.files_scanned,
            self.n_unsuppressed(),
            self.n_suppressed()
        );
        s
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &str, suppressed: Option<&str>) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: "crates/x/src/lib.rs".to_string(),
            line: 3,
            krate: "hdd-x".to_string(),
            message: "msg".to_string(),
            snippet: "let x = 1;".to_string(),
            suppressed: suppressed.map(String::from),
        }
    }

    #[test]
    fn json_always_has_a_row_per_rule() {
        let report = AuditReport {
            findings: vec![finding("R1", None), finding("R3", Some("ok"))],
            files_scanned: 2,
        };
        let json = report.to_json();
        for (id, _, _) in crate::rules::RULES {
            assert!(
                json.contains(&format!("\"id\": \"{id}\"")),
                "{id} row missing"
            );
        }
        assert!(json.contains("\"total_unsuppressed\": 1"));
        assert!(json.contains("\"total_suppressed\": 1"));
        assert!(json.contains("\"reason\": \"ok\""));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn per_crate_counts() {
        let report = AuditReport {
            findings: vec![finding("R1", None), finding("R1", Some("why"))],
            files_scanned: 1,
        };
        assert_eq!(report.per_crate(), vec![("hdd-x".to_string(), 1, 1)]);
    }
}
