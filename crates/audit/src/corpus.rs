//! The seeded self-test corpus: known-bad and known-good snippets.
//!
//! Every rule ships with source snippets that must fire and snippets
//! that must stay silent. The corpus runs in `cargo test` and behind
//! `hdd-audit --self-test`, so a scanner regression (a rule that goes
//! blind, or one that starts false-positive-ing on strings, comments or
//! test modules) fails CI before it can erode the enforced invariants.

use crate::report::Finding;
use crate::workspace::{audit_source, has_deny_header, toml_section_has};

/// One corpus case: a virtual file audited in isolation.
pub struct CorpusCase {
    /// Case name (shown on failure).
    pub name: &'static str,
    /// Virtual workspace-relative path — decides which rules apply.
    pub path: &'static str,
    /// Source text to audit.
    pub source: &'static str,
    /// Expected `(rule, unsuppressed_count)` pairs; rules not listed
    /// must report zero unsuppressed findings.
    pub expect: &'static [(&'static str, usize)],
    /// Expected total suppressed findings.
    pub expect_suppressed: usize,
}

/// The corpus.
#[must_use]
pub fn cases() -> Vec<CorpusCase> {
    vec![
        // ---------------------------------------------------- R1
        CorpusCase {
            name: "r1_bad_engine_reads_wall_clock",
            path: "crates/serve/src/engine.rs",
            source: "fn tick(&mut self) {\n    let started = std::time::Instant::now();\n    let waited = started.elapsed();\n}",
            expect: &[("R1", 2)], // `Instant` + `.elapsed()`
            expect_suppressed: 0,
        },
        CorpusCase {
            name: "r1_bad_checkpoint_stamps_systemtime",
            path: "crates/serve/src/checkpoint.rs",
            source: "use std::time::SystemTime;\nfn stamp() -> SystemTime { SystemTime::now() }",
            expect: &[("R1", 3)],
            expect_suppressed: 0,
        },
        CorpusCase {
            name: "r1_good_bench_is_allowlisted",
            path: "crates/bench/src/lib.rs",
            source: "fn time() { let t = std::time::Instant::now(); let _ = t.elapsed(); }",
            expect: &[],
            expect_suppressed: 0,
        },
        CorpusCase {
            name: "r1_good_tokens_in_strings_and_comments",
            path: "crates/serve/src/engine.rs",
            source: "// Instant::now() is banned here; see DESIGN.md.\nfn f() -> &'static str {\n    \"SystemTime::now()\"\n}\nconst DOC: &str = r#\"call .elapsed() at your peril\"#;",
            expect: &[],
            expect_suppressed: 0,
        },
        CorpusCase {
            name: "r1_good_cfg_test_module_is_exempt",
            path: "crates/serve/src/engine.rs",
            source: "fn live() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn timing() { let t = std::time::Instant::now(); let _ = t.elapsed(); }\n}",
            expect: &[],
            expect_suppressed: 0,
        },
        CorpusCase {
            name: "r1_suppressed_with_reason_is_counted",
            path: "crates/serve/src/reload.rs",
            source: "// audit:allow(R1) reason=\"mtime fingerprint, never engine state\"\nuse std::time::SystemTime;",
            expect: &[],
            expect_suppressed: 1,
        },
        // ---------------------------------------------------- R2
        CorpusCase {
            name: "r2_bad_hashmap_iteration_in_merge",
            path: "crates/serve/src/merge.rs",
            source: "use std::collections::HashMap;\nfn emit(pending: HashMap<u64, u64>) {\n    for alarm in &pending { drop(alarm); }\n    let ks = pending.keys();\n    let vs = pending.values();\n}",
            expect: &[("R2", 3)],
            expect_suppressed: 0,
        },
        CorpusCase {
            name: "r2_bad_hashset_drain_in_json",
            path: "crates/json/src/container.rs",
            source: "fn f() {\n    let mut seen = std::collections::HashSet::new();\n    for s in seen.drain() { drop(s); }\n}",
            expect: &[("R2", 1)],
            expect_suppressed: 0,
        },
        CorpusCase {
            name: "r2_good_keyed_lookup_only",
            path: "crates/eval/src/triage.rs",
            source: "use std::collections::HashMap;\nfn f(m: &HashMap<u64, u64>) -> Option<&u64> {\n    m.get(&7)\n}",
            expect: &[],
            expect_suppressed: 0,
        },
        CorpusCase {
            name: "r2_good_btreemap_iteration_is_ordered",
            path: "crates/serve/src/merge.rs",
            source: "use std::collections::BTreeMap;\nfn emit(pending: BTreeMap<u64, u64>) {\n    for alarm in &pending { drop(alarm); }\n    let _ = pending.keys();\n}",
            expect: &[],
            expect_suppressed: 0,
        },
        CorpusCase {
            name: "r2_good_out_of_scope_crate",
            path: "crates/stats/src/features.rs",
            source: "use std::collections::HashMap;\nfn f(m: HashMap<u64, u64>) { for x in &m { drop(x); } }",
            expect: &[],
            expect_suppressed: 0,
        },
        // ---------------------------------------------------- R3
        CorpusCase {
            name: "r3_bad_panics_in_hot_path",
            path: "crates/serve/src/topology.rs",
            source: "fn f(v: &[u32], o: Option<u32>) -> u32 {\n    let a = o.unwrap();\n    let b = o.expect(\"present\");\n    if v.is_empty() { panic!(\"no rows\"); }\n    a + b + v[0]\n}",
            expect: &[("R3", 4)],
            expect_suppressed: 0,
        },
        CorpusCase {
            name: "r3_bad_todo_and_unimplemented",
            path: "crates/par/src/lib.rs",
            source: "fn f() { todo!() }\nfn g() { unimplemented!() }",
            expect: &[("R3", 2)],
            expect_suppressed: 0,
        },
        CorpusCase {
            name: "r3_good_fallible_and_total_forms",
            path: "crates/serve/src/topology.rs",
            source: "fn f(v: &[u32], o: Option<u32>) -> u32 {\n    let a = o.unwrap_or(0);\n    let b = v.first().copied().unwrap_or_default();\n    let s = &v[..];\n    a + b + s.len() as u32\n}",
            expect: &[],
            expect_suppressed: 0,
        },
        CorpusCase {
            name: "r3_good_attributes_and_slice_patterns",
            path: "crates/serve/src/router.rs",
            source: "#[derive(Debug, Clone)]\nstruct S { x: [u8; 4] }\nfn f(parts: &[u32]) -> u32 {\n    if let [a, b] = parts { a + b } else { 0 }\n}",
            expect: &[],
            expect_suppressed: 0,
        },
        CorpusCase {
            name: "r3_good_test_module_unwraps_freely",
            path: "crates/serve/src/queue.rs",
            source: "fn live() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let v = vec![1]; assert_eq!(v[0], Some(1).unwrap()); }\n}",
            expect: &[],
            expect_suppressed: 0,
        },
        CorpusCase {
            name: "r3_suppressed_index_with_reason",
            path: "crates/serve/src/engine.rs",
            source: "fn f(scores: &[f64], idx: usize) -> f64 {\n    // audit:allow(R3) reason=\"idx produced by enumerate over scores\"\n    scores[idx]\n}",
            expect: &[],
            expect_suppressed: 1,
        },
        // ---------------------------------------------------- S0
        CorpusCase {
            name: "s0_bad_reasonless_directive",
            path: "crates/serve/src/engine.rs",
            source: "fn f(o: Option<u32>) -> u32 {\n    // audit:allow(R3)\n    o.unwrap()\n}",
            expect: &[("R3", 1), ("S0", 1)],
            expect_suppressed: 0,
        },
        CorpusCase {
            name: "s0_bad_stale_directive_suppresses_nothing",
            path: "crates/serve/src/engine.rs",
            source: "fn f(o: Option<u32>) -> u32 {\n    // audit:allow(R3) reason=\"was an unwrap once\"\n    o.unwrap_or(0)\n}",
            expect: &[("S0", 1)],
            expect_suppressed: 0,
        },
        CorpusCase {
            name: "s0_good_multiline_block_directive",
            path: "crates/serve/src/engine.rs",
            source: "fn f(o: Option<u32>) -> u32 {\n    /* audit:allow(R3)\n       reason=\"validated at enqueue time\" */\n    o.unwrap()\n}",
            expect: &[],
            expect_suppressed: 1,
        },
    ]
}

/// R5 manifest corpus: `(name, manifest, section, key, value, expect)`.
#[must_use]
pub fn manifest_cases() -> Vec<(&'static str, bool)> {
    vec![
        (
            "r5_good_member_inherits_workspace_lints",
            toml_section_has(
                "[package]\nname = \"hdd-x\"\n\n[lints]\nworkspace = true\n",
                "[lints]",
                "workspace",
                "true",
            ),
        ),
        (
            "r5_bad_member_missing_lints_table",
            !toml_section_has(
                "[package]\nname = \"hdd-x\"\n\n[dependencies]\n",
                "[lints]",
                "workspace",
                "true",
            ),
        ),
        (
            "r5_good_root_forbids_unsafe",
            toml_section_has(
                "[workspace.lints.rust]\nunsafe_code = \"forbid\"\n",
                "[workspace.lints.rust]",
                "unsafe_code",
                "forbid",
            ),
        ),
        (
            "r5_bad_root_missing_forbid",
            !toml_section_has(
                "[workspace.lints.rust]\nmissing_docs = \"warn\"\n",
                "[workspace.lints.rust]",
                "unsafe_code",
                "forbid",
            ),
        ),
        (
            "r5_good_deny_header_present",
            has_deny_header(&crate::lexer::scan(
                "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]",
            )),
        ),
        (
            "r5_bad_deny_header_only_in_comment",
            !has_deny_header(&crate::lexer::scan(
                "// #![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]",
            )),
        ),
    ]
}

/// Run the whole corpus; `Err` describes the first failing case.
pub fn self_test() -> Result<(), String> {
    for case in cases() {
        let findings = audit_source(case.path, case.source);
        let unsuppressed: Vec<&Finding> =
            findings.iter().filter(|f| f.suppressed.is_none()).collect();
        let suppressed = findings.len() - unsuppressed.len();
        for (rule, want) in case.expect {
            let got = unsuppressed.iter().filter(|f| f.rule == *rule).count();
            if got != *want {
                return Err(format!(
                    "corpus case `{}`: expected {want} unsuppressed {rule} finding(s), got {got}: {findings:?}",
                    case.name
                ));
            }
        }
        let expected_total: usize = case.expect.iter().map(|(_, n)| n).sum();
        if unsuppressed.len() != expected_total {
            return Err(format!(
                "corpus case `{}`: expected {expected_total} unsuppressed finding(s) total, got {}: {findings:?}",
                case.name,
                unsuppressed.len()
            ));
        }
        if suppressed != case.expect_suppressed {
            return Err(format!(
                "corpus case `{}`: expected {} suppressed finding(s), got {suppressed}: {findings:?}",
                case.name, case.expect_suppressed
            ));
        }
    }
    for (name, ok) in manifest_cases() {
        if !ok {
            return Err(format!("manifest corpus case `{name}` failed"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn corpus_passes() {
        if let Err(e) = super::self_test() {
            panic!("{e}");
        }
    }
}
