//! The project rule set: determinism and panic-safety invariants.
//!
//! Each rule protects a shipped guarantee:
//!
//! * **R1 `wall_clock`** — engine state must advance only on committed
//!   feed lines, never on wall-clock time; otherwise kill -9 resume and
//!   shard-count bit-identity break. `Instant`, `SystemTime` and
//!   `.elapsed()` are forbidden outside the timing-only allowlist
//!   (hdd-bench, the hdd-par tick-budget deadlines).
//! * **R2 `unordered_iter`** — anything feeding a sink, checkpoint or
//!   merge must not iterate a `HashMap`/`HashSet` (iteration order is
//!   randomized per process); use `BTreeMap` or sort before emit.
//! * **R3 `panic_surface`** — the serve and par hot paths contain
//!   worker panics with `catch_unwind`; a stray `unwrap`/`panic!`/
//!   unchecked index converts a data problem into an outage.
//! * **R5 `crate_hygiene`** — every workspace crate opts into the
//!   shared lint wall (`[lints] workspace = true` + the
//!   unwrap/expect deny header); checked at the manifest level in
//!   [`crate::workspace`].

use crate::lexer::{Tok, Token};

/// Canonical rule metadata, indexable by id.
pub const RULES: &[(&str, &str, &str)] = &[
    (
        "R1",
        "wall_clock",
        "wall-clock time (Instant/SystemTime/elapsed) outside timing-only modules",
    ),
    (
        "R2",
        "unordered_iter",
        "HashMap/HashSet iteration in sink/checkpoint/merge code",
    ),
    (
        "R3",
        "panic_surface",
        "unwrap/expect/panic!/todo!/unimplemented!/unchecked indexing in hot paths",
    ),
    (
        "R5",
        "crate_hygiene",
        "workspace crate missing the shared lint configuration",
    ),
    (
        "S0",
        "suppression_hygiene",
        "audit:allow directive without a reason, naming an unknown rule, or suppressing nothing",
    ),
];

/// Human name for a rule id.
#[must_use]
pub fn rule_name(id: &str) -> &'static str {
    RULES
        .iter()
        .find(|(rid, _, _)| *rid == id)
        .map_or("unknown", |(_, name, _)| name)
}

/// One raw rule violation (suppression not yet applied).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Canonical rule id (`R1`, `R2` or `R3`).
    pub rule: &'static str,
    /// 1-indexed source line.
    pub line: u32,
    /// What was found.
    pub message: String,
}

/// Everything a rule needs to know about one source file.
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    pub rel_path: &'a str,
    /// Code tokens.
    pub tokens: &'a [Token],
    /// Sorted `(first, last)` line spans of `#[cfg(test)]` regions.
    pub test_spans: &'a [(u32, u32)],
    /// True when the whole file is test/bench/example collateral.
    pub is_test_file: bool,
}

impl FileCtx<'_> {
    fn line_is_test(&self, line: u32) -> bool {
        self.is_test_file || self.test_spans.iter().any(|&(a, b)| line >= a && line <= b)
    }
}

/// R1 allowlist: timing-only modules where wall-clock reads are the
/// point, not a determinism hazard. Each entry carries its reason —
/// reported in `AUDIT.json` so the allowlist is audited surface too.
pub const R1_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/bench/",
        "timing harness: wall-clock measurement is its purpose",
    ),
    (
        "crates/par/src/lib.rs",
        "CancelToken tick-budget deadlines: bounds *when* work commits, never *what* commits",
    ),
];

fn r1_allowlisted(rel_path: &str) -> bool {
    R1_ALLOWLIST
        .iter()
        .any(|(prefix, _)| rel_path.starts_with(prefix))
}

/// R2 scope: crates/modules that write checkpoints, sinks, or merge
/// state — plus the historically suspect generators and fault tooling
/// whose reports feed test assertions.
const R2_SCOPE: &[&str] = &[
    "crates/serve/src/",
    "crates/json/src/",
    "crates/eval/src/triage.rs",
    "crates/fault/src/lib.rs",
    "crates/smart/src/dataset.rs",
    "crates/workload/src/",
    "crates/lifecycle/src/",
];

/// R3 scope: the serve, lifecycle and par hot paths.
const R3_SCOPE: &[&str] = &[
    "crates/serve/src/",
    "crates/par/src/",
    "crates/lifecycle/src/",
];

fn in_scope(scope: &[&str], rel_path: &str) -> bool {
    scope.iter().any(|p| rel_path.starts_with(p))
}

/// Run every source-level rule (R1–R3) over one file.
#[must_use]
pub fn check_file(ctx: &FileCtx<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    if !r1_allowlisted(ctx.rel_path) {
        check_wall_clock(ctx, &mut out);
    }
    if in_scope(R2_SCOPE, ctx.rel_path) {
        check_unordered_iter(ctx, &mut out);
    }
    if in_scope(R3_SCOPE, ctx.rel_path) {
        check_panic_surface(ctx, &mut out);
    }
    out.sort_by_key(|v| (v.line, v.rule));
    out
}

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(name)) => Some(name.as_str()),
        _ => None,
    }
}

fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

// ---------------------------------------------------------------- R1

fn check_wall_clock(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.line_is_test(t.line) {
            continue;
        }
        let Tok::Ident(name) = &t.tok else { continue };
        let hit = match name.as_str() {
            "Instant" | "SystemTime" => Some(format!("`{name}` is wall-clock state")),
            "elapsed" if punct_at(ctx.tokens, i.wrapping_sub(1), '.') => {
                Some("`.elapsed()` reads the wall clock".to_string())
            }
            _ => None,
        };
        if let Some(message) = hit {
            out.push(Violation {
                rule: "R1",
                line: t.line,
                message,
            });
        }
    }
}

// ---------------------------------------------------------------- R2

const R2_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

fn check_unordered_iter(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    let bound = hash_bound_idents(ctx.tokens);
    let tokens = ctx.tokens;
    for i in 0..tokens.len() {
        if ctx.line_is_test(tokens[i].line) {
            continue;
        }
        // receiver.method( where receiver is hash-bound
        if punct_at(tokens, i, '.') {
            let Some(method) = ident_at(tokens, i + 1) else {
                continue;
            };
            if !R2_ITER_METHODS.contains(&method) || !punct_at(tokens, i + 2, '(') {
                continue;
            }
            if let Some(recv) = ident_at(tokens, i.wrapping_sub(1)) {
                if bound.iter().any(|b| b == recv) {
                    out.push(Violation {
                        rule: "R2",
                        line: tokens[i].line,
                        message: format!(
                            "`{recv}.{method}()` iterates a hash collection in \
                             sink/checkpoint/merge scope; use BTreeMap or sort before emit"
                        ),
                    });
                }
            }
        }
        // for … in [&[mut]] receiver {
        if ident_at(tokens, i) == Some("for") {
            let mut j = i + 1;
            let limit = (i + 40).min(tokens.len());
            while j < limit && ident_at(tokens, j) != Some("in") {
                j += 1;
            }
            if j >= limit {
                continue;
            }
            let mut k = j + 1;
            if punct_at(tokens, k, '&') {
                k += 1;
            }
            if ident_at(tokens, k) == Some("mut") {
                k += 1;
            }
            if let Some(recv) = ident_at(tokens, k) {
                // plain `for x in map {` / `for x in &map {` only — a
                // method call on the receiver is handled above.
                if bound.iter().any(|b| b == recv) && punct_at(tokens, k + 1, '{') {
                    out.push(Violation {
                        rule: "R2",
                        line: tokens[i].line,
                        message: format!(
                            "`for … in {recv}` iterates a hash collection in \
                             sink/checkpoint/merge scope; use BTreeMap or sort before emit"
                        ),
                    });
                }
            }
        }
    }
}

/// Identifiers bound to a `HashMap`/`HashSet` in this file: type
/// ascriptions (`name: HashMap<…>`, incl. struct fields) and direct
/// constructions (`let name = HashMap::new()`).
fn hash_bound_idents(tokens: &[Token]) -> Vec<String> {
    let mut bound = Vec::new();
    for i in 0..tokens.len() {
        let Some(name) = ident_at(tokens, i) else {
            continue;
        };
        if name != "HashMap" && name != "HashSet" {
            continue;
        }
        // Walk back over a `std :: collections ::` path prefix.
        let mut j = i;
        while j >= 2 && punct_at(tokens, j - 1, ':') && punct_at(tokens, j - 2, ':') {
            j = j.saturating_sub(3);
            if ident_at(tokens, j).is_none() {
                break;
            }
        }
        // `binder : HashMap` — type ascription / struct field.
        if j >= 1
            && punct_at(tokens, j.wrapping_sub(1), ':')
            && !punct_at(tokens, j.wrapping_sub(2), ':')
        {
            if let Some(binder) = ident_at(tokens, j.wrapping_sub(2)) {
                bound.push(binder.to_string());
                continue;
            }
        }
        // `binder = HashMap::new()` — direct construction.
        if punct_at(tokens, j.wrapping_sub(1), '=') {
            if let Some(binder) = ident_at(tokens, j.wrapping_sub(2)) {
                bound.push(binder.to_string());
            }
        }
    }
    bound
}

// ---------------------------------------------------------------- R3

fn check_panic_surface(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    let tokens = ctx.tokens;
    for i in 0..tokens.len() {
        if ctx.line_is_test(tokens[i].line) {
            continue;
        }
        match &tokens[i].tok {
            // .unwrap() — exactly, so unwrap_or(...) stays legal.
            Tok::Punct('.') => {
                if let Some(m) = ident_at(tokens, i + 1) {
                    let flagged = match m {
                        "unwrap" => punct_at(tokens, i + 2, '(') && punct_at(tokens, i + 3, ')'),
                        "expect" => punct_at(tokens, i + 2, '('),
                        _ => false,
                    };
                    if flagged {
                        out.push(Violation {
                            rule: "R3",
                            line: tokens[i].line,
                            message: format!("`.{m}(…)` can panic in a hot path"),
                        });
                    }
                }
            }
            Tok::Ident(name)
                if matches!(name.as_str(), "panic" | "todo" | "unimplemented")
                    && punct_at(tokens, i + 1, '!') =>
            {
                out.push(Violation {
                    rule: "R3",
                    line: tokens[i].line,
                    message: format!("`{name}!` aborts a hot path"),
                });
            }
            // Postfix indexing `expr[…]`: `[` directly after an
            // identifier, `)` or `]` (never after `#`/`!`, which are
            // attributes and macro brackets; never after a keyword,
            // which is a slice pattern or array type, not indexing).
            Tok::Punct('[') if i > 0 => {
                // Full-range slicing `[..]` cannot panic.
                let full_range = punct_at(tokens, i + 1, '.')
                    && punct_at(tokens, i + 2, '.')
                    && punct_at(tokens, i + 3, ']');
                if is_postfix_bracket(tokens, i) && !full_range {
                    out.push(Violation {
                        rule: "R3",
                        line: tokens[i].line,
                        message: "unchecked slice indexing can panic in a hot path".to_string(),
                    });
                }
            }
            _ => {}
        }
    }
}

/// True when the `[` at `i` indexes the expression before it (rather
/// than opening an attribute, macro bracket, array type/literal, or
/// slice pattern).
fn is_postfix_bracket(tokens: &[Token], i: usize) -> bool {
    const KEYWORDS: &[&str] = &[
        "let", "in", "return", "mut", "ref", "match", "if", "else", "move", "loop", "while", "for",
        "break", "continue", "box", "const", "static", "type", "where", "impl", "dyn", "pub",
        "use", "fn", "struct", "enum", "union", "unsafe", "async", "await", "as",
    ];
    if i == 0 {
        return false;
    }
    match &tokens[i - 1].tok {
        Tok::Ident(name) => !KEYWORDS.contains(&name.as_str()),
        Tok::Punct(')') | Tok::Punct(']') => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{scan, test_line_spans, test_regions};

    fn check(path: &str, src: &str) -> Vec<Violation> {
        let scanned = scan(src);
        let regions = test_regions(&scanned.tokens);
        let spans = test_line_spans(&scanned.tokens, &regions);
        let ctx = FileCtx {
            rel_path: path,
            tokens: &scanned.tokens,
            test_spans: &spans,
            is_test_file: false,
        };
        check_file(&ctx)
    }

    #[test]
    fn r1_fires_on_engine_wall_clock() {
        let v = check(
            "crates/serve/src/engine.rs",
            "let t = std::time::Instant::now();",
        );
        assert_eq!(v.iter().filter(|v| v.rule == "R1").count(), 1);
    }

    #[test]
    fn r1_silent_in_allowlisted_bench() {
        let v = check("crates/bench/src/lib.rs", "let t = Instant::now();");
        assert!(v.is_empty());
    }

    #[test]
    fn r2_fires_on_hashmap_for_loop_and_methods() {
        let src = "fn f() { let m: HashMap<u32, u32> = HashMap::new();\n\
                   for x in &m { drop(x); }\n\
                   let k = m.keys(); }";
        let v = check("crates/serve/src/merge.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == "R2").count(), 2);
    }

    #[test]
    fn r2_silent_on_lookup_and_btreemap() {
        let src = "fn f() { let m: HashMap<u32, u32> = HashMap::new();\n\
                   let _ = m.get(&1); m.insert(1, 2);\n\
                   let b: BTreeMap<u32, u32> = BTreeMap::new();\n\
                   for x in &b { drop(x); } }";
        let v = check("crates/serve/src/merge.rs", src);
        assert!(v.iter().all(|v| v.rule != "R2"), "{v:?}");
    }

    #[test]
    fn r3_fires_on_unwrap_panic_and_indexing() {
        let src = "fn f(v: &[u32], o: Option<u32>) -> u32 {\n\
                   let a = o.unwrap();\n\
                   if v.is_empty() { panic!(\"empty\"); }\n\
                   a + v[0] }";
        let v = check("crates/serve/src/engine.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == "R3").count(), 3);
    }

    #[test]
    fn r3_silent_on_unwrap_or_and_test_mod() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap_or(0) }\n\
                   #[cfg(test)]\nmod tests { fn g() { None::<u32>.unwrap(); } }";
        let v = check("crates/par/src/lib.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn rules_only_apply_in_scope() {
        // unwrap in eval (not a hot path) and HashMap iteration in
        // stats (no sink) are other rules' business, not the audit's.
        assert!(check("crates/eval/src/roc.rs", "o.unwrap();").is_empty());
        let src = "let m: HashMap<u32,u32> = HashMap::new(); for x in &m {}";
        assert!(check("crates/stats/src/features.rs", src).is_empty());
    }
}
