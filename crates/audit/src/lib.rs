//! Workspace determinism & panic-safety auditor.
//!
//! Every headline guarantee this reproduction ships — bit-identical
//! parallel training, byte-identical kill -9 checkpoint resume, the
//! seq-ordered deterministic alarm merge at any shard count — rests on
//! source-level invariants: no wall-clock reads in engine state paths,
//! no unordered-map iteration feeding sinks or checkpoints, no
//! panicking operations in the hot kernels. This crate turns those
//! conventions into enforced rules.
//!
//! It lexes the whole workspace with its own lightweight token scanner
//! ([`lexer`] — comment-, string-, raw-string- and lifetime-aware; no
//! external parser) and checks the project rule set ([`rules`]):
//!
//! | id | name            | protects                                    |
//! |----|-----------------|---------------------------------------------|
//! | R1 | `wall_clock`    | line-committed determinism, kill -9 resume   |
//! | R2 | `unordered_iter`| byte-identical sinks, checkpoints, merges    |
//! | R3 | `panic_surface` | panic-contained serve/par hot paths          |
//! | R5 | `crate_hygiene` | the shared workspace lint wall               |
//!
//! Findings can be acknowledged with `// audit:allow(rule)
//! reason="…"` directives ([`suppress`]); suppressions are themselves
//! counted and reported in the machine-readable `AUDIT.json`
//! ([`report`]). A seeded self-test corpus ([`corpus`]) proves every
//! rule fires on known-bad snippets and stays silent on known-good
//! ones. Run it via `hddpred audit` or the standalone `hdd-audit` bin.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod corpus;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod suppress;
pub mod workspace;

pub use report::{AuditReport, Finding};
pub use workspace::{audit_source, run_audit, AuditError};
