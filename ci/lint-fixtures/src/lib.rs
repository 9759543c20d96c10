//! Known-bad and known-good sources for the workspace lint rules
//! (DESIGN.md §9), linted with the root `clippy.toml`.
//!
//! Every known-bad case sits under `#[expect(<lint>, reason = "fixture:
//! must fire")]`, and every known-good case is bare. Under `-D warnings`
//! a rule that stops firing leaves its expectation unfulfilled, and a
//! rule that fires on good code is a plain warning, so either fails the
//! lint run:
//!
//! ```text
//! cargo clippy --manifest-path ci/lint-fixtures/Cargo.toml --all-targets -- -D warnings
//! ```
//!
//! `--all-targets` matters: the R3 header below is `not(test)`, so test
//! code may unwrap and index, and only a test build shows that it does
//! so silently while the R1 and R2 lints still fire there.
//!
//! The `stale` feature adds an expectation that suppresses nothing; that
//! build must fail, because rustc refuses to expect
//! `unfulfilled_lint_expectations` itself.

// The R3 header of hdd-serve, hdd-par and hdd-lifecycle.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

pub mod r1;
pub mod r2;
#[cfg(not(test))]
pub mod r3;
pub mod s0;
#[cfg(feature = "stale")]
pub mod stale;
#[cfg(test)]
mod tests;
