//! S0: every lint suppression carries a reason
//! (`allow_attributes_without_reason`), and an `#[expect]` that
//! suppresses nothing is itself a warning (`unfulfilled_lint_expectations`,
//! see the `stale` feature).

/// s0_bad_reasonless_directive
#[expect(clippy::allow_attributes_without_reason, reason = "fixture: must fire")]
pub mod reasonless {
    /// Suppressed, but without saying why.
    #[allow(clippy::unwrap_used)]
    pub fn f(o: Option<u32>) -> u32 {
        o.unwrap()
    }
}

/// A suppression with its reason.
#[allow(
    clippy::unwrap_used,
    reason = "an `allow` with a reason passes; the workspace prefers `expect`"
)]
pub fn with_reason(o: Option<u32>) -> u32 {
    o.unwrap()
}
