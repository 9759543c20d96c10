//! s0_bad_stale_directive_suppresses_nothing: built only with the
//! `stale` feature, and that build must fail.

/// Was an unwrap once.
#[expect(clippy::unwrap_used, reason = "was an unwrap once")]
pub fn f(o: Option<u32>) -> u32 {
    o.unwrap_or(0)
}
