//! R1: no wall-clock reads (`Instant`, `SystemTime`, `elapsed`).

/// r1_bad_engine_reads_wall_clock
pub fn tick() {
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "fixture: must fire"
    )]
    let started = std::time::Instant::now();
    #[expect(clippy::disallowed_methods, reason = "fixture: must fire")]
    let _waited = started.elapsed();
}

/// r1_bad_checkpoint_stamps_systemtime
pub mod stamp {
    #[expect(clippy::disallowed_types, reason = "fixture: must fire")]
    use std::time::SystemTime;

    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "fixture: must fire"
    )]
    pub fn stamp() -> SystemTime {
        SystemTime::now()
    }
}

/// r1_good_tokens_in_strings_and_comments: Instant::now() is banned
/// here; see DESIGN.md.
pub fn doc() -> &'static str {
    "SystemTime::now()"
}

/// r1_good_tokens_in_strings_and_comments (raw string)
pub const DOC: &str = r#"call .elapsed() at your peril"#;

/// A local method named `elapsed` is not the clock: the lint resolves
/// the method, not its name.
pub struct Stopwatch(u64);

impl Stopwatch {
    /// Ticks counted so far.
    pub fn elapsed(&self) -> u64 {
        self.0
    }
}

/// Calls the local `elapsed`, which is not the wall clock.
pub fn ticks(w: &Stopwatch) -> u64 {
    w.elapsed()
}

/// `Duration` is plain arithmetic, not a clock read.
pub fn budget() -> std::time::Duration {
    std::time::Duration::from_millis(50)
}
