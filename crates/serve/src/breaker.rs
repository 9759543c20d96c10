//! The quarantine circuit breaker: degraded mode for corrupt feeds.
//!
//! Batch ingestion refuses a whole import when too much of it is
//! quarantined ([`hdd_smart::csv::IngestPolicy`]); a daemon has no
//! "whole import" to refuse. Instead it watches the quarantined fraction
//! over a sliding window of the most recent data rows and *degrades*
//! when the feed turns to garbage: alarms are suppressed (and counted)
//! because a model voting on the survivors of a mostly-corrupt stream is
//! voting on a biased sample.
//!
//! The state machine is the classic three-state breaker, driven by row
//! counts rather than wall-clock time so that every transition is a pure
//! function of the processed line prefix (which is what makes
//! kill-and-restart runs byte-identical):
//!
//! * **Healthy** — alarms flow; trips when the window is full and the
//!   quarantined fraction exceeds the ceiling.
//! * **Degraded** (open) — alarms suppressed for `cooldown` rows while
//!   the window refreshes.
//! * **Recovering** (half-open) — alarms flow again on probation for
//!   `window` rows; one excursion above the ceiling re-trips, a clean
//!   probation closes the breaker.

use hdd_json::{
    f64_field, str_field, usize_field, usize_of, write_list, write_number, Cursor, Decoded,
    JsonError,
};
use std::collections::VecDeque;

/// Sizing and ceiling for the [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Sliding-window length in data rows.
    pub window: usize,
    /// Quarantined fraction above which the breaker trips.
    pub max_fraction: f64,
    /// Rows to stay degraded before going half-open.
    pub cooldown: usize,
}

impl BreakerConfig {
    /// A breaker over the last `window` rows tripping above
    /// `max_fraction`, with a cooldown of one full window.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `cooldown` is zero, or `max_fraction` is
    /// outside `[0, 1]`.
    #[must_use]
    pub fn new(window: usize, max_fraction: f64) -> Self {
        let config = BreakerConfig {
            window,
            max_fraction,
            cooldown: window,
        };
        config.validate();
        config
    }

    fn validate(&self) {
        assert!(self.window >= 1, "breaker window must be at least 1 row");
        assert!(
            self.cooldown >= 1,
            "breaker cooldown must be at least 1 row"
        );
        assert!(
            (0.0..=1.0).contains(&self.max_fraction),
            "breaker ceiling must be a fraction in [0, 1]"
        );
    }
}

/// Where the breaker currently is; the counter is rows remaining in the
/// degraded / probation period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Alarms flow normally.
    Healthy,
    /// Open: alarms suppressed until the counter reaches zero.
    Degraded {
        /// Rows left before going half-open.
        remaining: usize,
    },
    /// Half-open: alarms flow, but the window is on probation.
    Recovering {
        /// Clean rows left before closing.
        probation: usize,
    },
}

impl BreakerState {
    /// Short label for status output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Healthy => "healthy",
            BreakerState::Degraded { .. } => "degraded",
            BreakerState::Recovering { .. } => "recovering",
        }
    }
}

/// The sliding-window quarantine breaker; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    /// Quarantine flags of the last `≤ window` data rows, oldest first.
    flags: VecDeque<bool>,
    /// Count of `true` flags in the window.
    quarantined: usize,
    state: BreakerState,
}

impl CircuitBreaker {
    /// A closed (healthy) breaker.
    #[must_use]
    pub fn new(config: BreakerConfig) -> Self {
        config.validate();
        CircuitBreaker {
            config,
            flags: VecDeque::with_capacity(config.window),
            quarantined: 0,
            state: BreakerState::Healthy,
        }
    }

    /// The current state.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether alarms must be suppressed right now.
    #[must_use]
    pub fn suppressing(&self) -> bool {
        matches!(self.state, BreakerState::Degraded { .. })
    }

    /// Quarantined fraction of the current window (`0.0` while empty).
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.flags.is_empty() {
            0.0
        } else {
            self.quarantined as f64 / self.flags.len() as f64
        }
    }

    fn over_ceiling(&self) -> bool {
        self.quarantined as f64 > self.config.max_fraction * self.flags.len() as f64
    }

    /// Record one data row (`quarantined` = it was dropped as unusable)
    /// and advance the state machine. Returns the new state when a
    /// transition happened, for logging.
    pub fn record(&mut self, quarantined: bool) -> Option<BreakerState> {
        if self.flags.len() == self.config.window && self.flags.pop_front() == Some(true) {
            self.quarantined -= 1;
        }
        self.flags.push_back(quarantined);
        self.quarantined += usize::from(quarantined);

        let next = match self.state {
            BreakerState::Healthy => {
                if self.flags.len() == self.config.window && self.over_ceiling() {
                    BreakerState::Degraded {
                        remaining: self.config.cooldown,
                    }
                } else {
                    self.state
                }
            }
            BreakerState::Degraded { remaining } => {
                if remaining <= 1 {
                    BreakerState::Recovering {
                        probation: self.config.window,
                    }
                } else {
                    BreakerState::Degraded {
                        remaining: remaining - 1,
                    }
                }
            }
            BreakerState::Recovering { probation } => {
                if self.over_ceiling() {
                    // One bad excursion on probation re-trips.
                    BreakerState::Degraded {
                        remaining: self.config.cooldown,
                    }
                } else if probation <= 1 {
                    BreakerState::Healthy
                } else {
                    BreakerState::Recovering {
                        probation: probation - 1,
                    }
                }
            }
        };
        let changed = next.label() != self.state.label();
        self.state = next;
        changed.then_some(next)
    }
}

impl CircuitBreaker {
    /// Append the breaker as a shard snapshot holds it: its config, the
    /// window's flags (0 or 1), the state's label and its counter.
    pub(crate) fn write_json(&self, out: &mut String) {
        let (state, counter) = match self.state {
            BreakerState::Healthy => ("healthy", 0),
            BreakerState::Degraded { remaining } => ("degraded", remaining),
            BreakerState::Recovering { probation } => ("recovering", probation),
        };
        out.push_str("{\"window\":");
        write_number(self.config.window as f64, out);
        out.push_str(",\"max_fraction\":");
        write_number(self.config.max_fraction, out);
        out.push_str(",\"cooldown\":");
        write_number(self.config.cooldown as f64, out);
        out.push_str(",\"flags\":");
        write_list(out, &self.flags, |&q, out| {
            out.push(if q { '1' } else { '0' })
        });
        out.push_str(",\"state\":\"");
        out.push_str(state);
        out.push_str("\",\"counter\":");
        write_number(counter as f64, out);
        out.push('}');
    }

    /// Read a breaker [`CircuitBreaker::write_json`] wrote.
    pub(crate) fn read_json(cursor: &mut Cursor<'_>) -> Decoded<Self> {
        let (mut window, mut max_fraction, mut cooldown) = (None, None, None);
        let (mut state, mut counter) = (None, None);
        let (mut flags, mut read, mut integers) = (VecDeque::new(), None, true);
        cursor.object(|key, c| {
            match key {
                "window" if window.is_none() => window = Some(c.number()?),
                "max_fraction" if max_fraction.is_none() => max_fraction = Some(c.number()?),
                "cooldown" if cooldown.is_none() => cooldown = Some(c.number()?),
                "state" if state.is_none() => state = Some(c.string()?),
                "counter" if counter.is_none() => counter = Some(c.number()?),
                "flags" if read.is_none() => {
                    read = Some(c.numbers(|n| match usize_of(n) {
                        Some(flag) => flags.push_back(flag != 0),
                        None => integers = false,
                    })?);
                }
                _ => c.skip()?,
            }
            Ok(())
        })?;
        Ok((|| {
            let config = BreakerConfig {
                window: usize_field(window, "window")?,
                max_fraction: f64_field(max_fraction, "max_fraction")?,
                cooldown: usize_field(cooldown, "cooldown")?,
            };
            if config.window == 0
                || config.cooldown == 0
                || !(0.0..=1.0).contains(&config.max_fraction)
            {
                return Err(JsonError::new("invalid breaker configuration"));
            }
            match read {
                None => return Err(JsonError::missing("flags")),
                Some(None) => return Err(JsonError::expected("array", "flags")),
                Some(Some(numbers)) if !(numbers && integers) => {
                    return Err(JsonError::expected("integer", "flags"))
                }
                Some(Some(_)) => {}
            }
            if flags.len() > config.window {
                return Err(JsonError::new(format!(
                    "{} flags in a {}-row breaker window",
                    flags.len(),
                    config.window
                )));
            }
            let counter = usize_field(counter, "counter")?;
            let state = match str_field(&state, "state")? {
                "healthy" => BreakerState::Healthy,
                "degraded" => BreakerState::Degraded { remaining: counter },
                "recovering" => BreakerState::Recovering { probation: counter },
                other => return Err(JsonError::new(format!("unknown breaker state `{other}`"))),
            };
            let quarantined = flags.iter().filter(|&&q| q).count();
            Ok(CircuitBreaker {
                config,
                flags,
                quarantined,
                state,
            })
        })())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(b: &CircuitBreaker) -> String {
        let mut text = String::new();
        b.write_json(&mut text);
        text
    }

    fn decode(text: &str) -> Result<CircuitBreaker, JsonError> {
        CircuitBreaker::read_json(&mut Cursor::new(text)).unwrap()
    }

    fn breaker(window: usize, max_fraction: f64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig::new(window, max_fraction))
    }

    #[test]
    fn stays_healthy_below_the_ceiling() {
        let mut b = breaker(10, 0.3);
        for i in 0..100 {
            b.record(i % 5 == 0); // 20% quarantined
        }
        assert_eq!(b.state(), BreakerState::Healthy);
        assert!(!b.suppressing());
    }

    #[test]
    fn trips_only_once_the_window_is_full() {
        let mut b = breaker(10, 0.3);
        // Four straight quarantined rows: 100% of a partial window, but
        // no trip until ten rows have been seen.
        for _ in 0..4 {
            b.record(true);
        }
        assert_eq!(b.state(), BreakerState::Healthy);
        for _ in 0..6 {
            b.record(false);
        }
        assert!(b.suppressing(), "4/10 quarantined is over a 0.3 ceiling");
    }

    #[test]
    fn full_cycle_heals_on_a_clean_feed() {
        let mut b = breaker(10, 0.2);
        let mut transitions = Vec::new();
        // 10 corrupt rows trip it; then a clean feed forever.
        for i in 0..200 {
            if let Some(state) = b.record(i < 10) {
                transitions.push((i, state.label()));
            }
        }
        // Tripped at the 10th row, half-open after the 10-row cooldown,
        // healthy after the 10-row probation.
        assert_eq!(
            transitions,
            vec![(9, "degraded"), (19, "recovering"), (29, "healthy")]
        );
    }

    #[test]
    fn dirty_probation_re_trips() {
        let mut b = breaker(4, 0.25);
        for _ in 0..4 {
            b.record(true);
        }
        assert!(b.suppressing());
        for _ in 0..4 {
            b.record(false); // cooldown passes
        }
        assert!(matches!(b.state(), BreakerState::Recovering { .. }));
        // One bad row is exactly the 1-in-4 ceiling — still on probation.
        b.record(true);
        assert!(matches!(b.state(), BreakerState::Recovering { .. }));
        // A second bad row (2/4 > 0.25) re-trips.
        b.record(true);
        assert!(b.suppressing(), "excursion on probation must re-trip");
    }

    #[test]
    fn fraction_tracks_the_window() {
        let mut b = breaker(4, 0.9);
        assert_eq!(b.fraction(), 0.0);
        b.record(true);
        b.record(false);
        assert!((b.fraction() - 0.5).abs() < 1e-12);
        for _ in 0..4 {
            b.record(false);
        }
        assert_eq!(b.fraction(), 0.0, "old flags slide out");
    }

    #[test]
    fn json_round_trip_preserves_behavior() {
        let mut a = breaker(8, 0.25);
        for i in 0..13 {
            a.record(i % 3 == 0);
        }
        let mut b = decode(&encode(&a)).unwrap();
        assert_eq!(a.state().label(), b.state().label());
        assert_eq!(a.fraction(), b.fraction());
        // Identical future behavior, not just identical snapshots.
        for i in 0..40 {
            let q = i % 2 == 0;
            assert_eq!(a.record(q), b.record(q), "diverged at row {i}");
        }
    }

    #[test]
    fn json_rejects_bad_shapes() {
        let mut b = breaker(4, 0.5);
        b.record(true);
        let text = encode(&b);
        for bad in [
            text.replacen("\"window\":4", "\"window\":0", 1),
            text.replacen("\"max_fraction\":0.5", "\"max_fraction\":7", 1),
            text.replacen("healthy", "confused", 1),
            text.replacen("\"flags\":[1]", "\"flags\":[1,0,0,1,1]", 1),
        ] {
            assert!(decode(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_is_rejected() {
        let _ = BreakerConfig::new(0, 0.1);
    }
}
