//! Per-shard row counters.
//!
//! [`ShardStats`] holds only the counters that advance when a *committed
//! line* advances shard state — they are part of the checkpointed,
//! replay-exact shard state, so a killed-and-resumed shard reports the
//! same numbers as an uninterrupted one. Breaker state *transitions*
//! qualify: the breaker advances per committed row, so the transition
//! count is replay-exact too. Daemon-level operational counters
//! (rotations, model reloads, replayed lines) are deliberately *not*
//! here: they describe the process, not the stream, and live as plain
//! counters in the serve loop. Queue drops sit in between — they are
//! per-shard but queue-level, so the topology checkpoints them beside
//! the merge state rather than inside the engine state.

use hdd_json::{usize_field, write_number, Cursor, Decoded, Field};

/// Row-level counters for one shard, serialized into its checkpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Data rows seen (header and blank lines excluded).
    pub rows_seen: usize,
    /// Rows accepted into a drive's history.
    pub rows_accepted: usize,
    /// Rows that failed structural parsing.
    pub parse_failures: usize,
    /// Rows carrying NaN or infinite values.
    pub non_finite_rows: usize,
    /// Rows with values outside the plausible range.
    pub out_of_range_rows: usize,
    /// Rows contradicting their drive's class metadata.
    pub conflicting_rows: usize,
    /// Rows at or before their drive's latest seen hour (late arrivals
    /// and duplicates; streaming is first-write-wins).
    pub stale_rows: usize,
    /// Alarms this shard produced (before the topology merge).
    pub alarms_emitted: usize,
    /// Alarm decisions suppressed while degraded.
    pub alarms_suppressed: usize,
    /// Circuit-breaker state transitions (Healthy → Degraded →
    /// Recovering → …), counted at the committed row that caused each.
    pub breaker_transitions: usize,
}

impl ShardStats {
    /// Rows dropped as unusable (the breaker's numerator).
    #[must_use]
    pub fn quarantined_rows(&self) -> usize {
        self.parse_failures + self.non_finite_rows + self.out_of_range_rows + self.conflicting_rows
    }

    /// Element-wise sum, for topology-wide status reporting.
    #[must_use]
    pub fn merged(&self, other: &ShardStats) -> ShardStats {
        let mut out = *self;
        for (_, get, get_mut) in &STAT_FIELDS {
            *get_mut(&mut out) += *get(other);
        }
        out
    }
}

/// Shared accessor type for one [`STAT_FIELDS`] entry.
type StatGet = fn(&ShardStats) -> &usize;
/// Mutable accessor type for one [`STAT_FIELDS`] entry.
type StatGetMut = fn(&mut ShardStats) -> &mut usize;

/// One entry of [`STAT_FIELDS`]: a stats counter's JSON key plus its
/// shared and mutable accessors.
type StatField = (&'static str, StatGet, StatGetMut);

/// `(json key, accessor)` for every stats counter — one table drives the
/// codec in both directions so a field can't be forgotten in one of them.
const STAT_FIELDS: [StatField; 10] = [
    ("rows_seen", |s| &s.rows_seen, |s| &mut s.rows_seen),
    (
        "rows_accepted",
        |s| &s.rows_accepted,
        |s| &mut s.rows_accepted,
    ),
    (
        "parse_failures",
        |s| &s.parse_failures,
        |s| &mut s.parse_failures,
    ),
    (
        "non_finite_rows",
        |s| &s.non_finite_rows,
        |s| &mut s.non_finite_rows,
    ),
    (
        "out_of_range_rows",
        |s| &s.out_of_range_rows,
        |s| &mut s.out_of_range_rows,
    ),
    (
        "conflicting_rows",
        |s| &s.conflicting_rows,
        |s| &mut s.conflicting_rows,
    ),
    ("stale_rows", |s| &s.stale_rows, |s| &mut s.stale_rows),
    (
        "alarms_emitted",
        |s| &s.alarms_emitted,
        |s| &mut s.alarms_emitted,
    ),
    (
        "alarms_suppressed",
        |s| &s.alarms_suppressed,
        |s| &mut s.alarms_suppressed,
    ),
    (
        "breaker_transitions",
        |s| &s.breaker_transitions,
        |s| &mut s.breaker_transitions,
    ),
];

impl ShardStats {
    /// Append the counters as a shard snapshot holds them: one
    /// `"key":n` member per [`STAT_FIELDS`] entry, in its order.
    pub(crate) fn write_json(&self, out: &mut String) {
        for (i, (key, get, _)) in STAT_FIELDS.iter().enumerate() {
            out.push(if i == 0 { '{' } else { ',' });
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
            write_number(*get(self) as f64, out);
        }
        out.push('}');
    }

    /// Read counters [`ShardStats::write_json`] wrote.
    pub(crate) fn read_json(cursor: &mut Cursor<'_>) -> Decoded<Self> {
        let mut fields: [Field<f64>; STAT_FIELDS.len()] = [None; STAT_FIELDS.len()];
        cursor.object(|key, c| {
            let slot = STAT_FIELDS.iter().position(|(k, ..)| *k == key);
            match slot.and_then(|i| fields.get_mut(i)) {
                Some(slot @ None) => *slot = Some(c.number()?),
                _ => c.skip()?,
            }
            Ok(())
        })?;
        Ok((|| {
            let mut stats = ShardStats::default();
            for ((key, _, get_mut), field) in STAT_FIELDS.iter().zip(fields) {
                *get_mut(&mut stats) = usize_field(field, key)?;
            }
            Ok(stats)
        })())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(text: &str) -> Result<ShardStats, hdd_json::JsonError> {
        ShardStats::read_json(&mut Cursor::new(text)).unwrap()
    }

    #[test]
    fn codec_round_trips_every_field() {
        let mut stats = ShardStats::default();
        for (i, (_, _, get_mut)) in STAT_FIELDS.iter().enumerate() {
            *get_mut(&mut stats) = i + 1;
        }
        let mut text = String::new();
        stats.write_json(&mut text);
        assert!(
            text.starts_with("{\"rows_seen\":1,\"rows_accepted\":2,"),
            "{text}"
        );
        assert_eq!(decode(&text).unwrap(), stats);
    }

    #[test]
    fn missing_field_is_rejected() {
        let mut text = String::new();
        ShardStats::default().write_json(&mut text);
        let text = text.replacen("\"stale_rows\"", "\"stole_rows\"", 1);
        let err = decode(&text).unwrap_err();
        assert_eq!(err.to_string(), "json: missing field `stale_rows`");
    }

    #[test]
    fn merged_sums_element_wise() {
        let a = ShardStats {
            rows_seen: 3,
            stale_rows: 1,
            ..ShardStats::default()
        };
        let b = ShardStats {
            rows_seen: 4,
            alarms_emitted: 2,
            ..ShardStats::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.rows_seen, 7);
        assert_eq!(m.stale_rows, 1);
        assert_eq!(m.alarms_emitted, 2);
    }
}
