//! Deterministic cross-shard alarm ordering.
//!
//! Shards produce alarms tagged with the seq of the line that raised
//! them; the merge stage decides *when* an alarm may reach the sink and
//! in *what order*, such that the sink bytes do not depend on shard
//! count or poll interleaving:
//!
//! - **Watermark emission**: each tick, every buffered alarm whose seq
//!   is below the topology watermark (no shard can still produce a
//!   smaller seq) is emitted, sorted by `(seq, shard)` — seqs are
//!   unique, so this is simply seq order. Consecutive emissions cover
//!   contiguous seq ranges, and concatenating sorted disjoint ascending
//!   ranges is globally sorted: chunk boundaries cannot change the
//!   bytes.
//! - **Idle flush**: with feeds of unequal length the watermark stalls
//!   at the shortest feed, which would hold back every alarm above it
//!   forever. When the feeds are idle and all queues are drained, the
//!   remaining alarms are flushed in seq order and their seqs recorded
//!   in the [`MergeState::ahead`] set — so a later resume (or a
//!   late-growing feed) neither re-emits them nor loses the alarms a
//!   slower feed may still raise *below* them.
//!
//! [`MergeState`] is the topology checkpoint's payload: `emitted` (the
//! low-water mark below which everything reached the sink), the `ahead`
//! seqs flushed early, and the sink length those bytes correspond to.
//! Replayed alarms whose seq the merge already emitted are dropped on
//! arrival, which is what makes crash-resume emission exactly-once.

use hdd_json::{JsonCodec, JsonError, Value};

/// The merge stage's durable state; see the module docs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MergeState {
    /// Every seq below this has been emitted.
    emitted: u64,
    /// Seqs at or above `emitted` that were flushed early on idle;
    /// sorted ascending.
    ahead: Vec<u64>,
    /// Alarm-sink bytes written when this state was captured.
    pub sink_bytes: u64,
}

impl MergeState {
    /// Fresh state: nothing emitted, empty sink.
    #[must_use]
    pub fn new() -> Self {
        MergeState::default()
    }

    /// The low-water mark: every seq below it has been emitted.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Seqs flushed early on idle, still at or above the low-water mark.
    #[must_use]
    pub fn ahead(&self) -> &[u64] {
        &self.ahead
    }

    /// Whether an alarm with this seq already reached the sink.
    #[must_use]
    pub fn already_emitted(&self, seq: u64) -> bool {
        seq < self.emitted || self.ahead.binary_search(&seq).is_ok()
    }

    /// Advance the low-water mark to `watermark` (monotone; a stale
    /// watermark is ignored) and drop `ahead` entries it now covers.
    pub fn advance(&mut self, watermark: u64) {
        if watermark > self.emitted {
            self.emitted = watermark;
            self.ahead.retain(|&s| s >= watermark);
        }
    }

    /// Record seqs flushed ahead of the watermark (idle flush). The
    /// seqs need not be sorted; the `ahead` set stays sorted and
    /// deduplicated.
    pub fn record_ahead(&mut self, seqs: impl IntoIterator<Item = u64>) {
        self.ahead.extend(seqs);
        self.ahead.sort_unstable();
        self.ahead.dedup();
    }
}

impl JsonCodec for MergeState {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("emitted".to_string(), Value::Num(self.emitted as f64)),
            (
                "ahead".to_string(),
                Value::from_f64s(self.ahead.iter().map(|&s| s as f64)),
            ),
            ("sink_bytes".to_string(), Value::Num(self.sink_bytes as f64)),
        ])
    }

    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let ahead: Vec<u64> = value
            .f64_vec_field("ahead")?
            .into_iter()
            .map(|v| v as u64)
            .collect();
        #[expect(
            clippy::indexing_slicing,
            reason = "windows(2) yields exactly-2-element slices; w[0] and w[1] always exist"
        )]
        if !ahead.windows(2).all(|w| w[0] < w[1]) {
            return Err(JsonError::new("`ahead` must be strictly ascending"));
        }
        Ok(MergeState {
            emitted: value.usize_field("emitted")? as u64,
            ahead,
            sink_bytes: value.usize_field("sink_bytes")? as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_is_monotone_and_prunes_ahead() {
        let mut m = MergeState::new();
        m.record_ahead([12, 7, 9, 7]);
        assert_eq!(m.ahead(), &[7, 9, 12]);
        assert!(m.already_emitted(9));
        assert!(!m.already_emitted(8));

        m.advance(10);
        assert_eq!(m.emitted(), 10);
        assert_eq!(m.ahead(), &[12], "covered ahead entries are dropped");
        assert!(m.already_emitted(8), "below the low-water mark");
        assert!(m.already_emitted(12));
        assert!(!m.already_emitted(11));

        m.advance(5);
        assert_eq!(m.emitted(), 10, "stale watermark is ignored");
    }

    #[test]
    fn codec_round_trips_and_validates() {
        let mut m = MergeState::new();
        m.record_ahead([4, 8]);
        m.advance(3);
        m.sink_bytes = 77;
        let text = hdd_json::to_string(&m.to_json());
        assert_eq!(
            MergeState::from_json(&hdd_json::parse(&text).unwrap()).unwrap(),
            m
        );

        let bad = text.replacen("[4,8]", "[8,4]", 1);
        assert!(MergeState::from_json(&hdd_json::parse(&bad).unwrap()).is_err());
    }
}
