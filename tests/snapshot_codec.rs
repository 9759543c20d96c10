//! The direct shard-snapshot codec against the `Value`-tree codec it
//! replaced.
//!
//! `reference` below is the previous JSON parser, kept verbatim, and
//! `tree_state` / `state_json` the previous `EngineShard::restore_state`
//! and `state_to_json` with the `JsonCodec`s they called, verbatim up to
//! the types they build (public mirrors of the engine's private ones).
//! Together they are the oracle:
//!
//! - seeded shard states (event recording on and off, unmerged alarms,
//!   failed and alarmed drives, partial voting windows, regression-tree
//!   float scores, a tripped breaker, two feeds) encode to the bytes the
//!   tree encoder writes, in the payload and in the snapshot file, and
//!   restore to a shard that encodes and serves as the original does;
//! - a corpus of mutated payloads (reordered, unknown, missing and
//!   repeated members, retyped values, whitespace, a duplicate drive, an
//!   unsorted history, 11 or 13 values, a wrong cursor count, number
//!   spellings, every truncation and seeded bit flips) is accepted or
//!   rejected as the tree decoder does, with the same error text, and a
//!   corpus of mutated snapshot documents around a payload is too, read
//!   through `ServeTopology::resume`;
//! - the cursor's integer fast path gives the bits `str::parse` gives.

use hddpred::cart::{ClassificationTreeBuilder, RegSample, RegressionTreeBuilder};
use hddpred::eval::{series_training_set, SavedModel, VotingRule};
use hddpred::hdd_json::container::seal;
use hddpred::hdd_json::disk::RealDisk;
use hddpred::hdd_json::{self, Cursor, JsonError, Value};
use hddpred::par::CancelToken;
use hddpred::serve::{
    save_snapshot, shard_path, Alarm, BreakerState, CheckpointError, CheckpointKind, EngineConfig,
    EngineShard, FeedCursor, RoutedLine, RowEvent, SeqAlarm, ServeTopology, ShardStats,
    CHECKPOINT_MAGIC,
};
use hddpred::smart::csv::write_series;
use hddpred::smart::rng::{splitmix64, DeterministicRng};
use hddpred::smart::NUM_ATTRIBUTES;
use hddpred::smart::{DatasetGenerator, DriveClass, FamilyProfile, Hour, SmartSample, SmartSeries};
use hddpred::stats::FeatureSet;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

// ------------------------------------------------------------- the oracle

/// The previous `hdd_json` parser, unchanged.
mod reference {
    use hddpred::hdd_json::{JsonError, Value};

    /// Parse a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input or trailing garbage.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.parse_value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new(format!(
                "trailing characters at byte {}",
                p.pos
            )));
        }
        Ok(value)
    }

    /// Nesting depth cap: protects the recursive parser from stack overflow
    /// on adversarial input.
    const MAX_DEPTH: usize = 128;

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn eat(&mut self, b: u8) -> Result<(), JsonError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(JsonError::new(format!(
                    "expected `{}` at byte {}",
                    b as char, self.pos
                )))
            }
        }

        fn parse_value(&mut self, depth: usize) -> Result<Value, JsonError> {
            if depth > MAX_DEPTH {
                return Err(JsonError::new("document nests too deeply"));
            }
            match self.peek() {
                Some(b'n') => self.parse_keyword("null", Value::Null),
                Some(b't') => self.parse_keyword("true", Value::Bool(true)),
                Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
                Some(b'"') => Ok(Value::Str(self.parse_string()?)),
                Some(b'[') => self.parse_array(depth),
                Some(b'{') => self.parse_object(depth),
                Some(b'-' | b'0'..=b'9') => self.parse_number(),
                _ => Err(JsonError::new(format!(
                    "unexpected input at byte {}",
                    self.pos
                ))),
            }
        }

        fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(JsonError::new(format!(
                    "invalid keyword at byte {}",
                    self.pos
                )))
            }
        }

        fn parse_number(&mut self) -> Result<Value, JsonError> {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| JsonError::new("invalid number bytes"))?;
            let n: f64 = text
                .parse()
                .map_err(|_| JsonError::new(format!("invalid number `{text}`")))?;
            if !n.is_finite() {
                return Err(JsonError::new(format!("number out of range `{text}`")));
            }
            Ok(Value::Num(n))
        }

        fn parse_string(&mut self) -> Result<String, JsonError> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(JsonError::new("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
                                let hex = std::str::from_utf8(hex)
                                    .map_err(|_| JsonError::new("invalid \\u escape"))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| JsonError::new("invalid \\u escape"))?;
                                // Surrogates are not expected in model files;
                                // map unpaired ones to the replacement char.
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                self.pos += 4;
                            }
                            _ => return Err(JsonError::new("invalid escape")),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Copy the run of plain bytes up to the next quote or
                        // backslash in one slice. Both are ASCII, so in the
                        // (valid UTF-8) input the run ends on a char boundary.
                        let rest = &self.bytes[self.pos..];
                        let len = rest
                            .iter()
                            .position(|&b| b == b'"' || b == b'\\')
                            .unwrap_or(rest.len());
                        let run = std::str::from_utf8(&rest[..len])
                            .map_err(|_| JsonError::new("invalid UTF-8"))?;
                        out.push_str(run);
                        self.pos += len;
                    }
                }
            }
        }

        fn parse_array(&mut self, depth: usize) -> Result<Value, JsonError> {
            self.eat(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.parse_value(depth + 1)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => {
                        return Err(JsonError::new(format!(
                            "expected , or ] at byte {}",
                            self.pos
                        )))
                    }
                }
            }
        }

        fn parse_object(&mut self, depth: usize) -> Result<Value, JsonError> {
            self.eat(b'{')?;
            let mut pairs = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(pairs));
            }
            loop {
                self.skip_ws();
                let key = self.parse_string()?;
                self.skip_ws();
                self.eat(b':')?;
                self.skip_ws();
                let value = self.parse_value(depth + 1)?;
                pairs.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(pairs));
                    }
                    _ => {
                        return Err(JsonError::new(format!(
                            "expected , or }} at byte {}",
                            self.pos
                        )))
                    }
                }
            }
        }
    }
}

/// A breaker as the tree codec held it.
#[derive(Debug, Clone)]
struct Breaker {
    window: usize,
    max_fraction: f64,
    cooldown: usize,
    flags: Vec<bool>,
    state: BreakerState,
}

/// A voting window as the tree codec held it: its scores oldest first.
#[derive(Debug, Clone)]
struct Voting {
    voters: usize,
    rule: VotingRule,
    scores: Vec<f64>,
}

/// A drive monitor as the tree codec held it.
#[derive(Debug, Clone)]
struct Monitor {
    class: DriveClass,
    alarmed: bool,
    history: Vec<SmartSample>,
    voting: Voting,
}

/// A shard's checkpointed state as the tree codec held it.
#[derive(Debug, Clone)]
struct State {
    cursors: Vec<FeedCursor>,
    stats: ShardStats,
    breaker: Breaker,
    unmerged: Vec<SeqAlarm>,
    events: Vec<RowEvent>,
    drives: BTreeMap<u32, Monitor>,
}

/// `ShardStats`' keys, in its codec's order.
const STAT_KEYS: [&str; 10] = [
    "rows_seen",
    "rows_accepted",
    "parse_failures",
    "non_finite_rows",
    "out_of_range_rows",
    "conflicting_rows",
    "stale_rows",
    "alarms_emitted",
    "alarms_suppressed",
    "breaker_transitions",
];

fn stat_values(s: &ShardStats) -> [usize; 10] {
    [
        s.rows_seen,
        s.rows_accepted,
        s.parse_failures,
        s.non_finite_rows,
        s.out_of_range_rows,
        s.conflicting_rows,
        s.stale_rows,
        s.alarms_emitted,
        s.alarms_suppressed,
        s.breaker_transitions,
    ]
}

/// The previous `ShardStats::from_json`.
fn tree_stats(value: &Value) -> Result<ShardStats, JsonError> {
    let mut n = [0; 10];
    for (slot, key) in n.iter_mut().zip(STAT_KEYS) {
        *slot = value.usize_field(key)?;
    }
    let [rows_seen, rows_accepted, parse_failures, non_finite_rows, out_of_range_rows, conflicting_rows, stale_rows, alarms_emitted, alarms_suppressed, breaker_transitions] =
        n;
    Ok(ShardStats {
        rows_seen,
        rows_accepted,
        parse_failures,
        non_finite_rows,
        out_of_range_rows,
        conflicting_rows,
        stale_rows,
        alarms_emitted,
        alarms_suppressed,
        breaker_transitions,
    })
}

/// The previous `CircuitBreaker::from_json`.
fn tree_breaker(value: &Value) -> Result<Breaker, JsonError> {
    let (window, max_fraction, cooldown) = (
        value.usize_field("window")?,
        value.f64_field("max_fraction")?,
        value.usize_field("cooldown")?,
    );
    if window == 0 || cooldown == 0 || !(0.0..=1.0).contains(&max_fraction) {
        return Err(JsonError::new("invalid breaker configuration"));
    }
    let raw_flags = value.usize_vec_field("flags")?;
    if raw_flags.len() > window {
        return Err(JsonError::new(format!(
            "{} flags in a {}-row breaker window",
            raw_flags.len(),
            window
        )));
    }
    let counter = value.usize_field("counter")?;
    let state = match value.str_field("state")? {
        "healthy" => BreakerState::Healthy,
        "degraded" => BreakerState::Degraded { remaining: counter },
        "recovering" => BreakerState::Recovering { probation: counter },
        other => return Err(JsonError::new(format!("unknown breaker state `{other}`"))),
    };
    let flags = raw_flags.iter().map(|&f| f != 0).collect();
    Ok(Breaker {
        window,
        max_fraction,
        cooldown,
        flags,
        state,
    })
}

/// The previous `VotingState::from_json` with `VotingRule::from_json`.
fn tree_voting(value: &Value) -> Result<Voting, JsonError> {
    let voters = value.usize_field("voters")?;
    if voters == 0 {
        return Err(JsonError::new("voting state needs at least one voter"));
    }
    let rule = match value.str_field("rule")? {
        "majority" => VotingRule::Majority,
        "mean_below" => VotingRule::MeanBelow(value.f64_field("threshold")?),
        other => return Err(JsonError::new(format!("unknown voting rule `{other}`"))),
    };
    let scores = value.f64_vec_field("scores")?;
    if scores.len() > voters {
        return Err(JsonError::new(format!(
            "{} scores in a {voters}-voter window",
            scores.len()
        )));
    }
    Ok(Voting {
        voters,
        rule,
        scores,
    })
}

/// The previous `DriveMonitor::from_json` with `class_from_json`.
fn tree_monitor(value: &Value) -> Result<Monitor, JsonError> {
    let failed = value
        .field("failed")?
        .as_bool()
        .ok_or_else(|| JsonError::new("`failed` must be a boolean"))?;
    let class = if failed {
        DriveClass::Failed {
            fail_hour: Hour(value.usize_field("fail_hour")? as u32),
        }
    } else {
        DriveClass::Good
    };
    let alarmed = value
        .field("alarmed")?
        .as_bool()
        .ok_or_else(|| JsonError::new("`alarmed` must be a boolean"))?;
    let raw_history = value
        .field("history")?
        .as_arr()
        .ok_or_else(|| JsonError::new("`history` must be an array"))?;
    let mut history = Vec::with_capacity(raw_history.len());
    for entry in raw_history {
        let hour = Hour(entry.usize_field("hour")? as u32);
        let values = entry.f64_vec_field("values")?;
        if values.len() != NUM_ATTRIBUTES {
            return Err(JsonError::new(format!(
                "history sample has {} values, expected {NUM_ATTRIBUTES}",
                values.len()
            )));
        }
        let mut sample = SmartSample {
            hour,
            values: [0.0; NUM_ATTRIBUTES],
        };
        for (slot, v) in sample.values.iter_mut().zip(&values) {
            *slot = *v as f32;
        }
        history.push(sample);
    }
    if !history.windows(2).all(|w| w[0].hour < w[1].hour) {
        return Err(JsonError::new(
            "history must be strictly increasing in time",
        ));
    }
    Ok(Monitor {
        class,
        alarmed,
        history,
        voting: tree_voting(value.field("voting")?)?,
    })
}

/// The previous `FeedCursor::from_json`.
fn tree_cursor(value: &Value) -> Result<FeedCursor, JsonError> {
    Ok(FeedCursor {
        next_line: value.usize_field("next_line")? as u64,
        offset: value.usize_field("offset")? as u64,
        generation: value.usize_field("generation")? as u64,
    })
}

/// The previous `SeqAlarm::from_json`.
fn tree_alarm(value: &Value) -> Result<SeqAlarm, JsonError> {
    Ok(SeqAlarm {
        seq: value.usize_field("seq")? as u64,
        alarm: Alarm {
            drive: value.usize_field("drive")? as u32,
            hour: value.usize_field("hour")? as u32,
        },
    })
}

/// The previous `RowEvent::from_json`.
fn tree_event(value: &Value) -> Result<RowEvent, JsonError> {
    let fail_hour = match value.get("fail_hour") {
        None => None,
        Some(v) => Some(
            v.as_usize()
                .ok_or_else(|| JsonError::expected("an hour", "fail_hour"))? as u32,
        ),
    };
    Ok(RowEvent {
        seq: value.usize_field("seq")? as u64,
        drive: value.usize_field("drive")? as u32,
        hour: value.usize_field("hour")? as u32,
        fail_hour,
        features: value.f64_vec_field("features")?,
        incumbent_score: value.f64_field("score")?,
    })
}

/// The previous `EngineShard::restore_state`, for a shard of `n_feeds`.
fn tree_state(value: &Value, n_feeds: usize) -> Result<State, JsonError> {
    let raw_cursors = value
        .field("cursors")?
        .as_arr()
        .ok_or_else(|| JsonError::new("`cursors` must be an array"))?;
    if raw_cursors.len() != n_feeds {
        return Err(JsonError::new(format!(
            "checkpoint has {} feed cursors, this topology tails {}",
            raw_cursors.len(),
            n_feeds
        )));
    }
    let cursors = raw_cursors
        .iter()
        .map(tree_cursor)
        .collect::<Result<Vec<_>, _>>()?;
    let stats = tree_stats(value.field("stats")?)?;
    let breaker = tree_breaker(value.field("breaker")?)?;
    let unmerged = value
        .field("unmerged")?
        .as_arr()
        .ok_or_else(|| JsonError::new("`unmerged` must be an array"))?
        .iter()
        .map(tree_alarm)
        .collect::<Result<Vec<_>, _>>()?;
    let events = match value.get("events") {
        None => Vec::new(),
        Some(raw) => raw
            .as_arr()
            .ok_or_else(|| JsonError::new("`events` must be an array"))?
            .iter()
            .map(tree_event)
            .collect::<Result<Vec<_>, _>>()?,
    };
    let raw_drives = value
        .field("drives")?
        .as_arr()
        .ok_or_else(|| JsonError::new("`drives` must be an array"))?;
    let mut drives = BTreeMap::new();
    for entry in raw_drives {
        let id = entry.usize_field("drive")? as u32;
        if drives.insert(id, tree_monitor(entry)?).is_some() {
            return Err(JsonError::new(format!("drive {id} appears twice")));
        }
    }
    Ok(State {
        cursors,
        stats,
        breaker,
        unmerged,
        events,
        drives,
    })
}

fn key(name: &str, value: Value) -> (String, Value) {
    (name.to_string(), value)
}

fn num(n: f64) -> Value {
    Value::Num(n)
}

/// The previous `EngineShard::state_to_json` with the `to_json`s it
/// called.
fn state_json(s: &State) -> Value {
    let cursors = s.cursors.iter().map(|c| {
        Value::Obj(vec![
            key("next_line", num(c.next_line as f64)),
            key("offset", num(c.offset as f64)),
            key("generation", num(c.generation as f64)),
        ])
    });
    let stats = STAT_KEYS
        .iter()
        .zip(stat_values(&s.stats))
        .map(|(k, v)| key(k, num(v as f64)))
        .collect();
    let b = &s.breaker;
    let (state, counter) = match b.state {
        BreakerState::Healthy => ("healthy", 0),
        BreakerState::Degraded { remaining } => ("degraded", remaining),
        BreakerState::Recovering { probation } => ("recovering", probation),
    };
    let breaker = Value::Obj(vec![
        key("window", num(b.window as f64)),
        key("max_fraction", num(b.max_fraction)),
        key("cooldown", num(b.cooldown as f64)),
        key(
            "flags",
            Value::from_usizes(b.flags.iter().map(|&q| usize::from(q))),
        ),
        key("state", Value::Str(state.to_string())),
        key("counter", num(counter as f64)),
    ]);
    let unmerged = s.unmerged.iter().map(|a| {
        Value::Obj(vec![
            key("seq", num(a.seq as f64)),
            key("drive", num(f64::from(a.alarm.drive))),
            key("hour", num(f64::from(a.alarm.hour))),
        ])
    });
    let events = s.events.iter().map(|e| {
        let mut fields = vec![
            key("seq", num(e.seq as f64)),
            key("drive", num(f64::from(e.drive))),
            key("hour", num(f64::from(e.hour))),
        ];
        if let Some(fail) = e.fail_hour {
            fields.push(key("fail_hour", num(f64::from(fail))));
        }
        fields.push(key(
            "features",
            Value::from_f64s(e.features.iter().copied()),
        ));
        fields.push(key("score", num(e.incumbent_score)));
        Value::Obj(fields)
    });
    let drives = s.drives.iter().map(|(id, m)| {
        let mut fields = vec![key("drive", num(f64::from(*id)))];
        match m.class {
            DriveClass::Good => fields.push(key("failed", Value::Bool(false))),
            DriveClass::Failed { fail_hour } => {
                fields.push(key("failed", Value::Bool(true)));
                fields.push(key("fail_hour", num(f64::from(fail_hour.0))));
            }
        }
        fields.push(key("alarmed", Value::Bool(m.alarmed)));
        let history = m.history.iter().map(|s| {
            Value::Obj(vec![
                key("hour", num(f64::from(s.hour.0))),
                key(
                    "values",
                    Value::from_f64s(s.values.iter().map(|&v| f64::from(v))),
                ),
            ])
        });
        fields.push(key("history", Value::Arr(history.collect())));
        let mut voting = vec![key("voters", num(m.voting.voters as f64))];
        match m.voting.rule {
            VotingRule::Majority => voting.push(key("rule", Value::Str("majority".into()))),
            VotingRule::MeanBelow(threshold) => {
                voting.push(key("rule", Value::Str("mean_below".into())));
                voting.push(key("threshold", num(threshold)));
            }
        }
        voting.push(key(
            "scores",
            Value::from_f64s(m.voting.scores.iter().copied()),
        ));
        fields.push(key("voting", Value::Obj(voting)));
        Value::Obj(fields)
    });
    Value::Obj(vec![
        key("cursors", Value::Arr(cursors.collect())),
        key("stats", Value::Obj(stats)),
        key("breaker", breaker),
        key("unmerged", Value::Arr(unmerged.collect())),
        key("events", Value::Arr(events.collect())),
        key("drives", Value::Arr(drives.collect())),
    ])
}

/// The oracle's reading of a payload: the tree decoder's state,
/// re-encoded by the tree encoder, or its error text.
fn oracle(text: &str, n_feeds: usize) -> Result<String, String> {
    let value = reference::parse(text).map_err(|e| e.to_string())?;
    let state = tree_state(&value, n_feeds).map_err(|e| e.to_string())?;
    Ok(hdd_json::to_string(&state_json(&state)))
}

// ---------------------------------------------------------- the shards

/// A classification tree trained on [`fleet`], so its failed drives
/// alarm.
fn ct_model() -> Arc<SavedModel> {
    static MODEL: OnceLock<Arc<SavedModel>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        let features = FeatureSet::critical13();
        let rng = DeterministicRng::new(0x5EED);
        let samples = series_training_set(fleet(), &features, 168, &rng);
        let tree = ClassificationTreeBuilder::new()
            .build(&samples)
            .expect("train CT");
        Arc::new(SavedModel::from(tree.compile()))
    }))
}

/// A 13-feature regression tree whose leaves are fractional means, so
/// the voting windows hold float scores.
fn rt_model() -> Arc<SavedModel> {
    static MODEL: OnceLock<Arc<SavedModel>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        let features = FeatureSet::critical13();
        let mut samples = Vec::new();
        for (d, s) in fleet().iter().enumerate() {
            let fail = s.class.fail_hour().map_or(u32::MAX, |h| h.0);
            for idx in (0..s.len()).step_by(5) {
                if let Some(f) = features.extract(s, idx) {
                    // Health falls in the failed drives' last week, with
                    // noise enough to make every leaf a fraction.
                    let near = s.samples()[idx].hour.0.saturating_add(168) >= fail;
                    let noise = (splitmix64((d * 10_000 + idx) as u64) % 1000) as f64 / 3000.0;
                    let health = if near { -0.8 } else { 0.6 };
                    samples.push(RegSample::new(f, health + noise));
                }
            }
        }
        let tree = RegressionTreeBuilder::new()
            .build(&samples)
            .expect("train RT");
        Arc::new(SavedModel::from(tree.compile()))
    }))
}

fn fleet() -> &'static [SmartSeries] {
    static FLEET: OnceLock<Vec<SmartSeries>> = OnceLock::new();
    FLEET.get_or_init(|| {
        let ds = DatasetGenerator::new(FamilyProfile::w().scaled(0.004), 99).generate();
        ds.drives().iter().map(|spec| ds.series(spec)).collect()
    })
}

/// The data rows of `series`, drive by drive.
fn rows(series: &[SmartSeries]) -> Vec<String> {
    let mut buf = Vec::new();
    for s in series {
        write_series(&mut buf, s).expect("write rows");
    }
    let text = String::from_utf8(buf).expect("rows are UTF-8");
    text.lines().map(str::to_string).collect()
}

/// `lines` as routed lines over `n_feeds` feeds: line `i` is seq `i`.
fn routed(lines: &[String], n_feeds: usize) -> Vec<RoutedLine> {
    let mut offsets = vec![0u64; n_feeds];
    lines
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let offset = &mut offsets[i % n_feeds];
            *offset += text.len() as u64 + 1;
            RoutedLine {
                seq: i as u64,
                text: text.as_str().into(),
                end_offset: *offset,
                generation: 0,
            }
        })
        .collect()
}

/// How a seeded shard is built.
#[derive(Debug, Clone, Copy)]
struct Recipe {
    label: &'static str,
    rt: bool,
    n_feeds: usize,
    record_events: bool,
}

impl Recipe {
    fn config(&self) -> EngineConfig {
        let rule = if self.rt {
            VotingRule::MeanBelow(0.05)
        } else {
            VotingRule::Majority
        };
        EngineConfig::new(11, rule, 0.1)
    }

    fn shard(&self) -> EngineShard {
        let model = if self.rt { rt_model() } else { ct_model() };
        let mut shard =
            EngineShard::new(model, FeatureSet::critical13(), self.config(), self.n_feeds)
                .expect("a 13-feature model");
        shard.set_record_events(self.record_events);
        shard
    }
}

fn encoded(shard: &EngineShard) -> String {
    let mut text = String::new();
    shard.write_state(&mut text);
    text
}

/// What the direct decoder makes of a payload: the restored shard,
/// re-encoded, or the error text.
fn direct(recipe: &Recipe, text: &str) -> Result<String, String> {
    let mut shard = recipe.shard();
    shard.read_state(text).map_err(|e| e.to_string())?;
    Ok(encoded(&shard))
}

fn process(shard: &mut EngineShard, lines: &[RoutedLine]) {
    let token = CancelToken::new();
    for batch in lines.chunks(97) {
        shard.process(&token, batch).expect("no deadline");
    }
}

/// A seeded shard and the lines it has not committed yet.
struct Seeded {
    recipe: Recipe,
    shard: EngineShard,
    rest: Vec<RoutedLine>,
}

/// Shards with every feature the codec must carry; see the module docs.
fn seeded() -> Vec<Seeded> {
    // Eight good drives, then the failed ones, over each one's last 120
    // hours: the failed drives alarm late in the feed.
    let good = fleet().iter().filter(|s| s.class.fail_hour().is_none());
    let failed = fleet().iter().filter(|s| s.class.fail_hour().is_some());
    let mut lines = Vec::new();
    for s in good.take(8).chain(failed.take(6)) {
        let rows = rows(std::slice::from_ref(s));
        lines.extend_from_slice(&rows[rows.len().saturating_sub(120)..]);
    }
    let plain = |label, rt, n_feeds, record_events| Recipe {
        label,
        rt,
        n_feeds,
        record_events,
    };
    let mut out = Vec::new();
    let mut build = |recipe: Recipe, lines: Vec<String>, upto: usize, drain: bool| {
        let all = routed(&lines, recipe.n_feeds);
        let (done, rest) = all.split_at(upto.min(all.len()));
        let mut shard = recipe.shard();
        process(&mut shard, done);
        if drain {
            let half = done.len() as u64 / 2;
            shard.drain_events(|e| e.seq < half);
            shard.drain_unmerged(|a| a.seq < half);
        }
        out.push(Seeded {
            recipe,
            shard,
            rest: rest.to_vec(),
        });
    };
    let n = lines.len();
    build(plain("fresh", false, 1, true), lines.clone(), 0, false);
    build(
        plain("ct, events off", false, 1, false),
        lines.clone(),
        n,
        false,
    );
    build(
        plain("ct, events on, partial", false, 1, true),
        lines.clone(),
        n * 9 / 10,
        true,
    );
    build(
        plain("rt float scores", true, 1, true),
        lines.clone(),
        n * 9 / 10,
        false,
    );
    build(
        plain("two feeds", false, 2, true),
        lines.clone(),
        n * 19 / 20,
        true,
    );
    // Every fourth line garbage over a stretch trips the breaker (10%
    // ceiling over 100 rows); the shard stops inside the stretch.
    let mut garbled = lines;
    for (i, line) in garbled.iter_mut().enumerate().skip(n / 2).take(400) {
        if i % 4 == 0 {
            *line = format!("garbage,{i}");
        }
    }
    build(
        plain("tripped breaker", false, 1, true),
        garbled,
        n / 2 + 300,
        false,
    );
    for rt in [false, true] {
        let (recipe, shard) = small(rt);
        out.push(Seeded {
            recipe,
            shard,
            rest: Vec::new(),
        });
    }
    out
}

#[test]
fn seeded_states_encode_as_the_tree_encoder_and_round_trip_exactly() {
    let dir = std::env::temp_dir().join(format!("hddpred-snapshot-codec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let snapshot = dir.join("shard.ckpt");
    let mut seen = (false, false, false, false, false, false);
    for Seeded {
        recipe,
        shard,
        rest,
    } in seeded()
    {
        let label = recipe.label;
        let text = encoded(&shard);
        let value = reference::parse(&text).expect("the encoder writes JSON");
        let state = tree_state(&value, recipe.n_feeds)
            .unwrap_or_else(|e| panic!("{label}: the tree decoder refuses it: {e}"));
        // The bytes the tree encoder writes for the state it decodes.
        assert_eq!(hdd_json::to_string(&state_json(&state)), text, "{label}");
        // The decoded state is the shard's, where the shard shows it.
        assert_eq!(state.cursors, shard.cursors(), "{label}");
        assert_eq!(state.stats, shard.stats(), "{label}");
        assert_eq!(state.breaker.state, shard.breaker_state(), "{label}");
        assert_eq!(state.unmerged, shard.unmerged(), "{label}");
        assert_eq!(state.events, shard.events(), "{label}");
        assert_eq!(state.drives.len(), shard.tracked_drives(), "{label}");
        // The snapshot file is the previous save's: the tree payload in
        // the versioned document, sealed.
        save_snapshot(&RealDisk, &snapshot, CheckpointKind::Shard, |out| {
            shard.write_state(out);
        })
        .expect("save");
        let tree = hdd_json::to_string(&state_json(&state));
        let document = format!("{{\"format_version\":2,\"kind\":\"shard\",\"payload\":{tree}}}");
        let file = std::fs::read_to_string(&snapshot).unwrap();
        assert_eq!(file, seal(CHECKPOINT_MAGIC, &document), "{label}");

        // Restored, it encodes the same bytes and serves the same future.
        let mut restored = recipe.shard();
        restored.read_state(&text).expect("restore");
        assert_eq!(encoded(&restored), text, "{label}");
        let mut original = shard;
        process(&mut original, &rest);
        process(&mut restored, &rest);
        assert_eq!(restored.unmerged(), original.unmerged(), "{label}");
        assert_eq!(encoded(&restored), encoded(&original), "{label}");

        let monitors = state.drives.values();
        seen.0 |= !state.unmerged.is_empty() && !state.events.is_empty();
        seen.5 |= !state.unmerged.is_empty() && recipe.n_feeds == 2;
        seen.1 |= monitors
            .clone()
            .any(|m| m.alarmed && m.class.fail_hour().is_some());
        seen.2 |= monitors
            .clone()
            .any(|m| (1..11).contains(&m.voting.scores.len()));
        seen.3 |= monitors
            .flat_map(|m| &m.voting.scores)
            .any(|s| s.fract() != 0.0);
        seen.4 |= state.breaker.state != BreakerState::Healthy;
    }
    let want = (true, true, true, true, true, true);
    assert_eq!(
        seen, want,
        "unmerged alarms with events, an alarmed failed drive, a partial window, \
         a float score, a tripped breaker, unmerged alarms at two feeds"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------ mutations

/// A small shard state: a few drives near their end (their voting
/// windows partly filled), two feeds, the last few recorded events, a
/// garbage row per drive in the breaker's window.
fn small(rt: bool) -> (Recipe, EngineShard) {
    let recipe = Recipe {
        label: if rt {
            "few drives, rt"
        } else {
            "few drives, ct"
        },
        rt,
        n_feeds: 2,
        record_events: true,
    };
    let failed = fleet().iter().filter(|s| s.class.fail_hour().is_some());
    let good = fleet().iter().filter(|s| s.class.fail_hour().is_none());
    let mut lines = Vec::new();
    for s in failed.take(1).chain(good.take(2)) {
        let tail = rows(std::slice::from_ref(s));
        lines.extend(tail[tail.len().saturating_sub(16)..].iter().cloned());
        lines.push("not,a,row".to_string());
    }
    let mut shard = recipe.shard();
    process(&mut shard, &routed(&lines, recipe.n_feeds));
    let keep = shard.events().len().saturating_sub(3);
    let cut = shard.events().get(keep).map_or(0, |e| e.seq);
    shard.drain_events(|e| e.seq < cut);
    (recipe, shard)
}

/// An object's members.
type Members = Vec<(String, Value)>;

/// Junk values a member's value is replaced with.
fn junk() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Str("x".to_string()),
        Value::Arr(Vec::new()),
        Value::Num(-1.0),
        Value::Num(1.5),
    ]
}

/// Every node of `value`, as index paths from the root.
fn paths(value: &Value, at: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(at.clone());
    let children: Vec<&Value> = match value {
        Value::Arr(items) => items.iter().collect(),
        Value::Obj(pairs) => pairs.iter().map(|(_, v)| v).collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        at.push(i);
        paths(child, at, out);
        at.pop();
    }
}

fn node<'v>(value: &'v Value, path: &[usize]) -> &'v Value {
    path.iter().fold(value, |node, &i| match node {
        Value::Arr(items) => &items[i],
        Value::Obj(pairs) => &pairs[i].1,
        _ => unreachable!("paths only index containers"),
    })
}

fn node_mut<'v>(value: &'v mut Value, path: &[usize]) -> &'v mut Value {
    path.iter().fold(value, |node, &i| match node {
        Value::Arr(items) => &mut items[i],
        Value::Obj(pairs) => &mut pairs[i].1,
        _ => unreachable!("paths only index containers"),
    })
}

/// One structural edit of a container node.
#[derive(Debug, Clone)]
enum Edit {
    /// Reverse an object's members.
    Reverse,
    /// Move an object's first member last.
    Rotate,
    /// Add unknown members first and last.
    Unknown,
    /// Remove member `i`.
    Remove(usize),
    /// Replace member `i`'s value.
    Retype(usize, Value),
    /// Repeat member `i`'s key after it (the first one counts) or, with
    /// `true`, before it.
    Repeat(usize, bool),
    /// Remove an array's first or (`true`) last element.
    Drop(bool),
    /// Repeat an array's first element.
    Double,
    /// Swap an array's first and last elements.
    Swap,
    /// Append `null` to an array.
    Append,
}

impl Edit {
    fn apply(&self, node: &mut Value) {
        match (self, node) {
            (Edit::Reverse, Value::Obj(p)) => p.reverse(),
            (Edit::Rotate, Value::Obj(p)) if !p.is_empty() => p.rotate_left(1),
            (Edit::Unknown, Value::Obj(p)) => {
                p.insert(0, key("zz", Value::Arr(vec![num(1.0), Value::Null])));
                p.push(key("", Value::Obj(vec![key("a", Value::Null)])));
            }
            (Edit::Remove(i), Value::Obj(p)) => drop(p.remove(*i)),
            (Edit::Retype(i, junk), Value::Obj(p)) => p[*i].1 = junk.clone(),
            (Edit::Repeat(i, before), Value::Obj(p)) => {
                let name = p[*i].0.clone();
                match before {
                    false => p.insert(i + 1, key(&name, Value::Str("later".into()))),
                    true => p.insert(*i, key(&name, Value::Null)),
                }
            }
            (Edit::Drop(last), Value::Arr(items)) => drop(if *last {
                items.pop()
            } else {
                Some(items.remove(0))
            }),
            (Edit::Double, Value::Arr(items)) => items.insert(0, items[0].clone()),
            (Edit::Swap, Value::Arr(items)) => {
                let n = items.len();
                items.swap(0, n - 1);
            }
            (Edit::Append, Value::Arr(items)) => items.push(Value::Null),
            _ => {}
        }
    }
}

/// Every structural edit of `value`'s containers, with its node's path:
/// members reordered, removed, repeated, retyped or added, and elements
/// removed, repeated, swapped or added.
fn edits(value: &Value) -> Vec<(Vec<usize>, Edit)> {
    let mut all = Vec::new();
    paths(value, &mut Vec::new(), &mut all);
    let mut out = Vec::new();
    for path in all {
        let mut push = |edit| out.push((path.clone(), edit));
        match node(value, &path) {
            Value::Obj(pairs) => {
                push(Edit::Reverse);
                push(Edit::Rotate);
                push(Edit::Unknown);
                for i in 0..pairs.len() {
                    push(Edit::Remove(i));
                    push(Edit::Repeat(i, false));
                    push(Edit::Repeat(i, true));
                    for junk in junk() {
                        push(Edit::Retype(i, junk));
                    }
                }
            }
            Value::Arr(items) if !items.is_empty() => {
                for edit in [
                    Edit::Drop(false),
                    Edit::Drop(true),
                    Edit::Double,
                    Edit::Swap,
                    Edit::Append,
                ] {
                    push(edit);
                }
            }
            _ => {}
        }
    }
    out
}

/// `value` with `edits` applied, as text. No edit's node may lie inside
/// another's, so each leaves the other's path in place.
fn edited(value: &Value, edits: &[&(Vec<usize>, Edit)]) -> String {
    let mut copy = value.clone();
    for (path, edit) in edits {
        edit.apply(node_mut(&mut copy, path));
    }
    hdd_json::to_string(&copy)
}

/// Every single edit of `value`, and `pairs` seeded pairs of edits on
/// disjoint nodes, whose two errors must rank as the tree decoder ranks
/// them.
fn tree_mutations(value: &Value, pairs: usize, seed: u64) -> Vec<String> {
    let all = edits(value);
    let mut out: Vec<String> = all.iter().map(|e| edited(value, &[e])).collect();
    let mut state = seed;
    let mut next = || {
        state = splitmix64(state);
        &all[(state % all.len() as u64) as usize]
    };
    let nested = |a: &[usize], b: &[usize]| a.starts_with(b) || b.starts_with(a);
    while out.len() < all.len() + pairs {
        let (a, b) = (next(), next());
        if !nested(&a.0, &b.0) {
            out.push(edited(value, &[a, b]));
        }
    }
    out
}

/// Byte-level mutations of `text`: truncations (every third byte, and
/// each of the last 40), seeded bit flips (kept when still UTF-8),
/// whitespace and other bytes inserted, and numbers respelled.
fn text_mutations(text: &str, seed: u64) -> Vec<String> {
    let bytes = text.as_bytes();
    let cuts = (0..bytes.len()).filter(|&cut| cut % 3 == 0 || cut + 40 >= bytes.len());
    let mut out: Vec<String> = cuts.map(|cut| text[..cut].to_string()).collect();
    let mut state = seed;
    let mut next = |n: usize| {
        state = splitmix64(state);
        (state % n as u64) as usize
    };
    for _ in 0..1500 {
        let (at, bit) = (next(bytes.len()), next(8));
        let mut flipped = bytes.to_vec();
        flipped[at] ^= 1 << bit;
        if let Ok(flipped) = String::from_utf8(flipped) {
            out.push(flipped);
        }
    }
    for insert in [" ", "\n\t\r ", "x", ",", "]", "}", "\"", "-", "0", "."] {
        for _ in 0..40 {
            let at = next(bytes.len() + 1);
            out.push(format!("{}{insert}{}", &text[..at], &text[at..]));
        }
    }
    // Integers (the digit runs that follow `:`, `[` or `,`), respelled.
    let starts: Vec<usize> = (1..bytes.len())
        .filter(|&i| bytes[i].is_ascii_digit() && matches!(bytes[i - 1], b':' | b'[' | b','))
        .collect();
    for _ in 0..200 {
        let start = starts[next(starts.len())];
        let len = bytes[start..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        let n = &text[start..start + len];
        for spelling in [
            format!("{n}.0"),
            format!("{n}e0"),
            format!("0{n}"),
            format!("-{n}"),
            format!("{n}.5"),
            format!("{n}000000000000000000"),
            "-0".to_string(),
            "1e999".to_string(),
            "4294967297".to_string(),
            "9007199254740993".to_string(),
        ] {
            out.push(format!(
                "{}{spelling}{}",
                &text[..start],
                &text[start + len..]
            ));
        }
    }
    out
}

/// Check one mutated payload on both decoders; returns whether it was
/// accepted.
fn agree(recipe: &Recipe, text: &str) -> bool {
    let want = oracle(text, recipe.n_feeds);
    let got = direct(recipe, text);
    assert_eq!(got, want, "{}: {text:?}", recipe.label);
    got.is_ok()
}

#[test]
fn mutated_payloads_are_accepted_or_rejected_as_the_tree_decoder_does() {
    for rt in [false, true] {
        let (recipe, shard) = small(rt);
        let text = encoded(&shard);
        let value = reference::parse(&text).unwrap();
        let mut corpus = tree_mutations(&value, 3000, if rt { 4 } else { 5 });
        if !rt {
            corpus.extend(text_mutations(&text, 2));
        }
        let accepted = corpus.iter().filter(|m| agree(&recipe, m)).count();
        // `parse`, rebuilt on the cursor, reads every fourth one as the
        // previous parser does.
        for text in corpus.iter().step_by(4) {
            let parsed = hdd_json::parse(text).map_err(|e| e.to_string());
            let reference = reference::parse(text).map_err(|e| e.to_string());
            assert_eq!(parsed, reference, "{}: {text:?}", recipe.label);
        }
        println!(
            "{}: {} bytes, {} mutations, {accepted} accepted",
            recipe.label,
            text.len(),
            corpus.len()
        );
        assert!(accepted > 0 && accepted < corpus.len());
    }
}

#[test]
fn named_mutations_are_rejected_with_the_tree_decoder_s_text() {
    let (recipe, shard) = small(false);
    let text = encoded(&shard);
    let value = reference::parse(&text).unwrap();
    let edit = |f: &dyn Fn(&mut Members)| {
        let mut copy = value.clone();
        if let Value::Obj(fields) = &mut copy {
            f(fields);
        }
        hdd_json::to_string(&copy)
    };
    let member = |fields: &mut Members, name: &str| -> usize {
        fields.iter().position(|(k, _)| k == name).unwrap()
    };
    let with_drive = |f: &dyn Fn(&mut Members)| {
        edit(&|fields| {
            let i = member(fields, "drives");
            if let Value::Arr(items) = &mut fields[i].1 {
                if let Value::Obj(drive) = &mut items[0] {
                    f(drive);
                }
            }
        })
    };
    let with_values = |f: &dyn Fn(&mut Vec<Value>)| {
        with_drive(&|drive| {
            let i = member(drive, "history");
            if let Value::Arr(samples) = &mut drive[i].1 {
                if let Value::Obj(sample) = &mut samples[0] {
                    if let Value::Arr(values) = &mut sample[1].1 {
                        f(values);
                    }
                }
            }
        })
    };
    let cases: Vec<(String, &str)> = vec![
        (
            edit(&|f| {
                let i = member(f, "drives");
                if let Value::Arr(items) = &mut f[i].1 {
                    let first = items[0].clone();
                    items.push(first);
                }
            }),
            "appears twice",
        ),
        (
            with_drive(&|drive| {
                let i = member(drive, "history");
                if let Value::Arr(samples) = &mut drive[i].1 {
                    samples.swap(0, 1);
                }
            }),
            "strictly increasing",
        ),
        (with_values(&|v| drop(v.pop())), "has 11 values"),
        (with_values(&|v| v.push(num(3.0))), "has 13 values"),
        (
            edit(&|f| {
                let i = member(f, "cursors");
                if let Value::Arr(items) = &mut f[i].1 {
                    items.pop();
                }
            }),
            "checkpoint has 1 feed cursors, this topology tails 2",
        ),
        (
            edit(&|f| {
                let i = member(f, "stats");
                f.remove(i);
            }),
            "missing field `stats`",
        ),
        (text[..text.len() - 1].to_string(), "expected , or }"),
    ];
    for (mutated, expected) in &cases {
        assert!(!agree(&recipe, mutated), "{expected}");
        let err = direct(&recipe, mutated).unwrap_err();
        assert!(err.contains(expected), "{err} lacks {expected}");
    }
    // Reordered members, unknown members, whitespace and a missing
    // `events` are accepted.
    let reordered = edit(&|f| f.reverse());
    let unknown = edit(&|f| f.insert(2, key("note", Value::Str("x".into()))));
    let spaced = text.replace(',', " ,\n ").replace(':', "\t: ");
    let no_events = edit(&|f| {
        let i = member(f, "events");
        f.remove(i);
    });
    for accepted in [reordered, unknown, spaced, no_events] {
        assert!(agree(&recipe, &accepted), "{accepted}");
    }
}

// ------------------------------------------------------------ documents

/// The previous `Checkpoint::load_expecting(path, Shard)` around the
/// tree decoder, over a verified document: the restored state, encoded,
/// or the error text.
fn oracle_document(doc: &str, path: &Path, n_feeds: usize) -> Result<String, String> {
    let read = || -> Result<State, CheckpointError> {
        let doc = reference::parse(doc)?;
        let version = doc.usize_field("format_version")?;
        if version != 2 {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let raw_kind = doc
            .field("kind")?
            .as_str()
            .ok_or_else(|| JsonError::new("`kind` must be a string"))?;
        if !matches!(raw_kind, "shard" | "topology" | "lifecycle") {
            return Err(CheckpointError::Incompatible(format!(
                "unknown checkpoint kind `{raw_kind}`"
            )));
        }
        let Value::Obj(fields) = &doc else {
            return Err(JsonError::new("a checkpoint must be an object").into());
        };
        let payload = fields
            .iter()
            .find_map(|(key, value)| (key == "payload").then_some(value))
            .ok_or_else(|| JsonError::missing("payload"))?;
        if raw_kind != "shard" {
            return Err(CheckpointError::Incompatible(format!(
                "{}: expected a shard checkpoint, found {raw_kind}",
                path.display()
            )));
        }
        Ok(tree_state(payload, n_feeds)?)
    };
    let state = read().map_err(|e| e.to_string())?;
    Ok(hdd_json::to_string(&state_json(&state)))
}

/// Resume a one-shard topology from `dir` after writing `doc`, sealed, as
/// its shard snapshot: the restored shard, encoded, or the error text.
fn resumed(recipe: &Recipe, dir: &Path, doc: &str) -> Result<String, String> {
    std::fs::write(shard_path(dir, 0), seal(CHECKPOINT_MAGIC, doc)).expect("write snapshot");
    let mut topology = ServeTopology::new(
        &ct_model(),
        &FeatureSet::critical13(),
        recipe.config(),
        1,
        recipe.n_feeds,
        64,
    )
    .expect("topology");
    topology.resume(dir).map_err(|e| e.to_string())?;
    let state = encoded(topology.shards().next().expect("one shard"));
    Ok(state)
}

#[test]
fn mutated_documents_are_read_as_load_and_the_tree_decoder_read_them() {
    let (recipe, shard) = small(false);
    let payload = encoded(&shard);
    let dir: PathBuf =
        std::env::temp_dir().join(format!("hddpred-snapshot-docs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    ServeTopology::new(
        &ct_model(),
        &FeatureSet::critical13(),
        recipe.config(),
        1,
        recipe.n_feeds,
        64,
    )
    .unwrap()
    .save_checkpoints(&dir)
    .unwrap();

    let member = |k: &str, v: &str| format!("\"{k}\":{v}");
    let (version, kind, body) = (
        member("format_version", "2"),
        member("kind", "\"shard\""),
        member("payload", &payload),
    );
    let doc = format!("{{{version},{kind},{body}}}");
    let mut corpus = vec![doc.clone()];
    let orders = [
        [&version, &kind, &body],
        [&version, &body, &kind],
        [&kind, &version, &body],
        [&kind, &body, &version],
        [&body, &version, &kind],
        [&body, &kind, &version],
    ];
    for [a, b, c] in orders {
        corpus.push(format!("{{{a},{b},{c}}}"));
        corpus.push(format!("{{{a},{b}}}"));
        corpus.push(format!(" {{ {a} ,\n{b}\t, {c} }} "));
    }
    for v in ["1", "3", "\"2\"", "2.0", "2e0", "-2", "null", "02"] {
        corpus.push(format!("{{{},{kind},{body}}}", member("format_version", v)));
    }
    for k in ["\"topology\"", "\"lifecycle\"", "\"sharf\"", "7", "null"] {
        corpus.push(format!("{{{version},{},{body}}}", member("kind", k)));
    }
    for junk in ["null", "[]", "{}", "\"x\"", "7"] {
        let other = member("payload", junk);
        corpus.push(format!("{{{version},{kind},{other}}}"));
        corpus.push(format!("{{{version},{kind},{other},{body}}}"));
        corpus.push(format!("{{{version},{kind},{body},{other}}}"));
        corpus.push(format!("{{{version},{kind},{body},{}}}", member("x", junk)));
        corpus.push(format!(
            "{{{version},{},{kind},{body}}}",
            member("kind", junk)
        ));
    }
    corpus.extend([
        "[]".to_string(),
        "2".to_string(),
        format!("{doc}x"),
        format!("[{doc}]"),
    ]);
    let value = reference::parse(&payload).unwrap();
    let mut payloads = tree_mutations(&value, 0, 0);
    let mut state = 9;
    payloads.retain(|_| {
        state = splitmix64(state);
        state % 16 == 0
    });
    corpus.extend(
        payloads
            .iter()
            .map(|p| format!("{{{version},{kind},{}}}", member("payload", p))),
    );
    let mut texts = text_mutations(&doc, 3);
    texts.retain(|_| {
        state = splitmix64(state);
        state % 24 == 0
    });
    corpus.extend(texts);

    let path = shard_path(&dir, 0);
    let mut accepted = 0;
    for doc in &corpus {
        let want = oracle_document(doc, &path, recipe.n_feeds);
        let got = resumed(&recipe, &dir, doc);
        assert_eq!(got, want, "{doc:?}");
        accepted += usize::from(got.is_ok());
    }
    println!("{} documents, {accepted} accepted", corpus.len());
    assert!(accepted > 10 && accepted < corpus.len());
    let _ = std::fs::remove_dir_all(&dir);
}

// --------------------------------------------------------------- numbers

/// The cursor's reading of `text` as one number must be `str::parse`'s,
/// bit for bit, or an error where that is not a finite number.
fn same_number(text: &str) {
    let mut cursor = Cursor::new(text);
    let got = cursor.number().and_then(|n| cursor.finish().map(|()| n));
    match text.parse::<f64>() {
        Ok(want) if want.is_finite() => {
            let got = got.unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(got.map(f64::to_bits), Some(want.to_bits()), "{text}");
        }
        _ => assert!(got.is_err(), "{text}: {got:?}"),
    }
}

#[test]
fn the_integer_fast_path_gives_the_bits_str_parse_gives() {
    use std::fmt::Write as _;
    let mut text = String::new();
    for n in 0..=9_999_999u64 {
        text.clear();
        let _ = write!(text, "{n}");
        same_number(&text);
    }
    for n in (0..2_000u64).chain([9_999_999, 123_456_789_012_345]) {
        for width in 1..=17 {
            for sign in ["", "-"] {
                same_number(&format!("{sign}{n:0width$}"));
            }
        }
    }
    for text in [
        "-0",
        "-00",
        "100000000000000",
        "999999999999999",
        "-999999999999999",
        "1000000000000000",
        "9007199254740993",
        "-9007199254740993",
        "9999999999999999",
        "18446744073709551617",
        "1.5",
        "-0.0",
        "0.1",
        "12.",
        "1.e3",
        "1e5",
        "1E5",
        "1e-5",
        "-2.5e+3",
        "1e999",
        "-1e999",
        "-",
        "--1",
        "1-",
        "1e",
        "1e+",
        "1.2.3",
        "0x1",
    ] {
        same_number(text);
    }
}
