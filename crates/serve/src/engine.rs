//! One detection shard: per-drive voting state over its routed lines.
//!
//! An [`EngineShard`] consumes the [`RoutedLine`]s the ingest layer
//! assigned to it *in routing order* and is, by construction, a pure
//! function of that committed line prefix: every counter, voting window
//! and breaker transition advances only when a line commits, never on
//! tick boundaries or wall-clock time. That single invariant is what
//! makes kill-and-restart runs byte-identical — a shard checkpoint is
//! just "the state after the first `k` lines routed here", and
//! replaying the rest of the feeds from there cannot diverge from the
//! uninterrupted run.
//!
//! Replay is keyed by sequence number: a shard's per-feed
//! [`FeedCursor`]s record the next unprocessed line index of each feed,
//! and a replayed line whose index is below the cursor is skipped with
//! **zero** state effect — it must not touch counters, the breaker
//! window, or voting, or a resumed run would diverge from an
//! uninterrupted one.
//!
//! A batch is one pass in routing order. The cancel token is checked
//! once, before any line commits, so a deadline or cancellation leaves
//! the whole batch queued for the next tick. Then each line commits as
//! it is read, as the paper's detector steps through samples: the
//! cursor advances, counters and the breaker record the line, and an
//! accepted sample is pushed into its drive's pruned history, turned
//! into a feature vector, scored, and voted into the drive's window. An
//! alarm is produced (or suppressed while degraded) exactly where a
//! serial run would produce it, tagged with its line's seq and buffered
//! in the shard's *unmerged* list until the topology merge emits it in
//! global seq order.
//!
//! A model panic part-way through a batch leaves the shard partly
//! advanced. Nothing partial persists: the topology's fan-out turns the
//! panic into [`ParError::Panic`], the daemon stops before it emits or
//! checkpoints anything, and the shard is dropped with the daemon.
//!
//! Once checkpointing starts, the shard also keeps a **record log** of
//! every state change since the last save (see [`EngineShard::take_log`]):
//! each committed line with the score the model gave it, each cursor
//! adoption, each release of alarms and row events. The topology appends
//! it to `shard-<k>.log` as one frame per save, and
//! [`EngineShard::replay_log`] feeds it back through the same commit path
//! on restore, with each logged score in place of the model's, so a
//! replayed vote never depends on which model is loaded at reopen. A
//! record a snapshot already covers replays with zero state effect: its
//! line is below the cursor, its cursors are not ahead, its seqs are
//! already gone.
//!
//! Streaming deviates from the batch reader in one documented way: the
//! batch reader buffers a whole drive, sorts, and resolves duplicate
//! timestamps last-write-wins; a daemon cannot hold alarms back to wait
//! for retransmissions, so rows at or before a drive's latest seen hour
//! are dropped (first-write-wins) and counted as stale.

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::ingest::{FeedCursor, RoutedLine};
use crate::monitor::{prune_history, DriveMonitor};
use crate::stats::ShardStats;
use hdd_eval::{ModelError, Predictor, SavedModel, VotingRule, VotingState};
use hdd_json::{
    f64_field, list, numbers_field, usize_field, usize_of, write_list, write_number, Cursor,
    Decoded, JsonError,
};
use hdd_par::{CancelToken, ParError};
use hdd_smart::csv::{parse_data_line, ValueFault};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Sizing for an [`EngineShard`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// The paper's `N`: voting-window length per drive.
    pub voters: usize,
    /// How window scores combine into an alarm decision.
    pub rule: VotingRule,
    /// Quarantine circuit-breaker sizing.
    pub breaker: BreakerConfig,
}

impl EngineConfig {
    /// A majority-voting engine with `voters` = `N` and a breaker over
    /// the last 100 rows tripping above `max_quarantine`.
    ///
    /// # Panics
    ///
    /// Panics if `voters` is zero (via the voting state) or the breaker
    /// parameters are invalid.
    #[must_use]
    pub fn new(voters: usize, rule: VotingRule, max_quarantine: f64) -> Self {
        EngineConfig {
            voters,
            rule,
            breaker: BreakerConfig::new(100, max_quarantine),
        }
    }
}

/// One produced alarm: the sink line is `drive,hour`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alarm {
    /// Drive that alarmed.
    pub drive: u32,
    /// Hour of the sample whose vote tipped the window.
    pub hour: u32,
}

impl fmt::Display for Alarm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{},{}", self.drive, self.hour)
    }
}

/// One committed, accepted, *scored* row, recorded for the model
/// lifecycle (training buffer + shadow scorer) when event recording is
/// enabled. Events carry the row's ground-truth labels (the feed format
/// embeds class and fail hour), the extracted feature vector the
/// incumbent scored, and the incumbent's score — everything a candidate
/// model needs to be trained and shadow-evaluated without re-reading
/// feeds. Like alarms, events are tagged with the line's seq so the
/// topology can release them in global order.
#[derive(Debug, Clone, PartialEq)]
pub struct RowEvent {
    /// Seq of the committed line this row arrived on.
    pub seq: u64,
    /// Drive the row belongs to.
    pub drive: u32,
    /// Hour of the sample.
    pub hour: u32,
    /// The drive's labelled failure hour (`None` for good drives).
    pub fail_hour: Option<u32>,
    /// Feature vector extracted against the drive's history.
    pub features: Vec<f64>,
    /// The incumbent model's score for this row.
    pub incumbent_score: f64,
}

impl RowEvent {
    /// Append the event as a shard snapshot holds it: `seq`, `drive`,
    /// `hour`, `fail_hour` (failed drives only), `features`, `score`.
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"seq\":");
        write_number(self.seq as f64, out);
        out.push_str(",\"drive\":");
        write_number(f64::from(self.drive), out);
        out.push_str(",\"hour\":");
        write_number(f64::from(self.hour), out);
        if let Some(fail) = self.fail_hour {
            out.push_str(",\"fail_hour\":");
            write_number(f64::from(fail), out);
        }
        out.push_str(",\"features\":");
        write_list(out, &self.features, |&v, out| write_number(v, out));
        out.push_str(",\"score\":");
        write_number(self.incumbent_score, out);
        out.push('}');
    }

    /// Read an event [`RowEvent::write_json`] wrote.
    fn read_json(cursor: &mut Cursor<'_>) -> Decoded<Self> {
        let (mut seq, mut drive, mut hour, mut fail_hour) = (None, None, None, None);
        let (mut features, mut read, mut score) = (Vec::new(), None, None);
        cursor.object(|key, c| {
            match key {
                "seq" if seq.is_none() => seq = Some(c.number()?),
                "drive" if drive.is_none() => drive = Some(c.number()?),
                "hour" if hour.is_none() => hour = Some(c.number()?),
                "fail_hour" if fail_hour.is_none() => fail_hour = Some(c.number()?),
                "features" if read.is_none() => read = Some(c.numbers(|n| features.push(n))?),
                "score" if score.is_none() => score = Some(c.number()?),
                _ => c.skip()?,
            }
            Ok(())
        })?;
        Ok((|| {
            let fail_hour = match fail_hour {
                None => None,
                Some(raw) => Some(
                    raw.and_then(usize_of)
                        .ok_or_else(|| JsonError::expected("an hour", "fail_hour"))?
                        as u32,
                ),
            };
            let (seq, drive, hour) = (
                usize_field(seq, "seq")? as u64,
                usize_field(drive, "drive")? as u32,
                usize_field(hour, "hour")? as u32,
            );
            numbers_field(read, "features")?;
            Ok(RowEvent {
                seq,
                drive,
                hour,
                fail_hour,
                features,
                incumbent_score: f64_field(score, "score")?,
            })
        })())
    }
}

/// An alarm tagged with the seq of the line that raised it — the merge
/// stage's global order key (seqs are unique, one line raises at most
/// one alarm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqAlarm {
    /// Seq of the committed line whose vote tipped the window.
    pub seq: u64,
    /// The alarm itself.
    pub alarm: Alarm,
}

impl SeqAlarm {
    /// Append the alarm as a shard snapshot holds it: `seq`, `drive`,
    /// `hour`.
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"seq\":");
        write_number(self.seq as f64, out);
        out.push_str(",\"drive\":");
        write_number(f64::from(self.alarm.drive), out);
        out.push_str(",\"hour\":");
        write_number(f64::from(self.alarm.hour), out);
        out.push('}');
    }

    /// Read an alarm [`SeqAlarm::write_json`] wrote.
    fn read_json(cursor: &mut Cursor<'_>) -> Decoded<Self> {
        let (mut seq, mut drive, mut hour) = (None, None, None);
        cursor.object(|key, c| {
            match key {
                "seq" if seq.is_none() => seq = Some(c.number()?),
                "drive" if drive.is_none() => drive = Some(c.number()?),
                "hour" if hour.is_none() => hour = Some(c.number()?),
                _ => c.skip()?,
            }
            Ok(())
        })?;
        Ok((|| {
            Ok(SeqAlarm {
                seq: usize_field(seq, "seq")? as u64,
                alarm: Alarm {
                    drive: usize_field(drive, "drive")? as u32,
                    hour: usize_field(hour, "hour")? as u32,
                },
            })
        })())
    }
}

/// What one committed batch produced besides its alarms, which go to
/// the shard's unmerged list.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// Breaker transitions that happened inside the batch, in order.
    pub transitions: Vec<BreakerState>,
    /// Lines skipped because a cursor showed them already committed
    /// before a crash (zero state effect; an operational counter, not
    /// part of the checkpointed stream state).
    pub replayed: usize,
}

/// One detection shard; see the module docs.
#[derive(Debug)]
pub struct EngineShard {
    model: Arc<SavedModel>,
    features: hdd_stats::FeatureSet,
    config: EngineConfig,
    n_feeds: usize,
    drives: BTreeMap<u32, DriveMonitor>,
    breaker: CircuitBreaker,
    stats: ShardStats,
    /// Per-feed replay cursors; see [`FeedCursor`].
    cursors: Vec<FeedCursor>,
    /// Alarms produced but not yet emitted by the topology merge.
    unmerged: Vec<SeqAlarm>,
    /// Whether committed scored rows are recorded as [`RowEvent`]s.
    record_events: bool,
    /// Events recorded but not yet released by the topology merge.
    events: Vec<RowEvent>,
    /// Records of what changed since the last save, once logging is on.
    log: Option<String>,
    /// The feature vector of the row being scored, reused by every row;
    /// an event keeps a copy of it.
    scratch: Vec<f64>,
}

/// A line as the commit path reads it: borrowed from a routed line, or
/// from a log record on replay.
#[derive(Debug, Clone, Copy)]
struct Line<'a> {
    seq: u64,
    text: &'a str,
    end_offset: u64,
    generation: u64,
}

impl<'a> From<&'a RoutedLine> for Line<'a> {
    fn from(line: &'a RoutedLine) -> Self {
        Line {
            seq: line.seq,
            text: &line.text,
            end_offset: line.end_offset,
            generation: line.generation,
        }
    }
}

/// Where a committed row's score comes from.
#[derive(Debug, Clone, Copy)]
enum Scoring {
    /// The shard's model scores the row.
    Model,
    /// A log record replays the score the model gave (`None`: none).
    Logged(Option<f64>),
}

/// What committing one line did.
#[derive(Debug, Clone, Copy)]
enum Commit {
    /// The line was below its feed's cursor: skipped, zero state effect.
    Replayed,
    /// The line committed; the score it got, if any was computed.
    Row(Option<f64>),
}

impl EngineShard {
    /// A fresh shard serving `model` over `features`, consuming lines
    /// routed from `n_feeds` feeds.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::FeatureMismatch`] when the model does not
    /// score the feature set's dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if `n_feeds` is zero.
    pub fn new(
        model: Arc<SavedModel>,
        features: hdd_stats::FeatureSet,
        config: EngineConfig,
        n_feeds: usize,
    ) -> Result<Self, ModelError> {
        assert!(n_feeds >= 1, "at least one feed is required");
        model.expect_features(features.len())?;
        // Validate eagerly so a bad config fails at startup, not on the
        // first row.
        let breaker = CircuitBreaker::new(config.breaker);
        let _ = VotingState::new(config.voters, config.rule);
        Ok(EngineShard {
            model,
            features,
            config,
            n_feeds,
            drives: BTreeMap::new(),
            breaker,
            stats: ShardStats::default(),
            cursors: vec![FeedCursor::default(); n_feeds],
            unmerged: Vec::new(),
            record_events: false,
            events: Vec::new(),
            log: None,
            scratch: Vec::new(),
        })
    }

    /// Turn [`RowEvent`] recording on or off. Off (the default) drops
    /// each row's feature vector once it is scored, for deployments
    /// without a model lifecycle; the flag is configuration, not stream
    /// state, so it is not checkpointed.
    pub fn set_record_events(&mut self, on: bool) {
        self.record_events = on;
    }

    /// Events recorded but not yet released by the merge stage.
    #[must_use]
    pub fn events(&self) -> &[RowEvent] {
        &self.events
    }

    /// Remove (and return) recorded events selected by `take`; the
    /// topology calls this with the same watermark predicate it uses for
    /// alarms, so event release order is independent of shard count.
    pub fn drain_events(&mut self, mut take: impl FnMut(&RowEvent) -> bool) -> Vec<RowEvent> {
        let taken: Vec<RowEvent> = self.events.extract_if(.., |e| take(e)).collect();
        if let Some(log) = self.log.as_mut() {
            log_seqs(log, 'D', taken.iter().map(|e| e.seq));
        }
        taken
    }

    /// The per-feed replay cursors.
    #[must_use]
    pub fn cursors(&self) -> &[FeedCursor] {
        &self.cursors
    }

    /// The counters so far.
    #[must_use]
    pub fn stats(&self) -> ShardStats {
        self.stats
    }

    /// Drives this shard is tracking.
    #[must_use]
    pub fn tracked_drives(&self) -> usize {
        self.drives.len()
    }

    /// The breaker's current state.
    #[must_use]
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Alarms produced but not yet emitted by the merge stage.
    #[must_use]
    pub fn unmerged(&self) -> &[SeqAlarm] {
        &self.unmerged
    }

    /// Remove (and return) unmerged alarms selected by `take`; the
    /// topology calls this when the merge emits below a watermark or
    /// flushes on idle.
    pub fn drain_unmerged(&mut self, mut take: impl FnMut(&SeqAlarm) -> bool) -> Vec<SeqAlarm> {
        let taken: Vec<SeqAlarm> = self.unmerged.extract_if(.., |a| take(a)).collect();
        if let Some(log) = self.log.as_mut() {
            log_seqs(log, 'A', taken.iter().map(|a| a.seq));
        }
        taken
    }

    /// Adopt the ingest's cursor snapshot, per feed, wherever it is
    /// ahead of this shard's own cursor. Only valid once this shard's
    /// queue has fully drained: every line routed here below the
    /// snapshot has then committed, so the snapshot position is safe to
    /// claim. Returns whether anything moved.
    pub fn adopt_cursors(&mut self, snapshot: &[FeedCursor]) -> bool {
        let mut moved = false;
        for (own, snap) in self.cursors.iter_mut().zip(snapshot) {
            if snap.position_key() > own.position_key() {
                *own = *snap;
                moved = true;
            }
        }
        if let Some(log) = self.log.as_mut().filter(|_| moved) {
            log.push('C');
            for c in snapshot {
                for n in [c.next_line, c.offset, c.generation] {
                    log_number(log, n);
                }
            }
            log.push('\n');
        }
        moved
    }

    /// Swap in a hot-reloaded model (already validated by the loader).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::FeatureMismatch`] when the replacement does
    /// not score the shard's feature dimensionality; the current model
    /// keeps serving.
    pub fn swap_model(&mut self, model: Arc<SavedModel>) -> Result<(), ModelError> {
        model.expect_features(self.features.len())?;
        self.model = model;
        Ok(())
    }

    /// Process a batch of routed lines under the tick's cancel token.
    ///
    /// All-or-nothing on interrupts: the token is checked once, before
    /// any line commits, so on `Cancelled`/`DeadlineExceeded` *no* state
    /// has changed and the caller retries the same lines next tick; the
    /// committed outcome is therefore independent of how lines were
    /// grouped into batches.
    ///
    /// # Errors
    ///
    /// Returns [`ParError::Cancelled`] / [`ParError::DeadlineExceeded`]
    /// from the token.
    ///
    /// # Panics
    ///
    /// A model panic propagates, leaving the lines before it committed
    /// (see the module docs).
    pub fn process(
        &mut self,
        token: &CancelToken,
        lines: &[RoutedLine],
    ) -> Result<BatchOutcome, ParError> {
        token.check()?;
        let mut outcome = BatchOutcome::default();
        for line in lines.iter().map(Line::from) {
            let committed = self.commit(line, Scoring::Model, &mut outcome);
            if let (Some(log), Commit::Row(score)) = (self.log.as_mut(), committed) {
                log_line(log, line, score);
            }
        }
        Ok(outcome)
    }

    /// Commit one line: replay skip, cursor, counters, breaker, history,
    /// score, vote and alarm, in that order.
    fn commit(&mut self, line: Line<'_>, scoring: Scoring, outcome: &mut BatchOutcome) -> Commit {
        let n = self.n_feeds as u64;
        let (feed, index) = ((line.seq % n) as usize, line.seq / n);
        #[expect(
            clippy::indexing_slicing,
            reason = "seq % n_feeds is below n_feeds and cursors is sized to n_feeds at construction"
        )]
        let cursor = &mut self.cursors[feed];
        if index < cursor.next_line {
            outcome.replayed += 1;
            return Commit::Replayed;
        }
        *cursor = FeedCursor {
            next_line: index + 1,
            offset: line.end_offset,
            generation: line.generation,
        };
        if line.text.trim().is_empty() {
            return Commit::Row(None);
        }
        self.stats.rows_seen += 1;
        let (breaker, stats) = (&mut self.breaker, &mut self.stats);
        let row = match parse_data_line(line.text) {
            Ok((row, None)) => row,
            Ok((_, Some(fault))) => {
                match fault {
                    ValueFault::NonFinite => stats.non_finite_rows += 1,
                    ValueFault::OutOfRange => stats.out_of_range_rows += 1,
                }
                record_breaker(breaker, stats, true, outcome);
                return Commit::Row(None);
            }
            Err(_) => {
                stats.parse_failures += 1;
                record_breaker(breaker, stats, true, outcome);
                return Commit::Row(None);
            }
        };
        let monitor = match self.drives.entry(row.drive.0) {
            Entry::Occupied(known) => {
                let monitor = known.into_mut();
                if monitor.class != row.class {
                    stats.conflicting_rows += 1;
                    record_breaker(breaker, stats, true, outcome);
                    return Commit::Row(None);
                }
                if monitor
                    .history
                    .last()
                    .is_some_and(|s| row.sample.hour <= s.hour)
                {
                    stats.stale_rows += 1;
                    // Stale rows parsed fine — ordering jitter is not
                    // corruption, so the breaker sees a clean row.
                    record_breaker(breaker, stats, false, outcome);
                    return Commit::Row(None);
                }
                monitor
            }
            Entry::Vacant(new) => new.insert(DriveMonitor {
                class: row.class,
                history: Vec::new(),
                voting: VotingState::new(self.config.voters, self.config.rule),
                alarmed: false,
            }),
        };
        stats.rows_accepted += 1;
        record_breaker(breaker, stats, false, outcome);

        monitor.history.push(row.sample);
        prune_history(&mut monitor.history, self.features.max_lookback_hours());
        let score = match scoring {
            // A replayed row the model did not score stops here, as it
            // did live; without event recording, one it scored needs only
            // its logged score: no history copy, no extraction.
            Scoring::Logged(None) => return Commit::Row(None),
            Scoring::Logged(Some(score)) if !self.record_events => score,
            _ => {
                let newest = monitor.history.len() - 1;
                let features = &mut self.scratch;
                if !self
                    .features
                    .extract_into(&monitor.history, newest, features)
                {
                    return Commit::Row(None);
                }
                let score = match scoring {
                    Scoring::Logged(Some(score)) => score,
                    _ => self.model.score(features),
                };
                if self.record_events {
                    self.events.push(RowEvent {
                        seq: line.seq,
                        drive: row.drive.0,
                        hour: row.sample.hour.0,
                        fail_hour: row.class.fail_hour().map(|h| h.0),
                        // A clone is sized exactly: the event keeps it.
                        features: features.clone(),
                        incumbent_score: score,
                    });
                }
                score
            }
        };
        if monitor.voting.push(score) && !monitor.alarmed {
            if breaker.suppressing() {
                stats.alarms_suppressed += 1;
            } else {
                monitor.alarmed = true;
                stats.alarms_emitted += 1;
                self.unmerged.push(SeqAlarm {
                    seq: line.seq,
                    alarm: Alarm {
                        drive: row.drive.0,
                        hour: row.sample.hour.0,
                    },
                });
            }
        }
        Commit::Row(Some(score))
    }

    /// Start keeping the record log (a no-op when it is on). Off, the
    /// default, the row path copies nothing for it: checkpointing turns
    /// it on at its first save or resume.
    pub fn start_log(&mut self) {
        self.log.get_or_insert_with(String::new);
    }

    /// Take the records logged since the last call, leaving the log on
    /// and empty; `None` while logging is off. One record per line:
    ///
    /// - `L <seq> <end offset> <generation> <score> <n> <text>`: a
    ///   committed line of `n` bytes of text, and the model's score for
    ///   it (`-` where none was computed);
    /// - `C` and one `<next line> <offset> <generation>` triple per feed:
    ///   the cursor snapshot [`EngineShard::adopt_cursors`] moved to;
    /// - `A <seq>…` / `D <seq>…`: the alarms / row events the merge
    ///   released.
    pub fn take_log(&mut self) -> Option<String> {
        let log = self.log.as_mut()?;
        // The next save's records are about as long as these.
        let next = String::with_capacity(log.capacity());
        Some(std::mem::replace(log, next))
    }

    /// Apply records taken by [`EngineShard::take_log`] (in order, on top
    /// of the state they were logged after), committing each line with
    /// its logged score. Nothing replayed is logged again.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when a record is malformed or does not
    /// replay as it was logged; the shard is then partly advanced.
    pub fn replay_log(&mut self, records: &str) -> Result<(), JsonError> {
        let log = self.log.take();
        let replayed = self.replay_records(records);
        self.log = log;
        replayed
    }

    fn replay_records(&mut self, mut records: &str) -> Result<(), JsonError> {
        let bad = |what: &str| JsonError::new(format!("log record: {what}"));
        let mut outcome = BatchOutcome::default();
        while !records.is_empty() {
            let (kind, rest) = records
                .split_at_checked(1)
                .ok_or_else(|| bad("truncated"))?;
            if kind == "L" {
                // ` <seq> <end offset> <generation> <score> <n> <text>\n…`
                let mut fields = rest.splitn(7, ' ').skip(1);
                let mut field = || fields.next().ok_or_else(|| bad("short line record"));
                let int = |raw: &str| raw.parse::<u64>().map_err(|_| bad(raw));
                let (seq, end_offset, generation) =
                    (int(field()?)?, int(field()?)?, int(field()?)?);
                let score = match field()? {
                    "-" => None,
                    raw => Some(raw.parse::<f64>().map_err(|_| bad(raw))?),
                };
                let len = int(field()?)? as usize;
                let (text, rest) = field()?
                    .split_at_checked(len)
                    .ok_or_else(|| bad("short line text"))?;
                records = rest
                    .strip_prefix('\n')
                    .ok_or_else(|| bad("long line text"))?;
                let line = Line {
                    seq,
                    text,
                    end_offset,
                    generation,
                };
                match self.commit(line, Scoring::Logged(score), &mut outcome) {
                    Commit::Replayed => {}
                    Commit::Row(got) if got.is_some() == score.is_some() => {}
                    _ => return Err(bad(&format!("seq {seq} does not replay as logged"))),
                }
                continue;
            }
            let (body, rest) = rest.split_once('\n').ok_or_else(|| bad("truncated"))?;
            records = rest;
            let mut numbers = body
                .split_ascii_whitespace()
                .map(|n| n.parse::<u64>().map_err(|_| bad(body)))
                .collect::<Result<Vec<_>, _>>()?;
            match kind {
                "C" if numbers.len() == 3 * self.n_feeds => {
                    let cursors: Vec<FeedCursor> = numbers
                        .as_chunks::<3>()
                        .0
                        .iter()
                        .map(|&[next_line, offset, generation]| FeedCursor {
                            next_line,
                            offset,
                            generation,
                        })
                        .collect();
                    self.adopt_cursors(&cursors);
                }
                "A" | "D" => {
                    numbers.sort_unstable();
                    let released = |seq: &u64| numbers.binary_search(seq).is_ok();
                    if kind == "A" {
                        self.drain_unmerged(|a| released(&a.seq));
                    } else {
                        self.drain_events(|e| released(&e.seq));
                    }
                }
                _ => return Err(bad(&format!("unknown record `{kind}{body}`"))),
            }
        }
        Ok(())
    }

    /// Append everything a checkpoint needs to resume this shard, as the
    /// JSON object a shard snapshot's payload holds: `cursors`, `stats`,
    /// `breaker`, `unmerged`, `events` and `drives` (by id).
    pub fn write_state(&self, out: &mut String) {
        out.push_str("{\"cursors\":");
        write_list(out, &self.cursors, FeedCursor::write_json);
        out.push_str(",\"stats\":");
        self.stats.write_json(out);
        out.push_str(",\"breaker\":");
        self.breaker.write_json(out);
        out.push_str(",\"unmerged\":");
        write_list(out, &self.unmerged, SeqAlarm::write_json);
        out.push_str(",\"events\":");
        write_list(out, &self.events, RowEvent::write_json);
        out.push_str(",\"drives\":");
        write_list(out, &self.drives, |(&id, monitor), out| {
            monitor.write_json(id, out);
        });
        out.push('}');
    }

    /// Restore state [`EngineShard::write_state`] wrote, replacing
    /// whatever this shard held; on an error nothing changes.
    ///
    /// The model and feature set are *not* part of the state — the
    /// caller loads the (possibly newer) model file separately; restored
    /// drives keep their checkpointed voting windows even if the
    /// configured voter count changed in between.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when `text` is not JSON or does not describe
    /// a valid shard state for this shard's feed count.
    pub fn read_state(&mut self, text: &str) -> Result<(), JsonError> {
        let mut cursor = Cursor::new(text);
        let state = self.decode_state(&mut cursor)?;
        cursor.finish()?;
        self.install(state?);
        Ok(())
    }

    /// Read the state at `cursor` in one pass, for [`EngineShard::install`].
    /// Members may come in any order (a repeated key is skipped), and a
    /// shape error ranks as it does when the parsed document is decoded
    /// field by field: `cursors` (their count first), `stats`, `breaker`,
    /// `unmerged`, `events` (optional), `drives`, each array at its first
    /// bad element.
    pub(crate) fn decode_state(&self, cursor: &mut Cursor<'_>) -> Decoded<ShardState> {
        let (mut cursors, mut stats, mut breaker) = (None, None, None);
        let (mut unmerged, mut events, mut drives) = (None, None, None);
        cursor.object(|key, c| {
            match key {
                "cursors" if cursors.is_none() => cursors = Some(list(c, FeedCursor::read_json)?),
                "stats" if stats.is_none() => stats = Some(ShardStats::read_json(c)?),
                "breaker" if breaker.is_none() => breaker = Some(CircuitBreaker::read_json(c)?),
                "unmerged" if unmerged.is_none() => unmerged = Some(list(c, SeqAlarm::read_json)?),
                "events" if events.is_none() => events = Some(list(c, RowEvent::read_json)?),
                "drives" if drives.is_none() => drives = Some(read_drives(c)?),
                _ => c.skip()?,
            }
            Ok(())
        })?;
        let must_be_array = |key: &str| JsonError::new(format!("`{key}` must be an array"));
        Ok((|| {
            let (count, cursors) = cursors
                .ok_or_else(|| JsonError::missing("cursors"))?
                .ok_or_else(|| must_be_array("cursors"))?;
            if count != self.n_feeds {
                return Err(JsonError::new(format!(
                    "checkpoint has {count} feed cursors, this topology tails {}",
                    self.n_feeds
                )));
            }
            let cursors = cursors?;
            let stats = stats.ok_or_else(|| JsonError::missing("stats"))??;
            let breaker = breaker.ok_or_else(|| JsonError::missing("breaker"))??;
            let unmerged = unmerged
                .ok_or_else(|| JsonError::missing("unmerged"))?
                .ok_or_else(|| must_be_array("unmerged"))?
                .1?;
            // `events` is tolerant-optional: checkpoints written before the
            // lifecycle existed simply have none.
            let events = match events {
                None => Vec::new(),
                Some(listed) => listed.ok_or_else(|| must_be_array("events"))?.1?,
            };
            let drives = drives.ok_or_else(|| JsonError::missing("drives"))??;
            Ok(ShardState {
                cursors,
                stats,
                breaker,
                unmerged,
                events,
                drives,
            })
        })())
    }

    /// Replace this shard's state with `state`.
    pub(crate) fn install(&mut self, state: ShardState) {
        self.cursors = state.cursors;
        self.stats = state.stats;
        self.breaker = state.breaker;
        self.unmerged = state.unmerged;
        self.events = state.events;
        self.drives = state.drives;
    }
}

/// A shard's checkpointed state, read but not yet installed.
#[derive(Debug)]
pub(crate) struct ShardState {
    cursors: Vec<FeedCursor>,
    stats: ShardStats,
    breaker: CircuitBreaker,
    unmerged: Vec<SeqAlarm>,
    events: Vec<RowEvent>,
    drives: BTreeMap<u32, DriveMonitor>,
}

/// Read the `drives` array into a map by id: the map, or the first
/// entry's shape error (a repeated id is one, after the entry itself
/// decodes).
fn read_drives(cursor: &mut Cursor<'_>) -> Decoded<BTreeMap<u32, DriveMonitor>> {
    let mut drives = Ok(BTreeMap::new());
    let is_array = cursor.array(|c| {
        let Ok(map) = &mut drives else {
            return c.skip();
        };
        match DriveMonitor::read_json(c)? {
            Ok((id, monitor)) => {
                if map.insert(id, monitor).is_some() {
                    drives = Err(JsonError::new(format!("drive {id} appears twice")));
                }
            }
            Err(e) => drives = Err(e),
        }
        Ok(())
    })?;
    if !is_array {
        return Ok(Err(JsonError::new("`drives` must be an array")));
    }
    Ok(drives)
}

/// Record a line's verdict in the breaker, counting a transition.
fn record_breaker(
    breaker: &mut CircuitBreaker,
    stats: &mut ShardStats,
    quarantined: bool,
    outcome: &mut BatchOutcome,
) {
    if let Some(state) = breaker.record(quarantined) {
        stats.breaker_transitions += 1;
        outcome.transitions.push(state);
    }
}

/// Log a committed line: `L <seq> <end offset> <generation> <score> <n> <text>`.
fn log_line(log: &mut String, line: Line<'_>, score: Option<f64>) {
    log.push('L');
    for n in [line.seq, line.end_offset, line.generation] {
        log_number(log, n);
    }
    log.push(' ');
    match score {
        Some(score) => write_number(score, log),
        None => log.push('-'),
    }
    log_number(log, line.text.len() as u64);
    log.push(' ');
    log.push_str(line.text);
    log.push('\n');
}

/// Log ` <n>` as snapshots write numbers (through `f64`, exact below
/// 2^53), without the formatting machinery: this runs for every line.
fn log_number(log: &mut String, n: u64) {
    log.push(' ');
    write_number(n as f64, log);
}

/// Log released seqs as one `<kind> <seq>…` record, if there are any.
fn log_seqs(log: &mut String, kind: char, seqs: impl ExactSizeIterator<Item = u64>) {
    if seqs.len() == 0 {
        return;
    }
    log.push(kind);
    for seq in seqs {
        log_number(log, seq);
    }
    log.push('\n');
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hdd_cart::classifier::ClassificationTreeBuilder;
    use hdd_cart::sample::{Class, ClassSample};
    use hdd_eval::VotingDetector;
    use hdd_smart::csv::{write_header, write_series};
    use hdd_smart::rng::DeterministicRng;
    use hdd_smart::{DatasetGenerator, FamilyProfile, Hour, SmartSeries, NUM_ATTRIBUTES};
    use hdd_stats::FeatureSet;
    use std::time::Duration;

    const VOTERS: usize = 11;

    /// The shard's state as its snapshot payload.
    pub(crate) fn encoded(shard: &EngineShard) -> String {
        let mut text = String::new();
        shard.write_state(&mut text);
        text
    }

    pub(crate) fn fleet() -> Vec<SmartSeries> {
        let ds = DatasetGenerator::new(FamilyProfile::w().scaled(0.004), 99).generate();
        ds.drives().iter().map(|spec| ds.series(spec)).collect()
    }

    /// Train a small CT on the fleet, mirroring the CLI's training set.
    pub(crate) fn model(series: &[SmartSeries], features: &FeatureSet) -> SavedModel {
        let rng = DeterministicRng::new(0x5EED);
        let mut samples = Vec::new();
        for (d, s) in series.iter().enumerate() {
            match s.class.fail_hour() {
                None => {
                    for k in 0..3u64 {
                        let u = rng.uniform(d as u64, k);
                        let idx = (u * s.len() as f64) as usize;
                        if let Some(f) = features.extract(s, idx) {
                            samples.push(ClassSample::new(f, Class::Good));
                        }
                    }
                }
                Some(fail) => {
                    for idx in 0..s.len() {
                        if s.samples()[idx].hour.0 + 168 < fail.0 {
                            continue;
                        }
                        if let Some(f) = features.extract(s, idx) {
                            samples.push(ClassSample::new(f, Class::Failed));
                        }
                    }
                }
            }
        }
        let tree = ClassificationTreeBuilder::new().build(&samples).unwrap();
        SavedModel::from(tree.compile())
    }

    /// CSV-encode a fleet and split it into single-feed routed lines.
    pub(crate) fn feed_lines(series: &[SmartSeries]) -> Vec<RoutedLine> {
        let mut buf = Vec::new();
        write_header(&mut buf).unwrap();
        for s in series {
            write_series(&mut buf, s).unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        routed(
            &text
                .lines()
                .filter(|l| !hdd_smart::csv::is_header_line(l))
                .map(str::to_string)
                .collect::<Vec<_>>(),
        )
    }

    fn shard(model: SavedModel, features: &FeatureSet) -> EngineShard {
        EngineShard::new(
            Arc::new(model),
            features.clone(),
            EngineConfig::new(VOTERS, VotingRule::Majority, 0.1),
            1,
        )
        .unwrap()
    }

    /// Tag plain text lines as a single feed's routed lines: seq = line
    /// index, offsets cumulative.
    pub(crate) fn routed(lines: &[String]) -> Vec<RoutedLine> {
        let mut offset = 0u64;
        lines
            .iter()
            .enumerate()
            .map(|(i, text)| {
                offset += text.len() as u64 + 1;
                RoutedLine {
                    seq: i as u64,
                    text: text.as_str().into(),
                    end_offset: offset,
                    generation: 0,
                }
            })
            .collect()
    }

    /// Run lines through a shard in batches of `batch`, returning the
    /// alarms they produced.
    fn run(shard: &mut EngineShard, lines: &[RoutedLine], batch: usize) -> Vec<Alarm> {
        let token = CancelToken::new();
        let before = shard.unmerged().len();
        for chunk in lines.chunks(batch.max(1)) {
            shard.process(&token, chunk).unwrap();
        }
        shard.unmerged()[before..].iter().map(|a| a.alarm).collect()
    }

    #[test]
    fn streaming_matches_batch_detection() {
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = model(&series, &features);
        let lines = feed_lines(&series);

        let mut eng = shard(model.clone(), &features);
        let streamed = run(&mut eng, &lines, 37);

        let detector = VotingDetector::new(&model, &features, VOTERS, VotingRule::Majority);
        let mut expected = Vec::new();
        for s in &series {
            if let Some(hour) = detector.first_alarm(s, Hour(0)..Hour(u32::MAX)) {
                expected.push(Alarm {
                    drive: s.drive.0,
                    hour: hour.0,
                });
            }
        }
        assert!(!expected.is_empty(), "fleet must produce reference alarms");
        assert_eq!(streamed, expected);
        assert_eq!(eng.stats().rows_seen, eng.stats().rows_accepted);
        assert_eq!(eng.unmerged().len(), expected.len(), "alarms buffered");
    }

    #[test]
    fn batch_size_cannot_change_the_outcome() {
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = model(&series, &features);
        let lines = feed_lines(&series);
        let recording = || {
            let mut eng = shard(model.clone(), &features);
            eng.set_record_events(true);
            eng
        };
        let mut whole = recording();
        let reference = run(&mut whole, &lines, usize::MAX);
        assert!(!whole.events().is_empty());
        // 255, 256 and 257 straddle the topology's sub-batch size.
        for batch in [1, 3, 64, 255, 256, 257] {
            let mut eng = recording();
            assert_eq!(run(&mut eng, &lines, batch), reference, "batch={batch}");
            assert_eq!(eng.events(), whole.events(), "batch={batch}");
        }
    }

    #[test]
    fn checkpoint_split_resumes_bit_identically() {
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = model(&series, &features);
        let lines = feed_lines(&series);

        let mut reference_shard = shard(model.clone(), &features);
        let reference = run(&mut reference_shard, &lines, 64);
        let reference_state = encoded(&reference_shard);

        for split in [0, 1, 17, lines.len() / 2, lines.len() - 1] {
            let mut first = shard(model.clone(), &features);
            let mut alarms = run(&mut first, &lines[..split], 64);
            let snapshot = encoded(&first);
            let mut second = shard(model.clone(), &features);
            second.read_state(&snapshot).unwrap();
            alarms.extend(run(&mut second, &lines[split..], 64));
            assert_eq!(alarms, reference, "split at line {split}");
            assert_eq!(
                encoded(&second),
                reference_state,
                "state after split at line {split}"
            );
        }
    }

    #[test]
    fn replayed_lines_have_zero_state_effect() {
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = model(&series, &features);
        let lines = feed_lines(&series);
        let token = CancelToken::new();

        let mut reference_shard = shard(model.clone(), &features);
        run(&mut reference_shard, &lines, 64);
        let reference_state = encoded(&reference_shard);

        // Replay the whole feed with a stale prefix: the first half is
        // fed twice, exactly what a crash-resume with an old ingest
        // cursor does.
        let mut eng = shard(model.clone(), &features);
        run(&mut eng, &lines[..lines.len() / 2], 64);
        let mut replay = lines[..lines.len() / 2].to_vec();
        replay.extend_from_slice(&lines);
        let mut replayed = 0usize;
        for chunk in replay.chunks(64) {
            replayed += eng.process(&token, chunk).unwrap().replayed;
        }
        assert_eq!(replayed, lines.len(), "the stale prefix is skipped");
        assert_eq!(
            encoded(&eng),
            reference_state,
            "replay must not disturb counters, breaker or voting"
        );
    }

    #[test]
    fn recorded_events_carry_labels_and_survive_checkpoints() {
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = model(&series, &features);
        let lines = feed_lines(&series);

        let mut eng = shard(model.clone(), &features);
        eng.set_record_events(true);
        run(&mut eng, &lines, 64);
        assert!(!eng.events().is_empty(), "scored rows must be recorded");
        assert!(eng.events().len() <= eng.stats().rows_accepted);
        let labels: BTreeMap<u32, Option<u32>> = series
            .iter()
            .map(|s| (s.drive.0, s.class.fail_hour().map(|h| h.0)))
            .collect();
        for e in eng.events() {
            assert_eq!(e.features.len(), features.len());
            assert_eq!(labels[&e.drive], e.fail_hour, "drive {}", e.drive);
            assert!(e.incumbent_score.is_finite());
        }

        // Undrained events are checkpointed state: they round-trip
        // through the serialized form bit for bit.
        let mut restored = shard(model.clone(), &features);
        restored.read_state(&encoded(&eng)).unwrap();
        assert_eq!(restored.events(), eng.events());

        // A pre-events checkpoint (no `events` field) still restores.
        let legacy = encoded(&eng).replacen("\"events\":[", "\"legacy\":[", 1);
        let mut old = shard(model.clone(), &features);
        old.read_state(&legacy).unwrap();
        assert!(old.events().is_empty());

        // Draining below a seq removes exactly the covered prefix, and
        // recording off keeps the commit path event-free.
        let mid = eng.events()[eng.events().len() / 2].seq;
        let drained = eng.drain_events(|e| e.seq < mid);
        assert!(!drained.is_empty());
        assert!(drained.iter().all(|e| e.seq < mid));
        assert!(eng.events().iter().all(|e| e.seq >= mid));
        let mut silent = shard(model, &features);
        run(&mut silent, &lines, 64);
        assert!(silent.events().is_empty(), "recording defaults to off");
    }

    #[test]
    fn adopt_cursors_is_monotone() {
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = model(&series, &features);
        let mut eng = EngineShard::new(
            Arc::new(model),
            features.clone(),
            EngineConfig::new(VOTERS, VotingRule::Majority, 0.1),
            2,
        )
        .unwrap();
        let ahead = [
            FeedCursor {
                next_line: 5,
                offset: 500,
                generation: 0,
            },
            FeedCursor {
                next_line: 2,
                offset: 120,
                generation: 1,
            },
        ];
        assert!(eng.adopt_cursors(&ahead));
        assert_eq!(eng.cursors(), &ahead);
        // A stale snapshot moves nothing.
        let behind = [FeedCursor::default(), FeedCursor::default()];
        assert!(!eng.adopt_cursors(&behind));
        assert_eq!(eng.cursors(), &ahead);
    }

    /// A shard whose rule alarms on any full window, so alarm flow can
    /// be tested without caring what the model outputs.
    fn always_alarm_shard(features: &FeatureSet, model: SavedModel) -> EngineShard {
        EngineShard::new(
            Arc::new(model),
            features.clone(),
            EngineConfig {
                voters: 3,
                rule: VotingRule::MeanBelow(f64::MAX),
                breaker: BreakerConfig {
                    window: 4,
                    max_fraction: 0.25,
                    // Long enough that degraded mode covers the first
                    // alarm votes below.
                    cooldown: 16,
                },
            },
            1,
        )
        .unwrap()
    }

    /// A well-formed good-drive row.
    pub(crate) fn data_row(drive: u32, hour: u32) -> String {
        let mut out = format!("{drive},0,,{hour}");
        for i in 0..NUM_ATTRIBUTES {
            out.push_str(&format!(",{}", i + 1));
        }
        out
    }

    #[test]
    fn degraded_mode_suppresses_alarms_and_recovers() {
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = model(&series, &features);
        let mut eng = always_alarm_shard(&features, model);
        let token = CancelToken::new();

        // Trip the breaker (4-row window, 0.25 ceiling, cooldown 16).
        let garbage: Vec<String> = (0..4).map(|i| format!("garbage-{i}")).collect();
        let outcome = eng.process(&token, &routed(&garbage)).unwrap();
        assert_eq!(outcome.transitions.len(), 1);
        assert!(eng.breaker_state() != BreakerState::Healthy);

        // Drive 7 would alarm at hour 8 (3 scored samples from hour 6);
        // while degraded the decision is suppressed and counted. Seqs
        // continue after the garbage batch.
        let mut all: Vec<String> = garbage.clone();
        all.extend((0..=8).map(|h| data_row(7, h)));
        eng.process(&token, &routed(&all)[garbage.len()..]).unwrap();
        assert!(eng.unmerged().is_empty(), "degraded mode must suppress");
        assert!(eng.stats().alarms_suppressed >= 1);

        // A long clean stretch exhausts the cooldown (half-open at hour
        // 15) and the probation (healthy at hour 19); the drive was
        // never latched, so the first vote after suppression ends fires
        // for real, exactly once.
        all.extend((9..40).map(|h| data_row(7, h)));
        let start = all.len() - 31;
        eng.process(&token, &routed(&all)[start..]).unwrap();
        assert_eq!(eng.breaker_state(), BreakerState::Healthy);
        assert_eq!(
            eng.unmerged().iter().map(|a| a.alarm).collect::<Vec<_>>(),
            vec![Alarm { drive: 7, hour: 15 }],
            "first vote after recovery fires once"
        );
        assert_eq!(eng.stats().alarms_emitted, 1);
        assert_eq!(eng.stats().alarms_suppressed, 7);
    }

    #[test]
    fn stale_and_conflicting_rows_are_dropped_and_counted() {
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = model(&series, &features);
        let mut eng = shard(model, &features);
        let token = CancelToken::new();

        let mut failed_row = data_row(5, 3);
        failed_row = failed_row.replacen(",0,,", ",1,500,", 1);
        let lines = vec![
            data_row(5, 1),
            data_row(5, 2),
            data_row(5, 2), // duplicate hour: stale
            data_row(5, 1), // late arrival: stale
            failed_row,     // class conflict
            data_row(5, 3),
        ];
        eng.process(&token, &routed(&lines)).unwrap();
        assert!(eng.unmerged().is_empty());
        let stats = eng.stats();
        assert_eq!(stats.rows_seen, 6);
        assert_eq!(stats.rows_accepted, 3);
        assert_eq!(stats.stale_rows, 2);
        assert_eq!(stats.conflicting_rows, 1);
    }

    #[test]
    fn cancelled_batch_commits_nothing() {
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = model(&series, &features);
        let lines = feed_lines(&series);
        let (head, tail) = lines.split_at(lines.len() / 2);
        let recording = || {
            let mut eng = shard(model.clone(), &features);
            eng.set_record_events(true);
            eng
        };
        let mut eng = recording();
        run(&mut eng, head, 64);
        assert!(!eng.events().is_empty());
        let before = encoded(&eng);

        for token in [CancelToken::new(), CancelToken::with_budget(Duration::ZERO)] {
            token.cancel();
            let err = eng.process(&token, tail).unwrap_err();
            assert!(matches!(err, ParError::Cancelled), "{err}");
            assert_eq!(encoded(&eng), before, "nothing committed");
        }
        let expired = CancelToken::with_budget(Duration::ZERO);
        let err = eng.process(&expired, tail).unwrap_err();
        assert!(matches!(err, ParError::DeadlineExceeded), "{err}");
        assert_eq!(encoded(&eng), before);

        // The identical retry under a fresh token commits normally.
        eng.process(&CancelToken::new(), tail).unwrap();
        let mut whole = recording();
        run(&mut whole, &lines, usize::MAX);
        assert_eq!(encoded(&eng), encoded(&whole));
    }

    #[test]
    fn swap_model_enforces_the_feature_contract() {
        let features = FeatureSet::critical13();
        let series = fleet();
        let m = model(&series, &features);
        let mut eng = shard(m.clone(), &features);

        // A 2-feature model cannot replace a 13-feature one.
        let narrow_samples: Vec<ClassSample> = (0..100)
            .map(|i| {
                let x = (i % 13) as f64;
                let class = if x < 6.0 { Class::Failed } else { Class::Good };
                ClassSample::new(vec![x, 1.0], class)
            })
            .collect();
        let narrow = ClassificationTreeBuilder::new()
            .build(&narrow_samples)
            .unwrap();
        let err = eng
            .swap_model(Arc::new(SavedModel::from(narrow.compile())))
            .unwrap_err();
        assert!(matches!(err, ModelError::FeatureMismatch { .. }), "{err}");
        eng.swap_model(Arc::new(m)).unwrap();
    }

    #[test]
    fn restore_rejects_malformed_state() {
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = model(&series, &features);
        let mut eng = shard(model, &features);
        let good = encoded(&eng);
        for bad in [
            good.replacen("\"cursors\"", "\"cursers\"", 1),
            good.replacen("\"drives\":[]", "\"drives\":7", 1),
            // Wrong feed count: one cursor expected, two given.
            good.replacen(
                "\"cursors\":[",
                "\"cursors\":[{\"next_line\":0,\"offset\":0,\"generation\":0},",
                1,
            ),
        ] {
            assert!(eng.read_state(&bad).is_err(), "{bad}");
        }
    }
}
