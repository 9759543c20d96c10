//! The sharded serving topology: queues, tick fan-out, deterministic
//! alarm merge, and the checkpoint directory protocol.
//!
//! A [`ServeTopology`] owns `n_shards` [`EngineShard`]s, each behind a
//! bounded queue of [`RoutedLine`]s. One *tick* fans the shards out
//! across the worker pool (each shard drains its queue in sub-batches),
//! then runs the merge stage: every buffered alarm whose seq is below
//! the topology **watermark** — the minimum of the ingest watermark and
//! the smallest seq still queued anywhere — is emitted in seq order.
//! Because routing, seqs and per-shard state are all pure functions of
//! feed content, the emitted byte stream is identical at any shard
//! count and any poll/tick interleaving (see DESIGN.md §8; the one
//! caveat is quarantine suppression, which is per-shard by design).
//!
//! Checkpoints live in a **directory**: `topology.ckpt` holds the merge
//! state (plus the shard/feed counts it was written for); shard `k`'s
//! engine state is the snapshot `shard-<k>.ckpt` plus the frames of its
//! record log `shard-<k>.log`. The save order — sink first, then
//! `topology.ckpt`, then dirty shards — is what makes a crash between
//! any two writes recoverable: a shard's files can only ever be *behind*
//! the merge state, so replayed lines regenerate alarms that
//! [`MergeState::already_emitted`] then filters out.
//!
//! A dirty shard's save costs what it changed, not what it holds: its
//! [`SnapshotLog`] appends one frame of the records the engine logged
//! since the last save ([`EngineShard::take_log`]), or writes a snapshot
//! once the log outgrows the last one. Records that a snapshot already
//! covers (a crash between the snapshot and the emptying of the log
//! leaves some) replay with zero state effect, because replay filters
//! lines by seq. Restore loads the snapshot and replays the log's whole
//! frames through the engine's commit path ([`EngineShard::replay_log`]).
//!
//! Inside a tick the pool runs the shards concurrently, one shard per
//! worker at most; each shard scores its own lines serially, one pass in
//! routing order (see [`EngineShard::process`]).

use crate::breaker::BreakerState;
use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointKind, SnapshotLog};
use crate::engine::{EngineConfig, EngineShard, RowEvent, SeqAlarm};
use crate::ingest::{FeedCursor, RoutedLine};
use crate::merge::MergeState;
use crate::queue::BoundedQueue;
use crate::router::ShardRouter;
use hdd_eval::{ModelError, SavedModel};
use hdd_json::disk::{Disk, RealDisk};
use hdd_json::{JsonCodec, Value};
use hdd_par::{CancelToken, ParError, ThreadPool};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Lines committed per engine call inside a tick, so deadline checks
/// happen at a useful granularity.
pub const SUB_BATCH_LINES: usize = 256;

/// One shard plus its inbound queue.
#[derive(Debug)]
struct ShardSlot {
    engine: EngineShard,
    queue: BoundedQueue<RoutedLine>,
    /// Whether the engine changed since its checkpoint was written.
    dirty: bool,
    /// The shard's snapshot and record log, once a save or a resume
    /// named the directory.
    ckpt: Option<SnapshotLog>,
}

impl ShardSlot {
    /// Persist the changes since the last save as shard `k` of `dir`:
    /// one log frame of the engine's records, or a snapshot.
    fn save(&mut self, disk: &dyn Disk, dir: &Path, k: usize) -> Result<(), CheckpointError> {
        let records = self.engine.take_log();
        self.engine.start_log();
        let engine = &self.engine;
        let ckpt = self.ckpt.get_or_insert_with(|| shard_ckpt(dir, k));
        ckpt.save(disk, || records, |out| engine.write_state(out))
    }

    /// Restore shard `k` of `dir`: its snapshot, if any, then its log's
    /// records through the engine's commit path.
    fn restore(&mut self, dir: &Path, k: usize) -> Result<(), CheckpointError> {
        let ckpt = self.ckpt.insert(shard_ckpt(dir, k));
        let engine = &mut self.engine;
        if let Some(state) = ckpt.load_snapshot(|c| engine.decode_state(c))? {
            engine.install(state);
        }
        let log_path = ckpt.log_path();
        ckpt.replay_log(|frames| {
            for &(offset, records) in frames {
                engine
                    .replay_log(records)
                    .map_err(|e| CheckpointError::Corrupt {
                        offset,
                        detail: format!("{}: {e}", log_path.display()),
                    })?;
            }
            Ok(())
        })
    }
}

/// Shard `k`'s snapshot and record log in `dir`.
fn shard_ckpt(dir: &Path, k: usize) -> SnapshotLog {
    SnapshotLog::new(
        CheckpointKind::Shard,
        shard_path(dir, k),
        shard_log_path(dir, k),
    )
}

/// What one shard's fan-out slice of a tick produced.
#[derive(Debug, Default)]
struct SlotTickResult {
    processed: usize,
    replayed: usize,
    transitions: Vec<BreakerState>,
}

/// What one topology tick produced.
#[derive(Debug, Default)]
pub struct TickOutcome {
    /// Whether any line committed or any alarm was emitted (the serve
    /// loop's idle test).
    pub progressed: bool,
    /// Alarms released by the merge stage this tick, in seq order —
    /// append these to the sink *before* checkpointing.
    pub alarms: Vec<SeqAlarm>,
    /// Breaker transitions, tagged with the shard they happened on.
    pub transitions: Vec<(usize, BreakerState)>,
    /// Already-committed lines skipped during crash replay (operational
    /// counter; zero state effect).
    pub replayed: usize,
    /// Row events released by the merge stage this tick, in seq order —
    /// empty unless event recording is on. Released under the same
    /// watermark as alarms, so the event stream a lifecycle consumer
    /// sees is identical at any shard count.
    pub events: Vec<RowEvent>,
}

/// The path of the merge-state checkpoint inside `dir`.
#[must_use]
pub fn topology_path(dir: &Path) -> PathBuf {
    dir.join("topology.ckpt")
}

/// The path of shard `k`'s snapshot inside `dir`.
#[must_use]
pub fn shard_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("shard-{k}.ckpt"))
}

/// The path of shard `k`'s record log inside `dir`.
#[must_use]
pub fn shard_log_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("shard-{k}.log"))
}

/// `n_shards` engine shards behind bounded queues, with a deterministic
/// merge stage; see the module docs.
#[derive(Debug)]
pub struct ServeTopology {
    slots: Vec<ShardSlot>,
    router: ShardRouter,
    merge: MergeState,
    n_feeds: usize,
    disk: Arc<dyn Disk>,
}

impl ServeTopology {
    /// A fresh topology of `n_shards` shards over `n_feeds` feeds, each
    /// shard buffering at most `queue_capacity` routed lines.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::FeatureMismatch`] when the model does not
    /// score the feature set's dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is not a power of two, `n_feeds` is zero, or
    /// `queue_capacity` is zero (the CLI validates all three as usage
    /// errors first).
    pub fn new(
        model: &Arc<SavedModel>,
        features: &hdd_stats::FeatureSet,
        config: EngineConfig,
        n_shards: usize,
        n_feeds: usize,
        queue_capacity: usize,
    ) -> Result<Self, ModelError> {
        let router = ShardRouter::new(n_shards);
        let mut slots = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            slots.push(ShardSlot {
                engine: EngineShard::new(Arc::clone(model), features.clone(), config, n_feeds)?,
                queue: BoundedQueue::new(queue_capacity),
                dirty: false,
                ckpt: None,
            });
        }
        Ok(ServeTopology {
            slots,
            router,
            merge: MergeState::new(),
            n_feeds,
            disk: Arc::new(RealDisk),
        })
    }

    /// Write checkpoints through `disk` instead of the real disk.
    pub fn set_disk(&mut self, disk: Arc<dyn Disk>) {
        self.disk = disk;
    }

    /// The router partitioning drive ids across these shards — build the
    /// ingest with exactly this one.
    #[must_use]
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// How many shards this topology runs.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.slots.len()
    }

    /// How many feeds this topology consumes.
    #[must_use]
    pub fn n_feeds(&self) -> usize {
        self.n_feeds
    }

    /// The merge stage's durable state (low-water mark, early-flushed
    /// seqs, checkpointed sink length).
    #[must_use]
    pub fn merge_state(&self) -> &MergeState {
        &self.merge
    }

    /// The smallest free queue capacity across shards — the safe ingest
    /// poll budget: however routing lands, no queue can overflow.
    #[must_use]
    pub fn free(&self) -> usize {
        self.slots.iter().map(|s| s.queue.free()).min().unwrap_or(0)
    }

    /// Lines queued across all shards.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.slots.iter().map(|s| s.queue.len()).sum()
    }

    /// Whether any shard still has queued lines.
    #[must_use]
    pub fn has_queued(&self) -> bool {
        self.slots.iter().any(|s| !s.queue.is_empty())
    }

    /// Lines evicted from full queues since startup (zero as long as the
    /// caller polls within [`ServeTopology::free`]).
    #[must_use]
    pub fn dropped(&self) -> usize {
        self.slots.iter().map(|s| s.queue.dropped()).sum()
    }

    /// Per-shard eviction counters, shard order — the skew-diagnosis
    /// companion to [`ServeTopology::shard_stats`]; checkpointed beside
    /// the merge state so a resumed run reports cumulative loss.
    #[must_use]
    pub fn shard_dropped(&self) -> Vec<usize> {
        self.slots.iter().map(|s| s.queue.dropped()).collect()
    }

    /// Merged counters across all shards.
    #[must_use]
    pub fn stats(&self) -> crate::stats::ShardStats {
        let mut out = crate::stats::ShardStats::default();
        for slot in &self.slots {
            out = out.merged(&slot.engine.stats());
        }
        out
    }

    /// Per-shard counters, shard order — the monitoring view that makes
    /// load skew visible (the merged roll-up is [`ServeTopology::stats`]).
    #[must_use]
    pub fn shard_stats(&self) -> Vec<crate::stats::ShardStats> {
        self.slots.iter().map(|s| s.engine.stats()).collect()
    }

    /// Drives tracked across all shards (drive ids never cross shards,
    /// so this is an exact count).
    #[must_use]
    pub fn tracked_drives(&self) -> usize {
        self.slots.iter().map(|s| s.engine.tracked_drives()).sum()
    }

    /// The shard engines, shard order.
    pub fn shards(&self) -> impl Iterator<Item = &EngineShard> {
        self.slots.iter().map(|s| &s.engine)
    }

    /// Enqueue one ingest poll's routing (`routed[k]` → shard `k`);
    /// returns how many lines were evicted (zero when the poll budget
    /// came from [`ServeTopology::free`]).
    ///
    /// # Panics
    ///
    /// Panics if `routed` does not have one bucket per shard.
    pub fn enqueue(&mut self, routed: Vec<Vec<RoutedLine>>) -> usize {
        assert_eq!(routed.len(), self.slots.len(), "one bucket per shard");
        let before: usize = self.dropped();
        for (slot, lines) in self.slots.iter_mut().zip(routed) {
            for line in lines {
                slot.queue.push(line);
            }
        }
        self.dropped() - before
    }

    /// Run one tick: fan the shards out over `pool`, then emit every
    /// alarm the watermark has cleared, in seq order.
    ///
    /// `ingest_cursors` / `ingest_watermark` are the ingest layer's
    /// current positions ([`crate::ingest::MultiFeedIngest::cursors`] /
    /// [`crate::ingest::MultiFeedIngest::watermark`]); shards whose
    /// queues drained adopt the cursor snapshot so their checkpoints
    /// track feed positions even through quiet stretches.
    ///
    /// Each shard commits its first sub-batch deadline-free (so a tight
    /// tick budget degrades throughput, never liveness) and the rest
    /// under `token`; a deadline mid-queue simply leaves the remainder
    /// for the next tick.
    ///
    /// # Errors
    ///
    /// Returns [`ParError::Panic`] if the model panicked while scoring
    /// (a bug). The panicking shard is left partly advanced inside its
    /// sub-batch, so the caller must drop the topology and reopen from
    /// its last checkpoint rather than tick it again.
    pub fn tick(
        &mut self,
        pool: &ThreadPool,
        token: &CancelToken,
        ingest_cursors: &[FeedCursor],
        ingest_watermark: u64,
    ) -> Result<TickOutcome, ParError> {
        let results = pool.try_parallel_map_mut(&mut self.slots, |_, slot| {
            let mut res = SlotTickResult::default();
            let first_batch = CancelToken::new();
            while !slot.queue.is_empty() {
                let take = SUB_BATCH_LINES.min(slot.queue.len());
                // A copy, not a borrow: borrowing measured a higher backfill
                // peak RSS (OPTIMIZATION_LOG entry 11).
                #[expect(
                    clippy::indexing_slicing,
                    reason = "take is min(SUB_BATCH_LINES, queue.len()), never past the contiguous slice"
                )]
                let batch = slot.queue.make_contiguous()[..take].to_vec();
                let tok = if res.processed == 0 {
                    &first_batch
                } else {
                    token
                };
                // An error is the token tripping: the rest stays queued.
                let Ok(outcome) = slot.engine.process(tok, &batch) else {
                    break;
                };
                slot.queue.discard(take);
                slot.dirty = true;
                res.processed += take;
                res.replayed += outcome.replayed;
                res.transitions.extend(outcome.transitions);
            }
            res
        })?;

        let mut outcome = TickOutcome::default();
        for (shard, res) in results.into_iter().enumerate() {
            outcome.progressed |= res.processed > 0;
            outcome.replayed += res.replayed;
            outcome
                .transitions
                .extend(res.transitions.into_iter().map(|t| (shard, t)));
        }

        // Drained shards may claim the ingest's feed positions: every
        // line routed to them before the snapshot has now committed.
        for slot in &mut self.slots {
            if slot.queue.is_empty() && slot.engine.adopt_cursors(ingest_cursors) {
                slot.dirty = true;
            }
        }

        // The merge watermark: no shard can still produce a smaller seq.
        let queued_min = self
            .slots
            .iter()
            .flat_map(|s| s.queue.iter().map(|l| l.seq))
            .min();
        let watermark = queued_min.map_or(ingest_watermark, |q| q.min(ingest_watermark));
        outcome.alarms = self.emit(|a| a.seq < watermark);
        outcome.events = self.release_events(|e| e.seq < watermark);
        self.merge.advance(watermark);
        outcome.progressed |= !outcome.alarms.is_empty();
        Ok(outcome)
    }

    /// Drain alarms selected by `take` from every shard, drop the ones
    /// the merge already emitted, and return the rest in seq order.
    fn emit(&mut self, take: impl Fn(&SeqAlarm) -> bool) -> Vec<SeqAlarm> {
        let mut emitted = Vec::new();
        for slot in &mut self.slots {
            let drained = slot
                .engine
                .drain_unmerged(|a| take(a) || self.merge.already_emitted(a.seq));
            if !drained.is_empty() {
                slot.dirty = true;
            }
            emitted.extend(
                drained
                    .into_iter()
                    .filter(|a| !self.merge.already_emitted(a.seq)),
            );
        }
        emitted.sort_unstable_by_key(|a| a.seq);
        emitted
    }

    /// Flush every buffered alarm regardless of the watermark, in seq
    /// order, recording their seqs so neither a resume nor a late-growing
    /// feed can re-emit them. Call only when the feeds are idle and
    /// [`ServeTopology::has_queued`] is false — with feeds of unequal
    /// length the watermark stalls at the shortest feed forever, and
    /// this is the escape hatch.
    pub fn flush_pending(&mut self) -> Vec<SeqAlarm> {
        let flushed = self.emit(|_| true);
        self.merge.record_ahead(flushed.iter().map(|a| a.seq));
        flushed
    }

    /// Turn [`RowEvent`] recording on or off for every shard. Off by
    /// default; a model lifecycle turns it on at startup.
    pub fn set_record_events(&mut self, on: bool) {
        for slot in &mut self.slots {
            slot.engine.set_record_events(on);
        }
    }

    /// Drain events selected by `take` from every shard, in seq order.
    /// The caller (the lifecycle) is responsible for dropping events it
    /// already consumed before a crash — replayed lines regenerate them
    /// with the same seqs.
    fn release_events(&mut self, take: impl Fn(&RowEvent) -> bool) -> Vec<RowEvent> {
        let mut released = Vec::new();
        for slot in &mut self.slots {
            let drained = slot.engine.drain_events(&take);
            if !drained.is_empty() {
                slot.dirty = true;
            }
            released.extend(drained);
        }
        released.sort_unstable_by_key(|e| e.seq);
        released
    }

    /// Flush every buffered row event regardless of the watermark, in
    /// seq order — the event counterpart of
    /// [`ServeTopology::flush_pending`], for the same stalled-watermark
    /// idle case. Seq-based dedup on the consumer side keeps a later
    /// resume from double-counting them.
    pub fn flush_events(&mut self) -> Vec<RowEvent> {
        self.release_events(|_| true)
    }

    /// Record the alarm-sink length the next checkpoint corresponds to;
    /// call after appending and flushing sink bytes, before
    /// [`ServeTopology::save_checkpoints`].
    pub fn note_sink_bytes(&mut self, bytes: u64) {
        self.merge.sink_bytes = bytes;
    }

    /// Swap a hot-reloaded model into every shard.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::FeatureMismatch`] when the replacement does
    /// not score the configured feature dimensionality; no shard is
    /// changed and the current model keeps serving everywhere.
    pub fn swap_model(&mut self, model: &Arc<SavedModel>) -> Result<(), ModelError> {
        // The contract is identical for every shard, so validate on the
        // first and the rest cannot fail halfway.
        for slot in &mut self.slots {
            slot.engine.swap_model(Arc::clone(model))?;
        }
        Ok(())
    }

    /// Write the checkpoint directory: `topology.ckpt` first, then every
    /// dirty shard, as a frame appended to `shard-<k>.log` or a snapshot
    /// `shard-<k>.ckpt` (see the module docs). The caller must have
    /// appended and flushed sink bytes (and
    /// [`ServeTopology::note_sink_bytes`]) beforehand — sink → topology →
    /// shards is the order the resume protocol relies on (a shard's files
    /// may lag the merge state, never lead it).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when a file cannot be written.
    pub fn save_checkpoints(&mut self, dir: &Path) -> Result<(), CheckpointError> {
        self.disk.create_dir(dir)?;
        let payload = Value::Obj(vec![
            ("n_shards".to_string(), Value::Num(self.slots.len() as f64)),
            ("n_feeds".to_string(), Value::Num(self.n_feeds as f64)),
            ("merge".to_string(), self.merge.to_json()),
            (
                "dropped".to_string(),
                Value::from_usizes(self.shard_dropped()),
            ),
        ]);
        Checkpoint {
            kind: CheckpointKind::Topology,
            payload,
        }
        .save(&*self.disk, &topology_path(dir))?;
        for (k, slot) in self.slots.iter_mut().enumerate() {
            if !slot.dirty {
                continue;
            }
            slot.save(&*self.disk, dir, k)?;
            slot.dirty = false;
        }
        Ok(())
    }

    /// Restore state from a checkpoint directory written by
    /// [`ServeTopology::save_checkpoints`]. Returns whether a checkpoint
    /// was found (`false` means a fresh start: the directory holds no
    /// topology state).
    ///
    /// Each shard loads its snapshot, then replays its log. A missing
    /// `shard-<k>.ckpt` restores shard `k` fresh — its lines replay from
    /// the feed start and the merge filter drops what was already
    /// emitted — unless its log holds records, which are refused. Shard
    /// files *without* a `topology.ckpt` are refused: the merge state is
    /// what makes replay exactly-once, so resuming without it could
    /// duplicate sink lines.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Incompatible`] when the directory was
    /// written for a different shard or feed count (sharding changes
    /// need a fresh checkpoint directory), and [`CheckpointError`] for
    /// corrupt, unreadable or wrong-kind files.
    pub fn resume(&mut self, dir: &Path) -> Result<bool, CheckpointError> {
        let topo = topology_path(dir);
        if !topo.exists() {
            if let Some(orphan) = find_shard_file(dir)? {
                return Err(CheckpointError::Incompatible(format!(
                    "{} exists but {} does not; refusing to resume without \
                     the merge state (move the shard files away to start fresh)",
                    orphan.display(),
                    topo.display()
                )));
            }
            return Ok(false);
        }
        let ck = Checkpoint::load_expecting(&topo, CheckpointKind::Topology)?;
        let ck_shards = ck.payload.usize_field("n_shards")?;
        let ck_feeds = ck.payload.usize_field("n_feeds")?;
        if ck_shards != self.slots.len() || ck_feeds != self.n_feeds {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint was written for {ck_shards} shard(s) over {ck_feeds} feed(s); \
                 this topology runs {} over {}",
                self.slots.len(),
                self.n_feeds
            )));
        }
        self.merge = MergeState::from_json(ck.payload.field("merge")?)?;
        let dropped = ck.payload.usize_vec_field("dropped")?;
        if dropped.len() != self.slots.len() {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint records {} per-shard drop counter(s) for {} shard(s)",
                dropped.len(),
                self.slots.len()
            )));
        }
        for (slot, n) in self.slots.iter_mut().zip(dropped) {
            slot.queue.restore_dropped(n);
        }
        for (k, slot) in self.slots.iter_mut().enumerate() {
            slot.restore(dir, k)?;
            // A shard older than the merge state may hold alarms that
            // already reached the sink; drop them now (replayed lines
            // would only regenerate filtered duplicates).
            let merge = &self.merge;
            slot.engine.drain_unmerged(|a| merge.already_emitted(a.seq));
            slot.engine.start_log();
        }
        Ok(true)
    }

    /// The feed positions ingest must resume from: per feed, the
    /// *earliest* position any shard's checkpoint needs — shards ahead
    /// of it skip the replayed overlap by cursor.
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "every shard engine is built with the same n_feeds, so cursors() has an entry for f"
    )]
    pub fn ingest_resume_cursors(&self) -> Vec<FeedCursor> {
        (0..self.n_feeds)
            .map(|f| {
                self.slots
                    .iter()
                    .map(|s| s.engine.cursors()[f])
                    .min_by_key(FeedCursor::position_key)
                    .unwrap_or_default()
            })
            .collect()
    }
}

/// The first `shard-<k>.ckpt` or `shard-<k>.log` in `dir`, if any (scans
/// the directory so leftovers from a *larger* previous shard count are
/// caught too).
fn find_shard_file(dir: &Path) -> Result<Option<PathBuf>, CheckpointError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(CheckpointError::Io(e)),
    };
    for entry in entries {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("shard-") && (name.ends_with(".ckpt") || name.ends_with(".log")) {
            return Ok(Some(path));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{data_row, feed_lines, fleet, model};
    use crate::engine::Alarm;
    use crate::ingest::MultiFeedIngest;
    use hdd_eval::VotingRule;
    use hdd_fault::{FaultClass, FaultInjector};
    use hdd_smart::SmartSeries;
    use hdd_stats::FeatureSet;
    use std::fmt::Write as _;
    use std::fs;

    const VOTERS: usize = 11;

    fn config() -> EngineConfig {
        EngineConfig::new(VOTERS, VotingRule::Majority, 0.1)
    }

    fn topology(model: &Arc<SavedModel>, features: &FeatureSet, n_shards: usize) -> ServeTopology {
        ServeTopology::new(model, features, config(), n_shards, 2, 4096).unwrap()
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hdd-serve-topology-{}-{tag}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Write the fleet as two feed files, drives split by parity (the
    /// determinism contract: a drive's rows all live on one feed).
    fn write_feeds(dir: &Path, series: &[SmartSeries]) -> Vec<PathBuf> {
        let paths = vec![dir.join("feed-0.csv"), dir.join("feed-1.csv")];
        let mut bufs = [Vec::new(), Vec::new()];
        for buf in &mut bufs {
            hdd_smart::csv::write_header(buf).unwrap();
        }
        for s in series {
            hdd_smart::csv::write_series(&mut bufs[(s.drive.0 % 2) as usize], s).unwrap();
        }
        for (path, buf) in paths.iter().zip(bufs) {
            fs::write(path, buf).unwrap();
        }
        paths
    }

    /// Poll and tick until the feeds and queues are drained, then flush;
    /// returns the sink text.
    fn drive_to_idle(topology: &mut ServeTopology, ingest: &mut MultiFeedIngest) -> String {
        let mut sink = String::new();
        run_until_idle(topology, ingest, &mut sink);
        for a in topology.flush_pending() {
            writeln!(sink, "{}", a.alarm).unwrap();
        }
        topology.note_sink_bytes(sink.len() as u64);
        sink
    }

    fn run_until_idle(
        topology: &mut ServeTopology,
        ingest: &mut MultiFeedIngest,
        sink: &mut String,
    ) {
        let pool = ThreadPool::global();
        loop {
            let out = ingest.poll(topology.free());
            assert!(out.errors.is_empty());
            assert_eq!(topology.enqueue(out.routed), 0);
            let tick = topology
                .tick(
                    &pool,
                    &CancelToken::new(),
                    &ingest.cursors(),
                    ingest.watermark(),
                )
                .unwrap();
            for a in &tick.alarms {
                writeln!(sink, "{}", a.alarm).unwrap();
            }
            topology.note_sink_bytes(sink.len() as u64);
            if out.lines_read == 0 && !topology.has_queued() {
                return;
            }
        }
    }

    #[test]
    fn one_shard_topology_matches_the_bare_engine() {
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = Arc::new(model(&series, &features));
        let lines = feed_lines(&series);

        // Reference: the bare shard over the same single-feed line
        // stream (seqs are line indices, n_feeds = 1).
        let mut reference =
            EngineShard::new(Arc::clone(&model), features.clone(), config(), 1).unwrap();
        let pool = ThreadPool::global();
        reference.process(&CancelToken::new(), &lines).unwrap();
        let expected: Vec<Alarm> = reference.unmerged().iter().map(|a| a.alarm).collect();
        assert!(!expected.is_empty());

        let mut topo = ServeTopology::new(&model, &features, config(), 1, 1, lines.len()).unwrap();
        assert_eq!(topo.enqueue(vec![lines.clone()]), 0);
        let tick = topo
            .tick(
                &pool,
                &CancelToken::new(),
                &[FeedCursor::default()],
                u64::MAX,
            )
            .unwrap();
        assert!(tick.progressed);
        let got: Vec<Alarm> = tick.alarms.iter().map(|a| a.alarm).collect();
        assert_eq!(got, expected);
        assert_eq!(topo.stats(), reference.stats());
        assert_eq!(topo.tracked_drives(), reference.tracked_drives());
    }

    #[test]
    fn alarm_output_is_identical_at_1_2_and_4_shards() {
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = Arc::new(model(&series, &features));
        let dir = scratch_dir("shard-identity");
        let paths = write_feeds(&dir, &series);

        let mut sinks = Vec::new();
        for n_shards in [1usize, 2, 4] {
            let mut topo = topology(&model, &features, n_shards);
            let mut ingest = MultiFeedIngest::new(&paths, topo.router());
            sinks.push(drive_to_idle(&mut topo, &mut ingest));
        }
        assert!(!sinks[0].is_empty(), "the fleet must alarm");
        assert_eq!(sinks[0], sinks[1], "2 shards diverged from 1");
        assert_eq!(sinks[0], sinks[2], "4 shards diverged from 1");
        fs::remove_dir_all(&dir).ok();
    }

    /// Without checkpoints the row path copies nothing for the log.
    #[test]
    fn a_topology_that_never_saves_keeps_its_engines_logs_off() {
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = Arc::new(model(&series, &features));
        let dir = scratch_dir("never-saves");
        let paths = write_feeds(&dir, &series);
        let mut topo = topology(&model, &features, 2);
        topo.set_record_events(true);
        let mut ingest = MultiFeedIngest::new(&paths, topo.router());
        assert!(!drive_to_idle(&mut topo, &mut ingest).is_empty());
        topo.flush_events();
        for slot in &mut topo.slots {
            assert!(slot.engine.take_log().is_none());
            assert!(slot.ckpt.is_none());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn released_events_are_identical_at_any_shard_count() {
        // The lifecycle's input stream: watermark-gated event release
        // must produce the same seq-ordered events no matter how drives
        // are partitioned.
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = Arc::new(model(&series, &features));
        let dir = scratch_dir("event-identity");
        let paths = write_feeds(&dir, &series);
        let pool = ThreadPool::global();

        let mut streams = Vec::new();
        for n_shards in [1usize, 2, 4] {
            let mut topo = topology(&model, &features, n_shards);
            topo.set_record_events(true);
            let mut ingest = MultiFeedIngest::new(&paths, topo.router());
            let mut events = Vec::new();
            loop {
                let out = ingest.poll(topo.free());
                assert!(out.errors.is_empty());
                assert_eq!(topo.enqueue(out.routed), 0);
                let tick = topo
                    .tick(
                        &pool,
                        &CancelToken::new(),
                        &ingest.cursors(),
                        ingest.watermark(),
                    )
                    .unwrap();
                events.extend(tick.events);
                if out.lines_read == 0 && !topo.has_queued() {
                    break;
                }
            }
            events.extend(topo.flush_events());
            assert!(!events.is_empty(), "the fleet must produce events");
            streams.push(events);
        }
        assert_eq!(streams[0], streams[1], "2 shards diverged from 1");
        assert_eq!(streams[0], streams[2], "4 shards diverged from 1");
        // Seq-ordered, strictly ascending (seqs are unique per line).
        assert!(streams[0].windows(2).all(|w| w[0].seq < w[1].seq));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fair_polling_keeps_what_shards_hold_within_one_poll() {
        // Two drive-major feeds of equal length: neither runs out first,
        // so the watermark should trail the fastest feed by at most one
        // poll. If one feed were drained before the other, every shard
        // would hold its whole backlog of row events and alarms, and
        // each checkpoint would re-encode all of it.
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = Arc::new(model(&series, &features));
        let dir = scratch_dir("held-back");
        let paths = write_feeds(&dir, &series);
        let texts: Vec<String> = paths
            .iter()
            .map(|p| fs::read_to_string(p).unwrap())
            .collect();
        let n_lines = texts.iter().map(|t| t.lines().count()).min().unwrap();
        for (path, text) in paths.iter().zip(&texts) {
            let cut: String = text.lines().take(n_lines).flat_map(|l| [l, "\n"]).collect();
            fs::write(path, cut).unwrap();
        }
        const BUDGET: usize = 256;
        assert!(n_lines > 8 * BUDGET, "the feeds must span many polls");
        let pool = ThreadPool::global();

        for n_shards in [1usize, 2] {
            let mut topo =
                ServeTopology::new(&model, &features, config(), n_shards, 2, BUDGET).unwrap();
            topo.set_record_events(true);
            let mut ingest = MultiFeedIngest::new(&paths, topo.router());
            let (mut events, mut alarms) = (0, 0);
            loop {
                let out = ingest.poll(topo.free());
                assert!(out.lines_read <= BUDGET);
                assert_eq!(topo.enqueue(out.routed), 0);
                let tick = topo
                    .tick(
                        &pool,
                        &CancelToken::new(),
                        &ingest.cursors(),
                        ingest.watermark(),
                    )
                    .unwrap();
                events += tick.events.len();
                alarms += tick.alarms.len();
                for (k, slot) in topo.slots.iter().enumerate() {
                    let held = (slot.engine.events().len(), slot.engine.unmerged().len());
                    assert!(
                        held.0 <= BUDGET && held.1 <= BUDGET,
                        "{n_shards} shard(s): shard {k} holds {held:?} (events, alarms)"
                    );
                }
                if out.lines_read == 0 && !topo.has_queued() {
                    break;
                }
            }
            assert!(events > 4 * BUDGET, "events flowed through the merge");
            assert!(alarms > 0, "the fleet raises alarms");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_resume_mid_run_is_byte_identical() {
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = Arc::new(model(&series, &features));
        let dir = scratch_dir("resume");
        let paths = write_feeds(&dir, &series);

        let mut reference_topo = topology(&model, &features, 4);
        let mut reference_ingest = MultiFeedIngest::new(&paths, reference_topo.router());
        let reference = drive_to_idle(&mut reference_topo, &mut reference_ingest);

        // Run partially with a small poll budget, checkpoint, keep
        // running (these post-checkpoint bytes get "lost in the crash"),
        // then resume from the checkpoint and finish.
        let ckpt = dir.join("ckpt");
        let pool = ThreadPool::global();
        let mut topo = topology(&model, &features, 4);
        let mut ingest = MultiFeedIngest::new(&paths, topo.router());
        let mut sink = String::new();
        for _ in 0..5 {
            let out = ingest.poll(97.min(topo.free()));
            topo.enqueue(out.routed);
            let tick = topo
                .tick(
                    &pool,
                    &CancelToken::new(),
                    &ingest.cursors(),
                    ingest.watermark(),
                )
                .unwrap();
            for a in &tick.alarms {
                writeln!(sink, "{}", a.alarm).unwrap();
            }
        }
        topo.note_sink_bytes(sink.len() as u64);
        topo.save_checkpoints(&ckpt).unwrap();
        let saved_sink = sink.clone();
        // Uncheckpointed progress after the save, then the "crash".
        for _ in 0..3 {
            let out = ingest.poll(97.min(topo.free()));
            topo.enqueue(out.routed);
            let tick = topo
                .tick(
                    &pool,
                    &CancelToken::new(),
                    &ingest.cursors(),
                    ingest.watermark(),
                )
                .unwrap();
            for a in &tick.alarms {
                writeln!(sink, "{}", a.alarm).unwrap();
            }
        }
        drop(topo);
        drop(ingest);

        let mut resumed = topology(&model, &features, 4);
        assert!(resumed.resume(&ckpt).unwrap());
        let mut sink = saved_sink;
        sink.truncate(resumed.merge_state().sink_bytes as usize);
        let cursors = resumed.ingest_resume_cursors();
        let mut ingest = MultiFeedIngest::resume(&paths, resumed.router(), &cursors);
        run_until_idle(&mut resumed, &mut ingest, &mut sink);
        for a in resumed.flush_pending() {
            writeln!(sink, "{}", a.alarm).unwrap();
        }
        assert_eq!(sink, reference, "resumed topology diverged");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn idle_flush_survives_resume_without_duplicates() {
        // A short feed next to a long one: the watermark stalls at the
        // short feed, alarms flush on idle, and a resume afterwards must
        // not re-emit them.
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = Arc::new(model(&series, &features));
        let dir = scratch_dir("idle-flush");

        // Feed 0 gets everything, feed 1 only a couple of rows.
        let paths = vec![dir.join("long.csv"), dir.join("short.csv")];
        let mut long = Vec::new();
        hdd_smart::csv::write_header(&mut long).unwrap();
        for s in &series {
            hdd_smart::csv::write_series(&mut long, s).unwrap();
        }
        fs::write(&paths[0], long).unwrap();
        fs::write(
            &paths[1],
            format!("{}\n{}\n", data_row(900_001, 1), data_row(900_001, 2)),
        )
        .unwrap();

        let ckpt = dir.join("ckpt");
        let mut topo = topology(&model, &features, 2);
        let mut ingest = MultiFeedIngest::new(&paths, topo.router());
        let sink = drive_to_idle(&mut topo, &mut ingest);
        assert!(!sink.is_empty(), "idle flush must have released alarms");
        assert!(
            !topo.merge_state().ahead().is_empty(),
            "flushed seqs are recorded ahead of the stalled watermark"
        );
        topo.save_checkpoints(&ckpt).unwrap();

        let mut resumed = topology(&model, &features, 2);
        assert!(resumed.resume(&ckpt).unwrap());
        let cursors = resumed.ingest_resume_cursors();
        let mut ingest = MultiFeedIngest::resume(&paths, resumed.router(), &cursors);
        let more = drive_to_idle(&mut resumed, &mut ingest);
        assert_eq!(more, "", "nothing new to emit, nothing re-emitted");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_refuses_mismatched_or_orphaned_checkpoints() {
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = Arc::new(model(&series, &features));
        let dir = scratch_dir("refuse");

        let mut topo = topology(&model, &features, 2);
        assert!(!topo.resume(&dir).unwrap(), "empty dir is a fresh start");
        assert!(
            !topo.resume(&dir.join("never-created")).unwrap(),
            "missing dir is a fresh start"
        );
        // Commit a couple of rows so shard files get written too.
        let lines =
            crate::engine::tests::routed(&[data_row(1, 1), data_row(2, 1)].map(String::from));
        let mut buckets = vec![Vec::new(); 2];
        for line in lines {
            buckets[topo.router().shard_of_line(&line.text)].push(line);
        }
        topo.enqueue(buckets);
        topo.tick(
            &ThreadPool::global(),
            &CancelToken::new(),
            &[FeedCursor::default(); 2],
            0,
        )
        .unwrap();
        topo.save_checkpoints(&dir).unwrap();
        assert!(find_shard_file(&dir).unwrap().is_some());

        // Shard-count mismatch is typed, not silently re-partitioned.
        let mut wrong = topology(&model, &features, 4);
        let err = wrong.resume(&dir).unwrap_err();
        assert!(matches!(err, CheckpointError::Incompatible(_)), "{err}");
        assert!(err.to_string().contains("2 shard"), "{err}");

        // Shard files without the merge state are refused.
        fs::remove_file(topology_path(&dir)).unwrap();
        let mut orphan = topology(&model, &features, 2);
        let err = orphan.resume(&dir).unwrap_err();
        assert!(matches!(err, CheckpointError::Incompatible(_)), "{err}");
        assert!(err.to_string().contains("topology.ckpt"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    /// Serve the fleet through a 2-shard topology in 509-line polls,
    /// recording row events or not, flushing at idle and checkpointing
    /// after every tick. After
    /// each save, `check` gets the topology (the engine that never
    /// stopped), the checkpoint dir, each shard log's bytes from before
    /// the save, and a way to resume a fresh topology from the dir.
    fn checkpoint_every_tick(
        tag: &str,
        record: bool,
        mut check: impl FnMut(&ServeTopology, &Path, &[Vec<u8>], &dyn Fn() -> ServeTopology),
    ) {
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = Arc::new(model(&series, &features));
        let dir = scratch_dir(tag);
        let paths = write_feeds(&dir, &series);
        let ckpt = dir.join("ckpt");
        let recording = || {
            let mut topo = topology(&model, &features, 2);
            topo.set_record_events(record);
            topo
        };
        let restore = || {
            let mut topo = recording();
            assert!(topo.resume(&ckpt).unwrap());
            topo
        };
        let pool = ThreadPool::global();
        let mut topo = recording();
        let mut ingest = MultiFeedIngest::new(&paths, topo.router());
        loop {
            let out = ingest.poll(509.min(topo.free()));
            topo.enqueue(out.routed);
            let cursors = ingest.cursors();
            let token = CancelToken::new();
            topo.tick(&pool, &token, &cursors, ingest.watermark())
                .unwrap();
            let idle = out.lines_read == 0 && !topo.has_queued();
            if idle {
                topo.flush_pending();
                topo.flush_events();
            }
            let logs: Vec<Vec<u8>> = (0..2)
                .map(|k| fs::read(shard_log_path(&ckpt, k)).unwrap_or_default())
                .collect();
            topo.save_checkpoints(&ckpt).unwrap();
            check(&topo, &ckpt, &logs, &restore);
            if idle {
                break;
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    fn shard_states(topo: &ServeTopology) -> Vec<String> {
        topo.shards().map(crate::engine::tests::encoded).collect()
    }

    fn log_len(ckpt: &Path, k: usize) -> usize {
        fs::metadata(shard_log_path(ckpt, k)).map_or(0, |m| m.len() as usize)
    }

    #[test]
    fn a_snapshot_and_log_restore_encodes_like_an_engine_that_never_stopped() {
        // Without event recording, replay votes the logged score without
        // extracting features; with it, events are rebuilt too.
        for record in [false, true] {
            let (mut appends, mut compactions) = (0, 0);
            checkpoint_every_tick("log-restore", record, |topo, ckpt, logs, restore| {
                for (k, before) in logs.iter().enumerate() {
                    let after = log_len(ckpt, k);
                    appends += usize::from(after > before.len());
                    compactions += usize::from(after < before.len());
                }
                assert_eq!(shard_states(&restore()), shard_states(topo));
            });
            assert!(appends >= 4, "{appends} appends");
            assert!(compactions >= 2, "{compactions} compactions");
        }
    }

    #[test]
    fn stale_records_after_a_compaction_have_zero_state_effect() {
        // A crash between a compaction's snapshot and its emptying of the
        // log leaves the log's old frames behind the new snapshot.
        let mut stale = 0;
        checkpoint_every_tick("log-stale", true, |topo, ckpt, logs, restore| {
            for (k, before) in logs.iter().enumerate() {
                if before.is_empty() || log_len(ckpt, k) > 0 {
                    continue;
                }
                let path = shard_log_path(ckpt, k);
                fs::write(&path, before).unwrap();
                assert_eq!(shard_states(&restore()), shard_states(topo));
                fs::write(&path, b"").unwrap();
                stale += 1;
            }
        });
        assert!(stale >= 2, "{stale} compactions left stale records");
    }

    #[test]
    fn a_torn_log_tail_is_dropped_and_the_next_save_compacts() {
        let mut saved: Vec<String> = Vec::new();
        let mut torn = 0;
        checkpoint_every_tick("log-torn", true, |topo, ckpt, logs, restore| {
            for (k, before) in logs.iter().enumerate() {
                let path = shard_log_path(ckpt, k);
                let whole = fs::read(&path).unwrap_or_default();
                if whole.len() <= before.len() {
                    continue;
                }
                // Half of this save's frame landed: the shard restores as
                // it was at the previous save, less the alarms the merge
                // state (saved whole, before the shards) has since emitted.
                let cut = before.len() + (whole.len() - before.len()) / 2;
                fs::write(&path, &whole[..cut]).unwrap();
                let resumed = restore();
                let mut expected: Value = hdd_json::parse(&saved[k]).unwrap();
                if let Value::Obj(fields) = &mut expected {
                    for (name, value) in fields.iter_mut() {
                        if let (true, Value::Arr(alarms)) = (name == "unmerged", value) {
                            alarms.retain(|a| {
                                let seq = a.usize_field("seq").unwrap() as u64;
                                !topo.merge_state().already_emitted(seq)
                            });
                        }
                    }
                }
                let expected = hdd_json::to_string(&expected);
                assert_eq!(shard_states(&resumed)[k], expected, "shard {k}");
                let ckpt = resumed.slots[k].ckpt.as_ref().unwrap();
                assert!(ckpt.is_unknown(), "shard {k}");
                fs::write(&path, &whole).unwrap();
                torn += 1;
            }
            saved = shard_states(topo);
        });
        assert!(torn >= 4, "{torn} torn frames");
    }

    #[test]
    fn orphan_and_snapshotless_logs_are_refused() {
        let features = FeatureSet::critical13();
        let model = Arc::new(model(&fleet(), &features));
        let dir = scratch_dir("log-orphan");

        // A log without topology.ckpt is an orphan shard file.
        fs::write(shard_log_path(&dir, 1), crate::checkpoint::seal_frame("")).unwrap();
        let err = topology(&model, &features, 2).resume(&dir).unwrap_err();
        assert!(matches!(err, CheckpointError::Incompatible(_)), "{err}");
        assert!(err.to_string().contains("shard-1.log"), "{err}");

        // With the merge state, a log holding records needs its snapshot.
        let mut topo = topology(&model, &features, 2);
        topo.save_checkpoints(&dir).unwrap();
        let err = topology(&model, &features, 2).resume(&dir).unwrap_err();
        assert!(matches!(err, CheckpointError::Incompatible(_)), "{err}");
        assert!(err.to_string().contains("shard-1.ckpt"), "{err}");
        // An empty log restores fresh.
        fs::write(shard_log_path(&dir, 1), b"").unwrap();
        assert!(topology(&model, &features, 2).resume(&dir).unwrap());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dropped_counters_are_per_shard_and_survive_resume() {
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = Arc::new(model(&series, &features));
        let dir = scratch_dir("dropped");

        // A two-line queue fed five lines overflows by three; the loss
        // must be counted, checkpointed, and restored.
        let mut topo = ServeTopology::new(&model, &features, config(), 1, 1, 2).unwrap();
        let lines =
            crate::engine::tests::routed(&(0..5).map(|h| data_row(3, h)).collect::<Vec<_>>());
        assert_eq!(topo.enqueue(vec![lines]), 3);
        assert_eq!(topo.shard_dropped(), vec![3]);
        topo.tick(
            &ThreadPool::global(),
            &CancelToken::new(),
            &[FeedCursor::default()],
            5,
        )
        .unwrap();
        topo.save_checkpoints(&dir).unwrap();

        let mut resumed = ServeTopology::new(&model, &features, config(), 1, 1, 2).unwrap();
        assert!(resumed.resume(&dir).unwrap());
        assert_eq!(resumed.shard_dropped(), vec![3], "loss counter restored");
        assert_eq!(resumed.dropped(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_shard_file_replays_without_duplicate_alarms() {
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = Arc::new(model(&series, &features));
        let dir = scratch_dir("lost-shard");
        let paths = write_feeds(&dir, &series);
        let ckpt = dir.join("ckpt");

        let mut topo = topology(&model, &features, 2);
        let mut ingest = MultiFeedIngest::new(&paths, topo.router());
        let reference = drive_to_idle(&mut topo, &mut ingest);
        topo.save_checkpoints(&ckpt).unwrap();

        // Lose one shard's file: it replays from the feed start, and the
        // merge filter eats the regenerated alarms.
        fs::remove_file(shard_path(&ckpt, 1)).unwrap();
        let mut resumed = topology(&model, &features, 2);
        assert!(resumed.resume(&ckpt).unwrap());
        let cursors = resumed.ingest_resume_cursors();
        assert_eq!(
            cursors,
            vec![FeedCursor::default(); 2],
            "replays from the start"
        );
        let mut ingest = MultiFeedIngest::resume(&paths, resumed.router(), &cursors);
        let more = drive_to_idle(&mut resumed, &mut ingest);
        assert_eq!(
            more, "",
            "regenerated alarms must be filtered, got duplicates"
        );
        assert!(!reference.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn skewed_ids_funnel_the_whole_fleet_onto_one_shard() {
        // The shard-skew injector remaps every drive id onto ids that
        // hash to shard 0 of 4; the topology must keep working — one hot
        // shard, the rest idle — rather than fail or drop rows.
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = Arc::new(model(&series, &features));
        let dir = scratch_dir("skew");

        let mut clean = Vec::new();
        hdd_smart::csv::write_header(&mut clean).unwrap();
        for s in &series {
            hdd_smart::csv::write_series(&mut clean, s).unwrap();
        }
        let clean = String::from_utf8(clean).unwrap();
        let (skewed, report) =
            FaultInjector::new(7).corrupt_csv(&clean, FaultClass::ShardSkewedIds, 1.0);
        assert!(report.skewed_rows > 0);
        let paths = vec![dir.join("feed.csv")];
        fs::write(&paths[0], &skewed).unwrap();

        let mut topo = ServeTopology::new(&model, &features, config(), 4, 1, 4096).unwrap();
        let mut ingest = MultiFeedIngest::new(&paths, topo.router());
        let sink = drive_to_idle(&mut topo, &mut ingest);
        assert!(!sink.is_empty(), "a skewed fleet still alarms");

        let per_shard = topo.shard_stats();
        assert_eq!(
            per_shard[0].rows_seen, report.skewed_rows,
            "the hot shard takes every row"
        );
        for (k, stats) in per_shard.iter().enumerate().skip(1) {
            assert_eq!(stats.rows_seen, 0, "shard {k} should be idle under skew");
        }
        assert_eq!(topo.stats().quarantined_rows(), 0, "skewed rows stay valid");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_retransmission_burst_is_counted_stale_with_no_alarm_impact() {
        // Re-appending the tail of a feed (an upstream retransmission)
        // must be absorbed as counted stale rows: first-write-wins, zero
        // state effect, byte-identical alarm output.
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = Arc::new(model(&series, &features));
        let dir = scratch_dir("burst");
        let paths = write_feeds(&dir, &series);

        let mut clean_topo = topology(&model, &features, 4);
        let mut clean_ingest = MultiFeedIngest::new(&paths, clean_topo.router());
        let reference = drive_to_idle(&mut clean_topo, &mut clean_ingest);
        let clean_stale = clean_topo.stats().stale_rows;

        let text = fs::read_to_string(&paths[0]).unwrap();
        let (burst, report) =
            FaultInjector::new(7).corrupt_csv(&text, FaultClass::HotFeedBurst, 0.25);
        assert!(report.burst_rows > 0);
        fs::write(&paths[0], &burst).unwrap();

        let mut topo = topology(&model, &features, 4);
        let mut ingest = MultiFeedIngest::new(&paths, topo.router());
        let sink = drive_to_idle(&mut topo, &mut ingest);
        assert_eq!(
            topo.stats().stale_rows,
            clean_stale + report.burst_rows,
            "every burst row is dropped stale, and counted"
        );
        assert_eq!(
            sink, reference,
            "stale retransmissions must not change alarms"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deadline_mid_tick_leaves_the_remainder_queued() {
        let features = FeatureSet::critical13();
        let series = fleet();
        let model = Arc::new(model(&series, &features));
        let lines = feed_lines(&series);
        let pool = ThreadPool::global();

        let mut topo = ServeTopology::new(&model, &features, config(), 1, 1, lines.len()).unwrap();
        topo.enqueue(vec![lines.clone()]);
        let token = CancelToken::new();
        token.cancel();
        // First sub-batch is deadline-free: progress is guaranteed even
        // under an expired budget.
        let tick = topo
            .tick(&pool, &token, &[FeedCursor::default()], 0)
            .unwrap();
        assert!(tick.progressed);
        assert_eq!(
            topo.queued(),
            lines.len() - SUB_BATCH_LINES.min(lines.len())
        );

        // Later ticks finish the job and the total output matches an
        // un-deadlined run.
        let mut alarms = Vec::new();
        loop {
            let tick = topo
                .tick(
                    &pool,
                    &CancelToken::new(),
                    &[FeedCursor::default()],
                    u64::MAX,
                )
                .unwrap();
            alarms.extend(tick.alarms.iter().map(|a| a.alarm));
            if !topo.has_queued() {
                break;
            }
        }
        let mut clean = ServeTopology::new(&model, &features, config(), 1, 1, lines.len()).unwrap();
        clean.enqueue(vec![lines.clone()]);
        let all = clean
            .tick(
                &pool,
                &CancelToken::new(),
                &[FeedCursor::default()],
                u64::MAX,
            )
            .unwrap();
        let mut expected: Vec<Alarm> = all.alarms.iter().map(|a| a.alarm).collect();
        // The deadline-cut run emitted some alarms in the first tick.
        let head_len = expected.len() - alarms.len();
        expected.drain(..head_len);
        assert_eq!(alarms, expected);
    }
}
