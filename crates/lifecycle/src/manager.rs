//! The lifecycle state machine: Idle → Training → Shadow → Promoting →
//! Probation, with rollback edges.
//!
//! [`LifecycleManager::consume`] is fed the committed [`RowEvent`]s each
//! topology tick releases (already merged, so the stream is identical at
//! any shard count) and drives everything deterministically off
//! committed-row counts — never wall-clock time:
//!
//! - **Cadence**: once `retrain_rows` committed rows accumulate while
//!   idle (times a doubling backoff after contained trainer failures), a
//!   candidate is trained from the [`TrainingBuffer`] inside an
//!   [`hdd_par`] panic-isolation cell. A panicking or failing trainer
//!   increments a counter and backs off; it never touches the serving
//!   path.
//! - **Shadow**: the staged candidate rides along on live traffic in a
//!   [`ShadowScorer`]; after `shadow_rows` rows the [`PromotionGate`]
//!   either clears it (promotion is *staged*) or refuses it with
//!   recorded reasons.
//! - **Quiesce**: [`LifecycleManager::apply_staged`] runs only when the
//!   caller has fully drained its feeds, so the model swap lands at a
//!   deterministic stream position and alarm output stays byte-identical
//!   across shard counts and `kill -9`.
//! - **Probation**: after promotion the live alarm rate is watched
//!   against the shadow-window baseline; a breaker trip or an alarm-rate
//!   anomaly stages an automatic [`ModelStore::rollback`].
//!
//! All state (buffer, shadow windows, counters, consumed-seq filter)
//! checkpoints into the snapshot `lifecycle.ckpt` plus the append-only
//! log `lifecycle.log` (a [`SnapshotLog`]), saved between the sink and
//! `topology.ckpt` so a crash at any point resumes without losing or
//! double-consuming events. A save appends one frame: a JSON line of
//! every field but the buffered rows, then one row line per row buffered
//! since the last save (the buffer only pushes at the back and pops at
//! the front, so those are its newest rows). Every save is numbered, and
//! the snapshot records its number: restore loads the snapshot, skips
//! the frames it already covers (a crash between a compaction's snapshot
//! and the emptying of the log leaves some), pushes the rows of the rest
//! in order, and takes every other field from the last whole frame.

use crate::buffer::{BufferPush, TrainingBuffer, WindowMode};
use crate::promote::{read_model, ModelStore, PromoteError, Recovery};
use crate::shadow::{PromotionGate, ShadowScorer};
use hdd_cart::ClassificationTreeBuilder;
use hdd_eval::{ModelError, Predictor, SavedModel, VotingRule};
use hdd_json::disk::Disk;
use hdd_json::{JsonCodec, JsonError, Value};
use hdd_par::ThreadPool;
use hdd_serve::{CheckpointError, CheckpointKind, MergeState, RowEvent, SnapshotLog};
use std::cell::{Cell, OnceCell};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Knobs for the online lifecycle. Every cadence is counted in
/// committed rows, never seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleConfig {
    /// Committed rows between training attempts (backoff multiplies it).
    pub retrain_rows: usize,
    /// Rows a candidate must shadow-score before the gate judges it.
    pub shadow_rows: usize,
    /// Rows of post-promotion probation before a promotion is final.
    pub probation_rows: usize,
    /// The promotion gate's absolute floors.
    pub gate: PromotionGate,
    /// Training-window policy (paper §6).
    pub mode: WindowMode,
    /// Training buffer capacity, in rows.
    pub buffer_cap: usize,
    /// Failure-window width for labelling buffered rows, in hours.
    pub window_hours: u32,
    /// Retained model-history depth.
    pub history: usize,
    /// Probation trips when the live alarm rate exceeds the shadow
    /// baseline by more than this (alarms per row).
    pub max_alarm_rate_delta: f64,
    /// Voting-window size for shadow scoring (match the live detector).
    pub voters: usize,
    /// Voting rule for shadow scoring (match the live detector).
    pub rule: VotingRule,
}

impl LifecycleConfig {
    /// Defaults sized for the gauntlet fleets; daemons override via
    /// `--retrain-*` flags.
    #[must_use]
    pub fn new(voters: usize, rule: VotingRule) -> Self {
        LifecycleConfig {
            retrain_rows: 2048,
            shadow_rows: 1024,
            probation_rows: 1024,
            gate: PromotionGate {
                min_fdr: 0.5,
                max_far: 0.05,
                min_lead_hours: 0.0,
            },
            mode: WindowMode::Replacing,
            buffer_cap: 8192,
            window_hours: 168,
            history: 3,
            max_alarm_rate_delta: 0.05,
            voters,
            rule,
        }
    }
}

/// Seeded lifecycle fault injections (gauntlet and chaos tests).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LifecycleFaults {
    /// Panic inside the trainer on the n-th attempt (1-based).
    pub trainer_panic: Option<usize>,
    /// Poison the n-th buffered push (1-based) with a NaN feature.
    pub poison_buffer: Option<usize>,
    /// Train candidates on label-inverted samples — a genuinely bad
    /// model the gate must refuse.
    pub regressing_candidate: bool,
}

/// Where the lifecycle state machine currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Accumulating rows toward the next training attempt.
    Idle,
    /// A candidate is shadow-scoring live traffic.
    Shadow,
    /// The gate cleared; promotion applies at the next quiesce.
    Promoting,
    /// Promoted; the live alarm rate is under watch.
    Probation,
    /// Probation tripped; rollback applies at the next quiesce.
    RollingBack,
}

impl Phase {
    /// Stable label, used by checkpoints and status output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::Idle => "idle",
            Phase::Shadow => "shadow",
            Phase::Promoting => "promoting",
            Phase::Probation => "probation",
            Phase::RollingBack => "rolling-back",
        }
    }

    /// Parse a [`Phase::label`].
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "idle" => Some(Phase::Idle),
            "shadow" => Some(Phase::Shadow),
            "promoting" => Some(Phase::Promoting),
            "probation" => Some(Phase::Probation),
            "rolling-back" => Some(Phase::RollingBack),
            _ => None,
        }
    }
}

/// Monotonic lifecycle counters, persisted in `lifecycle.ckpt`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LifecycleCounters {
    /// Committed rows consumed (after replay dedup).
    pub events_consumed: usize,
    /// Rows shadow-scored by a candidate.
    pub candidate_rows_scored: usize,
    /// Candidates the gate refused.
    pub gate_refusals: usize,
    /// Candidates the gate cleared.
    pub gate_clearances: usize,
    /// Promotions applied.
    pub promotions: usize,
    /// Automatic rollbacks applied.
    pub rollbacks: usize,
    /// Trainer panics contained.
    pub trainer_panics: usize,
    /// Trainer errors (unlearnable buffer, staging I/O).
    pub train_failures: usize,
}

type CounterGet = fn(&LifecycleCounters) -> &usize;
type CounterGetMut = fn(&mut LifecycleCounters) -> &mut usize;

/// Table-driven codec: field name, reader, writer (same idiom as
/// `hdd_serve::ShardStats`).
const COUNTER_FIELDS: [(&str, CounterGet, CounterGetMut); 8] = [
    (
        "events_consumed",
        |c| &c.events_consumed,
        |c| &mut c.events_consumed,
    ),
    (
        "candidate_rows_scored",
        |c| &c.candidate_rows_scored,
        |c| &mut c.candidate_rows_scored,
    ),
    (
        "gate_refusals",
        |c| &c.gate_refusals,
        |c| &mut c.gate_refusals,
    ),
    (
        "gate_clearances",
        |c| &c.gate_clearances,
        |c| &mut c.gate_clearances,
    ),
    ("promotions", |c| &c.promotions, |c| &mut c.promotions),
    ("rollbacks", |c| &c.rollbacks, |c| &mut c.rollbacks),
    (
        "trainer_panics",
        |c| &c.trainer_panics,
        |c| &mut c.trainer_panics,
    ),
    (
        "train_failures",
        |c| &c.train_failures,
        |c| &mut c.train_failures,
    ),
];

impl JsonCodec for LifecycleCounters {
    fn to_json(&self) -> Value {
        Value::Obj(
            COUNTER_FIELDS
                .iter()
                .map(|(name, get, _)| ((*name).to_string(), Value::Num(*get(self) as f64)))
                .collect(),
        )
    }

    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let mut counters = LifecycleCounters::default();
        for (name, _, get_mut) in &COUNTER_FIELDS {
            *get_mut(&mut counters) = value.usize_field(name)?;
        }
        Ok(counters)
    }
}

/// Why a lifecycle operation failed.
#[derive(Debug)]
pub enum LifecycleError {
    /// The promotion store failed.
    Promote(PromoteError),
    /// Loading a model failed.
    Model(ModelError),
    /// Reading or writing `lifecycle.ckpt` failed.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LifecycleError::Promote(e) => write!(f, "lifecycle promotion: {e}"),
            LifecycleError::Model(e) => write!(f, "lifecycle model: {e}"),
            LifecycleError::Checkpoint(e) => write!(f, "lifecycle checkpoint: {e}"),
        }
    }
}

impl std::error::Error for LifecycleError {}

impl From<PromoteError> for LifecycleError {
    fn from(e: PromoteError) -> Self {
        LifecycleError::Promote(e)
    }
}

impl From<ModelError> for LifecycleError {
    fn from(e: ModelError) -> Self {
        LifecycleError::Model(e)
    }
}

impl From<CheckpointError> for LifecycleError {
    fn from(e: CheckpointError) -> Self {
        LifecycleError::Checkpoint(e)
    }
}

/// The `lifecycle.ckpt` path inside a checkpoint directory.
#[must_use]
pub fn lifecycle_path(dir: &Path) -> PathBuf {
    dir.join("lifecycle.ckpt")
}

/// The `lifecycle.log` path inside a checkpoint directory.
#[must_use]
pub fn lifecycle_log_path(dir: &Path) -> PathBuf {
    dir.join("lifecycle.log")
}

/// The lifecycle's checkpoint files, with what its next frame needs.
#[derive(Debug)]
struct LifecycleLog {
    files: SnapshotLog,
    /// The number of the last save (0: none yet).
    saves: Cell<u64>,
    /// [`LifecycleManager`]'s `rows_buffered` at the last save.
    saved_rows: Cell<u64>,
}

impl LifecycleLog {
    fn new(dir: &Path) -> Self {
        LifecycleLog {
            files: SnapshotLog::new(
                CheckpointKind::Lifecycle,
                lifecycle_path(dir),
                lifecycle_log_path(dir),
            ),
            saves: Cell::new(0),
            saved_rows: Cell::new(0),
        }
    }
}

/// The lifecycle state machine; see the module docs.
#[derive(Debug)]
pub struct LifecycleManager {
    config: LifecycleConfig,
    store: ModelStore,
    faults: LifecycleFaults,
    /// Replay filter over consumed event seqs (same machinery as the
    /// alarm merge's duplicate suppression).
    consumed: MergeState,
    buffer: TrainingBuffer,
    shadow: Option<ShadowScorer>,
    candidate: Option<Arc<SavedModel>>,
    candidate_fingerprint: Option<u64>,
    phase: Phase,
    counters: LifecycleCounters,
    rows_since_train: usize,
    backoff_mult: usize,
    train_attempts: usize,
    pushes: usize,
    baseline_alarm_rate: f64,
    probation_rows_seen: usize,
    probation_alarms: usize,
    rollback_target: Option<u64>,
    /// A failed candidate write, held for [`LifecycleManager::staged`].
    disk_error: Option<PromoteError>,
    /// Rows pushed into the buffer since this manager started.
    rows_buffered: u64,
    /// The checkpoint directory's files, once a save or a restore named it.
    checkpoint: OnceCell<LifecycleLog>,
}

impl LifecycleManager {
    /// A fresh manager over the live model at `model_path`.
    #[must_use]
    pub fn new(config: LifecycleConfig, model_path: PathBuf, faults: LifecycleFaults) -> Self {
        let store = ModelStore::new(model_path, config.history);
        let buffer = TrainingBuffer::new(config.mode, config.buffer_cap, config.window_hours);
        LifecycleManager {
            config,
            store,
            faults,
            consumed: MergeState::new(),
            buffer,
            shadow: None,
            candidate: None,
            candidate_fingerprint: None,
            phase: Phase::Idle,
            counters: LifecycleCounters::default(),
            rows_since_train: 0,
            backoff_mult: 1,
            train_attempts: 0,
            pushes: 0,
            baseline_alarm_rate: 0.0,
            probation_rows_seen: 0,
            probation_alarms: 0,
            rollback_target: None,
            disk_error: None,
            rows_buffered: 0,
            checkpoint: OnceCell::new(),
        }
    }

    /// Write the model store and `lifecycle.ckpt` through `disk` instead
    /// of the real disk.
    pub fn set_disk(&mut self, disk: Arc<dyn Disk>) {
        self.store = self.store.clone().with_disk(disk);
    }

    /// Whether the last [`LifecycleManager::consume`] staged its
    /// candidate. A failed write is counted in `train_failures` and backed
    /// off like any trainer error; a caller that persists state must also
    /// check after each call and stop on an error rather than checkpoint
    /// past a lost write.
    ///
    /// # Errors
    ///
    /// The write error that stopped the candidate from being staged.
    pub fn staged(&mut self) -> Result<(), LifecycleError> {
        self.disk_error.take().map_or(Ok(()), |e| Err(e.into()))
    }

    /// Startup path: [`LifecycleManager::new`], then
    /// [`LifecycleManager::recover`] on the real disk.
    ///
    /// # Errors
    ///
    /// As [`LifecycleManager::recover`].
    pub fn resume(
        config: LifecycleConfig,
        model_path: PathBuf,
        faults: LifecycleFaults,
        ckpt_dir: Option<&Path>,
    ) -> Result<(Self, Recovery), LifecycleError> {
        let mut manager = LifecycleManager::new(config, model_path, faults);
        let recovery = manager.recover(ckpt_dir)?;
        Ok((manager, recovery))
    }

    /// Run crash recovery on the model store, restore `lifecycle.ckpt`
    /// from `ckpt_dir` when present, and reconcile the two — the resumed
    /// phase always refers to models that actually exist on disk.
    ///
    /// # Errors
    ///
    /// Returns [`LifecycleError`] when recovery or the checkpoint read
    /// fails (a *missing* checkpoint is a clean cold start, not an
    /// error).
    pub fn recover(&mut self, ckpt_dir: Option<&Path>) -> Result<Recovery, LifecycleError> {
        let recovery = self.store.recover()?;
        if let Some(dir) = ckpt_dir {
            if self.restore_checkpoint(dir)? {
                self.reconcile()?;
            }
        }
        Ok(recovery)
    }

    /// Restore the state `lifecycle.ckpt` and `lifecycle.log` in `dir`
    /// hold (see the module docs), reading nothing else: no store
    /// recovery, no reconciliation with the model files. Returns whether
    /// `lifecycle.ckpt` exists; a torn log tail is dropped, and the next
    /// save is then a snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`LifecycleError::Checkpoint`] when a file is corrupt or
    /// does not decode, when the log holds frames but `lifecycle.ckpt`
    /// does not exist, and when a frame's save number does not follow the
    /// one before it.
    pub fn restore_checkpoint(&mut self, dir: &Path) -> Result<bool, LifecycleError> {
        let log = LifecycleLog::new(dir);
        let log_path = log.files.log_path();
        let snapshot = log.files.load_snapshot(|c| c.value().map(Ok))?;
        log.files.replay_log(|frames| {
            let Some(snapshot) = &snapshot else {
                return Ok(());
            };
            let mut save = snapshot.usize_field("save")? as u64;
            let rows = snapshot.field("buffer")?.str_field("rows")?;
            let mut rows: Vec<&str> = rows.lines().collect();
            let mut last = None;
            for &(offset, frame) in frames {
                let corrupt = |detail: String| CheckpointError::Corrupt {
                    offset,
                    detail: format!("{}: {detail}", log_path.display()),
                };
                let (head, body) = frame.split_once('\n').unwrap_or((frame, ""));
                let fields = hdd_json::parse(head).map_err(|e| corrupt(e.to_string()))?;
                let number = fields
                    .usize_field("save")
                    .map_err(|e| corrupt(e.to_string()))? as u64;
                if number <= save && last.is_none() {
                    // The snapshot already covers this frame.
                    continue;
                }
                if number != save + 1 {
                    return Err(corrupt(format!("save {number} follows save {save}")));
                }
                save = number;
                rows.extend(body.lines());
                last = Some(fields);
            }
            self.restore_parts(last.as_ref().unwrap_or(snapshot), &rows)?;
            log.saves.set(save);
            Ok(())
        })?;
        log.saved_rows.set(self.rows_buffered);
        self.checkpoint = log.into();
        Ok(snapshot.is_some())
    }

    /// Current phase.
    #[must_use]
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Lifecycle counters.
    #[must_use]
    pub fn counters(&self) -> &LifecycleCounters {
        &self.counters
    }

    /// The training buffer.
    #[must_use]
    pub fn buffer(&self) -> &TrainingBuffer {
        &self.buffer
    }

    /// The model store (paths, history, fingerprints).
    #[must_use]
    pub fn store(&self) -> &ModelStore {
        &self.store
    }

    /// Fingerprint of the current candidate (shadow through probation).
    #[must_use]
    pub fn candidate_fingerprint(&self) -> Option<u64> {
        self.candidate_fingerprint
    }

    /// Whether a staged promotion or rollback is waiting for a quiesce.
    #[must_use]
    pub fn has_staged_swap(&self) -> bool {
        matches!(self.phase, Phase::Promoting | Phase::RollingBack)
    }

    /// Feed one tick's released events plus that tick's emitted alarm
    /// count and breaker transitions. `watermark` is the topology
    /// merge's emitted low-water mark (`merge_state().emitted()`), which
    /// keeps the replay filter aligned with the alarm stream. Returns
    /// human-readable transition notes.
    ///
    /// The shadow gate and the retraining trigger are checked after every
    /// event, so a decision lands at the event that crosses its threshold
    /// whatever the batch boundaries; probation is judged once per call,
    /// on the tick's alarm count and breaker transitions.
    pub fn consume(
        &mut self,
        pool: &ThreadPool,
        events: &[RowEvent],
        alarms_this_tick: usize,
        breaker_transitions: usize,
        watermark: u64,
    ) -> Vec<String> {
        let mut notes = Vec::new();
        let mut processed = Vec::new();
        for event in events {
            if self.consumed.already_emitted(event.seq) {
                continue;
            }
            processed.push(event.seq);
            self.counters.events_consumed += 1;
            self.pushes += 1;
            let pushed = if self.faults.poison_buffer == Some(self.pushes) {
                let mut poisoned = event.clone();
                if let Some(first) = poisoned.features.first_mut() {
                    *first = f64::NAN;
                }
                self.buffer.push(&poisoned)
            } else {
                self.buffer.push(event)
            };
            self.rows_buffered += u64::from(pushed == BufferPush::Buffered);
            self.rows_since_train += 1;
            match self.phase {
                Phase::Shadow => {
                    if let (Some(candidate), Some(shadow)) = (&self.candidate, &mut self.shadow) {
                        shadow.observe(event, candidate.score(&event.features));
                        self.counters.candidate_rows_scored += 1;
                    }
                }
                Phase::Probation => self.probation_rows_seen += 1,
                _ => {}
            }
            // Decide at the event that crosses a threshold, so the
            // outcome cannot depend on where a tick's batch ends.
            self.judge_shadow(&mut notes);
            if self.phase == Phase::Idle
                && self.disk_error.is_none()
                && self.rows_since_train
                    >= self.config.retrain_rows.saturating_mul(self.backoff_mult)
                && self.buffer.failed_rows() >= 1
                && self.buffer.failed_rows() < self.buffer.len()
            {
                self.attempt_training(pool, &mut notes);
            }
        }
        self.consumed.record_ahead(processed);
        self.consumed.advance(watermark);

        self.watch_probation(alarms_this_tick, breaker_transitions, &mut notes);
        notes
    }

    fn judge_shadow(&mut self, notes: &mut Vec<String>) {
        if self.phase != Phase::Shadow {
            return;
        }
        let Some(shadow) = &self.shadow else { return };
        if shadow.rows_scored() < self.config.shadow_rows {
            return;
        }
        let comparison = shadow.comparison();
        let reasons = self.config.gate.judge(&comparison);
        if reasons.is_empty() {
            self.counters.gate_clearances += 1;
            self.baseline_alarm_rate = comparison.incumbent.alarm_rate;
            self.phase = Phase::Promoting;
            notes.push(format!(
                "lifecycle: gate cleared candidate {:016x} (fdr {:.3} vs {:.3}, far {:.3}); promotion staged",
                self.candidate_fingerprint.unwrap_or(0),
                comparison.candidate.fdr,
                comparison.incumbent.fdr,
                comparison.candidate.far,
            ));
        } else {
            self.counters.gate_refusals += 1;
            // The candidate file stays on disk (the next staging
            // overwrites it): deleting here would be a mid-stream disk
            // mutation that a checkpoint replay could not reproduce.
            self.candidate = None;
            self.candidate_fingerprint = None;
            self.shadow = None;
            self.phase = Phase::Idle;
            self.rows_since_train = 0;
            notes.push(format!(
                "lifecycle: gate refused candidate ({})",
                reasons.join("; ")
            ));
        }
    }

    fn watch_probation(
        &mut self,
        alarms_this_tick: usize,
        breaker_transitions: usize,
        notes: &mut Vec<String>,
    ) {
        if self.phase != Phase::Probation {
            return;
        }
        self.probation_alarms += alarms_this_tick;
        let min_assess = (self.config.probation_rows / 4).max(1);
        let rate = if self.probation_rows_seen == 0 {
            0.0
        } else {
            self.probation_alarms as f64 / self.probation_rows_seen as f64
        };
        let anomalous = self.probation_rows_seen >= min_assess
            && rate > self.baseline_alarm_rate + self.config.max_alarm_rate_delta;
        if breaker_transitions > 0 || anomalous {
            self.phase = Phase::RollingBack;
            self.rollback_target = self.store.fingerprint_of(&self.store.prev_path(1)).ok();
            notes.push(format!(
                "lifecycle: probation tripped ({}); rollback staged",
                if breaker_transitions > 0 {
                    "breaker transition".to_string()
                } else {
                    format!(
                        "alarm rate {rate:.4} above baseline {:.4} + {:.4}",
                        self.baseline_alarm_rate, self.config.max_alarm_rate_delta
                    )
                }
            ));
        } else if self.probation_rows_seen >= self.config.probation_rows {
            self.phase = Phase::Idle;
            self.candidate_fingerprint = None;
            self.rows_since_train = 0;
            notes.push("lifecycle: probation passed; promotion is final".to_string());
        }
    }

    fn attempt_training(&mut self, pool: &ThreadPool, notes: &mut Vec<String>) {
        self.train_attempts += 1;
        self.rows_since_train = 0;
        let attempt = self.train_attempts;
        let panic_now = self.faults.trainer_panic == Some(attempt);
        let samples = if self.faults.regressing_candidate {
            self.buffer.inverted_samples()
        } else {
            self.buffer.samples()
        };
        let trained = pool.try_parallel_map(&[()], |_| {
            if panic_now {
                inject_trainer_panic(attempt);
            }
            ClassificationTreeBuilder::new()
                .build(&samples)
                .map(|tree| SavedModel::from(tree.compile()))
        });
        let mut fail = |counter: &mut usize, backoff: &mut usize, note: String| {
            *counter += 1;
            *backoff = backoff.saturating_mul(2).min(64);
            notes.push(note);
        };
        match trained {
            Err(panic) => fail(
                &mut self.counters.trainer_panics,
                &mut self.backoff_mult,
                format!("lifecycle: trainer panic contained ({panic}); backing off"),
            ),
            Ok(mut results) => match results.pop() {
                None | Some(Err(_)) => fail(
                    &mut self.counters.train_failures,
                    &mut self.backoff_mult,
                    "lifecycle: training failed on the buffered window; backing off".to_string(),
                ),
                Some(Ok(model)) => match self.store.stage_candidate(&model) {
                    Ok(fingerprint) => {
                        self.candidate = Some(Arc::new(model));
                        self.candidate_fingerprint = Some(fingerprint);
                        self.shadow = Some(ShadowScorer::new(self.config.voters, self.config.rule));
                        self.phase = Phase::Shadow;
                        self.backoff_mult = 1;
                        notes.push(format!(
                            "lifecycle: candidate {fingerprint:016x} trained on {} rows; shadow begins",
                            self.buffer.len()
                        ));
                    }
                    Err(e) => {
                        fail(
                            &mut self.counters.train_failures,
                            &mut self.backoff_mult,
                            format!("lifecycle: staging the candidate failed ({e}); backing off"),
                        );
                        self.disk_error = Some(e);
                    }
                },
            },
        }
    }

    /// Apply a staged promotion or rollback. **Call only at a full
    /// quiesce** (feeds drained, queues empty, events consumed, alarms
    /// flushed): the swap then lands at a deterministic stream position.
    /// Returns the model the caller must swap into its topology, if any.
    ///
    /// # Errors
    ///
    /// Returns [`LifecycleError`] when the promotion store or a model
    /// load fails; staged state is preserved so the caller may retry.
    pub fn apply_staged(&mut self) -> Result<Option<Arc<SavedModel>>, LifecycleError> {
        match self.phase {
            Phase::Promoting => {
                self.store.promote()?;
                let (live, model) = self.read_live()?;
                if Some(live) == self.candidate_fingerprint {
                    self.counters.promotions += 1;
                    self.enter_probation();
                } else {
                    // The candidate rotted on disk and recovery restored
                    // the last known good; abandon the promotion.
                    self.reset_to_idle();
                }
                Ok(Some(Arc::new(model)))
            }
            Phase::RollingBack => {
                let (_, model) = if self.rollback_target == Some(self.store.live_fingerprint()?) {
                    self.read_live()?
                } else {
                    self.store.rollback()?
                };
                self.counters.rollbacks += 1;
                self.reset_to_idle();
                Ok(Some(Arc::new(model)))
            }
            _ => Ok(None),
        }
    }

    /// The live model file, read once; a file that does not decode is a
    /// [`LifecycleError::Model`].
    fn read_live(&self) -> Result<(u64, SavedModel), LifecycleError> {
        read_model(self.store.model_path()).map_err(|e| match e {
            PromoteError::Model(e) => LifecycleError::Model(e),
            e => LifecycleError::Promote(e),
        })
    }

    fn enter_probation(&mut self) {
        self.phase = Phase::Probation;
        self.candidate = None;
        self.shadow = None;
        self.probation_rows_seen = 0;
        self.probation_alarms = 0;
    }

    fn reset_to_idle(&mut self) {
        self.phase = Phase::Idle;
        self.candidate = None;
        self.candidate_fingerprint = None;
        self.shadow = None;
        self.rollback_target = None;
        self.rows_since_train = 0;
        self.probation_rows_seen = 0;
        self.probation_alarms = 0;
    }

    /// Serialize everything `lifecycle.ckpt` persists: the snapshot
    /// payload, numbered as the last save.
    #[must_use]
    pub fn state_to_json(&self) -> Value {
        self.state_json(true)
    }

    /// [`LifecycleManager::state_to_json`], the buffered rows only with
    /// `rows` (a log frame's first line leaves them out).
    fn state_json(&self, rows: bool) -> Value {
        let save = self.checkpoint.get().map_or(0, |log| log.saves.get());
        let buffer = if rows {
            self.buffer.to_json()
        } else {
            Value::Obj(self.buffer.settings_to_json())
        };
        let mut fields = vec![
            ("save".to_string(), Value::Num(save as f64)),
            (
                "phase".to_string(),
                Value::Str(self.phase.label().to_string()),
            ),
            ("consumed".to_string(), self.consumed.to_json()),
            ("buffer".to_string(), buffer),
            ("counters".to_string(), self.counters.to_json()),
            (
                "rows_since_train".to_string(),
                Value::Num(self.rows_since_train as f64),
            ),
            (
                "backoff_mult".to_string(),
                Value::Num(self.backoff_mult as f64),
            ),
            (
                "train_attempts".to_string(),
                Value::Num(self.train_attempts as f64),
            ),
            ("pushes".to_string(), Value::Num(self.pushes as f64)),
            (
                "baseline_alarm_rate".to_string(),
                Value::Num(self.baseline_alarm_rate),
            ),
            (
                "probation_rows_seen".to_string(),
                Value::Num(self.probation_rows_seen as f64),
            ),
            (
                "probation_alarms".to_string(),
                Value::Num(self.probation_alarms as f64),
            ),
        ];
        if let Some(shadow) = &self.shadow {
            fields.push(("shadow".to_string(), shadow.to_json()));
        }
        if let Some(fp) = self.candidate_fingerprint {
            fields.push((
                "candidate_fingerprint".to_string(),
                Value::Str(format!("{fp:016x}")),
            ));
        }
        if let Some(fp) = self.rollback_target {
            fields.push((
                "rollback_target".to_string(),
                Value::Str(format!("{fp:016x}")),
            ));
        }
        Value::Obj(fields)
    }

    /// Restore every field of `value` but the buffered rows, then the
    /// buffer as its settings in `value` describe after pushing `rows`.
    fn restore_parts(&mut self, value: &Value, rows: &[&str]) -> Result<(), CheckpointError> {
        let phase_label = value.str_field("phase")?;
        let phase = Phase::from_label(phase_label).ok_or_else(|| {
            CheckpointError::Incompatible(format!("unknown lifecycle phase `{phase_label}`"))
        })?;
        let fingerprint_field = |field: &str| -> Result<Option<u64>, JsonError> {
            let Some(v) = value.get(field) else {
                return Ok(None);
            };
            let hex = v
                .as_str()
                .ok_or_else(|| JsonError::expected("a fingerprint string", field))?;
            u64::from_str_radix(hex, 16)
                .map(Some)
                .map_err(|_| JsonError::expected("a hex fingerprint", field))
        };
        self.phase = phase;
        self.consumed = MergeState::from_json(value.field("consumed")?)?;
        self.buffer = TrainingBuffer::from_parts(value.field("buffer")?, rows)?;
        self.counters = LifecycleCounters::from_json(value.field("counters")?)?;
        self.rows_since_train = value.usize_field("rows_since_train")?;
        self.backoff_mult = value.usize_field("backoff_mult")?.max(1);
        self.train_attempts = value.usize_field("train_attempts")?;
        self.pushes = value.usize_field("pushes")?;
        self.baseline_alarm_rate = value.f64_field("baseline_alarm_rate")?;
        self.probation_rows_seen = value.usize_field("probation_rows_seen")?;
        self.probation_alarms = value.usize_field("probation_alarms")?;
        self.shadow = match value.get("shadow") {
            Some(raw) => Some(ShadowScorer::from_json(raw)?),
            None => None,
        };
        self.candidate_fingerprint = fingerprint_field("candidate_fingerprint")?;
        self.rollback_target = fingerprint_field("rollback_target")?;
        self.candidate = None;
        Ok(())
    }

    /// Re-anchor restored state to what actually exists on disk: reload
    /// the candidate for shadow/promoting phases, detect a promotion or
    /// rollback that completed just before the crash, and fall back to
    /// idle when the candidate is gone or corrupt.
    fn reconcile(&mut self) -> Result<(), LifecycleError> {
        match self.phase {
            Phase::Shadow | Phase::Promoting => {
                let path = self.store.candidate_path();
                let loaded = match self.candidate_fingerprint {
                    Some(expected) if path.exists() => match read_model(&path) {
                        Ok((fp, model)) => (fp == expected).then(|| Arc::new(model)),
                        Err(PromoteError::Model(_)) => None,
                        Err(e) => return Err(e.into()),
                    },
                    _ => None,
                };
                if let Some(model) = loaded {
                    self.candidate = Some(model);
                } else if self.phase == Phase::Promoting
                    && self.candidate_fingerprint == Some(self.store.live_fingerprint()?)
                {
                    // Crash recovery already completed the promotion.
                    self.counters.promotions += 1;
                    self.enter_probation();
                } else {
                    self.reset_to_idle();
                }
            }
            Phase::RollingBack => {
                if self.rollback_target == Some(self.store.live_fingerprint()?) {
                    // Crash recovery already completed the rollback.
                    self.counters.rollbacks += 1;
                    self.reset_to_idle();
                }
            }
            Phase::Idle | Phase::Probation => {}
        }
        Ok(())
    }

    /// Save the state into `dir` (between the sink and `topology.ckpt` in
    /// the caller's save order): one frame appended to `lifecycle.log`,
    /// or a new `lifecycle.ckpt` when the log has outgrown it (see the
    /// module docs). A manager checkpoints into one directory, the first
    /// one it saved into or restored from.
    ///
    /// # Errors
    ///
    /// Returns [`LifecycleError::Checkpoint`] when a write fails or `dir`
    /// is not this manager's checkpoint directory.
    pub fn save_checkpoint(&self, dir: &Path) -> Result<(), LifecycleError> {
        let disk = self.store.disk();
        disk.create_dir(dir).map_err(CheckpointError::Io)?;
        let log = self.checkpoint.get_or_init(|| LifecycleLog::new(dir));
        if log.files.snapshot_path() != lifecycle_path(dir) {
            return Err(CheckpointError::Incompatible(format!(
                "the lifecycle checkpoints into {}, not {}",
                log.files.snapshot_path().display(),
                dir.display()
            ))
            .into());
        }
        log.saves.set(log.saves.get() + 1);
        let new_rows = self.rows_buffered - log.saved_rows.replace(self.rows_buffered);
        let frame = || {
            let mut frame = hdd_json::to_string(&self.state_json(false));
            frame.push('\n');
            let new_rows = usize::try_from(new_rows).unwrap_or(usize::MAX);
            self.buffer.write_rows(new_rows, &mut frame);
            Some(frame)
        };
        log.files.save(disk, frame, |out| {
            hdd_json::write_value(&self.state_json(true), out);
        })?;
        Ok(())
    }
}

/// The seeded `trainer_panic` fault: panics inside the training fan-out.
#[expect(
    clippy::panic,
    reason = "seeded fault injection proving trainer panics are contained by try_parallel_map"
)]
fn inject_trainer_panic(attempt: usize) -> ! {
    panic!("injected trainer panic (attempt {attempt})");
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdd_cart::{Class, ClassSample};
    use hdd_json::disk::{Fault, FaultDisk};

    const FAIL_HOUR: u32 = 200;

    /// Separable two-feature fleet: drives 0-4 fail at hour 200 with
    /// low feature values, drives 5-9 stay good with high ones.
    fn event(seq: u64, drive: u32, hour: u32, incumbent_score: f64) -> RowEvent {
        let failing = drive < 5;
        let x = if failing {
            f64::from(drive) + f64::from(hour % 7) * 0.1
        } else {
            50.0 + f64::from(drive) + f64::from(hour % 7) * 0.1
        };
        RowEvent {
            seq,
            drive,
            hour,
            fail_hour: failing.then_some(FAIL_HOUR),
            features: vec![x, x * 0.5],
            incumbent_score,
        }
    }

    /// A stream of `rows` events, hour-major over 10 drives, starting
    /// at `seq0`/`hour0`. `incumbent` maps `failing -> score`.
    fn stream(seq0: u64, hour0: u32, rows: usize, incumbent: fn(bool) -> f64) -> Vec<RowEvent> {
        (0..rows)
            .map(|i| {
                let drive = (i % 10) as u32;
                let hour = hour0 + (i / 10) as u32;
                event(seq0 + i as u64, drive, hour, incumbent(drive < 5))
            })
            .collect()
    }

    fn seed_model(dir: &Path) -> PathBuf {
        let samples: Vec<ClassSample> = (0..60)
            .map(|i| {
                let x = f64::from(i % 30);
                // A deliberately wrong incumbent: it believes HIGH
                // values fail, while the fleet's truth is the opposite.
                let class = if x >= 20.0 {
                    Class::Failed
                } else {
                    Class::Good
                };
                ClassSample::new(vec![x, x * 0.5], class)
            })
            .collect();
        let model = SavedModel::from(
            ClassificationTreeBuilder::new()
                .build(&samples)
                .expect("training the incumbent fixture")
                .compile(),
        );
        let path = dir.join("model.json");
        model.save(&path).expect("saving the incumbent fixture");
        path
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hdd-lifecycle-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creating the temp dir");
        dir
    }

    fn config() -> LifecycleConfig {
        let mut config = LifecycleConfig::new(3, VotingRule::Majority);
        config.retrain_rows = 40;
        config.shadow_rows = 40;
        config.probation_rows = 40;
        config.gate.min_fdr = 0.5;
        config.gate.max_far = 0.2;
        config.buffer_cap = 512;
        config
    }

    /// Stateful event feeder: 10 rows per tick, seq and hour continue
    /// across calls so the consumed-seq filter sees fresh traffic.
    struct Feeder {
        seq: u64,
        hour: u32,
    }

    impl Feeder {
        fn new() -> Self {
            Feeder { seq: 0, hour: 100 }
        }

        fn feed(
            &mut self,
            manager: &mut LifecycleManager,
            pool: &ThreadPool,
            ticks: usize,
        ) -> Vec<String> {
            let mut notes = Vec::new();
            for _ in 0..ticks {
                let batch = stream(self.seq, self.hour, 10, |_| 1.0);
                self.seq += 10;
                self.hour += 1;
                notes.extend(manager.consume(pool, &batch, 0, 0, self.seq));
            }
            notes
        }
    }

    #[test]
    fn full_cycle_trains_shadows_promotes_and_passes_probation() {
        let dir = tempdir("cycle");
        let model_path = seed_model(&dir);
        let mut manager =
            LifecycleManager::new(config(), model_path.clone(), LifecycleFaults::default());
        let store = ModelStore::new(model_path, 3);
        let incumbent_fp = store.live_fingerprint().unwrap();
        let pool = ThreadPool::serial();
        let mut feeder = Feeder::new();

        // 40 rows of cadence, then 40 rows of shadow.
        let notes = feeder.feed(&mut manager, &pool, 8);
        assert_eq!(manager.phase(), Phase::Promoting, "{notes:?}");
        assert_eq!(manager.counters().gate_clearances, 1);
        assert_eq!(manager.counters().candidate_rows_scored, 40);
        let staged_fp = manager.candidate_fingerprint().unwrap();

        let swapped = manager.apply_staged().unwrap().expect("a promoted model");
        assert_eq!(manager.phase(), Phase::Probation);
        assert_eq!(manager.counters().promotions, 1);
        assert_eq!(store.live_fingerprint().unwrap(), staged_fp);
        assert_eq!(
            store.fingerprint_of(&store.prev_path(1)).unwrap(),
            incumbent_fp
        );
        // The swapped-in model is the candidate: it detects the failing
        // cluster the incumbent missed.
        assert!(swapped.score(&[2.0, 1.0]) < 0.0);

        // Probation passes quietly after probation_rows.
        let notes = feeder.feed(&mut manager, &pool, 4);
        assert_eq!(manager.phase(), Phase::Idle, "{notes:?}");
        assert_eq!(manager.counters().rollbacks, 0);
        assert!(notes.iter().any(|n| n.contains("probation passed")));
    }

    #[test]
    fn trainer_panic_is_contained_and_backs_off_by_rows() {
        let dir = tempdir("panic");
        let model_path = seed_model(&dir);
        let faults = LifecycleFaults {
            trainer_panic: Some(1),
            ..LifecycleFaults::default()
        };
        let mut manager = LifecycleManager::new(config(), model_path, faults);
        let pool = ThreadPool::serial();
        let mut feeder = Feeder::new();

        feeder.feed(&mut manager, &pool, 4);
        assert_eq!(manager.counters().trainer_panics, 1);
        assert_eq!(manager.phase(), Phase::Idle);
        // Backoff doubled the cadence: 40 more rows are not enough...
        feeder.feed(&mut manager, &pool, 4);
        assert_eq!(manager.counters().trainer_panics, 1);
        assert_eq!(manager.phase(), Phase::Idle);
        // ...but 80 are, and the second attempt succeeds.
        feeder.feed(&mut manager, &pool, 4);
        assert_eq!(manager.phase(), Phase::Shadow);
        assert_eq!(manager.counters().trainer_panics, 1);
    }

    #[test]
    fn regressing_candidate_is_refused_and_model_file_untouched() {
        let dir = tempdir("refuse");
        let model_path = seed_model(&dir);
        let faults = LifecycleFaults {
            regressing_candidate: true,
            ..LifecycleFaults::default()
        };
        let mut manager = LifecycleManager::new(config(), model_path.clone(), faults);
        let store = ModelStore::new(model_path, 3);
        let incumbent_fp = store.live_fingerprint().unwrap();
        let pool = ThreadPool::serial();
        let mut feeder = Feeder::new();

        let notes = feeder.feed(&mut manager, &pool, 10);
        assert_eq!(manager.counters().gate_refusals, 1, "{notes:?}");
        assert_eq!(manager.counters().promotions, 0);
        assert_eq!(manager.phase(), Phase::Idle);
        assert!(manager.apply_staged().unwrap().is_none());
        assert_eq!(store.live_fingerprint().unwrap(), incumbent_fp);
        assert!(notes.iter().any(|n| n.contains("gate refused")));
    }

    #[test]
    fn poisoned_rows_are_quarantined_not_trained_on() {
        let dir = tempdir("poison");
        let model_path = seed_model(&dir);
        let faults = LifecycleFaults {
            poison_buffer: Some(3),
            ..LifecycleFaults::default()
        };
        let mut manager = LifecycleManager::new(config(), model_path, faults);
        let pool = ThreadPool::serial();
        let mut feeder = Feeder::new();
        feeder.feed(&mut manager, &pool, 2);
        assert_eq!(manager.buffer().poisoned_rows(), 1);
        assert_eq!(manager.buffer().len(), 19);
    }

    #[test]
    fn alarm_rate_anomaly_rolls_back_to_the_incumbent() {
        let dir = tempdir("rollback");
        let model_path = seed_model(&dir);
        let mut manager =
            LifecycleManager::new(config(), model_path.clone(), LifecycleFaults::default());
        let store = ModelStore::new(model_path, 3);
        let incumbent_fp = store.live_fingerprint().unwrap();
        let pool = ThreadPool::serial();
        let mut feeder = Feeder::new();

        feeder.feed(&mut manager, &pool, 8);
        let promoted_fp = manager.candidate_fingerprint().unwrap();
        manager.apply_staged().unwrap().expect("a promoted model");
        assert_eq!(manager.phase(), Phase::Probation);

        // Probation traffic with a pathological alarm flood.
        let batch = stream(2000, 300, 10, |_| 1.0);
        let notes = manager.consume(&pool, &batch, 9, 0, 2010);
        assert_eq!(manager.phase(), Phase::RollingBack, "{notes:?}");
        let swapped = manager.apply_staged().unwrap().expect("the restored model");
        assert_eq!(manager.counters().rollbacks, 1);
        assert_eq!(manager.phase(), Phase::Idle);
        assert_eq!(store.live_fingerprint().unwrap(), incumbent_fp);
        // The bad model is demoted into history, not lost.
        assert_eq!(
            store.fingerprint_of(&store.prev_path(1)).unwrap(),
            promoted_fp
        );
        // The restored model is the (blind) incumbent again.
        assert!(swapped.score(&[2.0, 1.0]) > 0.0);
    }

    #[test]
    fn breaker_transition_during_probation_also_trips_rollback() {
        let dir = tempdir("breaker");
        let model_path = seed_model(&dir);
        let mut manager = LifecycleManager::new(config(), model_path, LifecycleFaults::default());
        let pool = ThreadPool::serial();
        let mut feeder = Feeder::new();
        feeder.feed(&mut manager, &pool, 8);
        manager.apply_staged().unwrap();
        let batch = stream(2000, 300, 10, |_| 1.0);
        manager.consume(&pool, &batch, 0, 1, 2010);
        assert_eq!(manager.phase(), Phase::RollingBack);
    }

    #[test]
    fn a_failed_candidate_write_backs_off_and_is_held_for_the_caller() {
        let dir = tempdir("stage-eio");
        let model_path = seed_model(&dir);
        let mut manager = LifecycleManager::new(config(), model_path, LifecycleFaults::default());
        // The candidate's first write boundary, its temp file, fails.
        manager.set_disk(Arc::new(FaultDisk::failing_at(0, Fault::Eio)));
        let pool = ThreadPool::serial();
        let notes = Feeder::new().feed(&mut manager, &pool, 4);
        assert!(notes
            .iter()
            .any(|n| n.contains("staging the candidate failed")));
        assert!(matches!(
            manager.staged(),
            Err(LifecycleError::Promote(PromoteError::Io { .. }))
        ));
        assert!(manager.staged().is_ok());
        assert_eq!(manager.counters().train_failures, 1);
        assert_eq!(manager.backoff_mult, 2);
        assert_eq!(manager.phase(), Phase::Idle);
    }

    #[test]
    fn checkpoint_round_trips_and_replay_is_deduplicated() {
        let dir = tempdir("ckpt");
        let model_path = seed_model(&dir);
        let mut manager =
            LifecycleManager::new(config(), model_path.clone(), LifecycleFaults::default());
        let pool = ThreadPool::serial();
        let mut feeder = Feeder::new();
        // Stop mid-shadow: candidate staged, window partially filled.
        feeder.feed(&mut manager, &pool, 6);
        assert_eq!(manager.phase(), Phase::Shadow);
        manager.save_checkpoint(&dir).unwrap();

        let (mut resumed, recovery) =
            LifecycleManager::resume(config(), model_path, LifecycleFaults::default(), Some(&dir))
                .unwrap();
        assert_eq!(recovery, Recovery::Clean);
        assert_eq!(resumed.phase(), Phase::Shadow);
        assert_eq!(resumed.counters(), manager.counters());
        assert_eq!(
            resumed.candidate_fingerprint(),
            manager.candidate_fingerprint()
        );
        assert!(resumed.candidate.is_some(), "candidate reloaded from disk");

        // Replay the last two ticks (a crash replays a feed suffix):
        // consumed-seq dedup must keep both managers in lockstep.
        let mut seq = 40u64;
        for hour in 104u32..108 {
            let batch = stream(seq, hour, 10, |_| 1.0);
            seq += 10;
            if seq > 60 {
                manager.consume(&pool, &batch, 0, 0, seq);
            }
            resumed.consume(&pool, &batch, 0, 0, seq);
        }
        assert_eq!(resumed.phase(), manager.phase());
        assert_eq!(resumed.counters(), manager.counters());
        assert_eq!(resumed.state_to_json(), manager.state_to_json());
    }

    #[test]
    fn resume_after_completed_promotion_enters_probation_once() {
        let dir = tempdir("resume-promoted");
        let model_path = seed_model(&dir);
        let mut manager =
            LifecycleManager::new(config(), model_path.clone(), LifecycleFaults::default());
        let pool = ThreadPool::serial();
        let mut feeder = Feeder::new();
        feeder.feed(&mut manager, &pool, 8);
        assert_eq!(manager.phase(), Phase::Promoting);
        let staged_fp = manager.candidate_fingerprint().unwrap();
        // Checkpoint BEFORE the promotion applies, then promote, then
        // "crash": the restart sees phase=Promoting but the candidate
        // already live.
        manager.save_checkpoint(&dir).unwrap();
        manager.apply_staged().unwrap();

        let (resumed, _) =
            LifecycleManager::resume(config(), model_path, LifecycleFaults::default(), Some(&dir))
                .unwrap();
        assert_eq!(resumed.phase(), Phase::Probation);
        assert_eq!(resumed.counters().promotions, 1);
        // The fingerprint is kept through probation for status display.
        assert_eq!(resumed.candidate_fingerprint(), Some(staged_fp));
        let store = resumed.store();
        assert_eq!(store.live_fingerprint().unwrap(), staged_fp);
    }

    /// A manager over a fresh copy of the incumbent, with a buffer small
    /// enough to wrap within a few dozen ticks.
    fn small_buffer_manager(dir: &Path, mode: WindowMode) -> LifecycleManager {
        let mut config = config();
        config.mode = mode;
        config.buffer_cap = 64;
        LifecycleManager::new(config, seed_model(dir), LifecycleFaults::default())
    }

    /// A manager whose snapshot holds several ticks' frames.
    fn large_buffer_manager(dir: &Path) -> LifecycleManager {
        LifecycleManager::new(config(), seed_model(dir), LifecycleFaults::default())
    }

    /// The state `dir`'s lifecycle files restore, read-only.
    fn restored(dir: &Path) -> Result<LifecycleManager, LifecycleError> {
        let mut manager =
            LifecycleManager::new(config(), dir.join("model.json"), LifecycleFaults::default());
        assert!(manager.restore_checkpoint(dir)?, "no lifecycle.ckpt");
        Ok(manager)
    }

    fn encoded(manager: &LifecycleManager) -> String {
        hdd_json::to_string(&manager.state_to_json())
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).map_or(0, |m| m.len())
    }

    /// Feed `manager` one tick and save it into `dir`, promoting at the
    /// quiesce a real daemon would reach; returns whether the save
    /// appended a frame and whether it wrote a snapshot.
    fn tick_and_save(
        manager: &mut LifecycleManager,
        feeder: &mut Feeder,
        pool: &ThreadPool,
        dir: &Path,
    ) -> (bool, bool) {
        feeder.feed(manager, pool, 1);
        if manager.has_staged_swap() {
            manager.apply_staged().unwrap();
        }
        let snapshot = std::fs::read(lifecycle_path(dir)).unwrap_or_default();
        let log = file_len(&lifecycle_log_path(dir));
        manager.save_checkpoint(dir).unwrap();
        let appended = file_len(&lifecycle_log_path(dir)) > log;
        let compacted = std::fs::read(lifecycle_path(dir)).unwrap() != snapshot;
        (appended, compacted)
    }

    #[test]
    fn a_snapshot_and_log_restore_equals_a_manager_that_never_stopped() {
        for mode in [WindowMode::Replacing, WindowMode::Accumulation] {
            let dir = tempdir(&format!("log-restore-{}", mode.label()));
            let mut manager = small_buffer_manager(&dir, mode);
            let pool = ThreadPool::serial();
            let mut feeder = Feeder::new();
            let (mut appends, mut compactions) = (0, 0);
            for tick in 0..40 {
                let (appended, compacted) = tick_and_save(&mut manager, &mut feeder, &pool, &dir);
                appends += usize::from(appended);
                compactions += usize::from(compacted && tick > 0);
                let resumed = restored(&dir).unwrap();
                assert_eq!(
                    encoded(&resumed),
                    encoded(&manager),
                    "{mode:?}, tick {tick}"
                );
                assert_eq!(resumed.buffer(), manager.buffer(), "{mode:?}, tick {tick}");
            }
            // The buffer wrapped (or saturated), the candidate was promoted,
            // and saves both appended and compacted.
            assert_eq!(manager.buffer().len(), 64);
            assert!(manager.counters().promotions >= 1, "{mode:?}");
            assert!(appends >= 1 && compactions >= 1, "{appends} {compactions}");
        }
    }

    #[test]
    fn a_torn_log_tail_is_dropped_and_the_next_save_compacts() {
        let dir = tempdir("log-torn");
        let mut manager = small_buffer_manager(&dir, WindowMode::Replacing);
        let pool = ThreadPool::serial();
        let mut feeder = Feeder::new();
        let mut torn = 0;
        let mut before = String::new();
        for _ in 0..30 {
            let log = std::fs::read(lifecycle_log_path(&dir)).unwrap_or_default();
            let (appended, _) = tick_and_save(&mut manager, &mut feeder, &pool, &dir);
            if appended {
                // Half of this save's frame landed: the state restores as
                // it was at the previous save, and its next save compacts.
                let snapshot = std::fs::read(lifecycle_path(&dir)).unwrap();
                let whole = std::fs::read(lifecycle_log_path(&dir)).unwrap();
                let cut = log.len() + (whole.len() - log.len()) / 2;
                std::fs::write(lifecycle_log_path(&dir), &whole[..cut]).unwrap();
                let resumed = restored(&dir).unwrap();
                assert_eq!(encoded(&resumed), before);
                resumed.save_checkpoint(&dir).unwrap();
                assert_eq!(file_len(&lifecycle_log_path(&dir)), 0);
                assert_eq!(encoded(&restored(&dir).unwrap()), encoded(&resumed));
                torn += 1;
                // Put back the files the uninterrupted manager wrote.
                std::fs::write(lifecycle_path(&dir), snapshot).unwrap();
                std::fs::write(lifecycle_log_path(&dir), whole).unwrap();
            }
            before = encoded(&manager);
        }
        assert!(torn >= 2, "{torn} torn frames");
    }

    #[test]
    fn every_single_bit_flip_in_a_complete_log_frame_is_corrupt_with_its_offset() {
        let dir = tempdir("log-bitflip");
        let mut manager = small_buffer_manager(&dir, WindowMode::Replacing);
        let pool = ThreadPool::serial();
        let mut feeder = Feeder::new();
        let mut starts = vec![0];
        while starts.len() < 3 {
            let (appended, compacted) = tick_and_save(&mut manager, &mut feeder, &pool, &dir);
            if compacted {
                starts = vec![0];
            }
            if appended {
                starts.push(file_len(&lifecycle_log_path(&dir)) as usize);
            }
        }
        let log = std::fs::read(lifecycle_log_path(&dir)).unwrap();
        for byte in 0..log.len() {
            let start = *starts.iter().rev().find(|&&s| s <= byte).unwrap();
            for bit in 0..8 {
                let mut bytes = log.clone();
                bytes[byte] ^= 1 << bit;
                std::fs::write(lifecycle_log_path(&dir), &bytes).unwrap();
                match restored(&dir) {
                    Err(LifecycleError::Checkpoint(CheckpointError::Corrupt {
                        offset, ..
                    })) => {
                        assert!(
                            (start..=byte).contains(&offset),
                            "flip of byte {byte} bit {bit} reported at {offset}"
                        );
                    }
                    other => panic!("flip of byte {byte} bit {bit}: {:?}", other.err()),
                }
            }
        }
        std::fs::write(lifecycle_log_path(&dir), &log).unwrap();
        assert_eq!(encoded(&restored(&dir).unwrap()), encoded(&manager));
    }

    #[test]
    fn a_lifecycle_log_without_its_snapshot_is_refused() {
        let dir = tempdir("log-orphan");
        let mut manager = small_buffer_manager(&dir, WindowMode::Replacing);
        let pool = ThreadPool::serial();
        let mut feeder = Feeder::new();
        while file_len(&lifecycle_log_path(&dir)) == 0 {
            tick_and_save(&mut manager, &mut feeder, &pool, &dir);
        }
        std::fs::remove_file(lifecycle_path(&dir)).unwrap();
        let mut fresh =
            LifecycleManager::new(config(), dir.join("model.json"), LifecycleFaults::default());
        let err = fresh.recover(Some(&dir)).unwrap_err();
        assert!(
            matches!(
                err,
                LifecycleError::Checkpoint(CheckpointError::Incompatible(_))
            ),
            "{err}"
        );
        assert!(err.to_string().contains("lifecycle.ckpt"), "{err}");
    }

    #[test]
    fn frames_a_newer_snapshot_covers_have_zero_effect() {
        let dir = tempdir("log-stale");
        let mut manager = large_buffer_manager(&dir);
        let pool = ThreadPool::serial();
        let mut feeder = Feeder::new();
        // The log as the first save after a compaction left it.
        let mut stale = Vec::new();
        let mut checked = 0;
        for _ in 0..60 {
            let (appended, compacted) = tick_and_save(&mut manager, &mut feeder, &pool, &dir);
            if appended && stale.is_empty() {
                stale = std::fs::read(lifecycle_log_path(&dir)).unwrap();
            }
            let covered = if compacted {
                std::mem::take(&mut stale)
            } else {
                continue;
            };
            // Room in the log for the stale frames and one more.
            if covered.is_empty() || file_len(&lifecycle_path(&dir)) < 3 * covered.len() as u64 {
                continue;
            }
            // A crash between the compaction's snapshot and the emptying
            // of the log leaves old frames behind: restore skips them, and
            // a save appended after them replays on its own.
            let snapshot = std::fs::read(lifecycle_path(&dir)).unwrap();
            std::fs::write(lifecycle_log_path(&dir), &covered).unwrap();
            let mut resumed = restored(&dir).unwrap();
            assert_eq!(encoded(&resumed), encoded(&manager));
            let mut twin = Feeder { ..feeder };
            let (appended, _) = tick_and_save(&mut resumed, &mut twin, &pool, &dir);
            assert!(appended, "the save after stale frames compacted");
            assert_eq!(encoded(&restored(&dir).unwrap()), encoded(&resumed));
            // Put back the files the uninterrupted manager wrote.
            std::fs::write(lifecycle_path(&dir), snapshot).unwrap();
            std::fs::write(lifecycle_log_path(&dir), b"").unwrap();
            checked += 1;
        }
        assert!(checked >= 1, "no compaction followed an append");
    }

    #[test]
    fn a_manager_that_never_saves_keeps_no_pending_frame_state() {
        let dir = tempdir("never-saves");
        let mut manager = small_buffer_manager(&dir, WindowMode::Replacing);
        let pool = ThreadPool::serial();
        Feeder::new().feed(&mut manager, &pool, 20);
        assert_eq!(manager.buffer().len(), 64);
        assert!(manager.checkpoint.get().is_none());
        assert_eq!(manager.state_to_json().usize_field("save").unwrap(), 0);
    }
}
