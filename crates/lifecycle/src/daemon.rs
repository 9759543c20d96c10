//! The serve loop, once. `hddpred serve`, the workload gauntlet and the
//! serve bench all drive this [`Daemon`]; DESIGN.md §8 states the step
//! order and why it is crash-safe.
//!
//! [`Daemon::open`] validates the [`DaemonConfig`] before touching any
//! file, then runs lifecycle crash recovery (it may change which bytes
//! are the live model), loads the model, resumes the topology and rolls
//! the sink back to its checkpointed length. [`Daemon::step`] runs one
//! iteration and returns a [`StepReport`]; it never sleeps and never
//! prints — cadence, idle exit and operator output are the caller's.

use crate::manager::{LifecycleConfig, LifecycleError, LifecycleFaults, LifecycleManager};
use crate::promote::{fingerprint, Recovery};
use hdd_eval::{ModelError, SavedModel, VotingRule};
use hdd_json::disk::{Disk, RealDisk};
use hdd_par::{CancelToken, ParError, ThreadPool};
use hdd_serve::{
    Backoff, BreakerState, CheckpointError, EngineConfig, MultiFeedIngest, SeqAlarm, ServeTopology,
};
use hdd_stats::FeatureSet;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Everything `hddpred serve` configures, one field per flag.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// `--feed`: append-only SMART CSV feeds, one drive per feed.
    pub feeds: Vec<PathBuf>,
    /// `--model`: the model file (owned by the lifecycle when retraining).
    pub model: PathBuf,
    /// `--out`: the alarm sink.
    pub out: PathBuf,
    /// `--shards`: detection shards, a power of two.
    pub shards: usize,
    /// `--checkpoint`: the checkpoint directory; `None` persists nothing.
    pub checkpoint: Option<PathBuf>,
    /// `--model-watch`: hot-reload the model file when its bytes change.
    pub model_watch: bool,
    /// `--voters`: the voting-window size.
    pub voters: usize,
    /// `--threshold`: mean-below voting instead of majority.
    pub rule: VotingRule,
    /// `--tick-budget-ms`; `None` never cancels, so tick boundaries
    /// depend on the feeds alone.
    pub tick_budget: Option<Duration>,
    /// `--queue`: per-shard queue capacity, the most lines a step polls.
    pub queue: usize,
    /// `--max-quarantine`: the per-shard circuit-breaker ceiling.
    pub max_quarantine: f64,
    /// `--retrain-rows` and family; `None` keeps the model frozen.
    pub retrain: Option<LifecycleConfig>,
    /// Seeded lifecycle faults, for fault-injection harnesses.
    pub faults: LifecycleFaults,
    /// Where every durable write goes: the sink, checkpoints and the
    /// model store. The real disk, except in fault-injection harnesses.
    pub disk: Arc<dyn Disk>,
}

impl DaemonConfig {
    /// `hddpred serve`'s defaults over `feeds`, `model` and `out`.
    #[must_use]
    pub fn new(feeds: Vec<PathBuf>, model: impl Into<PathBuf>, out: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            feeds,
            model: model.into(),
            out: out.into(),
            shards: 1,
            checkpoint: None,
            model_watch: false,
            voters: 11,
            rule: VotingRule::Majority,
            tick_budget: Some(Duration::from_millis(50)),
            queue: 1024,
            max_quarantine: 0.1,
            retrain: None,
            faults: LifecycleFaults::default(),
            disk: Arc::new(RealDisk),
        }
    }

    /// Check every setting.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.voters == 0 {
            return Err(ConfigError::NoVoters);
        }
        if !self.shards.is_power_of_two() {
            return Err(ConfigError::ShardsNotPowerOfTwo(self.shards));
        }
        if self.feeds.is_empty() {
            return Err(ConfigError::NoFeeds);
        }
        if self.queue == 0 {
            return Err(ConfigError::NoQueue);
        }
        if !(0.0..=1.0).contains(&self.max_quarantine) {
            return Err(ConfigError::CeilingOutOfRange(self.max_quarantine));
        }
        if let Some(lc) = &self.retrain {
            if lc.retrain_rows == 0 {
                return Err(ConfigError::NoRetrainRows);
            }
            if lc.buffer_cap == 0 {
                return Err(ConfigError::NoBufferCap);
            }
            if self.model_watch {
                return Err(ConfigError::WatchWithRetrain);
            }
        }
        Ok(())
    }
}

/// A [`DaemonConfig`] that cannot run; messages name the serve flag.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `voters` is zero.
    NoVoters,
    /// `shards` is not a power of two.
    ShardsNotPowerOfTwo(usize),
    /// `feeds` is empty.
    NoFeeds,
    /// `queue` is zero.
    NoQueue,
    /// `max_quarantine` is outside `[0, 1]`.
    CeilingOutOfRange(f64),
    /// `retrain.retrain_rows` is zero: the lifecycle would train on
    /// every row.
    NoRetrainRows,
    /// `retrain.buffer_cap` is zero: nothing could ever be trained on.
    NoBufferCap,
    /// `model_watch` with `retrain`: both would own the model file.
    WatchWithRetrain,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoVoters => f.write_str("--voters must be at least 1"),
            ConfigError::ShardsNotPowerOfTwo(n) => {
                let shards = "--shards must be a power of two (1, 2, 4, ...)";
                write!(f, "{shards}, got `{n}`")
            }
            ConfigError::NoFeeds => f.write_str("--feed needs at least one path"),
            ConfigError::NoQueue => f.write_str("--queue must be at least 1"),
            ConfigError::CeilingOutOfRange(c) => {
                write!(
                    f,
                    "--max-quarantine must be a fraction in [0, 1], got `{c}`"
                )
            }
            ConfigError::NoRetrainRows => f.write_str("--retrain-rows must be at least 1"),
            ConfigError::NoBufferCap => f.write_str("--buffer-cap must be at least 1"),
            ConfigError::WatchWithRetrain => f.write_str(
                "--model-watch cannot be combined with --retrain-rows: \
                 the retraining lifecycle owns the model file",
            ),
        }
    }
}

/// Why a daemon could not start or had to stop.
#[derive(Debug)]
pub enum DaemonError {
    /// The configuration was refused before any file was opened.
    Config(ConfigError),
    /// Opening or writing the alarm sink (the path) failed.
    Io(PathBuf, io::Error),
    /// The model file was rejected, at startup or by a lifecycle swap.
    Model(PathBuf, ModelError),
    /// The checkpoint directory could not be read or written.
    Checkpoint(PathBuf, CheckpointError),
    /// The lifecycle failed during `resume`, `swap` or `checkpoint`.
    Lifecycle(&'static str, LifecycleError),
    /// The sink (path, length) is shorter than the checkpoint records.
    SinkTooShort(PathBuf, u64, u64),
    /// The model panicked while scoring. The shard it hit is left part
    /// way through a sub-batch, so the daemon must be dropped (nothing
    /// of that step was emitted or checkpointed) and reopened from disk.
    Scoring(ParError),
}

impl fmt::Display for DaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaemonError::Config(e) => write!(f, "{e}"),
            DaemonError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            DaemonError::Model(path, e) => write!(f, "{}: {e}", path.display()),
            DaemonError::Checkpoint(dir, e) => write!(f, "{}: {e}", dir.display()),
            DaemonError::Lifecycle(during, e) => write!(f, "lifecycle {during} failed: {e}"),
            DaemonError::SinkTooShort(path, len, recorded) => write!(
                f,
                "{}: alarm sink is {len} bytes but the checkpoint recorded {recorded}; \
                 refusing to resume against the wrong sink",
                path.display()
            ),
            DaemonError::Scoring(e) => write!(f, "scoring failed: {e}"),
        }
    }
}

impl std::error::Error for DaemonError {}

/// What one [`Daemon::step`] did, for the caller to log and act on.
#[derive(Debug, Default)]
pub struct StepReport {
    /// Nothing read or queued, and the idle flush emitted and swapped nothing.
    pub idle: bool,
    /// The tick committed a line or released an alarm.
    pub progressed: bool,
    /// Alarms appended to the sink, in sink order.
    pub alarms: Vec<SeqAlarm>,
    /// Circuit-breaker transitions, tagged with their shard.
    pub transitions: Vec<(usize, BreakerState)>,
    /// Lifecycle notes, model swaps included, in order.
    pub notes: Vec<String>,
    /// The watched model file changed: swapped, or rejected (the
    /// last-known-good model keeps serving).
    pub reload: Option<Result<(), ModelError>>,
    /// Feeds whose read failed; they retry next step.
    pub feed_errors: Vec<(PathBuf, io::Error)>,
    /// The backoff to wait before the next step after a feed error.
    pub retry_in: Option<Duration>,
    /// Feed rotations observed.
    pub rotations: usize,
    /// Already-committed lines skipped during crash replay.
    pub replayed: usize,
}

/// The streaming detection daemon; see the module docs.
#[derive(Debug)]
pub struct Daemon {
    config: DaemonConfig,
    topology: ServeTopology,
    ingest: MultiFeedIngest,
    lifecycle: Option<LifecycleManager>,
    /// With `--model-watch`, the fingerprint of the model file's bytes
    /// as last read, valid or not.
    watched: Option<u64>,
    backoff: Backoff,
    pool: ThreadPool,
    sink_bytes: u64,
    recovery: Option<Recovery>,
    resumed: bool,
}

impl Daemon {
    /// Validate, recover, load, resume and roll back the sink. Every
    /// write, crash recovery's included, goes through `config.disk`.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Config`] before any file is opened, else the first
    /// startup failure.
    pub fn open(config: DaemonConfig) -> Result<Self, DaemonError> {
        config.validate().map_err(DaemonError::Config)?;
        let features = FeatureSet::critical13();
        let ckpt = config.checkpoint.as_deref();
        let (lifecycle, recovery) = match &config.retrain {
            None => (None, None),
            Some(lc) => {
                let model = config.model.clone();
                let mut manager = LifecycleManager::new(lc.clone(), model, config.faults.clone());
                manager.set_disk(Arc::clone(&config.disk));
                let recovery = manager
                    .recover(ckpt)
                    .map_err(|e| DaemonError::Lifecycle("resume", e))?;
                (Some(manager), Some(recovery))
            }
        };

        let model_err = |e| DaemonError::Model(config.model.clone(), e);
        let bytes = std::fs::read(&config.model).map_err(|e| model_err(ModelError::Io(e)))?;
        let model = SavedModel::from_bytes(&bytes).map_err(model_err)?;
        model.expect_features(features.len()).map_err(model_err)?;
        let mut topology = ServeTopology::new(
            &Arc::new(model),
            &features,
            EngineConfig::new(config.voters, config.rule, config.max_quarantine),
            config.shards,
            config.feeds.len(),
            config.queue,
        )
        .map_err(model_err)?;
        topology.set_record_events(lifecycle.is_some());
        topology.set_disk(Arc::clone(&config.disk));
        // An empty or missing checkpoint directory is a fresh start.
        let resumed = match ckpt {
            Some(dir) => topology
                .resume(dir)
                .map_err(|e| DaemonError::Checkpoint(dir.to_path_buf(), e))?,
            None => false,
        };

        // Replay re-emits everything past the checkpointed sink length,
        // which is what makes a killed run's output byte-identical.
        let sink_bytes = topology.merge_state().sink_bytes;
        let len = match std::fs::metadata(&config.out) {
            Ok(meta) => meta.len(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
            Err(e) => return Err(DaemonError::Io(config.out, e)),
        };
        if len < sink_bytes {
            return Err(DaemonError::SinkTooShort(config.out, len, sink_bytes));
        }
        // A checkpoint will record the sink's length, so the sink (a new
        // one's directory entry too) must be durable before it does.
        // Without checkpoints nothing resumes and nothing need be.
        let cut = match ckpt {
            Some(_) => config.disk.truncate(&config.out, sink_bytes),
            None => config.disk.set_len(&config.out, sink_bytes),
        };
        cut.map_err(|e| DaemonError::Io(config.out.clone(), e))?;

        let cursors = topology.ingest_resume_cursors();
        Ok(Daemon {
            ingest: MultiFeedIngest::resume(&config.feeds, topology.router(), &cursors),
            watched: config.model_watch.then(|| fingerprint(&bytes)),
            config,
            topology,
            lifecycle,
            backoff: Backoff::new(Duration::from_millis(50), Duration::from_secs(5)),
            pool: ThreadPool::global(),
            sink_bytes,
            recovery,
            resumed,
        })
    }

    /// The sharded topology (stats, breaker states, drop counters).
    #[must_use]
    pub fn topology(&self) -> &ServeTopology {
        &self.topology
    }

    /// The retraining lifecycle, when configured.
    #[must_use]
    pub fn lifecycle(&self) -> Option<&LifecycleManager> {
        self.lifecycle.as_ref()
    }

    /// What lifecycle crash recovery did at open, when retraining.
    #[must_use]
    pub fn recovery(&self) -> Option<Recovery> {
        self.recovery
    }

    /// Whether [`Daemon::open`] resumed from a checkpoint.
    #[must_use]
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// Run one iteration of the serve loop.
    ///
    /// # Errors
    ///
    /// [`DaemonError`] when scoring panics or a sink, checkpoint or
    /// lifecycle write fails. Feed read errors are reported, not fatal.
    pub fn step(&mut self) -> Result<StepReport, DaemonError> {
        let mut report = StepReport::default();
        let sink_start = self.sink_bytes;
        if let Some(seen) = self.watched.as_mut() {
            // The swap checks the feature count; a rejected file leaves
            // the last-known-good model serving.
            report.reload = changed_model(&self.config.model, seen)
                .map(|loaded| loaded.and_then(|m| self.topology.swap_model(&Arc::new(m))));
        }

        // Backpressure lands on the durable feed files, not on queued rows.
        let polled = self.ingest.poll(self.topology.free());
        if polled.errors.is_empty() {
            self.backoff.reset();
        } else {
            report.retry_in = Some(self.backoff.next_delay());
        }
        for (f, e) in polled.errors {
            let path = self.config.feeds.get(f).cloned().unwrap_or_default();
            report.feed_errors.push((path, e));
        }
        report.rotations = polled.rotations;
        self.topology.enqueue(polled.routed);

        let token = self
            .config
            .tick_budget
            .map_or_else(CancelToken::new, CancelToken::with_budget);
        let (cursors, watermark) = (self.ingest.cursors(), self.ingest.watermark());
        let tick = self
            .topology
            .tick(&self.pool, &token, &cursors, watermark)
            .map_err(DaemonError::Scoring)?;
        self.emit(&tick.alarms)?;
        if let Some(mgr) = self.lifecycle.as_mut() {
            let emitted = self.topology.merge_state().emitted();
            let (alarms, transitions) = (tick.alarms.len(), tick.transitions.len());
            report.notes = mgr.consume(&self.pool, &tick.events, alarms, transitions, emitted);
            mgr.staged()
                .map_err(|e| DaemonError::Lifecycle("stage", e))?;
        }
        report.progressed = tick.progressed;
        report.replayed = tick.replayed;
        report.alarms = tick.alarms;
        report.transitions = tick.transitions;

        report.idle = polled.lines_read == 0 && !self.topology.has_queued();
        if report.idle {
            self.quiesce(&mut report, sink_start)?;
        }
        if report.progressed || !report.idle {
            self.checkpoint(sink_start)?;
        }
        Ok(report)
    }

    /// Flush what a stalled watermark holds back (feeds of unequal length
    /// stall it at the shortest one), then land staged model swaps at
    /// this fully quiesced stream position.
    fn quiesce(&mut self, report: &mut StepReport, sink_start: u64) -> Result<(), DaemonError> {
        let flushed = self.topology.flush_pending();
        self.emit(&flushed)?;
        report.idle = flushed.is_empty();
        if let Some(mgr) = self.lifecycle.as_mut() {
            let events = self.topology.flush_events();
            let emitted = self.topology.merge_state().emitted();
            report
                .notes
                .extend(mgr.consume(&self.pool, &events, flushed.len(), 0, emitted));
            mgr.staged()
                .map_err(|e| DaemonError::Lifecycle("stage", e))?;
        }
        report.alarms.extend(flushed);
        while self
            .lifecycle
            .as_ref()
            .is_some_and(LifecycleManager::has_staged_swap)
        {
            // The swap rewrites the model store; checkpoint the decision
            // first, so a crash part-way resumes knowing it was staged
            // (recovery may complete the swap on disk).
            self.checkpoint(sink_start)?;
            let Some(mgr) = self.lifecycle.as_mut() else {
                break;
            };
            let swapped = mgr
                .apply_staged()
                .map_err(|e| DaemonError::Lifecycle("swap", e))?;
            if let Some(next) = swapped {
                self.topology
                    .swap_model(&next)
                    .map_err(|e| DaemonError::Model(self.config.model.clone(), e))?;
                report.idle = false;
                let phase = mgr.phase().label();
                report
                    .notes
                    .push(format!("lifecycle: live model swapped ({phase})"));
            }
        }
        Ok(())
    }

    /// Append alarm lines to the sink.
    fn emit(&mut self, alarms: &[SeqAlarm]) -> Result<(), DaemonError> {
        if alarms.is_empty() {
            return Ok(());
        }
        let lines: String = alarms.iter().map(|a| format!("{}\n", a.alarm)).collect();
        self.config
            .disk
            .append(&self.config.out, lines.as_bytes())
            .map_err(|e| DaemonError::Io(self.config.out.clone(), e))?;
        self.sink_bytes += lines.len() as u64;
        Ok(())
    }

    /// Persist in resume order: sink, lifecycle, topology, dirty shards.
    /// The sink is `fsync`ed when this step appended to it, so it can
    /// never end up shorter than the `topology.ckpt` that records it.
    fn checkpoint(&mut self, sink_start: u64) -> Result<(), DaemonError> {
        let Some(dir) = self.config.checkpoint.as_deref() else {
            return Ok(());
        };
        if self.sink_bytes > sink_start {
            self.config
                .disk
                .sync(&self.config.out)
                .map_err(|e| DaemonError::Io(self.config.out.clone(), e))?;
        }
        self.topology.note_sink_bytes(self.sink_bytes);
        if let Some(mgr) = self.lifecycle.as_ref() {
            mgr.save_checkpoint(dir)
                .map_err(|e| DaemonError::Lifecycle("checkpoint", e))?;
        }
        self.topology
            .save_checkpoints(dir)
            .map_err(|e| DaemonError::Checkpoint(dir.to_path_buf(), e))
    }
}

/// The model file at `path` when its bytes differ from those last seen
/// (fingerprint `seen`, which then moves to them): the model they decode
/// to, or why they do not. The file is read once, and a bad replacement
/// is reported once, not on every step. A missing or unreadable file is
/// no change.
fn changed_model(path: &Path, seen: &mut u64) -> Option<Result<SavedModel, ModelError>> {
    let bytes = std::fs::read(path).ok()?;
    let fp = fingerprint(&bytes);
    if fp == *seen {
        return None;
    }
    *seen = fp;
    Some(SavedModel::from_bytes(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> DaemonConfig {
        DaemonConfig::new(vec![PathBuf::from("feed.csv")], "model.json", "alarms.csv")
    }

    fn refused(edit: impl FnOnce(&mut DaemonConfig)) -> ConfigError {
        let mut config = config();
        edit(&mut config);
        match Daemon::open(config) {
            Err(DaemonError::Config(e)) => e,
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn defaults_match_the_serve_flags() {
        let c = config();
        assert_eq!(c.validate(), Ok(()));
        assert_eq!((c.shards, c.voters, c.queue), (1, 11, 1024));
        assert_eq!(c.tick_budget, Some(Duration::from_millis(50)));
        assert_eq!(c.rule, VotingRule::Majority);
        assert!((c.max_quarantine - 0.1).abs() < f64::EPSILON);
        assert!(c.checkpoint.is_none() && c.retrain.is_none() && !c.model_watch);
    }

    #[test]
    fn every_invalid_setting_is_refused_typed_before_any_file_is_opened() {
        assert_eq!(refused(|c| c.voters = 0), ConfigError::NoVoters);
        for shards in [0, 3, 6] {
            assert_eq!(
                refused(|c| c.shards = shards),
                ConfigError::ShardsNotPowerOfTwo(shards)
            );
        }
        assert_eq!(refused(|c| c.feeds.clear()), ConfigError::NoFeeds);
        assert_eq!(refused(|c| c.queue = 0), ConfigError::NoQueue);
        for ceiling in [-0.1, 1.5] {
            assert_eq!(
                refused(|c| c.max_quarantine = ceiling),
                ConfigError::CeilingOutOfRange(ceiling)
            );
        }
        assert!(matches!(
            refused(|c| c.max_quarantine = f64::NAN),
            ConfigError::CeilingOutOfRange(_)
        ));
        assert_eq!(
            refused(|c| {
                c.model_watch = true;
                c.retrain = Some(LifecycleConfig::new(11, VotingRule::Majority));
            }),
            ConfigError::WatchWithRetrain
        );
        let retrain = |edit: fn(&mut LifecycleConfig)| {
            refused(|c| {
                let mut lc = LifecycleConfig::new(11, VotingRule::Majority);
                edit(&mut lc);
                c.retrain = Some(lc);
            })
        };
        assert_eq!(
            retrain(|lc| lc.retrain_rows = 0),
            ConfigError::NoRetrainRows
        );
        assert_eq!(retrain(|lc| lc.buffer_cap = 0), ConfigError::NoBufferCap);
    }

    #[test]
    fn config_errors_name_the_serve_flag() {
        let cases = [
            (ConfigError::NoVoters, "--voters"),
            (ConfigError::ShardsNotPowerOfTwo(3), "power of two"),
            (ConfigError::NoFeeds, "--feed"),
            (ConfigError::NoQueue, "--queue"),
            (ConfigError::CeilingOutOfRange(2.0), "--max-quarantine"),
            (ConfigError::NoRetrainRows, "--retrain-rows"),
            (ConfigError::NoBufferCap, "--buffer-cap"),
            (ConfigError::WatchWithRetrain, "--model-watch"),
        ];
        for (error, flag) in cases {
            let text = DaemonError::Config(error).to_string();
            assert!(text.contains(flag), "{text}");
        }
    }

    #[test]
    fn a_valid_config_fails_on_the_missing_model_not_on_validation() {
        match Daemon::open(config()) {
            Err(DaemonError::Model(path, _)) => assert_eq!(path, Path::new("model.json")),
            other => panic!("expected a model error, got {other:?}"),
        }
    }

    /// A one-leaf, 13-feature model file that scores every row `payload`
    /// (negative fails) under ensemble weight `weight`.
    fn model_file(payload: i32, weight: u32) -> Vec<u8> {
        let leaf = u32::MAX;
        let envelope = format!(
            r#"{{"format_version":2,"kind":"compact-forest","n_features":13,"model":{{"n_features":13,"clamp":false,"weights":[{weight}],"trees":[{{"feature":[0],"threshold":[0],"left":[{leaf}],"right":[{leaf}],"payload":[{payload}],"nan":[0]}}]}}}}"#
        );
        let model = SavedModel::from_json(&hdd_json::parse(&envelope).unwrap()).unwrap();
        model.document().into_bytes()
    }

    /// The model that fails every drive it scores.
    fn failing() -> Vec<u8> {
        model_file(-1, 1)
    }

    /// A model that passes every drive, and whose file is as long as
    /// [`failing`]'s.
    fn passing_same_length() -> Vec<u8> {
        let want = failing().len();
        (10..100)
            .map(|w| model_file(1, w))
            .find(|bytes| bytes.len() == want)
            .expect("a passing model file as long as the failing one")
    }

    /// A daemon with `--model-watch` over `model`, voting on one row,
    /// serving a two-drive feed of 24 hours, in a fresh directory.
    fn watching(tag: &str, model: &[u8]) -> (Daemon, PathBuf) {
        let dir = std::env::temp_dir().join(format!("hdd-daemon-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mut feed = Vec::new();
        hdd_smart::csv::write_header(&mut feed).unwrap();
        for hour in 0..24 {
            for drive in 0..2 {
                let row = format!("{drive},0,,{hour},112,97,99,69,239,99,102,58,103,100,0,0\n");
                feed.extend_from_slice(row.as_bytes());
            }
        }
        std::fs::write(dir.join("feed.csv"), feed).unwrap();
        std::fs::write(dir.join("model.json"), model).unwrap();
        let mut config = DaemonConfig::new(
            vec![dir.join("feed.csv")],
            dir.join("model.json"),
            dir.join("alarms.csv"),
        );
        config.model_watch = true;
        config.voters = 1;
        config.tick_budget = None;
        (Daemon::open(config).unwrap(), dir)
    }

    /// Step to idle, asserting no reload on the way; returns the sink.
    fn serve_to_idle(daemon: &mut Daemon, dir: &Path) -> Vec<u8> {
        for _ in 0..100 {
            let report = daemon.step().unwrap();
            assert!(report.reload.is_none(), "{:?}", report.reload);
            if report.idle {
                return std::fs::read(dir.join("alarms.csv")).unwrap_or_default();
            }
        }
        panic!("the daemon never went idle");
    }

    /// The sink of a run that never sees a push, opened on `model`.
    fn reference(tag: &str, model: &[u8]) -> Vec<u8> {
        let (mut daemon, dir) = watching(tag, model);
        let sink = serve_to_idle(&mut daemon, &dir);
        std::fs::remove_dir_all(&dir).ok();
        sink
    }

    #[test]
    fn an_unchanged_model_file_is_not_a_reload() {
        let (mut daemon, dir) = watching("unchanged", &failing());
        assert!(daemon.step().unwrap().reload.is_none());
        assert!(daemon.step().unwrap().reload.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewriting_identical_bytes_is_not_a_reload() {
        let (mut daemon, dir) = watching("identical", &failing());
        std::fs::write(dir.join("model.json"), failing()).unwrap();
        let sink = serve_to_idle(&mut daemon, &dir);
        assert_eq!(sink, reference("identical-ref", &failing()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_different_valid_model_swaps_in() {
        let failed_all = reference("swap-ref", &failing());
        assert!(!failed_all.is_empty(), "the failing model raises alarms");
        let (mut daemon, dir) = watching("swap", &failing());
        std::fs::write(dir.join("model.json"), model_file(1, 1)).unwrap();
        assert!(matches!(daemon.step().unwrap().reload, Some(Ok(()))));
        assert!(serve_to_idle(&mut daemon, &dir).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_bit_flipped_model_is_rejected_once_and_the_last_known_good_keeps_scoring() {
        let (mut daemon, dir) = watching("flipped", &failing());
        let mut bytes = failing();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(dir.join("model.json"), &bytes).unwrap();
        match daemon.step().unwrap().reload {
            Some(Err(ModelError::Corrupt { .. })) => {}
            other => panic!("expected a corrupt-model rejection, got {other:?}"),
        }
        // Reported once; the unchanged bad file stays quiet after that.
        let sink = serve_to_idle(&mut daemon, &dir);
        assert_eq!(sink, reference("flipped-ref", &failing()));
        assert!(!sink.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_vanished_model_file_is_no_change() {
        let (mut daemon, dir) = watching("vanished", &failing());
        std::fs::remove_file(dir.join("model.json")).unwrap();
        let sink = serve_to_idle(&mut daemon, &dir);
        assert_eq!(sink, reference("vanished-ref", &failing()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_same_length_replacement_with_its_old_mtime_is_picked_up() {
        let (mut daemon, dir) = watching("same-length", &failing());
        let path = dir.join("model.json");
        let before = std::fs::metadata(&path).unwrap();
        let replacement = passing_same_length();
        std::fs::write(&path, &replacement).unwrap();
        let times = std::fs::FileTimes::new().set_modified(before.modified().unwrap());
        std::fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_times(times)
            .unwrap();
        let after = std::fs::metadata(&path).unwrap();
        assert_eq!(after.len(), before.len());
        assert_eq!(after.modified().unwrap(), before.modified().unwrap());

        assert!(matches!(daemon.step().unwrap().reload, Some(Ok(()))));
        assert!(serve_to_idle(&mut daemon, &dir).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
