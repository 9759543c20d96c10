//! The resilience gauntlet: generate, serve, score, assert.
//!
//! [`run`] executes every scenario of a profile. Per scenario it
//! generates the fleet into feed files, proves the generation is
//! byte-identical on regeneration (hash of the files vs a second pass
//! into a hashing sink), then drives the sharded serve topology over
//! the feeds at 1, 2 and 4 shards and scores the merged alarm sink
//! against ground truth: FDR, FAR, mean alarm lead time, p99 tick
//! latency and the degradation counters.
//!
//! Degradation must stay *bounded*, and the bounds are equalities
//! wherever the generator knows the exact injected count:
//!
//! * no queue evictions ever (the loop polls within `free()`),
//! * `stale_rows == injected_stale`, `parse_failures ==
//!   injected_garbage`, ingest rotations `== injected_rotations`,
//! * the breaker-transition counter matches the transition events the
//!   topology reported (the checkpointed counter is replay-exact),
//! * alarms may be suppressed only if a breaker actually left Healthy,
//! * the alarm sink is byte-identical across every shard count run.
//!
//! Any violation is a [`GauntletError::Degraded`], not a statistic.

use crate::gen::{fleet_fingerprint, generate_fleet, FleetSummary, FnvWriter};
use crate::manifest::ScenarioManifest;
use crate::scenario::{Profile, Scenario};
use hdd_bench::report::Report;
use hdd_cart::{ClassificationTreeBuilder, TrainError};
use hdd_eval::{series_training_set, ModelError, SavedModel, VotingRule};
use hdd_fault::FaultClass;
use hdd_json::disk::{Fault, FaultDisk, RealDisk};
use hdd_json::{JsonCodec as _, JsonError};
use hdd_lifecycle::{
    Daemon, DaemonConfig, DaemonError, LifecycleConfig, LifecycleCounters, LifecycleError,
    LifecycleFaults, ModelStore,
};
use hdd_smart::rng::DeterministicRng;
use hdd_smart::{DatasetGenerator, FamilyProfile, SmartSeries};
use hdd_stats::FeatureSet;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;
/// Training window (hours before failure) for the inline model.
const TRAIN_WINDOW_HOURS: u32 = 168;
/// Salt separating the training fleet's seed from the scenario seed,
/// so the model never trains on the exact fleet it is scored against.
const TRAIN_SEED_SALT: u64 = 0x7EAC_4ED5;

/// Online-retraining knobs for a gauntlet run (`None` in
/// [`GauntletConfig::retrain`] means the model stays frozen).
#[derive(Debug, Clone)]
pub struct RetrainSpec {
    /// Committed rows between training attempts.
    pub retrain_rows: usize,
    /// Rows a candidate must shadow-score before the gate judges it.
    pub shadow_rows: usize,
    /// Rows of post-promotion probation before a promotion is final.
    pub probation_rows: usize,
    /// Seeded lifecycle fault to inject, if any.
    pub fault: Option<FaultClass>,
}

impl RetrainSpec {
    /// Defaults sized so the gauntlet fleets retrain and judge at least
    /// once well before the feeds drain.
    #[must_use]
    pub fn new(fault: Option<FaultClass>) -> Self {
        RetrainSpec {
            retrain_rows: 2048,
            shadow_rows: 1024,
            probation_rows: 1024,
            fault,
        }
    }

    fn faults(&self) -> LifecycleFaults {
        let mut faults = LifecycleFaults::default();
        match self.fault {
            Some(FaultClass::TrainerPanic) => faults.trainer_panic = Some(1),
            Some(FaultClass::PoisonedBuffer) => faults.poison_buffer = Some(1),
            Some(FaultClass::RegressingCandidate) => faults.regressing_candidate = true,
            _ => {}
        }
        faults
    }
}

/// Everything a gauntlet run needs beyond the scenario manifests.
#[derive(Debug, Clone)]
pub struct GauntletConfig {
    /// Root seed shared by every scenario manifest.
    pub seed: u64,
    /// Which profile's scenarios to run.
    pub profile: Profile,
    /// Run only this scenario instead of the whole profile.
    pub scenario: Option<Scenario>,
    /// Highest shard count exercised; every power of two up to it runs
    /// and all runs must produce byte-identical alarm sinks.
    pub max_shards: usize,
    /// Fleet size as a fraction of the paper's family-W population.
    pub scale: f64,
    /// Feed files per scenario.
    pub n_feeds: usize,
    /// Per-shard queue capacity of the served daemon, so the most rows
    /// one step polls.
    pub rate: usize,
    /// Voting-window size for the detector.
    pub voters: usize,
    /// Per-shard quarantine circuit-breaker ceiling.
    pub max_quarantine: f64,
    /// Directory for generated feeds and per-scenario manifests.
    pub work_dir: PathBuf,
    /// Serve an existing model file instead of training inline.
    pub model: Option<PathBuf>,
    /// Run the online retraining lifecycle alongside scoring.
    pub retrain: Option<RetrainSpec>,
}

impl GauntletConfig {
    /// Defaults matching `hddpred gauntlet`.
    #[must_use]
    pub fn new(seed: u64, profile: Profile, work_dir: PathBuf) -> Self {
        GauntletConfig {
            seed,
            profile,
            scenario: None,
            max_shards: 4,
            scale: 0.004,
            n_feeds: 2,
            rate: 512,
            voters: 11,
            max_quarantine: 0.1,
            work_dir,
            model: None,
            retrain: None,
        }
    }
}

/// Why a gauntlet run failed.
#[derive(Debug)]
pub enum GauntletError {
    /// Reading or writing a file failed at the OS level.
    Io {
        /// The file involved.
        path: String,
        /// The underlying error.
        source: io::Error,
    },
    /// The model file was rejected.
    Model {
        /// The model file.
        path: String,
        /// The underlying error.
        source: ModelError,
    },
    /// Inline training could not produce a model.
    Train(TrainError),
    /// A replay manifest did not parse.
    Manifest {
        /// The manifest file.
        path: String,
        /// The underlying error.
        source: JsonError,
    },
    /// A bounded-degradation assertion failed — the serve stack
    /// degraded beyond what the scenario injected.
    Degraded(String),
    /// The online retraining lifecycle failed outside its containment.
    Lifecycle(LifecycleError),
    /// The served daemon could not start or had to stop.
    Daemon(DaemonError),
}

impl fmt::Display for GauntletError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GauntletError::Io { path, source } => write!(f, "{path}: {source}"),
            GauntletError::Model { path, source } => write!(f, "{path}: {source}"),
            GauntletError::Train(source) => write!(f, "gauntlet training failed: {source}"),
            GauntletError::Manifest { path, source } => write!(f, "{path}: {source}"),
            GauntletError::Degraded(msg) => write!(f, "gauntlet assertion failed: {msg}"),
            GauntletError::Lifecycle(source) => write!(f, "gauntlet lifecycle failed: {source}"),
            GauntletError::Daemon(source) => write!(f, "gauntlet serve failed: {source}"),
        }
    }
}

impl std::error::Error for GauntletError {}

/// What the online retraining lifecycle did during one run.
#[derive(Debug, Clone)]
pub struct LifecycleOutcome {
    /// Lifecycle counters at the end of the run.
    pub counters: LifecycleCounters,
    /// Final phase label.
    pub phase: &'static str,
    /// Fingerprint of the live model file after the run.
    pub live_fingerprint: u64,
    /// Rows the buffer quarantined for non-finite features.
    pub poisoned_rows: usize,
    /// FDR of the frozen incumbent over this fleet (the run's own
    /// score — promotions only apply at the final quiesce).
    pub incumbent_fdr: f64,
    /// FDR of the live post-run model rescored over the same fleet;
    /// equals `incumbent_fdr` when nothing was promoted.
    pub post_promotion_fdr: f64,
}

/// One scenario scored at one shard count.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Shard count of this run.
    pub n_shards: usize,
    /// The merged alarm sink, read back from `<scenario>-<shards>.alarms`
    /// in the work dir.
    pub sink: String,
    /// Failed-drive detection rate (detected failed / failed).
    pub fdr: f64,
    /// False alarm rate (alarmed good / good).
    pub far: f64,
    /// Mean hours between first alarm and failure over detected drives.
    pub lead_hours: f64,
    /// Alarm lines emitted.
    pub alarms: usize,
    /// Sum of daemon step wall times, milliseconds.
    pub wall_ms: f64,
    /// 99th-percentile daemon step wall time, milliseconds.
    pub p99_tick_ms: f64,
    /// Data rows the engines saw.
    pub rows_seen: usize,
    /// Rows counted stale (late arrivals and duplicates).
    pub stale_rows: usize,
    /// Rows quarantined as unusable.
    pub quarantined_rows: usize,
    /// Rows evicted from shard queues (must be zero).
    pub dropped_rows: usize,
    /// Alarm decisions suppressed while a breaker was degraded.
    pub alarms_suppressed: usize,
    /// Circuit-breaker state transitions across all shards.
    pub breaker_transitions: usize,
    /// Online-retraining results when [`GauntletConfig::retrain`] is set.
    pub lifecycle: Option<LifecycleOutcome>,
}

/// Run every scenario the config selects; see the module docs.
///
/// # Errors
///
/// Returns [`GauntletError`] on I/O or model failure, or when a
/// bounded-degradation assertion does not hold.
pub fn run(config: &GauntletConfig) -> Result<Vec<ScenarioOutcome>, GauntletError> {
    validate(config)?;
    let model = prepare_model(config)?;
    let scenarios: Vec<Scenario> = match config.scenario {
        Some(s) => vec![s],
        None => config.profile.scenarios().to_vec(),
    };
    let mut outcomes = Vec::new();
    for scenario in scenarios {
        let manifest = ScenarioManifest::new(config.seed, scenario, config.scale, config.n_feeds);
        persist_manifest(config, &manifest)?;
        outcomes.extend(run_manifest(config, &manifest, &model)?);
    }
    Ok(outcomes)
}

/// Replay one committed manifest (`hddpred gauntlet --manifest`).
///
/// # Errors
///
/// As [`run`].
pub fn replay(
    config: &GauntletConfig,
    manifest: &ScenarioManifest,
) -> Result<Vec<ScenarioOutcome>, GauntletError> {
    validate(config)?;
    let model = prepare_model(config)?;
    run_manifest(config, manifest, &model)
}

/// Load a manifest file written by [`run`] (or committed to the repo).
///
/// # Errors
///
/// Returns [`GauntletError::Io`] / [`GauntletError::Manifest`] when the
/// file cannot be read or decoded.
pub fn load_manifest(path: &Path) -> Result<ScenarioManifest, GauntletError> {
    let text = std::fs::read_to_string(path).map_err(|source| GauntletError::Io {
        path: path.display().to_string(),
        source,
    })?;
    hdd_json::parse(&text)
        .and_then(|v| ScenarioManifest::from_json(&v))
        .map_err(|source| GauntletError::Manifest {
            path: path.display().to_string(),
            source,
        })
}

/// Fold outcomes into the benchmark report shape
/// (`op` = scenario label, `n_threads` = shard count).
#[must_use]
pub fn to_report(outcomes: &[ScenarioOutcome]) -> Report {
    let mut report = Report::new();
    for o in outcomes {
        let mut metrics = vec![
            ("fdr", o.fdr),
            ("far", o.far),
            ("lead_hours", o.lead_hours),
            ("p99_tick_ms", o.p99_tick_ms),
            ("alarms", o.alarms as f64),
            ("rows_seen", o.rows_seen as f64),
            ("stale_rows", o.stale_rows as f64),
            ("quarantined_rows", o.quarantined_rows as f64),
            ("dropped_rows", o.dropped_rows as f64),
            ("alarms_suppressed", o.alarms_suppressed as f64),
            ("breaker_transitions", o.breaker_transitions as f64),
        ];
        if let Some(lc) = &o.lifecycle {
            metrics.extend([
                ("incumbent_fdr", lc.incumbent_fdr),
                ("post_promotion_fdr", lc.post_promotion_fdr),
                ("promotions", lc.counters.promotions as f64),
                ("rollbacks", lc.counters.rollbacks as f64),
                ("gate_refusals", lc.counters.gate_refusals as f64),
                ("gate_clearances", lc.counters.gate_clearances as f64),
                ("trainer_panics", lc.counters.trainer_panics as f64),
            ]);
        }
        report.push_with(o.scenario.label(), o.n_shards, o.wall_ms, 1.0, &metrics);
    }
    report
}

/// Train the inline model on a calibrated fleet derived from (but not
/// equal to) the scenario seed, mirroring `hddpred train`'s sampling.
///
/// # Errors
///
/// Returns [`GauntletError::Train`] when the tree cannot be built.
pub fn train_model(seed: u64, scale: f64) -> Result<SavedModel, GauntletError> {
    let dataset = DatasetGenerator::new(FamilyProfile::w().scaled(scale), seed).generate();
    let features = FeatureSet::critical13();
    let series: Vec<SmartSeries> = dataset
        .drives()
        .iter()
        .map(|spec| dataset.series(spec))
        .collect();
    let rng = DeterministicRng::new(seed ^ 0x007E_A1CB);
    let samples = series_training_set(&series, &features, TRAIN_WINDOW_HOURS, &rng);
    let tree = ClassificationTreeBuilder::new()
        .build(&samples)
        .map_err(GauntletError::Train)?;
    Ok(SavedModel::from(tree.compile()))
}

/// Refuse settings no daemon could serve (shards, voters, breaker
/// ceiling, `rate` as the queue) before anything is generated.
fn validate(config: &GauntletConfig) -> Result<(), GauntletError> {
    let feeds = vec![PathBuf::new(); config.n_feeds];
    daemon_config(
        config,
        &feeds,
        PathBuf::new(),
        PathBuf::new(),
        config.max_shards,
    )
    .validate()
    .map_err(|e| GauntletError::Daemon(DaemonError::Config(e)))
}

/// Load or train the served model.
fn prepare_model(config: &GauntletConfig) -> Result<SavedModel, GauntletError> {
    match &config.model {
        Some(path) => {
            SavedModel::load_expecting(path, FeatureSet::critical13().len()).map_err(|source| {
                GauntletError::Model {
                    path: path.display().to_string(),
                    source,
                }
            })
        }
        None => train_model(config.seed ^ TRAIN_SEED_SALT, config.scale),
    }
}

fn io_at<P: AsRef<Path>>(path: P) -> impl Fn(io::Error) -> GauntletError {
    let path = path.as_ref().display().to_string();
    move |source| GauntletError::Io {
        path: path.clone(),
        source,
    }
}

fn persist_manifest(
    config: &GauntletConfig,
    manifest: &ScenarioManifest,
) -> Result<(), GauntletError> {
    std::fs::create_dir_all(&config.work_dir).map_err(io_at(&config.work_dir))?;
    let path = config
        .work_dir
        .join(format!("manifest-{}.json", manifest.scenario.label()));
    let mut text = hdd_json::to_string(&manifest.to_json());
    text.push('\n');
    std::fs::write(&path, text).map_err(io_at(&path))
}

fn run_manifest(
    config: &GauntletConfig,
    manifest: &ScenarioManifest,
    model: &SavedModel,
) -> Result<Vec<ScenarioOutcome>, GauntletError> {
    std::fs::create_dir_all(&config.work_dir).map_err(io_at(&config.work_dir))?;
    let label = manifest.scenario.label();
    let model_path = config.work_dir.join(format!("{label}-model.bin"));
    model
        .save(&model_path)
        .map_err(|source| GauntletError::Model {
            path: model_path.display().to_string(),
            source,
        })?;
    let paths: Vec<PathBuf> = (0..manifest.n_feeds)
        .map(|f| config.work_dir.join(format!("{label}-feed-{f}.csv")))
        .collect();
    let summary = {
        let mut feeds = Vec::with_capacity(paths.len());
        for path in &paths {
            feeds.push(BufWriter::new(File::create(path).map_err(io_at(path))?));
        }
        generate_fleet(manifest, &mut feeds).map_err(io_at(&config.work_dir))?
    };

    // Determinism gate: a second generation pass into hashing sinks
    // must fingerprint exactly what landed on disk.
    let expected = fleet_fingerprint(manifest).map_err(io_at(&config.work_dir))?;
    for (path, (hash, len)) in paths.iter().zip(&expected) {
        let mut file = File::open(path).map_err(io_at(path))?;
        let mut sink = FnvWriter::new();
        io::copy(&mut file, &mut sink).map_err(io_at(path))?;
        if (sink.hash(), sink.len()) != (*hash, *len) {
            return Err(GauntletError::Degraded(format!(
                "{label}: regeneration is not byte-identical for {} \
                 (got {:#018x}:{}, expected {hash:#018x}:{len})",
                path.display(),
                sink.hash(),
                sink.len(),
            )));
        }
    }

    let mut outcomes = Vec::new();
    for n_shards in [1usize, 2, 4] {
        if n_shards > config.max_shards {
            break;
        }
        outcomes.push(drive(
            config,
            manifest,
            &summary,
            &model_path,
            n_shards,
            &paths,
        )?);
    }
    if let Some((first, rest)) = outcomes.split_first() {
        for o in rest {
            if o.sink != first.sink {
                return Err(GauntletError::Degraded(format!(
                    "{label}: alarm sink at {} shard(s) differs from the \
                     serial run ({} vs {} alarm lines)",
                    o.n_shards, o.alarms, first.alarms,
                )));
            }
            // The committed-event stream is shard-count invariant, so
            // the whole lifecycle — training timing, candidate bytes,
            // gate verdicts — must replay identically too.
            if let (Some(a), Some(b)) = (&first.lifecycle, &o.lifecycle) {
                if a.live_fingerprint != b.live_fingerprint || a.counters != b.counters {
                    return Err(GauntletError::Degraded(format!(
                        "{label}: lifecycle diverged across shard counts \
                         (live model {:016x} at 1 shard vs {:016x} at {})",
                        a.live_fingerprint, b.live_fingerprint, o.n_shards,
                    )));
                }
            }
        }
    }
    Ok(outcomes)
}

/// Time one closure, returning its result and the wall milliseconds.
fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "gauntlet tick latency is observability-only; the measured value is reported in BENCH_gauntlet.json and never feeds back into engine state or alarm output"
    )]
    let start = std::time::Instant::now();
    let out = f();
    #[expect(
        clippy::disallowed_methods,
        reason = "gauntlet tick latency is observability-only; the measured value is reported in BENCH_gauntlet.json and never feeds back into engine state or alarm output"
    )]
    let ms = start.elapsed().as_secs_f64() * 1e3;
    (out, ms)
}

fn ensure(cond: bool, label: &str, msg: impl FnOnce() -> String) -> Result<(), GauntletError> {
    if cond {
        Ok(())
    } else {
        Err(GauntletError::Degraded(format!("{label}: {}", msg())))
    }
}

/// Serve `paths` with a [`Daemon`] writing `out` until the feeds are
/// drained, returning it with its step wall times, breaker transitions
/// and feed rotations. Feed read errors abort the run. When `power_loss`
/// (the daemon's disk) fires, the failed daemon is dropped and reopened
/// on the real disk, as after a reboot.
fn serve_to_idle(
    mut config: DaemonConfig,
    mut power_loss: Option<&FaultDisk>,
) -> Result<(Daemon, Vec<f64>, usize, usize), GauntletError> {
    let mut daemon = Daemon::open(config.clone()).map_err(GauntletError::Daemon)?;
    let mut step_times = Vec::new();
    let mut transitions = 0usize;
    let mut rotations = 0usize;
    loop {
        let (step, ms) = time_ms(|| daemon.step());
        step_times.push(ms);
        let step = match step {
            Err(_) if power_loss.take().is_some_and(FaultDisk::fired) => {
                config.disk = Arc::new(RealDisk);
                daemon = Daemon::open(config.clone()).map_err(GauntletError::Daemon)?;
                continue;
            }
            step => step.map_err(GauntletError::Daemon)?,
        };
        if let Some((path, source)) = step.feed_errors.into_iter().next() {
            return Err(GauntletError::Io {
                path: path.display().to_string(),
                source,
            });
        }
        transitions += step.transitions.len();
        rotations += step.rotations;
        if step.idle {
            return Ok((daemon, step_times, transitions, rotations));
        }
    }
}

/// The daemon settings every gauntlet run shares: `config`'s voters and
/// breaker ceiling, `--rate` as the queue capacity, and no tick budget,
/// so tick boundaries — and with them the lifecycle's training cadence —
/// depend on the feeds alone, never on how fast this machine scores.
fn daemon_config(
    config: &GauntletConfig,
    paths: &[PathBuf],
    model: PathBuf,
    out: PathBuf,
    n_shards: usize,
) -> DaemonConfig {
    let mut daemon = DaemonConfig::new(paths.to_vec(), model, out);
    daemon.shards = n_shards;
    daemon.voters = config.voters;
    daemon.max_quarantine = config.max_quarantine;
    daemon.queue = config.rate;
    daemon.tick_budget = None;
    daemon
}

fn drive(
    config: &GauntletConfig,
    manifest: &ScenarioManifest,
    summary: &FleetSummary,
    model_path: &Path,
    n_shards: usize,
    paths: &[PathBuf],
) -> Result<ScenarioOutcome, GauntletError> {
    let label = manifest.scenario.label();
    let out = config.work_dir.join(format!("{label}-{n_shards}.alarms"));
    let mut power_loss = None;
    let mut served = daemon_config(
        config,
        paths,
        model_path.to_path_buf(),
        out.clone(),
        n_shards,
    );
    if let Some(spec) = &config.retrain {
        // The lifecycle promotes over its model file: give every run its
        // own, fresh, so a rerun resumes no earlier run's checkpoints or
        // model store.
        let dir = config
            .work_dir
            .join(format!("lifecycle-{label}-{n_shards}"));
        match std::fs::remove_dir_all(&dir) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(io_at(&dir)(e)),
            _ => {}
        }
        std::fs::create_dir_all(&dir).map_err(io_at(&dir))?;
        served.model = dir.join("model.bin");
        std::fs::copy(model_path, &served.model).map_err(io_at(&served.model))?;
        let mut lc = LifecycleConfig::new(config.voters, VotingRule::Majority);
        lc.retrain_rows = spec.retrain_rows;
        lc.shadow_rows = spec.shadow_rows;
        lc.probation_rows = spec.probation_rows;
        served.retrain = Some(lc);
        served.faults = spec.faults();
        if spec.fault == Some(FaultClass::CrashDuringPromotion) {
            // Lose power at the first write after the promotion marker
            // lands; the run then resumes from its checkpoints.
            let marker = ModelStore::new(served.model.clone(), 1).marker_path();
            let disk = Arc::new(FaultDisk::failing_after(marker, Fault::PowerLoss));
            served.disk = disk.clone();
            served.checkpoint = Some(dir.join("ckpt"));
            power_loss = Some(disk);
        }
    }
    let (daemon, step_times, transitions, rotations) =
        serve_to_idle(served, power_loss.as_deref())?;
    let sink = std::fs::read_to_string(&out).map_err(io_at(&out))?;
    let topology = daemon.topology();

    let stats = topology.stats();
    let dropped = topology.dropped();
    ensure(dropped == 0, label, || {
        format!("{dropped} row(s) dropped at {n_shards} shard(s)")
    })?;
    ensure(stats.rows_seen == summary.engine_rows(), label, || {
        format!(
            "engines saw {} rows, generator emitted {}",
            stats.rows_seen,
            summary.engine_rows()
        )
    })?;
    ensure(stats.stale_rows == summary.injected_stale, label, || {
        format!(
            "{} stale row(s) counted, {} injected",
            stats.stale_rows, summary.injected_stale
        )
    })?;
    ensure(
        stats.parse_failures == summary.injected_garbage,
        label,
        || {
            format!(
                "{} parse failure(s) counted, {} garbage row(s) injected",
                stats.parse_failures, summary.injected_garbage
            )
        },
    )?;
    ensure(
        stats.quarantined_rows() == summary.injected_garbage,
        label,
        || {
            format!(
                "{} quarantined row(s), only {} injected — clean rows were quarantined",
                stats.quarantined_rows(),
                summary.injected_garbage
            )
        },
    )?;
    ensure(rotations == summary.injected_rotations, label, || {
        format!(
            "{rotations} rotation(s) observed, {} injected",
            summary.injected_rotations
        )
    })?;
    ensure(stats.breaker_transitions == transitions, label, || {
        format!(
            "checkpointed transition counter says {}, topology reported {transitions}",
            stats.breaker_transitions
        )
    })?;
    // Alarms may only be lost while a breaker is Degraded — suppression
    // without any state transition would mean alarms vanish silently.
    ensure(
        stats.alarms_suppressed == 0 || transitions >= 1,
        label,
        || {
            format!(
                "{} alarm(s) suppressed but no breaker ever left Healthy",
                stats.alarms_suppressed
            )
        },
    )?;
    if manifest.scenario == Scenario::QuarantineFlood {
        ensure(transitions >= 1, label, || {
            "the flood never tripped a circuit breaker".to_string()
        })?;
    }

    let (fdr, far, lead_hours, alarms) = score_sink(&sink, summary);
    // The daemon applied any staged swap at the end-of-feed quiesce, so
    // the live model file is the post-run model.
    let lifecycle = match daemon.lifecycle() {
        None => None,
        Some(manager) => {
            let live_fingerprint = manager
                .store()
                .live_fingerprint()
                .map_err(|e| GauntletError::Lifecycle(e.into()))?;
            let counters = manager.counters().clone();
            let post_promotion_fdr = if counters.promotions > 0 {
                rescore(config, manager.store().model_path(), paths, summary, label)?
            } else {
                fdr
            };
            Some(LifecycleOutcome {
                counters,
                phase: manager.phase().label(),
                live_fingerprint,
                poisoned_rows: manager.buffer().poisoned_rows(),
                incumbent_fdr: fdr,
                post_promotion_fdr,
            })
        }
    };
    if let (Some(spec), Some(lc)) = (&config.retrain, &lifecycle) {
        assert_lifecycle(label, manifest.scenario, spec, lc)?;
    }
    if let (Some(disk), Some(lc)) = (&power_loss, &lifecycle) {
        ensure(
            disk.fired() || lc.counters.gate_clearances == 0,
            label,
            || "a promotion ran but the injected power loss never fired".to_string(),
        )?;
    }
    let wall_ms = step_times.iter().sum();
    Ok(ScenarioOutcome {
        scenario: manifest.scenario,
        n_shards,
        sink,
        fdr,
        far,
        lead_hours,
        alarms,
        wall_ms,
        p99_tick_ms: p99(&step_times),
        rows_seen: stats.rows_seen,
        stale_rows: stats.stale_rows,
        quarantined_rows: stats.quarantined_rows(),
        dropped_rows: dropped,
        alarms_suppressed: stats.alarms_suppressed,
        breaker_transitions: stats.breaker_transitions,
        lifecycle,
    })
}

/// Score the same feeds again with `model` on one shard, no lifecycle
/// and no degradation assertions — used to measure what a freshly
/// promoted model would have detected on the fleet the incumbent just
/// served.
fn rescore(
    config: &GauntletConfig,
    model: &Path,
    paths: &[PathBuf],
    summary: &FleetSummary,
    label: &str,
) -> Result<f64, GauntletError> {
    let out = config.work_dir.join(format!("{label}-promoted.alarms"));
    serve_to_idle(
        daemon_config(config, paths, model.to_path_buf(), out.clone(), 1),
        None,
    )?;
    let sink = std::fs::read_to_string(&out).map_err(io_at(&out))?;
    let (fdr, _, _, _) = score_sink(&sink, summary);
    Ok(fdr)
}

/// Scenario- and fault-specific lifecycle assertions: injected faults
/// must land where the containment says they do, and the drift scenario
/// must actually drive a promotion that recovers detection.
fn assert_lifecycle(
    label: &str,
    scenario: Scenario,
    spec: &RetrainSpec,
    lc: &LifecycleOutcome,
) -> Result<(), GauntletError> {
    let c = &lc.counters;
    match spec.fault {
        Some(FaultClass::TrainerPanic) => {
            ensure(c.trainer_panics >= 1, label, || {
                "the seeded trainer panic never fired".to_string()
            })?;
        }
        Some(FaultClass::PoisonedBuffer) => {
            ensure(lc.poisoned_rows >= 1, label, || {
                "the poisoned row was not quarantined by the buffer".to_string()
            })?;
        }
        Some(FaultClass::RegressingCandidate) => {
            ensure(c.promotions == 0, label, || {
                format!(
                    "a label-inverted candidate was promoted ({} promotion(s))",
                    c.promotions
                )
            })?;
            ensure(c.gate_refusals >= 1, label, || {
                "the gate never judged (and refused) the regressing candidate".to_string()
            })?;
        }
        Some(FaultClass::CrashDuringPromotion) => {
            // Recovery must either complete the staged promotion (the
            // candidate was intact on disk) or leave the incumbent —
            // promotions only count when the live model matched the
            // candidate afterwards, so a cleared gate must end promoted.
            ensure(c.gate_clearances == 0 || c.promotions >= 1, label, || {
                "crash recovery lost a cleared promotion".to_string()
            })?;
        }
        _ => {}
    }
    if scenario == Scenario::FirmwareCohortDrift
        && matches!(spec.fault, None | Some(FaultClass::CrashDuringPromotion))
    {
        ensure(c.gate_clearances >= 1 && c.promotions >= 1, label, || {
            format!(
                "the drifted cohort never drove a promotion \
                 (clearances {}, promotions {}, refusals {})",
                c.gate_clearances, c.promotions, c.gate_refusals
            )
        })?;
        ensure(lc.post_promotion_fdr >= lc.incumbent_fdr, label, || {
            format!(
                "the promoted model did not recover detection \
                 ({:.3} post-promotion vs {:.3} incumbent)",
                lc.post_promotion_fdr, lc.incumbent_fdr
            )
        })?;
    }
    Ok(())
}

/// FDR, FAR, mean lead hours and alarm count from a sink vs the truth.
fn score_sink(sink: &str, summary: &FleetSummary) -> (f64, f64, f64, usize) {
    let mut first_alarm: BTreeMap<u32, u32> = BTreeMap::new();
    let mut alarms = 0usize;
    for line in sink.lines() {
        alarms += 1;
        if let Some((drive, hour)) = line.split_once(',') {
            if let (Ok(d), Ok(h)) = (drive.parse::<u32>(), hour.parse::<u32>()) {
                first_alarm.entry(d).or_insert(h);
            }
        }
    }
    let mut failed = 0usize;
    let mut detected = 0usize;
    let mut good = 0usize;
    let mut false_alarms = 0usize;
    let mut lead_sum = 0.0f64;
    for t in &summary.truth {
        match t.fail_hour {
            Some(fail) => {
                failed += 1;
                if let Some(&hour) = first_alarm.get(&t.drive) {
                    detected += 1;
                    lead_sum += f64::from(fail) - f64::from(hour);
                }
            }
            None => {
                good += 1;
                if first_alarm.contains_key(&t.drive) {
                    false_alarms += 1;
                }
            }
        }
    }
    let fdr = if failed == 0 {
        0.0
    } else {
        detected as f64 / failed as f64
    };
    let far = if good == 0 {
        0.0
    } else {
        false_alarms as f64 / good as f64
    };
    let lead = if detected == 0 {
        0.0
    } else {
        lead_sum / detected as f64
    };
    (fdr, far, lead, alarms)
}

/// The 99th-percentile of `ticks` (nearest-rank), 0 for an empty run.
fn p99(ticks: &[f64]) -> f64 {
    if ticks.is_empty() {
        return 0.0;
    }
    let mut sorted = ticks.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64) * 0.99).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::FleetTruth;

    fn truth(entries: &[(u32, Option<u32>)]) -> FleetSummary {
        FleetSummary {
            truth: entries
                .iter()
                .map(|&(drive, fail_hour)| FleetTruth { drive, fail_hour })
                .collect(),
            ..FleetSummary::default()
        }
    }

    #[test]
    fn score_sink_computes_fdr_far_and_lead() {
        let summary = truth(&[(0, None), (1, None), (2, Some(1000)), (3, Some(900))]);
        let sink = "2,940\n1,500\n2,950\n";
        let (fdr, far, lead, alarms) = score_sink(sink, &summary);
        assert_eq!(alarms, 3);
        assert!((fdr - 0.5).abs() < 1e-12);
        assert!((far - 0.5).abs() < 1e-12);
        assert!((lead - 60.0).abs() < 1e-12, "first alarm wins: {lead}");
    }

    #[test]
    fn empty_classes_do_not_divide_by_zero() {
        let (fdr, far, lead, alarms) = score_sink("", &truth(&[]));
        assert_eq!((fdr, far, lead, alarms), (0.0, 0.0, 0.0, 0));
    }

    #[test]
    fn p99_is_nearest_rank() {
        assert_eq!(p99(&[]), 0.0);
        assert_eq!(p99(&[5.0]), 5.0);
        let ticks: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p99(&ticks), 99.0);
        let ticks: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(p99(&ticks), 198.0);
    }

    #[test]
    fn report_rows_carry_the_gauntlet_columns() {
        let outcome = ScenarioOutcome {
            scenario: Scenario::CalibratedMix,
            n_shards: 2,
            sink: String::new(),
            fdr: 0.5,
            far: 0.01,
            lead_hours: 100.0,
            alarms: 3,
            wall_ms: 12.0,
            p99_tick_ms: 0.7,
            rows_seen: 1000,
            stale_rows: 0,
            quarantined_rows: 0,
            dropped_rows: 0,
            alarms_suppressed: 0,
            breaker_transitions: 0,
            lifecycle: None,
        };
        let text = hdd_json::to_string(&to_report(std::slice::from_ref(&outcome)).to_json());
        for column in [
            "\"fdr\"",
            "\"far\"",
            "\"p99_tick_ms\"",
            "\"dropped_rows\"",
            "\"lead_hours\"",
            "\"breaker_transitions\"",
        ] {
            assert!(text.contains(column), "missing {column} in {text}");
        }
        assert!(
            !text.contains("incumbent_fdr"),
            "frozen runs gained lifecycle columns"
        );

        let mut retrained = outcome;
        retrained.lifecycle = Some(LifecycleOutcome {
            counters: LifecycleCounters::default(),
            phase: "probation",
            live_fingerprint: 0xDEAD_BEEF,
            poisoned_rows: 0,
            incumbent_fdr: 0.4,
            post_promotion_fdr: 0.8,
        });
        let text = hdd_json::to_string(&to_report(&[retrained]).to_json());
        for column in [
            "\"incumbent_fdr\"",
            "\"post_promotion_fdr\"",
            "\"promotions\"",
            "\"rollbacks\"",
            "\"gate_refusals\"",
        ] {
            assert!(text.contains(column), "missing {column} in {text}");
        }
    }

    #[test]
    fn lifecycle_faults_map_onto_seeded_injections() {
        assert_eq!(
            RetrainSpec::new(Some(FaultClass::TrainerPanic)).faults(),
            LifecycleFaults {
                trainer_panic: Some(1),
                ..LifecycleFaults::default()
            }
        );
        // The promotion crash is a disk fault, injected in `drive`.
        assert_eq!(
            RetrainSpec::new(Some(FaultClass::CrashDuringPromotion)).faults(),
            LifecycleFaults::default()
        );
        assert!(
            RetrainSpec::new(Some(FaultClass::RegressingCandidate))
                .faults()
                .regressing_candidate
        );
        // Non-lifecycle fault classes leave the lifecycle untouched.
        assert_eq!(
            RetrainSpec::new(Some(FaultClass::NanValue)).faults(),
            LifecycleFaults::default()
        );
        assert_eq!(RetrainSpec::new(None).faults(), LifecycleFaults::default());
    }
}
