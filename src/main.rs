//! `hddpred` — command-line drive-failure prediction.
//!
//! A small operational CLI over the library: synthesize traces, train a
//! classification-tree model on a CSV of SMART series, and scan series
//! for failing drives with voting-based detection.
//!
//! ```text
//! hddpred generate --family W --scale 0.02 --seed 42 --out traces.csv
//! hddpred train    --data traces.csv --out model.json --window 168
//! hddpred detect   --data traces.csv --model model.json --voters 11
//! ```
//!
//! `train` compiles the fitted tree to its flat serving form and writes it
//! as a versioned, checksummed model file; `detect` reloads the file
//! (verifying the checksums and the feature-count header against the
//! feature set) and scans every series.
//!
//! Ingestion is quarantine-based: malformed or unusable CSV rows are
//! skipped and counted (reported on stderr) instead of aborting the run,
//! up to the `--max-quarantine` ceiling. Every failure class maps to its
//! own exit code so operational wrappers can tell them apart — see
//! `hddpred --help`.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use hddpred::cart::{ClassificationTreeBuilder, TrainError};
use hddpred::eval::{
    series_training_set, ModelError, Predictor, SavedModel, VotingDetector, VotingRule,
};
use hddpred::lifecycle::{
    Daemon, DaemonConfig, DaemonError, LifecycleConfig, LifecycleError, LifecycleFaults,
    LifecycleManager, ModelStore, Recovery, WindowMode,
};
use hddpred::serve::{CheckpointError, ServeTopology};
use hddpred::smart::csv::{
    read_series_quarantined, write_header, write_series, CsvError, IngestPolicy,
};
use hddpred::smart::rng::DeterministicRng;
use hddpred::smart::{DatasetGenerator, FamilyProfile, Hour, SmartSeries};
use hddpred::stats::FeatureSet;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => parse_flags(&args[1..]).and_then(|flags| generate(&flags)),
        Some("train") => parse_flags(&args[1..]).and_then(|flags| train(&flags)),
        // `predict` is the historical name for `detect`.
        Some("detect" | "predict") => parse_flags(&args[1..]).and_then(|flags| detect(&flags)),
        Some("serve") => parse_flags(&args[1..]).and_then(|flags| serve(&flags)),
        Some("gauntlet") => parse_flags(&args[1..]).and_then(|flags| gauntlet(&flags)),
        Some("lifecycle") => parse_flags(&args[1..]).and_then(|flags| lifecycle_status(&flags)),
        Some("--help" | "-h" | "help") | None => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(CliError::Usage(format!(
            "unknown command `{other}`\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

const USAGE: &str = "\
hddpred — hard drive failure prediction (CART, DSN'14)

USAGE:
    hddpred generate --out <traces.csv> [--family W|Q] [--scale <f>] [--seed <n>]
    hddpred train    --data <traces.csv> --out <model.json> [--window <hours>]
                     [--max-quarantine <f>] [--threads <n>]
    hddpred detect   --data <traces.csv> --model <model.json> [--voters <n>]
                     [--max-quarantine <f>] [--threads <n>]
    hddpred serve    --feed <a.csv[,b.csv,...]> --model <model.json>
                     --out <alarms.csv> [--shards <n>] [--checkpoint <dir>]
                     [--model-watch] [--voters <n>] [--threshold <f>]
                     [--tick-budget-ms <n>] [--poll-ms <n>] [--queue <n>]
                     [--max-quarantine <f>] [--exit-on-idle <n>]
                     [--retrain-rows <n>] [--shadow-rows <n>]
                     [--probation-rows <n>] [--min-fdr <f>] [--max-far <f>]
                     [--min-lead <hours>] [--retrain-mode accumulation|replacing]
                     [--buffer-cap <n>] [--retrain-window <hours>]
                     [--retrain-history <n>] [--alarm-rate-delta <f>]
                     [--threads <n>]
    hddpred gauntlet --profile expected|stress|adversarial [--seed <n>]
                     [--scenario <name>] [--shards <n>] [--scale <f>]
                     [--rate <n>] [--voters <n>] [--max-quarantine <f>]
                     [--out <BENCH_gauntlet.json>] [--work-dir <dir>]
                     [--model <model.json>] [--manifest <path>]
                     [--retrain] [--retrain-rows <n>] [--shadow-rows <n>]
                     [--probation-rows <n>] [--lifecycle-fault <class>]
                     [--threads <n>]
    hddpred lifecycle --model <model.json> [--checkpoint <dir>] [--history <n>]

`--threads` sets the worker-thread count (default: HDDPRED_THREADS, else
the hardware count). Results are bit-identical at any setting.

`--max-quarantine` caps the fraction of CSV rows that may be skipped as
unusable. For `train`/`detect` exceeding it refuses the import outright
(default: 0.1); for `serve` it is the per-shard quarantine
circuit-breaker ceiling over the last 100 rows — exceeding it degrades
that shard (alarms suppressed and counted) until its feed slice heals.

`serve` tails one or more comma-separated `--feed` files for appended
SMART rows and appends `drive,hour` alarm lines to `--out`. `--shards`
partitions drives across that many detection shards (a power of two;
default 1) ticked in parallel; the alarm output is bit-identical at any
shard count. A drive's rows must all arrive on the same feed. With
`--checkpoint` it checkpoints into that directory after every batch
(`topology.ckpt`, each shard's `shard-<k>.ckpt` snapshot and
`shard-<k>.log` record log, and with retraining the lifecycle's
`lifecycle.ckpt` and `lifecycle.log`) and resumes after a crash with a
byte-identical alarm file; with `--model-watch` it hot-reloads `--model`
for all shards when the file's bytes change, keeping the
last-known-good model if the replacement is rejected.
`--exit-on-idle <n>` exits cleanly after `n` idle polls (0 = run
forever); `--threshold <f>` switches voting from majority to
mean-below-threshold.

`--retrain-rows <n>` turns on guarded online retraining: every `n`
committed rows a candidate model is trained off the hot path on the
buffered recent window (`--buffer-cap` rows, `--retrain-mode`
accumulation keeps the first window, replacing rolls it), shadow-scored
for `--shadow-rows` rows alongside the incumbent (candidate alarms are
recorded, never emitted), and promoted only when shadow FDR/FAR/lead
clear `--min-fdr`/`--max-far`/`--min-lead` without regressing the
incumbent. Promotion is a crash-safe two-phase rename (the model file
is always exactly the old or the new model, never torn) that retains
the last `--retrain-history` models; for `--probation-rows` rows after
a promotion the live alarm rate is watched and the previous model is
rolled back automatically if a breaker trips or the rate exceeds the
shadow baseline by `--alarm-rate-delta`. Trainer panics are contained
with exponential backoff. Incompatible with `--model-watch`: the
lifecycle owns the model file.

`gauntlet` generates a deterministic scenario fleet (`--profile` picks
the scenario set, `--scenario` narrows to one) or replays one from a
`--manifest` written by a previous run, drives the sharded serve
engine over it against ground-truth failure labels, and merges scored
rows (fdr, far, lead_hours, p99_tick_ms, dropped/stale/quarantined
rows, breaker transitions) into `--out` (default
`BENCH_gauntlet.json`). The run asserts bounded degradation — no queue
drops, every injected fault accounted for exactly, alarms suppressed
only while a breaker is Degraded, and byte-identical alarm sinks at
every power-of-two shard count up to `--shards` — and fails with the
serve exit code when any bound is violated. Per-scenario manifests are
written into `--work-dir` so any fleet can be regenerated
bit-for-bit. `--retrain` runs the online retraining lifecycle during
the gauntlet (the whole lifecycle must replay identically at every
shard count, and the `firmware-cohort-drift` scenario must promote a
candidate that recovers detection); `--lifecycle-fault` injects one
seeded lifecycle fault (trainer-panic, poisoned-buffer,
crash-during-promotion, regressing-candidate) and asserts its
containment.

`lifecycle` inspects the online-retraining state next to a model file:
live/candidate/history fingerprints from disk, plus the phase and
counters from `lifecycle.ckpt` and `lifecycle.log` when `--checkpoint`
is given.

EXIT CODES:
    0  success            4  unusable input data    8  serve failure
    2  usage error        5  model file rejected
    3  i/o failure        6  training failed
                          7  quarantine ceiling exceeded
";

/// Every way a command can fail, each with its own exit code so shell
/// wrappers and CI can react per failure class.
#[derive(Debug)]
enum CliError {
    /// Bad invocation: unknown command, missing or malformed flag.
    Usage(String),
    /// Reading or writing a file failed at the OS level.
    Io {
        path: String,
        source: std::io::Error,
    },
    /// The input data file exists but cannot be used.
    Data { path: String, source: CsvError },
    /// The model file was rejected (corrupt, wrong version, wrong shape).
    Model { path: String, source: ModelError },
    /// Training could not produce a model from the assembled samples.
    Train { path: String, source: TrainError },
    /// Too much of the input stream was quarantined to trust the rest.
    Quarantine { path: String, source: CsvError },
    /// The streaming service could not start or had to stop: corrupt
    /// checkpoint, inconsistent alarm sink, or a scoring worker panic.
    Serve(String),
}

impl CliError {
    /// The process exit code for this failure class (documented in
    /// [`USAGE`]).
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io { .. } => 3,
            CliError::Data { .. } => 4,
            CliError::Model { .. } => 5,
            CliError::Train { .. } => 6,
            CliError::Quarantine { .. } => 7,
            CliError::Serve(_) => 8,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Io { path, source } => write!(f, "{path}: {source}"),
            CliError::Data { path, source } => write!(f, "{path}: {source}"),
            CliError::Model { path, source } => write!(f, "{path}: {source}"),
            CliError::Train { path, source } => {
                write!(f, "training on {path} failed: {source}")
            }
            CliError::Quarantine { path, source } => write!(f, "{path}: {source}"),
            CliError::Serve(msg) => write!(f, "{msg}"),
        }
    }
}

/// Attribute a [`CheckpointError`] touching `path` to its failure class
/// (plain I/O keeps the I/O exit code; a corrupt or incompatible
/// checkpoint is a serve failure).
fn checkpoint_error(path: &str, source: CheckpointError) -> CliError {
    match source {
        CheckpointError::Io(e) => CliError::Io {
            path: path.to_string(),
            source: e,
        },
        other => CliError::Serve(format!("{path}: {other}")),
    }
}

/// Attribute a [`CsvError`] from reading `path` to its failure class.
fn csv_error(path: &str, source: CsvError) -> CliError {
    let path = path.to_string();
    match source {
        CsvError::Io(e) => CliError::Io { path, source: e },
        CsvError::QuarantineLimit { .. } => CliError::Quarantine { path, source },
        CsvError::Parse { .. } => CliError::Data { path, source },
    }
}

/// Attribute a [`ModelError`] touching `path` to its failure class
/// (plain I/O keeps the I/O exit code; everything else means the model
/// file itself was rejected).
fn model_error(path: &str, source: ModelError) -> CliError {
    let path = path.to_string();
    match source {
        ModelError::Io(e) => CliError::Io { path, source: e },
        other => CliError::Model {
            path,
            source: other,
        },
    }
}

fn io_error(path: &str) -> impl Fn(std::io::Error) -> CliError + '_ {
    move |source| CliError::Io {
        path: path.to_string(),
        source,
    }
}

/// The `--name value` pairs of `args`. A flag given twice is a usage
/// error: keeping either value would silently drop the other (a second
/// `--feed` is not a second feed; feeds are one comma-separated list).
fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, CliError> {
    let mut flags = BTreeMap::new();
    let mut iter = args.iter().peekable();
    while let Some(key) = iter.next() {
        if let Some(name) = key.strip_prefix("--") {
            // A flag followed by another flag (or by nothing) is a
            // boolean switch and gets an empty value; anything else is
            // the flag's value.
            let value = match iter.peek() {
                Some(next) if !next.starts_with("--") => iter.next().cloned().unwrap_or_default(),
                _ => String::new(),
            };
            if flags.insert(name.to_string(), value).is_some() {
                return Err(CliError::Usage(format!(
                    "--{name} is given more than once\n{USAGE}"
                )));
            }
        }
    }
    Ok(flags)
}

fn flag<'a>(flags: &'a BTreeMap<String, String>, name: &str) -> Result<&'a str, CliError> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| CliError::Usage(format!("missing required flag --{name}\n{USAGE}")))
}

/// Parse an optional numeric flag, naming the flag on failure.
fn num_flag<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    name: &str,
    default: T,
    expected: &str,
) -> Result<T, CliError> {
    match flags.get(name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| CliError::Usage(format!("--{name} needs {expected}, got `{raw}`"))),
    }
}

/// Apply the shared `--threads` flag as the process-wide worker count.
fn apply_threads(flags: &BTreeMap<String, String>) -> Result<(), CliError> {
    if flags.contains_key("threads") {
        let threads: usize = num_flag(flags, "threads", 0, "an integer")?;
        if threads == 0 {
            return Err(CliError::Usage("--threads must be at least 1".to_string()));
        }
        hddpred::par::configure_threads(threads);
    }
    Ok(())
}

/// Quarantine-based CSV ingestion shared by `train` and `detect`:
/// unusable rows are skipped and itemized on stderr, bounded by the
/// `--max-quarantine` ceiling.
fn load_series(path: &str, flags: &BTreeMap<String, String>) -> Result<Vec<SmartSeries>, CliError> {
    let ceiling: f64 = num_flag(flags, "max-quarantine", 0.1, "a fraction in [0, 1]")?;
    if !(0.0..=1.0).contains(&ceiling) {
        return Err(CliError::Usage(format!(
            "--max-quarantine must be a fraction in [0, 1], got `{ceiling}`"
        )));
    }
    let file = File::open(path).map_err(io_error(path))?;
    let policy = IngestPolicy {
        max_quarantine_fraction: ceiling,
    };
    let import =
        read_series_quarantined(BufReader::new(file), &policy).map_err(|e| csv_error(path, e))?;
    if !import.report.is_clean() {
        eprintln!("warning: {path}: {}", import.report);
    }
    Ok(import.series)
}

/// `hddpred generate`: synthesize a fleet and dump every series as CSV.
fn generate(flags: &BTreeMap<String, String>) -> Result<(), CliError> {
    let out = flag(flags, "out")?;
    let family = match flags.get("family").map(String::as_str).unwrap_or("W") {
        "W" | "w" => FamilyProfile::w(),
        "Q" | "q" => FamilyProfile::q(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown family {other} (use W or Q)"
            )))
        }
    };
    let scale: f64 = num_flag(flags, "scale", 0.01, "a number")?;
    let seed: u64 = num_flag(flags, "seed", 42, "an integer")?;

    let dataset = DatasetGenerator::new(family.scaled(scale), seed).generate();
    let mut writer = BufWriter::new(File::create(out).map_err(io_error(out))?);
    write_header(&mut writer).map_err(io_error(out))?;
    for spec in dataset.drives() {
        write_series(&mut writer, &dataset.series(spec)).map_err(io_error(out))?;
    }
    writer.flush().map_err(io_error(out))?;
    eprintln!(
        "wrote {} drives ({} good, {} failed) to {out}",
        dataset.drives().len(),
        dataset.good_drives().count(),
        dataset.failed_drives().count()
    );
    Ok(())
}

/// `hddpred train`: fit a CT model on labelled series, compile it and
/// write the versioned model file.
fn train(flags: &BTreeMap<String, String>) -> Result<(), CliError> {
    let data = flag(flags, "data")?;
    let out = flag(flags, "out")?;
    let window: u32 = num_flag(flags, "window", 168, "an hour count")?;
    apply_threads(flags)?;

    let series = load_series(data, flags)?;
    let features = FeatureSet::critical13();
    let samples = series_training_set(
        &series,
        &features,
        window,
        &DeterministicRng::new(0x007E_A1CB),
    );
    eprintln!(
        "training on {} samples from {} drives",
        samples.len(),
        series.len()
    );
    let model = ClassificationTreeBuilder::new()
        .build(&samples)
        .map_err(|source| CliError::Train {
            path: data.to_string(),
            source,
        })?;
    SavedModel::from(model.compile())
        .save(Path::new(out))
        .map_err(|e| model_error(out, e))?;
    eprintln!(
        "model: {} leaves, depth {} -> {out}",
        model.tree().n_leaves(),
        model.tree().depth()
    );
    eprintln!("rules:\n{}", model.rules(&features.names()));
    Ok(())
}

/// `hddpred detect`: reload a model file and scan every series for alarms.
fn detect(flags: &BTreeMap<String, String>) -> Result<(), CliError> {
    let data = flag(flags, "data")?;
    let model_path = flag(flags, "model")?;
    let voters: usize = num_flag(flags, "voters", 11, "an integer")?;
    if voters == 0 {
        return Err(CliError::Usage("--voters must be at least 1".to_string()));
    }
    apply_threads(flags)?;

    let series = load_series(data, flags)?;
    let features = FeatureSet::critical13();
    let model = SavedModel::load_expecting(Path::new(model_path), features.len())
        .map_err(|e| model_error(model_path, e))?;
    let detector = VotingDetector::new(&model, &features, voters, VotingRule::Majority);

    // Scan drives on the worker pool; results come back in drive order,
    // so the output is identical to a serial scan.
    let pool = hddpred::par::ThreadPool::global();
    let scans = pool.parallel_map(&series, |s| {
        let alarm = detector.first_alarm(s, Hour(0)..Hour(u32::MAX));
        let last_score = features
            .extract(s, s.len().saturating_sub(1))
            .map(|f| model.score(&f));
        (alarm, last_score)
    });

    let mut alarms = 0usize;
    println!("drive,alarm_hour,last_score");
    for (s, (alarm, last_score)) in series.iter().zip(scans) {
        if let Some(hour) = alarm {
            alarms += 1;
            println!(
                "{},{},{}",
                s.drive.0,
                hour.0,
                last_score.map_or_else(|| "-".to_string(), |v| format!("{v:+.0}"))
            );
        }
    }
    eprintln!(
        "{alarms} of {} drives raised an alarm (N = {voters})",
        series.len()
    );
    Ok(())
}

/// One status line summarizing the whole topology, plus the daemon's
/// process counters (replayed lines and feed rotations since start —
/// observability, not stream state, so they reset on restart).
fn serve_status(topology: &ServeTopology, replayed: usize, rotations: usize) -> String {
    let stats = topology.stats();
    format!(
        "{} shard(s), {} drives, {} rows, {} alarms, {} suppressed, \
         {} quarantined, {} stale, {} transitions, {replayed} replayed, \
         {rotations} rotations, {} dropped",
        topology.n_shards(),
        topology.tracked_drives(),
        stats.rows_seen,
        stats.alarms_emitted,
        stats.alarms_suppressed,
        stats.quarantined_rows(),
        stats.stale_rows,
        stats.breaker_transitions,
        topology.dropped(),
    )
}

/// Attribute a [`DaemonError`] to its failure class: a refused config is
/// a usage error, plain I/O and model rejections keep their codes, and
/// everything else stopped the service.
fn daemon_error(source: DaemonError) -> CliError {
    match source {
        DaemonError::Config(e) => CliError::Usage(e.to_string()),
        DaemonError::Io(path, source) => CliError::Io {
            path: path.display().to_string(),
            source,
        },
        DaemonError::Model(path, e) => model_error(&path.display().to_string(), e),
        DaemonError::Checkpoint(dir, e) => checkpoint_error(&dir.display().to_string(), e),
        other => CliError::Serve(other.to_string()),
    }
}

/// `hddpred serve`: tail one or more append-only SMART feeds, partition
/// drives across detection shards, and stream merged voting alarms to a
/// sink file — surviving crashes, bad model pushes, slow ticks and
/// corrupt feeds (see [`USAGE`]). The loop itself is [`Daemon::step`];
/// this adds the poll cadence, the idle exit and the operator output.
fn serve(flags: &BTreeMap<String, String>) -> Result<(), CliError> {
    let feed = flag(flags, "feed")?;
    let model_path = flag(flags, "model")?;
    let out = flag(flags, "out")?;
    let feeds = feed
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(PathBuf::from)
        .collect();
    let mut config = DaemonConfig::new(feeds, model_path, out);
    config.voters = num_flag(flags, "voters", config.voters, "an integer")?;
    config.shards = num_flag(flags, "shards", config.shards, "an integer")?;
    let tick_budget = num_flag(flags, "tick-budget-ms", 50, "milliseconds")?;
    config.tick_budget = Some(Duration::from_millis(tick_budget));
    let poll = Duration::from_millis(num_flag(flags, "poll-ms", 200, "milliseconds")?);
    config.queue = num_flag(flags, "queue", config.queue, "an integer")?;
    config.max_quarantine = num_flag(flags, "max-quarantine", 0.1, "a fraction in [0, 1]")?;
    let exit_on_idle: usize = num_flag(flags, "exit-on-idle", 0, "an integer")?;
    apply_threads(flags)?;
    if flags.contains_key("threshold") {
        config.rule = VotingRule::MeanBelow(num_flag(flags, "threshold", 0.0, "a number")?);
    }
    config.checkpoint = flags
        .get("checkpoint")
        .filter(|p| !p.is_empty())
        .map(PathBuf::from);
    config.model_watch = flags.contains_key("model-watch");
    config.retrain = serve_lifecycle_config(flags, config.voters, config.rule)?;

    let mut daemon = Daemon::open(config).map_err(daemon_error)?;
    match daemon.recovery() {
        None | Some(Recovery::Clean) => {}
        Some(Recovery::Completed { fingerprint }) => {
            eprintln!("lifecycle: completed an interrupted promotion to {fingerprint:016x}")
        }
        Some(Recovery::Aborted {
            restored_from_history,
        }) => eprintln!(
            "lifecycle: abandoned an interrupted promotion{}",
            if restored_from_history {
                " (live model restored from history)"
            } else {
                ""
            }
        ),
    }
    let (mut replayed, mut rotations) = (0, 0);
    if daemon.resumed() {
        eprintln!(
            "resumed from {}: {}",
            flags.get("checkpoint").map_or("", String::as_str),
            serve_status(daemon.topology(), replayed, rotations)
        );
    }
    eprintln!(
        "serving {feed} -> {out} ({})",
        serve_status(daemon.topology(), replayed, rotations)
    );

    let mut idle_polls = 0usize;
    loop {
        let step = daemon.step().map_err(daemon_error)?;
        rotations += step.rotations;
        replayed += step.replayed;
        match step.reload {
            None => {}
            Some(Ok(())) => eprintln!("model reloaded from {model_path}"),
            Some(Err(e)) => eprintln!("model reload rejected (keeping last-known-good): {e}"),
        }
        if let Some(delay) = step.retry_in {
            for (path, e) in &step.feed_errors {
                eprintln!(
                    "feed {} read failed ({e}); retrying in {}ms",
                    path.display(),
                    delay.as_millis()
                );
            }
            std::thread::sleep(delay);
        }
        for (shard, state) in &step.transitions {
            eprintln!(
                "breaker[{shard}]: {} ({})",
                state.label(),
                serve_status(daemon.topology(), replayed, rotations)
            );
        }
        for note in &step.notes {
            eprintln!("{note}");
        }

        if !step.idle {
            idle_polls = 0;
            continue;
        }
        idle_polls += 1;
        if exit_on_idle > 0 && idle_polls >= exit_on_idle {
            let topology = daemon.topology();
            eprintln!(
                "idle for {idle_polls} polls; exiting ({})",
                serve_status(topology, replayed, rotations)
            );
            // Per-shard breakdown: which slice of the fleet paid for the
            // degradation the summary line aggregates.
            for (k, (stats, dropped)) in topology
                .shard_stats()
                .iter()
                .zip(topology.shard_dropped())
                .enumerate()
            {
                eprintln!(
                    "  shard[{k}]: {} rows, {} alarms, {} suppressed, \
                     {} quarantined, {} stale, {} transitions, {dropped} dropped",
                    stats.rows_seen,
                    stats.alarms_emitted,
                    stats.alarms_suppressed,
                    stats.quarantined_rows(),
                    stats.stale_rows,
                    stats.breaker_transitions,
                );
            }
            return Ok(());
        }
        std::thread::sleep(poll);
    }
}

/// Parse the `--retrain-*` flag family into a lifecycle config; `None`
/// when `--retrain-rows` is absent (retraining off).
fn serve_lifecycle_config(
    flags: &BTreeMap<String, String>,
    voters: usize,
    rule: VotingRule,
) -> Result<Option<LifecycleConfig>, CliError> {
    if !flags.contains_key("retrain-rows") {
        return Ok(None);
    }
    let mut lc = LifecycleConfig::new(voters, rule);
    lc.retrain_rows = num_flag(flags, "retrain-rows", lc.retrain_rows, "an integer")?;
    lc.shadow_rows = num_flag(flags, "shadow-rows", lc.shadow_rows, "an integer")?;
    lc.probation_rows = num_flag(flags, "probation-rows", lc.probation_rows, "an integer")?;
    lc.gate.min_fdr = num_flag(flags, "min-fdr", lc.gate.min_fdr, "a fraction")?;
    lc.gate.max_far = num_flag(flags, "max-far", lc.gate.max_far, "a fraction")?;
    lc.gate.min_lead_hours = num_flag(flags, "min-lead", lc.gate.min_lead_hours, "hours")?;
    lc.buffer_cap = num_flag(flags, "buffer-cap", lc.buffer_cap, "an integer")?;
    lc.window_hours = num_flag(flags, "retrain-window", lc.window_hours, "hours")?;
    lc.history = num_flag(flags, "retrain-history", lc.history, "an integer")?;
    lc.max_alarm_rate_delta = num_flag(
        flags,
        "alarm-rate-delta",
        lc.max_alarm_rate_delta,
        "a fraction",
    )?;
    if let Some(label) = flags.get("retrain-mode").filter(|s| !s.is_empty()) {
        lc.mode = WindowMode::from_label(label).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown --retrain-mode `{label}` (accumulation, replacing)"
            ))
        })?;
    }
    Ok(Some(lc))
}

/// `hddpred lifecycle`: print the online-retraining state next to a
/// model file — live/candidate/history fingerprints from disk plus the
/// phase and counters that `lifecycle.ckpt` and `lifecycle.log` restore
/// when `--checkpoint` is given (see [`USAGE`]).
fn lifecycle_status(flags: &BTreeMap<String, String>) -> Result<(), CliError> {
    let model_path = flag(flags, "model")?;
    let history: usize = num_flag(flags, "history", 3, "an integer")?;
    let store = ModelStore::new(PathBuf::from(model_path), history);
    let fp = |path: &Path| match store.fingerprint_of(path) {
        Ok(f) => format!("{f:016x}"),
        Err(_) => "<unreadable>".to_string(),
    };
    if store.model_path().exists() {
        println!(
            "model      {}  {}",
            fp(store.model_path()),
            store.model_path().display()
        );
    } else {
        println!(
            "model      <missing>          {}",
            store.model_path().display()
        );
    }
    let candidate = store.candidate_path();
    if candidate.exists() {
        println!("candidate  {}  {}", fp(&candidate), candidate.display());
    }
    if store.marker_path().exists() {
        println!(
            "promotion marker present: an interrupted promotion will be \
             repaired on the next serve start"
        );
    }
    for path in store.history_on_disk() {
        println!("history    {}  {}", fp(&path), path.display());
    }
    if let Some(dir) = flags.get("checkpoint").filter(|p| !p.is_empty()) {
        // Read-only: the snapshot plus the frames logged since it, with
        // no store recovery (that is the next serve start's job).
        let mut config = LifecycleConfig::new(11, VotingRule::Majority);
        config.history = history;
        let mut manager = LifecycleManager::new(
            config,
            PathBuf::from(model_path),
            LifecycleFaults::default(),
        );
        let found = manager
            .restore_checkpoint(Path::new(dir))
            .map_err(|e| match e {
                LifecycleError::Checkpoint(e) => checkpoint_error(dir, e),
                other => CliError::Serve(format!("{dir}: {other}")),
            })?;
        if found {
            println!("phase      {}", manager.phase().label());
            if let hdd_json::Value::Obj(fields) = hdd_json::JsonCodec::to_json(manager.counters()) {
                for (name, value) in fields {
                    if let Some(n) = value.as_usize() {
                        println!("{name:<24} {n}");
                    }
                }
            }
        } else {
            println!("no lifecycle checkpoint under {dir}");
        }
    }
    Ok(())
}

/// Attribute a [`GauntletError`] to its failure class: plain I/O and
/// model rejections keep their exit codes; everything else — a failed
/// bounded-degradation assertion, a bad manifest — is a serve failure.
fn gauntlet_error(source: hddpred::workload::GauntletError) -> CliError {
    use hddpred::workload::GauntletError as E;
    match source {
        E::Io { path, source } => CliError::Io { path, source },
        E::Model { path, source } => CliError::Model { path, source },
        E::Train(source) => CliError::Train {
            path: "<gauntlet training fleet>".to_string(),
            source,
        },
        E::Manifest { path, source } => CliError::Serve(format!("{path}: {source}")),
        E::Degraded(msg) => CliError::Serve(msg),
        E::Lifecycle(source) => CliError::Serve(format!("lifecycle: {source}")),
        E::Daemon(source) => daemon_error(source),
    }
}

/// `hddpred gauntlet`: generate a deterministic scenario fleet (or
/// replay a committed manifest), drive the sharded serve engine over it
/// against ground truth, assert bounded degradation, and merge scored
/// rows into the benchmark report (see [`USAGE`]).
fn gauntlet(flags: &BTreeMap<String, String>) -> Result<(), CliError> {
    use hddpred::workload::{gauntlet as gl, Profile, Scenario};

    let seed: u64 = num_flag(flags, "seed", 42, "an integer")?;
    let max_shards: usize = num_flag(flags, "shards", 4, "an integer")?;
    let scale: f64 = num_flag(flags, "scale", 0.004, "a number")?;
    if scale <= 0.0 || scale.is_nan() {
        return Err(CliError::Usage(format!(
            "--scale must be positive, got `{scale}`"
        )));
    }
    let rate: usize = num_flag(flags, "rate", 512, "an integer")?;
    if rate == 0 {
        return Err(CliError::Usage("--rate must be at least 1".to_string()));
    }
    let voters: usize = num_flag(flags, "voters", 11, "an integer")?;
    let ceiling: f64 = num_flag(flags, "max-quarantine", 0.1, "a fraction in [0, 1]")?;
    apply_threads(flags)?;

    // A replayed manifest *is* the fleet definition: it overrides the
    // seed/scale/scenario flags so the regenerated bytes match.
    let manifest = flags
        .get("manifest")
        .filter(|p| !p.is_empty())
        .map(|p| gl::load_manifest(Path::new(p)).map_err(gauntlet_error))
        .transpose()?;

    let profile = match &manifest {
        Some(m) => m.scenario.profile(),
        None => {
            let label = flag(flags, "profile")?;
            Profile::from_label(label).ok_or_else(|| {
                CliError::Usage(format!(
                    "unknown profile `{label}` (expected, stress, adversarial)"
                ))
            })?
        }
    };
    let work_dir = flags
        .get("work-dir")
        .filter(|p| !p.is_empty())
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join(format!("hddpred-gauntlet-{seed}")));
    let mut config = gl::GauntletConfig::new(seed, profile, work_dir);
    config.max_shards = max_shards;
    config.scale = scale;
    config.rate = rate;
    config.voters = voters;
    config.max_quarantine = ceiling;
    config.model = flags
        .get("model")
        .filter(|p| !p.is_empty())
        .map(PathBuf::from);
    let lifecycle_fault = match flags.get("lifecycle-fault").filter(|s| !s.is_empty()) {
        None => None,
        Some(label) => {
            let fault = hddpred::fault::FaultClass::from_label(label)
                .ok_or_else(|| CliError::Usage(format!("unknown --lifecycle-fault `{label}`")))?;
            if !fault.is_lifecycle() {
                return Err(CliError::Usage(format!(
                    "--lifecycle-fault `{label}` is not a lifecycle fault class (one of: {})",
                    hddpred::fault::FaultClass::LIFECYCLE_CORPUS
                        .map(hddpred::fault::FaultClass::label)
                        .join(", ")
                )));
            }
            Some(fault)
        }
    };
    if flags.contains_key("retrain")
        || flags.contains_key("retrain-rows")
        || lifecycle_fault.is_some()
    {
        let mut spec = gl::RetrainSpec::new(lifecycle_fault);
        spec.retrain_rows = num_flag(flags, "retrain-rows", spec.retrain_rows, "an integer")?;
        spec.shadow_rows = num_flag(flags, "shadow-rows", spec.shadow_rows, "an integer")?;
        spec.probation_rows = num_flag(flags, "probation-rows", spec.probation_rows, "an integer")?;
        config.retrain = Some(spec);
    }
    if manifest.is_none() {
        if let Some(label) = flags.get("scenario").filter(|s| !s.is_empty()) {
            let scenario = Scenario::from_label(label).ok_or_else(|| {
                CliError::Usage(format!(
                    "unknown scenario `{label}` (one of: {})",
                    Scenario::ALL.map(Scenario::label).join(", ")
                ))
            })?;
            if scenario.profile() != profile {
                return Err(CliError::Usage(format!(
                    "scenario `{label}` belongs to profile `{}`, not `{}`",
                    scenario.profile().label(),
                    profile.label()
                )));
            }
            config.scenario = Some(scenario);
        }
    }

    let outcomes = match &manifest {
        Some(m) => {
            config.seed = m.seed;
            config.scale = m.scale;
            gl::replay(&config, m)
        }
        None => gl::run(&config),
    }
    .map_err(gauntlet_error)?;

    for o in &outcomes {
        eprintln!(
            "{} @ {} shard(s): {} rows, {} alarms, FDR {:.3}, FAR {:.4}, \
             lead {:.1}h, p99 tick {:.2}ms, {} stale, {} quarantined, \
             {} suppressed, {} transitions, {} dropped",
            o.scenario.label(),
            o.n_shards,
            o.rows_seen,
            o.alarms,
            o.fdr,
            o.far,
            o.lead_hours,
            o.p99_tick_ms,
            o.stale_rows,
            o.quarantined_rows,
            o.alarms_suppressed,
            o.breaker_transitions,
            o.dropped_rows,
        );
        if let Some(lc) = &o.lifecycle {
            eprintln!(
                "  lifecycle: phase {}, live {:016x}, incumbent FDR {:.3} -> \
                 post-promotion {:.3}, {} promotion(s), {} rollback(s), \
                 {} refusal(s), {} clearance(s), {} trainer panic(s), \
                 {} poisoned row(s)",
                lc.phase,
                lc.live_fingerprint,
                lc.incumbent_fdr,
                lc.post_promotion_fdr,
                lc.counters.promotions,
                lc.counters.rollbacks,
                lc.counters.gate_refusals,
                lc.counters.gate_clearances,
                lc.counters.trainer_panics,
                lc.poisoned_rows,
            );
        }
    }

    let out = flags
        .get("out")
        .filter(|p| !p.is_empty())
        .map_or("BENCH_gauntlet.json", String::as_str);
    let out_path = Path::new(out);
    let mut report = hdd_bench::report::Report::load(out_path);
    report.upsert(gl::to_report(&outcomes));
    report.write(out_path).map_err(io_error(out))?;
    Ok(())
}
