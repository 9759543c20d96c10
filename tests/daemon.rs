//! Every step boundary and every write boundary of the serve [`Daemon`]
//! is a crash point.
//!
//! The fixtures are hour-major fleets that arrive in two phases: the
//! daemon serves the first to idle, then the second is appended to the
//! feeds and served to idle. They run at 1 and 2 shards, without
//! retraining and with it (the retraining slice trains, shadows and
//! promotes at the first idle, then rolls back during the second phase).
//!
//! A reference run over a counting [`FaultDisk`] numbers every durable
//! write boundary: sink appends and syncs, checkpoint replaces and their
//! directory syncs, and the model store's promotion protocol. Then, for
//! every boundary `k` and every [`Fault`], a fresh run injects the fault
//! at `k`. The faulted daemon must stop with a typed [`DaemonError`]; it
//! is dropped and reopened on the real disk (after a power loss, every
//! file it touched first reverts to its last-synced image) and served to
//! the end. Where that power loss leaves the model store mid-swap, the
//! reopen's own writes (crash recovery, the sink cut) are failed the
//! same way before a last reopen. Separately, for every step count `k`,
//! the daemon is dropped after `k` steps (a `kill -9` between steps: the
//! page cache survives, memory does not) and reopened. Either way the
//! alarm sink must be byte-identical to the reference, and the engine
//! and lifecycle books equal.

use hddpred::eval::{VotingDetector, VotingRule};
use hddpred::hdd_json::disk::{Disk, Fault, FaultDisk, RealDisk};
use hddpred::lifecycle::{
    lifecycle_log_path, lifecycle_path, Daemon, DaemonConfig, DaemonError, LifecycleConfig,
    LifecycleCounters, LifecycleError, Recovery,
};
use hddpred::serve::{shard_log_path, shard_path, CheckpointError, ShardStats};
use hddpred::smart::csv::{read_series_quarantined, IngestPolicy};
use hddpred::smart::Hour;
use hddpred::stats::FeatureSet;
use hddpred::workload::gauntlet::train_model;
use hddpred::workload::{generate_fleet, Scenario, ScenarioManifest};
use std::collections::BTreeSet;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

const SEED: u64 = 0xDAE_0001;
const SCALE: f64 = 0.001;
/// The served hours of the calibrated-mix slice: phase one is
/// `[HOURS.0, HOURS.1)`, phase two `[HOURS.1, HOURS.2)`. Its one failing
/// drive fails at hour 720.
const HOURS: (u32, u32, u32) = (600, 660, 720);
/// The whole calibrated-mix fleet, split into phases at the same hour.
const ALL_HOURS: (u32, u32, u32) = (0, HOURS.1, u32::MAX);
/// Per-shard queue capacity: each phase of the slice takes a few steps.
const QUEUE: usize = 1024;
/// Per-shard queue capacity over the whole fleet: about ten steps.
const WHOLE_QUEUE: usize = 4096;

struct Fixture {
    dir: PathBuf,
    /// The CSV header line.
    header: String,
    /// Per phase, per feed: the rows, hour-major.
    phases: Vec<Vec<String>>,
    model: PathBuf,
    /// Per-shard queue capacity of every run.
    queue: usize,
}

/// The calibrated-mix slice, hour-major, split into `n_feeds` feeds by
/// drive (feed 0 takes two drives in three, so the short feed stalls the
/// watermark and the idle flush releases what it held back).
fn fixture(tag: &str, n_feeds: usize) -> Fixture {
    fleet_fixture(tag, n_feeds, Scenario::CalibratedMix, SCALE, HOURS)
}

/// [`fixture`] over any scenario, scale and hours.
fn fleet_fixture(
    tag: &str,
    n_feeds: usize,
    scenario: Scenario,
    scale: f64,
    hours: (u32, u32, u32),
) -> Fixture {
    let dir = std::env::temp_dir().join(format!("hddpred-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    let manifest = ScenarioManifest::new(SEED, scenario, scale, 1);
    let mut csv = Vec::new();
    generate_fleet(&manifest, std::slice::from_mut(&mut csv)).expect("generate fleet");
    let text = String::from_utf8(csv).expect("the generator writes UTF-8");
    let mut lines = text.lines();
    let header = lines.next().expect("fleet header").to_string();
    let mut rows: Vec<(u32, u32, &str)> = lines
        .map(|line| {
            let (hour, drive) = hour_and_drive(line);
            (hour, drive, line)
        })
        .filter(|&(hour, ..)| (hours.0..hours.2).contains(&hour))
        .collect();
    rows.sort_unstable();
    let mut phases = vec![vec![String::new(); n_feeds]; 2];
    for (hour, drive, line) in rows {
        let phase = usize::from(hour >= hours.1);
        let feed = if drive % 3 == 2 { n_feeds - 1 } else { 0 };
        phases[phase][feed].push_str(line);
        phases[phase][feed].push('\n');
    }
    let model = dir.join("model.bin");
    train_model(SEED ^ 1, 0.002)
        .expect("train model")
        .save(&model)
        .expect("save model");
    Fixture {
        dir,
        header,
        phases,
        model,
        queue: QUEUE,
    }
}

/// A fleet CSV row's `(hour, drive)`.
fn hour_and_drive(line: &str) -> (u32, u32) {
    let mut fields = line.split(',');
    let drive = fields
        .next()
        .and_then(|d| d.parse().ok())
        .expect("drive id");
    let hour = fields.nth(2).and_then(|h| h.parse().ok()).expect("hour");
    (hour, drive)
}

/// A daemon config with its own feeds, model copy (the lifecycle
/// promotes over it), sink and checkpoint directory, all named by `tag`.
fn config(fx: &Fixture, tag: &str, shards: usize, retrain: bool) -> DaemonConfig {
    let model = fx.dir.join(format!("{tag}.model"));
    std::fs::copy(&fx.model, &model).expect("copy model");
    let feeds = (0..fx.phases[0].len())
        .map(|f| fx.dir.join(format!("{tag}.feed-{f}.csv")))
        .collect();
    let mut config = DaemonConfig::new(feeds, model, fx.dir.join(format!("{tag}.alarms")));
    config.shards = shards;
    config.queue = fx.queue;
    config.tick_budget = None;
    config.checkpoint = Some(fx.dir.join(format!("{tag}.ckpt")));
    if retrain {
        let mut lc = LifecycleConfig::new(config.voters, VotingRule::Majority);
        lc.retrain_rows = 512;
        lc.shadow_rows = 256;
        lc.probation_rows = 256;
        lc.buffer_cap = 256;
        // Any candidate no worse than the incumbent is promoted, and any
        // alarm-rate rise in probation rolls it back: the point here is
        // to cut the model store's writes, not to judge models.
        lc.gate.min_fdr = 0.0;
        lc.gate.max_far = 1.0;
        lc.max_alarm_rate_delta = 0.01;
        config.retrain = Some(lc);
        config.faults.regressing_candidate = true;
    }
    config
}

/// Append phase `phase`'s rows to the feeds (with the header first).
fn append(fx: &Fixture, config: &DaemonConfig, phase: usize) {
    for (path, rows) in config.feeds.iter().zip(&fx.phases[phase]) {
        let mut feed = std::fs::File::options()
            .create(true)
            .append(true)
            .open(path)
            .expect("open feed");
        if phase == 0 {
            writeln!(feed, "{}", fx.header).expect("write feed header");
        }
        feed.write_all(rows.as_bytes()).expect("append feed rows");
    }
}

/// What a finished run must reproduce.
#[derive(Debug, PartialEq)]
struct Books {
    sink: Vec<u8>,
    stats: ShardStats,
    lifecycle: Option<(LifecycleCounters, &'static str, u64)>,
}

/// Where a run is cut, besides any fault its disks inject.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cut {
    /// No extra cut.
    None,
    /// Drop the daemon after this many completed steps (0: right after
    /// opening), as a `kill -9` between steps would, and reopen it.
    AfterSteps(usize),
    /// Lose power once every phase is served, then reopen.
    PowerLossAtEnd,
}

/// One run of [`serve`].
struct Run {
    books: Books,
    /// Every failure, in order; each was followed by a reopen.
    failures: Vec<DaemonError>,
    /// Steps completed.
    steps: usize,
    /// Per successful open: the index of its disk, what crash recovery
    /// did, and the write boundaries that disk had counted by then.
    opens: Vec<(usize, Option<Recovery>, usize)>,
}

/// Serve every phase to idle, cut as `cut` says. The daemon first writes
/// through `disks[0]`; when a step (or an open) fails, that daemon is
/// dropped and reopened on the next disk — the real one once `disks`
/// runs out — as after a crash and reboot. Each disk may fail once.
fn serve(fx: &Fixture, mut config: DaemonConfig, disks: &[Arc<FaultDisk>], mut cut: Cut) -> Run {
    let disk_of = |i: usize| -> Arc<dyn Disk> {
        match disks.get(i) {
            Some(disk) => disk.clone(),
            None => Arc::new(RealDisk),
        }
    };
    config.disk = disk_of(0);
    let mut failures = Vec::new();
    let mut opens = Vec::new();
    let mut daemon: Option<Daemon> = None;
    let mut steps = 0;
    for phase in 0..fx.phases.len() {
        append(fx, &config, phase);
        loop {
            let idle = match daemon.as_mut() {
                Some(d) => d.step().map(|report| {
                    steps += 1;
                    report.idle
                }),
                None => Daemon::open(config.clone()).map(|d| {
                    let at = failures.len();
                    let counted = disks.get(at).map_or(0, |disk| disk.boundaries());
                    opens.push((at, d.recovery(), counted));
                    daemon = Some(d);
                    false
                }),
            };
            assert!(steps < 1000, "the daemon never went idle");
            match idle {
                Ok(idle) => {
                    if cut == Cut::AfterSteps(steps) {
                        daemon = None;
                        cut = Cut::None;
                    }
                    if idle {
                        break;
                    }
                }
                Err(e) => {
                    assert!(failures.len() < disks.len(), "failed on the real disk: {e}");
                    failures.push(e);
                    daemon = None;
                    config.disk = disk_of(failures.len());
                }
            }
        }
    }
    if cut == Cut::PowerLossAtEnd {
        disks[failures.len()].power_loss().expect("lose power");
        config.disk = Arc::new(RealDisk);
        daemon = None;
    }
    let daemon = daemon.unwrap_or_else(|| {
        let mut reopened = Daemon::open(config.clone()).expect("reopen");
        while !reopened.step().expect("step after the reopen").idle {}
        reopened
    });
    let books = Books {
        sink: std::fs::read(&config.out).expect("read sink"),
        stats: daemon.topology().stats(),
        lifecycle: daemon.lifecycle().map(|m| {
            (
                m.counters().clone(),
                m.phase().label(),
                m.store().live_fingerprint().expect("live fingerprint"),
            )
        }),
    };
    Run {
        books,
        failures,
        steps,
        opens,
    }
}

/// Serve every phase to idle on the real disk, calling `after` with the
/// number of completed steps and the daemon after each step; stop early
/// (dropping the daemon, as a `kill -9` would) when it returns false.
fn step_through(
    fx: &Fixture,
    config: &DaemonConfig,
    mut after: impl FnMut(usize, &Daemon) -> bool,
) {
    let mut daemon = Daemon::open(config.clone()).expect("open");
    let mut steps = 0;
    for phase in 0..fx.phases.len() {
        append(fx, config, phase);
        loop {
            let idle = daemon.step().expect("step").idle;
            steps += 1;
            if !after(steps, &daemon) {
                return;
            }
            if idle {
                break;
            }
        }
    }
}

/// How one step of a run saved its checkpoint.
#[derive(Debug, Default, Clone, Copy)]
struct StepSaves {
    /// Shard logs that grew (appends).
    shard_appends: usize,
    /// Shards whose snapshot was rewritten while their log held frames,
    /// or whose log was emptied (compactions).
    shard_compactions: usize,
    /// Shard log bytes after the step.
    log_bytes: u64,
    /// Whether `lifecycle.log` grew.
    lifecycle_appended: bool,
    /// Whether `lifecycle.ckpt` was rewritten while the log held frames,
    /// or the log was emptied.
    lifecycle_compacted: bool,
    /// Whether a log file was created (its first append also syncs the
    /// directory).
    log_created: bool,
    /// Promotions plus rollbacks applied so far.
    swaps: usize,
    /// Promotions applied so far.
    promotions: usize,
    /// Whether the sink grew.
    sink_grew: bool,
    /// `fdatasync` and directory `fsync` calls the step made.
    syncs: usize,
}

/// Serve `config` to idle, numbering what each step's saves did.
fn log_saves(fx: &Fixture, config: &DaemonConfig) -> Vec<StepSaves> {
    let ckpt = config.checkpoint.clone().expect("a checkpoint dir");
    let disk = Arc::new(FaultDisk::counting());
    let mut config = config.clone();
    config.disk = disk.clone();
    // Per file pair: the snapshot's bytes and the log's length, if any.
    let mut pairs: Vec<(PathBuf, PathBuf)> = (0..config.shards)
        .map(|k| (shard_path(&ckpt, k), shard_log_path(&ckpt, k)))
        .collect();
    if config.retrain.is_some() {
        pairs.push((lifecycle_path(&ckpt), lifecycle_log_path(&ckpt)));
    }
    let files = |(snapshot, log): &(PathBuf, PathBuf)| {
        let log = std::fs::metadata(log).ok().map(|m| m.len());
        (std::fs::read(snapshot).unwrap_or_default(), log)
    };
    let mut seen: Vec<(Vec<u8>, Option<u64>)> = pairs.iter().map(files).collect();
    let (mut sink, mut syncs) = (0, 0);
    let mut saves = Vec::new();
    step_through(fx, &config, |_, daemon| {
        let mut step = StepSaves::default();
        for (i, (pair, seen)) in pairs.iter().zip(&mut seen).enumerate() {
            let now = files(pair);
            let (before, after) = (seen.1.unwrap_or(0), now.1.unwrap_or(0));
            let appended = after > before;
            let compacted = after < before || (now.0 != seen.0 && before > 0);
            step.log_created |= seen.1.is_none() && now.1.is_some();
            if i < config.shards {
                step.shard_appends += usize::from(appended);
                step.shard_compactions += usize::from(compacted);
                step.log_bytes += after;
            } else {
                step.lifecycle_appended = appended;
                step.lifecycle_compacted = compacted;
            }
            *seen = now;
        }
        if let Some(m) = daemon.lifecycle() {
            step.promotions = m.counters().promotions;
            step.swaps = m.counters().promotions + m.counters().rollbacks;
        }
        let len = std::fs::metadata(&config.out).map_or(0, |m| m.len());
        step.sink_grew = len > sink;
        step.syncs = disk.syncs() - syncs;
        (sink, syncs) = (len, disk.syncs());
        saves.push(step);
        true
    });
    remove(&config);
    saves
}

/// A failure a write fault may cause: I/O on the sink, a checkpoint or
/// the model store — never a scoring, model-load or resume refusal.
fn is_write_failure(e: &DaemonError) -> bool {
    matches!(
        e,
        DaemonError::Io(..)
            | DaemonError::Checkpoint(_, CheckpointError::Io(_))
            | DaemonError::Lifecycle(_, LifecycleError::Checkpoint(CheckpointError::Io(_)))
            | DaemonError::Lifecycle(_, LifecycleError::Promote(_))
    )
}

fn remove(config: &DaemonConfig) {
    let _ = std::fs::remove_file(&config.out);
    let _ = std::fs::remove_file(&config.model);
    for feed in &config.feeds {
        let _ = std::fs::remove_file(feed);
    }
    if let Some(dir) = &config.checkpoint {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The fixture for `retrain`: with retraining, the slice from one feed
/// (over two unequal feeds the short one stalls the watermark, so the
/// row events the lifecycle waits for pile up in every shard checkpoint
/// — correct, but slow in a debug build); without, the slice or, for
/// `whole`, the whole fleet, from two feeds.
fn fixture_for(tag: &str, retrain: bool, whole: bool) -> Fixture {
    match (retrain, whole) {
        (true, _) => fixture(tag, 1),
        (false, false) => fixture(tag, 2),
        (false, true) => Fixture {
            queue: WHOLE_QUEUE,
            ..fleet_fixture(tag, 2, Scenario::CalibratedMix, SCALE, ALL_HOURS)
        },
    }
}

/// An uninterrupted reference run: its books, write boundaries and steps.
fn reference(fx: &Fixture, shards: usize, retrain: bool) -> (Books, usize, usize) {
    let config = config(fx, "reference", shards, retrain);
    let counting = [Arc::new(FaultDisk::counting())];
    let run = serve(fx, config.clone(), &counting, Cut::None);
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    remove(&config);
    assert!(!run.books.sink.is_empty(), "the fleet must raise alarms");
    if let Some((counters, ..)) = &run.books.lifecycle {
        assert!(counters.promotions >= 1, "{counters:?}");
        assert!(counters.rollbacks >= 1, "{counters:?}");
    }
    (run.books, counting[0].boundaries(), run.steps)
}

fn every_step_boundary_resumes_identically(shards: usize, retrain: bool) {
    // Without retraining the whole fleet is cut (about ten steps); with
    // it, the slice, whose every run promotes and rolls back.
    let tag = format!("steps-s{shards}-r{}", u8::from(retrain));
    let fx = fixture_for(&tag, retrain, true);
    let (expected, _, steps) = reference(&fx, shards, retrain);
    let floor = if retrain { 6 } else { 8 };
    assert!(steps >= floor, "too few steps to enumerate: {steps}");
    println!("{steps} steps, {} cuts", steps + 1);
    for k in 0..=steps {
        let cut = config(&fx, &format!("cut-{k}"), shards, retrain);
        let disk = Arc::new(FaultDisk::counting());
        let run = serve(&fx, cut.clone(), &[disk], Cut::AfterSteps(k));
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        assert!(
            run.books.sink == expected.sink,
            "sink diverged after a cut at step {k} of {steps} ({shards} shard(s), retrain {retrain})"
        );
        assert_eq!(run.books, expected, "cut after step {k} of {steps}");
        remove(&cut);
    }
    let _ = std::fs::remove_dir_all(&fx.dir);
}

/// Serve `fx` with `disks` and check the run ends as the reference did,
/// `faults` of the disks' faults having fired and each stopped the
/// daemon with a typed write failure; with `end`, lose power once every
/// phase is served.
fn check_cut(
    fx: &Fixture,
    tag: &str,
    (shards, retrain): (usize, bool),
    disks: &[Arc<FaultDisk>],
    (faults, end): (usize, bool),
    expected: &Books,
) -> Run {
    let cut = config(fx, tag, shards, retrain);
    let at_end = if end { Cut::PowerLossAtEnd } else { Cut::None };
    let run = serve(fx, cut.clone(), disks, at_end);
    remove(&cut);
    let fired = disks.iter().filter(|d| d.fired()).count();
    assert_eq!(fired, faults, "{tag}");
    assert_eq!(run.failures.len(), fired, "{tag}: a fault was swallowed");
    for e in &run.failures {
        assert!(is_write_failure(e), "{tag}: untyped failure {e:?}");
    }
    assert!(
        run.books.sink == expected.sink,
        "{tag}: sink diverged ({shards} shard(s), retrain {retrain})"
    );
    assert_eq!(&run.books, expected, "{tag}");
    run
}

fn every_write_boundary_resumes_identically(shards: usize, retrain: bool) {
    let tag = format!("writes-s{shards}-r{}", u8::from(retrain));
    let fx = fixture_for(&tag, retrain, false);
    if retrain {
        // The window covers lifecycle saves of both kinds.
        let saves = log_saves(&fx, &config(&fx, "log-saves", shards, true));
        let appends = saves.iter().filter(|s| s.lifecycle_appended).count();
        let compactions = saves.iter().filter(|s| s.lifecycle_compacted).count();
        println!("lifecycle: {appends} steps appended, {compactions} compacted");
        assert!(appends >= 1 && compactions >= 1, "{saves:?}");
    }
    enumerate_write_boundaries(&fx, shards, retrain);
}

/// Fail every write boundary of a run of `fx` with every fault in turn.
fn enumerate_write_boundaries(fx: &Fixture, shards: usize, retrain: bool) {
    let (expected, boundaries, _) = reference(fx, shards, retrain);
    // Crash recovery's writes are crash points too: at one shard with
    // retraining, wherever a power loss leaves the model store mid-swap
    // (the reopen's recovery is not `Clean`), every boundary of that
    // reopen — recovery's renames and removals, the sink cut — is failed
    // with every fault in turn before a last reopen on the real disk.
    let nested = retrain && shards == 1;
    let (mut cuts, mut recoveries, mut recovery_cuts) = (0, 0, 0);
    for k in 0..=boundaries {
        for fault in Fault::ALL {
            // Past the last boundary only a power loss can still strike.
            let end = k == boundaries;
            if end && fault != Fault::PowerLoss {
                continue;
            }
            let tag = format!("{fault:?} at boundary {k} of {boundaries}");
            let first = || Arc::new(FaultDisk::failing_at(k, fault));
            let mut disks = vec![first()];
            let count_reopen = nested && !end && fault == Fault::PowerLoss;
            if count_reopen {
                disks.push(Arc::new(FaultDisk::counting()));
            }
            let scope = (shards, retrain);
            let faults = (usize::from(!end), end);
            let run = check_cut(fx, &tag, scope, &disks, faults, &expected);
            cuts += 1;
            let reopen = run.opens.iter().find(|(disk, ..)| *disk == 1);
            let Some(&(_, Some(recovery), reopen_boundaries)) = reopen.filter(|_| count_reopen)
            else {
                continue;
            };
            if recovery == Recovery::Clean {
                continue;
            }
            recoveries += 1;
            for j in 0..reopen_boundaries {
                for then in Fault::ALL {
                    let tag = format!("{tag}, then {then:?} at reopen boundary {j}");
                    let disks = [first(), Arc::new(FaultDisk::failing_at(j, then))];
                    check_cut(fx, &tag, scope, &disks, (2, false), &expected);
                    recovery_cuts += 1;
                }
            }
        }
    }
    assert_eq!(cuts, Fault::ALL.len() * boundaries + 1);
    println!(
        "{boundaries} write boundaries, {cuts} cuts; \
         {recoveries} recovering reopens, {recovery_cuts} cuts of their boundaries"
    );
    if nested {
        // At least the promotion's and the rollback's marker windows.
        assert!(recoveries >= 2, "only {recoveries} recovering reopen(s)");
    }
    let _ = std::fs::remove_dir_all(&fx.dir);
}

#[test]
fn every_step_boundary_resumes_identically_at_one_shard() {
    every_step_boundary_resumes_identically(1, false);
}

#[test]
fn every_step_boundary_resumes_identically_at_two_shards() {
    every_step_boundary_resumes_identically(2, false);
}

#[test]
fn every_step_boundary_resumes_identically_with_retraining_at_one_shard() {
    every_step_boundary_resumes_identically(1, true);
}

#[test]
fn every_step_boundary_resumes_identically_with_retraining_at_two_shards() {
    every_step_boundary_resumes_identically(2, true);
}

#[test]
fn every_write_boundary_resumes_identically_at_one_shard() {
    every_write_boundary_resumes_identically(1, false);
}

#[test]
fn every_write_boundary_resumes_identically_at_two_shards() {
    every_write_boundary_resumes_identically(2, false);
}

#[test]
fn every_write_boundary_resumes_identically_with_retraining_at_one_shard() {
    every_write_boundary_resumes_identically(1, true);
}

#[test]
fn every_write_boundary_resumes_identically_with_retraining_at_two_shards() {
    every_write_boundary_resumes_identically(2, true);
}

/// The slice's last 40 hours, 256 lines a step: small enough to
/// enumerate, and its shard saves both append to the record log and
/// compact it into a snapshot.
#[test]
fn every_write_boundary_resumes_identically_while_the_log_appends_and_compacts() {
    let hours = (680, 700, 720);
    let fx = Fixture {
        queue: 256,
        ..fleet_fixture("writes-log", 2, Scenario::CalibratedMix, SCALE, hours)
    };
    let saves = log_saves(&fx, &config(&fx, "log-saves", 1, false));
    let appends = saves.iter().filter(|s| s.shard_appends > 0).count();
    let compactions = saves.iter().filter(|s| s.shard_compactions > 0).count();
    println!("{appends} steps appended, {compactions} compacted");
    assert!(appends >= 1 && compactions >= 1, "{saves:?}");
    enumerate_write_boundaries(&fx, 1, false);
}

/// Sync calls per checkpointing step: a step whose saves all append
/// makes one `fdatasync` per log (the lifecycle's and each shard's), two
/// for the `topology.ckpt` replace (the temp file's `fdatasync` and the
/// directory `fsync`), and one for the sink when it grew. At two shards
/// that is six with a sink append, where replacing `lifecycle.ckpt`
/// whole every step made it seven.
#[test]
fn a_step_whose_saves_all_append_syncs_each_log_once() {
    let shards = 2;
    let fx = Fixture {
        queue: 256,
        ..fixture("syncs", 1)
    };
    let saves = log_saves(&fx, &config(&fx, "syncs", shards, true));
    let per_step: Vec<usize> = saves.iter().map(|s| s.syncs).collect();
    println!("sync calls per step at {shards} shards: {per_step:?}");
    let mut steady = 0;
    for (before, step) in saves.iter().zip(&saves[1..]) {
        let all_appended = step.lifecycle_appended && step.shard_appends == shards;
        let other_writes = step.log_created
            || step.lifecycle_compacted
            || step.shard_compactions > 0
            || step.swaps != before.swaps;
        if all_appended && !other_writes {
            assert_eq!(
                step.syncs,
                1 + 2 + shards + usize::from(step.sink_grew),
                "{step:?}"
            );
            steady += 1;
        }
    }
    assert!(steady >= 1, "no step appended to every log: {saves:?}");
    let _ = std::fs::remove_dir_all(&fx.dir);
}

/// Sync calls per compaction: a shard save that replaces its snapshot
/// while its log holds frames makes three, the replace's two (the temp
/// file's `fdatasync` and the directory `fsync`) and one `fdatasync` of
/// the emptied log. The replace has just synced the directory the log
/// shares, and cutting a file's length changes no directory entry, so
/// the log's emptying needs no second directory `fsync`.
#[test]
fn a_compaction_syncs_its_snapshot_twice_and_its_log_once() {
    let hours = (680, 700, 720);
    let fx = Fixture {
        queue: 256,
        ..fleet_fixture("compaction-syncs", 2, Scenario::CalibratedMix, SCALE, hours)
    };
    for shards in [1, 2] {
        let saves = log_saves(&fx, &config(&fx, "compaction-syncs", shards, false));
        let per_step: Vec<usize> = saves.iter().map(|s| s.syncs).collect();
        println!("sync calls per step at {shards} shard(s): {per_step:?}");
        let mut compactions = 0;
        for step in &saves {
            let saved = step.shard_appends + step.shard_compactions;
            if step.shard_compactions == 0 || saved != shards || step.log_created {
                continue;
            }
            let topology = 2;
            let expected = usize::from(step.sink_grew)
                + topology
                + step.shard_appends
                + 3 * step.shard_compactions;
            assert_eq!(step.syncs, expected, "{shards} shard(s): {step:?}");
            compactions += step.shard_compactions;
        }
        assert!(compactions >= 1, "no step compacted: {saves:?}");
    }
    let _ = std::fs::remove_dir_all(&fx.dir);
}

/// Replayed votes take the score the log recorded, not the live model's:
/// kill the daemon right after the step that promotes a candidate, while
/// the shard's log still holds frames scored by the incumbent, and the
/// reopened daemon (serving the promoted model) must restore exactly the
/// shard it lost and finish with the uninterrupted run's bytes.
#[test]
fn a_kill_inside_the_log_window_across_a_promotion_resumes_identically() {
    let fx = Fixture {
        queue: 256,
        ..fixture("log-promotion", 1)
    };
    let saves = log_saves(&fx, &config(&fx, "log-saves", 1, true));
    let promoted = saves.iter().position(|s| s.promotions > 0);
    let p = promoted.expect("the slice promotes");
    assert!(
        p > 0 && saves[p - 1].log_bytes > 0 && saves[p].shard_compactions == 0,
        "no log window spans the promotion: {saves:?}"
    );
    let steps = p + 1;

    let cut = config(&fx, "log-promotion-cut", 1, true);
    let mut held = Vec::new();
    step_through(&fx, &cut, |done, daemon| {
        if done == steps {
            held = shard_states(daemon);
        }
        done < steps
    });
    let reopened = Daemon::open(cut.clone()).expect("reopen");
    assert_eq!(shard_states(&reopened), held, "restored shards differ");
    drop(reopened);
    remove(&cut);

    let (expected, ..) = reference(&fx, 1, true);
    let config = config(&fx, "log-promotion-serve", 1, true);
    let disk = [Arc::new(FaultDisk::counting())];
    let run = serve(&fx, config.clone(), &disk, Cut::AfterSteps(steps));
    remove(&config);
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    assert!(run.books.sink == expected.sink, "sink diverged");
    assert_eq!(run.books, expected);
    let _ = std::fs::remove_dir_all(&fx.dir);
}

/// Each shard's state, encoded.
fn shard_states(daemon: &Daemon) -> Vec<String> {
    daemon
        .topology()
        .shards()
        .map(|shard| {
            let mut state = String::new();
            shard.write_state(&mut state);
            state
        })
        .collect()
}

#[test]
fn the_sink_holds_the_batch_detector_s_first_alarms_at_1_2_and_4_shards() {
    // Rack failures over the whole fleet life: several drives alarm.
    let hours = (0, 600, u32::MAX);
    let fx = fleet_fixture("oracle", 2, Scenario::RackFailures, 0.002, hours);
    // The batch reader takes each drive's rows together.
    let mut rows: Vec<&str> = fx.phases.iter().flatten().flat_map(|r| r.lines()).collect();
    rows.sort_unstable_by_key(|line| {
        let (hour, drive) = hour_and_drive(line);
        (drive, hour)
    });
    let fleet = format!("{}\n{}\n", fx.header, rows.join("\n"));
    let series = read_series_quarantined(fleet.as_bytes(), &IngestPolicy::default())
        .expect("read the fleet")
        .series;
    let model = hddpred::eval::SavedModel::load(&fx.model).expect("load model");
    let features = FeatureSet::critical13();
    let detector = VotingDetector::new(&model, &features, 11, VotingRule::Majority);
    let batch: BTreeSet<(u32, u32)> = series
        .iter()
        .filter_map(|s| {
            let hour = detector.first_alarm(s, Hour(0)..Hour(u32::MAX))?;
            Some((s.drive.0, hour.0))
        })
        .collect();
    assert!(batch.len() >= 3, "the fleet must raise alarms: {batch:?}");

    for shards in [1, 2, 4] {
        let config = config(&fx, &format!("oracle-{shards}"), shards, false);
        let books = serve(&fx, config, &[], Cut::None).books;
        let text = String::from_utf8(books.sink).expect("sink is UTF-8");
        let streamed: Vec<(u32, u32)> = text
            .lines()
            .map(|line| {
                let (drive, hour) = line.split_once(',').expect("drive,hour");
                (drive.parse().expect("drive"), hour.parse().expect("hour"))
            })
            .collect();
        let distinct: BTreeSet<_> = streamed.iter().copied().collect();
        assert_eq!(distinct.len(), streamed.len(), "duplicate alarms");
        assert_eq!(distinct, batch, "{shards} shard(s)");
    }
    let _ = std::fs::remove_dir_all(&fx.dir);
}

#[test]
fn a_sink_shorter_than_the_checkpoint_is_refused() {
    let fx = fixture("short", 2);
    let config = config(&fx, "short", 1, false);
    let len = serve(&fx, config.clone(), &[], Cut::None).books.sink.len() as u64;
    assert!(len > 0, "the fleet must raise alarms");
    std::fs::File::options()
        .write(true)
        .open(&config.out)
        .and_then(|f| f.set_len(len - 1))
        .expect("truncate sink");
    match Daemon::open(config) {
        Err(DaemonError::SinkTooShort(_, l, recorded)) => {
            assert_eq!((l, recorded), (len - 1, len));
        }
        other => panic!("expected a sink refusal, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&fx.dir);
}

#[test]
fn hours_at_the_end_of_time_serve_like_the_batch_detector() {
    // The slice's failing drive fails at hour 720: shift that to the last
    // hour a `u32` holds, and add a drive whose rows fill the last four.
    let fx = fixture("end-of-time", 1);
    let shift = u32::MAX - HOURS.2;
    let shifted = |line: &str| -> String {
        let mut fields: Vec<String> = line.split(',').map(str::to_string).collect();
        for i in [2, 3] {
            if let Ok(hour) = fields[i].parse::<u32>() {
                fields[i] = (hour + shift).to_string();
            }
        }
        fields.join(",")
    };
    let mut rows: Vec<String> = fx
        .phases
        .iter()
        .flatten()
        .flat_map(|r| r.lines())
        .map(shifted)
        .collect();
    let values = rows[0]
        .splitn(5, ',')
        .nth(4)
        .expect("row values")
        .to_string();
    rows.extend((u32::MAX - 3..=u32::MAX).map(|h| format!("999999,0,,{h},{values}")));
    rows.sort_unstable_by_key(|line| hour_and_drive(line));
    let fx = Fixture {
        phases: vec![vec![format!("{}\n", rows.join("\n"))], vec![String::new()]],
        ..fx
    };

    rows.sort_unstable_by_key(|line| {
        let (hour, drive) = hour_and_drive(line);
        (drive, hour)
    });
    let fleet = format!("{}\n{}\n", fx.header, rows.join("\n"));
    let series = read_series_quarantined(fleet.as_bytes(), &IngestPolicy::default())
        .expect("read the fleet")
        .series;
    let model = hddpred::eval::SavedModel::load(&fx.model).expect("load model");
    let features = FeatureSet::critical13();
    let detector = VotingDetector::new(&model, &features, 11, VotingRule::Majority);
    let batch: Vec<String> = series
        .iter()
        .filter_map(|s| {
            let hour = detector.first_alarm(s, Hour(0)..Hour(u32::MAX))?;
            Some(format!("{},{}\n", s.drive.0, hour.0))
        })
        .collect();
    assert!(!batch.is_empty(), "the shifted slice must raise alarms");

    let config = config(&fx, "end-of-time", 1, false);
    let books = serve(&fx, config, &[], Cut::None).books;
    assert_eq!(books.stats.rows_accepted, rows.len());
    let mut streamed: Vec<&str> = std::str::from_utf8(&books.sink)
        .expect("sink is UTF-8")
        .split_inclusive('\n')
        .collect();
    streamed.sort_unstable();
    let mut batch: Vec<&str> = batch.iter().map(String::as_str).collect();
    batch.sort_unstable();
    assert_eq!(streamed, batch);
    let _ = std::fs::remove_dir_all(&fx.dir);
}
