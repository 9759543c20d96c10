//! Every step boundary of the serve [`Daemon`] is a crash point.
//!
//! For a small `calibrated-mix` fleet at 1 and 2 shards, with and without
//! online retraining: for every step index `k`, run `k` steps with a
//! checkpoint directory, drop the daemon (everything it had not
//! persisted is lost, exactly as under `kill -9` between steps), reopen
//! it and run to idle. The alarm sink must be byte-identical to an
//! uninterrupted run, and the engine and lifecycle books must match.
//! `tests/serve_chaos.rs` samples real SIGKILLs at random instants; this
//! enumerates every inter-step cut in process.

use hddpred::eval::VotingRule;
use hddpred::lifecycle::{Daemon, DaemonConfig, DaemonError, LifecycleConfig, LifecycleCounters};
use hddpred::serve::ShardStats;
use hddpred::workload::gauntlet::train_model;
use hddpred::workload::{generate_fleet, Scenario, ScenarioManifest};
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;

const SEED: u64 = 0xDAE_0001;
const SCALE: f64 = 0.001;
/// Per-shard queue capacity: one run of the fleet takes about ten steps.
const QUEUE: usize = 4096;

struct Fixture {
    dir: PathBuf,
    feeds: Vec<PathBuf>,
    model: PathBuf,
}

fn fixture(tag: &str, n_feeds: usize) -> Fixture {
    let dir = std::env::temp_dir().join(format!("hddpred-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    let manifest = ScenarioManifest::new(SEED, Scenario::CalibratedMix, SCALE, n_feeds);
    let feeds: Vec<PathBuf> = (0..n_feeds)
        .map(|f| dir.join(format!("feed-{f}.csv")))
        .collect();
    let mut writers: Vec<_> = feeds
        .iter()
        .map(|p| BufWriter::new(std::fs::File::create(p).expect("create feed")))
        .collect();
    generate_fleet(&manifest, &mut writers).expect("generate fleet");
    for w in &mut writers {
        w.flush().expect("flush feed");
    }
    let model = dir.join("model.bin");
    train_model(SEED ^ 1, 0.002)
        .expect("train model")
        .save(&model)
        .expect("save model");
    Fixture { dir, feeds, model }
}

/// A daemon config with its own model copy (the lifecycle promotes over
/// it), sink and checkpoint directory, all named by `tag`.
fn config(fx: &Fixture, tag: &str, shards: usize, retrain: bool) -> DaemonConfig {
    let model = fx.dir.join(format!("{tag}.model"));
    std::fs::copy(&fx.model, &model).expect("copy model");
    let mut config = DaemonConfig::new(
        fx.feeds.clone(),
        model,
        fx.dir.join(format!("{tag}.alarms")),
    );
    config.shards = shards;
    config.queue = QUEUE;
    config.tick_budget = None;
    config.checkpoint = Some(fx.dir.join(format!("{tag}.ckpt")));
    if retrain {
        let mut lc = LifecycleConfig::new(config.voters, VotingRule::Majority);
        // A small buffer keeps each candidate cheap to train.
        lc.buffer_cap = 1024;
        config.retrain = Some(lc);
    }
    config
}

/// Step until idle; returns how many steps that took.
fn run_to_idle(daemon: &mut Daemon) -> usize {
    let mut steps = 0;
    loop {
        steps += 1;
        if daemon.step().expect("step").idle {
            return steps;
        }
    }
}

/// What a finished run must reproduce.
#[derive(Debug, PartialEq)]
struct Books {
    sink: Vec<u8>,
    stats: ShardStats,
    lifecycle: Option<(LifecycleCounters, &'static str, u64)>,
}

fn books(daemon: &Daemon, config: &DaemonConfig) -> Books {
    Books {
        sink: std::fs::read(&config.out).expect("read sink"),
        stats: daemon.topology().stats(),
        lifecycle: daemon.lifecycle().map(|m| {
            (
                m.counters().clone(),
                m.phase().label(),
                m.store().live_fingerprint().expect("live fingerprint"),
            )
        }),
    }
}

fn remove(config: &DaemonConfig) {
    let _ = std::fs::remove_file(&config.out);
    let _ = std::fs::remove_file(&config.model);
    if let Some(dir) = &config.checkpoint {
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn every_step_boundary_resumes_identically(shards: usize, retrain: bool) {
    let tag = format!("s{shards}-r{}", u8::from(retrain));
    // Two feeds exercise the idle flush of alarms a stalled watermark
    // held back. With retraining the fleet is served from one feed: two
    // feeds drain one after the other, so every row event waits for the
    // watermark inside the shard checkpoints, which makes each resume
    // re-parse the whole stream — correct, but slow in a debug build.
    let fx = fixture(&tag, if retrain { 1 } else { 2 });

    let reference = config(&fx, "reference", shards, retrain);
    let mut daemon = Daemon::open(reference.clone()).expect("open reference");
    let n_steps = run_to_idle(&mut daemon);
    let expected = books(&daemon, &reference);
    drop(daemon);
    remove(&reference);
    assert!(n_steps >= 8, "too few steps to enumerate: {n_steps}");
    assert!(!expected.sink.is_empty(), "the fleet must raise alarms");

    for k in 0..=n_steps {
        let cut = config(&fx, &format!("cut-{k}"), shards, retrain);
        let mut daemon = Daemon::open(cut.clone()).expect("open");
        for step in 0..k {
            let report = daemon.step().expect("step");
            assert_eq!(report.idle, step + 1 == n_steps, "step {step} of {n_steps}");
        }
        drop(daemon);

        let mut daemon = Daemon::open(cut.clone()).expect("reopen");
        assert_eq!(daemon.resumed(), k > 0, "cut after step {k}");
        run_to_idle(&mut daemon);
        let got = books(&daemon, &cut);
        assert!(
            got.sink == expected.sink,
            "sink diverged after a cut at step {k} of {n_steps} ({shards} shard(s), retrain {retrain})"
        );
        assert_eq!(got, expected, "cut after step {k} of {n_steps}");
        drop(daemon);
        remove(&cut);
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
fn a_sink_shorter_than_the_checkpoint_is_refused() {
    let fx = fixture("short", 2);
    let config = config(&fx, "short", 1, false);
    let mut daemon = Daemon::open(config.clone()).expect("open");
    run_to_idle(&mut daemon);
    drop(daemon);
    let len = std::fs::metadata(&config.out).expect("sink").len();
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
