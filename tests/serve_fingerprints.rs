//! Golden fingerprints of what the serve daemon persists.
//!
//! The daemon is a pure function of its feeds, model and configuration,
//! so every byte it writes is too. These tests serve a small fixed fleet
//! (a calibrated-mix slice, hour-major, over two feeds) to idle through
//! [`Daemon`] at 1 and 2 shards, without retraining and with it, and pin
//! the FNV-1a 64 hash of the alarm sink and of every checkpoint file,
//! both after the first step (the short feed holds the watermark back, so
//! shard checkpoints still carry unmerged alarms and, when retraining,
//! row events) and at idle; the retraining cases also pin the promoted
//! model file. A refactor of the
//! engine, the merge, the checkpoint codec or the lifecycle that changes
//! any persisted byte changes a fingerprint. A fingerprint may only be
//! re-recorded with a stated reason for the change in persisted bytes.

use hddpred::eval::VotingRule;
use hddpred::lifecycle::{Daemon, DaemonConfig, LifecycleConfig};
use hddpred::smart::rng::{fnv1a_extend, FNV1A_OFFSET};
use hddpred::workload::gauntlet::train_model;
use hddpred::workload::{generate_fleet, Scenario, ScenarioManifest};
use std::path::{Path, PathBuf};

const SEED: u64 = 0xDAE_0001;
/// The served hours: one failing drive of the slice fails at hour 720.
const HOURS: std::ops::Range<u32> = 600..720;

/// FNV-1a 64 of a file's bytes.
fn fingerprint(path: &Path) -> u64 {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    fnv1a_extend(FNV1A_OFFSET, &bytes)
}

/// Write the fleet's feeds and model into a fresh directory named by
/// `tag`, serve them to idle, and return `(file name, fingerprint)` for
/// the sink, every checkpoint file and, when retraining, the live model.
fn serve(tag: &str, shards: usize, retrain: bool) -> Vec<(String, u64)> {
    let dir =
        std::env::temp_dir().join(format!("hddpred-fingerprints-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create fixture dir");

    let manifest = ScenarioManifest::new(SEED, Scenario::CalibratedMix, 0.001, 1);
    let mut csv = Vec::new();
    generate_fleet(&manifest, std::slice::from_mut(&mut csv)).expect("generate fleet");
    let text = String::from_utf8(csv).expect("the generator writes UTF-8");
    let mut lines = text.lines();
    let header = lines.next().expect("fleet header");
    let mut rows: Vec<(u32, u32, &str)> = lines
        .filter_map(|line| {
            let mut fields = line.split(',');
            let drive: u32 = fields.next()?.parse().ok()?;
            let hour: u32 = fields.nth(2)?.parse().ok()?;
            HOURS.contains(&hour).then_some((hour, drive, line))
        })
        .collect();
    rows.sort_unstable();
    let feeds: Vec<PathBuf> = (0..2).map(|f| dir.join(format!("feed-{f}.csv"))).collect();
    let mut bodies = vec![format!("{header}\n"); 2];
    for (_, drive, line) in rows {
        let body = &mut bodies[usize::from(drive % 3 == 2)];
        body.push_str(line);
        body.push('\n');
    }
    for (path, body) in feeds.iter().zip(&bodies) {
        std::fs::write(path, body).expect("write feed");
    }
    let model = dir.join("model.bin");
    train_model(SEED ^ 1, 0.002)
        .expect("train model")
        .save(&model)
        .expect("save model");

    let ckpt = dir.join("ckpt");
    let mut config = DaemonConfig::new(feeds, &model, dir.join("alarms.csv"));
    config.shards = shards;
    config.tick_budget = None;
    config.checkpoint = Some(ckpt.clone());
    if retrain {
        let mut lc = LifecycleConfig::new(config.voters, VotingRule::Majority);
        lc.retrain_rows = 512;
        lc.shadow_rows = 256;
        lc.probation_rows = 256;
        lc.buffer_cap = 256;
        lc.gate.min_fdr = 0.0;
        lc.gate.max_far = 1.0;
        config.retrain = Some(lc);
    }
    let mut daemon = Daemon::open(config.clone()).expect("open daemon");
    assert!(!daemon.step().expect("first step").idle);
    let mut pins = checkpoint_pins(&ckpt, "step-1");
    let mut steps = 1;
    while !daemon.step().expect("step").idle {
        steps += 1;
        assert!(steps < 1000, "the daemon never went idle");
    }
    if let Some(manager) = daemon.lifecycle() {
        assert!(
            manager.counters().promotions >= 1,
            "{:?}",
            manager.counters()
        );
    }
    drop(daemon);

    pins.push(("alarms.csv".to_string(), fingerprint(&config.out)));
    pins.extend(checkpoint_pins(&ckpt, "idle"));
    if retrain {
        pins.push(("model.bin".to_string(), fingerprint(&model)));
    }
    let _ = std::fs::remove_dir_all(&dir);
    pins
}

/// `(label/file name, fingerprint)` of every file in the checkpoint
/// directory, by name.
fn checkpoint_pins(ckpt: &Path, label: &str) -> Vec<(String, u64)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(ckpt)
        .expect("list checkpoint dir")
        .map(|entry| entry.expect("checkpoint entry").path())
        .collect();
    files.sort();
    files
        .iter()
        .map(|path| {
            let name = path.file_name().expect("file name").to_string_lossy();
            (format!("{label}/{name}"), fingerprint(path))
        })
        .collect()
}

fn check(tag: &str, shards: usize, retrain: bool, expected: &[(&str, u64)]) {
    let got = serve(tag, shards, retrain);
    let shown: Vec<String> = got
        .iter()
        .map(|(name, hash)| format!("(\"{name}\", {hash:#018x}),"))
        .collect();
    let got: Vec<(&str, u64)> = got.iter().map(|(n, h)| (n.as_str(), *h)).collect();
    assert_eq!(got, expected, "recorded:\n{}", shown.join("\n"));
}

#[test]
fn serve_bytes_are_pinned_at_one_shard() {
    check(
        "plain-1",
        1,
        false,
        &[
            ("step-1/shard-0.ckpt", 0xe517d8d51e922234),
            ("step-1/topology.ckpt", 0xdf3e014ea5522a53),
            ("alarms.csv", 0xae5550cabafe2845),
            ("idle/shard-0.ckpt", 0x7e0464b84203bde6),
            ("idle/topology.ckpt", 0x44652a1f43edd1f0),
        ],
    );
}

#[test]
fn serve_bytes_are_pinned_at_two_shards() {
    check(
        "plain-2",
        2,
        false,
        &[
            ("step-1/shard-0.ckpt", 0xb4bc6186fb929145),
            ("step-1/shard-1.ckpt", 0x2bf33ec274f3f9de),
            ("step-1/topology.ckpt", 0xbde2886ff009cc14),
            ("alarms.csv", 0xae5550cabafe2845),
            ("idle/shard-0.ckpt", 0x2726bfb656933b62),
            ("idle/shard-1.ckpt", 0x83a4490a22998165),
            ("idle/topology.ckpt", 0x0b083c913ecb8936),
        ],
    );
}

#[test]
fn serve_bytes_with_retraining_are_pinned_at_one_shard() {
    check(
        "retrain-1",
        1,
        true,
        &[
            ("step-1/lifecycle.ckpt", 0xa206d540935183ae),
            ("step-1/shard-0.ckpt", 0xfec37fd076a28217),
            ("step-1/topology.ckpt", 0xdf3e014ea5522a53),
            ("alarms.csv", 0xae5550cabafe2845),
            ("idle/lifecycle.ckpt", 0xebe87a465e100abe),
            ("idle/shard-0.ckpt", 0x7e0464b84203bde6),
            ("idle/topology.ckpt", 0x44652a1f43edd1f0),
            ("model.bin", 0x1bc50e53dee9d212),
        ],
    );
}

#[test]
fn serve_bytes_with_retraining_are_pinned_at_two_shards() {
    check(
        "retrain-2",
        2,
        true,
        &[
            ("step-1/lifecycle.ckpt", 0xa206d540935183ae),
            ("step-1/shard-0.ckpt", 0x3a5bb7442146deed),
            ("step-1/shard-1.ckpt", 0xcea6946dca09ac2a),
            ("step-1/topology.ckpt", 0xbde2886ff009cc14),
            ("alarms.csv", 0xae5550cabafe2845),
            ("idle/lifecycle.ckpt", 0xebe87a465e100abe),
            ("idle/shard-0.ckpt", 0x2726bfb656933b62),
            ("idle/shard-1.ckpt", 0x83a4490a22998165),
            ("idle/topology.ckpt", 0x0b083c913ecb8936),
            ("model.bin", 0x1bc50e53dee9d212),
        ],
    );
}
