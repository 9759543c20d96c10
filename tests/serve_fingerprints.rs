//! Golden fingerprints of what the serve daemon persists.
//!
//! The daemon is a pure function of its feeds, model and configuration,
//! so every byte it writes is too. These tests serve a small fixed fleet
//! (a calibrated-mix slice, hour-major, over two feeds of unequal
//! length) to idle through [`Daemon`] at 1 and 2 shards, without
//! retraining and with it, and pin the FNV-1a 64 hash of the alarm sink
//! and of every checkpoint file at three points: after the first step;
//! after the first step that follows the short feed running out (the
//! merge watermark stalls at its end until the idle flush, so shard
//! checkpoints hold what the long feed raised past it: row events when
//! retraining, and the fixture's one alarm in the run that puts that
//! drive on the long feed); and at idle. The retraining cases also pin
//! the promoted model file. A shard or a lifecycle whose log holds frames
//! is pinned by its state restored from snapshot and log, encoded as the
//! snapshot the daemon would write: the pins are of states, which must
//! not depend on whether a save appended or compacted. The restored
//! lifecycle state is also pinned by a digest no encoding choice can move
//! (`lifecycle.state`, see [`state_digest`]). A refactor of
//! the ingest, the engine, the merge, the checkpoint codec or the
//! lifecycle that changes any persisted byte changes a fingerprint. A
//! fingerprint may only be re-recorded with a stated reason for the
//! change in persisted bytes.
//!
//! What a lifecycle decides must not depend on how lines were batched,
//! so the retraining fixture is also served at several queue sizes and
//! its restored lifecycle state and promoted model compared (the
//! lifecycle files themselves differ: how many saves there were, and so
//! which of them appended, depends on the step boundaries).

use hddpred::eval::{SavedModel, VotingRule};
use hddpred::hdd_json::disk::RealDisk;
use hddpred::hdd_json::Value;
use hddpred::lifecycle::{
    lifecycle_log_path, lifecycle_path, Daemon, DaemonConfig, LifecycleConfig, LifecycleFaults,
    LifecycleManager,
};
use hddpred::serve::{
    save_snapshot, shard_log_path, shard_path, CheckpointKind, EngineConfig, ServeTopology,
};
use hddpred::smart::rng::{fnv1a_extend, FNV1A_OFFSET};
use hddpred::stats::FeatureSet;
use hddpred::workload::gauntlet::train_model;
use hddpred::workload::{generate_fleet, Scenario, ScenarioManifest};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SEED: u64 = 0xDAE_0001;
/// The served hours: one failing drive of the slice fails at hour 720.
const HOURS: std::ops::Range<u32> = 600..720;

/// FNV-1a 64 of a file's bytes.
fn fingerprint(path: &Path) -> u64 {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    fnv1a_extend(FNV1A_OFFSET, &bytes)
}

/// How one fixture run is served.
#[derive(Debug, Clone, Copy)]
struct Run {
    shards: usize,
    retrain: bool,
    /// Lines per shard queue: the most lines one step polls.
    queue: usize,
    /// Drives `d` with `d % 3 == short_residue`, about a third of the
    /// fleet, go to feed 1, the short feed; the rest go to feed 0. The
    /// fixture's one alarm (drive 23) is on the short feed at residue 2
    /// and on the long feed otherwise.
    short_residue: u32,
}

impl Run {
    fn new(shards: usize, retrain: bool) -> Self {
        Run {
            shards,
            retrain,
            queue: 1024,
            short_residue: 2,
        }
    }
}

/// Write the fleet's feeds and model into a fresh directory named by
/// `tag`, serve them to idle as `run` says, and return `(file name,
/// fingerprint)` for the sink, every checkpoint file and, when
/// retraining, the live model.
fn serve(tag: &str, run: Run) -> Vec<(String, u64)> {
    let Run {
        shards,
        retrain,
        queue,
        short_residue,
    } = run;
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
        let body = &mut bodies[usize::from(drive % 3 == short_residue)];
        body.push_str(line);
        body.push('\n');
    }
    for (path, body) in feeds.iter().zip(&bodies) {
        std::fs::write(path, body).expect("write feed");
    }
    let data_lines = |body: &String| body.lines().count() as u64 - 1;
    let short_feed_lines = data_lines(&bodies[1]);
    assert!(short_feed_lines < data_lines(&bodies[0]));
    let model = dir.join("model.bin");
    train_model(SEED ^ 1, 0.002)
        .expect("train model")
        .save(&model)
        .expect("save model");

    let ckpt = dir.join("ckpt");
    let mut config = DaemonConfig::new(feeds, &model, dir.join("alarms.csv"));
    config.shards = shards;
    config.queue = queue;
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
    let mut pins = checkpoint_pins(&config, "step-1");
    let mut steps = 1;
    let (mut short_done, mut stalled) = (false, false);
    while !daemon.step().expect("step").idle {
        if short_done && !stalled {
            // The first step after the short feed ran out: the watermark
            // stops at its end, so what the long feed raised past it
            // waits in the shards until the idle flush.
            stalled = true;
            let restored = restore(&config);
            let (alarms, events) = restored.shards().fold((0, 0), |(alarms, events), shard| {
                (
                    alarms + shard.unmerged().len(),
                    events + shard.events().len(),
                )
            });
            assert_eq!(
                alarms > 0,
                short_residue != 2,
                "unmerged alarms at the stall"
            );
            assert_eq!(events > 0, retrain, "row events at the stall");
            pins.extend(checkpoint_pins(&config, "stall"));
        }
        // Every queue drains each step (no tick budget), so the shards'
        // cursors are the ingest's.
        short_done = daemon.topology().ingest_resume_cursors()[1].next_line == short_feed_lines;
        steps += 1;
        assert!(steps < 1000, "the daemon never went idle");
    }
    assert!(stalled, "no step ran after the short feed ran out");
    if let Some(manager) = daemon.lifecycle() {
        assert!(
            manager.counters().promotions >= 1,
            "{:?}",
            manager.counters()
        );
    }
    drop(daemon);

    pins.push(("alarms.csv".to_string(), fingerprint(&config.out)));
    pins.extend(checkpoint_pins(&config, "idle"));
    if retrain {
        pins.push(("model.bin".to_string(), fingerprint(&model)));
    }
    let _ = std::fs::remove_dir_all(&dir);
    pins
}

/// The topology `config`'s checkpoint directory restores, read-only.
fn restore(config: &DaemonConfig) -> ServeTopology {
    let features = FeatureSet::critical13();
    let model = SavedModel::load(&config.model).expect("load model");
    let engine = EngineConfig::new(config.voters, config.rule, config.max_quarantine);
    let mut topology = ServeTopology::new(
        &Arc::new(model),
        &features,
        engine,
        config.shards,
        config.feeds.len(),
        config.queue,
    )
    .expect("build topology");
    topology.set_record_events(config.retrain.is_some());
    let ckpt = config.checkpoint.as_deref().expect("a checkpoint dir");
    assert!(topology.resume(ckpt).expect("resume"), "nothing to resume");
    topology
}

/// The lifecycle state `config`'s checkpoint directory restores,
/// read-only, if it holds any.
fn restore_lifecycle(config: &DaemonConfig) -> Option<LifecycleManager> {
    let ckpt = config.checkpoint.as_deref().expect("a checkpoint dir");
    let lc = config.retrain.clone()?;
    let mut manager = LifecycleManager::new(lc, config.model.clone(), LifecycleFaults::default());
    let found = manager.restore_checkpoint(ckpt).expect("restore lifecycle");
    found.then_some(manager)
}

/// FNV-1a 64 of a restored lifecycle state that no encoding choice can
/// move: every field but the save number and the buffered rows as JSON,
/// then each buffered row as its features' f64 bits and its label.
fn state_digest(manager: &LifecycleManager) -> u64 {
    let Value::Obj(mut fields) = manager.state_to_json() else {
        panic!("the lifecycle state is an object")
    };
    fields.retain(|(key, _)| key != "save");
    for (key, value) in &mut fields {
        if let (true, Value::Obj(buffer)) = (key == "buffer", value) {
            buffer.retain(|(key, _)| key != "rows");
        }
    }
    let json = hddpred::hdd_json::to_string(&Value::Obj(fields));
    let mut hash = fnv1a_extend(FNV1A_OFFSET, json.as_bytes());
    for sample in manager.buffer().samples() {
        for v in &sample.features {
            hash = fnv1a_extend(hash, &v.to_bits().to_le_bytes());
        }
        let failed = sample.class == hddpred::cart::Class::Failed;
        hash = fnv1a_extend(hash, &[u8::from(failed)]);
    }
    hash
}

/// `(label/file name, fingerprint)` of every file in the checkpoint
/// directory, by name; a shard or lifecycle snapshot whose log holds
/// frames is pinned by its restored state re-encoded as a snapshot, and
/// logs are not pinned. The restored lifecycle state is also pinned by
/// [`state_digest`], as `lifecycle.state`.
fn checkpoint_pins(config: &DaemonConfig, label: &str) -> Vec<(String, u64)> {
    let ckpt = config.checkpoint.as_deref().expect("a checkpoint dir");
    let mut files: Vec<PathBuf> = std::fs::read_dir(ckpt)
        .expect("list checkpoint dir")
        .map(|entry| entry.expect("checkpoint entry").path())
        .filter(|path| path.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    files.sort();
    let holds_frames = |path: PathBuf| std::fs::metadata(path).is_ok_and(|m| m.len() > 0);
    let logged = |k: usize| holds_frames(shard_log_path(ckpt, k));
    let restored = (0..config.shards).any(logged).then(|| restore(config));
    let lifecycle = restore_lifecycle(config);
    let encoded = ckpt.with_extension("encoded");
    let encode = |kind: CheckpointKind, payload: &dyn Fn(&mut String)| {
        save_snapshot(&RealDisk, &encoded, kind, payload).expect("encode restored state");
        fingerprint(&encoded)
    };
    let mut pins: Vec<(String, u64)> = files
        .iter()
        .map(|path| {
            let name = path.file_name().expect("file name").to_string_lossy();
            let shard = (0..config.shards).find(|&k| shard_path(ckpt, k) == *path);
            let hash = match (shard.filter(|&k| logged(k)), &restored, &lifecycle) {
                (Some(k), Some(topology), _) => {
                    let engine = topology.shards().nth(k).expect("shard k");
                    encode(CheckpointKind::Shard, &|out| engine.write_state(out))
                }
                (None, _, Some(manager))
                    if *path == lifecycle_path(ckpt) && holds_frames(lifecycle_log_path(ckpt)) =>
                {
                    let state = manager.state_to_json();
                    encode(CheckpointKind::Lifecycle, &|out| {
                        hddpred::hdd_json::write_value(&state, out);
                    })
                }
                _ => fingerprint(path),
            };
            (format!("{label}/{name}"), hash)
        })
        .collect();
    if let Some(manager) = &lifecycle {
        pins.push((format!("{label}/lifecycle.state"), state_digest(manager)));
    }
    pins
}

fn check(tag: &str, run: Run, expected: &[(&str, u64)]) {
    let got = serve(tag, run);
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
        Run::new(1, false),
        &[
            ("step-1/shard-0.ckpt", 0x60ccb63078b73050),
            ("step-1/topology.ckpt", 0x8d3e786830e60145),
            ("stall/shard-0.ckpt", 0x7e0464b84203bde6),
            ("stall/topology.ckpt", 0x44652a1f43edd1f0),
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
        Run::new(2, false),
        &[
            ("step-1/shard-0.ckpt", 0xccb46105cbbb9f77),
            ("step-1/shard-1.ckpt", 0x835c6432d01aebc2),
            ("step-1/topology.ckpt", 0x8a4eb1c0b435f1c9),
            ("stall/shard-0.ckpt", 0x2726bfb656933b62),
            ("stall/shard-1.ckpt", 0x83a4490a22998165),
            ("stall/topology.ckpt", 0x0b083c913ecb8936),
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
        Run::new(1, true),
        &[
            ("step-1/lifecycle.ckpt", 0x5e9c02012c6ea178),
            ("step-1/shard-0.ckpt", 0x60ccb63078b73050),
            ("step-1/topology.ckpt", 0x8d3e786830e60145),
            ("step-1/lifecycle.state", 0xc7772d38bab0864c),
            ("stall/lifecycle.ckpt", 0x770587d17db81818),
            ("stall/shard-0.ckpt", 0x4545276228e82111),
            ("stall/topology.ckpt", 0x44652a1f43edd1f0),
            ("stall/lifecycle.state", 0xa743b4af6b43ce10),
            ("alarms.csv", 0xae5550cabafe2845),
            ("idle/lifecycle.ckpt", 0x7a877fbc1a64a524),
            ("idle/shard-0.ckpt", 0x7e0464b84203bde6),
            ("idle/topology.ckpt", 0x44652a1f43edd1f0),
            ("idle/lifecycle.state", 0xb5204109fabd2f6d),
            ("model.bin", 0x8de01a37ae28c815),
        ],
    );
}

#[test]
fn serve_bytes_with_retraining_are_pinned_at_two_shards() {
    check(
        "retrain-2",
        Run::new(2, true),
        &[
            ("step-1/lifecycle.ckpt", 0x5e9c02012c6ea178),
            ("step-1/shard-0.ckpt", 0xccb46105cbbb9f77),
            ("step-1/shard-1.ckpt", 0x835c6432d01aebc2),
            ("step-1/topology.ckpt", 0x8a4eb1c0b435f1c9),
            ("step-1/lifecycle.state", 0xc7772d38bab0864c),
            ("stall/lifecycle.ckpt", 0x770587d17db81818),
            ("stall/shard-0.ckpt", 0x138863a619f4aad0),
            ("stall/shard-1.ckpt", 0x492dced1b0ad0fc1),
            ("stall/topology.ckpt", 0x0b083c913ecb8936),
            ("stall/lifecycle.state", 0xa743b4af6b43ce10),
            ("alarms.csv", 0xae5550cabafe2845),
            ("idle/lifecycle.ckpt", 0x7a877fbc1a64a524),
            ("idle/shard-0.ckpt", 0x2726bfb656933b62),
            ("idle/shard-1.ckpt", 0x83a4490a22998165),
            ("idle/topology.ckpt", 0x0b083c913ecb8936),
            ("idle/lifecycle.state", 0xb5204109fabd2f6d),
            ("model.bin", 0x8de01a37ae28c815),
        ],
    );
}

#[test]
fn serve_bytes_with_the_alarm_on_the_long_feed_are_pinned() {
    check(
        "long-2",
        Run {
            short_residue: 0,
            ..Run::new(2, true)
        },
        &[
            ("step-1/lifecycle.ckpt", 0x16eee3911a836daf),
            ("step-1/shard-0.ckpt", 0xded6797b191c1740),
            ("step-1/shard-1.ckpt", 0xd1737452b5f4298a),
            ("step-1/topology.ckpt", 0x8a4eb1c0b435f1c9),
            ("step-1/lifecycle.state", 0xa0291c372ecfbca0),
            ("stall/lifecycle.ckpt", 0x29dbf5b9bd23d6b3),
            ("stall/shard-0.ckpt", 0x7212c85d6c4a3ae3),
            ("stall/shard-1.ckpt", 0x14b9e7f43f19e5f7),
            ("stall/topology.ckpt", 0xb233981e3e621ef1),
            ("stall/lifecycle.state", 0xf1cca75b253792b1),
            ("alarms.csv", 0xae5550cabafe2845),
            ("idle/lifecycle.ckpt", 0x2be5ba487a5cd274),
            ("idle/shard-0.ckpt", 0x828e2c9feab1ce23),
            ("idle/shard-1.ckpt", 0x73cd1b4efef548ba),
            ("idle/topology.ckpt", 0x19b09dcb3134d74e),
            ("idle/lifecycle.state", 0xb4887252e3b2c974),
            ("model.bin", 0xe85bbfa3da004c69),
        ],
    );
}

#[test]
fn lifecycle_decisions_do_not_depend_on_the_queue_size() {
    for shards in [1, 2] {
        let decided = |queue: usize| -> Vec<(String, u64)> {
            let run = Run {
                queue,
                ..Run::new(shards, true)
            };
            serve(&format!("queue-{shards}-{queue}"), run)
                .into_iter()
                .filter(|(name, _)| {
                    ["alarms.csv", "idle/lifecycle.state", "model.bin"].contains(&name.as_str())
                })
                .collect()
        };
        let reference = decided(1024);
        assert_eq!(reference.len(), 3, "{reference:?}");
        for queue in [64, 256] {
            assert_eq!(
                decided(queue),
                reference,
                "{shards} shard(s), queue {queue}"
            );
        }
    }
}
