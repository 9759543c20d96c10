//! Chaos tests for the sharded `hddpred serve` process: the daemon is
//! killed with a real SIGKILL after it has checkpointed and restarted
//! from its checkpoint directory, and the alarm sink must come out
//! byte-identical to an uninterrupted run. A bit-flipped replacement
//! model must be rejected while serving continues on the last-known-good
//! model, and the topology checkpoint protocol's refusals must surface
//! as typed exit codes.
//!
//! These are smoke runs of the real binary. `tests/daemon.rs` enumerates
//! every write boundary in process, with power loss and I/O errors as
//! well as crashes.

#![cfg(unix)]
#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test timeouts bound how long a test waits for the daemon; the clock never reaches its output"
)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn hddpred() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hddpred"))
}

/// The shard count the hot-reload test runs at.
const RELOAD_SHARDS: &str = "4";

fn tempdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hddpred-serve-chaos-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Generate a fleet and train a model on it, exactly as an operator
/// would, returning the fleet CSV and model paths.
fn setup(dir: &Path) -> (PathBuf, PathBuf) {
    let fleet = dir.join("fleet.csv");
    let model = dir.join("model.json");
    let out = hddpred()
        .args(["generate", "--out"])
        .arg(&fleet)
        .args(["--scale", "0.01", "--seed", "5"])
        .output()
        .expect("spawn generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = hddpred()
        .args(["train", "--data"])
        .arg(&fleet)
        .arg("--out")
        .arg(&model)
        .output()
        .expect("spawn train");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (fleet, model)
}

/// Split a fleet CSV into two feed files by drive-id parity — the
/// multi-feed contract: one drive's rows all live on one feed. Returns
/// the comma-joined `--feed` argument.
fn split_feeds(fleet: &Path, dir: &Path) -> String {
    let text = std::fs::read_to_string(fleet).expect("read fleet");
    let mut lines = text.lines();
    let header = lines.next().expect("fleet header");
    let mut feeds = [format!("{header}\n"), format!("{header}\n")];
    for line in lines {
        let id: u64 = line.split(',').next().unwrap_or("0").parse().unwrap_or(0);
        let feed = &mut feeds[(id % 2) as usize];
        feed.push_str(line);
        feed.push('\n');
    }
    let paths = [dir.join("feed-even.csv"), dir.join("feed-odd.csv")];
    for (path, text) in paths.iter().zip(&feeds) {
        std::fs::write(path, text).expect("write feed");
    }
    format!("{},{}", paths[0].display(), paths[1].display())
}

/// Run `serve` to completion over static feeds (exits after a few idle
/// polls) and return the alarm sink's bytes.
fn serve_to_completion(
    feeds: &str,
    shards: &str,
    model: &Path,
    sink: &Path,
    ckpt: Option<&Path>,
) -> Vec<u8> {
    serve_to_completion_with(feeds, shards, model, sink, ckpt, &[])
}

/// [`serve_to_completion`] with extra flags (e.g. `--retrain-rows`).
fn serve_to_completion_with(
    feeds: &str,
    shards: &str,
    model: &Path,
    sink: &Path,
    ckpt: Option<&Path>,
    extra: &[&str],
) -> Vec<u8> {
    let mut cmd = hddpred();
    cmd.arg("serve")
        .args(["--feed", feeds, "--shards", shards])
        .arg("--model")
        .arg(model)
        .arg("--out")
        .arg(sink)
        .args(["--exit-on-idle", "5", "--poll-ms", "2"])
        .args(extra);
    if let Some(ckpt) = ckpt {
        cmd.arg("--checkpoint").arg(ckpt);
    }
    let out = cmd.output().expect("spawn serve");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read(sink).expect("read alarm sink")
}

/// Spawn a long-running `serve` daemon (never exits on idle).
fn spawn_daemon(
    feeds: &str,
    shards: &str,
    model: &Path,
    sink: &Path,
    ckpt: &Path,
    extra: &[&str],
) -> Child {
    let stderr = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(sink.with_extension("stderr"))
        .expect("open stderr log");
    hddpred()
        .arg("serve")
        .args(["--feed", feeds, "--shards", shards])
        .arg("--model")
        .arg(model)
        .arg("--out")
        .arg(sink)
        .arg("--checkpoint")
        .arg(ckpt)
        .args(["--poll-ms", "10"])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::from(stderr))
        .spawn()
        .expect("spawn serve daemon")
}

/// Wait until `path` contains `needle` (the daemon's stderr is polled,
/// not piped, so the daemon can keep running while we look).
fn wait_for(path: &Path, needle: &str, timeout: Duration) -> String {
    let start = Instant::now();
    loop {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        if text.contains(needle) {
            return text;
        }
        assert!(
            start.elapsed() < timeout,
            "timed out waiting for `{needle}` in {}:\n{text}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn alarm_output_is_identical_at_1_2_and_4_shards() {
    let dir = tempdir("shardidentity");
    let (fleet, model) = setup(&dir);
    let feeds = split_feeds(&fleet, &dir);

    let mut sinks = Vec::new();
    for shards in ["1", "2", "4"] {
        let sink = dir.join(format!("alarms-{shards}.csv"));
        sinks.push(serve_to_completion(&feeds, shards, &model, &sink, None));
    }
    assert!(!sinks[0].is_empty(), "the fleet must raise alarms");
    assert_eq!(sinks[0], sinks[1], "2 shards diverged from 1");
    assert_eq!(sinks[0], sinks[2], "4 shards diverged from 1");
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGKILL a fresh `serve` daemon right after `ckpt` first holds
/// `shard-0.ckpt` (whose feed cursors move on every step that reads),
/// then again after the restarted daemon rewrites it.
fn kill_twice_after_checkpoints(
    feeds: &str,
    shards: &str,
    model: &Path,
    sink: &Path,
    ckpt: &Path,
    extra: &[&str],
) {
    let file = "shard-0.ckpt";
    let mut seen = None;
    for _ in 0..2 {
        let mut child = spawn_daemon(feeds, shards, model, sink, ckpt, extra);
        let start = Instant::now();
        loop {
            let now = std::fs::read(ckpt.join(file)).ok();
            if now.is_some() && now != seen {
                seen = now;
                break;
            }
            assert!(
                start.elapsed() < Duration::from_secs(60),
                "{file} never (re)written"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        child.kill().expect("SIGKILL the daemon");
        child.wait().expect("reap the daemon");
    }
}

#[test]
fn kill_restart_smoke_is_byte_identical() {
    let dir = tempdir("killrestart");
    let (fleet, model) = setup(&dir);
    let feeds = split_feeds(&fleet, &dir);

    // The uninterrupted reference: one clean single-shard run over the
    // same feeds — the merge contract says shard count cannot matter.
    let reference = serve_to_completion(&feeds, "1", &model, &dir.join("ref.csv"), None);
    assert!(
        !reference.is_empty(),
        "the fleet must raise reference alarms"
    );

    // The victim runs at 2 shards and is killed twice mid-run, each
    // restart resuming from the checkpoint directory; the final restart
    // runs to completion.
    let sink = dir.join("alarms.csv");
    let ckpt = dir.join("ckpt");
    kill_twice_after_checkpoints(&feeds, "2", &model, &sink, &ckpt, &[]);
    let survived = serve_to_completion(&feeds, "2", &model, &sink, Some(&ckpt));
    assert_eq!(
        survived, reference,
        "alarm sink diverged after two kill/restart cycles"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lifecycle_kill_restart_smoke_is_byte_identical() {
    let dir = tempdir("lifecyclekill");
    let (fleet, model) = setup(&dir);
    // One feed and a deep queue: with retraining every shard checkpoint
    // carries the row events the merge has not released yet, and the
    // lifecycle checkpoint its training buffer, so fewer, larger steps
    // keep a debug build's checkpoint cost down.
    let feeds = fleet.display().to_string();
    let retrain: &[&str] = &[
        "--retrain-rows",
        "512",
        "--shadow-rows",
        "256",
        "--probation-rows",
        "256",
        "--queue",
        "8192",
    ];

    // The lifecycle owns (and may promote over) the model file, so the
    // reference and the victim each get their own copy.
    let ref_model = dir.join("ref-model.json");
    let victim_model = dir.join("victim-model.json");
    std::fs::copy(&model, &ref_model).expect("copy reference model");
    std::fs::copy(&model, &victim_model).expect("copy victim model");

    // The uninterrupted lifecycle-enabled reference at one shard.
    let reference =
        serve_to_completion_with(&feeds, "1", &ref_model, &dir.join("ref.csv"), None, retrain);
    assert!(!reference.is_empty(), "the fleet must raise alarms");

    // The victim runs at 4 shards with retraining live and is killed
    // twice mid-run, each restart resuming the sink, topology, shard and
    // lifecycle checkpoints.
    let sink = dir.join("alarms.csv");
    let ckpt = dir.join("ckpt");
    kill_twice_after_checkpoints(&feeds, "4", &victim_model, &sink, &ckpt, retrain);
    let survived =
        serve_to_completion_with(&feeds, "4", &victim_model, &sink, Some(&ckpt), retrain);
    assert_eq!(
        survived, reference,
        "alarm sink diverged after two lifecycle-enabled kill/restart cycles"
    );

    // The lifecycle state itself was checkpointed and is inspectable.
    let out = hddpred()
        .arg("lifecycle")
        .arg("--model")
        .arg(&victim_model)
        .arg("--checkpoint")
        .arg(&ckpt)
        .output()
        .expect("spawn lifecycle status");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("phase"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_reload_rejects_bit_flip_and_keeps_serving() {
    let dir = tempdir("hotreload");
    let (fleet, model) = setup(&dir);
    let feeds = split_feeds(&fleet, &dir);
    let shards = RELOAD_SHARDS;
    let sink = dir.join("alarms.csv");
    let ckpt = dir.join("ckpt");
    let stderr_log = sink.with_extension("stderr");

    let mut child = spawn_daemon(&feeds, shards, &model, &sink, &ckpt, &["--model-watch"]);
    wait_for(&stderr_log, "serving", Duration::from_secs(30));

    // Push a bit-flipped replacement model. Rewrite until the file's
    // (mtime, len) fingerprint actually moves so the watcher must see it.
    let clean = std::fs::read(&model).expect("read model");
    let mut flipped = clean.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x08;
    let fingerprint = |p: &Path| {
        let meta = std::fs::metadata(p).expect("stat model");
        (meta.modified().expect("mtime"), meta.len())
    };
    let before = fingerprint(&model);
    for _ in 0..100 {
        std::fs::write(&model, &flipped).expect("write flipped model");
        if fingerprint(&model) != before {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let text = wait_for(
        &stderr_log,
        "model reload rejected",
        Duration::from_secs(30),
    );
    assert!(text.contains("last-known-good"), "{text}");

    // The daemon survived the bad push and is still processing: the
    // topology checkpoint keeps advancing as new rows arrive on a feed.
    assert!(
        child.try_wait().expect("poll daemon").is_none(),
        "daemon died"
    );
    let topo_ckpt = ckpt.join("topology.ckpt");
    let ckpt_before = std::fs::read(&topo_ckpt).ok();
    let mut extra = String::new();
    for hour in 0..30 {
        extra.push_str(&format!("99999,0,,{hour}"));
        for v in 0..hddpred::smart::NUM_ATTRIBUTES {
            extra.push_str(&format!(",{}", v + 1));
        }
        extra.push('\n');
    }
    use std::io::Write as _;
    let feed0 = feeds.split(',').next().expect("first feed").to_string();
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&feed0)
        .expect("append to feed");
    f.write_all(extra.as_bytes()).expect("append rows");
    drop(f);
    let start = Instant::now();
    loop {
        if std::fs::read(&topo_ckpt).ok() != ckpt_before {
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "checkpoint never advanced after the bad model push"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // A valid model push is picked up and swapped into every shard.
    let rejected = fingerprint(&model);
    for _ in 0..100 {
        std::fs::write(&model, &clean).expect("restore model");
        if fingerprint(&model) != rejected {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    wait_for(&stderr_log, "model reloaded", Duration::from_secs(30));

    child.kill().expect("stop daemon");
    child.wait().expect("reap daemon");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_exit_codes_are_typed() {
    let dir = tempdir("exitcodes");

    // Missing required flags: usage error, exit 2.
    let out = hddpred().arg("serve").output().expect("spawn serve");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--feed"));

    // An invalid shard count is a usage error before anything is opened.
    for shards in ["0", "3"] {
        let out = hddpred()
            .arg("serve")
            .args(["--feed", "feed.csv", "--model", "model.json"])
            .args(["--out", "alarms.csv", "--shards", shards])
            .output()
            .expect("spawn serve");
        assert_eq!(
            out.status.code(),
            Some(2),
            "--shards {shards} must be refused"
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("power of two"),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let (fleet, model) = setup(&dir);

    // A corrupt topology checkpoint is a serve failure, exit 8.
    let ckpt = dir.join("corrupt");
    std::fs::create_dir_all(&ckpt).expect("create checkpoint dir");
    std::fs::write(ckpt.join("topology.ckpt"), "definitely not a checkpoint").expect("write junk");
    let out = hddpred()
        .arg("serve")
        .arg("--feed")
        .arg(&fleet)
        .arg("--model")
        .arg(&model)
        .arg("--out")
        .arg(dir.join("alarms.csv"))
        .arg("--checkpoint")
        .arg(&ckpt)
        .args(["--exit-on-idle", "1"])
        .output()
        .expect("spawn serve");
    assert_eq!(
        out.status.code(),
        Some(8),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("checkpoint"));

    // Shard files without the merge state are refused, exit 8: resuming
    // without `topology.ckpt` could duplicate sink lines.
    let orphan = dir.join("orphan");
    std::fs::create_dir_all(&orphan).expect("create checkpoint dir");
    std::fs::write(orphan.join("shard-0.ckpt"), "leftover shard state").expect("write orphan");
    let out = hddpred()
        .arg("serve")
        .arg("--feed")
        .arg(&fleet)
        .arg("--model")
        .arg(&model)
        .arg("--out")
        .arg(dir.join("alarms.csv"))
        .arg("--checkpoint")
        .arg(&orphan)
        .args(["--exit-on-idle", "1"])
        .output()
        .expect("spawn serve");
    assert_eq!(
        out.status.code(),
        Some(8),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("topology.ckpt"));
    std::fs::remove_dir_all(&dir).ok();
}
