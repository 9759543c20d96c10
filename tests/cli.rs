//! End-to-end tests of the `hddpred` command-line interface: generate →
//! train → predict on real files.

use hddpred::cart::{Class, ClassSample, ClassificationTreeBuilder};
use hddpred::eval::SavedModel;
use std::process::Command;

fn hddpred() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hddpred"))
}

/// Write a valid saved model trained on 2 features (not the pipeline's
/// 13) through the library's own persistence path.
fn write_narrow_model(path: &std::path::Path) {
    let samples: Vec<ClassSample> = (0..40)
        .map(|i| {
            let x = f64::from(i % 10);
            let class = if x < 5.0 { Class::Good } else { Class::Failed };
            ClassSample::new(vec![x, f64::from(i % 3)], class)
        })
        .collect();
    let tree = ClassificationTreeBuilder::new()
        .build(&samples)
        .expect("trainable narrow model");
    SavedModel::from(tree.compile())
        .save(path)
        .expect("save narrow model");
}

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hddpred-cli-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn generate_train_predict_round_trip() {
    let dir = tempdir();
    let traces = dir.join("traces.csv");
    let model = dir.join("model.json");

    let out = hddpred()
        .args(["generate", "--out"])
        .arg(&traces)
        .args(["--scale", "0.01", "--seed", "5"])
        .output()
        .expect("spawn generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(traces.exists());

    let out = hddpred()
        .args(["train", "--data"])
        .arg(&traces)
        .arg("--out")
        .arg(&model)
        .output()
        .expect("spawn train");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("leaves"), "{stderr}");
    assert!(stderr.contains("root"), "prints rules: {stderr}");

    let out = hddpred()
        .args(["predict", "--data"])
        .arg(&traces)
        .arg("--model")
        .arg(&model)
        .args(["--voters", "11"])
        .output()
        .expect("spawn predict");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("drive,alarm_hour"), "{stdout}");
    // The fleet at scale 0.01 contains failed drives; a trained model
    // must alarm on at least one of them.
    assert!(stdout.lines().count() >= 2, "no alarms raised:\n{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_and_unknown_commands() {
    let out = hddpred().arg("--help").output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    let out = hddpred().arg("frobnicate").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn train_requires_flags() {
    let out = hddpred().arg("train").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--data"));
}

#[test]
fn a_repeated_flag_is_a_usage_error_that_names_it() {
    // Keeping either value would serve one feed and drop the other.
    let dir = tempdir().join("repeated-flag");
    std::fs::create_dir_all(&dir).expect("create dir");
    let feeds = [dir.join("a.csv"), dir.join("b.csv")];
    for feed in &feeds {
        std::fs::write(feed, "").expect("write feed");
    }
    let sink = dir.join("alarms.csv");
    let out = hddpred()
        .arg("serve")
        .arg("--feed")
        .arg(&feeds[0])
        .arg("--feed")
        .arg(&feeds[1])
        .args(["--model", "model.json", "--exit-on-idle", "1", "--out"])
        .arg(&sink)
        .output()
        .expect("spawn serve");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--feed is given more than once"),
        "{stderr}"
    );
    assert!(!sink.exists(), "a refused run writes no sink");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_data_file_exits_with_io_code() {
    let out = hddpred()
        .args([
            "train",
            "--data",
            "/nonexistent/traces.csv",
            "--out",
            "/nonexistent/model.json",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(3), "i/o failures exit 3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("/nonexistent/traces.csv"),
        "names the path: {stderr}"
    );
}

#[test]
fn detect_round_trips_a_saved_model() {
    let dir = tempdir();
    let traces = dir.join("traces.csv");
    let model = dir.join("model.json");

    let out = hddpred()
        .args(["generate", "--out"])
        .arg(&traces)
        .args(["--scale", "0.01", "--seed", "11"])
        .output()
        .expect("spawn generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = hddpred()
        .args(["train", "--data"])
        .arg(&traces)
        .arg("--out")
        .arg(&model)
        .output()
        .expect("spawn train");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The model file is the checksummed container: a header line with
    // the magic and per-block CRCs, then the versioned envelope payload.
    let text = std::fs::read_to_string(&model).expect("model file written");
    let (header, payload) = text.split_once('\n').expect("two-line container");
    assert!(header.contains("\"magic\":\"hddpred-model\""), "{header}");
    assert!(header.contains("\"crc32\":["), "{header}");
    assert!(payload.contains("\"format_version\":2"), "{payload}");
    assert!(payload.contains("\"kind\":\"compact-forest\""), "{payload}");
    assert!(payload.contains("\"n_features\":13"), "{payload}");

    let out = hddpred()
        .args(["detect", "--data"])
        .arg(&traces)
        .arg("--model")
        .arg(&model)
        .output()
        .expect("spawn detect");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("drive,alarm_hour"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn detect_rejects_feature_count_mismatch() {
    let dir = tempdir();
    let traces = dir.join("traces.csv");
    let model = dir.join("narrow.json");

    let out = hddpred()
        .args(["generate", "--out"])
        .arg(&traces)
        .args(["--scale", "0.01", "--seed", "7"])
        .output()
        .expect("spawn generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A well-formed model trained on 2 features, not 13.
    write_narrow_model(&model);

    let out = hddpred()
        .args(["detect", "--data"])
        .arg(&traces)
        .arg("--model")
        .arg(&model)
        .output()
        .expect("spawn detect");
    assert_eq!(
        out.status.code(),
        Some(5),
        "rejected model files exit 5: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("feature count mismatch"), "{stderr}");
    assert!(stderr.contains("13") && stderr.contains('2'), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn detect_rejects_a_bit_flipped_model_file() {
    let dir = tempdir();
    let traces = dir.join("traces.csv");
    let model = dir.join("flipped.json");

    let out = hddpred()
        .args(["generate", "--out"])
        .arg(&traces)
        .args(["--scale", "0.01", "--seed", "3"])
        .output()
        .expect("spawn generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    write_narrow_model(&model);
    // Flip one payload bit; the checksummed container must refuse it.
    let mut bytes = std::fs::read(&model).expect("read model");
    let header_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .expect("container header line");
    let target = header_end + 1 + (bytes.len() - header_end - 1) / 2;
    bytes[target] ^= 0x10;
    std::fs::write(&model, &bytes).expect("write corrupted model");

    let out = hddpred()
        .args(["detect", "--data"])
        .arg(&traces)
        .arg("--model")
        .arg(&model)
        .output()
        .expect("spawn detect");
    assert_eq!(
        out.status.code(),
        Some(5),
        "corrupt model files exit 5: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("corrupt at byte"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_rows_are_quarantined_up_to_the_ceiling() {
    let dir = tempdir();
    let traces = dir.join("traces.csv");
    let model = dir.join("model.json");

    let out = hddpred()
        .args(["generate", "--out"])
        .arg(&traces)
        .args(["--scale", "0.01", "--seed", "13"])
        .output()
        .expect("spawn generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Corrupt a sprinkling of data rows: garbage text every 211 lines.
    let text = std::fs::read_to_string(&traces).expect("read traces");
    let corrupted: Vec<String> = text
        .lines()
        .enumerate()
        .map(|(i, line)| {
            if i > 0 && i % 211 == 0 {
                "<<garbage>>".to_string()
            } else {
                line.to_string()
            }
        })
        .collect();
    std::fs::write(&traces, corrupted.join("\n") + "\n").expect("write corrupted traces");

    // Under the default 10% ceiling the sparse corruption is quarantined
    // and training proceeds.
    let out = hddpred()
        .args(["train", "--data"])
        .arg(&traces)
        .arg("--out")
        .arg(&model)
        .output()
        .expect("spawn train");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("parse failures"),
        "itemizes skips: {stderr}"
    );

    // A zero ceiling refuses the same file with the quarantine exit code.
    let out = hddpred()
        .args(["train", "--data"])
        .arg(&traces)
        .arg("--out")
        .arg(&model)
        .args(["--max-quarantine", "0"])
        .output()
        .expect("spawn strict train");
    assert_eq!(
        out.status.code(),
        Some(7),
        "quarantine ceiling exits 7: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_rejects_unknown_family() {
    let dir = tempdir();
    let out = hddpred()
        .args(["generate", "--family", "Z", "--out"])
        .arg(dir.join("x.csv"))
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown family"));
    std::fs::remove_dir_all(&dir).ok();
}

/// `hddpred lifecycle --checkpoint` reports the state the snapshot and
/// the log restore together: counters that moved in frames appended
/// after `lifecycle.ckpt` are the ones printed.
#[test]
fn lifecycle_status_reads_the_frames_logged_after_the_snapshot() {
    use hddpred::eval::VotingRule;
    use hddpred::lifecycle::{
        lifecycle_log_path, LifecycleConfig, LifecycleFaults, LifecycleManager,
    };
    use hddpred::par::ThreadPool;
    use hddpred::serve::RowEvent;

    let dir = tempdir().join("lifecycle-status");
    std::fs::create_dir_all(&dir).expect("create status dir");
    let model = dir.join("model.json");
    write_narrow_model(&model);
    let ckpt = dir.join("ckpt");
    let mut config = LifecycleConfig::new(3, VotingRule::Majority);
    config.retrain_rows = usize::MAX;
    let mut manager = LifecycleManager::new(config, model.clone(), LifecycleFaults::default());
    let pool = ThreadPool::serial();
    let consume = |manager: &mut LifecycleManager, from: u64, rows: u64| {
        let events: Vec<RowEvent> = (from..from + rows)
            .map(|seq| RowEvent {
                seq,
                drive: (seq % 10) as u32,
                hour: 100 + (seq / 10) as u32,
                fail_hour: None,
                features: vec![(seq % 7) as f64, 1.0],
                incumbent_score: 1.0,
            })
            .collect();
        manager.consume(&pool, &events, 0, 0, from + rows);
    };
    consume(&mut manager, 0, 300);
    manager.save_checkpoint(&ckpt).expect("snapshot save");
    consume(&mut manager, 300, 10);
    manager.save_checkpoint(&ckpt).expect("logged save");
    let logged = std::fs::metadata(lifecycle_log_path(&ckpt)).map_or(0, |m| m.len());
    assert!(logged > 0, "the second save must append to the log");

    let out = hddpred()
        .args(["lifecycle", "--model"])
        .arg(&model)
        .arg("--checkpoint")
        .arg(&ckpt)
        .output()
        .expect("spawn lifecycle");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let value = |name: &str| -> Option<String> {
        stdout.lines().find_map(|line| {
            let mut fields = line.split_whitespace();
            (fields.next()? == name).then(|| fields.next().map(String::from))?
        })
    };
    assert_eq!(value("phase").as_deref(), Some("idle"), "{stdout}");
    assert_eq!(value("events_consumed").as_deref(), Some("310"), "{stdout}");
    assert_eq!(value("promotions").as_deref(), Some("0"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
