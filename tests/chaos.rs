//! Chaos suite: every CSV fault class × 20 seeds driven through the full
//! train → save → load → detect pipeline.
//!
//! Three properties are enforced for every injected corruption:
//!
//! 1. **Zero panics** — the pipeline finishes and returns values.
//! 2. **Exact accounting** — the ingestion [`QuarantineReport`] counters
//!    *equal* the injector's [`InjectionReport`], class by class.
//! 3. **Bounded degradation** — detection quality on the corrupted
//!    stream stays within a fixed envelope of the clean baseline.
//!
//! Model-file corruption (single bit flips, truncation) and worker
//! panics are covered by their own tests at the bottom.

use hddpred::cart::{Class, ClassSample, ClassificationTreeBuilder};
use hddpred::eval::{SavedModel, VotingDetector, VotingRule};
use hddpred::fault::{FaultClass, FaultInjector, InjectionReport};
use hddpred::par::{ParError, ThreadPool};
use hddpred::smart::csv::{
    read_series_quarantined, write_header, write_series, CsvError, IngestPolicy, QuarantineReport,
};
use hddpred::smart::{DriveClass, DriveId, Hour, SmartSample, SmartSeries, NUM_ATTRIBUTES};
use hddpred::stats::FeatureSet;
use std::path::{Path, PathBuf};

/// Seeds per fault class — every one must replay byte-identically.
const SEEDS: u64 = 20;

/// Hand-built fleet shape: small enough to train in milliseconds, big
/// enough that 5% corruption leaves a usable majority.
const HOURS: u32 = 200;
const N_GOOD: u32 = 30;
const N_FAILED: u32 = 6;
const CLEAN_ROWS: usize = ((N_GOOD + N_FAILED) * HOURS) as usize;

/// Failed-sample window: failing drives drift over their last 48 hours.
const WINDOW: u32 = 48;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hddpred-chaos-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// One deterministic hourly reading. Good drives wiggle around a flat
/// baseline; failing drives ramp every attribute over their final
/// [`WINDOW`] hours, so both plain values and 6-hour change rates carry
/// signal.
fn sample(drive: u32, hour: u32, failing: bool) -> SmartSample {
    let mut values = [0.0f32; NUM_ATTRIBUTES];
    for (i, v) in values.iter_mut().enumerate() {
        let base = 90.0 + i as f32;
        let wiggle =
            ((drive.wrapping_mul(31) + hour.wrapping_mul(7) + i as u32 * 13) % 5) as f32 * 0.5;
        let drift = if failing && hour + WINDOW >= HOURS {
            (hour + WINDOW - HOURS) as f32 * (2.0 + i as f32 * 0.3)
        } else {
            0.0
        };
        *v = base + wiggle + drift;
    }
    SmartSample {
        hour: Hour(hour),
        values,
    }
}

fn fleet() -> Vec<SmartSeries> {
    let mut out = Vec::new();
    for d in 0..N_GOOD {
        let samples = (0..HOURS).map(|h| sample(d, h, false)).collect();
        out.push(SmartSeries::new(DriveId(d), DriveClass::Good, samples));
    }
    for d in 0..N_FAILED {
        let samples = (0..HOURS).map(|h| sample(100 + d, h, true)).collect();
        out.push(SmartSeries::new(
            DriveId(100 + d),
            DriveClass::Failed {
                fail_hour: Hour(HOURS),
            },
            samples,
        ));
    }
    out
}

fn fleet_csv() -> String {
    let mut buf = Vec::new();
    write_header(&mut buf).expect("write header");
    for s in fleet() {
        write_series(&mut buf, &s).expect("write series");
    }
    String::from_utf8(buf).expect("csv is utf-8")
}

/// Ingest with a generous ceiling (the per-class rates stay near 5%).
fn ingest(text: &str) -> (Vec<SmartSeries>, QuarantineReport) {
    let policy = IngestPolicy {
        max_quarantine_fraction: 0.5,
    };
    let import = read_series_quarantined(text.as_bytes(), &policy).expect("within ceiling");
    (import.series, import.report)
}

/// Train on the ingested series, persist the model, and reload it — the
/// full save/load round trip is part of every chaos run.
fn train_and_roundtrip(series: &[SmartSeries], dir: &Path, tag: &str) -> SavedModel {
    let features = FeatureSet::critical13();
    let mut samples = Vec::new();
    for s in series {
        match s.class.fail_hour() {
            None => {
                for idx in [s.len() / 4, s.len() / 2, 3 * s.len() / 4] {
                    if let Some(f) = features.extract(s, idx) {
                        samples.push(ClassSample::new(f, Class::Good));
                    }
                }
            }
            Some(fail) => {
                let start = fail - WINDOW;
                for idx in 0..s.len() {
                    if s.samples()[idx].hour < start {
                        continue;
                    }
                    if let Some(f) = features.extract(s, idx) {
                        samples.push(ClassSample::new(f, Class::Failed));
                    }
                }
            }
        }
    }
    let tree = ClassificationTreeBuilder::new()
        .build(&samples)
        .expect("corrupted stream must still be trainable");
    let path = dir.join(format!("{tag}.json"));
    SavedModel::from(tree.compile())
        .save(&path)
        .expect("save model");
    SavedModel::load_expecting(&path, features.len()).expect("reload model")
}

/// Scan every series: (failed drives alarmed, good drives alarmed).
fn detect_counts(series: &[SmartSeries], model: &SavedModel) -> (usize, usize) {
    let features = FeatureSet::critical13();
    let detector = VotingDetector::new(model, &features, 11, VotingRule::Majority);
    let mut failed_detected = 0usize;
    let mut good_alarms = 0usize;
    for s in series {
        let alarmed = detector.first_alarm(s, Hour(0)..Hour(u32::MAX)).is_some();
        match (s.class, alarmed) {
            (DriveClass::Good, true) => good_alarms += 1,
            (DriveClass::Failed { .. }, true) => failed_detected += 1,
            _ => {}
        }
    }
    (failed_detected, good_alarms)
}

/// Clean-stream baseline: ingest must be clean, detection must work.
fn baseline(dir: &Path) -> (usize, usize) {
    let (series, report) = ingest(&fleet_csv());
    assert!(
        report.is_clean(),
        "clean stream must ingest cleanly: {report}"
    );
    assert_eq!(report.rows_seen, CLEAN_ROWS);
    let model = train_and_roundtrip(&series, dir, "baseline");
    let (fdr, far) = detect_counts(&series, &model);
    assert!(
        fdr >= N_FAILED as usize - 1,
        "baseline must detect nearly all failing drives, got {fdr}/{N_FAILED}"
    );
    assert!(
        far <= 1,
        "baseline must stay nearly alarm-free, got {far} false alarms"
    );
    (fdr, far)
}

/// Run one fault class across all seeds: exact quarantine accounting via
/// `check`, then the full pipeline with bounded degradation.
fn chaos_class(class: FaultClass, rate: f64, check: impl Fn(&QuarantineReport, &InjectionReport)) {
    let dir = tempdir(class.label());
    let clean = fleet_csv();
    let (base_fdr, base_far) = baseline(&dir);

    for seed in 0..SEEDS {
        let (corrupted, injected) = FaultInjector::new(seed).corrupt_csv(&clean, class, rate);
        let (series, report) = ingest(&corrupted);

        // Exact accounting: quarantine counters equal injected counts.
        check(&report, &injected);
        assert_eq!(report.conflicting_rows, 0, "{class:?}/{seed}");
        assert_eq!(
            report.rows_seen,
            CLEAN_ROWS - injected.dropped_rows + injected.duplicated_rows + injected.rotations,
            "{class:?}/{seed}"
        );

        // The pipeline still runs end to end and degrades gracefully.
        let model = train_and_roundtrip(&series, &dir, &format!("{}-{seed}", class.label()));
        let (fdr, far) = detect_counts(&series, &model);
        assert!(
            fdr + 2 >= base_fdr,
            "{class:?}/{seed}: detection collapsed, {fdr} vs baseline {base_fdr}"
        );
        assert!(
            far <= base_far + 3,
            "{class:?}/{seed}: false alarms exploded, {far} vs baseline {base_far}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_nan_values() {
    chaos_class(FaultClass::NanValue, 0.05, |report, injected| {
        assert_eq!(report.non_finite_rows, injected.nan_rows);
        assert_eq!(report.parse_failures, 0);
        assert_eq!(report.out_of_range_rows, 0);
    });
}

#[test]
fn chaos_out_of_range_values() {
    chaos_class(FaultClass::OutOfRangeValue, 0.05, |report, injected| {
        assert_eq!(report.out_of_range_rows, injected.out_of_range_rows);
        assert_eq!(report.parse_failures, 0);
        assert_eq!(report.non_finite_rows, 0);
    });
}

#[test]
fn chaos_truncated_rows() {
    chaos_class(FaultClass::TruncatedRow, 0.05, |report, injected| {
        assert_eq!(report.parse_failures, injected.truncated_rows);
        assert_eq!(report.non_finite_rows, 0);
        assert_eq!(report.out_of_range_rows, 0);
    });
}

#[test]
fn chaos_garbage_rows() {
    chaos_class(FaultClass::GarbageRow, 0.05, |report, injected| {
        assert_eq!(report.parse_failures, injected.garbage_rows);
        assert_eq!(report.non_finite_rows, 0);
    });
}

#[test]
fn chaos_dropped_rows() {
    chaos_class(FaultClass::DroppedRow, 0.05, |report, injected| {
        // Dropped rows are invisible to the reader: nothing quarantined,
        // only the row count shrinks (asserted via rows_seen above).
        assert!(injected.dropped_rows > 0);
        assert_eq!(report.quarantined_rows(), 0);
        assert_eq!(report.duplicate_timestamps, 0);
    });
}

#[test]
fn chaos_duplicated_timestamps() {
    chaos_class(FaultClass::DuplicatedTimestamp, 0.05, |report, injected| {
        assert_eq!(report.duplicate_timestamps, injected.duplicated_rows);
        assert_eq!(report.quarantined_rows(), 0);
    });
}

#[test]
fn chaos_out_of_order_timestamps() {
    chaos_class(FaultClass::OutOfOrderTimestamp, 0.02, |report, injected| {
        assert!(injected.swapped_pairs > 0);
        assert_eq!(report.out_of_order_rows, injected.swapped_pairs);
        assert_eq!(report.quarantined_rows(), 0);
    });
}

#[test]
fn chaos_partial_trailing_lines() {
    // A feed caught mid-append: the batch reader quarantines exactly the
    // one half-written row at the end of the file.
    chaos_class(FaultClass::PartialTrailingLine, 0.05, |report, injected| {
        assert_eq!(injected.partial_tails, 1);
        assert_eq!(report.parse_failures, injected.partial_tails);
        assert_eq!(report.non_finite_rows, 0);
        assert_eq!(report.out_of_range_rows, 0);
    });
}

#[test]
fn chaos_mid_stream_rotations() {
    // Header copies mid-stream: each is one unparseable row to the batch
    // reader, nothing more — the surrounding drive runs stay intact.
    chaos_class(FaultClass::MidStreamRotation, 0.05, |report, injected| {
        assert!(injected.rotations > 0);
        assert_eq!(report.parse_failures, injected.rotations);
        assert_eq!(report.non_finite_rows, 0);
        assert_eq!(report.duplicate_timestamps, 0);
    });
}

#[test]
fn quarantine_ceiling_rejects_hopeless_streams() {
    let clean = fleet_csv();
    let (corrupted, _) = FaultInjector::new(1).corrupt_csv(&clean, FaultClass::GarbageRow, 0.8);
    let err = read_series_quarantined(corrupted.as_bytes(), &IngestPolicy::default())
        .expect_err("80% garbage must exceed the 10% default ceiling");
    assert!(
        matches!(err, CsvError::QuarantineLimit { .. }),
        "expected QuarantineLimit, got {err}"
    );
}

#[test]
fn any_sampled_bit_flip_in_a_saved_model_is_rejected() {
    let dir = tempdir("bitflip");
    let (series, _) = ingest(&fleet_csv());
    let model = train_and_roundtrip(&series, &dir, "pristine");
    let pristine = dir.join("pristine.json");
    let bytes = std::fs::read(&pristine).expect("read model");

    let flipped_path = dir.join("flipped.json");
    for salt in 0..SEEDS * 2 {
        let mut corrupted = bytes.clone();
        let flip = FaultInjector::new(99)
            .flip_bit(&mut corrupted, salt)
            .expect("non-empty file");
        std::fs::write(&flipped_path, &corrupted).expect("write flipped model");
        let err = SavedModel::load(&flipped_path);
        assert!(
            err.is_err(),
            "bit {} of byte {} flipped but the model loaded anyway",
            flip.bit,
            flip.offset
        );
    }

    // The pristine file is untouched by all of the above.
    let reloaded = SavedModel::load(&pristine).expect("pristine model still loads");
    assert_eq!(reloaded, model);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_panic_is_contained_as_a_typed_error() {
    let pool = ThreadPool::global();
    let items: Vec<u32> = (0..100).collect();

    let err = pool
        .try_parallel_map(&items, |&i| {
            assert!(i != 37, "injected worker fault");
            i * 2
        })
        .expect_err("the injected panic must surface as an error");
    assert!(
        matches!(&err, ParError::Panic { message, .. } if message.contains("injected worker fault")),
        "panic message survives: {err}"
    );

    // The pool (and the process) is alive and consistent afterwards.
    let ok = pool
        .try_parallel_map(&items, |&i| i + 1)
        .expect("pool survives a contained panic");
    assert_eq!(ok.len(), items.len());
    assert_eq!(ok[99], 100);
}
