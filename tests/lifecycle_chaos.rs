//! Chaos tests for the online model lifecycle.
//!
//! The two-phase promotion protocol is failed at every write boundary —
//! power loss, ENOSPC, EIO and short writes — across 20 seeds, half of
//! which also bit-flip the staged candidate, and recovery must always
//! land on *exactly* the incumbent or *exactly* the candidate, never a
//! torn model. Automatic rollback is exercised
//! end-to-end through the public facade, and the gauntlet's seeded
//! lifecycle fault corpus is driven to its specified outcomes: a
//! regressing candidate is refused at the gate and the firmware-drift
//! fleet promotes a retrained model that recovers the incumbent's lost
//! detection rate, identically at every shard count.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hddpred::cart::{Class, ClassSample, ClassificationTreeBuilder};
use hddpred::eval::{Predictor, SavedModel, VotingRule};
use hddpred::fault::FaultClass;
use hddpred::hdd_json::disk::{Fault, FaultDisk};
use hddpred::lifecycle::{
    LifecycleConfig, LifecycleFaults, LifecycleManager, ModelStore, Phase, Recovery,
};
use hddpred::par::ThreadPool;
use hddpred::serve::RowEvent;
use hddpred::workload::gauntlet::run;
use hddpred::workload::{GauntletConfig, Profile, RetrainSpec, Scenario};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hddpred-lifecycle-chaos-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A small separable tree whose file bytes vary with `shift`.
fn model(shift: f64) -> SavedModel {
    let samples: Vec<ClassSample> = (0..40)
        .map(|i| {
            let x = f64::from(i % 20) + shift;
            let class = if f64::from(i % 20) < 10.0 {
                Class::Failed
            } else {
                Class::Good
            };
            ClassSample::new(vec![x, x * 0.5], class)
        })
        .collect();
    SavedModel::from(
        ClassificationTreeBuilder::new()
            .build(&samples)
            .expect("train fixture tree")
            .compile(),
    )
}

fn seeded_store(dir: &Path) -> ModelStore {
    let path = dir.join("model.json");
    model(0.0).save(&path).expect("seed live model");
    ModelStore::new(path, 3)
}

/// Run `promote` over a disk that injects `fault` at boundary `k`;
/// past the last boundary, lose power after `promote` returns.
fn promote_failing_at(store: &ModelStore, k: usize, fault: Fault) {
    let disk = Arc::new(FaultDisk::failing_at(k, fault));
    let promoted = store.clone().with_disk(disk.clone()).promote();
    assert_eq!(promoted.is_err(), disk.fired(), "boundary {k}");
    if !disk.fired() {
        disk.power_loss().expect("lose power after the promotion");
    }
}

#[test]
fn promotion_crash_at_every_step_across_20_seeds_is_never_torn() {
    let counting = Arc::new(FaultDisk::counting());
    let probe = seeded_store(&tempdir("count"));
    probe.stage_candidate(&model(1.0)).expect("stage candidate");
    probe
        .clone()
        .with_disk(counting.clone())
        .promote()
        .expect("promote");
    let boundaries = counting.boundaries();
    // The marker is a replace: temp write, sync, rename, directory sync.
    let marker_durable = 4;
    for seed in 0..20u64 {
        for k in 0..=boundaries {
            for fault in Fault::ALL {
                let at = format!("{fault:?} at boundary {k}, seed {seed}");
                let dir = tempdir(&format!("cut-{seed}-{k}-{fault:?}"));
                let store = seeded_store(&dir);
                let incumbent_fp = store.live_fingerprint().expect("incumbent fingerprint");
                let staged_fp = store
                    .stage_candidate(&model(1.0 + seed as f64))
                    .expect("stage candidate");
                promote_failing_at(&store, k, fault);

                // Odd seeds additionally rot the candidate while the
                // process is down — a crash plus disk corruption in one
                // window. Once the candidate is the live model there is
                // nothing left to rot.
                let candidate = store.candidate_path();
                let corrupted = seed % 2 == 1 && candidate.exists();
                if corrupted {
                    let mut bytes = std::fs::read(&candidate).expect("read candidate");
                    let at = (seed as usize * 7919) % bytes.len();
                    bytes[at] ^= 1 << (seed % 8);
                    std::fs::write(&candidate, &bytes).expect("write corrupt candidate");
                }

                // Restart: recovery must land on exactly one of the two
                // models, and a second recovery must be a clean no-op.
                let recovery = store.recover().expect("recover");
                let live_fp = store.live_fingerprint().expect("live fingerprint");
                assert!(
                    live_fp == incumbent_fp || live_fp == staged_fp,
                    "{at}: live model is neither incumbent nor candidate"
                );
                SavedModel::load(store.model_path()).expect("live model must load");
                if fault == Fault::PowerLoss {
                    // Exactly the durable intent decides the outcome.
                    let intent = k >= marker_durable;
                    let expected = if intent && !corrupted {
                        staged_fp
                    } else {
                        incumbent_fp
                    };
                    assert_eq!(live_fp, expected, "{at}");
                    match (intent && k < boundaries, corrupted) {
                        (true, true) => assert!(matches!(recovery, Recovery::Aborted { .. })),
                        (true, false) => assert_eq!(
                            recovery,
                            Recovery::Completed {
                                fingerprint: staged_fp
                            },
                            "{at}"
                        ),
                        (false, _) => assert_eq!(recovery, Recovery::Clean, "{at}"),
                    }
                } else if corrupted {
                    assert_eq!(live_fp, incumbent_fp, "{at}");
                }
                assert!(!store.marker_path().exists(), "{at}");
                assert_eq!(store.recover().expect("second recover"), Recovery::Clean);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

#[test]
fn corrupt_candidate_after_rotation_restores_last_known_good_from_history() {
    let dir = tempdir("restore");
    let store = seeded_store(&dir);
    let incumbent_fp = store.live_fingerprint().expect("incumbent fingerprint");
    store.stage_candidate(&model(9.0)).expect("stage candidate");
    // Lose power once the live model's demotion into history is durable
    // (boundaries 0-3 write the marker, 4-5 rename the live model to
    // `.prev-1`), then flip a bit in the candidate: recovery has to pull
    // the incumbent back out of `.prev-1`.
    promote_failing_at(&store, 6, Fault::PowerLoss);
    assert!(!store.model_path().exists());
    let candidate = store.candidate_path();
    let mut bytes = std::fs::read(&candidate).expect("read candidate");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&candidate, &bytes).expect("write corrupt candidate");

    assert_eq!(
        store.recover().expect("recover"),
        Recovery::Aborted {
            restored_from_history: true
        }
    );
    assert_eq!(store.live_fingerprint().expect("live"), incumbent_fp);
    SavedModel::load(store.model_path()).expect("restored model must load");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A separable two-feature fleet event: drives 0–4 fail at hour 200
/// with low feature values, drives 5–9 stay good with high ones. The
/// seeded incumbent (trained the wrong way round) misses the failures,
/// so the first retrained candidate clears the gate.
fn event(seq: u64, drive: u32, hour: u32) -> RowEvent {
    let failing = drive < 5;
    let x = if failing {
        f64::from(drive) + f64::from(hour % 7) * 0.1
    } else {
        50.0 + f64::from(drive) + f64::from(hour % 7) * 0.1
    };
    RowEvent {
        seq,
        drive,
        hour,
        fail_hour: failing.then_some(200),
        features: vec![x, x * 0.5],
        incumbent_score: 1.0,
    }
}

fn wrong_way_incumbent(dir: &Path) -> PathBuf {
    let samples: Vec<ClassSample> = (0..60)
        .map(|i| {
            let x = f64::from(i % 30);
            let class = if x >= 20.0 {
                Class::Failed
            } else {
                Class::Good
            };
            ClassSample::new(vec![x, x * 0.5], class)
        })
        .collect();
    let model = SavedModel::from(
        ClassificationTreeBuilder::new()
            .build(&samples)
            .expect("train incumbent fixture")
            .compile(),
    );
    let path = dir.join("model.json");
    model.save(&path).expect("save incumbent fixture");
    path
}

#[test]
fn probation_alarm_flood_rolls_back_automatically_even_across_a_crash() {
    let dir = tempdir("auto-rollback");
    let model_path = wrong_way_incumbent(&dir);
    let mut config = LifecycleConfig::new(3, VotingRule::Majority);
    config.retrain_rows = 40;
    config.shadow_rows = 40;
    config.probation_rows = 40;
    config.gate.max_far = 0.2;
    let mut manager = LifecycleManager::new(
        config.clone(),
        model_path.clone(),
        LifecycleFaults::default(),
    );
    let store = ModelStore::new(model_path.clone(), 3);
    let incumbent_fp = store.live_fingerprint().expect("incumbent fingerprint");
    let pool = ThreadPool::serial();

    // Drive the full train → shadow → gate cycle, then promote at the
    // quiesce: 40 rows of cadence plus 40 rows of shadow traffic.
    let mut seq = 0u64;
    let mut feed = |manager: &mut LifecycleManager, ticks: usize, alarms: usize| {
        let mut notes = Vec::new();
        for _ in 0..ticks {
            let hour = 100 + u32::try_from(seq / 10).expect("hour fits");
            let batch: Vec<RowEvent> = (0..10)
                .map(|d| event(seq + u64::from(d), d, hour))
                .collect();
            seq += 10;
            notes.extend(manager.consume(&pool, &batch, alarms, 0, seq));
        }
        notes
    };
    feed(&mut manager, 8, 0);
    assert_eq!(manager.phase(), Phase::Promoting);
    let promoted_fp = manager.candidate_fingerprint().expect("candidate staged");
    manager
        .apply_staged()
        .expect("apply promotion")
        .expect("a promoted model");
    assert_eq!(manager.phase(), Phase::Probation);
    assert_eq!(store.live_fingerprint().expect("live"), promoted_fp);

    // Probation traffic arrives with a pathological alarm flood: the
    // guard must stage an automatic rollback...
    let notes = feed(&mut manager, 1, 9);
    assert_eq!(manager.phase(), Phase::RollingBack, "{notes:?}");
    assert!(manager.has_staged_swap());

    // ...and the staged rollback must survive a kill -9 in the window
    // between staging and the quiesce: checkpoint, drop the manager,
    // resume, and the rollback still applies exactly once.
    manager
        .save_checkpoint(&dir)
        .expect("checkpoint the staged rollback");
    drop(manager);
    let (mut resumed, _) = LifecycleManager::resume(
        config,
        model_path,
        LifecycleFaults::default(),
        Some(dir.as_path()),
    )
    .expect("resume from checkpoint");
    assert_eq!(resumed.phase(), Phase::RollingBack);
    let restored = resumed
        .apply_staged()
        .expect("apply rollback")
        .expect("the restored model");
    assert_eq!(resumed.counters().rollbacks, 1);
    assert_eq!(resumed.phase(), Phase::Idle);
    assert_eq!(store.live_fingerprint().expect("live"), incumbent_fp);
    // The bad model is demoted into history, not lost, and the restored
    // incumbent is back to its (blind) scoring.
    assert_eq!(
        store
            .fingerprint_of(&store.prev_path(1))
            .expect("prev-1 fingerprint"),
        promoted_fp
    );
    assert!(restored.score(&[2.0, 1.0]) > 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A gauntlet config small enough for a test but large enough that the
/// retrain cadence, shadow window and gate all fire.
fn drift_config(tag: &str, fault: Option<FaultClass>) -> GauntletConfig {
    let dir = tempdir(tag);
    let mut config = GauntletConfig::new(42, Profile::Adversarial, dir);
    config.scenario = Some(Scenario::FirmwareCohortDrift);
    config.max_shards = 2;
    config.retrain = Some(RetrainSpec::new(fault));
    config
}

#[test]
fn firmware_drift_promotes_a_recovering_candidate_identically_at_all_shard_counts() {
    let config = drift_config("drift", None);
    let outcomes = run(&config).expect("gauntlet run failed");
    assert_eq!(outcomes.len(), 2);
    let serial = outcomes[0].lifecycle.as_ref().expect("lifecycle outcome");
    let sharded = outcomes[1].lifecycle.as_ref().expect("lifecycle outcome");

    // The lifecycle is part of the determinism contract: same promotion,
    // same live model bytes, same counters at 1 and 2 shards.
    assert_eq!(outcomes[0].sink, outcomes[1].sink, "sink diverged");
    assert_eq!(serial.live_fingerprint, sharded.live_fingerprint);
    assert_eq!(serial.counters, sharded.counters);

    // The drift fleet must actually drive a promotion that recovers
    // detection the frozen incumbent lost.
    assert!(serial.counters.promotions >= 1, "{:?}", serial.counters);
    assert!(serial.counters.gate_clearances >= 1);
    assert_eq!(serial.counters.rollbacks, 0);
    assert!(
        serial.post_promotion_fdr >= serial.incumbent_fdr,
        "post-promotion FDR {} regressed below incumbent {}",
        serial.post_promotion_fdr,
        serial.incumbent_fdr
    );
    let _ = std::fs::remove_dir_all(&config.work_dir);
}

#[test]
fn regressing_candidate_is_refused_and_the_incumbent_keeps_serving() {
    let config = drift_config("refuse", Some(FaultClass::RegressingCandidate));
    let outcomes = run(&config).expect("gauntlet run failed");
    for outcome in &outcomes {
        let lc = outcome.lifecycle.as_ref().expect("lifecycle outcome");
        assert_eq!(lc.counters.promotions, 0, "{:?}", lc.counters);
        assert!(lc.counters.gate_refusals >= 1, "{:?}", lc.counters);
        assert_eq!(lc.phase, "idle");
        // Nothing was promoted, so the rescored FDR is the incumbent's.
        assert!((lc.post_promotion_fdr - lc.incumbent_fdr).abs() < f64::EPSILON);
    }
    let _ = std::fs::remove_dir_all(&config.work_dir);
}

#[test]
fn trainer_panic_is_contained_and_the_run_completes() {
    let config = drift_config("panic", Some(FaultClass::TrainerPanic));
    let outcomes = run(&config).expect("gauntlet run failed");
    for outcome in &outcomes {
        let lc = outcome.lifecycle.as_ref().expect("lifecycle outcome");
        assert!(lc.counters.trainer_panics >= 1, "{:?}", lc.counters);
        // The panic is contained: the stream is still fully consumed and
        // the sink produced (bounded-degradation assertions inside the
        // gauntlet already passed or `run` would have errored).
        assert!(outcome.rows_seen > 0);
    }
    assert_eq!(outcomes[0].sink, outcomes[1].sink, "sink diverged");
    let _ = std::fs::remove_dir_all(&config.work_dir);
}

#[test]
fn crash_during_promotion_recovers_and_still_promotes() {
    // The crash run checkpoints every step so it can reopen, and each
    // checkpoint carries the row events a stalled watermark holds back:
    // a small rack-failures fleet with a deep queue keeps that cheap in
    // a debug build, and still clears the gate.
    let mut config = drift_config("cutover", Some(FaultClass::CrashDuringPromotion));
    config.scenario = Some(Scenario::RackFailures);
    config.scale = 0.0015;
    config.rate = 4096;
    if let Some(spec) = config.retrain.as_mut() {
        (spec.retrain_rows, spec.shadow_rows, spec.probation_rows) = (512, 256, 256);
    }
    let outcomes = run(&config).expect("gauntlet run failed");
    assert_eq!(outcomes.len(), 2);
    for outcome in &outcomes {
        let lc = outcome.lifecycle.as_ref().expect("lifecycle outcome");
        // The injected power loss lands after the marker is durable, so
        // recovery in the reopened daemon must carry the promotion to
        // completion.
        assert!(lc.counters.promotions >= 1, "{:?}", lc.counters);
    }
    assert_eq!(outcomes[0].sink, outcomes[1].sink, "sink diverged");
    let fingerprint = |o: &hddpred::workload::gauntlet::ScenarioOutcome| {
        o.lifecycle.as_ref().expect("lifecycle").live_fingerprint
    };
    assert_eq!(fingerprint(&outcomes[0]), fingerprint(&outcomes[1]));

    // A rerun in the same work dir starts afresh: nothing resumes from
    // the first run's checkpoints or model store.
    let rerun = run(&config).expect("gauntlet rerun failed");
    for (first, again) in outcomes.iter().zip(&rerun) {
        assert_eq!(first.sink, again.sink, "the rerun's sink differs");
        assert_eq!(fingerprint(first), fingerprint(again));
        assert_eq!(
            first.lifecycle.as_ref().map(|lc| &lc.counters),
            again.lifecycle.as_ref().map(|lc| &lc.counters),
        );
    }
    let _ = std::fs::remove_dir_all(&config.work_dir);
}
