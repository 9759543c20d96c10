//! Golden fingerprints of trained models.
//!
//! Every trainer is a pure function of its inputs, so the bytes of the
//! saved model are too. These tests pin the FNV-1a 64 hash of each
//! model's `SavedModel` envelope JSON on fixed seeded datasets: the
//! paper CT (failed boosted to 20% of the weight, false alarms costed
//! 10×), an RT, a health model, a random forest at 1 and 4 threads and
//! an AdaBoost ensemble. A refactor of the split search or the grow loop
//! that changes any split, threshold, leaf or node order changes a
//! fingerprint. A fingerprint may only be re-recorded with a stated
//! reason for the change in trained bytes.

use hdd_cart::split::PARALLEL_SWEEP_MIN_WORK;
use hdd_cart::{
    AdaBoostBuilder, Class, ClassSample, ClassificationTreeBuilder, CompactForest, HealthModel,
    RandomForestBuilder, RegSample, RegressionTreeBuilder,
};
use hdd_eval::SavedModel;
use hdd_par::ThreadPool;
use hdd_smart::rng::{fnv1a_extend, DeterministicRng, FNV1A_OFFSET};

/// FNV-1a 64 of the envelope JSON `SavedModel::save` would seal.
fn fingerprint(forest: CompactForest) -> u64 {
    let json = hdd_json::to_string(&SavedModel::from(forest).to_json());
    fnv1a_extend(FNV1A_OFFSET, json.as_bytes())
}

/// Quantized gaussian features (plenty of ties) with a few informative
/// dimensions: failed rows sit lower on features 0..3.
fn class_samples(seed: u64, n: usize, dim: usize) -> Vec<ClassSample> {
    let rng = DeterministicRng::new(seed);
    (0..n)
        .map(|i| {
            let failed = i % 7 == 0;
            let features: Vec<f64> = (0..dim)
                .map(|j| {
                    let base = (rng.gaussian(i as u64, j as u64) * 8.0).round() + 100.0;
                    if failed && j < 3 {
                        base - (30.0 * rng.uniform(i as u64, (j + 100) as u64)).round()
                    } else {
                        base
                    }
                })
                .collect();
            ClassSample::new(features, if failed { Class::Failed } else { Class::Good })
        })
        .collect()
}

/// A noisy piecewise target over mixed quantized and continuous
/// features, in the health degree's `[-1, 1]` range.
fn reg_samples(seed: u64, n: usize, dim: usize) -> Vec<RegSample> {
    let rng = DeterministicRng::new(seed);
    (0..n)
        .map(|i| {
            let features: Vec<f64> = (0..dim)
                .map(|j| {
                    let u = rng.uniform(i as u64, j as u64);
                    if j % 2 == 0 {
                        (u * 10.0).floor()
                    } else {
                        u * 50.0
                    }
                })
                .collect();
            let step = if features[0] < 4.0 { -0.6 } else { 0.4 };
            let target =
                (step + features[1] / 200.0 + 0.2 * rng.gaussian(i as u64, 99)).clamp(-1.0, 1.0);
            RegSample::new(features, target)
        })
        .collect()
}

#[test]
fn paper_classification_tree_bytes_are_pinned() {
    let (n, dim) = (3_000, 13);
    assert!(
        n * dim >= PARALLEL_SWEEP_MIN_WORK,
        "the root must be large enough for the parallel sweep"
    );
    let samples = class_samples(41, n, dim);
    for threads in [1, 4] {
        let tree = ThreadPool::new(threads)
            .install(|| ClassificationTreeBuilder::new().build(&samples))
            .unwrap();
        assert!(tree.tree().n_nodes() > 3, "the tree must actually split");
        assert_eq!(
            fingerprint(tree.compile()),
            0xB4C0_A7FB_8CD6_C789,
            "paper CT at {threads} thread(s)"
        );
    }
}

#[test]
fn regression_tree_bytes_are_pinned() {
    let samples = reg_samples(7, 1_200, 6);
    let tree = RegressionTreeBuilder::new().build(&samples).unwrap();
    assert!(tree.tree().n_nodes() > 3, "the tree must actually split");
    assert_eq!(fingerprint(tree.compile()), 0x80A9_4F65_0E39_FDB0);
}

#[test]
fn health_model_bytes_are_pinned() {
    let samples = reg_samples(19, 900, 5);
    let mut builder = RegressionTreeBuilder::new();
    builder.complexity(0.0005).min_bucket(5);
    let model = HealthModel::new(builder.build(&samples).unwrap(), -0.3);
    assert_eq!(fingerprint(model.compile()), 0x682C_B9DD_CAC5_688B);
}

#[test]
fn random_forest_bytes_are_pinned_at_one_and_four_threads() {
    // 2100 rows put the FOREST_MIN_TASK_ROWS chunk floor at 8 trees, so
    // four threads deal the 9 trees to two tasks.
    let samples = class_samples(3, 2_100, 8);
    for threads in [1, 4] {
        let mut builder = RandomForestBuilder::new();
        builder.n_trees(9).seed(0xBEEF);
        let forest = ThreadPool::new(threads)
            .install(|| builder.build(&samples))
            .unwrap();
        assert_eq!(
            fingerprint(forest.compile()),
            0xC089_7FA7_1418_80CB,
            "forest at {threads} thread(s)"
        );
    }
}

#[test]
fn adaboost_bytes_are_pinned() {
    let samples = class_samples(11, 600, 6);
    let ensemble = AdaBoostBuilder::new().rounds(8).build(&samples).unwrap();
    assert!(ensemble.n_rounds() > 1, "boosting must run several rounds");
    assert_eq!(fingerprint(ensemble.compile()), 0x0427_8C1A_447A_6830);
}
