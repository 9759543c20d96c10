//! Property-style parity tests: on seeded random datasets — including
//! heavy ties, constant features, and sub-node index sets — the
//! [`PresortedColumns`] split search must return exactly the same
//! [`SplitSpec`] as the legacy sort-per-node search, at every thread
//! count. This is the determinism contract the parallel trainer rests
//! on: both searches share one sweep kernel, so equal sample order means
//! bit-equal gains and thresholds.

use hdd_cart::split::{
    best_classification_split, best_regression_split, FeatureMatrix, PresortedColumns,
    SplitCriterion,
};
use hdd_cart::Class;
use hdd_par::ThreadPool;
use hdd_smart::rng::splitmix64;

fn uniform(seed: u64) -> f64 {
    (splitmix64(seed) >> 11) as f64 / (1u64 << 53) as f64
}

/// A random dataset whose columns mix three shapes: heavily quantized
/// (many ties), constant (never splittable), and continuous.
fn random_matrix(seed: u64, n_rows: usize, n_features: usize) -> FeatureMatrix {
    let rows: Vec<Vec<f64>> = (0..n_rows)
        .map(|r| {
            (0..n_features)
                .map(|c| {
                    let u = uniform(seed ^ ((r as u64) << 20) ^ c as u64);
                    match c % 3 {
                        0 => (u * 4.0).floor(), // quantized: 4 distinct values
                        1 => 7.5,               // constant
                        _ => u * 100.0,         // continuous
                    }
                })
                .collect()
        })
        .collect();
    FeatureMatrix::from_rows(rows.iter().map(Vec::as_slice))
}

fn random_classes(seed: u64, n: usize) -> Vec<Class> {
    (0..n)
        .map(|i| {
            if uniform(seed ^ 0xC1A5 ^ i as u64) < 0.3 {
                Class::Failed
            } else {
                Class::Good
            }
        })
        .collect()
}

fn random_weights(seed: u64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 0.25 + uniform(seed ^ 0x0E16 ^ i as u64))
        .collect()
}

fn random_targets(seed: u64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| uniform(seed ^ 0x7A26 ^ i as u64) * 2.0 - 1.0)
        .collect()
}

/// A strictly ascending random subset of the rows (how grow's stable
/// partition always presents node indices).
fn random_sub_node(seed: u64, n_rows: usize) -> Vec<u32> {
    let indices: Vec<u32> = (0..n_rows as u32)
        .filter(|&i| uniform(seed ^ 0x5CB5 ^ u64::from(i)) < 0.6)
        .collect();
    assert!(indices.len() > 2, "sub-node unexpectedly tiny");
    indices
}

#[test]
fn classification_parity_on_random_datasets() {
    for seed in 0..20u64 {
        let n_rows = 40 + (seed as usize % 7) * 17;
        let matrix = random_matrix(seed, n_rows, 6);
        let classes = random_classes(seed, n_rows);
        let weights = random_weights(seed, n_rows);
        let presorted = PresortedColumns::new(&matrix);

        for criterion in [SplitCriterion::InformationGain, SplitCriterion::Gini] {
            for min_bucket in [1, 3, 7] {
                for indices in [
                    (0..n_rows as u32).collect::<Vec<u32>>(),
                    random_sub_node(seed, n_rows),
                ] {
                    let legacy = best_classification_split(
                        &matrix, &indices, &classes, &weights, min_bucket, criterion,
                    );
                    for threads in [1, 4] {
                        let indexed = presorted.best_classification_split(
                            &matrix,
                            &indices,
                            &classes,
                            &weights,
                            min_bucket,
                            criterion,
                            ThreadPool::new(threads),
                        );
                        assert_eq!(
                            legacy,
                            indexed,
                            "seed {seed}, {criterion:?}, min_bucket {min_bucket}, \
                             {} rows, {threads} threads",
                            indices.len()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn regression_parity_on_random_datasets() {
    for seed in 100..120u64 {
        let n_rows = 40 + (seed as usize % 5) * 23;
        let matrix = random_matrix(seed, n_rows, 5);
        let targets = random_targets(seed, n_rows);
        let weights = random_weights(seed, n_rows);
        let presorted = PresortedColumns::new(&matrix);

        for min_bucket in [1, 5] {
            for indices in [
                (0..n_rows as u32).collect::<Vec<u32>>(),
                random_sub_node(seed, n_rows),
            ] {
                let legacy =
                    best_regression_split(&matrix, &indices, &targets, &weights, min_bucket);
                for threads in [1, 4] {
                    let indexed = presorted.best_regression_split(
                        &matrix,
                        &indices,
                        &targets,
                        &weights,
                        min_bucket,
                        ThreadPool::new(threads),
                    );
                    assert_eq!(
                        legacy,
                        indexed,
                        "seed {seed}, min_bucket {min_bucket}, {} rows, {threads} threads",
                        indices.len()
                    );
                }
            }
        }
    }
}

#[test]
fn parity_on_all_tied_dataset() {
    // Every value equal in every splittable column: neither search may
    // find a split, and neither may disagree about it.
    let rows = vec![vec![3.0, 3.0, 3.0]; 30];
    let matrix = FeatureMatrix::from_rows(rows.iter().map(Vec::as_slice));
    let classes = random_classes(7, 30);
    let weights = vec![1.0; 30];
    let indices: Vec<u32> = (0..30).collect();
    let presorted = PresortedColumns::new(&matrix);
    let legacy = best_classification_split(
        &matrix,
        &indices,
        &classes,
        &weights,
        1,
        SplitCriterion::InformationGain,
    );
    let indexed = presorted.best_classification_split(
        &matrix,
        &indices,
        &classes,
        &weights,
        1,
        SplitCriterion::InformationGain,
        ThreadPool::new(4),
    );
    assert_eq!(legacy, None);
    assert_eq!(indexed, None);
}
