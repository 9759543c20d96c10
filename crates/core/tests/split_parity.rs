//! Property-style parity tests: on seeded random datasets — including
//! heavy ties, constant features, and the sub-nodes a descent reaches by
//! `partition` — the [`SplitWorkspace`] split search must return exactly
//! the same [`SplitSpec`] as the legacy sort-per-node search, at every
//! thread count. This is the determinism contract the parallel trainer
//! rests on: both searches share one sweep kernel, so equal sample order
//! means bit-equal gains and thresholds. The large cases put nodes above
//! [`PARALLEL_SWEEP_MIN_WORK`], where the workspace actually fans the
//! per-feature sweeps out across the pool.

use hdd_cart::split::{
    best_classification_split, best_regression_split, class_totals, moments, FeatureMatrix,
    SplitCriterion, SplitSpec, SplitWorkspace, PARALLEL_SWEEP_MIN_WORK,
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

/// Descend from the root of a freshly sorted workspace, splitting each
/// node on the legacy reference's split, for at most `max_nodes` nodes.
/// At every node `search` runs the workspace search over `[start, end)`
/// at 1 and 4 threads, and each result must equal `legacy` over the
/// node's members. Returns the number of nodes compared.
fn descend(
    matrix: &FeatureMatrix,
    max_nodes: usize,
    label: &str,
    legacy: impl Fn(&[u32]) -> Option<SplitSpec>,
    search: impl Fn(&SplitWorkspace, usize, usize, &[u32], ThreadPool) -> Option<SplitSpec>,
) -> usize {
    let mut ws = SplitWorkspace::new();
    ws.reset_sorted(matrix, ThreadPool::new(2));
    let mut ranges = vec![(0, matrix.n_rows())];
    let mut compared = 0;
    while let Some((start, end)) = ranges.pop() {
        let members = ws.members(start, end).to_vec();
        let expected = legacy(&members);
        for threads in [1, 4] {
            assert_eq!(
                search(&ws, start, end, &members, ThreadPool::new(threads)),
                expected,
                "{label}, node [{start}, {end}), {threads} threads"
            );
        }
        compared += 1;
        let Some(split) = expected else { continue };
        if compared >= max_nodes {
            break;
        }
        let mid = ws.partition(start, end, split.feature, split.threshold);
        ranges.push((start, mid));
        ranges.push((mid, end));
    }
    compared
}

fn classification_descent(
    matrix: &FeatureMatrix,
    classes: &[Class],
    weights: &[f64],
    min_bucket: usize,
    criterion: SplitCriterion,
    max_nodes: usize,
    label: &str,
) -> usize {
    descend(
        matrix,
        max_nodes,
        label,
        |members| {
            best_classification_split(matrix, members, classes, weights, min_bucket, criterion)
        },
        |ws, start, end, members, pool| {
            ws.best_classification_split(
                start,
                end,
                class_totals(members, classes, weights),
                classes,
                weights,
                min_bucket,
                criterion,
                pool,
            )
        },
    )
}

fn regression_descent(
    matrix: &FeatureMatrix,
    targets: &[f64],
    weights: &[f64],
    min_bucket: usize,
    max_nodes: usize,
    label: &str,
) -> usize {
    descend(
        matrix,
        max_nodes,
        label,
        |members| best_regression_split(matrix, members, targets, weights, min_bucket),
        |ws, start, end, members, pool| {
            ws.best_regression_split(
                start,
                end,
                moments(members, targets, weights),
                targets,
                weights,
                min_bucket,
                pool,
            )
        },
    )
}

#[test]
fn classification_parity_on_random_datasets() {
    for seed in 0..20u64 {
        let n_rows = 40 + (seed as usize % 7) * 17;
        let matrix = random_matrix(seed, n_rows, 6);
        let classes = random_classes(seed, n_rows);
        let weights = random_weights(seed, n_rows);
        for criterion in [SplitCriterion::InformationGain, SplitCriterion::Gini] {
            for min_bucket in [1, 3, 7] {
                let label = format!("seed {seed}, {criterion:?}, min_bucket {min_bucket}");
                let compared = classification_descent(
                    &matrix, &classes, &weights, min_bucket, criterion, 9, &label,
                );
                assert!(compared >= 3, "{label}: the descent must reach sub-nodes");
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
        for min_bucket in [1, 5] {
            let label = format!("seed {seed}, min_bucket {min_bucket}");
            let compared = regression_descent(&matrix, &targets, &weights, min_bucket, 9, &label);
            assert!(compared >= 3, "{label}: the descent must reach sub-nodes");
        }
    }
}

#[test]
fn parity_above_the_parallel_sweep_threshold() {
    // 6000 rows × 6 features puts the root (and its larger children)
    // above the fan-out threshold, so the 4-thread searches really run
    // their per-feature sweeps in parallel.
    let (n_rows, n_features) = (6_000, 6);
    assert!(n_rows * n_features >= PARALLEL_SWEEP_MIN_WORK);
    let matrix = random_matrix(0xB16, n_rows, n_features);
    let classes = random_classes(0xB16, n_rows);
    let weights = random_weights(0xB16, n_rows);
    for criterion in [SplitCriterion::InformationGain, SplitCriterion::Gini] {
        let label = format!("large, {criterion:?}");
        let compared = classification_descent(&matrix, &classes, &weights, 7, criterion, 5, &label);
        assert!(compared >= 3, "{label}: the descent must reach sub-nodes");
    }
    let targets = random_targets(0xB16, n_rows);
    let compared = regression_descent(&matrix, &targets, &weights, 7, 5, "large, regression");
    assert!(
        compared >= 3,
        "large regression: the descent must reach sub-nodes"
    );
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
    let legacy = best_classification_split(
        &matrix,
        &indices,
        &classes,
        &weights,
        1,
        SplitCriterion::InformationGain,
    );
    let mut ws = SplitWorkspace::new();
    ws.reset_sorted(&matrix, ThreadPool::serial());
    let indexed = ws.best_classification_split(
        0,
        30,
        class_totals(&indices, &classes, &weights),
        &classes,
        &weights,
        1,
        SplitCriterion::InformationGain,
        ThreadPool::new(4),
    );
    assert_eq!(legacy, None);
    assert_eq!(indexed, None);
}
