//! Random forest — the paper's stated future work (§VII: "we will try
//! other statistical and machine learning methods, such as random forest,
//! to boost the prediction performance").
//!
//! A bagged ensemble of classification trees. Unlike Breiman's original
//! formulation (which re-draws a feature subset at every *node*), each
//! tree here draws one deterministic feature subset — a Fisher–Yates
//! prefix of `ceil(feature_fraction · n_features)` features, seeded per
//! tree — and keeps it for its whole depth. Each tree also trains on a
//! bootstrap resample of the training set, re-drawn until both classes
//! are present. Prediction is by majority vote, and the fraction of
//! trees voting *failed* is a usable failure score. The per-tree
//! fixed-subset rule trades a little decorrelation for reproducibility:
//! the whole ensemble is a pure function of `(samples, seed)`.
//!
//! Trees are independent given their seeds, so training fans out across
//! [`hdd_par::ThreadPool::global`] — members are merged in tree order, and
//! each spawned worker's split search is serial (`hdd-par` runs nested
//! fan-outs inline), keeping the forest bit-identical at any thread count.

use crate::classifier::{ClassificationTree, ClassificationTreeBuilder};
use crate::compact::{CompactForest, CompactTree};
use crate::sample::{Class, ClassSample, TrainError};
use crate::split::{FeatureMatrix, SplitWorkspace};
use hdd_par::ThreadPool;
use hdd_smart::rng::splitmix64;
use std::ops::Range;

/// Minimum number of training rows a forest worker task should cover.
///
/// Training deals trees to workers in contiguous chunks of
/// `ceil(n_trees / n_threads)`; with small forests that collapses to a
/// few trees per task and spawn overhead dominates. Flooring the chunk
/// so each task covers at least this many rows of training work
/// (`ceil(FOREST_MIN_TASK_ROWS / n_samples)` trees) keeps the per-task
/// compute comfortably above the fork-join cost. Chunking only changes
/// how trees are dealt, never their content: each tree is a pure
/// function of `(samples, seed, tree index)`.
pub const FOREST_MIN_TASK_ROWS: usize = 16_384;

/// Configures and trains [`RandomForest`]s.
///
/// ```
/// use hdd_cart::{Class, ClassSample, RandomForestBuilder};
///
/// let samples: Vec<ClassSample> = (0..60)
///     .map(|i| {
///         let x = f64::from(i % 30);
///         let class = if x < 15.0 { Class::Failed } else { Class::Good };
///         ClassSample::new(vec![x, x * 0.5], class)
///     })
///     .collect();
/// let forest = RandomForestBuilder::new().build(&samples)?;
/// assert_eq!(forest.predict(&[5.0, 2.5]), Class::Failed);
/// # Ok::<(), hdd_cart::TrainError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForestBuilder {
    n_trees: usize,
    feature_fraction: f64,
    base: ClassificationTreeBuilder,
    seed: u64,
}

impl Default for RandomForestBuilder {
    fn default() -> Self {
        RandomForestBuilder {
            n_trees: 25,
            feature_fraction: 0.6,
            base: ClassificationTreeBuilder::new(),
            seed: 0xF0_4E57,
        }
    }
}

impl RandomForestBuilder {
    /// A builder with sensible defaults (25 trees, 60% of features each).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of trees in the ensemble.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn n_trees(&mut self, n: usize) -> &mut Self {
        assert!(n >= 1, "a forest needs at least one tree");
        self.n_trees = n;
        self
    }

    /// Fraction of features each tree sees.
    ///
    /// # Panics
    ///
    /// Panics if outside `(0, 1]`.
    pub fn feature_fraction(&mut self, fraction: f64) -> &mut Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "feature fraction must be in (0, 1]"
        );
        self.feature_fraction = fraction;
        self
    }

    /// Bootstrap/feature-sampling seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Train a forest.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] on degenerate inputs (empty set, one class,
    /// malformed features).
    pub fn build(&self, samples: &[ClassSample]) -> Result<RandomForest, TrainError> {
        crate::sample::validate_features(samples.iter().map(|s| s.features.as_slice()))?;
        let n_features = samples[0].features.len();
        if !samples.iter().any(|s| s.class == Class::Failed)
            || !samples.iter().any(|s| s.class == Class::Good)
        {
            return Err(TrainError::SingleClass);
        }
        let per_tree =
            ((n_features as f64 * self.feature_fraction).ceil() as usize).clamp(1, n_features);

        // Each tree is a pure function of its seed, so the pool can fan out
        // across trees.
        let pool = ThreadPool::global();

        let n = samples.len();
        let classes: Vec<Class> = samples.iter().map(|s| s.class).collect();
        let matrix = FeatureMatrix::from_rows(samples.iter().map(|s| s.features.as_slice()));
        // The expensive part of starting a tree is sorting every feature
        // column. Sort the *root* matrix once into a pristine workspace,
        // share it read-only across all tree tasks, and derive each tree's
        // bootstrap stripes from it in O(n) per feature instead of
        // O(n log n).
        let mut root = SplitWorkspace::new();
        root.reset_sorted(&matrix, pool);
        let root = &root;

        // One task per chunk of tree ids (see FOREST_MIN_TASK_ROWS).
        let chunk = self
            .n_trees
            .div_ceil(pool.n_threads())
            .max(FOREST_MIN_TASK_ROWS.div_ceil(n));
        let tree_chunks: Vec<Range<usize>> = (0..self.n_trees)
            .step_by(chunk)
            .map(|start| start..(start + chunk).min(self.n_trees))
            .collect();
        let chunks = pool.parallel_map(&tree_chunks, |ids| {
            // Per-worker scratch, reused across the chunk's trees: the
            // steady state allocates nothing per tree but the grown nodes.
            let mut workspace = SplitWorkspace::new();
            let mut features: Vec<usize> = Vec::with_capacity(n_features);
            let mut picks: Vec<u32> = vec![0; n];
            let mut counts: Vec<u32> = vec![0; n];
            let mut offsets: Vec<u32> = vec![0; n];
            let mut slots: Vec<u32> = vec![0; n];
            let mut proj_classes: Vec<Class> = Vec::with_capacity(n);
            // Serial in a spawned worker; the caller's pool when all the
            // trees are one inline chunk.
            let inner_pool = ThreadPool::global();

            let mut members = Vec::with_capacity(ids.len());
            for t in ids.clone() {
                let tree_seed = splitmix64(self.seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
                // Random feature subset (deterministic Fisher–Yates prefix).
                features.clear();
                features.extend(0..n_features);
                for i in 0..per_tree.min(n_features - 1) {
                    let j = i + (splitmix64(tree_seed ^ i as u64) as usize) % (n_features - i);
                    features.swap(i, j);
                }
                let mut chosen = features[..per_tree].to_vec();
                chosen.sort_unstable();

                // Bootstrap resample; keep re-drawing until both classes
                // are present (almost always the first draw).
                let mut salt = 0u64;
                loop {
                    let mut n_failed = 0usize;
                    for (i, pick) in picks.iter_mut().enumerate() {
                        let draw = (splitmix64(tree_seed ^ salt ^ ((i as u64) << 20)) as usize) % n;
                        *pick = draw as u32;
                        if classes[draw] == Class::Failed {
                            n_failed += 1;
                        }
                    }
                    if n_failed > 0 && n_failed < n {
                        break;
                    }
                    salt += 1;
                }
                proj_classes.clear();
                proj_classes.extend(picks.iter().map(|&p| classes[p as usize]));

                // Group bootstrap rows by source row (a counting sort):
                // after the fill, source row `s` owns
                // `slots[offsets[s]-counts[s]..offsets[s]]`, its bootstrap
                // row ids in ascending order.
                counts.fill(0);
                for &p in &picks {
                    counts[p as usize] += 1;
                }
                let mut acc = 0u32;
                for (offset, &count) in offsets.iter_mut().zip(&counts) {
                    *offset = acc;
                    acc += count;
                }
                for (i, &p) in picks.iter().enumerate() {
                    slots[offsets[p as usize] as usize] = i as u32;
                    offsets[p as usize] += 1;
                }

                // Derive the bootstrap's sorted stripes from the shared
                // root stripes: walk each chosen column's `(row id, value)`
                // pairs in root-sorted order and expand every source row
                // into its bootstrap duplicates. The result is
                // value-sorted, so the split search behaves exactly as if
                // the stripe had been sorted from scratch.
                let (orders, fvalues) = workspace.begin_fill(n, per_tree);
                for (local, &global) in chosen.iter().enumerate() {
                    let ids_stripe = &mut orders[local * n..(local + 1) * n];
                    let vals_stripe = &mut fvalues[local * n..(local + 1) * n];
                    let mut out = 0usize;
                    let (root_ids, root_vals) = root.stripe(global, 0, n);
                    for (&src, &value) in root_ids.iter().zip(root_vals) {
                        let count = counts[src as usize] as usize;
                        if count == 0 {
                            continue;
                        }
                        let end = offsets[src as usize] as usize;
                        for &boot_row in &slots[end - count..end] {
                            ids_stripe[out] = boot_row;
                            vals_stripe[out] = value;
                            out += 1;
                        }
                    }
                    debug_assert_eq!(out, n, "stripe must cover every bootstrap row");
                }

                let tree = match self
                    .base
                    .build_prepared(&proj_classes, &mut workspace, inner_pool)
                {
                    Ok(tree) => tree,
                    Err(e) => return Err(e),
                };
                members.push(Member {
                    features: chosen,
                    tree,
                });
            }
            Ok(members)
        });
        let mut trees = Vec::with_capacity(self.n_trees);
        for chunk in chunks {
            trees.extend(chunk?);
        }
        Ok(RandomForest { trees, n_features })
    }
}

/// One tree plus the feature subset it was trained on.
#[derive(Debug, Clone, PartialEq)]
struct Member {
    features: Vec<usize>,
    tree: ClassificationTree,
}

/// A trained bagged ensemble of classification trees.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<Member>,
    n_features: usize,
}

impl RandomForest {
    /// Number of member trees.
    #[must_use]
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Dimensionality of the (full) feature vectors the forest votes on.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Compile to the flat serving form. Each member votes its leaf class
    /// target with weight 1, with member-local feature indices remapped to
    /// the global feature space, so the compiled score is
    /// `(n_good − n_failed) / n` — the same sign as
    /// [`predict`](RandomForest::predict) (strict-majority failed vote).
    #[must_use]
    pub fn compile(&self) -> CompactForest {
        let trees: Vec<CompactTree> = self
            .trees
            .iter()
            .map(|member| {
                CompactTree::from_arena(member.tree.tree(), Some(&member.features), |leaf| {
                    leaf.class.target()
                })
            })
            .collect();
        let weights = vec![1.0; trees.len()];
        CompactForest::new(trees, weights, false, self.n_features)
    }

    /// The fraction of trees voting *failed* for this sample, in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `features` is shorter than the training dimensionality.
    #[must_use]
    pub fn failed_vote_fraction(&self, features: &[f64]) -> f64 {
        let mut buf = Vec::new();
        let failed = self
            .trees
            .iter()
            .filter(|member| {
                buf.clear();
                buf.extend(member.features.iter().map(|&f| features[f]));
                member.tree.predict(&buf) == Class::Failed
            })
            .count();
        failed as f64 / self.trees.len() as f64
    }

    /// Majority-vote class.
    #[must_use]
    pub fn predict(&self, features: &[f64]) -> Class {
        if self.failed_vote_fraction(features) > 0.5 {
            Class::Failed
        } else {
            Class::Good
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable(n: usize) -> Vec<ClassSample> {
        (0..n)
            .flat_map(|i| {
                let x = (i % 23) as f64;
                [
                    ClassSample::new(vec![x, 0.0, x * 2.0], Class::Good),
                    ClassSample::new(vec![x + 60.0, 1.0, x], Class::Failed),
                ]
            })
            .collect()
    }

    #[test]
    fn learns_separable_problem() {
        let forest = RandomForestBuilder::new().build(&separable(60)).unwrap();
        assert_eq!(forest.n_trees(), 25);
        assert_eq!(forest.predict(&[5.0, 0.0, 10.0]), Class::Good);
        assert_eq!(forest.predict(&[70.0, 1.0, 10.0]), Class::Failed);
    }

    #[test]
    fn vote_fraction_is_bounded_and_consistent() {
        let forest = RandomForestBuilder::new().build(&separable(40)).unwrap();
        for q in [[5.0, 0.0, 10.0], [70.0, 1.0, 10.0], [30.0, 0.5, 30.0]] {
            let f = forest.failed_vote_fraction(&q);
            assert!((0.0..=1.0).contains(&f));
            assert_eq!(forest.predict(&q) == Class::Failed, f > 0.5);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let samples = separable(40);
        let a = RandomForestBuilder::new().build(&samples).unwrap();
        let b = RandomForestBuilder::new().build(&samples).unwrap();
        assert_eq!(a, b);
        let mut other = RandomForestBuilder::new();
        other.seed(1234);
        let c = other.build(&samples).unwrap();
        assert_ne!(a, c, "different seed, different forest");
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        // The FOREST_MIN_TASK_ROWS floor binds at 8 threads for both
        // sizes: at 80 rows it puts all 25 trees in one task; at 1500
        // rows it deals chunks of 11 trees (not ceil(25/8) = 4), so 11, 11
        // and 3 trees across three tasks.
        for pairs in [40, 750] {
            let samples = separable(pairs);
            let floor = FOREST_MIN_TASK_ROWS.div_ceil(samples.len());
            assert!(floor > 25_usize.div_ceil(8), "floor must bind");
            let build = |threads| {
                ThreadPool::new(threads)
                    .install(|| RandomForestBuilder::new().build(&samples))
                    .unwrap()
            };
            let serial = build(1);
            for threads in [2, 4, 8] {
                assert_eq!(
                    build(threads),
                    serial,
                    "{} rows at {threads} threads: forest must not depend on thread count",
                    samples.len()
                );
            }
        }
    }

    #[test]
    fn respects_tree_count_and_feature_fraction() {
        let mut builder = RandomForestBuilder::new();
        builder.n_trees(7).feature_fraction(0.34);
        let forest = builder.build(&separable(40)).unwrap();
        assert_eq!(forest.n_trees(), 7);
        // ceil(3 * 0.34) = 2 features per tree.
        assert!(forest.trees.iter().all(|m| m.features.len() == 2));
    }

    #[test]
    fn rejects_single_class() {
        let samples = vec![ClassSample::new(vec![1.0], Class::Good); 20];
        assert_eq!(
            RandomForestBuilder::new().build(&samples).unwrap_err(),
            TrainError::SingleClass
        );
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn rejects_zero_trees() {
        let _ = RandomForestBuilder::new().n_trees(0);
    }

    #[test]
    fn compiled_forest_matches_vote_fraction() {
        let forest = RandomForestBuilder::new().build(&separable(30)).unwrap();
        assert_eq!(forest.n_features(), 3);
        let compiled = forest.compile();
        assert_eq!(compiled.n_trees(), forest.n_trees());
        for q in [
            [5.0, 0.0, 1.0],
            [70.0, 1.0, 10.0],
            [30.0, 0.5, 30.0],
            [0.0, 0.0, 0.0],
        ] {
            let score = compiled.score(&q);
            let vote = forest.failed_vote_fraction(&q);
            assert!((score - (1.0 - 2.0 * vote)).abs() < 1e-12, "{q:?}");
            assert_eq!(score < 0.0, forest.predict(&q) == Class::Failed, "{q:?}");
        }
    }
}
