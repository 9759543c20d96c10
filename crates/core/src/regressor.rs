//! The Regression Tree model (Algorithm 2 of the paper).

use crate::grow::{grow, Limits, TreeKind};
use crate::sample::{validate_features, RegSample, TrainError};
use crate::split::{moments, FeatureMatrix, SplitSpec, SplitWorkspace};
use crate::tree::Tree;
use hdd_par::ThreadPool;
use std::fmt;

/// Leaf payload of a regression tree: the weighted mean target at the node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegLeaf {
    /// Weighted mean of the target variable.
    pub mean: f64,
}

impl fmt::Display for RegLeaf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.3}", self.mean)
    }
}

/// Configures and trains [`RegressionTree`]s.
///
/// Split conditions and the pruning parameter default to the same values
/// as the classification tree, as in §V-C of the paper.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegressionTreeBuilder {
    limits: Limits,
}

impl RegressionTreeBuilder {
    /// A builder with the paper's default parameters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `Minsplit`: minimum samples at a node before it may be split.
    pub fn min_split(&mut self, n: usize) -> &mut Self {
        self.limits.min_split = n.max(2);
        self
    }

    /// `Minbucket`: minimum samples at any leaf.
    pub fn min_bucket(&mut self, n: usize) -> &mut Self {
        self.limits.min_bucket = n.max(1);
        self
    }

    /// Complexity parameter: subtrees whose relative sum-of-squares
    /// reduction falls below `cp` are pruned (Algorithm 2, lines 19–23).
    pub fn complexity(&mut self, cp: f64) -> &mut Self {
        self.limits.complexity = cp.max(0.0);
        self
    }

    /// Optional hard depth cap (ablation aid; not in the paper).
    pub fn max_depth(&mut self, depth: Option<usize>) -> &mut Self {
        self.limits.max_depth = depth;
        self
    }

    /// Train a tree on `samples` with unit weights. The split search fans
    /// out on [`ThreadPool::global`]; the tree is bit-identical on any
    /// pool.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if `samples` is empty or malformed.
    pub fn build(&self, samples: &[RegSample]) -> Result<RegressionTree, TrainError> {
        let weights = vec![1.0; samples.len()];
        self.build_weighted(samples, &weights)
    }

    /// Train with explicit per-sample weights.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if `samples` is empty or malformed.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != samples.len()` or any weight is not a
    /// positive finite number.
    pub fn build_weighted(
        &self,
        samples: &[RegSample],
        weights: &[f64],
    ) -> Result<RegressionTree, TrainError> {
        assert_eq!(weights.len(), samples.len(), "one weight per sample");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "weights must be positive and finite"
        );
        validate_features(samples.iter().map(|s| s.features.as_slice()))?;
        if let Some(bad) = samples.iter().position(|s| !s.target.is_finite()) {
            return Err(TrainError::InvalidFeatures {
                sample: bad,
                reason: "target is not finite".to_string(),
            });
        }
        let targets: Vec<f64> = samples.iter().map(|s| s.target).collect();
        let matrix = FeatureMatrix::from_rows(samples.iter().map(|s| s.features.as_slice()));
        let pool = ThreadPool::global();
        let mut workspace = SplitWorkspace::new();
        workspace.reset_sorted(&matrix, pool);
        let kind = Regression {
            targets: &targets,
            weights,
        };
        Ok(RegressionTree {
            tree: grow(&kind, self.limits, &mut workspace, pool),
        })
    }
}

/// A trained regression tree predicting a real-valued target (the health
/// degree in the paper's usage).
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    tree: Tree<RegLeaf>,
}

impl RegressionTree {
    /// Predict the target value for a feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `features` is shorter than the training dimensionality.
    #[must_use]
    pub fn predict(&self, features: &[f64]) -> f64 {
        self.tree.leaf_for(features).prediction.mean
    }

    /// The underlying tree.
    #[must_use]
    pub fn tree(&self) -> &Tree<RegLeaf> {
        &self.tree
    }

    /// The decision rules as text.
    #[must_use]
    pub fn rules(&self, feature_names: &[String]) -> String {
        self.tree.rules(feature_names)
    }

    /// Normalized per-feature importance.
    #[must_use]
    pub fn feature_importance(&self) -> Vec<f64> {
        self.tree.feature_importance()
    }
}

/// Algorithm 2's part of the shared descent: nodes carry their weighted
/// target moments `(Σw, Σwy, Σwy²)` and split by sum-of-squares
/// reduction (eq. 4).
struct Regression<'a> {
    targets: &'a [f64],
    weights: &'a [f64],
}

impl TreeKind for Regression<'_> {
    type Stats = (f64, f64, f64);
    type Leaf = RegLeaf;

    fn weights(&self) -> &[f64] {
        self.weights
    }

    fn stats(&self, members: &[u32]) -> (f64, f64, f64) {
        moments(members, self.targets, self.weights)
    }

    fn leaf((sw, swy, _): (f64, f64, f64)) -> RegLeaf {
        RegLeaf {
            mean: if sw > 0.0 { swy / sw } else { 0.0 },
        }
    }

    fn weight((sw, _, _): (f64, f64, f64)) -> f64 {
        sw
    }

    fn search(
        &self,
        ws: &SplitWorkspace,
        start: usize,
        end: usize,
        moments: (f64, f64, f64),
        min_bucket: usize,
        pool: ThreadPool,
    ) -> Option<SplitSpec> {
        ws.best_regression_split(
            start,
            end,
            moments,
            self.targets,
            self.weights,
            min_bucket,
            pool,
        )
    }

    /// Sum-of-squares reduction relative to the root's, so it compares
    /// against CP on the same scale at every depth.
    fn scaled_gain(gain: f64, _fraction: f64, (sw, swy, swy2): (f64, f64, f64)) -> f64 {
        let root_sq = (swy2 - swy * swy / sw.max(f64::MIN_POSITIVE)).max(0.0);
        if root_sq > 0.0 {
            gain / root_sq
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_function(n: usize) -> Vec<RegSample> {
        (0..n)
            .map(|i| {
                let x = (i % 40) as f64;
                let y = if x < 20.0 { -1.0 } else { 1.0 };
                RegSample::new(vec![x, (i % 3) as f64], y)
            })
            .collect()
    }

    #[test]
    fn fits_a_step_function() {
        let tree = RegressionTreeBuilder::new()
            .build(&step_function(200))
            .unwrap();
        assert!((tree.predict(&[5.0, 0.0]) - (-1.0)).abs() < 1e-9);
        assert!((tree.predict(&[30.0, 0.0]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fits_a_ramp_piecewise() {
        let samples: Vec<RegSample> = (0..400)
            .map(|i| {
                let x = f64::from(i) / 400.0;
                RegSample::new(vec![x], x)
            })
            .collect();
        let mut b = RegressionTreeBuilder::new();
        b.complexity(1e-6);
        let tree = b.build(&samples).unwrap();
        // Tree approximates the ramp: monotone-ish, small error.
        let mse: f64 = (0..100)
            .map(|i| {
                let x = f64::from(i) / 100.0;
                (tree.predict(&[x]) - x).powi(2)
            })
            .sum::<f64>()
            / 100.0;
        assert!(mse < 0.01, "mse {mse}");
    }

    #[test]
    fn constant_targets_give_stump() {
        let samples: Vec<RegSample> = (0..50)
            .map(|i| RegSample::new(vec![f64::from(i)], 7.0))
            .collect();
        let tree = RegressionTreeBuilder::new().build(&samples).unwrap();
        assert_eq!(tree.tree().n_nodes(), 1);
        assert_eq!(tree.predict(&[99.0]), 7.0);
    }

    #[test]
    fn weights_shift_leaf_means() {
        let samples = vec![
            RegSample::new(vec![0.0], 0.0),
            RegSample::new(vec![0.1], 10.0),
        ];
        let mut b = RegressionTreeBuilder::new();
        b.min_split(100); // force a stump: prediction is the weighted mean
        let heavy_first = b.build_weighted(&samples, &[9.0, 1.0]).unwrap();
        assert!((heavy_first.predict(&[0.0]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_targets() {
        let samples = vec![RegSample::new(vec![1.0], f64::INFINITY)];
        assert!(matches!(
            RegressionTreeBuilder::new().build(&samples).unwrap_err(),
            TrainError::InvalidFeatures { .. }
        ));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            RegressionTreeBuilder::new().build(&[]).unwrap_err(),
            TrainError::NoSamples
        );
    }

    #[test]
    #[should_panic(expected = "one weight per sample")]
    fn weight_length_mismatch_panics() {
        let samples = step_function(10);
        let _ = RegressionTreeBuilder::new().build_weighted(&samples, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn negative_weights_panic() {
        let samples = step_function(10);
        let weights = vec![-1.0; samples.len()];
        let _ = RegressionTreeBuilder::new().build_weighted(&samples, &weights);
    }

    #[test]
    fn pruning_shrinks_tree() {
        let samples = step_function(400);
        let mut loose = RegressionTreeBuilder::new();
        loose.complexity(0.0).min_split(2).min_bucket(1);
        let mut tight = RegressionTreeBuilder::new();
        tight.complexity(0.5).min_split(2).min_bucket(1);
        let big = loose.build(&samples).unwrap();
        let small = tight.build(&samples).unwrap();
        assert!(small.tree().n_nodes() <= big.tree().n_nodes());
    }

    #[test]
    fn deterministic() {
        let samples = step_function(100);
        let a = RegressionTreeBuilder::new().build(&samples).unwrap();
        let b = RegressionTreeBuilder::new().build(&samples).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn compiles_to_matching_flat_tree() {
        let tree = RegressionTreeBuilder::new()
            .build(&step_function(100))
            .unwrap();
        let compiled = tree.compile();
        for q in [[5.0, 0.0], [30.0, 0.0], [17.5, 2.0]] {
            assert_eq!(compiled.score(&q).to_bits(), tree.predict(&q).to_bits());
        }
    }
}
