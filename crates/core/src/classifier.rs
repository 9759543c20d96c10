//! The Classification Tree model (Algorithm 1 of the paper).

use crate::grow::{grow, Limits, TreeKind};
use crate::sample::{validate_features, Class, ClassSample, TrainError};
use crate::split::{class_totals, FeatureMatrix, SplitCriterion, SplitSpec, SplitWorkspace};
use crate::tree::Tree;
use hdd_par::ThreadPool;
use std::fmt;

/// Leaf payload of a classification tree: the majority class and the
/// weighted class distribution (the fractions annotated on every node of
/// the paper's Figure 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassLeaf {
    /// Majority (weighted) class.
    pub class: Class,
    /// Total weight of good samples at the node.
    pub w_good: f64,
    /// Total weight of failed samples at the node.
    pub w_failed: f64,
}

impl ClassLeaf {
    /// Weighted failed fraction in `[0, 1]`.
    #[must_use]
    pub fn failed_fraction(&self) -> f64 {
        let total = self.w_good + self.w_failed;
        if total <= 0.0 {
            0.0
        } else {
            self.w_failed / total
        }
    }
}

impl fmt::Display for ClassLeaf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (p_failed={:.2})", self.class, self.failed_fraction())
    }
}

/// Configures and trains [`ClassificationTree`]s.
///
/// Defaults are the paper's settings (§V-A2/§V-A3): `Minsplit = 20`,
/// `Minbucket = 7`, `CP = 0.001`, failed samples re-weighted to 20% of the
/// total, false alarms costed 10× misses.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassificationTreeBuilder {
    limits: Limits,
    failed_weight_fraction: Option<f64>,
    false_alarm_loss: f64,
    criterion: SplitCriterion,
}

impl Default for ClassificationTreeBuilder {
    fn default() -> Self {
        ClassificationTreeBuilder {
            limits: Limits::default(),
            failed_weight_fraction: Some(0.2),
            false_alarm_loss: 10.0,
            criterion: SplitCriterion::InformationGain,
        }
    }
}

impl ClassificationTreeBuilder {
    /// A builder with the paper's default parameters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `Minsplit`: the minimum number of samples a node needs before a
    /// split is even considered.
    pub fn min_split(&mut self, n: usize) -> &mut Self {
        self.limits.min_split = n.max(2);
        self
    }

    /// `Minbucket`: the minimum number of samples in any leaf.
    pub fn min_bucket(&mut self, n: usize) -> &mut Self {
        self.limits.min_bucket = n.max(1);
        self
    }

    /// The complexity parameter: after the tree is fully grown, every
    /// subtree whose split's scaled information gain is below `cp` is
    /// pruned back (Algorithm 1, lines 18–22).
    pub fn complexity(&mut self, cp: f64) -> &mut Self {
        self.limits.complexity = cp.max(0.0);
        self
    }

    /// Re-weight the failed samples so they make up `fraction` of the
    /// total training weight (the paper boosts them to 0.2). `None` keeps
    /// natural sample weights.
    pub fn failed_weight_fraction(&mut self, fraction: Option<f64>) -> &mut Self {
        if let Some(f) = fraction {
            assert!(
                f > 0.0 && f < 1.0,
                "failed weight fraction must be in (0, 1)"
            );
        }
        self.failed_weight_fraction = fraction;
        self
    }

    /// Loss weight of a false alarm relative to a missed detection (the
    /// paper uses 10). Larger values push leaf labels — and therefore the
    /// operating point — toward fewer false alarms.
    pub fn false_alarm_loss(&mut self, loss: f64) -> &mut Self {
        assert!(loss > 0.0, "loss weight must be positive");
        self.false_alarm_loss = loss;
        self
    }

    /// Optional hard depth cap (not in the paper; useful for ablations).
    pub fn max_depth(&mut self, depth: Option<usize>) -> &mut Self {
        self.limits.max_depth = depth;
        self
    }

    /// Splitting criterion: information gain (paper) or Gini (rpart's
    /// default; ablation).
    pub fn criterion(&mut self, criterion: SplitCriterion) -> &mut Self {
        self.criterion = criterion;
        self
    }

    /// Train a tree on `samples` (Algorithm 1). The split search fans out
    /// on [`ThreadPool::global`]; the tree is bit-identical on any pool.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if `samples` is empty, has inconsistent or
    /// non-finite features, or contains a single class.
    pub fn build(&self, samples: &[ClassSample]) -> Result<ClassificationTree, TrainError> {
        let classes: Vec<Class> = samples.iter().map(|s| s.class).collect();
        let weights = self.sample_weights(&classes);
        self.build_weighted(samples, &weights)
    }

    /// Train with explicit per-sample weights (boosting algorithms supply
    /// their own); the builder's class re-weighting and loss settings are
    /// bypassed.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if `samples` is empty, has inconsistent or
    /// non-finite features, or contains a single class.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != samples.len()` or any weight is not a
    /// positive finite number.
    pub fn build_weighted(
        &self,
        samples: &[ClassSample],
        weights: &[f64],
    ) -> Result<ClassificationTree, TrainError> {
        validate_features(samples.iter().map(|s| s.features.as_slice()))?;
        let classes: Vec<Class> = samples.iter().map(|s| s.class).collect();
        let matrix = FeatureMatrix::from_rows(samples.iter().map(|s| s.features.as_slice()));
        let pool = ThreadPool::global();
        let mut workspace = SplitWorkspace::new();
        workspace.reset_sorted(&matrix, pool);
        self.build_weighted_prepared(&classes, weights, &mut workspace, pool)
    }

    /// Train from pre-assembled parts: per-row classes and a
    /// [`SplitWorkspace`] already holding sorted (or bootstrap-derived)
    /// stripes for the training matrix. The builder's class re-weighting
    /// and loss settings apply. Features must already be validated finite;
    /// the tree's dimensionality is the workspace's stripe count.
    ///
    /// This is the allocation-free inner path forest training drives: the
    /// caller owns the workspace and refills it per tree.
    pub(crate) fn build_prepared(
        &self,
        classes: &[Class],
        workspace: &mut SplitWorkspace,
        pool: ThreadPool,
    ) -> Result<ClassificationTree, TrainError> {
        let weights = self.sample_weights(classes);
        self.build_weighted_prepared(classes, &weights, workspace, pool)
    }

    /// [`ClassificationTreeBuilder::build_prepared`] with explicit
    /// per-sample weights (the boosting path).
    pub(crate) fn build_weighted_prepared(
        &self,
        classes: &[Class],
        weights: &[f64],
        workspace: &mut SplitWorkspace,
        pool: ThreadPool,
    ) -> Result<ClassificationTree, TrainError> {
        assert_eq!(weights.len(), classes.len(), "one weight per sample");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "weights must be positive and finite"
        );
        let n_failed = classes.iter().filter(|c| **c == Class::Failed).count();
        if n_failed == 0 || n_failed == classes.len() {
            return Err(TrainError::SingleClass);
        }
        let kind = Classification {
            classes,
            weights,
            criterion: self.criterion,
        };
        Ok(ClassificationTree {
            tree: grow(&kind, self.limits, workspace, pool),
        })
    }

    /// Per-sample weights implementing the class re-weighting and the
    /// asymmetric loss, rpart-style (loss folded into altered priors).
    fn sample_weights(&self, classes: &[Class]) -> Vec<f64> {
        let n = classes.len() as f64;
        let n_failed = classes.iter().filter(|c| **c == Class::Failed).count() as f64;
        let n_good = n - n_failed;
        let (prior_good, prior_failed) = match self.failed_weight_fraction {
            Some(f) => (1.0 - f, f),
            None => (n_good / n, n_failed / n),
        };
        // Loss-altered priors: misclassifying a good sample (false alarm)
        // costs `false_alarm_loss`, a missed failed sample costs 1.
        let w_good = prior_good * self.false_alarm_loss / n_good;
        let w_failed = prior_failed / n_failed;
        classes
            .iter()
            .map(|c| match c {
                Class::Good => w_good,
                Class::Failed => w_failed,
            })
            .collect()
    }
}

/// A trained classification tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassificationTree {
    tree: Tree<ClassLeaf>,
}

impl ClassificationTree {
    /// Predict the class of a feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `features` is shorter than the training dimensionality.
    #[must_use]
    pub fn predict(&self, features: &[f64]) -> Class {
        self.tree.leaf_for(features).prediction.class
    }

    /// The weighted failed fraction of the covering leaf — a score in
    /// `[0, 1]` useful for ranking; note the training weights (class
    /// boosting + loss) are baked in.
    #[must_use]
    pub fn predict_failed_fraction(&self, features: &[f64]) -> f64 {
        self.tree.leaf_for(features).prediction.failed_fraction()
    }

    /// The underlying tree (rules, importance, structure).
    #[must_use]
    pub fn tree(&self) -> &Tree<ClassLeaf> {
        &self.tree
    }

    /// The decision rules as text (Figure 1 of the paper).
    #[must_use]
    pub fn rules(&self, feature_names: &[String]) -> String {
        self.tree.rules(feature_names)
    }

    /// Normalized per-feature importance.
    #[must_use]
    pub fn feature_importance(&self) -> Vec<f64> {
        self.tree.feature_importance()
    }

    /// A copy pruned by weakest-link cost-complexity pruning with
    /// parameter `alpha` — the classical alternative (Breiman et al.) to
    /// the paper's gain-threshold rule; see
    /// [`cost_complexity_prune`](crate::prune::cost_complexity_prune).
    #[must_use]
    pub fn pruned_cost_complexity(&self, alpha: f64) -> ClassificationTree {
        ClassificationTree {
            tree: crate::prune::cost_complexity_prune(&self.tree, alpha),
        }
    }
}

/// Algorithm 1's part of the shared descent: nodes carry their
/// `(good, failed)` weight totals and split by information gain (or
/// Gini).
struct Classification<'a> {
    classes: &'a [Class],
    weights: &'a [f64],
    criterion: SplitCriterion,
}

impl TreeKind for Classification<'_> {
    type Stats = (f64, f64);
    type Leaf = ClassLeaf;

    fn weights(&self) -> &[f64] {
        self.weights
    }

    fn stats(&self, members: &[u32]) -> (f64, f64) {
        class_totals(members, self.classes, self.weights)
    }

    fn leaf((w_good, w_failed): (f64, f64)) -> ClassLeaf {
        ClassLeaf {
            class: if w_failed > w_good {
                Class::Failed
            } else {
                Class::Good
            },
            w_good,
            w_failed,
        }
    }

    fn weight((w_good, w_failed): (f64, f64)) -> f64 {
        w_good + w_failed
    }

    fn search(
        &self,
        ws: &SplitWorkspace,
        start: usize,
        end: usize,
        totals: (f64, f64),
        min_bucket: usize,
        pool: ThreadPool,
    ) -> Option<SplitSpec> {
        ws.best_classification_split(
            start,
            end,
            totals,
            self.classes,
            self.weights,
            min_bucket,
            self.criterion,
            pool,
        )
    }

    /// Local information gain × the node's weight share.
    fn scaled_gain(gain: f64, fraction: f64, _root: (f64, f64)) -> f64 {
        gain * fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable(n_per_class: usize) -> Vec<ClassSample> {
        let mut out = Vec::new();
        for i in 0..n_per_class {
            let x = (i % 17) as f64;
            out.push(ClassSample::new(vec![x, 0.0], Class::Good));
            out.push(ClassSample::new(vec![x + 50.0, 1.0], Class::Failed));
        }
        out
    }

    #[test]
    fn learns_a_separable_problem() {
        let tree = ClassificationTreeBuilder::new()
            .build(&separable(40))
            .unwrap();
        assert_eq!(tree.predict(&[3.0, 0.0]), Class::Good);
        assert_eq!(tree.predict(&[55.0, 1.0]), Class::Failed);
        assert!(tree.tree().n_leaves() >= 2);
    }

    #[test]
    fn rejects_single_class() {
        let samples = vec![ClassSample::new(vec![1.0], Class::Good); 30];
        assert_eq!(
            ClassificationTreeBuilder::new()
                .build(&samples)
                .unwrap_err(),
            TrainError::SingleClass
        );
    }

    #[test]
    fn rejects_empty_and_invalid() {
        let builder = ClassificationTreeBuilder::new();
        assert_eq!(builder.build(&[]).unwrap_err(), TrainError::NoSamples);
        let bad = vec![
            ClassSample::new(vec![f64::NAN], Class::Good),
            ClassSample::new(vec![1.0], Class::Failed),
        ];
        assert!(matches!(
            builder.build(&bad).unwrap_err(),
            TrainError::InvalidFeatures { .. }
        ));
    }

    #[test]
    fn min_split_limits_growth() {
        let samples = separable(40);
        let mut b = ClassificationTreeBuilder::new();
        b.min_split(10_000);
        let tree = b.build(&samples).unwrap();
        assert_eq!(tree.tree().n_nodes(), 1, "root must stay a leaf");
    }

    #[test]
    fn high_complexity_prunes_to_root() {
        let samples = separable(40);
        let mut b = ClassificationTreeBuilder::new();
        b.complexity(10.0);
        let tree = b.build(&samples).unwrap();
        assert_eq!(tree.tree().n_nodes(), 1);
    }

    #[test]
    fn max_depth_caps_tree() {
        let samples = separable(60);
        let mut b = ClassificationTreeBuilder::new();
        b.max_depth(Some(2)).complexity(0.0);
        let tree = b.build(&samples).unwrap();
        assert!(tree.tree().depth() <= 2);
    }

    #[test]
    fn false_alarm_loss_biases_toward_good() {
        // Mixed region: 40% failed. With symmetric weights the region
        // could be labelled failed when boosted; with a strong FA loss it
        // must be labelled good.
        let mut samples = Vec::new();
        for i in 0..60u32 {
            // Feature is independent of the class: the region is mixed.
            let x = f64::from((i / 5) % 10);
            let class = if i % 5 < 3 {
                Class::Failed
            } else {
                Class::Good
            };
            samples.push(ClassSample::new(vec![x], class));
        }
        let mut plain = ClassificationTreeBuilder::new();
        plain.false_alarm_loss(1.0).failed_weight_fraction(None);
        let t = plain.build(&samples).unwrap();
        assert_eq!(t.predict(&[5.0]), Class::Failed, "failed majority wins");

        let mut b = ClassificationTreeBuilder::new();
        b.false_alarm_loss(50.0).failed_weight_fraction(None);
        let cautious = b.build(&samples).unwrap();
        assert_eq!(cautious.predict(&[5.0]), Class::Good);
    }

    #[test]
    fn boosting_flips_an_imbalanced_region() {
        // 10% failed overall, inseparable: natural weights label good.
        let mut samples = Vec::new();
        for i in 0..100 {
            let class = if i % 10 == 0 {
                Class::Failed
            } else {
                Class::Good
            };
            samples.push(ClassSample::new(vec![f64::from(i % 7)], class));
        }
        let mut natural = ClassificationTreeBuilder::new();
        natural
            .failed_weight_fraction(None)
            .false_alarm_loss(1.0)
            .complexity(1.0);
        let t = natural.build(&samples).unwrap();
        assert_eq!(t.predict(&[3.0]), Class::Good);

        let mut boosted = ClassificationTreeBuilder::new();
        boosted
            .failed_weight_fraction(Some(0.9))
            .false_alarm_loss(1.0)
            .complexity(1.0);
        let t = boosted.build(&samples).unwrap();
        assert_eq!(t.predict(&[3.0]), Class::Failed);
    }

    #[test]
    fn failed_fraction_reflects_leaf_purity() {
        let tree = ClassificationTreeBuilder::new()
            .build(&separable(40))
            .unwrap();
        assert!(tree.predict_failed_fraction(&[3.0, 0.0]) < 0.5);
        assert!(tree.predict_failed_fraction(&[55.0, 1.0]) > 0.5);
    }

    #[test]
    fn rules_and_importance() {
        let tree = ClassificationTreeBuilder::new()
            .build(&separable(40))
            .unwrap();
        let rules = tree.rules(&["x".to_string(), "flag".to_string()]);
        assert!(rules.contains("root"), "{rules}");
        let imp = tree.feature_importance();
        assert_eq!(imp.len(), 2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn training_is_deterministic() {
        let samples = separable(50);
        let a = ClassificationTreeBuilder::new().build(&samples).unwrap();
        let b = ClassificationTreeBuilder::new().build(&samples).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn compiles_to_matching_flat_tree() {
        let tree = ClassificationTreeBuilder::new()
            .build(&separable(30))
            .unwrap();
        let compiled = tree.compile();
        assert_eq!(compiled.score(&[3.0, 0.0]), Class::Good.target());
        assert_eq!(compiled.score(&[55.0, 1.0]), Class::Failed.target());
    }
}
