//! AdaBoost over shallow classification trees.
//!
//! The authors' earlier work (reference \[11\], MSST'13) evaluated AdaBoost and found
//! it "does not provide significant performance improvement and is much
//! more computationally expensive" (§V of the paper) — which is why the
//! paper sticks to a single tree. This module implements discrete
//! AdaBoost so that claim can be reproduced (see the `exp_related_work`
//! experiment binary).

use crate::classifier::{ClassificationTree, ClassificationTreeBuilder};
use crate::compact::{CompactForest, CompactTree};
use crate::sample::{Class, ClassSample, TrainError};
use crate::split::{FeatureMatrix, SplitWorkspace};
use hdd_par::ThreadPool;

/// Configures and trains [`AdaBoost`] ensembles.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaBoostBuilder {
    rounds: usize,
    weak_depth: usize,
}

impl Default for AdaBoostBuilder {
    fn default() -> Self {
        AdaBoostBuilder {
            rounds: 30,
            weak_depth: 2,
        }
    }
}

impl AdaBoostBuilder {
    /// Defaults: 30 boosting rounds of depth-2 trees.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Maximum boosting rounds (training may stop early when a weak
    /// learner is perfect or no better than chance).
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero.
    pub fn rounds(&mut self, rounds: usize) -> &mut Self {
        assert!(rounds >= 1, "need at least one round");
        self.rounds = rounds;
        self
    }

    /// Depth cap of the weak learners (decision stumps at depth 1).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn weak_depth(&mut self, depth: usize) -> &mut Self {
        assert!(depth >= 1, "weak learners need at least one level");
        self.weak_depth = depth;
        self
    }

    /// Train an ensemble (discrete AdaBoost).
    ///
    /// Boosting rounds are inherently sequential (each re-weights from
    /// the last), so [`ThreadPool::global`] accelerates the inside of a
    /// round: the weak learner's split search and the per-sample
    /// prediction pass. The ensemble is bit-identical on any pool.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] on degenerate inputs.
    pub fn build(&self, samples: &[ClassSample]) -> Result<AdaBoost, TrainError> {
        crate::sample::validate_features(samples.iter().map(|s| s.features.as_slice()))?;
        let n = samples.len();
        let n_failed = samples.iter().filter(|s| s.class == Class::Failed).count();
        if n_failed == 0 || n_failed == n {
            return Err(TrainError::SingleClass);
        }

        let pool = ThreadPool::global();
        let mut weak_builder = ClassificationTreeBuilder::new();
        weak_builder
            .max_depth(Some(self.weak_depth + 1)) // depth counts the root
            .min_split(2)
            .min_bucket(1)
            .complexity(0.0)
            .failed_weight_fraction(None)
            .false_alarm_loss(1.0);

        // The feature matrix is constant across rounds: sort its stripes
        // once and memcpy the pristine copy back before each round instead
        // of re-sorting every column per weak learner.
        let classes: Vec<Class> = samples.iter().map(|s| s.class).collect();
        let matrix = FeatureMatrix::from_rows(samples.iter().map(|s| s.features.as_slice()));
        let mut pristine = SplitWorkspace::new();
        pristine.reset_sorted(&matrix, pool);
        let mut workspace = SplitWorkspace::new();

        let mut weights = vec![1.0 / n as f64; n];
        let mut members = Vec::new();
        for _ in 0..self.rounds {
            workspace.load_from(&pristine);
            let tree =
                weak_builder.build_weighted_prepared(&classes, &weights, &mut workspace, pool)?;
            // Weighted training error.
            let predictions: Vec<Class> = pool.parallel_map(samples, |s| tree.predict(&s.features));
            let err: f64 = weights
                .iter()
                .zip(samples.iter().zip(&predictions))
                .filter(|(_, (s, p))| s.class != **p)
                .map(|(w, _)| *w)
                .sum();
            if err >= 0.5 {
                break; // no better than chance: stop
            }
            let err = err.max(1e-12);
            let alpha = 0.5 * ((1.0 - err) / err).ln();
            members.push(BoostMember { alpha, tree });
            if err <= 1e-12 {
                break; // perfect learner: further rounds are redundant
            }
            // Re-weight: mistakes up, hits down; then renormalize.
            let mut total = 0.0;
            for (w, (s, p)) in weights.iter_mut().zip(samples.iter().zip(&predictions)) {
                let agree = if s.class == *p { 1.0 } else { -1.0 };
                *w *= (-alpha * agree).exp();
                total += *w;
            }
            for w in &mut weights {
                *w /= total;
            }
        }
        if members.is_empty() {
            // Even the first weak learner was at chance; fall back to it.
            workspace.load_from(&pristine);
            let tree =
                weak_builder.build_weighted_prepared(&classes, &weights, &mut workspace, pool)?;
            members.push(BoostMember { alpha: 1.0, tree });
        }
        Ok(AdaBoost { members })
    }
}

#[derive(Debug, Clone, PartialEq)]
struct BoostMember {
    alpha: f64,
    tree: ClassificationTree,
}

/// A trained AdaBoost ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaBoost {
    members: Vec<BoostMember>,
}

impl AdaBoost {
    /// Number of boosting rounds actually used.
    #[must_use]
    pub fn n_rounds(&self) -> usize {
        self.members.len()
    }

    /// The weighted vote in `[-1, 1]`: positive means *good*, matching
    /// the paper's target convention.
    ///
    /// # Panics
    ///
    /// Panics if `features` is shorter than the training dimensionality.
    #[must_use]
    pub fn decision_value(&self, features: &[f64]) -> f64 {
        let total: f64 = self.members.iter().map(|m| m.alpha).sum();
        let vote: f64 = self
            .members
            .iter()
            .map(|m| m.alpha * m.tree.predict(features).target())
            .sum();
        vote / total
    }

    /// Sign of the weighted vote.
    #[must_use]
    pub fn predict(&self, features: &[f64]) -> Class {
        if self.decision_value(features) < 0.0 {
            Class::Failed
        } else {
            Class::Good
        }
    }

    /// Compile to the flat serving form. Each weak learner votes its leaf
    /// class target with weight `αᵢ`; the member order and the `Σ α`
    /// divisor match [`decision_value`](AdaBoost::decision_value), so the
    /// compiled score is bit-identical to it.
    #[must_use]
    pub fn compile(&self) -> CompactForest {
        let n_features = self.members[0].tree.tree().n_features();
        let trees: Vec<CompactTree> = self
            .members
            .iter()
            .map(|m| CompactTree::from_arena(m.tree.tree(), None, |leaf| leaf.class.target()))
            .collect();
        let weights: Vec<f64> = self.members.iter().map(|m| m.alpha).collect();
        CompactForest::new(trees, weights, false, n_features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A diagonal boundary no single axis-aligned stump can express.
    fn diagonal(n: usize) -> Vec<ClassSample> {
        (0..n)
            .map(|i| {
                let x = (i % 17) as f64;
                let y = ((i * 7) % 19) as f64;
                let class = if x + y < 16.0 {
                    Class::Failed
                } else {
                    Class::Good
                };
                ClassSample::new(vec![x, y], class)
            })
            .collect()
    }

    #[test]
    fn boosting_beats_a_single_stump_on_diagonal_data() {
        let samples = diagonal(300);
        let mut stump_builder = ClassificationTreeBuilder::new();
        stump_builder
            .max_depth(Some(2))
            .failed_weight_fraction(None)
            .false_alarm_loss(1.0)
            .complexity(0.0)
            .min_split(2)
            .min_bucket(1);
        let stump = stump_builder.build(&samples).unwrap();
        let ensemble = AdaBoostBuilder::new()
            .rounds(40)
            .weak_depth(1)
            .build(&samples)
            .unwrap();

        let accuracy = |f: &dyn Fn(&[f64]) -> Class| {
            samples.iter().filter(|s| f(&s.features) == s.class).count() as f64
                / samples.len() as f64
        };
        let stump_acc = accuracy(&|x| stump.predict(x));
        let boost_acc = accuracy(&|x| ensemble.predict(x));
        assert!(
            boost_acc > stump_acc + 0.02,
            "boosting {boost_acc} vs stump {stump_acc}"
        );
        assert!(ensemble.n_rounds() > 1);
    }

    #[test]
    fn perfect_weak_learner_stops_early() {
        // Linearly separable on one feature: the first depth-2 tree is
        // perfect and boosting stops after one round.
        let samples: Vec<ClassSample> = (0..100)
            .map(|i| {
                let x = f64::from(i % 50);
                let class = if x < 25.0 { Class::Failed } else { Class::Good };
                ClassSample::new(vec![x], class)
            })
            .collect();
        let ensemble = AdaBoostBuilder::new().rounds(30).build(&samples).unwrap();
        assert_eq!(ensemble.n_rounds(), 1);
        assert_eq!(ensemble.predict(&[3.0]), Class::Failed);
        assert_eq!(ensemble.predict(&[40.0]), Class::Good);
    }

    #[test]
    fn decision_value_is_bounded() {
        let samples = diagonal(120);
        let ensemble = AdaBoostBuilder::new().rounds(10).build(&samples).unwrap();
        for s in &samples {
            let v = ensemble.decision_value(&s.features);
            assert!((-1.0..=1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn rejects_single_class() {
        let samples = vec![ClassSample::new(vec![1.0], Class::Good); 10];
        assert_eq!(
            AdaBoostBuilder::new().build(&samples).unwrap_err(),
            TrainError::SingleClass
        );
    }

    #[test]
    fn deterministic() {
        let samples = diagonal(150);
        let a = AdaBoostBuilder::new().build(&samples).unwrap();
        let b = AdaBoostBuilder::new().build(&samples).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let samples = diagonal(150);
        let build =
            |threads| ThreadPool::new(threads).install(|| AdaBoostBuilder::new().build(&samples));
        assert_eq!(
            build(1).unwrap(),
            build(4).unwrap(),
            "ensemble must not depend on thread count"
        );
    }

    #[test]
    fn compiled_ensemble_matches_decision_value_exactly() {
        let samples = diagonal(150);
        let ensemble = AdaBoostBuilder::new().rounds(12).build(&samples).unwrap();
        let compiled = ensemble.compile();
        assert_eq!(compiled.n_trees(), ensemble.n_rounds());
        for s in &samples {
            let compiled_score = compiled.score(&s.features);
            let reference = ensemble.decision_value(&s.features);
            assert_eq!(compiled_score.to_bits(), reference.to_bits());
        }
    }
}
