//! Compiled flat trees for batch inference and persistence.
//!
//! Training produces pointer-chasing arenas ([`crate::tree::Tree`]) that
//! are convenient to grow, prune and print but slow to score in bulk and
//! awkward to serialize (leaf payloads are model-specific structs). This
//! module lowers every trained tree model onto one common runtime form:
//!
//! * [`CompactTree`] — a flat vector of 32-byte nodes (`u16` feature
//!   index, `f64` threshold, `u32` child links, one `f64` leaf payload).
//!   No generics, no pointers, two nodes per cache line; serialized as
//!   struct-of-arrays JSON.
//! * [`CompactForest`] — a weighted ensemble of compact trees with a
//!   single scalar score: `Σ wᵢ·treeᵢ(x) / Σ wᵢ`, optionally clamped to
//!   `[-1, 1]`. One tree with weight 1 degenerates to that tree's payload,
//!   so a lone classification or regression tree is just a forest of one.
//!
//! Every model family lowers onto this pair via a `compile()` method
//! (`ClassificationTree`, `RegressionTree`, `RandomForest`, `AdaBoost`,
//! `HealthModel`), preserving each family's score convention exactly:
//! positive means *good*, negative means *failing*, and thresholds and
//! summation orders match the training-time predictors bit for bit (for
//! ensembles whose score is already an ordered weighted sum) or in sign
//! (the random forest's majority vote).

use crate::split::FeatureMatrix;
use crate::tree::Tree;
use hdd_json::{JsonCodec, JsonError, Value};

/// Child-link sentinel marking a leaf node.
const LEAF: u32 = u32::MAX;

/// One flat tree node: 32 bytes, so two nodes share a cache line and a
/// traversal step touches exactly one node plus one feature value.
#[derive(Debug, Clone, PartialEq)]
struct Node {
    threshold: f64,
    payload: f64,
    left: u32,
    right: u32,
    feature: u16,
    /// Missing-value routing: NaN goes to the majority-weight child
    /// recorded at training time (see [`crate::tree::SplitNode`]).
    nan_left: bool,
}

const _: () = assert!(std::mem::size_of::<Node>() == 32, "Node must stay 32 bytes");

/// A flat decision tree over 32-byte nodes.
///
/// Node 0 is the root; children always have larger indices than their
/// parent (growth and pruning both emit pre-order arenas), so traversal
/// is guaranteed to terminate. A node is a leaf when its left link is
/// `u32::MAX`; leaves carry a single `f64` payload — the class target
/// (`±1`) for classification trees, the mean target for regression
/// trees. The JSON form stays struct-of-arrays (one array per field).
#[derive(Debug, Clone, PartialEq)]
pub struct CompactTree {
    nodes: Vec<Node>,
}

impl CompactTree {
    /// Lower an arena tree, mapping each leaf payload to `f64` and
    /// optionally remapping feature indices (`remap[local] = global`, for
    /// forest members trained on feature subsets).
    pub(crate) fn from_arena<L>(
        tree: &Tree<L>,
        remap: Option<&[usize]>,
        payload: impl Fn(&L) -> f64,
    ) -> CompactTree {
        let mut nodes = Vec::with_capacity(tree.n_nodes());
        for node in tree.nodes() {
            let payload = payload(&node.prediction);
            nodes.push(match &node.split {
                Some(s) => {
                    let global = remap.map_or(s.feature, |map| map[s.feature]);
                    assert!(global <= u16::MAX as usize, "feature index exceeds u16");
                    Node {
                        threshold: s.threshold,
                        payload,
                        left: s.left.0,
                        right: s.right.0,
                        feature: global as u16,
                        nan_left: s.nan_left,
                    }
                }
                None => Node {
                    threshold: 0.0,
                    payload,
                    left: LEAF,
                    right: LEAF,
                    feature: 0,
                    nan_left: false,
                },
            });
        }
        CompactTree { nodes }
    }

    /// Number of nodes.
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Payload of the leaf covering `features`.
    #[must_use]
    pub fn score(&self, features: &[f64]) -> f64 {
        let mut node = &self.nodes[0];
        loop {
            if node.left == LEAF {
                return node.payload;
            }
            let v = features[node.feature as usize];
            // NaN comparisons are false, so `v < threshold` would silently
            // send every missing value right; route NaN explicitly to the
            // majority direction instead, exactly like the arena walker.
            let next = if v.is_nan() {
                if node.nan_left {
                    node.left
                } else {
                    node.right
                }
            } else if v < node.threshold {
                node.left
            } else {
                node.right
            };
            node = &self.nodes[next as usize];
        }
    }

    /// Structural validation for decoded trees: forward-only child links,
    /// in-range features, finite numbers.
    fn validate(&self, n_features: usize) -> Result<(), JsonError> {
        let n = self.nodes.len();
        if n == 0 {
            return Err(JsonError::new("tree has no nodes"));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if !node.payload.is_finite() || !node.threshold.is_finite() {
                return Err(JsonError::new(format!("non-finite value at node {i}")));
            }
            let (l, r) = (node.left, node.right);
            if (l == LEAF) != (r == LEAF) {
                return Err(JsonError::new(format!("half-leaf node {i}")));
            }
            if l == LEAF {
                continue;
            }
            if (l as usize) <= i || (r as usize) <= i || l as usize >= n || r as usize >= n {
                return Err(JsonError::new(format!("bad child links at node {i}")));
            }
            if node.feature as usize >= n_features {
                return Err(JsonError::new(format!("feature out of range at node {i}")));
            }
        }
        Ok(())
    }
}

impl JsonCodec for CompactTree {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            (
                "feature".to_string(),
                Value::from_usizes(self.nodes.iter().map(|n| n.feature as usize)),
            ),
            (
                "threshold".to_string(),
                Value::from_f64s(self.nodes.iter().map(|n| n.threshold)),
            ),
            (
                "left".to_string(),
                Value::from_usizes(self.nodes.iter().map(|n| n.left as usize)),
            ),
            (
                "right".to_string(),
                Value::from_usizes(self.nodes.iter().map(|n| n.right as usize)),
            ),
            (
                "payload".to_string(),
                Value::from_f64s(self.nodes.iter().map(|n| n.payload)),
            ),
            (
                "nan".to_string(),
                Value::from_usizes(self.nodes.iter().map(|n| usize::from(n.nan_left))),
            ),
        ])
    }

    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let link = |key: &str| -> Result<Vec<u32>, JsonError> {
            value
                .usize_vec_field(key)?
                .into_iter()
                .map(|v| u32::try_from(v).map_err(|_| JsonError::expected("u32 child link", key)))
                .collect()
        };
        let feature = value
            .usize_vec_field("feature")?
            .into_iter()
            .map(|v| u16::try_from(v).map_err(|_| JsonError::expected("u16 feature", "feature")))
            .collect::<Result<Vec<u16>, JsonError>>()?;
        let threshold = value.f64_vec_field("threshold")?;
        let left = link("left")?;
        let right = link("right")?;
        let payload = value.f64_vec_field("payload")?;
        let nan_left = value
            .usize_vec_field("nan")?
            .into_iter()
            .map(|v| match v {
                0 => Ok(false),
                1 => Ok(true),
                _ => Err(JsonError::expected("0 or 1", "nan")),
            })
            .collect::<Result<Vec<bool>, JsonError>>()?;
        let n = payload.len();
        if [
            feature.len(),
            threshold.len(),
            left.len(),
            right.len(),
            nan_left.len(),
        ]
        .iter()
        .any(|&len| len != n)
        {
            return Err(JsonError::new("tree arrays disagree on length"));
        }
        let nodes = (0..n)
            .map(|i| Node {
                threshold: threshold[i],
                payload: payload[i],
                left: left[i],
                right: right[i],
                feature: feature[i],
                nan_left: nan_left[i],
            })
            .collect();
        Ok(CompactTree { nodes })
    }
}

/// A compiled weighted tree ensemble scoring `Σ wᵢ·treeᵢ(x) / Σ wᵢ`.
///
/// This is the serving form of every tree model in the workspace:
/// positive scores mean *good*, negative mean *failing*, matching the
/// paper's target convention throughout.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactForest {
    trees: Vec<CompactTree>,
    weights: Vec<f64>,
    /// Precomputed `Σ weights` (same summation order as the weights vec).
    total: f64,
    /// Clamp the final score to `[-1, 1]` (health models do).
    clamp: bool,
    n_features: usize,
}

impl CompactForest {
    /// Assemble a forest from compiled trees and per-tree weights.
    ///
    /// # Panics
    ///
    /// Panics if `trees` is empty, lengths disagree, or the weight total
    /// is not a positive finite number.
    pub(crate) fn new(
        trees: Vec<CompactTree>,
        weights: Vec<f64>,
        clamp: bool,
        n_features: usize,
    ) -> Self {
        assert!(!trees.is_empty(), "a forest needs at least one tree");
        assert_eq!(trees.len(), weights.len(), "one weight per tree");
        let total: f64 = weights.iter().sum();
        assert!(
            total.is_finite() && total > 0.0,
            "weight total must be positive and finite"
        );
        CompactForest {
            trees,
            weights,
            total,
            clamp,
            n_features,
        }
    }

    /// Dimensionality of the feature vectors this forest scores.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of member trees.
    #[must_use]
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Whether the final score is clamped to `[-1, 1]`.
    #[must_use]
    pub fn is_clamped(&self) -> bool {
        self.clamp
    }

    /// Score one sample: the normalized weighted vote, positive = good.
    ///
    /// # Panics
    ///
    /// Panics if `features` is shorter than [`CompactForest::n_features`].
    #[must_use]
    pub fn score(&self, features: &[f64]) -> f64 {
        assert!(
            features.len() >= self.n_features,
            "feature vector too short: {} < {}",
            features.len(),
            self.n_features
        );
        let mut acc = 0.0;
        for (tree, w) in self.trees.iter().zip(&self.weights) {
            acc += w * tree.score(features);
        }
        self.finish(acc)
    }

    /// `true` when the score is negative (the failing side).
    #[must_use]
    pub fn is_failed(&self, features: &[f64]) -> bool {
        self.score(features) < 0.0
    }

    /// Score every row of `x` into `out`: one row walk per row, trees in
    /// order, so each slot equals [`CompactForest::score`] bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong width or `out` the wrong length.
    pub fn predict_batch(&self, x: &FeatureMatrix, out: &mut [f64]) {
        assert_eq!(
            x.n_features(),
            self.n_features,
            "feature matrix width mismatch"
        );
        assert_eq!(out.len(), x.n_rows(), "one output slot per row");
        for (row, slot) in x.rows().zip(out.iter_mut()) {
            *slot = self.score(row);
        }
    }

    fn finish(&self, acc: f64) -> f64 {
        let score = acc / self.total;
        if self.clamp {
            score.clamp(-1.0, 1.0)
        } else {
            score
        }
    }
}

impl JsonCodec for CompactForest {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("n_features".to_string(), Value::Num(self.n_features as f64)),
            ("clamp".to_string(), Value::Bool(self.clamp)),
            (
                "weights".to_string(),
                Value::from_f64s(self.weights.iter().copied()),
            ),
            (
                "trees".to_string(),
                Value::Arr(self.trees.iter().map(JsonCodec::to_json).collect()),
            ),
        ])
    }

    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let n_features = value.usize_field("n_features")?;
        if n_features == 0 || n_features > u16::MAX as usize + 1 {
            return Err(JsonError::expected("1..=65536", "n_features"));
        }
        let clamp = value
            .field("clamp")?
            .as_bool()
            .ok_or_else(|| JsonError::expected("boolean", "clamp"))?;
        let weights = value.f64_vec_field("weights")?;
        let trees = value
            .field("trees")?
            .as_arr()
            .ok_or_else(|| JsonError::expected("array", "trees"))?
            .iter()
            .map(CompactTree::from_json)
            .collect::<Result<Vec<CompactTree>, JsonError>>()?;
        if trees.is_empty() || trees.len() != weights.len() {
            return Err(JsonError::new("trees and weights disagree"));
        }
        for tree in &trees {
            tree.validate(n_features)?;
        }
        let total: f64 = weights.iter().sum();
        if !total.is_finite() || total <= 0.0 {
            return Err(JsonError::new("weight total must be positive and finite"));
        }
        Ok(CompactForest {
            trees,
            weights,
            total,
            clamp,
            n_features,
        })
    }
}

impl crate::classifier::ClassificationTree {
    /// Compile to the flat serving form. The single tree votes its leaf
    /// class target (`+1` good, `-1` failed), so the compiled score is
    /// exactly [`Class::target`](crate::Class::target) of
    /// [`predict`](crate::classifier::ClassificationTree::predict).
    #[must_use]
    pub fn compile(&self) -> CompactForest {
        let tree = CompactTree::from_arena(self.tree(), None, |leaf| leaf.class.target());
        CompactForest::new(vec![tree], vec![1.0], false, self.tree().n_features())
    }
}

impl crate::regressor::RegressionTree {
    /// Compile to the flat serving form; the compiled score is exactly
    /// [`predict`](crate::regressor::RegressionTree::predict) (the leaf
    /// mean), unclamped.
    #[must_use]
    pub fn compile(&self) -> CompactForest {
        let tree = CompactTree::from_arena(self.tree(), None, |leaf| leaf.mean);
        CompactForest::new(vec![tree], vec![1.0], false, self.tree().n_features())
    }
}

impl crate::health::HealthModel {
    /// Compile to the flat serving form; the compiled score is exactly
    /// [`health`](crate::health::HealthModel::health) (the leaf mean
    /// clamped to `[-1, 1]`). The detection threshold is not baked in —
    /// detectors carry it (the paper tunes it after training).
    #[must_use]
    pub fn compile(&self) -> CompactForest {
        let arena = self.tree().tree();
        let tree = CompactTree::from_arena(arena, None, |leaf| leaf.mean);
        CompactForest::new(vec![tree], vec![1.0], true, arena.n_features())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::ClassificationTreeBuilder;
    use crate::health::HealthModel;
    use crate::regressor::RegressionTreeBuilder;
    use crate::sample::{Class, ClassSample, RegSample};

    fn grid(n_features: usize) -> Vec<Vec<f64>> {
        (0..200)
            .map(|i| {
                (0..n_features)
                    .map(|f| ((i * (f + 3) + f * 11) % 97) as f64 - 20.0)
                    .collect()
            })
            .collect()
    }

    fn class_samples(n: usize) -> Vec<ClassSample> {
        (0..n)
            .map(|i| {
                let x = (i % 31) as f64;
                let y = ((i * 5) % 13) as f64;
                let class = if x + 2.0 * y < 25.0 {
                    Class::Failed
                } else {
                    Class::Good
                };
                ClassSample::new(vec![x, y], class)
            })
            .collect()
    }

    #[test]
    fn classification_tree_parity() {
        let tree = ClassificationTreeBuilder::new()
            .build(&class_samples(300))
            .unwrap();
        let compiled = tree.compile();
        assert_eq!(compiled.n_features(), 2);
        for q in grid(2) {
            assert_eq!(compiled.score(&q), tree.predict(&q).target(), "{q:?}");
        }
    }

    #[test]
    fn regression_tree_parity() {
        let samples: Vec<RegSample> = (0..300)
            .map(|i| {
                let x = (i % 50) as f64;
                RegSample::new(vec![x, (i % 7) as f64], (x / 10.0).floor() - 2.0)
            })
            .collect();
        let tree = RegressionTreeBuilder::new().build(&samples).unwrap();
        let compiled = tree.compile();
        for q in grid(2) {
            assert_eq!(compiled.score(&q).to_bits(), tree.predict(&q).to_bits());
        }
    }

    #[test]
    fn health_model_parity_is_clamped() {
        let samples: Vec<RegSample> = (0..200)
            .map(|i| {
                let x = (i % 40) as f64;
                RegSample::new(vec![x], if x < 20.0 { -3.0 } else { 3.0 })
            })
            .collect();
        let model = HealthModel::new(RegressionTreeBuilder::new().build(&samples).unwrap(), -0.2);
        let compiled = model.compile();
        assert!(compiled.is_clamped());
        for q in grid(1) {
            let s = compiled.score(&q);
            assert!((-1.0..=1.0).contains(&s));
            assert_eq!(s.to_bits(), model.health(&q).to_bits());
        }
    }

    #[test]
    fn nan_routing_matches_arena_walker_bit_for_bit() {
        let tree = ClassificationTreeBuilder::new()
            .build(&class_samples(300))
            .unwrap();
        let compiled = tree.compile();
        // Poke NaN into each coordinate in turn, and both at once: the
        // compiled walker and the arena walker must agree exactly.
        for q in grid(2) {
            for mask in 1..4usize {
                let mut probe = q.clone();
                if mask & 1 != 0 {
                    probe[0] = f64::NAN;
                }
                if mask & 2 != 0 {
                    probe[1] = f64::NAN;
                }
                assert_eq!(
                    compiled.score(&probe).to_bits(),
                    tree.predict(&probe).target().to_bits(),
                    "{probe:?}"
                );
            }
        }
    }

    #[test]
    fn batch_matches_per_sample_exactly() {
        let tree = ClassificationTreeBuilder::new()
            .build(&class_samples(300))
            .unwrap();
        let compiled = tree.compile();
        let rows = grid(2);
        let matrix = FeatureMatrix::from_rows(rows.iter().map(Vec::as_slice));
        let mut out = vec![0.0; rows.len()];
        compiled.predict_batch(&matrix, &mut out);
        for (row, batch) in rows.iter().zip(&out) {
            assert_eq!(batch.to_bits(), compiled.score(row).to_bits());
        }
    }

    #[test]
    fn json_round_trip_is_bit_identical() {
        let tree = ClassificationTreeBuilder::new()
            .build(&class_samples(300))
            .unwrap();
        let compiled = tree.compile();
        let text = hdd_json::to_string(&compiled.to_json());
        let back = CompactForest::from_json(&hdd_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, compiled);
        for q in grid(2) {
            assert_eq!(back.score(&q).to_bits(), compiled.score(&q).to_bits());
        }
    }

    #[test]
    fn decode_rejects_malformed_documents() {
        let tree = ClassificationTreeBuilder::new()
            .build(&class_samples(200))
            .unwrap();
        let good = tree.compile().to_json();

        let mutate = |key: &str, v: Value| {
            let mut doc = good.clone();
            if let Value::Obj(pairs) = &mut doc {
                for (k, slot) in pairs.iter_mut() {
                    if k == key {
                        *slot = v.clone();
                    }
                }
            }
            doc
        };
        // Wrong-length weights.
        let doc = mutate("weights", Value::from_f64s([1.0, 2.0]));
        assert!(CompactForest::from_json(&doc).is_err());
        // Zero features.
        let doc = mutate("n_features", Value::Num(0.0));
        assert!(CompactForest::from_json(&doc).is_err());
        // Backward child link (node pointing at itself).
        let text = hdd_json::to_string(&good);
        let cyclic = text.replacen("\"left\":[", "\"left\":[0,", 1);
        let parsed = hdd_json::parse(&cyclic).unwrap();
        assert!(CompactForest::from_json(&parsed).is_err());
        // Empty forest.
        let doc = mutate("trees", Value::Arr(Vec::new()));
        assert!(CompactForest::from_json(&doc).is_err());
    }

    #[test]
    fn batched_traversal_bit_identical_across_forty_seeded_forests() {
        use crate::forest::RandomForestBuilder;
        // Heavy value ties (small moduli) so many thresholds sit on
        // repeated values; three features so trees differ per seed.
        let samples: Vec<ClassSample> = (0..180)
            .map(|i| {
                let x = (i % 5) as f64;
                let y = ((i * 7) % 3) as f64;
                let z = ((i * 11) % 23) as f64;
                let class = if x + z < 12.0 {
                    Class::Failed
                } else {
                    Class::Good
                };
                ClassSample::new(vec![x, y, z], class)
            })
            .collect();
        // Probe rows: the training points themselves (exact tie values),
        // off-grid points, and NaN in every coordinate pattern.
        let mut rows: Vec<Vec<f64>> = samples.iter().map(|s| s.features.clone()).collect();
        rows.extend(grid(3));
        for mask in 1..8usize {
            let mut probe = vec![2.0, 1.0, 11.0];
            for (f, slot) in probe.iter_mut().enumerate() {
                if mask & (1 << f) != 0 {
                    *slot = f64::NAN;
                }
            }
            rows.push(probe);
        }
        let matrix = FeatureMatrix::from_rows(rows.iter().map(Vec::as_slice));
        let mut out = vec![0.0; rows.len()];
        for seed in 0..40u64 {
            let mut builder = RandomForestBuilder::new();
            builder.n_trees(8).seed(seed);
            let compiled = builder.build(&samples).unwrap().compile();
            compiled.predict_batch(&matrix, &mut out);
            for (row, batch) in rows.iter().zip(&out) {
                assert_eq!(
                    batch.to_bits(),
                    compiled.score(row).to_bits(),
                    "seed {seed}, row {row:?}"
                );
            }
        }
    }

    #[test]
    fn batched_traversal_handles_single_node_trees() {
        // Prune to the root: the compiled tree is one leaf node.
        let mut builder = ClassificationTreeBuilder::new();
        builder.complexity(10.0);
        let compiled = builder.build(&class_samples(200)).unwrap().compile();
        assert_eq!(compiled.trees[0].n_nodes(), 1);
        let rows = grid(2);
        let matrix = FeatureMatrix::from_rows(rows.iter().map(Vec::as_slice));
        let mut out = vec![0.0; rows.len()];
        compiled.predict_batch(&matrix, &mut out);
        for (row, batch) in rows.iter().zip(&out) {
            assert_eq!(batch.to_bits(), compiled.score(row).to_bits());
        }
    }

    #[test]
    fn compiled_stump_has_flat_layout() {
        let samples: Vec<ClassSample> = (0..100)
            .map(|i| {
                let x = (i % 20) as f64;
                ClassSample::new(vec![x], if x < 10.0 { Class::Failed } else { Class::Good })
            })
            .collect();
        let tree = ClassificationTreeBuilder::new().build(&samples).unwrap();
        let compiled = tree.compile();
        assert_eq!(compiled.n_trees(), 1);
        assert!(compiled.trees[0].n_nodes() >= 3);
        assert_eq!(compiled.score(&[3.0]), -1.0);
        assert_eq!(compiled.score(&[15.0]), 1.0);
    }
}
