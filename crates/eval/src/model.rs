//! The unified predictor layer: one serving interface for every model.
//!
//! Training-time types are heterogeneous — arena trees, weighted
//! ensembles, a neural network — but detection only ever needs one thing:
//! a scalar score per sample, negative meaning *failing*. This module
//! pins that contract down as [`Predictor`] and connects the rest of the
//! workspace to it:
//!
//! * [`Compile`] — lowering from a trained model to its serving form
//!   (tree models compile to [`CompactForest`], the BP ANN serves as-is);
//! * [`TrainableModel`] — the training entry point the generic
//!   [`Experiment::run`](crate::pipeline::Experiment::run) is written
//!   against, implemented by every model builder;
//! * [`SavedModel`] + [`ModelError`] — versioned JSON persistence with a
//!   `kind`/`n_features` header, so a model trained by `hddpred train`
//!   reloads bit-identically in `hddpred detect`.

use crate::detect::VotingRule;
use hdd_ann::{AnnConfig, AnnError, BpAnn};
use hdd_cart::boosting::{AdaBoost, AdaBoostBuilder};
use hdd_cart::classifier::{ClassificationTree, ClassificationTreeBuilder};
use hdd_cart::forest::{RandomForest, RandomForestBuilder};
use hdd_cart::health::HealthModel;
use hdd_cart::regressor::RegressionTree;
use hdd_cart::sample::{ClassSample, TrainError};
use hdd_cart::{CompactForest, FeatureMatrix};
use hdd_json::container::{self, ContainerError};
use hdd_json::disk::{Disk as _, RealDisk};
use hdd_json::{JsonCodec, JsonError, Value};
use std::fmt;
use std::path::Path;

/// Anything that scores feature vectors; negative scores vote "failed".
///
/// The compiled tree models score their (weighted) vote in `[-1, 1]`-ish
/// ranges, the BP ANN its `(-1, 1)` output, and the regression/health
/// models the predicted health degree. `Sync` is a supertrait because
/// evaluation fans drives out across threads sharing one model.
pub trait Predictor: Sync {
    /// Dimensionality of the feature vectors this model scores.
    fn n_features(&self) -> usize;

    /// Score one feature vector (negative ⇒ failing).
    fn score(&self, features: &[f64]) -> f64;

    /// Score every row of `x` into `out`.
    ///
    /// The default loops [`Predictor::score`]; the compiled forest forwards
    /// to its own row walk, which also checks the matrix width.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != x.n_rows()` or `x` has the wrong width.
    fn predict_batch(&self, x: &FeatureMatrix, out: &mut [f64]) {
        assert_eq!(out.len(), x.n_rows(), "one output slot per row");
        for (r, slot) in out.iter_mut().enumerate() {
            *slot = self.score(x.row(r));
        }
    }
}

impl Predictor for CompactForest {
    fn n_features(&self) -> usize {
        CompactForest::n_features(self)
    }

    fn score(&self, features: &[f64]) -> f64 {
        CompactForest::score(self, features)
    }

    fn predict_batch(&self, x: &FeatureMatrix, out: &mut [f64]) {
        CompactForest::predict_batch(self, x, out);
    }
}

impl Predictor for BpAnn {
    fn n_features(&self) -> usize {
        self.n_inputs()
    }

    fn score(&self, features: &[f64]) -> f64 {
        self.predict(features)
    }
}

/// Lowering from a trained model to its serving ([`Predictor`]) form.
pub trait Compile {
    /// The serving form.
    type Compiled: Predictor;

    /// Compile for inference. Scores are preserved exactly (single trees,
    /// AdaBoost, health models) or in sign (the random forest's majority
    /// vote); see each model's `compile` documentation.
    fn compile(&self) -> Self::Compiled;
}

macro_rules! compile_to_forest {
    ($($model:ty),+) => {$(
        impl Compile for $model {
            type Compiled = CompactForest;

            fn compile(&self) -> CompactForest {
                <$model>::compile(self)
            }
        }
    )+};
}

compile_to_forest!(
    ClassificationTree,
    RegressionTree,
    HealthModel,
    RandomForest,
    AdaBoost
);

impl Compile for BpAnn {
    type Compiled = BpAnn;

    fn compile(&self) -> BpAnn {
        self.clone()
    }
}

impl Compile for CompactForest {
    type Compiled = CompactForest;

    fn compile(&self) -> CompactForest {
        self.clone()
    }
}

/// A model family's training entry point, as used by the generic
/// [`Experiment::run`](crate::pipeline::Experiment::run): train on
/// labelled samples, compile the result, evaluate under the family's
/// voting rule.
pub trait TrainableModel {
    /// The trained (inspectable) model.
    type Model: Compile;
    /// Why training can fail.
    type Error: std::error::Error;

    /// Train on classification samples.
    ///
    /// # Errors
    ///
    /// Returns the family's training error on degenerate inputs.
    fn train(&self, samples: &[ClassSample]) -> Result<Self::Model, Self::Error>;

    /// The voting rule detection uses for this family (majority voting
    /// for all classifiers; the health-degree pipeline overrides it).
    fn rule(&self) -> VotingRule {
        VotingRule::Majority
    }
}

impl TrainableModel for ClassificationTreeBuilder {
    type Model = ClassificationTree;
    type Error = TrainError;

    fn train(&self, samples: &[ClassSample]) -> Result<ClassificationTree, TrainError> {
        self.build(samples)
    }
}

impl TrainableModel for RandomForestBuilder {
    type Model = RandomForest;
    type Error = TrainError;

    fn train(&self, samples: &[ClassSample]) -> Result<RandomForest, TrainError> {
        self.build(samples)
    }
}

impl TrainableModel for AdaBoostBuilder {
    type Model = AdaBoost;
    type Error = TrainError;

    fn train(&self, samples: &[ClassSample]) -> Result<AdaBoost, TrainError> {
        self.build(samples)
    }
}

impl TrainableModel for AnnConfig {
    type Model = BpAnn;
    type Error = AnnError;

    fn train(&self, samples: &[ClassSample]) -> Result<BpAnn, AnnError> {
        let inputs: Vec<Vec<f64>> = samples.iter().map(|s| s.features.clone()).collect();
        let targets: Vec<f64> = samples.iter().map(|s| s.class.target()).collect();
        BpAnn::train(self, &inputs, &targets)
    }
}

/// Model-file format version; bumped on incompatible layout changes.
///
/// Version 2 added the checksummed container (a header line with
/// per-block CRC-32s in front of the envelope) and the `nan` routing
/// array inside compact trees; version-1 files are rejected with
/// [`ModelError::UnsupportedVersion`].
pub const MODEL_FORMAT_VERSION: usize = 2;

/// Magic string opening the checksummed container's header line.
const MODEL_MAGIC: &str = "hddpred-model";

/// Why saving or loading a model failed.
#[derive(Debug)]
pub enum ModelError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file is not valid JSON or not a valid model document.
    Json(JsonError),
    /// The file was written by an incompatible format version.
    UnsupportedVersion(usize),
    /// The `kind` header names a model family this build cannot load.
    UnknownKind(String),
    /// The model was trained on a different feature dimensionality than
    /// the caller's feature set extracts.
    FeatureMismatch {
        /// Features the caller's pipeline extracts.
        expected: usize,
        /// Features the saved model was trained on.
        found: usize,
    },
    /// The file's bytes contradict its recorded checksums or container
    /// layout — on-disk corruption, naming the failing byte offset.
    Corrupt {
        /// Byte offset (from the start of the file) of the failure.
        offset: usize,
        /// What was wrong there.
        detail: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Io(err) => write!(f, "model file i/o: {err}"),
            ModelError::Json(err) => write!(f, "model file: {err}"),
            ModelError::UnsupportedVersion(v) => {
                write!(f, "unsupported model format version {v} (this build reads {MODEL_FORMAT_VERSION})")
            }
            ModelError::UnknownKind(kind) => write!(f, "unknown model kind `{kind}`"),
            ModelError::FeatureMismatch { expected, found } => write!(
                f,
                "feature count mismatch: pipeline extracts {expected} features, model was trained on {found}"
            ),
            ModelError::Corrupt { offset, detail } => {
                write!(f, "model file corrupt at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Io(err) => Some(err),
            ModelError::Json(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ModelError {
    fn from(err: std::io::Error) -> Self {
        ModelError::Io(err)
    }
}

impl From<JsonError> for ModelError {
    fn from(err: JsonError) -> Self {
        ModelError::Json(err)
    }
}

/// Wrap a model payload in the versioned envelope every model file uses:
/// `{"format_version": 2, "kind": ..., "n_features": ..., "model": ...}`.
#[must_use]
pub fn envelope(kind: &str, n_features: usize, payload: Value) -> Value {
    Value::Obj(vec![
        (
            "format_version".to_string(),
            Value::Num(MODEL_FORMAT_VERSION as f64),
        ),
        ("kind".to_string(), Value::Str(kind.to_string())),
        ("n_features".to_string(), Value::Num(n_features as f64)),
        ("model".to_string(), payload),
    ])
}

/// Open a model envelope: verify the format version and return
/// `(kind, n_features, payload)`.
///
/// # Errors
///
/// Returns [`ModelError`] when the header is malformed or the version is
/// not [`MODEL_FORMAT_VERSION`].
pub fn open_envelope(value: &Value) -> Result<(&str, usize, &Value), ModelError> {
    let version = value.usize_field("format_version")?;
    if version != MODEL_FORMAT_VERSION {
        return Err(ModelError::UnsupportedVersion(version));
    }
    let kind = value.str_field("kind")?;
    let n_features = value.usize_field("n_features")?;
    let payload = value.field("model")?;
    Ok((kind, n_features, payload))
}

/// A model loaded from (or about to be written to) a model file: any of
/// the serving forms the CLI and the evaluation harness can run.
#[derive(Debug, Clone, PartialEq)]
pub enum SavedModel {
    /// A compiled tree ensemble (CT, RT, health, random forest, AdaBoost).
    Forest(CompactForest),
    /// The backpropagation neural network baseline.
    Ann(BpAnn),
}

impl From<CompactForest> for SavedModel {
    fn from(forest: CompactForest) -> Self {
        SavedModel::Forest(forest)
    }
}

impl From<BpAnn> for SavedModel {
    fn from(ann: BpAnn) -> Self {
        SavedModel::Ann(ann)
    }
}

impl SavedModel {
    /// The `kind` header string for this model family.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            SavedModel::Forest(_) => "compact-forest",
            SavedModel::Ann(_) => "bp-ann",
        }
    }

    /// Encode into the versioned envelope document.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let payload = match self {
            SavedModel::Forest(forest) => forest.to_json(),
            SavedModel::Ann(ann) => ann.to_json(),
        };
        envelope(self.kind(), Predictor::n_features(self), payload)
    }

    /// Decode from an envelope document.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on version/kind/shape problems, including a
    /// payload whose feature count disagrees with the header.
    pub fn from_json(value: &Value) -> Result<Self, ModelError> {
        let (kind, n_features, payload) = open_envelope(value)?;
        let model = match kind {
            "compact-forest" => SavedModel::Forest(CompactForest::from_json(payload)?),
            "bp-ann" => SavedModel::Ann(BpAnn::from_json(payload)?),
            other => return Err(ModelError::UnknownKind(other.to_string())),
        };
        let found = Predictor::n_features(&model);
        if found != n_features {
            return Err(ModelError::Json(JsonError::new(format!(
                "header says {n_features} features, payload has {found}"
            ))));
        }
        Ok(model)
    }

    /// Check the model's feature count against the pipeline's.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::FeatureMismatch`] when they disagree.
    pub fn expect_features(&self, expected: usize) -> Result<(), ModelError> {
        let found = Predictor::n_features(self);
        if found == expected {
            Ok(())
        } else {
            Err(ModelError::FeatureMismatch { expected, found })
        }
    }

    /// The checksummed model-file document [`SavedModel::save`] writes.
    ///
    /// The file is two lines: a header
    /// `{"magic":"hddpred-model","block":256,"payload_bytes":…,"crc32":[…]}`
    /// with one CRC-32 per 256-byte payload block, then the envelope
    /// JSON.
    #[must_use]
    pub fn document(&self) -> String {
        container::seal(MODEL_MAGIC, &hdd_json::to_string(&self.to_json()))
    }

    /// Write [`SavedModel::document`] to `path` with
    /// [`Disk::replace`](hdd_json::disk::Disk::replace) on the real
    /// disk: an interrupted save never clobbers a previous valid model,
    /// readers only ever see a complete old or new file.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Io`] when the file cannot be written.
    pub fn save(&self, path: &Path) -> Result<(), ModelError> {
        RealDisk.replace(path, self.document().as_bytes())?;
        Ok(())
    }

    /// Read a model from a checksummed model file written by
    /// [`SavedModel::save`], verifying every payload block's CRC-32
    /// before parsing.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Corrupt`] (naming the failing byte offset)
    /// when the bytes contradict the recorded checksums or container
    /// layout, [`ModelError::UnsupportedVersion`] for pre-checksum
    /// version-1 files, and [`ModelError`] on I/O, parse, version or
    /// shape problems.
    pub fn load(path: &Path) -> Result<Self, ModelError> {
        let bytes = std::fs::read(path)?;
        let text = std::str::from_utf8(&bytes).map_err(|e| ModelError::Corrupt {
            offset: e.valid_up_to(),
            detail: "invalid UTF-8".to_string(),
        })?;
        let payload = match container::unseal(MODEL_MAGIC, text) {
            Ok(payload) => payload,
            // Headerless or wrong-magic files are the unchecksummed v1
            // layout (or junk); classify from the candidate header line.
            Err(ContainerError::NotAContainer { candidate }) => {
                return Err(legacy_or_corrupt(&candidate))
            }
            Err(ContainerError::Corrupt { offset, detail }) => {
                return Err(ModelError::Corrupt { offset, detail })
            }
        };
        SavedModel::from_json(&hdd_json::parse(payload)?)
    }

    /// Read a model and verify it scores `expected` features.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`], in particular
    /// [`ModelError::FeatureMismatch`] when the dimensionalities disagree.
    pub fn load_expecting(path: &Path, expected: usize) -> Result<Self, ModelError> {
        let model = SavedModel::load(path)?;
        model.expect_features(expected)?;
        Ok(model)
    }
}

/// Classify a file that is not a v2 container: a parseable envelope with
/// a `format_version` header is a legacy (pre-checksum) model file;
/// anything else is corruption.
fn legacy_or_corrupt(text: &str) -> ModelError {
    if let Ok(doc) = hdd_json::parse(text) {
        if let Ok(version) = doc.usize_field("format_version") {
            return ModelError::UnsupportedVersion(version);
        }
    }
    ModelError::Corrupt {
        offset: 0,
        detail: "not a model file (missing container header)".to_string(),
    }
}

impl Predictor for SavedModel {
    fn n_features(&self) -> usize {
        match self {
            SavedModel::Forest(forest) => Predictor::n_features(forest),
            SavedModel::Ann(ann) => Predictor::n_features(ann),
        }
    }

    fn score(&self, features: &[f64]) -> f64 {
        match self {
            SavedModel::Forest(forest) => Predictor::score(forest, features),
            SavedModel::Ann(ann) => Predictor::score(ann, features),
        }
    }

    fn predict_batch(&self, x: &FeatureMatrix, out: &mut [f64]) {
        match self {
            SavedModel::Forest(forest) => Predictor::predict_batch(forest, x, out),
            SavedModel::Ann(ann) => Predictor::predict_batch(ann, x, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdd_cart::sample::Class;
    use hdd_json::container::{tmp_sibling, CRC_BLOCK_BYTES};

    fn class_samples(n: usize) -> Vec<ClassSample> {
        (0..n)
            .map(|i| {
                let x = (i % 29) as f64;
                let y = ((i * 3) % 11) as f64;
                let class = if x < 12.0 { Class::Failed } else { Class::Good };
                ClassSample::new(vec![x, y], class)
            })
            .collect()
    }

    fn queries() -> Vec<Vec<f64>> {
        (0..120)
            .map(|i| vec![((i * 7) % 40) as f64 - 3.0, ((i * 5) % 13) as f64])
            .collect()
    }

    fn round_trip(model: SavedModel) {
        let text = hdd_json::to_string(&model.to_json());
        let back = SavedModel::from_json(&hdd_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, model);
        for q in queries() {
            assert_eq!(back.score(&q).to_bits(), model.score(&q).to_bits(), "{q:?}");
        }
    }

    #[test]
    fn classification_tree_round_trips() {
        let tree = ClassificationTreeBuilder::new()
            .train(&class_samples(200))
            .unwrap();
        round_trip(SavedModel::from(tree.compile()));
    }

    #[test]
    fn random_forest_round_trips() {
        let forest = RandomForestBuilder::new()
            .train(&class_samples(200))
            .unwrap();
        round_trip(SavedModel::from(Compile::compile(&forest)));
    }

    #[test]
    fn adaboost_round_trips() {
        let mut builder = AdaBoostBuilder::new();
        builder.rounds(8);
        let ensemble = builder.train(&class_samples(240)).unwrap();
        round_trip(SavedModel::from(Compile::compile(&ensemble)));
    }

    #[test]
    fn health_model_round_trips() {
        use hdd_cart::regressor::RegressionTreeBuilder;
        use hdd_cart::sample::RegSample;
        let samples: Vec<RegSample> = (0..200)
            .map(|i| {
                let x = (i % 40) as f64;
                RegSample::new(vec![x, (i % 5) as f64], -1.0 + x / 20.0)
            })
            .collect();
        let model = HealthModel::new(RegressionTreeBuilder::new().build(&samples).unwrap(), -0.2);
        round_trip(SavedModel::from(Compile::compile(&model)));
    }

    #[test]
    fn ann_round_trips() {
        let mut config = AnnConfig::new(vec![2, 4, 1]);
        config.max_epochs = 30;
        let ann = config.train(&class_samples(150)).unwrap();
        round_trip(SavedModel::from(ann));
    }

    #[test]
    fn feature_mismatch_is_a_typed_error() {
        let tree = ClassificationTreeBuilder::new()
            .train(&class_samples(150))
            .unwrap();
        let model = SavedModel::from(tree.compile());
        assert!(model.expect_features(2).is_ok());
        let err = model.expect_features(13).unwrap_err();
        assert!(
            matches!(
                err,
                ModelError::FeatureMismatch {
                    expected: 13,
                    found: 2
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("13"), "{err}");
    }

    #[test]
    fn save_load_through_a_file() {
        let tree = ClassificationTreeBuilder::new()
            .train(&class_samples(150))
            .unwrap();
        let model = SavedModel::from(tree.compile());
        let dir = std::env::temp_dir().join("hdd-eval-model-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        model.save(&path).unwrap();
        let back = SavedModel::load_expecting(&path, 2).unwrap();
        assert_eq!(back, model);
        let err = SavedModel::load_expecting(&path, 5).unwrap_err();
        assert!(matches!(err, ModelError::FeatureMismatch { .. }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn envelope_rejects_bad_headers() {
        let tree = ClassificationTreeBuilder::new()
            .train(&class_samples(150))
            .unwrap();
        let text = hdd_json::to_string(&SavedModel::from(tree.compile()).to_json());

        let wrong_version = text.replacen("\"format_version\":2", "\"format_version\":99", 1);
        let err = SavedModel::from_json(&hdd_json::parse(&wrong_version).unwrap()).unwrap_err();
        assert!(matches!(err, ModelError::UnsupportedVersion(99)), "{err}");

        let wrong_kind = text.replacen("compact-forest", "mystery-model", 1);
        let err = SavedModel::from_json(&hdd_json::parse(&wrong_kind).unwrap()).unwrap_err();
        assert!(matches!(err, ModelError::UnknownKind(_)), "{err}");

        let wrong_header = text.replacen("\"n_features\":2", "\"n_features\":7", 1);
        let err = SavedModel::from_json(&hdd_json::parse(&wrong_header).unwrap()).unwrap_err();
        assert!(matches!(err, ModelError::Json(_)), "{err}");
    }

    /// A small model, its container bytes, and a scratch directory.
    fn saved_file(name: &str) -> (SavedModel, std::path::PathBuf) {
        let tree = ClassificationTreeBuilder::new()
            .train(&class_samples(80))
            .unwrap();
        let model = SavedModel::from(tree.compile());
        let dir = std::env::temp_dir().join("hdd-eval-model-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        model.save(&path).unwrap();
        (model, path)
    }

    #[test]
    fn every_single_bit_flip_is_rejected_at_load() {
        let (_, path) = saved_file("bitflip.json");
        let clean = std::fs::read(&path).unwrap();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[byte] ^= 1 << bit;
                std::fs::write(&path, &bytes).unwrap();
                assert!(
                    SavedModel::load(&path).is_err(),
                    "flip of byte {byte} bit {bit} was accepted"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_error_names_the_failing_offset() {
        // A model big enough to span several checksum blocks: label
        // noise forces the tree to grow many splits.
        let noisy: Vec<ClassSample> = (0..2000)
            .map(|i| {
                let x = (i % 67) as f64;
                let y = ((i * 13) % 29) as f64;
                let flip = i % 7 == 0;
                let class = if (x < 30.0) ^ flip {
                    Class::Failed
                } else {
                    Class::Good
                };
                ClassSample::new(vec![x, y], class)
            })
            .collect();
        let mut builder = ClassificationTreeBuilder::new();
        builder.complexity(0.0).min_split(4).min_bucket(2);
        let tree = builder.train(&noisy).unwrap();
        let model = SavedModel::from(tree.compile());
        let dir = std::env::temp_dir().join("hdd-eval-model-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("offset.json");
        model.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        // Corrupt a payload byte well past the first checksum block.
        let victim = header_end + 1 + CRC_BLOCK_BYTES + 10;
        assert!(victim < bytes.len(), "model file too small for this test");
        bytes[victim] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = SavedModel::load(&path).unwrap_err();
        match err {
            ModelError::Corrupt { offset, .. } => {
                assert_eq!(offset, header_end + 1 + CRC_BLOCK_BYTES);
                assert!(err.to_string().contains(&offset.to_string()), "{err}");
            }
            other => panic!("expected Corrupt, got {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_v1_files_are_rejected_with_their_version() {
        let (model, path) = saved_file("legacy.json");
        // A v1 file was the bare envelope, unchecksummed, single line.
        let v1 = hdd_json::to_string(&model.to_json()).replacen(
            "\"format_version\":2",
            "\"format_version\":1",
            1,
        );
        std::fs::write(&path, v1).unwrap();
        let err = SavedModel::load(&path).unwrap_err();
        assert!(matches!(err, ModelError::UnsupportedVersion(1)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interrupted_save_never_clobbers_the_previous_model() {
        let (model, path) = saved_file("interrupted.json");
        // Simulate a crash mid-save: a half-written temp file exists but
        // the rename never happened. The destination must stay valid.
        let tmp = tmp_sibling(&path);
        std::fs::write(&tmp, b"{\"torn\": tru").unwrap();
        assert_eq!(SavedModel::load(&path).unwrap(), model);
        // And a subsequent save must succeed over the stale temp file.
        model.save(&path).unwrap();
        assert_eq!(SavedModel::load(&path).unwrap(), model);
        assert!(!tmp.exists(), "save must consume its temp file");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_corrupt_not_a_panic() {
        let (_, path) = saved_file("truncated.json");
        let bytes = std::fs::read(&path).unwrap();
        for keep in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..keep]).unwrap();
            assert!(SavedModel::load(&path).is_err(), "kept {keep} bytes");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batch_default_matches_score() {
        let mut config = AnnConfig::new(vec![2, 4, 1]);
        config.max_epochs = 20;
        let ann = config.train(&class_samples(120)).unwrap();
        let rows = queries();
        let matrix = FeatureMatrix::from_rows(rows.iter().map(Vec::as_slice));
        let mut out = vec![0.0; rows.len()];
        Predictor::predict_batch(&ann, &matrix, &mut out);
        for (row, got) in rows.iter().zip(&out) {
            assert_eq!(got.to_bits(), Predictor::score(&ann, row).to_bits());
        }
    }
}
