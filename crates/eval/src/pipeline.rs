//! The end-to-end experiment runner.
//!
//! [`Experiment`] reproduces the paper's training & detection protocol
//! (§V-A1): statistical features, three random training samples per good
//! drive from the time-based training range, failed samples from the last
//! `n` hours before failure, voting-based detection, FDR/FAR/TIA metrics.
//!
//! Model families plug in through the [`TrainableModel`] trait: the
//! generic [`Experiment::run`] trains whatever builder it is handed,
//! compiles the result to its serving form and evaluates it — the
//! `run_ct` / `run_forest` / `run_ann` entry points are thin wrappers
//! over it.

use crate::detect::{VotingDetector, VotingRule};
use crate::metrics::PredictionMetrics;
use crate::model::{Compile, Predictor, TrainableModel};
use crate::split::{time_split, Split, SplitConfig};
use hdd_ann::{AnnConfig, AnnError, BpAnn};
use hdd_cart::health::evenly_spaced_indices;
use hdd_cart::{
    global_health_degree, personalized_health_degree, Class, ClassSample, ClassificationTree,
    ClassificationTreeBuilder, HealthModel, RandomForest, RandomForestBuilder, RegSample,
    RegressionTreeBuilder, TrainError,
};
use hdd_par::ThreadPool;
use hdd_smart::rng::DeterministicRng;
use hdd_smart::{Dataset, DriveSpec, Hour, SmartSeries};
use hdd_stats::FeatureSet;
use std::fmt;

/// How regression-tree targets are assigned (§III-B, §V-C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HealthTargets {
    /// Eq. 6: per-drive deterioration window derived from a CT model's
    /// detection lead time (falls back to a 24 h global window for drives
    /// the CT misses). The paper's best health-degree model.
    Personalized,
    /// Eq. 5: one global deterioration window for every drive.
    Global {
        /// The global window in hours.
        window_hours: u32,
    },
    /// The control group of Figure 10: same samples, binary `±1` targets.
    BinaryControl,
}

/// A trained model together with its evaluation.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome<M> {
    /// The trained model.
    pub model: M,
    /// Detection metrics over the test population.
    pub metrics: PredictionMetrics,
}

/// Why an experiment configuration is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `voters` must be at least 1.
    ZeroVoters,
    /// `time_window_hours` must be positive.
    ZeroTimeWindow,
    /// `good_samples_per_drive` must be at least 1.
    ZeroGoodSamples,
    /// `rt_samples_per_failed` must be at least 1.
    ZeroRtSamples,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroVoters => write!(f, "voters must be at least 1"),
            ConfigError::ZeroTimeWindow => write!(f, "time window must be positive"),
            ConfigError::ZeroGoodSamples => {
                write!(f, "good samples per drive must be at least 1")
            }
            ConfigError::ZeroRtSamples => {
                write!(f, "RT samples per failed drive must be at least 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Experiment configuration; create with [`Experiment::builder`].
#[derive(Debug, Clone)]
pub struct Experiment {
    feature_set: FeatureSet,
    time_window_hours: u32,
    voters: usize,
    good_samples_per_drive: usize,
    split: SplitConfig,
    ct_builder: ClassificationTreeBuilder,
    rt_builder: RegressionTreeBuilder,
    forest_builder: RandomForestBuilder,
    ann_config: Option<AnnConfig>,
    rt_threshold: f64,
    rt_samples_per_failed: usize,
    fallback_window_hours: u32,
    seed: u64,
}

/// Builder for [`Experiment`]. Setters record values as given;
/// [`ExperimentBuilder::build`] validates them and reports the first
/// problem as a [`ConfigError`].
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    experiment: Experiment,
}

impl Default for ExperimentBuilder {
    fn default() -> Self {
        ExperimentBuilder {
            experiment: Experiment {
                feature_set: FeatureSet::critical13(),
                time_window_hours: 168,
                voters: 11,
                good_samples_per_drive: 3,
                split: SplitConfig::default(),
                ct_builder: ClassificationTreeBuilder::new(),
                rt_builder: RegressionTreeBuilder::new(),
                forest_builder: RandomForestBuilder::new(),
                ann_config: None,
                rt_threshold: -0.2,
                rt_samples_per_failed: 12,
                fallback_window_hours: 24,
                seed: 0xCA27,
            },
        }
    }
}

impl ExperimentBuilder {
    /// The feature set models are trained on (default: the 13 critical
    /// features).
    pub fn feature_set(&mut self, set: FeatureSet) -> &mut Self {
        self.experiment.feature_set = set;
        self
    }

    /// The failed-sample time window `n` in hours (default 168 — the
    /// paper's best CT window, Table IV; the BP ANN uses 12).
    pub fn time_window_hours(&mut self, hours: u32) -> &mut Self {
        self.experiment.time_window_hours = hours;
        self
    }

    /// The number of voters `N` (default 11).
    pub fn voters(&mut self, n: usize) -> &mut Self {
        self.experiment.voters = n;
        self
    }

    /// Random good training samples per good drive (default 3, §V-A1).
    pub fn good_samples_per_drive(&mut self, n: usize) -> &mut Self {
        self.experiment.good_samples_per_drive = n;
        self
    }

    /// Split configuration (evaluation week, train fraction, seed).
    pub fn split(&mut self, config: SplitConfig) -> &mut Self {
        self.experiment.split = config;
        self
    }

    /// Classification-tree hyper-parameters.
    pub fn ct_builder(&mut self, builder: ClassificationTreeBuilder) -> &mut Self {
        self.experiment.ct_builder = builder;
        self
    }

    /// Regression-tree hyper-parameters.
    pub fn rt_builder(&mut self, builder: RegressionTreeBuilder) -> &mut Self {
        self.experiment.rt_builder = builder;
        self
    }

    /// Random-forest hyper-parameters (the paper's future-work extension).
    pub fn forest_builder(&mut self, builder: RandomForestBuilder) -> &mut Self {
        self.experiment.forest_builder = builder;
        self
    }

    /// Override the BP ANN configuration (default: the paper's topology
    /// for the feature set's dimensionality).
    pub fn ann_config(&mut self, config: Option<AnnConfig>) -> &mut Self {
        self.experiment.ann_config = config;
        self
    }

    /// Detection threshold for the health-degree model (default −0.2).
    pub fn rt_threshold(&mut self, threshold: f64) -> &mut Self {
        self.experiment.rt_threshold = threshold;
        self
    }

    /// Evenly spaced failed samples per drive for RT training
    /// (default 12, §V-C).
    pub fn rt_samples_per_failed(&mut self, n: usize) -> &mut Self {
        self.experiment.rt_samples_per_failed = n;
        self
    }

    /// Sampling seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.experiment.seed = seed;
        self
    }

    /// Validate the configuration and finish.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] when a count that must be
    /// positive is zero.
    pub fn build(&self) -> Result<Experiment, ConfigError> {
        let e = &self.experiment;
        if e.voters < 1 {
            return Err(ConfigError::ZeroVoters);
        }
        if e.time_window_hours == 0 {
            return Err(ConfigError::ZeroTimeWindow);
        }
        if e.good_samples_per_drive < 1 {
            return Err(ConfigError::ZeroGoodSamples);
        }
        if e.rt_samples_per_failed < 1 {
            return Err(ConfigError::ZeroRtSamples);
        }
        Ok(e.clone())
    }
}

impl From<Experiment> for ExperimentBuilder {
    fn from(experiment: Experiment) -> Self {
        ExperimentBuilder { experiment }
    }
}

impl Experiment {
    /// Start configuring an experiment.
    #[must_use]
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::default()
    }

    /// The experiment's feature set.
    #[must_use]
    pub fn feature_set(&self) -> &FeatureSet {
        &self.feature_set
    }

    /// The voter count `N`.
    #[must_use]
    pub fn voters(&self) -> usize {
        self.voters
    }

    /// Compute the train/test split for `dataset`.
    #[must_use]
    pub fn split(&self, dataset: &Dataset) -> Split {
        time_split(dataset, &self.split)
    }

    /// Assemble the classification training set: `good_samples_per_drive`
    /// random good samples per drive from the training range, plus every
    /// extractable failed sample within the last `time_window_hours`
    /// before failure of each training failed drive.
    #[must_use]
    pub fn classification_training_set(
        &self,
        dataset: &Dataset,
        split: &Split,
    ) -> Vec<ClassSample> {
        let mut samples = Vec::new();
        for (features, _) in self.good_training_features(dataset, split) {
            samples.push(ClassSample::new(features, Class::Good));
        }
        samples.extend(self.failed_training_samples(dataset, &split.train_failed));
        samples
    }

    /// The failed half of a classification training set: every extractable
    /// sample within the failed time window of each listed drive.
    pub(crate) fn failed_training_samples(
        &self,
        dataset: &Dataset,
        train_failed: &[hdd_smart::DriveId],
    ) -> Vec<ClassSample> {
        let mut samples = Vec::new();
        for id in train_failed {
            // Split ids come from the dataset; skip rather than die if a
            // caller hands a foreign split.
            let Some(spec) = dataset.get(*id) else {
                continue;
            };
            let series = dataset.series(spec);
            for (features, _) in self.failed_window_features(spec, &series) {
                samples.push(ClassSample::new(features, Class::Failed));
            }
        }
        samples
    }

    /// Train any [`TrainableModel`] on the paper's protocol and evaluate
    /// its compiled form under the family's voting rule.
    ///
    /// # Errors
    ///
    /// Returns the trainer's error when the training set is degenerate
    /// (e.g. a fleet with no failed training drives).
    pub fn run<T: TrainableModel>(
        &self,
        dataset: &Dataset,
        trainer: &T,
    ) -> Result<ExperimentOutcome<T::Model>, T::Error> {
        let split = self.split(dataset);
        let training = self.classification_training_set(dataset, &split);
        let model = trainer.train(&training)?;
        let compiled = model.compile();
        let metrics = self.evaluate(dataset, &split, &compiled, trainer.rule());
        Ok(ExperimentOutcome { model, metrics })
    }

    /// Train and evaluate the paper's CT model.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] when the training set is degenerate (e.g. a
    /// fleet with no failed training drives).
    pub fn run_ct(
        &self,
        dataset: &Dataset,
    ) -> Result<ExperimentOutcome<ClassificationTree>, TrainError> {
        self.run(dataset, &self.ct_builder)
    }

    /// Train and evaluate a random forest (the paper's §VII future work)
    /// on the same protocol as the CT model.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] when the training set is degenerate.
    pub fn run_forest(
        &self,
        dataset: &Dataset,
    ) -> Result<ExperimentOutcome<RandomForest>, TrainError> {
        self.run(dataset, &self.forest_builder)
    }

    /// Train and evaluate the BP ANN baseline.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError`] when the training data is degenerate.
    pub fn run_ann(&self, dataset: &Dataset) -> Result<ExperimentOutcome<BpAnn>, AnnError> {
        let config = self
            .ann_config
            .clone()
            .unwrap_or_else(|| AnnConfig::for_input_dim(self.feature_set.len()));
        self.run(dataset, &config)
    }

    /// Train and evaluate a regression-tree health-degree model (§V-C).
    ///
    /// For [`HealthTargets::Personalized`], a CT model is first trained on
    /// the same split to derive each training drive's deterioration
    /// window from its detection lead time.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] when the training set is degenerate.
    pub fn run_rt(
        &self,
        dataset: &Dataset,
        targets: HealthTargets,
    ) -> Result<ExperimentOutcome<HealthModel>, TrainError> {
        let split = self.split(dataset);

        // Per-drive deterioration windows.
        let windows: Vec<(u32, u32)> = match targets {
            HealthTargets::Personalized => {
                let ct = self
                    .ct_builder
                    .build(&self.classification_training_set(dataset, &split))?
                    .compile();
                let detector =
                    VotingDetector::new(&ct, &self.feature_set, self.voters, VotingRule::Majority);
                split
                    .train_failed
                    .iter()
                    .filter_map(|id| {
                        // Skip ids the dataset cannot resolve to a
                        // failed drive instead of dying mid-training.
                        let spec = dataset.get(*id)?;
                        let fail = spec.class.fail_hour()?;
                        let series = dataset.series(spec);
                        let tia = detector
                            .first_alarm(&series, dataset.recorded_range(spec))
                            .map(|alarm| fail.saturating_since(alarm));
                        Some((id.0, tia.unwrap_or(self.fallback_window_hours).max(1)))
                    })
                    .collect()
            }
            HealthTargets::Global { window_hours } => {
                assert!(window_hours > 0, "global window must be positive");
                split
                    .train_failed
                    .iter()
                    .map(|id| (id.0, window_hours))
                    .collect()
            }
            HealthTargets::BinaryControl => split
                .train_failed
                .iter()
                .map(|id| (id.0, self.time_window_hours))
                .collect(),
        };

        // Assemble the regression training set.
        let mut samples = Vec::new();
        for (features, _) in self.good_training_features(dataset, &split) {
            samples.push(RegSample::new(features, 1.0));
        }
        for &(id, window) in &windows {
            let Some(spec) = dataset.get(hdd_smart::DriveId(id)) else {
                continue;
            };
            let Some(fail) = spec.class.fail_hour() else {
                continue;
            };
            let series = dataset.series(spec);
            let in_window: Vec<(Vec<f64>, Hour)> =
                self.window_features(spec, &series, window).collect();
            for k in evenly_spaced_indices(in_window.len(), self.rt_samples_per_failed) {
                let (features, hour) = &in_window[k];
                let before = fail.saturating_since(*hour);
                let target = match targets {
                    HealthTargets::Personalized => personalized_health_degree(before, window),
                    HealthTargets::Global { window_hours } => {
                        global_health_degree(before, window_hours)
                    }
                    HealthTargets::BinaryControl => -1.0,
                };
                samples.push(RegSample::new(features.clone(), target));
            }
        }

        let tree = self.rt_builder.build(&samples)?;
        let model = HealthModel::new(tree, self.rt_threshold);
        let compiled = model.compile();
        let metrics = self.evaluate(
            dataset,
            &split,
            &compiled,
            VotingRule::MeanBelow(self.rt_threshold),
        );
        Ok(ExperimentOutcome { model, metrics })
    }

    /// Evaluate `predictor` on the split's test population: every good
    /// drive over the test hours, every test failed drive over its
    /// recorded window.
    #[must_use]
    pub fn evaluate<P: Predictor>(
        &self,
        dataset: &Dataset,
        split: &Split,
        predictor: &P,
        rule: VotingRule,
    ) -> PredictionMetrics {
        self.evaluate_in(
            dataset,
            split.good_test.clone(),
            &split.test_failed,
            predictor,
            rule,
        )
    }

    /// Evaluate with an explicit good-drive test range and failed-drive
    /// list (the model-aging simulations test later weeks; Figs. 6–9).
    ///
    /// Drives fan out across [`ThreadPool::global`] in contiguous chunks;
    /// partial metrics are merged in drive order, so the result is
    /// bit-identical for every thread count.
    #[must_use]
    pub fn evaluate_in<P: Predictor>(
        &self,
        dataset: &Dataset,
        good_range: std::ops::Range<Hour>,
        test_failed: &[hdd_smart::DriveId],
        predictor: &P,
        rule: VotingRule,
    ) -> PredictionMetrics {
        let lookback = self.feature_set.max_lookback_hours();
        let drives = dataset.drives();
        let partials = ThreadPool::global().parallel_for_chunks(drives, |part| {
            let mut m = PredictionMetrics::default();
            let detector = VotingDetector::new(predictor, &self.feature_set, self.voters, rule);
            for spec in part {
                if spec.is_failed() {
                    if !test_failed.contains(&spec.id) {
                        continue;
                    }
                    let Some(fail) = spec.class.fail_hour() else {
                        continue;
                    };
                    let series = dataset.series(spec);
                    m.failed_total += 1;
                    if let Some(alarm) = detector.first_alarm(&series, dataset.recorded_range(spec))
                    {
                        m.failed_detected += 1;
                        m.tia.push(fail.saturating_since(alarm));
                    }
                } else {
                    let series =
                        dataset.series_in(spec, (good_range.start - 2 * lookback)..good_range.end);
                    m.good_total += 1;
                    if detector.first_alarm(&series, good_range.clone()).is_some() {
                        m.good_alarms += 1;
                    }
                }
            }
            m
        });

        let mut metrics = PredictionMetrics::default();
        for p in &partials {
            metrics.merge(p);
        }
        metrics
    }

    /// Good training feature vectors: `good_samples_per_drive` random
    /// extractable samples per good drive from the training range.
    pub(crate) fn good_training_features(
        &self,
        dataset: &Dataset,
        split: &Split,
    ) -> Vec<(Vec<f64>, Hour)> {
        self.good_features_in(dataset, split.good_train.clone())
    }

    /// Good training feature vectors drawn from an arbitrary hour range
    /// (the model-aging simulations train on different weeks).
    pub(crate) fn good_features_in(
        &self,
        dataset: &Dataset,
        range: std::ops::Range<Hour>,
    ) -> Vec<(Vec<f64>, Hour)> {
        let lookback = self.feature_set.max_lookback_hours();
        let rng = DeterministicRng::new(self.seed ^ (u64::from(range.start.0) << 24));
        let mut out = Vec::new();
        for spec in dataset.good_drives() {
            let series = dataset.series_in(spec, (range.start - 2 * lookback)..range.end);
            let eligible_start = series
                .samples()
                .partition_point(|s| s.hour < range.start + lookback);
            let eligible = eligible_start..series.len();
            if eligible.is_empty() {
                continue;
            }
            for k in 0..self.good_samples_per_drive {
                // A handful of retries skips samples with unlucky gaps.
                for attempt in 0..8u64 {
                    let u = rng.uniform(u64::from(spec.id.0) ^ (attempt << 32), k as u64 ^ 0x600D);
                    let idx =
                        eligible.start + (u * (eligible.end - eligible.start) as f64) as usize;
                    if let Some(features) = self.feature_set.extract(&series, idx) {
                        out.push((features, series.samples()[idx].hour));
                        break;
                    }
                }
            }
        }
        out
    }

    /// Extractable feature vectors of `spec` within the experiment's
    /// failed time window.
    pub(crate) fn failed_window_features<'a>(
        &'a self,
        spec: &'a DriveSpec,
        series: &'a SmartSeries,
    ) -> impl Iterator<Item = (Vec<f64>, Hour)> + 'a {
        self.window_features(spec, series, self.time_window_hours)
    }

    /// Extractable feature vectors of `spec` within the last
    /// `window_hours` before its failure.
    pub(crate) fn window_features<'a>(
        &'a self,
        spec: &'a DriveSpec,
        series: &'a SmartSeries,
        window_hours: u32,
    ) -> impl Iterator<Item = (Vec<f64>, Hour)> + 'a {
        // Good drives have no failure window: the iterator is empty
        // instead of panicking when a caller mixes the classes up.
        let fail = spec.class.fail_hour();
        (0..series.len()).filter_map(move |idx| {
            let start = fail? - window_hours;
            let hour = series.samples()[idx].hour;
            if hour < start {
                return None;
            }
            self.feature_set
                .extract(series, idx)
                .map(|features| (features, hour))
        })
    }
}

/// The `hddpred train` training set over whole series: three random
/// extractable samples per good drive (up to eight draws each) plus every
/// extractable sample in the last `window_hours` before each failure.
#[must_use]
pub fn series_training_set(
    series: &[SmartSeries],
    features: &FeatureSet,
    window_hours: u32,
    rng: &DeterministicRng,
) -> Vec<ClassSample> {
    let mut samples = Vec::new();
    for (d, s) in series.iter().enumerate() {
        match s.class.fail_hour() {
            None => {
                for k in 0..3u64 {
                    for attempt in 0..8u64 {
                        let u = rng.uniform(d as u64 ^ (attempt << 32), k);
                        let idx = (u * s.len() as f64) as usize;
                        if let Some(f) = features.extract(s, idx) {
                            samples.push(ClassSample::new(f, Class::Good));
                            break;
                        }
                    }
                }
            }
            Some(fail) => {
                let start = fail - window_hours;
                for idx in 0..s.len() {
                    if s.samples()[idx].hour < start {
                        continue;
                    }
                    if let Some(f) = features.extract(s, idx) {
                        samples.push(ClassSample::new(f, Class::Failed));
                    }
                }
            }
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdd_smart::{DatasetGenerator, FamilyProfile};

    fn dataset() -> Dataset {
        DatasetGenerator::new(FamilyProfile::w().scaled(0.02), 5).generate()
    }

    fn experiment() -> Experiment {
        Experiment::builder()
            .voters(3)
            .build()
            .expect("valid test configuration")
    }

    #[test]
    fn training_set_has_both_classes_and_right_dimensions() {
        let ds = dataset();
        let exp = experiment();
        let split = exp.split(&ds);
        let training = exp.classification_training_set(&ds, &split);
        let n_good = training.iter().filter(|s| s.class == Class::Good).count();
        let n_failed = training.len() - n_good;
        assert!(n_good > 0 && n_failed > 0);
        // ~3 samples per good drive.
        let drives = ds.good_drives().count();
        assert!(n_good >= drives * 2 && n_good <= drives * 3);
        assert!(training.iter().all(|s| s.features.len() == 13));
    }

    #[test]
    fn ct_pipeline_detects_failures() {
        let ds = dataset();
        let outcome = experiment().run_ct(&ds).unwrap();
        assert!(
            outcome.metrics.fdr() > 0.5,
            "CT should detect most failures: {}",
            outcome.metrics
        );
        assert!(
            outcome.metrics.far() < 0.2,
            "CT FAR should be low: {}",
            outcome.metrics
        );
        assert!(outcome.metrics.mean_tia() > 24.0);
    }

    #[test]
    fn generic_run_matches_family_wrapper() {
        let ds = dataset();
        let exp = experiment();
        let wrapper = exp.run_ct(&ds).unwrap();
        let generic = exp.run(&ds, &ClassificationTreeBuilder::new()).unwrap();
        assert_eq!(wrapper.metrics, generic.metrics);
    }

    #[test]
    fn rt_health_pipeline_runs() {
        let ds = dataset();
        let outcome = experiment()
            .run_rt(&ds, HealthTargets::Personalized)
            .unwrap();
        assert!(outcome.metrics.failed_total > 0);
        assert!(outcome.metrics.fdr() > 0.3, "{}", outcome.metrics);
    }

    #[test]
    fn rt_global_and_control_run() {
        let ds = dataset();
        let exp = experiment();
        let global = exp
            .run_rt(&ds, HealthTargets::Global { window_hours: 96 })
            .unwrap();
        let control = exp.run_rt(&ds, HealthTargets::BinaryControl).unwrap();
        assert!(global.metrics.failed_total > 0);
        assert!(control.metrics.failed_total > 0);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let ds = dataset();
        let exp = experiment();
        let a = exp.run_ct(&ds).unwrap();
        let b = exp.run_ct(&ds).unwrap();
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn invalid_configurations_are_typed_errors() {
        assert_eq!(
            Experiment::builder().voters(0).build().unwrap_err(),
            ConfigError::ZeroVoters
        );
        assert_eq!(
            Experiment::builder()
                .time_window_hours(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroTimeWindow
        );
        assert_eq!(
            Experiment::builder()
                .good_samples_per_drive(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroGoodSamples
        );
        assert_eq!(
            Experiment::builder()
                .rt_samples_per_failed(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroRtSamples
        );
        let err = Experiment::builder().voters(0).build().unwrap_err();
        assert!(err.to_string().contains("voters"), "{err}");
    }

    #[test]
    fn evaluation_is_bit_identical_across_thread_counts() {
        let ds = dataset();
        let exp = Experiment::builder().voters(3).build().unwrap();
        let run_on =
            |threads| ThreadPool::new(threads).install(|| exp.run_ct(&ds).unwrap().metrics);
        assert_eq!(run_on(1), run_on(4));
    }

    #[test]
    fn window_features_respect_window() {
        let ds = dataset();
        let exp = experiment();
        let spec = ds.failed_drives().next().unwrap();
        let series = ds.series(spec);
        let fail = spec.class.fail_hour().unwrap();
        for (_, hour) in exp.window_features(spec, &series, 48) {
            assert!(fail.saturating_since(hour) <= 48);
        }
    }
}
