//! # hddpred — hard drive failure prediction with CART
//!
//! A production-quality reproduction of *Li et al., "Hard Drive Failure
//! Prediction Using Classification and Regression Trees", DSN 2014*.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`smart`] — SMART attribute model and synthetic data-center traces,
//! * [`stats`] — non-parametric tests and statistical feature selection,
//! * [`cart`] — the paper's contribution: CT and RT models,
//! * [`ann`] — the BP ANN baseline,
//! * [`eval`] — splits, voting detection, FDR/FAR/TIA metrics, model aging,
//! * [`reliability`] — Markov MTTDL models for RAID with failure prediction,
//! * [`par`] — the deterministic fork-join layer every crate trains and
//!   evaluates on (results are bit-identical at any thread count),
//! * [`fault`] — deterministic, seeded fault injection for chaos-testing
//!   the ingestion, training and serving paths,
//! * [`serve`] — the resilient streaming detection service: feed
//!   tailing, checkpointed voting state, hot model reload, degraded
//!   modes,
//! * [`lifecycle`] — guarded online retraining over the serve stream:
//!   shadow-scored candidate models, atomic two-phase promotion,
//!   automatic rollback, trainer fault containment,
//! * [`workload`] — deterministic scenario fleet generation (expected /
//!   stress / adversarial profiles) and the replayable resilience
//!   gauntlet that drives [`serve`] against ground truth
//!   (`hddpred gauntlet`).
//!
//! # Quickstart
//!
//! ```
//! use hddpred::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small synthetic fleet of family-"W" drives.
//! let dataset = DatasetGenerator::new(FamilyProfile::w().scaled(0.02), 42).generate();
//!
//! // The evaluation pipeline: statistical features, time-based split,
//! // classification-tree training, voting-based detection.
//! let experiment = Experiment::builder()
//!     .time_window_hours(168)
//!     .voters(11)
//!     .build()?;
//! let outcome = experiment.run_ct(&dataset)?;
//! assert!(outcome.metrics.fdr() > 0.5);
//!
//! // Compile the trained tree to its flat serving form and persist it.
//! let model = SavedModel::from(outcome.model.compile());
//! let text = hdd_json::to_string(&model.to_json());
//! assert_eq!(SavedModel::from_json(&hdd_json::parse(&text)?)?, model);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub use hdd_ann as ann;
pub use hdd_baselines as baselines;
pub use hdd_cart as cart;
pub use hdd_eval as eval;
pub use hdd_fault as fault;
pub use hdd_json;
pub use hdd_lifecycle as lifecycle;
pub use hdd_par as par;
pub use hdd_reliability as reliability;
pub use hdd_serve as serve;
pub use hdd_smart as smart;
pub use hdd_stats as stats;
pub use hdd_workload as workload;

/// Commonly used items, one `use` away.
pub mod prelude {
    pub use hdd_ann::{AnnConfig, BpAnn};
    pub use hdd_cart::{
        ClassificationTree, ClassificationTreeBuilder, CompactForest, HealthModel, RegressionTree,
        RegressionTreeBuilder,
    };
    pub use hdd_eval::{
        Compile, Experiment, ExperimentOutcome, ModelError, PredictionMetrics, Predictor,
        SavedModel, TrainableModel,
    };
    pub use hdd_json::JsonCodec;
    pub use hdd_reliability::{mttdl_raid6_no_prediction, mttdl_single_drive, PredictionQuality};
    pub use hdd_smart::{Dataset, DatasetGenerator, FamilyProfile, Hour};
    pub use hdd_stats::{FeatureSet, FeatureSpec};
}
