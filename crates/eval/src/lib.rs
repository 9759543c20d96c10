//! Evaluation harness: the paper's experimental methodology.
//!
//! Implements §V of the paper end to end:
//!
//! * [`split`] — time-based 70/30 split for good drives (train on the
//!   earlier part of the week, test on the later), random 7:3 drive split
//!   for failed drives;
//! * [`detect`] — chronological per-drive detection with the voting-based
//!   algorithm (majority of the last `N` classifier outputs, or
//!   mean-below-threshold for the regression models);
//! * [`metrics`] — failure detection rate (FDR), false alarm rate (FAR)
//!   and time-in-advance (TIA) with the Figure 3/4 histogram buckets;
//! * [`pipeline`] — the [`Experiment`] runner that wires feature
//!   extraction, model training and evaluation together for the CT, the
//!   BP ANN baseline and the RT health-degree models;
//! * [`roc`] — ROC point sweeps over voter counts (Figs. 2 and 5) and RT
//!   detection thresholds (Fig. 10);
//! * [`aging`] — the model-updating strategies (fixed / accumulation /
//!   replacing) simulated over the eight-week horizon (Figs. 6–9);
//! * [`triage`] — the warning-queue simulation that quantifies what the
//!   health-degree ordering buys an operations team (§III-B).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod aging;
pub mod detect;
pub mod metrics;
pub mod model;
pub mod pipeline;
pub mod roc;
pub mod split;
pub mod triage;

pub use aging::{weekly_far, AgingOutcome, UpdateStrategy};
pub use detect::{VotingDetector, VotingRule, VotingState};
pub use metrics::{PredictionMetrics, TIA_BUCKETS};
pub use model::{Compile, ModelError, Predictor, SavedModel, TrainableModel};
// Re-exported because it appears in `Predictor::predict_batch`'s
// signature: downstream crates can name it without a hdd-cart dependency.
pub use hdd_cart::FeatureMatrix;
pub use pipeline::{
    series_training_set, ConfigError, Experiment, ExperimentBuilder, ExperimentOutcome,
    HealthTargets,
};
pub use roc::{sweep_thresholds, sweep_voters, RocPoint};
pub use split::{time_split, Split, SplitConfig};
pub use triage::{simulate_triage, TriageConfig, TriageOutcome, WarningOrder};
