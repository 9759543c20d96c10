//! Classification and regression trees for hard drive failure prediction.
//!
//! This crate is the paper's primary contribution (*Li et al., DSN 2014*):
//!
//! * [`ClassificationTree`] — Algorithm 1: information-gain splitting
//!   (eqs. 1–3), `Minsplit`/`Minbucket` stopping, complexity-parameter
//!   pruning, class re-weighting (failed samples boosted to a target
//!   fraction of the total weight) and an asymmetric loss that makes false
//!   alarms cost more than missed detections;
//! * [`RegressionTree`] — Algorithm 2: least-squares splitting (eq. 4)
//!   with the same stopping and pruning controls;
//! * [`health`] — the health-degree machinery: deterioration-window target
//!   assignment (global, eq. 5; personalized, eq. 6) and the
//!   [`HealthModel`] wrapper that turns a regression tree plus a threshold
//!   into a ranked-warning failure detector.
//!
//! Trees are white boxes: [`tree::Tree::rules`] prints the decision rules
//! (like the paper's Figure 1) and [`tree::Tree::feature_importance`]
//! attributes the impurity decrease to features, which is how the paper
//! diagnoses *why* each family's drives fail (§V-B1).
//!
//! # Example
//!
//! ```
//! use hdd_cart::{Class, ClassificationTreeBuilder, ClassSample};
//!
//! // Two clearly separated clusters on one feature.
//! let mut samples = Vec::new();
//! for i in 0..40 {
//!     let x = f64::from(i % 20);
//!     samples.push(ClassSample::new(vec![x], Class::Good));
//!     samples.push(ClassSample::new(vec![x + 100.0], Class::Failed));
//! }
//! let tree = ClassificationTreeBuilder::new().build(&samples)?;
//! assert_eq!(tree.predict(&[5.0]), Class::Good);
//! assert_eq!(tree.predict(&[105.0]), Class::Failed);
//! # Ok::<(), hdd_cart::TrainError>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod boosting;
pub mod classifier;
pub mod compact;
pub mod forest;
mod grow;
pub mod health;
pub mod prune;
pub mod regressor;
pub mod sample;
pub mod split;
pub mod tree;

pub use boosting::{AdaBoost, AdaBoostBuilder};
pub use classifier::{ClassificationTree, ClassificationTreeBuilder};
pub use compact::{CompactForest, CompactTree};
pub use forest::{RandomForest, RandomForestBuilder, FOREST_MIN_TASK_ROWS};
pub use health::{global_health_degree, personalized_health_degree, HealthModel};
pub use prune::cost_complexity_prune;
pub use regressor::{RegressionTree, RegressionTreeBuilder};
pub use sample::{Class, ClassSample, RegSample, TrainError};
pub use split::{FeatureMatrix, SplitCriterion, SplitWorkspace};
pub use tree::{NodeId, Tree};
