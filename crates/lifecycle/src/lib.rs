//! Guarded online model lifecycle.
//!
//! The serve daemon (and the gauntlet that stress-tests it) closes the
//! loop from hot model *reload* to actual *retraining*: committed rows
//! feed a bounded [`TrainingBuffer`], a background trainer periodically
//! builds a candidate inside a panic-isolation cell, the candidate
//! shadow-scores live traffic in a [`ShadowScorer`] until a
//! [`PromotionGate`] judges it, and only then is it promoted through the
//! crash-safe two-phase protocol in [`ModelStore`] — with automatic
//! [`ModelStore::rollback`] when post-promotion probation trips.
//!
//! The [`LifecycleManager`] ties these together as an explicit state
//! machine (`Idle → Training → Shadow → Promoting → Probation`, with
//! rollback edges; DESIGN.md §11 has the full diagram). Everything is
//! driven by committed-row counts off the deterministic merged event
//! stream, so lifecycle decisions land at identical stream positions at
//! any shard count, survive `kill -9` byte-identically, and replay
//! exactly from checkpoints.
//!
//! The serve crate does *not* know about lifecycles; this crate is the
//! lowest one that sees both, so the one serve loop lives here: the
//! [`Daemon`] that `hddpred serve`, the workload gauntlet and the serve
//! bench all drive, with the lifecycle as an optional part of its step.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]
#![warn(missing_docs)]

pub mod buffer;
pub mod daemon;
pub mod manager;
pub mod promote;
pub mod shadow;

pub use buffer::{BufferPush, TrainingBuffer, WindowMode};
pub use daemon::{ConfigError, Daemon, DaemonConfig, DaemonError, StepReport};
pub use manager::{
    lifecycle_log_path, lifecycle_path, LifecycleConfig, LifecycleCounters, LifecycleError,
    LifecycleFaults, LifecycleManager, Phase,
};
pub use promote::{fingerprint, ModelStore, PromoteError, Recovery};
pub use shadow::{PromotionGate, ShadowComparison, ShadowMetrics, ShadowScorer};
