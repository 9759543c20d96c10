//! Resilient sharded streaming detection service.
//!
//! This crate turns the batch voting detector into a long-running
//! daemon: it tails one or more append-only SMART CSV feeds, partitions
//! drives across detection shards, keeps per-drive voting windows, and
//! appends alarms to a line-oriented sink — while surviving the things
//! long-running processes actually meet:
//!
//! - **Scale**: [`MultiFeedIngest`] routes committed lines through a
//!   [`ShardRouter`] to `N` [`EngineShard`]s ticked in parallel by the
//!   [`ServeTopology`]; the merge stage orders alarms by the seq of the
//!   line that raised them, so the sink bytes are identical at any
//!   shard count and any feed interleaving.
//! - **`kill -9`**: each shard keeps its state (feed cursors, voting
//!   windows, counters, breaker, unmerged alarms) as a [`SnapshotLog`]:
//!   a snapshot plus a record log of CRC-framed appends since it, with
//!   the merge state in `topology.ckpt`, every snapshot written through
//!   the CRC-checked container with atomic rename; a restart replays the
//!   log and the feed suffixes and produces a byte-identical alarm
//!   sink.
//! - **Bad model pushes**: a replacement model is validated once,
//!   through the checksummed model loader, and
//!   [`ServeTopology::swap_model`] hands the same `Arc`'d model to every
//!   shard; a corrupt or mismatched file is rejected and the
//!   last-known-good model keeps serving.
//! - **Slow ticks**: scoring runs under a [`hdd_par::CancelToken`] time
//!   budget; an over-budget batch commits *nothing* and is retried, so
//!   deadlines never change what gets alarmed, only when.
//! - **Feed trouble**: transient I/O errors retry with deterministic
//!   capped exponential [`Backoff`]; a flood of unusable rows trips a
//!   per-shard quarantine [`CircuitBreaker`] into a degraded mode that
//!   suppresses that shard's alarms until its slice of the feed heals.
//! - **Overload**: each shard's [`BoundedQueue`] sheds oldest-first and
//!   counts every drop (the serve loop polls within
//!   [`ServeTopology::free`], so it never actually drops).

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

pub mod breaker;
pub mod checkpoint;
pub mod engine;
pub mod ingest;
pub mod merge;
pub mod monitor;
pub mod queue;
pub mod retry;
pub mod router;
pub mod stats;
pub mod tailer;
pub mod topology;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use checkpoint::{
    save_snapshot, Checkpoint, CheckpointError, CheckpointKind, SnapshotLog,
    CHECKPOINT_FORMAT_VERSION, CHECKPOINT_MAGIC,
};
pub use engine::{Alarm, BatchOutcome, EngineConfig, EngineShard, RowEvent, SeqAlarm};
pub use ingest::{FeedCursor, MultiFeedIngest, PollOutcome, RoutedLine};
pub use merge::MergeState;
pub use queue::BoundedQueue;
pub use retry::Backoff;
pub use router::ShardRouter;
pub use stats::ShardStats;
pub use tailer::{FeedTailer, LineText, TailEvent, MAX_LINE_BYTES};
pub use topology::{
    shard_log_path, shard_path, topology_path, ServeTopology, TickOutcome, SUB_BATCH_LINES,
};
