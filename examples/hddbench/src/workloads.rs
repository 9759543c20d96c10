//! The four workloads, their sizes, and the metric names they report.
//!
//! Sizes are chosen so one run of any workload (input generation,
//! measurement, restarts and correctness checks) stays well under half a
//! minute on two cores; see README.md for why each workload exists.

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Durable serving: checkpoint after every tick, crash and resume.
    FleetDurable,
    /// A drive-major backlog served without checkpoints.
    Backfill,
    /// Drifted fleet served with online retraining and checkpoints.
    RetrainDrift,
    /// The paper's batch path: `hddpred train` then `hddpred detect`.
    PaperBatch,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FleetDurable,
        Workload::Backfill,
        Workload::RetrainDrift,
        Workload::PaperBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetDurable => "fleet-durable",
            Workload::Backfill => "backfill",
            Workload::RetrainDrift => "retrain-drift",
            Workload::PaperBatch => "paper-batch",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Every input size and load setting, in one place.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Part of the input-cache key: sizes with another tag never share
    /// cached inputs.
    pub tag: &'static str,
    /// Fleet-durable: family-W scale, first hour emitted, backlog hours,
    /// open-loop rate (rows/s), batch interval and paced duration.
    pub fd_scale: f64,
    pub fd_start_hour: u32,
    pub fd_catchup_hours: u32,
    pub fd_rate: usize,
    pub fd_batch_ms: u64,
    pub fd_paced_s: f64,
    /// Backfill: calibrated-mix scale.
    pub bf_scale: f64,
    /// Retrain-drift: firmware-cohort-drift scale and lifecycle cadence.
    pub rd_scale: f64,
    pub rd_retrain_rows: usize,
    pub rd_shadow_rows: usize,
    /// Paper-batch: family-W scale of the training and of the test fleet.
    pub pb_scale: f64,
    /// Rows the traced pass replays through the engine stages.
    pub replay_rows: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            tag: "full",
            fd_scale: 0.03,
            fd_start_hour: 600,
            fd_catchup_hours: 48,
            fd_rate: 2000,
            fd_batch_ms: 10,
            fd_paced_s: 3.0,
            bf_scale: 0.02,
            rd_scale: 0.0015,
            rd_retrain_rows: 2048,
            rd_shadow_rows: 512,
            pb_scale: 0.02,
            replay_rows: 500_000,
        }
    }

    /// Tiny inputs through the same code paths and checks.
    pub fn smoke() -> Sizes {
        Sizes {
            tag: "smoke",
            fd_scale: 0.005,
            fd_catchup_hours: 12,
            fd_paced_s: 1.0,
            bf_scale: 0.003,
            rd_scale: 0.001,
            pb_scale: 0.003,
            replay_rows: 20_000,
            ..Sizes::full()
        }
    }

    /// Rows the fleet-durable open loop appends per batch.
    pub fn fd_rows_per_batch(&self) -> usize {
        self.fd_rate * self.fd_batch_ms as usize / 1000
    }

    /// Batches in the paced phase.
    pub fn fd_batches(&self) -> usize {
        (self.fd_paced_s * 1000.0 / self.fd_batch_ms as f64).round() as usize
    }

    /// Rows the paced phase appends in total (an even count: rows
    /// alternate between the two feeds).
    pub fn fd_paced_rows(&self) -> usize {
        (self.fd_batches() * self.fd_rows_per_batch()) / 2 * 2
    }
}

/// End-to-end metrics, in report order: `(name, unit)`. Bounds and
/// directions live in BENCHMARK.json.
pub const END_TO_END: [(&str, &str); 4] = [
    ("rows_per_s", "rows/s"),
    ("cpu_us_per_row", "us/row"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics every workload's traced pass reports:
/// `(name, unit)`. Layers that only some workloads have (checkpoint,
/// lifecycle, resume, CART) are in the per-workload trace summary.
pub const PER_LAYER: [(&str, &str); 14] = [
    ("trace.rows_per_s", "rows/s"),
    ("trace.overhead_pct", "%"),
    ("startup.ms", "ms"),
    ("ingest.us_per_row", "us/row"),
    ("detect.us_per_row", "us/row"),
    ("detect.p99_ms", "ms"),
    ("durable.us_per_row", "us/row"),
    ("durable.bytes_per_row", "B/row"),
    ("durable.share", "fraction"),
    ("csv.parse_us_per_row", "us/row"),
    ("features.extract_us_per_row", "us/row"),
    ("compact.score_ns_per_row", "ns/row"),
    ("voting.push_ns_per_row", "ns/row"),
    ("engine.other_us_per_row", "us/row"),
];
