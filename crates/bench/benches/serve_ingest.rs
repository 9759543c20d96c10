//! Sustained-ingest benchmark for the sharded serve topology.
//!
//! Opens a 4-shard serve [`Daemon`] over two on-disk feeds, streams a
//! fleet of drives emitting hourly SMART samples through the real
//! tailer → router → shard → merge → sink path by driving
//! [`Daemon::step`] exactly as `hddpred serve` does, and measures what
//! the paper's deployment story needs: how many drives one box can
//! track and how long a step takes at that scale. Steps run without a
//! tick budget, so each one drains every queue it filled.
//!
//! The full run tracks 1,000,000 drives (three hourly waves, 3M rows);
//! `--smoke` drops to 50,000 drives so CI can prove the harness and the
//! artifact schema in seconds. Results land in `BENCH_serve.json` at
//! the workspace root: one `serve_ingest` row with `tracked_drives`,
//! `rows_ingested`, `rows_per_sec`, `p99_tick_ms` (per daemon step),
//! `parse_us_per_row` (the row parser alone over the same feed lines),
//! `ingest_us_per_row` (`MultiFeedIngest::poll` alone over the same
//! feeds: tail, decode and route) and `snapshot_encode_us_per_drive` /
//! `snapshot_decode_us_per_drive` (each shard's end state encoded as its
//! snapshot payload and restored into a fresh shard, once) columns, the
//! last four timed outside the serve loop (CI fails if the file or the
//! p99, parse, ingest or snapshot columns are missing).

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "timing harness: wall-clock measurement is its purpose"
)]

use hdd_bench::report::Report;
use hdd_bench::section;
use hdd_cart::classifier::ClassificationTreeBuilder;
use hdd_eval::{series_training_set, SavedModel, VotingRule};
use hdd_lifecycle::{Daemon, DaemonConfig};
use hdd_par::hardware_threads;
use hdd_serve::{EngineConfig, EngineShard, MultiFeedIngest, ShardRouter};
use hdd_smart::csv::parse_data_line;
use hdd_smart::rng::DeterministicRng;
use hdd_smart::{DatasetGenerator, FamilyProfile, NUM_ATTRIBUTES};
use hdd_stats::FeatureSet;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const FEEDS: usize = 2;
const WAVES: u32 = 3;
const QUEUE_CAP: usize = 16_384;

/// Train a small classification tree on a generated fleet with the CLI
/// trainer's sampling, so the served model has realistic depth.
fn model(features: &FeatureSet) -> SavedModel {
    let ds = DatasetGenerator::new(FamilyProfile::w().scaled(0.004), 99).generate();
    let series: Vec<_> = ds.drives().iter().map(|spec| ds.series(spec)).collect();
    let samples = series_training_set(&series, features, 168, &DeterministicRng::new(0x5EED));
    let tree = ClassificationTreeBuilder::new()
        .build(&samples)
        .expect("train bench model");
    SavedModel::from(tree.compile())
}

/// Write `n_drives` drives × [`WAVES`] hourly samples as two feed files,
/// drives split by id parity (the multi-feed contract), hour-major like
/// a live fleet: every drive reports hour 0, then hour 1, …
fn write_feeds(dir: &Path, n_drives: u32) -> Vec<PathBuf> {
    let paths = vec![dir.join("feed-even.csv"), dir.join("feed-odd.csv")];
    let mut writers: Vec<BufWriter<std::fs::File>> = paths
        .iter()
        .map(|p| BufWriter::new(std::fs::File::create(p).expect("create feed")))
        .collect();
    for w in &mut writers {
        hdd_smart::csv::write_header(w).expect("write header");
    }
    let mut row = String::with_capacity(96);
    for hour in 0..WAVES {
        for id in 0..n_drives {
            row.clear();
            row.push_str(&format!("{id},0,,{hour}"));
            for j in 0..NUM_ATTRIBUTES {
                // Deterministic per-drive variation, always in range.
                let v = 1 + ((u64::from(id) >> j) & 7);
                row.push_str(&format!(",{v}"));
            }
            row.push('\n');
            writers[(id % 2) as usize]
                .write_all(row.as_bytes())
                .expect("write row");
        }
    }
    for mut w in writers {
        w.flush().expect("flush feed");
    }
    paths
}

/// Microseconds per row of `parse_data_line` alone over every data line
/// of the feeds, one feed in memory at a time.
fn parse_us_per_row(paths: &[PathBuf]) -> f64 {
    let mut rows = 0usize;
    let mut elapsed = Duration::ZERO;
    for path in paths {
        let text = std::fs::read_to_string(path).expect("read feed");
        let t = Instant::now();
        for line in text.lines().skip(1) {
            std::hint::black_box(parse_data_line(line).expect("feed rows parse"));
            rows += 1;
        }
        elapsed += t.elapsed();
    }
    elapsed.as_secs_f64() * 1e6 / rows as f64
}

/// Microseconds per row of `MultiFeedIngest::poll` alone over the feeds,
/// polling as the daemon does with a queue's worth of budget; dropping
/// what each poll routed is not timed.
fn ingest_us_per_row(paths: &[PathBuf]) -> f64 {
    let mut ingest = MultiFeedIngest::new(paths, ShardRouter::new(SHARDS));
    let (mut rows, mut elapsed) = (0usize, Duration::ZERO);
    loop {
        let t = Instant::now();
        let out = ingest.poll(QUEUE_CAP);
        elapsed += t.elapsed();
        assert!(out.errors.is_empty(), "feed reads must not fail");
        if out.lines_read == 0 {
            break;
        }
        rows += out.lines_read;
    }
    elapsed.as_secs_f64() * 1e6 / rows as f64
}

/// Microseconds per tracked drive to encode every shard's state as its
/// snapshot payload, and to restore that payload into a fresh shard,
/// each shard once.
fn snapshot_us_per_drive(daemon: &Daemon, model: &Arc<SavedModel>) -> (f64, f64) {
    let (mut encode, mut decode, mut drives) = (Duration::ZERO, Duration::ZERO, 0);
    let config = EngineConfig::new(11, VotingRule::Majority, 0.1);
    for shard in daemon.topology().shards() {
        let t = Instant::now();
        let mut text = String::new();
        shard.write_state(&mut text);
        encode += t.elapsed();
        let mut fresh =
            EngineShard::new(Arc::clone(model), FeatureSet::critical13(), config, FEEDS)
                .expect("a fresh shard");
        let t = Instant::now();
        fresh
            .read_state(&text)
            .expect("restore a shard's own snapshot");
        decode += t.elapsed();
        assert_eq!(fresh.tracked_drives(), shard.tracked_drives());
        drives += shard.tracked_drives();
    }
    let per_drive = |d: Duration| d.as_secs_f64() * 1e6 / drives as f64;
    (per_drive(encode), per_drive(decode))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n_drives: u32 = if smoke { 50_000 } else { 1_000_000 };
    let dir = std::env::temp_dir().join(format!("hddpred-serve-ingest-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create bench dir");

    section(&format!(
        "sustained ingest: {n_drives} drives x {WAVES} hourly rows, {SHARDS} shards, {FEEDS} feeds"
    ));
    let features = FeatureSet::critical13();
    let model_path = dir.join("model.bin");
    let served = Arc::new(model(&features));
    served.save(&model_path).expect("save bench model");
    let t = Instant::now();
    let paths = write_feeds(&dir, n_drives);
    println!("feeds written in {:.1} s", t.elapsed().as_secs_f64());
    let parse_us = parse_us_per_row(&paths);
    println!("parse alone: {parse_us:.3} us/row");
    let ingest_us = ingest_us_per_row(&paths);
    println!("ingest alone: {ingest_us:.3} us/row");

    let mut config = DaemonConfig::new(paths, model_path, dir.join("alarms.csv"));
    config.shards = SHARDS;
    config.queue = QUEUE_CAP;
    config.tick_budget = None;
    let mut daemon = Daemon::open(config).expect("open daemon");

    let mut tick_ms: Vec<f64> = Vec::new();
    let mut alarms = 0usize;
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let step = daemon.step().expect("step");
        tick_ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert!(step.feed_errors.is_empty(), "feed reads must not fail");
        alarms += step.alarms.len();
        if step.idle {
            break;
        }
    }
    let wall = start.elapsed();

    let topology = daemon.topology();
    assert_eq!(topology.dropped(), 0, "budgeted polls cannot overflow");
    let stats = topology.stats();
    let rows = stats.rows_seen;
    let tracked = topology.tracked_drives();
    assert_eq!(tracked, n_drives as usize, "every drive must be tracked");
    assert_eq!(
        rows,
        (n_drives as usize) * WAVES as usize,
        "every row must be seen"
    );
    assert_eq!(stats.quarantined_rows(), 0, "the feeds are clean");
    if !smoke {
        assert!(tracked >= 1_000_000, "the full run must track >= 1M drives");
    }

    let (encode_us, decode_us) = snapshot_us_per_drive(&daemon, &served);
    println!("snapshot: encode {encode_us:.3} us/drive, decode {decode_us:.3} us/drive");

    let rate = rows as f64 / wall.as_secs_f64();
    tick_ms.sort_unstable_by(f64::total_cmp);
    let p99_idx = ((tick_ms.len() - 1) as f64 * 0.99).ceil() as usize;
    let p99 = tick_ms[p99_idx];
    println!(
        "{tracked} drives tracked, {rows} rows in {:.2} s ({:.0} rows/s), \
         {} ticks, p99 tick {p99:.2} ms, {alarms} alarms",
        wall.as_secs_f64(),
        rate,
        tick_ms.len(),
    );

    let mut report = Report::new();
    report.push_with(
        "serve_ingest",
        hardware_threads(),
        wall.as_secs_f64() * 1e3,
        1.0,
        &[
            ("shards", SHARDS as f64),
            ("feeds", FEEDS as f64),
            ("tracked_drives", tracked as f64),
            ("rows_ingested", rows as f64),
            ("rows_per_sec", rate),
            ("p99_tick_ms", p99),
            ("parse_us_per_row", parse_us),
            ("ingest_us_per_row", ingest_us),
            ("snapshot_encode_us_per_drive", encode_us),
            ("snapshot_decode_us_per_drive", decode_us),
        ],
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    report.write(&path).expect("write BENCH_serve.json");
    std::fs::remove_dir_all(&dir).ok();
}
