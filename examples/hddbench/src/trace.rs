//! The traced in-process pass: the same inputs and settings as the
//! end-to-end runs, driven through the library's public calls with a
//! span around each call into a layer.
//!
//! For the serve workloads the loop mirrors `hddpred serve`'s (poll →
//! enqueue → tick → sink append+flush → lifecycle consume → idle flush →
//! staged swap → lifecycle save → checkpoint save) over the pre-written
//! backlog, exiting at the first idle poll. For `paper-batch` it mirrors
//! `hddpred train` then `hddpred detect`. Passes with spans off and on
//! alternate, and the throughput gap between the fastest of each is the
//! tracing overhead; the fastest traced pass gives the spans. Spans are
//! kept in memory and written out as JSON lines when the pass ends.

use crate::inputs::Inputs;
use crate::oracle::{self, Alarm, VOTERS};
use crate::stats::percentile;
use crate::workloads::{Sizes, Workload};
use hddpred::cart::{Class, ClassSample, ClassificationTreeBuilder, FeatureMatrix};
use hddpred::eval::{Predictor, SavedModel, VotingDetector, VotingRule, VotingState};
use hddpred::hdd_json::{self, Value};
use hddpred::lifecycle::{lifecycle_path, LifecycleConfig, LifecycleFaults, LifecycleManager};
use hddpred::par::{CancelToken, ThreadPool};
use hddpred::serve::{
    shard_path, topology_path, Checkpoint, EngineConfig, MultiFeedIngest, ServeTopology,
};
use hddpred::smart::csv::{parse_data_line, read_series_quarantined, IngestPolicy};
use hddpred::smart::rng::DeterministicRng;
use hddpred::smart::{Hour, SmartSample, SmartSeries};
use hddpred::stats::FeatureSet;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed call: name, start and end (ns since the pass began), the
/// span it ran inside, and the loop iteration it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub tick: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder; does nothing when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    tick: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            tick: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            tick: self.tick,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        self.spans[id].end_ns = now;
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn next_tick(&mut self) {
        self.tick += 1;
    }

    fn named(&self, name: &str) -> impl Iterator<Item = &Span> + '_ {
        let name = name.to_string();
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed duration of every span called `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        // `f64` sums start at -0.0; add 0.0 so an absent layer reads 0.
        self.named(name).map(Span::ms).sum::<f64>() + 0.0
    }

    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::ms).collect()
    }

    /// Each span's duration minus the time its children cover, in ns.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Summed self time of spans called `name`, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .sum::<f64>()
            + 0.0
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let own = self.self_ns();
        let mut text = String::new();
        for (s, own) in self.spans.iter().zip(own) {
            let parent = s.parent.map_or(Value::Null, |p| Value::Num(p as f64));
            let obj = Value::Obj(vec![
                ("name".to_string(), Value::Str(s.name.to_string())),
                ("start_us".to_string(), Value::Num(s.start_ns as f64 / 1e3)),
                ("end_us".to_string(), Value::Num(s.end_ns as f64 / 1e3)),
                ("self_us".to_string(), Value::Num(own as f64 / 1e3)),
                ("parent".to_string(), parent),
                ("tick".to_string(), Value::Num(s.tick as f64)),
            ]);
            text.push_str(&hdd_json::to_string(&obj));
            text.push('\n');
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Everything a traced workload reports: the universal per-layer
/// metrics (named in `workloads::PER_LAYER`) plus this workload's own
/// layer table.
pub struct TraceOutcome {
    pub per_layer: Vec<(&'static str, f64)>,
    pub layers: Vec<(String, f64)>,
    pub rows: usize,
    pub mismatches: usize,
    pub problems: Vec<String>,
}

/// Untraced/traced pass pairs run, alternating; the overhead compares
/// the fastest of each, since other load only ever slows a pass.
const OVERHEAD_PAIRS: usize = 2;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// A serve pass's configuration.
struct ServeSetup {
    feeds: Vec<PathBuf>,
    model: PathBuf,
    sink: PathBuf,
    ckpt: Option<PathBuf>,
    retrain: Option<(usize, usize)>,
}

/// The serving state `hddpred serve` builds before its loop.
struct Serving {
    topology: ServeTopology,
    lifecycle: Option<LifecycleManager>,
    ingest: MultiFeedIngest,
}

fn lifecycle_config(retrain: (usize, usize)) -> LifecycleConfig {
    let mut lc = LifecycleConfig::new(VOTERS, VotingRule::Majority);
    lc.retrain_rows = retrain.0;
    lc.shadow_rows = retrain.1;
    lc
}

/// `hddpred serve`'s startup: lifecycle recovery, model load, topology,
/// checkpoint resume, ingest cursors.
fn start(setup: &ServeSetup, tr: &mut Tracer) -> Result<Serving, String> {
    let features = FeatureSet::critical13();
    let lifecycle = match setup.retrain {
        None => None,
        Some(r) => Some(
            tr.time("startup.lifecycle", || {
                LifecycleManager::resume(
                    lifecycle_config(r),
                    setup.model.clone(),
                    LifecycleFaults::default(),
                    setup.ckpt.as_deref(),
                )
            })
            .map_err(|e| format!("lifecycle resume: {e}"))?
            .0,
        ),
    };
    let model = tr
        .time("startup.model_load", || {
            SavedModel::load_expecting(&setup.model, features.len())
        })
        .map_err(|e| format!("{}: {e}", setup.model.display()))?;
    let model = Arc::new(model);
    let mut topology = tr
        .time("startup.topology", || {
            ServeTopology::new(
                &model,
                &features,
                EngineConfig::new(VOTERS, VotingRule::Majority, 0.1),
                2,
                setup.feeds.len(),
                1024,
            )
        })
        .map_err(|e| e.to_string())?;
    if lifecycle.is_some() {
        topology.set_record_events(true);
    }
    if let Some(dir) = &setup.ckpt {
        tr.time("startup.resume", || topology.resume(dir))
            .map_err(|e| format!("resume: {e}"))?;
    }
    let ingest = MultiFeedIngest::resume(
        &setup.feeds,
        topology.router(),
        &topology.ingest_resume_cursors(),
    );
    Ok(Serving {
        topology,
        lifecycle,
        ingest,
    })
}

/// What one serve pass did, beyond its spans.
#[derive(Default)]
struct ServeRun {
    rows: usize,
    lines_read: usize,
    polls: usize,
    wall_ms: f64,
    sink_bytes: u64,
    ckpt_bytes: Vec<u64>,
    lc_ckpt_bytes: Vec<u64>,
    queue_depths: Vec<f64>,
    dropped: usize,
    retry_ticks: usize,
    ahead_max: usize,
    dirty_ratio: Vec<f64>,
    train_ticks: Vec<usize>,
    train_attempts: usize,
    promotions: usize,
    events: usize,
}

/// The checkpoint files `save_checkpoints` may write, with their last
/// seen `(len, mtime)`.
struct CkptFiles {
    paths: Vec<PathBuf>,
    seen: Vec<Option<(u64, std::time::SystemTime)>>,
}

impl CkptFiles {
    fn new(dir: &Path, n_shards: usize) -> CkptFiles {
        let mut paths = vec![topology_path(dir)];
        paths.extend((0..n_shards).map(|k| shard_path(dir, k)));
        let seen = vec![None; paths.len()];
        CkptFiles { paths, seen }
    }

    /// Bytes and shard files rewritten since the last call.
    fn written(&mut self) -> (u64, usize) {
        let (mut bytes, mut shards) = (0, 0);
        for (k, (path, seen)) in self.paths.iter().zip(&mut self.seen).enumerate() {
            let now = std::fs::metadata(path)
                .ok()
                .and_then(|m| Some((m.len(), m.modified().ok()?)));
            if now.is_some() && now != *seen {
                bytes += now.map_or(0, |n| n.0);
                shards += usize::from(k > 0);
                *seen = now;
            }
        }
        (bytes, shards)
    }
}

/// Drive ids of the lines a poll routed.
fn drives_of(routed: &[Vec<hddpred::serve::RoutedLine>]) -> BTreeSet<u32> {
    routed
        .iter()
        .flatten()
        .filter_map(|l| l.text.split(',').next()?.parse().ok())
        .collect()
}

/// Time one lifecycle consume, noting whether it trained a candidate
/// (training runs synchronously inside `consume`).
fn consume(tr: &mut Tracer, run: &mut ServeRun, f: impl FnOnce() -> Vec<String>) {
    let span = tr.begin("lifecycle.consume");
    let notes = f();
    tr.end(span);
    if notes.iter().any(|n| n.contains("trained on")) {
        run.train_ticks.push(span);
        run.train_attempts += 1;
    }
}

/// The serve loop, exiting at the first idle poll.
#[allow(clippy::too_many_lines)]
fn serve_loop(setup: &ServeSetup, tr: &mut Tracer) -> Result<ServeRun, String> {
    let mut run = ServeRun::default();
    let Serving {
        mut topology,
        mut lifecycle,
        mut ingest,
    } = start(setup, tr)?;
    let mut sink = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&setup.sink)
        .map_err(|e| format!("{}: {e}", setup.sink.display()))?;
    let mut sink_bytes = 0u64;
    let mut files = setup
        .ckpt
        .as_deref()
        .map(|d| CkptFiles::new(d, topology.n_shards()));
    let pool = ThreadPool::global();
    let mut emit =
        |alarms: &[hddpred::serve::SeqAlarm], sink_bytes: &mut u64| -> Result<(), String> {
            if alarms.is_empty() {
                return Ok(());
            }
            let mut bytes = Vec::new();
            for a in alarms {
                bytes.extend_from_slice(a.alarm.to_string().as_bytes());
                bytes.push(b'\n');
            }
            sink.write_all(&bytes).map_err(|e| e.to_string())?;
            sink.flush().map_err(|e| e.to_string())?;
            *sink_bytes += bytes.len() as u64;
            Ok(())
        };
    let started = Instant::now();
    loop {
        let iteration = tr.begin("loop");
        let free = topology.free();
        let polled = tr.time("ingest.poll", || ingest.poll(free));
        if let Some((f, e)) = polled.errors.first() {
            return Err(format!("feed {f}: {e}"));
        }
        run.polls += 1;
        run.lines_read += polled.lines_read;
        let touched = if tr.on && files.is_some() {
            drives_of(&polled.routed).len()
        } else {
            0
        };
        let evicted = tr.time("queue.enqueue", || topology.enqueue(polled.routed));
        run.dropped += evicted;
        let queued = topology.queued();
        run.queue_depths.push(queued as f64);
        let token = CancelToken::with_budget(Duration::from_millis(50));
        let tick = tr
            .time("tick", || {
                topology.tick(&pool, &token, &ingest.cursors(), ingest.watermark())
            })
            .map_err(|e| format!("tick: {e}"))?;
        run.rows += queued.saturating_sub(topology.queued());
        if topology.has_queued() && polled.lines_read > 0 {
            run.retry_ticks += 1;
        }
        tr.time("sink", || emit(&tick.alarms, &mut sink_bytes))?;
        if let Some(mgr) = lifecycle.as_mut() {
            let watermark = topology.merge_state().emitted();
            let (alarms, transitions) = (tick.alarms.len(), tick.transitions.len());
            consume(tr, &mut run, || {
                mgr.consume(&pool, &tick.events, alarms, transitions, watermark)
            });
        }
        let mut idle = polled.lines_read == 0 && !topology.has_queued();
        if idle {
            let flushed = tr.time("merge.flush", || topology.flush_pending());
            run.ahead_max = run.ahead_max.max(topology.merge_state().ahead().len());
            tr.time("sink", || emit(&flushed, &mut sink_bytes))?;
            idle = flushed.is_empty();
            if let Some(mgr) = lifecycle.as_mut() {
                let events = topology.flush_events();
                let watermark = topology.merge_state().emitted();
                consume(tr, &mut run, || {
                    mgr.consume(&pool, &events, flushed.len(), 0, watermark)
                });
                while mgr.has_staged_swap() {
                    let swapped = tr.time("lifecycle.swap", || -> Result<bool, String> {
                        match mgr.apply_staged().map_err(|e| format!("swap: {e}"))? {
                            Some(next) => topology
                                .swap_model(&next)
                                .map(|()| true)
                                .map_err(|e| e.to_string()),
                            None => Ok(false),
                        }
                    })?;
                    idle &= !swapped;
                }
            }
        }
        if tick.progressed || !idle {
            if let Some(dir) = &setup.ckpt {
                topology.note_sink_bytes(sink_bytes);
                if let Some(mgr) = lifecycle.as_ref() {
                    tr.time("lifecycle.ckpt", || mgr.save_checkpoint(dir))
                        .map_err(|e| format!("lifecycle checkpoint: {e}"))?;
                    run.lc_ckpt_bytes.push(file_len(&lifecycle_path(dir)));
                }
                tr.time("checkpoint", || topology.save_checkpoints(dir))
                    .map_err(|e| format!("checkpoint: {e}"))?;
                if let Some(files) = files.as_mut() {
                    if tr.on {
                        let (bytes, shards) = files.written();
                        run.ckpt_bytes.push(bytes);
                        let serialized = topology.tracked_drives() * shards / topology.n_shards();
                        if serialized > 0 {
                            run.dirty_ratio.push(touched as f64 / serialized as f64);
                        }
                    }
                }
            }
        }
        tr.end(iteration);
        tr.next_tick();
        if idle {
            break;
        }
    }
    run.wall_ms = ms_since(started);
    run.sink_bytes = sink_bytes;
    run.dropped = topology.dropped();
    if let Some(mgr) = &lifecycle {
        run.promotions = mgr.counters().promotions;
        run.events = mgr.counters().events_consumed;
    }
    Ok(run)
}

/// Lines of the workload's row stream for the engine replay.
fn replay_lines(paths: &[PathBuf], limit: usize) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        lines.extend(
            text.lines()
                .filter(|l| !l.starts_with("drive,"))
                .take(limit - lines.len())
                .map(String::from),
        );
        if lines.len() >= limit {
            break;
        }
    }
    Ok(lines)
}

/// Per-stage engine cost over a replay of the row stream, mirroring what
/// a shard does per committed row.
struct Replay {
    rows: usize,
    parse_ns: u64,
    features_ns: u64,
    score_ns: u64,
    vote_ns: u64,
}

fn replay(lines: &[String], model: &SavedModel) -> Replay {
    let features = FeatureSet::critical13();
    let lookback = features.max_lookback_hours();
    let mut history: BTreeMap<u32, Vec<SmartSample>> = BTreeMap::new();
    let mut votes: BTreeMap<u32, VotingState> = BTreeMap::new();
    let mut r = Replay {
        rows: 0,
        parse_ns: 0,
        features_ns: 0,
        score_ns: 0,
        vote_ns: 0,
    };
    let ns = |t: Instant| t.elapsed().as_nanos() as u64;
    for chunk in lines.chunks(4096) {
        let t = Instant::now();
        let parsed: Vec<_> = chunk
            .iter()
            .filter_map(|l| match parse_data_line(l) {
                Ok((row, None)) => Some(row),
                _ => None,
            })
            .collect();
        r.parse_ns += ns(t);
        let t = Instant::now();
        let mut rows = Vec::new();
        let mut drives = Vec::new();
        for row in &parsed {
            let h = history.entry(row.drive.0).or_default();
            if h.last().is_some_and(|s| row.sample.hour <= s.hour) {
                continue;
            }
            h.push(row.sample);
            let newest = row.sample.hour.0;
            h.retain(|s| s.hour.0 + lookback >= newest);
            let series = SmartSeries::new(row.drive, row.class, h.clone());
            if let Some(f) = features.extract(&series, series.len() - 1) {
                rows.push(f);
                drives.push(row.drive.0);
            }
        }
        r.features_ns += ns(t);
        r.rows += parsed.len();
        if rows.is_empty() {
            continue;
        }
        let t = Instant::now();
        let matrix = FeatureMatrix::from_rows(rows.iter().map(Vec::as_slice));
        let mut scores = vec![0.0; rows.len()];
        model.predict_batch(&matrix, &mut scores);
        r.score_ns += ns(t);
        let t = Instant::now();
        for (d, s) in drives.iter().zip(&scores) {
            votes
                .entry(*d)
                .or_insert_with(|| VotingState::new(VOTERS, VotingRule::Majority))
                .push(*s);
        }
        r.vote_ns += ns(t);
    }
    r
}

/// The batch path's per-stage cost: parse every line, then per drive
/// extract features at every sample of the whole series, score them in
/// one batch and sweep the voting window, as `VotingDetector` does.
fn replay_batch(lines: &[String], model: &SavedModel) -> Replay {
    let features = FeatureSet::critical13();
    let ns = |t: Instant| t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let mut drives: BTreeMap<u32, (hddpred::smart::DriveClass, Vec<SmartSample>)> = BTreeMap::new();
    let mut rows = 0;
    for line in lines {
        if let Ok((row, None)) = parse_data_line(line) {
            drives
                .entry(row.drive.0)
                .or_insert((row.class, Vec::new()))
                .1
                .push(row.sample);
            rows += 1;
        }
    }
    let mut r = Replay {
        rows,
        parse_ns: ns(t),
        features_ns: 0,
        score_ns: 0,
        vote_ns: 0,
    };
    for (drive, (class, samples)) in drives {
        let series = SmartSeries::new(hddpred::smart::DriveId(drive), class, samples);
        let t = Instant::now();
        let feats: Vec<Vec<f64>> = (0..series.len())
            .filter_map(|i| features.extract(&series, i))
            .collect();
        r.features_ns += ns(t);
        if feats.is_empty() {
            continue;
        }
        let t = Instant::now();
        let matrix = FeatureMatrix::from_rows(feats.iter().map(Vec::as_slice));
        let mut scores = vec![0.0; feats.len()];
        model.predict_batch(&matrix, &mut scores);
        r.score_ns += ns(t);
        let t = Instant::now();
        let mut state = VotingState::new(VOTERS, VotingRule::Majority);
        for s in &scores {
            state.push(*s);
        }
        r.vote_ns += ns(t);
    }
    r
}

fn per_row_us(ms: f64, rows: usize) -> f64 {
    ms * 1e3 / rows.max(1) as f64
}

/// Time the restart path against the state a pass left behind: every
/// checkpoint file's load (unseal + parse), then the full startup.
fn time_restart(setup: &ServeSetup, layers: &mut Vec<(String, f64)>) -> Result<f64, String> {
    let mut load_ms = 0.0;
    let mut topo_load_ms = 0.0;
    let mut bytes = 0u64;
    if let Some(dir) = &setup.ckpt {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|e| Some(e.ok()?.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
            .collect();
        paths.sort();
        for path in paths {
            bytes += file_len(&path);
            let t = Instant::now();
            Checkpoint::load(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let ms = ms_since(t);
            load_ms += ms;
            if path != lifecycle_path(dir) {
                topo_load_ms += ms;
            }
        }
    }
    let mut tr = Tracer::new(true);
    let t = Instant::now();
    start(setup, &mut tr)?;
    let startup_ms = ms_since(t);
    let resume_ms = tr.total_ms("startup.resume");
    layers.extend([
        ("resume.load_ms".to_string(), load_ms),
        (
            "resume.restore_ms".to_string(),
            (resume_ms - topo_load_ms).max(0.0),
        ),
        ("resume.bytes".to_string(), bytes as f64),
        (
            "resume.lifecycle_ms".to_string(),
            tr.total_ms("startup.lifecycle"),
        ),
        (
            "resume.model_load_ms".to_string(),
            tr.total_ms("startup.model_load"),
        ),
    ]);
    Ok(startup_ms)
}

/// Engine-stage metrics from a replay, plus `engine.other_us_per_row`:
/// the measured per-row cost of the detect layer minus the stages it
/// runs (`parsed` says whether that layer parses CSV itself — the serve
/// tick does, the batch scan reads parsed series).
fn replay_metrics(r: &Replay, detect_us_per_row: f64, parsed: bool) -> Vec<(&'static str, f64)> {
    let rows = r.rows.max(1) as f64;
    let parse = r.parse_ns as f64 / 1e3 / rows;
    let feats = r.features_ns as f64 / 1e3 / rows;
    let score = r.score_ns as f64 / rows;
    let vote = r.vote_ns as f64 / rows;
    let stages = feats + (score + vote) / 1e3 + if parsed { parse } else { 0.0 };
    vec![
        ("csv.parse_us_per_row", parse),
        ("features.extract_us_per_row", feats),
        ("compact.score_ns_per_row", score),
        ("voting.push_ns_per_row", vote),
        ("engine.other_us_per_row", detect_us_per_row - stages),
    ]
}

/// Trace one serve workload.
fn trace_serve(ctx: &TraceCtx, inp: &Inputs, workload: Workload) -> Result<TraceOutcome, String> {
    let (feeds, oracle_csvs, ckpt, retrain) = match workload {
        Workload::FleetDurable => (
            vec![inp.path("catchup-0.csv"), inp.path("catchup-1.csv")],
            vec![inp.path("oracle-catchup.csv")],
            true,
            None,
        ),
        Workload::Backfill => (inp.feeds(), inp.feeds(), false, None),
        _ => (
            inp.feeds(),
            inp.feeds(),
            true,
            Some((ctx.sizes.rd_retrain_rows, ctx.sizes.rd_shadow_rows)),
        ),
    };
    let oracle = oracle::detect_alarms(ctx.bin, &oracle_csvs, &inp.path("model.bin"))?;
    let pass = |label: &str, tr: &mut Tracer| -> Result<(ServeSetup, ServeRun), String> {
        let dir = ctx.work.join(label);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let model = dir.join("model.bin");
        std::fs::copy(inp.path("model.bin"), &model).map_err(|e| e.to_string())?;
        let setup = ServeSetup {
            feeds: feeds.clone(),
            model,
            sink: dir.join("alarms.csv"),
            ckpt: ckpt.then(|| dir.join("ckpt")),
            retrain,
        };
        let run = serve_loop(&setup, tr)?;
        Ok((setup, run))
    };
    let mut plain_ms = f64::MAX;
    let mut best: Option<(Tracer, ServeSetup, ServeRun)> = None;
    for k in 0..OVERHEAD_PAIRS {
        plain_ms = plain_ms.min(pass("untraced", &mut Tracer::new(false))?.1.wall_ms);
        let mut tr = Tracer::new(true);
        let (setup, run) = pass(&format!("traced-{k}"), &mut tr)?;
        if best.as_ref().is_none_or(|b| run.wall_ms < b.2.wall_ms) {
            best = Some((tr, setup, run));
        }
    }
    let (tr, setup, run) = best.ok_or("no traced pass ran")?;
    tr.write_jsonl(&ctx.out.join(format!("trace-{}.jsonl", workload.name())))?;

    let mut problems = Vec::new();
    let sink = oracle::sink_alarms(&setup.sink)?;
    let mismatches = oracle::mismatches(&oracle, &sink);
    if mismatches > 0 {
        problems.push(format!(
            "traced sink: {mismatches} alarm(s) differ from batch detect"
        ));
    }
    if run.rows != inp_rows(inp, workload) || run.dropped > 0 {
        problems.push(format!(
            "traced pass committed {} rows, dropped {}",
            run.rows, run.dropped
        ));
    }
    if run.promotions > 1 {
        problems.push(format!(
            "traced pass promoted {} times in one run",
            run.promotions
        ));
    }

    let mut layers = Vec::new();
    let startup_ms = time_restart(&setup, &mut layers)?;
    let rows = run.rows;
    let wall = run.wall_ms;
    let ticks = tr.durations_ms("tick");
    let tick_ms = tr.total_ms("tick");
    let ckpt_ms = tr.total_ms("checkpoint");
    let lc_ckpt_ms = tr.total_ms("lifecycle.ckpt");
    let sink_ms = tr.total_ms("sink");
    let durable_ms = sink_ms + ckpt_ms + lc_ckpt_ms;
    let ckpt_bytes: u64 = run.ckpt_bytes.iter().sum();
    let lc_bytes: u64 = run.lc_ckpt_bytes.iter().sum();
    let consume_ms = tr.total_ms("lifecycle.consume");
    let swap_ms = tr.total_ms("lifecycle.swap");
    let train_ms: f64 = run
        .train_ticks
        .iter()
        .filter_map(|&i| tr.spans.get(i))
        .map(Span::ms)
        .sum();
    let detect_us = per_row_us(tick_ms, rows);
    let trace_rps = rows as f64 / (wall / 1e3);
    let plain_rps = rows as f64 / (plain_ms / 1e3);
    let lines = replay_lines(&feeds, ctx.sizes.replay_rows)?;
    let model = SavedModel::load(&inp.path("model.bin")).map_err(|e| e.to_string())?;
    let rp = replay(&lines, &model);

    let mut per_layer = vec![
        ("trace.rows_per_s", trace_rps),
        (
            "trace.overhead_pct",
            (plain_rps - trace_rps) / plain_rps * 100.0,
        ),
        ("startup.ms", startup_ms),
        (
            "ingest.us_per_row",
            per_row_us(tr.total_ms("ingest.poll"), run.lines_read),
        ),
        ("detect.us_per_row", detect_us),
        ("detect.p99_ms", percentile(&ticks, 99.0)),
        ("durable.us_per_row", per_row_us(durable_ms, rows)),
        (
            "durable.bytes_per_row",
            (run.sink_bytes + ckpt_bytes + lc_bytes) as f64 / rows.max(1) as f64,
        ),
        ("durable.share", durable_ms / wall),
    ];
    per_layer.extend(replay_metrics(&rp, detect_us, true));

    let share = |name: &str| tr.self_ms(name) / wall;
    let saves = run.ckpt_bytes.len().max(1) as f64;
    let ckpt_durations = tr.durations_ms("checkpoint");
    let lc_durations = tr.durations_ms("lifecycle.ckpt");
    let p = |v: &[f64], q: f64| if v.is_empty() { 0.0 } else { percentile(v, q) };
    layers.extend(
        [
            ("ingest.busy_ms", tr.total_ms("ingest.poll")),
            (
                "ingest.us_per_line",
                per_row_us(tr.total_ms("ingest.poll"), run.lines_read),
            ),
            (
                "ingest.lines_per_poll",
                run.lines_read as f64 / run.polls.max(1) as f64,
            ),
            ("queue.depth_p99", p(&run.queue_depths, 99.0)),
            ("queue.dropped", run.dropped as f64),
            ("tick.busy_ms", tick_ms),
            ("tick.p50_ms", p(&ticks, 50.0)),
            ("tick.p99_ms", p(&ticks, 99.0)),
            ("tick.us_per_row", detect_us),
            ("tick.count", ticks.len() as f64),
            (
                "tick.retry_share",
                run.retry_ticks as f64 / ticks.len().max(1) as f64,
            ),
            ("merge.flush_ms", tr.total_ms("merge.flush")),
            ("merge.ahead_max", run.ahead_max as f64),
            ("sink.busy_ms", sink_ms),
            ("sink.bytes", run.sink_bytes as f64),
            ("checkpoint.busy_ms", ckpt_ms),
            ("checkpoint.p50_ms", p(&ckpt_durations, 50.0)),
            ("checkpoint.p99_ms", p(&ckpt_durations, 99.0)),
            ("checkpoint.count", ckpt_durations.len() as f64),
            ("checkpoint.bytes_per_save", ckpt_bytes as f64 / saves),
            (
                "checkpoint.bytes_per_row",
                ckpt_bytes as f64 / rows.max(1) as f64,
            ),
            (
                "checkpoint.dirty_drive_ratio",
                if run.dirty_ratio.is_empty() {
                    0.0
                } else {
                    crate::stats::median(&run.dirty_ratio)
                },
            ),
            ("checkpoint.share", share("checkpoint")),
            ("lifecycle.consume_ms", consume_ms),
            ("lifecycle.train_ms", train_ms),
            ("lifecycle.train_attempts", run.train_attempts as f64),
            ("lifecycle.promotions", run.promotions as f64),
            ("lifecycle.ckpt_ms", lc_ckpt_ms),
            ("lifecycle.ckpt_p99_ms", p(&lc_durations, 99.0)),
            (
                "lifecycle.ckpt_bytes_per_save",
                lc_bytes as f64 / run.lc_ckpt_bytes.len().max(1) as f64,
            ),
            ("lifecycle.swap_ms", swap_ms),
            ("lifecycle.events", run.events as f64),
            (
                "lifecycle.share",
                (consume_ms + swap_ms + lc_ckpt_ms) / wall,
            ),
            ("share.ingest", share("ingest.poll")),
            ("share.queue", share("queue.enqueue")),
            ("share.tick", share("tick")),
            ("share.sink", share("sink")),
            ("share.merge", share("merge.flush")),
            (
                "share.lifecycle",
                (consume_ms + swap_ms + lc_ckpt_ms) / wall,
            ),
            ("share.checkpoint", share("checkpoint")),
            ("share.other", share("loop")),
            ("trace.untraced_rows_per_s", plain_rps),
            ("trace.replay_rows", rp.rows as f64),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    Ok(TraceOutcome {
        per_layer,
        layers,
        rows,
        mismatches,
        problems,
    })
}

fn inp_rows(inp: &Inputs, workload: Workload) -> usize {
    match workload {
        Workload::FleetDurable => 2 * inp.catchup_per_feed,
        _ => inp.rows,
    }
}

/// `hddpred train`'s sampling: three random samples per good drive plus
/// every failed-drive sample inside the window.
fn training_set(
    series: &[SmartSeries],
    features: &FeatureSet,
    window_hours: u32,
) -> Vec<ClassSample> {
    let rng = DeterministicRng::new(0x007E_A1CB);
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

fn read_csv(path: &Path) -> Result<Vec<SmartSeries>, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    read_series_quarantined(BufReader::new(file), &IngestPolicy::default())
        .map(|i| i.series)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// What one batch pass did.
struct BatchRun {
    wall_ms: f64,
    alarms: Vec<Alarm>,
    model_path: PathBuf,
    alarms_path: PathBuf,
    samples: usize,
}

/// `hddpred train` then `hddpred detect`, in process.
fn batch_pass(inp: &Inputs, dir: &Path, tr: &mut Tracer) -> Result<BatchRun, String> {
    let features = FeatureSet::critical13();
    let started = Instant::now();
    let train = tr.time("csv.read", || read_csv(&inp.path("train.csv")))?;
    let samples = tr.time("cart.samples", || training_set(&train, &features, 168));
    let tree = tr
        .time("cart.build", || {
            ClassificationTreeBuilder::new().build(&samples)
        })
        .map_err(|e| e.to_string())?;
    let model_path = dir.join("model.json");
    tr.time("model.save", || {
        SavedModel::from(tree.compile()).save(&model_path)
    })
    .map_err(|e| e.to_string())?;
    let test = tr.time("csv.read", || read_csv(&inp.path("test.csv")))?;
    let model = tr
        .time("model.load", || {
            SavedModel::load_expecting(&model_path, features.len())
        })
        .map_err(|e| e.to_string())?;
    let detector = VotingDetector::new(&model, &features, VOTERS, VotingRule::Majority);
    let mut alarms = Vec::new();
    let mut text = String::from("drive,alarm_hour,last_score\n");
    for s in &test {
        let found = tr.time("detect.scan", || {
            let alarm = detector.first_alarm(s, Hour(0)..Hour(u32::MAX));
            let last = features
                .extract(s, s.len().saturating_sub(1))
                .map(|f| model.score(&f));
            (alarm, last)
        });
        if let (Some(hour), last) = found {
            alarms.push((s.drive.0, hour.0));
            let last = last.map_or_else(|| "-".to_string(), |v| format!("{v:+.0}"));
            text.push_str(&format!("{},{},{last}\n", s.drive.0, hour.0));
        }
    }
    let alarms_path = dir.join("alarms.csv");
    tr.time("sink", || std::fs::write(&alarms_path, &text))
        .map_err(|e| e.to_string())?;
    Ok(BatchRun {
        wall_ms: ms_since(started),
        alarms,
        model_path,
        alarms_path,
        samples: samples.len(),
    })
}

/// Trace the paper's batch path.
fn trace_batch(ctx: &TraceCtx, inp: &Inputs) -> Result<TraceOutcome, String> {
    let dir = |label: &str| -> Result<PathBuf, String> {
        let d = ctx.work.join(label);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).map_err(|e| format!("{}: {e}", d.display()))?;
        Ok(d)
    };
    let mut plain: Option<BatchRun> = None;
    let mut best: Option<(Tracer, BatchRun)> = None;
    for k in 0..OVERHEAD_PAIRS {
        let p = batch_pass(inp, &dir("untraced")?, &mut Tracer::new(false))?;
        if plain.as_ref().is_none_or(|b| p.wall_ms < b.wall_ms) {
            plain = Some(p);
        }
        let mut tr = Tracer::new(true);
        let run = batch_pass(inp, &dir(&format!("traced-{k}"))?, &mut tr)?;
        if best.as_ref().is_none_or(|b| run.wall_ms < b.1.wall_ms) {
            best = Some((tr, run));
        }
    }
    let (plain, (tr, run)) = plain.zip(best).ok_or("no batch pass ran")?;
    tr.write_jsonl(&ctx.out.join("trace-paper-batch.jsonl"))?;

    let oracle = oracle::detect_alarms(ctx.bin, &[inp.path("test.csv")], &run.model_path)?;
    let mismatches = oracle::mismatches(&oracle, &run.alarms);
    let mut problems = Vec::new();
    if mismatches > 0 {
        problems.push(format!(
            "in-process detect: {mismatches} alarm(s) differ from `hddpred detect`"
        ));
    }
    if plain.alarms != run.alarms {
        problems.push("traced and untraced passes found different alarms".to_string());
    }

    let rows = inp.rows;
    let wall = run.wall_ms;
    let read_ms = tr.total_ms("csv.read");
    let scan_ms = tr.total_ms("detect.scan");
    let durable_ms = tr.total_ms("model.save") + tr.total_ms("sink");
    let durable_bytes = file_len(&run.model_path) + file_len(&run.alarms_path);
    let detect_us = per_row_us(scan_ms, inp.test_rows);
    let t = Instant::now();
    SavedModel::load_expecting(&run.model_path, FeatureSet::critical13().len())
        .map_err(|e| e.to_string())?;
    let startup_ms = ms_since(t);
    let trace_rps = rows as f64 / (wall / 1e3);
    let plain_rps = rows as f64 / (plain.wall_ms / 1e3);
    let lines = replay_lines(&[inp.path("test.csv")], ctx.sizes.replay_rows)?;
    let model = SavedModel::load(&run.model_path).map_err(|e| e.to_string())?;
    let rp = replay_batch(&lines, &model);

    let mut per_layer = vec![
        ("trace.rows_per_s", trace_rps),
        (
            "trace.overhead_pct",
            (plain_rps - trace_rps) / plain_rps * 100.0,
        ),
        ("startup.ms", startup_ms),
        ("ingest.us_per_row", per_row_us(read_ms, rows)),
        ("detect.us_per_row", detect_us),
        (
            "detect.p99_ms",
            percentile(&tr.durations_ms("detect.scan"), 99.0),
        ),
        ("durable.us_per_row", per_row_us(durable_ms, rows)),
        ("durable.bytes_per_row", durable_bytes as f64 / rows as f64),
        ("durable.share", durable_ms / wall),
    ];
    per_layer.extend(replay_metrics(&rp, detect_us, false));
    let csv_bytes = file_len(&inp.path("train.csv")) + file_len(&inp.path("test.csv"));
    let layers = [
        ("csv.read_ms", read_ms),
        (
            "csv.read_mb_per_s",
            csv_bytes as f64 / 1e6 / (read_ms / 1e3),
        ),
        ("cart.samples_ms", tr.total_ms("cart.samples")),
        ("cart.build_ms", tr.total_ms("cart.build")),
        ("cart.samples", run.samples as f64),
        ("model.save_ms", tr.total_ms("model.save")),
        ("model.load_ms", tr.total_ms("model.load")),
        ("detect.scan_ms", scan_ms),
        ("detect.us_per_row", detect_us),
        ("sink.busy_ms", tr.total_ms("sink")),
        ("share.csv_read", read_ms / wall),
        (
            "share.cart",
            (tr.total_ms("cart.samples") + tr.total_ms("cart.build")) / wall,
        ),
        ("share.detect", scan_ms / wall),
        ("share.durable", durable_ms / wall),
        ("trace.untraced_rows_per_s", plain_rps),
        ("trace.replay_rows", rp.rows as f64),
    ]
    .map(|(k, v)| (k.to_string(), v))
    .to_vec();
    Ok(TraceOutcome {
        per_layer,
        layers,
        rows,
        mismatches,
        problems,
    })
}

/// Where and how a traced pass runs.
pub struct TraceCtx<'a> {
    pub bin: &'a Path,
    pub work: &'a Path,
    pub out: &'a Path,
    pub sizes: &'a Sizes,
}

pub fn run(ctx: &TraceCtx, workload: Workload, inp: &Inputs) -> Result<TraceOutcome, String> {
    std::fs::create_dir_all(ctx.out).map_err(|e| format!("{}: {e}", ctx.out.display()))?;
    let outcome = match workload {
        Workload::PaperBatch => trace_batch(ctx, inp)?,
        _ => trace_serve(ctx, inp, workload)?,
    };
    let summary = Value::Obj(
        [(
            "workload".to_string(),
            Value::Str(workload.name().to_string()),
        )]
        .into_iter()
        .chain(
            outcome
                .per_layer
                .iter()
                .map(|(k, v)| ((*k).to_string(), Value::Num(*v))),
        )
        .chain(
            outcome
                .layers
                .iter()
                .map(|(k, v)| (k.clone(), Value::Num(*v))),
        )
        .collect(),
    );
    let path = ctx
        .out
        .join(format!("trace-{}-summary.json", workload.name()));
    let mut text = hdd_json::to_string(&summary);
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(outcome)
}
