//! End-to-end runs: the real `hddpred` binary as a subprocess, measured
//! from outside through `/proc` and the files it writes.
//!
//! Every run repeats its workload until the `--seconds` budget would be
//! exceeded by one more repetition (at least once); `summarize` turns
//! the repetitions into the run's numbers.

use crate::inputs::Inputs;
use crate::oracle::{self, Alarm, VOTERS};
use crate::procs::{secs, Finished, Proc};
use crate::stats::{median, percentile, supported_tail};
use crate::workloads::{Sizes, Workload};
use hddpred::eval::{SavedModel, VotingDetector, VotingRule};
use hddpred::hdd_json::JsonCodec as _;
use hddpred::lifecycle::fingerprint;
use hddpred::serve::{topology_path, Checkpoint, CheckpointKind, MergeState};
use hddpred::smart::csv::{read_series_quarantined, IngestPolicy};
use hddpred::smart::Hour;
use hddpred::stats::FeatureSet;
use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How often the bench looks at the daemon's files and `/proc`.
const POLL: Duration = Duration::from_millis(1);
/// Longest any single phase may take before the run is declared broken.
const PHASE_TIMEOUT: Duration = Duration::from_secs(150);
/// Fewest setup-time samples a run reports the median of.
const MIN_SETUP_SAMPLES: usize = 3;

/// Where and how a run executes.
pub struct Ctx<'a> {
    pub bin: &'a Path,
    pub work: &'a Path,
    pub sizes: &'a Sizes,
    pub seconds: f64,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// End-to-end metrics by name (units in `workloads::END_TO_END`).
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, in words.
    pub problems: Vec<String>,
    /// Numbers reported alongside the metrics but not gated on.
    pub extras: Vec<(String, f64)>,
}

impl RunOutcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn problem(&mut self, failed: u64, msg: String) {
        self.failed += failed;
        self.problems.push(msg);
    }
}

/// One repetition's measurement of the system under test.
struct Rep {
    rows: usize,
    wall_s: f64,
    cpu_ns: u64,
    write_bytes: u64,
    hwm_kb: u64,
}

/// The end-to-end metrics of a run. Throughput and CPU per row come from
/// the run's best repetition: load from other tenants of the machine
/// only ever slows a repetition down, and over ten seeds the best
/// repetition spreads less than half as much as the median one. Memory
/// and setup time are medians. `write_bytes_per_row` is reported but not
/// gated: on backfill and paper-batch it is a few alarm lines and log
/// text per million rows, so it moves with the seed, not the code.
fn summarize(out: &mut RunOutcome, reps: &[Rep], setup: &[f64]) {
    let rates: Vec<f64> = reps.iter().map(|r| r.rows as f64 / r.wall_s).collect();
    let shown: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    eprintln!("rows/s per repetition: {}", shown.join(" "));
    let all = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let cpu = all(&|r| r.cpu_ns as f64 / 1e3 / r.rows as f64);
    out.metrics = vec![
        ("rows_per_s", rates.iter().copied().fold(f64::MIN, f64::max)),
        (
            "cpu_us_per_row",
            cpu.iter().copied().fold(f64::MAX, f64::min),
        ),
        ("peak_rss_mb", median(&all(&|r| r.hwm_kb as f64 / 1024.0))),
        ("setup_s", median(setup)),
    ];
    out.extras.extend([
        ("rows_per_s_median".to_string(), median(&rates)),
        ("cpu_us_per_row_median".to_string(), median(&cpu)),
        (
            "write_bytes_per_row".to_string(),
            median(&all(&|r| r.write_bytes as f64 / r.rows as f64)),
        ),
        ("reps".to_string(), reps.len() as f64),
    ]);
}

/// Run `rep` until one more repetition would overrun `seconds`.
fn repeat<T>(
    seconds: f64,
    mut rep: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let began = Instant::now();
        out.push(rep(out.len())?);
        if start.elapsed().as_secs_f64() + began.elapsed().as_secs_f64() > seconds {
            return Ok(out);
        }
    }
}

fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn copy(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::copy(from, to)
        .map(drop)
        .map_err(|e| format!("copying {} to {}: {e}", from.display(), to.display()))
}

fn s(p: &Path) -> String {
    p.display().to_string()
}

/// `hddpred serve` with the benchmark's fixed load settings: two shards,
/// a 5 ms idle poll, one worker thread, queue and tick budget at their
/// defaults.
fn serve_args(
    feeds: &[PathBuf],
    model: &Path,
    out: &Path,
    ckpt: Option<&Path>,
    extra: &[String],
) -> Vec<String> {
    let feed = feeds.iter().map(|p| s(p)).collect::<Vec<_>>().join(",");
    let mut args = strings(&[
        "serve",
        "--feed",
        &feed,
        "--model",
        &s(model),
        "--out",
        &s(out),
        "--shards",
        "2",
        "--poll-ms",
        "5",
        "--voters",
        &VOTERS.to_string(),
        "--threads",
        "1",
    ]);
    if let Some(dir) = ckpt {
        args.extend(["--checkpoint".to_string(), s(dir)]);
    }
    args.extend_from_slice(extra);
    args
}

fn strings(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| (*s).to_string()).collect()
}

/// `(rows, dropped)` from serve's exit summary line.
fn exit_counts(stderr: &str) -> Option<(usize, usize)> {
    let line = stderr.lines().find(|l| l.starts_with("idle for "))?;
    let inner = line.split_once("exiting (")?.1.trim_end_matches(')');
    let count = |suffix: &str| -> Option<usize> {
        inner
            .split(", ")
            .find_map(|f| f.strip_suffix(suffix)?.trim().parse().ok())
    };
    Some((count(" rows")?, count(" dropped")?))
}

/// Check a serve process that should have drained and exited cleanly
/// after seeing `rows` rows, counting what it missed as failed.
fn check_exit(out: &mut RunOutcome, what: &str, fin: &Finished, rows: usize) {
    if !fin.status.success() {
        out.problem(
            rows as u64,
            format!("{what} exited with {}: {}", fin.status, tail(&fin.stderr)),
        );
        return;
    }
    match exit_counts(&fin.stderr) {
        Some((seen, dropped)) if seen == rows && dropped == 0 => {}
        Some((seen, dropped)) => out.problem(
            rows.abs_diff(seen) as u64 + dropped as u64,
            format!("{what}: saw {seen} of {rows} rows, dropped {dropped}"),
        ),
        None => out.problem(
            rows as u64,
            format!("{what}: no exit summary: {}", tail(&fin.stderr)),
        ),
    }
}

fn tail(text: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(4)..].join(" | ")
}

/// Compare a sink against the oracle, counting mismatches as failures.
fn check_sink(
    out: &mut RunOutcome,
    what: &str,
    sink: &Path,
    oracle: &BTreeSet<Alarm>,
) -> Result<Vec<Alarm>, String> {
    let got = oracle::sink_alarms(sink)?;
    let bad = oracle::mismatches(oracle, &got);
    if bad > 0 {
        out.problem(
            bad as u64,
            format!(
                "{what}: {bad} alarm(s) differ from batch detect ({} vs {})",
                got.len(),
                oracle.len()
            ),
        );
    }
    Ok(got)
}

/// Time a restart against `args`' checkpoint: spawn → ready line, then
/// let it drain and exit. Returns the setup time.
fn restart(
    ctx: &Ctx,
    out: &mut RunOutcome,
    args: &[String],
    rows: usize,
    hwm_kb: &mut u64,
) -> Result<f64, String> {
    let mut p = Proc::spawn(ctx.bin, args, Stdio::null())?;
    let ready = p.wait_ready("serving ")?;
    let fin = p.wait_exit(PHASE_TIMEOUT, POLL)?;
    *hwm_kb = (*hwm_kb).max(fin.hwm_kb);
    check_exit(out, "restart", &fin, rows);
    Ok(secs(p.spawned, ready))
}

pub fn run(ctx: &Ctx, workload: Workload, inp: &Inputs) -> Result<RunOutcome, String> {
    let mut out = match workload {
        Workload::FleetDurable => fleet_durable(ctx, inp)?,
        Workload::Backfill => backfill(ctx, inp)?,
        Workload::RetrainDrift => retrain_drift(ctx, inp)?,
        Workload::PaperBatch => paper_batch(ctx, inp)?,
    };
    out.extras.push(("bench_gen_s".to_string(), inp.gen_s));
    Ok(out)
}

/// The merge watermark of the checkpoint on disk: every seq below it has
/// reached the sink and the checkpoint.
fn emitted(ckpt: &Path) -> Option<u64> {
    let ck = Checkpoint::load_expecting(&topology_path(ckpt), CheckpointKind::Topology).ok()?;
    MergeState::from_json(ck.payload.field("merge").ok()?)
        .ok()
        .map(|m| m.emitted())
}

/// Wait until the on-disk watermark reaches `target`.
fn wait_emitted(d: &mut Proc, ckpt: &Path, target: u64) -> Result<Instant, String> {
    let deadline = Instant::now() + PHASE_TIMEOUT;
    loop {
        if emitted(ckpt).is_some_and(|e| e >= target) {
            return Ok(Instant::now());
        }
        if let Some(fin) = d.try_finish()? {
            return Err(format!(
                "daemon exited ({}) during catch-up: {}",
                fin.status,
                tail(&fin.stderr)
            ));
        }
        if Instant::now() > deadline {
            return Err(format!("catch-up did not commit within {PHASE_TIMEOUT:?}"));
        }
        std::thread::sleep(POLL);
    }
}

/// What the open loop saw.
struct Paced {
    latencies_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    uncommitted: usize,
}

/// Append the paced rows on schedule — `rows_per_batch` every
/// `batch_ms`, alternating feeds so both advance together — and time
/// each row from when it was due until a checkpoint on disk covers it.
/// Paced row `i` has seq `backlog + i`.
fn paced_phase(
    sizes: &Sizes,
    d: &mut Proc,
    feeds: &[PathBuf],
    paced: &[Vec<String>],
    ckpt: &Path,
    backlog: u64,
) -> Result<Paced, String> {
    let mut files = Vec::new();
    for path in feeds {
        files.push(
            OpenOptions::new()
                .append(true)
                .open(path)
                .map_err(|e| format!("{}: {e}", path.display()))?,
        );
    }
    let per_batch = sizes.fd_rows_per_batch();
    let total = sizes.fd_paced_rows();
    let batch = Duration::from_millis(sizes.fd_batch_ms);
    let t0 = Instant::now();
    let due = |k: usize| t0 + batch * k as u32;
    let mut latencies_ms = Vec::with_capacity(total);
    let mut lateness_ms = Vec::new();
    let (mut sent, mut committed) = (0usize, 0usize);
    let observe = |sent: usize, committed: &mut usize, latencies_ms: &mut Vec<f64>| {
        let Some(e) = emitted(ckpt) else { return };
        let now = Instant::now();
        let upto = (e.saturating_sub(backlog) as usize).min(sent);
        while *committed < upto {
            latencies_ms.push(secs(due(*committed / per_batch), now) * 1e3);
            *committed += 1;
        }
    };
    for k in 0..total / per_batch {
        loop {
            let now = Instant::now();
            if now >= due(k) {
                break;
            }
            observe(sent, &mut committed, &mut latencies_ms);
            std::thread::sleep(POLL.min(due(k).saturating_duration_since(Instant::now())));
        }
        let mut chunks = vec![String::new(); feeds.len()];
        for i in k * per_batch..(k + 1) * per_batch {
            let chunk = &mut chunks[i % 2];
            chunk.push_str(&paced[i % 2][i / 2]);
            chunk.push('\n');
        }
        for (file, chunk) in files.iter_mut().zip(&chunks) {
            file.write_all(chunk.as_bytes())
                .map_err(|e| format!("appending to a feed: {e}"))?;
        }
        sent = (k + 1) * per_batch;
        lateness_ms.push(secs(due(k), Instant::now()) * 1e3);
        d.poll_hwm();
    }
    let deadline = Instant::now() + PHASE_TIMEOUT;
    while committed < total && Instant::now() < deadline {
        observe(sent, &mut committed, &mut latencies_ms);
        std::thread::sleep(POLL);
        d.poll_hwm();
    }
    Ok(Paced {
        latencies_ms,
        lateness_ms,
        uncommitted: total - committed,
    })
}

fn read_lines(path: &Path) -> Result<Vec<String>, String> {
    Ok(std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .lines()
        .map(String::from)
        .collect())
}

/// Take restarts against the last repetition's checkpoint until a run
/// has at least [`MIN_SETUP_SAMPLES`] setup times.
fn top_up_setup(
    ctx: &Ctx,
    out: &mut RunOutcome,
    args: &[String],
    rows: usize,
    setup: &mut Vec<f64>,
) -> Result<(), String> {
    let mut hwm_kb = 0;
    while setup.len() < MIN_SETUP_SAMPLES {
        setup.push(restart(ctx, out, args, rows, &mut hwm_kb)?);
    }
    Ok(())
}

/// `fleet-durable`: each repetition serves the pre-written backlog with a
/// checkpoint until it is committed, SIGKILLs the daemon and times one
/// restart from the checkpoint; the first repetition also runs the
/// open-loop paced phase before the kill.
fn fleet_durable(ctx: &Ctx, inp: &Inputs) -> Result<RunOutcome, String> {
    let mut out = RunOutcome::default();
    let model = inp.path("model.bin");
    let oracle_full = oracle::detect_alarms(ctx.bin, &[inp.path("oracle.csv")], &model)?;
    let oracle_catchup = oracle::detect_alarms(ctx.bin, &[inp.path("oracle-catchup.csv")], &model)?;
    let paced = [
        read_lines(&inp.path("paced-0.rows"))?,
        read_lines(&inp.path("paced-1.rows"))?,
    ];
    let backlog = 2 * inp.catchup_per_feed;
    let mut setup = Vec::new();
    let mut latencies = Vec::new();
    let mut lateness = Vec::new();
    let mut sink = Vec::new();
    let mut last_restart = (Vec::new(), 0);
    let reps = repeat(ctx.seconds, |r| {
        let dir = fresh_dir(ctx.work.join(format!("rep-{r}")))?;
        let feeds = vec![dir.join("feed-0.csv"), dir.join("feed-1.csv")];
        for (f, feed) in feeds.iter().enumerate() {
            copy(&inp.path(&format!("catchup-{f}.csv")), feed)?;
        }
        let (ckpt, sink_path) = (dir.join("ckpt"), dir.join("alarms.csv"));
        // Two seconds without new rows end a daemon the bench left
        // behind; paced batches arrive every 10 ms.
        let idle_exit = strings(&["--exit-on-idle", "400"]);
        let args = serve_args(&feeds, &model, &sink_path, Some(&ckpt), &idle_exit);
        let mut d = Proc::spawn(ctx.bin, &args, Stdio::null())?;
        let ready = d.wait_ready("serving ")?;
        let s0 = d.sample().ok_or("daemon vanished at startup")?;
        let done = wait_emitted(&mut d, &ckpt, backlog as u64)?;
        let s1 = d.sample().ok_or("daemon vanished after catch-up")?;
        let offered = if r == 0 {
            let p = paced_phase(ctx.sizes, &mut d, &feeds, &paced, &ckpt, backlog as u64)?;
            if p.uncommitted > 0 {
                out.problem(
                    p.uncommitted as u64,
                    format!("{} paced row(s) never committed", p.uncommitted),
                );
            }
            latencies = p.latencies_ms;
            // Rows never committed count as missing any latency limit.
            latencies.extend(std::iter::repeat_n(f64::INFINITY, p.uncommitted));
            lateness = p.lateness_ms;
            inp.rows
        } else {
            backlog
        };
        let mut hwm_kb = d.kill().hwm_kb;
        let drain = strings(&["--exit-on-idle", "1"]);
        let restart_args = serve_args(&feeds, &model, &sink_path, Some(&ckpt), &drain);
        setup.push(restart(ctx, &mut out, &restart_args, offered, &mut hwm_kb)?);
        let oracle = if r == 0 {
            &oracle_full
        } else {
            &oracle_catchup
        };
        let got = check_sink(&mut out, "fleet-durable sink", &sink_path, oracle)?;
        if r == 0 {
            sink = got;
        }
        last_restart = (restart_args, offered);
        out.attempted += offered as u64;
        Ok(Rep {
            rows: backlog,
            wall_s: secs(ready, done),
            cpu_ns: s1.cpu_ns.saturating_sub(s0.cpu_ns),
            write_bytes: s1.wchar.saturating_sub(s0.wchar),
            hwm_kb,
        })
    })?;
    top_up_setup(ctx, &mut out, &last_restart.0, last_restart.1, &mut setup)?;
    summarize(&mut out, &reps, &setup);
    let (tail_label, tail_value) = supported_tail(&latencies);
    out.extras.extend([
        ("commit_p50_ms".to_string(), percentile(&latencies, 50.0)),
        (format!("commit_{tail_label}_ms"), tail_value),
        ("commit_samples".to_string(), latencies.len() as f64),
        (
            "generator_late_p99_ms".to_string(),
            percentile(&lateness, 99.0),
        ),
        (
            "generator_late_max_ms".to_string(),
            percentile(&lateness, 100.0),
        ),
    ]);
    let (fdr, far) = oracle::fdr_far(&sink, &inp.truth);
    out.extras
        .extend([("fdr".to_string(), fdr), ("far".to_string(), far)]);
    Ok(out)
}

/// Time one cold start of `serve` (spawn to its `serving …` line), then
/// kill it: without a checkpoint there is nothing to resume.
fn cold_start(ctx: &Ctx, feeds: &[PathBuf], model: &Path) -> Result<f64, String> {
    let dir = fresh_dir(ctx.work.join("cold"))?;
    let drain = strings(&["--exit-on-idle", "1"]);
    let args = serve_args(feeds, model, &dir.join("alarms.csv"), None, &drain);
    let mut p = Proc::spawn(ctx.bin, &args, Stdio::null())?;
    let ready = p.wait_ready("serving ")?;
    p.kill();
    Ok(secs(p.spawned, ready))
}

/// `backfill`: each repetition serves the whole drive-major backlog
/// without a checkpoint until idle, then times one cold start.
fn backfill(ctx: &Ctx, inp: &Inputs) -> Result<RunOutcome, String> {
    let mut out = RunOutcome::default();
    let model = inp.path("model.bin");
    let feeds = inp.feeds();
    let oracle = oracle::detect_alarms(ctx.bin, &feeds, &model)?;
    let mut sink = Vec::new();
    let mut setup = Vec::new();
    let reps = repeat(ctx.seconds, |r| {
        let dir = fresh_dir(ctx.work.join(format!("rep-{r}")))?;
        let sink_path = dir.join("alarms.csv");
        let drain = strings(&["--exit-on-idle", "1"]);
        let args = serve_args(&feeds, &model, &sink_path, None, &drain);
        let mut d = Proc::spawn(ctx.bin, &args, Stdio::null())?;
        let ready = d.wait_ready("serving ")?;
        let s0 = d.sample().ok_or("daemon vanished at startup")?;
        let fin = d.wait_exit(PHASE_TIMEOUT, POLL)?;
        check_exit(&mut out, "backfill serve", &fin, inp.rows);
        sink = check_sink(&mut out, "backfill sink", &sink_path, &oracle)?;
        setup.push(cold_start(ctx, &feeds, &model)?);
        out.attempted += inp.rows as u64;
        Ok(Rep {
            rows: inp.rows,
            wall_s: secs(ready, fin.at),
            cpu_ns: fin.last.cpu_ns.saturating_sub(s0.cpu_ns),
            write_bytes: fin.last.wchar.saturating_sub(s0.wchar),
            hwm_kb: fin.hwm_kb,
        })
    })?;
    while setup.len() < MIN_SETUP_SAMPLES {
        setup.push(cold_start(ctx, &feeds, &model)?);
    }
    summarize(&mut out, &reps, &setup);
    let (fdr, far) = oracle::fdr_far(&sink, &inp.truth);
    out.extras
        .extend([("fdr".to_string(), fdr), ("far".to_string(), far)]);
    Ok(out)
}

/// The counters `hddpred lifecycle` reads back from `lifecycle.ckpt`.
fn lifecycle_counters(
    bin: &Path,
    model: &Path,
    ckpt: &Path,
) -> Result<Vec<(String, usize)>, String> {
    let status = Command::new(bin)
        .args(["lifecycle", "--model", &s(model), "--checkpoint", &s(ckpt)])
        .output()
        .map_err(|e| format!("running lifecycle: {e}"))?;
    let counters: Vec<(String, usize)> = String::from_utf8_lossy(&status.stdout)
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let name = f.next()?.to_string();
            let value = f.next()?.parse().ok()?;
            f.next().is_none().then_some((name, value))
        })
        .collect();
    if counters.iter().any(|(name, _)| name == "promotions") {
        Ok(counters)
    } else {
        Err("`hddpred lifecycle` printed no promotions counter".to_string())
    }
}

fn file_fingerprint(path: &Path) -> Option<u64> {
    std::fs::read(path).ok().map(|b| fingerprint(&b))
}

/// Read the lifecycle counters back and check that the model store in
/// `dir` agrees with the promotion counter.
fn check_store(
    ctx: &Ctx,
    out: &mut RunOutcome,
    dir: &Path,
    incumbent_fp: u64,
) -> Result<Vec<(String, usize)>, String> {
    let model = dir.join("model.bin");
    let counters = lifecycle_counters(ctx.bin, &model, &dir.join("ckpt"))?;
    let promoted = counters
        .iter()
        .find(|(n, _)| n == "promotions")
        .map_or(0, |c| c.1);
    let live_changed = file_fingerprint(&model) != Some(incumbent_fp);
    let prev = file_fingerprint(&dir.join("model.bin.prev-1"));
    let consistent = match promoted {
        0 => !live_changed && prev.is_none(),
        1 => live_changed && prev == Some(incumbent_fp),
        _ => false,
    };
    if !consistent {
        out.problem(
            1,
            format!(
                "model store disagrees with {promoted} promotion(s): live model {}, .prev-1 {}",
                if live_changed { "changed" } else { "unchanged" },
                match prev {
                    None => "absent",
                    Some(fp) if fp == incumbent_fp => "is the incumbent",
                    Some(_) => "is not the incumbent",
                },
            ),
        );
    }
    Ok(counters)
}

/// `retrain-drift`: each repetition serves the drifted fleet with online
/// retraining and checkpoints until idle, then times one restart.
///
/// Promotions apply only at the final quiesce, so a run promotes at most
/// once; whether its shadow window clears the gate depends on which
/// drives the window happens to see, so the check is that the model
/// store agrees with the promotion counter, not a fixed count.
fn retrain_drift(ctx: &Ctx, inp: &Inputs) -> Result<RunOutcome, String> {
    let mut out = RunOutcome::default();
    let incumbent = inp.path("model.bin");
    let incumbent_fp = file_fingerprint(&incumbent).ok_or("incumbent model unreadable")?;
    let feeds = inp.feeds();
    // Every alarm the run writes comes from the incumbent.
    let oracle = oracle::detect_alarms(ctx.bin, &feeds, &incumbent)?;
    let extra = strings(&[
        "--exit-on-idle",
        "1",
        "--retrain-rows",
        &ctx.sizes.rd_retrain_rows.to_string(),
        "--shadow-rows",
        &ctx.sizes.rd_shadow_rows.to_string(),
    ]);
    let mut setup = Vec::new();
    let mut sink = Vec::new();
    let mut counters = Vec::new();
    let mut last_args = Vec::new();
    let reps = repeat(ctx.seconds, |r| {
        let dir = fresh_dir(ctx.work.join(format!("rep-{r}")))?;
        let model = dir.join("model.bin");
        copy(&incumbent, &model)?;
        let (ckpt, sink_path) = (dir.join("ckpt"), dir.join("alarms.csv"));
        let args = serve_args(&feeds, &model, &sink_path, Some(&ckpt), &extra);
        let mut d = Proc::spawn(ctx.bin, &args, Stdio::null())?;
        let ready = d.wait_ready("serving ")?;
        let s0 = d.sample().ok_or("daemon vanished at startup")?;
        let fin = d.wait_exit(PHASE_TIMEOUT, POLL)?;
        check_exit(&mut out, "retrain-drift serve", &fin, inp.rows);
        let mut hwm_kb = fin.hwm_kb;
        setup.push(restart(ctx, &mut out, &args, inp.rows, &mut hwm_kb)?);
        // Every repetition replays the same rows, so the lifecycle's
        // outcome is checked once (reading it back costs a restart).
        if r == 0 {
            counters = check_store(ctx, &mut out, &dir, incumbent_fp)?;
        }
        sink = check_sink(&mut out, "retrain-drift sink", &sink_path, &oracle)?;
        last_args = args;
        out.attempted += inp.rows as u64;
        Ok(Rep {
            rows: inp.rows,
            wall_s: secs(ready, fin.at),
            cpu_ns: fin.last.cpu_ns.saturating_sub(s0.cpu_ns),
            write_bytes: fin.last.wchar.saturating_sub(s0.wchar),
            hwm_kb,
        })
    })?;
    top_up_setup(ctx, &mut out, &last_args, inp.rows, &mut setup)?;
    summarize(&mut out, &reps, &setup);
    let (fdr, far) = oracle::fdr_far(&sink, &inp.truth);
    out.extras.extend([
        ("incumbent_fdr".to_string(), fdr),
        ("incumbent_far".to_string(), far),
    ]);
    out.extras.extend(
        counters
            .into_iter()
            .map(|(name, v)| (format!("lifecycle.{name}"), v as f64)),
    );
    Ok(out)
}

/// Run a batch subcommand to completion with stdout to `stdout`.
fn batch(
    ctx: &Ctx,
    out: &mut RunOutcome,
    args: &[String],
    stdout: Stdio,
    rows: usize,
) -> Result<(Proc, Finished), String> {
    let mut p = Proc::spawn(ctx.bin, args, stdout)?;
    p.drain_stderr();
    let fin = p.wait_exit(PHASE_TIMEOUT, POLL)?;
    if !fin.status.success() {
        out.problem(
            rows as u64,
            format!(
                "`hddpred {}` exited with {}: {}",
                args[0],
                fin.status,
                tail(&fin.stderr)
            ),
        );
    }
    Ok((p, fin))
}

/// The first alarms the library's own voting detector finds in `csv`
/// with `model` — the reference `hddpred detect` must reproduce.
fn reference_alarms(csv: &Path, model: &Path) -> Result<BTreeSet<Alarm>, String> {
    let features = FeatureSet::critical13();
    let model = SavedModel::load_expecting(model, features.len())
        .map_err(|e| format!("{}: {e}", model.display()))?;
    let file = File::open(csv).map_err(|e| format!("{}: {e}", csv.display()))?;
    let import = read_series_quarantined(BufReader::new(file), &IngestPolicy::default())
        .map_err(|e| format!("{}: {e}", csv.display()))?;
    let detector = VotingDetector::new(&model, &features, VOTERS, VotingRule::Majority);
    Ok(import
        .series
        .iter()
        .filter_map(|s| {
            Some((
                s.drive.0,
                detector.first_alarm(s, Hour(0)..Hour(u32::MAX))?.0,
            ))
        })
        .collect())
}

/// Time a whole `detect` over a one-drive CSV: the fixed cost of a batch
/// invocation (process start, model load, feature set).
fn fixed_cost(ctx: &Ctx, out: &mut RunOutcome, inp: &Inputs, model: &Path) -> Result<f64, String> {
    let args = strings(&[
        "detect",
        "--data",
        &s(&inp.path("tiny.csv")),
        "--model",
        &s(model),
        "--voters",
        &VOTERS.to_string(),
        "--threads",
        "1",
    ]);
    let (p, fin) = batch(ctx, out, &args, Stdio::null(), 0)?;
    Ok(secs(p.spawned, fin.at))
}

/// `paper-batch`: each repetition runs `hddpred train` on the training
/// fleet, `hddpred detect` on the test fleet, and times the fixed cost
/// of one `detect` on a one-drive CSV.
fn paper_batch(ctx: &Ctx, inp: &Inputs) -> Result<RunOutcome, String> {
    let mut out = RunOutcome::default();
    let mut model_fp = None;
    let mut last_model = PathBuf::new();
    let mut setup = Vec::new();
    let mut train_s = Vec::new();
    let mut detect_rows_per_s = Vec::new();
    let mut sink = Vec::new();
    let reps = repeat(ctx.seconds, |r| {
        let dir = fresh_dir(ctx.work.join(format!("rep-{r}")))?;
        let model = dir.join("model.json");
        let args = strings(&[
            "train",
            "--data",
            &s(&inp.path("train.csv")),
            "--out",
            &s(&model),
            "--threads",
            "1",
        ]);
        let (tp, tf) = batch(ctx, &mut out, &args, Stdio::null(), inp.train_rows)?;
        let alarms = dir.join("alarms.csv");
        let stdout = File::create(&alarms).map_err(|e| format!("{}: {e}", alarms.display()))?;
        let args = strings(&[
            "detect",
            "--data",
            &s(&inp.path("test.csv")),
            "--model",
            &s(&model),
            "--voters",
            &VOTERS.to_string(),
            "--threads",
            "1",
        ]);
        let (dp, df) = batch(ctx, &mut out, &args, stdout.into(), inp.test_rows)?;
        // Training is deterministic: every repetition writes the same bytes.
        let fp = file_fingerprint(&model);
        if *model_fp.get_or_insert(fp) != fp {
            out.problem(1, format!("repetition {r} trained a different model"));
        }
        if r == 0 {
            let reference = reference_alarms(&inp.path("test.csv"), &model)?;
            sink = check_sink(&mut out, "paper-batch detect output", &alarms, &reference)?;
        }
        setup.push(fixed_cost(ctx, &mut out, inp, &model)?);
        last_model = model;
        out.attempted += inp.rows as u64;
        let (tw, dw) = (secs(tp.spawned, tf.at), secs(dp.spawned, df.at));
        train_s.push(tw);
        detect_rows_per_s.push(inp.test_rows as f64 / dw);
        Ok(Rep {
            rows: inp.rows,
            wall_s: tw + dw,
            cpu_ns: tf.last.cpu_ns + df.last.cpu_ns,
            write_bytes: tf.last.wchar + df.last.wchar,
            hwm_kb: tf.hwm_kb.max(df.hwm_kb),
        })
    })?;
    while setup.len() < MIN_SETUP_SAMPLES {
        setup.push(fixed_cost(ctx, &mut out, inp, &last_model)?);
    }
    summarize(&mut out, &reps, &setup);
    let (fdr, far) = oracle::fdr_far(&sink, &inp.truth);
    out.extras.extend([
        ("fdr".to_string(), fdr),
        ("far".to_string(), far),
        ("train_s".to_string(), median(&train_s)),
        ("detect_rows_per_s".to_string(), median(&detect_rows_per_s)),
    ]);
    Ok(out)
}
