//! Seeded, fingerprinted, cached workload inputs.
//!
//! `--seed` is the only source of randomness: every feed, model and CSV
//! below is a pure function of it and of the workload's sizes. Inputs are
//! cached under `<target>/hddbench/cache/`, keyed by workload, sizes,
//! seed and a probe of the generator and trainer (fingerprints of a tiny
//! scenario fleet and a tiny trained model), so any change to either
//! invalidates the cache instead of silently reusing stale inputs.

use crate::workloads::{Sizes, Workload};
use hddpred::eval::SavedModel;
use hddpred::hdd_json::{self, Value};
use hddpred::smart::csv::{write_header, write_series};
use hddpred::smart::{DatasetGenerator, FamilyProfile, Hour};
use hddpred::workload::gauntlet::train_model;
use hddpred::workload::{fleet_fingerprint, generate_fleet, FnvWriter, Scenario, ScenarioManifest};
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The salt `hddpred gauntlet` applies to a scenario seed to get the seed
/// of the fleet its inline model trains on, so a model never trains on
/// the fleet it is scored against.
const TRAIN_SEED_SALT: u64 = 0x7EAC_4ED5;
/// Cache entries kept per workload; older ones are deleted.
const CACHE_KEEP: usize = 6;
/// Bumped whenever this file changes what it writes.
const LAYOUT_VERSION: u32 = 1;

/// Ground truth for one drive: its id and fail hour.
pub type Truth = Vec<(u32, Option<u32>)>;

/// A workload's generated inputs.
pub struct Inputs {
    pub dir: PathBuf,
    /// Rows offered to the system per repetition.
    pub rows: usize,
    pub truth: Truth,
    /// Fleet-durable: pre-written backlog lines per feed.
    pub catchup_per_feed: usize,
    /// Paper-batch: rows in the training and test CSVs.
    pub train_rows: usize,
    pub test_rows: usize,
    /// `(file, fnv64, bytes)` of every input file.
    pub fingerprints: Vec<(String, u64, u64)>,
    /// Seconds spent generating (0 when served from the cache).
    pub gen_s: f64,
    pub cached: bool,
}

impl Inputs {
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Fleet-durable feed paths or the two scenario feeds.
    pub fn feeds(&self) -> Vec<PathBuf> {
        vec![self.path("feed-0.csv"), self.path("feed-1.csv")]
    }
}

/// FNV-1a of a file's bytes, via the generator's own hashing sink.
fn fingerprint_file(path: &Path) -> Result<(u64, u64), String> {
    let mut file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut sink = FnvWriter::new();
    std::io::copy(&mut file, &mut sink).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((sink.hash(), sink.len()))
}

/// Fingerprint of the generator and trainer as this build has them.
fn code_probe() -> Result<u64, String> {
    let mut sink = FnvWriter::new();
    let fleet = fleet_fingerprint(&ScenarioManifest::new(0, Scenario::CalibratedMix, 0.001, 2))
        .map_err(|e| format!("generator probe: {e}"))?;
    for (hash, len) in fleet {
        sink.write_all(&hash.to_le_bytes())
            .map_err(|e| e.to_string())?;
        sink.write_all(&len.to_le_bytes())
            .map_err(|e| e.to_string())?;
    }
    let model = train_model(1, 0.002).map_err(|e| format!("trainer probe: {e}"))?;
    sink.write_all(hdd_json::to_string(&model.to_json()).as_bytes())
        .map_err(|e| e.to_string())?;
    Ok(sink.hash())
}

/// Load the workload's inputs for `seed` from the cache, generating them
/// first when absent.
pub fn prepare(
    cache_root: &Path,
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
) -> Result<Inputs, String> {
    let probe = code_probe()?;
    let mut sized = FnvWriter::new();
    write!(sized, "{sizes:?}").map_err(|e| e.to_string())?;
    let key = format!(
        "{}-{}-s{seed}-v{LAYOUT_VERSION}-g{probe:016x}-z{:08x}",
        workload.name(),
        sizes.tag,
        sized.hash() as u32
    );
    let dir = cache_root.join(&key);
    let start = Instant::now();
    let cached = dir.join("meta.json").exists();
    if !cached {
        let tmp = cache_root.join(format!(".{key}.{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
        let meta = match workload {
            Workload::FleetDurable => gen_fleet_durable(&tmp, sizes, seed)?,
            Workload::Backfill => {
                gen_scenario(&tmp, Scenario::CalibratedMix, sizes.bf_scale, seed)?
            }
            Workload::RetrainDrift => {
                gen_scenario(&tmp, Scenario::FirmwareCohortDrift, sizes.rd_scale, seed)?
            }
            Workload::PaperBatch => gen_paper_batch(&tmp, sizes.pb_scale, seed)?,
        };
        write_file(&tmp.join("meta.json"), &hdd_json::to_string(&meta))?;
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::rename(&tmp, &dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        prune(cache_root, workload, &key);
    }
    let gen_s = if cached {
        0.0
    } else {
        start.elapsed().as_secs_f64()
    };
    // Touch the entry so pruning keeps recently used inputs.
    write_file(&dir.join("used"), "")?;
    load(dir, gen_s, cached)
}

fn load(dir: PathBuf, gen_s: f64, cached: bool) -> Result<Inputs, String> {
    let text =
        std::fs::read_to_string(dir.join("meta.json")).map_err(|e| format!("meta.json: {e}"))?;
    let meta = hdd_json::parse(&text).map_err(|e| format!("meta.json: {e}"))?;
    let field = |name: &str| {
        meta.usize_field(name)
            .map_err(|e| format!("meta.json: {e}"))
    };
    let truth = meta
        .field("truth")
        .ok()
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|pair| {
            let p = pair.as_arr()?;
            let drive = p.first()?.as_usize()? as u32;
            let fail = p.get(1)?.as_f64()?;
            Some((drive, (fail >= 0.0).then_some(fail as u32)))
        })
        .collect();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n != "meta.json" && n != "used")
        .collect();
    names.sort();
    let mut fingerprints = Vec::new();
    for name in names {
        let (hash, len) = fingerprint_file(&dir.join(&name))?;
        fingerprints.push((name, hash, len));
    }
    Ok(Inputs {
        rows: field("rows")?,
        truth,
        catchup_per_feed: field("catchup_per_feed")?,
        train_rows: field("train_rows")?,
        test_rows: field("test_rows")?,
        fingerprints,
        gen_s,
        cached,
        dir,
    })
}

/// Delete all but the [`CACHE_KEEP`] most recently used entries of this
/// workload.
fn prune(cache_root: &Path, workload: Workload, keep_key: &str) {
    let Ok(entries) = std::fs::read_dir(cache_root) else {
        return;
    };
    let prefix = format!("{}-", workload.name());
    let mut found: Vec<(std::time::SystemTime, PathBuf)> = entries
        .filter_map(Result::ok)
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with(&prefix) && name != keep_key
        })
        .map(|e| {
            let used = std::fs::metadata(e.path().join("used"))
                .and_then(|m| m.modified())
                .unwrap_or(std::time::UNIX_EPOCH);
            (used, e.path())
        })
        .collect();
    found.sort();
    let excess = (found.len() + 1).saturating_sub(CACHE_KEEP);
    for (_, path) in found.into_iter().take(excess) {
        let _ = std::fs::remove_dir_all(path);
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn save_model(path: &Path, model: &SavedModel) -> Result<(), String> {
    model
        .save(path)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn meta(rows: usize, truth: &[(u32, Option<u32>)], extra: &[(&str, usize)]) -> Value {
    let mut fields = vec![
        ("rows".to_string(), Value::Num(rows as f64)),
        (
            "truth".to_string(),
            Value::Arr(
                truth
                    .iter()
                    .map(|(d, f)| Value::from_f64s([f64::from(*d), f.map_or(-1.0, f64::from)]))
                    .collect(),
            ),
        ),
    ];
    for name in ["catchup_per_feed", "train_rows", "test_rows"] {
        let v = extra
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |(_, v)| *v);
        fields.push((name.to_string(), Value::Num(v as f64)));
    }
    Value::Obj(fields)
}

/// `backfill` and `retrain-drift`: a scenario fleet over two drive-major
/// feeds, plus the incumbent model trained the way `hddpred gauntlet`
/// trains its inline model.
fn gen_scenario(dir: &Path, scenario: Scenario, scale: f64, seed: u64) -> Result<Value, String> {
    let manifest = ScenarioManifest::new(seed, scenario, scale, 2);
    let mut feeds = Vec::new();
    for f in 0..2 {
        let path = dir.join(format!("feed-{f}.csv"));
        feeds.push(BufWriter::new(
            File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?,
        ));
    }
    let summary =
        generate_fleet(&manifest, &mut feeds).map_err(|e| format!("generating feeds: {e}"))?;
    drop(feeds);
    let model = train_model(seed ^ TRAIN_SEED_SALT, scale).map_err(|e| e.to_string())?;
    save_model(&dir.join("model.bin"), &model)?;
    let truth: Vec<(u32, Option<u32>)> = summary
        .truth
        .iter()
        .map(|t| (t.drive, t.fail_hour))
        .collect();
    Ok(meta(summary.engine_rows(), &truth, &[]))
}

/// One CSV row of the fleet-durable stream.
struct Row {
    drive: u32,
    hour: u32,
    line: String,
}

/// `fleet-durable`: family W from hour `fd_start_hour`, hour-major, drives
/// split over two feeds by id parity. The first `catchup_per_feed` lines
/// of each feed are the pre-written backlog (equal per feed, so the merge
/// watermark covers the whole backlog once it commits); the next
/// `paced_per_feed` lines of each feed are appended by the open loop.
fn gen_fleet_durable(dir: &Path, sizes: &Sizes, seed: u64) -> Result<Value, String> {
    let ds = DatasetGenerator::new(FamilyProfile::w().scaled(sizes.fd_scale), seed).generate();
    let n_drives = ds.drives().len().max(1);
    let paced_per_feed = sizes.fd_paced_rows() / 2;
    let start = sizes.fd_start_hour;
    // Enough extra hours for the paced rows even if only a third of the
    // fleet reports (failed drives stop at failure, samples go missing).
    let paced_hours = (3 * sizes.fd_paced_rows()).div_ceil(n_drives) as u32 + 2;
    let end = start + sizes.fd_catchup_hours + paced_hours;
    let mut feeds: [Vec<Row>; 2] = [Vec::new(), Vec::new()];
    let mut truth = Vec::new();
    for spec in ds.drives() {
        let series = ds.series_in(spec, Hour(start)..Hour(end));
        if series.is_empty() {
            continue;
        }
        truth.push((spec.id.0, spec.class.fail_hour().map(|h| h.0)));
        let mut text = Vec::new();
        write_series(&mut text, &series).map_err(|e| e.to_string())?;
        let text = String::from_utf8(text).map_err(|e| e.to_string())?;
        for (sample, line) in series.samples().iter().zip(text.lines()) {
            feeds[(spec.id.0 % 2) as usize].push(Row {
                drive: spec.id.0,
                hour: sample.hour.0,
                line: line.to_string(),
            });
        }
    }
    for feed in &mut feeds {
        feed.sort_by_key(|r| (r.hour, r.drive));
    }
    let catchup_end = start + sizes.fd_catchup_hours;
    let catchup = feeds
        .iter()
        .map(|f| f.iter().take_while(|r| r.hour < catchup_end).count())
        .min()
        .unwrap_or(0);
    for (f, feed) in feeds.iter().enumerate() {
        if feed.len() < catchup + paced_per_feed {
            return Err(format!(
                "fleet-durable feed {f} has {} rows, needs {}",
                feed.len(),
                catchup + paced_per_feed
            ));
        }
    }
    let mut header = Vec::new();
    write_header(&mut header).map_err(|e| e.to_string())?;
    let header = String::from_utf8(header).map_err(|e| e.to_string())?;
    for (f, feed) in feeds.iter().enumerate() {
        let mut backlog = header.clone();
        let mut paced = String::new();
        for (i, row) in feed.iter().take(catchup + paced_per_feed).enumerate() {
            let out = if i < catchup {
                &mut backlog
            } else {
                &mut paced
            };
            out.push_str(&row.line);
            out.push('\n');
        }
        write_file(&dir.join(format!("catchup-{f}.csv")), &backlog)?;
        write_file(&dir.join(format!("paced-{f}.rows")), &paced)?;
    }
    // The batch oracle reads drive-major CSV: regroup what was offered.
    for (name, per_feed) in [
        ("oracle-catchup.csv", catchup),
        ("oracle.csv", catchup + paced_per_feed),
    ] {
        let mut rows: Vec<&Row> = feeds.iter().flat_map(|f| f.iter().take(per_feed)).collect();
        rows.sort_by_key(|r| (r.drive, r.hour));
        let mut text = header.clone();
        for row in rows {
            text.push_str(&row.line);
            text.push('\n');
        }
        write_file(&dir.join(name), &text)?;
    }
    let model = train_model(seed ^ TRAIN_SEED_SALT, sizes.fd_scale).map_err(|e| e.to_string())?;
    save_model(&dir.join("model.bin"), &model)?;
    let rows = 2 * (catchup + paced_per_feed);
    Ok(meta(rows, &truth, &[("catchup_per_feed", catchup)]))
}

/// `paper-batch`: family W training fleet at seed `s`, test fleet at
/// `s + 1`, both drive-major CSVs as `hddpred generate` writes them, plus
/// a one-drive CSV for timing a detect invocation's fixed cost.
fn gen_paper_batch(dir: &Path, scale: f64, seed: u64) -> Result<Value, String> {
    let mut counts = [0usize; 2];
    let mut truth = Vec::new();
    for (k, (name, fleet_seed)) in [("train.csv", seed), ("test.csv", seed.wrapping_add(1))]
        .into_iter()
        .enumerate()
    {
        let ds = DatasetGenerator::new(FamilyProfile::w().scaled(scale), fleet_seed).generate();
        let path = dir.join(name);
        let mut out =
            BufWriter::new(File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?);
        write_header(&mut out).map_err(|e| e.to_string())?;
        for (i, spec) in ds.drives().iter().enumerate() {
            let series = ds.series(spec);
            counts[k] += series.len();
            write_series(&mut out, &series).map_err(|e| e.to_string())?;
            if k == 1 {
                truth.push((spec.id.0, spec.class.fail_hour().map(|h| h.0)));
                if i == 0 {
                    let mut tiny = Vec::new();
                    write_header(&mut tiny).map_err(|e| e.to_string())?;
                    write_series(&mut tiny, &series).map_err(|e| e.to_string())?;
                    std::fs::write(dir.join("tiny.csv"), tiny).map_err(|e| e.to_string())?;
                }
            }
        }
        out.flush()
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(meta(
        counts[0] + counts[1],
        &truth,
        &[("train_rows", counts[0]), ("test_rows", counts[1])],
    ))
}
