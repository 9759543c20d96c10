//! `hddbench` — the end-to-end benchmark of `hddpred`.
//!
//! ```text
//! hddbench --workload <w> --seed <n> --seconds <s> --trace <0|1>
//! hddbench run     --seed <n> [--workload <w>] [--repeat <k>] [--seconds <s>] [--smoke] --out <results.json>
//! hddbench trace   --seed <n> [--workload <w>] [--smoke] --out <dir>
//! hddbench compare <parent.json> <change.json> [--claim <metric>@<workload>]... [--bench BENCHMARK.json]
//! ```
//!
//! Run it from the repository root: it builds `hddpred` there with
//! `cargo build --release` (into `$CARGO_TARGET_DIR`, default `target`)
//! and keeps its inputs, scratch files and traces under
//! `<target>/hddbench/`. The first form runs one workload once and
//! prints, as the last line of stdout, one JSON object with `correct`,
//! `attempted`, `failed` and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of the traced pass (`--trace 1`). See README.md.

mod e2e;
mod inputs;
mod oracle;
mod procs;
mod stats;
mod trace;
mod workloads;

use hddpred::hdd_json::{self, Value};
use stats::Better;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Sizes, Workload, END_TO_END, PER_LAYER};

const USAGE: &str = "\
usage:
  hddbench --workload <w> --seed <n> --seconds <s> --trace <0|1>
  hddbench run     --seed <n> [--workload <w>] [--repeat <k>] [--seconds <s>] [--smoke] --out <results.json>
  hddbench trace   --seed <n> [--workload <w>] [--smoke] --out <dir>
  hddbench compare <parent.json> <change.json> [--claim <metric>@<workload>]... [--bench <BENCHMARK.json>]
workloads: fleet-durable, backfill, retrain-drift, paper-batch
";

/// Measurement budget of one run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&Flags::parse(&args[1..])),
        Some("trace") => cmd_trace(&Flags::parse(&args[1..])),
        Some("compare") => cmd_compare(&Flags::parse(&args[1..])),
        Some(a) if a.starts_with("--") => cmd_once(&Flags::parse(&args)),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hddbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--name value` pairs, bare `--switch`es and positionals.
struct Flags {
    values: BTreeMap<String, Vec<String>>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Flags {
        let mut values: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) => {
                    let value = match it.peek() {
                        Some(next) if !next.starts_with("--") => {
                            it.next().cloned().unwrap_or_default()
                        }
                        _ => String::new(),
                    };
                    values.entry(name.to_string()).or_default().push(value);
                }
                None => positional.push(arg.clone()),
            }
        }
        Flags { values, positional }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name)?.last().map(String::as_str)
    }

    fn all(&self, name: &str) -> &[String] {
        self.values.get(name).map_or(&[], Vec::as_slice)
    }

    fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .filter(|v| !v.is_empty())
            .ok_or_else(|| format!("missing --{name}\n{USAGE}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name}: cannot parse `{raw}`")),
        }
    }

    fn workloads(&self) -> Result<Vec<Workload>, String> {
        match self.get("workload") {
            None => Ok(Workload::ALL.to_vec()),
            Some(name) => Workload::from_name(name)
                .map(|w| vec![w])
                .ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}")),
        }
    }

    fn sizes(&self) -> Sizes {
        if self.has("smoke") {
            Sizes::smoke()
        } else {
            Sizes::full()
        }
    }
}

/// The checkout being measured: its root, the built binary, and the
/// benchmark's own directory under the target dir.
struct Env {
    bin: PathBuf,
    home: PathBuf,
}

impl Env {
    /// Build `hddpred` from the sources in the current directory.
    fn build() -> Result<Env, String> {
        let root = std::env::current_dir().map_err(|e| e.to_string())?;
        if !root.join("Cargo.toml").is_file() || !root.join("src/main.rs").is_file() {
            return Err(format!(
                "{} is not the hddpred repository root (run hddbench from there)",
                root.display()
            ));
        }
        let status = Command::new("cargo")
            .args(["build", "--release", "--quiet", "--bin", "hddpred"])
            .current_dir(&root)
            .stdout(std::io::stderr())
            .status()
            .map_err(|e| format!("running cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building hddpred failed ({status})"));
        }
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| root.join("target"), |t| root.join(t));
        let bin = target.join("release").join("hddpred");
        if !bin.is_file() {
            return Err(format!("{} was not built", bin.display()));
        }
        Ok(Env {
            bin,
            home: target.join("hddbench"),
        })
    }

    fn inputs(
        &self,
        workload: Workload,
        sizes: &Sizes,
        seed: u64,
    ) -> Result<inputs::Inputs, String> {
        let cache = self.home.join("cache");
        std::fs::create_dir_all(&cache).map_err(|e| format!("{}: {e}", cache.display()))?;
        let inp = inputs::prepare(&cache, workload, sizes, seed)?;
        eprintln!(
            "{}: inputs for seed {seed} {} ({:.2} s){}",
            workload.name(),
            if inp.cached { "cached" } else { "generated" },
            inp.gen_s,
            inp.fingerprints
                .iter()
                .map(|(name, hash, len)| format!("\n  {name} fnv {hash:016x} {len} B"))
                .collect::<String>()
        );
        Ok(inp)
    }
}

/// A scratch directory removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(env: &Env, workload: Workload) -> Result<Scratch, String> {
        let dir = env
            .home
            .join("work")
            .join(format!("{}-{}", workload.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn num(v: f64) -> Value {
    if v.is_finite() {
        Value::Num(v)
    } else {
        Value::Null
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` in `table` order.
fn metrics_json(values: &[(&str, f64)], table: &[(&str, &str)]) -> Result<Value, String> {
    let mut fields = Vec::new();
    for (name, unit) in table {
        let v = values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not a finite number ({v})"));
        }
        fields.push((
            (*name).to_string(),
            Value::Obj(vec![
                ("value".to_string(), Value::Num(v)),
                ("unit".to_string(), Value::Str((*unit).to_string())),
            ]),
        ));
    }
    Ok(Value::Obj(fields))
}

/// `v` with six significant digits.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (5 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.decimals$}")
}

fn print_metrics(workload: Workload, values: &[(&str, f64)], table: &[(&str, &str)]) {
    for (name, unit) in table {
        if let Some((_, v)) = values.iter().find(|(n, _)| n == name) {
            eprintln!("{:<14} {name:<28} {:>14} {unit}", workload.name(), sig(*v));
        }
    }
}

/// The single-run form: one workload, one run, one JSON line.
fn cmd_once(flags: &Flags) -> Result<bool, String> {
    let workload = Workload::from_name(flags.require("workload")?)
        .ok_or_else(|| format!("unknown workload\n{USAGE}"))?;
    let seed: u64 = flags.num("seed", 1)?;
    let seconds: f64 = flags.num("seconds", DEFAULT_SECONDS)?;
    let traced = flags.get("trace").unwrap_or("0") == "1";
    let sizes = flags.sizes();
    let env = Env::build()?;
    let inp = env.inputs(workload, &sizes, seed)?;
    let scratch = Scratch::new(&env, workload)?;
    let (correct, attempted, failed, metrics) = if traced {
        let ctx = trace::TraceCtx {
            bin: &env.bin,
            work: &scratch.0,
            out: &env.home.join("trace"),
            sizes: &sizes,
        };
        let t = trace::run(&ctx, workload, &inp)?;
        print_metrics(workload, &t.per_layer, &PER_LAYER);
        report_problems(&t.problems);
        let ok = t.problems.is_empty();
        let failed = t.mismatches + usize::from(!ok);
        (
            ok,
            t.rows as u64,
            failed as u64,
            metrics_json(&t.per_layer, &PER_LAYER)?,
        )
    } else {
        let ctx = e2e::Ctx {
            bin: &env.bin,
            work: &scratch.0,
            sizes: &sizes,
            seconds,
        };
        let o = e2e::run(&ctx, workload, &inp)?;
        print_metrics(workload, &o.metrics, &END_TO_END);
        print_extras(workload, &o.extras);
        report_problems(&o.problems);
        (
            o.correct(),
            o.attempted.max(1),
            o.failed,
            metrics_json(&o.metrics, &END_TO_END)?,
        )
    };
    let line = Value::Obj(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Num(attempted as f64)),
        ("failed".to_string(), Value::Num(failed as f64)),
        ("metrics".to_string(), metrics),
    ]);
    println!("{}", hdd_json::to_string(&line));
    Ok(true)
}

fn print_extras(workload: Workload, extras: &[(String, f64)]) {
    for (name, v) in extras {
        eprintln!(
            "{:<14} {name:<28} {:>14} (reported, not gated)",
            workload.name(),
            sig(*v)
        );
    }
}

fn report_problems(problems: &[String]) {
    for p in problems {
        eprintln!("CHECK FAILED: {p}");
    }
}

/// Load a results file's runs (an absent file has none).
fn load_runs(path: &Path) -> Result<Vec<Value>, String> {
    match std::fs::read_to_string(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("{}: {e}", path.display())),
        Ok(text) => {
            let doc = hdd_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(doc
                .get("runs")
                .and_then(Value::as_arr)
                .map(<[Value]>::to_vec)
                .unwrap_or_default())
        }
    }
}

/// `hddbench run`: end-to-end runs, appended to a results file.
fn cmd_run(flags: &Flags) -> Result<bool, String> {
    let out = PathBuf::from(flags.require("out")?);
    let seed: u64 = flags.num("seed", 1)?;
    let repeat: usize = flags.num("repeat", 1)?;
    let smoke = flags.has("smoke");
    let seconds: f64 = flags.num("seconds", if smoke { 1.0 } else { DEFAULT_SECONDS })?;
    let sizes = flags.sizes();
    let env = Env::build()?;
    let mut runs = load_runs(&out)?;
    let mut all_correct = true;
    for workload in flags.workloads()? {
        let inp = env.inputs(workload, &sizes, seed)?;
        for k in 0..repeat {
            let scratch = Scratch::new(&env, workload)?;
            let ctx = e2e::Ctx {
                bin: &env.bin,
                work: &scratch.0,
                sizes: &sizes,
                seconds,
            };
            let o = e2e::run(&ctx, workload, &inp)?;
            eprintln!(
                "-- {} run {}/{repeat} (seed {seed})",
                workload.name(),
                k + 1
            );
            print_metrics(workload, &o.metrics, &END_TO_END);
            print_extras(workload, &o.extras);
            report_problems(&o.problems);
            all_correct &= o.correct();
            runs.push(Value::Obj(vec![
                (
                    "workload".to_string(),
                    Value::Str(workload.name().to_string()),
                ),
                ("seed".to_string(), Value::Num(seed as f64)),
                ("sizes".to_string(), Value::Str(sizes.tag.to_string())),
                ("correct".to_string(), Value::Bool(o.correct())),
                ("attempted".to_string(), Value::Num(o.attempted as f64)),
                ("failed".to_string(), Value::Num(o.failed as f64)),
                (
                    "metrics".to_string(),
                    metrics_json(&o.metrics, &END_TO_END)?,
                ),
                (
                    "extras".to_string(),
                    Value::Obj(o.extras.iter().map(|(k, v)| (k.clone(), num(*v))).collect()),
                ),
                (
                    "problems".to_string(),
                    Value::Arr(o.problems.iter().map(|p| Value::Str(p.clone())).collect()),
                ),
                (
                    "inputs".to_string(),
                    Value::Obj(
                        inp.fingerprints
                            .iter()
                            .map(|(name, hash, len)| {
                                (name.clone(), Value::Str(format!("{hash:016x}:{len}")))
                            })
                            .collect(),
                    ),
                ),
            ]));
            // Written after every run so an interrupted session keeps
            // what it measured.
            let doc = Value::Obj(vec![("runs".to_string(), Value::Arr(runs.clone()))]);
            std::fs::write(&out, hdd_json::to_string(&doc) + "\n")
                .map_err(|e| format!("{}: {e}", out.display()))?;
        }
    }
    eprintln!("results in {}", out.display());
    Ok(all_correct)
}

/// `hddbench trace`: the traced pass of each workload.
fn cmd_trace(flags: &Flags) -> Result<bool, String> {
    let out = PathBuf::from(flags.require("out")?);
    let seed: u64 = flags.num("seed", 1)?;
    let sizes = flags.sizes();
    let env = Env::build()?;
    let mut ok = true;
    for workload in flags.workloads()? {
        let inp = env.inputs(workload, &sizes, seed)?;
        let scratch = Scratch::new(&env, workload)?;
        let ctx = trace::TraceCtx {
            bin: &env.bin,
            work: &scratch.0,
            out: &out,
            sizes: &sizes,
        };
        let t = trace::run(&ctx, workload, &inp)?;
        eprintln!("-- {} traced pass (seed {seed})", workload.name());
        print_metrics(workload, &t.per_layer, &PER_LAYER);
        for (name, v) in t.layers.iter().filter(|(n, _)| n.starts_with("share.")) {
            eprintln!(
                "{:<14} {name:<28} {:>14} of loop wall",
                workload.name(),
                sig(*v)
            );
        }
        report_problems(&t.problems);
        ok &= t.problems.is_empty();
    }
    eprintln!("spans and summaries in {}", out.display());
    Ok(ok)
}

/// One end-to-end metric's contract from BENCHMARK.json.
struct MetricSpec {
    name: String,
    better: Better,
    bound: f64,
}

fn load_specs(path: &Path) -> Result<Vec<MetricSpec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = hdd_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = |what: &str| format!("{}: {what}", path.display());
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or_else(|| bad("no end_to_end list"))?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: m
                    .str_field("name")
                    .map_err(|e| bad(&e.to_string()))?
                    .to_string(),
                better: Better::from_label(m.str_field("better").map_err(|e| bad(&e.to_string()))?)
                    .ok_or_else(|| bad("`better` must be higher or lower"))?,
                bound: m.f64_field("bound").map_err(|e| bad(&e.to_string()))?,
            })
        })
        .collect()
}

/// Per workload, per metric: the values of the correct runs, in order.
fn series(runs: &[Value]) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs {
        if run.get("correct").and_then(Value::as_bool) != Some(true) {
            continue;
        }
        let Some(workload) = run.get("workload").and_then(Value::as_str) else {
            continue;
        };
        if let Some(Value::Obj(metrics)) = run.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    out.entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    out
}

/// `hddbench compare`: the comparison rule over two results files.
fn cmd_compare(flags: &Flags) -> Result<bool, String> {
    let [parent, change] = flags.positional.as_slice() else {
        return Err(format!(
            "compare needs <parent.json> <change.json>\n{USAGE}"
        ));
    };
    let specs = load_specs(Path::new(flags.get("bench").unwrap_or("BENCHMARK.json")))?;
    let claims: Vec<(String, String)> = flags
        .all("claim")
        .iter()
        .map(|c| {
            c.split_once('@')
                .map(|(m, w)| (m.to_string(), w.to_string()))
                .ok_or_else(|| format!("--claim wants <metric>@<workload>, got `{c}`"))
        })
        .collect::<Result<_, _>>()?;
    let p = series(&load_runs(Path::new(parent))?);
    let c = series(&load_runs(Path::new(change))?);
    let mut ok = true;
    eprintln!(
        "{:<14} {:<20} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]", "worse%", "wins"
    );
    for workload in Workload::ALL.map(Workload::name) {
        for spec in &specs {
            let key = (workload.to_string(), spec.name.clone());
            let (Some(pv), Some(cv)) = (p.get(&key), c.get(&key)) else {
                continue;
            };
            let claimed = claims.iter().any(|(m, w)| *m == spec.name && w == workload);
            let r = stats::compare(pv, cv, spec.better, spec.bound, claimed);
            ok &= !r.verdict.fails();
            eprintln!(
                "{workload:<14} {:<20} {:>12} [{:>11}, {:>11}] {:>12} [{:>11}, {:>11}] {:>8.2} {:>3}/{:<2}  {}",
                spec.name,
                sig(r.parent_median),
                sig(r.parent_quartiles.0),
                sig(r.parent_quartiles.2),
                sig(r.change_median),
                sig(r.change_quartiles.0),
                sig(r.change_quartiles.2),
                r.worsening * 100.0,
                r.wins,
                r.pairs,
                r.verdict.label(),
            );
        }
    }
    for (m, w) in &claims {
        if !p.contains_key(&(w.clone(), m.clone())) {
            eprintln!("claim {m}@{w}: no such (metric, workload) in {parent}");
            ok = false;
        }
    }
    Ok(ok)
}
