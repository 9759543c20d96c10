//! Regenerate every table and figure in sequence by invoking the sibling
//! experiment binaries (skipping none). Output is the raw material for
//! EXPERIMENTS.md.
//!
//! Usage:
//! `cargo run --release -p hdd-bench --bin run_all -- --scale 0.25 --threads 8`
//!
//! All options (`--scale`, `--seed`, `--threads`) are forwarded verbatim
//! to every experiment binary.

use std::process::Command;

const EXPERIMENTS: [&str; 12] = [
    "exp_table1",
    "exp_table2",
    "exp_table3",
    "exp_table4",
    "exp_fig1_rules",
    "exp_fig2",
    "exp_fig3_4",
    "exp_fig5",
    "exp_table5",
    "exp_fig6_9",
    "exp_fig10",
    "exp_table6",
];

#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "timing harness: wall-clock measurement is its purpose"
)]
fn main() {
    // Validate the shared options up front (and fail fast on typos)
    // before spending minutes inside the first experiment.
    let _ = hdd_bench::Options::from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exe_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe has a directory")
        .to_path_buf();

    let mut failures = Vec::new();
    let started = std::time::Instant::now();
    for name in EXPERIMENTS.iter().chain(
        [
            "exp_fig12",
            "exp_ablations",
            "exp_forest",
            "exp_related_work",
            "exp_triage",
        ]
        .iter(),
    ) {
        let path = exe_dir.join(name);
        eprintln!("[run_all] {name} ...");
        let status = Command::new(&path)
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        if !status.success() {
            failures.push((*name).to_string());
        }
    }
    eprintln!(
        "[run_all] finished in {:.0?} with {} failures",
        started.elapsed(),
        failures.len()
    );
    if !failures.is_empty() {
        eprintln!("[run_all] failed: {failures:?}");
        std::process::exit(1);
    }
}
