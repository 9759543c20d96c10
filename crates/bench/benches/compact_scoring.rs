//! Throughput evidence for compact-forest scoring.
//!
//! Two entry points score the same models over the same rows:
//!
//! * **scalar** — `CompactForest::score` per row, called from the bench
//!   loop;
//! * **batched** — `CompactForest::predict_batch`, the row walk every
//!   serving path calls (asserted bitwise-identical to scalar on every
//!   benched row).
//!
//! Two models: the paper's single CT (the serving hot path) and a
//! 25-tree random forest. Results land in `BENCH_parallel.json` —
//! upserted by `(op, n_threads)` so the `parallel_training` rows
//! survive — with `samples_per_sec` (rows scored per second) and
//! `tree_scores_per_sec` (rows × trees) on every row. The full run
//! asserts the batched CT kernel sustains > 10M samples/sec; `--smoke`
//! shrinks shapes and skips the floor (CI boxes vary), parity is
//! asserted in both modes.

use hdd_bench::report::Report;
use hdd_bench::section;
use hdd_bench::timing::time_per_iter;
use hdd_cart::{
    Class, ClassSample, ClassificationTreeBuilder, CompactForest, FeatureMatrix,
    RandomForestBuilder,
};
use hdd_smart::rng::DeterministicRng;
use std::hint::black_box;
use std::path::Path;

/// Same two-class shape as the training bench: quantized features with
/// plenty of ties, three informative dimensions.
fn class_samples(n: usize, dim: usize, seed: u64) -> Vec<ClassSample> {
    let rng = DeterministicRng::new(seed);
    (0..n)
        .map(|i| {
            let failed = i % 5 == 0;
            let features: Vec<f64> = (0..dim)
                .map(|j| {
                    let base = (rng.gaussian(i as u64, j as u64) * 8.0).round() + 100.0;
                    if failed && j < 3 {
                        base - (40.0 * rng.uniform(i as u64, (j + 100) as u64)).round()
                    } else {
                        base
                    }
                })
                .collect();
            ClassSample::new(features, if failed { Class::Failed } else { Class::Good })
        })
        .collect()
}

fn matrix_of(samples: &[ClassSample]) -> FeatureMatrix {
    FeatureMatrix::from_rows(samples.iter().map(|s| s.features.as_slice()))
}

/// Assert `predict_batch` is bitwise-identical to per-row `score`.
fn assert_batched_parity(
    model: &CompactForest,
    rows: &[ClassSample],
    x: &FeatureMatrix,
    what: &str,
) {
    let mut batched = vec![0.0; rows.len()];
    model.predict_batch(x, &mut batched);
    for (row, &b) in rows.iter().zip(&batched) {
        let s = model.score(&row.features);
        assert_eq!(
            s.to_bits(),
            b.to_bits(),
            "{what}: batched kernel diverged from scalar"
        );
    }
}

/// One model's scalar and batched rows. Returns the batched samples/sec.
fn bench_model(
    report: &mut Report,
    op: &str,
    model: &CompactForest,
    eval_rows: &[ClassSample],
    eval: &FeatureMatrix,
) -> f64 {
    let n = eval_rows.len();
    let n_trees = model.n_trees();
    let mut out = vec![0.0; n];

    let scalar_time = time_per_iter(|| {
        for (slot, row) in out.iter_mut().zip(eval_rows) {
            *slot = model.score(black_box(&row.features));
        }
        out.last().copied()
    });
    let batched_time = time_per_iter(|| {
        model.predict_batch(black_box(eval), &mut out);
        out.last().copied()
    });

    let rate = |t: std::time::Duration| n as f64 / t.as_secs_f64();
    let (r_scalar, r_batched) = (rate(scalar_time), rate(batched_time));
    println!(
        "{op} ({n_trees} trees, {n} rows): scalar {:.2}M/s, batched {:.2}M/s ({:.2}x)",
        r_scalar / 1e6,
        r_batched / 1e6,
        r_batched / r_scalar,
    );

    let mut push = |suffix: &str, t: std::time::Duration, r: f64| {
        report.push_with(
            &format!("{op}{suffix}"),
            1,
            t.as_secs_f64() * 1e3,
            r / r_scalar,
            &[
                ("samples_per_sec", r),
                ("tree_scores_per_sec", r * n_trees as f64),
                ("n_rows", n as f64),
                ("n_trees", n_trees as f64),
            ],
        );
    };
    push("_scalar", scalar_time, r_scalar);
    push("", batched_time, r_batched);
    r_batched
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n_train, n_eval) = if smoke {
        (1_000, 8_000)
    } else {
        (4_000, 64_000)
    };
    let train = class_samples(n_train, 13, 41);
    let eval_rows = class_samples(n_eval, 13, 4242);
    let eval = matrix_of(&eval_rows);

    // The paper's CT — the single tree every serve tick scores — and the
    // §VII random forest.
    let ct = ClassificationTreeBuilder::new()
        .build(&train)
        .expect("CT trains on the synthetic fleet")
        .compile();
    let forest = RandomForestBuilder::new()
        .build(&train)
        .expect("forest trains on the synthetic fleet")
        .compile();

    section("compact scoring parity: batched == scalar");
    assert_batched_parity(&ct, &eval_rows, &eval, "ct");
    assert_batched_parity(&forest, &eval_rows, &eval, "forest");
    println!("parity: batched == scalar on {n_eval} rows");

    section("compact scoring throughput");
    let mut fresh = Report::new();
    let ct_rate = bench_model(&mut fresh, "compact_scoring", &ct, &eval_rows, &eval);
    bench_model(
        &mut fresh,
        "compact_scoring_forest",
        &forest,
        &eval_rows,
        &eval,
    );

    if smoke {
        println!("smoke mode: throughput floor not asserted (shapes too small)");
    } else {
        assert!(
            ct_rate > 10e6,
            "batched CT scoring must sustain > 10M samples/sec, got {:.2}M/s",
            ct_rate / 1e6
        );
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_parallel.json");
    let mut report = Report::load(&path);
    report.upsert(fresh);
    report.write(&path).expect("write BENCH_parallel.json");
}
