//! Wall-clock evidence for the fork-join training layer.
//!
//! Two claims are measured and checked:
//!
//! 1. **Speedup** — the stripe-workspace forest build must beat a live
//!    reimplementation of the legacy training path (materialized
//!    bootstrap projection, per-tree presort, hybrid per-node split
//!    search) by ≥ 3× wall clock. The baseline is *re-measured* every
//!    run — the public sort-per-node search plus a frozen private copy
//!    of the retired presorted bitmask-filter index — so the comparison
//!    tracks the current compiler and machine instead of a stale JSON
//!    row. Thread scaling (8 threads vs 1) is recorded but
//!    only *warned* about below 2× — a single-core box cannot scale, and
//!    the algorithmic speedup is the number that must hold everywhere.
//! 2. **Parity** — the 8-thread forest must be bit-identical to the
//!    serial one, and the workspace split search must return exactly the
//!    legacy sort-per-node result. These are asserted unconditionally.
//!
//! Results land in `BENCH_parallel.json` (op, n_threads, wall_ms,
//! speedup, plus chunk_size / n_drives / min_task_rows on the training
//! rows) at the workspace root; rows are upserted by `(op, n_threads)`
//! so the `compact_scoring` bench can share the file. Pass `--smoke`
//! for a seconds-not-minutes run (CI): smaller shapes, parity still
//! asserted, the speedup floor skipped because overhead dominates tiny
//! trees.

use hdd_bench::report::Report;
use hdd_bench::section;
use hdd_bench::timing::{best_of, time_per_iter};
use hdd_cart::split::{
    best_classification_split, class_totals, SplitCriterion, SplitSpec, SplitWorkspace,
};
use hdd_cart::{Class, ClassSample, FeatureMatrix, RandomForestBuilder, FOREST_MIN_TASK_ROWS};
use hdd_eval::{VotingRule, VotingState};
use hdd_par::{hardware_threads, ThreadPool};
use hdd_smart::rng::{splitmix64, DeterministicRng};
use std::hint::black_box;
use std::path::Path;

/// A two-class problem with quantized features (plenty of ties — the
/// hard case for split-search parity) and a few informative dimensions.
fn class_samples(n: usize, dim: usize) -> Vec<ClassSample> {
    let rng = DeterministicRng::new(41);
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

/// Stable in-place partition (the legacy grow loop's helper); returns
/// the number of elements satisfying `pred`, moved to the front.
fn stable_partition(slice: &mut [u32], pred: impl Fn(u32) -> bool) -> usize {
    let mut left: Vec<u32> = Vec::with_capacity(slice.len());
    let mut right: Vec<u32> = Vec::new();
    for &i in slice.iter() {
        if pred(i) {
            left.push(i);
        } else {
            right.push(i);
        }
    }
    let n_left = left.len();
    slice[..n_left].copy_from_slice(&left);
    slice[n_left..].copy_from_slice(&right);
    n_left
}

/// A frozen copy of the retired presorted-column split index the legacy
/// baseline searched large nodes with: one argsort per feature at the
/// tree root, and per node each feature's root order filtered through a
/// membership bitmask (an O(total rows) scan plus a fresh `Vec` per
/// sweep), then the threshold sweep. Kept private to the bench so
/// `forest_train_baseline` keeps measuring the same program.
struct LegacyPresorted {
    /// `n_features` stripes of `n_rows` row ids, each sorted by the
    /// feature's value (ties by row id).
    order: Vec<u32>,
    n_rows: usize,
    n_features: usize,
}

impl LegacyPresorted {
    fn with_pool(matrix: &FeatureMatrix, pool: ThreadPool) -> Self {
        let n_rows = matrix.n_rows();
        let n_features = matrix.n_features();
        let columns = pool.parallel_map_range(n_features, |feature| {
            let mut order: Vec<u32> = (0..n_rows as u32).collect();
            order.sort_unstable_by(|&a, &b| {
                matrix
                    .value(a as usize, feature)
                    .total_cmp(&matrix.value(b as usize, feature))
                    .then(a.cmp(&b))
            });
            order
        });
        LegacyPresorted {
            order: columns.concat(),
            n_rows,
            n_features,
        }
    }

    /// The information-gain split of the node containing `indices`
    /// (ascending row ids).
    fn best_classification_split(
        &self,
        matrix: &FeatureMatrix,
        indices: &[u32],
        classes: &[Class],
        weights: &[f64],
        min_bucket: usize,
        pool: ThreadPool,
    ) -> Option<SplitSpec> {
        let totals = class_totals(indices, classes, weights);
        let parent_info = legacy_entropy(totals.0, totals.1);
        if parent_info == 0.0 {
            return None;
        }
        let total_w = totals.0 + totals.1;
        let mut mask = vec![false; self.n_rows];
        for &i in indices {
            mask[i as usize] = true;
        }
        let mask = &mask;
        let per_feature = pool.parallel_map_range(self.n_features, |feature| {
            let mut order = Vec::with_capacity(indices.len());
            order.extend(
                self.order[feature * self.n_rows..(feature + 1) * self.n_rows]
                    .iter()
                    .copied()
                    .filter(|&i| mask[i as usize]),
            );
            let vals: Vec<f64> = order
                .iter()
                .map(|&i| matrix.value(i as usize, feature))
                .collect();
            legacy_sweep(
                &order,
                &vals,
                feature,
                classes,
                weights,
                totals,
                parent_info,
                total_w,
                min_bucket,
            )
        });
        let mut best: Option<SplitSpec> = None;
        for candidate in per_feature.into_iter().flatten() {
            if candidate.gain > best.as_ref().map_or(LEGACY_MIN_GAIN, |b| b.gain) {
                best = Some(candidate);
            }
        }
        best
    }
}

/// The split module's minimum accepted gain.
const LEGACY_MIN_GAIN: f64 = 1e-12;

/// Binary entropy in bits (the split module's `entropy`, copied so the
/// sweep below inlines it as the original kernel did).
fn legacy_entropy(w_good: f64, w_failed: f64) -> f64 {
    let total = w_good + w_failed;
    if total <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0;
    for w in [w_good, w_failed] {
        if w > 0.0 {
            let p = w / total;
            h -= p * p.log2();
        }
    }
    h
}

/// The information-gain threshold sweep the legacy index fed (the split
/// module's kernel at the time, specialised to the one criterion the
/// baseline trains with).
#[expect(
    clippy::too_many_arguments,
    reason = "keeps the legacy kernel's signature as the baseline it is timed against"
)]
fn legacy_sweep(
    order: &[u32],
    vals: &[f64],
    feature: usize,
    classes: &[Class],
    weights: &[f64],
    totals: (f64, f64),
    parent_info: f64,
    total_w: f64,
    min_bucket: usize,
) -> Option<SplitSpec> {
    let mut best: Option<SplitSpec> = None;
    let mut left = (0.0, 0.0);
    for (pos, &i) in order.iter().enumerate() {
        let idx = i as usize;
        match classes[idx] {
            Class::Good => left.0 += weights[idx],
            Class::Failed => left.1 += weights[idx],
        }
        let n_left = pos + 1;
        let n_right = order.len() - n_left;
        if n_left < min_bucket || n_right < min_bucket {
            continue;
        }
        let v = vals[pos];
        let v_next = vals[pos + 1];
        if v == v_next {
            continue;
        }
        let right = (totals.0 - left.0, totals.1 - left.1);
        let w_left = left.0 + left.1;
        let w_right = right.0 + right.1;
        let children_info = (w_left * legacy_entropy(left.0, left.1)
            + w_right * legacy_entropy(right.0, right.1))
            / total_w;
        let gain = parent_info - children_info;
        if gain > best.as_ref().map_or(LEGACY_MIN_GAIN, |b| b.gain) {
            let mid = v + (v_next - v) / 2.0;
            best = Some(SplitSpec {
                feature,
                threshold: if mid > v { mid } else { v_next },
                gain,
            });
        }
    }
    best
}

/// Legacy hybrid cutoff: nodes at least 1/8 of the training set used the
/// presorted bitmask-filter search, smaller nodes sort-per-node.
const PRESORT_NODE_FRACTION: usize = 8;

/// Grow one tree the pre-stripe way and fold its splits into a checksum.
/// This is the old `classifier::grow` loop verbatim — per-tree
/// presorted index, per-node hybrid search, stable index partition —
/// minus the final prune (a small cost the baseline is *not* charged
/// for, keeping the comparison conservative).
fn legacy_tree_checksum(samples: &[ClassSample]) -> f64 {
    let n = samples.len();
    let matrix = FeatureMatrix::from_rows(samples.iter().map(|s| s.features.as_slice()));
    let classes: Vec<Class> = samples.iter().map(|s| s.class).collect();
    // rpart-style loss-altered priors, the builder defaults the forest
    // trains its members with: failed boosted to 20%, false alarms 10x.
    let n_failed = classes.iter().filter(|c| **c == Class::Failed).count() as f64;
    let n_good = n as f64 - n_failed;
    let w_good = 0.8 * 10.0 / n_good;
    let w_failed = 0.2 / n_failed;
    let weights: Vec<f64> = classes
        .iter()
        .map(|c| match c {
            Class::Good => w_good,
            Class::Failed => w_failed,
        })
        .collect();

    let pool = ThreadPool::serial();
    let presorted = LegacyPresorted::with_pool(&matrix, pool);
    let presort_cutoff = n / PRESORT_NODE_FRACTION;
    let mut indices: Vec<u32> = (0..n as u32).collect();
    let leaf_stats = |idx: &[u32]| -> (f64, f64) {
        let mut w_good = 0.0;
        let mut w_failed = 0.0;
        for &i in idx {
            match classes[i as usize] {
                Class::Good => w_good += weights[i as usize],
                Class::Failed => w_failed += weights[i as usize],
            }
        }
        (w_good, w_failed)
    };

    let mut checksum = 0.0;
    let root = leaf_stats(&indices);
    let mut stack = vec![(0usize, n, root.0, root.1)];
    while let Some((start, end, w_good, w_failed)) = stack.pop() {
        if end - start < 20 || w_failed == 0.0 || w_good == 0.0 {
            continue; // Minsplit / pure node
        }
        let range = &indices[start..end];
        let split = if range.len() >= presort_cutoff {
            presorted.best_classification_split(&matrix, range, &classes, &weights, 7, pool)
        } else {
            best_classification_split(
                &matrix,
                range,
                &classes,
                &weights,
                7,
                SplitCriterion::InformationGain,
            )
        };
        let Some(split) = split else {
            continue;
        };
        let mid = start
            + stable_partition(&mut indices[start..end], |i| {
                matrix.value(i as usize, split.feature) < split.threshold
            });
        checksum += split.threshold + split.gain;
        let left = leaf_stats(&indices[start..mid]);
        let right = leaf_stats(&indices[mid..end]);
        stack.push((start, mid, left.0, left.1));
        stack.push((mid, end, right.0, right.1));
    }
    checksum
}

/// The pre-stripe forest build: per tree, draw the identical feature
/// subset and bootstrap the live forest draws, **materialize** the
/// projected resample as owned `ClassSample`s (one `Vec<f64>` per row —
/// the old path's allocation bill), then grow with the legacy loop.
fn legacy_forest_train(samples: &[ClassSample], n_trees: usize) -> f64 {
    const FOREST_SEED: u64 = 0xF0_4E57; // RandomForestBuilder default
    let n_features = samples[0].features.len();
    let per_tree = ((n_features as f64 * 0.6).ceil() as usize).clamp(1, n_features);
    let mut checksum = 0.0;
    for t in 0..n_trees {
        let tree_seed = splitmix64(FOREST_SEED ^ (t as u64).wrapping_mul(0x9E37_79B9));
        let mut features: Vec<usize> = (0..n_features).collect();
        for i in 0..per_tree.min(n_features - 1) {
            let j = i + (splitmix64(tree_seed ^ i as u64) as usize) % (n_features - i);
            features.swap(i, j);
        }
        let mut chosen = features[..per_tree].to_vec();
        chosen.sort_unstable();

        let mut projected = Vec::with_capacity(samples.len());
        let mut salt = 0u64;
        loop {
            projected.clear();
            for i in 0..samples.len() {
                let pick =
                    (splitmix64(tree_seed ^ salt ^ ((i as u64) << 20)) as usize) % samples.len();
                let src = &samples[pick];
                let feats: Vec<f64> = chosen.iter().map(|&f| src.features[f]).collect();
                projected.push(ClassSample::new(feats, src.class));
            }
            let failed = projected
                .iter()
                .filter(|s| s.class == Class::Failed)
                .count();
            if failed > 0 && failed < projected.len() {
                break;
            }
            salt += 1;
        }
        checksum += legacy_tree_checksum(&projected);
    }
    checksum
}

fn bench_forest_training(report: &mut Report, smoke: bool) {
    section("forest training: legacy baseline vs stripe workspace");
    let (n, n_trees, runs) = if smoke { (800, 8, 2) } else { (6_000, 24, 3) };
    let samples = class_samples(n, 13);

    let (baseline_time, baseline_checksum) =
        best_of(runs, || legacy_forest_train(black_box(&samples), n_trees));
    assert!(
        baseline_checksum.is_finite() && baseline_checksum != 0.0,
        "legacy baseline grew no trees — the measurement is meaningless"
    );

    let mut builder = RandomForestBuilder::new();
    builder.n_trees(n_trees);
    let build_on = |threads| {
        ThreadPool::new(threads)
            .install(|| builder.build(black_box(&samples)))
            .unwrap()
    };

    let (serial_time, serial_forest) = best_of(runs, || build_on(1));
    let (parallel_time, parallel_forest) = best_of(runs, || build_on(8));

    assert_eq!(
        serial_forest, parallel_forest,
        "8-thread forest must be bit-identical to the serial forest"
    );

    let serial_speedup = baseline_time.as_secs_f64() / serial_time.as_secs_f64();
    let parallel_speedup = baseline_time.as_secs_f64() / parallel_time.as_secs_f64();
    let thread_scaling = serial_time.as_secs_f64() / parallel_time.as_secs_f64();
    println!(
        "forest_train {n}x13, {n_trees} trees: baseline {:.1} ms, serial {:.1} ms ({serial_speedup:.2}x), \
         8 threads {:.1} ms ({parallel_speedup:.2}x vs baseline, {thread_scaling:.2}x vs serial)",
        baseline_time.as_secs_f64() * 1e3,
        serial_time.as_secs_f64() * 1e3,
        parallel_time.as_secs_f64() * 1e3,
    );

    // The problem shape goes into the artifact so the numbers can be
    // diagnosed from BENCH_parallel.json alone: `chunk_size` is the
    // per-worker tree chunk forest training dealt *after* the
    // minimum-work floor (`FOREST_MIN_TASK_ROWS` training rows per
    // task — recorded as `min_task_rows`), `n_drives` the training-set
    // size. `speedup` on every row is relative to the legacy baseline;
    // `thread_scaling` on the 8-thread row is 8-thread vs 1-thread of
    // the *new* path, the number that collapses to ~1.0 on a 1-core box.
    let min_chunk_trees = FOREST_MIN_TASK_ROWS.div_ceil(n);
    let chunk_size = n_trees.div_ceil(8).max(min_chunk_trees);
    report.push_with(
        "forest_train_baseline",
        1,
        baseline_time.as_secs_f64() * 1e3,
        1.0,
        &[("chunk_size", n_trees as f64), ("n_drives", n as f64)],
    );
    report.push_with(
        "forest_train",
        1,
        serial_time.as_secs_f64() * 1e3,
        serial_speedup,
        &[
            ("chunk_size", n_trees as f64),
            ("n_drives", n as f64),
            ("min_task_rows", FOREST_MIN_TASK_ROWS as f64),
        ],
    );
    report.push_with(
        "forest_train",
        8,
        parallel_time.as_secs_f64() * 1e3,
        parallel_speedup,
        &[
            ("chunk_size", chunk_size as f64),
            ("n_drives", n as f64),
            ("min_task_rows", FOREST_MIN_TASK_ROWS as f64),
            ("thread_scaling", thread_scaling),
        ],
    );

    if smoke {
        println!("smoke mode: speedup floor not asserted (shapes too small)");
    } else {
        assert!(
            parallel_speedup >= 3.0,
            "8-thread forest training must be >= 3x the legacy baseline, got {parallel_speedup:.2}x"
        );
        if thread_scaling < 2.0 {
            println!(
                "warning: 8-thread scaling only {thread_scaling:.2}x vs serial \
                 ({} hardware thread(s)) — speedup above is algorithmic",
                hardware_threads()
            );
        }
    }
}

fn bench_workspace_split_search(report: &mut Report, smoke: bool) {
    section("root split search: sort-per-node vs stripe workspace");
    let n = if smoke { 2_000 } else { 20_000 };
    let samples = class_samples(n, 13);
    let matrix = FeatureMatrix::from_rows(samples.iter().map(|s| s.features.as_slice()));
    let classes: Vec<Class> = samples.iter().map(|s| s.class).collect();
    let weights = vec![1.0; samples.len()];
    let indices: Vec<u32> = (0..n as u32).collect();

    let mut workspace = SplitWorkspace::new();
    workspace.reset_sorted(&matrix, ThreadPool::serial());
    let totals = class_totals(&indices, &classes, &weights);
    let workspace_search = |workspace: &SplitWorkspace| {
        workspace.best_classification_split(
            0,
            n,
            totals,
            &classes,
            &weights,
            7,
            SplitCriterion::InformationGain,
            ThreadPool::serial(),
        )
    };
    let legacy = best_classification_split(
        &matrix,
        &indices,
        &classes,
        &weights,
        7,
        SplitCriterion::InformationGain,
    );
    assert_eq!(
        legacy,
        workspace_search(&workspace),
        "workspace search must return the legacy SplitSpec"
    );

    let legacy_time = time_per_iter(|| {
        best_classification_split(
            black_box(&matrix),
            &indices,
            &classes,
            &weights,
            7,
            SplitCriterion::InformationGain,
        )
    });
    let workspace_time = time_per_iter(|| workspace_search(black_box(&workspace)));

    let speedup = legacy_time.as_secs_f64() / workspace_time.as_secs_f64();
    println!(
        "split_search {n}x13: sort-per-node {:.2} ms, workspace {:.2} ms ({speedup:.2}x)",
        legacy_time.as_secs_f64() * 1e3,
        workspace_time.as_secs_f64() * 1e3,
    );
    report.push(
        "split_search_sort_per_node",
        1,
        legacy_time.as_secs_f64() * 1e3,
        1.0,
    );
    report.push(
        "split_search_workspace",
        1,
        workspace_time.as_secs_f64() * 1e3,
        speedup,
    );
}

/// Guard for the batch-detect path: the O(1) ring-buffer `VotingState`
/// must never fall more than 10% behind the recompute-the-window sweep
/// it replaced. Both sweeps are asserted vote-identical first, so this
/// is purely a throughput regression fence.
fn bench_batch_detect_sweep(report: &mut Report, smoke: bool) {
    section("batch-detect voting sweep: recompute-per-sample vs ring buffer");
    let (n, runs) = if smoke { (400_000, 3) } else { (4_000_000, 5) };
    let voters = 11usize;
    let rng = DeterministicRng::new(17);
    let scores: Vec<f64> = (0..n).map(|i| rng.gaussian(i as u64, 0) * 50.0).collect();

    // The pre-refactor shape: recount the whole window at every sample.
    let recompute_sweep = |scores: &[f64]| -> usize {
        let mut alarms = 0usize;
        for i in (voters - 1)..scores.len() {
            let negatives = scores[i + 1 - voters..=i]
                .iter()
                .filter(|&&s| s < 0.0)
                .count();
            alarms += usize::from(2 * negatives > voters);
        }
        alarms
    };
    let ring_sweep = |scores: &[f64]| -> usize {
        let mut state = VotingState::new(voters, VotingRule::Majority);
        scores.iter().filter(|&&s| state.push(s)).count()
    };

    let (recompute_time, recompute_alarms) = best_of(runs, || recompute_sweep(black_box(&scores)));
    let (ring_time, ring_alarms) = best_of(runs, || ring_sweep(black_box(&scores)));
    assert_eq!(
        recompute_alarms, ring_alarms,
        "ring-buffer sweep must alarm exactly like the recompute sweep"
    );

    let speedup = recompute_time.as_secs_f64() / ring_time.as_secs_f64();
    println!(
        "batch_detect {n} scores, N={voters}: recompute {:.2} ms, ring {:.2} ms ({speedup:.2}x)",
        recompute_time.as_secs_f64() * 1e3,
        ring_time.as_secs_f64() * 1e3,
    );
    report.push(
        "batch_detect_recompute",
        1,
        recompute_time.as_secs_f64() * 1e3,
        1.0,
    );
    report.push(
        "batch_detect_ring",
        1,
        ring_time.as_secs_f64() * 1e3,
        speedup,
    );

    assert!(
        ring_time.as_secs_f64() <= recompute_time.as_secs_f64() * 1.10,
        "VotingState sweep regressed batch-detect throughput by more than 10%: \
         recompute {:.2} ms vs ring {:.2} ms",
        recompute_time.as_secs_f64() * 1e3,
        ring_time.as_secs_f64() * 1e3,
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut fresh = Report::new();
    bench_forest_training(&mut fresh, smoke);
    bench_workspace_split_search(&mut fresh, smoke);
    bench_batch_detect_sweep(&mut fresh, smoke);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_parallel.json");
    // Upsert instead of overwrite: compact_scoring shares this file.
    let mut report = Report::load(&path);
    report.upsert(fresh);
    report.write(&path).expect("write BENCH_parallel.json");
}
