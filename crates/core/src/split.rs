//! Split search: the inner loop of CART training.
//!
//! For every candidate feature the search walks the node's samples in
//! feature order, sweeps all thresholds between distinct consecutive
//! values, and scores each by the splitting function — weighted
//! information gain (eqs. 1–3) for classification, within-node
//! sum-of-squares reduction (eq. 4) for regression. `Minbucket` is
//! enforced on raw sample counts, as in rpart.
//!
//! Tree growth searches with one strategy, [`SplitWorkspace`]: every
//! feature is argsorted once at the root, and each accepted split stably
//! partitions the sorted stripes, so a node's feature order is always a
//! contiguous slice. [`best_classification_split`] /
//! [`best_regression_split`] are the legacy sort-per-node search (copy
//! the node's indices and sort them per feature, O(n log n) per feature
//! per node), kept as the reference the workspace is tested against. Both
//! feed the same per-feature threshold sweep, so every floating-point
//! accumulation happens in the same order and the two return
//! bit-identical [`SplitSpec`]s.

use crate::sample::Class;
use hdd_par::ThreadPool;

/// A split must beat this gain to be accepted at all (guards against
/// floating-point noise producing spurious zero-gain splits).
const MIN_GAIN: f64 = 1e-12;

/// The impurity measure used to score classification splits.
///
/// The paper uses information gain (eqs. 1–3); Gini impurity — rpart's
/// default — is provided for ablations. Both are concave in the class
/// probability, so both produce non-negative gains; they occasionally
/// prefer different thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitCriterion {
    /// Entropy-based information gain (the paper's choice).
    #[default]
    InformationGain,
    /// Gini impurity decrease (rpart's default).
    Gini,
}

impl SplitCriterion {
    /// Node impurity for a weighted two-class distribution.
    #[must_use]
    pub fn impurity(self, w_good: f64, w_failed: f64) -> f64 {
        match self {
            SplitCriterion::InformationGain => entropy(w_good, w_failed),
            SplitCriterion::Gini => gini(w_good, w_failed),
        }
    }
}

/// A chosen split: `feature < threshold` goes left.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitSpec {
    /// Feature index.
    pub feature: usize,
    /// Threshold; strictly-less goes to the left child.
    pub threshold: f64,
    /// Impurity decrease: information gain in bits for classification
    /// (node-local, per unit weight), absolute weighted sum-of-squares
    /// reduction for regression.
    pub gain: f64,
}

/// Row-major feature matrix.
#[derive(Debug, Clone)]
pub struct FeatureMatrix {
    data: Vec<f64>,
    n_features: usize,
}

impl FeatureMatrix {
    /// Build from rows.
    ///
    /// # Panics
    ///
    /// Panics if rows disagree on length (callers validate first); the
    /// first row fixes the width, even when it is empty.
    #[must_use]
    pub fn from_rows<'a, I: IntoIterator<Item = &'a [f64]>>(rows: I) -> Self {
        let mut data = Vec::new();
        let mut width = None;
        for row in rows {
            let n_features = *width.get_or_insert(row.len());
            assert_eq!(row.len(), n_features, "inconsistent row length");
            data.extend_from_slice(row);
        }
        FeatureMatrix {
            data,
            n_features: width.unwrap_or(0),
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.data.len().checked_div(self.n_features).unwrap_or(0)
    }

    /// Number of columns.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Value at `(row, feature)`.
    #[must_use]
    pub fn value(&self, row: usize, feature: usize) -> f64 {
        self.data[row * self.n_features + feature]
    }

    /// One row as a slice.
    #[must_use]
    pub fn row(&self, row: usize) -> &[f64] {
        &self.data[row * self.n_features..(row + 1) * self.n_features]
    }

    /// Iterate over rows as feature slices.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.n_features.max(1))
    }

    /// Build from an already row-major buffer without copying.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `n_features`.
    #[must_use]
    pub fn from_vec(data: Vec<f64>, n_features: usize) -> Self {
        assert!(n_features >= 1, "need at least one feature column");
        assert_eq!(
            data.len() % n_features,
            0,
            "buffer length must be a multiple of the feature count"
        );
        FeatureMatrix { data, n_features }
    }
}

/// Gini impurity of a weighted two-class node: `2·p·(1−p)` scaled to
/// match entropy's `[0, 1]` range at the midpoint.
#[must_use]
pub fn gini(w_good: f64, w_failed: f64) -> f64 {
    let total = w_good + w_failed;
    if total <= 0.0 {
        return 0.0;
    }
    let p = w_failed / total;
    2.0 * p * (1.0 - p) * 2.0
}

/// Binary entropy of a weighted two-class node, in bits (eq. 2).
#[must_use]
pub fn entropy(w_good: f64, w_failed: f64) -> f64 {
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

/// Classification node statistics: the `(good, failed)` weight totals of
/// the rows in `indices`, summed in the given order.
#[must_use]
pub fn class_totals(indices: &[u32], classes: &[Class], weights: &[f64]) -> (f64, f64) {
    let mut totals = (0.0, 0.0);
    for &i in indices {
        match classes[i as usize] {
            Class::Good => totals.0 += weights[i as usize],
            Class::Failed => totals.1 += weights[i as usize],
        }
    }
    totals
}

/// Regression node statistics: the weighted moments `(Σw, Σwy, Σwy²)` of
/// the rows in `indices`, summed in the given order.
#[must_use]
pub fn moments(indices: &[u32], targets: &[f64], weights: &[f64]) -> (f64, f64, f64) {
    let (mut sw, mut swy, mut swy2) = (0.0, 0.0, 0.0);
    for &i in indices {
        let (w, y) = (weights[i as usize], targets[i as usize]);
        sw += w;
        swy += w * y;
        swy2 += w * y * y;
    }
    (sw, swy, swy2)
}

/// Find the best information-gain split of the node containing `indices`.
///
/// Returns `None` when no split satisfies `min_bucket` or improves purity.
#[must_use]
pub fn best_classification_split(
    matrix: &FeatureMatrix,
    indices: &[u32],
    classes: &[Class],
    weights: &[f64],
    min_bucket: usize,
    criterion: SplitCriterion,
) -> Option<SplitSpec> {
    let totals = class_totals(indices, classes, weights);
    let parent_info = criterion.impurity(totals.0, totals.1);
    if parent_info == 0.0 {
        return None;
    }
    let total_w = totals.0 + totals.1;

    let mut best: Option<SplitSpec> = None;
    let mut order: Vec<u32> = indices.to_vec();
    let mut vals: Vec<f64> = vec![0.0; indices.len()];
    for feature in 0..matrix.n_features() {
        // Restart from the node's (ascending) order before every sort so
        // ties resolve to ascending row id for each feature — the
        // canonical order the workspace stripes hold. Chaining sorts
        // would leak the previous feature's order into this one's ties.
        order.copy_from_slice(indices);
        order.sort_by(|&a, &b| {
            matrix
                .value(a as usize, feature)
                .total_cmp(&matrix.value(b as usize, feature))
        });
        for (slot, &i) in vals.iter_mut().zip(&order) {
            *slot = matrix.value(i as usize, feature);
        }
        let floor = best.as_ref().map_or(MIN_GAIN, |b| b.gain);
        let candidate = sweep_classification_feature(
            &order,
            &vals,
            feature,
            classes,
            weights,
            totals,
            parent_info,
            total_w,
            min_bucket,
            criterion,
            floor,
        );
        if let Some(candidate) = candidate {
            best = Some(candidate);
        }
    }
    best
}

/// Sweep every threshold of one feature over samples already in feature
/// order (`vals[pos]` is the feature value of row `order[pos]`, so the
/// hot loop reads values sequentially instead of gathering through the
/// matrix); return the best candidate whose gain strictly exceeds `floor`
/// (earlier thresholds win ties, exactly like the legacy loop).
///
/// Both searches call this, so their floating-point accumulations — and
/// therefore the chosen splits — are bit-identical.
#[expect(
    clippy::too_many_arguments,
    reason = "the sweep's inputs are independent borrows and scalars that both split searches pass; a parameter struct would only rename them"
)]
fn sweep_classification_feature(
    order: &[u32],
    vals: &[f64],
    feature: usize,
    classes: &[Class],
    weights: &[f64],
    totals: (f64, f64),
    parent_info: f64,
    total_w: f64,
    min_bucket: usize,
    criterion: SplitCriterion,
    floor: f64,
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
            continue; // can't separate equal values
        }
        let right = (totals.0 - left.0, totals.1 - left.1);
        let w_left = left.0 + left.1;
        let w_right = right.0 + right.1;
        let children_info = (w_left * criterion.impurity(left.0, left.1)
            + w_right * criterion.impurity(right.0, right.1))
            / total_w;
        let gain = parent_info - children_info;
        if gain > best.as_ref().map_or(floor, |b| b.gain) {
            best = Some(SplitSpec {
                feature,
                threshold: midpoint(v, v_next),
                gain,
            });
        }
    }
    best
}

/// Find the split minimizing the within-child sum of squares (eq. 4).
///
/// The returned `gain` is the absolute weighted sum-of-squares reduction.
#[must_use]
pub fn best_regression_split(
    matrix: &FeatureMatrix,
    indices: &[u32],
    targets: &[f64],
    weights: &[f64],
    min_bucket: usize,
) -> Option<SplitSpec> {
    let (sw, swy, swy2) = moments(indices, targets, weights);
    let parent_sq = sq_from_moments(sw, swy, swy2);
    if parent_sq <= 0.0 {
        return None;
    }

    let mut best: Option<SplitSpec> = None;
    let mut order: Vec<u32> = indices.to_vec();
    let mut vals: Vec<f64> = vec![0.0; indices.len()];
    for feature in 0..matrix.n_features() {
        // Same canonical tie order as the classification search above.
        order.copy_from_slice(indices);
        order.sort_by(|&a, &b| {
            matrix
                .value(a as usize, feature)
                .total_cmp(&matrix.value(b as usize, feature))
        });
        for (slot, &i) in vals.iter_mut().zip(&order) {
            *slot = matrix.value(i as usize, feature);
        }
        let floor = best.as_ref().map_or(MIN_GAIN, |b| b.gain);
        let candidate = sweep_regression_feature(
            &order,
            &vals,
            feature,
            targets,
            weights,
            (sw, swy, swy2),
            parent_sq,
            min_bucket,
            floor,
        );
        if let Some(candidate) = candidate {
            best = Some(candidate);
        }
    }
    best
}

/// The regression analogue of [`sweep_classification_feature`]: sweep one
/// feature's thresholds over samples already in feature order (with
/// position-aligned `vals`), comparing against `floor` with strict
/// inequality.
#[expect(
    clippy::too_many_arguments,
    reason = "the sweep's inputs are independent borrows and scalars that both split searches pass; a parameter struct would only rename them"
)]
fn sweep_regression_feature(
    order: &[u32],
    vals: &[f64],
    feature: usize,
    targets: &[f64],
    weights: &[f64],
    parent_moments: (f64, f64, f64),
    parent_sq: f64,
    min_bucket: usize,
    floor: f64,
) -> Option<SplitSpec> {
    let (sw, swy, swy2) = parent_moments;
    let mut best: Option<SplitSpec> = None;
    let (mut lw, mut lwy, mut lwy2) = (0.0, 0.0, 0.0);
    for (pos, &i) in order.iter().enumerate() {
        let idx = i as usize;
        let (w, y) = (weights[idx], targets[idx]);
        lw += w;
        lwy += w * y;
        lwy2 += w * y * y;
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
        let left_sq = sq_from_moments(lw, lwy, lwy2);
        let right_sq = sq_from_moments(sw - lw, swy - lwy, swy2 - lwy2);
        let gain = parent_sq - left_sq - right_sq;
        if gain > best.as_ref().map_or(floor, |b| b.gain) {
            best = Some(SplitSpec {
                feature,
                threshold: midpoint(v, v_next),
                gain,
            });
        }
    }
    best
}

/// Minimum `node_size × n_features` before a node's per-feature sweeps
/// are fanned out across the pool: below this the work is too small to
/// amortise spawn/join, and the serial merge is bit-identical anyway.
pub const PARALLEL_SWEEP_MIN_WORK: usize = 1 << 15;

/// Stripe-partitioned split-search state: the zero-allocation descent
/// engine behind tree growth.
///
/// The classic CART inner loop re-sorts the node's samples for every
/// feature at every node — O(n log n) per feature per node. The workspace
/// instead argsorts every feature once at the root (as rpart and the GBDT
/// systems' "exact greedy" mode do) and keeps the sorted stripes
/// **mutable**, maintaining one invariant: after every split, each
/// feature stripe is stably partitioned so that a node occupying index
/// range `[start, end)` holds exactly its member rows, still in
/// feature-value order (ties toward lower row id), in that range of every
/// stripe. Recovering a node's order is then free — it *is* the slice —
/// and a split costs one stable partition pass over the node's rows per
/// stripe, touching nothing outside `[start, end)`.
///
/// Stably partitioning a sorted sequence preserves the relative order of
/// both sides, so the slice a node sees is equal, element by element, to
/// what the legacy search's per-node stable sort of the ascending member
/// ids produces. Both searches feed the same sweep kernels, so grown
/// trees are bit-identical to the legacy search at any thread count: the
/// per-feature sweeps of a large node fan out across the pool and merge
/// in feature order with the serial loop's strict-greater comparison.
///
/// Feature values ride along in a parallel `f64` stripe, so sweeps read
/// values sequentially instead of gathering rows through the matrix.
/// All buffers are reused across [`SplitWorkspace::reset_sorted`] /
/// [`SplitWorkspace::load_from`] calls, which is what forest training
/// leans on: one workspace per worker, reset per tree, zero steady-state
/// allocation.
#[derive(Debug, Clone, Default)]
pub struct SplitWorkspace {
    /// `n_features` stripes × `n_rows` row ids (see invariant above).
    orders: Vec<u32>,
    /// Feature values aligned with `orders`: `fvalues[f·n_rows + pos]` is
    /// feature `f`'s value for row `orders[f·n_rows + pos]`.
    fvalues: Vec<f64>,
    /// Node member row ids in ascending order, partitioned alongside the
    /// stripes (tree growth reads leaf statistics from here).
    members: Vec<u32>,
    /// Per-row routing decision of the current partition step.
    goes_left: Vec<bool>,
    scratch_ids: Vec<u32>,
    scratch_vals: Vec<f64>,
    n_rows: usize,
    n_features: usize,
}

impl SplitWorkspace {
    /// An empty workspace; buffers grow on first use and are reused after.
    #[must_use]
    pub fn new() -> Self {
        SplitWorkspace::default()
    }

    /// Rows the workspace currently covers.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Feature stripes the workspace currently holds.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Size buffers for `n_rows × n_features` and reset `members` to
    /// ascending row ids; stripe contents are left for the caller.
    fn begin(&mut self, n_rows: usize, n_features: usize) {
        self.n_rows = n_rows;
        self.n_features = n_features;
        self.orders.clear();
        self.orders.resize(n_rows * n_features, 0);
        self.fvalues.clear();
        self.fvalues.resize(n_rows * n_features, 0.0);
        self.members.clear();
        self.members.extend(0..n_rows as u32);
        self.goes_left.clear();
        self.goes_left.resize(n_rows, false);
        self.scratch_ids.reserve(n_rows);
        self.scratch_vals.reserve(n_rows);
    }

    /// Reset for `matrix`: argsort every feature stripe (value order, ties
    /// toward lower row id), fanned out across `pool`.
    pub fn reset_sorted(&mut self, matrix: &FeatureMatrix, pool: ThreadPool) {
        let n_rows = matrix.n_rows();
        self.begin(n_rows, matrix.n_features());
        let mut stripes: Vec<(&mut [u32], &mut [f64])> = self
            .orders
            .chunks_mut(n_rows.max(1))
            .zip(self.fvalues.chunks_mut(n_rows.max(1)))
            .collect();
        let sorted = pool.try_parallel_map_mut(&mut stripes, |feature, (ids, vals)| {
            for (slot, row) in ids.iter_mut().zip(0..n_rows as u32) {
                *slot = row;
            }
            ids.sort_unstable_by(|&a, &b| {
                matrix
                    .value(a as usize, feature)
                    .total_cmp(&matrix.value(b as usize, feature))
                    .then(a.cmp(&b))
            });
            for (slot, &row) in vals.iter_mut().zip(ids.iter()) {
                *slot = matrix.value(row as usize, feature);
            }
        });
        if let Err(p) = sorted {
            panic!("{p}");
        }
    }

    /// Reset by copying another workspace's stripes (which must be in
    /// their pristine root state) — a memcpy instead of a re-sort, for
    /// callers that train repeatedly on the same matrix with different
    /// weights (boosting rounds).
    ///
    /// # Panics
    ///
    /// Panics if `pristine` is empty.
    pub fn load_from(&mut self, pristine: &SplitWorkspace) {
        assert!(pristine.n_rows > 0, "cannot load from an empty workspace");
        self.begin(pristine.n_rows, pristine.n_features);
        self.orders.copy_from_slice(&pristine.orders);
        self.fvalues.copy_from_slice(&pristine.fvalues);
    }

    /// Size the workspace and hand out the raw `(row id, value)` stripe
    /// buffers for direct filling — the forest trainer derives bootstrap
    /// stripes from a shared pristine root workspace straight into these,
    /// skipping the per-tree argsorts entirely. Each feature `f` owns
    /// `[f·n_rows, (f+1)·n_rows)`; rows must be written in feature-value
    /// order with ties toward lower row id.
    pub(crate) fn begin_fill(
        &mut self,
        n_rows: usize,
        n_features: usize,
    ) -> (&mut [u32], &mut [f64]) {
        self.begin(n_rows, n_features);
        (&mut self.orders, &mut self.fvalues)
    }

    /// The node's member row ids (ascending) for index range
    /// `[start, end)`.
    #[must_use]
    pub fn members(&self, start: usize, end: usize) -> &[u32] {
        &self.members[start..end]
    }

    /// One feature's `(row id, value)` stripe slice for a node range.
    pub(crate) fn stripe(&self, feature: usize, start: usize, end: usize) -> (&[u32], &[f64]) {
        let base = feature * self.n_rows;
        (
            &self.orders[base + start..base + end],
            &self.fvalues[base + start..base + end],
        )
    }

    /// Best classification split of the node occupying `[start, end)`,
    /// whose [`class_totals`] over [`members`](SplitWorkspace::members)
    /// the caller passes in as `totals` — same result, bit for bit, as
    /// [`best_classification_split`] over the node's members. `None` for
    /// a pure node.
    #[must_use]
    #[expect(
        clippy::too_many_arguments,
        reason = "node bounds, per-sample slices and training knobs, one argument each, as the member-list search it must match bit for bit takes them"
    )]
    pub fn best_classification_split(
        &self,
        start: usize,
        end: usize,
        totals: (f64, f64),
        classes: &[Class],
        weights: &[f64],
        min_bucket: usize,
        criterion: SplitCriterion,
        pool: ThreadPool,
    ) -> Option<SplitSpec> {
        let parent_info = criterion.impurity(totals.0, totals.1);
        if parent_info == 0.0 {
            return None;
        }
        let total_w = totals.0 + totals.1;
        let pool = self.sweep_pool(end - start, pool);
        let per_feature = pool.parallel_map_range(self.n_features, |feature| {
            let (order, vals) = self.stripe(feature, start, end);
            sweep_classification_feature(
                order,
                vals,
                feature,
                classes,
                weights,
                totals,
                parent_info,
                total_w,
                min_bucket,
                criterion,
                MIN_GAIN,
            )
        });
        merge_feature_candidates(per_feature)
    }

    /// Best regression split of the node occupying `[start, end)`, whose
    /// [`moments`] over [`members`](SplitWorkspace::members) the caller
    /// passes in — same result, bit for bit, as [`best_regression_split`]
    /// over the node's members. `None` for a constant-target node.
    #[must_use]
    #[expect(
        clippy::too_many_arguments,
        reason = "node bounds, per-sample slices and training knobs, one argument each, as the member-list search it must match bit for bit takes them"
    )]
    pub fn best_regression_split(
        &self,
        start: usize,
        end: usize,
        moments: (f64, f64, f64),
        targets: &[f64],
        weights: &[f64],
        min_bucket: usize,
        pool: ThreadPool,
    ) -> Option<SplitSpec> {
        let (sw, swy, swy2) = moments;
        let parent_sq = sq_from_moments(sw, swy, swy2);
        if parent_sq <= 0.0 {
            return None;
        }
        let pool = self.sweep_pool(end - start, pool);
        let per_feature = pool.parallel_map_range(self.n_features, |feature| {
            let (order, vals) = self.stripe(feature, start, end);
            sweep_regression_feature(
                order, vals, feature, targets, weights, moments, parent_sq, min_bucket, MIN_GAIN,
            )
        });
        merge_feature_candidates(per_feature)
    }

    /// Drop to the serial pool for nodes too small to amortise fan-out;
    /// the per-feature merge is deterministic either way.
    fn sweep_pool(&self, node_size: usize, pool: ThreadPool) -> ThreadPool {
        if node_size * self.n_features < PARALLEL_SWEEP_MIN_WORK {
            ThreadPool::serial()
        } else {
            pool
        }
    }

    /// Apply a chosen split to the node occupying `[start, end)`: stably
    /// partition the members and every stripe so rows with
    /// `feature < threshold` come first. Returns the index where the
    /// right child starts.
    pub fn partition(&mut self, start: usize, end: usize, feature: usize, threshold: f64) -> usize {
        let base = feature * self.n_rows;
        for pos in base + start..base + end {
            let row = self.orders[pos] as usize;
            self.goes_left[row] = self.fvalues[pos] < threshold;
        }
        let n_left = stable_partition_ids(
            &mut self.members[start..end],
            &self.goes_left,
            &mut self.scratch_ids,
        );
        for f in 0..self.n_features {
            let base = f * self.n_rows;
            stable_partition_stripe(
                &mut self.orders[base + start..base + end],
                &mut self.fvalues[base + start..base + end],
                &self.goes_left,
                &mut self.scratch_ids,
                &mut self.scratch_vals,
            );
        }
        start + n_left
    }
}

/// Stable in-place partition of row ids by a per-row mask; left rows keep
/// their order at the front, right rows theirs at the back. Returns the
/// left count.
fn stable_partition_ids(ids: &mut [u32], left: &[bool], scratch: &mut Vec<u32>) -> usize {
    scratch.clear();
    let mut w = 0;
    for r in 0..ids.len() {
        let id = ids[r];
        if left[id as usize] {
            ids[w] = id;
            w += 1;
        } else {
            scratch.push(id);
        }
    }
    ids[w..].copy_from_slice(scratch);
    w
}

/// [`stable_partition_ids`] moving the aligned value lane in lockstep.
fn stable_partition_stripe(
    ids: &mut [u32],
    vals: &mut [f64],
    left: &[bool],
    scratch_ids: &mut Vec<u32>,
    scratch_vals: &mut Vec<f64>,
) -> usize {
    scratch_ids.clear();
    scratch_vals.clear();
    let mut w = 0;
    for r in 0..ids.len() {
        let id = ids[r];
        let v = vals[r];
        if left[id as usize] {
            ids[w] = id;
            vals[w] = v;
            w += 1;
        } else {
            scratch_ids.push(id);
            scratch_vals.push(v);
        }
    }
    ids[w..].copy_from_slice(scratch_ids);
    vals[w..].copy_from_slice(scratch_vals);
    w
}

/// Merge per-feature winners in feature order with the serial loop's
/// strict-greater comparison (earlier features win ties).
fn merge_feature_candidates<I: IntoIterator<Item = Option<SplitSpec>>>(
    candidates: I,
) -> Option<SplitSpec> {
    let mut best: Option<SplitSpec> = None;
    for candidate in candidates.into_iter().flatten() {
        if candidate.gain > best.as_ref().map_or(MIN_GAIN, |b| b.gain) {
            best = Some(candidate);
        }
    }
    best
}

/// Weighted within-node sum of squares from accumulated moments; clamped
/// at zero against floating-point cancellation.
fn sq_from_moments(sw: f64, swy: f64, swy2: f64) -> f64 {
    if sw <= 0.0 {
        return 0.0;
    }
    (swy2 - swy * swy / sw).max(0.0)
}

/// A threshold strictly between `lo` and `hi` (`lo < hi`), robust to the
/// midpoint rounding back onto `lo`.
fn midpoint(lo: f64, hi: f64) -> f64 {
    let mid = lo + (hi - lo) / 2.0;
    if mid > lo {
        mid
    } else {
        hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(rows: &[&[f64]]) -> FeatureMatrix {
        FeatureMatrix::from_rows(rows.iter().copied())
    }

    #[test]
    fn entropy_bounds() {
        assert_eq!(entropy(1.0, 0.0), 0.0);
        assert_eq!(entropy(0.0, 1.0), 0.0);
        assert!((entropy(0.5, 0.5) - 1.0).abs() < 1e-12);
        assert_eq!(entropy(0.0, 0.0), 0.0);
        let h = entropy(0.9, 0.1);
        assert!(h > 0.0 && h < 1.0);
    }

    #[test]
    fn classification_split_separates_perfectly() {
        let m = matrix(&[&[1.0], &[2.0], &[10.0], &[11.0]]);
        let classes = [Class::Good, Class::Good, Class::Failed, Class::Failed];
        let weights = [1.0; 4];
        let s = best_classification_split(
            &m,
            &[0, 1, 2, 3],
            &classes,
            &weights,
            1,
            SplitCriterion::InformationGain,
        )
        .unwrap();
        assert_eq!(s.feature, 0);
        assert!(s.threshold > 2.0 && s.threshold <= 10.0);
        assert!((s.gain - 1.0).abs() < 1e-12, "full gain for a pure split");
    }

    #[test]
    fn classification_split_respects_min_bucket() {
        let m = matrix(&[&[1.0], &[2.0], &[10.0], &[11.0]]);
        let classes = [Class::Good, Class::Good, Class::Failed, Class::Failed];
        let weights = [1.0; 4];
        assert!(best_classification_split(
            &m,
            &[0, 1, 2, 3],
            &classes,
            &weights,
            3,
            SplitCriterion::InformationGain
        )
        .is_none());
    }

    #[test]
    fn classification_split_none_for_pure_node() {
        let m = matrix(&[&[1.0], &[2.0]]);
        let classes = [Class::Good, Class::Good];
        let weights = [1.0; 2];
        assert!(best_classification_split(
            &m,
            &[0, 1],
            &classes,
            &weights,
            1,
            SplitCriterion::InformationGain
        )
        .is_none());
    }

    #[test]
    fn classification_split_none_when_values_identical() {
        let m = matrix(&[&[5.0], &[5.0], &[5.0], &[5.0]]);
        let classes = [Class::Good, Class::Failed, Class::Good, Class::Failed];
        let weights = [1.0; 4];
        assert!(best_classification_split(
            &m,
            &[0, 1, 2, 3],
            &classes,
            &weights,
            1,
            SplitCriterion::InformationGain
        )
        .is_none());
    }

    #[test]
    fn classification_split_picks_most_informative_feature() {
        // Feature 0 is noise; feature 1 separates.
        let m = matrix(&[&[5.0, 1.0], &[1.0, 2.0], &[5.0, 10.0], &[1.0, 11.0]]);
        let classes = [Class::Good, Class::Good, Class::Failed, Class::Failed];
        let weights = [1.0; 4];
        let s = best_classification_split(
            &m,
            &[0, 1, 2, 3],
            &classes,
            &weights,
            1,
            SplitCriterion::InformationGain,
        )
        .unwrap();
        assert_eq!(s.feature, 1);
    }

    #[test]
    fn weights_shift_the_chosen_split() {
        // Six points; class boundary is ambiguous between features, but
        // up-weighting the failed samples makes isolating them on feature
        // 0 the dominant gain.
        let m = matrix(&[&[1.0], &[2.0], &[3.0], &[10.0], &[11.0], &[12.0]]);
        let classes = [
            Class::Good,
            Class::Good,
            Class::Failed,
            Class::Failed,
            Class::Failed,
            Class::Failed,
        ];
        let heavy_good = [10.0, 10.0, 1.0, 1.0, 1.0, 1.0];
        let s = best_classification_split(
            &m,
            &[0, 1, 2, 3, 4, 5],
            &classes,
            &heavy_good,
            1,
            SplitCriterion::InformationGain,
        )
        .unwrap();
        // With good samples heavy, the best boundary isolates them: the
        // split lands between x=2 and x=3.
        assert!(s.threshold > 2.0 && s.threshold <= 3.0, "{s:?}");
    }

    #[test]
    fn regression_split_reduces_sse() {
        let m = matrix(&[&[1.0], &[2.0], &[10.0], &[11.0]]);
        let targets = [0.0, 0.0, 5.0, 5.0];
        let weights = [1.0; 4];
        let s = best_regression_split(&m, &[0, 1, 2, 3], &targets, &weights, 1).unwrap();
        assert!(s.threshold > 2.0 && s.threshold <= 10.0);
        // Parent SSE = 25; children = 0.
        assert!((s.gain - 25.0).abs() < 1e-9, "{s:?}");
    }

    #[test]
    fn regression_split_none_for_constant_targets() {
        let m = matrix(&[&[1.0], &[2.0]]);
        assert!(best_regression_split(&m, &[0, 1], &[3.0, 3.0], &[1.0, 1.0], 1).is_none());
    }

    #[test]
    fn midpoint_is_strictly_between() {
        let lo = 1.0;
        let hi = lo + f64::EPSILON;
        let m = midpoint(lo, hi);
        assert!(m > lo && m <= hi);
    }

    #[test]
    fn gini_bounds_and_symmetry() {
        assert_eq!(gini(1.0, 0.0), 0.0);
        assert_eq!(gini(0.0, 1.0), 0.0);
        assert!((gini(0.5, 0.5) - 1.0).abs() < 1e-12, "scaled to 1 at p=0.5");
        assert!((gini(0.3, 0.7) - gini(0.7, 0.3)).abs() < 1e-12);
    }

    #[test]
    fn gini_criterion_also_separates() {
        let m = matrix(&[&[1.0], &[2.0], &[10.0], &[11.0]]);
        let classes = [Class::Good, Class::Good, Class::Failed, Class::Failed];
        let weights = [1.0; 4];
        let s = best_classification_split(
            &m,
            &[0, 1, 2, 3],
            &classes,
            &weights,
            1,
            SplitCriterion::Gini,
        )
        .unwrap();
        assert!(s.threshold > 2.0 && s.threshold <= 10.0);
    }

    #[test]
    fn workspace_matches_legacy_through_a_descent() {
        // Quantized values force ties; simulate a two-level descent and
        // check the workspace's search + partition reproduce the legacy
        // search on the partitioned member sets exactly.
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                vec![
                    f64::from((i * 7) % 5),
                    f64::from((i * 3) % 11),
                    f64::from(i % 2),
                ]
            })
            .collect();
        let m = FeatureMatrix::from_rows(rows.iter().map(Vec::as_slice));
        let classes: Vec<Class> = (0..60)
            .map(|i| {
                if (i * 13) % 3 == 0 {
                    Class::Failed
                } else {
                    Class::Good
                }
            })
            .collect();
        let weights: Vec<f64> = (0..60).map(|i| 1.0 + f64::from(i % 4) * 0.25).collect();

        let mut ws = SplitWorkspace::new();
        ws.reset_sorted(&m, ThreadPool::serial());
        assert_eq!(ws.n_rows(), 60);
        assert_eq!(ws.n_features(), 3);

        let mut ranges = vec![(0usize, 60usize)];
        let mut splits_seen = 0;
        while let Some((start, end)) = ranges.pop() {
            let members: Vec<u32> = ws.members(start, end).to_vec();
            assert!(
                members.windows(2).all(|w| w[0] < w[1]),
                "members must stay ascending"
            );
            let legacy = best_classification_split(
                &m,
                &members,
                &classes,
                &weights,
                3,
                SplitCriterion::InformationGain,
            );
            let totals = class_totals(&members, &classes, &weights);
            for threads in [1, 4] {
                let got = ws.best_classification_split(
                    start,
                    end,
                    totals,
                    &classes,
                    &weights,
                    3,
                    SplitCriterion::InformationGain,
                    ThreadPool::new(threads),
                );
                assert_eq!(got, legacy, "range [{start}, {end})");
            }
            let Some(split) = legacy else { continue };
            splits_seen += 1;
            if splits_seen > 8 {
                continue;
            }
            let mid = ws.partition(start, end, split.feature, split.threshold);
            assert!(mid > start && mid < end);
            for &i in ws.members(start, mid) {
                assert!(m.value(i as usize, split.feature) < split.threshold);
            }
            for &i in ws.members(mid, end) {
                assert!(m.value(i as usize, split.feature) >= split.threshold);
            }
            ranges.push((start, mid));
            ranges.push((mid, end));
        }
        assert!(splits_seen >= 2, "descent must actually split");
    }

    /// The workspace regression search over the node `[start, end)`.
    fn ws_regression(
        ws: &SplitWorkspace,
        (start, end): (usize, usize),
        targets: &[f64],
        weights: &[f64],
        min_bucket: usize,
        pool: ThreadPool,
    ) -> Option<SplitSpec> {
        let node = moments(ws.members(start, end), targets, weights);
        ws.best_regression_split(start, end, node, targets, weights, min_bucket, pool)
    }

    #[test]
    fn workspace_regression_matches_legacy() {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![f64::from((i * 5) % 9), f64::from(i % 4)])
            .collect();
        let m = FeatureMatrix::from_rows(rows.iter().map(Vec::as_slice));
        let targets: Vec<f64> = (0..50).map(|i| f64::from((i * 11) % 7) - 3.0).collect();
        let weights = vec![1.0; 50];
        let mut ws = SplitWorkspace::new();
        ws.reset_sorted(&m, ThreadPool::new(2));
        let legacy_indices: Vec<u32> = (0..50).collect();
        let legacy = best_regression_split(&m, &legacy_indices, &targets, &weights, 2);
        let got = ws_regression(&ws, (0, 50), &targets, &weights, 2, ThreadPool::serial());
        assert_eq!(got, legacy);
        let split = got.unwrap();
        let mid = ws.partition(0, 50, split.feature, split.threshold);
        let legacy_sub: Vec<u32> = ws.members(0, mid).to_vec();
        assert_eq!(
            ws_regression(&ws, (0, mid), &targets, &weights, 2, ThreadPool::serial()),
            best_regression_split(&m, &legacy_sub, &targets, &weights, 2)
        );
    }

    #[test]
    fn workspace_matches_legacy_classification() {
        // Quantized values force ties; feature 2 is constant.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![f64::from((i * 7) % 5), f64::from((i * 3) % 11), 4.0])
            .collect();
        let m = FeatureMatrix::from_rows(rows.iter().map(Vec::as_slice));
        let classes: Vec<Class> = (0..40)
            .map(|i| {
                if (i * 13) % 3 == 0 {
                    Class::Failed
                } else {
                    Class::Good
                }
            })
            .collect();
        let weights: Vec<f64> = (0..40).map(|i| 1.0 + f64::from(i % 4) * 0.25).collect();
        let indices: Vec<u32> = (0..40).collect();
        let totals = class_totals(&indices, &classes, &weights);
        let mut ws = SplitWorkspace::new();
        ws.reset_sorted(&m, ThreadPool::serial());
        for criterion in [SplitCriterion::InformationGain, SplitCriterion::Gini] {
            for min_bucket in [1, 3, 7] {
                let legacy = best_classification_split(
                    &m, &indices, &classes, &weights, min_bucket, criterion,
                );
                for threads in [1, 4] {
                    let got = ws.best_classification_split(
                        0,
                        40,
                        totals,
                        &classes,
                        &weights,
                        min_bucket,
                        criterion,
                        ThreadPool::new(threads),
                    );
                    assert_eq!(got, legacy, "criterion={criterion:?} mb={min_bucket}");
                }
            }
        }
    }

    #[test]
    fn workspace_matches_legacy_on_sub_node() {
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![f64::from((i * 5) % 9), f64::from(i % 2)])
            .collect();
        let m = FeatureMatrix::from_rows(rows.iter().map(Vec::as_slice));
        let targets: Vec<f64> = (0..30).map(|i| f64::from((i * 11) % 7) - 3.0).collect();
        let weights = vec![1.0; 30];
        let mut ws = SplitWorkspace::new();
        ws.reset_sorted(&m, ThreadPool::serial());
        // A sub-node reached by partition, as tree descent produces.
        let mid = ws.partition(0, 30, 0, 6.5);
        for node in [(0, mid), (mid, 30)] {
            let indices = ws.members(node.0, node.1).to_vec();
            let legacy = best_regression_split(&m, &indices, &targets, &weights, 2);
            let got = ws_regression(&ws, node, &targets, &weights, 2, ThreadPool::new(3));
            assert_eq!(got, legacy, "node {node:?}");
            assert!(got.is_some(), "node {node:?} should be splittable");
        }
    }

    #[test]
    fn workspace_stripes_are_sorted_with_index_tiebreak() {
        let m = matrix(&[&[2.0], &[1.0], &[2.0], &[1.0]]);
        let mut ws = SplitWorkspace::new();
        ws.reset_sorted(&m, ThreadPool::serial());
        assert_eq!(ws.n_rows(), 4);
        assert_eq!(ws.n_features(), 1);
        let (ids, vals) = ws.stripe(0, 0, 4);
        assert_eq!(ids, &[1, 3, 0, 2]);
        assert_eq!(vals, &[1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn workspace_load_from_restores_pristine_stripes() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![f64::from((i * 7) % 6)]).collect();
        let m = FeatureMatrix::from_rows(rows.iter().map(Vec::as_slice));
        let mut pristine = SplitWorkspace::new();
        pristine.reset_sorted(&m, ThreadPool::serial());
        let mut ws = SplitWorkspace::new();
        ws.load_from(&pristine);
        let before: Vec<u32> = ws.members(0, 20).to_vec();
        let _ = ws.partition(0, 20, 0, 3.0);
        assert_ne!(ws.members(0, 20), before.as_slice(), "partition reorders");
        ws.load_from(&pristine);
        assert_eq!(ws.members(0, 20), before.as_slice());
        assert_eq!(ws.orders, pristine.orders);
        assert_eq!(ws.fvalues, pristine.fvalues);
    }

    #[test]
    fn matrix_from_vec_round_trips() {
        let m = FeatureMatrix::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3);
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "multiple of the feature count")]
    fn matrix_from_vec_rejects_ragged_buffer() {
        let _ = FeatureMatrix::from_vec(vec![1.0, 2.0, 3.0], 2);
    }

    #[test]
    #[should_panic(expected = "inconsistent row length")]
    fn matrix_from_rows_rejects_ragged_rows_after_empty_ones() {
        let _ = matrix(&[&[], &[], &[1.0, 2.0]]);
    }

    #[test]
    fn matrix_from_rows_of_empty_rows_is_empty() {
        let m = matrix(&[&[], &[]]);
        assert_eq!(m.n_features(), 0);
        assert_eq!(m.n_rows(), 0);
    }

    #[test]
    fn matrix_accessors() {
        let m = matrix(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.n_features(), 2);
        assert_eq!(m.value(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
    }
}
