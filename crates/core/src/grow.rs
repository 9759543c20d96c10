//! The greedy top-down descent shared by Algorithm 1 (classification)
//! and Algorithm 2 (regression).
//!
//! The two algorithms differ only in their splitting function and leaf
//! payload. A [`TreeKind`] supplies those — node statistics, the leaf,
//! the node weight, the workspace split search and the scaled gain — and
//! [`grow`] is the one loop: the `Minsplit`/depth gates, the CP
//! pre-prune gate, the partition, the child push order, the NaN policy
//! and the final [`prune`](crate::prune::prune).

use crate::split::{SplitSpec, SplitWorkspace};
use crate::tree::{Node, NodeId, SplitNode, Tree};
use hdd_par::ThreadPool;

/// What one tree kind contributes to the shared descent.
pub(crate) trait TreeKind {
    /// Node statistics, computed once per node from its members.
    type Stats: Copy;
    /// The leaf payload.
    type Leaf: Clone;

    /// Per-sample training weights; the root weight is their sum.
    fn weights(&self) -> &[f64];

    /// Statistics of the node whose members (ascending row ids) are
    /// `members`.
    fn stats(&self, members: &[u32]) -> Self::Stats;

    /// The leaf payload of a node with statistics `stats`.
    fn leaf(stats: Self::Stats) -> Self::Leaf;

    /// The node weight recorded on the tree (and compared by the NaN
    /// policy).
    fn weight(stats: Self::Stats) -> f64;

    /// Best split of the node occupying `[start, end)` of `ws`, whose
    /// statistics are `stats`; `None` when nothing improves the node.
    fn search(
        &self,
        ws: &SplitWorkspace,
        start: usize,
        end: usize,
        stats: Self::Stats,
        min_bucket: usize,
        pool: ThreadPool,
    ) -> Option<SplitSpec>;

    /// The split's gain on the scale the complexity parameter is compared
    /// against, for a node holding `fraction` of the root weight.
    fn scaled_gain(gain: f64, fraction: f64, root: Self::Stats) -> f64;
}

/// The stopping and pruning controls both builders expose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Limits {
    /// `Minsplit`: samples a node needs before a split is considered.
    pub(crate) min_split: usize,
    /// `Minbucket`: samples every leaf must keep.
    pub(crate) min_bucket: usize,
    /// Optional depth cap (the root is depth 1).
    pub(crate) max_depth: Option<usize>,
    /// The complexity parameter `CP`.
    pub(crate) complexity: f64,
}

impl Default for Limits {
    /// The paper's settings for both trees (§V-A2, §V-C): `Minsplit = 20`,
    /// `Minbucket = 7`, `CP = 0.001`, no depth cap.
    fn default() -> Self {
        Limits {
            min_split: 20,
            min_bucket: 7,
            max_depth: None,
            complexity: 0.001,
        }
    }
}

/// Grow a tree on the workspace's presorted stripes (stack-based, like
/// Algorithms 1 and 2), then prune it.
///
/// Each node's per-feature order is a slice of the stripes and each
/// accepted split one stable partition pass — no per-node sorts or
/// allocations. The stripe order equals what the legacy sort-per-node
/// search produces (see [`crate::split`]), so the grown tree does not
/// depend on the thread count.
pub(crate) fn grow<K: TreeKind>(
    kind: &K,
    limits: Limits,
    ws: &mut SplitWorkspace,
    pool: ThreadPool,
) -> Tree<K::Leaf> {
    let n_rows = ws.n_rows();
    let root_weight: f64 = kind.weights().iter().sum();
    let root = kind.stats(ws.members(0, n_rows));
    let mut nodes = vec![Node {
        prediction: K::leaf(root),
        weight: K::weight(root),
        fraction: 1.0,
        gain: 0.0,
        split: None,
    }];
    // Stack entries: (node id, index range, depth, node statistics).
    let mut stack = vec![(NodeId::ROOT, 0usize, n_rows, 1usize, root)];

    while let Some((id, start, end, depth, stats)) = stack.pop() {
        if end - start < limits.min_split || limits.max_depth.is_some_and(|d| depth >= d) {
            continue; // leaf
        }
        let Some(split) = kind.search(ws, start, end, stats, limits.min_bucket, pool) else {
            continue;
        };
        // Pre-prune: `prune` collapses any split whose scaled gain falls
        // below the complexity parameter, looking only at the node's own
        // gain — so a subtree under a below-`cp` split can never survive.
        // Declining the split here grows the post-prune tree directly
        // (bit-identical output) instead of building nodes pruning would
        // throw away.
        let gain = K::scaled_gain(split.gain, nodes[id.0 as usize].fraction, root);
        if gain < limits.complexity {
            continue;
        }

        let mid = ws.partition(start, end, split.feature, split.threshold);
        debug_assert!(mid > start && mid < end, "split produced an empty child");

        let left = kind.stats(ws.members(start, mid));
        let right = kind.stats(ws.members(mid, end));
        let left_id = NodeId(nodes.len() as u32);
        let right_id = NodeId(nodes.len() as u32 + 1);
        for child in [left, right] {
            let w = K::weight(child);
            nodes.push(Node {
                prediction: K::leaf(child),
                weight: w,
                fraction: w / root_weight,
                gain: 0.0,
                split: None,
            });
        }
        let node = &mut nodes[id.0 as usize];
        node.split = Some(SplitNode {
            feature: split.feature,
            threshold: split.threshold,
            left: left_id,
            right: right_id,
            // Missing-value policy: NaN follows the heavier child.
            nan_left: K::weight(left) >= K::weight(right),
        });
        node.gain = gain;
        stack.push((left_id, start, mid, depth + 1, left));
        stack.push((right_id, mid, end, depth + 1, right));
    }

    crate::prune::prune(&Tree::from_nodes(nodes, ws.n_features()), limits.complexity)
}
