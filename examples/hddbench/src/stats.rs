//! Order statistics and the two-commit comparison rule.
//!
//! `quartiles` reproduces Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method), so a spread computed here is the
//! spread anyone re-checking a results file with Python gets.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn from_label(label: &str) -> Option<Better> {
        match label {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }

    /// Whether `a` reads strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Higher => a > b,
            Better::Lower => a < b,
        }
    }

    /// How much worse `change` is than `parent`, as a share of `parent`
    /// (negative when it is better).
    pub fn worsening(self, parent: f64, change: f64) -> f64 {
        let delta = match self {
            Better::Higher => parent - change,
            Better::Lower => change - parent,
        };
        delta / parent.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of nothing");
    let v = sorted(values);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(2), q(3))
}

/// Distance between the quartiles as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile (`p` in `0..=100`) of unsorted samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let v = sorted(values);
    v[rank(p, v.len()) - 1]
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond it, as `(label, value)`.
pub fn supported_tail(values: &[f64]) -> (&'static str, f64) {
    let n = values.len();
    let mut best = ("p50", percentile(values, 50.0));
    for (label, p) in [("p90", 90.0), ("p99", 99.0), ("p99.9", 99.9)] {
        if n - rank(p, n) >= 10 {
            best = (label, percentile(values, p));
        }
    }
    best
}

/// The comparison rule's verdict for one (metric, workload) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A claimed gain that meets the rule.
    Gain,
    /// A claimed gain that does not meet the rule.
    ClaimNotMet,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound and the change does
    /// not read better on every run.
    Unresolved,
    /// Within the bound.
    Unchanged,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::ClaimNotMet => "claim-not-met",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }

    /// Whether this verdict fails a comparison.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::ClaimNotMet | Verdict::Regressed)
    }
}

/// Fewest parent/change pairs a gain may rest on.
pub const MIN_PAIRS: usize = 10;
/// Share of pairs the change must win to claim a gain.
pub const MIN_WIN_SHARE: f64 = 0.9;

/// Everything the rule looked at, for the report.
#[derive(Debug, Clone)]
pub struct Comparison {
    pub pairs: usize,
    pub wins: usize,
    pub parent_median: f64,
    pub change_median: f64,
    pub parent_quartiles: (f64, f64, f64),
    pub change_quartiles: (f64, f64, f64),
    /// Change vs parent median, as a share of the parent (positive =
    /// worse).
    pub worsening: f64,
    pub verdict: Verdict,
}

/// Compare runs of a parent and a change, given in the order they ran
/// (run `i` of each side forms pair `i`; the sides should alternate).
///
/// A claimed pairing is a gain only with at least [`MIN_PAIRS`] pairs, a
/// win share of at least [`MIN_WIN_SHARE`] (ties count for neither side)
/// and a better median whose gap exceeds the parent's own quartile
/// spread. Any other pairing is regressed when its median is worse by
/// more than `bound`; when either side's spread exceeds `bound` it is
/// unresolved instead, unless every change run beats every parent run.
pub fn compare(
    parent: &[f64],
    change: &[f64],
    better: Better,
    bound: f64,
    claimed: bool,
) -> Comparison {
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better.beats(**c, **p))
        .count();
    let parent_median = median(parent);
    let change_median = median(change);
    let parent_quartiles = quartiles(parent);
    let change_quartiles = quartiles(change);
    let worsening = better.worsening(parent_median, change_median);
    let verdict = if claimed {
        let parent_iqr = parent_quartiles.2 - parent_quartiles.0;
        let share = if pairs == 0 {
            0.0
        } else {
            wins as f64 / pairs as f64
        };
        if pairs >= MIN_PAIRS
            && share >= MIN_WIN_SHARE
            && better.beats(change_median, parent_median)
            && (change_median - parent_median).abs() > parent_iqr
        {
            Verdict::Gain
        } else {
            Verdict::ClaimNotMet
        }
    } else {
        let wide = relative_iqr(parent) > bound || relative_iqr(change) > bound;
        let dominates = change
            .iter()
            .all(|c| parent.iter().all(|p| better.beats(*c, *p)));
        if wide {
            if dominates {
                Verdict::Unchanged
            } else {
                Verdict::Unresolved
            }
        } else if worsening > bound {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        }
    };
    Comparison {
        pairs,
        wins,
        parent_median,
        change_median,
        parent_quartiles,
        change_quartiles,
        worsening,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!(close(q1, 2.75) && close(q2, 5.5) && close(q3, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q2, q3) = quartiles(&[2.0, 1.0]);
        assert!(close(q1, 0.75) && close(q2, 1.5) && close(q3, 2.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            (15.0, 30.0, 45.0)
        );
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_and_relative_iqr() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(relative_iqr(&v), (8.25 - 2.75) / 5.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn supported_tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_tail(&v).0, "p90");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&v).0, "p99");
        assert_eq!(supported_tail(&[1.0, 2.0]).0, "p50");
    }

    /// Ten runs around `center` with a ±1% wobble.
    fn runs(center: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + 0.01 * (f64::from(i % 5) - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn a_clear_claimed_gain_is_a_gain() {
        let c = compare(&runs(100.0), &runs(120.0), Better::Higher, 0.1, true);
        assert_eq!(c.verdict, Verdict::Gain);
        assert_eq!((c.pairs, c.wins), (10, 10));
        let c = compare(&runs(100.0), &runs(80.0), Better::Lower, 0.1, true);
        assert_eq!(c.verdict, Verdict::Gain);
    }

    #[test]
    fn a_claim_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_parent_iqr() {
        let few = compare(
            &runs(100.0)[..9],
            &runs(120.0)[..9],
            Better::Higher,
            0.1,
            true,
        );
        assert_eq!(few.verdict, Verdict::ClaimNotMet, "nine pairs are too few");

        let parent = runs(100.0);
        let mut change = runs(120.0);
        change[0] = 50.0;
        change[1] = 50.0;
        let lost = compare(&parent, &change, Better::Higher, 0.1, true);
        assert_eq!(lost.wins, 8);
        assert_eq!(lost.verdict, Verdict::ClaimNotMet, "8/10 wins is below 0.9");

        // Every pair won, but by less than the parent's own spread.
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 5.0).collect();
        let change: Vec<f64> = parent.iter().map(|p| p + 1.0).collect();
        let small = compare(&parent, &change, Better::Higher, 0.1, true);
        assert_eq!(small.wins, 10);
        assert_eq!(small.verdict, Verdict::ClaimNotMet);
    }

    #[test]
    fn unclaimed_pairings_are_regressed_unchanged_or_unresolved() {
        let regressed = compare(&runs(100.0), &runs(85.0), Better::Higher, 0.1, false);
        assert_eq!(regressed.verdict, Verdict::Regressed);
        assert!(close(regressed.worsening, 0.15));

        let slower = compare(&runs(100.0), &runs(112.0), Better::Lower, 0.1, false);
        assert_eq!(slower.verdict, Verdict::Regressed);

        let same = compare(&runs(100.0), &runs(97.0), Better::Higher, 0.1, false);
        assert_eq!(same.verdict, Verdict::Unchanged);

        // Parent spread of ±40% against a 10% bound: no verdict either way.
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 60.0 } else { 140.0 })
            .collect();
        let unresolved = compare(&noisy, &runs(100.0), Better::Higher, 0.1, false);
        assert_eq!(unresolved.verdict, Verdict::Unresolved);

        // ...unless every change run beats every parent run.
        let dominated = compare(&noisy, &runs(200.0), Better::Higher, 0.1, false);
        assert_eq!(dominated.verdict, Verdict::Unchanged);
    }

    #[test]
    fn verdicts_that_fail_a_comparison() {
        assert!(Verdict::Regressed.fails());
        assert!(Verdict::ClaimNotMet.fails());
        assert!(!Verdict::Unresolved.fails());
        assert!(!Verdict::Gain.fails());
    }
}
