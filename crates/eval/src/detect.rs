//! Voting-based failure detection (§V-A3 and §V-C of the paper).
//!
//! A single anomalous sample is weak evidence — measurement noise alone
//! can produce one. The voting detector therefore checks, at every time
//! point in chronological order, the last `N` consecutive samples and
//! raises an alarm only when the votes agree: more than `N/2` classified
//! as failed (classifier models), or a mean output below a threshold
//! (regression / health-degree models).
//!
//! The detector works against the [`Predictor`] serving interface, so one
//! implementation covers every model family. Scoring is batched: a
//! drive's extractable samples are packed into one [`FeatureMatrix`] and
//! scored with a single [`Predictor::predict_batch`] call before the vote
//! windows are swept.

use crate::model::Predictor;
use hdd_cart::FeatureMatrix;
use hdd_json::{Cursor, Decoded, JsonCodec, JsonError, Value};
use hdd_smart::{Hour, SmartSeries};
use hdd_stats::FeatureSet;

/// How the last `N` scores are combined into an alarm decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VotingRule {
    /// Alarm when more than `N/2` of the last `N` scores are negative
    /// (the paper's rule for the CT and BP ANN classifiers).
    Majority,
    /// Alarm when the mean of the last `N` scores is below the threshold
    /// (the paper's rule for the RT health-degree models, §V-C).
    MeanBelow(f64),
}

impl JsonCodec for VotingRule {
    fn to_json(&self) -> Value {
        match self {
            VotingRule::Majority => Value::Obj(vec![(
                "rule".to_string(),
                Value::Str("majority".to_string()),
            )]),
            VotingRule::MeanBelow(threshold) => Value::Obj(vec![
                ("rule".to_string(), Value::Str("mean_below".to_string())),
                ("threshold".to_string(), Value::Num(*threshold)),
            ]),
        }
    }

    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match value.str_field("rule")? {
            "majority" => Ok(VotingRule::Majority),
            "mean_below" => Ok(VotingRule::MeanBelow(value.f64_field("threshold")?)),
            other => Err(JsonError::new(format!("unknown voting rule `{other}`"))),
        }
    }
}

/// The per-drive voting window as a persistent value: the last `N`
/// scores in a ring buffer plus the combination rule, advanced one
/// sample at a time with [`VotingState::push`].
///
/// This is the state both detection paths share. The batch
/// [`VotingDetector`] drives one `VotingState` over a drive's scored
/// samples; the streaming service keeps one per live drive and
/// checkpoints it through [`JsonCodec`], so a restarted daemon resumes
/// with *exactly* the window the killed one held.
///
/// `push` is O(1) for [`VotingRule::Majority`] (an incremental
/// negative-vote count). For [`VotingRule::MeanBelow`] it re-sums the
/// window oldest-first on every push — O(`voters`), deliberately: a
/// running sum would accumulate different rounding than a fresh
/// oldest-first sum, and alarm decisions must stay bit-identical to the
/// reference sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct VotingState {
    voters: usize,
    rule: VotingRule,
    /// The last `min(len, voters)` scores; chronological order is
    /// `ring[(head + k) % voters]` for `k` in `0..len` once full,
    /// `ring[0..len]` while filling (head stays 0 until the first wrap).
    ring: Vec<f64>,
    /// Index of the oldest score once the ring is full.
    head: usize,
    /// Scores seen so far, saturating at `voters`.
    len: usize,
    /// How many ring scores are negative (failed votes).
    negatives: usize,
}

impl VotingState {
    /// An empty window for `voters` = the paper's `N`.
    ///
    /// # Panics
    ///
    /// Panics if `voters` is zero.
    #[must_use]
    pub fn new(voters: usize, rule: VotingRule) -> Self {
        assert!(voters >= 1, "need at least one voter");
        VotingState {
            voters,
            rule,
            ring: Vec::with_capacity(voters),
            head: 0,
            len: 0,
            negatives: 0,
        }
    }

    /// The voter count `N`.
    #[must_use]
    pub fn voters(&self) -> usize {
        self.voters
    }

    /// The combination rule.
    #[must_use]
    pub fn rule(&self) -> VotingRule {
        self.rule
    }

    /// Scores currently in the window (`≤ voters`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no score has been pushed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the window holds `voters` scores (a vote can pass).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.len == self.voters
    }

    /// The window's scores, oldest first.
    #[must_use]
    pub fn scores(&self) -> Vec<f64> {
        self.chronological().collect()
    }

    /// Advance the window by one score and return whether the vote now
    /// alarms. Always `false` until the window is full.
    pub fn push(&mut self, score: f64) -> bool {
        if self.len < self.voters {
            self.ring.push(score);
            self.len += 1;
            self.negatives += usize::from(score < 0.0);
            if self.len < self.voters {
                return false;
            }
        } else {
            // `head` wraps by compare-and-reset, not `%` — this is the
            // hot path of every batch sweep and the daemon's commit loop.
            self.negatives -= usize::from(self.ring[self.head] < 0.0);
            self.negatives += usize::from(score < 0.0);
            self.ring[self.head] = score;
            self.head += 1;
            if self.head == self.voters {
                self.head = 0;
            }
        }
        match self.rule {
            VotingRule::Majority => 2 * self.negatives > self.voters,
            VotingRule::MeanBelow(threshold) => {
                // Sum afresh, oldest first — see the type-level note on
                // bit-identity.
                let older = &self.ring[self.head..];
                let newer = &self.ring[..self.head];
                let sum: f64 = older.iter().chain(newer).sum();
                sum / (self.voters as f64) < threshold
            }
        }
    }
}

impl VotingState {
    /// The window's scores oldest first, without collecting them: the
    /// ring from `head`, then its start (while filling, `head` is 0 and
    /// the ring holds exactly the scores).
    fn chronological(&self) -> impl Iterator<Item = f64> + '_ {
        let (newer, older) = self.ring.split_at(self.head.min(self.ring.len()));
        older.iter().chain(newer).copied()
    }

    /// A window of `voters` holding `scores`, oldest first.
    fn with_scores(voters: usize, rule: VotingRule, scores: Vec<f64>) -> Result<Self, JsonError> {
        if scores.len() > voters {
            return Err(JsonError::new(format!(
                "{} scores in a {voters}-voter window",
                scores.len()
            )));
        }
        // Rebuild in chronological order: head returns to 0 and the
        // negative count is recomputed, so the restored window behaves
        // identically to the one that was serialized.
        let negatives = scores.iter().filter(|&&s| s < 0.0).count();
        let len = scores.len();
        Ok(VotingState {
            voters,
            rule,
            ring: scores,
            head: 0,
            len,
            negatives,
        })
    }

    /// Append the JSON [`JsonCodec::to_json`] encodes, without building
    /// its tree.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"voters\":");
        hdd_json::write_number(self.voters as f64, out);
        match self.rule {
            VotingRule::Majority => out.push_str(",\"rule\":\"majority\""),
            VotingRule::MeanBelow(threshold) => {
                out.push_str(",\"rule\":\"mean_below\",\"threshold\":");
                hdd_json::write_number(threshold, out);
            }
        }
        out.push_str(",\"scores\":");
        hdd_json::write_list(out, self.chronological(), hdd_json::write_number);
        out.push('}');
    }

    /// Read the window at `cursor` directly: what
    /// [`JsonCodec::from_json`] decodes from the parsed value, with the
    /// same errors.
    ///
    /// # Errors
    ///
    /// The outer error when the text is not JSON; see [`Decoded`].
    pub fn read_json(cursor: &mut Cursor<'_>) -> Decoded<Self> {
        let (mut voters, mut rule, mut threshold) = (None, None, None);
        let (mut scores, mut read) = (Vec::new(), None);
        cursor.object(|key, c| {
            match key {
                "voters" if voters.is_none() => voters = Some(c.number()?),
                "rule" if rule.is_none() => rule = Some(c.string()?),
                "threshold" if threshold.is_none() => threshold = Some(c.number()?),
                "scores" if read.is_none() => read = Some(c.numbers(|n| scores.push(n))?),
                _ => c.skip()?,
            }
            Ok(())
        })?;
        Ok((|| {
            let voters = hdd_json::usize_field(voters, "voters")?;
            if voters == 0 {
                return Err(JsonError::new("voting state needs at least one voter"));
            }
            let rule = match hdd_json::str_field(&rule, "rule")? {
                "majority" => VotingRule::Majority,
                "mean_below" => VotingRule::MeanBelow(hdd_json::f64_field(threshold, "threshold")?),
                other => return Err(JsonError::new(format!("unknown voting rule `{other}`"))),
            };
            hdd_json::numbers_field(read, "scores")?;
            VotingState::with_scores(voters, rule, scores)
        })())
    }
}

impl JsonCodec for VotingState {
    fn to_json(&self) -> Value {
        let mut fields = vec![("voters".to_string(), Value::Num(self.voters as f64))];
        if let Value::Obj(rule_fields) = self.rule.to_json() {
            fields.extend(rule_fields);
        }
        fields.push(("scores".to_string(), Value::from_f64s(self.chronological())));
        Value::Obj(fields)
    }

    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let voters = value.usize_field("voters")?;
        if voters == 0 {
            return Err(JsonError::new("voting state needs at least one voter"));
        }
        let rule = VotingRule::from_json(value)?;
        VotingState::with_scores(voters, rule, value.f64_vec_field("scores")?)
    }
}

/// The voting-based detector: a predictor, a feature extractor, a voter
/// count `N` and a combination rule.
///
/// ```
/// use hdd_eval::{Compile, VotingDetector, VotingRule, Experiment};
/// use hdd_smart::{DatasetGenerator, FamilyProfile};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dataset = DatasetGenerator::new(FamilyProfile::w().scaled(0.01), 3).generate();
/// let experiment = Experiment::builder().voters(5).build()?;
/// let model = experiment.run_ct(&dataset)?.model.compile();
/// let detector =
///     VotingDetector::new(&model, experiment.feature_set(), 5, VotingRule::Majority);
///
/// // Scan a failed drive's recorded window for the first alarm.
/// let spec = dataset.failed_drives().next().expect("failed drives exist");
/// let series = dataset.series(spec);
/// let alarm = detector.first_alarm(&series, dataset.recorded_range(spec));
/// # let _ = alarm;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct VotingDetector<'a, P> {
    predictor: &'a P,
    features: &'a FeatureSet,
    voters: usize,
    rule: VotingRule,
}

impl<'a, P: Predictor> VotingDetector<'a, P> {
    /// Create a detector with `voters` = the paper's `N`.
    ///
    /// # Panics
    ///
    /// Panics if `voters` is zero.
    #[must_use]
    pub fn new(
        predictor: &'a P,
        features: &'a FeatureSet,
        voters: usize,
        rule: VotingRule,
    ) -> Self {
        assert!(voters >= 1, "need at least one voter");
        VotingDetector {
            predictor,
            features,
            voters,
            rule,
        }
    }

    /// Scan `series` chronologically over `range` and return the hour of
    /// the first alarm, or `None` if the drive passes every time point.
    ///
    /// Samples whose features cannot be extracted (missing change-rate
    /// history) do not enter the vote window.
    #[must_use]
    pub fn first_alarm(&self, series: &SmartSeries, range: std::ops::Range<Hour>) -> Option<Hour> {
        let mut hours: Vec<Hour> = Vec::new();
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for (idx, sample) in series.samples().iter().enumerate() {
            let hour = sample.hour;
            if hour < range.start {
                continue;
            }
            if hour >= range.end {
                break;
            }
            if let Some(features) = self.features.extract(series, idx) {
                hours.push(hour);
                rows.push(features);
            }
        }
        // The window never fills: the drive cannot alarm. Checked before
        // building the matrix so an empty scan stays trivially cheap.
        if rows.len() < self.voters {
            return None;
        }

        let matrix = FeatureMatrix::from_rows(rows.iter().map(Vec::as_slice));
        let mut scores = vec![0.0; rows.len()];
        self.predictor.predict_batch(&matrix, &mut scores);

        // One shared ring buffer drives the sweep — the same state the
        // streaming service checkpoints per drive.
        let mut state = VotingState::new(self.voters, self.rule);
        for (i, &score) in scores.iter().enumerate() {
            if state.push(score) {
                return Some(hours[i]);
            }
        }
        None
    }

    /// The voter count `N`.
    #[must_use]
    pub fn voters(&self) -> usize {
        self.voters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdd_smart::{Attribute, DriveClass, DriveId, SmartSample, NUM_ATTRIBUTES};

    /// Scores the RawReadErrorRate value directly: negative when < 50.
    struct ThresholdScorer;

    impl Predictor for ThresholdScorer {
        fn n_features(&self) -> usize {
            1
        }

        fn score(&self, features: &[f64]) -> f64 {
            if features[0] < 50.0 {
                -1.0
            } else {
                1.0
            }
        }
    }

    fn series(values: &[f32]) -> SmartSeries {
        let samples = values
            .iter()
            .enumerate()
            .map(|(i, &v)| SmartSample {
                hour: Hour(i as u32),
                values: [v; NUM_ATTRIBUTES],
            })
            .collect();
        SmartSeries::new(DriveId(0), DriveClass::Good, samples)
    }

    fn feature_set() -> FeatureSet {
        FeatureSet::new(
            "rrer-only",
            vec![hdd_stats::FeatureSpec::Value(Attribute::RawReadErrorRate)],
        )
    }

    #[test]
    fn majority_needs_more_than_half() {
        let fs = feature_set();
        // Scores: good good bad bad bad -> with N=3, first alarm when the
        // window holds [good bad bad] at index 3.
        let s = series(&[100.0, 100.0, 10.0, 10.0, 10.0]);
        let det = VotingDetector::new(&ThresholdScorer, &fs, 3, VotingRule::Majority);
        assert_eq!(det.first_alarm(&s, Hour(0)..Hour(100)), Some(Hour(3)));
    }

    #[test]
    fn single_voter_alarms_immediately() {
        let fs = feature_set();
        let s = series(&[100.0, 10.0, 100.0]);
        let det = VotingDetector::new(&ThresholdScorer, &fs, 1, VotingRule::Majority);
        assert_eq!(det.first_alarm(&s, Hour(0)..Hour(100)), Some(Hour(1)));
    }

    #[test]
    fn transient_blip_is_suppressed_by_voting() {
        let fs = feature_set();
        let mut values = vec![100.0f32; 50];
        values[20] = 10.0; // one-sample excursion
        let s = series(&values);
        let n1 = VotingDetector::new(&ThresholdScorer, &fs, 1, VotingRule::Majority);
        let n5 = VotingDetector::new(&ThresholdScorer, &fs, 5, VotingRule::Majority);
        assert!(n1.first_alarm(&s, Hour(0)..Hour(100)).is_some());
        assert!(n5.first_alarm(&s, Hour(0)..Hour(100)).is_none());
    }

    #[test]
    fn range_limits_scan() {
        let fs = feature_set();
        let s = series(&[10.0, 10.0, 10.0, 100.0, 100.0]);
        let det = VotingDetector::new(&ThresholdScorer, &fs, 1, VotingRule::Majority);
        assert_eq!(det.first_alarm(&s, Hour(3)..Hour(5)), None);
        assert_eq!(det.first_alarm(&s, Hour(1)..Hour(3)), Some(Hour(1)));
    }

    #[test]
    fn not_enough_samples_never_alarms() {
        let fs = feature_set();
        let s = series(&[10.0, 10.0]);
        let det = VotingDetector::new(&ThresholdScorer, &fs, 5, VotingRule::Majority);
        assert_eq!(det.first_alarm(&s, Hour(0)..Hour(100)), None);
    }

    #[test]
    fn mean_below_rule() {
        struct Identity;
        impl Predictor for Identity {
            fn n_features(&self) -> usize {
                1
            }
            fn score(&self, f: &[f64]) -> f64 {
                f[0]
            }
        }
        let fs = feature_set();
        // Values drift down; mean of last 3 crosses below 0.5 once the
        // window holds [1, 0.2, 0.1] -> mean 0.433.
        let s = series(&[1.0, 1.0, 1.0, 0.2, 0.1, 0.0]);
        let det = VotingDetector::new(&Identity, &fs, 3, VotingRule::MeanBelow(0.5));
        assert_eq!(det.first_alarm(&s, Hour(0)..Hour(100)), Some(Hour(4)));
    }

    #[test]
    fn alarm_hour_matches_a_per_sample_rescan() {
        // The batch sweep must agree with a naive one-at-a-time window
        // walk for both rules and several voter counts.
        let fs = feature_set();
        let values: Vec<f32> = (0..60)
            .map(|i| if (i * 7) % 13 < 5 { 10.0 } else { 100.0 })
            .collect();
        let s = series(&values);
        for voters in [1, 2, 3, 5, 8] {
            for rule in [VotingRule::Majority, VotingRule::MeanBelow(0.0)] {
                let det = VotingDetector::new(&ThresholdScorer, &fs, voters, rule);
                let got = det.first_alarm(&s, Hour(0)..Hour(1000));
                let want = naive_first_alarm(&s, &fs, voters, rule);
                assert_eq!(got, want, "voters={voters} rule={rule:?}");
            }
        }
    }

    fn naive_first_alarm(
        series: &SmartSeries,
        fs: &FeatureSet,
        voters: usize,
        rule: VotingRule,
    ) -> Option<Hour> {
        let mut window: Vec<f64> = Vec::new();
        for (idx, sample) in series.samples().iter().enumerate() {
            let Some(features) = fs.extract(series, idx) else {
                continue;
            };
            window.push(ThresholdScorer.score(&features));
            if window.len() < voters {
                continue;
            }
            let tail = &window[window.len() - voters..];
            let alarm = match rule {
                VotingRule::Majority => 2 * tail.iter().filter(|&&v| v < 0.0).count() > voters,
                VotingRule::MeanBelow(t) => tail.iter().sum::<f64>() / (voters as f64) < t,
            };
            if alarm {
                return Some(sample.hour);
            }
        }
        None
    }

    #[test]
    #[should_panic(expected = "at least one voter")]
    fn zero_voters_panics() {
        let fs = feature_set();
        let _ = VotingDetector::new(&ThresholdScorer, &fs, 0, VotingRule::Majority);
    }

    #[test]
    #[should_panic(expected = "at least one voter")]
    fn zero_voter_state_panics() {
        let _ = VotingState::new(0, VotingRule::Majority);
    }

    /// The pre-refactor batch sweep, kept verbatim as the reference the
    /// ring buffer must match bit-for-bit: per-window alarm decisions
    /// over a full score stream.
    fn legacy_sweep(scores: &[f64], voters: usize, rule: VotingRule) -> Vec<bool> {
        let mut alarms = vec![false; scores.len()];
        if scores.len() < voters {
            return alarms;
        }
        match rule {
            VotingRule::Majority => {
                let mut failed_votes = scores[..voters].iter().filter(|&&s| s < 0.0).count();
                for end in voters - 1..scores.len() {
                    if end >= voters {
                        failed_votes += usize::from(scores[end] < 0.0);
                        failed_votes -= usize::from(scores[end - voters] < 0.0);
                    }
                    alarms[end] = 2 * failed_votes > voters;
                }
            }
            VotingRule::MeanBelow(threshold) => {
                for end in voters - 1..scores.len() {
                    let window = &scores[end + 1 - voters..=end];
                    let mean = window.iter().sum::<f64>() / voters as f64;
                    alarms[end] = mean < threshold;
                }
            }
        }
        alarms
    }

    /// Deterministic score stream in roughly [-1, 1] with awkward
    /// magnitudes so MeanBelow sums are rounding-sensitive.
    fn score_stream(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as f64 / u64::MAX as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn ring_buffer_is_bit_identical_to_the_legacy_sweep() {
        for seed in 0..10u64 {
            let scores = score_stream(seed, 300);
            for voters in [1, 2, 3, 7, 12, 48] {
                for rule in [
                    VotingRule::Majority,
                    VotingRule::MeanBelow(0.0),
                    VotingRule::MeanBelow(-0.037),
                    VotingRule::MeanBelow(0.014),
                ] {
                    let want = legacy_sweep(&scores, voters, rule);
                    let mut state = VotingState::new(voters, rule);
                    let got: Vec<bool> = scores.iter().map(|&s| state.push(s)).collect();
                    assert_eq!(got, want, "seed={seed} voters={voters} rule={rule:?}");
                }
            }
        }
    }

    #[test]
    fn state_fills_before_it_votes() {
        let mut state = VotingState::new(3, VotingRule::Majority);
        assert!(state.is_empty());
        assert!(!state.push(-1.0));
        assert!(!state.push(-1.0), "window not full yet");
        assert_eq!(state.len(), 2);
        assert!(!state.is_full());
        assert!(state.push(-1.0), "3 of 3 negative");
        assert!(state.is_full());
        assert!(state.push(1.0), "still 2 of 3 negative");
        assert!(!state.push(1.0), "now 1 of 3 negative");
        assert_eq!(state.scores(), vec![-1.0, 1.0, 1.0]);
    }

    #[test]
    fn serialized_state_resumes_bit_identically() {
        for rule in [VotingRule::Majority, VotingRule::MeanBelow(0.009)] {
            for split in [0usize, 3, 7, 20, 41] {
                let scores = score_stream(99, 60);
                // Uninterrupted run.
                let mut whole = VotingState::new(7, rule);
                let want: Vec<bool> = scores.iter().map(|&s| whole.push(s)).collect();
                // Run to `split`, serialize, reload, continue.
                let mut first = VotingState::new(7, rule);
                let mut got: Vec<bool> = scores[..split].iter().map(|&s| first.push(s)).collect();
                let text = hdd_json::to_string(&first.to_json());
                let mut second = VotingState::from_json(&hdd_json::parse(&text).unwrap()).unwrap();
                got.extend(scores[split..].iter().map(|&s| second.push(s)));
                assert_eq!(got, want, "rule={rule:?} split={split}");
            }
        }
    }

    #[test]
    fn state_json_rejects_bad_shapes() {
        let bad_rule = hdd_json::parse(r#"{"voters":3,"rule":"plurality","scores":[]}"#).unwrap();
        assert!(VotingState::from_json(&bad_rule).is_err());
        let zero = hdd_json::parse(r#"{"voters":0,"rule":"majority","scores":[]}"#).unwrap();
        assert!(VotingState::from_json(&zero).is_err());
        let overfull =
            hdd_json::parse(r#"{"voters":2,"rule":"majority","scores":[1,2,3]}"#).unwrap();
        assert!(VotingState::from_json(&overfull).is_err());
        let missing_threshold =
            hdd_json::parse(r#"{"voters":2,"rule":"mean_below","scores":[]}"#).unwrap();
        assert!(VotingState::from_json(&missing_threshold).is_err());
    }

    #[test]
    fn rule_json_round_trips() {
        for rule in [VotingRule::Majority, VotingRule::MeanBelow(-0.25)] {
            let text = hdd_json::to_string(&rule.to_json());
            assert_eq!(
                VotingRule::from_json(&hdd_json::parse(&text).unwrap()).unwrap(),
                rule
            );
        }
    }
}
