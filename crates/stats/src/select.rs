//! The statistical feature-selection pipeline (§IV-B of the paper).
//!
//! Candidate features (attribute values and change rates) are scored by
//! three non-parametric statistics comparing failed-drive samples against
//! good-drive samples; features whose rank-sum separation clears a
//! threshold are kept, and the strongest change rates are added.

use crate::features::{FeatureSet, FeatureSpec};
use crate::ranksum::rank_sum_z;
use crate::revarr::reverse_arrangements_z;
use crate::zscore::two_sample_z;
use hdd_smart::rng::DeterministicRng;
use hdd_smart::{Attribute, Dataset, SmartSeries, BASIC_ATTRIBUTES};

/// Configuration of the selection pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionConfig {
    /// Samples within this many hours before failure form the failed
    /// population.
    pub failed_window_hours: u32,
    /// Random good samples taken per good drive.
    pub good_samples_per_drive: usize,
    /// Cap on the number of good drives examined (for speed; the sampling
    /// is deterministic in `seed`).
    pub max_good_drives: usize,
    /// Minimum |rank-sum z| for a feature to be kept.
    pub z_threshold: f64,
    /// Change-rate intervals (hours) to evaluate.
    pub change_rate_intervals: Vec<u32>,
    /// Number of change-rate features to keep (the strongest ones).
    pub change_rates_to_keep: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig {
            failed_window_hours: 168,
            good_samples_per_drive: 3,
            max_good_drives: 2_000,
            z_threshold: 3.5,
            change_rate_intervals: vec![6],
            change_rates_to_keep: 3,
            seed: 0x005E_1EC7,
        }
    }
}

/// The three statistics and the verdict for one candidate feature.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureScore {
    /// The candidate.
    pub feature: FeatureSpec,
    /// Wilcoxon rank-sum z between failed and good samples (the primary
    /// criterion).
    pub rank_sum: f64,
    /// Two-sample z-score between the populations.
    pub z_score: f64,
    /// Mean reverse-arrangements z over failed-drive series minus the same
    /// over good-drive series (trend excess; value features only).
    pub trend: f64,
    /// Whether the pipeline kept the feature.
    pub selected: bool,
}

/// Run feature selection on `dataset`.
///
/// Returns the selected [`FeatureSet`] together with every candidate's
/// scores (for reporting).
///
/// # Panics
///
/// Panics if the dataset has no failed drives with enough history.
#[must_use]
pub fn select_features(
    dataset: &Dataset,
    config: &SelectionConfig,
) -> (FeatureSet, Vec<FeatureScore>) {
    let populations = Populations::collect(dataset, config);
    assert!(
        !populations.failed_series.is_empty(),
        "feature selection needs failed drives"
    );

    let mut scores = Vec::new();
    let mut selected = Vec::new();

    // Value features: keep those clearing the rank-sum threshold.
    for attr in BASIC_ATTRIBUTES {
        let feature = FeatureSpec::Value(attr);
        let failed = populations.feature_values(feature, true);
        let good = populations.feature_values(feature, false);
        let rs = rank_sum_z(&failed, &good);
        let z = two_sample_z(&failed, &good);
        let trend = populations.trend_excess(attr);
        let keep = rs.abs() >= config.z_threshold;
        if keep {
            selected.push(feature);
        }
        scores.push(FeatureScore {
            feature,
            rank_sum: rs,
            z_score: z,
            trend,
            selected: keep,
        });
    }

    // Change-rate features: rank every (attribute, interval) candidate and
    // keep the strongest `change_rates_to_keep` that clear the threshold.
    let mut cr_scores = Vec::new();
    for &interval_hours in &config.change_rate_intervals {
        for attr in BASIC_ATTRIBUTES {
            let feature = FeatureSpec::ChangeRate {
                attr,
                interval_hours,
            };
            let failed = populations.feature_values(feature, true);
            let good = populations.feature_values(feature, false);
            let rs = rank_sum_z(&failed, &good);
            let z = two_sample_z(&failed, &good);
            cr_scores.push(FeatureScore {
                feature,
                rank_sum: rs,
                z_score: z,
                trend: 0.0,
                selected: false,
            });
        }
    }
    cr_scores.sort_by(|a, b| b.rank_sum.abs().total_cmp(&a.rank_sum.abs()));
    for (i, score) in cr_scores.iter_mut().enumerate() {
        score.selected =
            i < config.change_rates_to_keep && score.rank_sum.abs() >= config.z_threshold;
        if score.selected {
            selected.push(score.feature);
        }
    }
    scores.extend(cr_scores);

    (FeatureSet::new("statistical", selected), scores)
}

/// The two sample populations used for scoring.
struct Populations {
    failed_series: Vec<SmartSeries>,
    /// Per failed series, the eligible sample indices (inside the failed
    /// window, enough lookback).
    failed_indices: Vec<Vec<usize>>,
    good_series: Vec<SmartSeries>,
    good_indices: Vec<Vec<usize>>,
}

impl Populations {
    fn collect(dataset: &Dataset, config: &SelectionConfig) -> Self {
        let lookback = 2 * config
            .change_rate_intervals
            .iter()
            .copied()
            .max()
            .unwrap_or(6);
        let mut failed_series = Vec::new();
        let mut failed_indices = Vec::new();
        for spec in dataset.failed_drives() {
            let series = dataset.series(spec);
            if series.len() < lookback as usize + 2 {
                continue;
            }
            // `failed_drives()` only yields drives with a fail hour;
            // skip rather than die if a hand-built dataset lies.
            let Some(fail) = spec.class.fail_hour() else {
                continue;
            };
            let window_start = fail - config.failed_window_hours;
            let first_hour = series.samples()[0].hour;
            let indices: Vec<usize> = (0..series.len())
                .filter(|&i| {
                    let h = series.samples()[i].hour;
                    h >= window_start && h.saturating_since(first_hour) >= lookback
                })
                .collect();
            if !indices.is_empty() {
                failed_indices.push(indices);
                failed_series.push(series);
            }
        }

        let rng = DeterministicRng::new(config.seed);
        let mut good_series = Vec::new();
        let mut good_indices = Vec::new();
        for spec in dataset.good_drives().take(config.max_good_drives) {
            let series = dataset.series(spec);
            if series.len() < lookback as usize + 2 {
                continue;
            }
            let eligible = lookback as usize..series.len();
            let picks: Vec<usize> = (0..config.good_samples_per_drive)
                .map(|k| {
                    let u = rng.uniform(u64::from(spec.id.0), k as u64);
                    eligible.start + (u * (eligible.end - eligible.start) as f64) as usize
                })
                .collect();
            good_indices.push(picks);
            good_series.push(series);
        }

        Populations {
            failed_series,
            failed_indices,
            good_series,
            good_indices,
        }
    }

    fn feature_values(&self, feature: FeatureSpec, failed: bool) -> Vec<f64> {
        let (series, indices) = if failed {
            (&self.failed_series, &self.failed_indices)
        } else {
            (&self.good_series, &self.good_indices)
        };
        let mut out = Vec::new();
        for (s, idxs) in series.iter().zip(indices) {
            for &i in idxs {
                if let Some(v) = feature.evaluate(s.samples(), i) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Mean reverse-arrangements trend z over failed series minus over
    /// good series, for `attr`.
    fn trend_excess(&self, attr: Attribute) -> f64 {
        let mean_trend = |series: &[SmartSeries]| {
            let zs: Vec<f64> = series
                .iter()
                .take(50)
                .map(|s| {
                    let values: Vec<f64> = s.attribute_series(attr).map(|(_, v)| v).collect();
                    reverse_arrangements_z(&values)
                })
                .collect();
            crate::summary::mean(&zs)
        };
        mean_trend(&self.failed_series) - mean_trend(&self.good_series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdd_smart::{DatasetGenerator, FamilyProfile};

    fn dataset() -> Dataset {
        DatasetGenerator::new(FamilyProfile::w().scaled(0.06), 7).generate()
    }

    #[test]
    fn rejects_pending_sector_features() {
        let (set, scores) = select_features(&dataset(), &SelectionConfig::default());
        for f in set.features() {
            if let FeatureSpec::Value(a) = f {
                assert!(
                    !matches!(
                        a,
                        Attribute::CurrentPendingSector | Attribute::CurrentPendingSectorRaw
                    ),
                    "pending-sector feature selected"
                );
            }
        }
        // And their scores are indeed weak.
        for s in &scores {
            if let FeatureSpec::Value(Attribute::CurrentPendingSector) = s.feature {
                assert!(s.rank_sum.abs() < 3.5, "rank_sum {}", s.rank_sum);
            }
        }
    }

    #[test]
    fn keeps_strong_attributes() {
        let (set, _) = select_features(&dataset(), &SelectionConfig::default());
        let has = |a: Attribute| {
            set.features()
                .iter()
                .any(|f| matches!(f, FeatureSpec::Value(x) if *x == a))
        };
        assert!(has(Attribute::PowerOnHours));
        assert!(has(Attribute::RawReadErrorRate));
        assert!(has(Attribute::ReallocatedSectorsRaw));
    }

    #[test]
    fn keeps_requested_number_of_change_rates() {
        let config = SelectionConfig::default();
        let (set, _) = select_features(&dataset(), &config);
        let n_cr = set
            .features()
            .iter()
            .filter(|f| matches!(f, FeatureSpec::ChangeRate { .. }))
            .count();
        assert_eq!(n_cr, config.change_rates_to_keep);
    }

    #[test]
    fn reallocated_raw_change_rate_is_strongest() {
        let (set, _) = select_features(&dataset(), &SelectionConfig::default());
        assert!(
            set.features().iter().any(|f| matches!(
                f,
                FeatureSpec::ChangeRate {
                    attr: Attribute::ReallocatedSectorsRaw,
                    ..
                }
            )),
            "the raw reallocated-sectors change rate must be selected"
        );
    }

    #[test]
    fn reproduces_the_papers_critical_set() {
        // On the default family-W population, the statistical pipeline
        // reproduces the paper's 13 critical features.
        let (set, _) = select_features(&dataset(), &SelectionConfig::default());
        let expected = FeatureSet::critical13();
        let mut got: Vec<String> = set.names();
        let mut want: Vec<String> = expected.names();
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn scores_cover_all_candidates() {
        let config = SelectionConfig::default();
        let (_, scores) = select_features(&dataset(), &config);
        let expected = BASIC_ATTRIBUTES.len() * (1 + config.change_rate_intervals.len());
        assert_eq!(scores.len(), expected);
    }

    #[test]
    fn selection_is_deterministic() {
        let (a, _) = select_features(&dataset(), &SelectionConfig::default());
        let (b, _) = select_features(&dataset(), &SelectionConfig::default());
        assert_eq!(a, b);
    }
}
