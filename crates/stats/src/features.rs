//! Named feature sets and feature-vector extraction.
//!
//! A *feature* is either the current value of a SMART attribute or a
//! change rate over an interval. The paper compares three sets
//! (Table III): the 12 **basic** features of Table II, the 13 **critical**
//! features chosen by statistical testing, and the 19 features chosen **by
//! expertise** in the authors' earlier BP ANN work.

use crate::change_rate::change_rate_at;
use hdd_smart::{Attribute, SmartSample, SmartSeries, BASIC_ATTRIBUTES};
use std::fmt;

/// One model input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FeatureSpec {
    /// The attribute's current value.
    Value(Attribute),
    /// The attribute's change over the last `interval_hours`.
    ChangeRate {
        /// Attribute whose change is measured.
        attr: Attribute,
        /// Interval in hours (6 in the paper's selected features).
        interval_hours: u32,
    },
}

impl FeatureSpec {
    /// Hours of history needed before this feature is defined.
    #[must_use]
    pub fn lookback_hours(self) -> u32 {
        match self {
            FeatureSpec::Value(_) => 0,
            FeatureSpec::ChangeRate { interval_hours, .. } => 2 * interval_hours,
        }
    }

    /// Evaluate the feature at sample `idx` of `samples`, a drive's
    /// chronological history.
    ///
    /// Returns `None` if a change rate lacks history at that sample.
    #[must_use]
    pub fn evaluate(self, samples: &[SmartSample], idx: usize) -> Option<f64> {
        match self {
            FeatureSpec::Value(attr) => Some(samples[idx].value(attr)),
            FeatureSpec::ChangeRate {
                attr,
                interval_hours,
            } => change_rate_at(samples, idx, attr, interval_hours),
        }
    }
}

impl fmt::Display for FeatureSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeatureSpec::Value(attr) => write!(f, "{}", attr.mnemonic()),
            FeatureSpec::ChangeRate {
                attr,
                interval_hours,
            } => write!(f, "Δ{}h({})", interval_hours, attr.mnemonic()),
        }
    }
}

/// An ordered set of features defining a model's input vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureSet {
    name: String,
    features: Vec<FeatureSpec>,
}

impl FeatureSet {
    /// Build a custom feature set.
    ///
    /// # Panics
    ///
    /// Panics if `features` is empty or contains duplicates.
    #[must_use]
    pub fn new(name: impl Into<String>, features: Vec<FeatureSpec>) -> Self {
        assert!(!features.is_empty(), "feature set must not be empty");
        let mut seen = std::collections::BTreeSet::new();
        for f in &features {
            assert!(seen.insert(*f), "duplicate feature {f}");
        }
        FeatureSet {
            name: name.into(),
            features,
        }
    }

    /// The 12 basic features of Table II (all attribute values, no change
    /// rates).
    #[must_use]
    pub fn basic12() -> Self {
        FeatureSet::new(
            "basic-12",
            BASIC_ATTRIBUTES
                .iter()
                .map(|&a| FeatureSpec::Value(a))
                .collect(),
        )
    }

    /// The 13 critical features selected by the statistical tests (§IV-B):
    ///
    /// ```
    /// use hdd_smart::{DatasetGenerator, FamilyProfile};
    /// use hdd_stats::FeatureSet;
    ///
    /// let set = FeatureSet::critical13();
    /// let dataset = DatasetGenerator::new(FamilyProfile::w().scaled(0.001), 1).generate();
    /// let series = dataset.series(&dataset.drives()[0]);
    /// let features = set.extract(&series, 100).expect("history available");
    /// assert_eq!(features.len(), 13);
    /// ```
    ///
    /// nine normalized values, the raw *Reallocated Sectors Count*, and the
    /// 6-hour change rates of *Raw Read Error Rate*, *Hardware ECC
    /// Recovered* and *Reallocated Sectors Count (raw)*. Both *Current
    /// Pending Sector Count* features are rejected.
    #[must_use]
    pub fn critical13() -> Self {
        use Attribute as A;
        let mut features: Vec<FeatureSpec> = BASIC_ATTRIBUTES
            .iter()
            .filter(|a| !matches!(a, A::CurrentPendingSector | A::CurrentPendingSectorRaw))
            .map(|&a| FeatureSpec::Value(a))
            .collect();
        for attr in [
            A::RawReadErrorRate,
            A::HardwareEccRecovered,
            A::ReallocatedSectorsRaw,
        ] {
            features.push(FeatureSpec::ChangeRate {
                attr,
                interval_hours: 6,
            });
        }
        FeatureSet::new("critical-13", features)
    }

    /// The 19 features chosen by expertise in the authors' earlier work
    /// (MSST'13). The exact list is not published; we reconstruct it as the
    /// 12 basic features plus the 1-hour change rates of the seven
    /// attributes an operator would watch. What matters for Table III is
    /// that the set is larger, partially redundant, and keeps the
    /// uninformative *Current Pending Sector Count* features.
    #[must_use]
    pub fn expertise19() -> Self {
        use Attribute as A;
        let mut features: Vec<FeatureSpec> = BASIC_ATTRIBUTES
            .iter()
            .map(|&a| FeatureSpec::Value(a))
            .collect();
        for attr in [
            A::RawReadErrorRate,
            A::SpinUpTime,
            A::ReallocatedSectors,
            A::SeekErrorRate,
            A::HardwareEccRecovered,
            A::ReallocatedSectorsRaw,
            A::CurrentPendingSectorRaw,
        ] {
            features.push(FeatureSpec::ChangeRate {
                attr,
                interval_hours: 1,
            });
        }
        FeatureSet::new("expertise-19", features)
    }

    /// Set name (used in reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The features, in input-vector order.
    #[must_use]
    pub fn features(&self) -> &[FeatureSpec] {
        &self.features
    }

    /// Input-vector dimensionality.
    #[must_use]
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// `false`; kept for API completeness ([`FeatureSet::new`] rejects
    /// empty sets).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Hours of history a sample needs before every feature is defined.
    #[must_use]
    pub fn max_lookback_hours(&self) -> u32 {
        self.features
            .iter()
            .map(|f| f.lookback_hours())
            .max()
            .unwrap_or(0)
    }

    /// Extract the feature vector at sample `idx` of `series`, or `None`
    /// if any change rate lacks history there.
    #[must_use]
    pub fn extract(&self, series: &SmartSeries, idx: usize) -> Option<Vec<f64>> {
        let mut out = Vec::with_capacity(self.features.len());
        self.extract_into(series.samples(), idx, &mut out)
            .then_some(out)
    }

    /// [`FeatureSet::extract`] over a drive's chronological history held
    /// as a bare slice, as the serve engine keeps it, into `out`. `out`
    /// is cleared first, so a caller that reuses one vector extracts
    /// every row without allocating. Returns `false` (leaving `out`
    /// partly filled) if any change rate lacks history.
    pub fn extract_into(&self, samples: &[SmartSample], idx: usize, out: &mut Vec<f64>) -> bool {
        out.clear();
        for f in &self.features {
            let Some(value) = f.evaluate(samples, idx) else {
                return false;
            };
            out.push(value);
        }
        true
    }

    /// Human-readable feature names, in input-vector order.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.features.iter().map(ToString::to_string).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdd_smart::{DatasetGenerator, FamilyProfile};

    #[test]
    fn named_sets_have_documented_sizes() {
        assert_eq!(FeatureSet::basic12().len(), 12);
        assert_eq!(FeatureSet::critical13().len(), 13);
        assert_eq!(FeatureSet::expertise19().len(), 19);
    }

    #[test]
    fn critical13_rejects_pending_sector_features() {
        let set = FeatureSet::critical13();
        for f in set.features() {
            if let FeatureSpec::Value(a) = f {
                assert!(!matches!(
                    a,
                    Attribute::CurrentPendingSector | Attribute::CurrentPendingSectorRaw
                ));
            }
        }
    }

    #[test]
    fn critical13_has_three_six_hour_change_rates() {
        let n = FeatureSet::critical13()
            .features()
            .iter()
            .filter(|f| {
                matches!(
                    f,
                    FeatureSpec::ChangeRate {
                        interval_hours: 6,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(n, 3);
    }

    #[test]
    fn lookback_accounts_for_change_rates() {
        assert_eq!(FeatureSet::basic12().max_lookback_hours(), 0);
        assert_eq!(FeatureSet::critical13().max_lookback_hours(), 12);
    }

    #[test]
    fn extraction_dimensionality() {
        let ds = DatasetGenerator::new(FamilyProfile::w().scaled(0.001), 5).generate();
        let series = ds.series(&ds.drives()[0]);
        let set = FeatureSet::critical13();
        // Early samples lack change-rate history.
        assert_eq!(set.extract(&series, 0), None);
        let vec = set.extract(&series, 50).expect("history available");
        assert_eq!(vec.len(), 13);
        assert!(vec.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "duplicate feature")]
    fn rejects_duplicates() {
        let _ = FeatureSet::new(
            "dup",
            vec![
                FeatureSpec::Value(Attribute::SpinUpTime),
                FeatureSpec::Value(Attribute::SpinUpTime),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn rejects_empty() {
        let _ = FeatureSet::new("empty", vec![]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            FeatureSpec::Value(Attribute::PowerOnHours).to_string(),
            "POH"
        );
        assert_eq!(
            FeatureSpec::ChangeRate {
                attr: Attribute::RawReadErrorRate,
                interval_hours: 6
            }
            .to_string(),
            "Δ6h(RRER)"
        );
    }

    #[test]
    fn names_match_len() {
        let set = FeatureSet::expertise19();
        assert_eq!(set.names().len(), set.len());
    }
}
