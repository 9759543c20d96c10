//! Attribute change rates over a time interval.
//!
//! The paper augments raw attribute values with *change rates* — how much
//! an attribute moved over the last `interval` hours — and finds by
//! statistical testing that the 6-hour change rates of *Raw Read Error
//! Rate*, *Hardware ECC Recovered* and *Reallocated Sectors Count (raw)*
//! carry predictive signal (§IV-B).

use hdd_smart::{Attribute, SmartSample};

/// The change of `attr` over the last `interval_hours` at sample `idx` of
/// `samples`, a drive's chronological history.
///
/// The reference sample is the most recent one at least `interval_hours`
/// old; because samples can be missing, the observed difference is
/// rescaled to exactly `interval_hours`. Returns `None` when no reference
/// sample exists within `2 * interval_hours` (not enough history).
///
/// # Panics
///
/// Panics if `idx` is out of bounds or `interval_hours` is zero.
#[must_use]
pub fn change_rate_at(
    samples: &[SmartSample],
    idx: usize,
    attr: Attribute,
    interval_hours: u32,
) -> Option<f64> {
    assert!(interval_hours > 0, "interval must be positive");
    let current = &samples[idx];
    let target = current.hour.0.checked_sub(interval_hours)?;
    // Most recent sample at hour <= target, searching backwards from idx
    // while it lies within `2 * interval_hours`. Samples increase in
    // time, so the distance cannot underflow (a sum could overflow).
    let reference = samples[..idx]
        .iter()
        .rev()
        .take_while(|s| current.hour.0 - s.hour.0 <= 2 * interval_hours)
        .find(|s| s.hour.0 <= target)?;
    let elapsed = f64::from(current.hour.0 - reference.hour.0);
    let delta = current.value(attr) - reference.value(attr);
    Some(delta * f64::from(interval_hours) / elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdd_smart::{DriveClass, DriveId, Hour, SmartSeries, NUM_ATTRIBUTES};

    fn series_from(hours_values: &[(u32, f32)]) -> SmartSeries {
        let samples = hours_values
            .iter()
            .map(|&(h, v)| SmartSample {
                hour: Hour(h),
                values: [v; NUM_ATTRIBUTES],
            })
            .collect();
        SmartSeries::new(DriveId(0), DriveClass::Good, samples)
    }

    #[test]
    fn exact_interval() {
        let s = series_from(&[(0, 10.0), (6, 16.0)]);
        let cr = change_rate_at(s.samples(), 1, Attribute::RawReadErrorRate, 6).unwrap();
        assert!((cr - 6.0).abs() < 1e-9);
    }

    #[test]
    fn rescales_when_reference_is_older() {
        // Reference is 12h old; delta 12 over 12h -> 6 per 6h.
        let s = series_from(&[(0, 10.0), (12, 22.0)]);
        let cr = change_rate_at(s.samples(), 1, Attribute::RawReadErrorRate, 6).unwrap();
        assert!((cr - 6.0).abs() < 1e-9);
    }

    #[test]
    fn none_without_history() {
        let s = series_from(&[(0, 10.0), (3, 12.0)]);
        assert!(change_rate_at(s.samples(), 0, Attribute::RawReadErrorRate, 6).is_none());
        assert!(change_rate_at(s.samples(), 1, Attribute::RawReadErrorRate, 6).is_none());
    }

    #[test]
    fn none_when_gap_too_large() {
        // Reference would be 20h old for a 6h interval: outside tolerance.
        let s = series_from(&[(0, 10.0), (20, 30.0)]);
        assert!(change_rate_at(s.samples(), 1, Attribute::RawReadErrorRate, 6).is_none());
    }

    #[test]
    fn picks_most_recent_eligible_reference() {
        let s = series_from(&[(0, 0.0), (2, 100.0), (8, 112.0)]);
        // target hour = 2; sample at hour 2 qualifies (not hour 0).
        let cr = change_rate_at(s.samples(), 2, Attribute::RawReadErrorRate, 6).unwrap();
        assert!((cr - 12.0).abs() < 1e-9);
    }

    #[test]
    fn works_at_the_end_of_time() {
        let top = u32::MAX;
        let s = series_from(&[
            (top - 13, 0.0),
            (top - 6, 7.0),
            (top - 1, 12.0),
            (top, 14.0),
        ]);
        // The reference is the sample at top - 6; the one 13 h back lies
        // outside the 12 h search bound.
        let cr = change_rate_at(s.samples(), 3, Attribute::RawReadErrorRate, 6).unwrap();
        assert!((cr - 7.0).abs() < 1e-9);
        let s = series_from(&[(top - 13, 0.0), (top, 14.0)]);
        assert!(change_rate_at(s.samples(), 1, Attribute::RawReadErrorRate, 6).is_none());
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_interval_panics() {
        let s = series_from(&[(0, 1.0), (6, 2.0)]);
        let _ = change_rate_at(s.samples(), 1, Attribute::RawReadErrorRate, 0);
    }
}
