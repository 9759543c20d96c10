//! Failure modes and their SMART attribute signatures.
//!
//! Hard drives do not fail abruptly (with rare exceptions): a latent defect
//! accumulates and leaks into the SMART telemetry over days to weeks. The
//! paper's whole premise — in particular the health-degree model built on
//! deterioration windows — rests on this gradual process. We model it as a
//! per-drive latent deterioration level `z ∈ [0, 1]` that ramps from the
//! deterioration onset to the failure event, and a per-failure-mode
//! *signature* mapping `z` to shifts of individual attributes.

use crate::attr::{Attribute, NUM_ATTRIBUTES};

/// The dominant physical cause of a drive failure.
///
/// The mode determines *which* attributes react during deterioration, which
/// is what makes the classification tree's rules interpretable ("Q drives
/// fail with high seek error rate", §V-B1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureMode {
    /// Growing media defects: sectors get remapped, read errors climb.
    MediaDefects,
    /// Mechanical wear of the spindle/head assembly: spin-up slows, seek
    /// errors and high-fly writes increase.
    MechanicalWear,
    /// Thermal stress: the drive runs hot, seeks and reads degrade.
    Thermal,
    /// Electronics/firmware faults: uncorrectable errors reported to the
    /// host, ECC works overtime.
    Electronic,
}

/// All failure modes.
pub const ALL_FAILURE_MODES: [FailureMode; 4] = [
    FailureMode::MediaDefects,
    FailureMode::MechanicalWear,
    FailureMode::Thermal,
    FailureMode::Electronic,
];

/// Attribute shifts at full deterioration (`z = 1`).
///
/// Normalized attributes are shifted *down* by `normalized[i] * z`;
/// raw counters are increased by `raw[i] * z^1.3` (monotonically, the way
/// real error counters only ever grow).
#[derive(Debug, Clone, PartialEq)]
pub struct ModeSignature {
    /// Downward shift of each normalized attribute at `z = 1`.
    pub normalized: [f64; NUM_ATTRIBUTES],
    /// Increase of each raw counter at `z = 1`.
    pub raw: [f64; NUM_ATTRIBUTES],
}

impl ModeSignature {
    fn zero() -> Self {
        ModeSignature {
            normalized: [0.0; NUM_ATTRIBUTES],
            raw: [0.0; NUM_ATTRIBUTES],
        }
    }

    fn with_normalized(mut self, attr: Attribute, shift: f64) -> Self {
        self.normalized[attr.index()] = shift;
        self
    }

    fn with_raw(mut self, attr: Attribute, growth: f64) -> Self {
        self.raw[attr.index()] = growth;
        self
    }
}

impl FailureMode {
    /// The attribute signature of this mode, as used by family "W".
    ///
    /// Family profiles may scale these (see
    /// [`FamilyProfile`](crate::FamilyProfile)).
    #[must_use]
    pub fn signature(self) -> ModeSignature {
        use Attribute as A;
        match self {
            FailureMode::MediaDefects => ModeSignature::zero()
                .with_normalized(A::ReallocatedSectors, 65.0)
                .with_normalized(A::RawReadErrorRate, 85.0)
                .with_normalized(A::HardwareEccRecovered, 80.0)
                .with_normalized(A::ReportedUncorrectable, 45.0)
                .with_raw(A::ReallocatedSectorsRaw, 260.0),
            FailureMode::MechanicalWear => ModeSignature::zero()
                .with_normalized(A::SpinUpTime, 58.0)
                .with_normalized(A::SeekErrorRate, 78.0)
                .with_normalized(A::HighFlyWrites, 45.0)
                .with_normalized(A::RawReadErrorRate, 26.0),
            FailureMode::Thermal => ModeSignature::zero()
                .with_normalized(A::TemperatureCelsius, 62.0)
                .with_normalized(A::SeekErrorRate, 35.0)
                .with_normalized(A::RawReadErrorRate, 30.0)
                .with_normalized(A::HardwareEccRecovered, 26.0),
            FailureMode::Electronic => ModeSignature::zero()
                .with_normalized(A::ReportedUncorrectable, 42.0)
                .with_normalized(A::HardwareEccRecovered, 74.0)
                .with_normalized(A::RawReadErrorRate, 51.0)
                .with_raw(A::ReallocatedSectorsRaw, 45.0),
        }
    }

    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FailureMode::MediaDefects => "media-defects",
            FailureMode::MechanicalWear => "mechanical-wear",
            FailureMode::Thermal => "thermal",
            FailureMode::Electronic => "electronic",
        }
    }
}

/// Shape exponent of the deterioration ramp. Values below 1 make the ramp
/// rise quickly right after onset and then grind slowly toward failure —
/// which is what produces the long detection lead times (TIA ≈ 350 h
/// average) the paper reports in Figures 3–4.
pub const RAMP_EXPONENT: f64 = 0.45;

/// Family "W"'s deterioration level immediately after the onset: a latent
/// defect manifests abruptly (a head starts mis-reading, a sector cluster
/// goes bad) and *then* grows. The jump keeps the telemetry of a
/// deteriorating drive clearly apart from healthy measurement noise, which
/// is what lets a tree place its thresholds in the gap between the two
/// populations. Families with a *small* jump (like "Q") instead produce a
/// borderline continuum that every model finds harder — and that
/// mean-squared-error learners handle worst (§V-B1).
pub const DEFAULT_ONSET_JUMP: f64 = 0.55;

/// The latent deterioration level at `hours_into_window` of a deterioration
/// window `window_hours` long, with the given onset jump.
///
/// Zero before the onset; jumps to `onset_jump` at the onset, then rises
/// steeply (see [`RAMP_EXPONENT`]) and saturates at 1.0 at the failure
/// event.
///
/// # Panics
///
/// Panics if `onset_jump` is outside `[0, 1]`.
#[must_use]
pub fn latent_level(hours_into_window: f64, window_hours: f64, onset_jump: f64) -> f64 {
    assert!((0.0..=1.0).contains(&onset_jump), "onset jump in [0, 1]");
    if window_hours <= 0.0 || hours_into_window <= 0.0 {
        return 0.0;
    }
    let ramp = (hours_into_window / window_hours)
        .clamp(0.0, 1.0)
        .powf(RAMP_EXPONENT);
    onset_jump + (1.0 - onset_jump) * ramp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latent_level_is_zero_before_onset() {
        assert_eq!(latent_level(-5.0, 100.0, 0.5), 0.0);
        assert_eq!(latent_level(0.0, 100.0, 0.5), 0.0);
    }

    #[test]
    fn latent_level_saturates_at_one() {
        assert_eq!(latent_level(100.0, 100.0, 0.5), 1.0);
        assert_eq!(latent_level(250.0, 100.0, 0.5), 1.0);
    }

    #[test]
    fn latent_level_monotone() {
        let mut prev = 0.0;
        for h in 0..=100 {
            let z = latent_level(f64::from(h), 100.0, 0.4);
            assert!(z >= prev, "z must be non-decreasing");
            prev = z;
        }
    }

    #[test]
    fn latent_level_degenerate_window() {
        assert_eq!(latent_level(5.0, 0.0, 0.5), 0.0);
    }

    #[test]
    fn every_mode_touches_some_attribute() {
        for mode in ALL_FAILURE_MODES {
            let sig = mode.signature();
            let total: f64 = sig.normalized.iter().sum::<f64>() + sig.raw.iter().sum::<f64>();
            assert!(total > 0.0, "{mode:?} has an empty signature");
        }
    }

    #[test]
    fn media_defects_grow_reallocated_raw() {
        let sig = FailureMode::MediaDefects.signature();
        assert!(sig.raw[Attribute::ReallocatedSectorsRaw.index()] > 100.0);
    }

    #[test]
    fn raw_growth_only_on_raw_counters() {
        for mode in ALL_FAILURE_MODES {
            let sig = mode.signature();
            for (i, &g) in sig.raw.iter().enumerate() {
                if g > 0.0 {
                    let attr = Attribute::from_index(i).unwrap();
                    assert!(attr.higher_is_worse(), "{mode:?} grows non-counter {attr}");
                }
            }
        }
    }

    #[test]
    fn labels_unique() {
        use std::collections::BTreeSet;
        let labels: BTreeSet<_> = ALL_FAILURE_MODES.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), ALL_FAILURE_MODES.len());
    }
}
