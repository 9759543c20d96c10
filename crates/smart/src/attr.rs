//! The twelve basic SMART features of the paper's Table II.
//!
//! Each SMART attribute has a vendor-specific six-byte *raw* value and a
//! one-byte *normalized* value in 1–253 derived from it. Normalized values
//! conventionally *decrease* as the drive's condition worsens. The paper
//! keeps ten normalized values plus the raw values of *Reallocated Sectors
//! Count* and *Current Pending Sector Count* because those raw counters are
//! more sensitive than their saturating normalized forms.

use std::fmt;

/// Number of basic features (Table II rows).
pub const NUM_ATTRIBUTES: usize = 12;

/// One of the twelve basic SMART features used for model building.
///
/// The discriminants match the `ID #` column of Table II (1-based in the
/// paper; stored 0-based here for direct indexing into sample vectors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Attribute {
    /// Normalized *Raw Read Error Rate* (SMART 1).
    RawReadErrorRate = 0,
    /// Normalized *Spin Up Time* (SMART 3).
    SpinUpTime = 1,
    /// Normalized *Reallocated Sectors Count* (SMART 5).
    ReallocatedSectors = 2,
    /// Normalized *Seek Error Rate* (SMART 7).
    SeekErrorRate = 3,
    /// Normalized *Power On Hours* (SMART 9). Decreases as the drive ages.
    PowerOnHours = 4,
    /// Normalized *Reported Uncorrectable Errors* (SMART 187).
    ReportedUncorrectable = 5,
    /// Normalized *High Fly Writes* (SMART 189).
    HighFlyWrites = 6,
    /// Normalized *Temperature Celsius* (SMART 194). Lower is hotter.
    TemperatureCelsius = 7,
    /// Normalized *Hardware ECC Recovered* (SMART 195).
    HardwareEccRecovered = 8,
    /// Normalized *Current Pending Sector Count* (SMART 197).
    CurrentPendingSector = 9,
    /// Raw *Reallocated Sectors Count* (SMART 5, raw counter).
    ReallocatedSectorsRaw = 10,
    /// Raw *Current Pending Sector Count* (SMART 197, raw counter).
    CurrentPendingSectorRaw = 11,
}

/// Whether a feature is a 1–253 normalized value or a raw counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttributeKind {
    /// One-byte normalized value in 1–253; lower means less healthy.
    Normalized,
    /// Vendor raw counter; higher means less healthy.
    RawCounter,
}

/// All twelve basic features in Table II order.
pub const BASIC_ATTRIBUTES: [Attribute; NUM_ATTRIBUTES] = [
    Attribute::RawReadErrorRate,
    Attribute::SpinUpTime,
    Attribute::ReallocatedSectors,
    Attribute::SeekErrorRate,
    Attribute::PowerOnHours,
    Attribute::ReportedUncorrectable,
    Attribute::HighFlyWrites,
    Attribute::TemperatureCelsius,
    Attribute::HardwareEccRecovered,
    Attribute::CurrentPendingSector,
    Attribute::ReallocatedSectorsRaw,
    Attribute::CurrentPendingSectorRaw,
];

impl Attribute {
    /// Zero-based index of this feature in a sample's value vector.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The feature at `index`, if `index < NUM_ATTRIBUTES`.
    #[must_use]
    pub fn from_index(index: usize) -> Option<Attribute> {
        BASIC_ATTRIBUTES.get(index).copied()
    }

    /// The attribute name as printed in Table II.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Attribute::RawReadErrorRate => "Raw Read Error Rate",
            Attribute::SpinUpTime => "Spin Up Time",
            Attribute::ReallocatedSectors => "Reallocated Sectors Count",
            Attribute::SeekErrorRate => "Seek Error Rate",
            Attribute::PowerOnHours => "Power On Hours",
            Attribute::ReportedUncorrectable => "Reported Uncorrectable Errors",
            Attribute::HighFlyWrites => "High Fly Writes",
            Attribute::TemperatureCelsius => "Temperature Celsius",
            Attribute::HardwareEccRecovered => "Hardware ECC Recovered",
            Attribute::CurrentPendingSector => "Current Pending Sector Count",
            Attribute::ReallocatedSectorsRaw => "Reallocated Sectors Count (raw value)",
            Attribute::CurrentPendingSectorRaw => "Current Pending Sector Count (raw value)",
        }
    }

    /// Short mnemonic used when printing decision rules (e.g. `POH`, `RUE`),
    /// matching the abbreviations of the paper's Figure 1.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Attribute::RawReadErrorRate => "RRER",
            Attribute::SpinUpTime => "SUT",
            Attribute::ReallocatedSectors => "RSC",
            Attribute::SeekErrorRate => "SER",
            Attribute::PowerOnHours => "POH",
            Attribute::ReportedUncorrectable => "RUE",
            Attribute::HighFlyWrites => "HFW",
            Attribute::TemperatureCelsius => "TC",
            Attribute::HardwareEccRecovered => "HER",
            Attribute::CurrentPendingSector => "CPSC",
            Attribute::ReallocatedSectorsRaw => "RSC_raw",
            Attribute::CurrentPendingSectorRaw => "CPSC_raw",
        }
    }

    /// Whether the feature is a normalized value or a raw counter.
    #[must_use]
    pub fn kind(self) -> AttributeKind {
        match self {
            Attribute::ReallocatedSectorsRaw | Attribute::CurrentPendingSectorRaw => {
                AttributeKind::RawCounter
            }
            _ => AttributeKind::Normalized,
        }
    }

    /// `true` if *larger* values indicate a *less* healthy drive.
    ///
    /// Raw counters grow as errors accumulate; normalized values shrink.
    #[must_use]
    pub fn higher_is_worse(self) -> bool {
        matches!(self.kind(), AttributeKind::RawCounter)
    }

    /// Clamp a generated value to this feature's domain.
    ///
    /// Normalized values live in `[1, 253]`; raw counters are non-negative.
    #[must_use]
    pub fn clamp(self, value: f64) -> f64 {
        match self.kind() {
            AttributeKind::Normalized => value.clamp(1.0, 253.0),
            AttributeKind::RawCounter => value.max(0.0),
        }
    }

    /// The SMART ID reported by drives for this attribute.
    #[must_use]
    pub fn smart_id(self) -> u8 {
        match self {
            Attribute::RawReadErrorRate => 1,
            Attribute::SpinUpTime => 3,
            Attribute::ReallocatedSectors | Attribute::ReallocatedSectorsRaw => 5,
            Attribute::SeekErrorRate => 7,
            Attribute::PowerOnHours => 9,
            Attribute::ReportedUncorrectable => 187,
            Attribute::HighFlyWrites => 189,
            Attribute::TemperatureCelsius => 194,
            Attribute::HardwareEccRecovered => 195,
            Attribute::CurrentPendingSector | Attribute::CurrentPendingSectorRaw => 197,
        }
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_stable_and_bijective() {
        for (i, attr) in BASIC_ATTRIBUTES.iter().enumerate() {
            assert_eq!(attr.index(), i);
            assert_eq!(Attribute::from_index(i), Some(*attr));
        }
        assert_eq!(Attribute::from_index(NUM_ATTRIBUTES), None);
    }

    #[test]
    fn exactly_two_raw_counters() {
        let raw: Vec<_> = BASIC_ATTRIBUTES
            .iter()
            .filter(|a| a.kind() == AttributeKind::RawCounter)
            .collect();
        assert_eq!(
            raw,
            vec![
                &Attribute::ReallocatedSectorsRaw,
                &Attribute::CurrentPendingSectorRaw
            ]
        );
    }

    #[test]
    fn clamp_respects_domains() {
        assert_eq!(Attribute::PowerOnHours.clamp(300.0), 253.0);
        assert_eq!(Attribute::PowerOnHours.clamp(-5.0), 1.0);
        assert_eq!(Attribute::ReallocatedSectorsRaw.clamp(-5.0), 0.0);
        assert_eq!(Attribute::ReallocatedSectorsRaw.clamp(1e9), 1e9);
    }

    #[test]
    fn raw_counters_higher_is_worse() {
        assert!(Attribute::ReallocatedSectorsRaw.higher_is_worse());
        assert!(!Attribute::PowerOnHours.higher_is_worse());
    }

    #[test]
    fn names_and_mnemonics_unique() {
        use std::collections::BTreeSet;
        let names: BTreeSet<_> = BASIC_ATTRIBUTES.iter().map(|a| a.name()).collect();
        let mnems: BTreeSet<_> = BASIC_ATTRIBUTES.iter().map(|a| a.mnemonic()).collect();
        assert_eq!(names.len(), NUM_ATTRIBUTES);
        assert_eq!(mnems.len(), NUM_ATTRIBUTES);
    }

    #[test]
    fn paired_attrs_share_smart_id() {
        assert_eq!(
            Attribute::ReallocatedSectors.smart_id(),
            Attribute::ReallocatedSectorsRaw.smart_id()
        );
        assert_eq!(
            Attribute::CurrentPendingSector.smart_id(),
            Attribute::CurrentPendingSectorRaw.smart_id()
        );
    }

    #[test]
    fn display_uses_table_name() {
        assert_eq!(
            Attribute::PowerOnHours.to_string(),
            "Power On Hours".to_string()
        );
    }
}
