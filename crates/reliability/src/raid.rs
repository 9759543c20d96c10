//! RAID reliability with proactive fault tolerance (Fig. 11, Fig. 12).
//!
//! The paper's Figure 11 models an N-drive RAID-6 array with failure
//! prediction as an absorbing CTMC with `3N + 1` states:
//!
//! * `P_i` — all data intact, `i` drives currently predicted to fail,
//! * `SP_i` — one drive failed (single erasure), `i` predicted,
//! * `DP_i` — two drives failed (double erasure), `i` predicted,
//! * `F` — a third failure: data loss.
//!
//! Rates: each healthy drive fails at `λ = 1/MTTF`; a failing drive is
//! *predicted* with probability `k` (entering the predicted pool, from
//! which it is preemptively replaced at rate `μ`, racing its actual death
//! at rate `γ = 1/TIA`) and *missed* with probability `l = 1 − k` (failing
//! outright). Failed drives are rebuilt at rate `μ = 1/MTTR`.

use crate::ctmc::Ctmc;
use crate::single::PredictionQuality;

/// Eq. 8 (Gibson & Patterson): closed-form MTTDL (hours) of an N-drive
/// RAID-6 array without prediction:
///
/// ```text
/// MTTDL ≈ MTTF³ / (N·(N−1)·(N−2)·MTTR²)
/// ```
///
/// # Panics
///
/// Panics if `n_drives < 3` or the times are not positive.
#[must_use]
pub fn mttdl_raid6_no_prediction(mttf_hours: f64, mttr_hours: f64, n_drives: u32) -> f64 {
    assert!(n_drives >= 3, "RAID-6 needs at least three drives");
    assert!(
        mttf_hours > 0.0 && mttr_hours > 0.0,
        "times must be positive"
    );
    let n = f64::from(n_drives);
    mttf_hours.powi(3) / (n * (n - 1.0) * (n - 2.0) * mttr_hours * mttr_hours)
}

/// Eq. 8's RAID-5 analogue: `MTTF² / (N·(N−1)·MTTR)`.
///
/// # Panics
///
/// Panics if `n_drives < 2` or the times are not positive.
#[must_use]
pub fn mttdl_raid5_no_prediction(mttf_hours: f64, mttr_hours: f64, n_drives: u32) -> f64 {
    assert!(n_drives >= 2, "RAID-5 needs at least two drives");
    assert!(
        mttf_hours > 0.0 && mttr_hours > 0.0,
        "times must be positive"
    );
    let n = f64::from(n_drives);
    mttf_hours * mttf_hours / (n * (n - 1.0) * mttr_hours)
}

/// MTTDL (hours) of an N-drive array tolerating `parity` failures
/// (1 = RAID-5, 2 = RAID-6) with failure prediction, by exact solution of
/// the Figure 11 Markov chain.
///
/// States are `(f, i)` with `f` failed drives (`0..=parity`) and `i`
/// predicted drives (`0..=N−f`); `f = parity + 1` is the absorbing loss
/// state. The state numbering is chosen so the chain is banded (bandwidth
/// `parity + 2`), letting arrays of thousands of drives solve exactly.
///
/// # Panics
///
/// Panics if `n_drives <= parity` or `parity` is 0.
#[must_use]
pub fn mttdl_raid_with_prediction(
    mttf_hours: f64,
    mttr_hours: f64,
    n_drives: u32,
    parity: u32,
    quality: PredictionQuality,
) -> f64 {
    assert!(parity >= 1, "use the single-drive model for parity 0");
    assert!(
        n_drives > parity,
        "array must have more drives than its parity count"
    );
    let n = n_drives as usize;
    let levels = parity as usize + 1; // f = 0..=parity are transient
    let lambda = 1.0 / mttf_hours;
    let mu = 1.0 / mttr_hours;
    let gamma = quality.gamma();
    let k = quality.detection_rate;

    // State numbering: s(f, i) = i * levels + f  (i-major), plus one
    // absorbing state at the end. Transitions change (f, i) by at most
    // (±1, ±1), so |Δs| ≤ levels + 1: banded.
    let s = |f: usize, i: usize| -> usize { i * levels + f };
    let loss = (n + 1) * levels;
    let mut chain = Ctmc::new(loss + 1);

    for i in 0..=n {
        for f in 0..levels {
            if f + i > n {
                continue; // unreachable corner (more busy drives than exist)
            }
            let from = s(f, i);
            let healthy = (n - f - i) as f64;
            // A healthy drive starts failing: predicted with prob k.
            if healthy > 0.0 {
                if k > 0.0 {
                    chain.transition(from, s(f, i + 1), healthy * lambda * k);
                }
                if k < 1.0 {
                    let to = if f + 1 < levels { s(f + 1, i) } else { loss };
                    chain.transition(from, to, healthy * lambda * (1.0 - k));
                }
            }
            if i > 0 {
                // A predicted drive is preemptively replaced…
                chain.transition(from, s(f, i - 1), i as f64 * mu);
                // …or dies before the replacement finishes.
                let to = if f + 1 < levels {
                    s(f + 1, i - 1)
                } else {
                    loss
                };
                chain.transition(from, to, i as f64 * gamma);
            }
            if f > 0 {
                // A failed drive finishes rebuilding.
                chain.transition(from, s(f - 1, i), f as f64 * mu);
            }
        }
    }
    chain.mean_time_to_absorption(s(0, 0))
}

/// RAID-6 with prediction (the paper's Figure 11 chain).
///
/// ```
/// use hdd_reliability::{mttdl_raid6_no_prediction, mttdl_raid6_with_prediction, PredictionQuality};
///
/// let plain = mttdl_raid6_no_prediction(1_390_000.0, 8.0, 100);
/// let with_ct = mttdl_raid6_with_prediction(1_390_000.0, 8.0, 100, PredictionQuality::ct_paper());
/// assert!(with_ct > plain * 100.0, "prediction buys orders of magnitude");
/// ```
#[must_use]
pub fn mttdl_raid6_with_prediction(
    mttf_hours: f64,
    mttr_hours: f64,
    n_drives: u32,
    quality: PredictionQuality,
) -> f64 {
    mttdl_raid_with_prediction(mttf_hours, mttr_hours, n_drives, 2, quality)
}

/// RAID-5 with prediction (Eckart et al.'s model, used for the fourth
/// curve of Figure 12).
#[must_use]
pub fn mttdl_raid5_with_prediction(
    mttf_hours: f64,
    mttr_hours: f64,
    n_drives: u32,
    quality: PredictionQuality,
) -> f64 {
    mttdl_raid_with_prediction(mttf_hours, mttr_hours, n_drives, 1, quality)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HOURS_PER_YEAR;

    const SATA_MTTF: f64 = 1_390_000.0;
    const SAS_MTTF: f64 = 1_990_000.0;
    const MTTR: f64 = 8.0;

    fn ct() -> PredictionQuality {
        PredictionQuality::new(0.9549, 355.0)
    }

    #[test]
    fn closed_forms_match_reference_values() {
        // 100-drive SATA RAID-6: MTTF^3/(100*99*98*64).
        let expected = SATA_MTTF.powi(3) / (100.0 * 99.0 * 98.0 * 64.0);
        assert_eq!(mttdl_raid6_no_prediction(SATA_MTTF, MTTR, 100), expected);
        let expected5 = SATA_MTTF * SATA_MTTF / (100.0 * 99.0 * 8.0);
        assert_eq!(mttdl_raid5_no_prediction(SATA_MTTF, MTTR, 100), expected5);
    }

    #[test]
    fn prediction_beats_no_prediction_by_orders_of_magnitude() {
        // The paper's headline: SATA RAID-6 with CT prediction beats even
        // SAS RAID-6 without prediction by several orders of magnitude.
        for n in [100, 500, 1000] {
            let with_ct = mttdl_raid6_with_prediction(SATA_MTTF, MTTR, n, ct());
            let sas_plain = mttdl_raid6_no_prediction(SAS_MTTF, MTTR, n);
            assert!(
                with_ct > sas_plain * 100.0,
                "n={n}: with {with_ct:.3e} vs plain {sas_plain:.3e}"
            );
        }
    }

    #[test]
    fn raid5_with_ct_is_comparable_to_raid6_without() {
        // Figure 12: the SATA RAID-5 w/ CT curve is close to the RAID-6
        // w/o prediction curves (within ~2 orders of magnitude), far above
        // nothing — this is the "reduce redundancy" argument.
        let n = 1000;
        let r5_ct = mttdl_raid5_with_prediction(SATA_MTTF, MTTR, n, ct());
        let r6_plain = mttdl_raid6_no_prediction(SATA_MTTF, MTTR, n);
        let ratio = r5_ct / r6_plain;
        assert!(
            ratio > 1e-2 && ratio < 1e2,
            "curves should be close: ratio {ratio:.3e}"
        );
    }

    #[test]
    fn mttdl_decreases_with_array_size() {
        let q = ct();
        let small = mttdl_raid6_with_prediction(SATA_MTTF, MTTR, 50, q);
        let big = mttdl_raid6_with_prediction(SATA_MTTF, MTTR, 2500, q);
        assert!(small > big * 100.0);
    }

    #[test]
    fn zero_detection_matches_plain_markov_scale() {
        // k = 0 reduces to a plain repairable-array chain, which the
        // closed form approximates well for small N.
        let q = PredictionQuality::new(0.0, 355.0);
        let exact = mttdl_raid6_with_prediction(SATA_MTTF, MTTR, 10, q);
        let approx = mttdl_raid6_no_prediction(SATA_MTTF, MTTR, 10);
        let ratio = exact / approx;
        assert!((0.3..3.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn perfect_prediction_is_the_upper_bound() {
        let better =
            mttdl_raid6_with_prediction(SATA_MTTF, MTTR, 100, PredictionQuality::new(0.999, 355.0));
        let worse = mttdl_raid6_with_prediction(SATA_MTTF, MTTR, 100, ct());
        assert!(better > worse);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "a test timing bound; the measured time feeds only the assertion"
    )]
    fn large_arrays_solve_quickly_and_finite() {
        let start = std::time::Instant::now();
        let v = mttdl_raid6_with_prediction(SATA_MTTF, MTTR, 2500, ct());
        assert!(v.is_finite() && v > 0.0);
        assert!(start.elapsed().as_secs() < 5, "banded solve must be fast");
        // Sanity: still a huge number of years.
        assert!(v / HOURS_PER_YEAR > 1.0);
    }

    #[test]
    #[should_panic(expected = "more drives than")]
    fn rejects_tiny_arrays() {
        let _ = mttdl_raid6_with_prediction(SATA_MTTF, MTTR, 2, ct());
    }

    #[test]
    #[should_panic(expected = "at least three")]
    fn closed_form_rejects_small_n() {
        let _ = mttdl_raid6_no_prediction(SATA_MTTF, MTTR, 2);
    }
}
