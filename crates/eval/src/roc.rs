//! ROC sweeps: trading FDR against FAR.
//!
//! Classifier models trade off by varying the voter count `N` (Figures 2
//! and 5); the health-degree model simply sweeps its detection threshold
//! (Figure 10) — "additional flexibility in performance adjusting".

use crate::detect::VotingRule;
use crate::metrics::PredictionMetrics;
use crate::model::Predictor;
use crate::pipeline::Experiment;
use crate::split::Split;
use hdd_cart::HealthModel;
use hdd_par::ThreadPool;
use hdd_smart::Dataset;

/// One operating point of a ROC curve.
#[derive(Debug, Clone, PartialEq)]
pub struct RocPoint {
    /// Voter count `N` at this point.
    pub voters: usize,
    /// Detection threshold (RT sweeps; `0.0` for voter sweeps).
    pub threshold: f64,
    /// The full metrics at this operating point.
    pub metrics: PredictionMetrics,
}

impl RocPoint {
    /// False alarm rate at this point.
    #[must_use]
    pub fn far(&self) -> f64 {
        self.metrics.far()
    }

    /// Failure detection rate at this point.
    #[must_use]
    pub fn fdr(&self) -> f64 {
        self.metrics.fdr()
    }
}

/// Sweep the voting detector over `voter_counts` (Figures 2 and 5; the
/// paper uses N = 1, 3, 5, 7, 9, 11, 15, 17, 27).
///
/// Operating points are independent, so they fan out across
/// [`ThreadPool::global`] (a point evaluated on a worker evaluates
/// serially); points come back in input order and are bit-identical to a
/// serial sweep. A voter count of zero falls back to the source
/// experiment's voter count.
#[must_use]
pub fn sweep_voters<P: Predictor>(
    experiment: &Experiment,
    dataset: &Dataset,
    split: &Split,
    predictor: &P,
    voter_counts: &[usize],
) -> Vec<RocPoint> {
    ThreadPool::global().parallel_map(voter_counts, |&n| {
        let exp = {
            let mut b = crate::pipeline::ExperimentBuilder::from(experiment.clone());
            b.voters(n);
            // A zero voter count cannot rebuild; fall back to the
            // source experiment (its voter count) instead of panicking
            // inside a worker thread.
            b.build().unwrap_or_else(|_| experiment.clone())
        };
        let metrics = exp.evaluate(dataset, split, predictor, VotingRule::Majority);
        RocPoint {
            voters: n,
            threshold: 0.0,
            metrics,
        }
    })
}

/// Sweep the health-degree model's detection threshold (Figure 10; the
/// paper sweeps −0.94 … 0.0 with N = 11). Points fan out like
/// [`sweep_voters`].
#[must_use]
pub fn sweep_thresholds(
    experiment: &Experiment,
    dataset: &Dataset,
    split: &Split,
    model: &HealthModel,
    thresholds: &[f64],
) -> Vec<RocPoint> {
    // The threshold only enters through the voting rule; the compiled
    // scores are the same at every point, so compile once.
    let compiled = model.compile();
    ThreadPool::global().parallel_map(thresholds, |&threshold| {
        let metrics =
            experiment.evaluate(dataset, split, &compiled, VotingRule::MeanBelow(threshold));
        RocPoint {
            voters: experiment.voters(),
            threshold,
            metrics,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::HealthTargets;
    use hdd_smart::{DatasetGenerator, FamilyProfile};

    fn dataset() -> Dataset {
        DatasetGenerator::new(FamilyProfile::w().scaled(0.015), 8).generate()
    }

    #[test]
    fn more_voters_do_not_increase_far() {
        let ds = dataset();
        let exp = Experiment::builder()
            .voters(1)
            .build()
            .expect("valid test configuration");
        let split = exp.split(&ds);
        let model = exp.run_ct(&ds).unwrap().model.compile();
        let points = sweep_voters(&exp, &ds, &split, &model, &[1, 5, 11]);
        assert_eq!(points.len(), 3);
        // FAR must be non-increasing in N (voting suppresses blips).
        assert!(points[0].far() >= points[1].far());
        assert!(points[1].far() >= points[2].far());
    }

    #[test]
    fn roc_point_accessors() {
        let p = RocPoint {
            voters: 11,
            threshold: -0.2,
            metrics: crate::metrics::PredictionMetrics {
                good_total: 100,
                good_alarms: 1,
                failed_total: 10,
                failed_detected: 9,
                tia: vec![100],
            },
        };
        assert!((p.far() - 0.01).abs() < 1e-12);
        assert!((p.fdr() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn sweep_is_deterministic() {
        let ds = dataset();
        let exp = Experiment::builder()
            .voters(1)
            .build()
            .expect("valid test configuration");
        let split = exp.split(&ds);
        let model = exp.run_ct(&ds).unwrap().model.compile();
        let a = sweep_voters(&exp, &ds, &split, &model, &[1, 7]);
        let b = sweep_voters(&exp, &ds, &split, &model, &[1, 7]);
        assert_eq!(a, b);
    }

    #[test]
    fn threshold_sweep_is_monotone_in_fdr() {
        let ds = dataset();
        let exp = Experiment::builder()
            .voters(3)
            .build()
            .expect("valid test configuration");
        let split = exp.split(&ds);
        let outcome = exp.run_rt(&ds, HealthTargets::Personalized).unwrap();
        let points = sweep_thresholds(&exp, &ds, &split, &outcome.model, &[-0.9, -0.5, -0.1, 0.2]);
        // A laxer (higher) threshold can only flag more drives.
        for pair in points.windows(2) {
            assert!(pair[1].fdr() >= pair[0].fdr() - 1e-12);
            assert!(pair[1].far() >= pair[0].far() - 1e-12);
        }
    }
}
