//! Model aging and updating strategies (§V-B3, Figures 6–9).
//!
//! Drive populations drift: workloads intensify, rooms warm up, every
//! drive's power-on hours grow. A prediction model trained once and kept
//! forever ("train once, use forever") slowly turns that drift into false
//! alarms. The paper simulates eight weeks of deployment under three
//! updating strategies and shows that weekly *replacing* — retraining on
//! only the most recent week — keeps the false alarm rate flat.

use crate::detect::VotingRule;
use crate::model::Predictor;
use crate::pipeline::Experiment;
use hdd_cart::ClassSample;
use hdd_par::ThreadPool;
use hdd_smart::{Dataset, Hour, OBSERVATION_WEEKS};

/// How (and whether) the model is refreshed as weeks pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateStrategy {
    /// Train once on week 1 and never update.
    Fixed,
    /// Retrain weekly on *all* samples collected so far.
    Accumulation,
    /// Retrain every `cycle_weeks` weeks on only the most recent
    /// `cycle_weeks` weeks of samples, and use that model for the next
    /// cycle. The paper tries cycles of 1, 2 and 3 weeks.
    Replacing {
        /// Cycle length in weeks.
        cycle_weeks: u32,
    },
}

impl UpdateStrategy {
    /// Human-readable label matching the paper's legends.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            UpdateStrategy::Fixed => "fixed".to_string(),
            UpdateStrategy::Accumulation => "accumulation".to_string(),
            UpdateStrategy::Replacing { cycle_weeks: 1 } => "1-week replacing".to_string(),
            UpdateStrategy::Replacing { cycle_weeks } => {
                format!("{cycle_weeks}-weeks replacing")
            }
        }
    }

    /// The 0-based weeks whose good samples train the model used to test
    /// 0-based week `test_week` (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `test_week` is zero or a replacing cycle is zero.
    #[must_use]
    pub fn training_weeks(self, test_week: u32) -> std::ops::Range<u32> {
        assert!(test_week >= 1, "week 0 has no preceding training data");
        match self {
            UpdateStrategy::Fixed => 0..1,
            UpdateStrategy::Accumulation => 0..test_week,
            UpdateStrategy::Replacing { cycle_weeks } => {
                assert!(cycle_weeks >= 1, "cycle must be at least one week");
                if test_week < cycle_weeks {
                    0..test_week
                } else {
                    // The most recent completed cycle boundary <= test_week.
                    let boundary = (test_week / cycle_weeks) * cycle_weeks;
                    boundary - cycle_weeks..boundary
                }
            }
        }
    }
}

/// FAR/FDR of one simulated deployment week.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeekPoint {
    /// 1-based week index as in the paper's figures (2–8).
    pub week: u32,
    /// False alarm rate over all good drives during that week.
    pub far: f64,
    /// Failure detection rate over the fixed failed test set.
    pub fdr: f64,
}

/// The weekly series of one strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct AgingOutcome {
    /// The simulated strategy.
    pub strategy: UpdateStrategy,
    /// One point per deployment week (weeks 2–8 in paper numbering).
    pub weekly: Vec<WeekPoint>,
}

/// Simulate the long-term use of a prediction model over the eight-week
/// horizon under `strategy`.
///
/// `train` builds a serving-form model ([`Predictor`]) from a
/// classification training set; it is invoked once per retraining cycle
/// (train, then [`compile`](crate::model::Compile::compile)). The
/// failed-drive train/test split is fixed across the whole horizon
/// (failed samples carry no chronology in the dataset, §V-B3).
///
/// Each retraining cycle's model is a pure function of its training
/// weeks, so the distinct cycles train concurrently on
/// [`ThreadPool::global`] before the weeks are evaluated in order — the
/// outcome is bit-identical to the serial train-as-you-go schedule. A
/// `train` call on a spawned worker sees the serial pool.
#[must_use]
pub fn weekly_far<P, F>(
    experiment: &Experiment,
    dataset: &Dataset,
    strategy: UpdateStrategy,
    train: F,
) -> AgingOutcome
where
    P: Predictor + Send,
    F: Fn(&[ClassSample]) -> P + Sync,
{
    let split = experiment.split(dataset);
    let failed_samples = experiment.failed_training_samples(dataset, &split.train_failed);

    // Distinct retraining cycles, in first-use order (the weekly ranges
    // are monotone, so this matches exactly the cycles the serial
    // cached loop would have trained).
    let mut cycles: Vec<std::ops::Range<u32>> = Vec::new();
    for test_week in 1..OBSERVATION_WEEKS {
        let weeks = strategy.training_weeks(test_week);
        if !cycles.contains(&weeks) {
            cycles.push(weeks);
        }
    }
    let models = ThreadPool::global().parallel_map(&cycles, |weeks| {
        let mut samples = failed_samples.clone();
        for week in weeks.clone() {
            for (features, _) in experiment.good_features_in(dataset, Hour::week_range(week)) {
                samples.push(ClassSample::new(features, hdd_cart::Class::Good));
            }
        }
        train(&samples)
    });

    let mut weekly = Vec::new();
    for test_week in 1..OBSERVATION_WEEKS {
        let train_weeks = strategy.training_weeks(test_week);
        // Every weekly range was collected above; skip the week rather
        // than die if that invariant ever breaks.
        let Some(cycle) = cycles.iter().position(|c| *c == train_weeks) else {
            continue;
        };
        let metrics = experiment.evaluate_in(
            dataset,
            Hour::week_range(test_week),
            &split.test_failed,
            &models[cycle],
            VotingRule::Majority,
        );
        weekly.push(WeekPoint {
            week: test_week + 1, // the paper numbers weeks from 1
            far: metrics.far(),
            fdr: metrics.fdr(),
        });
    }
    AgingOutcome { strategy, weekly }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdd_cart::ClassificationTreeBuilder;
    use hdd_smart::{DatasetGenerator, FamilyProfile};

    #[test]
    fn training_weeks_fixed_and_accumulation() {
        assert_eq!(UpdateStrategy::Fixed.training_weeks(5), 0..1);
        assert_eq!(UpdateStrategy::Accumulation.training_weeks(5), 0..5);
        assert_eq!(UpdateStrategy::Accumulation.training_weeks(1), 0..1);
    }

    #[test]
    fn training_weeks_replacing() {
        let r1 = UpdateStrategy::Replacing { cycle_weeks: 1 };
        assert_eq!(r1.training_weeks(1), 0..1);
        assert_eq!(r1.training_weeks(7), 6..7);

        let r2 = UpdateStrategy::Replacing { cycle_weeks: 2 };
        assert_eq!(r2.training_weeks(1), 0..1);
        assert_eq!(r2.training_weeks(2), 0..2);
        assert_eq!(r2.training_weeks(3), 0..2);
        assert_eq!(r2.training_weeks(4), 2..4);
        assert_eq!(r2.training_weeks(5), 2..4);
        assert_eq!(r2.training_weeks(6), 4..6);

        let r3 = UpdateStrategy::Replacing { cycle_weeks: 3 };
        assert_eq!(r3.training_weeks(2), 0..2);
        assert_eq!(r3.training_weeks(3), 0..3);
        assert_eq!(r3.training_weeks(5), 0..3);
        assert_eq!(r3.training_weeks(6), 3..6);
        assert_eq!(r3.training_weeks(7), 3..6);
    }

    #[test]
    #[should_panic(expected = "week 0")]
    fn training_weeks_rejects_week_zero() {
        let _ = UpdateStrategy::Fixed.training_weeks(0);
    }

    #[test]
    fn labels() {
        assert_eq!(UpdateStrategy::Fixed.label(), "fixed");
        assert_eq!(
            UpdateStrategy::Replacing { cycle_weeks: 1 }.label(),
            "1-week replacing"
        );
        assert_eq!(
            UpdateStrategy::Replacing { cycle_weeks: 3 }.label(),
            "3-weeks replacing"
        );
    }

    #[test]
    fn simulation_produces_seven_weeks() {
        let ds = DatasetGenerator::new(FamilyProfile::w().scaled(0.01), 4).generate();
        let exp = Experiment::builder()
            .voters(3)
            .build()
            .expect("valid test configuration");
        let builder = ClassificationTreeBuilder::new();
        let outcome = weekly_far(&exp, &ds, UpdateStrategy::Fixed, |samples| {
            builder.build(samples).expect("trainable").compile()
        });
        assert_eq!(outcome.weekly.len(), 7);
        assert_eq!(outcome.weekly[0].week, 2);
        assert_eq!(outcome.weekly[6].week, 8);
        for p in &outcome.weekly {
            assert!((0.0..=1.0).contains(&p.far));
            assert!((0.0..=1.0).contains(&p.fdr));
        }
    }

    #[test]
    fn cycles_trained_on_workers_see_the_serial_pool() {
        // Accumulation has seven distinct cycles: four chunks on four
        // threads, all spawned, so no training fans out again.
        let ds = DatasetGenerator::new(FamilyProfile::w().scaled(0.01), 4).generate();
        let exp = Experiment::builder()
            .voters(3)
            .build()
            .expect("valid test configuration");
        let builder = ClassificationTreeBuilder::new();
        let seen = std::sync::Mutex::new(Vec::new());
        let outcome = ThreadPool::new(4).install(|| {
            weekly_far(&exp, &ds, UpdateStrategy::Accumulation, |samples| {
                seen.lock().unwrap().push(ThreadPool::global().n_threads());
                builder.build(samples).expect("trainable").compile()
            })
        });
        assert_eq!(outcome.weekly.len(), 7);
        assert_eq!(seen.into_inner().unwrap(), vec![1; 7]);
    }
}
