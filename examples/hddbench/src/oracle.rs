//! The batch↔stream oracle: the alarms a serve run wrote must be exactly
//! the first alarms `hddpred detect` finds on the same rows with the
//! same model and `--voters 11`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Voting window of every run (the paper's N).
pub const VOTERS: usize = 11;

/// One alarm: `(drive, hour)`.
pub type Alarm = (u32, u32);

/// Parse `drive,hour[,...]` lines, skipping a header.
pub fn parse_alarms(text: &str) -> Vec<Alarm> {
    text.lines()
        .filter_map(|line| {
            let mut fields = line.split(',');
            let drive = fields.next()?.trim().parse().ok()?;
            let hour = fields.next()?.trim().parse().ok()?;
            Some((drive, hour))
        })
        .collect()
}

/// The alarm lines of a sink file (duplicates kept: a duplicate is a
/// mismatch).
pub fn sink_alarms(path: &Path) -> Result<Vec<Alarm>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(parse_alarms(&text))
}

/// First alarms `hddpred detect` finds over drive-major CSVs.
pub fn detect_alarms(
    bin: &Path,
    csvs: &[PathBuf],
    model: &Path,
) -> Result<BTreeSet<Alarm>, String> {
    let mut alarms = BTreeSet::new();
    for csv in csvs {
        let out = Command::new(bin)
            .args(["detect", "--data"])
            .arg(csv)
            .arg("--model")
            .arg(model)
            .args(["--voters", &VOTERS.to_string(), "--threads", "1"])
            .output()
            .map_err(|e| format!("running detect: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "detect on {} failed ({}): {}",
                csv.display(),
                out.status,
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        alarms.extend(parse_alarms(&String::from_utf8_lossy(&out.stdout)));
    }
    Ok(alarms)
}

/// Alarms missing from `got`, extra in it, or duplicated.
pub fn mismatches(expected: &BTreeSet<Alarm>, got: &[Alarm]) -> usize {
    let seen: BTreeSet<Alarm> = got.iter().copied().collect();
    let duplicates = got.len() - seen.len();
    duplicates + expected.symmetric_difference(&seen).count()
}

/// FDR (alarmed failed drives over failed drives) and FAR (alarmed good
/// drives over good drives) against ground truth.
pub fn fdr_far(alarms: &[Alarm], truth: &[(u32, Option<u32>)]) -> (f64, f64) {
    let alarmed: BTreeSet<u32> = alarms.iter().map(|a| a.0).collect();
    let (mut failed, mut detected, mut good, mut false_alarms) = (0usize, 0usize, 0usize, 0usize);
    for (drive, fail) in truth {
        let hit = alarmed.contains(drive);
        if fail.is_some() {
            failed += 1;
            detected += usize::from(hit);
        } else {
            good += 1;
            false_alarms += usize::from(hit);
        }
    }
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    (ratio(detected, failed), ratio(false_alarms, good))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sink_and_detect_output() {
        assert_eq!(parse_alarms("4,17\n9,30\n"), vec![(4, 17), (9, 30)]);
        assert_eq!(
            parse_alarms("drive,alarm_hour,last_score\n4,17,-1\n"),
            vec![(4, 17)]
        );
    }

    #[test]
    fn mismatches_count_missing_extra_and_duplicate_alarms() {
        let expected: BTreeSet<Alarm> = [(1, 10), (2, 20)].into_iter().collect();
        assert_eq!(mismatches(&expected, &[(2, 20), (1, 10)]), 0);
        assert_eq!(mismatches(&expected, &[(1, 10)]), 1);
        assert_eq!(mismatches(&expected, &[(1, 10), (2, 20), (3, 30)]), 1);
        assert_eq!(mismatches(&expected, &[(1, 10), (2, 21)]), 2);
        assert_eq!(mismatches(&expected, &[(1, 10), (1, 10), (2, 20)]), 1);
    }

    #[test]
    fn fdr_and_far_against_truth() {
        let truth = [(1, Some(900)), (2, Some(800)), (3, None), (4, None)];
        let (fdr, far) = fdr_far(&[(1, 850), (3, 100)], &truth);
        assert_eq!((fdr, far), (0.5, 0.5));
        assert_eq!(fdr_far(&[], &[]), (0.0, 0.0));
    }
}
