//! Deterministic fault injection for robustness testing.
//!
//! Real SMART telemetry arrives with gaps, glitches and malformed
//! records; model files on disk rot, get truncated by crashes, or lose
//! bits to bad sectors. This crate corrupts healthy inputs *on purpose*
//! so the rest of the workspace can prove it degrades gracefully:
//!
//! * [`FaultInjector::corrupt_csv`] damages a SMART CSV stream with one
//!   of the [`FaultClass`] corruptions — NaN and out-of-range feature
//!   values, truncated and garbage rows, dropped samples, duplicated and
//!   out-of-order timestamps — and returns an [`InjectionReport`] with
//!   the *exact* per-class counts, so ingestion-side quarantine counters
//!   can be checked for equality, not just plausibility.
//! * [`FaultInjector::flip_bit`] flips a single pseudo-random bit in a
//!   byte buffer (a serialized model file), returning the offset and bit
//!   so tests can assert the loader rejects precisely that corruption.
//!
//! Everything is seeded: the same `(seed, input, class, rate)` always
//! produces the same corrupted output, byte for byte, so chaos-test
//! failures replay exactly.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use hdd_smart::rng::{splitmix64, SplitMix64};

/// A SMART CSV row has `drive,failed,fail_hour,hour` plus the twelve
/// feature columns of the paper's Table II.
const ROW_FIELDS: usize = 16;

/// Index of the first feature column within a row.
const FIRST_FEATURE: usize = 4;

/// One class of injected corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Replace a feature value with `NaN` (parses as a float, but is not
    /// a usable measurement).
    NanValue,
    /// Replace a feature value with an absurd out-of-range magnitude.
    OutOfRangeValue,
    /// Cut a row off mid-line, as a crashed writer or torn read would.
    TruncatedRow,
    /// Replace a whole row with unparseable garbage bytes.
    GarbageRow,
    /// Silently drop a sample, leaving a gap in the series.
    DroppedRow,
    /// Duplicate a sample, producing two rows with the same timestamp.
    DuplicatedTimestamp,
    /// Swap two adjacent same-drive rows, producing exactly one
    /// out-of-order timestamp per swap.
    OutOfOrderTimestamp,
    /// Cut the final line in half and drop its newline terminator — the
    /// shape of an append caught mid-write. A batch reader sees one
    /// parse failure; a streaming tailer must leave the bytes unread
    /// until the writer finishes the line.
    PartialTrailingLine,
    /// Insert copies of the header line mid-stream — the shape of a feed
    /// file freshly rotated (truncated and restarted) while a tailer has
    /// bytes in flight.
    MidStreamRotation,
    /// Injectively remap every drive id so all of them land on shard 0
    /// of a 4-shard topology — the worst-case routing skew a hash
    /// partition can meet, with valid and still-distinct ids.
    ShardSkewedIds,
    /// Re-append a copy of the trailing data rows — a retransmitting
    /// collector flooding one feed with rows the daemon already
    /// committed (a burst of stale duplicates).
    HotFeedBurst,
    /// Panic inside the background trainer — the lifecycle must contain
    /// it, count it, and back off; the serving path never notices. A
    /// process-level fault, not a byte corruption: [`corrupt_csv`] is a
    /// documented no-op for it.
    ///
    /// [`corrupt_csv`]: FaultInjector::corrupt_csv
    TrainerPanic,
    /// Poison the training buffer with a NaN feature that slipped past
    /// ingestion — the buffer must quarantine it, never train on it.
    /// Process-level; [`corrupt_csv`] is a documented no-op.
    ///
    /// [`corrupt_csv`]: FaultInjector::corrupt_csv
    PoisonedBuffer,
    /// Power loss mid promotion protocol, then a reopen — recovery must
    /// land exactly the incumbent or exactly the candidate, never a torn
    /// model.
    /// Process-level; [`corrupt_csv`] is a documented no-op.
    ///
    /// [`corrupt_csv`]: FaultInjector::corrupt_csv
    CrashDuringPromotion,
    /// Train candidates on label-inverted samples — a genuinely worse
    /// model the shadow gate must refuse (and, if it ever got through,
    /// probation must roll back). Process-level; [`corrupt_csv`] is a
    /// documented no-op.
    ///
    /// [`corrupt_csv`]: FaultInjector::corrupt_csv
    RegressingCandidate,
}

impl FaultClass {
    /// Every CSV-stream fault class, in a fixed order — the corpus chaos
    /// suites iterate over.
    pub const CSV_CORPUS: [FaultClass; 7] = [
        FaultClass::NanValue,
        FaultClass::OutOfRangeValue,
        FaultClass::TruncatedRow,
        FaultClass::GarbageRow,
        FaultClass::DroppedRow,
        FaultClass::DuplicatedTimestamp,
        FaultClass::OutOfOrderTimestamp,
    ];

    /// The stream-shaped fault classes: corruptions whose whole point is
    /// the *boundary* of the byte stream (an unfinished append, a
    /// rotation) rather than the content of a row.
    pub const STREAM_CORPUS: [FaultClass; 2] = [
        FaultClass::PartialTrailingLine,
        FaultClass::MidStreamRotation,
    ];

    /// The topology-shaped fault classes: pathologies that only matter
    /// once drives are partitioned across shards and feeds — routing
    /// skew and per-feed retransmission floods.
    pub const TOPOLOGY_CORPUS: [FaultClass; 2] =
        [FaultClass::ShardSkewedIds, FaultClass::HotFeedBurst];

    /// The lifecycle-shaped fault classes: process-level pathologies of
    /// online retraining (trainer crashes, poisoned buffers, promotion
    /// interrupted, regressing candidates). These corrupt no bytes —
    /// [`FaultInjector::corrupt_csv`] passes them through unchanged —
    /// the gauntlet maps them onto seeded lifecycle injections instead.
    pub const LIFECYCLE_CORPUS: [FaultClass; 4] = [
        FaultClass::TrainerPanic,
        FaultClass::PoisonedBuffer,
        FaultClass::CrashDuringPromotion,
        FaultClass::RegressingCandidate,
    ];

    /// Every fault class, in declaration order — the universe
    /// [`FaultClass::from_label`] resolves against.
    pub const ALL: [FaultClass; 15] = [
        FaultClass::NanValue,
        FaultClass::OutOfRangeValue,
        FaultClass::TruncatedRow,
        FaultClass::GarbageRow,
        FaultClass::DroppedRow,
        FaultClass::DuplicatedTimestamp,
        FaultClass::OutOfOrderTimestamp,
        FaultClass::PartialTrailingLine,
        FaultClass::MidStreamRotation,
        FaultClass::ShardSkewedIds,
        FaultClass::HotFeedBurst,
        FaultClass::TrainerPanic,
        FaultClass::PoisonedBuffer,
        FaultClass::CrashDuringPromotion,
        FaultClass::RegressingCandidate,
    ];

    /// Resolve a [`FaultClass::label`] back to its class — the parse
    /// direction scenario manifests need.
    #[must_use]
    pub fn from_label(label: &str) -> Option<FaultClass> {
        FaultClass::ALL.into_iter().find(|c| c.label() == label)
    }

    /// A stable human-readable label (for logs and test diagnostics).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::NanValue => "nan-value",
            FaultClass::OutOfRangeValue => "out-of-range-value",
            FaultClass::TruncatedRow => "truncated-row",
            FaultClass::GarbageRow => "garbage-row",
            FaultClass::DroppedRow => "dropped-row",
            FaultClass::DuplicatedTimestamp => "duplicated-timestamp",
            FaultClass::OutOfOrderTimestamp => "out-of-order-timestamp",
            FaultClass::PartialTrailingLine => "partial-trailing-line",
            FaultClass::MidStreamRotation => "mid-stream-rotation",
            FaultClass::ShardSkewedIds => "shard-skewed-ids",
            FaultClass::HotFeedBurst => "hot-feed-burst",
            FaultClass::TrainerPanic => "trainer-panic",
            FaultClass::PoisonedBuffer => "poisoned-buffer",
            FaultClass::CrashDuringPromotion => "crash-during-promotion",
            FaultClass::RegressingCandidate => "regressing-candidate",
        }
    }

    /// Whether this class corrupts the byte stream at all.
    /// [`FaultClass::LIFECYCLE_CORPUS`] classes are process-level: they
    /// are injected into the retraining lifecycle, not the feed.
    #[must_use]
    pub fn is_lifecycle(self) -> bool {
        FaultClass::LIFECYCLE_CORPUS.contains(&self)
    }
}

/// Exact counts of what [`FaultInjector::corrupt_csv`] injected.
///
/// Chaos tests assert ingestion-side quarantine counters *equal* these —
/// the injector never lets two corruptions land on the same row, so the
/// counts are unambiguous.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionReport {
    /// Rows whose feature value was replaced with `NaN`.
    pub nan_rows: usize,
    /// Rows whose feature value was replaced with an out-of-range number.
    pub out_of_range_rows: usize,
    /// Rows cut off mid-line.
    pub truncated_rows: usize,
    /// Rows replaced with unparseable garbage.
    pub garbage_rows: usize,
    /// Rows silently removed.
    pub dropped_rows: usize,
    /// Extra rows inserted with a timestamp already present.
    pub duplicated_rows: usize,
    /// Adjacent same-drive row pairs swapped (one timestamp descent each).
    pub swapped_pairs: usize,
    /// Trailing lines cut in half and left without a newline terminator.
    pub partial_tails: usize,
    /// Header copies inserted mid-stream (simulated rotations).
    pub rotations: usize,
    /// Rows whose drive id was remapped onto the hot shard.
    pub skewed_rows: usize,
    /// Stale duplicate rows re-appended as a retransmission burst.
    pub burst_rows: usize,
}

impl InjectionReport {
    /// Total number of injected corruptions across all classes.
    #[must_use]
    pub fn total(&self) -> usize {
        self.nan_rows
            + self.out_of_range_rows
            + self.truncated_rows
            + self.garbage_rows
            + self.dropped_rows
            + self.duplicated_rows
            + self.swapped_pairs
            + self.partial_tails
            + self.rotations
            + self.skewed_rows
            + self.burst_rows
    }
}

/// Location of a single injected bit flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitFlip {
    /// Byte offset of the flipped bit.
    pub offset: usize,
    /// Bit index within that byte (0 = least significant).
    pub bit: u8,
}

/// A seeded, deterministic corruption source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultInjector {
    seed: u64,
}

impl FaultInjector {
    /// An injector whose output is a pure function of `seed` and its
    /// inputs.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultInjector { seed }
    }

    /// Corrupt roughly `rate` of the data rows of a SMART CSV stream
    /// with faults of `class` (at least one row, if any row is eligible).
    ///
    /// The header line is never touched, no two corruptions land on the
    /// same row, and the returned [`InjectionReport`] counts exactly what
    /// was injected. `rate` is clamped to `[0, 1]`.
    #[must_use]
    pub fn corrupt_csv(
        &self,
        text: &str,
        class: FaultClass,
        rate: f64,
    ) -> (String, InjectionReport) {
        let mut rng =
            SplitMix64::new(self.seed ^ (class as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let mut report = InjectionReport::default();
        if lines.len() <= 1 {
            return (rejoin(&lines), report);
        }
        // Data rows are lines 1.. (0 is the header).
        let data = 1..lines.len();
        let n_rows = data.len();
        let quota = ((n_rows as f64 * rate.clamp(0.0, 1.0)) as usize).max(1);

        match class {
            FaultClass::NanValue => {
                for idx in pick(&mut rng, data, quota) {
                    if replace_feature(&mut lines[idx], &mut rng, "NaN") {
                        report.nan_rows += 1;
                    }
                }
            }
            FaultClass::OutOfRangeValue => {
                for idx in pick(&mut rng, data, quota) {
                    if replace_feature(&mut lines[idx], &mut rng, "9e12") {
                        report.out_of_range_rows += 1;
                    }
                }
            }
            FaultClass::TruncatedRow => {
                for idx in pick(&mut rng, data, quota) {
                    let line = &mut lines[idx];
                    line.truncate(line.len() / 2);
                    // A half-row must not still look like a full row.
                    if line.split(',').count() == ROW_FIELDS {
                        line.truncate(line.find(',').unwrap_or(1));
                    }
                    report.truncated_rows += 1;
                }
            }
            FaultClass::GarbageRow => {
                for idx in pick(&mut rng, data, quota) {
                    lines[idx] = format!("%%garbage#{:016x}%%", rng.next_u64());
                    report.garbage_rows += 1;
                }
            }
            FaultClass::DroppedRow => {
                let mut victims = pick(&mut rng, data, quota);
                victims.sort_unstable_by(|a, b| b.cmp(a));
                for idx in victims {
                    lines.remove(idx);
                    report.dropped_rows += 1;
                }
            }
            FaultClass::DuplicatedTimestamp => {
                let mut victims = pick(&mut rng, data, quota);
                victims.sort_unstable_by(|a, b| b.cmp(a));
                for idx in victims {
                    let copy = lines[idx].clone();
                    lines.insert(idx + 1, copy);
                    report.duplicated_rows += 1;
                }
            }
            FaultClass::OutOfOrderTimestamp => {
                report.swapped_pairs = swap_adjacent(&mut lines, &mut rng, quota);
            }
            FaultClass::PartialTrailingLine => {
                // Always exactly one: there is only one trailing line.
                let last = lines.len() - 1;
                let line = &mut lines[last];
                line.truncate(line.len() / 2);
                // A half-row must not still look like a full row.
                if line.split(',').count() == ROW_FIELDS {
                    line.truncate(line.find(',').unwrap_or(1));
                }
                report.partial_tails = 1;
                // The defining trait: the writer has not finished the
                // line, so there is no newline after it.
                let mut out = rejoin(&lines);
                out.pop();
                return (out, report);
            }
            FaultClass::MidStreamRotation => {
                let header = lines[0].clone();
                let mut victims = pick(&mut rng, data, quota);
                victims.sort_unstable_by(|a, b| b.cmp(a));
                for idx in victims {
                    lines.insert(idx, header.clone());
                    report.rotations += 1;
                }
            }
            FaultClass::ShardSkewedIds => {
                // Assign each distinct drive the next id that hashes to
                // shard 0 of 4 (matching the serving router's SplitMix64
                // partition): every row stays valid, ids stay distinct,
                // but one shard receives the entire fleet. `rate` does
                // not apply — skew is all-or-nothing by nature.
                // BTreeMap so the remapping is a function of row content
                // alone — no hasher state can reorder the candidate walk.
                let mut remap: std::collections::BTreeMap<String, u64> =
                    std::collections::BTreeMap::new();
                let mut candidate = 0u64;
                for idx in data {
                    let line = &mut lines[idx];
                    let mut fields: Vec<&str> = line.split(',').collect();
                    if fields.len() != ROW_FIELDS {
                        continue;
                    }
                    let id = *remap.entry(fields[0].to_string()).or_insert_with(|| loop {
                        let c = candidate;
                        candidate += 1;
                        if splitmix64(c).is_multiple_of(4) {
                            break c;
                        }
                    });
                    let id = id.to_string();
                    fields[0] = &id;
                    *line = fields.join(",");
                    report.skewed_rows += 1;
                }
            }
            FaultClass::HotFeedBurst => {
                // Re-append a copy of the trailing `quota` data rows; a
                // first-write-wins streaming reader must drop every one
                // of them as stale, counted, with no alarm impact.
                let start = lines.len() - quota.min(n_rows);
                let burst: Vec<String> = lines[start..].to_vec();
                report.burst_rows = burst.len();
                lines.extend(burst);
            }
            FaultClass::TrainerPanic
            | FaultClass::PoisonedBuffer
            | FaultClass::CrashDuringPromotion
            | FaultClass::RegressingCandidate => {
                // Lifecycle faults are process-level, not byte-level: the
                // stream passes through unchanged and nothing is counted.
                // The gauntlet maps these onto seeded lifecycle
                // injections (trainer panics, NaN buffer pushes, crash
                // cut points, inverted training labels) instead.
            }
        }
        (rejoin(&lines), report)
    }

    /// Flip one pseudo-random bit of `bytes` in place; `salt` varies the
    /// choice so one injector can produce many distinct flips.
    ///
    /// Returns `None` when `bytes` is empty.
    pub fn flip_bit(&self, bytes: &mut [u8], salt: u64) -> Option<BitFlip> {
        if bytes.is_empty() {
            return None;
        }
        let mut rng = SplitMix64::new(self.seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let offset = (rng.next_u64() % bytes.len() as u64) as usize;
        let bit = (rng.next_u64() % 8) as u8;
        bytes[offset] ^= 1 << bit;
        Some(BitFlip { offset, bit })
    }
}

/// One replayable corruption scenario: a seed, a fault class and a rate,
/// round-trippable through a single manifest line.
///
/// The manifest line — `seed=<n> class=<label> rate=<f>` — is the
/// committed artifact: because [`FaultInjector`] is a pure function of
/// `(seed, input, class, rate)`, regenerating from a parsed manifest is
/// byte-identical to the run that produced it, forever. Extra
/// whitespace-separated `key=value` tokens (checksums, notes) are
/// ignored by [`ScenarioReplay::parse`] so corpora can annotate lines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioReplay {
    /// The injector seed.
    pub seed: u64,
    /// Which corruption to inject.
    pub class: FaultClass,
    /// Fraction of data rows to corrupt (clamped to `[0, 1]` on apply).
    pub rate: f64,
}

impl ScenarioReplay {
    /// Serialize to the one-line manifest form.
    #[must_use]
    pub fn manifest_line(&self) -> String {
        format!(
            "seed={} class={} rate={}",
            self.seed,
            self.class.label(),
            self.rate
        )
    }

    /// Parse a manifest line (`seed=… class=… rate=…`, any order,
    /// unknown tokens ignored). Returns `None` when any of the three
    /// required keys is missing or malformed.
    #[must_use]
    pub fn parse(line: &str) -> Option<ScenarioReplay> {
        let mut seed = None;
        let mut class = None;
        let mut rate = None;
        for token in line.split_whitespace() {
            let Some((key, value)) = token.split_once('=') else {
                continue;
            };
            match key {
                "seed" => seed = value.parse::<u64>().ok(),
                "class" => class = FaultClass::from_label(value),
                "rate" => rate = value.parse::<f64>().ok(),
                _ => {}
            }
        }
        Some(ScenarioReplay {
            seed: seed?,
            class: class?,
            rate: rate?,
        })
    }

    /// Run the scenario against `text`; identical to
    /// [`FaultInjector::corrupt_csv`] with this scenario's parameters.
    #[must_use]
    pub fn apply(&self, text: &str) -> (String, InjectionReport) {
        FaultInjector::new(self.seed).corrupt_csv(text, self.class, self.rate)
    }
}

/// Join lines back into newline-terminated text.
fn rejoin(lines: &[String]) -> String {
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Pick `quota` distinct indices from `range` via a seeded partial
/// Fisher–Yates shuffle. The result is unordered.
fn pick(rng: &mut SplitMix64, range: std::ops::Range<usize>, quota: usize) -> Vec<usize> {
    let mut indices: Vec<usize> = range.collect();
    let quota = quota.min(indices.len());
    for i in 0..quota {
        let j = i + (rng.next_u64() % (indices.len() - i) as u64) as usize;
        indices.swap(i, j);
    }
    indices.truncate(quota);
    indices
}

/// Replace one feature field of a CSV row with `value`. Returns `false`
/// (and leaves the row alone) when the row does not have the expected
/// field count.
fn replace_feature(line: &mut String, rng: &mut SplitMix64, value: &str) -> bool {
    let mut fields: Vec<&str> = line.split(',').collect();
    if fields.len() != ROW_FIELDS {
        return false;
    }
    let slot = FIRST_FEATURE + (rng.next_u64() % (ROW_FIELDS - FIRST_FEATURE) as u64) as usize;
    fields[slot] = value;
    *line = fields.join(",");
    true
}

/// Swap up to `quota` adjacent same-drive row pairs, keeping swaps at
/// least two rows apart so each produces exactly one timestamp descent.
/// Returns the number of pairs actually swapped.
fn swap_adjacent(lines: &mut [String], rng: &mut SplitMix64, quota: usize) -> usize {
    let drive_of = |line: &String| line.split(',').next().map(str::to_string);
    // Candidate positions i where rows i and i+1 share a drive.
    let mut candidates: Vec<usize> = (1..lines.len().saturating_sub(1))
        .filter(|&i| {
            let a = drive_of(&lines[i]);
            a.is_some() && a == drive_of(&lines[i + 1])
        })
        .collect();
    // Shuffle, then greedily accept non-adjacent positions.
    for i in (1..candidates.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        candidates.swap(i, j);
    }
    let mut accepted: Vec<usize> = Vec::new();
    for &i in &candidates {
        if accepted.len() >= quota {
            break;
        }
        if accepted.iter().all(|&a| a.abs_diff(i) > 2) {
            accepted.push(i);
        }
    }
    for &i in &accepted {
        lines.swap(i, i + 1);
    }
    accepted.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clean synthetic CSV: 3 drives × 20 hourly rows.
    fn clean_csv() -> String {
        let mut out = String::from("drive,failed,fail_hour,hour,a,b,c,d,e,f,g,h,i,j,k,l\n");
        for drive in 0..3 {
            for hour in 0..20 {
                out.push_str(&format!("{drive},0,,{hour}"));
                for f in 0..12 {
                    out.push_str(&format!(",{}", (drive + hour + f) % 7 + 1));
                }
                out.push('\n');
            }
        }
        out
    }

    #[test]
    fn corruption_is_deterministic() {
        let csv = clean_csv();
        for class in FaultClass::CSV_CORPUS {
            let (a, ra) = FaultInjector::new(7).corrupt_csv(&csv, class, 0.1);
            let (b, rb) = FaultInjector::new(7).corrupt_csv(&csv, class, 0.1);
            assert_eq!(a, b, "{class:?}");
            assert_eq!(ra, rb);
            let (c, _) = FaultInjector::new(8).corrupt_csv(&csv, class, 0.1);
            assert_ne!(a, c, "different seeds must differ for {class:?}");
        }
    }

    #[test]
    fn reports_count_exactly_what_changed() {
        let csv = clean_csv();
        let inj = FaultInjector::new(42);

        let (out, r) = inj.corrupt_csv(&csv, FaultClass::NanValue, 0.1);
        assert_eq!(r.nan_rows, 6, "10% of 60 rows");
        assert_eq!(out.matches("NaN").count(), 6);

        let (out, r) = inj.corrupt_csv(&csv, FaultClass::OutOfRangeValue, 0.1);
        assert_eq!(r.out_of_range_rows, 6);
        assert_eq!(out.matches("9e12").count(), 6);

        let (out, r) = inj.corrupt_csv(&csv, FaultClass::DroppedRow, 0.05);
        assert_eq!(r.dropped_rows, 3);
        assert_eq!(out.lines().count(), 1 + 60 - 3);

        let (out, r) = inj.corrupt_csv(&csv, FaultClass::DuplicatedTimestamp, 0.05);
        assert_eq!(r.duplicated_rows, 3);
        assert_eq!(out.lines().count(), 1 + 60 + 3);

        let (out, r) = inj.corrupt_csv(&csv, FaultClass::GarbageRow, 0.1);
        assert_eq!(r.garbage_rows, 6);
        assert_eq!(out.matches("%%garbage").count(), 6);
    }

    #[test]
    fn swaps_produce_exactly_one_descent_each() {
        let csv = clean_csv();
        let (out, r) =
            FaultInjector::new(3).corrupt_csv(&csv, FaultClass::OutOfOrderTimestamp, 0.1);
        assert!(r.swapped_pairs >= 1);
        // Count hour descents per drive in the corrupted stream.
        let mut descents = 0;
        let mut last: Option<(String, i64)> = None;
        for line in out.lines().skip(1) {
            let mut it = line.split(',');
            let drive = it.next().map(str::to_string).unwrap();
            let hour: i64 = it.nth(2).unwrap().parse().unwrap();
            if let Some((d, h)) = &last {
                if *d == drive && hour < *h {
                    descents += 1;
                }
            }
            last = Some((drive, hour));
        }
        assert_eq!(descents, r.swapped_pairs);
    }

    #[test]
    fn truncated_rows_no_longer_have_full_field_count() {
        let csv = clean_csv();
        let (out, r) = FaultInjector::new(9).corrupt_csv(&csv, FaultClass::TruncatedRow, 0.1);
        assert_eq!(r.truncated_rows, 6);
        let short = out
            .lines()
            .skip(1)
            .filter(|l| l.split(',').count() != 16)
            .count();
        assert_eq!(short, 6);
    }

    #[test]
    fn at_least_one_row_is_hit_even_at_tiny_rates() {
        let csv = clean_csv();
        let (_, r) = FaultInjector::new(1).corrupt_csv(&csv, FaultClass::NanValue, 1e-9);
        assert_eq!(r.nan_rows, 1);
    }

    #[test]
    fn header_is_never_touched() {
        let csv = clean_csv();
        let header = csv.lines().next().unwrap().to_string();
        for class in FaultClass::CSV_CORPUS {
            for seed in 0..10 {
                let (out, _) = FaultInjector::new(seed).corrupt_csv(&csv, class, 0.5);
                assert_eq!(out.lines().next().unwrap(), header, "{class:?}/{seed}");
            }
        }
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let original: Vec<u8> = (0..255).collect();
        for salt in 0..50 {
            let mut bytes = original.clone();
            let flip = FaultInjector::new(5).flip_bit(&mut bytes, salt).unwrap();
            let diff: Vec<usize> = (0..bytes.len())
                .filter(|&i| bytes[i] != original[i])
                .collect();
            assert_eq!(diff, vec![flip.offset]);
            assert_eq!(bytes[flip.offset] ^ original[flip.offset], 1 << flip.bit);
        }
        assert!(FaultInjector::new(5).flip_bit(&mut [], 0).is_none());
    }

    #[test]
    fn partial_trailing_line_is_cut_and_unterminated() {
        let csv = clean_csv();
        for seed in 0..10 {
            let (out, r) =
                FaultInjector::new(seed).corrupt_csv(&csv, FaultClass::PartialTrailingLine, 0.5);
            assert_eq!(r.partial_tails, 1);
            assert_eq!(r.total(), 1);
            assert!(!out.ends_with('\n'), "no newline after an in-flight append");
            let tail = out.lines().last().unwrap();
            assert_ne!(
                tail.split(',').count(),
                16,
                "half a row must not look whole: {tail:?}"
            );
            // Everything before the tail is untouched.
            let n = out.lines().count();
            assert_eq!(n, csv.lines().count());
            assert!(csv.starts_with(&out[..out.rfind('\n').unwrap() + 1]));
        }
    }

    #[test]
    fn rotation_inserts_exact_header_copies_mid_stream() {
        let csv = clean_csv();
        let header = csv.lines().next().unwrap();
        let (out, r) =
            FaultInjector::new(21).corrupt_csv(&csv, FaultClass::MidStreamRotation, 0.05);
        assert_eq!(r.rotations, 3, "5% of 60 rows");
        assert_eq!(out.lines().filter(|&l| l == header).count(), 1 + 3);
        assert_eq!(out.lines().count(), 1 + 60 + 3);
        assert_eq!(out.lines().next().unwrap(), header);
        // Inserted headers are mid-stream, not stacked at the top.
        assert_ne!(out.lines().nth(1).unwrap(), header);
    }

    #[test]
    fn stream_corpus_is_deterministic() {
        let csv = clean_csv();
        for class in FaultClass::STREAM_CORPUS {
            let (a, ra) = FaultInjector::new(7).corrupt_csv(&csv, class, 0.1);
            let (b, rb) = FaultInjector::new(7).corrupt_csv(&csv, class, 0.1);
            assert_eq!(a, b, "{class:?}");
            assert_eq!(ra, rb);
            assert!(!class.label().is_empty());
        }
    }

    #[test]
    fn skewed_ids_all_land_on_one_shard_and_stay_distinct() {
        let csv = clean_csv();
        let (out, r) = FaultInjector::new(11).corrupt_csv(&csv, FaultClass::ShardSkewedIds, 1.0);
        assert_eq!(r.skewed_rows, 60, "every data row is remapped");
        let mut per_original: std::collections::BTreeMap<u64, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, line) in out.lines().skip(1).enumerate() {
            let id: u64 = line.split(',').next().unwrap().parse().unwrap();
            assert_eq!(splitmix64(id) % 4, 0, "id {id} must hash to shard 0 of 4");
            per_original.entry(id).or_default().push(i);
        }
        // 3 original drives → 3 distinct remapped ids, 20 rows each.
        assert_eq!(per_original.len(), 3);
        assert!(per_original.values().all(|rows| rows.len() == 20));
        // Only the drive column changed.
        for (a, b) in csv.lines().zip(out.lines()).skip(1) {
            assert_eq!(a.split_once(',').unwrap().1, b.split_once(',').unwrap().1);
        }
    }

    #[test]
    fn skewed_id_remap_is_byte_identical_across_runs() {
        // Regression for the BTreeMap migration: the id remapping walks
        // a candidate counter per *first occurrence*, so its output must
        // depend only on row order — never on hasher state.
        let csv = clean_csv();
        let (a, _) = FaultInjector::new(11).corrupt_csv(&csv, FaultClass::ShardSkewedIds, 1.0);
        let (b, _) = FaultInjector::new(11).corrupt_csv(&csv, FaultClass::ShardSkewedIds, 1.0);
        assert_eq!(a, b, "remapped csv must be byte-identical run to run");
    }

    #[test]
    fn hot_feed_burst_re_appends_the_tail_verbatim() {
        let csv = clean_csv();
        let (out, r) = FaultInjector::new(4).corrupt_csv(&csv, FaultClass::HotFeedBurst, 0.1);
        assert_eq!(r.burst_rows, 6, "10% of 60 rows");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1 + 60 + 6);
        let original: Vec<&str> = csv.lines().collect();
        assert_eq!(&lines[..61], &original[..], "prefix untouched");
        assert_eq!(&lines[61..], &original[55..], "burst copies the tail");
    }

    #[test]
    fn topology_corpus_is_deterministic() {
        let csv = clean_csv();
        for class in FaultClass::TOPOLOGY_CORPUS {
            let (a, ra) = FaultInjector::new(7).corrupt_csv(&csv, class, 0.1);
            let (b, rb) = FaultInjector::new(7).corrupt_csv(&csv, class, 0.1);
            assert_eq!(a, b, "{class:?}");
            assert_eq!(ra, rb);
            assert!(!class.label().is_empty());
        }
    }

    #[test]
    fn scenario_replay_round_trips_through_its_manifest_line() {
        for class in FaultClass::ALL {
            let replay = ScenarioReplay {
                seed: 99,
                class,
                rate: 0.25,
            };
            let line = replay.manifest_line();
            assert_eq!(ScenarioReplay::parse(&line), Some(replay), "{line}");
        }
        // Unknown tokens are ignored; missing keys are refused.
        let with_extra = "rate=0.5 note=hello seed=3 class=garbage-row fnv=0xabc";
        let parsed = ScenarioReplay::parse(with_extra).unwrap();
        assert_eq!(parsed.seed, 3);
        assert_eq!(parsed.class, FaultClass::GarbageRow);
        assert_eq!(parsed.rate, 0.5);
        assert!(ScenarioReplay::parse("seed=3 rate=0.5").is_none());
        assert!(ScenarioReplay::parse("seed=x class=garbage-row rate=0.5").is_none());
    }

    #[test]
    fn committed_replay_corpus_regenerates_byte_identically() {
        let csv = clean_csv();
        let corpus = include_str!("../replay_corpus.txt");
        let mut checked = 0;
        for line in corpus.lines() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let replay = ScenarioReplay::parse(line)
                .unwrap_or_else(|| panic!("corpus line does not parse: {line}"));
            let committed = line
                .split_whitespace()
                .find_map(|t| t.strip_prefix("fnv=0x"))
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .unwrap_or_else(|| panic!("corpus line has no fnv: {line}"));
            let (out, _) = replay.apply(&csv);
            let (again, _) = replay.apply(&csv);
            assert_eq!(out, again, "replay must be deterministic: {line}");
            // The corpus fingerprint: FNV-1a 64 of the corrupted output.
            let fnv = hdd_smart::rng::fnv1a_extend(hdd_smart::rng::FNV1A_OFFSET, out.as_bytes());
            assert_eq!(
                fnv,
                committed,
                "regenerated output drifted from the committed artifact; \
                 expected line: {} fnv={fnv:#x}",
                replay.manifest_line(),
            );
            checked += 1;
        }
        assert!(checked >= 6, "corpus must not silently shrink");
    }

    #[test]
    fn empty_and_header_only_inputs_are_left_alone() {
        let inj = FaultInjector::new(0);
        let (out, r) = inj.corrupt_csv("header\n", FaultClass::DroppedRow, 0.5);
        assert_eq!(out, "header\n");
        assert_eq!(r.total(), 0);
    }
}
