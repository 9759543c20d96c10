//! Streaming scenario fleet generator.
//!
//! [`generate_fleet`] turns a [`ScenarioManifest`] into CSV feed bytes,
//! one drive at a time — memory stays constant in the fleet's *row*
//! count (only the per-drive spec table is held). Every draw comes from
//! the manifest seed through [`hdd_smart`]'s deterministic RNG, so the
//! same manifest always emits byte-identical feeds; [`fleet_fingerprint`]
//! regenerates into a hashing sink to prove it cheaply.
//!
//! Faults are injected *inline with exact counts* ([`FleetSummary`]),
//! which is what lets the gauntlet assert bounded degradation as
//! equalities (`stale_rows == injected_stale`) instead of tolerances:
//!
//! * stale rows — re-emitted tails and duplicates (burst, flood),
//! * garbage rows — unparseable lines aimed at the circuit breaker,
//! * rotations — mid-feed header lines the tailer counts as rotations.

use crate::manifest::ScenarioManifest;
use crate::scenario::Scenario;
use hdd_smart::csv::{write_header, write_series};
use hdd_smart::gen::generate_series;
use hdd_smart::rng::{fnv1a_extend, splitmix64, FNV1A_OFFSET};
use hdd_smart::time::OBSERVATION_HOURS;
use hdd_smart::{
    DatasetGenerator, DriveClass, DriveId, DriveSpec, FailureMode, FamilyProfile, Hour,
    SmartSample, SmartSeries, NUM_ATTRIBUTES,
};
use std::collections::BTreeMap;
use std::io::{self, Write};

/// Tail length re-emitted per bursting drive in `hot-feed-burst`.
const BURST_TAIL_ROWS: usize = 32;
/// Garbage lines per flood burst in `quarantine-flood` — sized so that
/// even split across four shards, each shard's 100-row breaker window
/// sees well over the default 0.1 quarantine ceiling.
const FLOOD_GARBAGE_ROWS: usize = 120;
/// Rows between injected header lines in `rotation-storm`.
const ROTATION_EVERY_ROWS: usize = 64;
/// Drives per rack in `rack-failures`.
const RACK_SIZE: usize = 8;
/// Oscillation half-period (hours) in `threshold-oscillator`.
const OSCILLATION_HOURS: u32 = 6;
/// Counter inflation at the far end of the drifted firmware cohort in
/// `firmware-cohort-drift` — raw counters grow 3× faster than the
/// population the incumbent was trained on.
const DRIFT_COUNTER_SCALE: f64 = 3.0;
/// Analog-attenuation floor at the far end of the drifted cohort: the
/// normalized-attribute half of the failure signature fades to 35 % of
/// its trained-on amplitude.
const DRIFT_ANALOG_FLOOR: f64 = 0.35;

/// Ground truth for one generated drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetTruth {
    /// The drive id as it appears in the feed.
    pub drive: u32,
    /// The hour the drive fails, `None` for good drives.
    pub fail_hour: Option<u32>,
}

/// What a generation pass emitted, with exact injected-fault counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetSummary {
    /// Ground truth per drive, in emission order.
    pub truth: Vec<FleetTruth>,
    /// Clean data rows written (first emission of each sample).
    pub clean_rows: usize,
    /// Rows the engine must count as stale (re-emissions, duplicates).
    pub injected_stale: usize,
    /// Unparseable rows the engine must quarantine.
    pub injected_garbage: usize,
    /// Mid-feed header lines ingest must count as rotations.
    pub injected_rotations: usize,
}

impl FleetSummary {
    /// Every line the engine will see as a data row.
    #[must_use]
    pub fn engine_rows(&self) -> usize {
        self.clean_rows + self.injected_stale + self.injected_garbage
    }
}

/// A counting FNV-1a 64 sink: hashes whatever is written through it.
///
/// Byte-identity of two generation passes reduces to comparing two
/// `(hash, len)` pairs instead of buffering either output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnvWriter {
    hash: u64,
    len: u64,
}

impl FnvWriter {
    /// An empty sink (the FNV-1a offset basis).
    #[must_use]
    pub fn new() -> Self {
        FnvWriter {
            hash: FNV1A_OFFSET,
            len: 0,
        }
    }

    /// The FNV-1a 64 hash of everything written so far.
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether nothing was written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for FnvWriter {
    fn default() -> Self {
        FnvWriter::new()
    }
}

impl Write for FnvWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.hash = fnv1a_extend(self.hash, buf);
        self.len += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Generate the manifest's fleet into `feeds` (one writer per feed).
///
/// # Errors
///
/// Propagates writer errors.
///
/// # Panics
///
/// Panics if `feeds.len()` differs from the manifest's `n_feeds` — the
/// caller built the wrong number of sinks.
pub fn generate_fleet<W: Write>(
    manifest: &ScenarioManifest,
    feeds: &mut [W],
) -> io::Result<FleetSummary> {
    assert_eq!(
        feeds.len(),
        manifest.n_feeds,
        "manifest wants {} feed(s), caller passed {}",
        manifest.n_feeds,
        feeds.len()
    );
    let mut gen = Generator {
        manifest,
        profile: FamilyProfile::w().scaled(manifest.scale),
        summary: FleetSummary::default(),
        rows_since_rotation: vec![0; feeds.len()],
        garbage_counter: 0,
    };
    for feed in feeds.iter_mut() {
        write_header(&mut *feed)?;
    }
    match manifest.scenario {
        Scenario::CalibratedMix => gen.calibrated_mix(feeds)?,
        Scenario::HotFeedBurst => gen.hot_feed_burst(feeds)?,
        Scenario::RackFailures => gen.rack_failures(feeds)?,
        Scenario::RotationStorm => gen.rotation_storm(feeds)?,
        Scenario::ShardSkew => gen.shard_skew(feeds)?,
        Scenario::LateMimic => gen.late_mimic(feeds)?,
        Scenario::ThresholdOscillator => gen.threshold_oscillator(feeds)?,
        Scenario::QuarantineFlood => gen.quarantine_flood(feeds)?,
        Scenario::FirmwareCohortDrift => gen.firmware_cohort_drift(feeds)?,
    }
    for feed in feeds.iter_mut() {
        feed.flush()?;
    }
    Ok(gen.summary)
}

/// Regenerate the manifest's fleet into hashing sinks and return the
/// per-feed `(fnv64, byte_len)` fingerprints.
///
/// # Errors
///
/// Propagates generator errors (none occur for in-memory sinks).
pub fn fleet_fingerprint(manifest: &ScenarioManifest) -> io::Result<Vec<(u64, u64)>> {
    let mut sinks = vec![FnvWriter::new(); manifest.n_feeds];
    generate_fleet(manifest, &mut sinks)?;
    Ok(sinks.into_iter().map(|s| (s.hash(), s.len())).collect())
}

struct Generator<'a> {
    manifest: &'a ScenarioManifest,
    profile: FamilyProfile,
    summary: FleetSummary,
    rows_since_rotation: Vec<usize>,
    garbage_counter: u64,
}

impl Generator<'_> {
    fn dataset(&self) -> hdd_smart::Dataset {
        DatasetGenerator::new(self.profile.clone(), self.manifest.seed).generate()
    }

    fn feed_of(&self, drive_index: usize) -> usize {
        drive_index % self.manifest.n_feeds
    }

    /// Record a clean series emission in the summary.
    fn record(&mut self, series: &SmartSeries) {
        self.summary.truth.push(FleetTruth {
            drive: series.drive.0,
            fail_hour: series.class.fail_hour().map(|h| h.0),
        });
        self.summary.clean_rows += series.len();
    }

    fn emit<W: Write>(
        &mut self,
        feed: &mut W,
        feed_idx: usize,
        series: &SmartSeries,
    ) -> io::Result<()> {
        self.record(series);
        self.rows_since_rotation[feed_idx] += series.len();
        write_series(feed, series)
    }

    /// `expected/calibrated-mix`: the paper's fleet, round-robined.
    fn calibrated_mix<W: Write>(&mut self, feeds: &mut [W]) -> io::Result<()> {
        let ds = self.dataset();
        for (i, spec) in ds.drives().iter().enumerate() {
            let f = self.feed_of(i);
            let series = ds.series(spec);
            self.emit(&mut feeds[f], f, &series)?;
        }
        Ok(())
    }

    /// `stress/hot-feed-burst`: feed 0 re-emits the recent tail of
    /// every other of its drives right after the clean series — rows
    /// the engine has already committed, so all of them must land in
    /// `stale_rows` and nowhere else.
    fn hot_feed_burst<W: Write>(&mut self, feeds: &mut [W]) -> io::Result<()> {
        let ds = self.dataset();
        for (i, spec) in ds.drives().iter().enumerate() {
            let f = self.feed_of(i);
            let series = ds.series(spec);
            self.emit(&mut feeds[f], f, &series)?;
            let bursts = f == 0 && (i / self.manifest.n_feeds).is_multiple_of(2);
            if bursts && !series.is_empty() {
                let tail_start = series.len().saturating_sub(BURST_TAIL_ROWS);
                let tail = &series.samples()[tail_start..];
                let replay = SmartSeries::new(series.drive, series.class, tail.to_vec());
                write_series(&mut feeds[f], &replay)?;
                self.summary.injected_stale += tail.len();
            }
        }
        Ok(())
    }

    /// `stress/rack-failures`: every fourth rack of [`RACK_SIZE`]
    /// drives is rewritten as correlated failures inside a tight
    /// window, alarms for a whole rack landing almost at once.
    fn rack_failures<W: Write>(&mut self, feeds: &mut [W]) -> io::Result<()> {
        const MODES: [FailureMode; 4] = [
            FailureMode::MediaDefects,
            FailureMode::MechanicalWear,
            FailureMode::Thermal,
            FailureMode::Electronic,
        ];
        let ds = self.dataset();
        for (i, spec) in ds.drives().iter().enumerate() {
            let f = self.feed_of(i);
            let rack = i / RACK_SIZE;
            let series = if rack % 4 == 3 {
                // The rack dies together: fail hours 2h apart, the
                // window itself placed per-rack but kept deep enough
                // into the observation period for a full pre-failure
                // trace.
                let base = 600 + (rack as u32 % 7) * 96;
                let fail_hour = Hour(base + (i % RACK_SIZE) as u32 * 2);
                let mut doomed = spec.clone();
                doomed.class = DriveClass::Failed { fail_hour };
                doomed.failure_mode = Some(MODES[i % MODES.len()]);
                doomed.deterioration_hours = 336.0;
                doomed.chronic_outlier = false;
                generate_series(&self.profile, self.manifest.seed, &doomed)
            } else {
                ds.series(spec)
            };
            self.emit(&mut feeds[f], f, &series)?;
        }
        Ok(())
    }

    /// `stress/rotation-storm`: a mid-feed header every
    /// [`ROTATION_EVERY_ROWS`] rows (each counted as a rotation by the
    /// tailer) on top of a deliberately unbalanced drive split — the
    /// short feed stalls the watermark so held-back alarms only drain
    /// through the idle flush.
    fn rotation_storm<W: Write>(&mut self, feeds: &mut [W]) -> io::Result<()> {
        let ds = self.dataset();
        let last = self.manifest.n_feeds - 1;
        for (i, spec) in ds.drives().iter().enumerate() {
            let f = if self.manifest.n_feeds == 1 || i % 4 != 3 {
                0
            } else {
                last
            };
            let series = ds.series(spec);
            self.emit(&mut feeds[f], f, &series)?;
            if self.rows_since_rotation[f] >= ROTATION_EVERY_ROWS {
                write_header(&mut feeds[f])?;
                self.summary.injected_rotations += 1;
                self.rows_since_rotation[f] = 0;
            }
        }
        Ok(())
    }

    /// `stress/shard-skew`: drive ids remapped onto the subset whose
    /// SplitMix64 hash lands on shard 0 at four shards (and therefore
    /// at two and one as well) — the whole population funnels into one
    /// shard while the others idle.
    fn shard_skew<W: Write>(&mut self, feeds: &mut [W]) -> io::Result<()> {
        let ds = self.dataset();
        let mut candidate = 0u32;
        for (i, spec) in ds.drives().iter().enumerate() {
            while splitmix64(u64::from(candidate)) & 3 != 0 {
                candidate += 1;
            }
            let mut skewed = spec.clone();
            skewed.id = DriveId(candidate);
            candidate += 1;
            let f = self.feed_of(i);
            let series = ds.series(&skewed);
            self.emit(&mut feeds[f], f, &series)?;
        }
        Ok(())
    }

    /// `adversarial/late-mimic`: failing drives whose deterioration
    /// window is squeezed to 24 hours — SMART values track healthy
    /// percentiles until the abrupt terminal plunge, starving the
    /// detector of lead time.
    fn late_mimic<W: Write>(&mut self, feeds: &mut [W]) -> io::Result<()> {
        let ds = self.dataset();
        for (i, spec) in ds.drives().iter().enumerate() {
            let f = self.feed_of(i);
            let series = match spec.class {
                DriveClass::Good => ds.series(spec),
                DriveClass::Failed { .. } => {
                    let mut mimic = spec.clone();
                    mimic.deterioration_hours = 24.0;
                    mimic.analog_attenuation = 1.0;
                    generate_series(&self.profile, self.manifest.seed, &mimic)
                }
            };
            self.emit(&mut feeds[f], f, &series)?;
        }
        Ok(())
    }

    /// `adversarial/threshold-oscillator`: the calibrated fleet plus
    /// good-*labelled* drives that alternate every
    /// [`OSCILLATION_HOURS`] between a healthy twin's values and a
    /// failing twin's — each flip can swing the per-sample class and
    /// thrash the voting window.
    fn threshold_oscillator<W: Write>(&mut self, feeds: &mut [W]) -> io::Result<()> {
        let ds = self.dataset();
        for (i, spec) in ds.drives().iter().enumerate() {
            let f = self.feed_of(i);
            let series = ds.series(spec);
            self.emit(&mut feeds[f], f, &series)?;
        }
        let n_drives = ds.drives().len();
        let n_osc = (n_drives / 4).max(4);
        let base_id = ds.drives().iter().map(|s| s.id.0).max().unwrap_or(0) + 1;
        for k in 0..n_osc {
            let id = DriveId(base_id + k as u32);
            let healthy = DriveSpec {
                id,
                class: DriveClass::Good,
                initial_age_hours: 20_000.0,
                failure_mode: None,
                deterioration_hours: 0.0,
                chronic_outlier: false,
                counter_scale: 1.0,
                analog_attenuation: 1.0,
                stream: 0x05C0_0000 + k as u64,
            };
            let failing = DriveSpec {
                class: DriveClass::Failed {
                    fail_hour: Hour(OBSERVATION_HOURS),
                },
                failure_mode: Some(FailureMode::MediaDefects),
                deterioration_hours: 480.0,
                stream: 0x0F01_0000 + k as u64,
                ..healthy.clone()
            };
            let healthy_series = generate_series(&self.profile, self.manifest.seed, &healthy);
            let failing_series = generate_series(&self.profile, self.manifest.seed, &failing);
            let failing_by_hour: BTreeMap<u32, [f32; NUM_ATTRIBUTES]> = failing_series
                .samples()
                .iter()
                .map(|s| (s.hour.0, s.values))
                .collect();
            // The failing twin only covers the pre-failure window;
            // outside the overlap the oscillator is simply healthy.
            let samples: Vec<SmartSample> = healthy_series
                .samples()
                .iter()
                .map(|s| {
                    let flip = (s.hour.0 / OSCILLATION_HOURS) % 2 == 1;
                    let values = if flip {
                        failing_by_hour.get(&s.hour.0).copied().unwrap_or(s.values)
                    } else {
                        s.values
                    };
                    SmartSample {
                        hour: s.hour,
                        values,
                    }
                })
                .collect();
            let oscillator = SmartSeries::new(id, DriveClass::Good, samples);
            let f = self.feed_of(n_drives + k);
            self.emit(&mut feeds[f], f, &oscillator)?;
        }
        Ok(())
    }

    /// `adversarial/quarantine-flood`: after every other drive, a burst
    /// of [`FLOOD_GARBAGE_ROWS`] distinct unparseable lines (they route
    /// by a hash of the line, spreading across shards); after *every*
    /// drive, its first and last rows are duplicated. Garbage must land
    /// in `parse_failures` (tripping the breaker), duplicates in
    /// `stale_rows`, and nothing else may move.
    fn quarantine_flood<W: Write>(&mut self, feeds: &mut [W]) -> io::Result<()> {
        let ds = self.dataset();
        for (i, spec) in ds.drives().iter().enumerate() {
            let f = self.feed_of(i);
            let series = ds.series(spec);
            self.emit(&mut feeds[f], f, &series)?;
            if let (Some(first), Some(last)) = (series.samples().first(), series.samples().last()) {
                for sample in [last, first] {
                    let dup = SmartSeries::new(series.drive, series.class, vec![*sample]);
                    write_series(&mut feeds[f], &dup)?;
                    self.summary.injected_stale += 1;
                }
            }
            if i % 2 == 0 {
                for _ in 0..FLOOD_GARBAGE_ROWS {
                    let token = splitmix64(self.manifest.seed ^ self.garbage_counter);
                    self.garbage_counter += 1;
                    writeln!(&mut feeds[f], "%%flood-{token:016x}%%")?;
                    self.summary.injected_garbage += 1;
                }
            }
        }
        Ok(())
    }

    /// `adversarial/firmware-cohort-drift`: the first half of the fleet
    /// is the calibrated population the incumbent was trained on; the
    /// second half is a newer firmware cohort whose attribute
    /// distributions drift linearly with cohort position — counters
    /// inflate toward [`DRIFT_COUNTER_SCALE`], analog signals attenuate
    /// toward [`DRIFT_ANALOG_FLOOR`] — with a small seed-keyed jitter so
    /// no two manifests drift identically. A model frozen on the first
    /// cohort's cut points decays on the second; one retrained on live
    /// drifted rows recovers.
    fn firmware_cohort_drift<W: Write>(&mut self, feeds: &mut [W]) -> io::Result<()> {
        let ds = self.dataset();
        let n = ds.drives().len();
        let cohort_start = n / 2;
        let cohort_len = (n - cohort_start).max(1);
        for (i, spec) in ds.drives().iter().enumerate() {
            let f = self.feed_of(i);
            let series = if i < cohort_start {
                ds.series(spec)
            } else {
                let progress = (i - cohort_start) as f64 / cohort_len as f64;
                let jitter = (splitmix64(self.manifest.seed ^ i as u64) % 1000) as f64 / 10_000.0;
                let drift = (progress + jitter).min(1.0);
                let mut shifted = spec.clone();
                shifted.counter_scale =
                    spec.counter_scale * (1.0 + drift * (DRIFT_COUNTER_SCALE - 1.0));
                shifted.analog_attenuation =
                    spec.analog_attenuation * (1.0 - drift * (1.0 - DRIFT_ANALOG_FLOOR));
                generate_series(&self.profile, self.manifest.seed, &shifted)
            };
            self.emit(&mut feeds[f], f, &series)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::ScenarioManifest;
    use hdd_json::JsonCodec as _;

    fn tiny(scenario: Scenario) -> ScenarioManifest {
        ScenarioManifest::new(0xF1EE7, scenario, 0.001, 2)
    }

    #[test]
    fn same_manifest_regenerates_byte_identically() {
        for scenario in Scenario::ALL {
            let m = tiny(scenario);
            let first = fleet_fingerprint(&m).unwrap();
            let second = fleet_fingerprint(&m).unwrap();
            assert_eq!(first, second, "{}", scenario.label());
            assert!(
                first.iter().all(|&(_, len)| len > 0),
                "{}: a feed came out empty",
                scenario.label()
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = fleet_fingerprint(&tiny(Scenario::CalibratedMix)).unwrap();
        let b = fleet_fingerprint(&ScenarioManifest::new(
            0xF1EE8,
            Scenario::CalibratedMix,
            0.001,
            2,
        ))
        .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn summaries_count_exactly_what_was_emitted() {
        for scenario in Scenario::ALL {
            let m = tiny(scenario);
            let mut feeds = vec![Vec::<u8>::new(), Vec::new()];
            let summary = generate_fleet(&m, &mut feeds).unwrap();
            let text: Vec<String> = feeds
                .iter()
                .map(|f| String::from_utf8(f.clone()).unwrap())
                .collect();
            let garbage: usize = text
                .iter()
                .map(|t| t.lines().filter(|l| l.starts_with("%%flood-")).count())
                .sum();
            assert_eq!(garbage, summary.injected_garbage, "{}", scenario.label());
            let headers: usize = text
                .iter()
                .map(|t| t.lines().filter(|l| l.starts_with("drive,")).count())
                .sum();
            // One leading header per feed; the rest are injected
            // rotations.
            assert_eq!(
                headers,
                m.n_feeds + summary.injected_rotations,
                "{}",
                scenario.label()
            );
            let data_rows: usize = text
                .iter()
                .map(|t| {
                    t.lines()
                        .filter(|l| !l.is_empty() && !l.starts_with("drive,"))
                        .count()
                })
                .sum();
            assert_eq!(data_rows, summary.engine_rows(), "{}", scenario.label());
            assert!(!summary.truth.is_empty(), "{}", scenario.label());
        }
    }

    #[test]
    fn shard_skew_ids_all_route_to_shard_zero() {
        let m = tiny(Scenario::ShardSkew);
        let mut feeds = vec![Vec::<u8>::new(), Vec::new()];
        let summary = generate_fleet(&m, &mut feeds).unwrap();
        for t in &summary.truth {
            assert_eq!(
                splitmix64(u64::from(t.drive)) & 3,
                0,
                "drive {} escapes shard 0",
                t.drive
            );
        }
    }

    #[test]
    fn oscillators_are_labelled_good() {
        let m = tiny(Scenario::ThresholdOscillator);
        let fingerprint_baseline = fleet_fingerprint(&tiny(Scenario::CalibratedMix)).unwrap();
        let fingerprint = fleet_fingerprint(&m).unwrap();
        assert_ne!(fingerprint, fingerprint_baseline);
        let mut feeds = vec![Vec::<u8>::new(), Vec::new()];
        let summary = generate_fleet(&m, &mut feeds).unwrap();
        let baseline = generate_fleet(
            &tiny(Scenario::CalibratedMix),
            &mut [Vec::<u8>::new(), Vec::new()],
        )
        .unwrap();
        let extra = summary.truth.len() - baseline.truth.len();
        assert!(extra >= 4, "expected oscillator drives, got {extra}");
        assert!(summary.truth[baseline.truth.len()..]
            .iter()
            .all(|t| t.fail_hour.is_none()));
    }

    #[test]
    fn firmware_cohort_drift_shifts_values_not_labels() {
        // The drift attacks the attribute distributions, not the ground
        // truth: the fleet has the same drives with the same fail hours
        // as the calibrated mix, but the emitted bytes differ (the
        // drifted cohort's SMART values moved).
        let m = tiny(Scenario::FirmwareCohortDrift);
        let baseline_m = tiny(Scenario::CalibratedMix);
        let mut feeds = vec![Vec::<u8>::new(), Vec::new()];
        let drifted = generate_fleet(&m, &mut feeds).unwrap();
        let baseline = generate_fleet(&baseline_m, &mut [Vec::<u8>::new(), Vec::new()]).unwrap();
        assert_eq!(drifted.truth, baseline.truth);
        assert_eq!(drifted.injected_stale, 0);
        assert_eq!(drifted.injected_garbage, 0);
        assert_ne!(
            fleet_fingerprint(&m).unwrap(),
            fleet_fingerprint(&baseline_m).unwrap()
        );
    }

    #[test]
    fn committed_manifest_regenerates_byte_identically() {
        // The committed manifest is the workload-side replay artifact:
        // regenerating from it must reproduce the recorded per-feed
        // fingerprints forever. A mismatch means the generator is no
        // longer a pure function of its manifest.
        let text = include_str!("../manifests/calibrated-mix.json");
        let value = hdd_json::parse(text).unwrap();
        let manifest = ScenarioManifest::from_json(&value).unwrap();
        let committed: Vec<String> = match value.field("fnv").unwrap() {
            hdd_json::Value::Arr(items) => items
                .iter()
                .map(|v| match v {
                    hdd_json::Value::Str(s) => s.clone(),
                    other => panic!("fnv entries must be strings, got {other:?}"),
                })
                .collect(),
            other => panic!("fnv must be an array, got {other:?}"),
        };
        let fresh: Vec<String> = fleet_fingerprint(&manifest)
            .unwrap()
            .into_iter()
            .map(|(hash, len)| format!("{hash:#018x}:{len}"))
            .collect();
        assert_eq!(fresh, committed);
    }
}
