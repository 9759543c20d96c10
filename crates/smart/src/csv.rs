//! CSV interchange for SMART series.
//!
//! Real deployments would feed the models from `smartctl` logs; this module
//! defines a simple flat format so synthesized traces can be exported for
//! external analysis, and externally collected traces (e.g. the public
//! Backblaze dataset reshaped to Table II's features) can be imported.
//!
//! Format: a header line followed by one row per sample —
//! `drive,failed,fail_hour,hour,<12 feature columns>`; `fail_hour` is empty
//! for good drives. Rows of one drive must be contiguous, but need *not*
//! be chronologically ordered: both readers sort each drive's samples by
//! hour and deduplicate repeated timestamps with a last-write-wins policy
//! (the later row in file order replaces the earlier one — re-transmitted
//! telemetry supersedes the original).
//!
//! Two readers share one parser:
//!
//! * [`read_series`] is strict — the first malformed row aborts the
//!   import with a [`CsvError::Parse`] naming the 1-based line.
//! * [`read_series_quarantined`] is the fleet-ingestion path — malformed
//!   rows, non-finite or out-of-range values, and undecodable drives are
//!   *quarantined* (skipped and counted in a [`QuarantineReport`])
//!   instead of aborting, up to a configurable ceiling on the quarantined
//!   fraction ([`IngestPolicy`]).

use crate::attr::{BASIC_ATTRIBUTES, NUM_ATTRIBUTES};
use crate::drive::{DriveClass, DriveId};
use crate::series::{SmartSample, SmartSeries};
use crate::time::Hour;
use std::io::{self, BufRead, Write};

/// Largest plausible feature value: normalized SMART attributes live in
/// 1–253 and raw counters are bounded by the observation horizon; a
/// reading beyond this is sensor garbage, not a measurement.
pub const MAX_FEATURE_VALUE: f64 = 1e9;

/// Error from CSV import.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line, with its 1-based line number and a reason.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// Quarantined rows exceeded the [`IngestPolicy`] ceiling — the
    /// stream is too corrupt to trust what survived.
    QuarantineLimit {
        /// Rows quarantined.
        quarantined: usize,
        /// Data rows seen in total.
        total: usize,
        /// The configured ceiling that was exceeded.
        max_fraction: f64,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "i/o error: {e}"),
            CsvError::Parse { line, reason } => write!(f, "line {line}: {reason}"),
            CsvError::QuarantineLimit {
                quarantined,
                total,
                max_fraction,
            } => write!(
                f,
                "quarantined {quarantined} of {total} rows, over the {:.1}% ceiling",
                max_fraction * 100.0
            ),
        }
    }
}

impl std::error::Error for CsvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsvError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Limits for quarantine-based ingestion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestPolicy {
    /// Hard ceiling on the quarantined fraction of data rows; when more
    /// than this share of the stream is quarantined the whole import
    /// fails with [`CsvError::QuarantineLimit`].
    pub max_quarantine_fraction: f64,
}

impl Default for IngestPolicy {
    /// Tolerate up to 10% quarantined rows.
    fn default() -> Self {
        IngestPolicy {
            max_quarantine_fraction: 0.1,
        }
    }
}

/// What quarantine-based ingestion skipped, counted per category.
///
/// *Quarantined* rows (unparseable, unusable values, conflicting drive
/// metadata) are dropped from the import; duplicated and out-of-order
/// timestamps are *repaired* (dedup / sort), so they are counted here but
/// do not count against the quarantine ceiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuarantineReport {
    /// Data rows encountered (everything after the header, including
    /// rows that were later quarantined).
    pub rows_seen: usize,
    /// Rows that made it into a series.
    pub rows_ingested: usize,
    /// Rows that failed structural parsing (wrong field count, bad
    /// numbers, invalid UTF-8, truncated lines).
    pub parse_failures: usize,
    /// Rows carrying a NaN or infinite feature value.
    pub non_finite_rows: usize,
    /// Rows with a finite feature value outside `[0, MAX_FEATURE_VALUE]`.
    pub out_of_range_rows: usize,
    /// Rows whose class metadata contradicted earlier rows of the same
    /// drive (e.g. a good drive suddenly claiming a fail hour).
    pub conflicting_rows: usize,
    /// Extra rows repeating an already-seen timestamp; resolved
    /// last-write-wins.
    pub duplicate_timestamps: usize,
    /// Rows arriving with a timestamp older than their predecessor;
    /// repaired by sorting.
    pub out_of_order_rows: usize,
    /// Drives whose rows were *all* quarantined (no usable sample).
    pub drives_quarantined: usize,
}

impl QuarantineReport {
    /// Rows dropped from the import (repaired rows not included).
    #[must_use]
    pub fn quarantined_rows(&self) -> usize {
        self.parse_failures + self.non_finite_rows + self.out_of_range_rows + self.conflicting_rows
    }

    /// Quarantined share of the data rows seen (`0.0` for empty input).
    #[must_use]
    pub fn quarantined_fraction(&self) -> f64 {
        if self.rows_seen == 0 {
            0.0
        } else {
            self.quarantined_rows() as f64 / self.rows_seen as f64
        }
    }

    /// Whether anything at all was skipped or repaired.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.quarantined_rows() == 0
            && self.duplicate_timestamps == 0
            && self.out_of_order_rows == 0
    }
}

impl std::fmt::Display for QuarantineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ingested {}/{} rows ({} parse failures, {} non-finite, {} out-of-range, \
             {} conflicting; repaired {} duplicate and {} out-of-order timestamps; \
             {} drives quarantined)",
            self.rows_ingested,
            self.rows_seen,
            self.parse_failures,
            self.non_finite_rows,
            self.out_of_range_rows,
            self.conflicting_rows,
            self.duplicate_timestamps,
            self.out_of_order_rows,
            self.drives_quarantined
        )
    }
}

/// The outcome of quarantine-based ingestion.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvImport {
    /// Series assembled from the usable rows.
    pub series: Vec<SmartSeries>,
    /// What was skipped or repaired along the way.
    pub report: QuarantineReport,
}

/// Write the header line.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_header<W: Write>(mut w: W) -> io::Result<()> {
    write!(w, "drive,failed,fail_hour,hour")?;
    for attr in BASIC_ATTRIBUTES {
        write!(w, ",{}", attr.mnemonic())?;
    }
    writeln!(w)
}

/// Append every sample of `series` as CSV rows.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_series<W: Write>(mut w: W, series: &SmartSeries) -> io::Result<()> {
    let (failed, fail_hour) = match series.class {
        DriveClass::Good => (0, String::new()),
        DriveClass::Failed { fail_hour } => (1, fail_hour.0.to_string()),
    };
    for s in series.samples() {
        write!(
            w,
            "{},{},{},{}",
            series.drive.0, failed, fail_hour, s.hour.0
        )?;
        for v in s.values {
            write!(w, ",{v}")?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// One successfully parsed data row.
///
/// Public because the streaming service parses its feed line by line
/// with [`parse_data_line`] instead of going through the whole-file
/// readers.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvRow {
    /// The drive the row belongs to.
    pub drive: DriveId,
    /// The drive's class metadata as this row states it.
    pub class: DriveClass,
    /// The measurement itself.
    pub sample: SmartSample,
}

/// Why a structurally valid row is still unusable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueFault {
    /// A feature value parsed but is NaN or infinite.
    NonFinite,
    /// A finite feature value outside `[0, MAX_FEATURE_VALUE]`.
    OutOfRange,
}

/// Whether a line is (a copy of) the CSV header — its first field is the
/// literal column name `drive` rather than a drive id. The streaming
/// tailer treats a mid-stream header as a rotation marker.
#[must_use]
pub fn is_header_line(line: &str) -> bool {
    matches!(line.split(',').next(), Some("drive"))
}

/// Fields in a data row: `drive,failed,fail_hour,hour` and the features.
const ROW_FIELDS: usize = 4 + NUM_ATTRIBUTES;

/// Why a data line does not parse. Its `Display` text is the reason a
/// strict import reports in [`CsvError::Parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowError {
    /// The line is not valid UTF-8.
    InvalidUtf8,
    /// The line does not split into 16 comma-separated fields; carries
    /// how many it does split into.
    FieldCount(usize),
    /// The drive id is not a `u32`.
    DriveId,
    /// The `failed` flag is neither `0` nor `1`.
    FailedFlag,
    /// A failed drive's `fail_hour` is not a `u32`, or a good drive's is
    /// not empty.
    FailHour,
    /// The hour is not a `u32`.
    Hour,
    /// A feature value is not an `f32`.
    FeatureValue,
}

impl std::fmt::Display for RowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RowError::InvalidUtf8 => f.write_str("invalid UTF-8"),
            RowError::FieldCount(n) => write!(f, "expected {ROW_FIELDS} fields, got {n}"),
            RowError::DriveId => f.write_str("bad drive id"),
            RowError::FailedFlag => f.write_str("bad failed flag"),
            RowError::FailHour => f.write_str("bad fail hour"),
            RowError::Hour => f.write_str("bad hour"),
            RowError::FeatureValue => f.write_str("bad feature value"),
        }
    }
}

impl std::error::Error for RowError {}

/// One field of a line: its bytes, and their value when they are 1–9
/// ASCII digits (below 10^9, so no `u32` overflows).
struct Field<'a> {
    bytes: &'a [u8],
    digits: Option<u32>,
}

impl Field<'_> {
    fn u32(&self) -> Option<u32> {
        self.digits.or_else(|| parse_str(self.bytes))
    }

    /// The field as `str::parse::<f32>` reads it. Up to 7 digits the
    /// integer is below 2^24, so it is exactly an `f32` and the
    /// correctly rounded parse gives the same bits.
    fn f32(&self) -> Option<f32> {
        match self.digits {
            Some(n) if self.bytes.len() <= 7 => Some(n as f32),
            _ => parse_str(self.bytes),
        }
    }
}

/// The slow path, for every form the digit runs do not cover: signs,
/// `.`, exponents, `NaN`, `inf`, empty fields and long digit runs.
fn parse_str<T: std::str::FromStr>(bytes: &[u8]) -> Option<T> {
    std::str::from_utf8(bytes).ok()?.parse().ok()
}

/// A single left-to-right pass over a line's bytes, a field at a time,
/// splitting exactly where `str::split(',')` does.
struct FieldWalk<'a> {
    line: &'a [u8],
    /// Where the next field starts; `None` once the last one is taken.
    next: Option<usize>,
    /// Fields taken so far.
    taken: usize,
    /// Every byte outside a field's leading digits, OR-ed together: bit 7
    /// is set when the line holds a non-ASCII byte.
    high: u8,
}

impl<'a> FieldWalk<'a> {
    fn new(line: &'a [u8]) -> Self {
        FieldWalk {
            line,
            next: Some(0),
            taken: 0,
            high: 0,
        }
    }

    fn next(&mut self) -> Option<Field<'a>> {
        let line = self.line;
        let start = self.next?;
        let mut i = start;
        let mut n = 0u32;
        while i < line.len() && i - start < 9 {
            let d = line[i].wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            n = n * 10 + u32::from(d);
            i += 1;
        }
        let digits_end = i;
        while i < line.len() && line[i] != b',' {
            self.high |= line[i];
            i += 1;
        }
        self.next = (i < line.len()).then_some(i + 1);
        self.taken += 1;
        Some(Field {
            bytes: &line[start..i],
            digits: (i == digits_end && i > start).then_some(n),
        })
    }
}

/// Parse one data line — the unit both the whole-file readers and the
/// streaming service are built on.
///
/// The outer `Ok` carries a [`ValueFault`] when the row parsed but holds
/// an unusable measurement.
///
/// # Errors
///
/// A [`RowError`] is a structural failure: wrong field count, a field
/// that does not parse, or a `failed` flag and `fail_hour` that do not
/// agree.
pub fn parse_data_line(line: &str) -> Result<(CsvRow, Option<ValueFault>), RowError> {
    parse_data_bytes(line.as_bytes())
}

/// [`parse_data_line`] over raw bytes, which need not be UTF-8.
///
/// The line is walked once and nothing is allocated. Errors rank as they
/// would if the line were decoded and split first: invalid UTF-8, then
/// the field count, then the first field that does not parse.
///
/// # Errors
///
/// As [`parse_data_line`], plus [`RowError::InvalidUtf8`].
pub fn parse_data_bytes(line: &[u8]) -> Result<(CsvRow, Option<ValueFault>), RowError> {
    let mut walk = FieldWalk::new(line);
    let parsed = parse_fields(&mut walk);
    while walk.next().is_some() {}
    if walk.high >= 0x80 && std::str::from_utf8(line).is_err() {
        return Err(RowError::InvalidUtf8);
    }
    if walk.taken != ROW_FIELDS {
        return Err(RowError::FieldCount(walk.taken));
    }
    parsed
}

/// Take and parse the row's fields in order, stopping at the first one
/// that fails. A missing field's error is moot: the field count outranks
/// it.
fn parse_fields(walk: &mut FieldWalk<'_>) -> Result<(CsvRow, Option<ValueFault>), RowError> {
    let drive = DriveId(walk.next().and_then(|f| f.u32()).ok_or(RowError::DriveId)?);
    let failed = walk.next().and_then(|f| f.u32());
    let fail_hour = walk.next();
    let class = match (failed, fail_hour) {
        (Some(0), Some(f)) if f.bytes.is_empty() => DriveClass::Good,
        (Some(0), _) => return Err(RowError::FailHour),
        (Some(1), f) => DriveClass::Failed {
            fail_hour: Hour(f.and_then(|f| f.u32()).ok_or(RowError::FailHour)?),
        },
        _ => return Err(RowError::FailedFlag),
    };
    let hour = Hour(walk.next().and_then(|f| f.u32()).ok_or(RowError::Hour)?);
    let mut values = [0.0f32; NUM_ATTRIBUTES];
    let mut fault = None;
    for slot in &mut values {
        let v = walk
            .next()
            .and_then(|f| f.f32())
            .ok_or(RowError::FeatureValue)?;
        if !v.is_finite() {
            fault = Some(ValueFault::NonFinite);
        } else if fault.is_none() && !(0.0..=MAX_FEATURE_VALUE).contains(&f64::from(v)) {
            fault = Some(ValueFault::OutOfRange);
        }
        *slot = v;
    }
    Ok((
        CsvRow {
            drive,
            class,
            sample: SmartSample { hour, values },
        },
        fault,
    ))
}

/// One contiguous run of rows belonging to a single drive.
struct Run {
    drive: DriveId,
    class: DriveClass,
    samples: Vec<SmartSample>,
}

impl Run {
    /// Sort by hour, resolve duplicate timestamps last-write-wins, and
    /// emit the series (or quarantine the drive when nothing survived).
    fn finish(self, report: &mut QuarantineReport, out: &mut Vec<SmartSeries>) {
        if self.samples.is_empty() {
            report.drives_quarantined += 1;
            return;
        }
        let mut samples = self.samples;
        // Count timestamp descents before repairing the order (each
        // adjacent inversion is one out-of-order arrival).
        report.out_of_order_rows += samples.windows(2).filter(|w| w[1].hour < w[0].hour).count();
        // Stable sort keeps file order within equal timestamps, so
        // "keep the last of each group" is exactly last-write-wins.
        samples.sort_by_key(|s| s.hour);
        let mut deduped: Vec<SmartSample> = Vec::with_capacity(samples.len());
        for s in samples {
            match deduped.last_mut() {
                Some(prev) if prev.hour == s.hour => {
                    *prev = s;
                    report.duplicate_timestamps += 1;
                }
                _ => deduped.push(s),
            }
        }
        report.rows_ingested += deduped.len();
        out.push(SmartSeries::new(self.drive, self.class, deduped));
    }
}

/// How the shared reader reacts to bad rows.
enum Mode {
    /// Abort on the first problem.
    Strict,
    /// Skip, count, keep going.
    Quarantine,
}

fn read_series_impl<R: BufRead>(
    mut r: R,
    mode: &Mode,
) -> Result<(Vec<SmartSeries>, QuarantineReport), CsvError> {
    let mut out: Vec<SmartSeries> = Vec::new();
    let mut report = QuarantineReport::default();
    let mut current: Option<Run> = None;
    // One line at a time through one reused buffer: memory stays bounded
    // by the longest line, whatever the file's size.
    let mut buf = Vec::new();
    let mut lineno = 0;

    loop {
        buf.clear();
        if r.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        lineno += 1;
        if lineno == 1 {
            continue; // header
        }
        // Tolerate CRLF line endings and skip blank lines.
        let raw = buf.strip_suffix(b"\n").unwrap_or(&buf);
        let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
        if raw.is_empty() {
            continue;
        }
        report.rows_seen += 1;
        let structural = parse_data_bytes(raw);
        let (row, fault) = match structural {
            Ok(parsed) => parsed,
            Err(reason) => match mode {
                Mode::Strict => {
                    return Err(CsvError::Parse {
                        line: lineno,
                        reason: reason.to_string(),
                    })
                }
                Mode::Quarantine => {
                    report.parse_failures += 1;
                    continue;
                }
            },
        };
        if let Some(fault) = fault {
            let reason = match fault {
                ValueFault::NonFinite => "non-finite feature value",
                ValueFault::OutOfRange => "feature value out of range",
            };
            match mode {
                Mode::Strict => {
                    return Err(CsvError::Parse {
                        line: lineno,
                        reason: reason.to_string(),
                    })
                }
                Mode::Quarantine => {
                    match fault {
                        ValueFault::NonFinite => report.non_finite_rows += 1,
                        ValueFault::OutOfRange => report.out_of_range_rows += 1,
                    }
                    // Keep the drive's run alive: the row still names the
                    // drive, only its measurement is unusable.
                    if current.as_ref().is_none_or(|run| run.drive != row.drive) {
                        if let Some(run) = current.take() {
                            run.finish(&mut report, &mut out);
                        }
                        current = Some(Run {
                            drive: row.drive,
                            class: row.class,
                            samples: Vec::new(),
                        });
                    }
                    continue;
                }
            }
        }
        match &mut current {
            Some(run) if run.drive == row.drive => {
                if run.class != row.class {
                    match mode {
                        Mode::Strict => {
                            return Err(CsvError::Parse {
                                line: lineno,
                                reason: "row contradicts the drive's class metadata".to_string(),
                            })
                        }
                        Mode::Quarantine => {
                            report.conflicting_rows += 1;
                            continue;
                        }
                    }
                }
                run.samples.push(row.sample);
            }
            _ => {
                if let Some(run) = current.take() {
                    run.finish(&mut report, &mut out);
                }
                current = Some(Run {
                    drive: row.drive,
                    class: row.class,
                    samples: vec![row.sample],
                });
            }
        }
    }
    if lineno == 0 {
        return Err(CsvError::Parse {
            line: 1,
            reason: "empty input: missing header".to_string(),
        });
    }
    if let Some(run) = current.take() {
        run.finish(&mut report, &mut out);
    }
    Ok((out, report))
}

/// Read every series from a CSV stream written by [`write_header`] +
/// [`write_series`]. Rows of one drive must be contiguous; within a
/// drive, rows are sorted by hour and duplicate timestamps are resolved
/// last-write-wins.
///
/// This is the strict reader: the first malformed row (bad structure,
/// non-finite or out-of-range value, conflicting drive metadata) aborts
/// the import. Fleet-scale ingestion should prefer
/// [`read_series_quarantined`].
///
/// # Errors
///
/// Returns [`CsvError::Parse`] on malformed rows (with the 1-based line
/// number) and [`CsvError::Io`] on read failures.
pub fn read_series<R: BufRead>(r: R) -> Result<Vec<SmartSeries>, CsvError> {
    read_series_impl(r, &Mode::Strict).map(|(series, _)| series)
}

/// Read series with quarantine-based fault tolerance: malformed records
/// and undecodable drives are skipped and counted instead of aborting
/// the run, duplicate and out-of-order timestamps are repaired, and the
/// [`QuarantineReport`] says exactly what happened.
///
/// # Errors
///
/// Returns [`CsvError::QuarantineLimit`] when the quarantined fraction
/// exceeds `policy.max_quarantine_fraction` (the stream is too corrupt
/// to trust), [`CsvError::Parse`] only for a missing header, and
/// [`CsvError::Io`] on read failures.
pub fn read_series_quarantined<R: BufRead>(
    r: R,
    policy: &IngestPolicy,
) -> Result<CsvImport, CsvError> {
    let (series, report) = read_series_impl(r, &Mode::Quarantine)?;
    if report.quarantined_fraction() > policy.max_quarantine_fraction {
        return Err(CsvError::QuarantineLimit {
            quarantined: report.quarantined_rows(),
            total: report.rows_seen,
            max_fraction: policy.max_quarantine_fraction,
        });
    }
    Ok(CsvImport { series, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::FamilyProfile;
    use crate::gen::DatasetGenerator;

    #[test]
    fn round_trip_preserves_series() {
        let ds = DatasetGenerator::new(FamilyProfile::w().scaled(0.001), 21).generate();
        let mut buf = Vec::new();
        write_header(&mut buf).unwrap();
        let mut originals = Vec::new();
        for spec in ds.drives().iter().take(4) {
            let series = ds.series(spec);
            write_series(&mut buf, &series).unwrap();
            originals.push(series);
        }
        let parsed = read_series(buf.as_slice()).unwrap();
        assert_eq!(parsed.len(), originals.len());
        for (a, b) in parsed.iter().zip(&originals) {
            assert_eq!(a.drive, b.drive);
            assert_eq!(a.class, b.class);
            assert_eq!(a.len(), b.len());
            assert_eq!(a.samples()[0].values, b.samples()[0].values);
        }
    }

    /// A well-formed row for drive `d` at hour `h` with features
    /// `offset+1 ..= offset+12`.
    fn row_with(d: u32, h: u32, offset: u32) -> String {
        let mut out = format!("{d},0,,{h}");
        for i in 0..NUM_ATTRIBUTES as u32 {
            out.push_str(&format!(",{}", offset + i + 1));
        }
        out
    }

    /// A well-formed row for drive `d` at hour `h`.
    fn row(d: u32, h: u32) -> String {
        row_with(d, h, 0)
    }

    fn doc(rows: &[String]) -> String {
        let mut out = String::from("header\n");
        for r in rows {
            out.push_str(r);
            out.push('\n');
        }
        out
    }

    #[test]
    fn rejects_malformed_rows() {
        let input = "header\n1,0,,5,1,2,3\n";
        let err = read_series(input.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn rejects_bad_numbers() {
        let mut buf = Vec::new();
        write_header(&mut buf).unwrap();
        let mut row = String::from("x,0,,5");
        for _ in 0..NUM_ATTRIBUTES {
            row.push_str(",1.0");
        }
        buf.extend_from_slice(row.as_bytes());
        buf.push(b'\n');
        assert!(read_series(buf.as_slice()).is_err());
    }

    #[test]
    fn empty_input_gives_no_series() {
        assert!(read_series("header\n".as_bytes()).unwrap().is_empty());
    }

    #[test]
    fn zero_byte_input_is_a_parse_error() {
        let err = read_series("".as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 1, .. }), "{err}");
        let err = read_series_quarantined("".as_bytes(), &IngestPolicy::default()).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn truncated_final_line_is_a_parse_error() {
        let full = doc(&[row(1, 0), row(1, 1)]);
        let truncated = &full[..full.len() - 20];
        let err = read_series(truncated.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 3, .. }), "{err}");
    }

    #[test]
    fn crlf_line_endings_are_tolerated() {
        let input = doc(&[row(1, 0), row(1, 1)]).replace('\n', "\r\n");
        let series = read_series(input.as_bytes()).unwrap();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].len(), 2);
    }

    #[test]
    fn extra_and_missing_columns_name_the_line() {
        let extra = doc(&[row(1, 0), format!("{},99", row(1, 1))]);
        let err = read_series(extra.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 3, .. }), "{err}");

        let missing = doc(&[row(1, 0), row(1, 1).rsplit_once(',').unwrap().0.to_string()]);
        let err = read_series(missing.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 3, .. }), "{err}");
    }

    #[test]
    fn non_utf8_bytes_are_a_parse_error_not_a_panic() {
        let mut buf = doc(&[row(1, 0)]).into_bytes();
        buf.extend_from_slice(b"1,0,,1,\xff\xfe,2,3,4,5,6,7,8,9,10,11\n");
        let err = read_series(buf.as_slice()).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 3, .. }), "{err}");
        match err {
            CsvError::Parse { reason, .. } => assert!(reason.contains("UTF-8"), "{reason}"),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn strict_reader_sorts_and_dedups() {
        // Out of order + a duplicated hour; last write wins.
        let dup = row_with(1, 1, 76); // distinguishable values 77..=88
        let input = doc(&[row(1, 2), row(1, 1), dup]);
        let series = read_series(input.as_bytes()).unwrap();
        assert_eq!(series.len(), 1);
        let hours: Vec<u32> = series[0].samples().iter().map(|s| s.hour.0).collect();
        assert_eq!(hours, vec![1, 2]);
        // The later file row (with 77) replaced the earlier hour-1 row.
        assert!(series[0].samples()[0].values.contains(&77.0));
    }

    #[test]
    fn strict_reader_rejects_nan_and_out_of_range() {
        let nan = doc(&[row(1, 0).replace(",3,", ",NaN,")]);
        let err = read_series(nan.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 2, .. }), "{err}");

        let huge = doc(&[row(1, 0).replace(",3,", ",9e12,")]);
        let err = read_series(huge.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn quarantine_skips_and_counts_instead_of_aborting() {
        let input = doc(&[
            row(1, 0),
            "garbage!!".to_string(),
            row(1, 1).replace(",3,", ",NaN,"),
            row(1, 2).replace(",3,", ",-5,"),
            row(1, 3),
            row(1, 3), // duplicate timestamp
            row(1, 2), // out of order
            row(2, 0),
        ]);
        let policy = IngestPolicy {
            max_quarantine_fraction: 0.9,
        };
        let import = read_series_quarantined(input.as_bytes(), &policy).unwrap();
        let r = import.report;
        assert_eq!(r.rows_seen, 8);
        assert_eq!(r.parse_failures, 1);
        assert_eq!(r.non_finite_rows, 1);
        assert_eq!(r.out_of_range_rows, 1);
        assert_eq!(r.duplicate_timestamps, 1);
        assert_eq!(r.out_of_order_rows, 1);
        assert_eq!(r.rows_ingested, 4, "hours 0, 2, 3 for drive 1 + drive 2");
        assert_eq!(import.series.len(), 2);
        assert_eq!(import.series[0].len(), 3);
    }

    #[test]
    fn quarantine_ceiling_is_enforced() {
        let input = doc(&[row(1, 0), "junk".to_string(), "junk".to_string()]);
        let strict_policy = IngestPolicy {
            max_quarantine_fraction: 0.5,
        };
        let err = read_series_quarantined(input.as_bytes(), &strict_policy).unwrap_err();
        assert!(
            matches!(
                err,
                CsvError::QuarantineLimit {
                    quarantined: 2,
                    total: 3,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn fully_corrupt_drive_is_quarantined() {
        // Drive 1's only row holds NaN; drive 2 is fine.
        let input = doc(&[row(1, 0).replace(",3,", ",NaN,"), row(2, 0)]);
        let policy = IngestPolicy {
            max_quarantine_fraction: 0.9,
        };
        let import = read_series_quarantined(input.as_bytes(), &policy).unwrap();
        assert_eq!(import.report.drives_quarantined, 1);
        assert_eq!(import.series.len(), 1);
        assert_eq!(import.series[0].drive, DriveId(2));
    }

    #[test]
    fn conflicting_class_metadata_is_quarantined() {
        let mut failed_row = row(1, 1);
        failed_row = failed_row.replacen(",0,,", ",1,500,", 1);
        let input = doc(&[row(1, 0), failed_row, row(1, 2)]);
        let policy = IngestPolicy {
            max_quarantine_fraction: 0.9,
        };
        let import = read_series_quarantined(input.as_bytes(), &policy).unwrap();
        assert_eq!(import.report.conflicting_rows, 1);
        assert_eq!(import.series.len(), 1);
        assert_eq!(import.series[0].len(), 2);
        assert_eq!(import.series[0].class, DriveClass::Good);
    }

    #[test]
    fn parse_data_line_is_usable_standalone() {
        let (parsed, fault) = parse_data_line(&row(3, 7)).unwrap();
        assert_eq!(parsed.drive, DriveId(3));
        assert_eq!(parsed.class, DriveClass::Good);
        assert_eq!(parsed.sample.hour, Hour(7));
        assert_eq!(parsed.sample.values[0], 1.0);
        assert!(fault.is_none());

        let (_, fault) = parse_data_line(&row(3, 7).replace(",3,", ",NaN,")).unwrap();
        assert_eq!(fault, Some(ValueFault::NonFinite));
        let (_, fault) = parse_data_line(&row(3, 7).replace(",3,", ",-2,")).unwrap();
        assert_eq!(fault, Some(ValueFault::OutOfRange));
        assert!(parse_data_line("1,2,3").is_err());
    }

    #[test]
    fn a_flag_outside_0_1_or_a_good_row_s_fail_hour_is_a_parse_error() {
        let bad_flag = row(1, 5).replacen(",0,,", ",2,,", 1);
        let stray_hour = row(1, 6).replacen(",0,,", ",0,oops,", 1);
        let good_with_hour = row(1, 7).replacen(",0,,", ",0,40,", 1);
        for (line, reason) in [
            (&bad_flag, "bad failed flag"),
            (&stray_hour, "bad fail hour"),
            (&good_with_hour, "bad fail hour"),
        ] {
            let err = parse_data_line(line).unwrap_err();
            assert_eq!(err.to_string(), reason, "{line}");
            let err = read_series(doc(&[row(1, 0), line.clone()]).as_bytes()).unwrap_err();
            assert!(
                matches!(&err, CsvError::Parse { line: 3, reason: r } if r == reason),
                "{err}"
            );
        }
        let policy = IngestPolicy {
            max_quarantine_fraction: 0.9,
        };
        let input = doc(&[row(1, 0), bad_flag, stray_hour, good_with_hour]);
        let import = read_series_quarantined(input.as_bytes(), &policy).unwrap();
        assert_eq!(import.report.parse_failures, 3);
        assert_eq!(import.report.rows_ingested, 1);
        // The flag's other spellings `u8` parsing accepted still read.
        let failed = row(1, 5).replacen(",0,,", ",01,700,", 1);
        let (parsed, _) = parse_data_line(&failed).unwrap();
        assert_eq!(
            parsed.class,
            DriveClass::Failed {
                fail_hour: Hour(700)
            }
        );
        let (parsed, _) = parse_data_line(&row(1, 5).replacen(",0,,", ",+0,,", 1)).unwrap();
        assert_eq!(parsed.class, DriveClass::Good);
    }

    /// The feature value the walker reads from a one-field line.
    fn feature(field: &str) -> Option<f32> {
        FieldWalk::new(field.as_bytes())
            .next()
            .and_then(|f| f.f32())
    }

    fn assert_reads_like_str_parse(field: &str) {
        let want = field.parse::<f32>().ok().map(f32::to_bits);
        assert_eq!(feature(field).map(f32::to_bits), want, "{field:?}");
    }

    #[test]
    fn the_integer_fast_path_is_bit_identical_to_str_parse() {
        let mut field = String::new();
        for n in 0..=9_999_999u32 {
            field.clear();
            std::fmt::Write::write_fmt(&mut field, format_args!("{n}")).unwrap();
            let want = field.parse::<f32>().unwrap().to_bits();
            assert_eq!(feature(&field).map(f32::to_bits), Some(want), "{field}");
        }
        // Leading zeros, up to the 7-digit fast path and past it.
        for n in [0u32, 1, 7, 42, 999, 123_456, 9_999_999] {
            for width in 1..=9 {
                assert_reads_like_str_parse(&format!("{n:0width$}"));
            }
        }
        for field in [
            "-0",
            "+3",
            "1.5",
            "1e3",
            "12345678",
            "16777217",
            "99999999",
            "4294967296",
            "",
            " 5",
            "5 ",
            "NaN",
            "inf",
            "-inf",
            "+inf",
            "0x10",
            "1_0",
            "-",
            "+",
            ".",
            "1.",
            ".5",
            "1e",
            "\u{0661}",
        ] {
            assert_reads_like_str_parse(field);
        }
    }

    #[test]
    fn header_lines_are_recognized() {
        let mut buf = Vec::new();
        write_header(&mut buf).unwrap();
        let header = String::from_utf8(buf).unwrap();
        assert!(is_header_line(header.trim_end()));
        assert!(!is_header_line(&row(1, 0)));
        assert!(!is_header_line(""));
    }

    #[test]
    fn error_display_is_informative() {
        let e = CsvError::Parse {
            line: 3,
            reason: "bad hour".to_string(),
        };
        assert_eq!(e.to_string(), "line 3: bad hour");
        let e = CsvError::QuarantineLimit {
            quarantined: 10,
            total: 20,
            max_fraction: 0.25,
        };
        assert!(e.to_string().contains("10 of 20"), "{e}");
        let r = QuarantineReport {
            rows_seen: 5,
            rows_ingested: 4,
            parse_failures: 1,
            ..QuarantineReport::default()
        };
        assert!(r.to_string().contains("4/5"), "{r}");
        assert!(!r.is_clean());
        assert!((r.quarantined_fraction() - 0.2).abs() < 1e-12);
    }
}
