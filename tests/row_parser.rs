//! The byte-level row parser against the `str::split` parser it
//! replaced.
//!
//! `reference_parse` below is the previous `parse_data_line`, kept
//! verbatim as the oracle, and `reference_read` the previous
//! quarantining reader around it. On generator output, on every
//! `FaultInjector::corrupt_csv` byte class and on seeded random byte
//! mutations, the new parser must give the same row (compared bit for
//! bit) or the same error text, and the new reader the same series and
//! the same `QuarantineReport`.
//!
//! The one intended difference is the flag rule: a `failed` flag other
//! than 0 or 1, or a good row with a non-empty `fail_hour`, used to
//! import as a good drive and is now a parse error. `flag_rule` names
//! the lines it applies to, and those are checked on their own.

use hddpred::fault::{FaultClass, FaultInjector};
use hddpred::smart::csv::{
    parse_data_bytes, read_series_quarantined, write_header, write_series, CsvRow, IngestPolicy,
    QuarantineReport, ValueFault, MAX_FEATURE_VALUE,
};
use hddpred::smart::rng::splitmix64;
use hddpred::smart::{
    DatasetGenerator, DriveClass, DriveId, FamilyProfile, Hour, SmartSample, SmartSeries,
    NUM_ATTRIBUTES,
};

type Parsed = Result<(CsvRow, Option<ValueFault>), String>;

/// The previous `parse_data_line`, unchanged.
fn reference_parse(line: &str) -> Parsed {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != 4 + NUM_ATTRIBUTES {
        return Err(format!(
            "expected {} fields, got {}",
            4 + NUM_ATTRIBUTES,
            fields.len()
        ));
    }
    let drive = DriveId(fields[0].parse().map_err(|_| "bad drive id".to_string())?);
    let failed: u8 = fields[1]
        .parse()
        .map_err(|_| "bad failed flag".to_string())?;
    let class = if failed == 1 {
        DriveClass::Failed {
            fail_hour: Hour(fields[2].parse().map_err(|_| "bad fail hour".to_string())?),
        }
    } else {
        DriveClass::Good
    };
    let hour = Hour(fields[3].parse().map_err(|_| "bad hour".to_string())?);
    let mut values = [0.0f32; NUM_ATTRIBUTES];
    let mut fault = None;
    for (i, field) in fields[4..].iter().enumerate() {
        let v: f32 = field.parse().map_err(|_| "bad feature value".to_string())?;
        if !v.is_finite() {
            fault = Some(ValueFault::NonFinite);
        } else if fault.is_none() && !(0.0..=MAX_FEATURE_VALUE).contains(&f64::from(v)) {
            fault = Some(ValueFault::OutOfRange);
        }
        values[i] = v;
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

/// The reason the flag rule rejects `line` with, if it applies: the line
/// is UTF-8 with 16 fields, a valid drive id and a `failed` flag that
/// parses as a `u8`, and that flag is not 0 or 1, or it is 0 and
/// `fail_hour` is not empty.
fn flag_rule(line: &[u8]) -> Option<&'static str> {
    let fields: Vec<&str> = std::str::from_utf8(line).ok()?.split(',').collect();
    if fields.len() != 4 + NUM_ATTRIBUTES || fields[0].parse::<u32>().is_err() {
        return None;
    }
    match (fields[1].parse::<u8>().ok()?, fields[2].is_empty()) {
        (0, false) => Some("bad fail hour"),
        (0 | 1, _) => None,
        _ => Some("bad failed flag"),
    }
}

/// What the previous reader made of a raw line: UTF-8 first, then the
/// reference parser.
fn reference_bytes(line: &[u8]) -> Parsed {
    std::str::from_utf8(line)
        .map_err(|_| "invalid UTF-8".to_string())
        .and_then(reference_parse)
}

/// The reference with the flag rule applied: what the new parser must
/// give on every line.
fn expected(line: &[u8]) -> Parsed {
    match flag_rule(line) {
        Some(reason) => Err(reason.to_string()),
        None => reference_bytes(line),
    }
}

fn new_parse(line: &[u8]) -> Parsed {
    parse_data_bytes(line).map_err(|e| e.to_string())
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Equal rows compared bit for bit (`-0` and `NaN` included), or equal
/// error text.
fn assert_same(got: &Parsed, want: &Parsed, line: &[u8]) {
    let shown = String::from_utf8_lossy(line);
    match (got, want) {
        (Ok((a, fa)), Ok((b, fb))) => {
            assert_eq!(
                (a.drive, a.class, a.sample.hour, fa),
                (b.drive, b.class, b.sample.hour, fb),
                "{shown:?}"
            );
            assert_eq!(bits(&a.sample.values), bits(&b.sample.values), "{shown:?}");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{shown:?}"),
        _ => panic!("{shown:?}: got {got:?}, want {want:?}"),
    }
}

/// A small generated fleet of both families, failed drives included.
fn generated_csv() -> String {
    let mut buf = Vec::new();
    write_header(&mut buf).unwrap();
    for (profile, seed) in [
        (FamilyProfile::w().scaled(0.0005), 7),
        (FamilyProfile::q().scaled(0.0005), 8),
    ] {
        let ds = DatasetGenerator::new(profile, seed).generate();
        for spec in ds.drives() {
            write_series(&mut buf, &ds.series(spec)).unwrap();
        }
    }
    String::from_utf8(buf).unwrap()
}

/// A seeded byte mutation of `line`: one of the shapes a broken writer,
/// a torn read or a bit flip leaves.
fn mutate(line: &[u8], r: u64) -> Vec<u8> {
    const TOKENS: [&str; 24] = [
        "-0",
        "+3",
        "1.5",
        "1e3",
        "12345678",
        "",
        " 5",
        "NaN",
        "inf",
        "-inf",
        "4294967296",
        "4294967295",
        "0",
        "00",
        "0000007",
        "00000007",
        "2",
        "-1",
        "+1",
        "01",
        "256",
        "0x1",
        "\u{0661}",
        "oops",
    ];
    let mut out = line.to_vec();
    let pick = |k: u64, n: usize| (splitmix64(r ^ k) % n as u64) as usize;
    let at = pick(1, out.len() + 1);
    let commas: Vec<usize> = std::iter::once(0)
        .chain(
            line.iter()
                .enumerate()
                .filter(|(_, &b)| b == b',')
                .map(|(i, _)| i + 1),
        )
        .collect();
    let field = pick(2, commas.len());
    let field_start = commas[field];
    let field_end = line[field_start..]
        .iter()
        .position(|&b| b == b',')
        .map_or(line.len(), |p| field_start + p);
    match pick(3, 11) {
        0 if !out.is_empty() => {
            let last = out.len() - 1;
            out[at.min(last)] = splitmix64(r ^ 4) as u8;
        }
        1 => out.insert(at, b'\r'),
        2 => out.truncate(line.iter().rposition(|&b| b == b',').unwrap_or(0)),
        3 => out.extend_from_slice(b",7"),
        4..=6 => {
            let token = TOKENS[pick(5, TOKENS.len())].as_bytes();
            out.splice(field_start..field_end, token.iter().copied());
        }
        7 => {
            out.splice(at..at, [0xff, 0xfe]);
        }
        8 if !out.is_empty() => {
            out.remove(at.min(out.len() - 1));
        }
        9 => {
            out.splice(at..at, "é".bytes());
        }
        _ => out.truncate(at),
    }
    out
}

/// Every fault class `corrupt_csv` changes bytes for.
fn byte_classes() -> impl Iterator<Item = FaultClass> {
    FaultClass::ALL
        .into_iter()
        .filter(|c| !FaultClass::LIFECYCLE_CORPUS.contains(c))
}

/// Data lines of the generated fleet, of every byte corruption class,
/// and of seeded mutations of both.
fn corpus() -> Vec<Vec<u8>> {
    let clean = generated_csv();
    let mut lines: Vec<Vec<u8>> = clean
        .lines()
        .skip(1)
        .map(|l| l.as_bytes().to_vec())
        .collect();
    for class in byte_classes() {
        let (text, _) = FaultInjector::new(class as u64).corrupt_csv(&clean, class, 0.05);
        lines.extend(text.lines().skip(1).map(|l| l.as_bytes().to_vec()));
    }
    let n = lines.len();
    for k in 0..40_000u64 {
        let base = &lines[splitmix64(k) as usize % n];
        let once = mutate(base, splitmix64(k ^ 0xA5A5));
        lines.push(if k.is_multiple_of(4) {
            mutate(&once, splitmix64(k ^ 0x5A5A))
        } else {
            once
        });
    }
    lines
}

#[test]
fn the_byte_parser_matches_the_split_parser_on_every_line() {
    let mut reasons = std::collections::BTreeMap::<String, usize>::new();
    let mut flagged = 0;
    for line in corpus() {
        let got = new_parse(&line);
        let want = expected(&line);
        assert_same(&got, &want, &line);
        if flag_rule(&line).is_some() {
            flagged += 1;
        }
        let key = match &got {
            Ok((_, None)) => "ok".to_string(),
            Ok((_, Some(fault))) => format!("{fault:?}"),
            Err(e) if e.starts_with("expected") => "field count".to_string(),
            Err(e) => e.clone(),
        };
        *reasons.entry(key).or_default() += 1;
    }
    // The corpus reaches every outcome, or the comparison proves little.
    for key in [
        "ok",
        "NonFinite",
        "OutOfRange",
        "field count",
        "invalid UTF-8",
        "bad drive id",
        "bad failed flag",
        "bad fail hour",
        "bad hour",
        "bad feature value",
    ] {
        assert!(
            reasons.get(key).is_some_and(|&n| n > 0),
            "{key}: {reasons:?}"
        );
    }
    assert!(flagged > 0);
}

/// One contiguous run of a drive's rows, as the previous reader kept it.
struct Run {
    drive: DriveId,
    class: DriveClass,
    samples: Vec<SmartSample>,
}

impl Run {
    fn finish(self, report: &mut QuarantineReport, out: &mut Vec<SmartSeries>) {
        if self.samples.is_empty() {
            report.drives_quarantined += 1;
            return;
        }
        let mut samples = self.samples;
        report.out_of_order_rows += samples.windows(2).filter(|w| w[1].hour < w[0].hour).count();
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

/// The previous quarantining reader: `split(b'\n')` lines through a
/// line parser.
fn reference_read(text: &[u8], parse: fn(&[u8]) -> Parsed) -> (Vec<SmartSeries>, QuarantineReport) {
    let mut out = Vec::new();
    let mut report = QuarantineReport::default();
    let mut current: Option<Run> = None;
    for raw in text.split(|&b| b == b'\n').skip(1) {
        let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
        if raw.is_empty() {
            continue;
        }
        report.rows_seen += 1;
        let (row, fault) = match parse(raw) {
            Ok(parsed) => parsed,
            Err(_) => {
                report.parse_failures += 1;
                continue;
            }
        };
        if let Some(fault) = fault {
            match fault {
                ValueFault::NonFinite => report.non_finite_rows += 1,
                ValueFault::OutOfRange => report.out_of_range_rows += 1,
            }
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
        match &mut current {
            Some(run) if run.drive == row.drive => {
                if run.class != row.class {
                    report.conflicting_rows += 1;
                    continue;
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
    if let Some(run) = current.take() {
        run.finish(&mut report, &mut out);
    }
    (out, report)
}

fn assert_same_import(text: &[u8], parse: fn(&[u8]) -> Parsed, what: &str) {
    let policy = IngestPolicy {
        max_quarantine_fraction: 1.0,
    };
    let got = read_series_quarantined(text, &policy).unwrap();
    let (series, report) = reference_read(text, parse);
    assert_eq!(got.report, report, "{what}");
    assert_eq!(got.series.len(), series.len(), "{what}");
    for (a, b) in got.series.iter().zip(&series) {
        assert_eq!(
            (a.drive, a.class, a.len()),
            (b.drive, b.class, b.len()),
            "{what}"
        );
        for (x, y) in a.samples().iter().zip(b.samples()) {
            assert_eq!(x.hour, y.hour, "{what}");
            assert_eq!(bits(&x.values), bits(&y.values), "{what}");
        }
    }
}

#[test]
fn chaos_corpora_import_as_the_split_reader_imported_them() {
    let clean = generated_csv();
    assert_same_import(clean.as_bytes(), reference_bytes, "clean");
    for class in byte_classes() {
        for seed in 0..2 {
            let (text, _) = FaultInjector::new(seed).corrupt_csv(&clean, class, 0.05);
            // No byte class touches a flag, so the old reader is the
            // oracle as it stands.
            assert_same_import(
                text.as_bytes(),
                reference_bytes,
                &format!("{class:?}/{seed}"),
            );
        }
    }
    // Seeded mutations, CRLF endings and a missing final newline, with
    // the flag rule applied to the oracle.
    let mut mutated = Vec::from(&b"drive,failed\n"[..]);
    for (k, line) in clean.lines().skip(1).enumerate() {
        let k = k as u64;
        if splitmix64(k ^ 0x77).is_multiple_of(10) {
            mutated.extend(mutate(line.as_bytes(), splitmix64(k)));
        } else {
            mutated.extend_from_slice(line.as_bytes());
        }
        mutated.extend_from_slice(if k.is_multiple_of(3) { b"\r\n" } else { b"\n" });
    }
    mutated.pop();
    assert_same_import(&mutated, expected, "mutated");
}
