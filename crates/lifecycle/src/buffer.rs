//! The bounded, checkpoint-consistent training buffer.
//!
//! Committed [`RowEvent`]s (released by the topology merge, so their
//! order is independent of shard count) are labelled against the
//! paper's failure window and buffered as ready-to-train samples. Two
//! window policies mirror §6 of the paper:
//!
//! - [`WindowMode::Accumulation`]: keep the *first* `capacity` usable
//!   samples and saturate — the model is refreshed on a growing-then-
//!   frozen history.
//! - [`WindowMode::Replacing`]: keep the *last* `capacity` usable
//!   samples — a sliding window that forgets old cohorts, the policy
//!   that tracks distribution drift.
//!
//! Labels follow the training-set rule used everywhere else in the
//! workspace: a failed drive's row is a `Failed` sample when its hour is
//! within `window_hours` of the labelled failure, and is *skipped*
//! (neither class) earlier than that; good-drive rows are `Good`
//! samples. Rows carrying non-finite features are counted as poisoned
//! and never reach the buffer — a poisoned feed cannot poison the
//! candidate.

use hdd_cart::sample::{Class, ClassSample};
use hdd_json::{JsonCodec, JsonError, Value};
use hdd_serve::RowEvent;
use std::collections::VecDeque;

/// Which §6 model-updating window the buffer keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowMode {
    /// First-`capacity` samples, then saturate.
    Accumulation,
    /// Last-`capacity` samples, sliding.
    Replacing,
}

impl WindowMode {
    /// Stable label, used by flags and checkpoints.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WindowMode::Accumulation => "accumulation",
            WindowMode::Replacing => "replacing",
        }
    }

    /// Parse a [`WindowMode::label`].
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "accumulation" => Some(WindowMode::Accumulation),
            "replacing" => Some(WindowMode::Replacing),
            _ => None,
        }
    }
}

/// What [`TrainingBuffer::push`] did with an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferPush {
    /// The row was labelled and buffered.
    Buffered,
    /// The row was outside the failure window (failed drive, too early)
    /// or the accumulation window is full.
    Skipped,
    /// The row carried a non-finite feature and was quarantined.
    Poisoned,
}

/// One buffered, labelled training row.
#[derive(Debug, Clone, PartialEq)]
struct BufferedRow {
    features: Vec<f64>,
    failed: bool,
}

/// The bounded training buffer; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingBuffer {
    mode: WindowMode,
    capacity: usize,
    window_hours: u32,
    rows: VecDeque<BufferedRow>,
    /// How many of `rows` are `Failed` samples.
    failed_rows: usize,
    /// Non-finite rows refused at the gate (never buffered).
    poisoned_rows: usize,
}

impl TrainingBuffer {
    /// An empty buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — an un-trainable buffer is a
    /// configuration bug, not a runtime condition.
    #[must_use]
    pub fn new(mode: WindowMode, capacity: usize, window_hours: u32) -> Self {
        assert!(capacity >= 1, "the training buffer needs capacity");
        TrainingBuffer {
            mode,
            capacity,
            window_hours,
            rows: VecDeque::new(),
            failed_rows: 0,
            poisoned_rows: 0,
        }
    }

    /// Buffered samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether nothing is buffered yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Buffered `Failed`-class samples.
    #[must_use]
    pub fn failed_rows(&self) -> usize {
        self.failed_rows
    }

    /// Rows refused for non-finite features.
    #[must_use]
    pub fn poisoned_rows(&self) -> usize {
        self.poisoned_rows
    }

    /// Label and buffer one committed event.
    pub fn push(&mut self, event: &RowEvent) -> BufferPush {
        if !event.features.iter().all(|v| v.is_finite()) {
            self.poisoned_rows += 1;
            return BufferPush::Poisoned;
        }
        let failed = match event.fail_hour {
            None => false,
            // Outside the failure window a failed drive's row is neither
            // class — the paper trains only on the pre-failure window.
            // (A distance: the sum `hour + window` overflows near `u32::MAX`.)
            Some(fail) if fail.saturating_sub(event.hour) > self.window_hours => {
                return BufferPush::Skipped
            }
            Some(_) => true,
        };
        if self.rows.len() == self.capacity {
            match self.mode {
                WindowMode::Accumulation => return BufferPush::Skipped,
                WindowMode::Replacing => {
                    if self.rows.pop_front().is_some_and(|r| r.failed) {
                        self.failed_rows -= 1;
                    }
                }
            }
        }
        self.failed_rows += usize::from(failed);
        self.rows.push_back(BufferedRow {
            features: event.features.clone(),
            failed,
        });
        BufferPush::Buffered
    }

    /// The buffered rows as training samples, oldest first.
    #[must_use]
    pub fn samples(&self) -> Vec<ClassSample> {
        self.rows
            .iter()
            .map(|r| {
                let class = if r.failed { Class::Failed } else { Class::Good };
                ClassSample::new(r.features.clone(), class)
            })
            .collect()
    }

    /// The buffered rows as *label-inverted* samples — the seeded
    /// regressing-candidate fault: a model trained on inverted labels is
    /// a genuinely bad candidate the shadow gate must refuse.
    #[must_use]
    pub fn inverted_samples(&self) -> Vec<ClassSample> {
        self.rows
            .iter()
            .map(|r| {
                let class = if r.failed { Class::Good } else { Class::Failed };
                ClassSample::new(r.features.clone(), class)
            })
            .collect()
    }
}

impl TrainingBuffer {
    /// Append the newest `newest` rows (at most all of them), oldest
    /// first, as row lines: `<0|1> f1 … fn`, the label (1 for `Failed`)
    /// and each feature in its shortest exact decimal form.
    pub(crate) fn write_rows(&self, newest: usize, out: &mut String) {
        let skip = self.rows.len().saturating_sub(newest);
        for row in self.rows.iter().skip(skip) {
            out.push(if row.failed { '1' } else { '0' });
            for &v in &row.features {
                out.push(' ');
                hdd_json::write_number(v, out);
            }
            out.push('\n');
        }
    }

    /// The buffer's settings and poisoned count: its encoding without the
    /// rows.
    #[must_use]
    pub(crate) fn settings_to_json(&self) -> Vec<(String, Value)> {
        vec![
            (
                "mode".to_string(),
                Value::Str(self.mode.label().to_string()),
            ),
            ("capacity".to_string(), Value::Num(self.capacity as f64)),
            (
                "window_hours".to_string(),
                Value::Num(f64::from(self.window_hours)),
            ),
            (
                "poisoned_rows".to_string(),
                Value::Num(self.poisoned_rows as f64),
            ),
        ]
    }

    /// The buffer `settings` (as [`TrainingBuffer::settings_to_json`]
    /// writes them) describe after pushing `rows`, row lines oldest first,
    /// into an empty one: a window that outgrows its capacity keeps its
    /// newest rows, and only those are decoded.
    ///
    /// # Errors
    ///
    /// [`JsonError`] on a bad setting or a malformed or non-finite row.
    pub(crate) fn from_parts(settings: &Value, rows: &[&str]) -> Result<Self, JsonError> {
        let label = settings.str_field("mode")?;
        let mode = WindowMode::from_label(label)
            .ok_or_else(|| JsonError::new(format!("unknown window mode `{label}`")))?;
        let capacity = settings.usize_field("capacity")?;
        if capacity == 0 {
            return Err(JsonError::expected("a capacity of at least 1", "capacity"));
        }
        let rows = rows
            .iter()
            .skip(rows.len().saturating_sub(capacity))
            .map(|line| decode_row(line))
            .collect::<Result<VecDeque<_>, _>>()?;
        Ok(TrainingBuffer {
            mode,
            capacity,
            window_hours: settings.usize_field("window_hours")? as u32,
            failed_rows: rows.iter().filter(|r| r.failed).count(),
            rows,
            poisoned_rows: settings.usize_field("poisoned_rows")?,
        })
    }
}

/// One row line written by [`TrainingBuffer::write_rows`].
fn decode_row(line: &str) -> Result<BufferedRow, JsonError> {
    let bad = || JsonError::new(format!("bad buffered row `{line}`"));
    let mut fields = line.split(' ');
    let failed = match fields.next() {
        Some("0") => false,
        Some("1") => true,
        _ => return Err(bad()),
    };
    let features = fields
        .map(|v| v.parse::<f64>().ok().filter(|v| v.is_finite()))
        .collect::<Option<Vec<f64>>>()
        .ok_or_else(bad)?;
    Ok(BufferedRow { features, failed })
}

impl JsonCodec for TrainingBuffer {
    fn to_json(&self) -> Value {
        let mut rows = String::new();
        self.write_rows(self.rows.len(), &mut rows);
        let mut fields = self.settings_to_json();
        fields.push(("rows".to_string(), Value::Str(rows)));
        Value::Obj(fields)
    }

    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let rows: Vec<&str> = value.str_field("rows")?.lines().collect();
        let buffer = TrainingBuffer::from_parts(value, &rows)?;
        if rows.len() > buffer.capacity {
            return Err(JsonError::new(format!(
                "{} buffered rows exceed capacity {}",
                rows.len(),
                buffer.capacity
            )));
        }
        Ok(buffer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(drive: u32, hour: u32, fail_hour: Option<u32>, features: Vec<f64>) -> RowEvent {
        RowEvent {
            seq: u64::from(drive) * 10_000 + u64::from(hour),
            drive,
            hour,
            fail_hour,
            features,
            incumbent_score: 1.0,
        }
    }

    #[test]
    fn labels_follow_the_failure_window() {
        let mut buf = TrainingBuffer::new(WindowMode::Accumulation, 16, 168);
        assert_eq!(
            buf.push(&event(1, 5, None, vec![1.0, 2.0])),
            BufferPush::Buffered
        );
        // A failed drive's early row is neither class.
        assert_eq!(
            buf.push(&event(2, 10, Some(500), vec![1.0, 2.0])),
            BufferPush::Skipped
        );
        // Within the window it is a Failed sample.
        assert_eq!(
            buf.push(&event(2, 400, Some(500), vec![3.0, 4.0])),
            BufferPush::Buffered
        );
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.failed_rows(), 1);
        let samples = buf.samples();
        assert_eq!(samples[0].class, Class::Good);
        assert_eq!(samples[1].class, Class::Failed);
        let inverted = buf.inverted_samples();
        assert_eq!(inverted[0].class, Class::Failed);
        assert_eq!(inverted[1].class, Class::Good);
    }

    #[test]
    fn labels_hold_at_the_end_of_time() {
        let top = u32::MAX;
        let mut buf = TrainingBuffer::new(WindowMode::Accumulation, 16, 168);
        // Inside the window, at and after the failure hour.
        for hour in [top - 168, top - 1, top] {
            assert_eq!(
                buf.push(&event(3, hour, Some(top), vec![1.0])),
                BufferPush::Buffered,
                "hour {hour}"
            );
        }
        assert_eq!(
            buf.push(&event(3, top - 169, Some(top), vec![1.0])),
            BufferPush::Skipped
        );
        assert_eq!(buf.failed_rows(), 3);
    }

    #[test]
    fn poisoned_rows_never_reach_the_buffer() {
        let mut buf = TrainingBuffer::new(WindowMode::Replacing, 4, 168);
        assert_eq!(
            buf.push(&event(1, 1, None, vec![f64::NAN, 1.0])),
            BufferPush::Poisoned
        );
        assert_eq!(
            buf.push(&event(1, 2, None, vec![f64::INFINITY, 1.0])),
            BufferPush::Poisoned
        );
        assert_eq!(buf.len(), 0);
        assert_eq!(buf.poisoned_rows(), 2);
    }

    #[test]
    fn accumulation_saturates_and_replacing_slides() {
        let mut acc = TrainingBuffer::new(WindowMode::Accumulation, 2, 168);
        let mut rep = TrainingBuffer::new(WindowMode::Replacing, 2, 168);
        for h in 0..4u32 {
            let e = event(1, h, None, vec![f64::from(h)]);
            acc.push(&e);
            rep.push(&e);
        }
        assert_eq!(acc.len(), 2);
        assert_eq!(rep.len(), 2);
        let first = |b: &TrainingBuffer| b.samples()[0].features[0];
        assert_eq!(first(&acc), 0.0, "accumulation keeps the head");
        assert_eq!(first(&rep), 2.0, "replacing keeps the tail");
    }

    #[test]
    fn the_failed_count_follows_rows_in_and_out() {
        let mut buf = TrainingBuffer::new(WindowMode::Replacing, 3, 168);
        // Failed, good, failed, then goods that slide the failed rows out.
        let pushes = [Some(500), None, Some(500), None, None, None];
        let expected = [1, 1, 2, 1, 1, 0];
        for (i, (fail, want)) in pushes.into_iter().zip(expected).enumerate() {
            buf.push(&event(i as u32, 400, fail, vec![1.0]));
            assert_eq!(buf.failed_rows(), want, "after push {i}");
            let counted = buf
                .samples()
                .iter()
                .filter(|s| s.class == Class::Failed)
                .count();
            assert_eq!(buf.failed_rows(), counted);
        }
        buf.push(&event(9, 400, Some(500), vec![1.0]));
        let text = hdd_json::to_string(&buf.to_json());
        let back = TrainingBuffer::from_json(&hdd_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.failed_rows(), 1, "a restored buffer recounts");
    }

    #[test]
    fn codec_round_trips_and_validates() {
        let mut buf = TrainingBuffer::new(WindowMode::Replacing, 8, 168);
        buf.push(&event(1, 1, None, vec![1.5, -2.5]));
        buf.push(&event(2, 400, Some(500), vec![3.0, 4.0]));
        buf.push(&event(3, 1, None, vec![f64::NAN]));
        let text = hdd_json::to_string(&buf.to_json());
        let back = TrainingBuffer::from_json(&hdd_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, buf);

        for bad in [
            text.replacen("replacing", "forgetting", 1),
            text.replacen("\"capacity\":8", "\"capacity\":1", 1),
        ] {
            assert!(
                TrainingBuffer::from_json(&hdd_json::parse(&bad).unwrap()).is_err(),
                "{bad}"
            );
        }
    }
}
