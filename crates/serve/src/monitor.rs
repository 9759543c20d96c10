//! Per-drive streaming state: history, voting window, alarm latch.
//!
//! A [`DriveMonitor`] is everything a shard remembers about one drive
//! the feed has mentioned. It advances only when a line for that drive
//! commits, and its JSON codec round-trips exactly, so a checkpointed
//! monitor resumes bit-identically.

use hdd_eval::VotingState;
use hdd_json::{JsonCodec, JsonError, Value};
use hdd_smart::{DriveClass, Hour, SmartSample, NUM_ATTRIBUTES};

/// Live state of one drive the feed has mentioned.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DriveMonitor {
    pub(crate) class: DriveClass,
    /// Recent samples, strictly increasing in hour, pruned to the
    /// feature set's lookback window — exactly the suffix extraction
    /// can ever reference.
    pub(crate) history: Vec<SmartSample>,
    pub(crate) voting: VotingState,
    /// Latched once an alarm was *produced* for this drive.
    pub(crate) alarmed: bool,
}

fn class_to_json(class: DriveClass) -> Vec<(String, Value)> {
    match class {
        DriveClass::Good => vec![("failed".to_string(), Value::Bool(false))],
        DriveClass::Failed { fail_hour } => vec![
            ("failed".to_string(), Value::Bool(true)),
            ("fail_hour".to_string(), Value::Num(f64::from(fail_hour.0))),
        ],
    }
}

fn class_from_json(value: &Value) -> Result<DriveClass, JsonError> {
    let failed = value
        .field("failed")?
        .as_bool()
        .ok_or_else(|| JsonError::new("`failed` must be a boolean"))?;
    if failed {
        Ok(DriveClass::Failed {
            fail_hour: Hour(value.usize_field("fail_hour")? as u32),
        })
    } else {
        Ok(DriveClass::Good)
    }
}

impl JsonCodec for DriveMonitor {
    fn to_json(&self) -> Value {
        let mut fields = class_to_json(self.class);
        fields.push(("alarmed".to_string(), Value::Bool(self.alarmed)));
        fields.push((
            "history".to_string(),
            Value::Arr(
                self.history
                    .iter()
                    .map(|s| {
                        Value::Obj(vec![
                            ("hour".to_string(), Value::Num(f64::from(s.hour.0))),
                            (
                                "values".to_string(),
                                Value::from_f64s(s.values.iter().map(|&v| f64::from(v))),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ));
        fields.push(("voting".to_string(), self.voting.to_json()));
        Value::Obj(fields)
    }

    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let class = class_from_json(value)?;
        let alarmed = value
            .field("alarmed")?
            .as_bool()
            .ok_or_else(|| JsonError::new("`alarmed` must be a boolean"))?;
        let raw_history = value
            .field("history")?
            .as_arr()
            .ok_or_else(|| JsonError::new("`history` must be an array"))?;
        let mut history = Vec::with_capacity(raw_history.len());
        for entry in raw_history {
            let hour = Hour(entry.usize_field("hour")? as u32);
            let values = entry.f64_vec_field("values")?;
            if values.len() != NUM_ATTRIBUTES {
                return Err(JsonError::new(format!(
                    "history sample has {} values, expected {NUM_ATTRIBUTES}",
                    values.len()
                )));
            }
            let mut sample = SmartSample {
                hour,
                values: [0.0; NUM_ATTRIBUTES],
            };
            for (slot, v) in sample.values.iter_mut().zip(&values) {
                *slot = *v as f32;
            }
            history.push(sample);
        }
        // audit:allow(R3) reason="windows(2) yields exactly-2-element slices; w[0] and w[1] always exist"
        if !history.windows(2).all(|w| w[0].hour < w[1].hour) {
            return Err(JsonError::new(
                "history must be strictly increasing in time",
            ));
        }
        Ok(DriveMonitor {
            class,
            history,
            voting: VotingState::from_json(value.field("voting")?)?,
            alarmed,
        })
    }
}

/// Drop samples too old for any feature lookback from `newest`: a sample
/// is kept iff `newest.hour - hour <= lookback`, exactly the
/// `change_rate_at` search bound, so extraction over the pruned history
/// is bit-identical to extraction over the full series. The history is
/// increasing, so the distance cannot underflow, and unlike the sum
/// `hour + lookback` it cannot overflow near `u32::MAX`.
pub(crate) fn prune_history(history: &mut Vec<SmartSample>, lookback: u32) {
    if let Some(newest) = history.last().map(|s| s.hour.0) {
        history.retain(|s| newest - s.hour.0 <= lookback);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdd_eval::VotingRule;

    fn monitor() -> DriveMonitor {
        DriveMonitor {
            class: DriveClass::Failed {
                fail_hour: Hour(900),
            },
            history: vec![
                SmartSample {
                    hour: Hour(5),
                    values: [1.5; NUM_ATTRIBUTES],
                },
                SmartSample {
                    hour: Hour(9),
                    values: [2.5; NUM_ATTRIBUTES],
                },
            ],
            voting: VotingState::new(3, VotingRule::Majority),
            alarmed: true,
        }
    }

    #[test]
    fn codec_round_trips_through_text() {
        let m = monitor();
        let text = hdd_json::to_string(&m.to_json());
        let back = DriveMonitor::from_json(&hdd_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn unsorted_history_is_rejected() {
        let mut m = monitor();
        m.history.swap(0, 1);
        let doc = m.to_json();
        assert!(DriveMonitor::from_json(&doc).is_err());
    }

    #[test]
    fn prune_keeps_exactly_the_lookback_suffix() {
        let mut history: Vec<SmartSample> = (0..10)
            .map(|h| SmartSample {
                hour: Hour(h * 10),
                values: [0.0; NUM_ATTRIBUTES],
            })
            .collect();
        prune_history(&mut history, 25);
        let hours: Vec<u32> = history.iter().map(|s| s.hour.0).collect();
        assert_eq!(hours, vec![70, 80, 90]);
    }

    #[test]
    fn prune_keeps_the_newest_sample_at_the_end_of_time() {
        let mut history: Vec<SmartSample> = (0..=20)
            .map(|back| SmartSample {
                hour: Hour(u32::MAX - 20 + back),
                values: [0.0; NUM_ATTRIBUTES],
            })
            .collect();
        prune_history(&mut history, 12);
        let hours: Vec<u32> = history.iter().map(|s| s.hour.0).collect();
        assert_eq!(hours, ((u32::MAX - 12)..=u32::MAX).collect::<Vec<_>>());
    }
}
