//! Per-drive streaming state: history, voting window, alarm latch.
//!
//! A `DriveMonitor` is everything a shard remembers about one drive
//! the feed has mentioned. It advances only when a line for that drive
//! commits, and its snapshot codec round-trips exactly, so a
//! checkpointed monitor resumes bit-identically.

use hdd_eval::VotingState;
use hdd_json::{
    list, numbers_field, usize_field, write_list, write_number, Cursor, Decoded, Field, JsonError,
};
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

impl DriveMonitor {
    /// Append drive `id`'s entry of a shard snapshot: `drive`, `failed`
    /// (and `fail_hour` for a failed drive), `alarmed`, `history` (each
    /// sample's `hour` and `values`) and `voting`.
    pub(crate) fn write_json(&self, id: u32, out: &mut String) {
        out.push_str("{\"drive\":");
        write_number(f64::from(id), out);
        match self.class {
            DriveClass::Good => out.push_str(",\"failed\":false"),
            DriveClass::Failed { fail_hour } => {
                out.push_str(",\"failed\":true,\"fail_hour\":");
                write_number(f64::from(fail_hour.0), out);
            }
        }
        out.push_str(if self.alarmed {
            ",\"alarmed\":true,\"history\":"
        } else {
            ",\"alarmed\":false,\"history\":"
        });
        write_list(out, &self.history, |sample, out| {
            out.push_str("{\"hour\":");
            write_number(f64::from(sample.hour.0), out);
            out.push_str(",\"values\":");
            write_list(out, &sample.values, |&v, out| {
                write_number(f64::from(v), out)
            });
            out.push('}');
        });
        out.push_str(",\"voting\":");
        self.voting.write_json(out);
        out.push('}');
    }

    /// Read a drive entry [`DriveMonitor::write_json`] wrote: its id and
    /// monitor. Shape errors rank as the fields are listed there, a
    /// history sample's before the history's order.
    pub(crate) fn read_json(cursor: &mut Cursor<'_>) -> Decoded<(u32, DriveMonitor)> {
        let (mut drive, mut failed, mut fail_hour, mut alarmed) = (None, None, None, None);
        let (mut history, mut voting) = (None, None);
        cursor.object(|key, c| {
            match key {
                "drive" if drive.is_none() => drive = Some(c.number()?),
                "failed" if failed.is_none() => failed = Some(c.boolean()?),
                "fail_hour" if fail_hour.is_none() => fail_hour = Some(c.number()?),
                "alarmed" if alarmed.is_none() => alarmed = Some(c.boolean()?),
                "history" if history.is_none() => history = Some(read_history(c)?),
                "voting" if voting.is_none() => voting = Some(VotingState::read_json(c)?),
                _ => c.skip()?,
            }
            Ok(())
        })?;
        let boolean = |field: Field<bool>, key: &str| {
            field
                .ok_or_else(|| JsonError::missing(key))?
                .ok_or_else(|| JsonError::new(format!("`{key}` must be a boolean")))
        };
        Ok((|| {
            let id = usize_field(drive, "drive")? as u32;
            let class = if boolean(failed, "failed")? {
                DriveClass::Failed {
                    fail_hour: Hour(usize_field(fail_hour, "fail_hour")? as u32),
                }
            } else {
                DriveClass::Good
            };
            let alarmed = boolean(alarmed, "alarmed")?;
            let history = history.ok_or_else(|| JsonError::missing("history"))??;
            let voting = voting.ok_or_else(|| JsonError::missing("voting"))??;
            let monitor = DriveMonitor {
                class,
                history,
                voting,
                alarmed,
            };
            Ok((id, monitor))
        })())
    }
}

/// Read a drive's `history` array: the samples, or the first sample's
/// shape error, or (when every sample decodes) that the hours do not
/// strictly increase.
fn read_history(cursor: &mut Cursor<'_>) -> Decoded<Vec<SmartSample>> {
    let mut increasing = true;
    let mut previous: Option<Hour> = None;
    let listed = list(cursor, |c| {
        let sample = read_sample(c)?;
        if let Ok(sample) = &sample {
            increasing &= previous.is_none_or(|hour| hour < sample.hour);
            previous = Some(sample.hour);
        }
        Ok(sample)
    })?;
    let Some((_, samples)) = listed else {
        return Ok(Err(JsonError::new("`history` must be an array")));
    };
    if samples.is_ok() && !increasing {
        return Ok(Err(JsonError::new(
            "history must be strictly increasing in time",
        )));
    }
    Ok(samples)
}

/// Read one history sample, `{"hour":…,"values":[…]}`, its values as the
/// `f32`s of their `f64`s.
fn read_sample(cursor: &mut Cursor<'_>) -> Decoded<SmartSample> {
    let (mut hour, mut read) = (None, None);
    let mut values = [0.0f32; NUM_ATTRIBUTES];
    let mut count = 0;
    cursor.object(|key, c| {
        match key {
            "hour" if hour.is_none() => hour = Some(c.number()?),
            "values" if read.is_none() => {
                read = Some(c.numbers(|v| {
                    if let Some(slot) = values.get_mut(count) {
                        *slot = v as f32;
                    }
                    count += 1;
                })?);
            }
            _ => c.skip()?,
        }
        Ok(())
    })?;
    Ok((|| {
        let hour = Hour(usize_field(hour, "hour")? as u32);
        numbers_field(read, "values")?;
        if count != NUM_ATTRIBUTES {
            return Err(JsonError::new(format!(
                "history sample has {count} values, expected {NUM_ATTRIBUTES}"
            )));
        }
        Ok(SmartSample { hour, values })
    })())
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

    fn encode(m: &DriveMonitor) -> String {
        let mut text = String::new();
        m.write_json(42, &mut text);
        text
    }

    fn decode(text: &str) -> Result<(u32, DriveMonitor), JsonError> {
        DriveMonitor::read_json(&mut Cursor::new(text)).unwrap()
    }

    #[test]
    fn codec_round_trips_through_text() {
        let m = monitor();
        assert_eq!(decode(&encode(&m)).unwrap(), (42, m));
    }

    #[test]
    fn unsorted_history_is_rejected() {
        let mut m = monitor();
        m.history.swap(0, 1);
        let err = decode(&encode(&m)).unwrap_err();
        assert!(err.to_string().contains("strictly increasing"), "{err}");
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
