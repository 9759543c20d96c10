//! Crash-safe daemon checkpoints.
//!
//! A sharded topology checkpoints into a **directory**: one
//! `topology.ckpt` (the merge state: low-water mark, early-flushed
//! seqs, sink length) and, per shard `k`, a snapshot `shard-<k>.ckpt`
//! (its voting state, counters, breaker, feed cursors and unmerged
//! alarms) plus an append-only record log `shard-<k>.log` of what the
//! shard committed since that snapshot. The save order is always sink →
//! `topology.ckpt` → dirty shards; combined with seq-keyed replay
//! filtering, a crash between any two writes merely replays a feed
//! suffix and produces byte-identical alarm output (see DESIGN.md §8 for
//! the resume protocol).
//!
//! Each snapshot reuses the CRC-checked two-line container model files
//! use ([`hdd_json::container`]) with its own magic string, and every
//! snapshot write goes through [`Disk::replace`] — a crash mid-checkpoint
//! leaves the previous valid file in place.
//!
//! A log is a sequence of frames, each sealed by [`seal_frame`]: a
//! fixed-width header line `hddlog <len> <crc> <header crc>` (three
//! 8-digit lowercase hex numbers: the payload's byte length, the
//! payload's CRC-32 and the CRC-32 of the header bytes before it), then
//! the payload. Frames are only ever appended and synced, so a crash can
//! leave at most one incomplete frame, at the end: [`read_frames`] drops
//! a frame shorter than its header says as a torn tail, and rejects any
//! complete frame whose bytes contradict a checksum as
//! [`CheckpointError::Corrupt`] with the byte offset. The header's own
//! CRC is what keeps a bit flip in a length from passing for a torn
//! tail. What a payload holds is the shard's business (see
//! [`crate::EngineShard::take_log`]).

use hdd_json::container::{self, ContainerError};
use hdd_json::disk::Disk;
use hdd_json::{crc32, JsonError, Value};
use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// Magic string opening a checkpoint container's header line.
pub const CHECKPOINT_MAGIC: &str = "hddpred-checkpoint";

/// Checkpoint layout version; bumped on incompatible changes.
/// Version 2: sharded layout (`kind` + opaque payload); version-1
/// single-engine files are refused with a typed error.
pub const CHECKPOINT_FORMAT_VERSION: usize = 2;

/// Which topology component a checkpoint file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// One shard's engine state.
    Shard,
    /// The topology's merge state.
    Topology,
    /// The model lifecycle's state (training buffer, shadow scorer,
    /// counters); saved between the sink and `topology.ckpt`.
    Lifecycle,
}

impl CheckpointKind {
    fn as_str(self) -> &'static str {
        match self {
            CheckpointKind::Shard => "shard",
            CheckpointKind::Topology => "topology",
            CheckpointKind::Lifecycle => "lifecycle",
        }
    }

    fn parse(raw: &str) -> Option<Self> {
        match raw {
            "shard" => Some(CheckpointKind::Shard),
            "topology" => Some(CheckpointKind::Topology),
            "lifecycle" => Some(CheckpointKind::Lifecycle),
            _ => None,
        }
    }
}

/// Why reading or writing a checkpoint failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file parsed but is not a valid checkpoint document.
    Json(JsonError),
    /// The file was written by an incompatible layout version.
    UnsupportedVersion(usize),
    /// The file's bytes contradict its checksums or container layout.
    Corrupt {
        /// Byte offset (from the start of the file) of the failure.
        offset: usize,
        /// What was wrong there.
        detail: String,
    },
    /// The checkpoint is valid but does not fit this topology (wrong
    /// kind, shard count or feed count).
    Incompatible(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o: {e}"),
            CheckpointError::Json(e) => write!(f, "checkpoint: {e}"),
            CheckpointError::UnsupportedVersion(v) => write!(
                f,
                "unsupported checkpoint version {v} (this build reads {CHECKPOINT_FORMAT_VERSION})"
            ),
            CheckpointError::Corrupt { offset, detail } => {
                write!(f, "checkpoint corrupt at byte {offset}: {detail}")
            }
            CheckpointError::Incompatible(detail) => {
                write!(f, "checkpoint does not fit this topology: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<JsonError> for CheckpointError {
    fn from(e: JsonError) -> Self {
        CheckpointError::Json(e)
    }
}

/// One resumable snapshot of one topology component.
///
/// The payload is kept opaque here (shards and the merge stage own
/// their codecs); the checkpoint layer only frames, checksums, kinds
/// and versions it.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Which component this file holds.
    pub kind: CheckpointKind,
    /// The component's serialized state.
    pub payload: Value,
}

impl Checkpoint {
    /// Write the checkpoint to `path` with [`Disk::replace`] (temp
    /// sibling, fsync, rename, directory sync); returns the file's length.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when the file cannot be written.
    pub fn save(&self, disk: &dyn Disk, path: &Path) -> Result<u64, CheckpointError> {
        // The document `{"format_version":…,"kind":…,"payload":…}`,
        // framed around the payload in place rather than around a copy
        // of its tree (kind names are plain ASCII: nothing to escape).
        let mut doc = format!(
            "{{\"format_version\":{CHECKPOINT_FORMAT_VERSION},\"kind\":\"{}\",\"payload\":",
            self.kind.as_str()
        );
        hdd_json::write_value(&self.payload, &mut doc);
        doc.push('}');
        let document = container::seal(CHECKPOINT_MAGIC, &doc);
        disk.replace(path, document.as_bytes())?;
        Ok(document.len() as u64)
    }

    /// Read a checkpoint written by [`Checkpoint::save`], verifying every
    /// payload block's CRC-32 before parsing.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Corrupt`] (with the failing byte
    /// offset) when the bytes contradict the recorded checksums, and
    /// [`CheckpointError`] on I/O, parse or version problems.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)?;
        let text = std::str::from_utf8(&bytes).map_err(|e| CheckpointError::Corrupt {
            offset: e.valid_up_to(),
            detail: "invalid UTF-8".to_string(),
        })?;
        let payload = match container::unseal(CHECKPOINT_MAGIC, text) {
            Ok(payload) => payload,
            Err(ContainerError::NotAContainer { .. }) => {
                return Err(CheckpointError::Corrupt {
                    offset: 0,
                    detail: "not a checkpoint file (missing container header)".to_string(),
                })
            }
            Err(ContainerError::Corrupt { offset, detail }) => {
                return Err(CheckpointError::Corrupt { offset, detail })
            }
        };
        let doc = hdd_json::parse(payload)?;
        let version = doc.usize_field("format_version")?;
        if version != CHECKPOINT_FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let raw_kind = doc
            .field("kind")?
            .as_str()
            .ok_or_else(|| JsonError::new("`kind` must be a string"))?;
        let kind = CheckpointKind::parse(raw_kind).ok_or_else(|| {
            CheckpointError::Incompatible(format!("unknown checkpoint kind `{raw_kind}`"))
        })?;
        // Move the payload out of the document rather than copy its tree.
        let Value::Obj(fields) = doc else {
            return Err(JsonError::new("a checkpoint must be an object").into());
        };
        let payload = fields
            .into_iter()
            .find_map(|(key, value)| (key == "payload").then_some(value))
            .ok_or_else(|| JsonError::missing("payload"))?;
        Ok(Checkpoint { kind, payload })
    }

    /// [`Checkpoint::load`], additionally refusing a file of the wrong
    /// kind (e.g. a shard file where `topology.ckpt` should be).
    ///
    /// # Errors
    ///
    /// As [`Checkpoint::load`], plus [`CheckpointError::Incompatible`]
    /// on a kind mismatch.
    pub fn load_expecting(path: &Path, kind: CheckpointKind) -> Result<Self, CheckpointError> {
        let ck = Checkpoint::load(path)?;
        if ck.kind != kind {
            return Err(CheckpointError::Incompatible(format!(
                "{}: expected a {} checkpoint, found {}",
                path.display(),
                kind.as_str(),
                ck.kind.as_str()
            )));
        }
        Ok(ck)
    }
}

/// Magic opening every frame header of a shard log.
const LOG_FRAME_MAGIC: &str = "hddlog";

/// Bytes of a frame header: the magic, three ` xxxxxxxx` fields, `\n`.
const FRAME_HEADER_BYTES: usize = LOG_FRAME_MAGIC.len() + 3 * 9 + 1;

/// Header bytes the header CRC covers: the magic, length and payload CRC.
const FRAME_CHECKED_BYTES: usize = LOG_FRAME_MAGIC.len() + 2 * 9;

/// The largest payload a frame header can state.
pub const MAX_FRAME_PAYLOAD: usize = u32::MAX as usize;

/// Seal `payload` (at most [`MAX_FRAME_PAYLOAD`] bytes) as one log
/// frame, header first; see the module docs for the layout.
#[must_use]
pub fn seal_frame(payload: &str) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_FRAME_PAYLOAD);
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    let crc = crc32(payload.as_bytes());
    // Writing into a `Vec` cannot fail.
    let _ = write!(frame, "{LOG_FRAME_MAGIC} {:08x} {crc:08x}", payload.len());
    let header_crc = crc32(&frame);
    let _ = writeln!(frame, " {header_crc:08x}");
    frame.extend_from_slice(payload.as_bytes());
    frame
}

/// The bytes [`seal_frame`] makes of a `payload_len`-byte payload.
#[must_use]
pub fn frame_len(payload_len: usize) -> usize {
    FRAME_HEADER_BYTES + payload_len
}

/// The whole frames at the start of a shard log.
#[derive(Debug, Default, PartialEq)]
pub struct LogFrames<'a> {
    /// Each frame's payload, with the byte offset it starts at.
    pub frames: Vec<(usize, &'a str)>,
    /// Bytes the whole frames cover: fewer than the log holds means a
    /// torn tail was dropped.
    pub len: usize,
}

/// Split a log's bytes into its whole frames.
///
/// # Errors
///
/// [`CheckpointError::Corrupt`] at the first complete frame whose header
/// or payload contradicts its checksums.
pub fn read_frames(bytes: &[u8]) -> Result<LogFrames<'_>, CheckpointError> {
    let corrupt = |offset: usize, detail: &str| CheckpointError::Corrupt {
        offset,
        detail: detail.to_string(),
    };
    let mut frames = Vec::new();
    let mut at = 0;
    while let Some(header) = bytes.get(at..at + FRAME_HEADER_BYTES) {
        let (len, crc) = frame_header(header).ok_or_else(|| corrupt(at, "bad log frame header"))?;
        let start = at + FRAME_HEADER_BYTES;
        let Some(payload) = bytes.get(start..start + len) else {
            break;
        };
        if crc32(payload) != crc {
            return Err(corrupt(start, "log frame checksum mismatch"));
        }
        let text = std::str::from_utf8(payload)
            .map_err(|e| corrupt(start + e.valid_up_to(), "invalid UTF-8 in a log frame"))?;
        frames.push((start, text));
        at = start + len;
    }
    Ok(LogFrames { frames, len: at })
}

/// A frame header's payload length and CRC, if its layout and its own
/// CRC hold.
fn frame_header(header: &[u8]) -> Option<(usize, u32)> {
    let (checked, tail) = header.split_at_checked(FRAME_CHECKED_BYTES)?;
    let magic = LOG_FRAME_MAGIC.len();
    if !checked.starts_with(LOG_FRAME_MAGIC.as_bytes()) || tail.last() != Some(&b'\n') {
        return None;
    }
    // Each field is a space and 8 lowercase hex digits: one spelling per
    // value, so no flipped bit reads as the same number.
    let field = |bytes: &[u8]| -> Option<u32> {
        let (&space, digits) = bytes.split_first()?;
        if space != b' ' {
            return None;
        }
        digits.iter().try_fold(0u32, |acc, &d| {
            let v = match d {
                b'0'..=b'9' => d - b'0',
                b'a'..=b'f' => d - b'a' + 10,
                _ => return None,
            };
            Some(acc << 4 | u32::from(v))
        })
    };
    let len = field(checked.get(magic..magic + 9)?)?;
    let crc = field(checked.get(magic + 9..)?)?;
    let header_crc = field(tail.get(..9)?)?;
    (crc32(checked) == header_crc).then_some((len as usize, crc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdd_json::container::tmp_sibling;
    use hdd_json::disk::RealDisk;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hdd-serve-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            kind: CheckpointKind::Shard,
            payload: Value::Obj(vec![
                ("cursors".to_string(), Value::Arr(vec![Value::Num(678.0)])),
                ("drives".to_string(), Value::Arr(vec![Value::Num(1.0)])),
            ]),
        }
    }

    #[test]
    fn the_frame_is_the_document_the_value_tree_would_encode() {
        let path = scratch("frame.ckpt");
        for kind in [
            CheckpointKind::Shard,
            CheckpointKind::Topology,
            CheckpointKind::Lifecycle,
        ] {
            let ck = Checkpoint { kind, ..sample() };
            ck.save(&RealDisk, &path).unwrap();
            let doc = Value::Obj(vec![
                (
                    "format_version".to_string(),
                    Value::Num(CHECKPOINT_FORMAT_VERSION as f64),
                ),
                ("kind".to_string(), Value::Str(kind.as_str().to_string())),
                ("payload".to_string(), ck.payload.clone()),
            ]);
            let expected = container::seal(CHECKPOINT_MAGIC, &hdd_json::to_string(&doc));
            assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn round_trips_through_a_file() {
        let path = scratch("roundtrip.ckpt");
        let ck = sample();
        ck.save(&RealDisk, &path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let path = scratch("bitflip.ckpt");
        sample().save(&RealDisk, &path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[byte] ^= 1 << bit;
                std::fs::write(&path, &bytes).unwrap();
                assert!(
                    Checkpoint::load(&path).is_err(),
                    "flip of byte {byte} bit {bit} was accepted"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_kind_and_junk_are_typed_errors() {
        let path = scratch("versioned.ckpt");
        // A version-1 (pre-sharding) checkpoint is refused, not misread.
        let doc = "{\"format_version\":1,\"sink_bytes\":0,\"engine\":{}}";
        let sealed = container::seal(CHECKPOINT_MAGIC, doc);
        std::fs::write(&path, sealed).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(
            matches!(err, CheckpointError::UnsupportedVersion(1)),
            "{err}"
        );

        let doc = "{\"format_version\":2,\"kind\":\"sharf\",\"payload\":{}}";
        let sealed = container::seal(CHECKPOINT_MAGIC, doc);
        std::fs::write(&path, sealed).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Incompatible(_)), "{err}");

        std::fs::write(&path, "not a checkpoint at all").unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Corrupt { offset: 0, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("container header"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_expecting_refuses_a_kind_mismatch() {
        let path = scratch("kind.ckpt");
        sample().save(&RealDisk, &path).unwrap();
        assert!(Checkpoint::load_expecting(&path, CheckpointKind::Shard).is_ok());
        let err = Checkpoint::load_expecting(&path, CheckpointKind::Topology).unwrap_err();
        assert!(matches!(err, CheckpointError::Incompatible(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// Three sealed frames and where each one starts.
    fn three_frames() -> (Vec<u8>, Vec<usize>) {
        let mut log = Vec::new();
        let mut starts = Vec::new();
        for payload in ["L 0 51 0 - 1 x\n", "", "D 4 8 15\nA 16 23 42\n"] {
            starts.push(log.len());
            log.extend(seal_frame(payload));
        }
        (log, starts)
    }

    #[test]
    fn frames_read_back_in_order() {
        let (log, starts) = three_frames();
        let LogFrames { frames, len } = read_frames(&log).unwrap();
        assert_eq!(len, log.len());
        let payloads: Vec<&str> = frames.iter().map(|f| f.1).collect();
        assert_eq!(payloads, ["L 0 51 0 - 1 x\n", "", "D 4 8 15\nA 16 23 42\n"]);
        for ((offset, payload), start) in frames.iter().zip(&starts) {
            assert_eq!(*offset, start + frame_len(0));
            assert_eq!(frame_len(payload.len()), seal_frame(payload).len());
        }
        assert_eq!(read_frames(b"").unwrap(), LogFrames::default());
    }

    #[test]
    fn a_torn_tail_is_dropped() {
        let (log, starts) = three_frames();
        let last = starts[2];
        // Every cut inside the last frame, header included, drops it.
        for cut in last..log.len() {
            let LogFrames { frames, len } = read_frames(&log[..cut]).unwrap();
            assert_eq!(frames.len(), 2, "cut at {cut}");
            assert_eq!(len, last, "cut at {cut}");
        }
    }

    #[test]
    fn every_single_bit_flip_in_a_complete_frame_is_rejected_with_its_offset() {
        let (log, starts) = three_frames();
        for byte in 0..log.len() {
            let start = *starts.iter().rev().find(|&&s| s <= byte).unwrap();
            for bit in 0..8 {
                let mut bytes = log.clone();
                bytes[byte] ^= 1 << bit;
                match read_frames(&bytes) {
                    Err(CheckpointError::Corrupt { offset, .. }) => assert!(
                        (start..=byte).contains(&offset),
                        "flip of byte {byte} bit {bit} reported at {offset}"
                    ),
                    other => panic!("flip of byte {byte} bit {bit}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn interrupted_save_never_clobbers_the_previous_checkpoint() {
        let path = scratch("interrupted.ckpt");
        let ck = sample();
        ck.save(&RealDisk, &path).unwrap();
        std::fs::write(tmp_sibling(&path), b"torn che").unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        ck.save(&RealDisk, &path).unwrap();
        assert!(
            !tmp_sibling(&path).exists(),
            "save must consume its temp file"
        );
        std::fs::remove_file(&path).ok();
    }
}
