//! Crash-safe daemon checkpoints.
//!
//! A sharded topology checkpoints into a **directory**: one
//! `topology.ckpt` (the merge state: low-water mark, early-flushed
//! seqs, sink length) and, per shard `k`, a snapshot `shard-<k>.ckpt`
//! (its voting state, counters, breaker, feed cursors and unmerged
//! alarms) plus an append-only record log `shard-<k>.log` of what the
//! shard committed since that snapshot. The retraining lifecycle keeps
//! `lifecycle.ckpt` and `lifecycle.log` beside them the same way. The
//! save order is always sink → lifecycle → `topology.ckpt` → dirty
//! shards; combined with seq-keyed replay filtering, a crash between any
//! two writes merely replays a feed suffix and produces byte-identical
//! alarm output (see DESIGN.md §8 for the resume protocol).
//!
//! Each snapshot reuses the CRC-checked two-line container model files
//! use ([`hdd_json::container`]) with its own magic string, and every
//! snapshot write goes through [`Disk::replace`] — a crash mid-checkpoint
//! leaves the previous valid file in place.
//!
//! A [`SnapshotLog`] owns one snapshot and its log. A log is a sequence
//! of frames, each a fixed-width header line `hddlog <len> <crc> <header
//! crc>` (three 8-digit lowercase hex numbers: the payload's byte
//! length, the payload's CRC-32 and the CRC-32 of the header bytes
//! before it), then the payload. Frames are only ever appended and
//! synced, so a crash can leave at most one incomplete frame, at the
//! end: restore drops a frame shorter than its header says as a torn
//! tail, and rejects any complete frame whose bytes contradict a
//! checksum as [`CheckpointError::Corrupt`] with the byte offset. The
//! header's own CRC is what keeps a bit flip in a length from passing
//! for a torn tail. What a payload holds is its owner's business (see
//! [`crate::EngineShard::take_log`]).

use hdd_json::container::{self, ContainerError};
use hdd_json::disk::Disk;
use hdd_json::{crc32, Cursor, Decoded, JsonError, Value};
use std::cell::Cell;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

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
        save_snapshot(disk, path, self.kind, |out| {
            hdd_json::write_value(&self.payload, out);
        })
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
        let (kind, payload) = read_document(verified(&bytes)?, |c| c.value().map(Ok))?;
        Ok(Checkpoint {
            kind,
            payload: payload?,
        })
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
        expect_kind(path, kind, ck.kind)?;
        Ok(ck)
    }
}

/// Write the `kind` checkpoint whose payload `payload` appends to `path`,
/// as [`Checkpoint::save`] writes it, without building the payload's
/// tree; returns the file's length.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] when the file cannot be written.
pub fn save_snapshot(
    disk: &dyn Disk,
    path: &Path,
    kind: CheckpointKind,
    payload: impl FnOnce(&mut String),
) -> Result<u64, CheckpointError> {
    // The document `{"format_version":…,"kind":…,"payload":…}`, framed
    // around the payload as it is written (kind names are plain ASCII:
    // nothing to escape).
    let mut doc = String::from("{\"format_version\":");
    hdd_json::write_number(CHECKPOINT_FORMAT_VERSION as f64, &mut doc);
    doc.push_str(",\"kind\":\"");
    doc.push_str(kind.as_str());
    doc.push_str("\",\"payload\":");
    payload(&mut doc);
    doc.push('}');
    let document = container::seal(CHECKPOINT_MAGIC, &doc);
    disk.replace(path, document.as_bytes())?;
    Ok(document.len() as u64)
}

/// The checkpoint document a sealed file holds, once its bytes are UTF-8
/// and match every recorded checksum.
fn verified(bytes: &[u8]) -> Result<&str, CheckpointError> {
    let text = std::str::from_utf8(bytes).map_err(|e| CheckpointError::Corrupt {
        offset: e.valid_up_to(),
        detail: "invalid UTF-8".to_string(),
    })?;
    match container::unseal(CHECKPOINT_MAGIC, text) {
        Ok(document) => Ok(document),
        Err(ContainerError::NotAContainer { .. }) => Err(CheckpointError::Corrupt {
            offset: 0,
            detail: "not a checkpoint file (missing container header)".to_string(),
        }),
        Err(ContainerError::Corrupt { offset, detail }) => {
            Err(CheckpointError::Corrupt { offset, detail })
        }
    }
}

/// Read a checkpoint document `{"format_version":…,"kind":…,"payload":…}`
/// in one pass, handing `payload` the cursor at the first `payload`
/// member: the document's kind, and the payload or its shape error.
/// Members may come in any order; a repeated key is skipped, as
/// [`Value::get`] finds only the first.
fn read_document<'a, T>(
    document: &'a str,
    payload: impl FnOnce(&mut Cursor<'a>) -> Decoded<T>,
) -> Result<(CheckpointKind, Result<T, JsonError>), CheckpointError> {
    let mut cursor = Cursor::new(document);
    let (mut version, mut kind, mut read) = (None, None, None);
    let mut payload = Some(payload);
    cursor.object(|key, c| {
        match key {
            "format_version" if version.is_none() => version = Some(c.number()?),
            "kind" if kind.is_none() => kind = Some(c.string()?),
            "payload" => match payload.take() {
                Some(decode) => read = Some(decode(c)?),
                None => c.skip()?,
            },
            _ => c.skip()?,
        }
        Ok(())
    })?;
    cursor.finish()?;
    let version = hdd_json::usize_field(version, "format_version")?;
    if version != CHECKPOINT_FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let raw_kind = kind
        .ok_or_else(|| JsonError::missing("kind"))?
        .ok_or_else(|| JsonError::new("`kind` must be a string"))?;
    let kind = CheckpointKind::parse(&raw_kind).ok_or_else(|| {
        CheckpointError::Incompatible(format!("unknown checkpoint kind `{raw_kind}`"))
    })?;
    let read = read.ok_or_else(|| JsonError::missing("payload"))?;
    Ok((kind, read))
}

/// Refuse a checkpoint of kind `found` at `path` where `expected` belongs.
fn expect_kind(
    path: &Path,
    expected: CheckpointKind,
    found: CheckpointKind,
) -> Result<(), CheckpointError> {
    if found == expected {
        return Ok(());
    }
    Err(CheckpointError::Incompatible(format!(
        "{}: expected a {} checkpoint, found {}",
        path.display(),
        expected.as_str(),
        found.as_str()
    )))
}

/// How large a log may grow, in bytes per byte of its last snapshot,
/// before a save compacts it into a new snapshot. Larger logs make saves
/// cheaper and restarts longer (OPTIMIZATION_LOG entry 13 has the
/// measurements).
pub const LOG_BYTES_PER_SNAPSHOT_BYTE: u64 = 1;

/// What a [`SnapshotLog`]'s log holds on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LogState {
    /// No log file (nor a durable directory entry for one).
    Absent,
    /// The log holds this many bytes of whole frames.
    Frames(u64),
    /// The log may end in a torn or failed frame: nothing may be
    /// appended until a snapshot empties it.
    Unknown,
}

/// One checkpoint kept as a snapshot file plus an append-only log of the
/// frames saved since it. A save appends one frame and syncs the log; it
/// writes a snapshot and empties the log instead on the first save,
/// after a torn or failed save, and when the frame would grow the log
/// past [`LOG_BYTES_PER_SNAPSHOT_BYTE`] times the last snapshot. A crash
/// between the snapshot and the emptying leaves frames the snapshot
/// covers, which its owner must replay with zero state effect. The
/// bookkeeping is in [`Cell`]s, so an owner may save through `&self`.
#[derive(Debug)]
pub struct SnapshotLog {
    kind: CheckpointKind,
    snapshot: PathBuf,
    log: PathBuf,
    /// Bytes of the last snapshot written or loaded (0: none yet).
    snapshot_bytes: Cell<u64>,
    state: Cell<LogState>,
}

impl SnapshotLog {
    /// The `kind` checkpoint kept in `snapshot` and its sibling `log`.
    #[must_use]
    pub fn new(kind: CheckpointKind, snapshot: PathBuf, log: PathBuf) -> Self {
        let (snapshot_bytes, state) = (Cell::new(0), Cell::new(LogState::Absent));
        SnapshotLog {
            kind,
            snapshot,
            log,
            snapshot_bytes,
            state,
        }
    }

    /// The snapshot file.
    #[must_use]
    pub fn snapshot_path(&self) -> &Path {
        &self.snapshot
    }

    /// The log file.
    #[must_use]
    pub fn log_path(&self) -> &Path {
        &self.log
    }

    /// Append the frame `frame` makes (an empty one writes nothing), or
    /// write the snapshot whose payload `payload` appends and empty the
    /// log; `frame` runs only when a frame may be appended, and `None`
    /// asks for a snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when a write fails.
    pub fn save(
        &self,
        disk: &dyn Disk,
        frame: impl FnOnce() -> Option<String>,
        payload: impl FnOnce(&mut String),
    ) -> Result<(), CheckpointError> {
        // Until this save lands, the log may end in a failed frame.
        let state = self.state.replace(LogState::Unknown);
        let snapshot_bytes = self.snapshot_bytes.get();
        let logged = match state {
            LogState::Absent if snapshot_bytes > 0 => Some(0),
            LogState::Frames(bytes) if snapshot_bytes > 0 => Some(bytes),
            _ => None,
        };
        if let Some((logged, frame)) = logged.and_then(|l| Some((l, frame()?))) {
            let grown = logged + (FRAME_HEADER_BYTES + frame.len()) as u64;
            if frame.is_empty() {
                self.state.set(state);
                return Ok(());
            }
            if frame.len() <= MAX_FRAME_PAYLOAD
                && grown <= snapshot_bytes * LOG_BYTES_PER_SNAPSHOT_BYTE
            {
                disk.append(&self.log, &seal_frame(&frame))?;
                disk.sync(&self.log)?;
                if state == LogState::Absent {
                    disk.sync_dir(self.log.parent().unwrap_or(Path::new(".")))?;
                }
                self.state.set(LogState::Frames(grown));
                return Ok(());
            }
        }
        let written = save_snapshot(disk, &self.snapshot, self.kind, payload)?;
        self.snapshot_bytes.set(written);
        match state {
            LogState::Absent | LogState::Frames(0) => {}
            // The replace just synced the directory the log is in, and
            // cutting a file's length changes no directory entry.
            LogState::Frames(_) => {
                disk.set_len(&self.log, 0)?;
                disk.sync(&self.log)?;
            }
            LogState::Unknown => disk.truncate(&self.log, 0)?,
        }
        let emptied = if state == LogState::Absent {
            state
        } else {
            LogState::Frames(0)
        };
        self.state.set(emptied);
        Ok(())
    }

    /// What `payload` decodes from the snapshot's payload, if the
    /// snapshot exists: once the file's checksums verify, `payload` gets
    /// a cursor at the payload value, read in the same pass as the
    /// document around it. Load it before [`SnapshotLog::replay_log`],
    /// which reads the log.
    ///
    /// # Errors
    ///
    /// Any error of [`Checkpoint::load_expecting`], and the payload's
    /// shape error as [`CheckpointError::Json`]. Errors rank as they do
    /// when the document is parsed first and decoded after: the
    /// container, then any syntax error, then the document's version
    /// and kind, then what `payload` rejected.
    pub fn load_snapshot<T>(
        &self,
        payload: impl FnOnce(&mut Cursor<'_>) -> Decoded<T>,
    ) -> Result<Option<T>, CheckpointError> {
        let bytes = match std::fs::read(&self.snapshot) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        self.snapshot_bytes.set(bytes.len() as u64);
        let (kind, payload) = read_document(verified(&bytes)?, payload)?;
        expect_kind(&self.snapshot, self.kind, kind)?;
        Ok(Some(payload?))
    }

    /// Pass the log's whole frames, each payload with the byte offset it
    /// starts at, to `apply`. A torn tail is dropped, and makes the next
    /// save a snapshot.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] at the first complete frame whose
    /// bytes contradict a checksum, [`CheckpointError::Incompatible`]
    /// when the log holds frames but [`SnapshotLog::load_snapshot`] found
    /// no snapshot, and any error of `apply`.
    pub fn replay_log(
        &self,
        apply: impl FnOnce(&[(usize, &str)]) -> Result<(), CheckpointError>,
    ) -> Result<(), CheckpointError> {
        let bytes = match std::fs::read(&self.log) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        let bytes = bytes.as_deref();
        let (frames, len) = read_frames(bytes.unwrap_or_default())?;
        if self.snapshot_bytes.get() == 0 && !frames.is_empty() {
            return Err(CheckpointError::Incompatible(format!(
                "{} holds frames but {} does not exist",
                self.log.display(),
                self.snapshot.display()
            )));
        }
        apply(&frames)?;
        self.state.set(match bytes {
            None => LogState::Absent,
            Some(b) if b.len() == len => LogState::Frames(len as u64),
            Some(_) => LogState::Unknown,
        });
        Ok(())
    }
}

/// Magic opening every log frame header.
const LOG_FRAME_MAGIC: &str = "hddlog";

/// Bytes of a frame header: the magic, three ` xxxxxxxx` fields, `\n`.
const FRAME_HEADER_BYTES: usize = LOG_FRAME_MAGIC.len() + 3 * 9 + 1;

/// Header bytes the header CRC covers: the magic, length and payload CRC.
const FRAME_CHECKED_BYTES: usize = LOG_FRAME_MAGIC.len() + 2 * 9;

/// The largest payload a frame header can state.
const MAX_FRAME_PAYLOAD: usize = u32::MAX as usize;

/// Seal `payload` (at most [`MAX_FRAME_PAYLOAD`] bytes) as one log
/// frame, header first; see the module docs for the layout.
pub(crate) fn seal_frame(payload: &str) -> Vec<u8> {
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

/// Whole log frames: each payload with the byte offset it starts at.
type Frames<'a> = Vec<(usize, &'a str)>;

/// Split a log's bytes into its whole frames, and the bytes they cover
/// (fewer than the log holds means a torn tail was dropped).
///
/// # Errors
///
/// [`CheckpointError::Corrupt`] at the first complete frame whose header
/// or payload contradicts its checksums.
fn read_frames(bytes: &[u8]) -> Result<(Frames<'_>, usize), CheckpointError> {
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
    Ok((frames, at))
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

    impl SnapshotLog {
        /// Whether the log may end in a torn or failed frame.
        pub(crate) fn is_unknown(&self) -> bool {
            self.state.get() == LogState::Unknown
        }
    }
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
        let (frames, len) = read_frames(&log).unwrap();
        assert_eq!(len, log.len());
        let payloads: Vec<&str> = frames.iter().map(|f| f.1).collect();
        assert_eq!(payloads, ["L 0 51 0 - 1 x\n", "", "D 4 8 15\nA 16 23 42\n"]);
        for ((offset, payload), start) in frames.iter().zip(&starts) {
            assert_eq!(*offset, start + FRAME_HEADER_BYTES);
            assert_eq!(
                FRAME_HEADER_BYTES + payload.len(),
                seal_frame(payload).len()
            );
        }
        assert_eq!(read_frames(b"").unwrap(), (Vec::new(), 0));
    }

    #[test]
    fn a_torn_tail_is_dropped() {
        let (log, starts) = three_frames();
        let last = starts[2];
        // Every cut inside the last frame, header included, drops it.
        for cut in last..log.len() {
            let (frames, len) = read_frames(&log[..cut]).unwrap();
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

    /// A snapshot log in a fresh directory named by `tag`.
    fn snapshot_log(tag: &str) -> SnapshotLog {
        let dir = scratch(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        SnapshotLog::new(CheckpointKind::Shard, dir.join("s.ckpt"), dir.join("s.log"))
    }

    fn log_bytes(ckpt: &SnapshotLog) -> usize {
        std::fs::read(ckpt.log_path()).map_or(0, |b| b.len())
    }

    /// Save `frame` through `ckpt`, with `sample()` as the snapshot.
    fn save_frame(ckpt: &SnapshotLog, disk: &dyn Disk, frame: &str) -> Result<(), CheckpointError> {
        ckpt.save(
            disk,
            || Some(frame.to_string()),
            |out| hdd_json::write_value(&sample().payload, out),
        )
    }

    /// The snapshot's payload and the frames `ckpt` restores.
    fn restored(ckpt: &SnapshotLog) -> Result<(Option<Value>, Vec<String>), CheckpointError> {
        let snapshot = ckpt.load_snapshot(|c| c.value().map(Ok))?;
        let mut frames = Vec::new();
        ckpt.replay_log(|all| {
            frames = all.iter().map(|f| f.1.to_string()).collect();
            Ok(())
        })?;
        Ok((snapshot, frames))
    }

    #[test]
    fn a_snapshot_log_appends_until_the_log_outgrows_its_snapshot() {
        let ckpt = snapshot_log("snapshot-log");
        // The first save is a snapshot, whatever the frame.
        save_frame(&ckpt, &RealDisk, "first").unwrap();
        let snapshot = std::fs::read(ckpt.snapshot_path()).unwrap().len();
        assert_eq!(log_bytes(&ckpt), 0);
        let frame = "x".repeat(snapshot / 3 - FRAME_HEADER_BYTES);
        for n in 1..=3 {
            save_frame(&ckpt, &RealDisk, &frame).unwrap();
            assert_eq!(log_bytes(&ckpt), n * (FRAME_HEADER_BYTES + frame.len()));
        }
        let (payload, frames) = restored(&ckpt).unwrap();
        assert_eq!(payload, Some(sample().payload));
        assert_eq!(frames, vec![frame.clone(); 3]);
        // An empty frame writes nothing; one more would outgrow the log.
        save_frame(&ckpt, &RealDisk, "").unwrap();
        assert_eq!(log_bytes(&ckpt), 3 * (FRAME_HEADER_BYTES + frame.len()));
        save_frame(&ckpt, &RealDisk, &frame).unwrap();
        assert_eq!(log_bytes(&ckpt), 0);
        assert_eq!(restored(&ckpt).unwrap().1, Vec::<String>::new());
    }

    #[test]
    fn a_torn_or_failed_save_makes_the_next_save_a_snapshot() {
        use hdd_json::disk::{Fault, FaultDisk};
        let ckpt = snapshot_log("snapshot-log-torn");
        save_frame(&ckpt, &RealDisk, "first").unwrap();
        save_frame(&ckpt, &RealDisk, "kept").unwrap();
        let whole = log_bytes(&ckpt);
        save_frame(&ckpt, &RealDisk, "torn").unwrap();
        let log = std::fs::read(ckpt.log_path()).unwrap();
        std::fs::write(ckpt.log_path(), &log[..log.len() - 1]).unwrap();

        let resumed = SnapshotLog::new(
            CheckpointKind::Shard,
            ckpt.snapshot_path().to_path_buf(),
            ckpt.log_path().to_path_buf(),
        );
        assert_eq!(restored(&resumed).unwrap().1, ["kept"]);
        assert!(resumed.is_unknown());
        assert_eq!(log_bytes(&resumed), whole + (FRAME_HEADER_BYTES + 4) - 1);
        save_frame(&resumed, &RealDisk, "next").unwrap();
        assert_eq!(log_bytes(&resumed), 0, "a torn tail is never appended to");
        assert!(!resumed.is_unknown());

        // The frame's append fails: that save's changes are lost from
        // memory, so the next save is a snapshot too.
        save_frame(&resumed, &RealDisk, "kept").unwrap();
        let failing = FaultDisk::failing_at(0, Fault::Eio);
        assert!(save_frame(&resumed, &failing, "lost").is_err());
        assert!(resumed.is_unknown());
        save_frame(&resumed, &RealDisk, "next").unwrap();
        assert_eq!(log_bytes(&resumed), 0);
    }

    #[test]
    fn a_log_without_its_snapshot_is_refused() {
        let ckpt = snapshot_log("snapshot-log-orphan");
        std::fs::write(ckpt.log_path(), seal_frame("orphan")).unwrap();
        let err = restored(&ckpt).unwrap_err();
        assert!(matches!(err, CheckpointError::Incompatible(_)), "{err}");
        assert!(err.to_string().contains("s.ckpt"), "{err}");
        // An empty log and no snapshot is a fresh start.
        std::fs::write(ckpt.log_path(), b"").unwrap();
        assert_eq!(restored(&ckpt).unwrap(), (None, Vec::new()));
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
