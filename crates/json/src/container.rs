//! The CRC-checked, crash-safe file container.
//!
//! Model files and service checkpoints share one on-disk layout: a
//! two-line document whose header line records a magic string, the CRC
//! block size, the payload byte count and one CRC-32 per payload block,
//! followed by the payload itself. [`seal`] builds that document and
//! [`unseal`] verifies it down to the byte; [`crate::disk::Disk::replace`]
//! persists it crash-safely, so an interrupted writer never clobbers the
//! previous valid file and a reader only ever sees a complete old or new
//! document.
//!
//! Any single bit flip anywhere in a sealed file is rejected at
//! [`unseal`] with the failing byte offset — the property the chaos
//! suite enforces for models and checkpoints alike.

use crate::{crc32, Value};
use std::fmt;
use std::path::{Path, PathBuf};

/// Payload bytes covered by each CRC-32 in the container header. Small
/// blocks keep the "corrupt at byte …" diagnostics tight without
/// noticeably growing the header.
pub const CRC_BLOCK_BYTES: usize = 256;

/// Why a sealed container could not be opened.
#[derive(Debug)]
pub enum ContainerError {
    /// The text does not even look like a container (no header line, an
    /// unrecognized magic string). The candidate header (or the whole
    /// text, for single-line files) is carried so callers can classify
    /// legacy formats themselves.
    NotAContainer {
        /// The first line of the file (or all of it when single-line).
        candidate: String,
    },
    /// The container is recognizable but its bytes contradict the
    /// recorded checksums or layout.
    Corrupt {
        /// Byte offset (from the start of the file) of the failure.
        offset: usize,
        /// What was wrong there.
        detail: String,
    },
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::NotAContainer { .. } => {
                write!(f, "not a sealed container (missing header)")
            }
            ContainerError::Corrupt { offset, detail } => {
                write!(f, "corrupt at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for ContainerError {}

/// Build the two-line container document for `payload`:
/// `{"magic":…,"block":256,"payload_bytes":…,"crc32":[…]}\n<payload>`.
#[must_use]
pub fn seal(magic: &str, payload: &str) -> String {
    let header = Value::Obj(vec![
        ("magic".to_string(), Value::Str(magic.to_string())),
        ("block".to_string(), Value::Num(CRC_BLOCK_BYTES as f64)),
        (
            "payload_bytes".to_string(),
            Value::Num(payload.len() as f64),
        ),
        (
            "crc32".to_string(),
            Value::from_usizes(
                payload
                    .as_bytes()
                    .chunks(CRC_BLOCK_BYTES)
                    .map(|chunk| crc32(chunk) as usize),
            ),
        ),
    ]);
    let mut document = crate::to_string(&header);
    document.push('\n');
    document.push_str(payload);
    document
}

/// Verify a container document sealed with `magic` and return its
/// payload slice.
///
/// Every payload block's CRC-32, the payload length and the header
/// layout are checked before anything is returned; a mismatch names the
/// failing byte offset.
///
/// # Errors
///
/// Returns [`ContainerError::NotAContainer`] when the text has no header
/// line or the header is valid JSON without this `magic` (callers with
/// legacy single-line formats inspect `candidate` to classify them), and
/// [`ContainerError::Corrupt`] for everything else.
pub fn unseal<'a>(magic: &str, text: &'a str) -> Result<&'a str, ContainerError> {
    let Some((header_line, payload)) = text.split_once('\n') else {
        return Err(ContainerError::NotAContainer {
            candidate: text.to_string(),
        });
    };
    let corrupt_header = |detail: String| ContainerError::Corrupt { offset: 0, detail };
    let header =
        crate::parse(header_line).map_err(|e| corrupt_header(format!("unreadable header: {e}")))?;
    match header.str_field("magic") {
        Ok(found) if found == magic => {}
        _ => {
            return Err(ContainerError::NotAContainer {
                candidate: header_line.to_string(),
            })
        }
    }
    let block = header
        .usize_field("block")
        .map_err(|e| corrupt_header(e.to_string()))?;
    if block != CRC_BLOCK_BYTES {
        return Err(corrupt_header(format!(
            "checksum block size {block}, expected {CRC_BLOCK_BYTES}"
        )));
    }
    let recorded_len = header
        .usize_field("payload_bytes")
        .map_err(|e| corrupt_header(e.to_string()))?;
    let payload_offset = header_line.len() + 1;
    if recorded_len != payload.len() {
        return Err(ContainerError::Corrupt {
            offset: payload_offset,
            detail: format!(
                "payload is {} bytes, header says {recorded_len}",
                payload.len()
            ),
        });
    }
    let recorded = header
        .usize_vec_field("crc32")
        .map_err(|e| corrupt_header(e.to_string()))?;
    let chunks = payload.as_bytes().chunks(CRC_BLOCK_BYTES);
    if recorded.len() != chunks.len() {
        return Err(corrupt_header(format!(
            "{} checksums for {} payload blocks",
            recorded.len(),
            chunks.len()
        )));
    }
    for (i, chunk) in chunks.enumerate() {
        if crc32(chunk) as usize != recorded[i] {
            return Err(ContainerError::Corrupt {
                offset: payload_offset + i * CRC_BLOCK_BYTES,
                detail: format!("checksum mismatch in the {}-byte block there", chunk.len()),
            });
        }
    }
    Ok(payload)
}

/// The temp-file path an atomic replace uses before renaming: `<name>.tmp`
/// in the same directory, so the rename never crosses a filesystem
/// boundary.
#[must_use]
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(std::ffi::OsStr::to_os_string)
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &str = "hdd-test-container";

    #[test]
    fn seal_unseal_round_trips() {
        for payload in ["", "x", "{\"a\":1}", &"long ".repeat(300)] {
            let doc = seal(MAGIC, payload);
            assert_eq!(unseal(MAGIC, &doc).unwrap(), payload);
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let doc = seal(MAGIC, &"payload body ".repeat(40));
        for byte in 0..doc.len() {
            for bit in 0..8 {
                let mut bytes = doc.clone().into_bytes();
                bytes[byte] ^= 1 << bit;
                let Ok(text) = String::from_utf8(bytes) else {
                    continue; // non-UTF-8 is rejected before unseal
                };
                assert!(
                    unseal(MAGIC, &text).is_err(),
                    "flip of byte {byte} bit {bit} was accepted"
                );
            }
        }
    }

    #[test]
    fn corruption_names_the_failing_block_offset() {
        let doc = seal(MAGIC, &"abcdefgh".repeat(100));
        let header_end = doc.find('\n').unwrap();
        let victim = header_end + 1 + CRC_BLOCK_BYTES + 5;
        let mut bytes = doc.into_bytes();
        bytes[victim] ^= 0x20;
        let text = String::from_utf8(bytes).unwrap();
        match unseal(MAGIC, &text).unwrap_err() {
            ContainerError::Corrupt { offset, .. } => {
                assert_eq!(offset, header_end + 1 + CRC_BLOCK_BYTES);
            }
            other => panic!("expected Corrupt, got {other}"),
        }
    }

    #[test]
    fn wrong_magic_and_headerless_text_are_not_a_container() {
        let doc = seal("other-magic", "payload");
        assert!(matches!(
            unseal(MAGIC, &doc),
            Err(ContainerError::NotAContainer { .. })
        ));
        assert!(matches!(
            unseal(MAGIC, "{\"format_version\":1}"),
            Err(ContainerError::NotAContainer { candidate }) if candidate.contains("format_version")
        ));
    }

    #[test]
    fn unreadable_header_is_corrupt() {
        let err = unseal(MAGIC, "not json at all\npayload").unwrap_err();
        assert!(
            matches!(err, ContainerError::Corrupt { offset: 0, .. }),
            "{err}"
        );
    }
}
