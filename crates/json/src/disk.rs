//! The one durable-write layer: every byte the daemon persists (alarm
//! sink, checkpoints, model files, the model store's promotion protocol)
//! goes through a [`Disk`]. Its required methods are the write
//! boundaries; its provided methods compose them once, so the
//! atomic-replace sequence (temp sibling → `fdatasync` → rename →
//! directory `fsync`) exists in one place. [`RealDisk`] is the filesystem.
//! [`FaultDisk`] runs the same boundaries while counting them and fails
//! one: a power loss (every path it touched reverts to its last-synced
//! image), ENOSPC, EIO, or a short write.

use crate::container::tmp_sibling;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Persistent storage. Each method returns the I/O error of its first
/// failing step; nothing is durable until a sync says so.
pub trait Disk: fmt::Debug + Send + Sync {
    /// Create or truncate `path` and write `bytes`.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Append `bytes` to `path`, creating it.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Cut or extend `path` to `len` bytes, creating it.
    fn set_len(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Make `path`'s bytes and length durable (`fdatasync`), but not its
    /// directory entry.
    fn sync(&self, path: &Path) -> io::Result<()>;
    /// Make the entries of `dir` durable: creations, renames, removals.
    /// On unix a failed open or `fsync` of the directory is returned.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Rename `from` to `to`.
    fn move_entry(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove `path`; a missing file is not an error.
    fn unlink(&self, path: &Path) -> io::Result<()>;
    /// Create the directory `dir`, whose parent exists.
    fn mkdir(&self, dir: &Path) -> io::Result<()>;

    /// Replace `path` with `bytes` atomically and durably: a crash at any
    /// point leaves the complete old or the complete new file.
    fn replace(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = tmp_sibling(path);
        self.write(&tmp, bytes)?;
        self.sync(&tmp)?;
        self.move_entry(&tmp, path)?;
        self.sync_dir(parent(path))
    }

    /// Rename `from` to `to`, a sibling in the same directory, durably.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.move_entry(from, to)?;
        self.sync_dir(parent(to))
    }

    /// Remove `path` durably; a missing file is not an error.
    fn remove(&self, path: &Path) -> io::Result<()> {
        self.unlink(path)?;
        self.sync_dir(parent(path))
    }

    /// Set `path`'s length durably, creating the file and its entry.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.set_len(path, len)?;
        self.sync(path)?;
        self.sync_dir(parent(path))
    }

    /// Create `dir` and its missing ancestors durably.
    fn create_dir(&self, dir: &Path) -> io::Result<()> {
        if dir.is_dir() {
            return Ok(());
        }
        if let Some(up) = dir.parent().filter(|p| !p.as_os_str().is_empty()) {
            self.create_dir(up)?;
        }
        self.mkdir(dir)?;
        self.sync_dir(parent(dir))
    }
}

/// The directory holding `path` (`.` for a bare file name).
fn parent(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// The filesystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealDisk;

impl Disk for RealDisk {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        File::create(path)?.write_all(bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = File::options().create(true).append(true).open(path)?;
        file.write_all(bytes)
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut options = File::options();
        options.create(true).write(true).truncate(false);
        options.open(path)?.set_len(len)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        // `fdatasync` flushes the length with the bytes; only timestamps,
        // which no reader of these files looks at, are left behind.
        File::options().write(true).open(path)?.sync_data()
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Elsewhere a directory cannot be opened as a file.
        if cfg!(unix) {
            File::open(dir)?.sync_all()
        } else {
            Ok(())
        }
    }

    fn move_entry(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn unlink(&self, path: &Path) -> io::Result<()> {
        match std::fs::remove_file(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }

    fn mkdir(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir(dir)
    }
}

/// One failure a [`FaultDisk`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The machine loses power before the boundary runs: every path the
    /// disk touched reverts to its last-synced image, and every later
    /// write fails.
    PowerLoss,
    /// The write fails with ENOSPC.
    NoSpace,
    /// The write fails with EIO.
    Eio,
    /// Half the bytes land, then the write fails with EIO (at a boundary
    /// that writes no bytes, just the EIO).
    ShortWrite,
}

impl Fault {
    /// Every fault, in a fixed order.
    pub const ALL: [Fault; 4] = [
        Fault::PowerLoss,
        Fault::NoSpace,
        Fault::Eio,
        Fault::ShortWrite,
    ];

    fn error(self) -> io::Error {
        match self {
            Fault::PowerLoss => io::Error::other("injected power loss: the disk is gone"),
            Fault::NoSpace => io::Error::from_raw_os_error(28),
            Fault::Eio | Fault::ShortWrite => io::Error::from_raw_os_error(5),
        }
    }
}

/// When a [`FaultDisk`] injects its fault.
#[derive(Debug, Clone)]
enum Trigger {
    /// At this 0-based boundary.
    At(usize, Fault),
    /// At the first boundary after this path's entry becomes durable.
    After(PathBuf, Fault),
}

/// A [`RealDisk`] that counts its write boundaries and fails one of
/// them; see the module docs for the power-loss model.
#[derive(Debug, Default)]
pub struct FaultDisk {
    state: Mutex<Injection>,
}

#[derive(Debug, Default)]
struct Injection {
    boundaries: usize,
    /// `sync` and `sync_dir` boundaries among them.
    syncs: usize,
    trigger: Option<Trigger>,
    fired: bool,
    powered_off: bool,
    image: Image,
}

impl FaultDisk {
    /// A disk that only counts boundaries.
    #[must_use]
    pub fn counting() -> Self {
        FaultDisk::default()
    }

    /// A disk that injects `fault` at 0-based boundary `boundary`.
    #[must_use]
    pub fn failing_at(boundary: usize, fault: Fault) -> Self {
        FaultDisk::with(Trigger::At(boundary, fault))
    }

    /// A disk that injects `fault` at the first boundary after `path`'s
    /// directory entry becomes durable (after a replace of it lands).
    #[must_use]
    pub fn failing_after(path: impl Into<PathBuf>, fault: Fault) -> Self {
        FaultDisk::with(Trigger::After(path.into(), fault))
    }

    fn with(trigger: Trigger) -> Self {
        FaultDisk {
            state: Mutex::new(Injection {
                trigger: Some(trigger),
                ..Injection::default()
            }),
        }
    }

    /// Write boundaries entered so far, the faulted one included.
    #[must_use]
    pub fn boundaries(&self) -> usize {
        self.lock().boundaries
    }

    /// Sync boundaries (`fdatasync` of a file or `fsync` of a directory)
    /// entered so far, the faulted one included.
    #[must_use]
    pub fn syncs(&self) -> usize {
        self.lock().syncs
    }

    /// Whether the planned fault has been injected.
    #[must_use]
    pub fn fired(&self) -> bool {
        self.lock().fired
    }

    /// Lose power now: revert every touched path to its last-synced
    /// image; later writes fail.
    ///
    /// # Errors
    ///
    /// An I/O error while rewriting the image.
    pub fn power_loss(&self) -> io::Result<()> {
        let mut state = self.lock();
        state.powered_off = true;
        state.image.restore()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Injection> {
        // Every update leaves the image consistent, so a panic elsewhere
        // while the lock was held leaves nothing half-written.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run one boundary: count it, inject the planned fault, run `op` on
    /// the real disk over `bytes` (a prefix of them for a short write),
    /// then `record` its effect in the image.
    fn boundary(
        &self,
        paths: &[&Path],
        bytes: &[u8],
        op: impl FnOnce(&[u8]) -> io::Result<()>,
        record: impl FnOnce(&mut Image) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut state = self.lock();
        if state.powered_off {
            return Err(Fault::PowerLoss.error());
        }
        let at = state.boundaries;
        state.boundaries += 1;
        let fault = match state.trigger {
            Some(Trigger::At(k, fault)) if k == at => {
                state.trigger = None;
                state.fired = true;
                Some(fault)
            }
            _ => None,
        };
        let landed = match fault {
            None => bytes,
            Some(Fault::PowerLoss) => {
                state.powered_off = true;
                state.image.restore()?;
                return Err(Fault::PowerLoss.error());
            }
            Some(Fault::ShortWrite) if !bytes.is_empty() => {
                bytes.get(..bytes.len() / 2).unwrap_or(bytes)
            }
            Some(other) => return Err(other.error()),
        };
        for path in paths {
            state.image.touch(path);
        }
        op(landed)?;
        record(&mut state.image)?;
        if let Some(Trigger::After(path, fault)) = &state.trigger {
            if state.image.durable.contains_key(path) {
                state.trigger = Some(Trigger::At(state.boundaries, *fault));
            }
        }
        fault.map_or(Ok(()), |f| Err(f.error()))
    }
}

impl Disk for FaultDisk {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.boundary(
            &[path],
            bytes,
            |b| RealDisk.write(path, b),
            |image| {
                image.create(path);
                Ok(())
            },
        )
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.boundary(
            &[path],
            bytes,
            |b| RealDisk.append(path, b),
            |image| {
                image.create(path);
                Ok(())
            },
        )
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        self.boundary(
            &[path],
            &[],
            |_| RealDisk.set_len(path, len),
            |image| {
                image.create(path);
                Ok(())
            },
        )
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.lock().syncs += 1;
        self.boundary(
            &[path],
            &[],
            |_| RealDisk.sync(path),
            |image| image.sync(path),
        )
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.lock().syncs += 1;
        self.boundary(
            &[],
            &[],
            |_| RealDisk.sync_dir(dir),
            |image| {
                image.sync_dir(dir);
                Ok(())
            },
        )
    }

    fn move_entry(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.boundary(
            &[from, to],
            &[],
            |_| RealDisk.move_entry(from, to),
            |image| {
                if let Some(id) = image.names.remove(from) {
                    image.names.insert(to.to_path_buf(), id);
                }
                Ok(())
            },
        )
    }

    fn unlink(&self, path: &Path) -> io::Result<()> {
        self.boundary(
            &[path],
            &[],
            |_| RealDisk.unlink(path),
            |image| {
                image.names.remove(path);
                Ok(())
            },
        )
    }

    fn mkdir(&self, dir: &Path) -> io::Result<()> {
        self.boundary(
            &[],
            &[],
            |_| RealDisk.mkdir(dir),
            |image| {
                image.new_dirs.push(dir.to_path_buf());
                Ok(())
            },
        )
    }
}

/// What a [`FaultDisk`] knows survives a power loss. Files are numbered
/// like inodes, so a rename moves a file's synced bytes with it.
#[derive(Debug, Default)]
struct Image {
    /// Every file path the disk has touched; a power loss rewrites these.
    seen: BTreeSet<PathBuf>,
    /// Current name → file.
    names: BTreeMap<PathBuf, usize>,
    /// Name → file as of each directory's last sync.
    durable: BTreeMap<PathBuf, usize>,
    /// Each file's bytes as of its last sync.
    synced: Vec<Vec<u8>>,
    /// Directories created but not yet synced into their parent.
    new_dirs: Vec<PathBuf>,
}

impl Image {
    /// Start tracking `path`; a file that predates the disk counts as
    /// durable.
    fn touch(&mut self, path: &Path) {
        if !self.seen.insert(path.to_path_buf()) {
            return;
        }
        if let Ok(bytes) = std::fs::read(path) {
            self.synced.push(bytes);
            let id = self.synced.len() - 1;
            self.names.insert(path.to_path_buf(), id);
            self.durable.insert(path.to_path_buf(), id);
        }
    }

    /// `path` now exists; a new file has no synced bytes yet.
    fn create(&mut self, path: &Path) {
        if !self.names.contains_key(path) {
            self.synced.push(Vec::new());
            self.names.insert(path.to_path_buf(), self.synced.len() - 1);
        }
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        if let Some(&id) = self.names.get(path) {
            let bytes = std::fs::read(path)?;
            if let Some(synced) = self.synced.get_mut(id) {
                *synced = bytes;
            }
        }
        Ok(())
    }

    fn sync_dir(&mut self, dir: &Path) {
        for path in self.seen.iter().filter(|p| parent(p) == dir) {
            match self.names.get(path) {
                Some(&id) => self.durable.insert(path.clone(), id),
                None => self.durable.remove(path),
            };
        }
        self.new_dirs.retain(|d| parent(d) != dir);
    }

    /// Rewrite the filesystem to the last-synced image.
    fn restore(&self) -> io::Result<()> {
        let lost = |p: &Path| self.new_dirs.iter().any(|d| p.starts_with(d));
        for path in self.seen.iter().filter(|p| !lost(p)) {
            match self.durable.get(path).and_then(|&id| self.synced.get(id)) {
                Some(bytes) => std::fs::write(path, bytes)?,
                None => RealDisk.unlink(path)?,
            }
        }
        for dir in self.new_dirs.iter().rev() {
            match std::fs::remove_dir_all(dir) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hdd-json-disk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn replace_survives_a_stale_temp_file() {
        let dir = tempdir("stale");
        let path = dir.join("doc.txt");
        std::fs::write(tmp_sibling(&path), b"torn garbage").unwrap();
        RealDisk.replace(&path, b"v1").unwrap();
        assert!(
            !tmp_sibling(&path).exists(),
            "replace consumes its temp file"
        );
        assert_eq!(std::fs::read(&path).unwrap(), b"v1");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_replace_is_two_syncs_and_an_append_none() {
        let dir = tempdir("syncs");
        let disk = FaultDisk::counting();
        disk.replace(&dir.join("a"), b"x").unwrap();
        assert_eq!((disk.boundaries(), disk.syncs()), (4, 2));
        disk.append(&dir.join("a"), b"y").unwrap();
        disk.sync(&dir.join("a")).unwrap();
        assert_eq!((disk.boundaries(), disk.syncs()), (6, 3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_bare_file_name_syncs_the_current_directory() {
        assert_eq!(parent(Path::new("alarms.csv")), Path::new("."));
        assert_eq!(parent(Path::new("d/alarms.csv")), Path::new("d"));
    }

    #[test]
    fn a_directory_sync_error_is_returned() {
        let dir = tempdir("dirsync");
        let missing = dir.join("gone");
        assert!(RealDisk.sync_dir(&missing).is_err());
        assert!(RealDisk.replace(&missing.join("f"), b"x").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn power_loss_keeps_exactly_what_was_synced() {
        let dir = tempdir("power");
        let old = dir.join("old.txt");
        std::fs::write(&old, b"before").unwrap();
        let disk = FaultDisk::counting();
        disk.create_dir(&dir.join("sub")).unwrap();
        disk.mkdir(&dir.join("sub").join("lost")).unwrap();
        disk.replace(&dir.join("replaced.txt"), b"durable").unwrap();
        disk.append(&dir.join("appended.txt"), b"never synced")
            .unwrap();
        disk.append(&old, b" and after").unwrap();
        disk.write(&dir.join("unlinked.txt"), b"x").unwrap();
        disk.sync(&dir.join("unlinked.txt")).unwrap();
        disk.move_entry(&dir.join("unlinked.txt"), &dir.join("moved.txt"))
            .unwrap();
        let boundaries = disk.boundaries();
        disk.power_loss().unwrap();

        assert_eq!(std::fs::read(dir.join("replaced.txt")).unwrap(), b"durable");
        assert!(!dir.join("appended.txt").exists());
        assert_eq!(std::fs::read(&old).unwrap(), b"before");
        assert!(!dir.join("unlinked.txt").exists() && !dir.join("moved.txt").exists());
        assert!(dir.join("sub").is_dir() && !dir.join("sub").join("lost").exists());
        assert!(
            disk.append(&old, b"x").is_err(),
            "writes fail after the loss"
        );
        assert_eq!(disk.boundaries(), boundaries);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_renamed_file_keeps_its_synced_bytes() {
        let dir = tempdir("rename");
        let (a, b) = (dir.join("a"), dir.join("b"));
        let disk = FaultDisk::counting();
        disk.replace(&a, b"synced").unwrap();
        disk.rename(&a, &b).unwrap();
        disk.append(&b, b" tail").unwrap();
        disk.power_loss().unwrap();
        assert!(!a.exists());
        assert_eq!(std::fs::read(&b).unwrap(), b"synced");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn each_fault_fires_once_at_its_boundary() {
        let dir = tempdir("faults");
        let path = dir.join("f");
        for fault in [Fault::NoSpace, Fault::Eio, Fault::ShortWrite] {
            let disk = FaultDisk::failing_at(1, fault);
            disk.append(&path, b"ok").unwrap();
            assert!(!disk.fired());
            let err = disk.append(&path, b"abcd").unwrap_err();
            assert!(disk.fired());
            let code = if fault == Fault::NoSpace { 28 } else { 5 };
            assert_eq!(err.raw_os_error(), Some(code), "{fault:?}");
            disk.append(&path, b"!").unwrap();
            let expected: &[u8] = if fault == Fault::ShortWrite {
                b"okab!"
            } else {
                b"ok!"
            };
            assert_eq!(std::fs::read(&path).unwrap(), expected, "{fault:?}");
            std::fs::remove_file(&path).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failing_after_arms_once_the_entry_is_durable() {
        let dir = tempdir("after");
        let marker = dir.join("marker");
        let disk = FaultDisk::failing_after(&marker, Fault::Eio);
        disk.replace(&marker, b"m").unwrap();
        assert!(!disk.fired());
        assert!(disk.remove(&marker).is_err());
        assert!(disk.fired() && marker.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
