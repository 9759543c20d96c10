//! Crash-safe two-phase model promotion with retained history.
//!
//! The live model file is only ever replaced through a fixed protocol
//! whose every step is a durable [`Disk`] operation (each one syncs the
//! directory before the next begins):
//!
//! 1. **Stage**: the checksummed candidate replaces `<model>.candidate`.
//! 2. **Marker**: `<model>.promote` is replaced, carrying the candidate
//!    file's fingerprint — promotion intent is now durable.
//! 3. **Rotate**: `<model>.prev-k` history shifts down and the live
//!    model is renamed to `<model>.prev-1`.
//! 4. **Rename**: the candidate is renamed over the live model path.
//! 5. **Unmark**: the marker is removed — promotion is complete.
//!
//! [`ModelStore::recover`] runs at every startup and maps any crash
//! point back to a consistent state: either the promotion completes
//! (marker present, candidate intact) or it is abandoned and the
//! last-known-good model keeps serving (marker present, candidate
//! corrupt). A crash or power loss at *any* write boundary therefore
//! resumes with exactly the incumbent or exactly the candidate — never a
//! torn model.
//!
//! [`ModelStore::rollback`] reuses the same protocol in reverse: the
//! newest history entry is staged as a candidate and promoted, which
//! demotes the bad model into history (where `hddpred lifecycle` can
//! still inspect it).

use hdd_eval::{ModelError, SavedModel};
use hdd_json::disk::{Disk, RealDisk};
use hdd_json::{container, Value};
use hdd_smart::rng::{fnv1a_extend, FNV1A_OFFSET};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Container magic for the promotion marker file.
const MARKER_MAGIC: &str = "hddpred-promote";

/// FNV-1a 64-bit fingerprint of a byte string.
#[must_use]
pub fn fingerprint(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_OFFSET, bytes)
}

/// What [`ModelStore::recover`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// No promotion was in flight. A staged candidate without a marker
    /// is left untouched: promotion intent never became durable, so the
    /// file is either a live shadow candidate (the manager's checkpoint
    /// knows) or harmless litter the next staging overwrites.
    Clean,
    /// An in-flight promotion was carried to completion; the live model
    /// is the candidate with this fingerprint.
    Completed {
        /// Fingerprint of the now-live model file.
        fingerprint: u64,
    },
    /// The in-flight promotion was abandoned (candidate corrupt or
    /// marker unreadable); the live model is the last known good.
    Aborted {
        /// Whether the live model had to be restored from history.
        restored_from_history: bool,
    },
}

/// Errors from the promotion store.
#[derive(Debug)]
pub enum PromoteError {
    /// A filesystem step failed.
    Io {
        /// Path the operation touched.
        path: PathBuf,
        /// Underlying error.
        source: std::io::Error,
    },
    /// Loading or saving a model failed.
    Model(ModelError),
    /// Promotion was requested without a staged candidate.
    NoCandidate,
    /// Rollback was requested but no history entry exists.
    NoHistory,
}

impl std::fmt::Display for PromoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PromoteError::Io { path, source } => {
                write!(f, "promotion I/O failed at {}: {source}", path.display())
            }
            PromoteError::Model(e) => write!(f, "promotion model error: {e}"),
            PromoteError::NoCandidate => write!(f, "no staged candidate to promote"),
            PromoteError::NoHistory => write!(f, "no model history to roll back to"),
        }
    }
}

impl std::error::Error for PromoteError {}

impl From<ModelError> for PromoteError {
    fn from(e: ModelError) -> Self {
        PromoteError::Model(e)
    }
}

/// The live model file plus its candidate, marker, and history siblings.
#[derive(Debug, Clone)]
pub struct ModelStore {
    model_path: PathBuf,
    history: usize,
    disk: Arc<dyn Disk>,
}

impl ModelStore {
    /// A store managing `model_path` with `history` retained
    /// predecessors (clamped to at least 1 so rollback always has a
    /// target).
    #[must_use]
    pub fn new(model_path: PathBuf, history: usize) -> Self {
        ModelStore {
            model_path,
            history: history.max(1),
            disk: Arc::new(RealDisk),
        }
    }

    /// The same store, writing through `disk` instead of the real disk.
    #[must_use]
    pub fn with_disk(mut self, disk: Arc<dyn Disk>) -> Self {
        self.disk = disk;
        self
    }

    /// The disk every write of this store goes through.
    #[must_use]
    pub fn disk(&self) -> &dyn Disk {
        &*self.disk
    }

    /// The live model path.
    #[must_use]
    pub fn model_path(&self) -> &Path {
        &self.model_path
    }

    /// Retained history depth.
    #[must_use]
    pub fn history(&self) -> usize {
        self.history
    }

    /// The staged-candidate sibling path.
    #[must_use]
    pub fn candidate_path(&self) -> PathBuf {
        sibling(&self.model_path, "candidate")
    }

    /// The promotion-marker sibling path.
    #[must_use]
    pub fn marker_path(&self) -> PathBuf {
        sibling(&self.model_path, "promote")
    }

    /// The `k`-th history sibling path (1 = most recent predecessor).
    #[must_use]
    pub fn prev_path(&self, k: usize) -> PathBuf {
        sibling(&self.model_path, &format!("prev-{k}"))
    }

    /// History entries that exist on disk, most recent first.
    #[must_use]
    pub fn history_on_disk(&self) -> Vec<PathBuf> {
        (1..=self.history)
            .map(|k| self.prev_path(k))
            .filter(|p| p.exists())
            .collect()
    }

    /// Fingerprint of the file at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`PromoteError::Io`] when the file cannot be read.
    pub fn fingerprint_of(&self, path: &Path) -> Result<u64, PromoteError> {
        let bytes = std::fs::read(path).map_err(io_at(path))?;
        Ok(fingerprint(&bytes))
    }

    /// Fingerprint of the live model file.
    ///
    /// # Errors
    ///
    /// Returns [`PromoteError::Io`] when the live model cannot be read.
    pub fn live_fingerprint(&self) -> Result<u64, PromoteError> {
        self.fingerprint_of(&self.model_path)
    }

    /// Write `model` to the candidate path (protocol step 1) and return
    /// the candidate file's fingerprint.
    ///
    /// # Errors
    ///
    /// Returns an error when saving or re-reading the candidate fails.
    pub fn stage_candidate(&self, model: &SavedModel) -> Result<u64, PromoteError> {
        let path = self.candidate_path();
        self.disk
            .replace(&path, model.document().as_bytes())
            .map_err(io_at(&path))?;
        self.fingerprint_of(&path)
    }

    /// Remove a staged candidate (gate refusal). Missing file is fine.
    ///
    /// # Errors
    ///
    /// Returns [`PromoteError::Io`] on any failure other than the file
    /// already being gone.
    pub fn drop_candidate(&self) -> Result<(), PromoteError> {
        let path = self.candidate_path();
        self.disk.remove(&path).map_err(io_at(&path))
    }

    /// Run protocol steps 2–5 over the already-staged candidate and
    /// return the promoted file's fingerprint. A crash part-way is
    /// repaired by [`ModelStore::recover`] at the next start.
    ///
    /// # Errors
    ///
    /// [`PromoteError::NoCandidate`] when nothing is staged, otherwise
    /// I/O errors from the individual steps.
    pub fn promote(&self) -> Result<u64, PromoteError> {
        let candidate = self.candidate_path();
        if !candidate.exists() {
            return Err(PromoteError::NoCandidate);
        }
        let fp = self.fingerprint_of(&candidate)?;
        self.write_marker(fp)?;
        self.rotate_history()?;
        self.disk
            .rename(&candidate, &self.model_path)
            .map_err(io_at(&candidate))?;
        let marker = self.marker_path();
        self.disk.remove(&marker).map_err(io_at(&marker))?;
        Ok(fp)
    }

    /// Map any crash point back to a consistent state (see module docs).
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the repair steps themselves.
    pub fn recover(&self) -> Result<Recovery, PromoteError> {
        let marker = self.marker_path();
        let candidate = self.candidate_path();
        if !marker.exists() {
            // No durable intent: a staged candidate (if any) stays put —
            // it may be a live shadow candidate.
            return Ok(Recovery::Clean);
        }

        let Some(expected) = self.read_marker() else {
            // The marker itself is unreadable: promotion intent cannot be
            // trusted, so abandon it conservatively.
            self.disk.remove(&candidate).map_err(io_at(&candidate))?;
            self.disk.remove(&marker).map_err(io_at(&marker))?;
            return self.ensure_live_model();
        };

        let candidate_ok = candidate.exists()
            && self.fingerprint_of(&candidate)? == expected
            && SavedModel::load(&candidate).is_ok();
        if candidate_ok {
            // Resume: crash landed between steps 2 and 4. If the live
            // model is still in place the rotation may not have finished —
            // re-rotating can double-shift history, which only ages
            // entries early and never loses the newest one.
            if self.model_path.exists() {
                self.rotate_history()?;
            }
            self.disk
                .rename(&candidate, &self.model_path)
                .map_err(io_at(&candidate))?;
            self.disk.remove(&marker).map_err(io_at(&marker))?;
            return Ok(Recovery::Completed {
                fingerprint: expected,
            });
        }

        if !candidate.exists() && self.model_path.exists() {
            // Step 4 completed, crash before step 5: check whether the
            // live model IS the promoted candidate.
            if self.live_fingerprint()? == expected {
                self.disk.remove(&marker).map_err(io_at(&marker))?;
                return Ok(Recovery::Completed {
                    fingerprint: expected,
                });
            }
        }

        // Candidate corrupt (or vanished without completing): abandon.
        self.disk.remove(&candidate).map_err(io_at(&candidate))?;
        self.disk.remove(&marker).map_err(io_at(&marker))?;
        self.ensure_live_model()
    }

    /// Stage the newest history entry and promote it, demoting the
    /// current (bad) live model into history.
    ///
    /// # Errors
    ///
    /// [`PromoteError::NoHistory`] when no predecessor exists, or the
    /// protocol's own errors.
    pub fn rollback(&self) -> Result<u64, PromoteError> {
        let prev = self.prev_path(1);
        if !prev.exists() {
            return Err(PromoteError::NoHistory);
        }
        // Validate before staging: a rollback target must itself load.
        SavedModel::load(&prev)?;
        let bytes = std::fs::read(&prev).map_err(io_at(&prev))?;
        let candidate = self.candidate_path();
        self.disk
            .replace(&candidate, &bytes)
            .map_err(io_at(&candidate))?;
        self.promote()
    }

    fn write_marker(&self, fp: u64) -> Result<(), PromoteError> {
        let payload = hdd_json::to_string(&Value::Obj(vec![(
            "fingerprint".to_string(),
            Value::Str(format!("{fp:016x}")),
        )]));
        let document = container::seal(MARKER_MAGIC, &payload);
        let path = self.marker_path();
        self.disk
            .replace(&path, document.as_bytes())
            .map_err(io_at(&path))
    }

    /// The marker's recorded fingerprint, or `None` when the marker is
    /// unreadable or fails its checksum.
    fn read_marker(&self) -> Option<u64> {
        let text = std::fs::read_to_string(self.marker_path()).ok()?;
        let payload = container::unseal(MARKER_MAGIC, &text).ok()?;
        let value = hdd_json::parse(payload).ok()?;
        let hex = value.str_field("fingerprint").ok()?;
        u64::from_str_radix(hex, 16).ok()
    }

    fn rotate_history(&self) -> Result<(), PromoteError> {
        for k in (1..self.history).rev() {
            let from = self.prev_path(k);
            if from.exists() {
                self.disk
                    .rename(&from, &self.prev_path(k + 1))
                    .map_err(io_at(&from))?;
            }
        }
        if self.model_path.exists() {
            self.disk
                .rename(&self.model_path, &self.prev_path(1))
                .map_err(io_at(&self.model_path))?;
        }
        Ok(())
    }

    /// After an abandoned promotion, make sure a live model exists —
    /// restoring the newest history entry when rotation already demoted
    /// it.
    fn ensure_live_model(&self) -> Result<Recovery, PromoteError> {
        if self.model_path.exists() {
            return Ok(Recovery::Aborted {
                restored_from_history: false,
            });
        }
        let prev = self.prev_path(1);
        if prev.exists() {
            self.disk
                .rename(&prev, &self.model_path)
                .map_err(io_at(&prev))?;
            return Ok(Recovery::Aborted {
                restored_from_history: true,
            });
        }
        Err(PromoteError::Io {
            path: self.model_path.clone(),
            source: std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "no live model and no history to restore",
            ),
        })
    }
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map(std::ffi::OsStr::to_os_string)
        .unwrap_or_default();
    name.push(format!(".{suffix}"));
    path.with_file_name(name)
}

fn io_at(path: &Path) -> impl Fn(std::io::Error) -> PromoteError + '_ {
    move |source| PromoteError::Io {
        path: path.to_path_buf(),
        source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdd_cart::{Class, ClassSample, ClassificationTreeBuilder};
    use hdd_json::disk::{Fault, FaultDisk};

    fn model(shift: f64) -> SavedModel {
        let samples: Vec<ClassSample> = (0..40)
            .map(|i| {
                let x = f64::from(i % 20) + shift;
                let class = if f64::from(i % 20) < 10.0 {
                    Class::Failed
                } else {
                    Class::Good
                };
                ClassSample::new(vec![x, x * 0.5], class)
            })
            .collect();
        SavedModel::from(
            ClassificationTreeBuilder::new()
                .build(&samples)
                .expect("training the fixture tree")
                .compile(),
        )
    }

    fn store(dir: &Path) -> ModelStore {
        let path = dir.join("model.json");
        model(0.0).save(&path).expect("seeding the live model");
        ModelStore::new(path, 3)
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hdd-promote-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creating the temp dir");
        dir
    }

    /// Run `op` on `store` over a disk that loses power at boundary `k`
    /// (or right after `op` when it has fewer boundaries); returns
    /// whether `op` succeeded.
    fn power_loss_at<T>(
        store: &ModelStore,
        k: usize,
        op: impl FnOnce(&ModelStore) -> Result<T, PromoteError>,
    ) -> bool {
        let disk = Arc::new(FaultDisk::failing_at(k, Fault::PowerLoss));
        let done = op(&store.clone().with_disk(disk.clone())).is_ok();
        if !disk.fired() {
            disk.power_loss().expect("losing power after the operation");
        }
        done
    }

    fn flip_a_bit(path: &Path, at: usize) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[at] ^= 0x08;
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn promote_rotates_history_and_installs_candidate() {
        let dir = tempdir("basic");
        let store = store(&dir);
        let incumbent_fp = store.live_fingerprint().unwrap();
        let staged_fp = store.stage_candidate(&model(5.0)).unwrap();
        assert_eq!(store.promote().unwrap(), staged_fp);
        assert_eq!(store.live_fingerprint().unwrap(), staged_fp);
        assert_eq!(
            store.fingerprint_of(&store.prev_path(1)).unwrap(),
            incumbent_fp
        );
        assert!(!store.candidate_path().exists());
        assert!(!store.marker_path().exists());
        assert_eq!(store.recover().unwrap(), Recovery::Clean);
    }

    #[test]
    fn power_loss_at_every_promotion_boundary_resumes_incumbent_or_candidate() {
        let counting = Arc::new(FaultDisk::counting());
        let dir = tempdir("count");
        let probe = store(&dir);
        probe.stage_candidate(&model(7.0)).unwrap();
        probe.clone().with_disk(counting.clone()).promote().unwrap();
        // Marker (write, sync, rename, dir sync), rotate, rename, unmark:
        // two boundaries each.
        assert_eq!(counting.boundaries(), 10);
        for k in 0..=counting.boundaries() {
            let dir = tempdir(&format!("power-{k}"));
            let store = store(&dir);
            let incumbent_fp = store.live_fingerprint().unwrap();
            let staged_fp = store.stage_candidate(&model(7.0)).unwrap();
            power_loss_at(&store, k, ModelStore::promote);
            let recovered = store.recover().unwrap();
            // Intent is durable once the marker's directory sync ran.
            let expected = if k >= 4 { staged_fp } else { incumbent_fp };
            assert_eq!(store.live_fingerprint().unwrap(), expected, "boundary {k}");
            if (4..10).contains(&k) {
                assert_eq!(
                    recovered,
                    Recovery::Completed {
                        fingerprint: staged_fp
                    }
                );
            } else {
                assert_eq!(recovered, Recovery::Clean, "boundary {k}");
            }
            assert!(!store.marker_path().exists());
            assert_eq!(store.candidate_path().exists(), k < 4, "boundary {k}");
        }
    }

    #[test]
    fn markerless_candidate_is_preserved_and_not_promoted() {
        let dir = tempdir("stale");
        let store = store(&dir);
        let incumbent_fp = store.live_fingerprint().unwrap();
        let staged_fp = store.stage_candidate(&model(3.0)).unwrap();
        assert_eq!(store.recover().unwrap(), Recovery::Clean);
        // The incumbent keeps serving; the shadow candidate survives.
        assert_eq!(store.live_fingerprint().unwrap(), incumbent_fp);
        assert_eq!(
            store.fingerprint_of(&store.candidate_path()).unwrap(),
            staged_fp
        );
    }

    #[test]
    fn corrupt_candidate_falls_back_to_last_known_good() {
        let dir = tempdir("corrupt");
        let store = store(&dir);
        let incumbent_fp = store.live_fingerprint().unwrap();
        store.stage_candidate(&model(9.0)).unwrap();
        // Power loss right after the marker lands, then the candidate rots.
        let disk = Arc::new(FaultDisk::failing_after(
            store.marker_path(),
            Fault::PowerLoss,
        ));
        assert!(store.clone().with_disk(disk).promote().is_err());
        let len = std::fs::metadata(store.candidate_path()).unwrap().len();
        flip_a_bit(&store.candidate_path(), len as usize / 2);
        assert_eq!(
            store.recover().unwrap(),
            Recovery::Aborted {
                restored_from_history: false
            }
        );
        assert_eq!(store.live_fingerprint().unwrap(), incumbent_fp);
        assert!(!store.marker_path().exists());
        assert!(!store.candidate_path().exists());
    }

    #[test]
    fn corrupt_candidate_after_rotation_restores_from_history() {
        let dir = tempdir("restore");
        let store = store(&dir);
        let incumbent_fp = store.live_fingerprint().unwrap();
        store.stage_candidate(&model(2.0)).unwrap();
        // Boundary 6 follows the marker (0-3) and the durable demotion of
        // the live model to `.prev-1` (4-5).
        power_loss_at(&store, 6, ModelStore::promote);
        assert!(!store.model_path().exists() && store.prev_path(1).exists());
        flip_a_bit(&store.candidate_path(), 10);
        assert_eq!(
            store.recover().unwrap(),
            Recovery::Aborted {
                restored_from_history: true
            }
        );
        assert_eq!(store.live_fingerprint().unwrap(), incumbent_fp);
    }

    #[test]
    fn rollback_demotes_the_bad_model_into_history() {
        let dir = tempdir("rollback");
        let store = store(&dir);
        let good_fp = store.live_fingerprint().unwrap();
        store.stage_candidate(&model(4.0)).unwrap();
        let bad_fp = store.promote().unwrap();
        let restored = store.rollback().unwrap();
        assert_eq!(restored, good_fp);
        assert_eq!(store.live_fingerprint().unwrap(), good_fp);
        assert_eq!(store.fingerprint_of(&store.prev_path(1)).unwrap(), bad_fp);
    }

    #[test]
    fn a_finished_rollback_survives_power_loss_at_every_boundary() {
        let setup = |tag: &str| {
            let store = store(&tempdir(tag));
            let good_fp = store.live_fingerprint().unwrap();
            store.stage_candidate(&model(4.0)).unwrap();
            let bad_fp = store.promote().unwrap();
            (store, good_fp, bad_fp)
        };
        let (probe, ..) = setup("rollback-count");
        let counting = Arc::new(FaultDisk::counting());
        probe
            .clone()
            .with_disk(counting.clone())
            .rollback()
            .unwrap();
        // The last case loses power right after rollback's final rename
        // and marker removal returned.
        for k in 0..=counting.boundaries() {
            let (store, good_fp, bad_fp) = setup(&format!("rollback-{k}"));
            let finished = power_loss_at(&store, k, ModelStore::rollback);
            store.recover().unwrap();
            let live = store.live_fingerprint().unwrap();
            assert!(live == good_fp || live == bad_fp, "boundary {k}: torn");
            if finished {
                assert_eq!(
                    live, good_fp,
                    "boundary {k}: a finished rollback was undone"
                );
            }
            SavedModel::load(store.model_path()).unwrap();
        }
    }

    #[test]
    fn history_depth_is_bounded() {
        let dir = tempdir("depth");
        let store = store(&dir);
        for round in 0..5 {
            store
                .stage_candidate(&model(10.0 + f64::from(round)))
                .unwrap();
            store.promote().unwrap();
        }
        assert_eq!(store.history_on_disk().len(), 3);
        assert!(!store.prev_path(4).exists());
    }

    #[test]
    fn rollback_without_history_is_refused() {
        let dir = tempdir("nohist");
        let store = store(&dir);
        assert!(matches!(store.rollback(), Err(PromoteError::NoHistory)));
    }
}
