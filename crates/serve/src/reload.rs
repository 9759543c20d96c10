//! Hot model reload with a last-known-good fallback.
//!
//! The daemon watches the model file's metadata (mtime + length) and,
//! when it changes, attempts a full checksummed load — the same
//! [`SavedModel::load_expecting`] path the CLI uses, so a half-written
//! or bit-flipped replacement is rejected with a typed error *before*
//! it can touch the serving path. On rejection the watcher reports the
//! error and the engine keeps scoring with the previous model; a later
//! valid replacement is picked up normally.
//!
//! One watcher serves the whole topology: the file is stat'd and loaded
//! once per change, the accept/last-known-good decision is made once,
//! and every shard receives a clone of the same [`Arc`]'d model — shard
//! counts cannot multiply reload I/O or, worse, let shards disagree
//! about which model generation they score with.

use hdd_eval::{ModelError, SavedModel};
use std::path::{Path, PathBuf};
use std::sync::Arc;
#[expect(
    clippy::disallowed_types,
    reason = "mtime is a change-detection fingerprint only; it never enters engine state, scores, or checkpoints"
)]
use std::time::SystemTime;

/// A model file's change-detection fingerprint.
#[expect(
    clippy::disallowed_types,
    reason = "mtime is a change-detection fingerprint only; it never enters engine state, scores, or checkpoints"
)]
type Stamp = (SystemTime, u64);

fn stamp(path: &Path) -> Option<Stamp> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok()?, meta.len()))
}

/// Watches a model file and yields replacement models as they appear.
#[derive(Debug)]
pub struct ModelWatcher {
    path: PathBuf,
    expected_features: usize,
    last: Option<Stamp>,
}

impl ModelWatcher {
    /// Watch `path`, treating its *current* contents as already loaded;
    /// only subsequent changes are reported. Replacement models must
    /// score `expected_features` features.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>, expected_features: usize) -> Self {
        let path = path.into();
        let last = stamp(&path);
        ModelWatcher {
            path,
            expected_features,
            last,
        }
    }

    /// Check for a change. `None` means unchanged; `Some(Ok(model))` is
    /// a validated replacement ready to hand to every shard;
    /// `Some(Err(_))` is a changed file that failed validation — the
    /// caller keeps its current model (last-known-good) and should log
    /// the error.
    ///
    /// A failed load still advances the fingerprint, so one bad
    /// replacement is reported once, not on every poll.
    pub fn poll(&mut self) -> Option<Result<Arc<SavedModel>, ModelError>> {
        let now = stamp(&self.path)?;
        if Some(now) == self.last {
            return None;
        }
        self.last = Some(now);
        Some(SavedModel::load_expecting(&self.path, self.expected_features).map(Arc::new))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdd_cart::classifier::ClassificationTreeBuilder;
    use hdd_cart::sample::{Class, ClassSample};
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hdd-serve-reload-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn model() -> SavedModel {
        let samples: Vec<ClassSample> = (0..120)
            .map(|i| {
                let x = (i % 17) as f64;
                let class = if x < 8.0 { Class::Failed } else { Class::Good };
                ClassSample::new(vec![x, (i % 5) as f64], class)
            })
            .collect();
        let tree = ClassificationTreeBuilder::new().build(&samples).unwrap();
        SavedModel::from(tree.compile())
    }

    /// Overwrite `path` and make sure its fingerprint actually moves even
    /// on filesystems with coarse mtime granularity.
    fn overwrite(path: &Path, bytes: &[u8], old: Option<Stamp>) {
        std::fs::write(path, bytes).unwrap();
        for _ in 0..50 {
            if stamp(path) != old {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
            std::fs::write(path, bytes).unwrap();
        }
        panic!("could not move the file fingerprint");
    }

    #[test]
    fn unchanged_file_yields_nothing() {
        let path = scratch("unchanged.json");
        model().save(&path).unwrap();
        let mut w = ModelWatcher::new(&path, 2);
        assert!(w.poll().is_none());
        assert!(w.poll().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn valid_replacement_is_loaded() {
        let path = scratch("valid.json");
        let m = model();
        m.save(&path).unwrap();
        let mut w = ModelWatcher::new(&path, 2);
        let before = stamp(&path);

        // Rewrite the same document; the mtime moves the fingerprint.
        overwrite(&path, &std::fs::read(&path).unwrap(), before);
        match w.poll() {
            Some(Ok(loaded)) => assert_eq!(*loaded, m),
            other => panic!("expected a loaded model, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flipped_replacement_is_rejected_once() {
        let path = scratch("flipped.json");
        model().save(&path).unwrap();
        let mut w = ModelWatcher::new(&path, 2);
        let before = stamp(&path);

        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        overwrite(&path, &bytes, before);

        match w.poll() {
            Some(Err(ModelError::Corrupt { .. })) => {}
            other => panic!("expected a corrupt-model rejection, got {other:?}"),
        }
        // Reported once; the unchanged bad file stays quiet after that.
        assert!(w.poll().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_silently_unchanged() {
        let path = scratch("vanishing.json");
        model().save(&path).unwrap();
        let mut w = ModelWatcher::new(&path, 2);
        std::fs::remove_file(&path).unwrap();
        assert!(w.poll().is_none(), "a vanished model file is not a change");
    }
}
