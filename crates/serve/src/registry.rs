//! Durable, versioned persistence of [`ServeModel`] bundles — the model
//! registry behind the daemon's validated hot swap and rollback.
//!
//! A registry owns one directory:
//!
//! ```text
//! REGISTRY            checksummed JSON journal: entries + current version
//! v000001.model.json  checksummed bundle files (ServeModel::save format)
//! v000002.model.json
//! quarantine/         corrupt files parked for post-mortem
//! ```
//!
//! Every write is atomic (temp + fsync + rename, the same protocol as the
//! store's manifest) and every entry binds its file by size and whole-file
//! CRC32, so the registry can always tell "the bundle I committed" from
//! "whatever is on disk now". Recovery is pessimistic and forward-moving:
//!
//! * a corrupt or missing `REGISTRY` journal is rebuilt by scanning the
//!   bundle files themselves (each self-verifies via its CRC footer);
//! * [`ModelRegistry::latest_good`] walks versions newest-first, loading
//!   and verifying until one passes — corrupt bundles are quarantined,
//!   never served and never silently deleted;
//! * [`ModelRegistry::rollback`] steps `current` back to the previous
//!   good version the same way.
//!
//! Retention is bounded: committing past `retain` versions deletes the
//! oldest non-current bundles, so the directory cannot grow without
//! limit under continuous redeployment.

use std::path::{Path, PathBuf};

use nr_store::crc32;
use nr_store::manifest::{atomic_replace, read_checksummed_file, write_checksummed_string};
use serde::{Deserialize, Serialize};

use crate::{ServeError, ServeModel};

/// File name of the registry journal.
pub const REGISTRY_FILE: &str = "REGISTRY";

/// Subdirectory where corrupt bundles are parked.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Default bounded retention (committed versions kept on disk).
pub const DEFAULT_RETAIN: usize = 8;

/// One committed model version, bound to its bundle file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegistryEntry {
    /// Monotonically increasing version number.
    pub version: u64,
    /// Bundle file name relative to the registry directory.
    pub file: String,
    /// Exact file size in bytes.
    pub bytes: u64,
    /// CRC32 of the whole file.
    pub crc32: u32,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct RegistryManifest {
    format: u32,
    /// The version the daemon should serve (moves backwards on rollback).
    current: Option<u64>,
    /// Committed versions, ascending.
    entries: Vec<RegistryEntry>,
}

/// The bundle file name of `version`.
pub fn bundle_file_name(version: u64) -> String {
    format!("v{version:06}.model.json")
}

/// A durable, versioned store of model bundles (see module docs).
#[derive(Debug)]
pub struct ModelRegistry {
    dir: PathBuf,
    retain: usize,
    manifest: RegistryManifest,
    quarantined: u64,
}

impl ModelRegistry {
    /// Opens (or creates) the registry at `dir`, keeping at most `retain`
    /// versions on disk. A corrupt journal is quarantined and rebuilt
    /// from the bundle files that still verify — opening never fails on
    /// corruption, only on real I/O errors.
    pub fn open(dir: impl Into<PathBuf>, retain: usize) -> Result<ModelRegistry, ServeError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut registry = ModelRegistry {
            dir,
            retain: retain.max(1),
            manifest: RegistryManifest {
                format: 1,
                current: None,
                entries: Vec::new(),
            },
            quarantined: 0,
        };
        match registry.load_manifest() {
            Ok(Some(manifest)) => registry.manifest = manifest,
            Ok(None) => {
                // No journal. If bundles exist (a wiped journal), rebuild;
                // a genuinely fresh directory rebuilds to the same empty
                // state without touching disk.
                registry.rebuild_from_files()?;
            }
            Err(ServeError::Corrupt { path, .. }) => {
                registry.quarantine(&path)?;
                registry.rebuild_from_files()?;
            }
            Err(e) => return Err(e),
        }
        Ok(registry)
    }

    /// The registry directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The version `current` points at (what a booting daemon should
    /// try first).
    pub fn current_version(&self) -> Option<u64> {
        self.manifest.current
    }

    /// Number of versions in the journal.
    pub fn history_depth(&self) -> usize {
        self.manifest.entries.len()
    }

    /// Files this registry has quarantined since it was opened.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// The committed versions, ascending.
    pub fn versions(&self) -> impl Iterator<Item = u64> + '_ {
        self.manifest.entries.iter().map(|e| e.version)
    }

    /// Commits `model` as the next version: bundle written atomically
    /// (checksummed, fsynced), journal updated, retention enforced.
    /// Returns the new version number. On success the bundle is durable
    /// **before** this returns — the caller can safely swap traffic to
    /// the model knowing a crash reboots into it.
    pub fn commit(&mut self, model: &ServeModel) -> Result<u64, ServeError> {
        let version = self.manifest.entries.last().map_or(1, |e| e.version + 1);
        let file = bundle_file_name(version);
        let body = write_checksummed_string(&model.to_json()?);
        let path = self.dir.join(&file);
        atomic_replace(&path, body.as_bytes(), true)?;
        self.manifest.entries.push(RegistryEntry {
            version,
            file,
            bytes: body.len() as u64,
            crc32: crc32(body.as_bytes()),
        });
        self.manifest.current = Some(version);
        self.enforce_retention();
        self.commit_manifest()?;
        Ok(version)
    }

    /// Loads the newest version that verifies, starting from `current`
    /// and walking backwards; corrupt bundles are quarantined and the
    /// journal updated. `Ok(None)` when the registry holds no loadable
    /// model at all. This is the daemon's boot path.
    pub fn latest_good(&mut self) -> Result<Option<(u64, ServeModel)>, ServeError> {
        let start = self
            .manifest
            .current
            .or_else(|| self.manifest.entries.last().map(|e| e.version));
        let Some(start) = start else {
            return Ok(None);
        };
        let mut dirty = false;
        loop {
            let candidate = self
                .manifest
                .entries
                .iter()
                .rev()
                .find(|e| e.version <= start)
                .cloned();
            let Some(entry) = candidate else {
                self.manifest.current = None;
                self.commit_manifest()?;
                return Ok(None);
            };
            match self.load_entry(&entry) {
                Ok(model) => {
                    if self.manifest.current != Some(entry.version) || dirty {
                        self.manifest.current = Some(entry.version);
                        self.commit_manifest()?;
                    }
                    return Ok(Some((entry.version, model)));
                }
                Err(ServeError::Io(e)) => return Err(ServeError::Io(e)),
                Err(_) => {
                    // Corrupt (or unparseable) bundle: park it, drop the
                    // journal entry, keep walking back.
                    self.quarantine(&self.dir.join(&entry.file))?;
                    self.manifest.entries.retain(|e| e.version != entry.version);
                    dirty = true;
                }
            }
        }
    }

    /// Steps `current` back to the previous good version and loads it.
    /// Corrupt intermediates are quarantined and skipped. Errors with
    /// `Io(NotFound)` when there is no earlier version to roll back to.
    pub fn rollback(&mut self) -> Result<(u64, ServeModel), ServeError> {
        let current = self.manifest.current.ok_or_else(|| {
            ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "registry has no current version",
            ))
        })?;
        loop {
            let previous = self
                .manifest
                .entries
                .iter()
                .rev()
                .find(|e| e.version < current)
                .cloned();
            let Some(entry) = previous else {
                return Err(ServeError::Io(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    "no earlier good version to roll back to",
                )));
            };
            match self.load_entry(&entry) {
                Ok(model) => {
                    self.manifest.current = Some(entry.version);
                    self.commit_manifest()?;
                    return Ok((entry.version, model));
                }
                Err(ServeError::Io(e)) => return Err(ServeError::Io(e)),
                Err(_) => {
                    self.quarantine(&self.dir.join(&entry.file))?;
                    self.manifest.entries.retain(|e| e.version != entry.version);
                }
            }
        }
    }

    /// Loads and fully verifies one journal entry: size and whole-file
    /// CRC must match the journal, then the bundle itself must parse with
    /// a valid footer.
    fn load_entry(&self, entry: &RegistryEntry) -> Result<ServeModel, ServeError> {
        let path = self.dir.join(&entry.file);
        let raw = std::fs::read(&path).map_err(|e| ServeError::Corrupt {
            path: path.clone(),
            section: format!("journaled bundle unreadable: {e}"),
        })?;
        if raw.len() as u64 != entry.bytes {
            return Err(ServeError::Corrupt {
                path,
                section: format!(
                    "bundle is {} bytes, journal says {}",
                    raw.len(),
                    entry.bytes
                ),
            });
        }
        if crc32(&raw) != entry.crc32 {
            return Err(ServeError::Corrupt {
                path,
                section: "bundle checksum does not match the journal".into(),
            });
        }
        ServeModel::load(&path)
    }

    /// Drops the oldest non-current entries (and their files) past the
    /// retention bound.
    fn enforce_retention(&mut self) {
        while self.manifest.entries.len() > self.retain {
            let Some(pos) = self
                .manifest
                .entries
                .iter()
                .position(|e| Some(e.version) != self.manifest.current)
            else {
                break;
            };
            let entry = self.manifest.entries.remove(pos);
            let _ = std::fs::remove_file(self.dir.join(&entry.file));
        }
    }

    /// Moves a file into `quarantine/` (counting it); missing files count
    /// too — the journal entry referencing them is what gets dropped.
    fn quarantine(&mut self, path: &Path) -> Result<(), ServeError> {
        if path.is_file() {
            let qdir = self.dir.join(QUARANTINE_DIR);
            std::fs::create_dir_all(&qdir)?;
            let name = path.file_name().unwrap_or_default();
            std::fs::rename(path, qdir.join(name))?;
        }
        self.quarantined += 1;
        Ok(())
    }

    /// Reads and verifies the journal. `Ok(None)` when absent.
    fn load_manifest(&self) -> Result<Option<RegistryManifest>, ServeError> {
        let path = self.dir.join(REGISTRY_FILE);
        let Some(file) = read_checksummed_file(&path)? else {
            return Ok(None);
        };
        let corrupt = |section: String| ServeError::Corrupt {
            path: path.clone(),
            section,
        };
        let mut manifest: RegistryManifest = serde_json::from_str(file.payload())
            .map_err(|e| corrupt(format!("registry journal json: {e}")))?;
        if manifest.format != 1 {
            return Err(corrupt(format!(
                "unsupported registry format {}",
                manifest.format
            )));
        }
        manifest.entries.sort_by_key(|e| e.version);
        // A current pointing at a missing entry is a journal/files split:
        // clamp to the newest entry and let latest_good() verify it.
        if let Some(cur) = manifest.current {
            if !manifest.entries.iter().any(|e| e.version == cur) {
                manifest.current = manifest.entries.last().map(|e| e.version);
            }
        }
        Ok(Some(manifest))
    }

    /// Rebuilds the journal by scanning bundle files; each must
    /// self-verify (CRC footer) to be admitted, failures are quarantined.
    fn rebuild_from_files(&mut self) -> Result<(), ServeError> {
        let mut entries = Vec::new();
        let mut bad = Vec::new();
        for dirent in std::fs::read_dir(&self.dir)? {
            let dirent = dirent?;
            let name = dirent.file_name().to_string_lossy().into_owned();
            let Some(version) = parse_bundle_name(&name) else {
                continue;
            };
            let path = dirent.path();
            // Rebuild admits only bundles whose footer verifies.
            let verifies = read_checksummed_file(&path).ok().flatten().map(|file| {
                let text = file.file_text();
                (text.len() as u64, crc32(text.as_bytes()))
            });
            match verifies {
                Some((bytes, crc)) => entries.push(RegistryEntry {
                    version,
                    file: name,
                    bytes,
                    crc32: crc,
                }),
                None => bad.push(path),
            }
        }
        for path in bad {
            self.quarantine(&path)?;
        }
        entries.sort_by_key(|e| e.version);
        self.manifest = RegistryManifest {
            format: 1,
            current: entries.last().map(|e| e.version),
            entries,
        };
        if self.manifest.current.is_some() || self.dir.join(REGISTRY_FILE).exists() {
            self.commit_manifest()?;
        }
        Ok(())
    }

    /// Durably publishes the journal (checksummed, atomic, fsynced).
    fn commit_manifest(&self) -> Result<(), ServeError> {
        let json =
            serde_json::to_string(&self.manifest).map_err(|e| ServeError::Json(e.to_string()))?;
        let body = write_checksummed_string(&json);
        atomic_replace(&self.dir.join(REGISTRY_FILE), body.as_bytes(), true)?;
        Ok(())
    }
}

/// Parses `v000042.model.json` → `Some(42)`.
fn parse_bundle_name(name: &str) -> Option<u64> {
    let stem = name.strip_prefix('v')?.strip_suffix(".model.json")?;
    if stem.len() != 6 || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeMode;
    use nr_encode::Encoder;
    use nr_nn::Mlp;
    use nr_rules::RuleSet;

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("nr-registry-{}-{tag}-{n}", std::process::id()))
    }

    fn model(seed: u64) -> ServeModel {
        let encoder = Encoder::agrawal();
        let net = Mlp::random(encoder.n_inputs(), 3, 2, seed);
        let rs = RuleSet::new(Vec::new(), 0, vec!["A".into(), "B".into()]);
        ServeModel::new(&rs, encoder, net, ServeMode::Network)
    }

    #[test]
    fn commit_boot_and_rollback_roundtrip() {
        let dir = temp_dir("roundtrip");
        let mut reg = ModelRegistry::open(&dir, 4).unwrap();
        assert_eq!(reg.current_version(), None);
        assert!(reg.latest_good().unwrap().is_none());

        let v1 = reg.commit(&model(1)).unwrap();
        let v2 = reg.commit(&model(2)).unwrap();
        assert_eq!((v1, v2), (1, 2));
        assert_eq!(reg.history_depth(), 2);

        // A fresh open (a rebooted daemon) sees the same state.
        let mut reopened = ModelRegistry::open(&dir, 4).unwrap();
        assert_eq!(reopened.current_version(), Some(2));
        let (v, booted) = reopened.latest_good().unwrap().unwrap();
        assert_eq!(v, 2);
        assert_eq!(booted.to_json().unwrap(), model(2).to_json().unwrap());

        // Rollback steps to v1 and persists the pointer.
        let (rv, rolled) = reopened.rollback().unwrap();
        assert_eq!(rv, 1);
        assert_eq!(rolled.to_json().unwrap(), model(1).to_json().unwrap());
        assert_eq!(
            ModelRegistry::open(&dir, 4).unwrap().current_version(),
            Some(1)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_latest_boots_previous_good_and_quarantines() {
        let dir = temp_dir("corrupt-latest");
        let mut reg = ModelRegistry::open(&dir, 4).unwrap();
        reg.commit(&model(1)).unwrap();
        reg.commit(&model(2)).unwrap();
        // Flip a byte in the newest bundle.
        nr_store::fault::flip_bit(&dir.join(bundle_file_name(2)), 40, 1).unwrap();

        let mut booted = ModelRegistry::open(&dir, 4).unwrap();
        let (v, m) = booted.latest_good().unwrap().unwrap();
        assert_eq!(v, 1, "must fall back past the corrupt version");
        assert_eq!(m.to_json().unwrap(), model(1).to_json().unwrap());
        assert_eq!(booted.quarantined(), 1);
        assert!(dir.join(QUARANTINE_DIR).join(bundle_file_name(2)).is_file());
        // The journal no longer lists v2.
        assert_eq!(booted.versions().collect::<Vec<_>>(), vec![1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_journal_rebuilds_from_bundles() {
        let dir = temp_dir("rebuild");
        let mut reg = ModelRegistry::open(&dir, 4).unwrap();
        reg.commit(&model(1)).unwrap();
        reg.commit(&model(2)).unwrap();
        // Trash the journal entirely.
        std::fs::write(dir.join(REGISTRY_FILE), b"garbage").unwrap();
        let mut reopened = ModelRegistry::open(&dir, 4).unwrap();
        assert_eq!(reopened.history_depth(), 2);
        let (v, _) = reopened.latest_good().unwrap().unwrap();
        assert_eq!(v, 2);
        assert_eq!(reopened.quarantined(), 1, "old journal parked");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_is_bounded_and_never_deletes_current() {
        let dir = temp_dir("retain");
        let mut reg = ModelRegistry::open(&dir, 3).unwrap();
        for s in 1..=6 {
            reg.commit(&model(s)).unwrap();
        }
        assert_eq!(reg.history_depth(), 3);
        assert_eq!(reg.versions().collect::<Vec<_>>(), vec![4, 5, 6]);
        assert!(!dir.join(bundle_file_name(1)).exists());
        assert!(dir.join(bundle_file_name(6)).is_file());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_bundle_corruption_is_detected_never_panics() {
        let dir = temp_dir("flip-all");
        let mut reg = ModelRegistry::open(&dir, 2).unwrap();
        reg.commit(&model(7)).unwrap();
        let path = dir.join(bundle_file_name(1));
        let clean = std::fs::read(&path).unwrap();
        for byte in (0..clean.len()).step_by(clean.len() / 64 + 1) {
            let mut bad = clean.clone();
            bad[byte] ^= 1 << (byte % 8);
            std::fs::write(&path, &bad).unwrap();
            let mut r = ModelRegistry::open(&dir, 2).unwrap();
            // Either the journal check or the footer catches it; a clean
            // Err/None, never a bogus model.
            match r.latest_good() {
                Ok(None) => {}
                Ok(Some((v, _))) => panic!("flip at {byte}: served corrupt bundle as v{v}"),
                Err(_) => {}
            }
            // Restore for the next iteration (quarantine moved the file).
            std::fs::write(&path, &clean).unwrap();
            let _ = std::fs::remove_dir_all(dir.join(QUARANTINE_DIR));
            // Restore the journal too (the corrupt run rewrote it).
            let mut fixed = ModelRegistry::open(&dir, 2).unwrap();
            fixed.rebuild_from_files().unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
