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
//!   good version the same way, moving the pointer only once the
//!   caller has admitted that version.
//!
//! Version numbers never repeat: a commit takes a number above every
//! bundle the directory still shows, live or quarantined, and a file
//! parked under a name `quarantine/` already holds gets a numbered
//! suffix instead of replacing the earlier one.
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
    /// Returns the new version number, one above every bundle number the
    /// directory still shows (see the module docs). On success the bundle
    /// is durable **before** this returns — the caller can safely swap
    /// traffic to the model knowing a crash reboots into it.
    pub fn commit(&mut self, model: &ServeModel) -> Result<u64, ServeError> {
        let version = self.highest_version_on_disk()? + 1;
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
        let found = self.walk_back(start.saturating_add(1))?;
        let version = found.as_ref().map(|(v, _)| *v);
        if self.manifest.current != version {
            self.manifest.current = version;
            self.commit_manifest()?;
        }
        Ok(found)
    }

    /// Steps `current` back to the previous good version, if `admit`
    /// accepts it, and loads it. Corrupt intermediates are quarantined
    /// and skipped. The pointer moves, in memory and on disk, only after
    /// `admit` passes; its error is returned with `current` unchanged.
    /// Errors with `Io(NotFound)` when there is no earlier version to
    /// roll back to.
    pub fn rollback(
        &mut self,
        admit: impl FnOnce(&ServeModel) -> Result<(), ServeError>,
    ) -> Result<(u64, ServeModel), ServeError> {
        let not_found =
            |why: &str| ServeError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, why));
        let current = self
            .manifest
            .current
            .ok_or_else(|| not_found("registry has no current version"))?;
        let (version, model) = self
            .walk_back(current)?
            .ok_or_else(|| not_found("no earlier good version to roll back to"))?;
        admit(&model)?;
        self.manifest.current = Some(version);
        self.commit_manifest()?;
        Ok((version, model))
    }

    /// Loads the newest journal entry below version `bound` that
    /// verifies. Every entry on the way that does not is quarantined and
    /// dropped from the journal, which is then committed; `current` is
    /// left for the caller to move. `Ok(None)` when no entry below
    /// `bound` loads.
    fn walk_back(&mut self, bound: u64) -> Result<Option<(u64, ServeModel)>, ServeError> {
        let mut dirty = false;
        let found = loop {
            let candidate = self
                .manifest
                .entries
                .iter()
                .rev()
                .find(|e| e.version < bound)
                .cloned();
            let Some(entry) = candidate else {
                break None;
            };
            match self.load_entry(&entry) {
                Ok(model) => break Some((entry.version, model)),
                Err(ServeError::Io(e)) => return Err(ServeError::Io(e)),
                Err(_) => {
                    // Corrupt, unparseable or unscorable bundle: park it,
                    // drop the journal entry, keep walking back.
                    self.quarantine(&self.dir.join(&entry.file))?;
                    self.manifest.entries.retain(|e| e.version != entry.version);
                    dirty = true;
                }
            }
        };
        if dirty {
            self.commit_manifest()?;
        }
        Ok(found)
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

    /// The highest version in the journal or named by a bundle file in
    /// the directory or in `quarantine/` (0 when there is none).
    fn highest_version_on_disk(&self) -> Result<u64, ServeError> {
        let mut highest = self.manifest.entries.last().map_or(0, |e| e.version);
        for dir in [self.dir.clone(), self.dir.join(QUARANTINE_DIR)] {
            let listing = match std::fs::read_dir(&dir) {
                Ok(listing) => listing,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e.into()),
            };
            for dirent in listing {
                let name = dirent?.file_name();
                if let Some(version) = parse_parked_name(&name.to_string_lossy()) {
                    highest = highest.max(version);
                }
            }
        }
        Ok(highest)
    }

    /// Moves a file into `quarantine/` (counting it); missing files count
    /// too — the journal entry referencing them is what gets dropped. A
    /// name already parked there gets the first free `.1`, `.2`, …
    /// suffix, so earlier evidence is never overwritten.
    fn quarantine(&mut self, path: &Path) -> Result<(), ServeError> {
        if path.is_file() {
            let qdir = self.dir.join(QUARANTINE_DIR);
            std::fs::create_dir_all(&qdir)?;
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            let mut target = qdir.join(name.as_ref());
            let mut suffix = 0u64;
            while target.exists() {
                suffix += 1;
                target = qdir.join(format!("{name}.{suffix}"));
            }
            std::fs::rename(path, target)?;
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

/// Parses a bundle name as [`parse_bundle_name`] does, also with the
/// numbered suffix quarantine adds: `v000042.model.json.1` → `Some(42)`.
fn parse_parked_name(name: &str) -> Option<u64> {
    parse_bundle_name(name).or_else(|| {
        let (base, suffix) = name.rsplit_once('.')?;
        let numbered = !suffix.is_empty() && suffix.bytes().all(|b| b.is_ascii_digit());
        numbered.then(|| parse_bundle_name(base)).flatten()
    })
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
        let (rv, rolled) = reopened.rollback(|_| Ok(())).unwrap();
        assert_eq!(rv, 1);
        assert_eq!(rolled.to_json().unwrap(), model(1).to_json().unwrap());
        assert_eq!(
            ModelRegistry::open(&dir, 4).unwrap().current_version(),
            Some(1)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A rollback the caller refuses leaves `current` where it was, in
    /// memory and on disk.
    #[test]
    fn refused_rollback_keeps_the_pointer() {
        let dir = temp_dir("refused");
        let mut reg = ModelRegistry::open(&dir, 4).unwrap();
        reg.commit(&model(1)).unwrap();
        reg.commit(&model(2)).unwrap();
        let refused = reg.rollback(|m| {
            assert_eq!(m, &model(1), "offers the previous version");
            Err(ServeError::Invalid("refused".into()))
        });
        assert!(
            matches!(refused, Err(ServeError::Invalid(_))),
            "{refused:?}"
        );
        assert_eq!(reg.current_version(), Some(2));
        assert_eq!(
            ModelRegistry::open(&dir, 4).unwrap().current_version(),
            Some(2)
        );
        assert_eq!(reg.rollback(|_| Ok(())).unwrap().0, 1);
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

    /// A quarantined version number is never committed again, also after
    /// the journal is rebuilt from the bundle files.
    #[test]
    fn versions_never_repeat_after_quarantine() {
        let dir = temp_dir("no-repeat");
        let mut reg = ModelRegistry::open(&dir, 4).unwrap();
        for s in 1..=3 {
            reg.commit(&model(s)).unwrap();
        }
        nr_store::fault::flip_bit(&dir.join(bundle_file_name(3)), 40, 1).unwrap();
        let mut booted = ModelRegistry::open(&dir, 4).unwrap();
        assert_eq!(booted.latest_good().unwrap().unwrap().0, 2);
        assert_eq!(booted.commit(&model(4)).unwrap(), 4, "v3 is quarantined");

        // Corrupt v4 and trash the journal: the rebuild parks v4 too, and
        // the next commit still passes both quarantined numbers.
        nr_store::fault::flip_bit(&dir.join(bundle_file_name(4)), 40, 1).unwrap();
        std::fs::write(dir.join(REGISTRY_FILE), b"garbage").unwrap();
        let mut rebuilt = ModelRegistry::open(&dir, 4).unwrap();
        assert_eq!(rebuilt.versions().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(rebuilt.commit(&model(5)).unwrap(), 5);
        let qdir = dir.join(QUARANTINE_DIR);
        assert!(qdir.join(bundle_file_name(3)).is_file());
        assert!(qdir.join(bundle_file_name(4)).is_file());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Two quarantines of the same file name keep both files.
    #[test]
    fn quarantine_never_overwrites_evidence() {
        let dir = temp_dir("two-parks");
        let mut reg = ModelRegistry::open(&dir, 4).unwrap();
        reg.commit(&model(1)).unwrap();
        for garbage in [&b"first garbage"[..], b"second garbage"] {
            std::fs::write(dir.join(REGISTRY_FILE), garbage).unwrap();
            ModelRegistry::open(&dir, 4).unwrap();
        }
        let qdir = dir.join(QUARANTINE_DIR);
        assert_eq!(
            std::fs::read(qdir.join(REGISTRY_FILE)).unwrap(),
            b"first garbage"
        );
        assert_eq!(
            std::fs::read(qdir.join(format!("{REGISTRY_FILE}.1"))).unwrap(),
            b"second garbage"
        );
        assert_eq!(parse_parked_name("v000042.model.json.1"), Some(42));
        assert_eq!(parse_parked_name("v000042.model.json."), None);
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
