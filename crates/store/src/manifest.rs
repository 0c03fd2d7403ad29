//! The spill-directory journal: what has been durably committed, and the
//! commit protocol that makes it crash-safe.
//!
//! A durable [`crate::SegmentedDataset`] owns one directory. Everything
//! in it is governed by a single `MANIFEST` file — a checksummed JSON
//! journal listing the committed segments in row order, each bound to its
//! file by name, size, and the segment's footer CRC32. The invariant:
//!
//! > **A segment exists iff the manifest says so.** Files present but not
//! > listed are leftovers of a crash and are quarantined; files listed
//! > but missing or failing verification are corruption and loading
//! > reports [`StoreError::Corrupt`].
//!
//! Commits follow write-temp → fsync → atomic rename → fsync(dir), for
//! both segment files and the manifest itself, in that order — so at any
//! kill point the directory reopens to the last committed prefix:
//!
//! 1. crash mid-segment-write → a `*.tmp` file, not in the manifest →
//!    quarantined on open, store resumes from the previous segment;
//! 2. crash between segment rename and manifest commit → an unlisted
//!    `seg-*.nrseg` → quarantined on open (the rows it held are re-parsed
//!    on resume — appends are deterministic, so the bytes are identical);
//! 3. crash mid-manifest-write → the old `MANIFEST` is untouched (rename
//!    is atomic), the `MANIFEST.tmp` is quarantined.
//!
//! Quarantine is two-phase: on open, stray files *move* to `quarantine/`
//! (kept for one generation for post-mortems) and anything already in
//! `quarantine/` from a previous open is reaped.
//!
//! Resume: the manifest records the ingest source (byte length + prefix
//! CRC). [`crate::ingest_csv_file_resumable`] checks the stamp, skips the
//! committed rows, and continues parsing — bit-identical to an
//! uninterrupted run because segment boundaries are pure functions of the
//! row index.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use nr_tabular::Schema;
use serde::{Deserialize, Serialize};

use crate::crc::crc32;
use crate::StoreError;

/// File name of the journal inside a durable spill directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Subdirectory where stray files are parked before reaping.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Bytes of the ingest source hashed into the resume stamp. A prefix
/// (not the whole file) keeps the stamp O(1): it catches "different
/// file" and "rewritten file" — byte-range edits past the prefix are
/// caught later when re-parsed rows disagree with committed segments'
/// row counts, or simply produce a different tail, which is the same
/// contract as resuming any append-only ingest.
pub const SOURCE_STAMP_BYTES: usize = 64 * 1024;

/// Footer marker of every checksummed text file (manifest; the model
/// registry in `nr-serve` reuses the same convention via
/// [`read_checksummed_file`]/[`write_checksummed_string`]).
pub const CRC_FOOTER_PREFIX: &str = "#nrcrc32=";

/// One committed segment, bound to its file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentEntry {
    /// File name relative to the spill directory (`seg-000042.nrseg`).
    pub file: String,
    /// Rows in this segment.
    pub rows: u64,
    /// Exact file size in bytes.
    pub bytes: u64,
    /// The segment's `NRSEG02` footer checksum.
    pub crc32: u32,
}

/// Identity stamp of the ingest source backing a resumable run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceStamp {
    /// Total source length in bytes.
    pub bytes: u64,
    /// CRC32 of the first [`SOURCE_STAMP_BYTES`] (or all, if shorter).
    pub prefix_crc32: u32,
}

impl SourceStamp {
    /// Stamps a source byte slice.
    pub fn of(data: &[u8]) -> SourceStamp {
        let prefix = &data[..data.len().min(SOURCE_STAMP_BYTES)];
        SourceStamp {
            bytes: data.len() as u64,
            prefix_crc32: crc32(prefix),
        }
    }
}

/// The journal of one durable spill directory. See module docs for the
/// commit protocol and invariants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Journal format version (bump on incompatible change).
    pub format: u32,
    /// The store schema (embedded so a directory reopens self-contained).
    pub schema: Schema,
    /// Class label names.
    pub class_names: Vec<String>,
    /// Rows per full segment.
    pub seg_rows: u64,
    /// Total rows across committed segments (denormalized for resume).
    pub rows_committed: u64,
    /// True once the ingest that built this directory finished. Set in
    /// the same commit that seals the (possibly partial) tail segment, so
    /// an incomplete journal only ever lists *full* segments — the
    /// invariant resume's row arithmetic rests on.
    pub complete: bool,
    /// Ingest-source identity, when the store was built by a resumable
    /// file ingest.
    pub source: Option<SourceStamp>,
    /// Committed segments in row order.
    pub segments: Vec<SegmentEntry>,
}

impl Manifest {
    /// A fresh, empty journal.
    pub fn new(schema: Schema, class_names: Vec<String>, seg_rows: usize) -> Manifest {
        Manifest {
            format: 1,
            schema,
            class_names,
            seg_rows: seg_rows as u64,
            rows_committed: 0,
            complete: false,
            source: None,
            segments: Vec::new(),
        }
    }

    /// The journal path inside `dir`.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// Loads and verifies the journal of `dir`. `Ok(None)` when no
    /// manifest exists (a fresh or non-durable directory); `Err` when one
    /// exists but is corrupt or unreadable.
    pub fn load(dir: &Path) -> Result<Option<Manifest>, StoreError> {
        let path = Manifest::path_in(dir);
        let Some(file) = read_checksummed_file(&path)? else {
            return Ok(None);
        };
        let manifest: Manifest =
            serde_json::from_str(file.payload()).map_err(|e| StoreError::Corrupt {
                path: path.clone(),
                section: format!("manifest json: {e}"),
            })?;
        if manifest.format != 1 {
            return Err(StoreError::Corrupt {
                path,
                section: format!("unsupported manifest format {}", manifest.format),
            });
        }
        let listed: u64 = manifest.segments.iter().map(|s| s.rows).sum();
        if listed != manifest.rows_committed {
            return Err(StoreError::Corrupt {
                path,
                section: format!(
                    "rows_committed {} disagrees with listed segments ({listed})",
                    manifest.rows_committed
                ),
            });
        }
        Ok(Some(manifest))
    }

    /// Appends a committed segment and updates the row count. Call
    /// [`Manifest::commit`] afterwards to publish.
    pub fn push_segment(&mut self, entry: SegmentEntry) {
        self.rows_committed += entry.rows;
        self.segments.push(entry);
    }

    /// Durably publishes the journal: serialize + checksum footer, write
    /// `MANIFEST.tmp`, fsync, rename over `MANIFEST`, fsync the
    /// directory. After this returns, a crash reopens to exactly this
    /// state.
    pub fn commit(&self, dir: &Path) -> Result<(), StoreError> {
        let json = serde_json::to_string(self).map_err(|e| {
            // Serialization of a plain data struct cannot fail with the
            // vendored serializer; keep the error typed anyway.
            StoreError::Io(io::Error::other(format!("manifest serialize: {e}")))
        })?;
        let body = write_checksummed_string(&json);
        atomic_replace(&Manifest::path_in(dir), body.as_bytes(), true)?;
        Ok(())
    }
}

/// Appends the CRC footer line to a text payload, producing the on-disk
/// form of a checksummed text file.
pub fn write_checksummed_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 24);
    out.push_str(text);
    if !out.ends_with('\n') {
        out.push('\n');
    }
    let crc = crc32(out.as_bytes());
    out.push_str(CRC_FOOTER_PREFIX);
    out.push_str(&format!("{crc:08x}\n"));
    out
}

/// Splits a checksummed text file into its payload, verifying the footer.
/// Returns the payload (with its trailing newline) or a description of
/// what is wrong (missing footer, malformed footer, checksum mismatch).
pub fn read_checksummed(text: &str) -> Result<&str, String> {
    let trimmed = text.strip_suffix('\n').unwrap_or(text);
    let footer_at = trimmed.rfind('\n').map(|p| p + 1).unwrap_or(0);
    let footer = &trimmed[footer_at..];
    let hex = footer
        .strip_prefix(CRC_FOOTER_PREFIX)
        .ok_or_else(|| "checksum footer missing".to_string())?;
    let stored =
        u32::from_str_radix(hex, 16).map_err(|_| "checksum footer malformed".to_string())?;
    let payload = &text[..footer_at];
    let actual = crc32(payload.as_bytes());
    if actual != stored {
        return Err(format!(
            "checksum mismatch: footer {stored:08x}, content {actual:08x}"
        ));
    }
    Ok(payload)
}

/// A text file whose checksum footer verified (see
/// [`read_checksummed_file`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChecksummedText {
    text: String,
    payload_len: usize,
}

impl ChecksummedText {
    /// Everything before the footer line (with its trailing newline).
    pub fn payload(&self) -> &str {
        &self.text[..self.payload_len]
    }

    /// The whole file as read, footer included.
    pub fn file_text(&self) -> &str {
        &self.text
    }
}

/// Reads a checksummed text file written through
/// [`write_checksummed_string`]. `Ok(None)` when the file does not exist;
/// [`StoreError::Corrupt`] when it is not UTF-8 or its footer is missing,
/// malformed, or does not match; [`StoreError::Io`] for any other read
/// failure.
pub fn read_checksummed_file(path: &Path) -> Result<Option<ChecksummedText>, StoreError> {
    let raw = match std::fs::read(path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let corrupt = |section: String| StoreError::Corrupt {
        path: path.to_path_buf(),
        section,
    };
    // A bit flip can break UTF-8 itself — that is corruption, not I/O.
    let text = String::from_utf8(raw).map_err(|_| corrupt("file is not valid UTF-8".into()))?;
    let payload_len = read_checksummed(&text).map_err(corrupt)?.len();
    Ok(Some(ChecksummedText { text, payload_len }))
}

/// Atomically replaces `path` with `bytes`: write `path.tmp`, optionally
/// fsync it, rename over `path`, optionally fsync the parent directory.
/// With `durable = false` the write is still atomic (readers never see a
/// torn file) but makes no ordering promise against power loss.
pub fn atomic_replace(path: &Path, bytes: &[u8], durable: bool) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        if durable {
            f.sync_all()?;
        }
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if durable {
        if let Some(dir) = path.parent() {
            fsync_dir(dir)?;
        }
    }
    Ok(())
}

/// The temp-file name `atomic_replace` stages through.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Fsyncs a directory so a just-renamed entry survives power loss. On
/// non-unix targets directory handles are not fsyncable; the rename is
/// still atomic, which is the best those filesystems offer.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// Fsyncs an existing file by path (used to harden a spill segment before
/// its rename publishes it).
pub fn fsync_file(path: &Path) -> io::Result<()> {
    File::open(path)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_tabular::Attribute;

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("nr-manifest-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn toy_manifest() -> Manifest {
        let schema = Schema::new(vec![
            Attribute::numeric("x"),
            Attribute::nominal_anon("c", 3),
        ]);
        let mut m = Manifest::new(schema, vec!["A".into(), "B".into()], 10);
        m.push_segment(SegmentEntry {
            file: "seg-000000.nrseg".into(),
            rows: 10,
            bytes: 424,
            crc32: 0xDEAD_BEEF,
        });
        m.source = Some(SourceStamp {
            bytes: 12345,
            prefix_crc32: 7,
        });
        m
    }

    #[test]
    fn roundtrips_through_commit_and_load() {
        let dir = temp_dir("roundtrip");
        assert!(Manifest::load(&dir).unwrap().is_none(), "fresh dir");
        let m = toy_manifest();
        m.commit(&dir).unwrap();
        let back = Manifest::load(&dir).unwrap().expect("manifest present");
        assert_eq!(back, m);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn any_byte_flip_fails_the_load() {
        let dir = temp_dir("flip");
        toy_manifest().commit(&dir).unwrap();
        let path = Manifest::path_in(&dir);
        let clean = std::fs::read(&path).unwrap();
        for byte in (0..clean.len()).step_by(5) {
            let mut bad = clean.clone();
            bad[byte] ^= 1 << (byte % 8);
            std::fs::write(&path, &bad).unwrap();
            assert!(
                matches!(Manifest::load(&dir), Err(StoreError::Corrupt { .. })),
                "flip at byte {byte} must be detected"
            );
        }
        // Truncations too (dropping the footer entirely is also corrupt).
        for keep in (0..clean.len()).step_by(11) {
            std::fs::write(&path, &clean[..keep]).unwrap();
            assert!(matches!(
                Manifest::load(&dir),
                Err(StoreError::Corrupt { .. })
            ));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rows_committed_must_match_listed_segments() {
        let dir = temp_dir("rows");
        let mut m = toy_manifest();
        m.rows_committed += 1;
        m.commit(&dir).unwrap();
        assert!(matches!(
            Manifest::load(&dir),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_replace_leaves_no_tmp_behind() {
        let dir = temp_dir("atomic");
        let target = dir.join("file");
        atomic_replace(&target, b"one", true).unwrap();
        atomic_replace(&target, b"two", false).unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"two");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksummed_text_roundtrip_rejects_tampering() {
        let body = write_checksummed_string("{\"k\":1}");
        assert_eq!(read_checksummed(&body).unwrap(), "{\"k\":1}\n");
        let tampered = body.replace("\"k\":1", "\"k\":2");
        assert!(read_checksummed(&tampered).is_err());
        assert!(read_checksummed("no footer here\n").is_err());
    }

    #[test]
    fn checksummed_file_reader_maps_every_outcome() {
        let dir = temp_dir("reader");
        let path = dir.join("file");
        assert_eq!(read_checksummed_file(&path).unwrap(), None);
        let body = write_checksummed_string("{\"k\":1}");
        std::fs::write(&path, &body).unwrap();
        let file = read_checksummed_file(&path).unwrap().unwrap();
        assert_eq!(file.payload(), "{\"k\":1}\n");
        assert_eq!(file.file_text(), body);
        for bad in [&b"no footer here\n"[..], &[0xff, 0xfe, b'\n'][..]] {
            std::fs::write(&path, bad).unwrap();
            assert!(matches!(
                read_checksummed_file(&path),
                Err(StoreError::Corrupt { .. })
            ));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
