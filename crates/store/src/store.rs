//! Segmented datasets: fixed-size immutable column slabs, in RAM or
//! spilled to mapped files — with an optional crash-safe durable mode.
//!
//! A [`SegmentedDataset`] is a sequence of sealed [`Dataset`] segments
//! sharing one schema. Each segment is an ordinary dataset — in-RAM
//! segments own their buffers, spilled segments borrow zero-copy windows
//! into a memory-mapped file — so every existing consumer
//! ([`nr_tabular::DatasetView`] split search, encode batch fill, rule
//! sweeps, serving) works segment-at-a-time without new APIs: iterate
//! [`SegmentedDataset::segments`] and call `.view()` on each.
//!
//! # Durability
//!
//! Spill segments are always written through a temp file and published by
//! an atomic rename (a panic or error mid-write never leaks a partial
//! segment — a drop guard removes the temp). With
//! [`StoreConfig::with_durable`] the directory additionally keeps a
//! [`Manifest`] journal: every published segment is fsynced, renamed,
//! the directory fsynced, and then recorded in the manifest (itself
//! committed with the same protocol) — so a crash at any instant reopens
//! ([`SegmentedDataset::open`]) to the last committed prefix, with stray
//! files quarantined. Non-durable stores keep the historical contract:
//! spill files are transient and deleted on drop.

use std::path::{Path, PathBuf};

use nr_tabular::{ClassId, Column, Dataset, DatasetView, Schema};

use crate::fault::{self, CrashPoint};
use crate::manifest::{self, Manifest, SegmentEntry, QUARANTINE_DIR};
use crate::{segfile, StoreError};

/// Where sealed segments live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpillMode {
    /// Segments stay in anonymous RAM (owned buffers).
    InRam,
    /// Segments are written to spill files in this directory (created if
    /// missing) and mapped back read-only. Peak heap is then bounded by
    /// roughly one open segment regardless of total rows.
    Disk(PathBuf),
}

/// Configuration of a segmented store build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Rows per sealed segment. Every segment except the last has exactly
    /// this many rows.
    pub seg_rows: usize,
    /// RAM or spill-to-disk storage for sealed segments.
    pub spill: SpillMode,
    /// Worker threads for parallel ingest (`0` = auto). Parsing degrades
    /// to the serial arm on single-core hosts; the result is bit-identical
    /// at any setting.
    pub threads: usize,
    /// Journal the spill directory and fsync every commit. Durable
    /// stores keep their files on drop and reopen via
    /// [`SegmentedDataset::open`]; non-durable spill files are transient
    /// and deleted with the store. Disk mode only.
    pub durable: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            seg_rows: 64 * 1024,
            spill: SpillMode::InRam,
            threads: 0,
            durable: false,
        }
    }
}

impl StoreConfig {
    /// An in-RAM config with the given segment size.
    pub fn in_ram(seg_rows: usize) -> Self {
        StoreConfig {
            seg_rows,
            ..StoreConfig::default()
        }
    }

    /// A spill-to-disk config with the given segment size and directory.
    pub fn spilling(seg_rows: usize, dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            seg_rows,
            spill: SpillMode::Disk(dir.into()),
            ..StoreConfig::default()
        }
    }

    /// Sets the ingest worker count (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets durable (journaled, fsynced, reopenable) mode.
    pub fn with_durable(mut self, durable: bool) -> Self {
        self.durable = durable;
        self
    }
}

/// Removes a staged temp file unless disarmed — the panic-safety net
/// around segment writes: a panic or early `?` inside the seal path runs
/// this drop and the partial file vanishes instead of leaking. A
/// simulated kill (fault injection) deliberately disarms *without*
/// cleanup, because a real `kill -9` runs no destructors.
struct TmpGuard {
    path: PathBuf,
    armed: bool,
}

impl TmpGuard {
    fn new(path: PathBuf) -> TmpGuard {
        TmpGuard { path, armed: true }
    }

    fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for TmpGuard {
    fn drop(&mut self) {
        if self.armed {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// The deterministic spill-file name of segment `index` — a pure function
/// of the index so a resumed process finds (and a recovering open
/// validates) the same names a crashed one wrote.
fn segment_file_name(index: usize) -> String {
    format!("seg-{index:06}.nrseg")
}

/// Builds a [`SegmentedDataset`] from column batches, sealing a segment
/// every `seg_rows` rows. Batches are validated exactly like
/// [`Dataset::append_columns`]; sealing either keeps the slab in RAM or
/// writes and maps a spill file, per the config.
pub struct SegmentWriter {
    config: StoreConfig,
    staging: Dataset,
    segments: Vec<Dataset>,
    spill_files: Vec<PathBuf>,
    /// The journal, in durable disk mode.
    manifest: Option<Manifest>,
    /// Index of the next segment to seal (non-zero when resumed).
    seg_index: usize,
}

impl SegmentWriter {
    /// Creates a writer over `schema`/`class_names`. The spill directory
    /// (if any) is created here so a doomed path fails before any
    /// parsing; durable mode commits an empty journal immediately, so the
    /// directory is recoverable from the first instant.
    pub fn new(
        schema: Schema,
        class_names: Vec<String>,
        config: StoreConfig,
    ) -> Result<SegmentWriter, StoreError> {
        assert!(config.seg_rows > 0, "segments must hold at least one row");
        let manifest = match (&config.spill, config.durable) {
            (SpillMode::Disk(dir), durable) => {
                std::fs::create_dir_all(dir)?;
                if durable {
                    let m = Manifest::new(schema.clone(), class_names.clone(), config.seg_rows);
                    m.commit(dir)?;
                    Some(m)
                } else {
                    None
                }
            }
            (SpillMode::InRam, true) => {
                return Err(StoreError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "durable mode requires a spill directory",
                )))
            }
            (SpillMode::InRam, false) => None,
        };
        Ok(SegmentWriter {
            staging: Dataset::new(schema, class_names),
            config,
            segments: Vec::new(),
            spill_files: Vec::new(),
            manifest,
            seg_index: 0,
        })
    }

    /// Resumes a writer over an already-recovered durable directory:
    /// `manifest` lists (and `segments` holds) the committed full
    /// segments; new appends continue at the next segment index.
    pub(crate) fn resume(
        manifest: Manifest,
        segments: Vec<Dataset>,
        spill_files: Vec<PathBuf>,
        config: StoreConfig,
    ) -> SegmentWriter {
        let schema = manifest.schema.clone();
        let class_names = manifest.class_names.clone();
        let seg_index = manifest.segments.len();
        SegmentWriter {
            staging: Dataset::new(schema, class_names),
            config,
            segments,
            spill_files,
            manifest: Some(manifest),
            seg_index,
        }
    }

    /// The schema rows are appended under.
    pub(crate) fn schema(&self) -> &Schema {
        self.staging.schema()
    }

    /// The class label names rows are appended under.
    pub(crate) fn class_names(&self) -> &[String] {
        self.staging.class_names()
    }

    /// Stamps the journal with the identity of the ingest source so a
    /// later resume can refuse a different file, and commits it. Durable
    /// mode only (a no-op otherwise).
    pub fn set_source(&mut self, stamp: manifest::SourceStamp) -> Result<(), StoreError> {
        if let (Some(m), SpillMode::Disk(dir)) = (&mut self.manifest, &self.config.spill) {
            m.source = Some(stamp);
            m.commit(dir)?;
        }
        Ok(())
    }

    /// Appends one batch of columns + labels (validated), sealing any
    /// segments that fill up.
    pub fn append_columns(
        &mut self,
        columns: Vec<Column>,
        labels: Vec<ClassId>,
    ) -> Result<(), StoreError> {
        self.staging.append_columns(columns, labels)?;
        while self.staging.len() >= self.config.seg_rows {
            // The full head moves out whole; only the short tail is copied.
            let tail = self.staging.split_off(self.config.seg_rows);
            let full = std::mem::replace(&mut self.staging, tail);
            self.seal(full)?;
        }
        Ok(())
    }

    /// Seals one full (or final partial) segment per the spill mode. Disk
    /// mode follows the commit protocol: temp write (drop-guarded) →
    /// fsync → rename → fsync(dir) → journal commit. Crash points
    /// (fault injection) fire between the steps.
    fn seal(&mut self, segment: Dataset) -> Result<(), StoreError> {
        let sealed = match &self.config.spill {
            SpillMode::InRam => {
                // The head kept the staging buffers' growth headroom.
                let mut segment = segment;
                segment.shrink_to_fit();
                segment
            }
            SpillMode::Disk(dir) => {
                let name = segment_file_name(self.seg_index);
                let path = dir.join(&name);
                let tmp = manifest::tmp_path(&path);
                let mut guard = TmpGuard::new(tmp.clone());
                let meta = segfile::write_segment(&segment, &tmp)?;
                // The in-RAM slab drops here; reads now go through the
                // mapping (page cache), which is the point of spilling.
                drop(segment);
                if fault::crash_fires(CrashPoint::MidSegmentWrite) {
                    let _ = fault::truncate(&tmp, meta.bytes / 2);
                    guard.disarm();
                    return Err(fault::simulated_kill().into());
                }
                if self.config.durable {
                    manifest::fsync_file(&tmp)?;
                }
                if fault::crash_fires(CrashPoint::BeforeRename) {
                    guard.disarm();
                    return Err(fault::simulated_kill().into());
                }
                std::fs::rename(&tmp, &path)?;
                guard.disarm();
                if self.config.durable {
                    manifest::fsync_dir(dir)?;
                }
                if fault::crash_fires(CrashPoint::AfterRename) {
                    return Err(fault::simulated_kill().into());
                }
                if let Some(m) = &mut self.manifest {
                    m.push_segment(SegmentEntry {
                        file: name,
                        rows: meta.rows,
                        bytes: meta.bytes,
                        crc32: meta.file_crc,
                    });
                    m.commit(dir)?;
                }
                let mapped = segfile::load_segment(
                    self.staging.schema(),
                    self.staging.class_names(),
                    &path,
                )?;
                self.spill_files.push(path);
                mapped
            }
        };
        self.seg_index += 1;
        self.segments.push(sealed);
        Ok(())
    }

    /// Seals the remaining partial segment, marks the journal complete,
    /// and returns the finished dataset.
    pub fn finish(mut self) -> Result<SegmentedDataset, StoreError> {
        let schema = self.staging.schema().clone();
        let class_names = self.staging.class_names().to_vec();
        // Completion rides the tail segment's own journal commit, so a
        // manifest can only show a partial tail *and* complete together —
        // an incomplete journal always lists full segments only, which is
        // what keeps resumed row arithmetic aligned.
        if let Some(m) = &mut self.manifest {
            m.complete = true;
        }
        if !self.staging.is_empty() {
            let rest = std::mem::replace(
                &mut self.staging,
                Dataset::new(schema.clone(), class_names.clone()),
            );
            self.seal(rest)?;
        } else if let (Some(m), SpillMode::Disk(dir)) = (&self.manifest, &self.config.spill) {
            m.commit(dir)?;
        }
        let dir = match &self.config.spill {
            SpillMode::Disk(dir) if self.config.durable => Some(dir.clone()),
            _ => None,
        };
        Ok(SegmentedDataset {
            schema,
            class_names,
            seg_rows: self.config.seg_rows,
            segments: std::mem::take(&mut self.segments),
            spill_files: std::mem::take(&mut self.spill_files),
            durable: self.config.durable,
            dir,
            quarantined: 0,
        })
    }
}

/// What [`SegmentedDataset::open`] recovered, beyond the dataset itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Stray files moved to `quarantine/` by this open.
    pub quarantined: usize,
    /// Whether the journal was marked complete (a finished ingest) or
    /// this is a crash prefix.
    pub complete: bool,
}

/// An immutable dataset stored as fixed-size segments (see module docs).
///
/// Dropping a non-durable store deletes its spill files; durable stores
/// keep their directory for [`SegmentedDataset::open`].
#[derive(Debug)]
pub struct SegmentedDataset {
    schema: Schema,
    class_names: Vec<String>,
    seg_rows: usize,
    segments: Vec<Dataset>,
    spill_files: Vec<PathBuf>,
    durable: bool,
    dir: Option<PathBuf>,
    quarantined: usize,
}

impl SegmentedDataset {
    /// Segments an existing in-RAM dataset (the small-data / test path).
    pub fn from_dataset(ds: &Dataset, config: StoreConfig) -> Result<SegmentedDataset, StoreError> {
        let mut w = SegmentWriter::new(ds.schema().clone(), ds.class_names().to_vec(), config)?;
        let columns: Vec<Column> = (0..ds.schema().arity())
            .map(|a| ds.column(a).clone())
            .collect();
        w.append_columns(columns, ds.labels().to_vec())?;
        w.finish()
    }

    /// Reopens a durable spill directory: verifies the journal, reaps the
    /// previous generation's quarantine, moves stray files (crash
    /// leftovers) into `quarantine/`, and loads every committed segment
    /// with full checksum verification. Any listed segment that is
    /// missing, resized, or fails verification is a
    /// [`StoreError::Corrupt`].
    pub fn open(dir: &Path) -> Result<SegmentedDataset, StoreError> {
        let (manifest, segments, spill_files, quarantined) = open_parts(dir)?;
        SegmentedDataset::from_parts(dir, manifest, segments, spill_files, quarantined)
    }

    /// Assembles a durable store from already-recovered parts (shared by
    /// [`SegmentedDataset::open`] and the resumable ingest).
    pub(crate) fn from_parts(
        dir: &Path,
        manifest: Manifest,
        segments: Vec<Dataset>,
        spill_files: Vec<PathBuf>,
        quarantined: usize,
    ) -> Result<SegmentedDataset, StoreError> {
        Ok(SegmentedDataset {
            schema: manifest.schema,
            class_names: manifest.class_names,
            seg_rows: usize::try_from(manifest.seg_rows).map_err(|_| StoreError::Corrupt {
                path: Manifest::path_in(dir),
                section: "seg_rows exceeds usize".into(),
            })?,
            segments,
            spill_files,
            durable: true,
            dir: Some(dir.to_path_buf()),
            quarantined,
        })
    }

    /// Total rows across all segments.
    pub fn rows(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// True when the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// The shared schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The class label names.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Rows per full segment.
    pub fn seg_rows(&self) -> usize {
        self.seg_rows
    }

    /// Number of sealed segments.
    pub fn n_segments(&self) -> usize {
        self.segments.len()
    }

    /// Segment `i` as an ordinary dataset (zero-copy for spilled
    /// segments).
    pub fn segment(&self, i: usize) -> &Dataset {
        &self.segments[i]
    }

    /// All segments in row order — the segment-at-a-time consumer loop.
    pub fn segments(&self) -> impl Iterator<Item = &Dataset> {
        self.segments.iter()
    }

    /// Full views of all segments in row order (what batch consumers
    /// feed to split search / encoding / sweeps).
    pub fn views(&self) -> impl Iterator<Item = DatasetView<'_>> {
        self.segments.iter().map(|s| s.view())
    }

    /// The segment index and in-segment row of global row `row`.
    pub fn locate(&self, row: usize) -> (usize, usize) {
        assert!(row < self.rows(), "row {row} beyond {}", self.rows());
        (row / self.seg_rows, row % self.seg_rows)
    }

    /// Label of global row `row`.
    pub fn label(&self, row: usize) -> ClassId {
        let (s, r) = self.locate(row);
        self.segments[s].label(r)
    }

    /// Materializes the whole store as one owned in-RAM dataset.
    ///
    /// This obviously forfeits the out-of-core bound — it exists for
    /// small stores and for equivalence tests against the non-segmented
    /// pipeline.
    pub fn to_dataset(&self) -> Result<Dataset, StoreError> {
        let mut out = Dataset::new(self.schema.clone(), self.class_names.clone());
        for seg in &self.segments {
            let columns: Vec<Column> = (0..self.schema.arity())
                .map(|a| seg.column(a).clone())
                .collect();
            out.append_columns(columns, seg.labels().to_vec())?;
        }
        Ok(out)
    }

    /// Number of spill files backing this store.
    pub fn n_spill_files(&self) -> usize {
        self.spill_files.len()
    }

    /// The durable directory, when there is one.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Stray files moved to quarantine when this store was opened (always
    /// 0 for freshly built stores).
    pub fn quarantined(&self) -> usize {
        self.quarantined
    }
}

/// Shared recovery core of [`SegmentedDataset::open`] and the resumable
/// ingest: journal load + quarantine sweep + verified segment loads.
pub(crate) fn open_parts(
    dir: &Path,
) -> Result<(Manifest, Vec<Dataset>, Vec<PathBuf>, usize), StoreError> {
    let manifest = Manifest::load(dir)?.ok_or_else(|| {
        StoreError::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("{} has no manifest — not a durable store", dir.display()),
        ))
    })?;

    // Reap the previous generation's quarantine, then park this
    // generation's strays (crash leftovers: *.tmp files, segments
    // published but never journaled). Two-phase so one generation of
    // evidence survives for post-mortems.
    let qdir = dir.join(QUARANTINE_DIR);
    if qdir.is_dir() {
        std::fs::remove_dir_all(&qdir)?;
    }
    let listed: std::collections::HashSet<&str> =
        manifest.segments.iter().map(|s| s.file.as_str()).collect();
    let mut quarantined = 0usize;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name_str = name.to_string_lossy();
        if name_str == manifest::MANIFEST_FILE
            || name_str == QUARANTINE_DIR
            || listed.contains(name_str.as_ref())
        {
            continue;
        }
        std::fs::create_dir_all(&qdir)?;
        std::fs::rename(entry.path(), qdir.join(&name))?;
        quarantined += 1;
    }

    let mut segments = Vec::with_capacity(manifest.segments.len());
    let mut spill_files = Vec::with_capacity(manifest.segments.len());
    for (i, entry) in manifest.segments.iter().enumerate() {
        let path = dir.join(&entry.file);
        let on_disk =
            std::fs::metadata(&path)
                .map(|m| m.len())
                .map_err(|e| StoreError::Corrupt {
                    path: path.clone(),
                    section: format!("journaled segment missing: {e}"),
                })?;
        if on_disk != entry.bytes {
            return Err(StoreError::Corrupt {
                path,
                section: format!(
                    "journaled segment is {on_disk} bytes, journal says {}",
                    entry.bytes
                ),
            });
        }
        if segfile::segment_file_crc(&path)? != entry.crc32 {
            return Err(StoreError::Corrupt {
                path,
                section: "segment checksum does not match the journal".into(),
            });
        }
        let seg = segfile::load_segment(&manifest.schema, &manifest.class_names, &path)?;
        if seg.len() as u64 != entry.rows {
            return Err(StoreError::Corrupt {
                path,
                section: format!(
                    "segment holds {} rows, journal says {}",
                    seg.len(),
                    entry.rows
                ),
            });
        }
        // All but the last segment must be exactly full, or locate()'s
        // row arithmetic (and resume) would silently misalign.
        if i + 1 < manifest.segments.len() && entry.rows != manifest.seg_rows {
            return Err(StoreError::Corrupt {
                path,
                section: format!(
                    "interior segment holds {} rows, expected {}",
                    entry.rows, manifest.seg_rows
                ),
            });
        }
        segments.push(seg);
        spill_files.push(path);
    }
    Ok((manifest, segments, spill_files, quarantined))
}

impl Drop for SegmentedDataset {
    fn drop(&mut self) {
        if self.durable {
            return; // durable directories outlive the handle by design
        }
        // Mapped segments hold their own file handles via the mapping, so
        // unlinking here is safe even while column buffers are alive —
        // but segments drop first anyway (field order is irrelevant: the
        // mapping keeps the inode alive until unmapped).
        for path in &self.spill_files {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_tabular::{Attribute, Value};

    fn toy(n: usize) -> Dataset {
        let schema = Schema::new(vec![
            Attribute::numeric("x"),
            Attribute::nominal_anon("c", 3),
        ]);
        let mut ds = Dataset::new(schema, vec!["A".into(), "B".into()]);
        for i in 0..n {
            ds.push(
                vec![Value::Num(i as f64), Value::Nominal((i % 3) as u32)],
                i % 2,
            )
            .unwrap();
        }
        ds
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("nr-store-test-{}-{tag}-{n}", std::process::id()))
    }

    #[test]
    fn segments_cover_rows_in_order() {
        // Boundary sizes: 0, 1, seg_rows - 1, seg_rows, seg_rows + 1.
        for n in [0usize, 1, 9, 10, 11, 25] {
            let ds = toy(n);
            let store = SegmentedDataset::from_dataset(&ds, StoreConfig::in_ram(10)).unwrap();
            assert_eq!(store.rows(), n);
            assert_eq!(store.n_segments(), n.div_ceil(10));
            for (i, seg) in store.segments().enumerate() {
                let expect = if (i + 1) * 10 <= n { 10 } else { n - i * 10 };
                assert_eq!(seg.len(), expect, "segment {i} of {n} rows");
            }
            assert_eq!(store.to_dataset().unwrap(), ds);
        }
    }

    #[test]
    fn spilled_store_is_bit_identical_and_cleans_up() {
        let ds = toy(23);
        let dir = temp_dir("spill");
        let store =
            SegmentedDataset::from_dataset(&ds, StoreConfig::spilling(10, dir.clone())).unwrap();
        assert_eq!(store.n_segments(), 3);
        assert_eq!(store.n_spill_files(), 3);
        // Columns of spilled segments are zero-copy windows (on LE hosts).
        assert_eq!(
            store.segment(0).column(0).is_shared(),
            cfg!(target_endian = "little")
        );
        assert_eq!(store.to_dataset().unwrap(), ds);
        assert_eq!(store.label(22), ds.label(22));
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 3);
        drop(store);
        // Spill files are deleted with the store.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn incremental_appends_seal_at_boundaries() {
        let ds = toy(26);
        let mut w = SegmentWriter::new(
            ds.schema().clone(),
            ds.class_names().to_vec(),
            StoreConfig::in_ram(8),
        )
        .unwrap();
        // Feed in ragged batches: 5 + 13 + 8 = 26 rows.
        for (start, end) in [(0, 5), (5, 18), (18, 26)] {
            let idx: Vec<usize> = (start..end).collect();
            let batch = ds.subset(&idx);
            let cols = (0..2).map(|a| batch.column(a).clone()).collect();
            w.append_columns(cols, batch.labels().to_vec()).unwrap();
        }
        let store = w.finish().unwrap();
        assert_eq!(store.n_segments(), 4); // 8 + 8 + 8 + 2
        assert_eq!(store.segment(3).len(), 2);
        assert_eq!(store.to_dataset().unwrap(), ds);
    }

    #[test]
    fn durable_store_survives_drop_and_reopens() {
        let ds = toy(23);
        let dir = temp_dir("durable");
        let config = StoreConfig::spilling(10, dir.clone()).with_durable(true);
        let store = SegmentedDataset::from_dataset(&ds, config).unwrap();
        assert_eq!(store.dir(), Some(dir.as_path()));
        drop(store);
        // Files and journal survive the drop.
        assert!(Manifest::path_in(&dir).is_file());
        let back = SegmentedDataset::open(&dir).unwrap();
        assert_eq!(back.to_dataset().unwrap(), ds);
        assert_eq!(back.quarantined(), 0);
        assert_eq!(back.seg_rows(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_quarantines_strays_then_reaps_them() {
        let ds = toy(15);
        let dir = temp_dir("strays");
        let config = StoreConfig::spilling(10, dir.clone()).with_durable(true);
        drop(SegmentedDataset::from_dataset(&ds, config).unwrap());
        // Crash leftovers: a torn temp and an unjournaled segment.
        std::fs::write(dir.join("seg-000002.nrseg.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("seg-000009.nrseg"), b"orphan").unwrap();
        let back = SegmentedDataset::open(&dir).unwrap();
        assert_eq!(back.quarantined(), 2);
        assert_eq!(back.rows(), 15);
        assert_eq!(
            std::fs::read_dir(dir.join(QUARANTINE_DIR)).unwrap().count(),
            2
        );
        drop(back);
        // Second open: quarantine generation is reaped, nothing new strays.
        let again = SegmentedDataset::open(&dir).unwrap();
        assert_eq!(again.quarantined(), 0);
        assert!(!dir.join(QUARANTINE_DIR).is_dir());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_refuses_corrupted_journaled_segments() {
        let ds = toy(20);
        let dir = temp_dir("open-corrupt");
        let config = StoreConfig::spilling(10, dir.clone()).with_durable(true);
        drop(SegmentedDataset::from_dataset(&ds, config).unwrap());
        let seg0 = dir.join(segment_file_name(0));
        crate::fault::flip_bit(&seg0, 100, 3).unwrap();
        assert!(matches!(
            SegmentedDataset::open(&dir),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_requires_a_spill_directory() {
        let ds = toy(3);
        assert!(
            SegmentedDataset::from_dataset(&ds, StoreConfig::in_ram(10).with_durable(true))
                .is_err()
        );
    }

    #[test]
    fn panic_mid_seal_removes_the_partial_temp_file() {
        // The drop guard must clean the temp even when the seal path
        // unwinds. Simulate by poisoning the staged dataset write target:
        // make the spill dir read-only so write_segment errors partway.
        let ds = toy(12);
        let dir = temp_dir("guard");
        let config = StoreConfig::spilling(10, dir.clone());
        // Error path: sealing into a directory that vanishes mid-build.
        let mut w =
            SegmentWriter::new(ds.schema().clone(), ds.class_names().to_vec(), config).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let cols: Vec<Column> = (0..2).map(|a| ds.column(a).clone()).collect();
        let r = w.append_columns(cols, ds.labels().to_vec());
        assert!(r.is_err(), "sealing without its directory must fail");
        // Nothing recreated the dir, and no temp leaked anywhere else.
        assert!(!dir.exists());
    }
}
