//! The on-disk spill segment format and its writer/loader.
//!
//! A spill segment is one sealed, immutable slab of rows written as raw
//! little-endian column regions so it can be memory-mapped straight back
//! into typed [`nr_tabular::Buf`] windows — loading a segment reads the
//! header and (by default) streams every region once through the CRC32
//! verifier; after that, column data is paged in lazily by the kernel as
//! scans reach it.
//!
//! # `NRSEG02` layout
//!
//! All integers are `u64` little-endian; CRC32 values occupy the low 32
//! bits of their `u64` slot. All regions are 8-byte aligned; region
//! checksums cover the alignment padding, so with the header checksum and
//! the footer every byte of the file is covered — any bit flip anywhere
//! is a load-time [`StoreError::Corrupt`], never wrong data.
//!
//! ```text
//! magic "NRSEG02\n" · rows · n_cols
//! per column: kind (0 = f64, 1 = u32 codes) · byte offset · region crc
//! labels byte offset · labels crc
//! header crc                     (over all header bytes before this slot)
//! ...padded column regions, labels last as u64...
//! file crc                       (over header bytes + all region crcs)
//! ```
//!
//! The footer `file_crc` binds the header to the region checksums without
//! a second pass over the data: verifying it plus the per-region CRCs is
//! one streamed read of the file. Commit protocols (the store manifest,
//! below the fold in `manifest.rs`) record the footer value to tie a file
//! on disk to the journal entry that committed it.
//!
//! Spill files are transient artifacts of one store (schema and class
//! names live in the [`crate::SegmentedDataset`]), so the header records
//! only what is needed to validate the file against the schema in hand.

use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use nr_tabular::{AttrKind, Buf, ClassId, Column, Dataset, Schema, SliceSource};

use crate::crc::{crc32, Crc32};
use crate::mmap::{MappedFile, TypedRegion};
use crate::StoreError;

/// Magic prefix of every spill segment file.
const MAGIC_V2: &[u8; 8] = b"NRSEG02\n";

/// Column kind tags in the header.
const KIND_NUM: u64 = 0;
const KIND_NOMINAL: u64 = 1;

/// Byte size of the `NRSEG02` header for `n_cols` columns: magic + rows +
/// n_cols, three `u64`s per column, labels offset + labels crc, header crc.
fn header_len_v2(n_cols: usize) -> usize {
    8 * (3 + 3 * n_cols + 3)
}

fn corrupt(path: &Path, section: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        path: path.to_path_buf(),
        section: section.into(),
    }
}

/// Rounds `n` up to the next multiple of 8 (the region alignment).
fn align8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

/// What [`write_segment`] committed: enough to bind the file to a
/// manifest entry and cross-check it on recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// The footer checksum (covers header + all region checksums).
    pub file_crc: u32,
    /// Total file size in bytes.
    pub bytes: u64,
    /// Rows in the segment.
    pub rows: u64,
}

/// Values encoded per block by [`CrcWriter::put_le`].
const WRITE_BLOCK_VALUES: usize = 8 * 1024;

/// A buffered writer that folds everything written into a running CRC32.
struct CrcWriter<W: Write> {
    inner: W,
    crc: Crc32,
    /// Reusable encoding buffer of [`CrcWriter::put_le`].
    block: Vec<u8>,
}

impl<W: Write> CrcWriter<W> {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.crc.update(bytes);
        self.inner.write_all(bytes)
    }

    /// Writes `values` little-endian, encoding them in blocks into one
    /// reusable buffer: one checksum update and one `write_all` per block
    /// of [`WRITE_BLOCK_VALUES`], not per value.
    fn put_le<T: Copy, const N: usize>(
        &mut self,
        values: &[T],
        to_le: impl Fn(T) -> [u8; N],
    ) -> io::Result<()> {
        for chunk in values.chunks(WRITE_BLOCK_VALUES) {
            self.block.clear();
            self.block.resize(chunk.len() * N, 0);
            for (dst, &v) in self.block.chunks_exact_mut(N).zip(chunk) {
                dst.copy_from_slice(&to_le(v));
            }
            self.crc.update(&self.block);
            self.inner.write_all(&self.block)?;
        }
        Ok(())
    }

    /// Takes the region checksum and resets the state for the next region.
    fn take_crc(&mut self) -> u32 {
        std::mem::take(&mut self.crc).finish()
    }
}

/// Writes `ds` as one `NRSEG02` spill segment at `path`, returning the
/// committed checksum metadata.
///
/// The dataset was validated when it was built (every construction path
/// validates), so values are written as-is. The file is flushed but not
/// fsynced — durable callers sync before publishing the file (see the
/// store's seal path).
pub fn write_segment(ds: &Dataset, path: &Path) -> Result<SegmentMeta, StoreError> {
    let rows = ds.len();
    let n_cols = ds.schema().arity();
    let header_len = header_len_v2(n_cols);

    // Region offsets are a pure function of (rows, kinds): loaders
    // recompute and cross-check them, so a lying offset can't move a
    // region even if its checksum were forged to match.
    let mut offsets = Vec::with_capacity(n_cols);
    let mut cursor = header_len;
    for a in 0..n_cols {
        offsets.push(cursor as u64);
        let region = match ds.column(a) {
            Column::Num(_) => rows * 8,
            Column::Nominal(_) => rows * 4,
        };
        cursor = align8(cursor + region);
    }
    let labels_offset = cursor as u64;

    let mut file = File::create(path)?;
    let mut out = CrcWriter {
        inner: BufWriter::new(&mut file),
        crc: Crc32::new(),
        block: Vec::with_capacity(WRITE_BLOCK_VALUES * 8),
    };
    // Header placeholder — rewritten with real checksums after the data
    // pass, so the file streams out in one forward sweep plus one seek.
    out.inner.write_all(&vec![0u8; header_len])?;

    let mut region_crcs = Vec::with_capacity(n_cols + 1);
    let mut written = header_len;
    for a in 0..n_cols {
        match ds.column(a) {
            Column::Num(xs) => {
                out.put_le(xs, f64::to_le_bytes)?;
                written += rows * 8;
            }
            Column::Nominal(cs) => {
                out.put_le(cs, u32::to_le_bytes)?;
                written += rows * 4;
            }
        }
        // Padding is inside the checksummed region: no unchecked bytes.
        let pad = align8(written) - written;
        out.put(&[0u8; 8][..pad])?;
        written += pad;
        region_crcs.push(out.take_crc());
    }
    out.put_le(ds.labels(), |l| (l as u64).to_le_bytes())?;
    let labels_crc = out.take_crc();
    region_crcs.push(labels_crc);

    // Assemble the real header now that every region checksum is known.
    let mut header = Vec::with_capacity(header_len);
    header.extend_from_slice(MAGIC_V2);
    header.extend_from_slice(&(rows as u64).to_le_bytes());
    header.extend_from_slice(&(n_cols as u64).to_le_bytes());
    for a in 0..n_cols {
        let kind = match ds.column(a) {
            Column::Num(_) => KIND_NUM,
            Column::Nominal(_) => KIND_NOMINAL,
        };
        header.extend_from_slice(&kind.to_le_bytes());
        header.extend_from_slice(&offsets[a].to_le_bytes());
        header.extend_from_slice(&u64::from(region_crcs[a]).to_le_bytes());
    }
    header.extend_from_slice(&labels_offset.to_le_bytes());
    header.extend_from_slice(&u64::from(labels_crc).to_le_bytes());
    let header_crc = crc32(&header);
    header.extend_from_slice(&u64::from(header_crc).to_le_bytes());
    debug_assert_eq!(header.len(), header_len);

    // Footer: binds the (checksummed) header to the region checksums.
    let mut file_crc = Crc32::new();
    file_crc.update(&header);
    for &rc in &region_crcs {
        file_crc.update(&u64::from(rc).to_le_bytes());
    }
    let file_crc = file_crc.finish();
    out.inner.write_all(&u64::from(file_crc).to_le_bytes())?;
    out.inner.flush()?;
    drop(out);

    file.seek(SeekFrom::Start(0))?;
    file.write_all(&header)?;
    file.flush()?;
    Ok(SegmentMeta {
        file_crc,
        bytes: (written + rows * 8 + 8) as u64,
        rows: rows as u64,
    })
}

/// Reads the footer checksum of a `NRSEG02` file without mapping it —
/// what manifest recovery uses to tie a file to its journal entry.
pub fn segment_file_crc(path: &Path) -> Result<u32, StoreError> {
    let mut f = File::open(path)?;
    let len = f.seek(SeekFrom::End(0))?;
    if len < (header_len_v2(0) as u64) + 8 {
        return Err(corrupt(path, "file shorter than any valid segment"));
    }
    f.seek(SeekFrom::End(-8))?;
    let mut buf = [0u8; 8];
    f.read_exact(&mut buf)?;
    let raw = u64::from_le_bytes(buf);
    u32::try_from(raw).map_err(|_| corrupt(path, "footer checksum slot out of range"))
}

/// Reads the `u64` at byte `offset`, or a corruption error naming
/// `section` if the file is too short (checked decode — never panics on a
/// short or lying header).
fn read_u64(bytes: &[u8], offset: usize, path: &Path, section: &str) -> Result<u64, StoreError> {
    let end = offset
        .checked_add(8)
        .ok_or_else(|| corrupt(path, format!("{section}: offset overflow")))?;
    let slice = bytes
        .get(offset..end)
        .ok_or_else(|| corrupt(path, format!("{section}: truncated")))?;
    let mut raw = [0u8; 8];
    raw.copy_from_slice(slice);
    Ok(u64::from_le_bytes(raw))
}

fn read_usize(
    bytes: &[u8],
    offset: usize,
    path: &Path,
    section: &str,
) -> Result<usize, StoreError> {
    usize::try_from(read_u64(bytes, offset, path, section)?)
        .map_err(|_| corrupt(path, format!("{section}: value exceeds usize")))
}

/// Reads a CRC32 slot (`u64` on disk, value must fit in 32 bits).
fn read_crc(bytes: &[u8], offset: usize, path: &Path, section: &str) -> Result<u32, StoreError> {
    u32::try_from(read_u64(bytes, offset, path, section)?)
        .map_err(|_| corrupt(path, format!("{section}: checksum slot out of range")))
}

/// A numeric column buffer over the mapping — zero-copy where the target's
/// layout matches the file's (little-endian), decoded into an owned `Vec`
/// otherwise.
fn num_buf(
    map: &Arc<MappedFile>,
    offset: usize,
    rows: usize,
    path: &Path,
) -> Result<Buf<f64>, StoreError> {
    #[cfg(target_endian = "little")]
    {
        let region = TypedRegion::<f64>::new(Arc::clone(map), offset, rows)
            .map_err(|e| corrupt(path, format!("numeric region: {e}")))?;
        let source: Arc<dyn SliceSource<f64>> = Arc::new(region);
        Ok(Buf::shared(source, 0, rows))
    }
    #[cfg(not(target_endian = "little"))]
    {
        let bytes = map.bytes();
        let end = rows
            .checked_mul(8)
            .and_then(|n| n.checked_add(offset))
            .ok_or_else(|| corrupt(path, "numeric region: length overflow"))?;
        let slice = bytes
            .get(offset..end)
            .ok_or_else(|| corrupt(path, "numeric region out of bounds"))?;
        Ok(slice
            .chunks_exact(8)
            .map(|c| {
                let mut raw = [0u8; 8];
                raw.copy_from_slice(c);
                f64::from_le_bytes(raw)
            })
            .collect::<Vec<_>>()
            .into())
    }
}

/// A nominal-code column buffer over the mapping (see [`num_buf`]).
fn nominal_buf(
    map: &Arc<MappedFile>,
    offset: usize,
    rows: usize,
    path: &Path,
) -> Result<Buf<u32>, StoreError> {
    #[cfg(target_endian = "little")]
    {
        let region = TypedRegion::<u32>::new(Arc::clone(map), offset, rows)
            .map_err(|e| corrupt(path, format!("nominal region: {e}")))?;
        let source: Arc<dyn SliceSource<u32>> = Arc::new(region);
        Ok(Buf::shared(source, 0, rows))
    }
    #[cfg(not(target_endian = "little"))]
    {
        let bytes = map.bytes();
        let end = rows
            .checked_mul(4)
            .and_then(|n| n.checked_add(offset))
            .ok_or_else(|| corrupt(path, "nominal region: length overflow"))?;
        let slice = bytes
            .get(offset..end)
            .ok_or_else(|| corrupt(path, "nominal region out of bounds"))?;
        Ok(slice
            .chunks_exact(4)
            .map(|c| {
                let mut raw = [0u8; 4];
                raw.copy_from_slice(c);
                u32::from_le_bytes(raw)
            })
            .collect::<Vec<_>>()
            .into())
    }
}

/// The label buffer. Labels are stored as `u64`; on 64-bit little-endian
/// targets `usize` is layout-identical, so the region maps zero-copy.
fn label_buf(
    map: &Arc<MappedFile>,
    offset: usize,
    rows: usize,
    path: &Path,
) -> Result<Buf<ClassId>, StoreError> {
    #[cfg(all(target_pointer_width = "64", target_endian = "little"))]
    {
        let region = TypedRegion::<usize>::new(Arc::clone(map), offset, rows)
            .map_err(|e| corrupt(path, format!("label region: {e}")))?;
        let source: Arc<dyn SliceSource<usize>> = Arc::new(region);
        Ok(Buf::shared(source, 0, rows))
    }
    #[cfg(not(all(target_pointer_width = "64", target_endian = "little")))]
    {
        let bytes = map.bytes();
        let end = rows
            .checked_mul(8)
            .and_then(|n| n.checked_add(offset))
            .ok_or_else(|| corrupt(path, "label region: length overflow"))?;
        let slice = bytes
            .get(offset..end)
            .ok_or_else(|| corrupt(path, "label region out of bounds"))?;
        let mut labels = Vec::with_capacity(rows);
        for c in slice.chunks_exact(8) {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(c);
            let l = u64::from_le_bytes(raw);
            labels
                .push(usize::try_from(l).map_err(|_| corrupt(path, "label value exceeds usize"))?);
        }
        Ok(labels.into())
    }
}

/// Maps a spill segment back as a dataset whose columns are zero-copy
/// windows into the mapping, **verifying every checksum** (header, each
/// region, footer) in one streamed pass. The mapping is kept alive by the
/// column buffers themselves (`Arc`), so the returned dataset is
/// self-contained.
pub fn load_segment(
    schema: &Schema,
    class_names: &[String],
    path: &Path,
) -> Result<Dataset, StoreError> {
    let map = Arc::new(MappedFile::open(path)?);
    let bytes = map.bytes();
    if bytes.len() < 8 || &bytes[..8] != MAGIC_V2 {
        return Err(corrupt(path, "magic: not a spill segment"));
    }

    let rows = read_usize(bytes, 8, path, "header rows")?;
    let n_cols = read_usize(bytes, 16, path, "header column count")?;
    if n_cols != schema.arity() {
        return Err(corrupt(
            path,
            format!(
                "segment has {n_cols} columns, schema has {}",
                schema.arity()
            ),
        ));
    }
    let header_len = header_len_v2(n_cols);
    if bytes.len() < header_len {
        return Err(corrupt(path, "header: truncated"));
    }
    let stored = read_crc(bytes, header_len - 8, path, "header checksum")?;
    if crc32(&bytes[..header_len - 8]) != stored {
        return Err(corrupt(path, "header checksum mismatch"));
    }

    // Recompute the region layout from (rows, kinds) and require the
    // header to agree: offsets are derived facts, not trusted inputs.
    let mut columns_meta = Vec::with_capacity(n_cols);
    let mut cursor = header_len;
    for a in 0..n_cols {
        let kind = read_u64(bytes, 24 + 24 * a, path, "column kind")?;
        let offset = read_usize(bytes, 32 + 24 * a, path, "column offset")?;
        let crc = read_crc(bytes, 40 + 24 * a, path, "column checksum")?;
        if offset != cursor {
            return Err(corrupt(path, format!("column {a} offset mismatch")));
        }
        let elem = match kind {
            KIND_NUM => 8,
            KIND_NOMINAL => 4,
            _ => return Err(corrupt(path, format!("column {a} has unknown kind {kind}"))),
        };
        let end = rows
            .checked_mul(elem)
            .and_then(|n| n.checked_add(cursor))
            .ok_or_else(|| corrupt(path, format!("column {a} region length overflow")))?;
        let padded_end = align8(end);
        columns_meta.push((kind, offset, crc, padded_end));
        cursor = padded_end;
    }
    let labels_offset = read_usize(bytes, 24 + 24 * n_cols, path, "labels offset")?;
    let labels_crc = read_crc(bytes, 32 + 24 * n_cols, path, "labels checksum")?;
    if labels_offset != cursor {
        return Err(corrupt(path, "labels offset mismatch"));
    }
    let labels_end = rows
        .checked_mul(8)
        .and_then(|n| n.checked_add(labels_offset))
        .ok_or_else(|| corrupt(path, "labels region length overflow"))?;
    let expected_len = labels_end
        .checked_add(8)
        .ok_or_else(|| corrupt(path, "file length overflow"))?;
    if bytes.len() != expected_len {
        return Err(corrupt(
            path,
            format!(
                "file is {} bytes, layout requires {expected_len} (truncated or padded)",
                bytes.len()
            ),
        ));
    }

    // One streamed pass: footer binds header + region checksums, then
    // each region is checksummed over the mapped bytes (the kernel
    // pages them in sequentially — this is the verification cost the
    // ingest bench bounds at < 10%).
    let stored_file_crc = read_crc(bytes, labels_end, path, "footer checksum")?;
    let mut expect = Crc32::new();
    expect.update(&bytes[..header_len]);
    for &(_, _, crc, _) in &columns_meta {
        expect.update(&u64::from(crc).to_le_bytes());
    }
    expect.update(&u64::from(labels_crc).to_le_bytes());
    if expect.finish() != stored_file_crc {
        return Err(corrupt(path, "footer checksum mismatch"));
    }
    for (a, &(_, offset, crc, padded_end)) in columns_meta.iter().enumerate() {
        if crc32(&bytes[offset..padded_end]) != crc {
            return Err(corrupt(path, format!("column {a} data checksum mismatch")));
        }
    }
    if crc32(&bytes[labels_offset..labels_end]) != labels_crc {
        return Err(corrupt(path, "labels data checksum mismatch"));
    }

    let mut columns = Vec::with_capacity(n_cols);
    for (a, &(kind, offset, _, _)) in columns_meta.iter().enumerate() {
        let col = match (kind, &schema.attribute(a).kind) {
            (KIND_NUM, AttrKind::Numeric) => Column::Num(num_buf(&map, offset, rows, path)?),
            (KIND_NOMINAL, AttrKind::Nominal { .. }) => {
                Column::Nominal(nominal_buf(&map, offset, rows, path)?)
            }
            _ => {
                return Err(corrupt(
                    path,
                    format!("segment column {a} kind {kind} does not match the schema"),
                ))
            }
        };
        columns.push(col);
    }
    let labels = label_buf(&map, labels_offset, rows, path)?;

    Dataset::from_shared_parts(schema.clone(), class_names.to_vec(), columns, labels)
        .map_err(|e| corrupt(path, format!("segment does not fit the schema: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_tabular::{Attribute, Value};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "nr-store-seg-{}-{tag}-{n}.nrseg",
            std::process::id()
        ))
    }

    fn toy(n: usize) -> Dataset {
        let schema = Schema::new(vec![
            Attribute::numeric("x"),
            Attribute::nominal_anon("c", 3),
            Attribute::numeric("y"),
        ]);
        let mut ds = Dataset::new(schema, vec!["A".into(), "B".into()]);
        for i in 0..n {
            ds.push(
                vec![
                    Value::Num(i as f64 * 1.25),
                    Value::Nominal((i % 3) as u32),
                    Value::Num(-(i as f64)),
                ],
                i % 2,
            )
            .unwrap();
        }
        ds
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        // Odd row count exercises the u32-region padding.
        for n in [0, 1, 7] {
            let ds = toy(n);
            let path = temp_path("roundtrip");
            let meta = write_segment(&ds, &path).unwrap();
            assert_eq!(meta.bytes, std::fs::metadata(&path).unwrap().len());
            assert_eq!(meta.rows, n as u64);
            assert_eq!(segment_file_crc(&path).unwrap(), meta.file_crc);
            let back = load_segment(ds.schema(), ds.class_names(), &path).unwrap();
            assert_eq!(ds, back, "{n} rows");
            assert_eq!(back.column(0).is_shared(), cfg!(target_endian = "little"));
            drop(back);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn rejects_foreign_files_and_schema_mismatch() {
        let path = temp_path("reject");
        std::fs::write(&path, b"definitely not a segment").unwrap();
        let ds = toy(1);
        assert!(load_segment(ds.schema(), ds.class_names(), &path).is_err());
        // A real segment loaded under the wrong schema is rejected too.
        write_segment(&ds, &path).unwrap();
        let wrong = Schema::new(vec![Attribute::numeric("x")]);
        assert!(load_segment(&wrong, ds.class_names(), &path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_bit_flip_is_a_corrupt_error() {
        let ds = toy(7);
        let path = temp_path("flip");
        write_segment(&ds, &path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Walk the whole file — header, data, padding, footer — flipping
        // one bit per byte position (stride keeps the test fast while
        // still covering every section).
        for byte in (0..clean.len()).step_by(3) {
            let mut bad = clean.clone();
            bad[byte] ^= 1 << (byte % 8);
            std::fs::write(&path, &bad).unwrap();
            let got = load_segment(ds.schema(), ds.class_names(), &path);
            match got {
                Err(StoreError::Corrupt { .. }) => {}
                Err(other) => panic!("flip at {byte}: wrong error variant {other}"),
                Ok(back) => panic!(
                    "flip at {byte}: loaded without error (data equal to original: {})",
                    back == ds
                ),
            }
        }
        // Truncations at every prefix length (sampled) fail cleanly too.
        for keep in (0..clean.len()).step_by(7) {
            std::fs::write(&path, &clean[..keep]).unwrap();
            assert!(
                matches!(
                    load_segment(ds.schema(), ds.class_names(), &path),
                    Err(StoreError::Corrupt { .. })
                ),
                "truncation to {keep} bytes must be Corrupt"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}
