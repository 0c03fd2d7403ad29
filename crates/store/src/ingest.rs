//! Parallel chunked CSV ingest into a segmented store.
//!
//! The input is split at **line boundaries near fixed byte targets** —
//! the chunk grid depends only on the bytes, never on the thread count —
//! then chunks parse concurrently on the shared `nr-nn` worker pool
//! ([`nr_nn::map_indexed_scoped`]) and are appended to the
//! [`SegmentWriter`] strictly in chunk order. Parsing semantics are
//! [`nr_tabular::parse_csv_block`], the same cell semantics as
//! [`nr_tabular::read_csv_streaming`] — so the result is **bit-identical
//! to the serial streaming reader at any thread count**, degrading to the
//! serial arm on single-core hosts (`resolve_threads` returns 1 and
//! everything runs inline).
//!
//! Ingesting from a file maps it first ([`crate::MappedFile`]): chunk
//! parsing then streams straight out of the page cache, so peak heap is
//! parse staging plus the open segment — not the file.

use std::path::Path;

use nr_nn::{map_indexed_scoped, resolve_threads};
use nr_tabular::{parse_csv_block, ClassId, Column, Schema, TabularError};

use crate::manifest::{Manifest, SourceStamp};
use crate::mmap::MappedFile;
use crate::store::open_parts;
use crate::{SegmentWriter, SegmentedDataset, SpillMode, StoreConfig, StoreError};

/// Byte target per parse chunk. Fixed (never derived from the thread
/// count) so the chunk grid — and therefore every append boundary — is a
/// pure function of the input bytes.
pub const INGEST_CHUNK_BYTES: usize = 1 << 20;

/// Splits `body` into ranges of roughly [`INGEST_CHUNK_BYTES`] that end
/// on line boundaries (each range ends just after a `\n`, except possibly
/// the last).
pub(crate) fn chunk_ranges(body: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < body.len() {
        let mut end = (start + INGEST_CHUNK_BYTES).min(body.len());
        if end < body.len() {
            match body[end..].iter().position(|&b| b == b'\n') {
                Some(p) => end += p + 1,
                None => end = body.len(),
            }
        }
        out.push(start..end);
        start = end;
    }
    out
}

/// Validates the header line and returns the byte offset where the body
/// starts.
pub(crate) fn check_header(schema: &Schema, data: &[u8]) -> Result<usize, StoreError> {
    let csv_err = |msg: String| TabularError::Csv { line: 1, msg };
    let (header, body_start) = match data.iter().position(|&b| b == b'\n') {
        Some(p) => (&data[..p], p + 1),
        None if data.is_empty() => return Err(csv_err("missing header".into()).into()),
        None => (data, data.len()),
    };
    let header =
        std::str::from_utf8(header).map_err(|e| csv_err(format!("header not UTF-8: {e}")))?;
    let header = header.strip_suffix('\r').unwrap_or(header);
    let cols = header.split(',').count();
    if cols != schema.arity() + 1 {
        return Err(csv_err(format!(
            "header has {} columns, expected {}",
            cols,
            schema.arity() + 1
        ))
        .into());
    }
    Ok(body_start)
}

/// One parsed chunk: the columns + labels, or the error with a line
/// number **relative to the chunk**, plus the chunk's newline count so
/// absolute line numbers can be reconstructed in order.
type ParsedChunk = (Result<(Vec<Column>, Vec<ClassId>), TabularError>, usize);

/// Chunk-parallel core shared by the plain and dictionary ingests: split
/// `body` on the fixed chunk grid, run `parse` over the chunks on the
/// pool, and append results **strictly in chunk order** — which is what
/// makes the output independent of which pool thread parsed which chunk.
///
/// `parse` reports errors with chunk-relative line numbers (the
/// convention of [`parse_csv_block`] with `first_line = 0`); they are
/// made absolute here, where the preceding chunks' newline counts are in
/// hand.
pub(crate) fn ingest_parsed_body<F>(
    schema: Schema,
    class_names: Vec<String>,
    body: &[u8],
    config: StoreConfig,
    parse: F,
) -> Result<SegmentedDataset, StoreError>
where
    F: Fn(&[u8]) -> Result<(Vec<Column>, Vec<ClassId>), TabularError> + Send + Sync,
{
    let writer = SegmentWriter::new(schema, class_names, config.clone())?;
    drive_ingest(writer, body, &config, 2, parse) // line 1 is the header
}

/// The wave loop behind every ingest, parameterized over an
/// already-seeded writer and the absolute line number of `body`'s first
/// line (2 for a fresh ingest; higher after a resume skipped committed
/// rows).
fn drive_ingest<F>(
    mut writer: SegmentWriter,
    body: &[u8],
    config: &StoreConfig,
    mut first_line: usize,
    parse: F,
) -> Result<SegmentedDataset, StoreError>
where
    F: Fn(&[u8]) -> Result<(Vec<Column>, Vec<ClassId>), TabularError> + Send + Sync,
{
    let chunks = chunk_ranges(body);

    // Bounded waves: parse a few chunks per worker concurrently, append
    // them in chunk order, seal/spill, then move to the next wave. One
    // wave of parsed columns is all that is ever live — mapping every
    // chunk up front would materialize the whole dataset on the heap and
    // defeat the out-of-core bound. The chunk grid, the per-chunk parse,
    // and the global append order are all unchanged by the wave size, so
    // the output stays bit-identical at any thread count.
    let wave = resolve_threads(config.threads, chunks.len()) * 4;
    for wave_chunks in chunks.chunks(wave.max(1)) {
        let parsed: Vec<ParsedChunk> = map_indexed_scoped(wave_chunks.len(), config.threads, |k| {
            let block = &body[wave_chunks[k].clone()];
            let newlines = block.iter().filter(|&&b| b == b'\n').count();
            (parse(block), newlines)
        });
        for (result, newlines) in parsed {
            match result {
                Ok((columns, labels)) => writer.append_columns(columns, labels)?,
                Err(TabularError::Csv { line, msg }) => {
                    return Err(TabularError::Csv {
                        line: first_line + line,
                        msg,
                    }
                    .into())
                }
                Err(other) => return Err(other.into()),
            }
            first_line += newlines;
        }
    }
    writer.finish()
}

/// Ingests CSV bytes (header + rows, the [`nr_tabular::write_csv`]
/// format) into a segmented store, parsing chunks in parallel per
/// `config.threads`.
pub fn ingest_csv_bytes(
    schema: Schema,
    class_names: Vec<String>,
    data: &[u8],
    config: StoreConfig,
) -> Result<SegmentedDataset, StoreError> {
    let body_start = check_header(&schema, data)?;
    let body = &data[body_start..];
    let parse_schema = schema.clone();
    let parse_classes = class_names.clone();
    ingest_parsed_body(schema, class_names, body, config, move |block| {
        parse_csv_block(&parse_schema, &parse_classes, block, 0)
    })
}

/// Ingests a CSV file by mapping it and parsing the mapped bytes in
/// parallel — the out-of-core ingest path (see module docs).
pub fn ingest_csv_file(
    schema: Schema,
    class_names: Vec<String>,
    path: &Path,
    config: StoreConfig,
) -> Result<SegmentedDataset, StoreError> {
    let map = MappedFile::open(path)?;
    ingest_csv_bytes(schema, class_names, map.bytes(), config)
}

/// What a resumable ingest recovered before it started parsing.
#[derive(Debug)]
pub struct ResumedIngest {
    /// The finished (durable) store.
    pub store: SegmentedDataset,
    /// Rows recovered from the journal instead of re-parsed.
    pub resumed_rows: usize,
    /// Stray crash-leftover files moved to quarantine during recovery.
    pub quarantined: usize,
}

/// Advances past the first `n` CSV *rows* of `body`, returning the byte
/// offset just past the n-th row and the number of newlines consumed.
/// Row accounting mirrors [`parse_csv_block`] exactly: lines split on
/// `\n`, a trailing `\r` is stripped, and a line that is then empty is
/// *not* a row — so a resume skips precisely the rows the parser would
/// have produced, keeping the output bit-identical.
fn skip_rows(body: &[u8], n: usize, path: &Path) -> Result<(usize, usize), StoreError> {
    let mut rows = 0usize;
    let mut newlines = 0usize;
    let mut offset = 0usize;
    while rows < n {
        if offset >= body.len() {
            return Err(StoreError::Corrupt {
                path: path.to_path_buf(),
                section: format!(
                    "journal claims {n} committed rows but the source holds only {rows}"
                ),
            });
        }
        let end = body[offset..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|p| offset + p)
            .unwrap_or(body.len());
        let mut line = &body[offset..end];
        if let [head @ .., b'\r'] = line {
            line = head;
        }
        if !line.is_empty() {
            rows += 1;
        }
        if end < body.len() {
            newlines += 1;
            offset = end + 1;
        } else {
            offset = body.len();
        }
    }
    Ok((offset, newlines))
}

/// [`ingest_csv_file`], crash-safe and resumable: the spill directory is
/// journaled (durable mode is forced on), and if it already holds a
/// matching journal — same schema, classes, segment size, and source
/// stamp — the committed segments are recovered, the corresponding source
/// rows skipped, and parsing continues from there. Because segment
/// boundaries are pure functions of the global row index and appends are
/// strictly ordered, the finished store is **bit-identical** to an
/// uninterrupted run, whatever the kill point. A journal for a
/// *different* source (or a corrupt one) is a clean `Err`, never silent
/// mixing.
pub fn ingest_csv_file_resumable(
    schema: Schema,
    class_names: Vec<String>,
    path: &Path,
    config: StoreConfig,
) -> Result<ResumedIngest, StoreError> {
    let dir = match &config.spill {
        SpillMode::Disk(dir) => dir.clone(),
        SpillMode::InRam => {
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "resumable ingest requires a spill directory",
            )))
        }
    };
    let config = config.with_durable(true);
    let map = MappedFile::open(path)?;
    let data = map.bytes();
    let body_start = check_header(&schema, data)?;
    let body = &data[body_start..];
    let stamp = SourceStamp::of(data);

    let parse_schema = schema.clone();
    let parse_classes = class_names.clone();
    let parse = move |block: &[u8]| parse_csv_block(&parse_schema, &parse_classes, block, 0);

    let existing = Manifest::load(&dir)?;
    let Some(m) = existing else {
        // Fresh directory: journal from row zero.
        let mut writer = SegmentWriter::new(schema, class_names, config.clone())?;
        writer.set_source(stamp)?;
        let store = drive_ingest(writer, body, &config, 2, parse)?;
        return Ok(ResumedIngest {
            store,
            resumed_rows: 0,
            quarantined: 0,
        });
    };

    // The journal must describe *this* ingest, or resuming would splice
    // two datasets together silently.
    let mpath = Manifest::path_in(&dir);
    let mismatch = |what: &str| StoreError::Corrupt {
        path: mpath.clone(),
        section: format!("journal does not match this ingest: {what}"),
    };
    if m.schema != schema || m.class_names != class_names {
        return Err(mismatch("different schema or classes"));
    }
    if m.seg_rows != config.seg_rows as u64 {
        return Err(mismatch("different segment size"));
    }
    match &m.source {
        Some(s) if *s == stamp => {}
        Some(_) => return Err(mismatch("different source file")),
        None if m.rows_committed == 0 => {} // crashed before the stamp committed
        None => return Err(mismatch("committed rows but no source stamp")),
    }
    if !m.complete {
        if let Some(last) = m.segments.last() {
            if last.rows != m.seg_rows {
                // Guarded against in the writer (completion rides the
                // tail's commit), so reaching this means a hand-edited
                // or corrupted journal.
                return Err(mismatch("incomplete journal lists a partial segment"));
            }
        }
    }

    let (manifest, segments, spill_files, quarantined) = open_parts(&dir)?;
    let resumed_rows =
        usize::try_from(manifest.rows_committed).map_err(|_| StoreError::Corrupt {
            path: mpath.clone(),
            section: "rows_committed exceeds usize".into(),
        })?;
    if manifest.complete {
        // Nothing to do — the previous run finished. Reopen and return.
        let store =
            SegmentedDataset::from_parts(&dir, manifest, segments, spill_files, quarantined)?;
        return Ok(ResumedIngest {
            store,
            resumed_rows,
            quarantined,
        });
    }

    let (offset, newlines) = skip_rows(body, resumed_rows, path)?;
    let mut writer = SegmentWriter::resume(manifest, segments, spill_files, config.clone());
    writer.set_source(stamp)?;
    let store = drive_ingest(writer, &body[offset..], &config, 2 + newlines, parse)?;
    Ok(ResumedIngest {
        store,
        resumed_rows,
        quarantined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_tabular::{read_csv_streaming, Attribute, Dataset, Value};

    fn toy(n: usize) -> Dataset {
        let schema = Schema::new(vec![
            Attribute::numeric("x"),
            Attribute::nominal("color", ["red", "green", "blue"]),
        ]);
        let mut ds = Dataset::new(schema, vec!["A".into(), "B".into()]);
        for i in 0..n {
            ds.push(
                vec![Value::Num(i as f64 * 0.5), Value::Nominal((i % 3) as u32)],
                i % 2,
            )
            .unwrap();
        }
        ds
    }

    fn csv_of(ds: &Dataset) -> Vec<u8> {
        let mut buf = Vec::new();
        nr_tabular::write_csv(ds, &mut buf).unwrap();
        buf
    }

    #[test]
    fn matches_streaming_reader_at_any_thread_count() {
        let ds = toy(997);
        let csv = csv_of(&ds);
        let serial =
            read_csv_streaming(ds.schema().clone(), ds.class_names().to_vec(), &csv[..]).unwrap();
        assert_eq!(serial, ds);
        for threads in [1, 2, 4] {
            let store = ingest_csv_bytes(
                ds.schema().clone(),
                ds.class_names().to_vec(),
                &csv,
                StoreConfig::in_ram(100).with_threads(threads),
            )
            .unwrap();
            assert_eq!(store.to_dataset().unwrap(), serial, "{threads} threads");
        }
    }

    #[test]
    fn chunk_grid_is_line_aligned_and_covers_body() {
        let mut body = Vec::new();
        // Long lines force mid-line byte targets.
        for i in 0..3000 {
            body.extend_from_slice(format!("{i},{}\n", "x".repeat(700)).as_bytes());
        }
        let ranges = chunk_ranges(&body);
        assert!(ranges.len() > 1, "input should split");
        let mut covered = 0;
        for r in &ranges {
            assert_eq!(r.start, covered);
            assert_eq!(body[r.end - 1], b'\n', "chunk must end at a line boundary");
            covered = r.end;
        }
        assert_eq!(covered, body.len());
    }

    #[test]
    fn errors_carry_absolute_line_numbers() {
        let ds = toy(10);
        let mut text = String::from_utf8(csv_of(&ds)).unwrap();
        text.push_str("oops,red,A\n"); // line 12: header + 10 rows + this
        let err = ingest_csv_bytes(
            ds.schema().clone(),
            ds.class_names().to_vec(),
            text.as_bytes(),
            StoreConfig::in_ram(100),
        )
        .unwrap_err();
        match err {
            StoreError::Tabular(TabularError::Csv { line, .. }) => assert_eq!(line, 12),
            other => panic!("expected csv error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_headers_and_empty_input() {
        let ds = toy(1);
        for bad in [&b""[..], &b"x,class\n1.0,A\n"[..]] {
            assert!(ingest_csv_bytes(
                ds.schema().clone(),
                ds.class_names().to_vec(),
                bad,
                StoreConfig::default(),
            )
            .is_err());
        }
        // A header with no rows is a valid empty store.
        let empty = ingest_csv_bytes(
            ds.schema().clone(),
            ds.class_names().to_vec(),
            b"x,color,class\n",
            StoreConfig::default(),
        )
        .unwrap();
        assert_eq!(empty.rows(), 0);
    }

    #[test]
    fn file_ingest_matches_bytes_ingest() {
        let ds = toy(123);
        let csv = csv_of(&ds);
        let path = std::env::temp_dir().join(format!(
            "nr-store-ingest-{}-{}.csv",
            std::process::id(),
            line!()
        ));
        std::fs::write(&path, &csv).unwrap();
        let store = ingest_csv_file(
            ds.schema().clone(),
            ds.class_names().to_vec(),
            &path,
            StoreConfig::in_ram(50),
        )
        .unwrap();
        assert_eq!(store.to_dataset().unwrap(), ds);
        std::fs::remove_file(&path).unwrap();
    }
}
