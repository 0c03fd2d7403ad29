//! Parallel chunked CSV ingest into a segmented store.
//!
//! The input is split at **line boundaries near fixed byte targets** —
//! the chunk grid depends only on the bytes, never on the thread count —
//! then chunks parse concurrently on the shared `nr-nn` worker pool
//! ([`nr_nn::map_indexed_scoped`]) in bounded waves. Parsing semantics are
//! [`nr_tabular::parse_csv_block`], the row parser behind
//! [`nr_tabular::read_csv_streaming`] too — so the result is
//! **bit-identical to the serial streaming reader at any thread count**.
//!
//! # The sealer thread
//!
//! Appending, sealing, spilling, seal-time verification and journal
//! commits run on **one** scoped sealer thread, fed each parsed wave over
//! a rendezvous channel: the pool parses wave `k + 1` while wave `k` is
//! sealed, so neither side idles on the other and at most two waves are
//! live. The order guarantee is unchanged: the sealer appends chunks
//! strictly in chunk order and seals segments one at a time, in index
//! order, so spill files, journal commits and crash points happen in
//! exactly the order of a serial ingest. A sealer error stops the parse
//! side at its next hand-over (no hang, no later seal); a parse error
//! reaches the caller only once every chunk before it has been appended,
//! with its absolute line number. With one worker (`threads = 1`, or a
//! single-core host) parsing runs inline on the calling thread, still
//! alongside the sealer.
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

/// Chunks parsed per pool worker in one wave. At most two waves are live
/// (one parsing, one sealing), so this bounds the parse staging on the
/// heap; the parse side often finishes a wave while the sealer still
/// holds part of the previous one, so the peak is near two full waves.
pub(crate) const WAVE_CHUNKS_PER_WORKER: usize = 3;

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

/// One parsed chunk: the columns, labels and the chunk's newline count
/// (so absolute line numbers can be reconstructed in order), or the error
/// with a line number **relative to the chunk**.
type ParsedChunk = Result<(Vec<Column>, Vec<ClassId>, usize), TabularError>;

/// Chunk-parallel core shared by the plain and dictionary ingests: split
/// `body` on the fixed chunk grid, parse the chunks on the pool with
/// [`parse_csv_block`] against `schema`, and append results **strictly
/// in chunk order** on the sealer thread — which is what makes the
/// output independent of which pool thread parsed which chunk.
///
/// Each chunk is parsed with `first_line = 0`, so its errors carry
/// chunk-relative line numbers; they are made absolute here, from the
/// newline counts of the preceding chunks.
pub(crate) fn ingest_parsed_body(
    schema: Schema,
    class_names: Vec<String>,
    body: &[u8],
    config: StoreConfig,
) -> Result<SegmentedDataset, StoreError> {
    let writer = SegmentWriter::new(schema, class_names, config.clone())?;
    drive_ingest(writer, body, &config, 2) // line 1 is the header
}

/// The wave loop behind every ingest, parameterized over an
/// already-seeded writer and the absolute line number of `body`'s first
/// line (2 for a fresh ingest; higher after a resume skipped committed
/// rows).
///
/// The pool parses wave `k + 1` while one sealer thread appends wave `k`
/// (see the module docs); [`SegmentWriter::finish`] runs on the calling
/// thread once every wave has been handed over and appended.
fn drive_ingest(
    writer: SegmentWriter,
    body: &[u8],
    config: &StoreConfig,
    first_line: usize,
) -> Result<SegmentedDataset, StoreError> {
    let chunks = chunk_ranges(body);
    // The pool parses against the writer's own schema; the writer itself
    // moves to the sealer thread.
    let schema = writer.schema().clone();
    let class_names = writer.class_names().to_vec();

    // Bounded waves: parse a few chunks per worker concurrently and hand
    // the wave to the sealer. Mapping every chunk up front would
    // materialize the whole dataset on the heap and defeat the
    // out-of-core bound; with a rendezvous channel at most two waves are
    // live (one being sealed, one being parsed). The chunk grid, the
    // per-chunk parse, and the global append order are all unchanged by
    // the wave size, so the output stays bit-identical at any thread
    // count.
    let wave = resolve_threads(config.threads, chunks.len()) * WAVE_CHUNKS_PER_WORKER;
    let (waves, sealed) = std::sync::mpsc::sync_channel::<Vec<ParsedChunk>>(0);
    let writer = std::thread::scope(|scope| {
        let sealer = scope.spawn(move || seal_waves(writer, first_line, sealed));
        for wave_chunks in chunks.chunks(wave.max(1)) {
            let parsed: Vec<ParsedChunk> =
                map_indexed_scoped(wave_chunks.len(), config.threads, |k| {
                    parse_csv_block(&schema, &class_names, &body[wave_chunks[k].clone()], 0)
                });
            if waves.send(parsed).is_err() {
                break; // the sealer stopped on an error; join reports it
            }
        }
        drop(waves);
        sealer
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })?;
    writer.finish()
}

/// The sealer thread: appends each received wave to `writer` strictly in
/// chunk order (sealing, spilling and journaling segments as they fill),
/// turning chunk-relative parse errors into absolute line numbers.
/// Returns the writer unfinished once the parse side hangs up, or the
/// first error — which drops the receiver, so the parse side stops at its
/// next hand-over instead of blocking.
fn seal_waves(
    mut writer: SegmentWriter,
    mut first_line: usize,
    waves: std::sync::mpsc::Receiver<Vec<ParsedChunk>>,
) -> Result<SegmentWriter, StoreError> {
    for parsed in waves {
        for result in parsed {
            match result {
                Ok((columns, labels, newlines)) => {
                    writer.append_columns(columns, labels)?;
                    first_line += newlines;
                }
                Err(TabularError::Csv { line, msg }) => {
                    return Err(TabularError::Csv {
                        line: first_line + line,
                        msg,
                    }
                    .into())
                }
                Err(other) => return Err(other.into()),
            }
        }
    }
    Ok(writer)
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
    let body_start = nr_tabular::check_header(&schema, data)?;
    ingest_parsed_body(schema, class_names, &data[body_start..], config)
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
    let body_start = nr_tabular::check_header(&schema, data)?;
    let body = &data[body_start..];
    let stamp = SourceStamp::of(data);

    let existing = Manifest::load(&dir)?;
    let Some(m) = existing else {
        // Fresh directory: journal from row zero.
        let mut writer = SegmentWriter::new(schema, class_names, config.clone())?;
        writer.set_source(stamp)?;
        let store = drive_ingest(writer, body, &config, 2)?;
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
    let store = drive_ingest(writer, &body[offset..], &config, 2 + newlines)?;
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
