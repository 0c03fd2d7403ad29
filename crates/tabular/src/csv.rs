//! CSV ingest and export for datasets.
//!
//! Format: header row of attribute names plus a final `class` column; nominal
//! values are written as category names, numerics with full precision. This
//! is a deliberately small hand-rolled reader/writer (the pre-approved crate
//! set has no CSV crate and the format we need is a strict subset: no quoting
//! or embedded commas — generated identifiers never contain either).
//!
//! Every reader goes through **one row parser**. A block of rows is
//! validated as UTF-8 once, its newlines are counted (eight bytes at a
//! time) to size the columns exactly, and then one forward scan
//! ([`CsvScanner`]) finds each next `b','` or `b'\n'` eight bytes at a
//! time and decodes each cell as soon as its delimiter is found, so every
//! byte is split once (lines and cells split exactly like `str::split`).
//! Numbers decode with `str::parse::<f64>`, nominal and class cells
//! through name tables built once per parse from the schema (first match
//! wins, as a `position` scan would). Cells are trimmed with `str::trim`,
//! skipped when a cell's first and last bytes are printable ASCII and so
//! cannot be whitespace. [`parse_csv_block`] is that parser over one
//! in-memory block (the unit of `nr-store`'s parallel ingest), and it
//! hands back the block's newline count so the caller can number the
//! next block's lines; [`read_csv_streaming`] feeds it line-aligned
//! blocks read from a [`BufRead`] and bulk-appends each block's columns
//! ([`Dataset::append_columns`]), so peak memory beyond the dataset is one
//! block of staging. [`parse_row`] (one label-free row, the serving path)
//! splits with the same scanner, on `,` only, and shares the cell
//! semantics ([`parse_csv_cell`]) but builds no tables. Parse errors carry
//! the 1-based line number ([`TabularError::Csv`]).

use std::collections::HashMap;
use std::io::{BufRead, Write};

use crate::{AttrKind, ClassId, Column, Dataset, Schema, TabularError, Value};

/// Bytes of input staged per parse block by [`read_csv_streaming`]
/// (rounded up to the end of the line that crosses it). Bounds the
/// staging memory while keeping per-append validation amortized.
const BLOCK_BYTES: usize = 256 * 1024;

/// Writes `ds` as CSV to `out`.
pub fn write_csv<W: Write>(ds: &Dataset, out: &mut W) -> std::io::Result<()> {
    write_csv_header(ds.schema(), out)?;
    write_csv_rows(ds, out)
}

/// Writes the header line for `schema` (attribute names plus `class`).
/// Split out from [`write_csv`] so chunked producers (the datagen
/// streaming writer) can emit the identical format without materializing
/// the whole dataset.
pub fn write_csv_header<W: Write>(schema: &Schema, out: &mut W) -> std::io::Result<()> {
    let names: Vec<&str> = schema
        .attributes()
        .iter()
        .map(|a| a.name.as_str())
        .chain(std::iter::once("class"))
        .collect();
    writeln!(out, "{}", names.join(","))
}

/// Writes the data rows of `ds` (no header) in [`write_csv`]'s row
/// format — the chunk-append counterpart of [`write_csv_header`].
pub fn write_csv_rows<W: Write>(ds: &Dataset, out: &mut W) -> std::io::Result<()> {
    for i in 0..ds.len() {
        for (a, attr) in ds.schema().attributes().iter().enumerate() {
            match (&attr.kind, ds.column(a)) {
                (AttrKind::Nominal { categories }, Column::Nominal(codes)) => {
                    write!(out, "{},", categories[codes[i] as usize])?
                }
                (_, col) => write!(out, "{},", col.value(i))?,
            }
        }
        writeln!(out, "{}", ds.class_names()[ds.label(i)])?;
    }
    Ok(())
}

/// Reads a dataset written by [`write_csv`] with constant staging memory:
/// line-aligned blocks of about 256 KiB are read from `input`,
/// parsed by the block parser, and bulk-appended.
///
/// Errors carry the 1-based line number of the offending row (the header is
/// line 1), so a malformed row in the middle of a million-row file is
/// reported precisely — and nothing after it is ingested.
pub fn read_csv_streaming<R: BufRead>(
    schema: Schema,
    class_names: Vec<String>,
    mut input: R,
) -> crate::Result<Dataset> {
    let csv_err = |line: usize, msg: String| TabularError::Csv { line, msg };
    let mut header = Vec::new();
    input
        .read_until(b'\n', &mut header)
        .map_err(|e| csv_err(1, e.to_string()))?;
    check_header(&schema, &header)?;

    let mut ds = Dataset::new(schema.clone(), class_names.clone());
    let parser = BlockParser::new(&schema, &class_names);
    let mut block = Vec::with_capacity(BLOCK_BYTES);
    let mut first_line = 2; // the line after the header
    loop {
        block.clear();
        read_block(&mut input, &mut block).map_err(|e| csv_err(first_line, e.to_string()))?;
        if block.is_empty() {
            return Ok(ds);
        }
        // Any error aborts the whole read (the partial dataset is
        // dropped), so a half-parsed block can never leak out.
        let (columns, labels, newlines) = parser.parse(&block, first_line)?;
        // The parser validated every cell, so this only fails on logic
        // errors; map them to the block's first line for diagnosability.
        ds.append_columns(columns, labels)
            .map_err(|e| csv_err(first_line, format!("chunk append failed: {e}")))?;
        first_line += newlines;
    }
}

/// Validates the header line at the start of `data` and returns the byte
/// offset where the body starts. The header must be UTF-8 (a trailing
/// `\r` is dropped) and name one column per attribute plus the class.
/// Every error is reported at line 1.
pub fn check_header(schema: &Schema, data: &[u8]) -> crate::Result<usize> {
    let csv_err = |msg: String| TabularError::Csv { line: 1, msg };
    let (header, body_start) = match data.iter().position(|&b| b == b'\n') {
        Some(p) => (&data[..p], p + 1),
        None if data.is_empty() => return Err(csv_err("missing header".into())),
        None => (data, data.len()),
    };
    let header =
        std::str::from_utf8(header).map_err(|e| csv_err(format!("header not UTF-8: {e}")))?;
    let cols = strip_cr(header).split(',').count();
    if cols != schema.arity() + 1 {
        return Err(csv_err(format!(
            "header has {} columns, expected {}",
            cols,
            schema.arity() + 1
        )));
    }
    Ok(body_start)
}

/// Appends about [`BLOCK_BYTES`] of `input` to `block`, then the rest of
/// the line that crosses the target, so a block always ends on a line
/// boundary (or at the end of the input).
fn read_block<R: BufRead>(input: &mut R, block: &mut Vec<u8>) -> std::io::Result<()> {
    while block.len() < BLOCK_BYTES {
        let available = match input.fill_buf() {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(());
        }
        let take = available.len().min(BLOCK_BYTES - block.len());
        block.extend_from_slice(&available[..take]);
        input.consume(take);
    }
    if block.last() != Some(&b'\n') {
        input.read_until(b'\n', block)?;
    }
    Ok(())
}

/// `0x01` in every byte of a word.
const LO: u64 = u64::from_le_bytes([0x01; 8]);
/// `0x7F` in every byte of a word.
const LOW7: u64 = u64::from_le_bytes([0x7F; 8]);
/// `0x80` in every byte of a word.
const HI: u64 = u64::from_le_bytes([0x80; 8]);
/// `b','` in every byte of a word.
const COMMAS: u64 = LO * b',' as u64;
/// `b'\n'` in every byte of a word.
const NEWLINES: u64 = LO * b'\n' as u64;

/// The eight bytes of `bytes` at `at` as a little-endian word, so the
/// lowest-addressed byte is the least significant.
fn word(bytes: &[u8], at: usize) -> Option<u64> {
    let eight = bytes.get(at..at + 8)?;
    Some(u64::from_le_bytes(eight.try_into().expect("eight bytes")))
}

/// Flags (with `0x80`) the zero bytes of `x`, and possibly bytes above a
/// zero byte: a borrow out of a zero byte can flag a `0x01` above it.
/// Only the lowest flag is exact, so this may only locate a first match.
fn lowest_zero_byte(x: u64) -> u64 {
    x.wrapping_sub(LO) & !x & HI
}

/// Flags (with `0x80`) exactly the zero bytes of `x`: no carry crosses a
/// byte, so every flag is a match and every match is flagged.
fn zero_bytes(x: u64) -> u64 {
    !(((x & LOW7) + LOW7) | x | LOW7) & HI
}

/// Counts the `b'\n'` bytes of `bytes`, eight at a time.
fn count_newlines(bytes: &[u8]) -> usize {
    let mut words = bytes.chunks_exact(8);
    let mut n = 0;
    for eight in &mut words {
        let x = u64::from_le_bytes(eight.try_into().expect("eight bytes"));
        n += zero_bytes(x ^ NEWLINES).count_ones() as usize;
    }
    n + words.remainder().iter().filter(|&&b| b == b'\n').count()
}

/// The index of the first cell delimiter in `bytes[from..]`, or
/// `bytes.len()` if there is none. The delimiters are `b','` and, when
/// `LINES`, `b'\n'`. Scans eight bytes at a time; a byte `>= 0x80` is
/// never a match.
#[inline]
fn find_delimiter<const LINES: bool>(bytes: &[u8], mut from: usize) -> usize {
    while let Some(x) = word(bytes, from) {
        let mut hits = lowest_zero_byte(x ^ COMMAS);
        if LINES {
            hits |= lowest_zero_byte(x ^ NEWLINES);
        }
        if hits != 0 {
            return from + (hits.trailing_zeros() / 8) as usize;
        }
        from += 8;
    }
    bytes[from..]
        .iter()
        .position(|&b| b == b',' || (LINES && b == b'\n'))
        .map_or(bytes.len(), |p| from + p)
}

/// Drops one trailing `\r` (the remnant of a CRLF line end once the
/// line is split on `\n`).
fn strip_cr(line: &str) -> &str {
    line.strip_suffix('\r').unwrap_or(line)
}

/// The one CSV splitter behind every reader: a single forward scan over
/// a block of text that finds each cell's delimiter (`b','` or `b'\n'`)
/// eight bytes at a time and hands the cell over as soon as it is found.
///
/// Rows split exactly like `str::split`: the text into lines on `\n`,
/// one trailing `\r` stripped from each line, and a line into cells on
/// `,` (`n` commas give `n + 1` cells, empty ones included). Lines that
/// are empty once the `\r` is stripped are skipped but still counted, so
/// [`CsvScanner::line`] always names the line of the last row returned.
#[derive(Debug)]
pub struct CsvScanner<'t> {
    text: &'t str,
    /// Byte offset of the next unread byte; after a row, its `\n`.
    pos: usize,
    /// Newlines consumed so far.
    line: usize,
}

impl<'t> CsvScanner<'t> {
    /// A scanner at the start of `text`.
    pub fn new(text: &'t str) -> Self {
        CsvScanner {
            text,
            pos: 0,
            line: 0,
        }
    }

    /// The 0-based line of the row [`CsvScanner::next_row`] last
    /// returned (the number of newlines before it); once the text is
    /// exhausted, the number of newlines in the whole text.
    pub fn line(&self) -> usize {
        self.line
    }

    /// Splits the next non-empty line into exactly `expected` cells,
    /// handing each to `cell` in order; `None` once the text is
    /// exhausted. A line with too few cells fails after its last cell was
    /// accepted, naming how many it had; a line with too many fails after
    /// every expected cell was accepted; an error from `cell` stops the
    /// line at that cell. After an error the scanner moves to the end of
    /// the line (still on it, for [`CsvScanner::line`]), so the next call
    /// starts on the line after it.
    pub fn next_row(
        &mut self,
        expected: usize,
        cell: impl FnMut(usize, &'t str) -> Result<(), String>,
    ) -> Option<Result<(), String>> {
        loop {
            match &self.text.as_bytes()[self.pos..] {
                [] | [b'\r'] => {
                    self.pos = self.text.len();
                    return None;
                }
                [b'\n', ..] => self.pos += 1,
                [b'\r', b'\n', ..] => self.pos += 2,
                _ => {
                    let row = self.split_row::<true>(expected, cell);
                    if row.is_err() {
                        self.skip_line();
                    }
                    return Some(row);
                }
            }
            self.line += 1;
        }
    }

    /// Moves to the end of the current line.
    fn skip_line(&mut self) {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos += rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
    }

    /// Splits the row at the current position (see
    /// [`CsvScanner::next_row`]); on success, leaves the scanner on the
    /// row's `\n` or at the end of the text. Without `LINES` the row is
    /// the whole rest of the text and `\n` is an ordinary byte.
    fn split_row<const LINES: bool>(
        &mut self,
        expected: usize,
        mut cell: impl FnMut(usize, &'t str) -> Result<(), String>,
    ) -> Result<(), String> {
        let bytes = self.text.as_bytes();
        let mut k = 0;
        loop {
            if k == expected {
                return Err(format!("too many cells, expected {expected}"));
            }
            let end = find_delimiter::<LINES>(bytes, self.pos);
            let last = end == bytes.len() || (LINES && bytes[end] == b'\n');
            let text = &self.text[self.pos..end];
            cell(k, if last { strip_cr(text) } else { text })?;
            k += 1;
            if last {
                if k < expected {
                    return Err(format!("{k} cells, expected {expected}"));
                }
                self.pos = end;
                return Ok(());
            }
            self.pos = end + 1;
        }
    }
}

/// `str::trim`, skipped when the first and last bytes are printable ASCII:
/// such bytes are whole characters and never whitespace, so the trim
/// could not remove anything.
fn trim_cell(cell: &str) -> &str {
    match cell.as_bytes() {
        [first, .., last] if first.is_ascii_graphic() && last.is_ascii_graphic() => cell,
        [only] if only.is_ascii_graphic() => cell,
        _ => cell.trim(),
    }
}

/// A trimmed numeric cell: any `str::parse::<f64>` input except the
/// non-finite ones.
fn parse_num(cell: &str) -> Result<f64, String> {
    let x: f64 = cell
        .parse()
        .map_err(|e| format!("bad number {cell:?}: {e}"))?;
    if !x.is_finite() {
        return Err(format!("non-finite number {cell:?}"));
    }
    Ok(x)
}

/// Name → index lookup with the semantics of a `position` scan over
/// `names`: the first equal entry wins. It keeps the default, randomly
/// keyed hasher because names can come from the input (dictionary ingest
/// builds its schema from the categories it finds).
struct NameTable<'s>(HashMap<&'s str, usize>);

impl<'s> NameTable<'s> {
    fn new(names: &'s [String]) -> Self {
        let mut map = HashMap::with_capacity(names.len());
        for (i, name) in names.iter().enumerate() {
            map.entry(name.as_str()).or_insert(i);
        }
        NameTable(map)
    }

    fn get(&self, name: &str) -> Option<usize> {
        self.0.get(name).copied()
    }
}

/// The block parser: per-attribute cell decoders and the class table,
/// built once from a schema and reused for every block it parses.
struct BlockParser<'s> {
    /// Per attribute: `None` for numeric, the category table for nominal.
    categories: Vec<Option<NameTable<'s>>>,
    classes: NameTable<'s>,
}

/// One attribute's column being filled by [`BlockParser::parse`].
enum Stage<'t, 's> {
    Num(Vec<f64>),
    Nominal(&'t NameTable<'s>, Vec<u32>),
}

impl<'s> BlockParser<'s> {
    fn new(schema: &'s Schema, class_names: &'s [String]) -> Self {
        let categories = schema
            .attributes()
            .iter()
            .map(|a| match &a.kind {
                AttrKind::Numeric => None,
                AttrKind::Nominal { categories } => Some(NameTable::new(categories)),
            })
            .collect();
        BlockParser {
            categories,
            classes: NameTable::new(class_names),
        }
    }

    /// Parses a header-less block (see [`parse_csv_block`]).
    fn parse(&self, block: &[u8], first_line: usize) -> crate::Result<ParsedBlock> {
        let csv_err = |line: usize, msg: String| TabularError::Csv { line, msg };
        // One UTF-8 check for the whole block. On failure, parse the
        // lines before the offending one first (their errors come first),
        // then report that line's own `from_utf8` error.
        let (text, utf8_error) = match std::str::from_utf8(block) {
            Ok(text) => (text, None),
            Err(e) => {
                let valid = &block[..e.valid_up_to()];
                let start = valid.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
                let line = block[start..].split(|&b| b == b'\n').next();
                let msg = match line.map(std::str::from_utf8) {
                    Some(Err(line_error)) => line_error.to_string(),
                    _ => e.to_string(),
                };
                let text = std::str::from_utf8(&valid[..start])
                    .expect("a prefix of valid UTF-8 ending after a newline is valid");
                (text, Some(msg))
            }
        };
        let rows = count_newlines(text.as_bytes()) + 1;
        let mut stages: Vec<Stage<'_, 's>> = self
            .categories
            .iter()
            .map(|table| match table {
                None => Stage::Num(Vec::with_capacity(rows)),
                Some(table) => Stage::Nominal(table, Vec::with_capacity(rows)),
            })
            .collect();
        let mut labels: Vec<ClassId> = Vec::with_capacity(rows);
        let arity = stages.len();
        let mut scanner = CsvScanner::new(text);
        let mut class_cell = "";
        while let Some(row) = scanner.next_row(arity + 1, |k, cell| {
            let cell = trim_cell(cell);
            match stages.get_mut(k) {
                Some(Stage::Num(xs)) => xs.push(parse_num(cell)?),
                Some(Stage::Nominal(table, codes)) => codes.push(
                    table
                        .get(cell)
                        .ok_or_else(|| format!("unknown category {cell:?}"))?
                        as u32,
                ),
                // The class resolves after the cell count is checked, so
                // a long row reports "too many cells".
                None => class_cell = cell,
            }
            Ok(())
        }) {
            let lineno = first_line + scanner.line();
            row.map_err(|msg| csv_err(lineno, msg))?;
            let label = self
                .classes
                .get(class_cell)
                .ok_or_else(|| csv_err(lineno, format!("unknown class {class_cell:?}")))?;
            labels.push(label);
        }
        if let Some(msg) = utf8_error {
            // `text` ends just before the offending line, so the scanner
            // counted every newline up to it.
            return Err(csv_err(first_line + scanner.line(), msg));
        }
        let columns = stages
            .into_iter()
            .map(|stage| match stage {
                Stage::Num(xs) => Column::num(xs),
                Stage::Nominal(_, codes) => Column::nominal(codes),
            })
            .collect();
        Ok((columns, labels, scanner.line()))
    }
}

/// One parsed block: per-attribute columns, labels, and the number of
/// newlines the block held.
type ParsedBlock = (Vec<Column>, Vec<ClassId>, usize);

/// Parses a header-less block of CSV rows (each with a trailing class
/// column) into per-attribute column buffers plus labels — the unit of
/// work of a parallel chunked ingest — and counts the block's newlines,
/// so a caller can number the lines of the block after it. Cells mean
/// what [`parse_csv_cell`] says they mean; a trailing `\r` per line and
/// empty lines are tolerated; errors carry the absolute 1-based line
/// number `first_line + offset_within_block`, including a line that is
/// not UTF-8. The category and class tables are built once per call.
pub fn parse_csv_block(
    schema: &Schema,
    class_names: &[String],
    block: &[u8],
    first_line: usize,
) -> crate::Result<(Vec<Column>, Vec<ClassId>, usize)> {
    BlockParser::new(schema, class_names).parse(block, first_line)
}

/// Parses one CSV cell against an attribute kind — the single source of
/// cell semantics: every reader here decodes cells to exactly this value
/// or error. Surrounding whitespace is ignored (Windows tools routinely
/// pad cells, and the trailing cell of a CRLF row would otherwise carry a
/// stray `\r`).
pub fn parse_csv_cell(kind: &AttrKind, cell: &str) -> Result<Value, String> {
    let cell = trim_cell(cell);
    match kind {
        AttrKind::Numeric => parse_num(cell).map(Value::Num),
        AttrKind::Nominal { categories } => {
            let code = categories
                .iter()
                .position(|c| c == cell)
                .ok_or_else(|| format!("unknown category {cell:?}"))?;
            Ok(Value::Nominal(code as u32))
        }
    }
}

/// Parses one header-less CSV row of attribute values (no class column)
/// against `schema` — the serving ingest path, where rows arrive without
/// labels. Cells split and decode like every other reader's; nominal
/// cells resolve by a scan of the schema's categories, so one row costs
/// no table build.
pub fn parse_row(schema: &Schema, line: &str) -> Result<Vec<Value>, String> {
    let mut values = Vec::with_capacity(schema.arity());
    CsvScanner::new(line).split_row::<false>(schema.arity(), |a, cell| {
        values.push(parse_csv_cell(&schema.attribute(a).kind, cell)?);
        Ok(())
    })?;
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attribute, Value};

    fn toy() -> Dataset {
        let schema = Schema::new(vec![
            Attribute::numeric("x"),
            Attribute::nominal("color", ["red", "green"]),
        ]);
        let mut ds = Dataset::new(schema, vec!["A".into(), "B".into()]);
        ds.push(vec![Value::Num(1.5), Value::Nominal(0)], 0)
            .unwrap();
        ds.push(vec![Value::Num(-2.0), Value::Nominal(1)], 1)
            .unwrap();
        ds
    }

    /// More rows than one parse block holds (every test row is at least
    /// four bytes long).
    const ROWS_PAST_A_BLOCK: usize = BLOCK_BYTES / 4;

    fn line_of(err: crate::Result<Dataset>) -> usize {
        match err {
            Err(TabularError::Csv { line, .. }) => line,
            other => panic!("expected csv error, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip() {
        let ds = toy();
        let mut buf = Vec::new();
        write_csv(&ds, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("x,color,class\n"));
        assert!(text.contains("1.5,red,A"));
        let back =
            read_csv_streaming(ds.schema().clone(), ds.class_names().to_vec(), &buf[..]).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn streaming_crosses_chunk_boundaries() {
        // More rows than one parse block: the per-block bulk appends must
        // reassemble the exact dataset.
        let schema = Schema::new(vec![
            Attribute::numeric("x"),
            Attribute::nominal("color", ["red", "green"]),
        ]);
        let mut ds = Dataset::new(schema, vec!["A".into(), "B".into()]);
        for i in 0..(ROWS_PAST_A_BLOCK + 123) {
            ds.push(
                vec![Value::Num(i as f64), Value::Nominal((i % 2) as u32)],
                i % 2,
            )
            .unwrap();
        }
        let mut buf = Vec::new();
        write_csv(&ds, &mut buf).unwrap();
        let back =
            read_csv_streaming(ds.schema().clone(), ds.class_names().to_vec(), &buf[..]).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn rejects_bad_header() {
        let ds = toy();
        let input = b"x,class\n1.0,A\n";
        let err = read_csv_streaming(ds.schema().clone(), ds.class_names().to_vec(), &input[..]);
        assert_eq!(line_of(err), 1);
    }

    #[test]
    fn rejects_unknown_class_with_line() {
        let ds = toy();
        let input = b"x,color,class\n1.0,red,A\n2.0,green,C\n";
        let err = read_csv_streaming(ds.schema().clone(), ds.class_names().to_vec(), &input[..]);
        assert_eq!(line_of(err), 3);
    }

    #[test]
    fn rejects_bad_number_with_line() {
        let ds = toy();
        let input = b"x,color,class\nfoo,red,A\n";
        let err = read_csv_streaming(ds.schema().clone(), ds.class_names().to_vec(), &input[..]);
        assert_eq!(line_of(err), 2);
    }

    #[test]
    fn malformed_row_mid_stream_is_located() {
        // A malformed row *after* the first parsed block must still be
        // reported with its exact line number, and nothing ingested after
        // it.
        let ds = toy();
        let mut text = String::from("x,color,class\n");
        for i in 0..(ROWS_PAST_A_BLOCK + 50) {
            text.push_str(&format!("{}.0,red,A\n", i));
        }
        // ROWS_PAST_A_BLOCK + 50 good rows, then a bad one on line ROWS_PAST_A_BLOCK + 52.
        text.push_str("oops,red,A\n");
        text.push_str("1.0,green,B\n");
        let err = read_csv_streaming(
            ds.schema().clone(),
            ds.class_names().to_vec(),
            text.as_bytes(),
        );
        assert_eq!(line_of(err), ROWS_PAST_A_BLOCK + 52);
    }

    #[test]
    fn rejects_wrong_arity_rows() {
        let ds = toy();
        let short = b"x,color,class\n1.0,red\n";
        assert_eq!(
            line_of(read_csv_streaming(
                ds.schema().clone(),
                ds.class_names().to_vec(),
                &short[..]
            )),
            2
        );
        let long = b"x,color,class\n1.0,red,A,extra\n";
        assert_eq!(
            line_of(read_csv_streaming(
                ds.schema().clone(),
                ds.class_names().to_vec(),
                &long[..]
            )),
            2
        );
    }

    #[test]
    fn csv_error_displays_line() {
        let err = TabularError::Csv {
            line: 17,
            msg: "bad number".into(),
        };
        let text = err.to_string();
        assert!(text.contains("line 17"), "{text}");
    }

    #[test]
    fn reads_crlf_files() {
        // CRLF line endings: `lines()` keeps the `\r`, which used to break
        // the last cell of every row (numeric parse failure / unknown
        // class) and leave a bare `\r` line uncaught by the empty-line
        // skip.
        let ds = toy();
        let input = b"x,color,class\r\n1.5,red,A\r\n\r\n-2.0,green,B\r\n";
        let back =
            read_csv_streaming(ds.schema().clone(), ds.class_names().to_vec(), &input[..]).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn trims_cell_whitespace() {
        let ds = toy();
        let input = b"x,color,class\n 1.5 ,\tred, A\n-2.0, green ,B \n";
        let back =
            read_csv_streaming(ds.schema().clone(), ds.class_names().to_vec(), &input[..]).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn crlf_crosses_chunk_boundaries() {
        // The CRLF fix must hold on rows parsed after the first bulk
        // append, not just the head of the file.
        let schema = Schema::new(vec![Attribute::numeric("x")]);
        let mut text = String::from("x,class\r\n");
        for i in 0..(ROWS_PAST_A_BLOCK + 7) {
            text.push_str(&format!("{i}.0,A\r\n"));
        }
        let back = read_csv_streaming(schema, vec!["A".into()], text.as_bytes()).unwrap();
        assert_eq!(back.len(), ROWS_PAST_A_BLOCK + 7);
        assert_eq!(
            back.num_column(0)[ROWS_PAST_A_BLOCK + 6],
            (ROWS_PAST_A_BLOCK + 6) as f64
        );
    }

    #[test]
    fn parse_row_matches_reader_semantics() {
        let ds = toy();
        let row = parse_row(ds.schema(), " 1.5 ,red\r").unwrap();
        assert_eq!(row, vec![Value::Num(1.5), Value::Nominal(0)]);
        assert!(parse_row(ds.schema(), "1.5").is_err(), "missing cell");
        assert!(parse_row(ds.schema(), "1.5,red,extra").is_err());
        assert!(parse_row(ds.schema(), "foo,red").is_err());
        assert!(parse_row(ds.schema(), "1.5,mauve").is_err());
        assert!(parse_row(ds.schema(), "inf,red").is_err(), "non-finite");
    }

    /// Random bytes rich in delimiters and in the values the borrow-based
    /// zero-byte test confuses with them: `0x0B` and `0x2D` (one above
    /// `\n` and `,`) and `0x8A` and `0xAC` (`\n` and `,` with the high
    /// bit set).
    fn trap_bytes(len: usize, seed: u64) -> Vec<u8> {
        use rand::{Rng, SeedableRng};
        const ALPHABET: &[u8] = b"\n,\x0b\x2d\x8a\xac\r\x00\x01\x7f\x80\xffa0";
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
            .collect()
    }

    #[test]
    fn count_newlines_is_exact_at_every_length_and_offset() {
        for seed in 0..64 {
            let bytes = trap_bytes(72, seed);
            for start in 0..8 {
                for len in 0..=64 {
                    let slice = &bytes[start..start + len];
                    let naive = slice.iter().filter(|&&b| b == b'\n').count();
                    assert_eq!(count_newlines(slice), naive, "{slice:?}");
                }
            }
        }
    }

    #[test]
    fn find_delimiter_finds_the_first_at_every_length_and_offset() {
        for seed in 0..64 {
            let bytes = trap_bytes(72, seed);
            for start in 0..8 {
                for len in 0..=64 {
                    let slice = &bytes[start..start + len];
                    for from in 0..=len {
                        let first = |hit: fn(u8) -> bool| {
                            slice[from..]
                                .iter()
                                .position(|&b| hit(b))
                                .map_or(len, |p| from + p)
                        };
                        assert_eq!(
                            find_delimiter::<true>(slice, from),
                            first(|b| b == b',' || b == b'\n'),
                            "{slice:?} from {from}"
                        );
                        assert_eq!(
                            find_delimiter::<false>(slice, from),
                            first(|b| b == b','),
                            "{slice:?} from {from}"
                        );
                    }
                }
            }
        }
    }

    /// The rows [`CsvScanner`] yields for `text`: each row's line and its
    /// cells, or its error.
    fn scan(text: &str, expected: usize) -> Vec<(usize, Result<Vec<&str>, String>)> {
        let mut rows = CsvScanner::new(text);
        let mut out = Vec::new();
        loop {
            let mut cells = Vec::new();
            let Some(row) = rows.next_row(expected, |_, cell| {
                cells.push(cell);
                Ok(())
            }) else {
                break;
            };
            out.push((rows.line(), row.map(|()| cells)));
        }
        out
    }

    #[test]
    fn scanner_splits_like_str_split() {
        let text = "a,b\r\n\r\n\n,\r\nx,y,z\nq\n\r";
        assert_eq!(
            scan(text, 2),
            vec![
                (0, Ok(vec!["a", "b"])),
                (3, Ok(vec!["", ""])),
                (4, Err("too many cells, expected 2".into())),
                (5, Err("1 cells, expected 2".into())),
            ]
        );
        let mut rows = CsvScanner::new(text);
        while rows.next_row(3, |_, _| Ok(())).is_some() {}
        assert_eq!(rows.line(), 6, "every newline is counted");
        // A cell error stops the row at that cell.
        let mut rows = CsvScanner::new("1,2,3\n4,5,6");
        let mut seen = Vec::new();
        let row = rows.next_row(3, |k, cell| {
            seen.push(cell);
            if k == 1 {
                Err("bad".into())
            } else {
                Ok(())
            }
        });
        assert_eq!(row, Some(Err("bad".into())));
        assert_eq!(seen, ["1", "2"]);
        assert_eq!(rows.line(), 0);
        assert_eq!(rows.next_row(3, |_, _| Ok(())), Some(Ok(())));
        assert_eq!(rows.line(), 1);
    }

    #[test]
    fn parse_row_keeps_newlines_inside_cells() {
        // A single row splits on `,` only, like `str::split(',')`.
        let ds = toy();
        let row = parse_row(ds.schema(), "1.5\n,\nred\r").unwrap();
        assert_eq!(row, vec![Value::Num(1.5), Value::Nominal(0)]);
        assert!(
            parse_row(ds.schema(), "").is_err(),
            "an empty row is one empty cell"
        );
    }

    #[test]
    fn skips_empty_lines() {
        let ds = toy();
        let input = b"x,color,class\n1.0,red,A\n\n2.0,green,B\n";
        let back =
            read_csv_streaming(ds.schema().clone(), ds.class_names().to_vec(), &input[..]).unwrap();
        assert_eq!(back.len(), 2);
    }
}
