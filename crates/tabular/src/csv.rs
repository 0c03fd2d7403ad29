//! CSV ingest and export for datasets.
//!
//! Format: header row of attribute names plus a final `class` column; nominal
//! values are written as category names, numerics with full precision. This
//! is a deliberately small hand-rolled reader/writer (the pre-approved crate
//! set has no CSV crate and the format we need is a strict subset: no quoting
//! or embedded commas — generated identifiers never contain either).
//!
//! Every reader goes through **one row parser**. A block of rows is
//! validated as UTF-8 once, split on `b'\n'` and `b','` (each line and
//! cell splits exactly like `str::split`), and decoded cell by cell:
//! numbers with `str::parse::<f64>`, nominal and class cells through
//! name tables built once per parse from the schema (first match wins, as
//! a `position` scan would). Cells are trimmed with `str::trim`, skipped
//! when a cell's first and last bytes are printable ASCII and so cannot be
//! whitespace. [`parse_csv_block`] is that parser over one in-memory
//! block (the unit of `nr-store`'s parallel ingest); [`read_csv_streaming`]
//! feeds it line-aligned blocks read from a [`BufRead`] and bulk-appends
//! each block's columns ([`Dataset::append_columns`]), so peak memory
//! beyond the dataset is one block of staging. [`parse_row`] (one label-free
//! row, the serving path) shares the cell splitter and cell semantics
//! ([`parse_csv_cell`]) but builds no tables. Parse errors carry the
//! 1-based line number ([`TabularError::Csv`]).

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
/// line-aligned blocks of about [`BLOCK_BYTES`] are read from `input`,
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
    if input
        .read_until(b'\n', &mut header)
        .map_err(|e| csv_err(1, e.to_string()))?
        == 0
    {
        return Err(csv_err(1, "missing header".into()));
    }
    let header = std::str::from_utf8(&header).map_err(|e| csv_err(1, e.to_string()))?;
    let header = strip_cr(header.strip_suffix('\n').unwrap_or(header));
    let cols = header.split(',').count();
    if cols != schema.arity() + 1 {
        return Err(csv_err(
            1,
            format!(
                "header has {} columns, expected {}",
                cols,
                schema.arity() + 1
            ),
        ));
    }

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
        let (columns, labels) = parser.parse(&block, first_line)?;
        // The parser validated every cell, so this only fails on logic
        // errors; map them to the block's first line for diagnosability.
        ds.append_columns(columns, labels)
            .map_err(|e| csv_err(first_line, format!("chunk append failed: {e}")))?;
        first_line += count_newlines(&block);
    }
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

fn count_newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// Drops one trailing `\r` (the remnant of a CRLF line end once the
/// line is split on `\n`).
fn strip_cr(line: &str) -> &str {
    line.strip_suffix('\r').unwrap_or(line)
}

/// The cells of one line, split on `b','` with exactly `str::split(',')`
/// semantics: `n` commas give `n + 1` cells, empty ones included.
struct Cells<'l> {
    rest: Option<&'l str>,
}

impl<'l> Iterator for Cells<'l> {
    type Item = &'l str;

    fn next(&mut self) -> Option<&'l str> {
        let rest = self.rest?;
        match rest.bytes().position(|b| b == b',') {
            Some(i) => {
                self.rest = Some(&rest[i + 1..]);
                Some(&rest[..i])
            }
            None => {
                self.rest = None;
                Some(rest)
            }
        }
    }
}

/// The row loop shared by every reader: splits `line` into exactly
/// `expected` cells and hands each to `cell` in order. A line with too
/// few cells fails at the first missing one, naming how many it had; a
/// line with too many fails after every expected cell was accepted.
fn for_each_cell<'l>(
    line: &'l str,
    expected: usize,
    mut cell: impl FnMut(usize, &'l str) -> Result<(), String>,
) -> Result<(), String> {
    let mut cells = Cells { rest: Some(line) };
    for k in 0..expected {
        let text = cells
            .next()
            .ok_or_else(|| format!("{k} cells, expected {expected}"))?;
        cell(k, text)?;
    }
    if cells.next().is_some() {
        return Err(format!("too many cells, expected {expected}"));
    }
    Ok(())
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
    fn parse(&self, block: &[u8], first_line: usize) -> crate::Result<(Vec<Column>, Vec<ClassId>)> {
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
        let mut rest = text;
        let mut lineno = first_line;
        while !rest.is_empty() {
            let line = match rest.bytes().position(|b| b == b'\n') {
                Some(i) => {
                    let line = &rest[..i];
                    rest = &rest[i + 1..];
                    line
                }
                None => std::mem::take(&mut rest),
            };
            let line = strip_cr(line);
            if !line.is_empty() {
                let mut class_cell = "";
                for_each_cell(line, arity + 1, |k, cell| {
                    let cell = trim_cell(cell);
                    match stages.get_mut(k) {
                        Some(Stage::Num(xs)) => xs.push(parse_num(cell)?),
                        Some(Stage::Nominal(table, codes)) => codes.push(
                            table
                                .get(cell)
                                .ok_or_else(|| format!("unknown category {cell:?}"))?
                                as u32,
                        ),
                        // The class resolves after the cell count is
                        // checked, so a long row reports "too many cells".
                        None => class_cell = cell,
                    }
                    Ok(())
                })
                .map_err(|msg| csv_err(lineno, msg))?;
                let label = self
                    .classes
                    .get(class_cell)
                    .ok_or_else(|| csv_err(lineno, format!("unknown class {class_cell:?}")))?;
                labels.push(label);
            }
            lineno += 1;
        }
        if let Some(msg) = utf8_error {
            // `text` ends just before the offending line, so the loop
            // left `lineno` on it.
            return Err(csv_err(lineno, msg));
        }
        let columns = stages
            .into_iter()
            .map(|stage| match stage {
                Stage::Num(xs) => Column::num(xs),
                Stage::Nominal(_, codes) => Column::nominal(codes),
            })
            .collect();
        Ok((columns, labels))
    }
}

/// Parses a header-less block of CSV rows (each with a trailing class
/// column) into per-attribute column buffers plus labels — the unit of
/// work of a parallel chunked ingest. Cells mean what [`parse_csv_cell`]
/// says they mean; a trailing `\r` per line and empty lines are
/// tolerated; errors carry the absolute 1-based line number
/// `first_line + offset_within_block`, including a line that is not
/// UTF-8. The category and class tables are built once per call.
pub fn parse_csv_block(
    schema: &Schema,
    class_names: &[String],
    block: &[u8],
    first_line: usize,
) -> crate::Result<(Vec<Column>, Vec<ClassId>)> {
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
    for_each_cell(strip_cr(line), schema.arity(), |a, cell| {
        values.push(parse_csv_cell(&schema.attribute(a).kind, cell)?);
        Ok(())
    })?;
    Ok(values)
}

/// Reads a dataset written by [`write_csv`], given its schema and class
/// names. Alias for [`read_csv_streaming`].
pub fn read_csv<R: BufRead>(
    schema: Schema,
    class_names: Vec<String>,
    input: R,
) -> crate::Result<Dataset> {
    read_csv_streaming(schema, class_names, input)
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
        let back = read_csv(ds.schema().clone(), ds.class_names().to_vec(), &buf[..]).unwrap();
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
        let err = read_csv(ds.schema().clone(), ds.class_names().to_vec(), &input[..]);
        assert_eq!(line_of(err), 1);
    }

    #[test]
    fn rejects_unknown_class_with_line() {
        let ds = toy();
        let input = b"x,color,class\n1.0,red,A\n2.0,green,C\n";
        let err = read_csv(ds.schema().clone(), ds.class_names().to_vec(), &input[..]);
        assert_eq!(line_of(err), 3);
    }

    #[test]
    fn rejects_bad_number_with_line() {
        let ds = toy();
        let input = b"x,color,class\nfoo,red,A\n";
        let err = read_csv(ds.schema().clone(), ds.class_names().to_vec(), &input[..]);
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
            line_of(read_csv(
                ds.schema().clone(),
                ds.class_names().to_vec(),
                &short[..]
            )),
            2
        );
        let long = b"x,color,class\n1.0,red,A,extra\n";
        assert_eq!(
            line_of(read_csv(
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
        let back = read_csv(ds.schema().clone(), ds.class_names().to_vec(), &input[..]).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn trims_cell_whitespace() {
        let ds = toy();
        let input = b"x,color,class\n 1.5 ,\tred, A\n-2.0, green ,B \n";
        let back = read_csv(ds.schema().clone(), ds.class_names().to_vec(), &input[..]).unwrap();
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
        let back = read_csv(schema, vec!["A".into()], text.as_bytes()).unwrap();
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

    #[test]
    fn skips_empty_lines() {
        let ds = toy();
        let input = b"x,color,class\n1.0,red,A\n\n2.0,green,B\n";
        let back = read_csv(ds.schema().clone(), ds.class_names().to_vec(), &input[..]).unwrap();
        assert_eq!(back.len(), 2);
    }
}
