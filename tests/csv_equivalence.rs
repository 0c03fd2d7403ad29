//! The byte-level CSV row parser against a plain reference reader.
//!
//! The reference is the obvious loop: split the block into lines and
//! cells with `str::split`, strip one trailing `\r`, skip empty lines, and
//! decode each cell with [`parse_csv_cell`] (class cells by a `position`
//! scan over the class names). Every reader must agree with it exactly:
//! the same columns (numbers compared by `f64::to_bits`) and labels, or
//! the same error at the same line with the same message — and never a
//! panic. Inputs are adversarial: random schemas with duplicate names,
//! cells padded with ASCII and Unicode whitespace, CRLF, blank and
//! `\r`-only lines, missing and extra cells, exotic numbers, unknown
//! categories and classes, invalid UTF-8 mid-block, and arbitrary bytes.
//! The parallel store ingest must equal the streaming reader at any
//! thread count.

use nr_store::{ingest_csv_bytes, StoreConfig};
use nr_tabular::{
    parse_csv_block, parse_csv_cell, parse_row, read_csv_streaming, AttrKind, Attribute, ClassId,
    Column, Dataset, Schema, TabularError, Value,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

/// Columns with numbers as bit patterns, so `-0.0` and `0.0` differ.
#[derive(Debug, PartialEq)]
enum Bits {
    Num(Vec<u64>),
    Nominal(Vec<u32>),
}

type Parsed = Result<(Vec<Bits>, Vec<ClassId>), TabularError>;

fn bits(columns: &[Column]) -> Vec<Bits> {
    columns
        .iter()
        .map(|c| match c {
            Column::Num(xs) => Bits::Num(xs.iter().map(|x| x.to_bits()).collect()),
            Column::Nominal(cs) => Bits::Nominal(cs.to_vec()),
        })
        .collect()
}

fn dataset_bits(ds: &Dataset) -> (Vec<Bits>, Vec<ClassId>) {
    let columns: Vec<Column> = (0..ds.schema().arity())
        .map(|a| ds.column(a).clone())
        .collect();
    (bits(&columns), ds.labels().to_vec())
}

/// The reference block reader (see the module docs).
fn reference_block(schema: &Schema, classes: &[String], block: &[u8], first_line: usize) -> Parsed {
    let csv = |line: usize, msg: String| TabularError::Csv { line, msg };
    let arity = schema.arity();
    let mut columns: Vec<Column> = schema
        .attributes()
        .iter()
        .map(|a| Column::empty_for(&a.kind))
        .collect();
    let mut labels = Vec::new();
    for (k, raw) in block.split(|&b| b == b'\n').enumerate() {
        let line = first_line + k;
        let raw = std::str::from_utf8(raw).map_err(|e| csv(line, e.to_string()))?;
        let text = raw.strip_suffix('\r').unwrap_or(raw);
        if text.is_empty() {
            continue;
        }
        let cells: Vec<&str> = text.split(',').collect();
        for (a, column) in columns.iter_mut().enumerate() {
            let cell = cells
                .get(a)
                .ok_or_else(|| csv(line, format!("{a} cells, expected {}", arity + 1)))?;
            match parse_csv_cell(&schema.attribute(a).kind, cell).map_err(|m| csv(line, m))? {
                Value::Num(x) => match column {
                    Column::Num(xs) => xs.push(x),
                    Column::Nominal(_) => unreachable!("numeric cell of a nominal column"),
                },
                Value::Nominal(code) => match column {
                    Column::Nominal(cs) => cs.push(code),
                    Column::Num(_) => unreachable!("nominal cell of a numeric column"),
                },
            }
        }
        let class = cells
            .get(arity)
            .ok_or_else(|| csv(line, format!("{arity} cells, expected {}", arity + 1)))?
            .trim();
        if cells.len() > arity + 1 {
            return Err(csv(line, format!("too many cells, expected {}", arity + 1)));
        }
        let label = classes
            .iter()
            .position(|c| c == class)
            .ok_or_else(|| csv(line, format!("unknown class {class:?}")))?;
        labels.push(label);
    }
    Ok((bits(&columns), labels))
}

/// The reference label-free row reader behind [`parse_row`].
fn reference_row(schema: &Schema, line: &str) -> Result<Vec<Value>, String> {
    let line = line.strip_suffix('\r').unwrap_or(line);
    let cells: Vec<&str> = line.split(',').collect();
    let arity = schema.arity();
    let mut values = Vec::new();
    for a in 0..arity {
        let cell = cells
            .get(a)
            .ok_or_else(|| format!("{a} cells, expected {arity}"))?;
        values.push(parse_csv_cell(&schema.attribute(a).kind, cell)?);
    }
    if cells.len() > arity {
        return Err(format!("too many cells, expected {arity}"));
    }
    Ok(values)
}

/// Names drawn for categories and classes: short, overlapping, some
/// non-ASCII, some that no trimmed cell can ever equal.
const NAMES: &[&str] = &[
    "a", "b", "red", "car1", "car10", "zip9", "über", "x y", " pad", "Ω", "A", "B",
];

const PADS: &[&str] = &[" ", "\t", "\u{a0}", "\u{3000}", "\r", "  \t"];

const NUMBERS: &[&str] = &[
    "0",
    "-0",
    "1.5",
    "+1.5",
    ".5",
    "5.",
    "-.5e-3",
    "1e5",
    "1E5",
    "inf",
    "-inf",
    "NaN",
    "infinity",
    "1e400",
    "-1e400",
    "1e-400",
    "0x10",
    "1_000",
    "",
    "+",
    "-",
    "1.5.2",
    "١",
    "65000",
    "70617.9009365437",
];

/// A random schema (1–5 attributes, categories possibly duplicated) and
/// class list (1–4 names, possibly duplicated).
fn random_schema(rng: &mut StdRng) -> (Schema, Vec<String>) {
    let arity = rng.gen_range(1..=5usize);
    let attributes = (0..arity)
        .map(|a| {
            if rng.gen_bool(0.5) {
                Attribute::numeric(format!("n{a}"))
            } else {
                let k = rng.gen_range(1..=5usize);
                let names: Vec<String> = (0..k)
                    .map(|_| NAMES.choose(rng).unwrap().to_string())
                    .collect();
                Attribute::nominal(format!("c{a}"), names)
            }
        })
        .collect();
    let classes = (0..rng.gen_range(1..=4usize))
        .map(|_| NAMES.choose(rng).unwrap().to_string())
        .collect();
    (Schema::new(attributes), classes)
}

/// One cell for `kind`: usually a valid value, sometimes padded, and
/// sometimes an unknown name or a number the parser must reject.
fn random_cell(rng: &mut StdRng, kind: Option<&AttrKind>, classes: &[String]) -> String {
    let core = match kind {
        Some(AttrKind::Numeric) => {
            if rng.gen_bool(0.6) {
                let x = rng.next_f64() * 2e6 - 1e6;
                if rng.gen_bool(0.5) {
                    x.to_string()
                } else {
                    format!("{x:e}")
                }
            } else {
                NUMBERS.choose(rng).unwrap().to_string()
            }
        }
        Some(AttrKind::Nominal { categories }) => {
            if rng.gen_bool(0.85) {
                categories.choose(rng).unwrap().clone()
            } else {
                NAMES.choose(rng).unwrap().to_string()
            }
        }
        None => {
            if rng.gen_bool(0.9) {
                classes.choose(rng).unwrap().clone()
            } else {
                NAMES.choose(rng).unwrap().to_string()
            }
        }
    };
    let mut cell = String::new();
    if rng.gen_bool(0.2) {
        cell.push_str(PADS.choose(rng).unwrap());
    }
    cell.push_str(&core);
    if rng.gen_bool(0.2) {
        cell.push_str(PADS.choose(rng).unwrap());
    }
    cell
}

/// A block of mostly well-formed rows with every kind of damage mixed in
/// at low rates: blank and `\r`-only lines, missing and extra cells,
/// invalid UTF-8, CRLF, and a missing final newline.
fn random_block(rng: &mut StdRng, schema: &Schema, classes: &[String], rows: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..rows {
        if rng.gen_bool(0.05) {
            out.extend_from_slice([&b""[..], b"\r", b"  ", b"\r\r"][rng.gen_range(0..4usize)]);
            out.push(b'\n');
            continue;
        }
        let mut cells: Vec<String> = schema
            .attributes()
            .iter()
            .map(|a| random_cell(rng, Some(&a.kind), classes))
            .collect();
        cells.push(random_cell(rng, None, classes));
        if rng.gen_bool(0.03) {
            cells.pop();
        }
        if rng.gen_bool(0.03) {
            cells.push("extra".into());
        }
        let mut line = cells.join(",").into_bytes();
        if rng.gen_bool(0.03) {
            let at = rng.gen_range(0..=line.len());
            let junk: &[u8] =
                [&b"\xff"[..], b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"][rng.gen_range(0..4usize)];
            line.splice(at..at, junk.iter().copied());
        }
        out.extend_from_slice(&line);
        if rng.gen_bool(0.3) {
            out.push(b'\r');
        }
        out.push(b'\n');
    }
    if !out.is_empty() && rng.gen_bool(0.3) {
        out.pop(); // no newline after the last row
    }
    out
}

/// Arbitrary bytes over an alphabet rich in delimiters, whitespace and
/// non-ASCII.
fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    const ALPHABET: &[u8] = b",,,\n\n\r 0123456789.e+-abcAB\t\xc2\xa0\xe3\x80\x80\xff";
    (0..len).map(|_| *ALPHABET.choose(rng).unwrap()).collect()
}

fn assert_block_matches(schema: &Schema, classes: &[String], block: &[u8], first_line: usize) {
    let want = reference_block(schema, classes, block, first_line);
    let got = parse_csv_block(schema, classes, block, first_line).map(|(c, l, _)| (bits(&c), l));
    assert_eq!(got, want, "block {:?}", String::from_utf8_lossy(block));

    // The streaming reader over the same rows behind a header.
    let mut csv = vec![b'h'; 1];
    for _ in 0..schema.arity() {
        csv.extend_from_slice(b",h");
    }
    csv.push(b'\n');
    csv.extend_from_slice(block);
    let streamed =
        read_csv_streaming(schema.clone(), classes.to_vec(), &csv[..]).map(|ds| dataset_bits(&ds));
    let want = reference_block(schema, classes, block, 2);
    assert_eq!(
        streamed,
        want,
        "streamed {:?}",
        String::from_utf8_lossy(block)
    );
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(400))]

    /// Structured rows with damage: identical columns, labels, errors.
    #[test]
    fn block_parser_matches_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (schema, classes) = random_schema(&mut rng);
        let rows = rng.gen_range(0..40usize);
        let block = random_block(&mut rng, &schema, &classes, rows);
        let first_line = rng.gen_range(0..1000usize);
        assert_block_matches(&schema, &classes, &block, first_line);
    }

    /// Arbitrary bytes: the parser agrees with the reference and never
    /// panics.
    #[test]
    fn arbitrary_bytes_match_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (schema, classes) = random_schema(&mut rng);
        let len = rng.gen_range(0..300usize);
        let block = random_bytes(&mut rng, len);
        assert_block_matches(&schema, &classes, &block, 1);
    }

    /// The label-free serving row parser.
    #[test]
    fn row_parser_matches_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (schema, classes) = random_schema(&mut rng);
        let block = random_block(&mut rng, &schema, &classes, 1);
        let Ok(text) = std::str::from_utf8(&block) else {
            return;
        };
        let line = text.strip_suffix('\n').unwrap_or(text);
        // Drop the class cell when the row has one, so both arities occur.
        let line = match line.rsplit_once(',') {
            Some((head, _)) if rng.gen_bool(0.8) => head,
            _ => line,
        };
        assert_eq!(parse_row(&schema, line), reference_row(&schema, line), "row {line:?}");
    }
}

#[test]
fn invalid_utf8_reports_its_own_line_after_earlier_errors() {
    let schema = Schema::new(vec![Attribute::numeric("x")]);
    let classes = vec!["A".to_string()];
    for block in [
        &b"1,A\n2,A\n3\xff,A\n4,A\n"[..],
        b"1,A\nbad,A\n\xff\n",
        b"1,A\n2,A\n\xe2\x82\n",
        b"\xc3",
        b"1,A\r\n\r\n2,\xc3\xa9A",
    ] {
        assert_block_matches(&schema, &classes, block, 10);
    }
}

/// Rows long enough to cross the streaming reader's block size and the
/// store's chunk grid and wave size at every thread count: the parallel
/// ingest equals the streaming reader, which equals the reference.
#[test]
fn parallel_ingest_equals_streaming_reader_at_any_thread_count() {
    let schema = Schema::new(vec![
        Attribute::numeric("n0"),
        Attribute::nominal("c1", ["car1", "über", "car1", "Ω", "x y"]),
        Attribute::numeric("n2"),
        Attribute::nominal("c3", ["zip9", "a"]),
    ]);
    let classes: Vec<String> = ["A", "B", "A"].map(String::from).to_vec();
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut body = Vec::new();
    while body.len() < 17 * nr_store::INGEST_CHUNK_BYTES {
        // Valid rows only, padded and with mixed line endings.
        let row = format!(
            "{}, {} ,{:e},{}\u{a0},{}\t{}\n",
            rng.next_f64() * 2e5 - 1e5,
            ["car1", "über", "Ω", "x y"][rng.gen_range(0..4usize)],
            rng.next_f64(),
            ["zip9", "a"][rng.gen_range(0..2usize)],
            ["A", "B"][rng.gen_range(0..2usize)],
            ["", "\r"][rng.gen_range(0..2usize)],
        );
        body.extend_from_slice(row.as_bytes());
        if rng.gen_bool(0.01) {
            body.extend_from_slice(b"\r\n");
        }
    }
    let mut csv = b"n0,c1,n2,c3,class\r\n".to_vec();
    csv.extend_from_slice(&body);

    let streamed = read_csv_streaming(schema.clone(), classes.clone(), &csv[..]).unwrap();
    let want = reference_block(&schema, &classes, &body, 2).unwrap();
    assert_eq!(dataset_bits(&streamed), want);
    // At four workers a wave is twelve chunks, so even then the body
    // spans two waves.
    for threads in [1, 2, 4] {
        let store = ingest_csv_bytes(
            schema.clone(),
            classes.clone(),
            &csv,
            StoreConfig::in_ram(10_000).with_threads(threads),
        )
        .unwrap();
        assert_eq!(
            dataset_bits(&store.to_dataset().unwrap()),
            want,
            "{threads} threads"
        );
    }
}

/// A cell of exactly `len` bytes cycling through values beside which the
/// word-at-a-time scanner's zero-byte test could misfire: `\u{b}` and `-`
/// (one above `\n` and `,`), and `Ê` and `¬` (UTF-8 `c3 8a` and `c2 ac`,
/// whose second bytes are `\n` and `,` with the high bit set).
fn trap_cell(len: usize, phase: usize) -> String {
    const CHARS: [char; 5] = ['\u{b}', '-', 'Ê', '¬', 'x'];
    let mut cell = String::new();
    for k in phase.. {
        let room = len - cell.len();
        if room == 0 {
            break;
        }
        match CHARS[k % CHARS.len()] {
            c if c.len_utf8() <= room => cell.push(c),
            _ => cell.push('-'),
        }
    }
    cell
}

/// A number cell of exactly `len >= 1` bytes.
fn number_cell(len: usize) -> String {
    match len {
        1 => "7".into(),
        _ => format!("-{}7", "0".repeat(len - 2)),
    }
}

/// Cells of every length 0–24 in rows of every shape, so that cell
/// delimiters and `\r`s land at every position of an eight-byte word next
/// to trap bytes; the last line has no `\n`. Every reader agrees with the
/// reference, and the block parser counts the block's newlines.
#[test]
fn delimiters_at_every_word_position_match_reference() {
    let mut categories: Vec<String> = Vec::new();
    for len in 0..=24 {
        for phase in 0..5 {
            categories.push(trap_cell(len, phase).trim().to_string());
        }
    }
    let schema = Schema::new(vec![
        Attribute::nominal("c0", categories.clone()),
        Attribute::numeric("n1"),
        Attribute::nominal("c2", categories),
    ]);
    let classes: Vec<String> = ["A", "Ê¬-"].map(String::from).to_vec();
    let mut body = String::new();
    let mut r = 0usize;
    while body.len() < nr_store::INGEST_CHUNK_BYTES + 4096 {
        let (l0, l1, l2) = (r % 25, 1 + (r / 25) % 24, (r * 7 + r / 600) % 25);
        body.push_str(&trap_cell(l0, r));
        body.push(',');
        body.push_str(&number_cell(l1));
        body.push(',');
        body.push_str(&trap_cell(l2, r / 5));
        body.push(',');
        body.push_str(&classes[r % 2]);
        body.push_str(["\n", "\r\n", "\n\r\n", "\r\n\n"][(r / 3) % 4]);
        r += 1;
    }
    body.truncate(body.trim_end_matches(['\r', '\n']).len());
    let block = body.as_bytes();
    for delimiter in [b',', b'\n', b'\r'] {
        for offset in 0..8 {
            assert!(
                (offset..block.len())
                    .step_by(8)
                    .any(|i| block[i] == delimiter),
                "no {delimiter:#x} at word offset {offset}"
            );
        }
    }

    let want = reference_block(&schema, &classes, block, 2);
    assert!(want.is_ok(), "every row is valid");
    let (_, _, newlines) = parse_csv_block(&schema, &classes, block, 2).unwrap();
    assert_eq!(newlines, block.iter().filter(|&&b| b == b'\n').count());
    assert_block_matches(&schema, &classes, block, 2);

    for line in body.split('\n') {
        let row = line.rsplit_once(',').map_or(line, |(head, _)| head);
        assert_eq!(
            parse_row(&schema, row),
            reference_row(&schema, row),
            "row {row:?}"
        );
    }

    let mut csv = b"c0,n1,c2,class\n".to_vec();
    csv.extend_from_slice(block);
    let want = want.unwrap();
    for threads in [1, 2, 4] {
        let store = ingest_csv_bytes(
            schema.clone(),
            classes.clone(),
            &csv,
            StoreConfig::in_ram(10_000).with_threads(threads),
        )
        .unwrap();
        assert_eq!(
            dataset_bits(&store.to_dataset().unwrap()),
            want,
            "{threads} threads"
        );
    }
}
