//! Dictionary-encoded ingest: nominal categories discovered from the
//! data, coded by descending frequency.
//!
//! The plain ingest requires the schema to declare every nominal
//! category up front. Real relations rarely oblige, and wide declared
//! domains are costly downstream: the one-hot coding (and therefore the
//! network input layer) is as wide as the *declared* cardinality. This
//! module ingests against a **proto-schema** whose nominal category
//! lists may be empty or partial: a first parallel pass counts the
//! distinct strings of every nominal column, the dictionary is sealed
//! with codes sorted by (count desc, name asc) — deterministic, and
//! placing frequent categories at small codes — and a second parallel
//! pass is the plain ingest against the sealed schema (the shared row
//! parser, [`nr_tabular::parse_csv_block`]). Encoded width then tracks
//! *observed* cardinality.
//!
//! Two passes keep the out-of-core bound: holding every parsed chunk
//! until the dictionary is known would buffer the whole dataset in RAM;
//! re-reading the (mapped) input is cheap by comparison.

use std::collections::HashMap;

use nr_nn::map_indexed_scoped;
use nr_tabular::{AttrKind, Attribute, CsvScanner, Schema};

use crate::ingest::{chunk_ranges, ingest_parsed_body, WAVE_CHUNKS_PER_WORKER};
use crate::{SegmentedDataset, StoreConfig, StoreError};

/// The sealed dictionary of one nominal attribute: code `i` ↦
/// `categories[i]`, most frequent first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dictionary {
    /// Attribute index in the schema.
    pub attribute: usize,
    /// Attribute name.
    pub name: String,
    /// Category names by code, sorted by (count desc, name asc).
    pub categories: Vec<String>,
    /// Occurrences of each category in the ingested data (same order).
    pub counts: Vec<u64>,
}

/// Result of a dictionary ingest: the store plus the sealed schema and
/// per-attribute dictionaries.
#[derive(Debug)]
pub struct DictIngest {
    /// The segmented store, coded against the sealed dictionaries.
    pub store: SegmentedDataset,
    /// One dictionary per nominal attribute, in attribute order.
    pub dictionaries: Vec<Dictionary>,
}

/// Pass 1 over one chunk: count category strings per nominal attribute,
/// splitting rows with the shared scanner ([`CsvScanner`]). Malformed
/// rows (the wrong number of cells, or not UTF-8) are skipped here —
/// pass 2 re-parses everything and reports them with exact line numbers.
/// A category allocates its key only on its first sighting in the chunk.
fn count_block(arity: usize, nominal_attrs: &[usize], block: &[u8]) -> Vec<HashMap<String, u64>> {
    let mut counts: Vec<HashMap<String, u64>> =
        nominal_attrs.iter().map(|_| HashMap::new()).collect();
    let nominal: Vec<bool> = (0..=arity).map(|a| nominal_attrs.contains(&a)).collect();
    // The current row's nominal cells, in attribute order.
    let mut cells: Vec<&str> = Vec::with_capacity(nominal_attrs.len());
    let mut rest = block;
    while !rest.is_empty() {
        // The longest line-aligned UTF-8 prefix, then the line after it
        // (the one that is not UTF-8) is skipped.
        let (text, next) = match std::str::from_utf8(rest) {
            Ok(text) => (text, &rest[rest.len()..]),
            Err(e) => {
                let bad = e.valid_up_to();
                let start = rest[..bad]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |p| p + 1);
                let end = rest[bad..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(rest.len(), |p| bad + p + 1);
                let text = std::str::from_utf8(&rest[..start])
                    .expect("a prefix of valid UTF-8 ending after a newline is valid");
                (text, &rest[end..])
            }
        };
        let mut rows = CsvScanner::new(text);
        while let Some(row) = rows.next_row(arity + 1, |a, cell| {
            if nominal[a] {
                cells.push(cell);
            }
            Ok(())
        }) {
            if row.is_ok() {
                for (count, cell) in counts.iter_mut().zip(&cells) {
                    let cell = cell.trim();
                    match count.get_mut(cell) {
                        Some(n) => *n += 1,
                        None => {
                            count.insert(cell.to_string(), 1);
                        }
                    }
                }
            }
            cells.clear();
        }
        rest = next;
    }
    counts
}

/// Seals one attribute's dictionary: codes by (count desc, name asc).
fn seal_dictionary(attribute: usize, name: &str, counts: HashMap<String, u64>) -> Dictionary {
    let mut entries: Vec<(String, u64)> = counts.into_iter().collect();
    entries.sort_by(|(an, ac), (bn, bc)| bc.cmp(ac).then_with(|| an.cmp(bn)));
    let (categories, counts) = entries.into_iter().unzip();
    Dictionary {
        attribute,
        name: name.to_string(),
        categories,
        counts,
    }
}

/// Dictionary ingest over CSV bytes (see module docs). `proto` fixes the
/// attribute names, kinds, and order; nominal category lists in it are
/// ignored and replaced with discovered, frequency-sorted dictionaries.
pub fn ingest_csv_bytes_with_dict(
    proto: &Schema,
    class_names: Vec<String>,
    data: &[u8],
    config: StoreConfig,
) -> Result<DictIngest, StoreError> {
    let body_start = nr_tabular::check_header(proto, data)?;
    let body = &data[body_start..];
    let arity = proto.arity();
    let nominal_attrs: Vec<usize> = (0..arity)
        .filter(|&a| !proto.attribute(a).is_numeric())
        .collect();

    // Pass 1: parallel per-chunk counting, merged in any order (sums
    // commute, and the sealed sort order depends only on the totals).
    // Counted in bounded waves like the parse pass: on high-cardinality
    // columns a chunk's local map can approach the chunk's data size, so
    // holding every chunk's map at once would break the out-of-core
    // bound. Totals are unaffected by the wave size.
    let chunks = chunk_ranges(body);
    let wave = nr_nn::resolve_threads(config.threads, chunks.len()) * WAVE_CHUNKS_PER_WORKER;
    let mut totals: Vec<HashMap<String, u64>> =
        nominal_attrs.iter().map(|_| HashMap::new()).collect();
    for wave_chunks in chunks.chunks(wave.max(1)) {
        let per_chunk: Vec<Vec<HashMap<String, u64>>> =
            map_indexed_scoped(wave_chunks.len(), config.threads, |k| {
                count_block(arity, &nominal_attrs, &body[wave_chunks[k].clone()])
            });
        for chunk_counts in per_chunk {
            for (total, local) in totals.iter_mut().zip(chunk_counts) {
                for (name, n) in local {
                    *total.entry(name).or_insert(0) += n;
                }
            }
        }
    }
    let dictionaries: Vec<Dictionary> = nominal_attrs
        .iter()
        .zip(totals)
        .map(|(&a, counts)| seal_dictionary(a, &proto.attribute(a).name, counts))
        .collect();

    // Seal the schema with the discovered categories.
    let attributes: Vec<Attribute> = (0..arity)
        .map(|a| {
            let attr = proto.attribute(a);
            match &attr.kind {
                AttrKind::Numeric => attr.clone(),
                AttrKind::Nominal { .. } => {
                    let dict = dictionaries
                        .iter()
                        .find(|d| d.attribute == a)
                        .expect("every nominal attr has a dictionary");
                    Attribute::nominal(attr.name.clone(), dict.categories.iter().cloned())
                }
            }
        })
        .collect();
    let schema = Schema::new(attributes);

    // Pass 2: the plain parallel ingest against the sealed schema, whose
    // category order is the dictionary code order.
    let store = ingest_parsed_body(schema, class_names, body, config)?;
    Ok(DictIngest {
        store,
        dictionaries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_tabular::TabularError;

    /// Proto-schema with an *empty* nominal domain — the discovery case.
    fn proto() -> Schema {
        Schema::new(vec![
            Attribute::numeric("x"),
            Attribute::nominal("city", Vec::<String>::new()),
        ])
    }

    fn classes() -> Vec<String> {
        vec!["A".into(), "B".into()]
    }

    #[test]
    fn discovers_frequency_sorted_dictionary() {
        let csv = b"x,city,class\n\
            1.0,oslo,A\n\
            2.0,lima,B\n\
            3.0,lima,A\n\
            4.0,kyiv,B\n\
            5.0,lima,A\n\
            6.0,oslo,B\n";
        let got =
            ingest_csv_bytes_with_dict(&proto(), classes(), csv, StoreConfig::in_ram(4)).unwrap();
        assert_eq!(got.dictionaries.len(), 1);
        let d = &got.dictionaries[0];
        assert_eq!(d.name, "city");
        // lima ×3, oslo ×2, kyiv ×1 — count desc, name asc.
        assert_eq!(d.categories, vec!["lima", "oslo", "kyiv"]);
        assert_eq!(d.counts, vec![3, 2, 1]);
        // The sealed schema carries the discovered categories and the
        // codes follow the dictionary order.
        let ds = got.store.to_dataset().unwrap();
        assert_eq!(
            ds.schema().attribute(1).cardinality(),
            Some(3),
            "observed cardinality"
        );
        assert_eq!(ds.nominal_column(1), &[1, 0, 0, 2, 0, 1]);
    }

    #[test]
    fn ties_break_by_name_deterministically() {
        let csv = b"x,city,class\n1.0,beta,A\n2.0,alfa,A\n";
        let got =
            ingest_csv_bytes_with_dict(&proto(), classes(), csv, StoreConfig::default()).unwrap();
        assert_eq!(got.dictionaries[0].categories, vec!["alfa", "beta"]);
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let mut csv = String::from("x,city,class\n");
        for i in 0..500 {
            csv.push_str(&format!("{i}.5,c{},{}\n", i % 37, ["A", "B"][i % 2]));
        }
        let base = ingest_csv_bytes_with_dict(
            &proto(),
            classes(),
            csv.as_bytes(),
            StoreConfig::in_ram(64).with_threads(1),
        )
        .unwrap();
        for threads in [2, 4] {
            let got = ingest_csv_bytes_with_dict(
                &proto(),
                classes(),
                csv.as_bytes(),
                StoreConfig::in_ram(64).with_threads(threads),
            )
            .unwrap();
            assert_eq!(got.dictionaries, base.dictionaries, "{threads} threads");
            assert_eq!(
                got.store.to_dataset().unwrap(),
                base.store.to_dataset().unwrap(),
                "{threads} threads"
            );
        }
    }

    /// Pass 1 as plain `str::split` code: each line checked as UTF-8 on
    /// its own, one `\r` stripped, split on `,`, skipped unless it has
    /// exactly `arity + 1` cells.
    fn reference_count(
        arity: usize,
        nominal_attrs: &[usize],
        block: &[u8],
    ) -> Vec<HashMap<String, u64>> {
        let mut counts: Vec<HashMap<String, u64>> =
            nominal_attrs.iter().map(|_| HashMap::new()).collect();
        for raw in block.split(|&b| b == b'\n') {
            let Ok(raw) = std::str::from_utf8(raw) else {
                continue;
            };
            let line = raw.strip_suffix('\r').unwrap_or(raw);
            if line.is_empty() {
                continue;
            }
            let cells: Vec<&str> = line.split(',').collect();
            if cells.len() != arity + 1 {
                continue;
            }
            for (k, &a) in nominal_attrs.iter().enumerate() {
                *counts[k].entry(cells[a].trim().to_string()).or_insert(0) += 1;
            }
        }
        counts
    }

    #[test]
    fn pass_one_counts_like_str_split() {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        // Cells, separators and damage: padding, empty cells, trap bytes
        // beside delimiters (`-`, `\u{b}`, and `Ê`/`¬`, whose second UTF-8
        // bytes are `\n`/`,` with the high bit set), CR, invalid UTF-8.
        const PIECES: &[&[u8]] = &[
            b"oslo",
            b"lima",
            b" oslo ",
            b"",
            b"-",
            b"\x0b",
            b"\xc3\x8a",
            b"\xc2\xac",
            b"\r",
            b"\xff",
            b"\xe2\x82",
            b"1.5",
            b"\t",
            b"\xc2\xa0x",
        ];
        const SEPARATORS: &[&[u8]] = &[b",", b",", b",", b"\n", b"\r\n", b""];
        for seed in 0..300u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let arity = rng.gen_range(1..=4usize);
            let nominal_attrs: Vec<usize> = (0..arity).filter(|_| rng.gen_bool(0.6)).collect();
            let mut block = Vec::new();
            for _ in 0..rng.gen_range(0..200usize) {
                block.extend_from_slice(PIECES.choose(&mut rng).unwrap());
                block.extend_from_slice(SEPARATORS.choose(&mut rng).unwrap());
            }
            assert_eq!(
                count_block(arity, &nominal_attrs, &block),
                reference_count(arity, &nominal_attrs, &block),
                "block {:?}",
                String::from_utf8_lossy(&block)
            );
        }
    }

    #[test]
    fn pass_two_reports_malformed_rows() {
        let csv = b"x,city,class\n1.0,oslo,A\nnot-a-number,oslo,A\n";
        let err = ingest_csv_bytes_with_dict(&proto(), classes(), csv, StoreConfig::default())
            .unwrap_err();
        match err {
            StoreError::Tabular(TabularError::Csv { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected csv error, got {other:?}"),
        }
    }
}
