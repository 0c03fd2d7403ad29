//! Table-2 coding read as interval indices: the set-bit form of an
//! [`Encoder`] without the dense matrix.
//!
//! Every attribute's bit pattern is a pure function of one small integer.
//! For a thermometer it is the count `k` of thresholds the value reaches,
//! and the pattern is the last `k` bits of the attribute's span. For a
//! one-hot coding it is the category code, and the pattern is one bit
//! (none for a code outside the coding). [`IntervalCoder`] precomputes,
//! per (attribute, interval), that interval's set input columns (always
//! one contiguous run) and then writes rows straight into the ascending
//! set-bit (CSR) layout the network's batch kernels consume. The lists
//! are the set columns of [`Encoder::encode_row`]'s 0/1 vector, bias
//! column included. [`Encoder::encode_view`] encodes through this coder.

use std::ops::Range;

use nr_tabular::DatasetView;

use crate::{AttrCoding, EncodeError, Encoder};

/// An [`Encoder`] compiled to per-(attribute, interval) set-bit tables
/// (see the module docs). Build one with [`Encoder::interval_coder`].
#[derive(Debug, Clone)]
pub struct IntervalCoder {
    attrs: Vec<AttrIntervals>,
    /// Where each attribute's intervals start in `runs`.
    bases: Vec<usize>,
    /// Per (attribute, interval): `(first column, count)` of the set
    /// columns.
    runs: Vec<(u32, u32)>,
    bias: u32,
    /// Most set bits any row can have, bias included.
    max_row_bits: usize,
}

/// How one attribute maps a value to its interval index.
#[derive(Debug, Clone)]
enum AttrIntervals {
    /// Interval = number of ascending thresholds `t` with `x >= t`.
    Thermometer(Vec<f64>),
    /// Interval = the category code; every code `>= cardinality` shares
    /// the last, bit-less interval.
    OneHot(u32),
}

/// Count of thresholds `t` with `x >= t` — on ascending thresholds, the
/// same index as a `partition_point`, but branch-free (a binary search
/// over a dozen thresholds mispredicts on most rows). NaN reaches none,
/// matching [`AttrCoding::encode`].
#[inline]
fn thermometer_interval(thresholds: &[f64], x: f64) -> usize {
    thresholds.iter().filter(|&&t| x >= t).count()
}

/// The code itself, with every out-of-range code folded onto the
/// bit-less interval `cardinality`.
#[inline]
fn one_hot_interval(cardinality: u32, code: u32) -> usize {
    code.min(cardinality) as usize
}

impl Encoder {
    /// Compiles this encoder's codings into an [`IntervalCoder`]. Fails
    /// when the encoder does not pass [`Encoder::validate`].
    pub fn interval_coder(&self) -> Result<IntervalCoder, EncodeError> {
        self.validate()?;
        let mut attrs = Vec::with_capacity(self.codings().len());
        let mut bases = Vec::with_capacity(self.codings().len());
        let mut runs = Vec::new();
        let mut max_row_bits = 1;
        for (a, coding) in self.codings().iter().enumerate() {
            let (start, len) = self.span(a);
            let (start, len) = (start as u32, len as u32);
            bases.push(runs.len());
            match coding {
                AttrCoding::Thermometer { thresholds, .. } => {
                    // Interval k sets the span's last k columns.
                    runs.extend((0..=len).map(|k| (start + len - k, k)));
                    attrs.push(AttrIntervals::Thermometer(thresholds.clone()));
                    max_row_bits += len as usize;
                }
                AttrCoding::OneHot { .. } => {
                    runs.extend((0..len).map(|code| (start + code, 1)));
                    runs.push((start + len, 0));
                    attrs.push(AttrIntervals::OneHot(len));
                    max_row_bits += 1;
                }
            }
        }
        Ok(IntervalCoder {
            attrs,
            bases,
            runs,
            bias: self.bias_bit() as u32,
            max_row_bits,
        })
    }
}

impl IntervalCoder {
    /// Writes view rows `rows` in set-bit (CSR) layout, replacing the
    /// contents of both buffers: row `i` of the range is
    /// `indices[offsets[i]..offsets[i + 1]]`, ascending, bias last —
    /// exactly the set columns of [`Encoder::encode_row`] on that row.
    ///
    /// Interval indices are found one column at a time (a streaming
    /// pass down each typed column), then each row's runs are emitted.
    /// Both buffers are cleared first, so one pair can serve many calls.
    pub fn encode_rows(
        &self,
        view: &DatasetView<'_>,
        rows: Range<usize>,
        indices: &mut Vec<u32>,
        offsets: &mut Vec<usize>,
    ) {
        let n = rows.len();
        let width = self.attrs.len();
        let ds = view.dataset();
        let ids = view.row_ids();
        // slots[i * width + a] = row i's run index for attribute a.
        let mut slots = vec![0u32; n * width];
        for (a, (attr, &base)) in self.attrs.iter().zip(&self.bases).enumerate() {
            let mut put =
                |i: usize, interval: usize| slots[i * width + a] = (base + interval) as u32;
            match attr {
                AttrIntervals::Thermometer(thresholds) => {
                    for_each_in(ds.num_column(a), ids, &rows, |i, x| {
                        put(i, thermometer_interval(thresholds, x))
                    });
                }
                AttrIntervals::OneHot(cardinality) => {
                    for_each_in(ds.nominal_column(a), ids, &rows, |i, c| {
                        put(i, one_hot_interval(*cardinality, c))
                    });
                }
            }
        }
        indices.clear();
        indices.resize(n * self.max_row_bits + RUN_WIDTH, 0);
        offsets.clear();
        offsets.reserve(n + 1);
        offsets.push(0);
        let mut pos = 0;
        for i in 0..n {
            for &slot in &slots[i * width..(i + 1) * width] {
                let (first, count) = self.runs[slot as usize];
                write_run(&mut indices[pos..], first, count as usize);
                pos += count as usize;
            }
            indices[pos] = self.bias;
            pos += 1;
            offsets.push(pos);
        }
        indices.truncate(pos);
    }
}

/// Columns written per run regardless of its length (see [`write_run`]).
const RUN_WIDTH: usize = 16;

/// Writes the run `first, first + 1, …` of `count` columns at the start
/// of `dst`. Runs up to [`RUN_WIDTH`] long are written as one fixed-width
/// block — the columns past `count` are scratch the next run overwrites —
/// so the common case has no data-dependent loop exit. `dst` must hold
/// `max(count, RUN_WIDTH)` entries.
#[inline]
fn write_run(dst: &mut [u32], first: u32, count: usize) {
    if count <= RUN_WIDTH {
        let block: &mut [u32; RUN_WIDTH] = (&mut dst[..RUN_WIDTH])
            .try_into()
            .expect("block is RUN_WIDTH long");
        for (j, col) in block.iter_mut().enumerate() {
            *col = first.wrapping_add(j as u32);
        }
    } else {
        for (j, col) in dst[..count].iter_mut().enumerate() {
            *col = first + j as u32;
        }
    }
}

/// Calls `f(i, value)` for view rows `rows` of one column, `i` counted
/// from the start of the range: a slice walk for a full view, an index
/// gather for a selection.
#[inline]
fn for_each_in<T: Copy>(
    col: &[T],
    ids: Option<&[usize]>,
    rows: &Range<usize>,
    mut f: impl FnMut(usize, T),
) {
    match ids {
        None => col[rows.clone()]
            .iter()
            .enumerate()
            .for_each(|(i, &v)| f(i, v)),
        Some(ids) => ids[rows.clone()]
            .iter()
            .enumerate()
            .for_each(|(i, &r)| f(i, col[r])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_tabular::{Attribute, Dataset, Schema, Value};

    /// Set columns of a dense 0/1 row.
    fn ones(dense: &[f64]) -> Vec<u32> {
        (0..dense.len() as u32)
            .filter(|&c| dense[c as usize] == 1.0)
            .collect()
    }

    #[test]
    fn thermometer_interval_counts_the_reached_thresholds() {
        let e = Encoder::agrawal();
        let coding = &e.codings()[0];
        let AttrCoding::Thermometer { thresholds, .. } = coding else {
            panic!("salary is thermometer-coded");
        };
        // salary: -inf, 25k, 50k, 75k, 100k, 125k.
        let k = |x: f64| thermometer_interval(thresholds, x);
        assert_eq!(k(10_000.0), 1);
        assert_eq!(k(25_000.0), 2, "a value on a threshold reaches it");
        assert_eq!(k(124_999.5), 5);
        assert_eq!(k(f64::INFINITY), 6);
        assert_eq!(k(f64::NEG_INFINITY), 1, "-inf reaches the -inf base bit");
        assert_eq!(k(f64::NAN), 0, "NaN reaches nothing");
        // Interval k is the thermometer suffix `AttrCoding::encode` writes:
        // the span's last k bits.
        let len = thresholds.len();
        let edges = [
            f64::NAN,
            f64::NEG_INFINITY,
            -0.0,
            25_000.0,
            99_999.5,
            125_000.0,
            f64::INFINITY,
        ];
        for x in edges {
            let mut dense = vec![0.0; len];
            coding.encode(&Value::Num(x), &mut dense);
            let k = thermometer_interval(thresholds, x);
            let suffix: Vec<u32> = (len - k..len).map(|j| j as u32).collect();
            assert_eq!(ones(&dense), suffix, "x = {x}");
        }
    }

    #[test]
    fn one_hot_interval_folds_unknown_codes_onto_the_empty_run() {
        let e = Encoder::agrawal();
        let coder = e.interval_coder().unwrap();
        // car: 20 categories.
        assert_eq!(one_hot_interval(20, 0), 0);
        assert_eq!(one_hot_interval(20, 19), 19);
        assert_eq!(one_hot_interval(20, 20), 20);
        assert_eq!(one_hot_interval(20, u32::MAX), 20);
        let (start, _) = e.span(4);
        let run = |code: u32| coder.runs[coder.bases[4] + one_hot_interval(20, code)];
        assert_eq!(run(3), (start as u32 + 3, 1));
        assert_eq!(run(20).1, 0, "a code outside the coding sets no bit");
        assert_eq!(run(u32::MAX).1, 0);
    }

    #[test]
    fn encode_rows_matches_encode_view_bits() {
        let schema = Schema::new(vec![
            Attribute::numeric("x"),
            Attribute::nominal_anon("c", 3),
            Attribute::numeric("y"),
        ]);
        let mut ds = Dataset::new(schema, vec!["A".into(), "B".into()]);
        for i in 0..40 {
            let row = vec![
                Value::Num(i as f64 * 0.5),
                Value::Nominal(i % 3),
                Value::Num(-(i as f64)),
            ];
            ds.push(row, (i % 2) as usize).unwrap();
        }
        let e = Encoder::fit(&ds, 4).unwrap();
        let coder = e.interval_coder().unwrap();
        let view = ds.view_of(vec![39, 0, 7, 7, 20, 13]);
        let reference: Vec<Vec<u32>> = (0..view.len())
            .map(|i| ones(&e.encode_row(&view.row_values(i))))
            .collect();
        let (mut indices, mut offsets) = (Vec::new(), Vec::new());
        coder.encode_rows(&view, 0..view.len(), &mut indices, &mut offsets);
        assert_eq!(offsets.len(), view.len() + 1);
        let encoded = e.encode_view(&view);
        for i in 0..view.len() {
            assert_eq!(
                &indices[offsets[i]..offsets[i + 1]],
                &reference[i][..],
                "row {i}"
            );
            assert_eq!(
                encoded.row_bits(i),
                &reference[i][..],
                "encode_view row {i}"
            );
        }
        // A sub-range starts its offsets at zero.
        coder.encode_rows(&view, 2..5, &mut indices, &mut offsets);
        assert_eq!(offsets[0], 0);
        for i in 0..3 {
            assert_eq!(&indices[offsets[i]..offsets[i + 1]], &reference[i + 2][..]);
        }
    }

    #[test]
    fn inconsistent_encoders_do_not_compile() {
        let e = Encoder::agrawal();
        let mut codings = e.codings().to_vec();
        codings.swap(0, 4); // one-hot on salary, thermometer on car
        let err = Encoder::new(e.schema().clone(), codings).unwrap_err();
        assert!(matches!(err, EncodeError::SchemaMismatch(_)), "{err:?}");
    }
}
