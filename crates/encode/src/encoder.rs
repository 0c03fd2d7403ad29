//! The schema-level encoder: bit layout and dataset encoding.

use nr_tabular::{ClassId, Column, Dataset, DatasetView, Schema, Value};
use serde::{Deserialize, Serialize};

use crate::{AttrCoding, BitMeaning};

/// Maps rows of a [`Schema`] to binary input vectors for the network.
///
/// The bit layout is the concatenation of each attribute's coding in schema
/// order, followed by one always-one bias bit (the paper's input I87).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Encoder {
    schema: Schema,
    codings: Vec<AttrCoding>,
    /// Start offset of each attribute's bit span.
    offsets: Vec<usize>,
    n_data_bits: usize,
}

impl Encoder {
    /// Builds an encoder from explicit per-attribute codings.
    pub fn new(schema: Schema, codings: Vec<AttrCoding>) -> Result<Self, crate::EncodeError> {
        if schema.arity() != codings.len() {
            return Err(crate::EncodeError::SchemaMismatch(format!(
                "{} attributes vs {} codings",
                schema.arity(),
                codings.len()
            )));
        }
        let mut offsets = Vec::with_capacity(codings.len());
        let mut n = 0usize;
        for c in &codings {
            offsets.push(n);
            n += c.bits();
        }
        Ok(Encoder {
            schema,
            codings,
            offsets,
            n_data_bits: n,
        })
    }

    /// The Table 2 encoder for the Agrawal schema: 86 data bits + bias.
    ///
    /// Layout (1-based, as in the paper): salary I1–I6, commission I7–I13,
    /// age I14–I19, elevel I20–I23, car I24–I43, zipcode I44–I52,
    /// hvalue I53–I66, hyears I67–I76, loan I77–I86, bias I87.
    pub fn agrawal() -> Encoder {
        let schema = agrawal_schema_local();
        let step = |lo: f64, step: f64, n: usize| -> Vec<f64> {
            (1..=n).map(|i| lo + step * i as f64).collect()
        };
        let codings = vec![
            // salary: 6 intervals of width 25 000 below 125 000, open above.
            AttrCoding::thermometer(step(0.0, 25_000.0, 5)),
            // commission: 0 or [10 000, 75 000] in 7 intervals of width 10 000.
            AttrCoding::thermometer_with_absent(step(0.0, 10_000.0, 7), 0.0),
            // age: 6 intervals of width 10 from 20.
            AttrCoding::thermometer(step(20.0, 10.0, 5)),
            // elevel: ordered 0..4 -> 4 bits (>=1, >=2, >=3, >=4).
            AttrCoding::thermometer_with_absent(vec![1.0, 2.0, 3.0, 4.0], 0.0),
            // car: 20 categories, one-hot.
            AttrCoding::OneHot { cardinality: 20 },
            // zipcode: 9 categories, one-hot.
            AttrCoding::OneHot { cardinality: 9 },
            // hvalue: 14 intervals of width 100 000.
            AttrCoding::thermometer(step(0.0, 100_000.0, 13)),
            // hyears: 10 intervals of width 3 from 1.
            AttrCoding::thermometer(step(1.0, 3.0, 9)),
            // loan: 10 intervals of width 50 000.
            AttrCoding::thermometer(step(0.0, 50_000.0, 9)),
        ];
        Encoder::new(schema, codings).expect("static layout is consistent")
    }

    /// Fits a generic encoder to a dataset: numeric attributes get
    /// equal-width thermometer codes with `bins` intervals over the observed
    /// range; nominal attributes get one-hot codes.
    pub fn fit(ds: &Dataset, bins: usize) -> Result<Encoder, crate::EncodeError> {
        Self::fit_view(&ds.view(), bins)
    }

    /// [`Encoder::fit`] over a row selection (e.g. a training fold).
    pub fn fit_view(view: &DatasetView<'_>, bins: usize) -> Result<Encoder, crate::EncodeError> {
        assert!(bins >= 2, "need at least two bins");
        let schema = view.schema().clone();
        let mut codings = Vec::with_capacity(schema.arity());
        for (i, attr) in schema.attributes().iter().enumerate() {
            if let Some(card) = attr.cardinality() {
                codings.push(AttrCoding::OneHot { cardinality: card });
            } else {
                let (lo, hi) = view.numeric_range(i).unwrap_or((0.0, 1.0));
                let width = if hi > lo {
                    (hi - lo) / bins as f64
                } else {
                    1.0
                };
                let cuts: Vec<f64> = (1..bins).map(|k| lo + width * k as f64).collect();
                codings.push(AttrCoding::thermometer(cuts));
            }
        }
        Encoder::new(schema, codings)
    }

    /// [`Encoder::fit`] over several views sharing one schema — the
    /// segment-at-a-time fit for out-of-core stores (`nr-store`): numeric
    /// ranges are combined across all views, so the result is identical
    /// to fitting the concatenated dataset, without materializing it.
    pub fn fit_views<'a, I>(views: I, bins: usize) -> Result<Encoder, crate::EncodeError>
    where
        I: IntoIterator<Item = DatasetView<'a>>,
    {
        assert!(bins >= 2, "need at least two bins");
        let mut schema: Option<Schema> = None;
        let mut ranges: Vec<Option<(f64, f64)>> = Vec::new();
        for view in views {
            let s = view.schema();
            match &schema {
                None => {
                    schema = Some(s.clone());
                    ranges = vec![None; s.arity()];
                }
                Some(first) => {
                    if first != s {
                        return Err(crate::EncodeError::SchemaMismatch(
                            "views disagree on the schema".into(),
                        ));
                    }
                }
            }
            for (i, slot) in ranges.iter_mut().enumerate() {
                if let Some((lo, hi)) = view.numeric_range(i) {
                    *slot = Some(match *slot {
                        None => (lo, hi),
                        Some((a, b)) => (a.min(lo), b.max(hi)),
                    });
                }
            }
        }
        let schema = schema.ok_or_else(|| {
            crate::EncodeError::SchemaMismatch("fit_views needs at least one view".into())
        })?;
        let mut codings = Vec::with_capacity(schema.arity());
        for (i, attr) in schema.attributes().iter().enumerate() {
            if let Some(card) = attr.cardinality() {
                codings.push(AttrCoding::OneHot { cardinality: card });
            } else {
                let (lo, hi) = ranges[i].unwrap_or((0.0, 1.0));
                let width = if hi > lo {
                    (hi - lo) / bins as f64
                } else {
                    1.0
                };
                let cuts: Vec<f64> = (1..bins).map(|k| lo + width * k as f64).collect();
                codings.push(AttrCoding::thermometer(cuts));
            }
        }
        Encoder::new(schema, codings)
    }

    /// The schema this encoder understands.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Per-attribute codings in schema order.
    pub fn codings(&self) -> &[AttrCoding] {
        &self.codings
    }

    /// Number of data bits (excluding the bias).
    pub fn n_data_bits(&self) -> usize {
        self.n_data_bits
    }

    /// Number of network inputs (data bits + bias).
    pub fn n_inputs(&self) -> usize {
        self.n_data_bits + 1
    }

    /// Global index of the bias bit.
    pub fn bias_bit(&self) -> usize {
        self.n_data_bits
    }

    /// Global bit span `[start, start+len)` of attribute `a`.
    pub fn span(&self, a: usize) -> (usize, usize) {
        (self.offsets[a], self.codings[a].bits())
    }

    /// Meaning of global bit `i`.
    pub fn bit_meaning(&self, i: usize) -> BitMeaning {
        if i == self.n_data_bits {
            return BitMeaning::Bias;
        }
        let a = self.attribute_of_bit(i).expect("bit in range");
        self.codings[a].bit_meaning(a, i - self.offsets[a])
    }

    /// Attribute owning global bit `i` (`None` for the bias).
    pub fn attribute_of_bit(&self, i: usize) -> Option<usize> {
        if i >= self.n_data_bits {
            return None;
        }
        // offsets is ascending; find the last offset <= i.
        let a = match self.offsets.binary_search(&i) {
            Ok(exact) => exact,
            Err(ins) => ins - 1,
        };
        Some(a)
    }

    /// Human-readable name of bit `i`, paper-style (`I1`…`I87`).
    pub fn bit_name(&self, i: usize) -> String {
        format!("I{}", i + 1)
    }

    /// Encodes one row into `out` (length [`Self::n_inputs`]; bias included).
    pub fn encode_row_into(&self, row: &[Value], out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.n_inputs());
        for (a, coding) in self.codings.iter().enumerate() {
            let (start, len) = self.span(a);
            coding.encode(&row[a], &mut out[start..start + len]);
        }
        out[self.n_data_bits] = 1.0;
    }

    /// Encodes one row, allocating.
    pub fn encode_row(&self, row: &[Value]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_inputs()];
        self.encode_row_into(row, &mut out);
        out
    }

    /// Encodes a whole dataset.
    ///
    /// The fill is column-major over the dataset's typed columns: each
    /// attribute's coding walks one contiguous `Vec<f64>`/`Vec<u32>` and
    /// scatters its bit span into every output row — no per-row `Vec<Value>`
    /// is ever materialized.
    pub fn encode_dataset(&self, ds: &Dataset) -> EncodedDataset {
        self.encode_view(&ds.view())
    }

    /// Encodes a row selection (e.g. a cross-validation fold) without
    /// materializing it.
    pub fn encode_view(&self, view: &DatasetView<'_>) -> EncodedDataset {
        let cols = self.n_inputs();
        let rows = view.len();
        let mut data = vec![0.0; rows * cols];
        for (a, coding) in self.codings.iter().enumerate() {
            let (start, len) = self.span(a);
            match view.dataset().column(a) {
                Column::Num(_) => {
                    for (i, x) in view.num_column(a).enumerate() {
                        let at = i * cols + start;
                        coding.encode(&Value::Num(x), &mut data[at..at + len]);
                    }
                }
                Column::Nominal(_) => {
                    for (i, c) in view.nominal_column(a).enumerate() {
                        let at = i * cols + start;
                        coding.encode(&Value::Nominal(c), &mut data[at..at + len]);
                    }
                }
            }
        }
        let bias = self.n_data_bits;
        for i in 0..rows {
            data[i * cols + bias] = 1.0;
        }
        let targets: Vec<ClassId> = view.labels().collect();
        EncodedDataset::from_parts(data, cols, targets, view.n_classes())
    }
}

/// Local copy of the Agrawal schema to avoid a dependency cycle with
/// `nr-datagen` (which depends on nothing here; both crates must agree —
/// an integration test in the workspace root asserts they do).
fn agrawal_schema_local() -> Schema {
    use nr_tabular::Attribute;
    Schema::new(vec![
        Attribute::numeric("salary"),
        Attribute::numeric("commission"),
        Attribute::numeric("age"),
        Attribute::numeric("elevel"),
        Attribute::nominal("car", (1..=20).map(|i| format!("car{i}"))),
        Attribute::nominal("zipcode", (1..=9).map(|i| format!("zip{i}"))),
        Attribute::numeric("hvalue"),
        Attribute::numeric("hyears"),
        Attribute::numeric("loan"),
    ])
}

/// A dataset encoded to network inputs: a dense row-major matrix of 0/1
/// values (plus the bias column) and integer class targets.
///
/// Alongside the per-row accessors, the encoded data is held in the batch
/// layout the network's matrix kernels consume — one contiguous row-major
/// inputs buffer plus a one-hot target matrix, both built once at encoding
/// time and exposed through [`EncodedDataset::batch`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedDataset {
    data: Vec<f64>,
    cols: usize,
    targets: Vec<ClassId>,
    n_classes: usize,
    /// Row-major `rows × n_classes` one-hot expansion of `targets`.
    onehot: Vec<f64>,
    /// Set-bit layout of `data`, present when every entry is exactly 0/1.
    bits: Option<BinaryInputs>,
}

/// Compressed set-bit (CSR-style) layout of a strictly-0/1 input matrix.
///
/// The paper's thermometer/one-hot coding (Table 2) produces inputs that
/// are exactly 0.0 or 1.0, so a row's contribution to `X·Wᵀ` is a plain
/// gather-sum over its set bits — a fraction of the dense multiply-adds.
/// Built once at encoding time; consumers fall back to the dense buffer
/// when the data is not binary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinaryInputs {
    /// Set-bit column indices, ascending within each row, rows concatenated.
    indices: Vec<u32>,
    /// Row `i`'s indices are `indices[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
}

impl BinaryInputs {
    /// Builds the layout, or `None` when any entry is not exactly 0/1.
    fn detect(data: &[f64], cols: usize) -> Option<BinaryInputs> {
        if cols == 0 {
            return None;
        }
        let rows = data.len() / cols;
        let mut indices = Vec::with_capacity(data.len() / 4);
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        for r in 0..rows {
            for (c, &v) in data[r * cols..(r + 1) * cols].iter().enumerate() {
                if v == 1.0 {
                    indices.push(c as u32);
                } else if v != 0.0 {
                    return None;
                }
            }
            offsets.push(indices.len());
        }
        Some(BinaryInputs { indices, offsets })
    }

    /// Number of rows described.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Set-bit column indices of row `i`, ascending.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.indices[self.offsets[i]..self.offsets[i + 1]]
    }

    /// All set-bit indices, rows concatenated (see [`BinaryInputs::offsets`]).
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Per-row offsets into [`BinaryInputs::indices`] (length `rows + 1`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }
}

/// Borrowed dense batch view of an [`EncodedDataset`]: the whole dataset as
/// two contiguous row-major matrices, ready for matrix-matrix kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodedBatch<'a> {
    /// All input rows, row-major (`rows × cols`, bias column included).
    pub inputs: &'a [f64],
    /// One-hot targets, row-major (`rows × n_classes`).
    pub targets_onehot: &'a [f64],
    /// Number of rows.
    pub rows: usize,
    /// Number of input columns.
    pub cols: usize,
    /// Number of classes (columns of `targets_onehot`).
    pub n_classes: usize,
    /// Set-bit layout of `inputs` when the data is strictly 0/1
    /// (always the case for the paper's Table-2 coding).
    pub bits: Option<&'a BinaryInputs>,
}

impl EncodedDataset {
    /// Builds an encoded dataset from raw parts (used by subnetwork training).
    pub fn from_parts(
        data: Vec<f64>,
        cols: usize,
        targets: Vec<ClassId>,
        n_classes: usize,
    ) -> Self {
        assert_eq!(data.len() % cols.max(1), 0, "ragged matrix");
        assert_eq!(
            data.len() / cols.max(1),
            targets.len(),
            "target count mismatch"
        );
        let mut onehot = vec![0.0; targets.len() * n_classes];
        for (i, &t) in targets.iter().enumerate() {
            assert!(
                t < n_classes,
                "target {t} out of range for {n_classes} classes"
            );
            onehot[i * n_classes + t] = 1.0;
        }
        let bits = BinaryInputs::detect(&data, cols);
        EncodedDataset {
            data,
            cols,
            targets,
            n_classes,
            onehot,
            bits,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.targets.len()
    }

    /// Number of input columns (bias included).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Input vector of row `i`.
    #[inline]
    pub fn input(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Class target of row `i`.
    #[inline]
    pub fn target(&self, i: usize) -> ClassId {
        self.targets[i]
    }

    /// All targets.
    pub fn targets(&self) -> &[ClassId] {
        &self.targets
    }

    /// All input rows as one contiguous row-major buffer (`rows × cols`).
    #[inline]
    pub fn inputs_flat(&self) -> &[f64] {
        &self.data
    }

    /// One-hot targets as one contiguous row-major buffer
    /// (`rows × n_classes`).
    #[inline]
    pub fn targets_onehot(&self) -> &[f64] {
        &self.onehot
    }

    /// Set-bit layout of the inputs, when they are strictly 0/1.
    #[inline]
    pub fn binary_inputs(&self) -> Option<&BinaryInputs> {
        self.bits.as_ref()
    }

    /// The whole dataset as a dense batch (built once at encoding time;
    /// this is a zero-cost borrow).
    #[inline]
    pub fn batch(&self) -> EncodedBatch<'_> {
        EncodedBatch {
            inputs: &self.data,
            targets_onehot: &self.onehot,
            rows: self.targets.len(),
            cols: self.cols,
            n_classes: self.n_classes,
            bits: self.bits.as_ref(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agrawal_layout_matches_table2() {
        let e = Encoder::agrawal();
        assert_eq!(e.n_data_bits(), 86);
        assert_eq!(e.n_inputs(), 87);
        // Paper spans (0-based): salary 0..6, commission 6..13, age 13..19,
        // elevel 19..23, car 23..43, zipcode 43..52, hvalue 52..66,
        // hyears 66..76, loan 76..86.
        assert_eq!(e.span(0), (0, 6));
        assert_eq!(e.span(1), (6, 7));
        assert_eq!(e.span(2), (13, 6));
        assert_eq!(e.span(3), (19, 4));
        assert_eq!(e.span(4), (23, 20));
        assert_eq!(e.span(5), (43, 9));
        assert_eq!(e.span(6), (52, 14));
        assert_eq!(e.span(7), (66, 10));
        assert_eq!(e.span(8), (76, 10));
        assert_eq!(e.bias_bit(), 86);
    }

    #[test]
    fn paper_bit_semantics() {
        let e = Encoder::agrawal();
        // I2 (index 1) <=> salary >= 100000; I5 (index 4) <=> salary >= 25000.
        match e.bit_meaning(1) {
            BitMeaning::Threshold {
                attribute: 0,
                threshold,
                ..
            } => {
                assert_eq!(threshold, 100_000.0)
            }
            m => panic!("unexpected {m:?}"),
        }
        match e.bit_meaning(4) {
            BitMeaning::Threshold {
                attribute: 0,
                threshold,
                ..
            } => {
                assert_eq!(threshold, 25_000.0)
            }
            m => panic!("unexpected {m:?}"),
        }
        // I13 (index 12) <=> commission >= 10000 (lowest commission bit).
        match e.bit_meaning(12) {
            BitMeaning::Threshold {
                attribute: 1,
                threshold,
                absent_value,
                ..
            } => {
                assert_eq!(threshold, 10_000.0);
                assert_eq!(absent_value, Some(0.0));
            }
            m => panic!("unexpected {m:?}"),
        }
        // I15 (index 14) <=> age >= 60; I17 (index 16) <=> age >= 40.
        match e.bit_meaning(14) {
            BitMeaning::Threshold {
                attribute: 2,
                threshold,
                ..
            } => assert_eq!(threshold, 60.0),
            m => panic!("unexpected {m:?}"),
        }
        match e.bit_meaning(16) {
            BitMeaning::Threshold {
                attribute: 2,
                threshold,
                ..
            } => assert_eq!(threshold, 40.0),
            m => panic!("unexpected {m:?}"),
        }
        assert_eq!(e.bit_meaning(86), BitMeaning::Bias);
    }

    #[test]
    fn encode_row_paper_example() {
        let e = Encoder::agrawal();
        // salary 30 000 -> {000011} on I1..I6.
        let row = vec![
            Value::Num(30_000.0),
            Value::Num(0.0),
            Value::Num(45.0),
            Value::Num(2.0),
            Value::Nominal(3),
            Value::Nominal(7),
            Value::Num(250_000.0),
            Value::Num(10.0),
            Value::Num(60_000.0),
        ];
        let x = e.encode_row(&row);
        assert_eq!(&x[0..6], &[0.0, 0.0, 0.0, 0.0, 1.0, 1.0]);
        assert_eq!(&x[6..13], &[0.0; 7]); // commission = 0
        assert_eq!(&x[13..19], &[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]); // age 45 -> >=40,>=30,always
        assert_eq!(&x[19..23], &[0.0, 0.0, 1.0, 1.0]); // elevel 2 -> >=2,>=1
        assert_eq!(x[23 + 3], 1.0); // car code 3
        assert_eq!(x[43 + 7], 1.0); // zip code 7
        assert_eq!(x[86], 1.0); // bias
                                // salary 2 + commission 0 + age 3 + elevel 2 + car 1 + zip 1
                                //  + hvalue 3 + hyears 4 + loan 2 + bias 1 = 19 set bits.
        assert_eq!(x.iter().filter(|&&b| b == 1.0).count(), 19);
    }

    #[test]
    fn attribute_of_bit_boundaries() {
        let e = Encoder::agrawal();
        assert_eq!(e.attribute_of_bit(0), Some(0));
        assert_eq!(e.attribute_of_bit(5), Some(0));
        assert_eq!(e.attribute_of_bit(6), Some(1));
        assert_eq!(e.attribute_of_bit(85), Some(8));
        assert_eq!(e.attribute_of_bit(86), None);
    }

    #[test]
    fn bit_names_are_one_based() {
        let e = Encoder::agrawal();
        assert_eq!(e.bit_name(0), "I1");
        assert_eq!(e.bit_name(86), "I87");
    }

    #[test]
    fn encode_dataset_shapes() {
        let e = Encoder::agrawal();
        let schema = e.schema().clone();
        let mut ds = Dataset::new(schema, vec!["A".into(), "B".into()]);
        let row = vec![
            Value::Num(30_000.0),
            Value::Num(0.0),
            Value::Num(45.0),
            Value::Num(2.0),
            Value::Nominal(3),
            Value::Nominal(7),
            Value::Num(250_000.0),
            Value::Num(10.0),
            Value::Num(60_000.0),
        ];
        ds.push(row.clone(), 0).unwrap();
        ds.push(row, 1).unwrap();
        let enc = e.encode_dataset(&ds);
        assert_eq!(enc.rows(), 2);
        assert_eq!(enc.cols(), 87);
        assert_eq!(enc.target(0), 0);
        assert_eq!(enc.target(1), 1);
        assert_eq!(enc.input(0), enc.input(1));
        assert_eq!(enc.n_classes(), 2);
    }

    #[test]
    fn fit_generic_encoder() {
        use nr_tabular::Attribute;
        let schema = Schema::new(vec![
            Attribute::numeric("x"),
            Attribute::nominal_anon("c", 3),
        ]);
        let mut ds = Dataset::new(schema, vec!["A".into(), "B".into()]);
        for i in 0..10 {
            ds.push(vec![Value::Num(i as f64), Value::Nominal(i % 3)], 0)
                .unwrap();
        }
        let e = Encoder::fit(&ds, 4).unwrap();
        assert_eq!(e.n_data_bits(), 4 + 3);
        let x = e.encode_row(&[Value::Num(9.0), Value::Nominal(2)]);
        assert_eq!(&x[0..4], &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(&x[4..7], &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn fit_views_matches_fit_on_concatenation() {
        use nr_tabular::Attribute;
        let schema = Schema::new(vec![
            Attribute::numeric("x"),
            Attribute::nominal_anon("c", 3),
        ]);
        let mut ds = Dataset::new(schema, vec!["A".into(), "B".into()]);
        for i in 0..20 {
            ds.push(vec![Value::Num(i as f64 * 1.5), Value::Nominal(i % 3)], 0)
                .unwrap();
        }
        // Two "segments": the numeric range spans both, so a correct
        // multi-view fit must combine them.
        let head = ds.subset(&(0..8).collect::<Vec<_>>());
        let tail = ds.subset(&(8..20).collect::<Vec<_>>());
        let whole = Encoder::fit(&ds, 4).unwrap();
        let segmented = Encoder::fit_views([head.view(), tail.view()], 4).unwrap();
        assert_eq!(whole, segmented);
        // No views is an error, not a panic.
        assert!(Encoder::fit_views(std::iter::empty(), 4).is_err());
    }

    #[test]
    fn batch_view_matches_per_row_accessors() {
        let ds =
            EncodedDataset::from_parts(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], 2, vec![0, 2, 1], 3);
        let batch = ds.batch();
        assert_eq!(batch.rows, 3);
        assert_eq!(batch.cols, 2);
        assert_eq!(batch.n_classes, 3);
        for i in 0..3 {
            assert_eq!(&batch.inputs[i * 2..(i + 1) * 2], ds.input(i));
            let onehot = &batch.targets_onehot[i * 3..(i + 1) * 3];
            for (c, &v) in onehot.iter().enumerate() {
                assert_eq!(v, if c == ds.target(i) { 1.0 } else { 0.0 });
            }
        }
        assert_eq!(ds.inputs_flat().len(), 6);
        assert_eq!(ds.targets_onehot().len(), 9);
        // Strictly-0/1 data carries the set-bit layout.
        let bits = batch.bits.expect("binary data");
        assert_eq!(bits.rows(), 3);
        assert_eq!(bits.row(0), &[0]);
        assert_eq!(bits.row(1), &[1]);
        assert_eq!(bits.row(2), &[0, 1]);
    }

    #[test]
    fn non_binary_data_has_no_bit_layout() {
        let ds = EncodedDataset::from_parts(vec![0.5, 1.0], 1, vec![0, 1], 2);
        assert!(ds.binary_inputs().is_none());
        assert!(ds.batch().bits.is_none());
        // An empty binary row still counts as binary.
        let ds = EncodedDataset::from_parts(vec![0.0, 0.0], 2, vec![0], 2);
        let bits = ds.binary_inputs().expect("all zeros is binary");
        assert_eq!(bits.row(0), &[] as &[u32]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_parts_rejects_out_of_range_target() {
        let _ = EncodedDataset::from_parts(vec![1.0, 1.0], 1, vec![0, 2], 2);
    }

    #[test]
    fn new_rejects_mismatched_codings() {
        let e = Encoder::agrawal();
        let err = Encoder::new(e.schema().clone(), vec![]);
        assert!(err.is_err());
    }
}
