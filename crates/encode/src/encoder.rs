//! The schema-level encoder: bit layout and dataset encoding.

use nr_tabular::{ClassId, Dataset, DatasetView, Schema, Value};
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
    /// Builds an encoder from explicit per-attribute codings. Fails with
    /// [`Encoder::validate`]'s error when the codings do not fit the
    /// schema, so every constructed encoder can be interval-coded.
    pub fn new(schema: Schema, codings: Vec<AttrCoding>) -> Result<Self, crate::EncodeError> {
        let mut offsets = Vec::with_capacity(codings.len());
        let mut n = 0usize;
        for c in &codings {
            offsets.push(n);
            n += c.bits();
        }
        let encoder = Encoder {
            schema,
            codings,
            offsets,
            n_data_bits: n,
        };
        encoder.validate()?;
        Ok(encoder)
    }

    /// The Table 2 encoder for the Agrawal schema: 86 data bits + bias.
    ///
    /// Layout (1-based, as in the paper): salary I1–I6, commission I7–I13,
    /// age I14–I19, elevel I20–I23, car I24–I43, zipcode I44–I52,
    /// hvalue I53–I66, hyears I67–I76, loan I77–I86, bias I87.
    pub fn agrawal() -> Encoder {
        let schema = nr_datagen::agrawal_schema();
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

    /// Checks the invariants encoding and scoring rely on ([`Encoder::new`]
    /// runs it; a deserialized encoder carries no guarantee): one coding per
    /// attribute, spans laid out back to back, a thermometer only on a
    /// numeric attribute with ascending, non-NaN thresholds, and a
    /// one-hot coding only on a nominal attribute with the same number of
    /// categories.
    pub fn validate(&self) -> Result<(), crate::EncodeError> {
        use nr_tabular::AttrKind;
        let bad = |msg: String| Err(crate::EncodeError::SchemaMismatch(msg));
        let arity = self.schema.arity();
        if self.codings.len() != arity || self.offsets.len() != arity {
            return bad(format!(
                "{arity} attributes vs {} codings and {} offsets",
                self.codings.len(),
                self.offsets.len()
            ));
        }
        let mut n = 0usize;
        for (a, (attr, coding)) in self
            .schema
            .attributes()
            .iter()
            .zip(&self.codings)
            .enumerate()
        {
            if self.offsets[a] != n {
                return bad(format!(
                    "attribute {a} starts at bit {}, expected {n}",
                    self.offsets[a]
                ));
            }
            n += coding.bits();
            match (&attr.kind, coding) {
                (AttrKind::Numeric, AttrCoding::Thermometer { thresholds, .. }) => {
                    if thresholds.iter().any(|t| t.is_nan())
                        || thresholds.windows(2).any(|w| w[0] > w[1])
                    {
                        return bad(format!("attribute {a}: thresholds must ascend"));
                    }
                }
                (AttrKind::Nominal { categories }, AttrCoding::OneHot { cardinality }) => {
                    if *cardinality != categories.len() {
                        return bad(format!(
                            "attribute {a}: one-hot cardinality {cardinality} vs {} categories",
                            categories.len()
                        ));
                    }
                }
                (AttrKind::Numeric, AttrCoding::OneHot { .. }) => {
                    return bad(format!(
                        "attribute {a}: one-hot coding on a numeric attribute"
                    ));
                }
                (AttrKind::Nominal { .. }, AttrCoding::Thermometer { .. }) => {
                    return bad(format!(
                        "attribute {a}: thermometer coding on a nominal attribute"
                    ));
                }
            }
        }
        if n != self.n_data_bits || u32::try_from(n).is_err() {
            return bad(format!("{} data bits, codings span {n}", self.n_data_bits));
        }
        Ok(())
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

    /// Encodes a whole dataset (see [`Encoder::encode_view`]).
    pub fn encode_dataset(&self, ds: &Dataset) -> EncodedDataset {
        self.encode_view(&ds.view())
    }

    /// Encodes a row selection (e.g. a cross-validation fold) without
    /// materializing it: the [`IntervalCoder`](crate::IntervalCoder)
    /// writes the rows straight into the set-bit layout.
    ///
    /// # Panics
    ///
    /// When the encoder fails [`Encoder::validate`] (only reachable by
    /// deserializing one), or when an attribute of the view's schema is
    /// missing or has another kind than this encoder's schema.
    pub fn encode_view(&self, view: &DatasetView<'_>) -> EncodedDataset {
        let coder = self
            .interval_coder()
            .expect("encoder passes Encoder::validate");
        let (mut indices, mut offsets) = (Vec::new(), Vec::new());
        coder.encode_rows(view, 0..view.len(), &mut indices, &mut offsets);
        EncodedDataset::from_bits(
            BinaryInputs { indices, offsets },
            self.n_inputs(),
            view.labels().collect(),
            view.n_classes(),
        )
    }
}

/// A dataset encoded to network inputs: each row's set input columns
/// (the bias column included) and integer class targets.
///
/// The paper's thermometer/one-hot coding (Table 2) produces inputs that
/// are exactly 0.0 or 1.0, so the set bits are the whole input: the
/// network's batch kernels read the rows straight from
/// [`EncodedDataset::binary_inputs`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedDataset {
    bits: BinaryInputs,
    cols: usize,
    targets: Vec<ClassId>,
    n_classes: usize,
}

/// Compressed set-bit (CSR-style) layout of a 0/1 input matrix.
///
/// A row's contribution to `X·Wᵀ` is a plain gather-sum over its set
/// bits — a fraction of the dense multiply-adds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinaryInputs {
    /// Set-bit column indices, ascending within each row, rows concatenated.
    indices: Vec<u32>,
    /// Row `i`'s indices are `indices[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
}

impl BinaryInputs {
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

impl EncodedDataset {
    /// Builds an encoded dataset from a dense row-major matrix of `cols`
    /// columns (used by subnetwork training and tests). Only the set bits
    /// are kept.
    ///
    /// # Panics
    ///
    /// On a ragged matrix, a target count other than the row count, a
    /// target of `n_classes` or more, or an entry that is not exactly
    /// 0.0 or 1.0.
    pub fn from_parts(
        dense: Vec<f64>,
        cols: usize,
        targets: Vec<ClassId>,
        n_classes: usize,
    ) -> Self {
        assert_eq!(dense.len() % cols.max(1), 0, "ragged matrix");
        assert_eq!(
            dense.len() / cols.max(1),
            targets.len(),
            "target count mismatch"
        );
        assert!(u32::try_from(cols).is_ok(), "{cols} columns overflow u32");
        let mut indices = Vec::new();
        let mut offsets = Vec::with_capacity(targets.len() + 1);
        offsets.push(0);
        for (r, row) in dense.chunks(cols.max(1)).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                if v == 1.0 {
                    indices.push(c as u32);
                } else {
                    assert!(v == 0.0, "entry {v} at row {r}, column {c} is not 0/1");
                }
            }
            offsets.push(indices.len());
        }
        Self::from_bits(BinaryInputs { indices, offsets }, cols, targets, n_classes)
    }

    /// Wraps a set-bit layout with one row per target.
    fn from_bits(bits: BinaryInputs, cols: usize, targets: Vec<ClassId>, n_classes: usize) -> Self {
        debug_assert_eq!(bits.offsets.len(), targets.len() + 1);
        for &t in &targets {
            assert!(
                t < n_classes,
                "target {t} out of range for {n_classes} classes"
            );
        }
        EncodedDataset {
            bits,
            cols,
            targets,
            n_classes,
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

    /// Set input columns of row `i`, ascending.
    #[inline]
    pub fn row_bits(&self, i: usize) -> &[u32] {
        &self.bits.indices[self.bits.offsets[i]..self.bits.offsets[i + 1]]
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

    /// Every row's set input columns, in the layout the network's batch
    /// kernels consume.
    #[inline]
    pub fn binary_inputs(&self) -> &BinaryInputs {
        &self.bits
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
        assert_eq!(enc.row_bits(0), enc.row_bits(1));
        // The batch encoding sets exactly the per-row encoding's ones.
        let dense = e.encode_row(&ds.row_values(0));
        let ones: Vec<u32> = (0..87u32).filter(|&c| dense[c as usize] == 1.0).collect();
        assert_eq!(enc.row_bits(0), &ones[..]);
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
        assert_eq!(ds.rows(), 3);
        assert_eq!(ds.cols(), 2);
        assert_eq!(ds.n_classes(), 3);
        let bits = ds.binary_inputs();
        assert_eq!(bits.indices(), &[0, 1, 0, 1]);
        assert_eq!(bits.offsets(), &[0, 1, 2, 4]);
        assert_eq!(ds.row_bits(0), &[0]);
        assert_eq!(ds.row_bits(1), &[1]);
        assert_eq!(ds.row_bits(2), &[0, 1]);
        assert_eq!(ds.targets(), &[0, 2, 1]);
        assert_eq!(ds.target(1), 2);
        // An all-zero row has no set bits.
        let ds = EncodedDataset::from_parts(vec![0.0, 0.0], 2, vec![0], 2);
        assert_eq!(ds.row_bits(0), &[] as &[u32]);
    }

    #[test]
    #[should_panic(expected = "is not 0/1")]
    fn from_parts_rejects_non_binary_entries() {
        let _ = EncodedDataset::from_parts(vec![0.5, 1.0], 1, vec![0, 1], 2);
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
