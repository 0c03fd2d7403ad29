//! Labeled datasets: typed columns of tuples plus class labels.
//!
//! The storage is **columnar**: one `f64` buffer per numeric attribute, one
//! `u32` code buffer per nominal attribute, and one label buffer — the layout the
//! paper's "mining large databases" framing calls for. Consumers scan
//! columns ([`Dataset::num_column`] / [`Dataset::nominal_column`]) or work
//! on zero-copy row selections ([`crate::DatasetView`]); the row-major
//! [`Dataset::row_values`] shim exists only for display and for feeding
//! single tuples to row-oriented predictors.

use serde::{Deserialize, Serialize};

use crate::{AttrKind, Buf, Schema, TabularError, Value};

/// Index into a dataset's class list.
pub type ClassId = usize;

/// One typed attribute column. The backing [`Buf`] is either an owned
/// `Vec` (every ordinary construction path) or a zero-copy window into a
/// shared source such as a memory-mapped segment file (`nr-store`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Column {
    /// Values of a numeric attribute, in row order.
    Num(Buf<f64>),
    /// Category codes of a nominal attribute, in row order.
    Nominal(Buf<u32>),
}

impl Column {
    /// An empty column matching an attribute kind.
    pub fn empty_for(kind: &AttrKind) -> Column {
        match kind {
            AttrKind::Numeric => Column::Num(Buf::new()),
            AttrKind::Nominal { .. } => Column::Nominal(Buf::new()),
        }
    }

    /// An owned numeric column (convenience constructor).
    pub fn num(values: Vec<f64>) -> Column {
        Column::Num(values.into())
    }

    /// An owned nominal column (convenience constructor).
    pub fn nominal(codes: Vec<u32>) -> Column {
        Column::Nominal(codes.into())
    }

    /// Number of values stored.
    pub fn len(&self) -> usize {
        match self {
            Column::Num(v) => v.len(),
            Column::Nominal(v) => v.len(),
        }
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the backing buffer borrows a shared source (e.g. a
    /// memory-mapped segment region) instead of owning a `Vec`.
    pub fn is_shared(&self) -> bool {
        match self {
            Column::Num(v) => v.is_shared(),
            Column::Nominal(v) => v.is_shared(),
        }
    }

    /// The numeric data, or `None` for nominal columns.
    pub fn as_num(&self) -> Option<&[f64]> {
        match self {
            Column::Num(v) => Some(v),
            Column::Nominal(_) => None,
        }
    }

    /// The nominal codes, or `None` for numeric columns.
    pub fn as_nominal(&self) -> Option<&[u32]> {
        match self {
            Column::Num(_) => None,
            Column::Nominal(v) => Some(v),
        }
    }

    /// Value at `row` as a [`Value`].
    #[inline]
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Num(v) => Value::Num(v[row]),
            Column::Nominal(v) => Value::Nominal(v[row]),
        }
    }

    fn reserve(&mut self, additional: usize) {
        match self {
            Column::Num(v) => v.reserve(additional),
            Column::Nominal(v) => v.reserve(additional),
        }
    }

    fn split_off(&mut self, at: usize) -> Column {
        match self {
            Column::Num(v) => Column::Num(v.split_off(at)),
            Column::Nominal(v) => Column::Nominal(v.split_off(at)),
        }
    }

    fn shrink_to_fit(&mut self) {
        match self {
            Column::Num(v) => v.shrink_to_fit(),
            Column::Nominal(v) => v.shrink_to_fit(),
        }
    }

    fn push_value(&mut self, value: &Value) {
        match (self, value) {
            (Column::Num(v), Value::Num(x)) => v.push(*x),
            (Column::Nominal(v), Value::Nominal(c)) => v.push(*c),
            _ => unreachable!("validated against the schema before pushing"),
        }
    }

    fn extend_gather(&mut self, src: &Column, indices: &[usize]) {
        match (self, src) {
            (Column::Num(dst), Column::Num(s)) => dst.extend(indices.iter().map(|&i| s[i])),
            (Column::Nominal(dst), Column::Nominal(s)) => dst.extend(indices.iter().map(|&i| s[i])),
            _ => unreachable!("columns of one schema share kinds"),
        }
    }
}

/// A labeled dataset: a schema, typed attribute columns, and one class
/// label per row.
///
/// This corresponds directly to the paper's training/testing sets of
/// `(a_1, …, a_n, c_k)` tuples, stored column-major.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    schema: Schema,
    class_names: Vec<String>,
    columns: Vec<Column>,
    labels: Buf<ClassId>,
}

impl Dataset {
    /// Creates an empty dataset over `schema` with the given class labels.
    pub fn new(schema: Schema, class_names: Vec<String>) -> Self {
        let columns = schema
            .attributes()
            .iter()
            .map(|a| Column::empty_for(&a.kind))
            .collect();
        Dataset {
            schema,
            class_names,
            columns,
            labels: Buf::new(),
        }
    }

    /// Assembles a dataset directly from pre-built columns and labels —
    /// the zero-copy segment-load path (`nr-store` maps a spill file and
    /// wraps each region in a [`Buf::Shared`] window).
    ///
    /// Structural invariants (arity, per-column kind, equal lengths) are
    /// checked here. **Value-level invariants** — finite numerics, nominal
    /// codes within each attribute's category list, labels within the
    /// class list — are the caller's contract (they are debug-asserted):
    /// scanning every value would fault in every page of a mapped
    /// multi-gigabyte segment, defeating lazy loading. `nr-store` upholds
    /// the contract because spill files are written from datasets that
    /// were validated on ingest.
    pub fn from_shared_parts(
        schema: Schema,
        class_names: Vec<String>,
        columns: Vec<Column>,
        labels: Buf<ClassId>,
    ) -> crate::Result<Self> {
        if columns.len() != schema.arity() {
            return Err(TabularError::ArityMismatch {
                expected: schema.arity(),
                got: columns.len(),
            });
        }
        let rows = labels.len();
        for (a, (attr, col)) in schema.attributes().iter().zip(&columns).enumerate() {
            if col.len() != rows {
                return Err(TabularError::RowLabelCountMismatch {
                    rows: col.len(),
                    labels: rows,
                });
            }
            match (&attr.kind, col) {
                (AttrKind::Numeric, Column::Num(xs)) => {
                    debug_assert!(
                        xs.iter().all(|x| x.is_finite()),
                        "non-finite numeric value in shared column {a}"
                    );
                }
                (AttrKind::Nominal { categories }, Column::Nominal(cs)) => {
                    debug_assert!(
                        cs.iter().all(|&c| (c as usize) < categories.len()),
                        "nominal code out of range in shared column {a}"
                    );
                }
                _ => {
                    return Err(TabularError::TypeMismatch {
                        attribute: a,
                        detail: "column kind does not match the attribute".into(),
                    })
                }
            }
        }
        debug_assert!(
            labels.iter().all(|&l| l < class_names.len()),
            "label out of range in shared label buffer"
        );
        Ok(Dataset {
            schema,
            class_names,
            columns,
            labels,
        })
    }

    /// Creates an empty dataset with row capacity reserved in every column.
    pub fn with_capacity(schema: Schema, class_names: Vec<String>, rows: usize) -> Self {
        let mut ds = Dataset::new(schema, class_names);
        ds.reserve(rows);
        ds
    }

    /// Reserves capacity for `additional` more rows in every column.
    pub fn reserve(&mut self, additional: usize) {
        for c in &mut self.columns {
            c.reserve(additional);
        }
        self.labels.reserve(additional);
    }

    /// Creates a dataset from row-major data, validating each row against
    /// the schema (compatibility constructor; bulk ingest should build
    /// columns directly and use [`Dataset::append_columns`]).
    pub fn from_rows(
        schema: Schema,
        class_names: Vec<String>,
        rows: Vec<Vec<Value>>,
        labels: Vec<ClassId>,
    ) -> crate::Result<Self> {
        if rows.len() != labels.len() {
            return Err(TabularError::RowLabelCountMismatch {
                rows: rows.len(),
                labels: labels.len(),
            });
        }
        let mut ds = Dataset::with_capacity(schema, class_names, rows.len());
        for (row, label) in rows.into_iter().zip(labels) {
            ds.push(row, label)?;
        }
        Ok(ds)
    }

    /// Appends one validated row **without a known class** — the serving
    /// ingest path. The row is stored with the placeholder label `0`
    /// (keeping the one-label-per-row invariant); batch predictors ignore
    /// labels, so scoring a table built this way is well-defined, while
    /// label-consuming statistics (`accuracy`, confusion matrices) are
    /// meaningless on it by construction.
    pub fn push_unlabeled(&mut self, row: Vec<Value>) -> crate::Result<()> {
        assert!(
            !self.class_names.is_empty(),
            "dataset must know its class list before receiving rows"
        );
        self.push(row, 0)
    }

    /// Appends one validated row (scattered into the columns).
    pub fn push(&mut self, row: Vec<Value>, label: ClassId) -> crate::Result<()> {
        self.schema.validate_row(&row)?;
        if label >= self.class_names.len() {
            return Err(TabularError::UnknownClass(label));
        }
        for (col, value) in self.columns.iter_mut().zip(&row) {
            col.push_value(value);
        }
        self.labels.push(label);
        Ok(())
    }

    /// Bulk append: concatenates whole column segments onto the dataset.
    ///
    /// Validation is per *column* (kind match, finite numerics, nominal
    /// codes in range, labels in range) — one cache-friendly scan per
    /// attribute instead of the per-row, per-value dispatch of
    /// [`Dataset::push`]. All segments and `labels` must have equal length.
    pub fn append_columns(
        &mut self,
        columns: Vec<Column>,
        labels: Vec<ClassId>,
    ) -> crate::Result<()> {
        if columns.len() != self.schema.arity() {
            return Err(TabularError::ArityMismatch {
                expected: self.schema.arity(),
                got: columns.len(),
            });
        }
        let rows = labels.len();
        for (a, (attr, col)) in self.schema.attributes().iter().zip(&columns).enumerate() {
            if col.len() != rows {
                return Err(TabularError::RowLabelCountMismatch {
                    rows: col.len(),
                    labels: rows,
                });
            }
            match (&attr.kind, col) {
                (AttrKind::Numeric, Column::Num(xs)) => {
                    if let Some(bad) = xs.iter().find(|x| !x.is_finite()) {
                        return Err(TabularError::TypeMismatch {
                            attribute: a,
                            detail: format!("non-finite numeric value {bad}"),
                        });
                    }
                }
                (AttrKind::Nominal { categories }, Column::Nominal(cs)) => {
                    let card = categories.len() as u32;
                    if let Some(&bad) = cs.iter().find(|&&c| c >= card) {
                        return Err(TabularError::UnknownCategory {
                            attribute: a,
                            code: bad,
                        });
                    }
                }
                (AttrKind::Numeric, Column::Nominal(_)) => {
                    return Err(TabularError::TypeMismatch {
                        attribute: a,
                        detail: "nominal column for numeric attribute".into(),
                    })
                }
                (AttrKind::Nominal { .. }, Column::Num(_)) => {
                    return Err(TabularError::TypeMismatch {
                        attribute: a,
                        detail: "numeric column for nominal attribute".into(),
                    })
                }
            }
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= self.class_names.len()) {
            return Err(TabularError::UnknownClass(bad));
        }
        for (dst, src) in self.columns.iter_mut().zip(columns) {
            match (dst, src) {
                (Column::Num(d), Column::Num(s)) => d.extend(s),
                (Column::Nominal(d), Column::Nominal(s)) => d.extend(s),
                _ => unreachable!("kinds checked above"),
            }
        }
        self.labels.extend(labels);
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The schema shared by all rows.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The class label names (indexed by [`ClassId`]).
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Number of distinct classes.
    pub fn n_classes(&self) -> usize {
        self.class_names.len()
    }

    /// The typed column of attribute `a`.
    #[inline]
    pub fn column(&self, a: usize) -> &Column {
        &self.columns[a]
    }

    /// The numeric column of attribute `a`. Panics on nominal attributes.
    #[inline]
    pub fn num_column(&self, a: usize) -> &[f64] {
        self.columns[a].as_num().expect("attribute is numeric")
    }

    /// The nominal column of attribute `a`. Panics on numeric attributes.
    #[inline]
    pub fn nominal_column(&self, a: usize) -> &[u32] {
        self.columns[a].as_nominal().expect("attribute is nominal")
    }

    /// Value of attribute `a` in row `row`.
    #[inline]
    pub fn value(&self, row: usize, a: usize) -> Value {
        self.columns[a].value(row)
    }

    /// Row `row` materialized as a value vector.
    ///
    /// This is the compatibility shim over the columnar storage — a gather
    /// plus an allocation per call. Use it for display and for handing
    /// single tuples to row-oriented APIs; bulk consumers should scan
    /// columns instead.
    pub fn row_values(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(row)).collect()
    }

    /// Label of row `index`.
    #[inline]
    pub fn label(&self, index: usize) -> ClassId {
        self.labels[index]
    }

    /// All labels in row order.
    pub fn labels(&self) -> &[ClassId] {
        &self.labels
    }

    /// Count of rows per class.
    pub fn class_distribution(&self) -> Vec<usize> {
        self.view().class_distribution()
    }

    /// The most frequent class (ties broken by lowest id). Panics on empty datasets.
    pub fn majority_class(&self) -> ClassId {
        self.view().majority_class()
    }

    /// Fraction of rows belonging to the majority class, in `[0, 1]`.
    ///
    /// The paper drops functions 8 and 10 because they produce "highly skewed
    /// data"; this is the statistic used to detect that.
    pub fn skew(&self) -> f64 {
        self.view().skew()
    }

    /// A zero-copy view of every row, in order.
    pub fn view(&self) -> crate::DatasetView<'_> {
        crate::DatasetView::all(self)
    }

    /// A zero-copy view of the given rows (global indices, in view order).
    pub fn view_of(&self, rows: Vec<usize>) -> crate::DatasetView<'_> {
        crate::DatasetView::with_rows(self, rows)
    }

    /// Splits the dataset at row `at`: `self` keeps rows `[0, at)` in
    /// place (their buffers move, nothing is gathered) and the returned
    /// dataset owns rows `[at, len)`. Panics when `at > len`.
    pub fn split_off(&mut self, at: usize) -> Dataset {
        assert!(
            at <= self.len(),
            "split point {at} beyond dataset of {}",
            self.len()
        );
        Dataset {
            schema: self.schema.clone(),
            class_names: self.class_names.clone(),
            columns: self.columns.iter_mut().map(|c| c.split_off(at)).collect(),
            labels: self.labels.split_off(at),
        }
    }

    /// Drops the spare capacity of every owned column buffer.
    pub fn shrink_to_fit(&mut self) {
        for c in &mut self.columns {
            c.shrink_to_fit();
        }
        self.labels.shrink_to_fit();
    }

    /// Materializes the subset of rows whose indices are in `indices`
    /// (column gathers — no per-row allocation).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut out =
            Dataset::with_capacity(self.schema.clone(), self.class_names.clone(), indices.len());
        for (dst, src) in out.columns.iter_mut().zip(&self.columns) {
            dst.extend_gather(src, indices);
        }
        out.labels.extend(indices.iter().map(|&i| self.labels[i]));
        out
    }

    /// Min and max of a numeric attribute over all rows, `None` when empty or nominal.
    pub fn numeric_range(&self, attribute: usize) -> Option<(f64, f64)> {
        self.view().numeric_range(attribute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Attribute;

    fn toy(n: usize) -> Dataset {
        let schema = Schema::new(vec![
            Attribute::numeric("x"),
            Attribute::nominal_anon("c", 3),
        ]);
        let mut ds = Dataset::new(schema, vec!["A".into(), "B".into()]);
        for i in 0..n {
            ds.push(
                vec![Value::Num(i as f64), Value::Nominal((i % 3) as u32)],
                i % 2,
            )
            .unwrap();
        }
        ds
    }

    #[test]
    fn push_and_access() {
        let ds = toy(5);
        assert_eq!(ds.len(), 5);
        assert_eq!(ds.value(2, 0), Value::Num(2.0));
        assert_eq!(ds.row_values(2), vec![Value::Num(2.0), Value::Nominal(2)]);
        assert_eq!(ds.label(3), 1);
        assert_eq!(ds.n_classes(), 2);
    }

    #[test]
    fn columns_are_typed_and_contiguous() {
        let ds = toy(4);
        assert_eq!(ds.num_column(0), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(ds.nominal_column(1), &[0, 1, 2, 0]);
        assert!(ds.column(0).as_nominal().is_none());
        assert!(ds.column(1).as_num().is_none());
    }

    #[test]
    fn push_unlabeled_stores_the_placeholder_label() {
        let mut ds = toy(0);
        ds.push_unlabeled(vec![Value::Num(7.0), Value::Nominal(1)])
            .unwrap();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.label(0), 0);
        // Schema validation still applies.
        assert!(ds.push_unlabeled(vec![Value::Num(7.0)]).is_err());
    }

    #[test]
    fn rejects_invalid_rows() {
        let mut ds = toy(0);
        assert!(ds.push(vec![Value::Num(0.0)], 0).is_err());
        assert!(ds
            .push(vec![Value::Num(0.0), Value::Nominal(0)], 7)
            .is_err());
        assert!(ds
            .push(vec![Value::Nominal(0), Value::Nominal(0)], 0)
            .is_err());
        // A rejected row must not leave partial column writes behind.
        assert_eq!(ds.len(), 0);
        assert_eq!(ds.num_column(0).len(), 0);
    }

    #[test]
    fn append_columns_bulk() {
        let mut ds = toy(2);
        ds.append_columns(
            vec![Column::num(vec![10.0, 11.0]), Column::nominal(vec![2, 0])],
            vec![1, 0],
        )
        .unwrap();
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.num_column(0), &[0.0, 1.0, 10.0, 11.0]);
        assert_eq!(ds.labels(), &[0, 1, 1, 0]);
    }

    #[test]
    fn split_off_equals_subsets() {
        let ds = toy(7);
        for at in [0, 3, 7] {
            let mut head = ds.clone();
            let tail = head.split_off(at);
            let rows: Vec<usize> = (0..ds.len()).collect();
            assert_eq!(head, ds.subset(&rows[..at]), "head at {at}");
            assert_eq!(tail, ds.subset(&rows[at..]), "tail at {at}");
        }
    }

    #[test]
    fn append_columns_validates() {
        let mut ds = toy(0);
        // Wrong arity.
        assert!(ds
            .append_columns(vec![Column::num(vec![1.0])], vec![0])
            .is_err());
        // Kind mismatch.
        assert!(ds
            .append_columns(
                vec![Column::nominal(vec![0]), Column::nominal(vec![0])],
                vec![0]
            )
            .is_err());
        // Ragged columns.
        assert!(ds
            .append_columns(
                vec![Column::num(vec![1.0, 2.0]), Column::nominal(vec![0])],
                vec![0]
            )
            .is_err());
        // Out-of-range nominal code.
        assert!(ds
            .append_columns(
                vec![Column::num(vec![1.0]), Column::nominal(vec![9])],
                vec![0]
            )
            .is_err());
        // Non-finite numeric.
        assert!(ds
            .append_columns(
                vec![Column::num(vec![f64::NAN]), Column::nominal(vec![0])],
                vec![0]
            )
            .is_err());
        // Out-of-range label.
        assert!(ds
            .append_columns(
                vec![Column::num(vec![1.0]), Column::nominal(vec![0])],
                vec![5]
            )
            .is_err());
        // Nothing was committed by the failed appends.
        assert_eq!(ds.len(), 0);
    }

    #[test]
    fn distribution_and_majority() {
        let ds = toy(7); // labels 0,1,0,1,0,1,0 -> 4 zeros, 3 ones
        assert_eq!(ds.class_distribution(), vec![4, 3]);
        assert_eq!(ds.majority_class(), 0);
        assert!((ds.skew() - 4.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn subset_selects_rows() {
        let ds = toy(6);
        let sub = ds.subset(&[5, 0, 3]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.value(0, 0), Value::Num(5.0));
        assert_eq!(sub.value(2, 0), Value::Num(3.0));
        assert_eq!(sub.labels(), &[1, 0, 1]);
    }

    #[test]
    fn numeric_range_works() {
        let ds = toy(6);
        assert_eq!(ds.numeric_range(0), Some((0.0, 5.0)));
        assert_eq!(ds.numeric_range(1), None);
        assert_eq!(toy(0).numeric_range(0), None);
    }

    #[test]
    fn from_rows_validates() {
        let schema = Schema::new(vec![Attribute::numeric("x")]);
        let ok = Dataset::from_rows(
            schema.clone(),
            vec!["A".into()],
            vec![vec![Value::Num(1.0)]],
            vec![0],
        );
        assert!(ok.is_ok());
        let bad = Dataset::from_rows(
            schema,
            vec!["A".into()],
            vec![vec![Value::Num(1.0)]],
            vec![1],
        );
        assert!(bad.is_err());
    }

    #[test]
    fn row_major_and_columnar_construction_agree() {
        // The cross-layout pin at the unit level: pushing rows and bulk
        // appending columns must produce identical datasets.
        let by_rows = toy(9);
        let mut by_cols = toy(0);
        by_cols
            .append_columns(
                vec![
                    Column::num((0..9).map(|i| i as f64).collect()),
                    Column::nominal((0..9).map(|i| (i % 3) as u32).collect()),
                ],
                (0..9).map(|i| i % 2).collect(),
            )
            .unwrap();
        assert_eq!(by_rows, by_cols);
    }

    #[test]
    fn serde_roundtrip() {
        let ds = toy(4);
        let json = serde_json::to_string(&ds).unwrap();
        let back: Dataset = serde_json::from_str(&json).unwrap();
        assert_eq!(ds, back);
    }
}
