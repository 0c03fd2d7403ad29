//! Tabular data model for the NeuroRule reproduction.
//!
//! The paper frames classification over relational tuples: a training set of
//! `(a_1, …, a_n, c_k)` tuples where each `a_i` comes from the domain of
//! attribute `A_i` and `c_k` is one of `m` class labels. This crate provides
//! that substrate: [`Schema`] describes the attributes, [`Value`] holds one
//! attribute value, [`Dataset`] holds labeled tuples in **typed columns**
//! (one `Vec<f64>`/`Vec<u32>` per attribute), [`DatasetView`] selects rows
//! without copying them, and helpers cover the usual chores (class
//! distributions, streaming CSV ingest).
//!
//! Everything downstream — the synthetic generator (`nr-datagen`), the binary
//! encoder (`nr-encode`), the C4.5 baseline (`nr-tree`) and the NeuroRule
//! pipeline itself (`neurorule`) — speaks this data model.
//!
//! # Example
//!
//! ```
//! use nr_tabular::{Attribute, Schema, Dataset, Value};
//!
//! let schema = Schema::new(vec![
//!     Attribute::numeric("age"),
//!     Attribute::nominal("color", ["red", "green", "blue"]),
//! ]);
//! let mut ds = Dataset::new(schema, vec!["yes".into(), "no".into()]);
//! ds.push(vec![Value::Num(34.0), Value::Nominal(1)], 0).unwrap();
//! ds.push(vec![Value::Num(61.5), Value::Nominal(2)], 1).unwrap();
//! assert_eq!(ds.len(), 2);
//! assert_eq!(ds.class_distribution(), vec![1, 1]);
//! ```

#![deny(missing_docs)]

mod buf;
mod csv;
mod dataset;
mod schema;
mod value;
mod view;

pub use buf::{Buf, SliceSource};
pub use csv::{
    check_header, parse_csv_block, parse_csv_cell, parse_row, read_csv_streaming, write_csv,
    write_csv_header, write_csv_rows, CsvScanner,
};
pub use dataset::{ClassId, Column, Dataset};
pub use schema::{AttrKind, Attribute, Schema};
pub use value::Value;
pub use view::{DatasetView, RowIdIter};

/// Errors produced by the tabular data model.
#[derive(Debug, Clone, PartialEq)]
pub enum TabularError {
    /// A row had a different number of values than the schema has attributes.
    ArityMismatch {
        /// Number of attributes the schema declares.
        expected: usize,
        /// Number of values the offending row carried.
        got: usize,
    },
    /// A value's type did not match the attribute kind at its position.
    TypeMismatch {
        /// Index of the offending attribute.
        attribute: usize,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A class id was out of range for the dataset's class list.
    UnknownClass(usize),
    /// A nominal code was out of range for the attribute's category list.
    UnknownCategory {
        /// Index of the offending attribute.
        attribute: usize,
        /// The out-of-range code.
        code: u32,
    },
    /// A row collection and a label collection had different lengths.
    RowLabelCountMismatch {
        /// Number of rows supplied.
        rows: usize,
        /// Number of labels supplied.
        labels: usize,
    },
    /// CSV parsing failed at the given 1-based line (0 = not line-specific).
    Csv {
        /// 1-based line number of the offending input line (the header is
        /// line 1); 0 when the failure is not tied to one line.
        line: usize,
        /// Human-readable description of the failure.
        msg: String,
    },
}

impl std::fmt::Display for TabularError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TabularError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "row has {got} values but schema has {expected} attributes"
                )
            }
            TabularError::TypeMismatch { attribute, detail } => {
                write!(f, "type mismatch at attribute {attribute}: {detail}")
            }
            TabularError::UnknownClass(c) => write!(f, "class id {c} out of range"),
            TabularError::UnknownCategory { attribute, code } => {
                write!(
                    f,
                    "nominal code {code} out of range for attribute {attribute}"
                )
            }
            TabularError::RowLabelCountMismatch { rows, labels } => {
                write!(f, "{rows} rows but {labels} labels")
            }
            TabularError::Csv { line: 0, msg } => write!(f, "csv error: {msg}"),
            TabularError::Csv { line, msg } => write!(f, "csv error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for TabularError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TabularError>;
