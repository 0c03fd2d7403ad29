//! Binary input coding for NeuroRule (Table 2 of the paper).
//!
//! Before training, the paper discretizes every numeric attribute into
//! subintervals and applies *thermometer coding*: `salary < 25000` becomes
//! `000001`, `salary ∈ [25000, 50000)` becomes `000011`, and so on — the set
//! bits always form a suffix, and the leftmost bit corresponds to the highest
//! interval. Nominal attributes get one-hot codes. A final always-one *bias*
//! input is appended (the paper's 87th input).
//!
//! Decoding matters as much as encoding here: rule extraction produces
//! conjunctions of *literals* (`I13 = 1`, `I17 = 0`) that must be rewritten
//! into attribute conditions (`commission > 0`, `age < 40`), and conjunctions
//! that violate the coding's internal constraints (thermometer monotonicity,
//! one-hot exclusivity) must be recognized as infeasible and discarded — the
//! paper's rule R′₁ is exactly such a case. This crate owns both directions:
//!
//! * [`Encoder`] — schema ⇒ bit layout, row ⇒ `f64` bit vector (+ bias);
//! * [`BitMeaning`] — what each bit asserts about its attribute;
//! * [`literals_to_rule`] — literal conjunction ⇒ [`nr_rules::Rule`]
//!   (or `None` when infeasible);
//! * [`enumerate_feasible`] — all feasible assignments of a bit subset
//!   (used by RX step 3 to tabulate a hidden node's inputs).
//!
//! ```
//! use nr_encode::Encoder;
//! use nr_datagen::{Generator, Function};
//!
//! let enc = Encoder::agrawal();
//! assert_eq!(enc.n_inputs(), 87); // 86 data bits + bias
//! let ds = Generator::new(1).dataset(Function::F2, 10);
//! let encoded = enc.encode_dataset(&ds);
//! assert_eq!(encoded.rows(), 10);
//! ```

#![deny(missing_docs)]

mod coding;
mod encoder;
mod feasible;
mod rewrite;

pub use coding::{AttrCoding, BitMeaning};
pub use encoder::{BinaryInputs, EncodedBatch, EncodedDataset, Encoder};
pub use feasible::{enumerate_feasible, is_feasible, PatternSpace};
pub use rewrite::{
    literal_implies, literal_is_tautology, literals_to_conditions, literals_to_rule, Literal,
};

/// Errors from the encoding subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodeError {
    /// A pattern enumeration exceeded the configured cap.
    PatternSpaceTooLarge {
        /// The cap that was exceeded.
        cap: usize,
        /// Lower bound on the size that would have been produced.
        at_least: usize,
    },
    /// Schema/coding mismatch.
    SchemaMismatch(String),
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::PatternSpaceTooLarge { cap, at_least } => {
                write!(f, "pattern space of at least {at_least} exceeds cap {cap}")
            }
            EncodeError::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
        }
    }
}

impl std::error::Error for EncodeError {}
