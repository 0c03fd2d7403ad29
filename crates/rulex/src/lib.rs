//! Rule extraction — algorithm RX (NeuroRule §3, Figure 4).
//!
//! Given a *pruned* network, RX articulates it as symbolic rules in four
//! steps:
//!
//! 1. **Discretize** the continuous hidden-node activations by ε-clustering,
//!    shrinking ε until the discretized network still meets the accuracy
//!    requirement. This is Figure 4's one loop: cluster, check accuracy,
//!    "decrease ε and repeat". ε decays by 0.75 per step down to 1e-3;
//!    when no ε meets the floor, RX keeps the first ε with the best
//!    accuracy, so extraction always continues;
//! 2. **Enumerate** the discrete activation combinations, compute the
//!    network outputs for each, and generate *perfect rules* describing the
//!    outputs in terms of discretized activations;
//! 3. For each hidden node, tabulate its input patterns — the feasible ones
//!    under the coding, or, when a node keeps too many input links, those
//!    of a trained **subnetwork** (§3.2) or the patterns observed in the
//!    training data — and generate perfect rules describing each discrete
//!    activation value in terms of input bits;
//! 4. **Substitute** step-3 rules into step-2 rules, drop conjunctions the
//!    coding can never produce (the paper's R′₁), simplify, and rewrite the
//!    result into conditions over the original attributes.
//!
//! [`RxConfig`] sets only the paper's two parameters: the initial ε and
//! the accuracy floor. Everything else is a fixed constant of the
//! algorithm, because no caller varies it and every rule RX emits is pinned
//! by digest on four fits: the ε decay and floor above, caps of 4,096
//! activation combinations, 4,096 feasible input patterns per hidden node
//! and 20,000 substituted conjunctions, the exact rule cover up to 16
//! columns and 2e8 work, and §3.2 subnetworks of width 3 (seed
//! `0x5EED_CAFE`, pruned to a 90% floor) nested at most two deep.
//!
//! The entry point is [`extract`]; [`RxOutcome`] carries the final
//! [`nr_rules::RuleSet`] plus a full trace (cluster counts, the
//! activation→output table of §3.1, intermediate rules) so the experiment
//! drivers can reproduce the paper's worked example.

#![deny(missing_docs)]

mod cluster;
mod cover;
mod extract;
mod subnet;
mod table;

pub use cover::TableRule;
pub use extract::{extract, ActivationRow, BitRule, RxConfig, RxOutcome, RxTrace};

/// Errors from rule extraction.
#[derive(Debug, Clone, PartialEq)]
pub enum RxError {
    /// The activation-combination table would exceed its cap.
    ActivationSpaceTooLarge {
        /// Number of combinations required.
        needed: usize,
        /// The cap.
        cap: usize,
    },
    /// Substitution produced more conjunctions than the cap.
    DnfTooLarge {
        /// The cap.
        cap: usize,
    },
}

impl std::fmt::Display for RxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RxError::ActivationSpaceTooLarge { needed, cap } => {
                write!(f, "activation table needs {needed} rows, cap is {cap}")
            }
            RxError::DnfTooLarge { cap } => {
                write!(f, "rule substitution exceeded {cap} conjunctions")
            }
        }
    }
}

impl std::error::Error for RxError {}
