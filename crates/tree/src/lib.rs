//! A C4.5-style decision tree and C4.5rules-style rule generator.
//!
//! NeuroRule's evaluation (§4) compares against Quinlan's C4.5 \[16\]: the
//! accuracy table uses the tree, Figures 6 and 7 use the rules produced by
//! C4.5rules. Quinlan's original sources are not freely licensed, so this
//! is a clean-room implementation of the published algorithms:
//!
//! * gain-ratio split selection (among attributes with at least average
//!   gain), binary `≤/>` splits on numeric attributes, multiway splits on
//!   nominal attributes ([`DecisionTree::fit`]);
//! * pessimistic error-based pruning with confidence factor CF = 0.25
//!   ([`pessimistic`]);
//! * tree→rules conversion with greedy condition dropping and a default
//!   class chosen from the uncovered tuples ([`to_rules`]).
//!
//! ```
//! use nr_tree::{DecisionTree, TreeConfig, to_rules};
//! use nr_datagen::{Function, Generator};
//!
//! let train = Generator::new(1).dataset(Function::F1, 300);
//! let tree = DecisionTree::fit(&train, &TreeConfig::default());
//! assert!(tree.accuracy(&train) > 0.9);
//! let rules = to_rules(&tree, &train);
//! assert!(rules.accuracy(&train) > 0.85);
//! ```

#![deny(missing_docs)]

pub mod pessimistic;
mod rules;
mod split;
mod tree;

pub use pessimistic::{added_errors, normal_inverse};
pub use rules::to_rules;
pub use split::{entropy, gain_ratio_split, SplitCandidate};
pub use tree::{DecisionTree, Node, TreeConfig};
