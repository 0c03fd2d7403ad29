//! Three-layer feedforward network (NeuroRule §2.1).
//!
//! The paper's classifier is a multilayer perceptron with one hidden layer:
//! hyperbolic-tangent hidden activations (range [−1, 1]), sigmoid outputs
//! (range [0, 1]), trained to one-hot class targets by minimizing cross
//! entropy (eq. 2) plus a two-term weight-decay penalty (eq. 3) that drives
//! small weights toward zero so the pruning phase can remove them.
//!
//! The pieces:
//!
//! * [`Mlp`] — the network: dense weight matrices plus per-link boolean
//!   masks (a masked link is pruned: it contributes nothing and stays at 0);
//! * [`Penalty`] — eq. 3 with its ε₁/ε₂/β parameters;
//! * [`CrossEntropyObjective`] — eq. 2 + eq. 3 as an [`nr_opt::Objective`]
//!   over the *active* (unmasked) weights, with exact backprop gradients;
//! * [`Trainer`] — convenience wrapper choosing BFGS (the paper's method)
//!   or gradient descent and writing the optimized weights back.
//!
//! ```
//! use nr_nn::{Mlp, Trainer};
//! use nr_encode::EncodedDataset;
//!
//! // Tiny dataset: class = first input bit.
//! let data = EncodedDataset::from_parts(
//!     vec![1.0, 1.0, /* row 0 */ 0.0, 1.0 /* row 1 */],
//!     2,
//!     vec![0, 1],
//!     2,
//! );
//! let mut net = Mlp::random(2, 2, 2, 7);
//! let report = Trainer::default().train(&mut net, &data);
//! assert!(report.accuracy >= 0.5);
//! ```

#![deny(missing_docs)]

mod activation;
mod describe;
mod matrix;
mod mlp;
mod objective;
mod par;
mod trainer;

pub use activation::Activation;
pub use describe::describe;
pub use matrix::Matrix;
pub use mlp::{argmax, LinkId, Mlp};
pub use objective::{CrossEntropyObjective, Penalty};
pub use par::{map_indexed_scoped, resolve_threads};
pub use trainer::{TrainReport, Trainer, TrainingAlgorithm};
