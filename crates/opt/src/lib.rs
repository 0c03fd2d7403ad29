//! Unconstrained minimization for network training.
//!
//! The paper trains networks by minimizing cross entropy plus a penalty
//! (§2.1) and stresses that any unconstrained minimizer works; it uses the
//! BFGS quasi-Newton method (superlinear convergence, citing Shanno & Phua's
//! TOMS Algorithm 500) instead of plain gradient-descent backpropagation.
//! This crate provides both:
//!
//! * [`Bfgs`] — dense BFGS with a strong-Wolfe line search
//!   (Nocedal & Wright, Algorithms 3.5/3.6);
//! * [`Lbfgs`] — limited-memory BFGS for larger networks (O(mn) memory);
//! * [`ConjugateGradient`] — Polak–Ribière+ CG, the matrix-free middle
//!   ground of Battiti's survey (the paper's reference [4]);
//! * [`GradientDescent`] — fixed-step gradient descent with momentum, the
//!   classic backpropagation update, kept as an ablation baseline;
//! * [`Objective`] — the function/gradient abstraction they all consume.
//!
//! The three line-search methods share one loop and differ only in their
//! search direction. Each is set by `grad_tol` and `max_iters` alone; the
//! Wolfe constants, L-BFGS's history and CG's restart period are fixed,
//! since no caller ever changed them. `tests/trajectory_pins.rs` pins every
//! trajectory by bits.
//!
//! ```
//! use nr_opt::{Bfgs, Objective, Optimizer};
//!
//! /// f(x) = Σ (x_i - i)²
//! struct Quad;
//! impl Objective for Quad {
//!     fn dim(&self) -> usize { 3 }
//!     fn value(&self, x: &[f64]) -> f64 {
//!         x.iter().enumerate().map(|(i, v)| (v - i as f64).powi(2)).sum()
//!     }
//!     fn gradient(&self, x: &[f64], g: &mut [f64]) {
//!         for (i, (gi, v)) in g.iter_mut().zip(x).enumerate() {
//!             *gi = 2.0 * (v - i as f64);
//!         }
//!     }
//! }
//!
//! let result = Bfgs::default().minimize(&Quad, vec![5.0; 3]);
//! assert!(result.converged);
//! assert!((result.x[2] - 2.0).abs() < 1e-6);
//! ```

#![deny(missing_docs)]

mod bfgs;
mod cg;
mod descent;
mod gd;
mod lbfgs;
mod line_search;
mod objective;

pub use bfgs::Bfgs;
pub use cg::ConjugateGradient;
pub use gd::GradientDescent;
pub use lbfgs::Lbfgs;
pub use objective::{numeric_gradient, Objective};

use serde::{Deserialize, Serialize};

/// Outcome of a minimization run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptResult {
    /// The final iterate.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Infinity norm of the gradient at `x`.
    pub grad_norm: f64,
    /// Number of outer iterations performed.
    pub iterations: usize,
    /// Number of objective/gradient evaluations.
    pub evaluations: usize,
    /// True when the gradient tolerance was met (vs. iteration budget hit).
    pub converged: bool,
}

/// Common interface of the optimizers.
pub trait Optimizer {
    /// Minimizes `objective` starting from `x0`.
    fn minimize<O: Objective + ?Sized>(&self, objective: &O, x0: Vec<f64>) -> OptResult;
}

/// Infinity norm.
pub(crate) fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
}

/// Dot product.
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}
