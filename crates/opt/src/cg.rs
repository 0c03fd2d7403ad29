//! Nonlinear conjugate gradient (Polak–Ribière+ with restarts).
//!
//! The training-method literature the paper leans on (Battiti's survey of
//! first- and second-order methods, its reference [4]) positions conjugate
//! gradient between plain gradient descent and quasi-Newton: no matrix
//! storage at all, yet far better directions than steepest descent. This
//! implementation uses the PR+ β (clipped at zero, which implicitly
//! restarts on loss of conjugacy) and the same line-search loop as the BFGS
//! family.

use serde::{Deserialize, Serialize};

use crate::descent::{descend, Method};
use crate::{dot, Objective, OptResult, Optimizer};

/// Steepest-descent restart period, on top of PR+'s implicit restarts.
const RESTART_EVERY: usize = 100;

/// Polak–Ribière+ conjugate gradient.
///
/// Only the direction `−g + β d` (`−g` every 100 iterations) is its own; the
/// loop is shared with [`crate::Bfgs`]. Its fixed c₂ = 0.45 is tighter than
/// quasi-Newton's 0.9, which CG needs to keep its directions descending.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConjugateGradient {
    /// Stop when the gradient infinity norm falls below this.
    pub grad_tol: f64,
    /// Outer iteration budget.
    pub max_iters: usize,
}

impl Default for ConjugateGradient {
    fn default() -> Self {
        ConjugateGradient {
            grad_tol: 1e-5,
            max_iters: 1000,
        }
    }
}

impl ConjugateGradient {
    /// Sets the iteration budget.
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Sets the gradient tolerance.
    pub fn with_grad_tol(mut self, tol: f64) -> Self {
        self.grad_tol = tol;
        self
    }
}

impl Optimizer for ConjugateGradient {
    fn minimize<O: Objective + ?Sized>(&self, objective: &O, x0: Vec<f64>) -> OptResult {
        let mut method = PolakRibiere { beta: 0.0 };
        descend(objective, x0, self.grad_tol, self.max_iters, &mut method)
    }
}

/// The PR+ β of the last accepted step.
struct PolakRibiere {
    beta: f64,
}

impl Method for PolakRibiere {
    const C2: f64 = 0.45;

    fn direction(&mut self, iter: usize, g: &[f64], d: &mut [f64]) {
        let restart = iter % RESTART_EVERY == 0;
        for (di, gi) in d.iter_mut().zip(g) {
            *di = if restart { -gi } else { -gi + self.beta * *di };
        }
    }

    fn reset(&mut self) -> bool {
        // β only scales the last direction, which the loop replaces by −g.
        false
    }

    fn update(&mut self, _s: &[f64], _y: &[f64], g: &[f64], g_new: &[f64]) {
        let gg = dot(g, g);
        let mut num = 0.0;
        for (gn, go) in g_new.iter().zip(g) {
            num += gn * (gn - go);
        }
        self.beta = if gg > 0.0 { (num / gg).max(0.0) } else { 0.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::test_functions::{Quadratic, Rosenbrock};

    #[test]
    fn converges_on_quadratic() {
        let q = Quadratic::new(vec![4.0, -1.0, 0.5]);
        let res = ConjugateGradient::default().minimize(&q, vec![0.0; 3]);
        assert!(res.converged, "{res:?}");
        for (xi, ti) in res.x.iter().zip(&q.target) {
            assert!((xi - ti).abs() < 1e-4);
        }
    }

    #[test]
    fn exact_for_quadratics_in_n_steps_ish() {
        // On an n-dimensional convex quadratic, CG should need only a few
        // iterations (exact in n steps with exact line searches).
        let mut q = Quadratic::new(vec![1.0; 6]);
        q.scale = vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
        let res = ConjugateGradient::default().minimize(&q, vec![-3.0; 6]);
        assert!(res.converged);
        assert!(res.iterations <= 30, "{res:?}");
    }

    #[test]
    fn converges_on_rosenbrock() {
        let res = ConjugateGradient::default()
            .with_max_iters(5000)
            .minimize(&Rosenbrock, vec![-1.2, 1.0]);
        assert!(res.converged, "{res:?}");
        assert!((res.x[0] - 1.0).abs() < 1e-3, "{res:?}");
    }

    #[test]
    fn deterministic() {
        let a = ConjugateGradient::default().minimize(&Rosenbrock, vec![-1.2, 1.0]);
        let b = ConjugateGradient::default().minimize(&Rosenbrock, vec![-1.2, 1.0]);
        assert_eq!(a.x, b.x);
    }
}
