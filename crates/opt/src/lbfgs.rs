//! Limited-memory BFGS.
//!
//! Dense BFGS keeps an `n × n` inverse-Hessian approximation — fine for the
//! paper's few-hundred-weight networks, but quadratic in memory. L-BFGS
//! (Nocedal & Wright, Algorithm 7.4/7.5) reconstructs the quasi-Newton
//! direction from the last [`MEMORY`] curvature pairs in `O(mn)`, which is
//! what a production deployment would use for larger networks; it is also a
//! useful ablation point ("how much does the full Hessian memory buy?").

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::descent::{descend, Method};
use crate::{dot, Objective, OptResult, Optimizer};

/// Curvature pairs retained (Nocedal & Wright suggest 3 to 20).
const MEMORY: usize = 10;

/// L-BFGS with a strong-Wolfe line search.
///
/// Only the direction, the two-loop recursion over the last 10 pairs, is its
/// own; the loop and its fixed constants (c₂ = 0.9) are shared with
/// [`crate::Bfgs`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lbfgs {
    /// Stop when the gradient infinity norm falls below this.
    pub grad_tol: f64,
    /// Outer iteration budget.
    pub max_iters: usize,
}

impl Default for Lbfgs {
    fn default() -> Self {
        Lbfgs {
            grad_tol: 1e-5,
            max_iters: 500,
        }
    }
}

impl Lbfgs {
    /// Sets the gradient tolerance.
    pub fn with_grad_tol(mut self, tol: f64) -> Self {
        self.grad_tol = tol;
        self
    }

    /// Sets the iteration budget.
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }
}

impl Optimizer for Lbfgs {
    fn minimize<O: Objective + ?Sized>(&self, objective: &O, x0: Vec<f64>) -> OptResult {
        let mut history = VecDeque::with_capacity(MEMORY);
        descend(objective, x0, self.grad_tol, self.max_iters, &mut history)
    }
}

/// One curvature pair (s, y) with ρ = 1/(sᵀy), and its coefficient `a` from
/// the two-loop recursion's first loop.
struct Pair {
    s: Vec<f64>,
    y: Vec<f64>,
    rho: f64,
    a: f64,
}

/// L-BFGS's state: the last [`MEMORY`] curvature pairs, oldest first.
impl Method for VecDeque<Pair> {
    const C2: f64 = 0.9;

    fn direction(&mut self, _iter: usize, g: &[f64], d: &mut [f64]) {
        // Two-loop recursion: d = -H g.
        d.copy_from_slice(g);
        for pair in self.iter_mut().rev() {
            pair.a = pair.rho * dot(&pair.s, d);
            for (di, yi) in d.iter_mut().zip(&pair.y) {
                *di -= pair.a * yi;
            }
        }
        if let Some(last) = self.back() {
            // Initial scaling γ = sᵀy / yᵀy.
            let gamma = 1.0 / (last.rho * dot(&last.y, &last.y));
            for di in d.iter_mut() {
                *di *= gamma;
            }
        }
        for pair in self.iter() {
            let b = pair.rho * dot(&pair.y, d);
            for (di, si) in d.iter_mut().zip(&pair.s) {
                *di += (pair.a - b) * si;
            }
        }
        for di in d.iter_mut() {
            *di = -*di;
        }
    }

    fn reset(&mut self) -> bool {
        self.clear();
        false
    }

    fn update(&mut self, s: &[f64], y: &[f64], _g: &[f64], _g_new: &[f64]) {
        let mut sy = 0.0;
        for (si, yi) in s.iter().zip(y) {
            sy += si * yi;
        }
        if sy > 1e-12 {
            if self.len() == MEMORY {
                self.pop_front();
            }
            self.push_back(Pair {
                s: s.to_vec(),
                y: y.to_vec(),
                rho: 1.0 / sy,
                a: 0.0,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::test_functions::{Quadratic, Rosenbrock};

    #[test]
    fn converges_on_quadratic() {
        let q = Quadratic::new(vec![1.0, -2.0, 5.0, 0.0, 3.3]);
        let res = Lbfgs::default().minimize(&q, vec![10.0; 5]);
        assert!(res.converged, "{res:?}");
        for (xi, ti) in res.x.iter().zip(&q.target) {
            assert!((xi - ti).abs() < 1e-4);
        }
    }

    #[test]
    fn converges_on_rosenbrock() {
        let res = Lbfgs::default()
            .with_max_iters(2000)
            .minimize(&Rosenbrock, vec![-1.2, 1.0]);
        assert!(res.converged, "{res:?}");
        assert!((res.x[0] - 1.0).abs() < 1e-4);
        assert!((res.x[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn comparable_to_dense_bfgs_on_ill_conditioned() {
        let mut q = Quadratic::new(vec![1.0; 4]);
        q.scale = vec![1.0, 10.0, 100.0, 1000.0];
        let lbfgs = Lbfgs::default().minimize(&q, vec![5.0; 4]);
        let bfgs = crate::Bfgs::default().minimize(&q, vec![5.0; 4]);
        assert!(lbfgs.converged && bfgs.converged);
        assert!((lbfgs.value - bfgs.value).abs() < 1e-6);
    }

    #[test]
    fn deterministic() {
        let a = Lbfgs::default().minimize(&Rosenbrock, vec![-1.2, 1.0]);
        let b = Lbfgs::default().minimize(&Rosenbrock, vec![-1.2, 1.0]);
        assert_eq!(a.x, b.x);
    }

    #[test]
    fn respects_budget() {
        let res = Lbfgs::default()
            .with_max_iters(2)
            .with_grad_tol(1e-14)
            .minimize(&Rosenbrock, vec![-1.2, 1.0]);
        assert!(res.iterations <= 2);
        assert!(!res.converged);
    }
}
