//! Limited-memory BFGS.
//!
//! Dense BFGS keeps an `n × n` inverse-Hessian approximation — fine for the
//! paper's few-hundred-weight networks, but quadratic in memory. L-BFGS
//! (Nocedal & Wright, Algorithm 7.4/7.5) reconstructs the quasi-Newton
//! direction from the last `m` curvature pairs in `O(mn)`, which is what a
//! production deployment would use for larger networks; it is also a useful
//! ablation point ("how much does the full Hessian memory buy?").

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::line_search::wolfe_line_search;
use crate::{dot, inf_norm, Objective, OptResult, Optimizer, WolfeParams};

/// L-BFGS with a strong-Wolfe line search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lbfgs {
    /// Number of curvature pairs retained.
    pub memory: usize,
    /// Stop when the gradient infinity norm falls below this.
    pub grad_tol: f64,
    /// Outer iteration budget.
    pub max_iters: usize,
    /// Relative objective-improvement stopping threshold.
    pub f_tol: f64,
    /// Line search parameters.
    #[serde(skip, default)]
    pub wolfe: WolfeParams,
}

impl Default for Lbfgs {
    fn default() -> Self {
        Lbfgs {
            memory: 10,
            grad_tol: 1e-5,
            max_iters: 500,
            f_tol: 1e-12,
            wolfe: WolfeParams::default(),
        }
    }
}

impl Lbfgs {
    /// Sets the history size.
    pub fn with_memory(mut self, m: usize) -> Self {
        assert!(m > 0, "memory must be positive");
        self.memory = m;
        self
    }

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

/// One curvature pair (s, y) with ρ = 1/(sᵀy).
struct Pair {
    s: Vec<f64>,
    y: Vec<f64>,
    rho: f64,
}

impl Optimizer for Lbfgs {
    fn minimize<O: Objective + ?Sized>(&self, objective: &O, x0: Vec<f64>) -> OptResult {
        let n = objective.dim();
        assert_eq!(x0.len(), n, "x0 has wrong dimension");
        let mut x = x0;
        let mut g = vec![0.0; n];
        let mut f = objective.value_and_gradient(&x, &mut g);
        let mut evals = 1usize;
        let mut history: VecDeque<Pair> = VecDeque::with_capacity(self.memory);
        let mut d = vec![0.0; n];
        let mut alpha_coefs = vec![0.0; self.memory];

        for iter in 0..self.max_iters {
            let gnorm = inf_norm(&g);
            if gnorm <= self.grad_tol {
                return OptResult {
                    x,
                    value: f,
                    grad_norm: gnorm,
                    iterations: iter,
                    evaluations: evals,
                    converged: true,
                };
            }

            // Two-loop recursion: d = -H g.
            d.copy_from_slice(&g);
            for (k, pair) in history.iter().enumerate().rev() {
                let a = pair.rho * dot(&pair.s, &d);
                alpha_coefs[k] = a;
                for (di, yi) in d.iter_mut().zip(&pair.y) {
                    *di -= a * yi;
                }
            }
            if let Some(last) = history.back() {
                // Initial scaling γ = sᵀy / yᵀy.
                let gamma = 1.0 / (last.rho * dot(&last.y, &last.y));
                for di in d.iter_mut() {
                    *di *= gamma;
                }
            }
            for (k, pair) in history.iter().enumerate() {
                let b = pair.rho * dot(&pair.y, &d);
                let a = alpha_coefs[k];
                for (di, si) in d.iter_mut().zip(&pair.s) {
                    *di += (a - b) * si;
                }
            }
            for di in d.iter_mut() {
                *di = -*di;
            }
            if dot(&d, &g) >= 0.0 {
                history.clear();
                for (di, gi) in d.iter_mut().zip(&g) {
                    *di = -gi;
                }
            }

            let Some(ls) = wolfe_line_search(objective, &x, f, &g, &d, &self.wolfe) else {
                return OptResult {
                    x,
                    value: f,
                    grad_norm: gnorm,
                    iterations: iter,
                    evaluations: evals,
                    converged: gnorm <= self.grad_tol,
                };
            };
            evals += ls.evaluations;

            let mut s = vec![0.0; n];
            let mut y = vec![0.0; n];
            let mut sy = 0.0;
            for i in 0..n {
                s[i] = ls.alpha * d[i];
                y[i] = ls.gradient[i] - g[i];
                sy += s[i] * y[i];
                x[i] += s[i];
            }
            let f_prev = f;
            f = ls.value;
            g.copy_from_slice(&ls.gradient);

            if sy > 1e-12 {
                if history.len() == self.memory {
                    history.pop_front();
                }
                history.push_back(Pair {
                    s,
                    y,
                    rho: 1.0 / sy,
                });
            }

            if (f_prev - f).abs() <= self.f_tol * (1.0 + f.abs()) {
                let gnorm = inf_norm(&g);
                return OptResult {
                    x,
                    value: f,
                    grad_norm: gnorm,
                    iterations: iter + 1,
                    evaluations: evals,
                    converged: gnorm <= self.grad_tol,
                };
            }
        }
        let gnorm = inf_norm(&g);
        OptResult {
            x,
            value: f,
            grad_norm: gnorm,
            iterations: self.max_iters,
            evaluations: evals,
            converged: gnorm <= self.grad_tol,
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
    fn small_memory_still_works() {
        let res = Lbfgs::default()
            .with_memory(2)
            .with_max_iters(5000)
            .minimize(&Rosenbrock, vec![-1.2, 1.0]);
        assert!(res.converged, "{res:?}");
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
