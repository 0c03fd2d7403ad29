//! Gradient descent with momentum — the classic backpropagation update.

use serde::{Deserialize, Serialize};

use crate::{inf_norm, Objective, OptResult, Optimizer};

/// Fixed-step gradient descent with (heavy-ball) momentum.
///
/// This is the update rule of the standard backpropagation algorithm the
/// paper contrasts BFGS against: linear convergence, but each iteration is a
/// single gradient evaluation. Kept as the ablation baseline for the
/// "training method" benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GradientDescent {
    /// Step size.
    pub learning_rate: f64,
    /// Momentum coefficient in `[0, 1)`.
    pub momentum: f64,
    /// Stop when the gradient infinity norm falls below this.
    pub grad_tol: f64,
    /// Iteration budget.
    pub max_iters: usize,
}

impl Default for GradientDescent {
    fn default() -> Self {
        GradientDescent {
            learning_rate: 0.1,
            momentum: 0.9,
            grad_tol: 1e-5,
            max_iters: 1000,
        }
    }
}

impl GradientDescent {
    /// Sets the step size.
    pub fn with_learning_rate(mut self, lr: f64) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Sets the momentum coefficient.
    pub fn with_momentum(mut self, m: f64) -> Self {
        self.momentum = m;
        self
    }

    /// Sets the iteration budget.
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }
}

impl Optimizer for GradientDescent {
    fn minimize<O: Objective + ?Sized>(&self, objective: &O, x0: Vec<f64>) -> OptResult {
        let n = objective.dim();
        assert_eq!(x0.len(), n, "x0 has wrong dimension");
        let mut x = x0;
        let mut g = vec![0.0; n];
        let mut velocity = vec![0.0; n];
        let mut evals = 0usize;

        // Track the best iterate seen: with a fixed step the trajectory can
        // overshoot, and returning the best point keeps the result usable.
        let mut best_x = x.clone();
        let mut best_f = f64::INFINITY;

        for iter in 0..self.max_iters {
            let f = objective.value_and_gradient(&x, &mut g);
            evals += 1;
            if f < best_f {
                best_f = f;
                best_x.copy_from_slice(&x);
            }
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
            for i in 0..n {
                velocity[i] = self.momentum * velocity[i] - self.learning_rate * g[i];
                x[i] += velocity[i];
            }
        }

        objective.value_and_gradient(&best_x, &mut g);
        evals += 1;
        let gnorm = inf_norm(&g);
        OptResult {
            x: best_x,
            value: best_f,
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
    use crate::objective::test_functions::Quadratic;

    #[test]
    fn converges_on_quadratic() {
        let q = Quadratic::new(vec![1.0, -2.0]);
        let res = GradientDescent::default()
            .with_learning_rate(0.05)
            .with_max_iters(5000)
            .minimize(&q, vec![10.0, 10.0]);
        assert!(res.converged, "{res:?}");
        assert!((res.x[0] - 1.0).abs() < 1e-3);
        assert!((res.x[1] + 2.0).abs() < 1e-3);
    }

    #[test]
    fn momentum_accelerates() {
        let q = Quadratic::new(vec![4.0]);
        let plain = GradientDescent::default()
            .with_learning_rate(0.01)
            .with_momentum(0.0)
            .with_max_iters(100)
            .minimize(&q, vec![0.0]);
        let heavy = GradientDescent::default()
            .with_learning_rate(0.01)
            .with_momentum(0.9)
            .with_max_iters(100)
            .minimize(&q, vec![0.0]);
        assert!(
            heavy.value <= plain.value,
            "momentum should not be slower here"
        );
    }

    #[test]
    fn returns_best_iterate_when_budget_hit() {
        let q = Quadratic::new(vec![0.0]);
        // Oversized step: oscillates/diverges; best iterate is still finite.
        let res = GradientDescent::default()
            .with_learning_rate(1.5)
            .with_momentum(0.0)
            .with_max_iters(10)
            .minimize(&q, vec![1.0]);
        assert!(res.value.is_finite());
        assert!(
            res.value <= 1.0 + 1e-12,
            "never worse than the start: {res:?}"
        );
    }

    #[test]
    fn immediate_convergence_at_minimum() {
        let q = Quadratic::new(vec![3.0]);
        let res = GradientDescent::default().minimize(&q, vec![3.0]);
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }
}
