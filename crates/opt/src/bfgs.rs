//! Dense BFGS quasi-Newton minimization.

use serde::{Deserialize, Serialize};

use crate::descent::{descend, Method};
use crate::{Objective, OptResult, Optimizer};

/// BFGS with a strong-Wolfe line search.
///
/// Maintains a dense approximation `H ≈ ∇²f⁻¹`, so memory is `O(dim²)`;
/// the paper's networks have a few hundred weights, for which dense BFGS is
/// the right tool (it is the method class the paper uses, with superlinear
/// convergence against gradient descent's linear rate).
///
/// Only the direction `−H·g` is its own; the loop and its fixed constants
/// (c₂ = 0.9) are shared with [`crate::Lbfgs`] and
/// [`crate::ConjugateGradient`]. On a failed line search `H` is reset and
/// the search retried once along `−g`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bfgs {
    /// Stop when the gradient infinity norm falls below this.
    pub grad_tol: f64,
    /// Outer iteration budget.
    pub max_iters: usize,
}

impl Default for Bfgs {
    fn default() -> Self {
        Bfgs {
            grad_tol: 1e-5,
            max_iters: 500,
        }
    }
}

impl Bfgs {
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

impl Optimizer for Bfgs {
    fn minimize<O: Objective + ?Sized>(&self, objective: &O, x0: Vec<f64>) -> OptResult {
        let n = objective.dim();
        let mut method = InverseHessian {
            h: vec![0.0; n * n],
            first_update: true,
            hy: vec![0.0; n],
        };
        method.reset();
        descend(objective, x0, self.grad_tol, self.max_iters, &mut method)
    }
}

/// The dense inverse-Hessian approximation, row-major `n × n`.
struct InverseHessian {
    h: Vec<f64>,
    /// True until the first update, which rescales `H` first.
    first_update: bool,
    /// Scratch for `H·y`.
    hy: Vec<f64>,
}

impl Method for InverseHessian {
    const C2: f64 = 0.9;

    fn direction(&mut self, _iter: usize, g: &[f64], d: &mut [f64]) {
        // d = -H g, each row summed from -0.0 like `dot`.
        mat_vec(&self.h, g, -0.0, d);
        for di in d.iter_mut() {
            *di = -*di;
        }
    }

    fn reset(&mut self) -> bool {
        let n = self.hy.len();
        self.h.fill(0.0);
        for i in 0..n {
            self.h[i * n + i] = 1.0;
        }
        self.first_update = true;
        true
    }

    fn update(&mut self, s: &[f64], y: &[f64], _g: &[f64], _g_new: &[f64]) {
        let n = self.hy.len();
        let mut sy = 0.0;
        let mut yy = 0.0;
        for i in 0..n {
            sy += s[i] * y[i];
            yy += y[i] * y[i];
        }
        // Skip pairs with too little curvature to keep H positive definite.
        if sy > 1e-12 * yy.sqrt().max(1.0) {
            let h = &mut self.h;
            if self.first_update {
                // Nocedal's scaling: H0 = (sᵀy / yᵀy) I before the first
                // update, which makes the initial step sizes sane.
                let scale = sy / yy.max(1e-300);
                for (i, v) in h.iter_mut().enumerate() {
                    *v = if i % (n + 1) == 0 { scale } else { 0.0 };
                }
                self.first_update = false;
            }
            // H ← (I − ρ s yᵀ) H (I − ρ y sᵀ) + ρ s sᵀ, expanded as
            // H − ρ(s·Hyᵀ + Hy·sᵀ) + (ρ² yᵀHy + ρ) s sᵀ.
            let rho = 1.0 / sy;
            let hy = &mut self.hy;
            mat_vec(h, y, 0.0, hy);
            let mut yhy = 0.0;
            for (hy_i, y_i) in hy.iter().zip(y) {
                yhy += hy_i * y_i;
            }
            let c = rho * rho * yhy + rho;
            for i in 0..n {
                let (s_i, hy_i) = (s[i], hy[i]);
                let row = &mut h[i * n..(i + 1) * n];
                for j in 0..n {
                    row[j] += -rho * (s_i * hy[j] + hy_i * s[j]) + c * s_i * s[j];
                }
            }
        }
    }
}

/// `out = H·v` for the row-major `n × n` matrix `h`: four rows side by
/// side, each row's sum starting from `start` and adding its terms in
/// ascending column order, so every entry is bit-identical to a plain
/// per-row loop.
fn mat_vec(h: &[f64], v: &[f64], start: f64, out: &mut [f64]) {
    let n = v.len();
    if n == 0 {
        return;
    }
    let mut rows = h.chunks_exact(4 * n);
    let mut outs = out.chunks_exact_mut(4);
    for (block, out) in (&mut rows).zip(&mut outs) {
        let (r0, rest) = block.split_at(n);
        let (r1, rest) = rest.split_at(n);
        let (r2, r3) = rest.split_at(n);
        let mut acc = [start; 4];
        for j in 0..n {
            acc[0] += r0[j] * v[j];
            acc[1] += r1[j] * v[j];
            acc[2] += r2[j] * v[j];
            acc[3] += r3[j] * v[j];
        }
        out.copy_from_slice(&acc);
    }
    for (row, out) in rows.remainder().chunks_exact(n).zip(outs.into_remainder()) {
        let mut acc = start;
        for (h_j, v_j) in row.iter().zip(v) {
            acc += h_j * v_j;
        }
        *out = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::test_functions::{Quadratic, Rosenbrock};

    #[test]
    fn converges_on_quadratic() {
        let q = Quadratic::new(vec![1.0, -2.0, 5.0, 0.0]);
        let res = Bfgs::default().minimize(&q, vec![10.0; 4]);
        assert!(res.converged, "{res:?}");
        for (xi, ti) in res.x.iter().zip(&q.target) {
            assert!((xi - ti).abs() < 1e-4);
        }
    }

    #[test]
    fn converges_on_ill_conditioned_quadratic() {
        let mut q = Quadratic::new(vec![1.0, 1.0, 1.0]);
        q.scale = vec![1.0, 100.0, 10_000.0];
        let res = Bfgs::default().minimize(&q, vec![-3.0, 7.0, 2.0]);
        assert!(res.converged, "{res:?}");
        for xi in &res.x {
            assert!((xi - 1.0).abs() < 1e-3, "{res:?}");
        }
    }

    #[test]
    fn converges_on_rosenbrock() {
        let res = Bfgs::default()
            .with_max_iters(2000)
            .minimize(&Rosenbrock, vec![-1.2, 1.0]);
        assert!(res.converged, "{res:?}");
        assert!((res.x[0] - 1.0).abs() < 1e-4, "{res:?}");
        assert!((res.x[1] - 1.0).abs() < 1e-4, "{res:?}");
    }

    #[test]
    fn superlinear_vs_gradient_descent() {
        // BFGS should need far fewer iterations than GD on Rosenbrock.
        use crate::GradientDescent;
        let bfgs = Bfgs::default()
            .with_max_iters(500)
            .minimize(&Rosenbrock, vec![-1.2, 1.0]);
        let gd = GradientDescent::default()
            .with_learning_rate(1e-3)
            .with_max_iters(500)
            .minimize(&Rosenbrock, vec![-1.2, 1.0]);
        assert!(
            bfgs.value < gd.value,
            "bfgs {} vs gd {}",
            bfgs.value,
            gd.value
        );
        assert!(bfgs.converged);
    }

    #[test]
    fn already_at_minimum() {
        let q = Quadratic::new(vec![2.0]);
        let res = Bfgs::default().minimize(&q, vec![2.0]);
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn respects_iteration_budget() {
        let res = Bfgs::default()
            .with_max_iters(1)
            .with_grad_tol(1e-14)
            .minimize(&Rosenbrock, vec![-1.2, 1.0]);
        assert!(res.iterations <= 1);
        assert!(!res.converged);
    }

    #[test]
    fn deterministic() {
        let a = Bfgs::default().minimize(&Rosenbrock, vec![-1.2, 1.0]);
        let b = Bfgs::default().minimize(&Rosenbrock, vec![-1.2, 1.0]);
        assert_eq!(a.x, b.x);
        assert_eq!(a.evaluations, b.evaluations);
    }
}
