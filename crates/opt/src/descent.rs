//! The one loop behind BFGS, L-BFGS and conjugate gradient: they supply a
//! search direction; [`descend`] does the rest.

use crate::line_search::wolfe_line_search;
use crate::{dot, inf_norm, Objective, OptResult};

/// Stop when a step improves the objective by at most this, relative to
/// `1 + |f|`: a guard against line-search stalls.
const F_TOL: f64 = 1e-12;

/// What a line-search method supplies to [`descend`].
pub(crate) trait Method {
    /// Curvature constant of the strong-Wolfe search.
    const C2: f64;

    /// Writes the direction at gradient `g` into `d` (holding the last one).
    fn direction(&mut self, iter: usize, g: &[f64], d: &mut [f64]);

    /// Forgets all curvature information. Returns whether a failed line
    /// search is retried once along steepest descent.
    fn reset(&mut self) -> bool;

    /// Learns from an accepted step `s = αd`, `y = g_new − g`.
    fn update(&mut self, s: &[f64], y: &[f64], g: &[f64], g_new: &[f64]);
}

/// Minimizes `objective` from `x0` along `method`'s directions, resetting it
/// when a direction does not descend. Stops at `grad_tol`, after
/// `max_iters`, on a failed line search or on a step below [`F_TOL`].
pub(crate) fn descend<O: Objective + ?Sized, M: Method>(
    objective: &O,
    x0: Vec<f64>,
    grad_tol: f64,
    max_iters: usize,
    method: &mut M,
) -> OptResult {
    let n = objective.dim();
    assert_eq!(x0.len(), n, "x0 has wrong dimension");
    let mut x = x0;
    let mut g = vec![0.0; n];
    let mut f = objective.value_and_gradient(&x, &mut g);
    let mut evaluations = 1usize;
    let (mut d, mut s, mut y) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);

    let mut iterations = max_iters;
    for iter in 0..max_iters {
        if inf_norm(&g) <= grad_tol {
            iterations = iter;
            break;
        }
        method.direction(iter, &g, &mut d);
        if dot(&d, &g) >= 0.0 {
            method.reset();
            steepest_descent(&g, &mut d);
        }
        let mut ls = wolfe_line_search(objective, &x, f, &g, &d, M::C2);
        if let Err(spent) = ls {
            if method.reset() {
                evaluations += spent;
                steepest_descent(&g, &mut d);
                ls = wolfe_line_search(objective, &x, f, &g, &d, M::C2);
            }
        }
        let ls = match ls {
            Ok(ls) => ls,
            Err(spent) => {
                evaluations += spent;
                iterations = iter;
                break;
            }
        };
        evaluations += ls.evaluations;

        for i in 0..n {
            s[i] = ls.alpha * d[i];
            y[i] = ls.gradient[i] - g[i];
            x[i] += s[i];
        }
        let f_prev = f;
        f = ls.value;
        method.update(&s, &y, &g, &ls.gradient);
        g.copy_from_slice(&ls.gradient);

        if (f_prev - f).abs() <= F_TOL * (1.0 + f.abs()) {
            iterations = iter + 1;
            break;
        }
    }

    let grad_norm = inf_norm(&g);
    OptResult {
        x,
        value: f,
        grad_norm,
        iterations,
        evaluations,
        converged: grad_norm <= grad_tol,
    }
}

/// `d = −g`.
fn steepest_descent(g: &[f64], d: &mut [f64]) {
    for (di, gi) in d.iter_mut().zip(g) {
        *di = -gi;
    }
}
