//! Strong-Wolfe line search (Nocedal & Wright, Algorithms 3.5 and 3.6).

use crate::{dot, Objective};

/// Sufficient-decrease (Armijo) constant.
const C1: f64 = 1e-4;
/// First trial step: the unit step a quasi-Newton direction is scaled for.
const ALPHA_INIT: f64 = 1.0;
/// Largest step ever tried.
const ALPHA_MAX: f64 = 1e4;
/// Probe budget of the bracketing phase, and again of the zoom phase.
const MAX_PROBES: usize = 60;

/// An accepted step length α, the value and gradient at `x + α·d`, and the
/// objective evaluations the search made. A failed search returns only its
/// evaluation count.
pub(crate) struct LineSearchResult {
    pub alpha: f64,
    pub value: f64,
    pub gradient: Vec<f64>,
    pub evaluations: usize,
}

/// φ(α) = f(x + α d) along one search direction, with the Wolfe tests.
struct Search<'a, O: Objective + ?Sized> {
    obj: &'a O,
    x: &'a [f64],
    d: &'a [f64],
    f0: f64,
    dphi0: f64,
    c2: f64,
    xt: Vec<f64>,
    grad: Vec<f64>,
    evals: usize,
}

impl<O: Objective + ?Sized> Search<'_, O> {
    /// φ(α) and φ′(α) = ∇f(x + α d)·d.
    fn eval(&mut self, alpha: f64) -> (f64, f64) {
        for ((t, xi), di) in self.xt.iter_mut().zip(self.x).zip(self.d) {
            *t = xi + alpha * di;
        }
        let phi = self.obj.value_and_gradient(&self.xt, &mut self.grad);
        self.evals += 1;
        (phi, dot(&self.grad, self.d))
    }

    fn accept(self, alpha: f64, value: f64) -> Result<LineSearchResult, usize> {
        Ok(LineSearchResult {
            alpha,
            value,
            gradient: self.grad,
            evaluations: self.evals,
        })
    }

    /// Algorithm 3.6: shrinks the interval between `lo = (α, φ, φ′)` and
    /// `hi = (α, φ)`, where `lo` has the lower φ and the interval brackets a
    /// Wolfe point.
    fn zoom(mut self, lo: (f64, f64, f64), hi: (f64, f64)) -> Result<LineSearchResult, usize> {
        let (mut alpha_lo, mut phi_lo, mut dphi_lo) = lo;
        let (mut alpha_hi, mut phi_hi) = hi;
        for _ in 0..MAX_PROBES {
            // Quadratic interpolation using (lo value, lo slope, hi value);
            // fall back to bisection when the fit is degenerate or outside.
            let denom = 2.0 * (phi_hi - phi_lo - dphi_lo * (alpha_hi - alpha_lo));
            let mut alpha = if denom.abs() > 1e-16 {
                alpha_lo - dphi_lo * (alpha_hi - alpha_lo).powi(2) / denom
            } else {
                0.5 * (alpha_lo + alpha_hi)
            };
            let (lo, hi) = if alpha_lo < alpha_hi {
                (alpha_lo, alpha_hi)
            } else {
                (alpha_hi, alpha_lo)
            };
            let span = hi - lo;
            if !(alpha.is_finite()) || alpha <= lo + 0.05 * span || alpha >= hi - 0.05 * span {
                alpha = 0.5 * (alpha_lo + alpha_hi);
            }
            if span < 1e-14 {
                return Err(self.evals);
            }

            let (phi, dphi) = self.eval(alpha);
            if phi > self.f0 + C1 * alpha * self.dphi0 || phi >= phi_lo {
                alpha_hi = alpha;
                phi_hi = phi;
            } else {
                if dphi.abs() <= -self.c2 * self.dphi0 {
                    return self.accept(alpha, phi);
                }
                if dphi * (alpha_hi - alpha_lo) >= 0.0 {
                    alpha_hi = alpha_lo;
                    phi_hi = phi_lo;
                }
                alpha_lo = alpha;
                phi_lo = phi;
                dphi_lo = dphi;
            }
        }
        Err(self.evals)
    }
}

/// Searches for a step length satisfying the strong Wolfe conditions, with
/// curvature constant `c2`, along descent direction `d` from `x`, where
/// `f0`/`g0` are the value and gradient at `x`. Fails with the number of
/// evaluations it made when `d` is not a descent direction or no acceptable
/// step is found within the budget.
pub(crate) fn wolfe_line_search<O: Objective + ?Sized>(
    obj: &O,
    x: &[f64],
    f0: f64,
    g0: &[f64],
    d: &[f64],
    c2: f64,
) -> Result<LineSearchResult, usize> {
    let dphi0 = dot(g0, d);
    if dphi0 >= 0.0 || !dphi0.is_finite() {
        return Err(0);
    }
    let mut search = Search {
        obj,
        x,
        d,
        f0,
        dphi0,
        c2,
        xt: vec![0.0; x.len()],
        grad: vec![0.0; x.len()],
        evals: 0,
    };

    let (mut alpha_prev, mut phi_prev, mut dphi_prev) = (0.0, f0, dphi0);
    let mut alpha = ALPHA_INIT;
    for i in 0..MAX_PROBES {
        let (phi, dphi) = search.eval(alpha);
        if !phi.is_finite() {
            // Step overshot into a bad region; shrink hard.
            alpha = 0.5 * (alpha_prev + alpha);
            continue;
        }
        if phi > f0 + C1 * alpha * dphi0 || (i > 0 && phi >= phi_prev) {
            return search.zoom((alpha_prev, phi_prev, dphi_prev), (alpha, phi));
        }
        if dphi.abs() <= -c2 * dphi0 {
            return search.accept(alpha, phi);
        }
        if dphi >= 0.0 {
            return search.zoom((alpha, phi, dphi), (alpha_prev, phi_prev));
        }
        (alpha_prev, phi_prev, dphi_prev) = (alpha, phi, dphi);
        alpha = (2.0 * alpha).min(ALPHA_MAX);
        if alpha == alpha_prev {
            break; // pinned at ALPHA_MAX
        }
    }
    Err(search.evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::test_functions::{Quadratic, Rosenbrock};

    fn check_wolfe<O: Objective>(obj: &O, x: &[f64], d: &[f64], c2: f64) {
        let mut g0 = vec![0.0; x.len()];
        let f0 = obj.value_and_gradient(x, &mut g0);
        let dphi0 = dot(&g0, d);
        let res = wolfe_line_search(obj, x, f0, &g0, d, c2).expect("line search succeeds");
        // Armijo.
        assert!(
            res.value <= f0 + C1 * res.alpha * dphi0 + 1e-12,
            "sufficient decrease violated"
        );
        // Curvature.
        let dphi = dot(&res.gradient, d);
        assert!(dphi.abs() <= -c2 * dphi0 + 1e-12, "curvature violated");
    }

    #[test]
    fn satisfies_wolfe_on_quadratic() {
        let q = Quadratic::new(vec![3.0, -1.0]);
        let x = vec![0.0, 0.0];
        let mut g = vec![0.0; 2];
        q.gradient(&x, &mut g);
        let d: Vec<f64> = g.iter().map(|v| -v).collect();
        check_wolfe(&q, &x, &d, 0.9);
    }

    #[test]
    fn satisfies_wolfe_on_rosenbrock() {
        let r = Rosenbrock;
        let x = vec![-1.2, 1.0];
        let mut g = vec![0.0; 2];
        r.gradient(&x, &mut g);
        let d: Vec<f64> = g.iter().map(|v| -v).collect();
        check_wolfe(&r, &x, &d, 0.9);
    }

    #[test]
    fn rejects_ascent_direction() {
        let q = Quadratic::new(vec![3.0]);
        let x = vec![0.0];
        let mut g = vec![0.0];
        let f0 = q.value_and_gradient(&x, &mut g);
        // d = +g is an ascent direction.
        let res = wolfe_line_search(&q, &x, f0, &g, &g.clone(), 0.9);
        assert_eq!(res.err(), Some(0));
    }

    #[test]
    fn exact_step_on_1d_quadratic() {
        // φ(α) along -g from x=0 for (x-3)²: minimum at α = 0.5 (step 6·0.5=3).
        let q = Quadratic::new(vec![3.0]);
        let x = vec![0.0];
        let mut g = vec![0.0];
        let f0 = q.value_and_gradient(&x, &mut g);
        let d = vec![-g[0]];
        let res = wolfe_line_search(&q, &x, f0, &g, &d, 0.9).unwrap();
        let x_new = x[0] + res.alpha * d[0];
        // Wolfe accepts near-minimizers; the curvature condition with c2=0.9
        // gives a loose bracket around 3.
        assert!((x_new - 3.0).abs() < 3.0, "x_new = {x_new}");
        assert!(res.value < f0);
    }
}
