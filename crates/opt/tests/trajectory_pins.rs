//! Bit-level pins of every line-search trajectory.
//!
//! BFGS, L-BFGS and conjugate gradient run on a convex quadratic, on
//! Rosenbrock and on a non-convex objective with kinks, under iteration
//! budgets 0, 1, 5 and 250 and three gradient tolerances. Each run is pinned
//! by an FNV-1a digest of the bits of `x`, the final value and the gradient
//! norm, plus its iteration and evaluation counts and `converged`. Any change
//! to a search direction, a curvature update, the line search or a stopping
//! rule moves at least one pin.
//!
//! The kinked objective reaches the rare branches. From `KINK_A`, BFGS
//! recovers from failed line searches by its steepest-descent retry and
//! stops on the relative-improvement test. From `KINK_B`, all three methods
//! stop on a failed line search, and CG first resets a direction that is not
//! a descent direction. Scaled by 1e-200 (`flat`), gᵀg underflows to zero,
//! so under a zero tolerance every method resets its direction on the first
//! iteration and stops on the failed search that follows.

use std::cell::Cell;

use nr_opt::{Bfgs, ConjugateGradient, Lbfgs, Objective, OptResult, Optimizer};

/// `Σ cᵢ (xᵢ − tᵢ)²`, condition number 250.
struct Quad;

const TARGET: [f64; 4] = [1.0, -2.0, 0.5, 3.0];
const SCALE: [f64; 4] = [0.2, 1.0, 10.0, 50.0];

impl Objective for Quad {
    fn dim(&self) -> usize {
        TARGET.len()
    }
    fn value(&self, x: &[f64]) -> f64 {
        x.iter()
            .zip(TARGET)
            .zip(SCALE)
            .map(|((xi, ti), ci)| ci * (xi - ti) * (xi - ti))
            .sum()
    }
    fn gradient(&self, x: &[f64], g: &mut [f64]) {
        for ((gi, (xi, ti)), ci) in g.iter_mut().zip(x.iter().zip(TARGET)).zip(SCALE) {
            *gi = 2.0 * ci * (xi - ti);
        }
    }
}

/// The 2-D Rosenbrock banana, minimum at (1, 1).
struct Rosenbrock;

impl Objective for Rosenbrock {
    fn dim(&self) -> usize {
        2
    }
    fn value(&self, x: &[f64]) -> f64 {
        (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
    }
    fn gradient(&self, x: &[f64], g: &mut [f64]) {
        g[0] = -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]);
        g[1] = 200.0 * (x[1] - x[0] * x[0]);
    }
}

/// `scale · Σᵢ [(xᵢ² − 1)² + 0.7 |xᵢ − 2 x₍ᵢ₊₁₎|]` over a ring of four
/// coordinates: double wells coupled by kinks. Polynomial and `abs` only, so
/// its bits do not depend on a libm.
struct Kinked {
    scale: f64,
}

impl Objective for Kinked {
    fn dim(&self) -> usize {
        4
    }
    fn value(&self, x: &[f64]) -> f64 {
        let mut g = [0.0; 4];
        self.value_and_gradient(x, &mut g)
    }
    fn gradient(&self, x: &[f64], g: &mut [f64]) {
        self.value_and_gradient(x, g);
    }
    fn value_and_gradient(&self, x: &[f64], g: &mut [f64]) -> f64 {
        let n = x.len();
        let mut f = 0.0;
        g.fill(0.0);
        for i in 0..n {
            let j = (i + 1) % n;
            let c = x[i] - 2.0 * x[j];
            f += (x[i] * x[i] - 1.0).powi(2) + 0.7 * c.abs();
            g[i] += 4.0 * x[i] * (x[i] * x[i] - 1.0) + 0.7 * c.signum();
            g[j] -= 1.4 * c.signum();
        }
        for gi in g.iter_mut() {
            *gi *= self.scale;
        }
        self.scale * f
    }
}

const KINK_A: [f64; 4] = [0.5, 1.0, -1.75, -0.75];
const KINK_B: [f64; 4] = [-1.25, 2.0, 1.0, 1.75];

const BUDGETS: [usize; 4] = [0, 1, 5, 250];
const TOLERANCES: [f64; 3] = [1e-5, 1e-9, 0.0];

/// FNV-1a over the bits of `x`, then `value`, then `grad_norm`.
fn digest(r: &OptResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in r.x.iter().chain([&r.value, &r.grad_norm]) {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Counts the calls made to `inner`, each an objective evaluation.
struct Counted<'a> {
    inner: &'a dyn Objective,
    calls: Cell<usize>,
}

impl Counted<'_> {
    fn call(&self) {
        self.calls.set(self.calls.get() + 1);
    }
}

impl Objective for Counted<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn value(&self, x: &[f64]) -> f64 {
        self.call();
        self.inner.value(x)
    }
    fn gradient(&self, x: &[f64], g: &mut [f64]) {
        self.call();
        self.inner.gradient(x, g);
    }
    fn value_and_gradient(&self, x: &[f64], g: &mut [f64]) -> f64 {
        self.call();
        self.inner.value_and_gradient(x, g)
    }
}

/// Runs `run` on every objective, budget and tolerance and formats one line
/// per run: `objective budget tol digest iterations evaluations converged`.
/// Every run must report exactly the evaluations it made.
fn trajectories(run: impl Fn(usize, f64, &dyn Objective, Vec<f64>) -> OptResult) -> String {
    let objectives: [(&str, &dyn Objective, &[f64]); 5] = [
        ("quad", &Quad, &[8.0, 8.0, -8.0, -8.0]),
        ("rosenbrock", &Rosenbrock, &[-1.2, 1.0]),
        ("kink_a", &Kinked { scale: 1.0 }, &KINK_A),
        ("kink_b", &Kinked { scale: 1.0 }, &KINK_B),
        ("flat", &Kinked { scale: 1e-200 }, &KINK_A),
    ];
    let mut out = String::new();
    for (name, objective, x0) in objectives {
        for budget in BUDGETS {
            for tol in TOLERANCES {
                let counted = Counted {
                    inner: objective,
                    calls: Cell::new(0),
                };
                let r = run(budget, tol, &counted, x0.to_vec());
                assert_eq!(
                    r.evaluations,
                    counted.calls.get(),
                    "{name} {budget} {tol:e}: evaluations miscounted"
                );
                out += &format!(
                    "{name} {budget} {tol:e} {:016x} {} {} {}\n",
                    digest(&r),
                    r.iterations,
                    r.evaluations,
                    r.converged
                );
            }
        }
    }
    out
}

fn assert_pinned(label: &str, actual: &str, expected: &str) {
    for (a, e) in actual.lines().zip(expected.lines()) {
        assert_eq!(a, e, "{label} trajectory moved");
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "{label}: wrong number of pinned runs"
    );
}

#[test]
fn bfgs_trajectories_are_pinned() {
    let actual = trajectories(|budget, tol, objective, x0| {
        Bfgs::default()
            .with_max_iters(budget)
            .with_grad_tol(tol)
            .minimize(objective, x0)
    });
    assert_pinned("BFGS", &actual, BFGS);
}

#[test]
fn lbfgs_trajectories_are_pinned() {
    let actual = trajectories(|budget, tol, objective, x0| {
        Lbfgs::default()
            .with_max_iters(budget)
            .with_grad_tol(tol)
            .minimize(objective, x0)
    });
    assert_pinned("L-BFGS", &actual, LBFGS);
}

#[test]
fn cg_trajectories_are_pinned() {
    let actual = trajectories(|budget, tol, objective, x0| {
        ConjugateGradient::default()
            .with_max_iters(budget)
            .with_grad_tol(tol)
            .minimize(objective, x0)
    });
    assert_pinned("CG", &actual, CG);
}

const BFGS: &str = "\
quad 0 1e-5 8e5355c9fbd8f80d 0 1 false
quad 0 1e-9 8e5355c9fbd8f80d 0 1 false
quad 0 0e0 8e5355c9fbd8f80d 0 1 false
quad 1 1e-5 0eea9f8985498514 1 6 false
quad 1 1e-9 0eea9f8985498514 1 6 false
quad 1 0e0 0eea9f8985498514 1 6 false
quad 5 1e-5 1ec5304543a49bdc 5 12 false
quad 5 1e-9 1ec5304543a49bdc 5 12 false
quad 5 0e0 1ec5304543a49bdc 5 12 false
quad 250 1e-5 cf1c1d9a116b3b0b 18 25 true
quad 250 1e-9 1c0ce874b28d831f 19 26 false
quad 250 0e0 1c0ce874b28d831f 19 26 false
rosenbrock 0 1e-5 81f8bbae2d8d4523 0 1 false
rosenbrock 0 1e-9 81f8bbae2d8d4523 0 1 false
rosenbrock 0 0e0 81f8bbae2d8d4523 0 1 false
rosenbrock 1 1e-5 1531fa1627aba7cf 1 10 false
rosenbrock 1 1e-9 1531fa1627aba7cf 1 10 false
rosenbrock 1 0e0 1531fa1627aba7cf 1 10 false
rosenbrock 5 1e-5 20ea7f86ccfba969 5 17 false
rosenbrock 5 1e-9 20ea7f86ccfba969 5 17 false
rosenbrock 5 0e0 20ea7f86ccfba969 5 17 false
rosenbrock 250 1e-5 84a3cbc7584a004b 35 60 true
rosenbrock 250 1e-9 387692f3d5403830 37 62 true
rosenbrock 250 0e0 387692f3d5403830 37 62 false
kink_a 0 1e-5 d226de786395409c 0 1 false
kink_a 0 1e-9 d226de786395409c 0 1 false
kink_a 0 0e0 d226de786395409c 0 1 false
kink_a 1 1e-5 fbafb63a5499c225 1 5 false
kink_a 1 1e-9 fbafb63a5499c225 1 5 false
kink_a 1 0e0 fbafb63a5499c225 1 5 false
kink_a 5 1e-5 b7dbfb6f662908e1 5 42 false
kink_a 5 1e-9 b7dbfb6f662908e1 5 42 false
kink_a 5 0e0 b7dbfb6f662908e1 5 42 false
kink_a 250 1e-5 d04fa37c13ec5100 28 138 true
kink_a 250 1e-9 5be45f692a132798 29 139 false
kink_a 250 0e0 5be45f692a132798 29 139 false
kink_b 0 1e-5 fff0016418fcaf13 0 1 false
kink_b 0 1e-9 fff0016418fcaf13 0 1 false
kink_b 0 0e0 fff0016418fcaf13 0 1 false
kink_b 1 1e-5 939f9c2b9dc74ae5 1 5 false
kink_b 1 1e-9 939f9c2b9dc74ae5 1 5 false
kink_b 1 0e0 939f9c2b9dc74ae5 1 5 false
kink_b 5 1e-5 372915e80347e98a 4 77 false
kink_b 5 1e-9 372915e80347e98a 4 77 false
kink_b 5 0e0 372915e80347e98a 4 77 false
kink_b 250 1e-5 372915e80347e98a 4 77 false
kink_b 250 1e-9 372915e80347e98a 4 77 false
kink_b 250 0e0 372915e80347e98a 4 77 false
flat 0 1e-5 f5f298d97aa98344 0 1 true
flat 0 1e-9 f5f298d97aa98344 0 1 true
flat 0 0e0 f5f298d97aa98344 0 1 false
flat 1 1e-5 f5f298d97aa98344 0 1 true
flat 1 1e-9 f5f298d97aa98344 0 1 true
flat 1 0e0 f5f298d97aa98344 0 1 false
flat 5 1e-5 f5f298d97aa98344 0 1 true
flat 5 1e-9 f5f298d97aa98344 0 1 true
flat 5 0e0 f5f298d97aa98344 0 1 false
flat 250 1e-5 f5f298d97aa98344 0 1 true
flat 250 1e-9 f5f298d97aa98344 0 1 true
flat 250 0e0 f5f298d97aa98344 0 1 false
";

const LBFGS: &str = "\
quad 0 1e-5 8e5355c9fbd8f80d 0 1 false
quad 0 1e-9 8e5355c9fbd8f80d 0 1 false
quad 0 0e0 8e5355c9fbd8f80d 0 1 false
quad 1 1e-5 0eea9f8985498514 1 6 false
quad 1 1e-9 0eea9f8985498514 1 6 false
quad 1 0e0 0eea9f8985498514 1 6 false
quad 5 1e-5 51dfb5288e07ba77 5 10 false
quad 5 1e-9 51dfb5288e07ba77 5 10 false
quad 5 0e0 51dfb5288e07ba77 5 10 false
quad 250 1e-5 1c97418836bf4ad6 11 16 true
quad 250 1e-9 297b51eb26fbf15e 13 18 false
quad 250 0e0 297b51eb26fbf15e 13 18 false
rosenbrock 0 1e-5 81f8bbae2d8d4523 0 1 false
rosenbrock 0 1e-9 81f8bbae2d8d4523 0 1 false
rosenbrock 0 0e0 81f8bbae2d8d4523 0 1 false
rosenbrock 1 1e-5 1531fa1627aba7cf 1 10 false
rosenbrock 1 1e-9 1531fa1627aba7cf 1 10 false
rosenbrock 1 0e0 1531fa1627aba7cf 1 10 false
rosenbrock 5 1e-5 e222b7c5704b4db8 5 17 false
rosenbrock 5 1e-9 e222b7c5704b4db8 5 17 false
rosenbrock 5 0e0 e222b7c5704b4db8 5 17 false
rosenbrock 250 1e-5 a61d286a2aa5a280 37 65 true
rosenbrock 250 1e-9 f5a3607e6c70c683 38 66 false
rosenbrock 250 0e0 f5a3607e6c70c683 38 66 false
kink_a 0 1e-5 d226de786395409c 0 1 false
kink_a 0 1e-9 d226de786395409c 0 1 false
kink_a 0 0e0 d226de786395409c 0 1 false
kink_a 1 1e-5 fbafb63a5499c225 1 5 false
kink_a 1 1e-9 fbafb63a5499c225 1 5 false
kink_a 1 0e0 fbafb63a5499c225 1 5 false
kink_a 5 1e-5 b45e74fd658e2792 3 41 false
kink_a 5 1e-9 b45e74fd658e2792 3 41 false
kink_a 5 0e0 b45e74fd658e2792 3 41 false
kink_a 250 1e-5 b45e74fd658e2792 3 41 false
kink_a 250 1e-9 b45e74fd658e2792 3 41 false
kink_a 250 0e0 b45e74fd658e2792 3 41 false
kink_b 0 1e-5 fff0016418fcaf13 0 1 false
kink_b 0 1e-9 fff0016418fcaf13 0 1 false
kink_b 0 0e0 fff0016418fcaf13 0 1 false
kink_b 1 1e-5 939f9c2b9dc74ae5 1 5 false
kink_b 1 1e-9 939f9c2b9dc74ae5 1 5 false
kink_b 1 0e0 939f9c2b9dc74ae5 1 5 false
kink_b 5 1e-5 814d49295f221e81 4 41 false
kink_b 5 1e-9 814d49295f221e81 4 41 false
kink_b 5 0e0 814d49295f221e81 4 41 false
kink_b 250 1e-5 814d49295f221e81 4 41 false
kink_b 250 1e-9 814d49295f221e81 4 41 false
kink_b 250 0e0 814d49295f221e81 4 41 false
flat 0 1e-5 f5f298d97aa98344 0 1 true
flat 0 1e-9 f5f298d97aa98344 0 1 true
flat 0 0e0 f5f298d97aa98344 0 1 false
flat 1 1e-5 f5f298d97aa98344 0 1 true
flat 1 1e-9 f5f298d97aa98344 0 1 true
flat 1 0e0 f5f298d97aa98344 0 1 false
flat 5 1e-5 f5f298d97aa98344 0 1 true
flat 5 1e-9 f5f298d97aa98344 0 1 true
flat 5 0e0 f5f298d97aa98344 0 1 false
flat 250 1e-5 f5f298d97aa98344 0 1 true
flat 250 1e-9 f5f298d97aa98344 0 1 true
flat 250 0e0 f5f298d97aa98344 0 1 false
";

const CG: &str = "\
quad 0 1e-5 8e5355c9fbd8f80d 0 1 false
quad 0 1e-9 8e5355c9fbd8f80d 0 1 false
quad 0 0e0 8e5355c9fbd8f80d 0 1 false
quad 1 1e-5 0eea9f8985498514 1 6 false
quad 1 1e-9 0eea9f8985498514 1 6 false
quad 1 0e0 0eea9f8985498514 1 6 false
quad 5 1e-5 ffbc53cefc2cf366 5 15 false
quad 5 1e-9 ffbc53cefc2cf366 5 15 false
quad 5 0e0 ffbc53cefc2cf366 5 15 false
quad 250 1e-5 3891671088acdc9a 27 73 true
quad 250 1e-9 785a4367f44262a3 31 85 false
quad 250 0e0 785a4367f44262a3 31 85 false
rosenbrock 0 1e-5 81f8bbae2d8d4523 0 1 false
rosenbrock 0 1e-9 81f8bbae2d8d4523 0 1 false
rosenbrock 0 0e0 81f8bbae2d8d4523 0 1 false
rosenbrock 1 1e-5 073e005fab31e46d 1 11 false
rosenbrock 1 1e-9 073e005fab31e46d 1 11 false
rosenbrock 1 0e0 073e005fab31e46d 1 11 false
rosenbrock 5 1e-5 50f5b32e5c537889 5 44 false
rosenbrock 5 1e-9 50f5b32e5c537889 5 44 false
rosenbrock 5 0e0 50f5b32e5c537889 5 44 false
rosenbrock 250 1e-5 4c84f7dd767a9769 20 144 true
rosenbrock 250 1e-9 67cba45583af6260 22 154 false
rosenbrock 250 0e0 67cba45583af6260 22 154 false
kink_a 0 1e-5 d226de786395409c 0 1 false
kink_a 0 1e-9 d226de786395409c 0 1 false
kink_a 0 0e0 d226de786395409c 0 1 false
kink_a 1 1e-5 fbafb63a5499c225 1 5 false
kink_a 1 1e-9 fbafb63a5499c225 1 5 false
kink_a 1 0e0 fbafb63a5499c225 1 5 false
kink_a 5 1e-5 274e597a51647ac5 5 22 false
kink_a 5 1e-9 274e597a51647ac5 5 22 false
kink_a 5 0e0 274e597a51647ac5 5 22 false
kink_a 250 1e-5 165b48d8ad0b3677 11 38 true
kink_a 250 1e-9 54354f007d3e761f 12 40 true
kink_a 250 0e0 54354f007d3e761f 12 40 false
kink_b 0 1e-5 fff0016418fcaf13 0 1 false
kink_b 0 1e-9 fff0016418fcaf13 0 1 false
kink_b 0 0e0 fff0016418fcaf13 0 1 false
kink_b 1 1e-5 939f9c2b9dc74ae5 1 5 false
kink_b 1 1e-9 939f9c2b9dc74ae5 1 5 false
kink_b 1 0e0 939f9c2b9dc74ae5 1 5 false
kink_b 5 1e-5 b16e17ab7d95a300 5 14 false
kink_b 5 1e-9 b16e17ab7d95a300 5 14 false
kink_b 5 0e0 b16e17ab7d95a300 5 14 false
kink_b 250 1e-5 c01036a3b5d364f8 13 37 true
kink_b 250 1e-9 c01036a3b5d364f8 13 82 false
kink_b 250 0e0 c01036a3b5d364f8 13 82 false
flat 0 1e-5 f5f298d97aa98344 0 1 true
flat 0 1e-9 f5f298d97aa98344 0 1 true
flat 0 0e0 f5f298d97aa98344 0 1 false
flat 1 1e-5 f5f298d97aa98344 0 1 true
flat 1 1e-9 f5f298d97aa98344 0 1 true
flat 1 0e0 f5f298d97aa98344 0 1 false
flat 5 1e-5 f5f298d97aa98344 0 1 true
flat 5 1e-9 f5f298d97aa98344 0 1 true
flat 5 0e0 f5f298d97aa98344 0 1 false
flat 250 1e-5 f5f298d97aa98344 0 1 true
flat 250 1e-9 f5f298d97aa98344 0 1 true
flat 250 0e0 f5f298d97aa98344 0 1 false
";
