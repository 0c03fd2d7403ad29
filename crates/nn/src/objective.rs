//! The training objective: cross entropy (eq. 2) + penalty (eq. 3).

use nr_encode::EncodedDataset;
use nr_opt::Objective;
use serde::{Deserialize, Serialize};

use crate::{Activation, Matrix, Mlp};

/// Output clamp keeping `log` finite; the gradient is exact regardless
/// because `dE/du = S − t` does not go through the clamp.
const EPS: f64 = 1e-12;

/// The two-term weight-decay penalty of eq. 3:
///
/// `P(w,v) = ε₁ Σ βθ²/(1+βθ²) + ε₂ Σ θ²` over all active weights θ.
///
/// The first term saturates — it pushes *small* weights to zero without
/// penalizing large ones much (so pruning finds many removable links); the
/// second keeps all weights bounded. The defaults are Setiono's published
/// settings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Penalty {
    /// Weight of the saturating term.
    pub eps1: f64,
    /// Weight of the quadratic term.
    pub eps2: f64,
    /// Steepness of the saturating term.
    pub beta: f64,
}

impl Default for Penalty {
    fn default() -> Self {
        Penalty {
            eps1: 0.1,
            eps2: 1e-4,
            beta: 10.0,
        }
    }
}

impl Penalty {
    /// A zero penalty (pure cross-entropy training; ablation baseline).
    pub fn none() -> Self {
        Penalty {
            eps1: 0.0,
            eps2: 0.0,
            beta: 10.0,
        }
    }

    /// Penalty value for one weight.
    #[inline]
    pub fn value(&self, theta: f64) -> f64 {
        let t2 = theta * theta;
        self.eps1 * self.beta * t2 / (1.0 + self.beta * t2) + self.eps2 * t2
    }

    /// Derivative of [`Penalty::value`] w.r.t. the weight.
    #[inline]
    pub fn derivative(&self, theta: f64) -> f64 {
        let denom = 1.0 + self.beta * theta * theta;
        self.eps1 * 2.0 * self.beta * theta / (denom * denom) + 2.0 * self.eps2 * theta
    }
}

/// Eq. 2 + eq. 3 over the network's *active* weights, as an
/// [`nr_opt::Objective`].
///
/// The parameter vector is the canonical active-link flattening of the
/// template network ([`Mlp::flatten_active`]); masked links are simply not
/// part of the optimization problem, which keeps BFGS's dense inverse
/// Hessian small as pruning progresses.
///
/// Evaluation runs on the dataset's dense batch layout
/// ([`nr_encode::EncodedDataset::batch`]): the forward pass is two
/// matrix-matrix products (`hidden = tanh(X·Wᵀ)`, `S = σ(hidden·Vᵀ)`) and
/// the backward pass is the transposed products `dV = Dᵀ·hidden` and
/// `dW = ((D·V) ⊙ (1−hidden²))ᵀ·X` with `D = S − T`. Rows are sharded
/// into fixed-size chunks evaluated by worker threads and reduced in chunk
/// order, so the value and gradient are bit-identical for every thread
/// count (see [`CrossEntropyObjective::with_threads`]).
pub struct CrossEntropyObjective<'a> {
    template: &'a Mlp,
    data: &'a EncodedDataset,
    penalty: Penalty,
    /// Canonical order of the active links, cached.
    links: Vec<crate::LinkId>,
    /// Data-pass execution mode: `1` = inline on the caller's thread,
    /// anything else = the shared worker pool (`0` = auto-detect).
    threads: usize,
}

impl<'a> CrossEntropyObjective<'a> {
    /// Builds the objective for a network structure and dataset.
    pub fn new(template: &'a Mlp, data: &'a EncodedDataset, penalty: Penalty) -> Self {
        assert_eq!(
            template.n_inputs(),
            data.cols(),
            "network inputs must match encoded data columns"
        );
        assert!(
            template.n_outputs() >= data.n_classes(),
            "need one output node per class"
        );
        let links = template.active_links();
        CrossEntropyObjective {
            template,
            data,
            penalty,
            links,
            threads: 0,
        }
    }

    /// Selects the data-pass execution mode: `1` forces inline evaluation
    /// on the caller's thread; any other value (`0` = auto-detect) runs
    /// multi-chunk datasets on the **shared worker pool**, whose size is
    /// fixed process-wide at `min(available_parallelism, 8)` — the value
    /// is not a per-call worker count.
    ///
    /// Purely a throughput knob either way: the fixed chunking and ordered
    /// reduction make the result bit-identical in every mode.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Expands the flat parameter vector into dense `w`/`v` matrices
    /// (masked entries zero).
    fn assemble(&self, x: &[f64]) -> (Matrix, Matrix) {
        let t = self.template;
        let mut w = Matrix::zeros(t.n_hidden(), t.n_inputs());
        let mut v = Matrix::zeros(t.n_outputs(), t.n_hidden());
        for (link, &p) in self.links.iter().zip(x) {
            match *link {
                crate::LinkId::InputHidden { hidden, input } => w[(hidden, input)] = p,
                crate::LinkId::HiddenOutput { output, hidden } => v[(output, hidden)] = p,
            }
        }
        (w, v)
    }

    /// Shared forward/backward pass. When `grad` is `Some`, accumulates the
    /// gradient (in link order) as well.
    ///
    /// One fixed-size chunk of rows at a time: batch forward
    /// (`hidden = tanh(X·Wᵀ)`, `S = σ(hidden·Vᵀ)`), cross entropy against
    /// the precomputed one-hot targets, and the delta rules as transposed
    /// matmuls. Chunks run on worker threads; per-chunk partial losses and
    /// gradients are reduced in chunk order, so the result does not depend
    /// on the thread count.
    fn evaluate(&self, x: &[f64], mut grad: Option<&mut [f64]>) -> f64 {
        let t = self.template;
        let (w, v) = self.assemble(x);
        let (h, o, n_in) = (t.n_hidden(), t.n_outputs(), t.n_inputs());
        let rows = self.data.rows();
        let want_grad = grad.is_some();

        // Everything a chunk job needs; the jobs borrow it (and the
        // dataset) only until `map_chunks` returns.
        let ctx = EvalCtx {
            data: self.data,
            w,
            v,
            h,
            o,
            n_in,
            want_grad,
        };

        let threads = crate::par::resolve_threads(self.threads, crate::par::n_chunks(rows));
        let partials = crate::par::map_chunks(rows, threads, |_c, range| eval_chunk(&ctx, range));

        // Ordered reduction: chunk 0 first, always.
        let mut loss = 0.0;
        let mut dw = Matrix::zeros(h, n_in);
        let mut dv = Matrix::zeros(o, h);
        for p in partials {
            loss += p.loss;
            if want_grad {
                crate::matrix::axpy(1.0, &p.dw, dw.as_mut_slice());
                crate::matrix::axpy(1.0, &p.dv, dv.as_mut_slice());
            }
        }

        // Penalty over active weights (+ gradient).
        for (k, (&p, link)) in x.iter().zip(&self.links).enumerate() {
            loss += self.penalty.value(p);
            if let Some(g) = grad.as_deref_mut() {
                let data_grad = match *link {
                    crate::LinkId::InputHidden { hidden, input } => dw[(hidden, input)],
                    crate::LinkId::HiddenOutput { output, hidden } => dv[(output, hidden)],
                };
                g[k] = data_grad + self.penalty.derivative(p);
            }
        }
        loss
    }
}

/// Everything one chunk evaluation needs.
struct EvalCtx<'a> {
    /// The encoded dataset being evaluated.
    data: &'a EncodedDataset,
    /// Assembled dense input→hidden weights (masked entries zero).
    w: Matrix,
    /// Assembled dense hidden→output weights.
    v: Matrix,
    h: usize,
    o: usize,
    n_in: usize,
    want_grad: bool,
}

/// Per-chunk partial results, reduced in chunk order.
struct Partial {
    loss: f64,
    dw: Vec<f64>,
    dv: Vec<f64>,
}

/// One fixed-size chunk of rows: batch forward (`hidden = tanh(X·Wᵀ)`,
/// `S = σ(hidden·Vᵀ)`), cross entropy against the one-hot targets, and the
/// delta rules as transposed matmuls.
fn eval_chunk(ctx: &EvalCtx<'_>, range: std::ops::Range<usize>) -> Partial {
    let (h, o, n_in) = (ctx.h, ctx.o, ctx.n_in);
    let batch = ctx.data.batch();
    // One-hot targets match the output layer only when every output node
    // corresponds to a class; subnetwork objectives with extra output
    // nodes fall back to expanding targets on the fly.
    let onehot = (o == batch.n_classes).then_some(batch.targets_onehot);
    let targets = ctx.data.targets();
    let n = range.len();
    // The n-proportional buffers come from the thread-local scratch cache
    // (reused across this worker's chunks and calls); only the small
    // per-chunk gradients (`dw`, `dv` — a few hundred floats) are owned,
    // since they travel back through the ordered reduction.
    crate::par::with_scratch(&[n * h, n * o, n * o, n * h], |bufs| {
        let [hidden, out, delta, back] = bufs else {
            unreachable!("four scratch buffers requested");
        };

        // Forward pass over the assembled parameter matrices.
        crate::mlp::forward_kernel(
            crate::mlp::BatchInput::select(&batch, &range, n_in),
            n,
            (n_in, h, o),
            ctx.w.as_slice(),
            ctx.v.as_slice(),
            hidden,
            out,
        );

        // Cross entropy + output deltas D = S − T.
        let mut loss = 0.0;
        for (ri, i) in range.clone().enumerate() {
            let srow = &out[ri * o..(ri + 1) * o];
            let drow = &mut delta[ri * o..(ri + 1) * o];
            let target = targets[i];
            for (p, (&s, d)) in srow.iter().zip(drow.iter_mut()).enumerate() {
                let tph = match onehot {
                    Some(t) => t[i * o + p],
                    None => {
                        if p == target {
                            1.0
                        } else {
                            0.0
                        }
                    }
                };
                let sc = s.clamp(EPS, 1.0 - EPS);
                loss -= tph * sc.ln() + (1.0 - tph) * (1.0 - sc).ln();
                *d = s - tph; // dE/du_p for sigmoid + CE
            }
        }

        if !ctx.want_grad {
            return Partial {
                loss,
                dw: Vec::new(),
                dv: Vec::new(),
            };
        }

        // Backward: dV += Dᵀ·hidden; dW += ((D·V) ⊙ (1−hidden²))ᵀ·X.
        let mut dv = vec![0.0; o * h];
        crate::matrix::gemm_tn_acc(o, h, n, delta, hidden, &mut dv);
        crate::matrix::gemm_nn(n, h, o, delta, ctx.v.as_slice(), back);
        for (b, &a) in back.iter_mut().zip(hidden.iter()) {
            *b *= Activation::Tanh.derivative_from_output(a);
        }
        let mut dw = vec![0.0; h * n_in];
        match crate::mlp::BatchInput::select(&batch, &range, n_in) {
            crate::mlp::BatchInput::Bits { indices, offsets } => {
                crate::matrix::gemm_tn_bits_acc(h, n_in, n, back, indices, offsets, &mut dw)
            }
            crate::mlp::BatchInput::Dense(xs) => {
                crate::matrix::gemm_tn_acc(h, n_in, n, back, xs, &mut dw)
            }
        }
        Partial { loss, dw, dv }
    })
}

impl Objective for CrossEntropyObjective<'_> {
    fn dim(&self) -> usize {
        self.links.len()
    }

    fn value(&self, x: &[f64]) -> f64 {
        self.evaluate(x, None)
    }

    fn gradient(&self, x: &[f64], grad: &mut [f64]) {
        self.evaluate(x, Some(grad));
    }

    fn value_and_gradient(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        self.evaluate(x, Some(grad))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinkId;
    use nr_opt::numeric_gradient;

    fn toy_data() -> EncodedDataset {
        // 3 inputs (last = bias), 4 rows, 2 classes.
        EncodedDataset::from_parts(
            vec![
                1.0, 0.0, 1.0, //
                0.0, 1.0, 1.0, //
                1.0, 1.0, 1.0, //
                0.0, 0.0, 1.0,
            ],
            3,
            vec![0, 1, 0, 1],
            2,
        )
    }

    #[test]
    fn penalty_value_and_derivative() {
        let p = Penalty::default();
        assert_eq!(p.value(0.0), 0.0);
        assert_eq!(p.derivative(0.0), 0.0);
        // Saturating term tends to eps1 for large weights.
        assert!((p.value(100.0) - (0.1 + 1e-4 * 10_000.0)).abs() < 1e-3);
        // Finite difference check.
        for &t in &[-2.0, -0.3, 0.1, 1.5] {
            let h = 1e-7;
            let numeric = (p.value(t + h) - p.value(t - h)) / (2.0 * h);
            assert!((numeric - p.derivative(t)).abs() < 1e-6);
        }
    }

    #[test]
    fn penalty_none_is_zero() {
        let p = Penalty::none();
        assert_eq!(p.value(3.0), 0.0);
        assert_eq!(p.derivative(3.0), 0.0);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let net = Mlp::random(3, 3, 2, 11);
        let data = toy_data();
        let obj = CrossEntropyObjective::new(&net, &data, Penalty::default());
        let x = net.flatten_active();
        let mut analytic = vec![0.0; obj.dim()];
        obj.gradient(&x, &mut analytic);
        let numeric = numeric_gradient(&obj, &x, 1e-6);
        for (k, (a, n)) in analytic.iter().zip(&numeric).enumerate() {
            assert!(
                (a - n).abs() < 1e-5 * (1.0 + a.abs()),
                "coordinate {k}: analytic {a} vs numeric {n}"
            );
        }
    }

    #[test]
    fn gradient_matches_with_pruned_links() {
        let mut net = Mlp::random(3, 3, 2, 13);
        net.prune(LinkId::InputHidden {
            hidden: 0,
            input: 1,
        });
        net.prune(LinkId::HiddenOutput {
            output: 1,
            hidden: 2,
        });
        let data = toy_data();
        let obj = CrossEntropyObjective::new(&net, &data, Penalty::default());
        assert_eq!(obj.dim(), net.n_active());
        let x = net.flatten_active();
        let mut analytic = vec![0.0; obj.dim()];
        obj.gradient(&x, &mut analytic);
        let numeric = numeric_gradient(&obj, &x, 1e-6);
        for (a, n) in analytic.iter().zip(&numeric) {
            assert!((a - n).abs() < 1e-5 * (1.0 + a.abs()), "{a} vs {n}");
        }
    }

    #[test]
    fn value_and_gradient_consistent() {
        let net = Mlp::random(3, 2, 2, 17);
        let data = toy_data();
        let obj = CrossEntropyObjective::new(&net, &data, Penalty::default());
        let x = net.flatten_active();
        let mut g = vec![0.0; obj.dim()];
        let v1 = obj.value(&x);
        let v2 = obj.value_and_gradient(&x, &mut g);
        assert!((v1 - v2).abs() < 1e-12);
    }

    #[test]
    fn loss_decreases_along_negative_gradient() {
        let net = Mlp::random(3, 2, 2, 19);
        let data = toy_data();
        let obj = CrossEntropyObjective::new(&net, &data, Penalty::default());
        let x = net.flatten_active();
        let mut g = vec![0.0; obj.dim()];
        let f0 = obj.value_and_gradient(&x, &mut g);
        let step: Vec<f64> = x.iter().zip(&g).map(|(xi, gi)| xi - 1e-3 * gi).collect();
        assert!(obj.value(&step) < f0);
    }

    #[test]
    fn perfect_outputs_give_near_zero_loss() {
        // One input+bias, strong weights: class 0 for x=1 after training by hand.
        let mut net = Mlp::random(2, 1, 2, 23);
        net.set_weight(
            LinkId::InputHidden {
                hidden: 0,
                input: 0,
            },
            50.0,
        );
        net.set_weight(
            LinkId::InputHidden {
                hidden: 0,
                input: 1,
            },
            -25.0,
        );
        net.set_weight(
            LinkId::HiddenOutput {
                output: 0,
                hidden: 0,
            },
            50.0,
        );
        net.set_weight(
            LinkId::HiddenOutput {
                output: 1,
                hidden: 0,
            },
            -50.0,
        );
        let data = EncodedDataset::from_parts(vec![1.0, 1.0, 0.0, 1.0], 2, vec![0, 1], 2);
        let obj = CrossEntropyObjective::new(&net, &data, Penalty::none());
        let loss = obj.value(&net.flatten_active());
        assert!(loss < 1e-8, "loss {loss}");
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn rejects_mismatched_data() {
        let net = Mlp::random(3, 2, 2, 1);
        let data = EncodedDataset::from_parts(vec![1.0, 1.0], 2, vec![0], 2);
        let _ = CrossEntropyObjective::new(&net, &data, Penalty::default());
    }
}
