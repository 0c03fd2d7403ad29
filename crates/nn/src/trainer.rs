//! High-level training entry point.

use nr_encode::EncodedDataset;
use nr_opt::{Bfgs, ConjugateGradient, GradientDescent, Lbfgs, Optimizer};
use serde::{Deserialize, Serialize};

use crate::{CrossEntropyObjective, Mlp, Penalty};

/// Which minimizer drives training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrainingAlgorithm {
    /// BFGS quasi-Newton (the paper's choice; superlinear convergence).
    Bfgs(Bfgs),
    /// Limited-memory BFGS (for larger networks).
    Lbfgs(Lbfgs),
    /// Polak–Ribière+ conjugate gradient (matrix-free).
    ConjugateGradient(ConjugateGradient),
    /// Gradient descent with momentum (classic backpropagation; ablation).
    GradientDescent(GradientDescent),
}

impl Default for TrainingAlgorithm {
    fn default() -> Self {
        TrainingAlgorithm::Bfgs(Bfgs::default().with_max_iters(300))
    }
}

/// Outcome of one training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Final objective value (cross entropy + penalty).
    pub loss: f64,
    /// Gradient infinity norm at the final weights.
    pub grad_norm: f64,
    /// Optimizer iterations.
    pub iterations: usize,
    /// Objective evaluations.
    pub evaluations: usize,
    /// Whether the gradient tolerance was reached ("a local minimum … has
    /// been reached", §2.1).
    pub converged: bool,
    /// Training-set accuracy (argmax rule) of the trained network.
    pub accuracy: f64,
}

/// Trains a network in place: minimizes eq. 2 + eq. 3 over the active
/// weights and writes the optimum back.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Trainer {
    /// The minimizer.
    pub algorithm: TrainingAlgorithm,
    /// The weight-decay penalty (eq. 3).
    pub penalty: Penalty,
}

impl Trainer {
    /// Trainer with the given algorithm and the default penalty.
    pub fn new(algorithm: TrainingAlgorithm) -> Self {
        Trainer {
            algorithm,
            penalty: Penalty::default(),
        }
    }

    /// Replaces the penalty.
    pub fn with_penalty(mut self, penalty: Penalty) -> Self {
        self.penalty = penalty;
        self
    }

    /// Trains `net` on `data`, mutating its weights; returns a report.
    pub fn train(&self, net: &mut Mlp, data: &EncodedDataset) -> TrainReport {
        let x0 = net.flatten_active();
        let result = {
            let objective = CrossEntropyObjective::new(net, data, self.penalty);
            // One helper thread splits the evaluations of the whole run.
            objective.run(|objective| match &self.algorithm {
                TrainingAlgorithm::Bfgs(b) => b.minimize(objective, x0),
                TrainingAlgorithm::Lbfgs(l) => l.minimize(objective, x0),
                TrainingAlgorithm::ConjugateGradient(c) => c.minimize(objective, x0),
                TrainingAlgorithm::GradientDescent(g) => g.minimize(objective, x0),
            })
        };
        net.set_active(&result.x);
        TrainReport {
            loss: result.value,
            grad_norm: result.grad_norm,
            iterations: result.iterations,
            evaluations: result.evaluations,
            converged: result.converged,
            accuracy: net.accuracy(data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable toy problem: class = bit 0.
    fn separable(n: usize) -> EncodedDataset {
        let mut data = Vec::new();
        let mut targets = Vec::new();
        for i in 0..n {
            let b0 = (i % 2) as f64;
            let b1 = ((i / 2) % 2) as f64;
            data.extend_from_slice(&[b0, b1, 1.0]);
            targets.push(if b0 == 1.0 { 0 } else { 1 });
        }
        EncodedDataset::from_parts(data, 3, targets, 2)
    }

    #[test]
    fn bfgs_learns_separable_data() {
        let data = separable(40);
        let mut net = Mlp::random(3, 3, 2, 5);
        let report = Trainer::default().train(&mut net, &data);
        assert_eq!(report.accuracy, 1.0, "{report:?}");
        assert!(report.loss < 10.0);
    }

    #[test]
    fn lbfgs_learns_separable_data() {
        let data = separable(40);
        let mut net = Mlp::random(3, 3, 2, 5);
        let algo = TrainingAlgorithm::Lbfgs(nr_opt::Lbfgs::default().with_max_iters(300));
        let report = Trainer::new(algo).train(&mut net, &data);
        assert_eq!(report.accuracy, 1.0, "{report:?}");
    }

    #[test]
    fn conjugate_gradient_learns_separable_data() {
        let data = separable(40);
        let mut net = Mlp::random(3, 3, 2, 5);
        let algo = TrainingAlgorithm::ConjugateGradient(
            nr_opt::ConjugateGradient::default().with_max_iters(500),
        );
        let report = Trainer::new(algo).train(&mut net, &data);
        assert_eq!(report.accuracy, 1.0, "{report:?}");
    }

    #[test]
    fn gradient_descent_learns_separable_data() {
        let data = separable(40);
        let mut net = Mlp::random(3, 3, 2, 5);
        let algo = TrainingAlgorithm::GradientDescent(
            GradientDescent::default()
                .with_learning_rate(0.05)
                .with_max_iters(3000),
        );
        let report = Trainer::new(algo).train(&mut net, &data);
        assert_eq!(report.accuracy, 1.0, "{report:?}");
    }

    #[test]
    fn xor_is_learnable_with_hidden_layer() {
        // XOR of bits 0 and 1 — not linearly separable; exercises the
        // hidden layer for real.
        let rows: Vec<(f64, f64, usize)> =
            vec![(0.0, 0.0, 1), (0.0, 1.0, 0), (1.0, 0.0, 0), (1.0, 1.0, 1)];
        let mut data = Vec::new();
        let mut targets = Vec::new();
        for &(a, b, c) in &rows {
            data.extend_from_slice(&[a, b, 1.0]);
            targets.push(c);
        }
        let data = EncodedDataset::from_parts(data, 3, targets, 2);
        // Try a handful of seeds; XOR has local minima and the penalty
        // term biases small nets toward constant outputs.
        let solved = (0..16).any(|seed| {
            let mut net = Mlp::random(3, 4, 2, seed);
            let report = Trainer::default().train(&mut net, &data);
            report.accuracy == 1.0
        });
        assert!(solved, "no seed solved XOR");
    }

    #[test]
    fn training_respects_pruned_links() {
        let data = separable(20);
        let mut net = Mlp::random(3, 2, 2, 9);
        net.prune(crate::LinkId::InputHidden {
            hidden: 0,
            input: 1,
        });
        let _ = Trainer::default().train(&mut net, &data);
        assert_eq!(
            net.weight(crate::LinkId::InputHidden {
                hidden: 0,
                input: 1
            }),
            0.0
        );
        assert!(!net.is_active(crate::LinkId::InputHidden {
            hidden: 0,
            input: 1
        }));
    }

    #[test]
    fn penalty_shrinks_weights() {
        let data = separable(40);
        let mut plain = Mlp::random(3, 3, 2, 21);
        let mut penalized = plain.clone();
        Trainer::default()
            .with_penalty(Penalty::none())
            .train(&mut plain, &data);
        Trainer::default()
            .with_penalty(Penalty {
                eps1: 0.5,
                eps2: 1e-3,
                beta: 10.0,
            })
            .train(&mut penalized, &data);
        let norm = |n: &Mlp| -> f64 {
            n.w()
                .as_slice()
                .iter()
                .chain(n.v().as_slice())
                .map(|w| w * w)
                .sum()
        };
        assert!(
            norm(&penalized) < norm(&plain),
            "penalty should shrink weights: {} vs {}",
            norm(&penalized),
            norm(&plain)
        );
    }

    #[test]
    fn deterministic_training() {
        let data = separable(24);
        let mut a = Mlp::random(3, 3, 2, 3);
        let mut b = Mlp::random(3, 3, 2, 3);
        let ra = Trainer::default().train(&mut a, &data);
        let rb = Trainer::default().train(&mut b, &data);
        assert_eq!(a, b);
        assert_eq!(ra, rb);
    }
}
