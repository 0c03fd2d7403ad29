//! Network pruning — algorithm NP (NeuroRule §2.2, Figure 2).
//!
//! A trained, fully connected network has `h(n+m)` links; rules cannot be
//! articulated from that. NP removes links whose influence on the outputs is
//! provably small, retraining between removals, until the accuracy would drop
//! below an acceptable level (the paper uses 90%):
//!
//! 1. remove every input-side link with `max_p |v_p^m · w_ℓ^m| ≤ 4η₂`
//!    (condition 4) and every output-side link with `|v_p^m| ≤ 4η₂`
//!    (condition 5), where `η₁ + η₂ < 0.5`;
//! 2. if nothing qualifies, remove the single input-side link with the
//!    smallest saliency `max_p |v_p^m · w_ℓ^m|` (step 5 of Figure 2);
//! 3. retrain; if accuracy falls below the floor, roll back and stop
//!    (one refinement over the paper: when a *batch* removal fails we retry
//!    with a single-link removal before giving up, which avoids stopping
//!    early just because the batch was too aggressive).
//!
//! Afterwards, hidden nodes with no remaining input or output links are
//! removed, and inputs with no links are reported as de-selected features.
//!
//! Every round runs a full retrain, a full saliency rescan and a
//! whole-network rollback checkpoint. The round trace is pinned bit for bit
//! by the seeded fixture in `tests/pruning_equivalence.rs`.
//!
//! ```no_run
//! use nr_prune::{prune, PruneConfig};
//! # let mut net = nr_nn::Mlp::random(87, 4, 2, 0);
//! # let data = nr_encode::EncodedDataset::from_parts(vec![0.0; 87], 87, vec![0], 2);
//! let outcome = prune(&mut net, &data, &PruneConfig::default());
//! println!("{} of {} links left", outcome.remaining_links, outcome.initial_links);
//! ```

#![deny(missing_docs)]

use nr_encode::EncodedDataset;
use nr_nn::{LinkId, Mlp, Trainer};
use nr_opt::Bfgs;
use serde::{Deserialize, Serialize};

/// η₂ of conditions (4)/(5); links with saliency ≤ `4·η₂` are removable.
/// It satisfies `η₁ + η₂ < 0.5` with the training η₁.
const ETA2: f64 = 0.1;

/// Parameters of the NP algorithm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PruneConfig {
    /// Lowest acceptable (argmax) training accuracy; pruning stops rather
    /// than sink below this (the paper sets 90%).
    pub accuracy_floor: f64,
    /// Upper bound on pruning rounds (safety valve).
    pub max_rounds: usize,
    /// Trainer used for retraining between removals (short BFGS budget).
    pub retrain: Trainer,
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig {
            accuracy_floor: 0.9,
            max_rounds: 300,
            retrain: Trainer::new(nr_nn::TrainingAlgorithm::Bfgs(
                Bfgs::default().with_max_iters(80).with_grad_tol(1e-4),
            )),
        }
    }
}

/// One pruning round in the trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PruneRound {
    /// Links removed this round.
    pub removed: usize,
    /// Whether this was a batch (conditions 4/5) or single-smallest round.
    pub batch: bool,
    /// Training accuracy after retraining.
    pub accuracy: f64,
    /// Active links remaining after the round.
    pub links_left: usize,
    /// Whether the optimizer ran this round. Always `true`: NP retrains
    /// after every removal. Kept so round counters can report retrains.
    pub retrained: bool,
}

/// Result of running NP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PruneOutcome {
    /// Rounds that were kept (rolled-back rounds not counted).
    pub rounds: usize,
    /// Active links before pruning.
    pub initial_links: usize,
    /// Active links after pruning.
    pub remaining_links: usize,
    /// Hidden nodes removed as dead.
    pub dead_hidden: Vec<usize>,
    /// Inputs left with no connections (de-selected features).
    pub unused_inputs: Vec<usize>,
    /// Final training accuracy of the pruned network — the last accepted
    /// round's accuracy (the dead-hidden sweep cannot change the network
    /// function: a dead node contributes exactly 0 either way).
    pub final_accuracy: f64,
    /// Per-round log.
    pub trace: Vec<PruneRound>,
}

/// Saliency of every active input-side link: `max_p |v_p^m · w_ℓ^m|`
/// over the active output-side links of hidden node `m`. Hidden nodes with
/// no active output links give saliency 0 (they cannot affect the outputs).
pub fn input_link_saliencies(net: &Mlp) -> Vec<(LinkId, f64)> {
    let mut out = Vec::new();
    for m in 0..net.n_hidden() {
        let vmax = hidden_vmax(net, m);
        for l in net.hidden_inputs(m) {
            let link = LinkId::InputHidden {
                hidden: m,
                input: l,
            };
            out.push((link, vmax * net.weight(link).abs()));
        }
    }
    out
}

/// `max_p |v_p^m|` over the active output links of hidden node `m` (0 when
/// none remain) — the per-hidden factor of every input-link saliency.
fn hidden_vmax(net: &Mlp, m: usize) -> f64 {
    net.hidden_outputs(m)
        .into_iter()
        .map(|p| {
            net.weight(LinkId::HiddenOutput {
                output: p,
                hidden: m,
            })
            .abs()
        })
        .fold(0.0f64, f64::max)
}

/// Output-side links qualifying under condition (5): active and
/// `|v_p^m| ≤ threshold`, in canonical (output-major) order.
fn output_candidates(net: &Mlp, threshold: f64) -> Vec<LinkId> {
    let mut out = Vec::new();
    for p in 0..net.n_outputs() {
        for m in 0..net.n_hidden() {
            let link = LinkId::HiddenOutput {
                output: p,
                hidden: m,
            };
            if net.is_active(link) && net.weight(link).abs() <= threshold {
                out.push(link);
            }
        }
    }
    out
}

/// Runs NP on `net` in place.
pub fn prune(net: &mut Mlp, data: &EncodedDataset, config: &PruneConfig) -> PruneOutcome {
    let threshold = 4.0 * ETA2;
    let initial_links = net.n_active();
    let mut trace = Vec::new();

    for _ in 0..config.max_rounds {
        // Step 3/4: batch candidates from conditions (4) and (5).
        let mut batch: Vec<LinkId> = input_link_saliencies(net)
            .into_iter()
            .filter(|&(_, s)| s <= threshold)
            .map(|(l, _)| l)
            .collect();
        batch.extend(output_candidates(net, threshold));

        let accepted = (!batch.is_empty()
            && try_removal(net, data, config, &batch, true, &mut trace))
            || try_single_smallest(net, data, config, &mut trace);
        if !accepted {
            break;
        }
    }

    let dead_hidden = net.remove_dead_hidden();
    // The last kept round's accuracy is the final one: sweeping dead hidden
    // nodes cannot change the network function.
    let final_accuracy = trace
        .last()
        .map(|round| round.accuracy)
        .unwrap_or_else(|| net.accuracy(data));
    PruneOutcome {
        rounds: trace.len(),
        initial_links,
        remaining_links: net.n_active(),
        dead_hidden,
        unused_inputs: net.unused_inputs(),
        final_accuracy,
        trace,
    }
}

/// Step 5 of Figure 2: remove the active input-side link with the smallest
/// saliency.
fn try_single_smallest(
    net: &mut Mlp,
    data: &EncodedDataset,
    config: &PruneConfig,
    trace: &mut Vec<PruneRound>,
) -> bool {
    let Some((link, _)) = input_link_saliencies(net)
        .into_iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
    else {
        return false;
    };
    try_removal(net, data, config, &[link], false, trace)
}

/// Prunes `links`, retrains, and keeps the result iff accuracy stays at or
/// above the floor; otherwise restores the checkpoint.
fn try_removal(
    net: &mut Mlp,
    data: &EncodedDataset,
    config: &PruneConfig,
    links: &[LinkId],
    batch: bool,
    trace: &mut Vec<PruneRound>,
) -> bool {
    let checkpoint = net.clone();
    for &l in links {
        net.prune(l);
    }
    if net.n_active() == 0 {
        *net = checkpoint;
        return false;
    }
    let report = config.retrain.train(net, data);
    if report.accuracy >= config.accuracy_floor {
        trace.push(PruneRound {
            removed: links.len(),
            batch,
            accuracy: report.accuracy,
            links_left: net.n_active(),
            retrained: true,
        });
        true
    } else {
        *net = checkpoint;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_nn::TrainingAlgorithm;

    /// Dataset where class = bit 0 and bit 1 is pure noise.
    fn noisy_separable(n: usize) -> EncodedDataset {
        let mut data = Vec::new();
        let mut targets = Vec::new();
        for i in 0..n {
            let b0 = (i % 2) as f64;
            let b1 = ((i * 7 + 3) % 5 < 2) as u8 as f64; // junk
            data.extend_from_slice(&[b0, b1, 1.0]);
            targets.push(if b0 == 1.0 { 0 } else { 1 });
        }
        EncodedDataset::from_parts(data, 3, targets, 2)
    }

    fn quick_config() -> PruneConfig {
        PruneConfig {
            retrain: Trainer::new(TrainingAlgorithm::Bfgs(
                Bfgs::default().with_max_iters(40).with_grad_tol(1e-4),
            )),
            ..PruneConfig::default()
        }
    }

    #[test]
    fn saliency_matches_definition() {
        let mut net = Mlp::random(2, 2, 2, 1);
        net.set_weight(
            LinkId::InputHidden {
                hidden: 0,
                input: 0,
            },
            0.5,
        );
        net.set_weight(
            LinkId::InputHidden {
                hidden: 0,
                input: 1,
            },
            -0.2,
        );
        net.set_weight(
            LinkId::HiddenOutput {
                output: 0,
                hidden: 0,
            },
            2.0,
        );
        net.set_weight(
            LinkId::HiddenOutput {
                output: 1,
                hidden: 0,
            },
            -3.0,
        );
        let sal = input_link_saliencies(&net);
        let s00 = sal
            .iter()
            .find(|(l, _)| {
                *l == LinkId::InputHidden {
                    hidden: 0,
                    input: 0,
                }
            })
            .unwrap()
            .1;
        assert!((s00 - 1.5).abs() < 1e-12); // max(|2*0.5|, |-3*0.5|) = 1.5
        let s01 = sal
            .iter()
            .find(|(l, _)| {
                *l == LinkId::InputHidden {
                    hidden: 0,
                    input: 1,
                }
            })
            .unwrap()
            .1;
        assert!((s01 - 0.6).abs() < 1e-12);
    }

    #[test]
    fn saliency_zero_for_outputless_hidden() {
        let mut net = Mlp::random(2, 1, 2, 2);
        net.prune(LinkId::HiddenOutput {
            output: 0,
            hidden: 0,
        });
        net.prune(LinkId::HiddenOutput {
            output: 1,
            hidden: 0,
        });
        for (_, s) in input_link_saliencies(&net) {
            assert_eq!(s, 0.0);
        }
    }

    #[test]
    fn prunes_noise_input_and_keeps_accuracy() {
        let data = noisy_separable(60);
        let mut net = Mlp::random(3, 3, 2, 7);
        let trainer = Trainer::default();
        let report = trainer.train(&mut net, &data);
        assert_eq!(report.accuracy, 1.0);

        let outcome = prune(&mut net, &data, &quick_config());
        assert!(outcome.final_accuracy >= 0.9, "{outcome:?}");
        assert!(
            outcome.remaining_links < outcome.initial_links,
            "{outcome:?}"
        );
        // The junk input should be disconnected.
        assert!(outcome.unused_inputs.contains(&1), "{outcome:?}");
    }

    #[test]
    fn trace_is_monotonically_decreasing() {
        let data = noisy_separable(60);
        let mut net = Mlp::random(3, 4, 2, 11);
        Trainer::default().train(&mut net, &data);
        let outcome = prune(&mut net, &data, &quick_config());
        let mut last = outcome.initial_links;
        for round in &outcome.trace {
            assert!(round.links_left < last);
            assert!(round.accuracy >= 0.9);
            last = round.links_left;
        }
        assert_eq!(outcome.rounds, outcome.trace.len());
    }

    #[test]
    fn respects_max_rounds() {
        let data = noisy_separable(40);
        let mut net = Mlp::random(3, 3, 2, 13);
        Trainer::default().train(&mut net, &data);
        let config = PruneConfig {
            max_rounds: 1,
            ..quick_config()
        };
        let outcome = prune(&mut net, &data, &config);
        assert!(outcome.rounds <= 1);
    }

    #[test]
    fn impossible_floor_keeps_network_intact() {
        let data = noisy_separable(40);
        let mut net = Mlp::random(3, 3, 2, 17);
        Trainer::default().train(&mut net, &data);
        let before = net.clone();
        let config = PruneConfig {
            accuracy_floor: 1.01,
            ..quick_config()
        };
        let outcome = prune(&mut net, &data, &config);
        assert_eq!(outcome.rounds, 0);
        // Rollback restored the exact weights (dead-hidden sweep may
        // still have run but finds nothing to change on an intact net).
        assert_eq!(net, before);
        assert_eq!(outcome.remaining_links, outcome.initial_links);
    }

    #[test]
    fn dead_hidden_nodes_are_swept() {
        let data = noisy_separable(60);
        let mut net = Mlp::random(3, 4, 2, 19);
        Trainer::default().train(&mut net, &data);
        let outcome = prune(&mut net, &data, &quick_config());
        for m in 0..net.n_hidden() {
            if outcome.dead_hidden.contains(&m) {
                assert!(net.hidden_inputs(m).is_empty());
                assert!(net.hidden_outputs(m).is_empty());
            }
        }
    }

    #[test]
    fn final_accuracy_equals_last_round_accuracy() {
        let data = noisy_separable(60);
        let mut net = Mlp::random(3, 4, 2, 11);
        Trainer::default().train(&mut net, &data);
        let outcome = prune(&mut net, &data, &quick_config());
        assert!(outcome.rounds > 0, "fixture must actually prune");
        // The cached value is also exactly what a recomputation gives
        // (dead-hidden sweeps never change the network function).
        assert_eq!(outcome.final_accuracy, net.accuracy(&data));
        assert_eq!(
            outcome.final_accuracy,
            outcome.trace.last().unwrap().accuracy
        );
    }
}
