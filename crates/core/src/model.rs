//! The fitted model: pruned network + extracted rules + full trace.

use nr_encode::Encoder;
use nr_nn::{Mlp, TrainReport};
use nr_prune::PruneOutcome;
use nr_rules::{Predictor, RuleSet};
use nr_rulex::{BitRule, RxTrace};
use nr_serve::{ServeMode, ServeModel};
use nr_tabular::Dataset;
use serde::{Deserialize, Serialize};

/// Everything the pipeline produced, phase by phase. The experiment drivers
/// read this to regenerate the paper's figures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Phase 1: training report.
    pub train_report: TrainReport,
    /// Phase 2: pruning outcome (link counts, trace, de-selected inputs).
    pub prune_outcome: PruneOutcome,
    /// Phase 3: extraction trace (clusters, activation table, …).
    pub rx_trace: RxTrace,
    /// Phase 3: rules in input-bit space, pre-rewrite and **pre-reduction**
    /// — the complete RX output, which can be larger than the final
    /// [`crate::Model::ruleset`] (that one is additionally pruned against
    /// the training data).
    pub bit_rules: Vec<BitRule>,
    /// Accuracy of the final rules on the training set.
    pub train_rule_accuracy: f64,
    /// Accuracy of the pruned network on the training set.
    pub train_network_accuracy: f64,
}

/// A fitted NeuroRule model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Model {
    /// The input encoder (needed to run the network on new tuples).
    pub encoder: Encoder,
    /// The pruned network.
    pub network: Mlp,
    /// The extracted rules (the paper's deliverable).
    pub ruleset: RuleSet,
    /// Per-phase diagnostics.
    pub report: PipelineReport,
}

impl Model {
    /// Compiles the fitted model into an immutable, `Arc`-shareable
    /// [`ServeModel`]: the rule set compiled to the batch decision-DAG
    /// engine, the pruned network behind the batch scorer, answering in
    /// [`ServeMode::Rules`]. Switch engines with
    /// [`ServeModel::with_mode`] (`Network`, or `Hybrid` for
    /// rules-with-network-fallback); persist with [`ServeModel::save`].
    pub fn compile(&self) -> ServeModel {
        ServeModel::new(
            &self.ruleset,
            self.encoder.clone(),
            self.network.clone(),
            ServeMode::Rules,
        )
    }

    /// Rule-set accuracy on a dataset (batch evaluation through the
    /// [`Predictor`] trait).
    pub fn rules_accuracy(&self, ds: &Dataset) -> f64 {
        self.ruleset.accuracy_view(&ds.view())
    }

    /// Pruned-network accuracy on a dataset.
    pub fn network_accuracy(&self, ds: &Dataset) -> f64 {
        if ds.is_empty() {
            return 0.0;
        }
        let encoded = self.encoder.encode_dataset(ds);
        self.network.accuracy(&encoded)
    }

    /// Fraction of rows where rules and network agree (fidelity of the
    /// extraction).
    ///
    /// Both surfaces run batched: the dataset is encoded once for the
    /// network and the rules predict the whole view through the
    /// [`Predictor`] trait.
    pub fn fidelity(&self, ds: &Dataset) -> f64 {
        if ds.is_empty() {
            return 0.0;
        }
        let encoded = self.encoder.encode_dataset(ds);
        let net_predictions = self.network.classify_batch(&encoded);
        let rule_predictions = self.ruleset.predict_batch(&ds.view());
        let agree = net_predictions
            .iter()
            .zip(&rule_predictions)
            .filter(|(net, rules)| net == rules)
            .count();
        agree as f64 / ds.len() as f64
    }
}
