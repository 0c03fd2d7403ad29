//! The three-phase pipeline configuration and driver.

use nr_encode::{EncodeError, Encoder};
use nr_nn::{Mlp, Trainer};
use nr_prune::{prune, PruneConfig};
use nr_rulex::{extract, RxConfig, RxError};
use nr_tabular::{Dataset, Schema};

use crate::{Model, PipelineReport};

/// Errors from the end-to-end pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The training set was empty.
    EmptyTrainingSet,
    /// `hidden_nodes` was 0: the network needs at least one hidden node.
    NoHiddenNodes,
    /// `encoder_bins` (the value given) was below 2 while a generic
    /// encoder was to be fitted.
    TooFewEncoderBins(usize),
    /// Input encoding failed.
    Encode(EncodeError),
    /// Rule extraction failed.
    Rx(RxError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::EmptyTrainingSet => write!(f, "training set is empty"),
            PipelineError::NoHiddenNodes => write!(f, "need at least one hidden node"),
            PipelineError::TooFewEncoderBins(bins) => {
                write!(f, "need at least two encoder bins, got {bins}")
            }
            PipelineError::Encode(e) => write!(f, "encoding: {e}"),
            PipelineError::Rx(e) => write!(f, "rule extraction: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<EncodeError> for PipelineError {
    fn from(e: EncodeError) -> Self {
        PipelineError::Encode(e)
    }
}

impl From<RxError> for PipelineError {
    fn from(e: RxError) -> Self {
        PipelineError::Rx(e)
    }
}

/// The NeuroRule pipeline, configured with the builder pattern.
///
/// Defaults follow the paper's experimental setup: 4 hidden nodes, weights
/// initialized uniformly in [−1, 1], BFGS training with the eq.-3 penalty,
/// pruning/extraction accuracy floor 90%, clustering ε = 0.6.
#[derive(Debug, Clone)]
pub struct NeuroRule {
    /// Hidden-layer width of the initial network.
    pub hidden_nodes: usize,
    /// Weight-initialization seed.
    pub seed: u64,
    /// Phase-1 trainer (algorithm + penalty).
    pub trainer: Trainer,
    /// Phase-2 pruning parameters.
    pub prune: PruneConfig,
    /// Phase-3 extraction parameters.
    pub rx: RxConfig,
    /// Encoder to use; `None` = fit a generic equal-width encoder.
    pub encoder: Option<Encoder>,
    /// Bins per numeric attribute for the generic encoder.
    pub encoder_bins: usize,
}

impl Default for NeuroRule {
    fn default() -> Self {
        NeuroRule {
            hidden_nodes: 4,
            seed: 12345,
            trainer: Trainer::default(),
            prune: PruneConfig::default(),
            rx: RxConfig::default(),
            encoder: None,
            encoder_bins: 5,
        }
    }
}

impl NeuroRule {
    /// Sets the hidden-layer width ([`NeuroRule::fit`] rejects 0).
    pub fn with_hidden_nodes(mut self, h: usize) -> Self {
        self.hidden_nodes = h;
        self
    }

    /// Sets the weight-initialization seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the phase-1 trainer.
    pub fn with_trainer(mut self, trainer: Trainer) -> Self {
        self.trainer = trainer;
        self
    }

    /// Replaces the pruning configuration.
    pub fn with_prune(mut self, prune: PruneConfig) -> Self {
        self.prune = prune;
        self
    }

    /// Replaces the extraction configuration.
    pub fn with_rx(mut self, rx: RxConfig) -> Self {
        self.rx = rx;
        self
    }

    /// Uses a specific encoder (e.g. [`Encoder::agrawal`]) instead of
    /// fitting a generic one.
    pub fn with_encoder(mut self, encoder: Encoder) -> Self {
        self.encoder = Some(encoder);
        self
    }

    /// Bins per numeric attribute when fitting a generic encoder
    /// ([`NeuroRule::fit`] rejects fewer than 2).
    pub fn with_encoder_bins(mut self, bins: usize) -> Self {
        self.encoder_bins = bins;
        self
    }

    /// Runs the full pipeline on a training set. The configuration is
    /// validated here, not in the builders, because every field is public:
    /// a configured encoder must pass [`Encoder::validate`] and fit the
    /// training schema (same arity, and per attribute the same kind and
    /// category count), or the fit fails with [`PipelineError::Encode`].
    pub fn fit(&self, train: &Dataset) -> Result<Model, PipelineError> {
        if self.hidden_nodes == 0 {
            return Err(PipelineError::NoHiddenNodes);
        }
        if train.is_empty() {
            return Err(PipelineError::EmptyTrainingSet);
        }
        let encoder = match &self.encoder {
            Some(e) => {
                e.validate()?;
                check_schema(e, train.schema())?;
                e.clone()
            }
            None if self.encoder_bins < 2 => {
                return Err(PipelineError::TooFewEncoderBins(self.encoder_bins))
            }
            None => Encoder::fit(train, self.encoder_bins)?,
        };
        let encoded = encoder.encode_dataset(train);

        // Phase 1: train a fully connected network.
        let mut net = Mlp::random(
            encoder.n_inputs(),
            self.hidden_nodes,
            train.n_classes(),
            self.seed,
        );
        let train_report = self.trainer.train(&mut net, &encoded);

        // Phase 2: prune.
        let prune_outcome = prune(&mut net, &encoded, &self.prune);

        // Phase 3: extract rules. The discretization must preserve the
        // accuracy of *this* network (Figure 4 step 1(d)); when the pruned
        // network itself sits below the configured floor, extraction aims
        // just under the network's own accuracy instead — shrinking ε can
        // always reach that (singleton clusters reproduce the network), so
        // the pipeline stays total.
        let mut rx_config = self.rx.clone();
        rx_config.accuracy_floor = rx_config
            .accuracy_floor
            .min((prune_outcome.final_accuracy - 0.01).max(0.0));
        let rx = extract(&net, &encoder, &encoded, train.class_names(), &rx_config)?;

        // Post-extraction reduction: RX articulates every feasible input
        // region of the discretized network, including regions no training
        // tuple occupies. Drop rules whose removal keeps fidelity to the
        // network on the training set (same spirit as C4.5rules' data-driven
        // rule pruning); the survivors agree with the network at least as
        // often as the full set did. `report.bit_rules` keeps the complete
        // pre-reduction RX output for inspection.
        let net_predictions = net.classify_batch(&encoded);
        let ruleset = rx.ruleset.reduced(train, &net_predictions);

        let train_rule_accuracy = ruleset.accuracy(train);
        let train_network_accuracy = net.accuracy(&encoded);
        Ok(Model {
            encoder,
            network: net,
            ruleset,
            report: PipelineReport {
                train_report,
                prune_outcome,
                rx_trace: rx.trace,
                bit_rules: rx.bit_rules,
                train_rule_accuracy,
                train_network_accuracy,
            },
        })
    }
}

/// Fails unless `schema` has the encoder's arity and, attribute by
/// attribute, its kind and category count (names may differ).
fn check_schema(encoder: &Encoder, schema: &Schema) -> Result<(), EncodeError> {
    let want = encoder.schema();
    let mismatch = |msg: String| Err(EncodeError::SchemaMismatch(msg));
    if want.arity() != schema.arity() {
        return mismatch(format!(
            "the encoder has {} attributes, the training set {}",
            want.arity(),
            schema.arity()
        ));
    }
    let kind = |categories: Option<usize>| match categories {
        None => "numeric".to_string(),
        Some(n) => format!("nominal with {n} categories"),
    };
    for (a, (w, g)) in want
        .attributes()
        .iter()
        .zip(schema.attributes())
        .enumerate()
    {
        if w.cardinality() != g.cardinality() {
            return mismatch(format!(
                "attribute {a} is {} for the encoder, {} in the training set",
                kind(w.cardinality()),
                kind(g.cardinality())
            ));
        }
    }
    Ok(())
}
