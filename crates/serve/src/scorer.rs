//! The network engine: encoder + pruned MLP behind the batch [`Predictor`]
//! trait, scored from interval indices.
//!
//! Table-2 coding makes every attribute's input bits a pure function of
//! its interval (a thermometer suffix or one one-hot bit).
//! [`Mlp::map_set_bit_rows`] runs the batch in fixed-size row chunks on
//! the shared `nr-nn` worker pool; per chunk, an [`IntervalCoder`] finds
//! each attribute's interval and writes the rows' set input columns, and
//! the set-bit forward pass scores them, holding one chunk's set bits at a
//! time. The answers are bit-identical to the per-row reference,
//! [`Encoder::encode_row`] followed by [`Mlp::forward`] and argmax (pinned
//! by the workspace serving equivalence suite).

use std::sync::OnceLock;

use nr_encode::{Encoder, IntervalCoder};
use nr_nn::{argmax, Mlp};
use nr_rules::{Predictor, Scored};
use nr_tabular::{ClassId, DatasetView};
use serde::{Deserialize, Serialize};

use crate::ServeError;

/// A fitted network packaged for serving: the input [`Encoder`] plus the
/// (typically pruned) [`Mlp`], scoring whole batches from interval
/// indices (see the module docs).
///
/// The compiled [`IntervalCoder`] is a derived cache, not state: it is
/// excluded from serialization and equality and rebuilt on first use
/// after deserialization (the same write-once `OnceLock` pattern as the
/// compiled rules' decision program). Immutable otherwise — share one
/// instance behind an `Arc` across scoring threads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetworkScorer {
    encoder: Encoder,
    network: Mlp,
    #[serde(skip)]
    coder: OnceLock<IntervalCoder>,
}

/// Wire-field equality: the interval tables are derived.
impl PartialEq for NetworkScorer {
    fn eq(&self, other: &Self) -> bool {
        self.encoder == other.encoder && self.network == other.network
    }
}

impl NetworkScorer {
    /// Packages an encoder and a network and builds the interval tables.
    /// Returns [`ServeError::Invalid`] when they cannot be scored
    /// together: the encoder fails [`Encoder::validate`], or the
    /// network's input width does not match the encoder's bit layout.
    /// Deserialized scorers are checked by [`crate::ServeModel::from_json`]
    /// instead.
    pub fn new(encoder: Encoder, network: Mlp) -> Result<Self, ServeError> {
        let scorer = NetworkScorer {
            encoder,
            network,
            coder: OnceLock::new(),
        };
        scorer.validate().map_err(ServeError::Invalid)?;
        scorer.coder();
        Ok(scorer)
    }

    /// Checks that the encoder is consistent with its schema
    /// ([`Encoder::validate`]), that the network's weights have the
    /// shapes its node counts give ([`Mlp::validate`]), and that its
    /// input width matches the encoder's bit layout.
    pub(crate) fn validate(&self) -> Result<(), String> {
        self.encoder.validate().map_err(|e| e.to_string())?;
        self.network.validate()?;
        if self.encoder.n_inputs() != self.network.n_inputs() {
            return Err(format!(
                "encoder bit layout has {} inputs, the network's input width is {}",
                self.encoder.n_inputs(),
                self.network.n_inputs()
            ));
        }
        Ok(())
    }

    /// The input encoder.
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// The network.
    pub fn network(&self) -> &Mlp {
        &self.network
    }

    /// The interval tables, built on first use.
    fn coder(&self) -> &IntervalCoder {
        self.coder.get_or_init(|| {
            self.encoder
                .interval_coder()
                .expect("scored encoders are validated")
        })
    }

    /// Forward pass over every view row from interval indices, mapping
    /// each row's output activations through `per_row` and appending the
    /// results to `out` in view order.
    fn score_rows<T: Send>(
        &self,
        view: &DatasetView<'_>,
        per_row: impl Fn(&[f64]) -> T + Sync,
        out: &mut Vec<T>,
    ) {
        let coder = self.coder();
        self.network.map_set_bit_rows(
            view.len(),
            |range, indices, offsets| coder.encode_rows(view, range, indices, offsets),
            per_row,
            out,
        );
    }
}

impl Predictor for NetworkScorer {
    fn n_classes(&self) -> usize {
        self.network.n_outputs()
    }

    fn predict_batch_into(&self, view: &DatasetView<'_>, out: &mut Vec<ClassId>) {
        self.score_rows(view, argmax, out);
    }

    /// Score = the winning output node's sigmoid activation (in `(0, 1)`).
    fn predict_scored_batch(&self, view: &DatasetView<'_>) -> Vec<Scored> {
        let mut scored = Vec::with_capacity(view.len());
        self.score_rows(
            view,
            |out| {
                let class = argmax(out);
                Scored {
                    class,
                    score: out[class],
                }
            },
            &mut scored,
        );
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_datagen::{Function, Generator};

    #[test]
    fn batch_matches_per_row_classify() {
        let ds = Generator::new(7).dataset(Function::F1, 64);
        let encoder = Encoder::agrawal();
        let net = Mlp::random(encoder.n_inputs(), 4, 2, 3);
        let scorer = NetworkScorer::new(encoder.clone(), net.clone()).unwrap();
        let preds = scorer.predict_batch(&ds.view());
        let dense: Vec<Vec<f64>> = (0..ds.len())
            .map(|i| encoder.encode_row(&ds.row_values(i)))
            .collect();
        for i in 0..ds.len() {
            assert_eq!(preds[i], net.classify(&dense[i]), "row {i}");
        }
        // Scored predictions agree on the class and report the winning
        // activation, to the bit.
        let scored = scorer.predict_scored_batch(&ds.view());
        for (i, s) in scored.iter().enumerate() {
            assert_eq!(s.class, preds[i]);
            assert!(s.score > 0.0 && s.score < 1.0);
            let (_, out) = net.forward(&dense[i]);
            assert_eq!(s.score.to_bits(), out[s.class].to_bits());
        }
    }

    #[test]
    fn selected_views_score_in_view_order() {
        let ds = Generator::new(9).dataset(Function::F2, 40);
        let encoder = Encoder::agrawal();
        let net = Mlp::random(encoder.n_inputs(), 4, 2, 5);
        let scorer = NetworkScorer::new(encoder, net).unwrap();
        let full = scorer.predict_batch(&ds.view());
        let sel = vec![30usize, 2, 17, 2];
        let picked = scorer.predict_batch(&ds.view_of(sel.clone()));
        for (pos, &r) in sel.iter().enumerate() {
            assert_eq!(picked[pos], full[r]);
        }
        assert!(scorer.predict_batch(&ds.view_of(Vec::new())).is_empty());
    }

    fn invalid_reason(encoder: Encoder, net: Mlp) -> String {
        match NetworkScorer::new(encoder, net) {
            Err(ServeError::Invalid(why)) => why,
            other => panic!("expected ServeError::Invalid, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_parts_are_an_invalid_error() {
        let why = invalid_reason(Encoder::agrawal(), Mlp::random(10, 4, 2, 0));
        assert!(why.contains("input width is 10"), "{why}");
        // An encoder that fails `Encoder::validate` (only reachable by
        // deserialization): car's one-hot coding loses a category.
        let json = serde_json::to_string(&Encoder::agrawal()).unwrap();
        let car = r#"{"OneHot":{"cardinality":20}}"#;
        assert!(json.contains(car));
        let bad = json.replacen(car, r#"{"OneHot":{"cardinality":19}}"#, 1);
        let encoder: Encoder = serde_json::from_str(&bad).unwrap();
        let net = Mlp::random(Encoder::agrawal().n_inputs(), 4, 2, 0);
        let why = invalid_reason(encoder, net);
        assert!(
            why.contains("one-hot cardinality 19 vs 20 categories"),
            "{why}"
        );
    }
}
