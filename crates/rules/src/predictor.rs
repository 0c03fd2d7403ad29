//! The batch-first prediction surface shared by every classifier.
//!
//! The paper's §1 claim is that extracted rules are *cheap to apply to
//! large databases* — so the primary prediction API takes a whole
//! [`DatasetView`] and returns one class per row, not a tuple at a time.
//! Everything that classifies implements [`Predictor`]: the interpreted
//! [`crate::RuleSet`], the C4.5 tree, and the compiled serving engines in
//! `nr-serve`.
//!
//! `Predictor: Send + Sync` is part of the contract: a predictor holds no
//! interior mutability, so one instance behind an `Arc` can serve
//! concurrent scoring threads with no locking.

use nr_tabular::{ClassId, Dataset, DatasetView};

/// One scored prediction: the class plus an engine-specific confidence.
///
/// What the score means depends on the engine — rule engines report `1.0`
/// when an explicit rule matched and `0.0` when the row fell through to
/// the default class; the network scorer reports the winning output
/// node's sigmoid activation. It is comparable *within* one engine, not
/// across engines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored {
    /// The predicted class.
    pub class: ClassId,
    /// Engine-specific confidence in `[0, 1]`.
    pub score: f64,
}

/// A batch classifier over tabular data.
///
/// The required method is [`Predictor::predict_batch_into`]; everything
/// else (allocation, scoring, accuracy) has default implementations in
/// terms of it. Implementations must be pure functions of `&self` — no
/// interior mutability — so a shared reference can score from many
/// threads at once.
pub trait Predictor: Send + Sync {
    /// Number of classes this predictor can emit (predictions are
    /// `0..n_classes`).
    fn n_classes(&self) -> usize;

    /// Predicts the class of every view row, appending to `out` in view
    /// order. Labels carried by the view are ignored — unlabeled scoring
    /// data can be ingested with [`Dataset::push_unlabeled`].
    fn predict_batch_into(&self, view: &DatasetView<'_>, out: &mut Vec<ClassId>);

    /// Predicts the class of every view row, allocating.
    fn predict_batch(&self, view: &DatasetView<'_>) -> Vec<ClassId> {
        let mut out = Vec::with_capacity(view.len());
        self.predict_batch_into(view, &mut out);
        out
    }

    /// Scored predictions for every view row (see [`Scored`] for the
    /// score semantics). The default gives every prediction score `1.0`.
    fn predict_scored_batch(&self, view: &DatasetView<'_>) -> Vec<Scored> {
        self.predict_batch(view)
            .into_iter()
            .map(|class| Scored { class, score: 1.0 })
            .collect()
    }

    /// Fraction of view rows whose predicted class equals the view label.
    /// Empty views score `0.0`.
    fn accuracy_view(&self, view: &DatasetView<'_>) -> f64 {
        if view.is_empty() {
            return 0.0;
        }
        let preds = self.predict_batch(view);
        let correct = preds
            .iter()
            .zip(view.labels())
            .filter(|&(&p, l)| p == l)
            .count();
        correct as f64 / view.len() as f64
    }

    /// [`Predictor::accuracy_view`] over every row of a dataset.
    fn accuracy_on(&self, ds: &Dataset) -> f64 {
        self.accuracy_view(&ds.view())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_tabular::{Attribute, Schema, Value};

    /// A predictor that thresholds the single numeric attribute at 10.
    struct Threshold;

    impl Predictor for Threshold {
        fn n_classes(&self) -> usize {
            2
        }

        fn predict_batch_into(&self, view: &DatasetView<'_>, out: &mut Vec<ClassId>) {
            let col = view.dataset().num_column(0);
            out.extend(view.iter_ids().map(|r| usize::from(col[r] >= 10.0)));
        }
    }

    fn ds() -> Dataset {
        let schema = Schema::new(vec![Attribute::numeric("x")]);
        let mut d = Dataset::new(schema, vec!["A".into(), "B".into()]);
        for (x, c) in [(5.0, 0), (15.0, 1), (25.0, 0)] {
            d.push(vec![Value::Num(x)], c).unwrap();
        }
        d
    }

    #[test]
    fn defaults_route_through_predict_batch_into() {
        let d = ds();
        let p = Threshold;
        assert_eq!(p.predict_batch(&d.view()), vec![0, 1, 1]);
        let scored = p.predict_scored_batch(&d.view());
        assert_eq!(
            scored[1],
            Scored {
                class: 1,
                score: 1.0
            }
        );
        assert!((p.accuracy_on(&d) - 2.0 / 3.0).abs() < 1e-12);
        // A selected view predicts in view order.
        assert_eq!(p.predict_batch(&d.view_of(vec![2, 0])), vec![1, 0]);
        assert_eq!(p.accuracy_view(&d.view_of(Vec::new())), 0.0);
    }

    #[test]
    fn predictors_are_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Threshold>();
    }
}
