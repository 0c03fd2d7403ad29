//! Ordered rule sets with a default class.

use nr_tabular::{ClassId, Dataset, DatasetView, Schema};
use serde::{Deserialize, Serialize};

use crate::{Predictor, Rule, Scored};

/// An ordered list of rules plus a default class.
///
/// Prediction is first-match: the earliest rule whose antecedent holds
/// determines the class; tuples matched by no rule get the default class
/// (the paper's "Default Rule. Group B" in Figure 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleSet {
    /// The rules in priority order.
    pub rules: Vec<Rule>,
    /// Class assigned when no rule matches.
    pub default_class: ClassId,
    /// Class display names.
    pub class_names: Vec<String>,
}

impl RuleSet {
    /// Creates a rule set.
    pub fn new(rules: Vec<Rule>, default_class: ClassId, class_names: Vec<String>) -> Self {
        RuleSet {
            rules,
            default_class,
            class_names,
        }
    }

    /// Number of rules (excluding the default).
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the set holds no explicit rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Total number of atomic conditions across all rules — the compactness
    /// measure behind the paper's Figure 5 vs Figure 6 comparison.
    pub fn total_conditions(&self) -> usize {
        self.rules.iter().map(Rule::n_conditions).sum()
    }

    /// Predicts the class of dataset row `i` (first matching rule, else
    /// default) — columnar evaluation, no row materialization.
    ///
    /// This is the interpreted reference path; the compiled engine in
    /// `nr-serve` is pinned bit-identical to it. Bulk scoring should go
    /// through [`Predictor::predict_batch`].
    pub fn predict_row(&self, ds: &Dataset, i: usize) -> ClassId {
        self.rules
            .iter()
            .find(|r| r.matches_at(ds, i))
            .map(|r| r.class)
            .unwrap_or(self.default_class)
    }

    /// Index of the first rule matching dataset row `i`, `None` if only
    /// the default applies.
    pub fn first_match_row(&self, ds: &Dataset, i: usize) -> Option<usize> {
        self.rules.iter().position(|r| r.matches_at(ds, i))
    }

    /// Fraction of `ds` rows classified correctly (batch evaluation via
    /// [`Predictor::accuracy_view`]).
    pub fn accuracy(&self, ds: &Dataset) -> f64 {
        self.accuracy_view(&ds.view())
    }

    /// Rules predicting `class`, in order.
    pub fn rules_for_class(&self, class: ClassId) -> Vec<&Rule> {
        self.rules.iter().filter(|r| r.class == class).collect()
    }

    /// Removes duplicate rules, contradictory rules, and rules subsumed by an
    /// earlier rule of the same class.
    pub fn simplified(&self) -> RuleSet {
        let mut kept: Vec<Rule> = Vec::with_capacity(self.rules.len());
        for rule in &self.rules {
            let Some(norm) = rule.normalized() else {
                continue;
            };
            if kept.iter().any(|k| k == &norm || k.subsumes(&norm)) {
                continue;
            }
            kept.push(norm);
        }
        // A later rule may subsume an earlier one of the same class too;
        // sweep backwards so the most general form survives.
        let mut result: Vec<Rule> = Vec::with_capacity(kept.len());
        for (i, rule) in kept.iter().enumerate() {
            let subsumed_later = kept[i + 1..]
                .iter()
                .any(|later| later.subsumes(rule) && later != rule);
            if !subsumed_later {
                result.push(rule.clone());
            }
        }
        RuleSet::new(result, self.default_class, self.class_names.clone())
    }

    /// Data-driven reduction: greedily drops rules whose removal does not
    /// lower agreement with `target` over the rows of `ds`.
    ///
    /// RX generates a rule per feasible input region, including regions no
    /// training tuple occupies; those rules are dead weight (C4.5rules
    /// prunes its rule sets against the training data for the same reason).
    /// Passing the *network's* predictions as `target` makes the reduction
    /// fidelity-preserving: the surviving rules agree with the network on
    /// the training rows at least as often as the full set did (removing a
    /// rule that itself disagreed with the network can push agreement
    /// *above* the starting level).
    pub fn reduced(&self, ds: &Dataset, target: &[ClassId]) -> RuleSet {
        assert_eq!(ds.len(), target.len(), "one target class per row");
        let (n, k) = (ds.len(), self.rules.len());
        // Antecedent evaluation is the dominant cost of the greedy loop, so
        // match every (rule, row) pair exactly once up front; the loop then
        // works on the cached bitmap (`matches[r * n + i]`).
        let mut matches = vec![false; k * n];
        for (r, rule) in self.rules.iter().enumerate() {
            let row_matches = &mut matches[r * n..(r + 1) * n];
            for (i, slot) in row_matches.iter_mut().enumerate() {
                *slot = rule.matches_at(ds, i);
            }
        }
        let mut active = vec![true; k];
        let agreement = |active: &[bool]| -> usize {
            (0..n)
                .filter(|&i| {
                    let predicted = (0..k)
                        .find(|&r| active[r] && matches[r * n + i])
                        .map(|r| self.rules[r].class)
                        .unwrap_or(self.default_class);
                    predicted == target[i]
                })
                .count()
        };
        let baseline = agreement(&active);
        // Backwards, so the most specific rules (sorted last by extraction)
        // are offered up first.
        for r in (0..k).rev() {
            active[r] = false;
            if agreement(&active) < baseline {
                active[r] = true;
            }
        }
        let kept: Vec<Rule> = self
            .rules
            .iter()
            .zip(&active)
            .filter(|(_, &keep)| keep)
            .map(|(rule, _)| rule.clone())
            .collect();
        RuleSet::new(kept, self.default_class, self.class_names.clone())
    }

    /// Renders the whole rule set paper-style (Figure 5 layout).
    pub fn display(&self, schema: &Schema) -> String {
        let mut out = String::new();
        for (i, rule) in self.rules.iter().enumerate() {
            out.push_str(&format!(
                "Rule {}. {}.\n",
                i + 1,
                rule.display(schema, &self.class_names)
            ));
        }
        out.push_str(&format!(
            "Default Rule. {}.\n",
            self.class_names[self.default_class]
        ));
        out
    }
}

/// The interpreted batch path: first-match evaluation row by row over the
/// columnar storage. `CompiledRules` in `nr-serve` is the compiled
/// equivalent, pinned bit-identical to this implementation.
impl Predictor for RuleSet {
    fn n_classes(&self) -> usize {
        self.class_names.len()
    }

    fn predict_batch_into(&self, view: &DatasetView<'_>, out: &mut Vec<ClassId>) {
        let ds = view.dataset();
        out.extend(view.iter_ids().map(|r| self.predict_row(ds, r)));
    }

    /// Score `1.0` when an explicit rule matched, `0.0` for default-class
    /// fallthrough — the same convention as the compiled engine.
    fn predict_scored_batch(&self, view: &DatasetView<'_>) -> Vec<Scored> {
        let ds = view.dataset();
        view.iter_ids()
            .map(|r| match self.first_match_row(ds, r) {
                Some(idx) => Scored {
                    class: self.rules[idx].class,
                    score: 1.0,
                },
                None => Scored {
                    class: self.default_class,
                    score: 0.0,
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Condition;
    use nr_tabular::{Attribute, Schema, Value};

    fn schema() -> Schema {
        Schema::new(vec![Attribute::numeric("x")])
    }

    fn ds(points: &[(f64, usize)]) -> Dataset {
        let mut d = Dataset::new(schema(), vec!["A".into(), "B".into()]);
        for &(x, c) in points {
            d.push(vec![Value::Num(x)], c).unwrap();
        }
        d
    }

    fn two_rules() -> RuleSet {
        RuleSet::new(
            vec![
                Rule::new(vec![Condition::num_lt(0, 10.0)], 0),
                Rule::new(vec![Condition::num_lt(0, 20.0)], 1),
            ],
            0,
            vec!["A".into(), "B".into()],
        )
    }

    #[test]
    fn first_match_semantics() {
        let rs = two_rules();
        let data = ds(&[(5.0, 0), (15.0, 1), (25.0, 0)]);
        assert_eq!(rs.predict_row(&data, 0), 0); // both match, first wins
        assert_eq!(rs.predict_row(&data, 1), 1);
        assert_eq!(rs.predict_row(&data, 2), 0); // default
        assert_eq!(rs.first_match_row(&data, 0), Some(0));
        assert_eq!(rs.first_match_row(&data, 1), Some(1));
        assert_eq!(rs.first_match_row(&data, 2), None);
    }

    #[test]
    fn batch_prediction_matches_per_row() {
        let rs = two_rules();
        let data = ds(&[(5.0, 0), (15.0, 1), (25.0, 0), (15.0, 0)]);
        let batch = rs.predict_batch(&data.view());
        let per_row: Vec<_> = (0..data.len()).map(|i| rs.predict_row(&data, i)).collect();
        assert_eq!(batch, per_row);
        // Selected views predict in view order.
        assert_eq!(rs.predict_batch(&data.view_of(vec![2, 0])), vec![0, 0]);
        // Scored: explicit matches score 1.0, default fallthrough 0.0.
        let scored = rs.predict_scored_batch(&data.view());
        assert_eq!(scored[0].score, 1.0);
        assert_eq!(scored[2].score, 0.0);
        assert_eq!(scored[2].class, 0);
    }

    #[test]
    fn accuracy_counts() {
        let rs = two_rules();
        let data = ds(&[(5.0, 0), (15.0, 1), (25.0, 0), (15.0, 0)]);
        assert!((rs.accuracy(&data) - 0.75).abs() < 1e-12);
        assert_eq!(rs.accuracy(&ds(&[])), 0.0);
    }

    #[test]
    fn simplify_drops_duplicates_and_subsumed() {
        let dup = Rule::new(vec![Condition::num_lt(0, 10.0)], 0);
        let narrow = Rule::new(vec![Condition::num_range(0, 2.0, 8.0)], 0);
        let rs = RuleSet::new(
            vec![dup.clone(), dup.clone(), narrow],
            1,
            vec!["A".into(), "B".into()],
        );
        let s = rs.simplified();
        assert_eq!(s.len(), 1);
        assert_eq!(s.rules[0], dup);
    }

    #[test]
    fn simplify_drops_contradictions() {
        let bad = Rule::new(
            vec![Condition::num_ge(0, 60.0), Condition::num_lt(0, 40.0)],
            0,
        );
        let good = Rule::new(vec![Condition::num_lt(0, 10.0)], 0);
        let rs = RuleSet::new(vec![bad, good.clone()], 1, vec!["A".into(), "B".into()]);
        let s = rs.simplified();
        assert_eq!(s.rules, vec![good]);
    }

    #[test]
    fn total_conditions_sum() {
        let rs = two_rules();
        assert_eq!(rs.total_conditions(), 2);
    }

    #[test]
    fn display_has_default_rule() {
        let rs = two_rules();
        let text = rs.display(&schema());
        assert!(text.contains("Rule 1."));
        assert!(text.contains("Default Rule. A."));
    }

    #[test]
    fn rules_for_class_filters() {
        let rs = two_rules();
        assert_eq!(rs.rules_for_class(0).len(), 1);
        assert_eq!(rs.rules_for_class(1).len(), 1);
    }
}
