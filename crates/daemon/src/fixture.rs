//! Deterministic serving fixtures for `nr-daemon serve`'s demo model, the
//! binary's load harness, and tests: a pair of swap-compatible models
//! over the Agrawal schema plus a stream of CSV rows to score.
//!
//! The rule set is handcrafted rather than extracted — a lattice of
//! salary × age boxes wide enough (dozens of shared predicates) that a
//! batch pays realistic predicate-table setup costs, which is exactly
//! what the batch-former amortizes. Model B answers `1 − A(x)` for every
//! row (same predicates, every class flipped, default flipped), so the
//! hot-swap harness can tell *from the answer alone* which model version
//! scored a row — the mixed-version detector.

use nr_datagen::{agrawal_schema, AttrId, Function, Generator};
use nr_encode::Encoder;
use nr_nn::Mlp;
use nr_rules::{Condition, Predictor, Rule, RuleSet};
use nr_serve::{ServeMode, ServeModel};
use nr_tabular::{AttrKind, ClassId, Dataset, Value};

/// A swap-compatible model pair plus traffic to drive at it.
#[derive(Debug, Clone)]
pub struct ServingFixture {
    /// The initially deployed model.
    pub model_a: ServeModel,
    /// The hot-swap candidate: same schema, every answer flipped —
    /// `B(x) = 1 − A(x)`.
    pub model_b: ServeModel,
    /// CSV rows (schema order, no class column) for predict bodies.
    pub rows: Vec<String>,
    /// `model_a`'s class for each row of `rows`; `model_b`'s is `1 −`
    /// this.
    pub expected_a: Vec<ClassId>,
}

/// The fixture rule set: a salary × age × loan × hyears lattice, 12 288
/// rules over 82 deduplicated predicates, alternating classes. The bins
/// partition their ranges, so each row matches at most one rule; loan
/// bins stop at 400 000 (the Agrawal range runs to 500 000), so ~20% of
/// rows fall through the *whole* table to the default class — the
/// expensive serving path, paid per batch.
///
/// Deliberately sized as a large-model stress fixture: the per-batch
/// rule-table scan is the fixed cost the batch-former amortizes, and it
/// must decisively exceed the per-request socket floor (a handful of
/// microseconds per HTTP round trip) for the coalescing comparison to
/// measure the serving layer rather than the kernel's scheduler. A
/// paper-sized rule set serves fine through the same daemon — its fixed
/// cost is just too small to need coalescing.
fn lattice_ruleset() -> RuleSet {
    let mut rules = Vec::new();
    for k in 0..64usize {
        let salary_lo = 20_000.0 + 2_031.25 * k as f64;
        for j in 0..8usize {
            let age_lo = 20.0 + 7.5 * j as f64;
            for l in 0..4usize {
                for h in 0..6usize {
                    rules.push(Rule::new(
                        vec![
                            Condition::num_range(
                                AttrId::Salary.index(),
                                salary_lo,
                                salary_lo + 2_031.25,
                            ),
                            Condition::num_range(AttrId::Age.index(), age_lo, age_lo + 7.5),
                            Condition::num_range(
                                AttrId::Loan.index(),
                                100_000.0 * l as f64,
                                100_000.0 * (l + 1) as f64,
                            ),
                            Condition::num_range(
                                AttrId::Hyears.index(),
                                1.0 + 5.0 * h as f64,
                                1.0 + 5.0 * (h + 1) as f64,
                            ),
                        ],
                        (k + j + l + h) % 2,
                    ));
                }
            }
        }
    }
    RuleSet::new(rules, 1, vec!["Group A".into(), "Group B".into()])
}

/// `ruleset` with every rule class and the default flipped (two-class
/// sets only): the flipped model answers `1 − original(x)` for all x.
fn flipped(ruleset: &RuleSet) -> RuleSet {
    assert_eq!(
        ruleset.class_names.len(),
        2,
        "flip needs exactly two classes"
    );
    RuleSet::new(
        ruleset
            .rules
            .iter()
            .map(|r| Rule::new(r.conditions.clone(), 1 - r.class))
            .collect(),
        1 - ruleset.default_class,
        ruleset.class_names.clone(),
    )
}

/// Renders dataset row `i` as a serving CSV line: schema order, nominal
/// values as category names, no class column — the body format the
/// `predict` endpoints parse with [`nr_tabular::parse_row`].
fn row_csv(ds: &Dataset, i: usize) -> String {
    let cells: Vec<String> = ds
        .schema()
        .attributes()
        .iter()
        .enumerate()
        .map(|(a, attr)| match (&attr.kind, ds.value(i, a)) {
            (AttrKind::Nominal { categories }, Value::Nominal(code)) => {
                categories[code as usize].clone()
            }
            (_, v) => v.to_string(),
        })
        .collect();
    cells.join(",")
}

/// Builds the fixture with `n_rows` traffic rows. Fully deterministic:
/// fixed seeds, handcrafted rules, `ServeMode::Rules` (so the flip
/// relation holds exactly).
pub fn serving_fixture(n_rows: usize) -> ServingFixture {
    let ruleset_a = lattice_ruleset();
    let ruleset_b = flipped(&ruleset_a);
    let encoder = Encoder::agrawal();
    let net = Mlp::random(encoder.n_inputs(), 8, 2, 7);
    let model_a = ServeModel::new(&ruleset_a, encoder.clone(), net.clone(), ServeMode::Rules);
    let model_b = ServeModel::new(&ruleset_b, encoder, net, ServeMode::Rules);

    let ds = Generator::new(23).dataset(Function::F2, n_rows);
    assert_eq!(*ds.schema(), agrawal_schema());
    let rows = (0..ds.len()).map(|i| row_csv(&ds, i)).collect();
    let expected_a = model_a.predict_batch(&ds.view());
    ServingFixture {
        model_a,
        model_b,
        rows,
        expected_a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_tabular::parse_row;

    #[test]
    fn fixture_is_deterministic_and_self_consistent() {
        let a = serving_fixture(32);
        let b = serving_fixture(32);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.expected_a, b.expected_a);
        assert_eq!(a.model_a, b.model_a);
        assert_eq!(a.rows.len(), 32);
        // Both classes occur, so flips are observable.
        assert!(a.expected_a.contains(&0));
        assert!(a.expected_a.contains(&1));
    }

    /// CSV rows parsed back into a dataset over the fixture's schema.
    fn parsed_rows(fx: &ServingFixture, rows: &[String]) -> Dataset {
        let schema = fx.model_a.network().encoder().schema().clone();
        let mut ds = Dataset::new(schema.clone(), vec!["Group A".into(), "Group B".into()]);
        for line in rows {
            ds.push_unlabeled(parse_row(&schema, line).unwrap())
                .unwrap();
        }
        ds
    }

    #[test]
    fn rows_parse_back_and_models_flip() {
        let fx = serving_fixture(64);
        let ds = parsed_rows(&fx, &fx.rows);
        let a = fx.model_a.predict_batch(&ds.view());
        let b = fx.model_b.predict_batch(&ds.view());
        assert_eq!(a, fx.expected_a, "CSV round-trip must preserve answers");
        for i in 0..a.len() {
            assert_eq!(b[i], 1 - a[i], "row {i}: B must answer 1 - A");
        }
    }

    /// The expected answers come from the compiled engine; check them
    /// against the interpreted reference over the whole lattice, so the
    /// daemon's harnesses do not grade the engine against itself.
    #[test]
    fn expected_answers_equal_the_interpreted_rule_set() {
        let fx = serving_fixture(512);
        let ruleset = fx.model_a.ruleset();
        assert_eq!(ruleset.rules.len(), 12_288);
        let ds = parsed_rows(&fx, &fx.rows);
        let mut fell_through = 0;
        for i in 0..ds.len() {
            assert_eq!(fx.expected_a[i], ruleset.predict_row(&ds, i), "row {i}");
            fell_through += usize::from(ruleset.first_match_row(&ds, i).is_none());
        }
        // Both the matched and the default path are exercised.
        assert!(fell_through > 0 && fell_through < ds.len());

        // Salary is continuous, so traffic never lands on its 65 interval
        // bounds; put it on each of them so the salary column's compares
        // decide rules at their `bound <= x` edges.
        let salary = AttrId::Salary.index();
        let on_bounds: Vec<String> = fx
            .rows
            .iter()
            .enumerate()
            .map(|(i, line)| {
                let mut cells: Vec<String> = line.split(',').map(String::from).collect();
                cells[salary] = (20_000.0 + 2_031.25 * (i % 65) as f64).to_string();
                cells.join(",")
            })
            .collect();
        let ds = parsed_rows(&fx, &on_bounds);
        let compiled = fx.model_a.predict_batch(&ds.view());
        for i in 0..ds.len() {
            assert_eq!(compiled[i], ruleset.predict_row(&ds, i), "on-bound row {i}");
        }
    }

    #[test]
    fn swap_pair_shares_schema_and_serializes() {
        let fx = serving_fixture(8);
        assert_eq!(
            fx.model_a.network().encoder().schema(),
            fx.model_b.network().encoder().schema()
        );
        // Both sides of the swap pair must survive the wire format.
        let json = fx.model_b.to_json().expect("fixture models serialize");
        let back = ServeModel::from_json(&json).unwrap();
        assert_eq!(back, fx.model_b);
    }
}
