//! Property-based equivalence for the decision-DAG engine (proptest).
//!
//! The rule-set strategy is adversarial *by construction* for prefix
//! sharing: every rule's antecedent starts with a prefix of one shared
//! condition pool, so generated sets are dense in exactly the shapes the
//! DAG lowering must arbitrate — duplicate rules (equal prefix lengths),
//! subsumed prefixes (a shorter rule shadowing a longer one), statically
//! contradictory predicates (empty intervals on one column), and empty
//! antecedents (a catch-all mid-list making later rules unreachable).
//! Against every generated set, the DAG program must be bit-identical to
//! the interpreted `RuleSet::predict_row` reference, also when the batch
//! spans the engine's shard seams.

use nr_rules::{Condition, Predictor, Rule, RuleSet};
use nr_serve::CompiledRules;
use nr_tabular::{Attribute, Column, Dataset, Schema, Value};
use proptest::prelude::*;

/// The engine's fixed shard size: batches score one 8,192-row shard
/// after another, so a batch longer than two of them crosses two seams.
const SHARD_ROWS: usize = 8 * 1024;

fn schema() -> Schema {
    Schema::new(vec![
        Attribute::numeric("a"),
        Attribute::numeric("b"),
        Attribute::nominal_anon("c", 4),
        Attribute::nominal_anon("d", 2),
    ])
}

fn class_names() -> Vec<String> {
    vec!["x".into(), "y".into(), "z".into()]
}

/// Strategy: one atomic condition. Numeric thresholds are drawn from a
/// small integer grid so dataset values collide with rule boundaries
/// constantly, and interval widths may be zero or negative — statically
/// contradictory predicates the lowering must elide.
fn condition_strategy() -> impl Strategy<Value = Condition> {
    (
        0..6usize,
        0..20i32,
        -3..6i32,
        0..4u32,
        proptest::collection::btree_set(0..4u32, 0..3),
    )
        .prop_map(|(kind, v, w, code, codes)| match kind {
            0 => Condition::num_ge(0, v as f64),
            1 => Condition::num_lt(0, v as f64),
            2 => Condition::num_range(1, v as f64, (v + w) as f64),
            3 => Condition::NumEq {
                attribute: 0,
                value: v as f64,
            },
            4 => Condition::CatEq { attribute: 2, code },
            _ => Condition::CatNotIn {
                attribute: 3,
                codes,
            },
        })
}

/// Strategy: a rule set where every rule's antecedent is a prefix of a
/// shared condition pool plus at most one private tail condition (see
/// the module docs for why that shape is the adversarial one). A prefix
/// length of zero yields an empty antecedent — an unconditional rule.
fn ruleset_strategy() -> impl Strategy<Value = RuleSet> {
    (
        proptest::collection::vec(condition_strategy(), 1..6),
        proptest::collection::vec(
            (
                0usize..6,
                proptest::option::of(condition_strategy()),
                0usize..3,
            ),
            0..8,
        ),
        0usize..3,
    )
        .prop_map(|(pool, specs, default)| {
            let rules = specs
                .into_iter()
                .map(|(prefix, tail, class)| {
                    let mut conds: Vec<Condition> =
                        pool.iter().take(prefix.min(pool.len())).cloned().collect();
                    conds.extend(tail);
                    Rule::new(conds, class)
                })
                .collect();
            RuleSet::new(rules, default, class_names())
        })
}

/// Strategy: a dataset on the same small integer grid as the rule
/// thresholds, so boundary rows (`x == threshold`, where the paper's
/// half-open interval semantics bite) appear in nearly every case.
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    proptest::collection::vec((0..20i32, -5..15i32, 0..4u32, 0..2u32, 0usize..3), 1..150).prop_map(
        |rows| {
            let mut ds = Dataset::new(schema(), class_names());
            for (a, b, c, d, y) in rows {
                ds.push(
                    vec![
                        Value::Num(a as f64),
                        Value::Num(b as f64),
                        Value::Nominal(c),
                        Value::Nominal(d),
                    ],
                    y,
                )
                .unwrap();
            }
            ds
        },
    )
}

proptest! {
    /// DAG == interpreted, on the full view and on a strided gathered
    /// selection, for every generated (rule set, dataset) pair.
    #[test]
    fn dag_matches_interpreted(rs in ruleset_strategy(), ds in dataset_strategy()) {
        let compiled = CompiledRules::compile(&rs);
        let per_row: Vec<_> = (0..ds.len()).map(|i| rs.predict_row(&ds, i)).collect();
        prop_assert_eq!(&compiled.predict_batch(&ds.view()), &per_row, "dag vs interpreted");

        let sel: Vec<usize> = (0..ds.len()).step_by(3).rev().collect();
        let want: Vec<_> = sel.iter().map(|&r| rs.predict_row(&ds, r)).collect();
        prop_assert_eq!(
            &compiled.predict_batch(&ds.view_of(sel)),
            &want,
            "gathered view"
        );
    }

    /// Shard seams: the generated dataset tiled past two shard seams into
    /// a partial tail shard (37 copies of its rows past the second seam),
    /// scored on the full view and on a gathered view of its rows in
    /// scrambled order; classes and explicit-match scores must equal the
    /// interpreted reference row by row.
    #[test]
    fn dag_is_shard_seam_invariant(rs in ruleset_strategy(), ds in dataset_strategy()) {
        let compiled = CompiledRules::compile(&rs);
        let n = 2 * SHARD_ROWS + 37 * ds.len();
        let tiled: Vec<usize> = (0..n).map(|i| i % ds.len()).collect();
        let big = ds.subset(&tiled);
        let per_row: Vec<_> = (0..n).map(|i| rs.predict_row(&big, i)).collect();
        prop_assert_eq!(&compiled.predict_batch(&big.view()), &per_row, "full view");
        for (i, s) in compiled.predict_scored_batch(&big.view()).iter().enumerate() {
            let explicit = rs.first_match_row(&big, i).is_some();
            prop_assert_eq!(s.score, if explicit { 1.0 } else { 0.0 }, "row {} score", i);
        }

        let sel: Vec<usize> = (0..n).map(|i| (i * 7919) % ds.len()).collect();
        let want: Vec<_> = sel.iter().map(|&r| rs.predict_row(&ds, r)).collect();
        prop_assert_eq!(
            &compiled.predict_batch(&ds.view_of(sel)),
            &want,
            "gathered view"
        );
    }
}

/// The deterministic worst case, all shapes at once: duplicate rules,
/// a subsuming shorter prefix *after* the longer rule, a contradictory
/// interval, and an unconditional rule mid-list that makes everything
/// after it unreachable.
#[test]
fn adversarial_shapes_compose() {
    let shared = Condition::num_range(0, 5.0, 15.0);
    let rs = RuleSet::new(
        vec![
            Rule::new(
                vec![
                    shared.clone(),
                    Condition::CatEq {
                        attribute: 2,
                        code: 1,
                    },
                ],
                0,
            ),
            // Exact duplicate of rule 0 with a different class: first
            // match must win, so it never claims anything.
            Rule::new(
                vec![
                    shared.clone(),
                    Condition::CatEq {
                        attribute: 2,
                        code: 1,
                    },
                ],
                2,
            ),
            // Shorter prefix after the longer rule: subsumes what's left.
            Rule::new(vec![shared.clone()], 1),
            // Statically false (empty interval on column 1): elided.
            Rule::new(vec![Condition::num_range(1, 3.0, 3.0)], 2),
            // Unconditional: claims every remaining row...
            Rule::new(vec![], 2),
            // ...so this rule is unreachable.
            Rule::new(vec![Condition::num_ge(0, 0.0)], 0),
        ],
        1,
        class_names(),
    );
    let mut ds = Dataset::new(schema(), class_names());
    for i in 0..200usize {
        ds.push(
            vec![
                Value::Num((i % 20) as f64),
                Value::Num(((i % 11) as f64) - 2.0),
                Value::Nominal((i % 4) as u32),
                Value::Nominal((i % 2) as u32),
            ],
            i % 3,
        )
        .unwrap();
    }
    let compiled = CompiledRules::compile(&rs);
    let per_row: Vec<_> = (0..ds.len()).map(|i| rs.predict_row(&ds, i)).collect();
    assert_eq!(compiled.predict_batch(&ds.view()), per_row);
    // The same shapes across two shard seams and a partial tail shard.
    let tiled: Vec<usize> = (0..2 * SHARD_ROWS + 100).map(|i| i % ds.len()).collect();
    let want: Vec<_> = tiled.iter().map(|&r| per_row[r]).collect();
    assert_eq!(compiled.predict_batch(&ds.subset(&tiled).view()), want);
}

/// Column `a`'s thresholds for a width-`k` rule set: `k + 1` points
/// 0.75 apart, with 0.0 among them so −0.0 rows sit on a bound.
fn wide_bounds(k: usize) -> Vec<f64> {
    (0..=k)
        .map(|j| (j as f64 - (k / 2) as f64) * 0.75)
        .collect()
}

/// `k` distinct interval predicates on column `a`, one rule each:
/// half-open cells, overlapping double cells, and `>=`/`<` tests that
/// also need a category of `c` (so early open-ended rules leave rows for
/// later ones).
fn wide_ruleset(k: usize) -> RuleSet {
    let b = wide_bounds(k);
    let rules = (0..k)
        .map(|i| {
            let category = Condition::CatEq {
                attribute: 2,
                code: (i % 4) as u32,
            };
            let conds = match i % 4 {
                0 => vec![Condition::num_range(0, b[i], b[i + 1])],
                1 => vec![Condition::num_range(0, b[i - 1], b[i + 1])],
                2 => vec![Condition::num_ge(0, b[i]), category],
                _ => vec![Condition::num_lt(0, b[i]), category],
            };
            Rule::new(conds, i % 3)
        })
        .collect();
    RuleSet::new(rules, 1, class_names())
}

/// Every bound of `a`, a point between each pair, points past both ends,
/// ±0.0 and ±1e300 (and NaN and ±∞ in release builds, where the dataset
/// holds non-finite values without its debug assertion), each under
/// every category of `c`.
fn wide_dataset(k: usize) -> Dataset {
    let b = wide_bounds(k);
    let hostile: &[f64] = if cfg!(debug_assertions) {
        &[]
    } else {
        &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
    };
    let mut xs: Vec<f64> = b.iter().flat_map(|&x| [x, x - 0.25]).collect();
    xs.extend([b[k] + 1.0, -0.0, 0.0, 1e300, -1e300]);
    xs.extend(hostile);
    let rows = 4 * xs.len();
    let a: Vec<f64> = (0..rows).map(|r| xs[r / 4]).collect();
    let columns = vec![
        Column::num(a),
        Column::num(vec![0.0; rows]),
        Column::nominal((0..rows).map(|r| (r % 4) as u32).collect()),
        Column::nominal(vec![0; rows]),
    ];
    Dataset::from_shared_parts(schema(), class_names(), columns, vec![0; rows].into())
        .expect("columns fit the schema")
}

/// Wide numeric columns: 8, 64 and 129 interval predicates on one
/// column (129 of them use 130 distinct bounds), scored on every bound
/// and on non-finite and signed-zero values, on the full view, across
/// two shard seams and through a scrambled gathered view; classes and
/// explicit-match scores must equal the interpreted reference.
#[test]
fn wide_numeric_columns_match_interpreted() {
    for k in [8usize, 64, 129] {
        let rs = wide_ruleset(k);
        let ds = wide_dataset(k);
        let compiled = CompiledRules::compile(&rs);
        // The `>=`/`<` rules (i % 4 = 2, 3) add two category tests.
        assert_eq!(compiled.n_predicates(), k + 2, "k={k}");
        let per_row: Vec<_> = (0..ds.len()).map(|i| rs.predict_row(&ds, i)).collect();
        assert_eq!(compiled.predict_batch(&ds.view()), per_row, "k={k}");

        let n = 2 * SHARD_ROWS + 37;
        let tiled: Vec<usize> = (0..n).map(|i| i % ds.len()).collect();
        let big = ds.subset(&tiled);
        let want: Vec<_> = tiled.iter().map(|&r| per_row[r]).collect();
        assert_eq!(compiled.predict_batch(&big.view()), want, "k={k}, tiled");
        for (i, s) in compiled
            .predict_scored_batch(&big.view())
            .iter()
            .enumerate()
        {
            let explicit = rs.first_match_row(&big, i).is_some();
            assert_eq!(
                s.score,
                if explicit { 1.0 } else { 0.0 },
                "k={k}, row {i} score"
            );
        }

        let sel: Vec<usize> = (0..n).map(|i| (i * 7919) % ds.len()).collect();
        let want: Vec<_> = sel.iter().map(|&r| per_row[r]).collect();
        assert_eq!(
            compiled.predict_batch(&ds.view_of(sel)),
            want,
            "k={k}, gathered"
        );
    }
}
