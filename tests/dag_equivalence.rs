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
//! the interpreted `RuleSet::predict_row` reference and invariant across
//! worker-thread counts.

use nr_rules::{Condition, Predictor, Rule, RuleSet};
use nr_serve::CompiledRules;
use nr_tabular::{Attribute, Dataset, Schema, Value};
use proptest::prelude::*;

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

    /// Thread-count invariance: 64-row shards force multi-shard
    /// execution on almost every case, and the stitched answer must be
    /// bit-identical at every worker count (0 = auto).
    #[test]
    fn dag_is_thread_invariant(rs in ruleset_strategy(), ds in dataset_strategy()) {
        let compiled = CompiledRules::compile(&rs);
        let reference = compiled.predict_batch_with(&ds.view(), 1, 64);
        for threads in [0usize, 2, 4] {
            prop_assert_eq!(
                &compiled.predict_batch_with(&ds.view(), threads, 64),
                &reference,
                "threads={}", threads
            );
        }
        // And shard size must not matter either.
        prop_assert_eq!(
            &compiled.predict_batch_with(&ds.view(), 4, 128),
            &reference,
            "shard_rows=128"
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
    for threads in [1usize, 2, 4] {
        assert_eq!(
            compiled.predict_batch_with(&ds.view(), threads, 64),
            per_row,
            "threads={threads}"
        );
    }
}
