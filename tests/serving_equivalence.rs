//! The compiled-serving equivalence suite: `nr_serve::CompiledRules` is
//! pinned **bit-identical** to the interpreted `RuleSet::predict_row`
//! reference on every fixture — pipeline-extracted rule sets (binary and
//! m ≥ 3) and randomized rule sets exercising every condition shape —
//! and the hybrid engine equals its per-row composition.

use neurorule::NeuroRule;
use nr_datagen::{Function, Generator};
use nr_encode::Encoder;
use nr_nn::{Trainer, TrainingAlgorithm};
use nr_opt::Bfgs;
use nr_prune::PruneConfig;
use nr_rules::{Condition, Predictor, Rule, RuleSet};
use nr_serve::{CompiledRules, ServeMode};
use nr_tabular::{Attribute, Dataset, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Paper-shaped pipeline with the cheaper retraining budget the other
/// suites use.
fn pipeline(seed: u64) -> NeuroRule {
    let prune = PruneConfig {
        retrain: Trainer::new(TrainingAlgorithm::Bfgs(
            Bfgs::default().with_max_iters(60).with_grad_tol(1e-3),
        )),
        ..PruneConfig::default()
    };
    NeuroRule::default()
        .with_encoder(Encoder::agrawal())
        .with_seed(seed)
        .with_prune(prune)
}

/// Asserts compiled == interpreted on the full view, a reversed/strided
/// selection, and an empty selection of `ds` — and that the answer is
/// invariant across 1/2/4 worker threads and shard grids (the DAG
/// engine's determinism contract).
fn assert_equivalent(rs: &RuleSet, ds: &Dataset) {
    let compiled = CompiledRules::compile(rs);
    let per_row: Vec<_> = (0..ds.len()).map(|i| rs.predict_row(ds, i)).collect();
    assert_eq!(compiled.predict_batch(&ds.view()), per_row, "full view");
    // 128-row shards force multi-shard execution on every non-trivial
    // fixture; the stitched answer must be bit-identical at any width.
    for threads in [1usize, 2, 4] {
        assert_eq!(
            compiled.predict_batch_with(&ds.view(), threads, 128),
            per_row,
            "sharded, {threads} worker thread(s)"
        );
    }

    let sel: Vec<usize> = (0..ds.len()).rev().step_by(3).collect();
    let want: Vec<_> = sel.iter().map(|&r| rs.predict_row(ds, r)).collect();
    assert_eq!(
        compiled.predict_batch(&ds.view_of(sel)),
        want,
        "selected view"
    );

    assert!(compiled.predict_batch(&ds.view_of(Vec::new())).is_empty());

    // Scored output agrees with the interpreted first-match report.
    let scored = compiled.predict_scored_batch(&ds.view());
    for (i, s) in scored.iter().enumerate() {
        assert_eq!(s.class, per_row[i]);
        let explicit = rs.first_match_row(ds, i).is_some();
        assert_eq!(s.score, if explicit { 1.0 } else { 0.0 }, "row {i} score");
    }
}

#[test]
fn binary_pipeline_rules_compile_bit_identically() {
    // m = 2: rules the real pipeline extracts for F1 and F2.
    let gen = Generator::new(42).with_perturbation(0.05);
    for (function, n) in [(Function::F1, 500), (Function::F2, 600)] {
        let (train, test) = gen.train_test(function, n, n);
        let model = pipeline(1).fit(&train).expect("pipeline fits");
        assert!(!model.ruleset.is_empty(), "fixture must extract rules");
        assert_equivalent(&model.ruleset, &train);
        assert_equivalent(&model.ruleset, &test);
    }
}

#[test]
fn multiclass_pipeline_rules_compile_bit_identically() {
    // m = 3: the three-band fixture of the multiclass suite.
    let schema = Schema::new(vec![
        Attribute::numeric("x"),
        Attribute::nominal_anon("noise", 3),
    ]);
    let mut train = Dataset::new(schema, vec!["low".into(), "mid".into(), "high".into()]);
    for i in 0..600 {
        let x = 30.0 * (i as f64 + 0.5) / 600.0;
        train
            .push(
                vec![Value::Num(x), Value::Nominal((i % 3) as u32)],
                (x / 10.0) as usize,
            )
            .unwrap();
    }
    let model = NeuroRule::default()
        .with_encoder_bins(6)
        .with_hidden_nodes(6)
        .with_seed(3)
        .fit(&train)
        .expect("m = 3 pipeline fits");
    assert!(model.ruleset.n_classes() == 3);
    assert_equivalent(&model.ruleset, &train);
}

/// Random rule sets over a mixed schema: every condition shape
/// (intervals with 0/1/2 bounds, numeric equality, nominal equality and
/// exclusion), shared conditions across rules, unreachable rules, empty
/// antecedents — compiled must equal interpreted on all of them.
#[test]
fn randomized_rulesets_compile_bit_identically() {
    let schema = Schema::new(vec![
        Attribute::numeric("a"),
        Attribute::numeric("b"),
        Attribute::nominal_anon("c", 4),
        Attribute::nominal_anon("d", 2),
    ]);
    let class_names: Vec<String> = vec!["x".into(), "y".into(), "z".into()];
    let mut rng = StdRng::seed_from_u64(20260728);

    for round in 0..40 {
        // A dataset whose numeric values collide often enough that NumEq
        // and interval boundaries are actually exercised.
        let n = 1 + (round * 37) % 300;
        let mut ds = Dataset::new(schema.clone(), class_names.clone());
        for _ in 0..n {
            ds.push(
                vec![
                    Value::Num(rng.gen_range(0..20) as f64),
                    Value::Num(rng.gen_range(-5.0..5.0)),
                    Value::Nominal(rng.gen_range(0..4) as u32),
                    Value::Nominal(rng.gen_range(0..2) as u32),
                ],
                rng.gen_range(0..3),
            )
            .unwrap();
        }

        let random_condition = |rng: &mut StdRng| -> Condition {
            match rng.gen_range(0..6) {
                0 => Condition::num_ge(0, rng.gen_range(0..20) as f64),
                1 => Condition::num_lt(0, rng.gen_range(0..20) as f64),
                2 => {
                    let lo = rng.gen_range(0..20) as f64;
                    Condition::num_range(1, lo - 5.0, lo + rng.gen_range(-2.0..4.0))
                }
                3 => Condition::NumEq {
                    attribute: 0,
                    value: rng.gen_range(0..20) as f64,
                },
                4 => Condition::CatEq {
                    attribute: 2,
                    code: rng.gen_range(0..4) as u32,
                },
                _ => {
                    let k = rng.gen_range(0..3);
                    Condition::CatNotIn {
                        attribute: if rng.gen_range(0..2) == 0 { 2 } else { 3 },
                        codes: (0..k).map(|_| rng.gen_range(0..4) as u32).collect(),
                    }
                }
            }
        };

        let n_rules = rng.gen_range(0..10);
        let rules: Vec<Rule> = (0..n_rules)
            .map(|_| {
                let n_conds = rng.gen_range(0..5);
                Rule::new(
                    (0..n_conds).map(|_| random_condition(&mut rng)).collect(),
                    rng.gen_range(0..3),
                )
            })
            .collect();
        let rs = RuleSet::new(rules, rng.gen_range(0..3), class_names.clone());
        assert_equivalent(&rs, &ds);
    }
}

/// Word-boundary batch sizes: the bitmap engine packs 64 rows per word,
/// so sizes one below/at/above a word boundary (and a multi-word partial
/// tail) are where a stray tail bit would corrupt `not()` complements and
/// first-match arbitration. Pins compiled == interpreted exactly there.
#[test]
fn word_boundary_batch_sizes_stay_equivalent() {
    let schema = Schema::new(vec![
        Attribute::numeric("x"),
        Attribute::nominal_anon("c", 3),
    ]);
    let class_names: Vec<String> = vec!["A".into(), "B".into()];
    // Rules chosen so every size leaves some rows matched, some claimed by
    // a later rule, and some falling through to the default — all three
    // arbitration outcomes live in the partial final word.
    let rs = RuleSet::new(
        vec![
            Rule::new(
                vec![
                    Condition::num_range(0, 10.0, 90.0),
                    Condition::CatEq {
                        attribute: 1,
                        code: 0,
                    },
                ],
                1,
            ),
            Rule::new(vec![Condition::num_lt(0, 60.0)], 0),
            Rule::new(
                vec![Condition::CatNotIn {
                    attribute: 1,
                    codes: [1].into_iter().collect(),
                }],
                1,
            ),
        ],
        0,
        class_names.clone(),
    );

    for n in [1usize, 63, 64, 65, 127, 128] {
        let mut ds = Dataset::new(schema.clone(), class_names.clone());
        for i in 0..n {
            ds.push(
                vec![Value::Num(i as f64), Value::Nominal((i % 3) as u32)],
                i % 2,
            )
            .unwrap();
        }
        assert_equivalent(&rs, &ds);

        // The same sizes as *sub-batches* of a larger dataset (gathered
        // views exercise the index-sweep arm of the bitmap fill).
        let mut big = Dataset::new(schema.clone(), class_names.clone());
        for i in 0..256usize {
            big.push(
                vec![Value::Num((i % 100) as f64), Value::Nominal((i % 3) as u32)],
                i % 2,
            )
            .unwrap();
        }
        let sel: Vec<usize> = (0..n).map(|i| (i * 7) % 256).collect();
        let compiled = CompiledRules::compile(&rs);
        let want: Vec<_> = sel.iter().map(|&r| rs.predict_row(&big, r)).collect();
        assert_eq!(
            compiled.predict_batch(&big.view_of(sel)),
            want,
            "gathered sub-batch of {n} rows"
        );
    }
}

#[test]
fn hybrid_equals_its_per_row_composition() {
    let gen = Generator::new(42).with_perturbation(0.05);
    let (train, test) = gen.train_test(Function::F1, 500, 500);
    let model = pipeline(1).fit(&train).expect("pipeline fits");
    let served = model.compile().with_mode(ServeMode::Hybrid);
    let net_batch = served.network().predict_batch(&test.view());
    let hybrid = served.predict_batch(&test.view());
    for i in 0..test.len() {
        let want = match model.ruleset.first_match_row(&test, i) {
            Some(r) => model.ruleset.rules[r].class,
            None => net_batch[i],
        };
        assert_eq!(hybrid[i], want, "row {i}");
    }
    // Rules mode equals the interpreted reference end to end.
    let rules_mode = served.with_mode(ServeMode::Rules);
    let per_row: Vec<_> = (0..test.len())
        .map(|i| model.ruleset.predict_row(&test, i))
        .collect();
    assert_eq!(rules_mode.predict_batch(&test.view()), per_row);
}
