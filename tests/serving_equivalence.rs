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
use nr_serve::{CompiledRules, ServeMode, ServeModel};
use nr_tabular::{Attribute, Dataset, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

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

/// The rule engine's fixed shard size (rows scored per shard).
const SHARD_ROWS: usize = 8 * 1024;

/// Asserts compiled == interpreted on the full view, a reversed/strided
/// selection, and an empty selection of `ds`, and on `ds` tiled past two
/// shard seams into a partial tail shard (full and gathered views).
fn assert_equivalent(rs: &RuleSet, ds: &Dataset) {
    let compiled = CompiledRules::compile(rs);
    let per_row: Vec<_> = (0..ds.len()).map(|i| rs.predict_row(ds, i)).collect();
    assert_eq!(compiled.predict_batch(&ds.view()), per_row, "full view");
    // A tiled row is a copy of row `i % len`, so it shares that row's
    // answer.
    let tiled: Vec<usize> = (0..2 * SHARD_ROWS + ds.len())
        .map(|i| i % ds.len())
        .collect();
    let want: Vec<_> = tiled.iter().map(|&r| per_row[r]).collect();
    assert_eq!(
        compiled.predict_batch(&ds.subset(&tiled).view()),
        want,
        "tiled across shard seams"
    );
    assert_eq!(
        compiled.predict_batch(&ds.view_of(tiled)),
        want,
        "gathered across shard seams"
    );

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

// ---------------------------------------------------------------------------
// The network scorer's exact tier: interval indices → set bits → the
// set-bit forward pass, with no dense encode. It must equal the per-row
// dense reference (`Encoder::encode_row` + `Mlp::forward` + argmax) in
// every class and in the bits of every score.
// ---------------------------------------------------------------------------

/// A random mixed schema (numeric and nominal attributes) and a dataset
/// over it whose numeric values sit on an integer grid, plus an encoder
/// fitted to that grid with `bins` intervals: the fitted cut points are
/// exact integers, so many values land exactly on a threshold. A second
/// scoring dataset mixes grid values with off-grid and out-of-range ones.
fn fitted_fixture(rng: &mut StdRng) -> (Encoder, Dataset) {
    let bins = rng.gen_range(2..=8usize);
    let arity = rng.gen_range(1..=6usize);
    let attrs: Vec<Attribute> = (0..arity)
        .map(|a| {
            if rng.gen_bool(0.6) {
                Attribute::numeric(format!("x{a}"))
            } else {
                Attribute::nominal_anon(format!("c{a}"), rng.gen_range(1..=6usize))
            }
        })
        .collect();
    let schema = Schema::new(attrs);
    let classes: Vec<String> = (0..rng.gen_range(2..=3usize))
        .map(|c| format!("k{c}"))
        .collect();
    let step = [1.0, 2.0, 5.0][rng.gen_range(0..3usize)];
    let top = (bins * 3) as i64;
    let value = |rng: &mut StdRng, a: usize, grid_only: bool| match schema
        .attribute(a)
        .cardinality()
    {
        Some(card) => Value::Nominal(rng.gen_range(0..card as u32)),
        None if grid_only || rng.gen_bool(0.6) => Value::Num(step * rng.gen_range(0..=top) as f64),
        None => Value::Num(step * rng.gen_range(-2.0..(top + 2) as f64)),
    };
    let mut train = Dataset::new(schema.clone(), classes.clone());
    // The grid's two ends pin the fitted range to [0, step * top].
    for end in [0, top] {
        let row = (0..arity)
            .map(|a| match schema.attribute(a).cardinality() {
                Some(_) => Value::Nominal(0),
                None => Value::Num(step * end as f64),
            })
            .collect();
        train.push(row, 0).unwrap();
    }
    for _ in 0..20 {
        let row = (0..arity).map(|a| value(rng, a, true)).collect();
        train.push(row, rng.gen_range(0..classes.len())).unwrap();
    }
    let encoder = Encoder::fit(&train, bins).unwrap();
    let mut test = Dataset::new(schema.clone(), classes.clone());
    for _ in 0..rng.gen_range(1..=2600usize) {
        let row = (0..arity).map(|a| value(rng, a, false)).collect();
        test.push(row, rng.gen_range(0..classes.len())).unwrap();
    }
    (encoder, test)
}

/// The Table-2 Agrawal encoder on generated tuples, with a quarter of the
/// numeric values moved exactly onto one of their attribute's finite
/// thresholds.
fn agrawal_fixture(rng: &mut StdRng) -> (Encoder, Dataset) {
    let encoder = Encoder::agrawal();
    let function = nr_datagen::Function::all()[rng.gen_range(0..10usize)];
    let generated = Generator::new(rng.next_u64()).dataset(function, rng.gen_range(1..=2600usize));
    let mut ds = Dataset::new(generated.schema().clone(), generated.class_names().to_vec());
    for i in 0..generated.len() {
        let mut row = generated.row_values(i);
        for (a, coding) in encoder.codings().iter().enumerate() {
            if let nr_encode::AttrCoding::Thermometer { thresholds, .. } = coding {
                let finite: Vec<f64> = thresholds
                    .iter()
                    .copied()
                    .filter(|t| t.is_finite())
                    .collect();
                if !finite.is_empty() && rng.gen_bool(0.25) {
                    row[a] = Value::Num(finite[rng.gen_range(0..finite.len())]);
                }
            }
        }
        ds.push(row, generated.labels()[i]).unwrap();
    }
    (encoder, ds)
}

/// A random network, with a random share of its links pruned half the
/// time.
fn random_network(rng: &mut StdRng, n_in: usize, n_out: usize) -> nr_nn::Mlp {
    let mut net = nr_nn::Mlp::random(n_in, rng.gen_range(1..=5usize), n_out, rng.next_u64());
    if rng.gen_bool(0.5) {
        let share = rng.gen_range(0.1..0.95);
        for link in net.active_links() {
            if rng.gen_bool(share) {
                net.prune(link);
            }
        }
    }
    net
}

/// Row selections over `ds`: the full view, and two shuffled selections
/// with repeats (unordered and repeated rows), one within a single
/// 1,024-row scoring chunk (scored inline) and one spanning several
/// (scored on the worker pool).
fn views(rng: &mut StdRng, ds: &Dataset) -> Vec<Vec<usize>> {
    let n = ds.len();
    let lens = [
        rng.gen_range(1..=1024usize),
        rng.gen_range(1025..=2600usize),
    ];
    let mut views = vec![(0..n).collect()];
    for len in lens {
        views.push((0..len).map(|_| rng.gen_range(0..n)).collect());
    }
    views
}

/// The per-row dense reference on every row of `view`: `(class, winning
/// activation)` from `Encoder::encode_row`, `Mlp::forward` and argmax.
fn per_row_reference(
    scorer: &nr_serve::NetworkScorer,
    view: &nr_tabular::DatasetView<'_>,
) -> Vec<(usize, f64)> {
    (0..view.len())
        .map(|i| {
            let x = scorer.encoder().encode_row(&view.row_values(i));
            let (_, out) = scorer.network().forward(&x);
            let class = nr_nn::argmax(&out);
            (class, out[class])
        })
        .collect()
}

/// The exact tier equals the per-row reference on `view`: classes through
/// `predict_batch`, classes and score bits through the scored path.
fn assert_exact_tier(scorer: &nr_serve::NetworkScorer, view: &nr_tabular::DatasetView<'_>) {
    let scored = per_row_reference(scorer, view);
    let classes: Vec<usize> = scored.iter().map(|&(c, _)| c).collect();
    assert_eq!(scorer.predict_batch(view), classes, "classes");
    let got = scorer.predict_scored_batch(view);
    assert_eq!(got.len(), scored.len());
    for (i, (g, &(class, score))) in got.iter().zip(&scored).enumerate() {
        assert_eq!(g.class, class, "row {i} class");
        assert_eq!(g.score.to_bits(), score.to_bits(), "row {i} score bits");
    }
}

/// A small random rule set over `schema` (thresholds drawn from the
/// data), leaving rows for the network fallback.
fn random_rules(rng: &mut StdRng, ds: &Dataset) -> RuleSet {
    let schema = ds.schema();
    let n_classes = ds.class_names().len();
    let rules = (0..rng.gen_range(0..4usize))
        .map(|_| {
            let a = rng.gen_range(0..schema.arity());
            let cond = match schema.attribute(a).cardinality() {
                Some(card) => Condition::CatEq {
                    attribute: a,
                    code: rng.gen_range(0..card as u32),
                },
                None => {
                    let x = ds.num_column(a)[rng.gen_range(0..ds.len())];
                    if rng.gen_bool(0.5) {
                        Condition::num_lt(a, x)
                    } else {
                        Condition::num_ge(a, x)
                    }
                }
            };
            Rule::new(vec![cond], rng.gen_range(0..n_classes))
        })
        .collect();
    RuleSet::new(
        rules,
        rng.gen_range(0..n_classes),
        ds.class_names().to_vec(),
    )
}

/// `ServeModel`'s Network and Hybrid answers equal the replay from public
/// parts the cross-layer benchmark times: compiled rules with their match
/// flags, then the network on the unmatched rows — here the per-row
/// reference (`encode_row` + `forward`) in place of the benchmark's batch
/// encode.
fn assert_serve_modes_match_replay(model: &ServeModel, view: &nr_tabular::DatasetView<'_>) {
    let net_model = model.clone().with_mode(ServeMode::Network);
    let want: Vec<usize> = per_row_reference(model.network(), view)
        .iter()
        .map(|&(c, _)| c)
        .collect();
    assert_eq!(net_model.predict_batch(view), want, "network mode");

    let hybrid = model.clone().with_mode(ServeMode::Hybrid);
    let flags = model.rules().predict_scored_batch(view);
    let positions: Vec<usize> = (0..flags.len())
        .filter(|&i| flags[i].score == 0.0)
        .collect();
    let mut classes: Vec<usize> = flags.iter().map(|s| s.class).collect();
    let mut scores: Vec<f64> = flags.iter().map(|_| 1.0).collect();
    if !positions.is_empty() {
        let sub = view.subview(positions.iter().map(|&p| view.row_id(p)).collect());
        for (&p, (class, score)) in positions
            .iter()
            .zip(per_row_reference(model.network(), &sub))
        {
            classes[p] = class;
            scores[p] = score;
        }
    }
    assert_eq!(hybrid.predict_batch(view), classes, "hybrid mode");
    for (i, s) in hybrid.predict_scored_batch(view).iter().enumerate() {
        assert_eq!(s.class, classes[i], "hybrid scored row {i}");
        assert_eq!(
            s.score.to_bits(),
            scores[i].to_bits(),
            "hybrid score row {i}"
        );
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(24))]

    /// Exact tier == dense reference, for fitted encoders on random mixed
    /// schemas and the Agrawal encoder, random and pruned networks, full
    /// and shuffled-with-repeats views, scored inline and pooled.
    #[test]
    fn exact_tier_matches_dense_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (encoder, ds) = if rng.gen_bool(0.5) {
            fitted_fixture(&mut rng)
        } else {
            agrawal_fixture(&mut rng)
        };
        let n_out = rng.gen_range(1..=4usize);
        let net = random_network(&mut rng, encoder.n_inputs(), n_out);
        let scorer = nr_serve::NetworkScorer::new(encoder, net).expect("scorer parts agree");
        for rows in views(&mut rng, &ds) {
            assert_exact_tier(&scorer, &ds.view_of(rows));
        }
        assert!(scorer.predict_batch(&ds.view_of(Vec::new())).is_empty());
    }

    /// Whole bundles: Network and Hybrid modes equal the parts replay.
    #[test]
    fn serve_modes_match_the_parts_replay(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (encoder, ds) = if rng.gen_bool(0.5) {
            fitted_fixture(&mut rng)
        } else {
            agrawal_fixture(&mut rng)
        };
        let rules = random_rules(&mut rng, &ds);
        let net = random_network(&mut rng, encoder.n_inputs(), ds.class_names().len());
        let model = ServeModel::new(&rules, encoder, net, ServeMode::Hybrid);
        for rows in views(&mut rng, &ds) {
            assert_serve_modes_match_replay(&model, &ds.view_of(rows));
        }
    }
}

/// Without debug assertions a zero-copy `Dataset` can carry NaN, ±∞ and
/// nominal codes outside the category list (`from_shared_parts` only
/// debug-asserts them); the exact tier must then still equal the dense
/// reference. Debug builds reject such a dataset, so the check is a no-op
/// there.
#[test]
fn unvalidated_shared_columns_score_like_the_reference() {
    if cfg!(debug_assertions) {
        return;
    }
    let encoder = Encoder::agrawal();
    let rows = 1500;
    let generated = Generator::new(5).dataset(Function::F5, rows);
    let hostile = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let columns = (0..9)
        .map(|a| match generated.schema().attribute(a).cardinality() {
            Some(card) => nr_tabular::Column::nominal(
                (0..rows)
                    .map(|i| {
                        if i % 7 == 0 {
                            card as u32 + (i % 3) as u32
                        } else {
                            generated.nominal_column(a)[i]
                        }
                    })
                    .collect(),
            ),
            None => nr_tabular::Column::num(
                (0..rows)
                    .map(|i| {
                        if i % 5 == 0 {
                            hostile[i % 3]
                        } else {
                            generated.num_column(a)[i]
                        }
                    })
                    .collect(),
            ),
        })
        .collect();
    let ds = Dataset::from_shared_parts(
        generated.schema().clone(),
        generated.class_names().to_vec(),
        columns,
        generated.labels().to_vec().into(),
    )
    .unwrap();
    let net = nr_nn::Mlp::random(encoder.n_inputs(), 4, 2, 11);
    let scorer = nr_serve::NetworkScorer::new(encoder, net).expect("scorer parts agree");
    assert_exact_tier(&scorer, &ds.view());
    assert_exact_tier(&scorer, &ds.view_of((0..rows).rev().step_by(2).collect()));
}
