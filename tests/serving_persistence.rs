//! Model-persistence regression: a fitted `Model` and its compiled
//! `ServeModel` must round-trip through JSON with identical predictions
//! and identical human-readable rule display — the "load in a serving
//! process without retraining" contract.

use neurorule::{Model, NeuroRule};
use nr_datagen::{Function, Generator};
use nr_encode::Encoder;
use nr_nn::{Trainer, TrainingAlgorithm};
use nr_opt::Bfgs;
use nr_prune::PruneConfig;
use nr_rules::Predictor;
use nr_serve::{ServeMode, ServeModel};
use nr_tabular::Dataset;

fn fixture() -> (Model, Dataset, Dataset) {
    let gen = Generator::new(42).with_perturbation(0.05);
    let (train, test) = gen.train_test(Function::F2, 500, 800);
    let prune = PruneConfig {
        retrain: Trainer::new(TrainingAlgorithm::Bfgs(
            Bfgs::default().with_max_iters(60).with_grad_tol(1e-3),
        )),
        ..PruneConfig::default()
    };
    let model = NeuroRule::default()
        .with_encoder(Encoder::agrawal())
        .with_seed(12345)
        .with_prune(prune)
        .fit(&train)
        .expect("pipeline fits");
    (model, train, test)
}

#[test]
fn fitted_model_roundtrips_with_identical_predictions_and_display() {
    let (model, train, test) = fixture();
    let json = serde_json::to_string(&model).expect("model serializes");
    let back: Model = serde_json::from_str(&json).expect("model deserializes");
    assert_eq!(back, model);

    // Identical predictions on both surfaces, on unseen data too.
    for ds in [&train, &test] {
        assert_eq!(
            back.ruleset.predict_batch(&ds.view()),
            model.ruleset.predict_batch(&ds.view())
        );
        assert_eq!(back.network_accuracy(ds), model.network_accuracy(ds));
    }
    // Identical rule display output (the paper-facing artifact).
    assert_eq!(
        back.ruleset.display(train.schema()),
        model.ruleset.display(train.schema())
    );
}

#[test]
fn serve_model_save_load_is_lossless() {
    let (model, train, test) = fixture();
    let served = model.compile().with_mode(ServeMode::Hybrid);

    let dir = std::env::temp_dir().join("nr_serve_persistence_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("model.json");
    served.save(&path).expect("save succeeds");
    let loaded = ServeModel::load(&path).expect("load succeeds");
    std::fs::remove_file(&path).ok();

    assert_eq!(loaded, served);
    assert_eq!(loaded.mode(), ServeMode::Hybrid);

    // Identical predictions in every mode, without retraining or
    // recompiling anything.
    for mode in [ServeMode::Rules, ServeMode::Network, ServeMode::Hybrid] {
        let a = served.clone().with_mode(mode);
        let b = loaded.clone().with_mode(mode);
        assert_eq!(
            a.predict_batch(&test.view()),
            b.predict_batch(&test.view()),
            "{mode:?} predictions must survive save/load"
        );
    }

    // The reconstructed rule set renders exactly like the fitted one.
    assert_eq!(loaded.ruleset(), model.ruleset);
    assert_eq!(
        loaded.ruleset().display(train.schema()),
        model.ruleset.display(train.schema())
    );

    // Loading garbage fails loudly.
    assert!(ServeModel::load(dir.join("missing.json")).is_err());
}

/// Extreme-but-finite floats must survive the JSON round-trip bit-exactly:
/// subnormals, `f64::MAX`, negative zero, and the smallest normal. The
/// shortest-round-trip printer plus a correct parser make this hold; this
/// test pins it on whole bundles, weights and rule bounds alike.
#[test]
fn extreme_finite_values_roundtrip_bit_exactly() {
    use nr_nn::{LinkId, Mlp};
    use nr_rules::{Condition, Rule, RuleSet};

    let extremes = [
        5e-324,             // smallest positive subnormal
        -5e-324,            // largest negative subnormal
        f64::MIN_POSITIVE,  // smallest positive normal
        f64::MAX,           // largest finite
        -f64::MAX,          // most negative finite
        -0.0,               // negative zero (== 0.0 but a distinct bit pattern)
        1.0 + f64::EPSILON, // adjacent representables must not collapse
        6.626_070_15e-34,   // many-digit decimal
    ];

    let encoder = Encoder::agrawal();
    let mut net = Mlp::random(encoder.n_inputs(), 4, 2, 7);
    for (k, &x) in extremes.iter().enumerate() {
        net.set_weight(
            LinkId::InputHidden {
                hidden: k % 4,
                input: k,
            },
            x,
        );
        net.set_weight(
            LinkId::HiddenOutput {
                output: k % 2,
                hidden: k % 4,
            },
            x,
        );
    }
    // Rule bounds carry extremes too (salary thresholds from a pathological
    // extraction): lower bound -0.0 and an upper bound at f64::MAX.
    let rs = RuleSet::new(
        vec![
            Rule::new(vec![Condition::num_range(0, -0.0, f64::MAX)], 0),
            Rule::new(
                vec![Condition::NumEq {
                    attribute: 2,
                    value: 5e-324,
                }],
                1,
            ),
        ],
        1,
        vec!["Group A".into(), "Group B".into()],
    );
    let model = ServeModel::new(&rs, encoder, net, ServeMode::Hybrid);

    let json = model.to_json().expect("finite extremes serialize");
    let back = ServeModel::from_json(&json).expect("and parse back");

    // Bit-exact weights (PartialEq would let -0.0 == 0.0 slip through).
    let bits = |m: &ServeModel| -> Vec<u64> {
        let net = m.network().network();
        net.w()
            .as_slice()
            .iter()
            .chain(net.v().as_slice())
            .map(|x| x.to_bits())
            .collect()
    };
    assert_eq!(bits(&back), bits(&model), "weight bits must round-trip");
    assert_eq!(back.ruleset(), model.ruleset());

    // Bit-exact predictions and scores on real rows.
    let ds = Generator::new(3).dataset(Function::F1, 256);
    assert_eq!(
        back.predict_batch(&ds.view()),
        model.predict_batch(&ds.view())
    );
    let (a, b) = (
        model.predict_scored_batch(&ds.view()),
        back.predict_scored_batch(&ds.view()),
    );
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.class, y.class);
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "scores must round-trip bit-exactly"
        );
    }
}

/// A diverged trainer (NaN/∞ weights) must be refused at serialization
/// time — the old `expect` would happily emit `null`s that `load` chokes
/// on.
#[test]
fn non_finite_bundles_refuse_to_serialize() {
    use nr_nn::{LinkId, Mlp};
    use nr_rules::{Rule, RuleSet};

    let encoder = Encoder::agrawal();
    let mut net = Mlp::random(encoder.n_inputs(), 4, 2, 7);
    net.set_weight(
        LinkId::HiddenOutput {
            output: 1,
            hidden: 3,
        },
        f64::NAN,
    );
    let rs = RuleSet::new(
        Vec::<Rule>::new(),
        0,
        vec!["Group A".into(), "Group B".into()],
    );
    let model = ServeModel::new(&rs, encoder, net, ServeMode::Network);
    let err = model.to_json().expect_err("NaN weight must be rejected");
    assert!(
        err.to_string().contains("non-finite model parameter"),
        "{err}"
    );
    assert!(model.validate().is_err());
    let path = std::env::temp_dir().join("nr_serve_nonfinite_refused.json");
    std::fs::remove_file(&path).ok();
    assert!(model.save(&path).is_err());
    assert!(!path.exists(), "refused save must not leave a file behind");
}

/// Backward compatibility: a `ServeModel` file written by the pre-DAG
/// engine (`tests/data/predag_serve_model.json`, captured before the
/// decision-DAG rewrite — its `CompiledRules` object carries only the
/// predicate/rule tables, no lowered program; the checksum footer was
/// appended later with the JSON left byte-for-byte as captured) must
/// still load, carry the same rule set, and score identically to the
/// interpreted reference. The lowered DAG is a derived cache built on
/// first use, never part of the wire format.
#[test]
fn predag_model_files_still_load() {
    use nr_datagen::Function;
    use nr_rules::{Condition, Rule, RuleSet};

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/predag_serve_model.json"
    );
    let model = ServeModel::load(path).expect("pre-DAG bundle must deserialize");
    assert_eq!(model.mode(), ServeMode::Hybrid);

    // The exact rule set the fixture was captured with.
    let expected = RuleSet::new(
        vec![
            Rule::new(
                vec![
                    Condition::num_range(0, 30_000.0, 75_000.0),
                    Condition::num_lt(2, 40.0),
                ],
                0,
            ),
            Rule::new(vec![Condition::num_ge(0, 75_000.0)], 1),
            Rule::new(
                vec![
                    Condition::num_range(0, 30_000.0, 75_000.0),
                    Condition::CatEq {
                        attribute: 5,
                        code: 3,
                    },
                ],
                1,
            ),
        ],
        0,
        vec!["Group A".into(), "Group B".into()],
    );
    assert_eq!(model.ruleset(), expected);

    // The lazily built DAG scores the old bundle bit-identically to the
    // interpreted reference, and a fresh round-trip changes nothing.
    let ds = nr_datagen::Generator::new(99).dataset(Function::F2, 500);
    let rules_mode = model.clone().with_mode(ServeMode::Rules);
    let got = rules_mode.predict_batch(&ds.view());
    for i in 0..ds.len() {
        assert_eq!(got[i], expected.predict_row(&ds, i), "row {i}");
    }
    let back = ServeModel::from_json(&model.to_json().unwrap()).unwrap();
    assert_eq!(back, model);
    assert_eq!(
        back.predict_batch(&ds.view()),
        model.predict_batch(&ds.view())
    );
}

/// Every bundle carries a checksum footer: the same pre-DAG payload with
/// its footer stripped has no integrity story and loads as corruption,
/// not as a model.
#[test]
fn bundle_without_footer_is_corrupt() {
    let fixture = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/predag_serve_model.json"
    ))
    .unwrap();
    let payload = fixture
        .rsplit_once("#nrcrc32=")
        .expect("fixture carries a footer")
        .0;
    assert!(
        ServeModel::from_json(payload).is_ok(),
        "payload itself parses"
    );
    let dir = std::env::temp_dir().join(format!("nr_serve_no_footer_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.json");
    std::fs::write(&path, payload).unwrap();
    match ServeModel::load(&path) {
        Err(nr_serve::ServeError::Corrupt { section, .. }) => {
            assert!(section.contains("footer"), "{section}")
        }
        other => panic!("a footer-less bundle must be Corrupt, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
