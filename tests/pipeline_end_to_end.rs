//! End-to-end pipeline tests: train → prune → extract on the paper's
//! benchmark functions, with budgets trimmed where accuracy allows.

use neurorule::{NeuroRule, PipelineError};
use nr_datagen::{Function, Generator};
use nr_encode::Encoder;
use nr_nn::{Trainer, TrainingAlgorithm};
use nr_opt::Bfgs;
use nr_prune::PruneConfig;

/// Paper-shaped pipeline with a slightly cheaper retraining budget.
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

#[test]
fn f1_recovers_the_age_band_rule() {
    let gen = Generator::new(42).with_perturbation(0.05);
    let (train, test) = gen.train_test(Function::F1, 500, 500);
    let model = pipeline(1).fit(&train).expect("pipeline succeeds on F1");

    assert!(
        model.rules_accuracy(&train) >= 0.9,
        "train acc {}",
        model.rules_accuracy(&train)
    );
    assert!(
        model.rules_accuracy(&test) >= 0.9,
        "test acc {}",
        model.rules_accuracy(&test)
    );
    // F1 depends only on age: every rule must test age (a noisy link may
    // occasionally drag in another attribute, but age must be load-bearing).
    for rule in &model.ruleset.rules {
        assert!(
            rule.conditions.iter().any(|c| c.attribute() == 2),
            "F1 rule must test age: {rule:?}"
        );
    }
    assert!(model.ruleset.len() <= 4, "{} rules", model.ruleset.len());
}

#[test]
fn f2_rules_beat_the_floor_and_stay_compact() {
    // Paper-sized setup (1000 tuples, default pruning budget): the pruned
    // network must articulate into a compact rule set.
    let gen = Generator::new(42).with_perturbation(0.05);
    let (train, test) = gen.train_test(Function::F2, 1000, 1000);
    let model = NeuroRule::default()
        .with_encoder(Encoder::agrawal())
        .with_seed(12345)
        .fit(&train)
        .expect("pipeline succeeds on F2");

    assert!(
        model.rules_accuracy(&train) >= 0.88,
        "train {}",
        model.rules_accuracy(&train)
    );
    assert!(
        model.rules_accuracy(&test) >= 0.85,
        "test {}",
        model.rules_accuracy(&test)
    );
    // The paper's headline: fewer rules than C4.5rules' 18.
    assert!(model.ruleset.len() < 18, "{} rules", model.ruleset.len());
}

#[test]
fn pruning_shrinks_the_network_dramatically() {
    let gen = Generator::new(42).with_perturbation(0.05);
    let (train, _) = gen.train_test(Function::F1, 500, 1);
    let model = pipeline(3).fit(&train).expect("pipeline succeeds");
    let p = &model.report.prune_outcome;
    assert_eq!(p.initial_links, 4 * (87 + 2));
    assert!(
        p.remaining_links <= p.initial_links / 4,
        "{} of {} links left",
        p.remaining_links,
        p.initial_links
    );
    // Feature selection: most of the 87 inputs must be disconnected.
    assert!(
        p.unused_inputs.len() >= 60,
        "only {} unused inputs",
        p.unused_inputs.len()
    );
}

#[test]
fn extraction_preserves_network_accuracy() {
    // The paper: "the rule extracting phase preserves the classification
    // accuracy of the pruned network" — fidelity should be near 1.
    let gen = Generator::new(42).with_perturbation(0.05);
    let (train, test) = gen.train_test(Function::F3, 600, 600);
    let model = pipeline(5).fit(&train).expect("pipeline succeeds on F3");
    assert!(
        model.fidelity(&train) >= 0.95,
        "train fidelity {}",
        model.fidelity(&train)
    );
    assert!(
        model.fidelity(&test) >= 0.93,
        "test fidelity {}",
        model.fidelity(&test)
    );
}

#[test]
fn fast_pruning_pipeline_holds_the_floors() {
    // The incremental pruning engine slots into the full pipeline via
    // `with_prune_mode`: same floors, different (cheaper) trajectory.
    let gen = Generator::new(42).with_perturbation(0.05);
    let (train, test) = gen.train_test(Function::F1, 500, 500);
    let model = pipeline(1)
        .with_prune_mode(nr_prune::PruneMode::Fast)
        .fit(&train)
        .expect("fast-mode pipeline succeeds on F1");
    assert!(
        model.report.prune_outcome.final_accuracy >= 0.9,
        "{:?}",
        model.report.prune_outcome
    );
    assert!(
        model.rules_accuracy(&train) >= 0.88,
        "train acc {}",
        model.rules_accuracy(&train)
    );
    assert!(
        model.rules_accuracy(&test) >= 0.85,
        "test acc {}",
        model.rules_accuracy(&test)
    );
    // The engine actually pruned (F1 uses one attribute; the network must
    // shrink dramatically either way).
    let p = &model.report.prune_outcome;
    assert!(
        p.remaining_links <= p.initial_links / 4,
        "{} of {} links left",
        p.remaining_links,
        p.initial_links
    );
}

#[test]
fn deterministic_given_seeds() {
    let gen = Generator::new(9).with_perturbation(0.05);
    let train = gen.dataset(Function::F1, 400);
    let a = pipeline(11).fit(&train).expect("fit a");
    let b = pipeline(11).fit(&train).expect("fit b");
    assert_eq!(a.ruleset, b.ruleset);
    assert_eq!(a.network, b.network);
}

#[test]
fn empty_training_set_is_an_error() {
    let gen = Generator::new(9);
    let empty = gen.dataset(Function::F1, 0);
    assert!(pipeline(1).fit(&empty).is_err());
}

/// The configuration fields are public, so a struct literal can carry
/// values the builders would never produce; `fit` must reject them with a
/// typed error instead of panicking mid-pipeline.
#[test]
fn invalid_public_config_is_an_error_not_a_panic() {
    let train = Generator::new(9).dataset(Function::F1, 50);
    let no_hidden = NeuroRule {
        hidden_nodes: 0,
        ..NeuroRule::default()
    };
    assert_eq!(
        no_hidden.fit(&train).unwrap_err(),
        PipelineError::NoHiddenNodes
    );
    let one_bin = NeuroRule {
        encoder_bins: 1,
        ..NeuroRule::default()
    };
    assert_eq!(
        one_bin.fit(&train).unwrap_err(),
        PipelineError::TooFewEncoderBins(1)
    );
}

#[test]
fn model_serde_roundtrip() {
    let gen = Generator::new(21).with_perturbation(0.05);
    let train = gen.dataset(Function::F1, 400);
    let model = pipeline(2).fit(&train).expect("fit");
    let json = serde_json::to_string(&model).expect("serialize");
    let back: neurorule::Model = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(model, back);
    // The revived model predicts identically, through the batch surface.
    use nr_rules::Predictor;
    let view = train.view();
    assert_eq!(
        model.ruleset.predict_batch(&view),
        back.ruleset.predict_batch(&view)
    );
    assert_eq!(
        model.compile().predict_batch(&view),
        back.compile().predict_batch(&view)
    );
}

#[test]
fn generic_encoder_path_works() {
    // No Agrawal encoder: fit a generic equal-width encoder instead.
    let gen = Generator::new(33).with_perturbation(0.05);
    let train = gen.dataset(Function::F1, 400);
    let model = NeuroRule::default()
        .with_encoder_bins(6)
        .with_seed(4)
        .fit(&train)
        .expect("generic encoder pipeline succeeds");
    assert!(
        model.rules_accuracy(&train) >= 0.8,
        "{}",
        model.rules_accuracy(&train)
    );
}
