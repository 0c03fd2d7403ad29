//! `repro --quick`: the CI smoke slice of the repro suite.
//!
//! Runs in well under a minute: the two static tables (schema + Table-2
//! coding), then one reduced end-to-end pipeline fit on Function 1
//! (500 tuples, trimmed retraining budget — the paper-sized F2 run lives
//! in `repro accuracy`) whose outputs are asserted against hard floors —
//! so a CI run fails loudly if the pipeline regresses, instead of
//! silently printing garbage tables. The fitted model then serves as the
//! fixture of the quick-sized serving and ingest scoreboards
//! ([`scoreboard::QUICK`]), which print their tables and bar readings
//! and assert that the out-of-core run spills.

use neurorule::{Model, NeuroRule};
use nr_datagen::Function;
use nr_encode::Encoder;
use nr_nn::{Trainer, TrainingAlgorithm};
use nr_opt::Bfgs;
use nr_prune::PruneConfig;
use nr_tabular::Dataset;

use crate::common::{generator, header, pct};
use crate::{scoreboard, tables};

/// Smoke-sized training set (paper runs use 1000).
const N_SMOKE: usize = 500;

/// Fits the reduced Function-1 pipeline; returns the model and its
/// train/test sets.
pub fn fit() -> (Model, Dataset, Dataset) {
    let (train, test) = generator().train_test(Function::F1, N_SMOKE, N_SMOKE);
    let prune = PruneConfig {
        retrain: Trainer::new(TrainingAlgorithm::Bfgs(
            Bfgs::default().with_max_iters(60).with_grad_tol(1e-3),
        )),
        ..PruneConfig::default()
    };
    let model = NeuroRule::default()
        .with_encoder(Encoder::agrawal())
        .with_seed(1)
        .with_prune(prune)
        .fit(&train)
        .expect("smoke pipeline fits");
    (model, train, test)
}

pub fn run() {
    tables::table1();
    tables::table2();

    header("smoke: reduced Function-1 pipeline (500 tuples)");
    let (model, train, test) = fit();
    let train_acc = model.rules_accuracy(&train);
    let test_acc = model.rules_accuracy(&test);
    println!(
        "rules: {} ({} conditions) | train {}% | test {}% | fidelity {}%",
        model.ruleset.len(),
        model.ruleset.total_conditions(),
        pct(train_acc),
        pct(test_acc),
        pct(model.fidelity(&train)),
    );
    print!("{}", model.ruleset.display(train.schema()));

    // Hard floors: generous enough for the reduced budget, tight enough to
    // catch a broken pipeline. CI fails on the assert, not on eyeballs.
    assert!(train_acc >= 0.9, "smoke train accuracy {train_acc}");
    assert!(test_acc >= 0.85, "smoke test accuracy {test_acc}");
    assert!(!model.ruleset.is_empty(), "smoke produced no rules");

    header("smoke: serving scoreboard (quick size, the model above)");
    print!(
        "{}",
        scoreboard::serving(&model, &scoreboard::QUICK).markdown()
    );
    header("smoke: out-of-core ingest scoreboard (quick size)");
    print!(
        "{}",
        scoreboard::ingest(&model, &scoreboard::QUICK).markdown()
    );
    println!("\nsmoke OK");
}
