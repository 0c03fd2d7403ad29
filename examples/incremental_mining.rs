//! Incremental rule mining — the paper's §5 outlook, implemented.
//!
//! ```text
//! cargo run --release --example incremental_mining
//! ```
//!
//! The paper closes by noting that "incremental training and rule
//! extraction during the life time of an application database can be
//! useful": instead of retraining from scratch as tuples arrive, continue
//! training the *existing* network on the grown dataset (warm start), prune
//! and re-extract. This example mines rules from an initial batch, then
//! folds in two more batches, comparing warm-start cost and rule stability
//! against cold restarts.

use neurorule::NeuroRule;
use nr_datagen::{Function, Generator};
use nr_encode::Encoder;
use nr_nn::{Mlp, Trainer};
use nr_prune::{prune, PruneConfig};
use nr_rulex::{extract, RxConfig};
use nr_tabular::Dataset;

fn main() {
    let generator = Generator::new(4).with_perturbation(0.05);
    let encoder = Encoder::agrawal();

    // The "database" grows in three batches.
    let all = generator.dataset(Function::F2, 1500);
    let batches: Vec<Dataset> = vec![
        all.subset(&idx(0, 500)),
        all.subset(&idx(0, 1000)),
        all.subset(&idx(0, 1500)),
    ];

    // --- Incremental path: one network, warm-started per batch. ----------
    println!("== incremental (warm start) ==");
    let mut net = Mlp::random(encoder.n_inputs(), 4, 2, 12345);
    let trainer = Trainer::default();
    for (i, batch) in batches.iter().enumerate() {
        let encoded = encoder.encode_dataset(batch);
        let t0 = std::time::Instant::now();
        let report = trainer.train(&mut net, &encoded);
        // Prune/extract on a clone so the warm-start network stays dense
        // enough to absorb future batches.
        let mut snapshot = net.clone();
        prune(&mut snapshot, &encoded, &PruneConfig::default());
        let rx = extract(
            &snapshot,
            &encoder,
            &encoded,
            batch.class_names(),
            &RxConfig::default(),
        );
        let dt = t0.elapsed();
        match rx {
            Ok(rx) => println!(
                "batch {} ({} tuples): {} iters, acc {:.1}%, {} rules, {:.1?}",
                i + 1,
                batch.len(),
                report.iterations,
                100.0 * rx.ruleset.accuracy(batch),
                rx.ruleset.len(),
                dt,
            ),
            Err(e) => println!("batch {}: extraction failed: {e}", i + 1),
        }
    }

    // --- Cold path: fresh network per batch. ------------------------------
    println!("\n== cold restart (baseline) ==");
    for (i, batch) in batches.iter().enumerate() {
        let t0 = std::time::Instant::now();
        let result = NeuroRule::default()
            .with_encoder(encoder.clone())
            .with_seed(12345)
            .fit(batch);
        let dt = t0.elapsed();
        match result {
            Ok(m) => println!(
                "batch {} ({} tuples): {} iters, acc {:.1}%, {} rules, {:.1?}",
                i + 1,
                batch.len(),
                m.report.train_report.iterations,
                100.0 * m.report.train_rule_accuracy,
                m.ruleset.len(),
                dt,
            ),
            Err(e) => println!("batch {}: failed: {e}", i + 1),
        }
    }
    println!(
        "\nThe warm-started network needs fewer iterations per batch once the\n\
         first batch is absorbed — the paper's premise that incremental\n\
         training amortizes the connectionist approach's training cost."
    );
}

fn idx(from: usize, to: usize) -> Vec<usize> {
    (from..to).collect()
}
