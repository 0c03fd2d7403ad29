//! Phase-1 benchmark: network training, BFGS vs gradient descent, plus the
//! batched objective on a large synthetic workload.
//!
//! Backs the paper's claim that quasi-Newton training converges in far
//! fewer iterations than backpropagation (§2.1); the ablation table in
//! EXPERIMENTS.md is generated from these numbers. The `objective` group is
//! the training-side batch scoreboard: one full cross-entropy
//! value-and-gradient evaluation over 100k rows, single-threaded and with
//! auto worker threads (bit-identical results either way).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nr_bench::{bench_dataset, bench_encoded, fresh_network};
use nr_nn::{CrossEntropyObjective, Penalty, Trainer, TrainingAlgorithm};
use nr_opt::{Bfgs, GradientDescent, Objective};
use nr_tree::{DecisionTree, TreeConfig};

fn training(c: &mut Criterion) {
    let mut group = c.benchmark_group("training");
    group.sample_size(10);
    for &n in &[200usize, 500] {
        let (_, data) = bench_encoded(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("bfgs-60", n), &n, |b, _| {
            let trainer = Trainer::new(TrainingAlgorithm::Bfgs(Bfgs::default().with_max_iters(60)));
            b.iter(|| {
                let mut net = fresh_network(7);
                trainer.train(&mut net, &data)
            });
        });
        group.bench_with_input(BenchmarkId::new("gd-600", n), &n, |b, _| {
            let trainer = Trainer::new(TrainingAlgorithm::GradientDescent(
                GradientDescent::default()
                    .with_learning_rate(0.05)
                    .with_max_iters(600),
            ));
            b.iter(|| {
                let mut net = fresh_network(7);
                trainer.train(&mut net, &data)
            });
        });
    }
    group.finish();
}

/// One batched value-and-gradient evaluation over the large workload.
fn objective(c: &mut Criterion) {
    let rows = if criterion::quick_mode() {
        10_000
    } else {
        100_000
    };
    let (_, data) = bench_encoded(rows);
    let net = fresh_network(7);
    let x = net.flatten_active();

    let mut group = c.benchmark_group(format!("objective-{rows}-rows"));
    group.sample_size(10);
    group.throughput(Throughput::Elements(rows as u64));
    for &(threads, label) in &[(1usize, "grad-1-thread"), (0, "grad-auto-threads")] {
        group.bench_function(label, |b| {
            let obj =
                CrossEntropyObjective::new(&net, &data, Penalty::default()).with_threads(threads);
            let mut g = vec![0.0; obj.dim()];
            b.iter(|| obj.value_and_gradient(&x, &mut g));
        });
    }
    group.finish();
}

/// Tree induction over typed column scans ([`DecisionTree::fit`]), the
/// C4.5 baseline's training cost. Pruning is off so the timing is pure
/// induction-time data access.
fn tree_induction(c: &mut Criterion) {
    let rows = if criterion::quick_mode() {
        2_000
    } else {
        10_000
    };
    let ds = bench_dataset(rows);
    let config = TreeConfig {
        prune: false,
        ..TreeConfig::default()
    };

    let mut group = c.benchmark_group(format!("tree-induction-{rows}-rows"));
    group.sample_size(10);
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function("columnar", |b| {
        b.iter(|| DecisionTree::fit(&ds, &config).n_leaves());
    });
    group.finish();
}

criterion_group!(benches, training, objective, tree_induction);
criterion_main!(benches);
