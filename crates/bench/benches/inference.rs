//! Inference-throughput benchmark: rules vs network vs decision tree,
//! plus the batched-kernel scoreboard on a large synthetic workload.
//!
//! Backs the paper's §1 argument that explicit rules are cheap to apply to
//! large databases (they test a handful of attributes, no arithmetic),
//! while the network must encode every tuple and run a forward pass — and,
//! since the batch refactor, measures how much of that network cost the
//! set-bit batch path claws back. The large group pits three ways of
//! classifying the same tuples against each other in one run:
//!
//! * `per-row-encode-classify` — the pre-batch hot path: encode each tuple,
//!   allocate, run a scalar forward pass;
//! * `per-row-preencoded` — per-row forward passes over dense rows encoded
//!   before timing, with reused scratch buffers (allocation-free baseline);
//! * `batch` — [`nr_nn::Mlp::classify_batch`] over the encoded dataset's
//!   set bits ([`nr_encode::EncodedDataset::binary_inputs`]).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nr_bench::{bench_dataset, bench_encoded, pruned_network};
use nr_rulex::{extract, RxConfig};
use nr_tree::{to_rules, DecisionTree, TreeConfig};

fn inference(c: &mut Criterion) {
    let train = bench_dataset(500);
    let test = bench_dataset(1000);
    let (enc, data, net) = pruned_network(500);
    let rx = extract(&net, &enc, &data, train.class_names(), &RxConfig::default())
        .expect("extraction succeeds on the bench fixture");
    let tree = DecisionTree::fit(&train, &TreeConfig::default());
    let tree_rules = to_rules(&tree, &train);

    let mut group = c.benchmark_group("inference-1000-rows");
    group.throughput(Throughput::Elements(1000));
    group.bench_function("neurorule-rules", |b| {
        b.iter(|| {
            (0..test.len())
                .map(|i| rx.ruleset.predict_row(&test, i))
                .sum::<usize>()
        });
    });
    group.bench_function("pruned-network", |b| {
        // Deliberate legacy path: materialize + encode + classify per
        // tuple. The serving bench measures the batch replacements.
        b.iter(|| {
            (0..test.len())
                .map(|i| net.classify(&enc.encode_row(&test.row_values(i))))
                .sum::<usize>()
        });
    });
    group.bench_function("c45-tree", |b| {
        b.iter(|| {
            (0..test.len())
                .map(|i| tree.predict_row(&test, i))
                .sum::<usize>()
        });
    });
    group.bench_function("c45-rules", |b| {
        b.iter(|| {
            (0..test.len())
                .map(|i| tree_rules.predict_row(&test, i))
                .sum::<usize>()
        });
    });
    group.finish();
}

/// The batch-kernel scoreboard: per-row vs batched classification of the
/// same rows, same network, one bench run.
fn batch_inference(c: &mut Criterion) {
    let rows = if criterion::quick_mode() {
        10_000
    } else {
        100_000
    };
    let raw = bench_dataset(rows);
    let (enc, data) = bench_encoded(rows);
    let (_, _, net) = pruned_network(500);

    let mut group = c.benchmark_group(format!("inference-batch-{rows}-rows"));
    group.sample_size(10);
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function("per-row-encode-classify", |b| {
        // Deliberate legacy path (the pre-batch hot loop, row_values shim
        // included) — it is the baseline this group measures against.
        b.iter(|| {
            (0..raw.len())
                .map(|i| net.classify(&enc.encode_row(&raw.row_values(i))))
                .sum::<usize>()
        });
    });
    group.bench_function("per-row-preencoded", |b| {
        let dense: Vec<Vec<f64>> = (0..raw.len())
            .map(|i| enc.encode_row(&raw.row_values(i)))
            .collect();
        let mut hidden = vec![0.0; net.n_hidden()];
        let mut out = vec![0.0; net.n_outputs()];
        b.iter(|| {
            dense
                .iter()
                .map(|x| {
                    net.forward_into(x, &mut hidden, &mut out);
                    nr_nn::argmax(&out)
                })
                .sum::<usize>()
        });
    });
    group.bench_function("batch", |b| {
        b.iter(|| net.classify_batch(&data).into_iter().sum::<usize>());
    });
    group.finish();
}

criterion_group!(benches, inference, batch_inference);
criterion_main!(benches);
