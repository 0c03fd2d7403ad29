//! Serving-throughput benchmark: compiled rules vs the interpreted rule
//! path vs the network batch path, plus multi-thread scaling through one
//! shared `Arc<ServeModel>`.
//!
//! This is the scoreboard for the paper's §1 claim that extracted rules
//! are cheap to apply to large databases, measured on the serving
//! surfaces a deployment would actually use:
//!
//! * `compiled-rules` — [`nr_serve::CompiledRules`]'s production path:
//!   shared-prefix decision DAG, fused column sweeps, chunk-parallel
//!   batches (the group name is stable across engine generations so the
//!   repro history stays comparable);
//! * `interpreted-rules` — the reference `RuleSet::predict_row` loop
//!   (per row: walk rules, short-circuit conditions);
//! * `network-batch` — [`nr_serve::NetworkScorer`]'s exact tier: each
//!   attribute's interval index → the row's set input columns → the
//!   set-bit forward pass, chunk-parallel, no dense encode (what serving
//!   the *network* to the same database costs);
//! * `hybrid` — compiled rules with network fallback for unmatched rows.
//!
//! The `dag-vs-interpreted` group pits the DAG program (auto-parallel and
//! pinned to one thread) against the interpreted loop on the same
//! workload.
//!
//! The shared-model group scores the same 100k rows split into disjoint
//! chunks across N threads through one `Arc<ServeModel>` — the lock-free
//! scaling story (results stay bit-identical; the workspace concurrency
//! test pins that).
//!
//! In full (non-quick) mode the run **asserts** the acceptance bar:
//! compiled batch scoring must beat the interpreted per-row path by ≥ 2×
//! at 100k rows on one core. Every mode checks that the network's exact
//! tier answers like the per-row reference (`Encoder::encode_row` +
//! `Mlp::classify`) on the whole view.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nr_bench::{bench_dataset, pruned_network};
use nr_rules::Predictor;
use nr_rulex::{extract, RxConfig};
use nr_serve::{ServeMode, ServeModel};
use nr_tabular::{Dataset, DatasetView};

/// Fits the serving fixture: a rule set extracted from the standard
/// pruned network, bundled with that network into a `ServeModel`.
fn fixture() -> (ServeModel, nr_rules::RuleSet) {
    let train = bench_dataset(500);
    let (enc, data, net) = pruned_network(500);
    let rx = extract(&net, &enc, &data, train.class_names(), &RxConfig::default())
        .expect("extraction succeeds on the bench fixture");
    let model = ServeModel::new(&rx.ruleset, enc, net, ServeMode::Rules);
    (model, rx.ruleset)
}

fn workload_rows() -> usize {
    if criterion::quick_mode() {
        10_000
    } else {
        100_000
    }
}

fn serving(c: &mut Criterion) {
    let rows = workload_rows();
    let (model, ruleset) = fixture();
    let test = bench_dataset(rows);
    let view = test.view();

    let mut group = c.benchmark_group(format!("serving-{rows}-rows"));
    group.sample_size(10);
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function("compiled-rules", |b| {
        b.iter(|| model.rules().predict_batch(&view).len());
    });
    group.bench_function("interpreted-rules", |b| {
        b.iter(|| {
            (0..test.len())
                .map(|i| ruleset.predict_row(&test, i))
                .sum::<usize>()
        });
    });
    group.bench_function("network-batch", |b| {
        b.iter(|| model.network().predict_batch(&view).len());
    });
    let hybrid = model.clone().with_mode(ServeMode::Hybrid);
    group.bench_function("hybrid", |b| {
        b.iter(|| hybrid.predict_batch(&view).len());
    });
    group.finish();

    // DAG (auto threads and pinned to one) vs the interpreted loop.
    let mut group = c.benchmark_group(format!("dag-vs-interpreted-{rows}-rows"));
    group.sample_size(10);
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function("dag", |b| {
        b.iter(|| model.rules().predict_batch(&view).len());
    });
    group.bench_function("dag-1-thread", |b| {
        b.iter(|| model.rules().predict_batch_with(&view, 1, 8192).len());
    });
    group.bench_function("interpreted", |b| {
        b.iter(|| {
            (0..test.len())
                .map(|i| ruleset.predict_row(&test, i))
                .sum::<usize>()
        });
    });
    group.finish();

    if !criterion::quick_mode() {
        assert_compiled_beats_interpreted(&model, &ruleset, &test);
    }
    network_exact_vs_reference(&model, &view);
}

/// Best of five timed runs of `f`.
fn best_of_five(f: &mut dyn FnMut() -> usize) -> std::time::Duration {
    (0..5)
        .map(|_| {
            let t0 = std::time::Instant::now();
            criterion::black_box(f());
            t0.elapsed()
        })
        .min()
        .expect("non-empty reps")
}

/// Scoring the network from interval indices must answer exactly like
/// the per-row reference: encode each row, then classify it.
fn network_exact_vs_reference(model: &ServeModel, view: &DatasetView<'_>) {
    let scorer = model.network();
    let reference: Vec<usize> = (0..view.len())
        .map(|i| {
            scorer
                .network()
                .classify(&scorer.encoder().encode_row(&view.row_values(i)))
        })
        .collect();
    assert_eq!(
        scorer.predict_batch(view),
        reference,
        "the exact tier must answer exactly like the per-row reference"
    );
}

/// The acceptance bar, self-enforced like the `ingest` bench's heap and
/// checksum assertions: at 100k rows on one core, the compiled batch path
/// must be at least 2× the interpreted per-row path (best of a few reps
/// each, so scheduler noise can't fail a healthy build).
fn assert_compiled_beats_interpreted(
    model: &ServeModel,
    ruleset: &nr_rules::RuleSet,
    test: &Dataset,
) {
    let view = test.view();
    let compiled = best_of_five(&mut || model.rules().predict_batch(&view).len());
    let interpreted = best_of_five(&mut || {
        (0..test.len())
            .map(|i| ruleset.predict_row(test, i))
            .sum::<usize>()
    });
    let speedup = interpreted.as_secs_f64() / compiled.as_secs_f64();
    eprintln!(
        "compiled {compiled:.2?} vs interpreted {interpreted:.2?} -> {speedup:.2}x (bar: 2x)"
    );
    assert!(
        speedup >= 2.0,
        "compiled rule scoring must beat the interpreted path by >= 2x, got {speedup:.2}x"
    );
}

/// Multi-thread scaling: disjoint chunks of the same workload scored
/// through one shared `Arc<ServeModel>`.
fn shared_model(c: &mut Criterion) {
    let rows = workload_rows();
    let (model, _) = fixture();
    let model = Arc::new(model);
    let test = bench_dataset(rows);

    let mut group = c.benchmark_group(format!("serving-shared-arc-{rows}-rows"));
    group.sample_size(10);
    group.throughput(Throughput::Elements(rows as u64));
    for threads in [1usize, 2, 4] {
        // Disjoint contiguous chunks, one per thread.
        let chunks = test.view().chunks(threads);
        group.bench_function(format!("{threads}-threads"), |b| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = chunks
                        .iter()
                        .map(|view| {
                            let model = Arc::clone(&model);
                            let view = view.clone();
                            scope.spawn(move || model.predict_batch(&view).len())
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap())
                        .sum::<usize>()
                })
            });
        });
    }
    group.finish();
}

criterion_group!(benches, serving, shared_model);
criterion_main!(benches);
