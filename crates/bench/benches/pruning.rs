//! Phase-2 benchmark: the NP pruning loop on a trained network.
//!
//! Two workload groups (the 300-tuple quick fixture and the paper-sized
//! 1000-tuple fixture), each pruning the same trained network with a short
//! retraining budget: a full retrain after every removal, a full saliency
//! rescan per round and a whole-network rollback checkpoint.
//!
//! Throughput is reported as accepted rounds/sec. `NR_BENCH_QUICK=1`
//! shrinks samples and skips the 1000-tuple group; `BENCH_pruning.json` is
//! written either way.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nr_bench::trained_network;
use nr_nn::{Trainer, TrainingAlgorithm};
use nr_opt::Bfgs;
use nr_prune::{prune, PruneConfig};

/// Short retraining budget keeping a single bench iteration tractable.
fn bench_config() -> PruneConfig {
    PruneConfig {
        retrain: Trainer::new(TrainingAlgorithm::Bfgs(
            Bfgs::default().with_max_iters(30).with_grad_tol(1e-3),
        )),
        ..PruneConfig::default()
    }
}

fn pruning(c: &mut Criterion) {
    let sizes: &[usize] = if criterion::quick_mode() {
        &[300]
    } else {
        &[300, 1000]
    };
    let config = bench_config();
    for &n in sizes {
        let (_, data, net) = trained_network(n);
        let mut group = c.benchmark_group(format!("pruning-f2-{n}"));
        group.sample_size(10);
        // Rounds are a property of the run, not the input; measure once so
        // the group can report rounds/sec.
        let rounds = {
            let mut candidate = net.clone();
            prune(&mut candidate, &data, &config).rounds
        };
        group.throughput(Throughput::Elements(rounds as u64));
        group.bench_function("strict", |b| {
            b.iter(|| {
                let mut candidate = net.clone();
                prune(&mut candidate, &data, &config)
            });
        });
        group.finish();
    }
}

criterion_group!(benches, pruning);
criterion_main!(benches);
