//! Shared fixtures for the Criterion benchmarks.
//!
//! The benches live in `benches/`; this library only provides the common
//! setup (datasets, trained networks) so each bench measures exactly one
//! phase of the pipeline.

#![deny(missing_docs)]

use nr_datagen::{Function, Generator};
use nr_encode::{EncodedDataset, Encoder};
use nr_nn::{Mlp, Trainer};
use nr_prune::{prune, PruneConfig};
use nr_tabular::Dataset;

/// Standard bench dataset: Function 2, 5% perturbation.
pub fn bench_dataset(n: usize) -> Dataset {
    Generator::new(42)
        .with_perturbation(0.05)
        .dataset(Function::F2, n)
}

/// Encoded version of [`bench_dataset`].
pub fn bench_encoded(n: usize) -> (Encoder, EncodedDataset) {
    let enc = Encoder::agrawal();
    let data = enc.encode_dataset(&bench_dataset(n));
    (enc, data)
}

/// A freshly initialized paper-shaped network (87 × 4 × 2).
pub fn fresh_network(seed: u64) -> Mlp {
    Mlp::random(87, 4, 2, seed)
}

/// A trained (unpruned) network on `n` tuples.
pub fn trained_network(n: usize) -> (Encoder, EncodedDataset, Mlp) {
    let (enc, data) = bench_encoded(n);
    let mut net = fresh_network(12345);
    Trainer::default().train(&mut net, &data);
    (enc, data, net)
}

/// A trained and pruned network on `n` tuples.
pub fn pruned_network(n: usize) -> (Encoder, EncodedDataset, Mlp) {
    let (enc, data, mut net) = trained_network(n);
    prune(&mut net, &data, &PruneConfig::default());
    (enc, data, net)
}
