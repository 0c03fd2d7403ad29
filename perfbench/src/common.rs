//! Pieces every workload shares: run configuration, the result report,
//! order statistics, repeated set-up, input generation and hybrid scoring.

use std::path::PathBuf;
use std::time::Instant;

use nr_datagen::{Function, Generator};
use nr_rules::Predictor;
use nr_serve::ServeModel;
use nr_tabular::{ClassId, Dataset, DatasetView};

use crate::trace::Tracer;

/// Generator seed of every *training* set. Strict pruning's work varies
/// about 2.5x between training draws (9 to 23 s for one F1+F2+F4 pass
/// over six draws on a 2-core host), more than any run length can
/// average out, so training data is pinned and `--seed` varies the data
/// each model is evaluated and served on.
const TRAIN_SEED: u64 = 5;

/// The paper's perturbation factor.
pub const PERTURBATION: f64 = 0.05;

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    /// Shrinks every input to a few seconds of work (self-test).
    pub smoke: bool,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub work_dir: PathBuf,
    pub cores: usize,
}

impl Config {
    /// A seed for one input stream of this run, distinct per `stream`.
    pub fn stream_seed(&self, stream: u64) -> u64 {
        // splitmix64 finalizer: nearby run seeds give unrelated streams.
        let mut z = self
            .seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn training_rows(&self) -> usize {
        if self.smoke {
            300
        } else {
            1000
        }
    }
}

/// What a workload measured. `metrics` holds both end-to-end and
/// per-layer values; `main` prints the set the run was asked for.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// Records one checked outcome.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let note = what();
            eprintln!("mismatch: {note}");
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }
}

/// The `q`-quantile (0..=1) by linear interpolation; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Runs `setup` at least three times and until a second has gone (at
/// most 100 times), keeping the last result; returns it with the median
/// set-up time. Earlier results are dropped outside the timed region.
/// A short set-up thus repeats past the slow first milliseconds of a
/// fresh process.
pub fn repeated_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let value = setup(times.len())?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= 3 && (started.elapsed().as_secs_f64() >= 1.0 || times.len() >= 100) {
            return Ok((value, median(&times)));
        }
    }
}

/// The pinned training set for `function`.
pub fn training_set(config: &Config, function: Function) -> Dataset {
    Generator::new(TRAIN_SEED)
        .with_perturbation(PERTURBATION)
        .dataset(function, config.training_rows())
}

/// Held-out labelled rows for `function`, drawn from the run seed.
pub fn held_out(config: &Config, stream: u64, function: Function, rows: usize) -> Dataset {
    Generator::new(config.stream_seed(stream))
        .with_perturbation(PERTURBATION)
        .dataset(function, rows)
}

/// Share of `predicted` equal to the view's labels.
pub fn accuracy(predicted: &[ClassId], view: &DatasetView<'_>) -> f64 {
    let hits = predicted
        .iter()
        .zip(view.labels())
        .filter(|(p, l)| **p == *l)
        .count();
    hits as f64 / predicted.len().max(1) as f64
}

/// Hybrid scoring of one view. Untraced, this is the production call
/// (`ServeModel::predict_batch` in `Hybrid` mode). Traced, it replays the
/// same steps from public parts so each is timed: compiled rules with
/// their match flags, then encoder and network over the rows no rule
/// claimed.
pub fn score_hybrid(model: &ServeModel, view: &DatasetView<'_>, tracer: &Tracer) -> Vec<ClassId> {
    if !tracer.enabled() {
        return model.predict_batch(view);
    }
    tracer.span("serve.hybrid", || {
        let scored = tracer.span("serve.rules", || model.rules().predict_scored_batch(view));
        let mut classes: Vec<ClassId> = scored.iter().map(|s| s.class).collect();
        let positions: Vec<usize> = (0..scored.len())
            .filter(|&i| scored[i].score == 0.0)
            .collect();
        if !positions.is_empty() {
            let sub = view.subview(positions.iter().map(|&p| view.row_id(p)).collect());
            let network = model.network();
            let fallback = tracer.span("serve.network", || {
                let encoded = tracer.span("encode.encode", || network.encoder().encode_view(&sub));
                tracer.span("nn.forward", || network.network().classify_batch(&encoded))
            });
            for (&p, c) in positions.iter().zip(fallback) {
                classes[p] = c;
            }
        }
        tracer.count("serve.network_rows", positions.len() as f64);
        classes
    })
}

/// Per-layer metrics derived from spans and counters: `(metric, span or
/// counter, kind, on the scoring path)`. Times and counts are per
/// operation; rates are work over busy time.
const SPAN_METRICS: &[(&str, &str, Kind, bool)] = &[
    (
        "tabular.csv_write_s",
        "tabular.csv_write",
        Kind::Seconds,
        false,
    ),
    ("store.ingest_s", "store.ingest", Kind::Seconds, true),
    (
        "store.ingest_rows_per_s",
        "store.rows/store.ingest",
        Kind::Rate,
        true,
    ),
    ("store.segments", "store.segments", Kind::Count, true),
    ("encode.encode_s", "encode.encode", Kind::Seconds, true),
    ("nn.train_s", "nn.train", Kind::Seconds, false),
    ("nn.train_iters", "nn.train_iters", Kind::Count, false),
    (
        "nn.objective_evals",
        "nn.objective_evals",
        Kind::Count,
        false,
    ),
    ("nn.forward_s", "nn.forward", Kind::Seconds, true),
    ("prune.s", "prune", Kind::Seconds, false),
    ("prune.rounds", "prune.rounds", Kind::Count, false),
    ("prune.retrains", "prune.retrains", Kind::Count, false),
    ("prune.links_left", "prune.links_left", Kind::Count, false),
    ("rulex.extract_s", "rulex.extract", Kind::Seconds, false),
    ("rulex.bit_rules", "rulex.bit_rules", Kind::Count, false),
    ("rules.reduce_s", "rules.reduce", Kind::Seconds, false),
    ("rules.count", "rules.count", Kind::Count, false),
    ("serve.compile_s", "serve.compile", Kind::Seconds, false),
    (
        "serve.registry_commit_s",
        "serve.registry_commit",
        Kind::Seconds,
        false,
    ),
    ("serve.rules_s", "serve.rules", Kind::Seconds, true),
    ("serve.network_s", "serve.network", Kind::Seconds, true),
    ("serve.hybrid_s", "serve.hybrid", Kind::Seconds, true),
    (
        "serve.network_rows_per_s",
        "serve.network_rows/serve.network",
        Kind::Rate,
        true,
    ),
];

#[derive(Clone, Copy)]
enum Kind {
    Seconds,
    Count,
    Rate,
}

/// Sets the span-derived per-layer metrics from `tracer`, per `ops`
/// operations: all of them, or only the scoring path's when
/// `scoring_only` (workloads whose mining happens in set-up measure the
/// scoring layers on their own operations).
pub fn layer_metrics(report: &mut Report, tracer: &Tracer, ops: f64, scoring_only: bool) {
    for &(metric, source, kind, scoring) in SPAN_METRICS {
        if scoring_only && !scoring {
            continue;
        }
        let value = match kind {
            Kind::Seconds => tracer.total_s(source) / ops,
            Kind::Count => tracer.counter(source) / ops,
            Kind::Rate => {
                let (work, busy) = source.split_once('/').expect("rate source is work/span");
                let busy = tracer.total_s(busy);
                if busy > 0.0 {
                    tracer.counter(work) / busy
                } else {
                    0.0
                }
            }
        };
        report.set(metric, value);
    }
}

/// Order-sensitive checksum of a class vector.
pub fn class_checksum(classes: &[ClassId], mut acc: u64) -> u64 {
    for &c in classes {
        acc = acc.wrapping_mul(0x100_0000_01B3) ^ (c as u64 + 1);
    }
    acc
}
