//! Serving layer: compile a fitted NeuroRule model into immutable,
//! `Arc`-shareable batch-scoring engines.
//!
//! The paper's §1 pitch is that extracted rules are *cheap to apply to
//! large databases*. This crate makes that operational:
//!
//! * [`CompiledRules`] lowers a [`nr_rules::RuleSet`] into a deduplicated
//!   predicate table and a shared-prefix decision DAG, executed as a
//!   branch-free bitmap program with fused per-column sweeps, run on the
//!   caller's thread — first-match semantics resolved per batch,
//!   bit-identical to the interpreted `RuleSet::predict_row` path;
//! * [`NetworkScorer`] packages encoder + pruned MLP behind the same
//!   batch [`Predictor`](nr_rules::Predictor) trait, scoring from each
//!   attribute's interval index straight into the set-bit forward pass
//!   (no dense encode), bit-identical to the per-row reference
//!   (`Encoder::encode_row`, then `Mlp::forward`);
//! * [`ServeModel`] bundles both behind a [`ServeMode`] dispatch (rules /
//!   network / hybrid rules-with-network-fallback) with JSON save/load,
//!   so a serving process starts from a file — no retraining, no
//!   recompilation. Loading validates that the parts agree
//!   ([`ServeModel::validate`]), so a loaded bundle can be scored.
//!
//! Every engine is immutable after construction apart from write-once
//! derived caches (the rule DAG program, the interval tables): wrap one
//! in an `Arc` and score from any number of threads with results
//! bit-identical to single-threaded runs.
//!
//! ```no_run
//! use nr_rules::Predictor;
//! use nr_serve::{ServeModel, ServeMode};
//! # let (ruleset, encoder, network): (nr_rules::RuleSet, nr_encode::Encoder, nr_nn::Mlp) = todo!();
//! # let database: nr_tabular::Dataset = todo!();
//!
//! let model = ServeModel::new(&ruleset, encoder, network, ServeMode::Rules);
//! model.save("model.json").unwrap();
//! let served = std::sync::Arc::new(ServeModel::load("model.json").unwrap());
//! let classes = served.predict_batch(&database.view());
//! ```

#![deny(missing_docs)]

mod api;
mod bitmap;
mod compiled;
mod dag;
mod model;
mod program;
pub mod registry;
mod scorer;
mod swap;

pub use api::{BulkResponse, ErrorResponse, ModelInfo, PredictResponse, SwapResponse};
pub use compiled::CompiledRules;
pub use model::{ServeError, ServeMode, ServeModel};
pub use registry::{bundle_file_name, ModelRegistry, RegistryEntry, DEFAULT_RETAIN};
pub use scorer::NetworkScorer;
pub use swap::{ModelHandle, VersionedModel};
