//! The serving daemon: compiled NeuroRule models behind a coalescing
//! HTTP front end.
//!
//! The paper's §1 pitch — extracted rules are cheap to apply to large
//! databases — is only real if the serving path preserves the batch
//! economics. A naive HTTP server scores one row per request and pays
//! the fixed costs (model snapshot, dataset assembly, predicate-table
//! setup) per row; this daemon's [`BatchFormer`] coalesces concurrent
//! single-row requests into one compiled column sweep, so under load the
//! request stream is served at batch cost (the binary's `nr-daemon load`
//! harness asserts ≥2× request-at-a-time throughput).
//!
//! Layers, each its own module and separately testable:
//!
//! * [`http`] — a minimal hand-rolled HTTP/1.1 wire layer over
//!   `std::net` (the pre-approved crate set has no HTTP stack);
//! * [`router`] — verb + path → [`Route`], a pure function;
//! * handlers (private) — route → JSON answer, no socket in sight;
//! * [`batcher`] — the per-model scoring lane: capacity-or-deadline
//!   batch forming, one model snapshot per batch;
//! * [`server`] — the process shell: accept loop, keep-alive connection
//!   threads, panic-isolated handlers, socket timeouts, connection caps,
//!   and graceful drain ([`Daemon::shutdown`] → [`DrainReport`]);
//! * [`faults`] — deterministic fault injection (delays, panics) for the
//!   chaos harness, a noop in production;
//! * [`fixture`] — a deterministic swap pair of models plus traffic rows:
//!   `nr-daemon serve`'s demo model and the test fixture.
//!
//! The load and chaos harnesses are not part of this library: they are a
//! private module of the `nr-daemon` binary (`nr-daemon load [--quick]`
//! measures p50/p95/p99/rows-per-sec and proves the coalescing and
//! hot-swap claims over real sockets; `nr-daemon chaos [--quick]` asserts
//! the overload contract at 4× saturation).
//!
//! Overload protection (the SLO contract): every scoring request carries
//! a latency budget — the `X-Deadline-Ms` header, clamped, or the server
//! default. Work predicted to miss its budget is shed *before* queueing
//! (503 + `Retry-After`), bounded queues shed at depth (429), replies
//! that still miss time out (408), and every shedding answer is fast.
//! Admin routes (`/healthz`, `/stats`, model info) are never shed.
//!
//! Hot swap rides `nr_serve`'s [`ModelHandle`](nr_serve::ModelHandle):
//! `PUT /model` loads a bundle through
//! [`ServeModel::from_json`](nr_serve::ServeModel::from_json), whose
//! [`validate`](nr_serve::ServeModel::validate) is the one gate for
//! finite parameters and parts that agree (400 otherwise), admits it
//! when its schema and class list are unchanged (409 otherwise), and
//! swaps it in atomically — in-flight batches finish on their snapshot,
//! later batches see the new version, and no batch ever mixes two.
//! `POST /model/rollback` admits the archived version the same way
//! before the registry's pointer moves.

#![deny(missing_docs)]

pub mod batcher;
pub mod faults;
pub mod fixture;
pub mod http;
pub mod router;
pub mod server;

mod handlers;

pub use batcher::{BatchConfig, BatchFormer, LaneStats, SubmitError};
pub use faults::{FaultInjector, FaultPlan};
pub use handlers::{DaemonStats, HealthResponse, RegistryStats, RollbackResponse, StatsResponse};
pub use http::{Client, Request, ResponseOpts};
pub use router::{route, Route, DEFAULT_MODEL};
pub use server::{Daemon, DaemonConfig, DrainReport, OverloadConfig};
