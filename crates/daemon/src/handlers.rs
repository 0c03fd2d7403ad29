//! Endpoint handlers: everything between a parsed [`Request`] and a
//! [`Reply`]. Pure functions of server state, so each endpoint is
//! testable without a socket.
//!
//! The overload gates live here, in order: route → (admin routes bypass
//! everything) → draining 503 → fault injection → in-flight cap 429 →
//! per-route work. Scoring requests carry a deadline (the
//! `X-Deadline-Ms` header clamped to the server's bounds, or the server
//! default) that the batch-former enforces end to end.

use std::time::{Duration, Instant};

use nr_rules::Predictor;
use nr_serve::{BulkResponse, ErrorResponse, ModelInfo, ModelRegistry, ServeModel, SwapResponse};
use nr_tabular::{parse_row, AttrKind, Dataset, Value};
use serde::Serialize;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

use crate::batcher::SubmitError;
use crate::http::Request;
use crate::router::{route, Route};
use crate::server::{ModelEntry, ServerState};
use crate::LaneStats;

/// One handler answer: status, JSON body, and the connection/retry
/// directives the wire layer turns into headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Reply {
    /// HTTP status code.
    pub(crate) status: u16,
    /// JSON body.
    pub(crate) body: String,
    /// Close the connection after this response (shedding/draining).
    pub(crate) close: bool,
    /// `Retry-After` header value, seconds (shedding responses).
    pub(crate) retry_after_secs: Option<u64>,
}

impl Reply {
    fn ok(body: String) -> Reply {
        Reply {
            status: 200,
            body,
            close: false,
            retry_after_secs: None,
        }
    }

    /// The panic-barrier answer ([`crate::server`] uses it when a
    /// handler panics).
    pub(crate) fn error_500() -> Reply {
        error(500, "internal error: handler panicked")
    }
}

fn error(status: u16, message: impl Into<String>) -> Reply {
    error_full(status, message, false, None)
}

fn error_full(
    status: u16,
    message: impl Into<String>,
    close: bool,
    retry_after_ms: Option<u64>,
) -> Reply {
    Reply {
        status,
        body: serde_json::to_string(&ErrorResponse {
            error: message.into(),
            retry_after_ms: retry_after_ms.unwrap_or(0),
        })
        .unwrap_or_default(),
        close,
        retry_after_secs: retry_after_ms.map(|ms| ms.div_ceil(1_000).max(1)),
    }
}

fn ok_json<T: Serialize>(payload: &T) -> Reply {
    match serde_json::to_string(payload) {
        Ok(body) => Reply::ok(body),
        Err(e) => error(500, format!("response serialization failed: {e}")),
    }
}

/// Daemon-wide robustness counters, served next to the per-lane stats.
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub struct DaemonStats {
    /// True once a graceful drain has begun (new scoring work is being
    /// rejected).
    pub draining: bool,
    /// Live connections right now.
    pub connections: u64,
    /// Connections rejected at the connection cap or on thread-spawn
    /// failure.
    pub connections_rejected: u64,
    /// Requests being handled right now.
    pub inflight: u64,
    /// Scoring requests shed by the in-flight cap (429s).
    pub shed_inflight: u64,
    /// Scoring requests rejected while draining (503s).
    pub drain_rejected: u64,
    /// Handler panics survived (each answered with a 500).
    pub handler_panics: u64,
    /// Handler delays injected by the fault plan.
    pub faults_delays: u64,
    /// Handler panics injected by the fault plan.
    pub faults_panics: u64,
}

/// Durable-registry status for one hosted model, served in `/stats` and
/// `/healthz` when the daemon runs with a registry.
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub struct RegistryStats {
    /// Hosted model name.
    pub model: String,
    /// The registry version currently marked good (what a restart would
    /// boot).
    pub current_version: u64,
    /// Committed versions retained on disk.
    pub history_depth: u64,
    /// Files quarantined since this registry was opened.
    pub quarantined: u64,
}

/// `GET /stats` body: one entry per hosted model, name-sorted, plus the
/// daemon-wide robustness counters.
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub struct StatsResponse {
    /// Per-lane counters.
    pub models: Vec<LaneStats>,
    /// Daemon-wide overload/robustness counters.
    pub daemon: DaemonStats,
    /// Durable-registry status, one entry per registry-backed model
    /// (empty when the daemon runs without a registry).
    pub registries: Vec<RegistryStats>,
}

/// `GET /healthz` body when the daemon runs with a durable registry.
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub struct HealthResponse {
    /// Liveness (always true when this body is served).
    pub ok: bool,
    /// Registry status per registry-backed model.
    pub registry: Vec<RegistryStats>,
}

/// `POST .../rollback` success body.
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub struct RollbackResponse {
    /// The in-process deployment version now serving (same counter as
    /// [`SwapResponse::version`]).
    pub version: u64,
    /// The durable registry version rolled back to.
    pub registry_version: u64,
}

/// Routes and answers one request, applying the overload gates.
pub(crate) fn handle(state: &ServerState, request: &Request) -> Reply {
    let Some(route) = route(&request.method, &request.path) else {
        return error(
            404,
            format!("no route for {} {}", request.method, request.path),
        );
    };
    let ctl = &state.ctl;
    if !route.is_admin() {
        // Draining: reject new scoring/swap work outright; the 503
        // closes the connection so drains converge.
        if ctl.is_draining() {
            ctl.drain_rejected.fetch_add(1, Ordering::Relaxed);
            return error_full(503, "daemon is draining", true, Some(1_000));
        }
        // Fault injection (noop in production plans). Runs inside the
        // panic barrier: an injected panic answers 500 like a real one.
        ctl.faults.on_request();
        // Admission: bound the number of concurrently handled scoring
        // requests. Admin routes stay served so operators can watch a
        // shedding daemon.
        if ctl.inflight.load(Ordering::SeqCst) > ctl.overload.max_inflight {
            ctl.shed_inflight.fetch_add(1, Ordering::Relaxed);
            return error_full(429, "too many requests in flight", false, Some(1_000));
        }
    }
    match route {
        Route::Health => {
            if ctl.is_draining() {
                Reply {
                    status: 503,
                    body: r#"{"ok":false,"draining":true}"#.to_string(),
                    close: false,
                    retry_after_secs: None,
                }
            } else {
                // Registry-backed daemons surface durable status in the
                // liveness probe; without a registry the body stays the
                // bare `{"ok":true}` probes expect.
                let registry = registry_stats(state);
                if registry.is_empty() {
                    Reply::ok(r#"{"ok":true}"#.to_string())
                } else {
                    ok_json(&HealthResponse { ok: true, registry })
                }
            }
        }
        Route::Stats => stats(state),
        Route::Predict { model } => with_model(state, &model, |e| {
            predict(e, &request.body, deadline_for(state, request))
        }),
        Route::PredictBulk { model } => with_model(state, &model, |e| {
            predict_bulk(e, &request.body, deadline_for(state, request))
        }),
        Route::ModelInfo { model } => with_model(state, &model, |e| {
            ok_json(&ModelInfo::describe(&e.handle.load()))
        }),
        Route::ModelSwap { model } => with_model(state, &model, |e| swap(e, &request.body)),
        Route::ModelRollback { model } => with_model(state, &model, rollback),
    }
}

/// Resolves the request's latency budget: the `X-Deadline-Ms` header
/// clamped to the server's maximum, or the server default. A zero
/// budget is honored literally — the request is already over budget and
/// sheds immediately.
fn deadline_for(state: &ServerState, request: &Request) -> Instant {
    let overload = &state.ctl.overload;
    let budget = match request.deadline_ms {
        Some(ms) => Duration::from_millis(ms).min(overload.max_deadline),
        None => overload.default_deadline,
    };
    Instant::now() + budget
}

fn with_model(state: &ServerState, name: &str, f: impl FnOnce(&ModelEntry) -> Reply) -> Reply {
    match state.models.get(name) {
        Some(entry) => f(entry),
        None => error(404, format!("unknown model {name:?}")),
    }
}

fn stats(state: &ServerState) -> Reply {
    let mut models: Vec<LaneStats> = state
        .models
        .iter()
        .map(|(name, entry)| entry.lane.stats(name, entry.handle.version()))
        .collect();
    models.sort_by(|a, b| a.model.cmp(&b.model));
    let ctl = &state.ctl;
    let daemon = DaemonStats {
        draining: ctl.is_draining(),
        connections: ctl.connections.load(Ordering::SeqCst) as u64,
        connections_rejected: ctl.connections_rejected.load(Ordering::Relaxed),
        inflight: ctl.inflight.load(Ordering::SeqCst) as u64,
        shed_inflight: ctl.shed_inflight.load(Ordering::Relaxed),
        drain_rejected: ctl.drain_rejected.load(Ordering::Relaxed),
        handler_panics: ctl.handler_panics.load(Ordering::Relaxed),
        faults_delays: ctl.faults.delays_injected(),
        faults_panics: ctl.faults.panics_injected(),
    };
    ok_json(&StatsResponse {
        models,
        daemon,
        registries: registry_stats(state),
    })
}

/// Snapshots every registry-backed model's durable status, name-sorted;
/// empty when the daemon runs without a registry.
fn registry_stats(state: &ServerState) -> Vec<RegistryStats> {
    let mut stats: Vec<RegistryStats> = state
        .models
        .iter()
        .filter_map(|(name, entry)| {
            let registry = lock_registry(entry.registry.as_ref()?);
            Some(RegistryStats {
                model: name.clone(),
                current_version: registry.current_version().unwrap_or(0),
                history_depth: registry.history_depth() as u64,
                quarantined: registry.quarantined(),
            })
        })
        .collect();
    stats.sort_by(|a, b| a.model.cmp(&b.model));
    stats
}

/// Locks a model's registry, recovering from poisoning: a handler that
/// panicked mid-commit already answered 500 and the registry's on-disk
/// protocol is atomic, so later requests can keep using it.
fn lock_registry(registry: &Mutex<ModelRegistry>) -> std::sync::MutexGuard<'_, ModelRegistry> {
    match registry.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Single-row predict: parse the CSV body against the deployed schema,
/// then go through the batch-former (this is the request the daemon
/// coalesces — and the one the deadline/shedding contract protects).
fn predict(entry: &ModelEntry, body: &str, deadline: Instant) -> Reply {
    let body = body.trim_end_matches(['\r', '\n']);
    // Parsing uses the current snapshot's schema. Swap admission pins the
    // schema (see `swap`), so the schema cannot change between this parse
    // and the lane's scoring snapshot.
    let snapshot = entry.handle.load();
    let values = match parse_row(snapshot.model().network().encoder().schema(), body) {
        Ok(values) => values,
        Err(e) => return error(400, format!("bad row: {e}")),
    };
    drop(snapshot);
    match entry.lane.submit_by(values, deadline) {
        Ok(response) => ok_json(&response),
        Err(SubmitError::Rejected(msg)) => error(400, msg),
        Err(e @ SubmitError::QueueFull { retry_after_ms }) => {
            error_full(429, e.to_string(), false, Some(retry_after_ms.max(1)))
        }
        Err(e @ SubmitError::WouldMissDeadline { .. }) => error(503, e.to_string()),
        Err(SubmitError::DeadlineExceeded) => error(408, SubmitError::DeadlineExceeded.to_string()),
        Err(SubmitError::LaneClosed) => error(503, SubmitError::LaneClosed.to_string()),
    }
}

/// Rows scored per deadline check in [`predict_bulk`]. Thirty-two of the
/// network scorer's 1,024-row chunks, so a network or hybrid slice still
/// fans out across the worker pool; checks land every few milliseconds
/// of scoring, which is plenty against deadlines measured in hundreds.
const BULK_CHUNK_ROWS: usize = 32 * 1024;

/// Bulk predict: the body is already a batch (one CSV row per line,
/// blank lines ignored), so it skips the batch-former's queue and scores
/// directly — against exactly one model snapshot. The request's deadline
/// is enforced *during* scoring: oversized bodies score in
/// [`BULK_CHUNK_ROWS`]-row slices with the budget checked between
/// slices, so a blown deadline answers 408 mid-flight instead of
/// holding the handler thread until the socket times out.
fn predict_bulk(entry: &ModelEntry, body: &str, deadline: Instant) -> Reply {
    let snapshot = entry.handle.load(); // ONE load for the whole request
    let model = snapshot.model();
    let schema = model.network().encoder().schema();
    let mut ds = Dataset::new(schema.clone(), model.rules().class_names().to_vec());
    for (lineno, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let values = match parse_row(schema, line) {
            Ok(values) => values,
            Err(e) => return error(400, format!("line {}: {e}", lineno + 1)),
        };
        if let Err(e) = ds.push_unlabeled(values) {
            return error(400, format!("line {}: {e}", lineno + 1));
        }
    }
    if ds.is_empty() {
        return error(400, "empty bulk body: expected one CSV row per line");
    }
    let n = ds.len();
    let view = ds.view();
    let mut classes = Vec::with_capacity(n);
    let mut start = 0;
    while start < n {
        // Checked before the first slice too: a zero budget is honored
        // literally, same as single-row predict.
        if Instant::now() >= deadline {
            return error(
                408,
                format!("deadline exceeded after scoring {start} of {n} bulk rows"),
            );
        }
        let end = (start + BULK_CHUNK_ROWS).min(n);
        if (start, end) == (0, n) {
            // Whole body fits one slice: keep the contiguous full-view
            // fast path instead of a gathered sub-view.
            model.predict_batch_into(&view, &mut classes);
        } else {
            model.predict_batch_into(&ds.view_of((start..end).collect()), &mut classes);
        }
        start = end;
    }
    ok_json(&BulkResponse {
        version: snapshot.version(),
        rows: classes.len(),
        classes,
    })
}

/// Rows scored by the canary check before a swap is admitted.
const CANARY_ROWS: usize = 16;

/// Builds the deterministic canary batch for `model`'s schema: synthetic
/// rows spanning each column's shape (varied numerics, every nominal
/// category cycled). Pure function of the schema, so a given deployment
/// always faces the same canary.
fn canary_batch(model: &ServeModel) -> Result<Dataset, String> {
    let schema = model.network().encoder().schema();
    let mut ds = Dataset::new(schema.clone(), model.rules().class_names().to_vec());
    for i in 0..CANARY_ROWS {
        let row: Vec<Value> = schema
            .attributes()
            .iter()
            .enumerate()
            .map(|(a, attr)| match &attr.kind {
                // A spread of magnitudes either side of zero, different
                // per column, hitting rule thresholds' neighborhoods only
                // incidentally — the canary tests the engine, not the
                // model's accuracy.
                AttrKind::Numeric => {
                    let v = ((i * 31 + a * 17) % 97) as f64;
                    Value::Num((v - 48.0) * (10f64).powi((a % 5) as i32 - 1))
                }
                AttrKind::Nominal { categories } => {
                    Value::Nominal(((i + a) % categories.len().max(1)) as u32)
                }
            })
            .collect();
        ds.push_unlabeled(row)
            .map_err(|e| format!("canary row rejected by schema: {e}"))?;
    }
    Ok(ds)
}

/// Scores the canary batch against `model` and checks the answers are
/// sane: no panic, every class index in range, and bit-identical across
/// two runs. `Err` explains what failed (the handler answers 409).
fn canary_validate(model: &ServeModel) -> Result<(), String> {
    let ds = canary_batch(model)?;
    let view = ds.view();
    let score = || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| model.predict_batch(&view)))
            .map_err(|_| "model panicked scoring the canary batch".to_string())
    };
    let first = score()?;
    let n_classes = model.rules().class_names().len();
    if let Some(&bad) = first.iter().find(|&&c| c >= n_classes) {
        return Err(format!(
            "model answered class index {bad} with only {n_classes} classes"
        ));
    }
    if score()? != first {
        return Err("model is nondeterministic on the canary batch".to_string());
    }
    Ok(())
}

/// Hot swap: parse the incoming bundle, admit it (finite parameters,
/// identical schema and class list — so queued rows parsed against the
/// old deployment stay valid), score it against the deterministic canary
/// batch (409 on panic, out-of-range class, or nondeterminism), commit
/// it durably to the model registry when one is configured, and only
/// then swap atomically. The commit precedes the swap so a crash right
/// after the 200 reboots into the version the client was told is live.
fn swap(entry: &ModelEntry, body: &str) -> Reply {
    let incoming = match ServeModel::from_json(body) {
        Ok(model) => model,
        Err(e) => return error(400, format!("bad model bundle: {e}")),
    };
    if let Err(e) = incoming.validate_finite() {
        return error(400, format!("refusing swap: {e}"));
    }
    let current = entry.handle.load();
    if incoming.network().encoder().schema() != current.model().network().encoder().schema() {
        return error(
            409,
            "refusing swap: incoming model's schema differs from the deployed one",
        );
    }
    if incoming.rules().class_names() != current.model().rules().class_names() {
        return error(
            409,
            "refusing swap: incoming model's class list differs from the deployed one",
        );
    }
    drop(current);
    if let Err(why) = canary_validate(&incoming) {
        return error(
            409,
            format!("refusing swap: canary validation failed: {why}"),
        );
    }
    if let Some(registry) = &entry.registry {
        if let Err(e) = lock_registry(registry).commit(&incoming) {
            return error(500, format!("refusing swap: durable commit failed: {e}"));
        }
    }
    let version = entry.handle.swap(incoming);
    ok_json(&SwapResponse { version })
}

/// `POST .../rollback`: step the durable registry back to the previous
/// good version (quarantining corrupt intermediates) and swap it in.
fn rollback(entry: &ModelEntry) -> Reply {
    let Some(registry) = &entry.registry else {
        return error(
            409,
            "rollback unavailable: daemon is running without a model registry",
        );
    };
    let (registry_version, model) = match lock_registry(registry).rollback() {
        Ok(rolled) => rolled,
        Err(nr_serve::ServeError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
            return error(409, format!("rollback refused: {e}"));
        }
        Err(e) => return error(500, format!("rollback failed: {e}")),
    };
    // The registry only ever held admitted models, but re-check the swap
    // invariants anyway — parsing contracts must hold for queued rows.
    let current = entry.handle.load();
    if model.network().encoder().schema() != current.model().network().encoder().schema()
        || model.rules().class_names() != current.model().rules().class_names()
    {
        return error(
            409,
            "rollback refused: archived model no longer matches the deployed schema",
        );
    }
    drop(current);
    let version = entry.handle.swap(model);
    ok_json(&RollbackResponse {
        version,
        registry_version,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_serve::ServeMode;

    fn model_with_default_class(default: usize) -> ServeModel {
        let encoder = nr_encode::Encoder::agrawal();
        let net = nr_nn::Mlp::random(encoder.n_inputs(), 4, 2, 3);
        let rules = nr_rules::RuleSet::new(Vec::new(), default, vec!["A".into(), "B".into()]);
        ServeModel::new(&rules, encoder, net, ServeMode::Rules)
    }

    #[test]
    fn canary_accepts_a_sane_model() {
        canary_validate(&model_with_default_class(1)).expect("well-formed model passes");
    }

    #[test]
    fn canary_rejects_out_of_range_class_answers() {
        // An empty rule table answers its default class for every row; a
        // default outside the class list is exactly the "plausible JSON,
        // broken model" bundle the canary exists to keep out.
        let why = canary_validate(&model_with_default_class(7))
            .expect_err("out-of-range answers must fail the canary");
        assert!(why.contains("class index"), "names the failure: {why}");
    }

    #[test]
    fn canary_batch_is_deterministic() {
        let model = model_with_default_class(0);
        let a = canary_batch(&model).unwrap();
        let b = canary_batch(&model).unwrap();
        assert_eq!(a.len(), CANARY_ROWS);
        for i in 0..a.len() {
            for c in 0..a.schema().attributes().len() {
                assert_eq!(a.value(i, c), b.value(i, c), "row {i} col {c}");
            }
        }
    }
}
