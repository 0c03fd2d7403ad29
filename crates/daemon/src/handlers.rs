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
use nr_serve::{
    BulkResponse, ErrorResponse, ModelInfo, ModelRegistry, ServeError, ServeModel, SwapResponse,
};
use nr_tabular::{parse_row, Dataset};
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

/// The deployment check every swap and rollback passes on top of
/// [`ServeModel::validate`]: the incoming model keeps the deployed
/// schema and class list, so rows queued against the current deployment
/// stay valid for the next. `Err` says what differs.
fn admit(current: &ServeModel, incoming: &ServeModel) -> Result<(), &'static str> {
    if incoming.network().encoder().schema() != current.network().encoder().schema() {
        return Err("its schema differs from the deployed one");
    }
    if incoming.rules().class_names() != current.rules().class_names() {
        return Err("its class list differs from the deployed one");
    }
    Ok(())
}

/// Hot swap: parse the incoming bundle ([`ServeModel::from_json`] runs
/// [`ServeModel::validate`], so a non-finite parameter or disagreeing
/// parts answer 400), [`admit`] it against the deployment (409 on a
/// changed schema or class list), commit it durably to the model
/// registry when one is configured, and only then swap atomically. The
/// commit precedes the swap so a crash right after the 200 reboots into
/// the version the client was told is live.
fn swap(entry: &ModelEntry, body: &str) -> Reply {
    let incoming = match ServeModel::from_json(body) {
        Ok(model) => model,
        Err(e) => return error(400, format!("bad model bundle: {e}")),
    };
    if let Err(why) = admit(entry.handle.load().model(), &incoming) {
        return error(409, format!("refusing swap: {why}"));
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
/// good version (quarantining corrupt intermediates), [`admit`] it, and
/// swap it in. A refused version (409) leaves the registry's pointer
/// where it was, so a restart boots what is serving now.
fn rollback(entry: &ModelEntry) -> Reply {
    let Some(registry) = &entry.registry else {
        return error(
            409,
            "rollback unavailable: daemon is running without a model registry",
        );
    };
    let current = entry.handle.load();
    let rolled = lock_registry(registry).rollback(|model| {
        admit(current.model(), model).map_err(|why| ServeError::Invalid(why.to_string()))
    });
    let (registry_version, model) = match rolled {
        Ok(rolled) => rolled,
        Err(ServeError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
            return error(409, format!("rollback refused: {e}"));
        }
        Err(ServeError::Invalid(why)) => {
            return error(409, format!("rollback refused: archived model: {why}"));
        }
        Err(e) => return error(500, format!("rollback failed: {e}")),
    };
    let version = entry.handle.swap(model);
    ok_json(&RollbackResponse {
        version,
        registry_version,
    })
}
