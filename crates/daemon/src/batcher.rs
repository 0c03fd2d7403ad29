//! The batch-former: the daemon's core. Concurrent single-row predict
//! requests are coalesced into one compiled column sweep instead of being
//! scored one at a time.
//!
//! Every hosted model owns one scoring lane: an MPSC queue plus a
//! dedicated thread. Handler threads parse a row, [`submit`](BatchFormer::submit)
//! it, and block on a private reply channel. The lane thread drains the
//! queue into a batch until **capacity** (`max_batch` rows) or a
//! self-arming **deadline** (`max_delay` after the first queued row,
//! armed only while traffic is concurrent — see the lane loop's drain
//! policy) — then scores the whole batch through the compiled engines
//! and scatters the answers back.
//!
//! Why this wins: a single-row predict pays fixed costs that dwarf the
//! per-row sweep — model snapshot load, dataset assembly, predicate
//! table setup. Coalescing amortizes all of it over the batch; under
//! concurrent load the lane forms large batches and per-request cost
//! collapses (the load harness asserts ≥2× over request-at-a-time).
//!
//! **Overload contract.** The lane never queues work it cannot answer in
//! time, and never blocks a handler past its budget:
//!
//! * the queue is **bounded** (`max_queue`): at depth, submits are shed
//!   immediately ([`SubmitError::QueueFull`] → 429 upstairs);
//! * each submit carries a **deadline**; if the lane's predicted wait
//!   (queue depth × EWMA batch service time) would blow it, the submit
//!   is shed immediately ([`SubmitError::WouldMissDeadline`] → 503)
//!   instead of queueing doomed work;
//! * the reply wait is **bounded by the deadline**: if the answer has
//!   not arrived by then, the handler gets
//!   [`SubmitError::DeadlineExceeded`] (→ 408) rather than blocking
//!   forever, and the lane sheds the expired row **at dispatch time** —
//!   the moment it pops the row toward a batch — so an expired backlog
//!   never costs a snapshot load or a score.
//!
//! Version atomicity: the lane loads **exactly one** model snapshot per
//! batch, so every row coalesced together is answered by one model
//! version — a hot swap lands between batches, never inside one.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nr_rules::Predictor;
use nr_serve::{ModelHandle, PredictResponse};
use nr_tabular::{Dataset, Value};
use serde::{Deserialize, Serialize};

/// Coalescing and admission policy of a scoring lane.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Capacity threshold: a forming batch is dispatched as soon as it
    /// holds this many rows. `1` disables coalescing (request-at-a-time)
    /// — the load harness's baseline.
    pub max_batch: usize,
    /// Deadline threshold: a forming batch is dispatched this long after
    /// its first row arrived, full or not. Only applies while the lane
    /// sees concurrent traffic (the window self-arms after a multi-row
    /// batch); a lone client's requests dispatch immediately.
    pub max_delay: Duration,
    /// Queue bound: submits beyond this many pending rows are shed with
    /// [`SubmitError::QueueFull`] instead of queueing — the lane
    /// degrades to bounded-latency partial service, never an unbounded
    /// backlog.
    pub max_queue: usize,
    /// Fault-injection knob (see [`crate::faults`]): stretch every
    /// batch's service time by this much, turning the lane into a
    /// calibrated-capacity server for the chaos harness.
    /// `Duration::ZERO` (the default) injects nothing.
    pub score_delay: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 64,
            max_delay: Duration::from_micros(250),
            max_queue: 1024,
            score_delay: Duration::ZERO,
        }
    }
}

/// Budget a deadline-less [`BatchFormer::submit`] runs under — large
/// enough to never shed in tests and tooling, small enough that nothing
/// can block a thread forever.
const DEFAULT_SUBMIT_BUDGET: Duration = Duration::from_secs(60);

/// Why a submitted row got no prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The row did not fit the model's schema (client error).
    Rejected(String),
    /// The scoring lane has shut down (server is stopping).
    LaneClosed,
    /// The lane's queue is at its bound; shed immediately. Carries the
    /// predicted milliseconds until the backlog drains (a `Retry-After`
    /// hint).
    QueueFull {
        /// Predicted milliseconds until the current backlog is scored.
        retry_after_ms: u64,
    },
    /// Queueing would blow the request's deadline; shed immediately
    /// rather than enqueue doomed work.
    WouldMissDeadline {
        /// Predicted wait in the queue, milliseconds.
        predicted_wait_ms: u64,
    },
    /// The deadline passed before the answer arrived (the row is dropped
    /// from the lane's batch when it gets there).
    DeadlineExceeded,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected(msg) => write!(f, "row rejected: {msg}"),
            SubmitError::LaneClosed => write!(f, "scoring lane is shut down"),
            SubmitError::QueueFull { retry_after_ms } => write!(
                f,
                "scoring queue is full (predicted drain {retry_after_ms} ms)"
            ),
            SubmitError::WouldMissDeadline { predicted_wait_ms } => write!(
                f,
                "predicted queue wait of {predicted_wait_ms} ms would miss the deadline"
            ),
            SubmitError::DeadlineExceeded => write!(f, "deadline exceeded before scoring"),
        }
    }
}

/// One queued single-row request: the parsed row, its deadline, and the
/// channel the lane scatters the answer back through.
struct Pending {
    values: Vec<Value>,
    deadline: Instant,
    reply: mpsc::Sender<Result<PredictResponse, SubmitError>>,
}

/// Monotonic counters a lane maintains; read by the `/stats` endpoint.
#[derive(Default)]
struct LaneCounters {
    requests: AtomicU64,
    batches: AtomicU64,
    rows: AtomicU64,
    largest_batch: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_deadline: AtomicU64,
    timed_out: AtomicU64,
    expired_in_queue: AtomicU64,
    /// EWMA of batch service time, nanoseconds (0 until the first batch).
    service_ewma_ns: AtomicU64,
}

/// Snapshot of one lane's counters, as served by `GET /stats`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaneStats {
    /// Hosted model name.
    pub model: String,
    /// Model version currently serving.
    pub version: u64,
    /// Single-row requests submitted to the lane.
    pub requests: u64,
    /// Batches the lane dispatched.
    pub batches: u64,
    /// Rows scored across all batches (requests minus schema rejects).
    pub rows: u64,
    /// Largest batch formed so far — the direct measure of coalescing.
    pub largest_batch: u64,
    /// Submits shed because the queue was at its bound (429s).
    #[serde(default)]
    pub shed_queue_full: u64,
    /// Submits shed because the predicted wait would miss the deadline
    /// (503s).
    #[serde(default)]
    pub shed_deadline: u64,
    /// Submits whose reply wait timed out at the deadline (408s).
    #[serde(default)]
    pub timed_out: u64,
    /// Rows the lane shed because their deadline had already passed —
    /// normally at dispatch time (popping toward a batch), with a
    /// score-time backstop for rows that expire inside a forming batch.
    #[serde(default)]
    pub expired_in_queue: u64,
    /// EWMA batch service time, microseconds (what the predicted-wait
    /// shed decision runs on).
    #[serde(default)]
    pub service_ewma_us: u64,
}

/// One model's coalescing scoring lane. See the module docs.
pub struct BatchFormer {
    tx: Option<mpsc::Sender<Pending>>,
    counters: Arc<LaneCounters>,
    /// Rows currently queued (incremented on submit, decremented when
    /// the lane pops) — the admission-control signal.
    depth: Arc<AtomicUsize>,
    config: BatchConfig,
    lane: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for BatchFormer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchFormer")
            .field("running", &self.lane.is_some())
            .finish()
    }
}

impl BatchFormer {
    /// Spawns the scoring lane for `handle` with policy `config`. Errors
    /// if the lane thread cannot be spawned (thread exhaustion) — the
    /// caller degrades instead of panicking.
    pub fn new(handle: Arc<ModelHandle>, config: BatchConfig) -> std::io::Result<BatchFormer> {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(config.max_queue >= 1, "max_queue must be at least 1");
        let (tx, rx) = mpsc::channel::<Pending>();
        let counters = Arc::new(LaneCounters::default());
        let depth = Arc::new(AtomicUsize::new(0));
        let lane = {
            let counters = Arc::clone(&counters);
            let depth = Arc::clone(&depth);
            let config = config.clone();
            std::thread::Builder::new()
                .name("nr-daemon-lane".into())
                .spawn(move || run_lane(&handle, &counters, &depth, &config, &rx))?
        };
        Ok(BatchFormer {
            tx: Some(tx),
            counters,
            depth,
            config,
            lane: Some(lane),
        })
    }

    /// Queues one parsed row and blocks until the lane's batch containing
    /// it is scored, under the default (effectively unbounded) budget.
    /// Called from handler threads.
    pub fn submit(&self, values: Vec<Value>) -> Result<PredictResponse, SubmitError> {
        self.submit_by(values, Instant::now() + DEFAULT_SUBMIT_BUDGET)
    }

    /// Queues one parsed row under an explicit deadline: sheds instead of
    /// queueing when the queue is full or the predicted wait would miss
    /// `deadline`, and returns [`SubmitError::DeadlineExceeded`] instead
    /// of blocking past it.
    pub fn submit_by(
        &self,
        values: Vec<Value>,
        deadline: Instant,
    ) -> Result<PredictResponse, SubmitError> {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        if now >= deadline {
            self.counters.shed_deadline.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::WouldMissDeadline {
                predicted_wait_ms: 0,
            });
        }
        // Admission control: both checks read racy-but-monotone-enough
        // signals (depth, EWMA service time); the worst case of a race is
        // one extra admitted row, never an unbounded backlog.
        let depth = self.depth.load(Ordering::Relaxed);
        let ewma_ns = self.counters.service_ewma_ns.load(Ordering::Relaxed);
        let batches_ahead = (depth / self.config.max_batch) as u64 + 1;
        let predicted = Duration::from_nanos(batches_ahead.saturating_mul(ewma_ns));
        if depth >= self.config.max_queue {
            self.counters
                .shed_queue_full
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull {
                retry_after_ms: predicted.as_millis() as u64,
            });
        }
        if ewma_ns > 0 && now + predicted > deadline {
            self.counters.shed_deadline.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::WouldMissDeadline {
                predicted_wait_ms: predicted.as_millis() as u64,
            });
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        self.depth.fetch_add(1, Ordering::Relaxed);
        if self
            .tx
            .as_ref()
            .expect("lane alive while BatchFormer exists")
            .send(Pending {
                values,
                deadline,
                reply: reply_tx,
            })
            .is_err()
        {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            return Err(SubmitError::LaneClosed);
        }
        match reply_rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => {
                self.counters.timed_out.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::DeadlineExceeded)
            }
            Err(RecvTimeoutError::Disconnected) => Err(SubmitError::LaneClosed),
        }
    }

    /// Current counter values, labeled with `model` and `version`.
    pub fn stats(&self, model: &str, version: u64) -> LaneStats {
        LaneStats {
            model: model.to_string(),
            version,
            requests: self.counters.requests.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
            rows: self.counters.rows.load(Ordering::Relaxed),
            largest_batch: self.counters.largest_batch.load(Ordering::Relaxed),
            shed_queue_full: self.counters.shed_queue_full.load(Ordering::Relaxed),
            shed_deadline: self.counters.shed_deadline.load(Ordering::Relaxed),
            timed_out: self.counters.timed_out.load(Ordering::Relaxed),
            expired_in_queue: self.counters.expired_in_queue.load(Ordering::Relaxed),
            service_ewma_us: self.counters.service_ewma_ns.load(Ordering::Relaxed) / 1_000,
        }
    }
}

impl Drop for BatchFormer {
    fn drop(&mut self) {
        // Closing the queue lets the lane finish in-flight work and exit;
        // joining guarantees no reply is ever silently dropped mid-score.
        drop(self.tx.take());
        if let Some(lane) = self.lane.take() {
            let _ = lane.join();
        }
    }
}

/// The lane thread: block for the first row, drain, score, scatter,
/// repeat until the queue closes.
///
/// Drain policy — a batch is dispatched at whichever comes first:
/// * **capacity**: the batch holds `max_batch` rows;
/// * **fleet match**: the batch has grown to the size of the previous
///   multi-row batch — the lane's running estimate of how many clients
///   are in flight — and the queue is empty;
/// * **deadline**: `max_delay` elapsed since the batch started forming.
///   The window only arms while traffic is concurrent; under sparse
///   traffic an empty queue dispatches immediately.
///
/// The fleet estimate is what keeps the lane off the timer. A closed
/// fleet of N clients settles into lockstep — score N rows, scatter N
/// replies, N resubmits arrive — so each batch reaches the previous
/// batch's size within microseconds and dispatches the moment it does,
/// without ever sleeping out the window. The deadline is the fallback
/// for ramps and drops (a client leaves: one window is paid, then the
/// estimate shrinks to match). That matters doubly because OS timers are
/// far coarser than a batch: `recv_timeout` can overshoot a 250 µs
/// window by whole milliseconds under a coarse tick, so steady state
/// must never depend on it.
///
/// The window is self-arming: on after any multi-row batch, off after
/// any single-row batch. A lone client therefore never waits out a
/// window for company that is not coming, while a concurrent fleet —
/// whose requests pile up during the previous batch's scoring — gets
/// coalesced toward capacity.
fn run_lane(
    handle: &ModelHandle,
    counters: &LaneCounters,
    depth: &AtomicUsize,
    config: &BatchConfig,
    rx: &mpsc::Receiver<Pending>,
) {
    // Size of the last multi-row batch: 0 = sparse traffic, window off.
    let mut fleet = 0usize;
    loop {
        // Pop until a live row starts the batch: rows that expired while
        // queued are shed here, so an all-expired backlog (e.g. after an
        // injected stall) costs zero batches instead of one doomed
        // score_delay + snapshot load per expired row.
        let first = loop {
            match rx.recv() {
                Ok(p) => {
                    depth.fetch_sub(1, Ordering::Relaxed);
                    if let Some(p) = admit_or_shed(counters, p) {
                        break p;
                    }
                }
                Err(_) => return, // queue closed: daemon shutting down
            }
        };
        let mut batch = vec![first];
        let deadline = Instant::now() + config.max_delay;
        while batch.len() < config.max_batch {
            match rx.try_recv() {
                Ok(p) => {
                    depth.fetch_sub(1, Ordering::Relaxed);
                    batch.extend(admit_or_shed(counters, p));
                }
                Err(TryRecvError::Empty) => {
                    if fleet == 0 || batch.len() >= fleet {
                        break; // sparse traffic, or the fleet is all here
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break; // window spent: score what we have
                    }
                    // Mid-ramp: collect until the fleet or the deadline.
                    match rx.recv_timeout(deadline - now) {
                        Ok(p) => {
                            depth.fetch_sub(1, Ordering::Relaxed);
                            batch.extend(admit_or_shed(counters, p));
                        }
                        Err(_) => break,
                    }
                }
                Err(TryRecvError::Disconnected) => break,
            }
        }
        fleet = if batch.len() >= 2 { batch.len() } else { 0 };
        score_batch(handle, counters, config, batch);
    }
}

/// Dispatch-time expiry check: a popped row whose deadline has already
/// passed is answered [`SubmitError::DeadlineExceeded`] on the spot
/// (its submitter has usually timed out already — the send just fails
/// silently) and never joins a batch. Returns the row if still live.
/// [`score_batch`] keeps a second check as a backstop for rows that
/// expire between admission here and the batch actually scoring.
fn admit_or_shed(counters: &LaneCounters, p: Pending) -> Option<Pending> {
    if p.deadline <= Instant::now() {
        counters.expired_in_queue.fetch_add(1, Ordering::Relaxed);
        let _ = p.reply.send(Err(SubmitError::DeadlineExceeded));
        None
    } else {
        Some(p)
    }
}

/// Scores one formed batch against exactly one model snapshot and
/// scatters per-row answers. Rows whose deadline already passed are
/// dropped (their submitters have timed out — scoring them would only
/// delay live rows); rows the dataset rejects (schema drift can only
/// happen through a bug — swap admission pins the schema) get their
/// error replies without failing the rest of the batch.
fn score_batch(
    handle: &ModelHandle,
    counters: &LaneCounters,
    config: &BatchConfig,
    batch: Vec<Pending>,
) {
    let started = Instant::now();
    if !config.score_delay.is_zero() {
        // Injected fault: stretch the service time (see `crate::faults`).
        std::thread::sleep(config.score_delay);
    }
    let snapshot = handle.load(); // ONE load: the whole batch answers with one version
    let model = snapshot.model();
    let version = snapshot.version();
    let class_names = model.rules().class_names().to_vec();
    let mut ds = Dataset::new(model.network().encoder().schema().clone(), class_names);
    let mut accepted = Vec::with_capacity(batch.len());
    let now = Instant::now();
    for pending in batch {
        if pending.deadline <= now {
            counters.expired_in_queue.fetch_add(1, Ordering::Relaxed);
            let _ = pending.reply.send(Err(SubmitError::DeadlineExceeded));
            continue;
        }
        match ds.push_unlabeled(pending.values) {
            Ok(()) => accepted.push(pending.reply),
            Err(e) => {
                let _ = pending
                    .reply
                    .send(Err(SubmitError::Rejected(e.to_string())));
            }
        }
    }
    if accepted.is_empty() {
        update_service_ewma(counters, started.elapsed());
        return;
    }
    counters.batches.fetch_add(1, Ordering::Relaxed);
    counters
        .rows
        .fetch_add(accepted.len() as u64, Ordering::Relaxed);
    counters
        .largest_batch
        .fetch_max(accepted.len() as u64, Ordering::Relaxed);
    let scored = model.predict_scored_batch(&ds.view());
    // EWMA before replies: a reply wakes its submitter, and the next
    // thing a woken handler thread may do is another submit whose
    // admission check reads the EWMA — storing it first guarantees a
    // just-seeded lane is visible to that read (the mpsc send/recv pair
    // orders the store), instead of racing the wakeup.
    update_service_ewma(counters, started.elapsed());
    let names = model.rules().class_names();
    for (reply, s) in accepted.into_iter().zip(scored) {
        let _ = reply.send(Ok(PredictResponse {
            class: s.class,
            class_name: names[s.class].clone(),
            score: s.score,
            version,
        }));
    }
}

/// Folds one batch's service time into the EWMA the predicted-wait shed
/// decision reads: `ewma ← (3·ewma + sample) / 4`, integer nanoseconds.
/// The first sample seeds the average directly.
fn update_service_ewma(counters: &LaneCounters, service: Duration) {
    let sample = service.as_nanos() as u64;
    let prev = counters.service_ewma_ns.load(Ordering::Relaxed);
    let next = if prev == 0 {
        sample
    } else {
        (3 * prev + sample) / 4
    };
    counters.service_ewma_ns.store(next, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::serving_fixture;
    use nr_tabular::parse_row;

    fn lane(
        max_batch: usize,
        max_delay: Duration,
    ) -> (BatchFormer, Arc<ModelHandle>, Vec<Vec<Value>>) {
        lane_with(BatchConfig {
            max_batch,
            max_delay,
            ..BatchConfig::default()
        })
    }

    fn lane_with(config: BatchConfig) -> (BatchFormer, Arc<ModelHandle>, Vec<Vec<Value>>) {
        let fx = serving_fixture(64);
        let handle = Arc::new(ModelHandle::new(fx.model_a.clone()));
        let schema = fx.model_a.network().encoder().schema().clone();
        let rows: Vec<Vec<Value>> = fx
            .rows
            .iter()
            .map(|line| parse_row(&schema, line).unwrap())
            .collect();
        let former = BatchFormer::new(Arc::clone(&handle), config).expect("lane spawns");
        (former, handle, rows)
    }

    #[test]
    fn lone_request_dispatches_without_waiting_for_company() {
        // Capacity 64 but only one request in flight: with the deadline
        // window disarmed (no concurrent traffic yet), the lone row must
        // score immediately rather than idle out max_delay.
        let (former, _, rows) = lane(64, Duration::from_secs(5));
        let resp = former.submit(rows[0].clone()).unwrap();
        assert_eq!(resp.version, 1);
        assert!(resp.class == 0 || resp.class == 1);
        let stats = former.stats("m", 1);
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.largest_batch, 1);
        assert!(stats.service_ewma_us > 0, "EWMA must seed after a batch");
    }

    #[test]
    fn concurrent_requests_coalesce_into_shared_batches() {
        // A generous deadline and 16 threads blocked in submit(): the lane
        // must form at least one multi-row batch.
        let (former, _, rows) = lane(64, Duration::from_millis(50));
        let former = Arc::new(former);
        let workers: Vec<_> = (0..16)
            .map(|i| {
                let former = Arc::clone(&former);
                let row = rows[i % rows.len()].clone();
                std::thread::spawn(move || former.submit(row).unwrap())
            })
            .collect();
        for w in workers {
            let resp = w.join().unwrap();
            assert_eq!(resp.version, 1);
        }
        let stats = former.stats("m", 1);
        assert_eq!(stats.requests, 16);
        assert_eq!(stats.rows, 16);
        assert!(
            stats.largest_batch > 1,
            "16 concurrent submits never coalesced (largest batch {})",
            stats.largest_batch
        );
        assert!(stats.batches < 16, "every request scored alone");
    }

    #[test]
    fn capacity_one_scores_request_at_a_time() {
        let (former, _, rows) = lane(1, Duration::from_millis(50));
        let former = Arc::new(former);
        let workers: Vec<_> = (0..8)
            .map(|i| {
                let former = Arc::clone(&former);
                let row = rows[i].clone();
                std::thread::spawn(move || former.submit(row).unwrap())
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let stats = former.stats("m", 1);
        assert_eq!(stats.batches, 8, "max_batch=1 must never coalesce");
        assert_eq!(stats.largest_batch, 1);
    }

    #[test]
    fn batch_answers_match_direct_scoring_and_swap_lands_between_batches() {
        let (former, handle, rows) = lane(64, Duration::from_millis(1));
        // Direct predictions from the deployed model for comparison.
        let fx = serving_fixture(64);
        for (i, row) in rows.iter().take(8).enumerate() {
            let resp = former.submit(row.clone()).unwrap();
            assert_eq!(resp.class, fx.expected_a[i], "row {i} vs direct scoring");
        }
        // Swap to the flipped model: subsequent answers flip class and
        // report the new version.
        assert_eq!(handle.swap(fx.model_b.clone()), 2);
        for (i, row) in rows.iter().take(8).enumerate() {
            let resp = former.submit(row.clone()).unwrap();
            assert_eq!(resp.version, 2);
            assert_eq!(resp.class, 1 - fx.expected_a[i], "row {i} after swap");
        }
    }

    #[test]
    fn expired_deadline_is_shed_before_queueing() {
        let (former, _, rows) = lane(64, Duration::from_micros(250));
        let err = former
            .submit_by(rows[0].clone(), Instant::now() - Duration::from_millis(1))
            .unwrap_err();
        assert!(matches!(err, SubmitError::WouldMissDeadline { .. }));
        let stats = former.stats("m", 1);
        assert_eq!(stats.shed_deadline, 1);
        assert_eq!(stats.batches, 0, "shed rows must never reach the lane");
    }

    #[test]
    fn slow_lane_times_out_the_reply_instead_of_blocking() {
        // A 50 ms injected scoring delay with a 5 ms budget: the first
        // submit must come back DeadlineExceeded at ~5 ms, not block for
        // the full service time.
        let (former, _, rows) = lane_with(BatchConfig {
            max_batch: 4,
            score_delay: Duration::from_millis(50),
            ..BatchConfig::default()
        });
        let t0 = Instant::now();
        let err = former
            .submit_by(rows[0].clone(), Instant::now() + Duration::from_millis(5))
            .unwrap_err();
        assert_eq!(err, SubmitError::DeadlineExceeded);
        assert!(
            t0.elapsed() < Duration::from_millis(45),
            "reply wait must time out at the deadline, not the service time"
        );
        // The lane eventually scores the batch and finds the row expired.
        std::thread::sleep(Duration::from_millis(80));
        let stats = former.stats("m", 1);
        assert_eq!(stats.timed_out, 1);
        assert_eq!(stats.expired_in_queue, 1);
    }

    #[test]
    fn expired_backlog_is_shed_at_dispatch_without_scoring() {
        // Occupy the lane with a 40 ms batch, queue a row whose 10 ms
        // deadline expires while it waits, then follow with a live row.
        // The expired row must be shed the moment the lane pops it — no
        // batch formed, no second 40 ms score_delay paid — so the live
        // row's latency stays ~one service time, not two.
        let delay = Duration::from_millis(40);
        let (former, _, rows) = lane_with(BatchConfig {
            max_batch: 1,
            score_delay: delay,
            ..BatchConfig::default()
        });
        let former = Arc::new(former);
        let occupant = {
            let former = Arc::clone(&former);
            let row = rows[0].clone();
            std::thread::spawn(move || former.submit(row).unwrap())
        };
        std::thread::sleep(Duration::from_millis(10)); // lane is now scoring
        let err = former
            .submit_by(rows[1].clone(), Instant::now() + Duration::from_millis(10))
            .unwrap_err();
        assert_eq!(err, SubmitError::DeadlineExceeded);
        occupant.join().unwrap();
        let t0 = Instant::now();
        former.submit(rows[2].clone()).unwrap();
        assert!(
            t0.elapsed() < delay + delay / 2,
            "live row paid for the expired row's batch ({:?})",
            t0.elapsed()
        );
        let stats = former.stats("m", 1);
        assert_eq!(stats.expired_in_queue, 1);
        assert_eq!(stats.timed_out, 1);
        assert_eq!(stats.batches, 2, "expired row must not form a batch");
    }

    #[test]
    fn full_queue_sheds_immediately_with_queue_full() {
        // Queue bound 2 and a slow lane: pile up submits from threads,
        // and assert the overflow ones come back QueueFull quickly.
        let (former, _, rows) = lane_with(BatchConfig {
            max_batch: 2,
            max_queue: 2,
            score_delay: Duration::from_millis(40),
            ..BatchConfig::default()
        });
        let former = Arc::new(former);
        let workers: Vec<_> = (0..12)
            .map(|i| {
                let former = Arc::clone(&former);
                let row = rows[i % rows.len()].clone();
                std::thread::spawn(move || {
                    former.submit_by(row, Instant::now() + Duration::from_secs(5))
                })
            })
            .collect();
        let mut full = 0;
        let mut ok = 0;
        for w in workers {
            match w.join().unwrap() {
                Ok(_) => ok += 1,
                Err(SubmitError::QueueFull { .. }) => full += 1,
                Err(other) => panic!("unexpected submit error: {other}"),
            }
        }
        assert!(full > 0, "12 submits into a depth-2 queue never shed");
        assert!(ok > 0, "admission control must still serve some requests");
        let stats = former.stats("m", 1);
        assert_eq!(stats.shed_queue_full, full);
    }

    #[test]
    fn predicted_wait_sheds_doomed_submits_upfront() {
        // Seed the EWMA with one slow batch, then submit with a budget
        // far below the service time: the submit must be shed instantly
        // (WouldMissDeadline), not queued and timed out.
        let (former, _, rows) = lane_with(BatchConfig {
            max_batch: 4,
            score_delay: Duration::from_millis(30),
            ..BatchConfig::default()
        });
        former.submit(rows[0].clone()).unwrap(); // seeds the EWMA
        let t0 = Instant::now();
        let err = former
            .submit_by(rows[1].clone(), Instant::now() + Duration::from_millis(2))
            .unwrap_err();
        assert!(
            matches!(err, SubmitError::WouldMissDeadline { .. }),
            "expected a predicted-wait shed, got {err}"
        );
        assert!(
            t0.elapsed() < Duration::from_millis(10),
            "predicted-wait sheds must be immediate"
        );
        let stats = former.stats("m", 1);
        assert_eq!(stats.shed_deadline, 1);
        assert!(
            stats.service_ewma_us >= 25_000,
            "EWMA must reflect the slow batch"
        );
    }
}
