//! `serve`: online answers from a registry-backed `Daemon` hosting the
//! mined F2 model in `ServeMode::Rules`.
//!
//! An open-loop generator sends single-row `POST /predict` requests over
//! two keep-alive connections on a fixed schedule and times each request
//! from the moment it was due, so a stall also charges the requests
//! queued behind it. About once a second one connection interleaves a
//! `PUT /model` that swaps between the model and its flipped-class twin,
//! so durable registry commits run beside the reads. A short rate ladder
//! then finds the highest rate that still meets the latency limit.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use nr_daemon::{Client, Daemon, DaemonConfig, StatsResponse};
use nr_datagen::Function;
use nr_rules::{Predictor, Rule, RuleSet};
use nr_serve::{PredictResponse, ServeMode, ServeModel, SwapResponse};
use nr_tabular::{ClassId, Dataset};

use crate::alloc;
use crate::common::{self, median, quantile, Config, Report};
use crate::mine;
use crate::probe;
use crate::trace::Tracer;

/// Requests per second of the fixed-rate phase, well below saturation.
const FIXED_RATE: f64 = 2000.0;
/// Rates of the open-loop ladder, ascending.
const LADDER: &[f64] = &[
    2000.0, 4000.0, 6000.0, 8000.0, 12000.0, 16000.0, 24000.0, 32000.0,
];
/// A ladder rung passes when its p99 latency (from due time) stays under
/// this limit with no failed request. The limit sits above this host's
/// scheduling stalls (p99.9 reaches about 14 ms at 2k req/s on a shared
/// 2-core host), so a rung fails on a growing backlog, not on one stall.
const P99_LIMIT_US: f64 = 25_000.0;
/// Window of the closed-loop throughput median, seconds.
const RATE_WINDOW_S: f64 = 0.2;
/// Client connections (the host has two cores).
const CONNECTIONS: usize = 2;

/// A running daemon plus everything needed to drive and check it.
pub struct Rig {
    daemon: Daemon,
    addr: SocketAddr,
    /// Request bodies: one CSV row of attribute values each.
    bodies: Vec<String>,
    labels: Vec<ClassId>,
    /// The deployed model's answer per body; the twin answers
    /// `(class + 1) % n_classes`.
    expected: Vec<ClassId>,
    n_classes: usize,
    /// Bundles to `PUT`: `[model, flipped twin]`. Version 1 is the model
    /// and every swap alternates, so odd versions answer `expected`.
    bundles: [String; 2],
    version: AtomicU64,
    next_row: AtomicU64,
}

/// The rule set with every class (and the default) moved to the next
/// class: a twin whose every answer differs from the model's.
fn flipped(model: &ServeModel) -> ServeModel {
    let rules = model.ruleset();
    let n = rules.class_names.len();
    let twin = RuleSet::new(
        rules
            .rules
            .iter()
            .map(|r| Rule::new(r.conditions.clone(), (r.class + 1) % n))
            .collect(),
        (rules.default_class + 1) % n,
        rules.class_names.clone(),
    );
    ServeModel::new(
        &twin,
        model.network().encoder().clone(),
        model.network().network().clone(),
        ServeMode::Rules,
    )
}

/// CSV rows of attribute values (the class column dropped).
fn request_bodies(ds: &Dataset) -> Result<Vec<String>, String> {
    let mut csv = Vec::new();
    nr_tabular::write_csv_rows(ds, &mut csv).map_err(|e| e.to_string())?;
    let text = String::from_utf8(csv).map_err(|e| e.to_string())?;
    text.lines()
        .map(|line| {
            line.rsplit_once(',')
                .map(|(values, _class)| values.to_string())
                .ok_or_else(|| format!("malformed CSV row {line:?}"))
        })
        .collect()
}

impl Rig {
    /// Starts a daemon with a durable registry under `dir` hosting
    /// `model` (rules mode), to be driven with `requests`' rows.
    pub fn start(
        model: &ServeModel,
        requests: &Dataset,
        dir: &Path,
        report: &mut Report,
    ) -> Result<Rig, String> {
        let model = model.clone().with_mode(ServeMode::Rules);
        let twin = flipped(&model);
        let view = requests.view();
        let expected = model.predict_batch(&view);
        let n_classes = model.rules().class_names().len();
        let twin_answers = twin.predict_batch(&view);
        report.check(
            twin_answers
                .iter()
                .zip(&expected)
                .all(|(t, e)| *t == (e + 1) % n_classes),
            || "flipped twin does not flip every answer".into(),
        );
        let bundles = [
            model.to_json().map_err(|e| e.to_string())?,
            twin.to_json().map_err(|e| e.to_string())?,
        ];
        let config = DaemonConfig {
            registry: Some(dir.join("daemon-registry")),
            ..DaemonConfig::default()
        };
        let daemon = Daemon::start(config, vec![(nr_daemon::DEFAULT_MODEL.into(), model)])
            .map_err(|e| format!("starting daemon: {e}"))?;
        Ok(Rig {
            addr: daemon.addr(),
            daemon,
            bodies: request_bodies(requests)?,
            labels: requests.labels().to_vec(),
            expected,
            n_classes,
            bundles,
            version: AtomicU64::new(1),
            next_row: AtomicU64::new(0),
        })
    }

    pub fn bodies(&self) -> &[String] {
        &self.bodies
    }

    /// Drains the daemon; a drain that left work behind is a failure.
    pub fn shutdown(self, report: &mut Report) {
        let drain = self.daemon.shutdown();
        report.check(drain.clean, || {
            format!("daemon drain was not clean: {drain:?}")
        });
    }

    fn stats(&self) -> Result<StatsResponse, String> {
        let mut client = Client::connect(self.addr).map_err(|e| e.to_string())?;
        let (status, body) = client
            .request("GET", "/stats", "")
            .map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("GET /stats answered {status}"));
        }
        serde_json::from_str(&body).map_err(|e| format!("/stats body: {e}"))
    }

    /// Swaps in the bundle for the next version, recording PUT→200 time.
    fn swap(&self, client: &mut Client, phase: &mut Phase) -> Result<(), String> {
        let next = self.version.load(Ordering::SeqCst) + 1;
        let bundle = &self.bundles[1 - (next % 2) as usize];
        let t = Instant::now();
        let (status, body) = client
            .request("PUT", "/model", bundle)
            .map_err(|e| format!("PUT /model: {e}"))?;
        phase.swap_ms.push(t.elapsed().as_secs_f64() * 1e3);
        phase.attempted += 1;
        let version = serde_json::from_str::<SwapResponse>(&body).map(|r| r.version);
        match (status, version) {
            (200, Ok(v)) if v == next => self.version.store(v, Ordering::SeqCst),
            other => {
                phase.failed += 1;
                phase.note(format!("swap to v{next} answered {other:?}: {body:.200}"));
            }
        }
        Ok(())
    }

    /// Drives [`CONNECTIONS`] connections for `seconds` under `load`.
    /// With `swap_every`, the calling thread swaps the model on that
    /// period over a connection of its own, so a swap delays reads only
    /// through the daemon.
    fn drive(&self, load: Load, seconds: f64, swap_every: Option<f64>) -> Result<Phase, String> {
        let start = Instant::now() + Duration::from_millis(20);
        let end = start + Duration::from_secs_f64(seconds);
        let (phases, mut swaps) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|conn| {
                    scope.spawn(move || -> Result<Phase, String> {
                        let mut client = Client::connect(self.addr).map_err(|e| e.to_string())?;
                        let mut phase = Phase::default();
                        match load {
                            Load::Open(rate) => {
                                let period = Duration::from_secs_f64(1.0 / rate);
                                let n = ((rate * seconds).round() as u32).max(CONNECTIONS as u32);
                                for i in (conn as u32..n).step_by(CONNECTIONS) {
                                    let due = start + period * i;
                                    wait_until(due);
                                    self.predict(&mut client, start, due, &mut phase)?;
                                }
                            }
                            Load::Closed => {
                                wait_until(start);
                                while Instant::now() < end {
                                    self.predict(&mut client, start, Instant::now(), &mut phase)?;
                                }
                            }
                        }
                        Ok(phase)
                    })
                })
                .collect();
            let mut swaps = Phase::default();
            let swapped = match swap_every {
                Some(every) => self.swap_until(every, start, end, &mut swaps),
                None => Ok(()),
            };
            let phases = handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| "generator thread panicked".to_string())?
                })
                .collect::<Result<Vec<_>, _>>();
            swapped.and(phases.map(|p| (p, swaps)))
        })?;
        swaps.elapsed_s = (end - start).as_secs_f64();
        for p in phases {
            swaps.merge(p);
        }
        Ok(swaps)
    }

    /// Swaps every `every` seconds from `start` until `end`.
    fn swap_until(
        &self,
        every: f64,
        start: Instant,
        end: Instant,
        phase: &mut Phase,
    ) -> Result<(), String> {
        let mut client = Client::connect(self.addr).map_err(|e| e.to_string())?;
        for k in 1.. {
            let due = start + Duration::from_secs_f64(every * k as f64);
            if due >= end {
                return Ok(());
            }
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            self.swap(&mut client, phase)?;
        }
        Ok(())
    }

    /// Sends the next request row; `due` is when it was scheduled and
    /// `start` when its phase began.
    fn predict(
        &self,
        client: &mut Client,
        start: Instant,
        due: Instant,
        phase: &mut Phase,
    ) -> Result<(), String> {
        let row = self.next_row.fetch_add(1, Ordering::Relaxed) as usize % self.bodies.len();
        let sent = Instant::now();
        let (status, body) = client
            .request("POST", "/predict", &self.bodies[row])
            .map_err(|e| format!("POST /predict: {e}"))?;
        let done = Instant::now();
        phase.attempted += 1;
        phase.latency_us.push((done - due).as_secs_f64() * 1e6);
        phase
            .done_s
            .push(done.saturating_duration_since(start).as_secs_f64());
        phase.roundtrip_us.push((done - sent).as_secs_f64() * 1e6);
        phase
            .lateness_us
            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e6);
        let answer = serde_json::from_str::<PredictResponse>(&body);
        match (status, answer) {
            (200, Ok(a)) => {
                let base = self.expected[row];
                let want = if a.version % 2 == 1 {
                    base
                } else {
                    (base + 1) % self.n_classes
                };
                if a.class == want {
                    // Accuracy of the deployed rules, whichever twin answered.
                    phase.correct_label += (base == self.labels[row]) as u64;
                } else {
                    phase.failed += 1;
                    phase.note(format!(
                        "row {row} at v{}: class {} expected {want}",
                        a.version, a.class
                    ));
                }
            }
            (status, _) => {
                phase.failed += 1;
                phase.note(format!("POST /predict answered {status}: {body:.200}"));
            }
        }
        Ok(())
    }
}

/// Sleeps until shortly before `due`, then spins: `sleep` alone
/// overshoots by tens of microseconds.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(60);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// How requests are scheduled.
#[derive(Clone, Copy)]
enum Load {
    /// Open loop: this many requests per second, sent when due whether
    /// or not earlier answers have arrived.
    Open(f64),
    /// Closed loop: each connection sends its next request as soon as
    /// the previous answer arrives.
    Closed,
}

/// What one driven phase observed.
#[derive(Default)]
struct Phase {
    /// Length of the phase's schedule.
    elapsed_s: f64,
    /// Completion times, seconds after `start`.
    done_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    correct_label: u64,
    latency_us: Vec<f64>,
    roundtrip_us: Vec<f64>,
    lateness_us: Vec<f64>,
    swap_ms: Vec<f64>,
    notes: Vec<String>,
}

impl Phase {
    fn note(&mut self, note: String) {
        if self.notes.len() < 4 {
            self.notes.push(note);
        }
    }

    fn merge(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.correct_label += other.correct_label;
        self.latency_us.extend(other.latency_us);
        self.done_s.extend(other.done_s);
        self.roundtrip_us.extend(other.roundtrip_us);
        self.lateness_us.extend(other.lateness_us);
        self.swap_ms.extend(other.swap_ms);
        self.notes.extend(other.notes);
    }

    fn into_report(self, report: &mut Report) -> PhaseSummary {
        report.attempted += self.attempted;
        report.failed += self.failed;
        for note in self.notes {
            eprintln!("mismatch: {note}");
            if report.notes.len() < 8 {
                report.notes.push(note);
            }
        }
        PhaseSummary {
            ok: self.failed == 0,
            rows_per_s: windowed_rate(&self.done_s, self.elapsed_s),
            predictions: self.latency_us.len(),
            accuracy: self.correct_label as f64 / self.latency_us.len().max(1) as f64,
            p50_us: median(&self.latency_us),
            p90_us: quantile(&self.latency_us, 0.9),
            p99_us: quantile(&self.latency_us, 0.99),
            roundtrip_p50_us: median(&self.roundtrip_us),
            lateness_p99_us: quantile(&self.lateness_us, 0.99),
            swap_ms: self.swap_ms,
        }
    }
}

/// Median completions per second over [`RATE_WINDOW_S`] windows of the
/// phase: a stall of the shared host costs one window, not the whole rate.
fn windowed_rate(done_s: &[f64], elapsed_s: f64) -> f64 {
    let windows = ((elapsed_s / RATE_WINDOW_S).floor() as usize).max(1);
    let mut counts = vec![0.0; windows];
    for &t in done_s {
        if let Some(c) = counts.get_mut((t / RATE_WINDOW_S) as usize) {
            *c += 1.0;
        }
    }
    median(&counts) / RATE_WINDOW_S
}

struct PhaseSummary {
    ok: bool,
    rows_per_s: f64,
    predictions: usize,
    accuracy: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    roundtrip_p50_us: f64,
    lateness_p99_us: f64,
    swap_ms: Vec<f64>,
}

/// Drives `rig` for about `seconds`: an open-loop phase at
/// [`FIXED_RATE`] with swaps (60% of the time), a closed-loop phase
/// (25%), then the rate ladder (15%). Sets the end-to-end serve metrics
/// and the daemon's per-layer metrics.
fn measure(rig: &Rig, seconds: f64, report: &mut Report) -> Result<(), String> {
    // Warm-up: connections, lane and page cache.
    rig.drive(Load::Open(FIXED_RATE), 0.1, None)?
        .into_report(report);
    let before = rig.stats()?;
    alloc::reset_peak();
    // About one swap a second; at least two in a short phase.
    let fixed_s = seconds * 0.6;
    let fixed = rig.drive(
        Load::Open(FIXED_RATE),
        fixed_s,
        Some(fixed_s.min(3.0) / 3.0),
    )?;
    report.set("peak_heap_mib", alloc::peak_mib());
    let after = rig.stats()?;
    let fixed = fixed.into_report(report);
    report.set("op_p50_ms", fixed.p50_us / 1e3);
    report.set("daemon.p90_ms", fixed.p90_us / 1e3);
    report.set("daemon.p99_ms", fixed.p99_us / 1e3);
    report.set("accuracy", fixed.accuracy);
    report.set("daemon.roundtrip_us", fixed.roundtrip_p50_us);
    report.set("daemon.lateness_ms", fixed.lateness_p99_us / 1e3);
    report.set("daemon.swap_ms", median(&fixed.swap_ms));
    let (lane0, lane1) = match (before.models.first(), after.models.first()) {
        (Some(b), Some(a)) => (b, a),
        _ => return Err("/stats lists no model".into()),
    };
    let batches = (lane1.batches - lane0.batches).max(1);
    report.set(
        "daemon.mean_batch",
        (lane1.rows - lane0.rows) as f64 / batches as f64,
    );
    report.set("daemon.service_ewma_us", lane1.service_ewma_us as f64);
    let shed = |l: &nr_daemon::LaneStats| {
        l.shed_queue_full + l.shed_deadline + l.timed_out + l.expired_in_queue
    };
    report.set(
        "daemon.shed",
        (shed(lane1) - shed(lane0) + after.daemon.shed_inflight - before.daemon.shed_inflight)
            as f64,
    );

    let closed = rig
        .drive(Load::Closed, seconds * 0.25, None)?
        .into_report(report);
    report.set("rows_per_s", closed.rows_per_s);

    let rung_s = (seconds * 0.15 / LADDER.len() as f64).max(0.2);
    let mut max_rps = 0.0;
    for &rate in LADDER {
        let rung = rig
            .drive(Load::Open(rate), rung_s, None)?
            .into_report(report);
        if !rung.ok || rung.p99_us > P99_LIMIT_US {
            break;
        }
        max_rps = rate;
    }
    report.set("daemon.max_rps", max_rps);
    report.notes.push(format!(
        "open loop: {} predictions at {FIXED_RATE} req/s, {} swaps; closed loop: {} predictions; ladder top {max_rps} req/s",
        fixed.predictions,
        fixed.swap_ms.len(),
        closed.predictions,
    ));
    Ok(())
}

/// Daemon metrics for a workload whose operations do not go through the
/// daemon: serves `served` briefly and fills the daemon's per-layer
/// metrics.
pub fn daemon_probe(
    config: &Config,
    served: &ServeModel,
    requests: &Dataset,
    report: &mut Report,
) -> Result<(), String> {
    let rig = Rig::start(served, requests, &config.work_dir.join("probe"), report)?;
    probe::canned(served, rig.bodies(), report)?;
    let mut scratch = Report::default();
    measure(&rig, 1.5, &mut scratch)?;
    for name in [
        "daemon.p90_ms",
        "daemon.p99_ms",
        "daemon.roundtrip_us",
        "daemon.lateness_ms",
        "daemon.swap_ms",
        "daemon.mean_batch",
        "daemon.service_ewma_us",
        "daemon.shed",
        "daemon.max_rps",
    ] {
        report.set(name, scratch.metric(name).unwrap_or(0.0));
    }
    report.attempted += scratch.attempted;
    report.failed += scratch.failed;
    report.notes.extend(scratch.notes);
    probe::wait_us(report);
    rig.shutdown(report);
    Ok(())
}

struct Setup {
    rig: Rig,
    served: ServeModel,
    rules: RuleSet,
    job_s: f64,
}

pub fn run(config: &Config, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let request_rows = if config.smoke { 2_000 } else { 50_000 };
    let requests = common::held_out(config, 30, Function::F2, request_rows);
    let (setup, setup_s) = common::repeated_setup(|k| {
        let dir = config.work_dir.join(format!("serve-setup-{k}"));
        let mut job = mine::Job::new(config, &dir, Function::F2, 31)?;
        let mined = mine::mine_and_check(config, &mut job, &Tracer::new(false), &mut report)?;
        let rig = Rig::start(&mined.served, &requests, &dir, &mut report)?;
        Ok(Setup {
            rig,
            served: mined.served,
            rules: mined.model.ruleset,
            job_s: mined.elapsed_s,
        })
    })?;
    report.set("setup_s", setup_s);
    report.set("rules", setup.served.rules().n_rules() as f64);
    measure(&setup.rig, config.seconds, &mut report)?;
    if tracer.enabled() {
        probe::canned(&setup.served, setup.rig.bodies(), &mut report)?;
        probe::wait_us(&mut report);
        // The layers below the daemon, on one traced replay of the
        // set-up's mining job.
        mine::traced_setup_job(
            config,
            Function::F2,
            (&setup.rules, setup.job_s),
            &mut report,
        )?;
    }
    setup.rig.shutdown(&mut report);
    Ok(report)
}
