//! The daemon's request path split from outside: each step a `/predict`
//! request takes inside the daemon, timed in-process on canned inputs
//! through the same public functions the daemon calls.

use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

use nr_rules::Predictor;
use nr_serve::{PredictResponse, ServeModel};
use nr_tabular::Dataset;

use crate::common::{median, Report};

/// Calls per timed batch, and batches per step (the step's time is the
/// median batch's mean).
const CALLS: usize = 200;
const BATCHES: usize = 25;

/// Median per-call microseconds of `f` over [`BATCHES`] batches.
fn per_call_us(mut f: impl FnMut(usize)) -> f64 {
    let mut batches = Vec::with_capacity(BATCHES);
    for b in 0..BATCHES {
        let t = Instant::now();
        for i in 0..CALLS {
            f(b * CALLS + i);
        }
        batches.push(t.elapsed().as_secs_f64() * 1e6 / CALLS as f64);
    }
    median(&batches)
}

/// Times HTTP request parsing, CSV row parsing, one-row scoring and
/// response serialization on `bodies` against `model`.
pub fn canned(model: &ServeModel, bodies: &[String], report: &mut Report) -> Result<(), String> {
    let schema = model.network().encoder().schema().clone();
    let classes = model.rules().class_names().to_vec();
    let frames: Vec<Vec<u8>> = bodies
        .iter()
        .take(64)
        .map(|body| {
            format!(
                "POST /predict HTTP/1.1\r\nHost: nr-daemon\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect();
    let rows: Vec<Vec<nr_tabular::Value>> = bodies
        .iter()
        .take(64)
        .map(|b| nr_tabular::parse_row(&schema, b))
        .collect::<Result<_, _>>()?;

    let http = per_call_us(|i| {
        let mut reader = Cursor::new(&frames[i % frames.len()][..]);
        black_box(nr_daemon::http::read_request(&mut reader).expect("canned request parses"));
    });
    let parse = per_call_us(|i| {
        black_box(
            nr_tabular::parse_row(&schema, &bodies[i % rows.len()]).expect("canned row parses"),
        );
    });
    let score = per_call_us(|i| {
        let mut ds = Dataset::new(schema.clone(), classes.clone());
        ds.push_unlabeled(rows[i % rows.len()].clone())
            .expect("canned row fits the schema");
        black_box(model.predict_batch(&ds.view()));
    });
    let answer = PredictResponse {
        class: 1,
        class_name: classes[1 % classes.len()].clone(),
        score: 1.0,
        version: 7,
    };
    let json = per_call_us(|_| {
        black_box(serde_json::to_string(black_box(&answer)).expect("response serializes"));
    });
    report.set("daemon.http_parse_us", http);
    report.set("tabular.row_parse_us", parse);
    report.set("serve.score_1row_us", score);
    report.set("daemon.json_us", json);
    Ok(())
}

/// `daemon.wait_us`: the measured round trip minus the timed steps —
/// queueing, batching, wake-ups and the loopback socket.
pub fn wait_us(report: &mut Report) {
    let parts: f64 = [
        "daemon.http_parse_us",
        "tabular.row_parse_us",
        "serve.score_1row_us",
        "daemon.json_us",
    ]
    .iter()
    .map(|name| report.metric(name).unwrap_or(0.0))
    .sum();
    let roundtrip = report.metric("daemon.roundtrip_us").unwrap_or(0.0);
    report.set("daemon.wait_us", roundtrip - parts);
}
