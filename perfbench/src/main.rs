//! Cross-layer benchmark of the NeuroRule workspace.
//!
//! ```text
//! nr-perfbench --workload <mine|bulk_score|serve> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; traced runs
//! (`--trace 1`) wrap spans around the benchmark's calls into each crate
//! and print the per-layer metrics. The last stdout line is the result
//! object `{"correct", "attempted", "failed", "metrics"}`. `perfbench/README.md`
//! records why each workload exists and which end-to-end metric each
//! layer metric should move.

mod alloc;
mod bulk;
mod common;
mod mine;
mod probe;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Config, Report};
use trace::Tracer;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// End-to-end metrics (`--trace 0`), in print order. Must list the same
/// names and units as `BENCHMARK.json` (the self-test checks).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("rows_per_s", "1/s"),
    ("peak_heap_mib", "MiB"),
    ("rules", "count"),
    ("accuracy", "share"),
];

/// Per-layer metrics (`--trace 1`), in print order.
const PER_LAYER: &[(&str, &str)] = &[
    ("tabular.csv_write_s", "s"),
    ("tabular.row_parse_us", "us"),
    ("store.ingest_s", "s"),
    ("store.ingest_rows_per_s", "1/s"),
    ("store.segments", "count"),
    ("encode.encode_s", "s"),
    ("nn.train_s", "s"),
    ("nn.train_iters", "count"),
    ("nn.objective_evals", "count"),
    ("nn.forward_s", "s"),
    ("prune.s", "s"),
    ("prune.rounds", "count"),
    ("prune.retrains", "count"),
    ("prune.links_left", "count"),
    ("rulex.extract_s", "s"),
    ("rulex.bit_rules", "count"),
    ("rules.reduce_s", "s"),
    ("rules.count", "count"),
    ("serve.compile_s", "s"),
    ("serve.registry_commit_s", "s"),
    ("serve.rules_s", "s"),
    ("serve.network_s", "s"),
    ("serve.hybrid_s", "s"),
    ("serve.network_rows_per_s", "1/s"),
    ("serve.score_1row_us", "us"),
    ("daemon.http_parse_us", "us"),
    ("daemon.json_us", "us"),
    ("daemon.p90_ms", "ms"),
    ("daemon.p99_ms", "ms"),
    ("daemon.roundtrip_us", "us"),
    ("daemon.wait_us", "us"),
    ("daemon.mean_batch", "rows"),
    ("daemon.service_ewma_us", "us"),
    ("daemon.shed", "count"),
    ("daemon.swap_ms", "ms"),
    ("daemon.max_rps", "1/s"),
    ("daemon.lateness_ms", "ms"),
    ("trace.stage_share", "share"),
    ("trace.overhead_share", "share"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--commit" => args.commit = value()?,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("nr-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work_dir = PathBuf::from(".perfbench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("nr-perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = Config {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        work_dir: work_dir.clone(),
        cores,
    };
    let tracer = Tracer::new(args.trace);
    println!(
        "provenance {{\"commit\":\"{}\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"traced\":{},\"smoke\":{},\"host.cores\":{}}}",
        args.commit, args.workload, args.seed, args.seconds, args.trace, args.smoke, cores
    );
    let result = match args.workload.as_str() {
        "mine" => mine::run(&config, &tracer),
        "bulk_score" => bulk::run(&config, &tracer),
        "serve" => serve::run(&config, &tracer),
        other => Err(format!(
            "unknown workload {other:?} (expected mine, bulk_score or serve)"
        )),
    };
    if args.trace {
        let spans = work_dir.with_extension("spans.jsonl");
        if let Err(e) = tracer.write_jsonl(&spans) {
            eprintln!("nr-perfbench: writing {}: {e}", spans.display());
        }
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("nr-perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    match emit(&report, wanted) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("nr-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints every wanted metric by name and unit, then the result object
/// as the last line. Returns whether the run was correct.
fn emit(report: &Report, wanted: &[(&str, &str)]) -> Result<bool, String> {
    let mut json = Vec::new();
    for &(name, unit) in wanted {
        let value = report
            .metric(name)
            .ok_or_else(|| format!("workload did not measure {name}"))?;
        if !value.is_finite() {
            return Err(format!("{name} is not finite ({value})"));
        }
        println!("{name:<28} {value:>16.6} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        json.join(", ")
    );
    Ok(correct)
}
