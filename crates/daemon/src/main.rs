//! CLI for the serving daemon.
//!
//! ```text
//! nr-daemon serve [--port N] [--model FILE.json]   # run a daemon
//! nr-daemon load [--quick]                         # run the load harness
//! nr-daemon chaos [--quick]                        # run the fault-injection harness
//! ```
//!
//! `serve` hosts one model under the default name: either a
//! `ServeModel` JSON bundle from `--model`, or (for demos) the built-in
//! deterministic fixture; a line on stdin (or closing an interactive
//! stdin) triggers a graceful drain and prints the [`DrainReport`].
//! `load` is the daemon bench: it runs the full harness (private module
//! [`load`]) against freshly spawned in-process daemons and writes
//! `BENCH_daemon.json`; `chaos` runs just the overload/fault scenario
//! and prints the SLO numbers. `--quick`, their only switch, is the CI
//! smoke sizing.
//!
//! [`DrainReport`]: nr_daemon::DrainReport

mod load;

use nr_daemon::{fixture, Daemon, DaemonConfig};
use nr_serve::ServeModel;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: nr-daemon serve [--port N] [--model FILE.json] [--registry DIR]\n       \
         nr-daemon load [--quick]\n       nr-daemon chaos [--quick]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("load") => run_load(&args[1..]),
        Some("chaos") => run_chaos(&args[1..]),
        _ => fail("expected a subcommand: serve | load | chaos"),
    }
}

fn quick_flag(args: &[String]) -> bool {
    if let Some(bad) = args.iter().find(|a| a.as_str() != "--quick") {
        fail(&format!("unknown flag {bad:?}"));
    }
    args.iter().any(|a| a == "--quick")
}

fn serve(args: &[String]) {
    let mut port = 0u16;
    let mut model_path: Option<String> = None;
    let mut registry: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--port" => match it.next().map(|p| p.parse()) {
                Some(Ok(p)) => port = p,
                _ => fail("--port needs a number"),
            },
            "--model" => match it.next() {
                Some(p) => model_path = Some(p.clone()),
                None => fail("--model needs a file path"),
            },
            "--registry" => match it.next() {
                Some(d) => registry = Some(d.into()),
                None => fail("--registry needs a directory path"),
            },
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    let model = match model_path {
        Some(path) => match ServeModel::load(&path) {
            Ok(model) => model,
            Err(e) => fail(&format!("loading {path}: {e}")),
        },
        None => {
            eprintln!("no --model given; serving the built-in demo fixture");
            fixture::serving_fixture(1).model_a
        }
    };
    // With a registry, a committed history takes precedence over
    // --model: startup is crash recovery (Daemon::start boots the last
    // good committed version; --model only seeds an empty registry).
    let daemon = match Daemon::start(
        DaemonConfig {
            port,
            registry,
            ..DaemonConfig::default()
        },
        vec![("default".into(), model)],
    ) {
        Ok(daemon) => daemon,
        Err(e) => fail(&format!("binding: {e}")),
    };
    println!("nr-daemon serving on http://{}", daemon.addr());
    println!(
        "endpoints: GET /healthz /stats /model; POST /predict /predict/bulk /model/rollback; \
         PUT /model"
    );
    println!("press Enter (or send a line on stdin) to drain gracefully");
    // Block on stdin: a line triggers a graceful drain. When stdin is
    // closed from the start (`serve < /dev/null`, a service manager),
    // EOF arrives immediately — park forever instead of draining a
    // daemon nobody asked to stop.
    let mut line = String::new();
    match std::io::stdin().read_line(&mut line) {
        Ok(n) if n > 0 => {
            eprintln!("draining...");
            let report = daemon.shutdown();
            match serde_json::to_string(&report) {
                Ok(json) => println!("{json}"),
                Err(e) => eprintln!("drain report failed to serialize: {e}"),
            }
            if !report.clean {
                std::process::exit(1);
            }
        }
        _ => loop {
            std::thread::park();
        },
    }
}

fn run_load(args: &[String]) {
    let report = load::run_load(quick_flag(args));
    println!(
        "daemon load ({}): coalesced {:.0} rows/s (p50 {:.0}us, p95 {:.0}us, p99 {:.0}us, \
         largest batch {}) vs uncoalesced {:.0} rows/s (p50 {:.0}us, p99 {:.0}us) -> {:.2}x",
        if report.quick { "quick" } else { "full" },
        report.coalesced.rows_per_sec,
        report.coalesced.p50_us,
        report.coalesced.p95_us,
        report.coalesced.p99_us,
        report.coalesced.largest_batch,
        report.uncoalesced.rows_per_sec,
        report.uncoalesced.p50_us,
        report.uncoalesced.p99_us,
        report.speedup,
    );
    println!(
        "hot swap under load: {} requests across {} swaps, {} failed, {} mixed-version (final v{})",
        report.swap.requests,
        report.swap.swaps,
        report.swap.failed,
        report.swap.mixed_version,
        report.swap.final_version,
    );
    print_chaos(&report.chaos);
    println!("wrote BENCH_daemon.json");
}

fn run_chaos(args: &[String]) {
    print_chaos(&load::run_chaos(quick_flag(args)));
}

fn print_chaos(c: &load::ChaosReport) {
    println!(
        "chaos ({}): {} requests at {:.1}x saturation, deadline {} ms -> {} accepted \
         (p50 {:.1} ms, p99 {:.1} ms, 0 deadline misses), shed {} x429 + {} x503 \
         ({:.0}% shed rate, shed p99 {:.2} ms), {} x408, {} panics answered",
        if c.quick { "quick" } else { "full" },
        c.total_requests,
        c.saturation,
        c.deadline_ms,
        c.accepted,
        c.accepted_p50_us / 1_000.0,
        c.accepted_p99_us / 1_000.0,
        c.shed_429,
        c.shed_503,
        c.shed_rate * 100.0,
        c.shed_p99_us / 1_000.0,
        c.timed_out_408,
        c.panic_500,
    );
    println!(
        "chaos faults: {} injected panics survived, {}/{} stalled sockets evicted, \
         {} mid-burst swaps with {} mixed-version answers",
        c.faults_panics_injected,
        c.slowloris_evicted,
        c.slowloris_connections,
        c.swaps,
        c.mixed_version,
    );
    println!(
        "chaos drain: {} in flight at drain, {} abandoned, {} hung threads, \
         {} forced closes, {:.1} ms, clean={} ({} draining 503s observed)",
        c.drain.inflight_at_drain,
        c.drain.inflight_abandoned,
        c.drain.hung_threads,
        c.drain.forced_closes,
        c.drain.drain_ms,
        c.drain.clean,
        c.drain_rejected_observed,
    );
}
