//! `bulk_score`: a table far larger than any cache, scored from CSV on
//! disk to classes. Each operation ingests the CSV into a spilled
//! `nr_store` store (64k-row segments) and scores every segment with the
//! compiled model in `ServeMode::Hybrid`.

use std::path::PathBuf;
use std::time::Instant;

use nr_datagen::{agrawal_schema, class_names, Function, Generator};
use nr_rules::{Predictor, RuleSet};
use nr_serve::{ServeMode, ServeModel};
use nr_store::StoreConfig;

use crate::alloc;
use crate::common::{self, class_checksum, median, Config, Report};
use crate::mine;
use crate::serve;
use crate::trace::Tracer;

const SEGMENT_ROWS: usize = 64 * 1024;

struct Setup {
    dir: PathBuf,
    csv: PathBuf,
    rows: usize,
    model: ServeModel,
    rules: RuleSet,
    job_s: f64,
    /// Class checksum of the whole table, scored in RAM.
    reference: u64,
}

fn setup(config: &Config, k: usize, report: &mut Report) -> Result<Setup, String> {
    let dir = config.work_dir.join(format!("bulk-setup-{k}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let rows = if config.smoke { 50_000 } else { 1_000_000 };
    let csv = dir.join("table.csv");
    {
        let file = std::fs::File::create(&csv).map_err(|e| e.to_string())?;
        let mut out = std::io::BufWriter::new(file);
        Generator::new(config.stream_seed(40))
            .with_perturbation(common::PERTURBATION)
            .write_csv_streaming(Function::F2, rows, &mut out)
            .map_err(|e| format!("writing table: {e}"))?;
        std::io::Write::flush(&mut out).map_err(|e| e.to_string())?;
    }
    let mut job = mine::Job::new(config, &dir, Function::F2, 41)?;
    let mined = mine::mine_and_check(config, &mut job, &Tracer::new(false), report)?;
    let model = mined.served.with_mode(ServeMode::Hybrid);
    // The reference reads the CSV with the serial in-RAM reader, a
    // different parser than the store's parallel mapped ingest.
    let file = std::fs::File::open(&csv).map_err(|e| e.to_string())?;
    let table = nr_tabular::read_csv_streaming(
        agrawal_schema(),
        class_names(),
        std::io::BufReader::new(file),
    )
    .map_err(|e| format!("reading table: {e}"))?;
    let reference = class_checksum(&model.predict_batch(&table.view()), 0);
    Ok(Setup {
        dir,
        csv,
        rows,
        model,
        rules: mined.model.ruleset,
        job_s: mined.elapsed_s,
        reference,
    })
}

/// One operation: CSV on disk to a class per row. Returns the class
/// checksum and the number of rows answered correctly.
fn score_table(config: &Config, s: &Setup, tracer: &Tracer) -> Result<(u64, usize), String> {
    tracer.span("bulk.op", || {
        let store = tracer
            .span("store.ingest", || {
                nr_store::ingest_csv_file(
                    agrawal_schema(),
                    class_names(),
                    &s.csv,
                    StoreConfig::spilling(SEGMENT_ROWS, s.dir.join("spill"))
                        .with_threads(config.cores),
                )
            })
            .map_err(|e| format!("ingest: {e}"))?;
        tracer.count("store.rows", store.rows() as f64);
        tracer.count("store.segments", store.n_segments() as f64);
        let mut checksum = 0;
        let mut hits = 0;
        for view in store.views() {
            let classes = common::score_hybrid(&s.model, &view, tracer);
            checksum = class_checksum(&classes, checksum);
            hits += classes
                .iter()
                .zip(view.labels())
                .filter(|(c, l)| **c == *l)
                .count();
        }
        Ok((checksum, hits))
    })
}

pub fn run(config: &Config, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let traced = tracer.enabled();
    let (s, setup_s) = common::repeated_setup(|k| setup(config, k, &mut report))?;
    report.set("setup_s", setup_s);
    report.set("rules", s.model.rules().n_rules() as f64);

    let started = Instant::now();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut peaks = Vec::new();
    let mut hits = 0;
    for pass in 0.. {
        let trace_this = traced && pass % 2 == 1;
        let enough = if traced {
            !traced_s.is_empty()
        } else {
            !untraced_s.is_empty()
        };
        if enough && started.elapsed().as_secs_f64() >= config.seconds {
            break;
        }
        tracer.set_enabled(trace_this);
        alloc::reset_peak();
        let t = Instant::now();
        let (checksum, h) = score_table(config, &s, tracer)?;
        let elapsed = t.elapsed().as_secs_f64();
        peaks.push(alloc::peak_mib());
        if trace_this {
            &mut traced_s
        } else {
            &mut untraced_s
        }
        .push(elapsed);
        hits = h;
        report.check(checksum == s.reference, || {
            format!(
                "pass {pass}: class checksum {checksum:#x}, in-RAM reference {:#x}",
                s.reference
            )
        });
    }
    tracer.set_enabled(traced);

    let op_s = median(&untraced_s);
    report.set("op_p50_ms", op_s * 1e3);
    report.set("rows_per_s", s.rows as f64 / op_s);
    report.set("peak_heap_mib", median(&peaks));
    report.set("accuracy", hits as f64 / s.rows as f64);
    report.notes.push(format!(
        "{} untraced passes over {} rows in {SEGMENT_ROWS}-row segments",
        untraced_s.len(),
        s.rows
    ));

    if traced {
        // Mining layers from one traced replay of the set-up's job; the
        // scoring layers from this run's traced passes.
        mine::traced_setup_job(config, Function::F2, (&s.rules, s.job_s), &mut report)?;
        let passes = traced_s.len() as f64;
        common::layer_metrics(&mut report, tracer, passes, true);
        report.set(
            "trace.stage_share",
            tracer.children_s("bulk.op") / tracer.total_s("bulk.op"),
        );
        report.set("trace.overhead_share", median(&traced_s) / op_s - 1.0);
        let requests = common::held_out(config, 42, Function::F2, 5_000);
        serve::daemon_probe(config, &s.model, &requests, &mut report)?;
    }
    Ok(report)
}
