//! `mine`: the paper's own pipeline, per function F1, F2 and F4 —
//! training CSV written to disk, ingested with `nr_store`, mined with
//! `NeuroRule::fit`, compiled, committed to a `ModelRegistry`, and the
//! held-out test set scored with the compiled rules.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use neurorule::{Model, NeuroRule, PipelineReport};
use nr_datagen::{agrawal_schema, class_names, Function};
use nr_encode::Encoder;
use nr_nn::Mlp;
use nr_rules::{Predictor, RuleSet};
use nr_serve::{ModelRegistry, ServeMode, ServeModel};
use nr_store::StoreConfig;
use nr_tabular::Dataset;

use crate::alloc;
use crate::common::{self, median, Config, Report};
use crate::serve;
use crate::trace::Tracer;

const FUNCTIONS: [Function; 3] = [Function::F1, Function::F2, Function::F4];

/// One mining job: pinned training set, seeded held-out test set, and
/// the job's own CSV path and model registry.
pub struct Job {
    function: Function,
    train: Dataset,
    test: Dataset,
    csv: PathBuf,
    registry: ModelRegistry,
}

impl Job {
    /// Prepares the job for `function` under `dir` (the test set is the
    /// run seed's stream `stream`).
    pub fn new(
        config: &Config,
        dir: &Path,
        function: Function,
        stream: u64,
    ) -> Result<Job, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let test_rows = if config.smoke { 300 } else { 20_000 };
        let registry = ModelRegistry::open(dir.join(format!("registry-{function:?}")), 4)
            .map_err(|e| format!("opening registry: {e}"))?;
        Ok(Job {
            function,
            train: common::training_set(config, function),
            test: common::held_out(config, stream, function, test_rows),
            csv: dir.join(format!("train-{function:?}.csv")),
            registry,
        })
    }
}

fn setup(config: &Config, k: usize) -> Result<Vec<Job>, String> {
    let dir = config.work_dir.join(format!("mine-setup-{k}"));
    FUNCTIONS
        .iter()
        .enumerate()
        .map(|(i, &function)| Job::new(config, &dir, function, 10 + i as u64))
        .collect()
}

/// What one mining job produced.
pub struct Mined {
    pub model: Model,
    pub served: ServeModel,
    /// Wall time of the job itself, without its correctness gates.
    pub elapsed_s: f64,
    version: u64,
    test_predicted: Vec<usize>,
}

/// Mines `job` and runs its correctness gates.
pub fn mine_and_check(
    config: &Config,
    job: &mut Job,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<Mined, String> {
    let mined = mine_job(config, job, tracer)?;
    check_job(job, &mined, tracer, report);
    Ok(mined)
}

/// For workloads that mine in set-up: replays the set-up's job once,
/// traced, and sets every span-derived per-layer metric from it, with
/// the stage share and the tracing overhead against the untraced job
/// (`untraced`: its rule set and wall time).
pub fn traced_setup_job(
    config: &Config,
    function: Function,
    untraced: (&RuleSet, f64),
    report: &mut Report,
) -> Result<(), String> {
    let tracer = Tracer::new(true);
    let dir = config.work_dir.join("traced-setup");
    let mut job = Job::new(config, &dir, function, 31)?;
    let mined = tracer.span("mine.op", || mine_job(config, &mut job, &tracer))?;
    check_job(&mut job, &mined, &tracer, report);
    report.check(mined.model.ruleset == *untraced.0, || {
        format!("{function:?}: staged replay mined a different rule set than NeuroRule::fit")
    });
    common::layer_metrics(report, &tracer, 1.0, false);
    report.set(
        "trace.stage_share",
        tracer.children_s("mine.op") / tracer.total_s("mine.op"),
    );
    report.set("trace.overhead_share", mined.elapsed_s / untraced.1 - 1.0);
    Ok(())
}

/// One job, CSV on disk to committed model and scored test set. Traced,
/// `NeuroRule::fit` is replayed stage by stage.
fn mine_job(config: &Config, job: &mut Job, tracer: &Tracer) -> Result<Mined, String> {
    let started = Instant::now();
    tracer.span("tabular.csv_write", || -> Result<(), String> {
        let file = std::fs::File::create(&job.csv).map_err(|e| e.to_string())?;
        let mut out = std::io::BufWriter::new(file);
        nr_tabular::write_csv(&job.train, &mut out).map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())
    })?;
    let train = tracer.span("store.ingest", || -> Result<Dataset, String> {
        let store = nr_store::ingest_csv_file(
            agrawal_schema(),
            class_names(),
            &job.csv,
            StoreConfig::in_ram(64 * 1024).with_threads(config.cores),
        )
        .map_err(|e| format!("ingest: {e}"))?;
        tracer.count("store.rows", store.rows() as f64);
        tracer.count("store.segments", store.n_segments() as f64);
        store.to_dataset().map_err(|e| format!("materialize: {e}"))
    })?;
    let pipeline = NeuroRule::default().with_encoder(Encoder::agrawal());
    let model = if tracer.enabled() {
        fit_staged(&pipeline, &train, tracer)?
    } else {
        pipeline.fit(&train).map_err(|e| e.to_string())?
    };
    let served = tracer.span("serve.compile", || model.compile());
    let version = tracer
        .span("serve.registry_commit", || job.registry.commit(&served))
        .map_err(|e| format!("registry commit: {e}"))?;
    let test_predicted = tracer.span("serve.rules", || served.predict_batch(&job.test.view()));
    Ok(Mined {
        model,
        served,
        elapsed_s: started.elapsed().as_secs_f64(),
        version,
        test_predicted,
    })
}

/// `NeuroRule::fit` (crates/core/src/pipeline.rs) step for step, each
/// stage under its layer's span.
fn fit_staged(pipeline: &NeuroRule, train: &Dataset, tracer: &Tracer) -> Result<Model, String> {
    let encoder = pipeline.encoder.clone().ok_or("pipeline has no encoder")?;
    let encoded = tracer.span("encode.encode", || encoder.encode_dataset(train));
    let mut net = Mlp::random(
        encoder.n_inputs(),
        pipeline.hidden_nodes,
        train.n_classes(),
        pipeline.seed,
    );
    let train_report = tracer.span("nn.train", || pipeline.trainer.train(&mut net, &encoded));
    tracer.count("nn.train_iters", train_report.iterations as f64);
    tracer.count("nn.objective_evals", train_report.evaluations as f64);
    let prune_outcome = tracer.span("prune", || {
        nr_prune::prune(&mut net, &encoded, &pipeline.prune)
    });
    tracer.count("prune.rounds", prune_outcome.rounds as f64);
    tracer.count(
        "prune.retrains",
        prune_outcome.trace.iter().filter(|r| r.retrained).count() as f64,
    );
    tracer.count("prune.links_left", prune_outcome.remaining_links as f64);
    let mut rx_config = pipeline.rx.clone();
    rx_config.accuracy_floor = rx_config
        .accuracy_floor
        .min((prune_outcome.final_accuracy - 0.01).max(0.0));
    let rx = tracer
        .span("rulex.extract", || {
            nr_rulex::extract(&net, &encoder, &encoded, train.class_names(), &rx_config)
        })
        .map_err(|e| format!("rule extraction: {e}"))?;
    tracer.count("rulex.bit_rules", rx.bit_rules.len() as f64);
    let net_predictions = tracer.span("nn.forward", || net.classify_batch(&encoded));
    let ruleset = tracer.span("rules.reduce", || {
        rx.ruleset.reduced(train, &net_predictions)
    });
    tracer.count("rules.count", ruleset.len() as f64);
    let train_rule_accuracy = tracer.span("rules.reduce", || ruleset.accuracy(train));
    let train_network_accuracy = tracer.span("nn.forward", || net.accuracy(&encoded));
    Ok(Model {
        encoder,
        network: net,
        ruleset,
        report: PipelineReport {
            train_report,
            prune_outcome,
            rx_trace: rx.trace,
            bit_rules: rx.bit_rules,
            train_rule_accuracy,
            train_network_accuracy,
        },
    })
}

/// Correctness gates on one mined job (outside the timed pass).
fn check_job(job: &mut Job, mined: &Mined, tracer: &Tracer, report: &mut Report) {
    let name = format!("{:?}", job.function);
    let view = job.test.view();
    // The registry-reloaded model answers exactly as the in-memory one.
    match job.registry.latest_good() {
        Ok(Some((version, reloaded))) => {
            report.check(version == mined.version, || {
                format!(
                    "{name}: registry reloaded v{version}, committed v{}",
                    mined.version
                )
            });
            report.check(
                reloaded.predict_batch(&view) == mined.test_predicted,
                || format!("{name}: registry-reloaded model answers differently"),
            );
        }
        Ok(None) => report.check(false, || {
            format!("{name}: registry is empty after a commit")
        }),
        Err(e) => report.check(false, || format!("{name}: registry reload failed: {e}")),
    }
    // Compiled rules agree with the interpreted rule set.
    let interpreted: Vec<usize> = (0..job.test.len())
        .map(|i| mined.model.ruleset.predict_row(&job.test, i))
        .collect();
    report.check(interpreted == mined.test_predicted, || {
        format!("{name}: compiled rules disagree with RuleSet::predict_row")
    });
    // Hybrid serving (replayed from its parts when traced) agrees with
    // the production path.
    let hybrid = mined.served.clone().with_mode(ServeMode::Hybrid);
    let production = hybrid.predict_batch(&view);
    report.check(
        common::score_hybrid(&hybrid, &view, tracer) == production,
        || format!("{name}: hybrid replay disagrees with ServeModel::predict_batch"),
    );
}

pub fn run(config: &Config, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    // The set-up itself is not traced.
    let traced = tracer.enabled();
    tracer.set_enabled(false);
    let (mut jobs, setup_s) = common::repeated_setup(|k| setup(config, k))?;
    report.set("setup_s", setup_s);

    let started = Instant::now();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut peaks = Vec::new();
    let mut fitted: Vec<Option<RuleSet>> = vec![None; jobs.len()];
    let mut last: Vec<Mined> = Vec::new();
    // Traced runs alternate untraced and traced passes: the untraced
    // ones give the overhead baseline and `NeuroRule::fit`'s rule sets
    // for the replay check.
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
        let mined = tracer.span("mine.op", || {
            jobs.iter_mut()
                .map(|job| mine_job(config, job, tracer))
                .collect::<Result<Vec<_>, _>>()
        })?;
        let elapsed = t.elapsed().as_secs_f64();
        peaks.push(alloc::peak_mib());
        if trace_this {
            &mut traced_s
        } else {
            &mut untraced_s
        }
        .push(elapsed);
        for ((job, m), fit_rules) in jobs.iter_mut().zip(&mined).zip(fitted.iter_mut()) {
            check_job(job, m, tracer, &mut report);
            match fit_rules {
                None => *fit_rules = Some(m.model.ruleset.clone()),
                Some(rules) => report.check(*rules == m.model.ruleset, || {
                    format!(
                        "{:?}: mined a different rule set than the first pass's NeuroRule::fit",
                        job.function
                    )
                }),
            }
        }
        last = mined;
    }
    tracer.set_enabled(traced);

    let op_s = median(&untraced_s);
    report.set("op_p50_ms", op_s * 1e3);
    let rows = (jobs.len() * config.training_rows()) as f64;
    report.set("rows_per_s", rows / op_s);
    report.set("peak_heap_mib", median(&peaks));
    report.set(
        "rules",
        last.iter().map(|m| m.model.ruleset.len()).sum::<usize>() as f64,
    );
    let accuracies: Vec<f64> = jobs
        .iter()
        .zip(&last)
        .map(|(job, m)| common::accuracy(&m.test_predicted, &job.test.view()))
        .collect();
    report.set(
        "accuracy",
        accuracies.iter().sum::<f64>() / accuracies.len() as f64,
    );
    report.notes.push(format!(
        "{} untraced passes of F1+F2+F4, {} training rows each, test accuracies {:?}",
        untraced_s.len(),
        config.training_rows(),
        accuracies
    ));

    if traced {
        let passes = traced_s.len() as f64;
        report.set(
            "trace.stage_share",
            tracer.children_s("mine.op") / tracer.total_s("mine.op"),
        );
        report.set("trace.overhead_share", median(&traced_s) / op_s - 1.0);
        common::layer_metrics(&mut report, tracer, passes, false);
        // The daemon layer, on the freshly committed F2 model.
        let f2 = jobs
            .iter()
            .position(|j| j.function == Function::F2)
            .ok_or("no F2 job")?;
        serve::daemon_probe(config, &last[f2].served, &jobs[f2].test, &mut report)?;
    }
    Ok(report)
}
