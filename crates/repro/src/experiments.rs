//! `repro experiments` — generates `EXPERIMENTS.md`: the ablation tables
//! in markdown, a rules-vs-network scoring-throughput section sourced
//! from `BENCH_serving.json`, an out-of-core ingest section sourced from
//! `BENCH_ingest.json` (both when a bench run has produced one), and a
//! dictionary-encoding table computed in-process.

use serde::Deserialize;

use crate::ablation;

/// `BENCH_<name>.json` as written by the vendored criterion harness.
#[derive(Debug, Deserialize)]
struct BenchReport {
    bench: String,
    results: Vec<BenchRow>,
    #[serde(default)]
    metrics: Vec<BenchMetric>,
}

/// One derived figure of a bench report (`criterion::record_metric`).
#[derive(Debug, Deserialize)]
struct BenchMetric {
    name: String,
    value: f64,
}

/// One measurement row of a bench report.
#[derive(Debug, Deserialize)]
struct BenchRow {
    name: String,
    median_ns: f64,
    #[serde(default)]
    rows_per_sec: Option<f64>,
}

/// Runs the ablations and writes `EXPERIMENTS.md` (or `path`, when given).
pub fn run(path: Option<&str>) {
    let path = path.unwrap_or("EXPERIMENTS.md");
    let mut md = String::new();
    md.push_str(
        "# EXPERIMENTS — ablations and serving throughput\n\n\
         Generated by `cargo run --release -p nr-repro -- experiments`.\n\
         Pipeline ablations run the full paper-sized setup (Function 2,\n\
         1000 training tuples, Agrawal coding); wall-clock columns are\n\
         machine-dependent.\n",
    );

    eprintln!("running ablations (several pipeline fits; this takes a while)...");
    md.push_str("\n## Ablations\n");
    for table in ablation::tables() {
        md.push_str(&format!("\n### {}\n\n", table.title));
        md.push_str(&markdown_table(&table));
    }

    md.push_str("\n## Serving throughput (rules vs network)\n\n");
    match find_report("serving") {
        Some((source, report)) => md.push_str(&serving_section(&source, &report)),
        None => md.push_str(
            "No `BENCH_serving.json` found — run `cargo bench --bench serving`\n\
             (full mode, not `NR_BENCH_QUICK`) and regenerate to include the\n\
             scoring-throughput comparison.\n",
        ),
    }

    md.push_str("\n## Out-of-core ingest (`nr-store`)\n\n");
    match find_report("ingest") {
        Some((source, report)) => md.push_str(&ingest_section(&source, &report)),
        None => md.push_str(
            "No `BENCH_ingest.json` found — run `cargo bench --bench ingest`\n\
             (full mode, not `NR_BENCH_QUICK`) and regenerate to include the\n\
             ingest scoreboard.\n",
        ),
    }

    eprintln!("computing the dictionary-encoding table (one 20k-row ingest)...");
    md.push_str("\n## Dictionary encoding\n\n");
    md.push_str(&dictionary_section());

    match std::fs::write(path, md) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Renders an ablation table as GitHub-flavored markdown.
fn markdown_table(table: &ablation::Table) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", table.headers.join(" | ")));
    out.push_str(&format!(
        "|{}\n",
        table.headers.iter().map(|_| "---|").collect::<String>()
    ));
    for row in &table.rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

/// Looks for `BENCH_<bench>.json` in the places a bench run drops it:
/// `NR_BENCH_OUT_DIR`, the bench package root, and the current directory.
fn find_report(bench: &str) -> Option<(String, BenchReport)> {
    let file = format!("BENCH_{bench}.json");
    let mut candidates: Vec<std::path::PathBuf> = Vec::new();
    if let Ok(dir) = std::env::var("NR_BENCH_OUT_DIR") {
        candidates.push(std::path::Path::new(&dir).join(&file));
    }
    candidates.push(format!("crates/bench/{file}").into());
    candidates.push(file.into());
    for path in candidates {
        if let Ok(json) = std::fs::read_to_string(&path) {
            match serde_json::from_str::<BenchReport>(&json) {
                Ok(report) if report.bench == bench => {
                    return Some((path.display().to_string(), report));
                }
                _ => eprintln!("ignoring malformed {}", path.display()),
            }
        }
    }
    None
}

/// Batch size encoded in a serving-group row name
/// (`serving-<rows>-rows/<engine>`), `None` for other rows.
fn batch_rows(name: &str) -> Option<usize> {
    name.strip_prefix("serving-")?
        .split_once("-rows/")?
        .0
        .parse()
        .ok()
}

/// Batch size encoded in an engine row name
/// (`dag-vs-interpreted-<rows>-rows/<engine>`), `None` for other rows.
fn dag_rows(name: &str) -> Option<usize> {
    name.strip_prefix("dag-vs-interpreted-")?
        .split_once("-rows/")?
        .0
        .parse()
        .ok()
}

/// The paper's §1 comparison as measured numbers: how fast each serving
/// surface applies the model to the benchmark batch.
fn serving_section(source: &str, report: &BenchReport) -> String {
    let find = |suffix: &str| -> Option<&BenchRow> {
        report
            .results
            .iter()
            .find(|r| r.name.ends_with(suffix) && batch_rows(&r.name).is_some())
    };
    // The batch size the medians were measured on — quick-mode bench runs
    // shrink it, and the table must say so rather than pass 10k-row
    // numbers off as the 100k-row scoreboard.
    let rows = find("/compiled-rules").and_then(|r| batch_rows(&r.name));
    let mut out = format!(
        "Source: `{source}` (median of the bench run, batches of {}).\n",
        rows.map(|n| format!("{n} rows"))
            .unwrap_or_else(|| "unknown size".into()),
    );
    if rows.is_some_and(|n| n < 100_000) {
        out.push_str(
            "**Note:** this report came from a quick-mode bench run \
             (reduced workload); rerun `cargo bench --bench serving` \
             without `NR_BENCH_QUICK` for the full 100k-row scoreboard.\n",
        );
    }
    out.push('\n');
    out.push_str("| engine | median / batch | rows/sec |\n|---|---|---|\n");
    let engines = [
        ("compiled rules (`nr-serve`)", "/compiled-rules"),
        (
            "interpreted rules (`RuleSet::predict_row`)",
            "/interpreted-rules",
        ),
        (
            "network batch (interval indices, set bits)",
            "/network-batch",
        ),
        ("hybrid (rules, network fallback)", "/hybrid"),
    ];
    for (label, suffix) in engines {
        if let Some(row) = find(suffix) {
            out.push_str(&format!(
                "| {label} | {:.2} ms | {} |\n",
                row.median_ns / 1e6,
                row.rows_per_sec
                    .map(|r| format!("{:.1}M", r / 1e6))
                    .unwrap_or_else(|| "-".into()),
            ));
        }
    }
    if let (Some(rules), Some(net)) = (find("/compiled-rules"), find("/network-batch")) {
        out.push_str(&format!(
            "\nCompiled rules apply the model **{:.0}× faster** than the network\n\
             path on the same batch — the paper's \"rules are cheap to apply to\n\
             large databases\" claim (§1), measured.",
            net.median_ns / rules.median_ns
        ));
        if let Some(interp) = find("/interpreted-rules") {
            out.push_str(&format!(
                " The compiled engine is {:.1}× the\ninterpreted per-row rule path.\n",
                interp.median_ns / rules.median_ns
            ));
        } else {
            out.push('\n');
        }
    }
    out.push_str(&dag_subsection(report));
    out
}

/// The engine scoreboard (`dag-vs-interpreted` group): the decision-DAG
/// program, auto-parallel and on one thread, against the interpreted
/// loop. Empty when the report predates the group.
fn dag_subsection(report: &BenchReport) -> String {
    let find = |suffix: &str| -> Option<&BenchRow> {
        report
            .results
            .iter()
            .find(|r| r.name.ends_with(suffix) && dag_rows(&r.name).is_some())
    };
    let Some(dag) = find("/dag") else {
        return String::new();
    };
    let mut out = format!(
        "\n### Rule engines (same workload, {})\n\n",
        dag_rows(&dag.name)
            .map(|n| format!("batches of {n} rows"))
            .unwrap_or_else(|| "unknown batch size".into()),
    );
    out.push_str("| engine | median / batch | rows/sec |\n|---|---|---|\n");
    let engines = [
        ("decision DAG (auto threads)", "/dag"),
        ("decision DAG (1 thread)", "/dag-1-thread"),
        ("interpreted (`RuleSet::predict_row`)", "/interpreted"),
    ];
    for (label, suffix) in engines {
        if let Some(row) = find(suffix) {
            out.push_str(&format!(
                "| {label} | {:.2} ms | {} |\n",
                row.median_ns / 1e6,
                row.rows_per_sec
                    .map(|r| format!("{:.1}M", r / 1e6))
                    .unwrap_or_else(|| "-".into()),
            ));
        }
    }
    out
}

/// Row count encoded in an out-of-core ingest row name
/// (`out-of-core-ingest-<rows>-rows/<contender>`), `None` for others.
fn ooc_rows(name: &str) -> Option<usize> {
    name.strip_prefix("out-of-core-ingest-")?
        .split_once("-rows/")?
        .0
        .parse()
        .ok()
}

/// The `nr-store` ingest scoreboard: the serial in-RAM reader against
/// mmap-backed parallel ingest into spill segments, from
/// `BENCH_ingest.json`'s `out-of-core-ingest` group.
fn ingest_section(source: &str, report: &BenchReport) -> String {
    let find = |suffix: &str| -> Option<&BenchRow> {
        report
            .results
            .iter()
            .find(|r| r.name.ends_with(suffix) && ooc_rows(&r.name).is_some())
    };
    let Some(serial) = find("/serial-streaming-reader") else {
        return "The `BENCH_ingest.json` found predates the out-of-core group —\n\
                rerun `cargo bench --bench ingest` and regenerate.\n"
            .to_string();
    };
    let rows = ooc_rows(&serial.name);
    let cores = report
        .metrics
        .iter()
        .find(|m| m.name == "host.cores")
        .map(|m| format!("{} cores", m.value))
        .unwrap_or_else(|| "core count not recorded".into());
    let mut out = format!(
        "Source: `{source}` (median of the bench run, {}; host: {cores}). The\n\
         mmap rows parse the same CSV into spill-file segments through\n\
         `nr_store::ingest_csv_file` — output pinned bit-identical to the\n\
         serial reader at every thread count; parsing runs on the worker\n\
         pool while one sealer thread appends, spills and verifies, so even\n\
         one worker overlaps the two. The parse-only row is the same chunk\n\
         grid parsed on one thread with no sealing at all.\n",
        rows.map(|n| format!("{n} rows"))
            .unwrap_or_else(|| "unknown size".into()),
    );
    if rows.is_some_and(|n| n < 10_000_000) {
        out.push_str(
            "**Note:** this report came from a quick-mode bench run \
             (reduced workload); rerun `cargo bench --bench ingest` \
             without `NR_BENCH_QUICK` for the full 10M-row scoreboard.\n",
        );
    }
    out.push('\n');
    out.push_str("| contender | median / pass | rows/sec |\n|---|---|---|\n");
    let contenders = [
        (
            "serial streaming reader (in-RAM `Dataset`)",
            "/serial-streaming-reader",
        ),
        ("parse only, 1 thread (no sealing)", "/parse-blocks-1t"),
        ("mmap spill ingest, 1 thread", "/mmap-spill-ingest-1t"),
        ("mmap spill ingest, 2 threads", "/mmap-spill-ingest-2t"),
        ("mmap spill ingest, 4 threads", "/mmap-spill-ingest-4t"),
    ];
    for (label, suffix) in contenders {
        if let Some(row) = find(suffix) {
            out.push_str(&format!(
                "| {label} | {:.2} ms | {} |\n",
                row.median_ns / 1e6,
                row.rows_per_sec
                    .map(|r| format!("{:.2}M", r / 1e6))
                    .unwrap_or_else(|| "-".into()),
            ));
        }
    }
    out.push_str(
        "\nThe full-mode bench also runs the end-to-end out-of-core pass —\n\
         ingest → encoder fit over segment views → compiled scoring, one\n\
         mapped segment at a time — under a counting allocator and asserts\n\
         peak heap stays under a quarter of the CSV size.\n",
    );
    out
}

/// Dictionary encoding, demonstrated on the generator's nominal columns:
/// categories are discovered from the data and coded by descending
/// frequency, so code 0 is always the most common category. Computed
/// in-process (one 20k-row ingest), deterministic given the seed.
fn dictionary_section() -> String {
    use nr_datagen::{agrawal_schema, class_names, Function, Generator};
    use nr_store::{ingest_csv_bytes_with_dict, StoreConfig};

    let n = 20_000;
    let mut csv = Vec::new();
    Generator::new(42)
        .with_perturbation(0.05)
        .write_csv_streaming(Function::F2, n, &mut csv)
        .expect("stream csv to memory");
    let ingest = ingest_csv_bytes_with_dict(
        &agrawal_schema(),
        class_names(),
        &csv,
        StoreConfig::in_ram(4096),
    )
    .expect("dictionary ingest");
    let mut out = format!(
        "Discovered from {n} generated tuples (Function 2, seed 42) by\n\
         `nr_store::ingest_csv_bytes_with_dict`: per-column interners\n\
         replace declared nominal domains, and codes are assigned by\n\
         descending frequency (ties by name), so low codes are the hot\n\
         categories.\n\n",
    );
    out.push_str(
        "| attribute | declared domain | observed | top category (count) |\n|---|---|---|---|\n",
    );
    let schema = agrawal_schema();
    for dict in &ingest.dictionaries {
        let declared = schema
            .attribute(dict.attribute)
            .cardinality()
            .map(|c| c.to_string())
            .unwrap_or_else(|| "-".into());
        out.push_str(&format!(
            "| {} | {declared} | {} | {} ({}) |\n",
            dict.name,
            dict.categories.len(),
            dict.categories.first().map(String::as_str).unwrap_or("-"),
            dict.counts.first().copied().unwrap_or(0),
        ));
    }
    out.push_str(
        "\nThe encoded input width tracks *observed* cardinality: a nominal\n\
         attribute whose declared domain is sparsely used costs only its\n\
         observed categories in network inputs.\n",
    );
    out
}
