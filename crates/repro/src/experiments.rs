//! `repro experiments` — generates `EXPERIMENTS.md`: the ablation tables
//! in markdown, then the serving-throughput and out-of-core ingest
//! scoreboards measured in-process at full size (which asserts their
//! four bars, see [`scoreboard`]), and a dictionary-encoding table.

use crate::{ablation, scoreboard};

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

    eprintln!("measuring the full-size scoreboards (a 10M-row CSV in the temp dir)...");
    let model = scoreboard::fixture();
    md.push_str("\n## Serving throughput (rules vs network)\n\n");
    md.push_str(&scoreboard::serving(&model, &scoreboard::FULL).markdown());
    md.push_str("\n## Out-of-core ingest (`nr-store`)\n\n");
    md.push_str(&scoreboard::ingest(&model, &scoreboard::FULL).markdown());

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
