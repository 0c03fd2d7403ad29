//! `repro` — regenerates every table and figure of the NeuroRule paper.
//!
//! ```text
//! repro schema      Table 1: the attribute schema
//! repro coding      Table 2: the 86-bit input coding
//! repro fig3        Figure 3: pruned network for Function 2
//! repro rx-trace    §3.1: clusters, activation table, intermediate rules
//! repro fig5        Figure 5: NeuroRule rules for Function 2
//! repro fig6        Figure 6: C4.5rules rules for Function 2
//! repro fig7        Figure 7: Function 4 rules, NeuroRule vs C4.5rules
//! repro accuracy    §4.1: accuracy table, pruned networks vs C4.5
//! repro table3      Table 3: per-rule statistics for Function 4
//! repro ablation    extra: BFGS vs gradient descent, penalty on/off
//! repro experiments writes EXPERIMENTS.md: the ablation tables, the
//!                   serving and out-of-core ingest scoreboards measured
//!                   at full size (asserting their four bars; ~1 GiB of
//!                   scratch CSV in the temp dir) and the dictionary
//!                   table (optional arg: output path)
//! repro all         everything above in order (except experiments)
//! repro --quick     CI smoke: schema + coding tables, one reduced
//!                   end-to-end pipeline fit with floor assertions, and
//!                   the quick-sized scoreboards (spill bar armed only)
//! ```

mod ablation;
mod accuracy;
mod common;
mod experiments;
mod figures;
mod scoreboard;
mod smoke;
mod table3;
mod tables;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    match cmd {
        "--quick" | "quick" => {
            smoke::run();
            std::process::exit(0);
        }
        _ => {}
    }
    match cmd {
        "schema" => tables::table1(),
        "coding" => tables::table2(),
        "fig3" => figures::fig3(),
        "rx-trace" => figures::rx_trace(),
        "fig5" => figures::fig5(),
        "fig6" => figures::fig6(),
        "fig7" => figures::fig7(),
        "accuracy" => accuracy::run(),
        "table3" => table3::run(),
        "ablation" => ablation::run(),
        "experiments" => experiments::run(args.get(1).map(String::as_str)),
        "all" => {
            tables::table1();
            tables::table2();
            figures::fig3();
            figures::rx_trace();
            figures::fig5();
            figures::fig6();
            figures::fig7();
            accuracy::run();
            table3::run();
            ablation::run();
        }
        other => {
            eprintln!("unknown experiment {other:?}; see the module docs for the list");
            std::process::exit(2);
        }
    }
}
