//! Regenerate the paper's tables and figures from a simulated Intrepid.
//!
//! ```text
//! experiments [--seed N] [--small] [--json DIR] <subcommand>
//!
//! subcommands: table1 schema table4 table5 table6
//!              fig3 fig4 fig5 fig6 fig7 fig7avg
//!              observations codes scorecard prediction checkpoint
//!              ablation sweep all
//! ```
//!
//! This binary reproduces results only; `perfbench/` is the benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bgp_bench::{Experiments, Scale};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut seed = 42u64;
    let mut scale = Scale::Full;
    let mut json_dir: Option<PathBuf> = None;
    let mut command: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage("--seed needs an integer"),
            },
            "--small" => scale = Scale::Small,
            "--json" => match args.next() {
                Some(v) => json_dir = Some(PathBuf::from(v)),
                None => return usage("--json needs a directory"),
            },
            "--help" | "-h" => return usage(""),
            other if command.is_none() && !other.starts_with('-') => {
                command = Some(other.to_owned());
            }
            other => return usage(&format!("unrecognized argument {other:?}")),
        }
    }
    let Some(command) = command else {
        return usage("missing subcommand");
    };

    // These run their own simulations.
    if command == "fig7avg" {
        println!("{}", Experiments::fig7_across_seeds(scale, seed, 5));
        return ExitCode::SUCCESS;
    }
    if command == "sweep" {
        println!("{}", Experiments::sweep_same_partition(scale, seed));
        return ExitCode::SUCCESS;
    }

    eprintln!(
        "simulating ({} preset, seed {seed}) and running co-analysis...",
        if scale == Scale::Full {
            "full 237-day"
        } else {
            "small 12-day"
        }
    );
    let t0 = std::time::Instant::now();
    let e = Experiments::run(scale, seed);
    eprintln!(
        "done in {:.1?}: {} RAS records, {} jobs, {} events after filtering\n",
        t0.elapsed(),
        e.out.ras.len(),
        e.out.jobs.len(),
        e.result.filter_stats.after_causal,
    );

    let output = match command.as_str() {
        "table1" => e.table1(),
        "schema" | "table2" | "table3" => e.schema(),
        "table4" => e.table4(),
        "table5" => e.table5(),
        "table6" => e.table6(),
        "fig3" => e.fig3(),
        "fig4" => e.fig4(),
        "fig5" => e.fig5(),
        "fig6" => e.fig6(),
        "fig7" => e.fig7(),
        "observations" | "obs" => e.observations(),
        "codes" => e.codes(),
        "scorecard" => e.scorecard(),
        "prediction" => e.prediction(),
        "checkpoint" => e.checkpoint(),
        "ablation" => e.ablation(),
        "all" => e.all(),
        other => return usage(&format!("unknown subcommand {other:?}")),
    };
    println!("{output}");

    if let Some(dir) = json_dir {
        match e.export_json(&dir) {
            Ok(()) => eprintln!("JSON series written to {}", dir.display()),
            Err(err) => {
                eprintln!("failed to write JSON: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: experiments [--seed N] [--small] [--json DIR] <subcommand>\n\
         subcommands: table1 schema table4 table5 table6 fig3 fig4 fig5 fig6 fig7\n\
         \x20             fig7avg observations codes scorecard prediction checkpoint\n\
         \x20             ablation sweep all"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
