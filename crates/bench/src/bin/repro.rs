//! Reproduction driver: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p slicer-bench --release --bin repro -- [--experiment ID] [--scale F] [--queries N] [--csv DIR]
//! ```
//!
//! * `--experiment` — `all` (default), `fig3`, `fig4` (runs with fig3),
//!   `fig5`, `fig6` (runs with fig5), `fig7`, `table2`, `bench`
//!   (telemetry phase profile, written as `bench.csv`) and `telemetry`
//!   (the same profile; writes the `BENCH_build.json` /
//!   `BENCH_search.json` baselines, and no CSV, into the `--csv`
//!   directory).
//! * `--scale` — multiplier on the paper's 10K–160K record sweep
//!   (default 0.05; use 1.0 for the full-size runs).
//! * `--queries` — queries averaged per search data point (default 3).
//! * `--csv` — also write each table as CSV into this directory.

use slicer_bench::experiments;
use slicer_bench::Table;
use std::path::PathBuf;

struct Args {
    experiment: String,
    scale: f64,
    queries: usize,
    csv: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: "all".into(),
        scale: 0.05,
        queries: 3,
        csv: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--experiment" | "-e" => {
                args.experiment = it.next().expect("--experiment needs a value");
            }
            "--scale" | "-s" => {
                args.scale = it
                    .next()
                    .expect("--scale needs a value")
                    .parse()
                    .expect("--scale must be a float");
            }
            "--queries" | "-q" => {
                args.queries = it
                    .next()
                    .expect("--queries needs a value")
                    .parse()
                    .expect("--queries must be an integer");
            }
            "--csv" => {
                args.csv = Some(PathBuf::from(it.next().expect("--csv needs a directory")));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--experiment all|fig3|fig5|fig7|table2|bench|telemetry] [--scale F] [--queries N] [--csv DIR]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    println!(
        "Slicer reproduction — experiment={} scale={} queries={}",
        args.experiment, args.scale, args.queries
    );
    println!(
        "(record sweep: {:?})",
        slicer_bench::record_sweep(args.scale)
    );

    let tables: Vec<Table> = match args.experiment.as_str() {
        "all" => experiments::all(args.scale, args.queries),
        "fig3" | "fig4" | "fig3a" | "fig3b" | "fig4a" | "fig4b" => {
            experiments::build_experiments(args.scale, &[8, 16, 24])
        }
        "fig5" | "fig6" | "fig5a" | "fig5b" | "fig5c" | "fig5d" | "fig6a" | "fig6b" | "fig6c"
        | "fig6d" => experiments::search_experiments(args.scale, &[8, 16], args.queries),
        "fig7" => experiments::insert_experiment(args.scale, &[8, 16, 24]),
        "table2" => experiments::gas_experiment(),
        "bench" => experiments::telemetry_experiment(args.scale, args.queries, None),
        "telemetry" => {
            // Writes the baselines, and no CSV, into the `--csv` directory.
            let tables =
                experiments::telemetry_experiment(args.scale, args.queries, args.csv.as_deref());
            tables.iter().for_each(|t| print!("{t}"));
            return;
        }
        other => {
            eprintln!("unknown experiment {other}; try --help");
            std::process::exit(2);
        }
    };

    for t in &tables {
        print!("{t}");
        if let Some(dir) = &args.csv {
            t.write_csv(dir).expect("CSV directory is writable");
        }
    }
    if let Some(dir) = &args.csv {
        println!("\nCSV written to {}", dir.display());
    }
}
