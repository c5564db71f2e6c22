//! Sustained-throughput benchmark: N seeded searchers, Zipf query mix.
//!
//! This is the measurement tool behind the committed
//! `BENCH_throughput.json`. By default it drives a fresh in-process
//! deployment; point `SLICER_BENCH_CONNECT` at a running `slicerd`
//! endpoint to drive the daemon over the wire instead (the dataset is
//! ingested first, outside the measured window).
//!
//! ```text
//! SLICER_BENCH_N=200 SLICER_BENCH_SEARCHERS=4 SLICER_BENCH_QUERIES=8 \
//!     cargo run --release --example throughput_bench -- BENCH_throughput.json
//! ```

use slicer_workload::{run_against_daemon, run_in_process, ThroughputSpec};

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let spec = ThroughputSpec {
        records: env_u64("SLICER_BENCH_N", 200) as usize,
        value_bits: env_u64("SLICER_BENCH_BITS", 8) as u8,
        seed: env_u64("SLICER_BENCH_SEED", 42),
        searchers: env_u64("SLICER_BENCH_SEARCHERS", 4) as usize,
        queries_per_searcher: env_u64("SLICER_BENCH_QUERIES", 8) as usize,
        zipf_exponent: 1.0,
        payment: 1_000,
    };
    let out = std::env::args().nth(1);

    let report = match std::env::var("SLICER_BENCH_CONNECT") {
        Ok(ep) => {
            let endpoint = slicer_daemon::Endpoint::parse(&ep).expect("valid endpoint");
            let ingested = slicer_workload::ingest_into_daemon(&spec, &endpoint)
                .expect("dataset ingests into the daemon");
            println!("target             : slicerd at {ep} ({ingested} records ingested)");
            let pool = slicer_par::Pool::new(spec.searchers);
            run_against_daemon(&spec, &endpoint, &pool).expect("daemon run succeeds")
        }
        Err(_) => {
            println!("target             : in-process SlicerInstance");
            run_in_process(&spec).expect("in-process run succeeds")
        }
    };

    println!("records            : {}", spec.records);
    println!("searchers          : {}", spec.searchers);
    println!("queries            : {}", report.searches);
    println!("verified           : {}", report.verified);
    println!("window (s)         : {:.3}", report.wall_ns as f64 / 1e9);
    println!("searches/sec       : {:.1}", report.searches_per_sec());
    println!("p99 latency (ms)   : {:.3}", report.p99_ns as f64 / 1e6);
    println!("gas/search         : {}", report.mean_gas);
    if let Some(path) = out {
        let path = std::path::PathBuf::from(path);
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("results directory is creatable");
            }
        }
        std::fs::write(&path, report.to_json()).expect("results file is writable");
        println!("wrote {}", path.display());
    }

    if report.verified == report.searches {
        println!("THROUGHPUT BENCH OK");
    } else {
        println!("THROUGHPUT BENCH UNVERIFIED");
        std::process::exit(1);
    }
}
