//! `perfbench` — drives one workload against a real `slicerd`, checks
//! every answer, and prints the end-to-end metrics (or, with `--trace 1`,
//! the per-layer metrics of an in-process replay of the same requests).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --slicerd <path> --workdir <dir> [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! The exit code is 0 only when every answer, digest and restart checked
//! out. `perfbench/run.py` builds `slicerd` and this driver and is the
//! command to run; see `perfbench/README.md`.

mod daemon;
mod ops;
mod reference;
mod stats;
mod trace;
mod wire;

use daemon::{Workdir, THREADS};
use ops::{Op, Workload};
use stats::{label, mean, median, quantile, supports, tail_percentile, trimmed_mean};
use std::path::PathBuf;
use std::process::ExitCode;
use wire::{window_searches, OpRecord, RunConfig, Sample, WireRun};

/// A reported metric: name, value, unit, sample count.
type Row = (&'static str, f64, &'static str, usize);

fn usage() -> String {
    "usage: perfbench --workload <search_uniform|ingest_mixed> \
     --seed <n> --seconds <s> --trace <0|1> --slicerd <path> --workdir <dir> [--smoke]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<(RunConfig, PathBuf), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut slicerd = None;
    let mut workdir = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--slicerd" => slicerd = Some(PathBuf::from(value)),
            "--workdir" => workdir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let missing = |name: &str| format!("{name} is required\n{}", usage());
    Ok((
        RunConfig {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            smoke,
            slicerd: slicerd.ok_or_else(|| missing("--slicerd"))?,
        },
        workdir.ok_or_else(|| missing("--workdir"))?,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, workdir) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg, workdir) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the workload, prints the report and the JSON line, and returns
/// whether every check passed.
fn run(cfg: &RunConfig, workdir: PathBuf) -> Result<bool, String> {
    let work = Workdir::create(workdir)?;
    let (wire, base) = wire::run(cfg, &work)?;
    let mut failures = wire.failures;
    let mut notes = wire.notes.clone();
    let attempted = wire.ops.len();

    println!(
        "perfbench workload={} seed={} seconds={} trace={} records={} threads={THREADS}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        base.len(),
    );
    let (e2e, reported) = end_to_end(&wire);
    print_rows("end to end (over the wire, untraced)", &e2e);
    print_rows("also reported, not compared between commits", &reported);

    let metrics: Vec<Row> = if cfg.trace {
        let layers = trace::replay(&base, &wire, &work)?;
        failures += layers.failures.len();
        notes.extend(layers.failures.iter().cloned());
        let rows: Vec<Row> = layers
            .metrics
            .iter()
            .map(|&(name, value, unit)| (name, value, unit, layers.replayed))
            .collect();
        print_rows("per layer (in-process replay, traced)", &rows);
        rows
    } else {
        if trace::replay_digest(&base, &wire)? != wire.digest {
            failures += 1;
            notes.push("the daemon's digest differs from the in-process replay's".into());
        }
        e2e
    };
    for note in &notes {
        println!("FAILED: {note}");
    }
    let correct = failures == 0;
    println!(
        "failed_ops_ratio {} ({failures} of {attempted})",
        failures as f64 / attempted.max(1) as f64
    );
    println!("{}", json_line(correct, attempted, failures, &metrics)?);
    Ok(correct)
}

/// The end-to-end metrics `BENCHMARK.json` names, and those the report
/// prints without comparing them between commits.
fn end_to_end(wire: &WireRun) -> (Vec<Row>, Vec<Row>) {
    let search_ms: Vec<f64> = window_searches(&wire.ops).map(|r| r.latency_ms).collect();
    let search_gas: Vec<f64> = window_searches(&wire.ops).map(|r| r.gas as f64).collect();
    let verified = window_searches(&wire.ops).filter(|r| r.ok).count();
    // Ingest latency comes from the window when it holds ingests, and
    // from the post-window probe otherwise.
    let is_ingest = |r: &&OpRecord| matches!(r.op, Op::Ingest(..));
    let in_window = wire.ops.iter().filter(is_ingest).any(|r| r.in_window);
    let ingest_ms: Vec<f64> = wire
        .ops
        .iter()
        .filter(is_ingest)
        .filter(|r| r.in_window == in_window)
        .map(|r| r.latency_ms)
        .collect();
    let (ns, ni) = (search_ms.len(), ingest_ms.len());
    let nw = wire.ops.iter().filter(|r| r.in_window).count();
    let nr = wire.reference_ms.len();
    // The compared times are scaled to the reference speed (see
    // `reference`): the window's by the reference time of the whole
    // window, which was sampled after each of its requests, and the
    // scratch cycles' by that of their cycle.
    let reference_ms = trimmed_mean(&wire.reference_ms);
    let speed = reference_ms / reference::NOMINAL_MS;
    let search_mean_ms = trimmed_mean(&search_ms);
    let measured = |s: &[Sample]| s.iter().map(|x| x.measured).collect::<Vec<_>>();
    let scaled = |s: &[Sample]| s.iter().map(|x| x.scaled()).collect::<Vec<_>>();
    let (nsu, nic, nre) = (
        wire.setup_s.len(),
        wire.ingest_cpu_ms.len(),
        wire.restore_s.len(),
    );
    let compared = vec![
        ("setup_s", median(&scaled(&wire.setup_s)), "s", nsu),
        ("search_mean_ms", search_mean_ms / speed, "ms", ns),
        (
            "cpu_ms_per_request",
            wire.cpu_ms_per_request / speed,
            "ms",
            nw,
        ),
        (
            "ingest_cpu_ms",
            trimmed_mean(&scaled(&wire.ingest_cpu_ms)),
            "ms",
            nic,
        ),
        ("gas_per_search", mean(&search_gas), "gas", ns),
        ("gas_per_ingest", wire.gas_per_ingest, "gas", wire.ingests),
        (
            "restore_s",
            trimmed_mean(&scaled(&wire.restore_s)),
            "s",
            nre,
        ),
        (
            "disk_bytes_per_record",
            wire.disk_bytes as f64 / wire.live_records.max(1) as f64,
            "B",
            wire.live_records,
        ),
    ];
    // Wall-clock percentiles and throughput move with the machine's
    // drifting speed by more than the largest bound a compared metric may
    // have, and a percentile of uniform-cost requests jumps between the
    // fast and the slow state's value (see `trimmed_mean`); tails past p90
    // also come and go with the sample count. They are printed, not
    // compared, next to the compared times as measured.
    let mut reported = vec![
        ("reference_ms", reference_ms, "ms", nr),
        (
            "setup_measured_s",
            median(&measured(&wire.setup_s)),
            "s",
            nsu,
        ),
        ("search_mean_measured_ms", search_mean_ms, "ms", ns),
        (
            "cpu_measured_ms_per_request",
            wire.cpu_ms_per_request,
            "ms",
            nw,
        ),
        (
            "ingest_cpu_measured_ms",
            trimmed_mean(&measured(&wire.ingest_cpu_ms)),
            "ms",
            nic,
        ),
        (
            "restore_measured_s",
            trimmed_mean(&measured(&wire.restore_s)),
            "s",
            nre,
        ),
        ("search_p50_ms", median(&search_ms), "ms", ns),
        ("search_p90_ms", quantile(&search_ms, 0.9), "ms", ns),
        (
            "searches_per_s",
            verified as f64 / wire.window_s,
            "1/s",
            verified,
        ),
        ("ingest_p50_ms", quantile(&ingest_ms, 0.5), "ms", ni),
    ];
    for (name, n) in [("search", ns), ("ingest", ni)] {
        let tail = tail_percentile(n).map_or("none".to_string(), label);
        println!("{name} latency: {n} samples support percentiles up to {tail}");
    }
    if supports(ns, 990) {
        reported.push(("search_p99_ms", quantile(&search_ms, 0.99), "ms", ns));
    }
    if supports(ni, 900) {
        reported.push(("ingest_p90_ms", quantile(&ingest_ms, 0.9), "ms", ni));
    }
    (compared, reported)
}

fn print_rows(title: &str, rows: &[Row]) {
    println!("{title}:");
    for (name, value, unit, n) in rows {
        println!("  {name:<32} {value:>14.4} {unit:<6} n={n}");
    }
}

/// The result line. Values are printed with every digit Rust's shortest
/// round-trip formatting gives them.
fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    rows: &[Row],
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(rows.len());
    for (name, value, unit, _) in rows {
        if !value.is_finite() {
            return Err(format!("metric {name} has no finite value ({value})"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}
