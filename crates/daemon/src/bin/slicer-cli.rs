//! `slicer-cli` — command-line front-end for a running `slicerd`.
//!
//! ```text
//! slicer-cli --connect <endpoint> ingest <id>:<value> [...]
//! slicer-cli --connect <endpoint> search (eq|lt|gt) <value> [--payment <n>]
//! slicer-cli --connect <endpoint> verify
//! slicer-cli --connect <endpoint> stat
//! slicer-cli --connect <endpoint> metrics [--json | --check]
//! slicer-cli --connect <endpoint> tail [<n>]
//! slicer-cli --connect <endpoint> top [--interval-ms <n>]
//! slicer-cli --connect <endpoint> profile [--svg] [--gas] [--check]
//! slicer-cli --connect <endpoint> shutdown
//! slicer-cli flightrec <path>
//! slicer-cli bench-diff <baseline.json> <candidate.json> [--timing-rel <pct>]
//! ```
//!
//! `profile` pulls the daemon's live span aggregate as collapsed stacks
//! (`stack;frames weight` folded text, ready for any flamegraph tool) or
//! a self-contained SVG flamegraph; `--gas` switches the weights from
//! wall-nanoseconds to gas units, and `--check` reconciles the profile
//! against the metrics surface instead of printing it.
//!
//! `flightrec` decodes a crash flight-recorder segment straight from
//! disk and `bench-diff` compares two bench-JSON documents — neither
//! needs a daemon. Exit status: 0 on success; 1 when a search is
//! unverified, the chain fails verification, a flight recording shows an
//! in-flight (crashed) request, or a bench diff finds a regression; 2 on
//! usage, transport, daemon or validation errors.

use slicer_core::Query;
use slicer_daemon::{hex, DaemonClient, DaemonError, Endpoint, FlightRecording, IN_FLIGHT};
use slicer_telemetry::Snapshot;
use std::io::{ErrorKind, Write};
use std::path::Path;

fn main() {
    let mut out = Vec::new();
    let result = run(std::env::args().skip(1).collect(), &mut out);
    write_stdout(&out);
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("slicer-cli: {e}");
            std::process::exit(2);
        }
    }
}

/// Writes a subcommand's output to stdout. A reader that closes early
/// (`slicer-cli flightrec <path> | head`) ends the output; it is not an
/// error, so the exit status stays the subcommand's own.
fn write_stdout(bytes: &[u8]) {
    let mut stdout = std::io::stdout().lock();
    match stdout.write_all(bytes).and_then(|()| stdout.flush()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            eprintln!("slicer-cli: cannot write output: {e}");
            std::process::exit(2);
        }
        _ => {}
    }
}

const USAGE: &str = "usage: slicer-cli --connect <endpoint> \
                     (ingest <id>:<value>... | search (eq|lt|gt) <value> [--payment <n>] \
                     | verify | stat | metrics [--json|--check] | tail [<n>] \
                     | top [--interval-ms <n>] | profile [--svg] [--gas] [--check] \
                     | shutdown) \
                     — or: slicer-cli flightrec <path> \
                     — or: slicer-cli bench-diff <baseline.json> <candidate.json> [--timing-rel <pct>]";

/// Runs the command in `args`, writing what it prints into `out`.
fn run(args: Vec<String>, out: &mut Vec<u8>) -> Result<i32, DaemonError> {
    let mut it = args.iter();
    let mut connect = None;
    let mut command = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => {
                let ep = it
                    .next()
                    .ok_or_else(|| DaemonError::Config("--connect needs a value".into()))?;
                connect = Some(Endpoint::parse(ep)?);
            }
            "--help" | "-h" => return Err(DaemonError::Config(USAGE.into())),
            _ => {
                command = Some((arg.clone(), it.map(String::clone).collect::<Vec<_>>()));
                break;
            }
        }
    }
    let (name, rest) = command.ok_or_else(|| DaemonError::Config(USAGE.into()))?;
    // The flight-recorder decoder and the bench comparator read files,
    // not a socket.
    if name == "flightrec" {
        return flightrec(&rest, out);
    }
    if name == "bench-diff" {
        return bench_diff(&rest, out);
    }
    let endpoint = connect.ok_or_else(|| DaemonError::Config("--connect is required".into()))?;
    let mut client = DaemonClient::connect(&endpoint)?;
    match name.as_str() {
        "ingest" => ingest(&mut client, &rest, out),
        "search" => search(&mut client, &rest, out),
        "verify" => verify(&mut client, out),
        "stat" => stat(&mut client, out),
        "metrics" => metrics(&mut client, &rest, out),
        "tail" => tail(&mut client, &rest, out),
        "top" => top(&mut client, &rest, out),
        "profile" => profile(&mut client, &rest, out),
        "shutdown" => {
            client.shutdown()?;
            writeln!(out, "shutdown acknowledged")?;
            Ok(0)
        }
        other => Err(DaemonError::Config(format!(
            "unknown command {other:?}; {USAGE}"
        ))),
    }
}

fn ingest(
    client: &mut DaemonClient,
    rest: &[String],
    out: &mut Vec<u8>,
) -> Result<i32, DaemonError> {
    if rest.is_empty() {
        return Err(DaemonError::Config(
            "ingest wants at least one <id>:<value> pair".into(),
        ));
    }
    let mut records = Vec::with_capacity(rest.len());
    for pair in rest {
        let (id, value) = pair.split_once(':').ok_or_else(|| {
            DaemonError::Config(format!("bad record {pair:?}, want <id>:<value>"))
        })?;
        records.push((
            parse_u64(id, "record id")?,
            parse_u64(value, "record value")?,
        ));
    }
    let (count, generation, digest) = client.ingest(records)?;
    writeln!(
        out,
        "ingested records={count} generation={generation} digest={}",
        hex(&digest)
    )?;
    Ok(0)
}

fn search(
    client: &mut DaemonClient,
    rest: &[String],
    out: &mut Vec<u8>,
) -> Result<i32, DaemonError> {
    let mut it = rest.iter();
    let op = it
        .next()
        .ok_or_else(|| DaemonError::Config("search wants (eq|lt|gt) <value>".into()))?;
    let value = parse_u64(
        it.next()
            .ok_or_else(|| DaemonError::Config("search wants a value".into()))?,
        "search value",
    )?;
    let mut payment: u128 = 1_000;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--payment" => {
                let v = it
                    .next()
                    .ok_or_else(|| DaemonError::Config("--payment needs a value".into()))?;
                payment = v
                    .parse()
                    .map_err(|_| DaemonError::Config(format!("bad --payment {v:?}")))?;
            }
            other => return Err(DaemonError::Config(format!("unknown search flag {other}"))),
        }
    }
    let query = match op.as_str() {
        "eq" => Query::equal(value),
        "lt" => Query::less_than(value),
        "gt" => Query::greater_than(value),
        other => {
            return Err(DaemonError::Config(format!(
                "unknown operator {other:?}, want eq|lt|gt"
            )))
        }
    };
    let reply = client.search(query, payment)?;
    let ids: Vec<String> = reply.ids.iter().map(u64::to_string).collect();
    writeln!(
        out,
        "verified={} records=[{}] paid_cloud={} request_gas={} verify_gas={} digest={}",
        reply.verified,
        ids.join(","),
        reply.paid_cloud,
        reply.request_gas,
        reply.verify_gas,
        hex(&reply.digest)
    )?;
    Ok(if reply.verified { 0 } else { 1 })
}

fn verify(client: &mut DaemonClient, out: &mut Vec<u8>) -> Result<i32, DaemonError> {
    let (chain_ok, height, digest) = client.verify()?;
    writeln!(
        out,
        "chain_ok={chain_ok} height={height} digest={}",
        hex(&digest)
    )?;
    Ok(if chain_ok { 0 } else { 1 })
}

fn stat(client: &mut DaemonClient, out: &mut Vec<u8>) -> Result<i32, DaemonError> {
    let reply = client.stat()?;
    writeln!(
        out,
        "index_entries={} primes={} generation={} chain_height={} digest={}",
        reply.index_entries,
        reply.primes,
        reply.generation,
        reply.chain_height,
        hex(&reply.digest)
    )?;
    Ok(0)
}

/// `metrics` — scrape the daemon. Default prints the Prometheus text
/// exposition; `--json` prints the JSON export; `--check` validates both
/// renderings (JSON via the in-crate RFC 8259 parser, Prometheus via a
/// line-shape check) and prints machine-readable `metrics-check` markers.
fn metrics(
    client: &mut DaemonClient,
    rest: &[String],
    out: &mut Vec<u8>,
) -> Result<i32, DaemonError> {
    let reply = client.metrics()?;
    let snap = reply.snapshot();
    match rest.first().map(String::as_str) {
        None => {
            write!(out, "{}", snap.to_prometheus_text())?;
            Ok(0)
        }
        Some("--json") => {
            writeln!(out, "{}", snap.to_json())?;
            Ok(0)
        }
        Some("--check") => {
            let mut ok = true;
            let json = snap.to_json();
            match slicer_telemetry::json::parse(&json) {
                Ok(_) => writeln!(out, "metrics-check json=ok bytes={}", json.len())?,
                Err(e) => {
                    ok = false;
                    writeln!(out, "metrics-check json=INVALID error={e}")?;
                }
            }
            match check_prometheus(&snap.to_prometheus_text()) {
                Ok(samples) => writeln!(out, "metrics-check prometheus=ok samples={samples}")?,
                Err(e) => {
                    ok = false;
                    writeln!(out, "metrics-check prometheus=INVALID error={e}")?;
                }
            }
            writeln!(
                out,
                "metrics-check uptime_ns={} version={} boot={} generation={}",
                reply.uptime_ns, reply.version, reply.boot, reply.generation
            )?;
            let counter = |name: &str| snap.counter(name).unwrap_or(0);
            writeln!(
                out,
                "metrics-check persist commits_base={} commits_delta={} commit_bytes={} fallbacks={}",
                counter("persist.commits.base"),
                counter("persist.commits.delta"),
                counter("persist.commit.bytes"),
                counter("persist.recovery.fallbacks")
            )?;
            Ok(if ok { 0 } else { 2 })
        }
        Some(other) => Err(DaemonError::Config(format!(
            "unknown metrics flag {other}, want --json|--check"
        ))),
    }
}

/// Validates the Prometheus text exposition shape: every line is either
/// a `# TYPE <name> <kind>` comment or `<name>[{labels}] <integer>`, and
/// at least one sample is present.
fn check_prometheus(text: &str) -> Result<u64, String> {
    let mut samples = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            let mut words = comment.split_whitespace();
            if words.next() != Some("TYPE") {
                return Err(format!("line {}: unexpected comment {line:?}", i + 1));
            }
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no sample value in {line:?}", i + 1))?;
        if name.is_empty() || !name.starts_with("slicer_") {
            return Err(format!(
                "line {}: metric {name:?} lacks slicer_ prefix",
                i + 1
            ));
        }
        value
            .parse::<u64>()
            .map_err(|_| format!("line {}: non-integer sample {value:?}", i + 1))?;
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples in exposition".into());
    }
    Ok(samples)
}

/// `tail [<n>]` — print the last `n` (default 20) structured-log records
/// as JSON lines, newest last, plus a trailing drop count to stderr.
fn tail(client: &mut DaemonClient, rest: &[String], out: &mut Vec<u8>) -> Result<i32, DaemonError> {
    let count = match rest.first() {
        Some(n) => parse_u64(n, "tail count")?,
        None => 20,
    };
    let (lines, dropped) = client.tail(count)?;
    for line in &lines {
        writeln!(out, "{line}")?;
    }
    if dropped > 0 {
        eprintln!("slicer-cli: ring dropped {dropped} older records");
    }
    Ok(0)
}

/// `top [--interval-ms <n>]` — one-shot dashboard: two metrics samples
/// `interval` apart, printed as request/error/byte rates plus per-RPC
/// latency quantiles.
fn top(client: &mut DaemonClient, rest: &[String], out: &mut Vec<u8>) -> Result<i32, DaemonError> {
    let mut interval_ms: u64 = 1_000;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--interval-ms" => {
                interval_ms = parse_u64(
                    it.next()
                        .ok_or_else(|| DaemonError::Config("--interval-ms needs a value".into()))?,
                    "--interval-ms",
                )?;
            }
            other => return Err(DaemonError::Config(format!("unknown top flag {other}"))),
        }
    }
    let first = client.metrics()?;
    // A one-shot observer pausing between two scrapes of a remote
    // process — no protocol state is touched, so the determinism
    // argument the lint protects does not apply here.
    std::thread::sleep(std::time::Duration::from_millis(interval_ms)); // slicer-lint: allow(det.thread) — sampling delay in an observer CLI, outside any protocol path
    let second = client.metrics()?;

    let window_ns = second.uptime_ns.saturating_sub(first.uptime_ns).max(1);
    writeln!(
        out,
        "slicerd {} boot={} generation={} uptime={:.1}s window={}ms",
        second.version,
        second.boot,
        second.generation,
        second.uptime_ns as f64 / 1e9,
        window_ns / 1_000_000
    )?;
    let (before, after) = (first.snapshot(), second.snapshot());
    let rate = |value: fn(&Snapshot, &str) -> Option<u64>, name: &str| {
        let at = |snap| value(snap, name).unwrap_or(0);
        at(&after).saturating_sub(at(&before)) as f64 * 1e9 / window_ns as f64
    };
    writeln!(
        out,
        "req/s {:>8.1}   conn/s {:>6.1}   in {:>10.0} B/s   out {:>10.0} B/s",
        rate(Snapshot::counter, "rpc.requests"),
        rate(Snapshot::counter, "net.connections"),
        rate(Snapshot::gauge, "net.bytes_in"),
        rate(Snapshot::gauge, "net.bytes_out"),
    )?;
    let errors: Vec<String> = second
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("rpc.error."))
        .map(|(n, v)| format!("{}={v}", n.trim_start_matches("rpc.error.")))
        .collect();
    writeln!(
        out,
        "errors {}",
        if errors.is_empty() {
            "none".to_string()
        } else {
            errors.join(" ")
        }
    )?;
    let gauge = |name: &str| after.gauge(name).unwrap_or(0);
    writeln!(
        out,
        "inflight {}   dropped_events {}",
        gauge("rpc.inflight"),
        gauge("telemetry.events.dropped")
    )?;
    writeln!(
        out,
        "{:<22} {:>8} {:>10} {:>10} {:>10}",
        "rpc", "count", "p50us", "p90us", "p99us"
    )?;
    // Per-RPC service latency, plus the connection-lifetime histogram so
    // long-lived client connections are visible next to the request mix.
    for (name, h) in &second.histograms {
        let shown = name.starts_with("rpc.") || name == "net.connection.lifetime.ns";
        if !shown || h.count == 0 {
            continue;
        }
        writeln!(
            out,
            "{:<22} {:>8} {:>10} {:>10} {:>10}",
            name.trim_end_matches(".ns"),
            h.count,
            h.p50 / 1_000,
            h.p90 / 1_000,
            h.p99 / 1_000
        )?;
    }
    Ok(0)
}

/// `profile [--svg] [--gas]` — pull the daemon's live span aggregate.
/// Default prints folded stacks (`frame;frame;frame weight`, one stack
/// per line — pipe into any flamegraph renderer); `--svg` prints a
/// self-contained SVG flamegraph instead. `--gas` weighs frames by gas
/// units rather than wall nanoseconds. `--check` reconciles the profile
/// against the metrics surface instead of printing it: gas totals must
/// equal the `phase.*.gas` counters exactly, and wall totals must stay
/// within the `rpc.*.ns` histogram envelope.
fn profile(
    client: &mut DaemonClient,
    rest: &[String],
    out: &mut Vec<u8>,
) -> Result<i32, DaemonError> {
    let mut svg = false;
    let mut gas = false;
    let mut check = false;
    for flag in rest {
        match flag.as_str() {
            "--svg" => svg = true,
            "--gas" => gas = true,
            "--check" => check = true,
            other => {
                return Err(DaemonError::Config(format!(
                    "unknown profile flag {other}, want --svg|--gas|--check"
                )))
            }
        }
    }
    if check {
        return profile_check(client, out);
    }
    let reply = client.profile(svg, gas)?;
    write!(out, "{}", reply.rendered)?;
    if !reply.rendered.ends_with('\n') {
        writeln!(out)?;
    }
    eprintln!(
        "slicer-cli: profile format={} mode={} total={} stacks={} dropped_stacks={}",
        reply.format, reply.mode, reply.total, reply.stacks, reply.dropped_stacks
    );
    Ok(0)
}

/// The `profile --check` reconciliation pass. Two RPCs (folded wall,
/// folded gas) plus one metrics scrape, then two verdicts:
///
/// * `wall` — the `daemon.request` root's inclusive wall total in the
///   profile does not exceed the summed `rpc.*.ns` histograms (the
///   histograms are scraped *after* the profile, so they cover a
///   superset of the profiled requests).
/// * `gas` — the profile's gas total equals the summed `phase.*.gas`
///   counters exactly; both surfaces are fed by the same span
///   attributes, so any drift means lost or double-counted gas.
fn profile_check(client: &mut DaemonClient, out: &mut Vec<u8>) -> Result<i32, DaemonError> {
    let wall = client.profile(false, false)?;
    let gas = client.profile(false, true)?;
    let metrics = client.metrics()?;

    let mut ok = true;
    let wall_root: u64 = wall
        .rendered
        .lines()
        .filter_map(|line| {
            let (stack, weight) = line.rsplit_once(' ')?;
            let first = stack.split(';').next().unwrap_or(stack);
            (first == "daemon.request").then(|| weight.parse::<u64>().ok())?
        })
        .sum();
    let rpc_ns: u64 = metrics
        .histograms
        .iter()
        .filter(|(n, _)| n.starts_with("rpc.") && n.ends_with(".ns"))
        .map(|(_, h)| h.sum)
        .sum();
    if wall_root <= rpc_ns {
        writeln!(
            out,
            "profile-check wall=ok profile_ns={wall_root} rpc_ns={rpc_ns}"
        )?;
    } else {
        ok = false;
        writeln!(
            out,
            "profile-check wall=INVALID profile_ns={wall_root} rpc_ns={rpc_ns}"
        )?;
    }

    let phase_gas: u64 = metrics
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("phase.") && n.ends_with(".gas"))
        .map(|(_, v)| *v)
        .sum();
    if gas.total == phase_gas {
        writeln!(
            out,
            "profile-check gas=ok profile_gas={} counters_gas={phase_gas}",
            gas.total
        )?;
    } else {
        ok = false;
        writeln!(
            out,
            "profile-check gas=INVALID profile_gas={} counters_gas={phase_gas}",
            gas.total
        )?;
    }
    writeln!(
        out,
        "profile-check stacks={} dropped_stacks={}",
        wall.stacks, wall.dropped_stacks
    )?;
    Ok(if ok { 0 } else { 2 })
}

/// `bench-diff <baseline> <candidate> [--timing-rel <pct>]` — compare
/// two bench-JSON documents with the testkit comparator. Deterministic
/// metrics (counters, gauges, histogram counts) must match exactly;
/// timing metrics are informational unless `--timing-rel` supplies a
/// tolerance in percent. Exit 0 when clean, 1 on regression.
fn bench_diff(rest: &[String], out: &mut Vec<u8>) -> Result<i32, DaemonError> {
    let mut paths = Vec::new();
    let mut config = slicer_testkit::DiffConfig::default();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--timing-rel" => {
                let v = it
                    .next()
                    .ok_or_else(|| DaemonError::Config("--timing-rel needs a value".into()))?;
                let pct: f64 = v
                    .parse()
                    .map_err(|_| DaemonError::Config(format!("bad --timing-rel {v:?}")))?;
                config.timing_rel = Some(pct / 100.0);
            }
            _ => paths.push(arg.clone()),
        }
    }
    let [baseline, candidate] = paths.as_slice() else {
        return Err(DaemonError::Config(
            "bench-diff wants exactly two files: <baseline.json> <candidate.json>".into(),
        ));
    };
    let load = |path: &str| -> Result<slicer_testkit::BenchDoc, DaemonError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| DaemonError::Config(format!("cannot read {path}: {e}")))?;
        slicer_testkit::parse_bench_json(&text)
            .map_err(|e| DaemonError::Config(format!("{path}: {e}")))
    };
    let old = load(baseline)?;
    let new = load(candidate)?;
    let report = slicer_testkit::diff(&old, &new, &config);
    write!(out, "{}", report.render())?;
    Ok(if report.ok() { 0 } else { 1 })
}

/// `flightrec <path>` — decode a flight-recorder segment from disk:
/// persist reason, the recent request ring (oldest first), and the
/// folded wall and gas profiles the daemon held when it wrote the
/// segment. Log lines are not in the recording: they are on `slicerd`'s
/// stderr and behind `tail`.
fn flightrec(rest: &[String], out: &mut Vec<u8>) -> Result<i32, DaemonError> {
    let path = rest
        .first()
        .ok_or_else(|| DaemonError::Config("flightrec wants a segment path".into()))?;
    let rec = FlightRecording::load(Path::new(path))?;
    writeln!(
        out,
        "flightrec reason={} requests={} next_seq={}",
        rec.reason,
        rec.requests.len(),
        rec.next_seq
    )?;
    let mut crashed = false;
    for r in &rec.requests {
        if r.outcome == IN_FLIGHT {
            crashed = true;
        }
        writeln!(
            out,
            "  seq={} kind={} trace={} start_ns={} duration_ns={} outcome={}",
            r.seq, r.kind, r.trace_id, r.start_ns, r.duration_ns, r.outcome
        )?;
    }
    // The recording embeds the daemon's final profile, so a crash dump
    // carries its own flamegraph input.
    for (title, folded) in [
        ("wall profile (folded)", &rec.profile_wall),
        ("gas profile (folded)", &rec.profile_gas),
    ] {
        if !folded.is_empty() {
            writeln!(out, "--- {title} ---")?;
            write!(out, "{folded}")?;
            if !folded.ends_with('\n') {
                writeln!(out)?;
            }
        }
    }
    Ok(if crashed { 1 } else { 0 })
}

fn parse_u64(s: &str, what: &str) -> Result<u64, DaemonError> {
    s.parse()
        .map_err(|_| DaemonError::Config(format!("bad {what} {s:?}, want an integer")))
}
