//! `slicerd` — the Slicer serving daemon.
//!
//! ```text
//! slicerd --listen <endpoint> --data <dir> [--seed <n>] [--bits <n>]
//!         [--log-level <debug|info|warn|error>] [--log-format <text|json>]
//!         [--slow-ms <n>]
//! ```
//!
//! Endpoints: `tcp://HOST:PORT`, `unix:///path/to.sock`, or a bare
//! socket path. On boot the daemon restores the last sealed generation
//! from `--data` (fresh setup if none), prints one `READY` line, then
//! serves until a `shutdown` request.
//!
//! The operations plane is always on: request metrics are scrapeable via
//! `slicer-cli metrics`, structured logs stream to stderr (and into the
//! in-memory ring behind `slicer-cli tail`), and a crash flight recorder
//! persists the recent request history — on panic, on clean shutdown, on
//! a fatal serve-loop error, and in-flight at the start of every request
//! so even `kill -9` leaves the current request named on disk.

use slicer_daemon::{hex, Boot, Daemon, DaemonConfig, DaemonError, Endpoint, FlightRecorder};
use slicer_telemetry::{
    Level, LogFormat, MonotonicClock, ProfileAggregator, TelemetryHandle, WriterLogSink,
};
use std::path::PathBuf;
use std::sync::Arc;

fn main() {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("slicerd: {e}");
            std::process::exit(2);
        }
    }
}

struct Args {
    listen: Endpoint,
    data: PathBuf,
    config: DaemonConfig,
    log_level: Level,
    log_format: LogFormat,
}

fn parse_args(args: &[String]) -> Result<Args, DaemonError> {
    let mut listen = None;
    let mut data = None;
    let mut config = DaemonConfig::default();
    let mut log_level = Level::Info;
    let mut log_format = LogFormat::Text;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--listen" => listen = Some(Endpoint::parse(value(&mut it, "--listen")?)?),
            "--data" => data = Some(PathBuf::from(value(&mut it, "--data")?)),
            "--seed" => config.seed = parse_u64(value(&mut it, "--seed")?, "--seed")?,
            "--bits" => {
                let v = parse_u64(value(&mut it, "--bits")?, "--bits")?;
                config.value_bits = u8::try_from(v)
                    .map_err(|_| DaemonError::Config(format!("--bits out of range: {v}")))?;
            }
            "--slow-ms" => {
                config.slow_request_ns =
                    parse_u64(value(&mut it, "--slow-ms")?, "--slow-ms")?.saturating_mul(1_000_000);
            }
            "--log-level" => {
                let v = value(&mut it, "--log-level")?;
                log_level = Level::parse(v)
                    .ok_or_else(|| DaemonError::Config(format!("bad --log-level {v:?}")))?;
            }
            "--log-format" => {
                log_format = match value(&mut it, "--log-format")?.as_str() {
                    "text" => LogFormat::Text,
                    "json" => LogFormat::JsonLines,
                    other => {
                        return Err(DaemonError::Config(format!(
                            "bad --log-format {other:?}, want text|json"
                        )))
                    }
                };
            }
            "--help" | "-h" => {
                return Err(DaemonError::Config(
                    "usage: slicerd --listen <endpoint> --data <dir> \
                     [--seed <n>] [--bits <n>] [--log-level <level>] \
                     [--log-format <text|json>] [--slow-ms <n>]"
                        .into(),
                ))
            }
            other => return Err(DaemonError::Config(format!("unknown flag {other}"))),
        }
    }
    Ok(Args {
        listen: listen.ok_or_else(|| DaemonError::Config("--listen is required".into()))?,
        data: data.ok_or_else(|| DaemonError::Config("--data is required".into()))?,
        config,
        log_level,
        log_format,
    })
}

fn value<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<&'a String, DaemonError> {
    it.next()
        .ok_or_else(|| DaemonError::Config(format!("{flag} needs a value")))
}

fn parse_u64(s: &str, flag: &str) -> Result<u64, DaemonError> {
    s.parse()
        .map_err(|_| DaemonError::Config(format!("{flag} wants an integer, got {s:?}")))
}

/// Chains a flight-recorder persist onto the default panic hook, so a
/// panicking daemon leaves its recent request history on disk before
/// the process aborts.
fn install_panic_hook(recorder: FlightRecorder) {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        // Best effort: a failed persist must not mask the panic itself.
        let _ = recorder.persist("panic");
        previous(info);
    }));
}

fn run(raw: Vec<String>) -> Result<(), DaemonError> {
    let args = parse_args(&raw)?;
    // The profiling plane is always on: every span feeds the flamegraph
    // aggregator behind the `profile` RPC.
    let profile = Arc::new(ProfileAggregator::new());
    let telemetry = TelemetryHandle::with(Arc::new(MonotonicClock::new()), profile.clone());
    telemetry.set_log_level(args.log_level);
    telemetry.add_log_sink(Arc::new(match args.log_format {
        LogFormat::Text => WriterLogSink::stderr_text(),
        LogFormat::JsonLines => WriterLogSink::stderr_json(),
    }));
    let mut daemon = Daemon::open(&args.data, args.config, telemetry, profile)?;
    install_panic_hook(daemon.flight_recorder());
    let boot = match daemon.boot() {
        Boot::Fresh => "fresh".to_string(),
        Boot::Restored(generation) => format!("restored generation {generation}"),
    };
    let listener = args.listen.bind()?;
    // The READY line is the machine-readable handshake the CLI smoke
    // stage and the integration tests wait for.
    println!(
        "READY listen={} boot={} digest={}",
        args.listen,
        boot,
        hex(&daemon.digest())
    );
    match daemon.serve(&listener) {
        Ok(()) => {
            let _ = daemon.flight_recorder().persist("shutdown");
            println!("slicerd: shutdown requested, exiting");
            Ok(())
        }
        Err(e) => {
            // serve() already persisted with reason "serve-error".
            Err(e)
        }
    }
}
