//! The untraced run: one client against a real `slicerd`. Every
//! end-to-end metric comes from here.

use crate::daemon::{dir_bytes, Slicerd, Workdir};
use crate::ops::{base_records, Op, OpStream, Oracle, Workload, PAYMENT};
use crate::reference;
use crate::stats::trimmed_mean;
use slicer_crypto::codec::{to_bytes, Encode};
use slicer_daemon::{hex, DaemonError, Request, RequestBody, Response, ResponseBody};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Slices the measured window is cut into. After each slice comes one
/// scratch cycle: one set-up sample, [`SCRATCH_INGESTS`] ingest CPU
/// samples and [`RESTARTS_PER_CYCLE`] restore samples.
const SLICES: usize = 8;
/// Single-record ingests in each scratch cycle.
const SCRATCH_INGESTS: usize = 8;
/// Restarts in each scratch cycle.
const RESTARTS_PER_CYCLE: usize = 4;
/// Untimed restarts of the serving daemon after the window.
const SERVING_RESTARTS: usize = 2;
/// Single-record ingests sent to the serving daemon after the window.
const PROBE_INGESTS: usize = 24;
/// `Stat` round trips timed in a traced run.
const STAT_PROBES: usize = 50;
/// Failure descriptions kept for the report.
const MAX_FAILURE_NOTES: usize = 10;

/// What one run measures.
#[derive(Debug)]
pub struct RunConfig {
    /// The traffic mix.
    pub workload: Workload,
    /// Seed of the request stream; the dataset is fixed per workload.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether to follow the wire run with the traced replay.
    pub trace: bool,
    /// Shrink the dataset so a run finishes in seconds.
    pub smoke: bool,
    /// The `slicerd` executable.
    pub slicerd: PathBuf,
}

/// One request as the wire run sent and checked it.
#[derive(Debug)]
pub struct OpRecord {
    /// The request.
    pub op: Op,
    /// Round-trip latency in milliseconds.
    pub latency_ms: f64,
    /// Sent inside the measured window (not by the post-window probe).
    pub in_window: bool,
    /// Request plus verify gas of a search; 0 for an ingest.
    pub gas: u64,
    /// The accumulator digest an ingest acknowledged.
    pub digest: Vec<u8>,
    /// Request and response frame bytes.
    pub wire_bytes: u64,
    /// Answered, verified and equal to the oracle's answer.
    pub ok: bool,
}

/// A sample from a scratch cycle, with the reference time of its cycle.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// As measured.
    pub measured: f64,
    /// Trimmed mean of the reference-loop times taken through the
    /// cycle, milliseconds.
    pub reference_ms: f64,
}

impl Sample {
    /// The value scaled to the reference speed (see [`crate::reference`]).
    pub fn scaled(self) -> f64 {
        self.measured * reference::NOMINAL_MS / self.reference_ms
    }
}

/// Everything the wire run observed.
#[derive(Debug, Default)]
pub struct WireRun {
    /// Set-up times (boot plus bulk ingest) of the scratch cycles,
    /// seconds.
    pub setup_s: Vec<Sample>,
    /// The measured window, seconds.
    pub window_s: f64,
    /// Daemon CPU time per request of the window, milliseconds.
    pub cpu_ms_per_request: f64,
    /// Daemon CPU time per single-record ingest into each scratch
    /// deployment, milliseconds.
    pub ingest_cpu_ms: Vec<Sample>,
    /// Every request sent after set-up, in order.
    pub ops: Vec<OpRecord>,
    /// Mean chain gas per single-record ingest, from the `Metrics` RPC.
    pub gas_per_ingest: f64,
    /// Acknowledged single-record ingests, window and probe.
    pub ingests: usize,
    /// The daemon's digest after the last request.
    pub digest: Vec<u8>,
    /// Records in the deployment after the last request.
    pub live_records: usize,
    /// Bytes in the data directory after the last request.
    pub disk_bytes: u64,
    /// Restart-to-first-`Stat` times of the scratch cycles, seconds.
    pub restore_s: Vec<Sample>,
    /// `Stat` round trips (traced runs only), milliseconds.
    pub stat_rtt_ms: Vec<f64>,
    /// Reference-loop times taken after each request of the window,
    /// milliseconds; see [`crate::reference`].
    pub reference_ms: Vec<f64>,
    /// Failed operations and checks.
    pub failures: usize,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
}

impl WireRun {
    fn fail(&mut self, note: String) {
        self.failures += 1;
        if self.notes.len() < MAX_FAILURE_NOTES {
            self.notes.push(note);
        }
    }
}

/// Length of the frame carrying `message` (4-byte prefix plus payload).
fn frame_len(message: &impl Encode) -> u64 {
    to_bytes(message).map_or(0, |b| b.len() as u64 + 4)
}

fn request_frame(body: RequestBody) -> u64 {
    frame_len(&Request { trace_id: 0, body })
}

fn response_frame(body: ResponseBody) -> u64 {
    frame_len(&Response { trace_id: 0, body })
}

fn build_gas(daemon: &mut Slicerd) -> Result<u64, String> {
    let metrics = daemon
        .client
        .metrics()
        .map_err(|e| format!("metrics: {e}"))?;
    Ok(metrics
        .counters
        .iter()
        .find(|(name, _)| name == "phase.build.gas")
        .map_or(0, |(_, v)| *v))
}

/// A daemon's data directory, socket and log, all inside the run's
/// work directory.
struct Site {
    data: PathBuf,
    sock: PathBuf,
    log: PathBuf,
}

impl Site {
    fn new(work: &Workdir, name: &str) -> Self {
        Site {
            data: work.join(name),
            sock: work.join(&format!("{name}.sock")),
            log: work.join(&format!("{name}.log")),
        }
    }

    fn start(&self, cfg: &RunConfig) -> Result<Slicerd, String> {
        Slicerd::start(&cfg.slicerd, &self.data, &self.sock, &self.log)
    }
}

/// Boots a fresh daemon at `site` and bulk-ingests `base`: one set-up,
/// timed in seconds.
fn set_up(cfg: &RunConfig, site: &Site, base: &[(u64, u64)]) -> Result<(Slicerd, f64), String> {
    let start = Instant::now();
    let mut daemon = site.start(cfg)?;
    let (records, generation, _) = daemon
        .client
        .ingest(base.to_vec())
        .map_err(|e| format!("bulk ingest: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    if records != base.len() as u64 || generation != 1 {
        return Err(format!(
            "bulk ingest acknowledged {records} records, gen {generation}"
        ));
    }
    Ok((daemon, seconds))
}

/// Stops `daemon` and starts it again on the same data directory, timing
/// the restart until it answers `Stat`. It must come back with the
/// pre-stop generation and digest.
fn restart(
    cfg: &RunConfig,
    site: &Site,
    mut daemon: Slicerd,
    generation: u64,
    out: &mut WireRun,
) -> Result<(Slicerd, f64), String> {
    let digest = daemon
        .client
        .stat()
        .map_err(|e| format!("stat: {e}"))?
        .digest;
    daemon.stop()?;
    let start = Instant::now();
    let mut daemon = site.start(cfg)?;
    let stat = daemon.client.stat().map_err(|e| format!("stat: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    let expect = format!(
        "boot=restored generation {generation} digest={}",
        hex(&digest)
    );
    if !daemon.ready.ends_with(&expect) || stat.digest != digest {
        out.fail(format!(
            "restart came up as {:?}, want {expect:?}",
            daemon.ready
        ));
    }
    Ok((daemon, seconds))
}

/// Runs set-up, the measured window with a scratch cycle after each of
/// its slices, and the restarts and single-record ingests that follow
/// the window.
///
/// The machine's speed drifts between a fast and a slow state. Spreading
/// the set-up, ingest and restore samples over the whole run, instead of
/// taking them in one burst, and timing the reference loop after every
/// timed operation, lets the reference time of the run follow the speed
/// at which those samples were taken.
pub fn run(cfg: &RunConfig, work: &Workdir) -> Result<(WireRun, Vec<(u64, u64)>), String> {
    let spec = cfg.workload.dataset(cfg.smoke);
    let base = base_records(&spec);
    let mut stream = OpStream::new(cfg.workload, &spec, cfg.seed);
    let mut oracle = Oracle::new(&base);
    let mut out = WireRun::default();
    let site = Site::new(work, "slicerd");
    let mut daemon = set_up(cfg, &site, &base)?.0;
    let mut generation = 1;

    let bulk_gas = build_gas(&mut daemon)?;
    let mut window_cpu_s = 0.0;
    let slice = Duration::from_secs_f64(cfg.seconds / SLICES as f64);
    let budget = cfg.workload.requests_per_slice(cfg.smoke);
    for _ in 0..SLICES {
        let cpu_before = daemon.cpu_seconds()?;
        let start = Instant::now();
        let mut sent = 0;
        while budget.map_or(start.elapsed() < slice, |b| sent < b) {
            let op = stream.next_op();
            send(
                &mut daemon,
                &mut oracle,
                &mut out,
                &mut generation,
                op,
                true,
            )?;
            out.reference_ms.push(reference::sample());
            sent += 1;
        }
        if let Some(rest) = slice.checked_sub(start.elapsed()) {
            std::thread::sleep(rest);
        }
        out.window_s += start.elapsed().as_secs_f64();
        window_cpu_s += daemon.cpu_seconds()? - cpu_before;
        scratch_cycle(cfg, work, &base, &mut stream, &mut out)?;
    }
    let window_ops = out.ops.iter().filter(|r| r.in_window).count();
    out.cpu_ms_per_request = window_cpu_s * 1e3 / window_ops.max(1) as f64;

    if cfg.trace {
        for _ in 0..STAT_PROBES {
            let start = Instant::now();
            daemon.client.stat().map_err(|e| format!("stat: {e}"))?;
            out.stat_rtt_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    let (chain_ok, _, _) = daemon.client.verify().map_err(|e| format!("verify: {e}"))?;
    if !chain_ok {
        out.fail("the daemon's chain does not verify".into());
    }

    // The run's own data directory must restore too. Counters restart
    // with the daemon: sum each process's share, less the bulk ingest's.
    let mut ingest_gas = build_gas(&mut daemon)? - bulk_gas;
    for _ in 0..SERVING_RESTARTS {
        daemon = restart(cfg, &site, daemon, generation, &mut out)?.0;
    }
    // Single-record ingests on every workload, so the read-only ones
    // report ingest latency too and the traced replay has ingests to time.
    for _ in 0..PROBE_INGESTS {
        let op = stream.next_ingest();
        send(
            &mut daemon,
            &mut oracle,
            &mut out,
            &mut generation,
            op,
            false,
        )?;
    }
    ingest_gas += build_gas(&mut daemon)?;
    out.ingests = out
        .ops
        .iter()
        .filter(|r| matches!(r.op, Op::Ingest(..)) && r.ok)
        .count();
    out.gas_per_ingest = ingest_gas as f64 / out.ingests.max(1) as f64;
    out.digest = daemon
        .client
        .stat()
        .map_err(|e| format!("stat: {e}"))?
        .digest;
    out.live_records = oracle.len();
    out.disk_bytes = dir_bytes(&site.data)?;
    daemon.stop()?;
    Ok((out, base))
}

/// One scratch cycle, on a deployment of its own while the serving
/// daemon idles: one timed set-up, [`SCRATCH_INGESTS`] single-record
/// ingests whose daemon CPU time is measured, and [`RESTARTS_PER_CYCLE`]
/// timed restarts. Every cycle meets the same state, so these samples
/// do not depend on how far the window got, and the serving daemon's
/// state and chain stay exactly what the replay rebuilds.
fn scratch_cycle(
    cfg: &RunConfig,
    work: &Workdir,
    base: &[(u64, u64)],
    stream: &mut OpStream,
    out: &mut WireRun,
) -> Result<(), String> {
    let site = Site::new(work, "scratch");
    let mut references = Vec::new();
    let (mut daemon, setup_s) = set_up(cfg, &site, base)?;
    references.push(reference::sample());
    let cpu_before = daemon.cpu_seconds()?;
    let mut generation = 1;
    for _ in 0..SCRATCH_INGESTS {
        let (id, value) = stream.next_record();
        match daemon.client.ingest(vec![(id, value)]) {
            Ok((n, gen, _)) => {
                if n != 1 || gen != generation + 1 {
                    out.fail(format!(
                        "scratch ingest of {id} acknowledged {n} records, gen {gen}"
                    ));
                }
                generation = gen;
            }
            Err(e) => remote_failure(out, e, &format!("scratch ingest of {id}"))?,
        }
        references.push(reference::sample());
    }
    let ingest_cpu_ms = (daemon.cpu_seconds()? - cpu_before) * 1e3 / SCRATCH_INGESTS as f64;
    let mut restore_s = Vec::new();
    for _ in 0..RESTARTS_PER_CYCLE {
        let (restarted, seconds) = restart(cfg, &site, daemon, generation, out)?;
        restore_s.push(seconds);
        references.push(reference::sample());
        daemon = restarted;
    }
    daemon.stop()?;
    std::fs::remove_dir_all(&site.data).map_err(|e| format!("{}: {e}", site.data.display()))?;
    // The machine's speed can change between cycles a few seconds apart,
    // so each cycle's samples are scaled by the reference time of that
    // cycle.
    let reference_ms = trimmed_mean(&references);
    let sample = |measured| Sample {
        measured,
        reference_ms,
    };
    out.setup_s.push(sample(setup_s));
    out.ingest_cpu_ms.push(sample(ingest_cpu_ms));
    out.restore_s.extend(restore_s.into_iter().map(sample));
    Ok(())
}

/// Sends one request, times it and checks the answer.
fn send(
    daemon: &mut Slicerd,
    oracle: &mut Oracle,
    out: &mut WireRun,
    generation: &mut u64,
    op: Op,
    in_window: bool,
) -> Result<(), String> {
    let mut record = OpRecord {
        op: op.clone(),
        latency_ms: 0.0,
        in_window,
        gas: 0,
        digest: Vec::new(),
        wire_bytes: 0,
        ok: false,
    };
    match op {
        Op::Search(query) => {
            let start = Instant::now();
            let reply = daemon.client.search(query.clone(), PAYMENT);
            record.latency_ms = start.elapsed().as_secs_f64() * 1e3;
            match reply {
                Ok(r) => {
                    record.gas = r.request_gas + r.verify_gas;
                    record.ok = r.verified && oracle.check(&query, &r.ids);
                    if !r.verified {
                        out.fail(format!("{query:?} did not verify"));
                    } else if !record.ok {
                        let want = oracle.expected(&query).len();
                        out.fail(format!("{query:?}: {} ids, oracle {want}", r.ids.len()));
                    }
                    record.wire_bytes = request_frame(RequestBody::Search {
                        query: query.clone(),
                        payment: PAYMENT,
                    }) + response_frame(ResponseBody::Found {
                        ids: r.ids,
                        verified: r.verified,
                        paid_cloud: r.paid_cloud,
                        request_gas: r.request_gas,
                        verify_gas: r.verify_gas,
                        digest: r.digest,
                    });
                }
                Err(e) => remote_failure(out, e, &format!("{query:?}"))?,
            }
        }
        Op::Ingest(id, value) => {
            let records = vec![(id, value)];
            let start = Instant::now();
            let reply = daemon.client.ingest(records.clone());
            record.latency_ms = start.elapsed().as_secs_f64() * 1e3;
            match reply {
                Ok((n, gen, digest)) => {
                    record.ok = n == 1 && gen == *generation + 1;
                    if !record.ok {
                        out.fail(format!(
                            "ingest of {id} acknowledged {n} records, gen {gen}"
                        ));
                    }
                    *generation = gen;
                    oracle.insert(id, value);
                    record.wire_bytes = request_frame(RequestBody::Ingest { records })
                        + response_frame(ResponseBody::Ingested {
                            records: n,
                            generation: gen,
                            digest: digest.clone(),
                        });
                    record.digest = digest;
                }
                Err(e) => remote_failure(out, e, &format!("ingest of {id}"))?,
            }
        }
    }
    out.ops.push(record);
    Ok(())
}

/// A daemon-side error is a failed operation; a transport error ends
/// the run.
fn remote_failure(out: &mut WireRun, e: DaemonError, what: &str) -> Result<(), String> {
    match e {
        DaemonError::Remote(msg) => {
            out.fail(format!("{what}: {msg}"));
            Ok(())
        }
        other => Err(format!("{what}: {other}")),
    }
}

/// The searches of the window, in order.
pub fn window_searches(ops: &[OpRecord]) -> impl Iterator<Item = &OpRecord> {
    ops.iter()
        .filter(|r| r.in_window && matches!(r.op, Op::Search(_)))
}
