//! The `slicerd` daemon: one durable Slicer deployment behind a socket.
//!
//! Boot path: [`Daemon::open`] loads the last sealed generation from the
//! [`SegmentStore`] and resumes via `SlicerInstance::try_restore_with` —
//! no index rebuild, and the restored accumulator digest is asserted
//! byte-identical to the snapshot's before a single request is served.
//! With no sealed generation it performs a fresh paper-§IV setup.
//!
//! The daemon serves connections *sequentially* on the accept loop. This
//! is deliberate, not a simplification: request handling mutates one
//! `SlicerInstance` and one chain, the workspace's determinism lint
//! (`det.thread`) bans ad-hoc threading outside `slicer-par`, and the
//! instance already fans out CPU-bound witness work through the sanctioned
//! pool internally.

use crate::error::DaemonError;
use crate::flightrec::{FlightRecorder, FLIGHTREC_FILE};
use crate::net::{Listener, Meter, MeteredStream};
use crate::proto::{
    read_message, write_message, MetricsReply, ProfileReply, ReadOutcome, Request, RequestBody,
    Response, ResponseBody, StatReply, MAX_FRAME_LEN,
};
use slicer_chain::Blockchain;
use slicer_core::{Query, RecordId, SlicerConfig, SlicerInstance};
use slicer_persist::{Delta, SegmentStore, Snapshot};
use slicer_telemetry::{
    Level, MemoryLogSink, ProfileAggregator, ProfileMode, TelemetryHandle, TraceId,
};
use std::path::Path;
use std::sync::Arc;

/// How many accept failures in a row the serve loop tolerates before
/// concluding the listener is gone and bailing out.
const MAX_CONSECUTIVE_ACCEPT_FAILURES: u32 = 8;

/// How many recent requests the flight recorder retains.
const FLIGHTREC_REQUESTS: usize = 64;

/// Boot parameters for a daemon.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Key-derivation seed for a *fresh* deployment. A restored daemon
    /// uses the persisted seed — the on-disk state is authoritative.
    pub seed: u64,
    /// Value bit width `b` for a fresh deployment (1..=64); likewise
    /// superseded by the persisted width on restore.
    pub value_bits: u8,
    /// Requests taking at least this long earn a warn-level
    /// `slow request` log line.
    pub slow_request_ns: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            seed: 7,
            value_bits: 16,
            slow_request_ns: 250_000_000,
        }
    }
}

/// How the daemon came up: fresh setup or restored from disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boot {
    /// No sealed generation existed; a fresh setup ran.
    Fresh,
    /// State was restored from the given sealed generation.
    Restored(u64),
}

/// One durable Slicer deployment: instance + chain + segment store,
/// plus the operations plane (log ring, flight recorder, byte meter).
#[derive(Debug)]
pub struct Daemon {
    instance: SlicerInstance,
    chain: Blockchain,
    store: SegmentStore,
    seed: u64,
    generation: u64,
    boot: Boot,
    telemetry: TelemetryHandle,
    slow_request_ns: u64,
    boot_ns: u64,
    meter: Meter,
    /// The recent structured-log lines behind the `Tail` RPC.
    log_ring: Arc<MemoryLogSink>,
    flightrec: FlightRecorder,
    /// The live collapsed-stack fold behind the `Profile` RPC.
    profile: Arc<ProfileAggregator>,
}

impl Daemon {
    /// Opens the segment store at `data_dir` and boots: restore the last
    /// sealed generation if one exists (asserting the restored
    /// accumulator digest byte-identical to the snapshot's), otherwise
    /// run a fresh setup with `config`.
    ///
    /// `profile` is the aggregator the handle's sink feeds (`slicerd`
    /// makes it the handle's sink). The daemon serves its snapshots via
    /// the `Profile` RPC, embeds its folded stacks in flight recordings
    /// and reports its dropped stacks in the `telemetry.events.dropped`
    /// gauge.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Config`] on out-of-range `value_bits`,
    /// [`DaemonError::Persist`] when the store directory is unusable or
    /// holds only corrupt generations, [`DaemonError::Slicer`] when
    /// setup/restore fails.
    pub fn open(
        data_dir: &Path,
        config: DaemonConfig,
        telemetry: TelemetryHandle,
        profile: Arc<ProfileAggregator>,
    ) -> Result<Self, DaemonError> {
        if !(1..=64).contains(&config.value_bits) {
            return Err(DaemonError::Config(format!(
                "value_bits must be in 1..=64, got {}",
                config.value_bits
            )));
        }
        let mut store = SegmentStore::open(data_dir)?;
        store.set_telemetry(telemetry.clone());
        let mut chain = Blockchain::new();
        let workers = slicer_par::configured_workers();

        // The operations plane comes up before the instance: the log
        // ring catches boot-time records and the flight recorder's first
        // persist happens on the first request.
        let log_ring = Arc::new(MemoryLogSink::new());
        telemetry.add_log_sink(log_ring.clone() as _);
        let flightrec = FlightRecorder::new(
            data_dir.join(FLIGHTREC_FILE),
            FLIGHTREC_REQUESTS,
            profile.clone(),
        );
        let boot_ns = telemetry.now_nanos();

        // Restore the last sealed generation, or set up afresh; only the
        // instance and its provenance differ between the two boots.
        let (instance, seed, generation, boot) = match store.load()? {
            Some((generation, snapshot)) => {
                let expected = snapshot.accumulator_digest();
                let seed = snapshot.meta.seed;
                let instance = SlicerInstance::try_restore_with(
                    snapshot.meta.config_with_workers(workers),
                    seed,
                    &mut chain,
                    telemetry.clone(),
                    snapshot.owner,
                    snapshot.accumulator,
                    snapshot.cloud,
                )?;
                let restored = digest_of(&instance);
                if restored != expected {
                    return Err(DaemonError::Slicer(format!(
                        "restored digest diverges from snapshot (generation {generation}): \
                         {} != {}",
                        hex(&restored),
                        hex(&expected)
                    )));
                }
                (instance, seed, generation, Boot::Restored(generation))
            }
            None => {
                let instance = SlicerInstance::try_setup_with(
                    SlicerConfig::with_bits(config.value_bits).with_workers(workers),
                    config.seed,
                    &mut chain,
                    telemetry.clone(),
                )?;
                (instance, config.seed, 0, Boot::Fresh)
            }
        };
        let daemon = Daemon {
            instance,
            chain,
            store,
            seed,
            generation,
            boot,
            telemetry,
            slow_request_ns: config.slow_request_ns,
            boot_ns,
            meter: Meter::new(),
            log_ring,
            flightrec,
            profile,
        };
        daemon.telemetry.log(
            Level::Info,
            "slicerd.boot",
            match daemon.boot {
                Boot::Fresh => "fresh setup complete",
                Boot::Restored(_) => "restored from sealed generation",
            },
            vec![
                ("generation", daemon.generation.into()),
                ("restored", matches!(daemon.boot, Boot::Restored(_)).into()),
            ],
        );
        Ok(daemon)
    }

    /// How this daemon booted.
    pub fn boot(&self) -> Boot {
        self.boot
    }

    /// The last sealed on-disk generation (0 = nothing persisted yet).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Canonical accumulator digest (big-endian, modulus-width padded) —
    /// the bytes the chain holds and the crash/restart cycle compares.
    pub fn digest(&self) -> Vec<u8> {
        digest_of(&self.instance)
    }

    /// The daemon's flight recorder — `slicerd` clones this into its
    /// panic hook and persists on shutdown / fatal serve errors.
    pub fn flight_recorder(&self) -> FlightRecorder {
        self.flightrec.clone()
    }

    /// Handles one request, opening the per-request telemetry root span
    /// inside the client's trace (a zero trace id mints a fresh trace).
    /// Domain failures become [`ResponseBody::Error`]; the daemon
    /// survives them.
    ///
    /// Accounting per request: `rpc.requests` counter, the per-kind
    /// `rpc.<kind>.ns` histogram, `rpc.error.internal` and a warn-level
    /// log line with the full error on a domain failure, a
    /// flight-recorder entry persisted in-flight *before*
    /// dispatch (so `kill -9` mid-request names the request on disk) and
    /// finalized after, each persist timed into `flightrec.persist.ns`,
    /// and a warn-level log line above the configured slow-request
    /// threshold.
    pub fn handle(&mut self, request: &Request) -> Response {
        let kind = request.body.kind();
        self.telemetry.count("rpc.requests", 1);
        // The daemon dispatches sequentially, so in-flight is 0 or 1 —
        // but a scrape served *during* a request (Metrics is itself a
        // request) truthfully reports 1.
        self.telemetry.gauge("rpc.inflight", 1);
        let start_ns = self.telemetry.now_nanos();
        let (seq, persist_err) = self.flightrec.begin(request.trace_id, kind, start_ns);
        self.account_persist(start_ns, persist_err);
        let mut span = self
            .telemetry
            .span_in_trace("daemon.request", TraceId(request.trace_id));
        let trace_id = span.ctx().map_or(request.trace_id, |c| c.trace.0);
        let body = match &request.body {
            RequestBody::Ingest { records } => self.ingest(records),
            RequestBody::Search { query, payment } => self.search(query, *payment),
            RequestBody::Verify => self.verify(),
            RequestBody::Stat => Ok(self.stat()),
            RequestBody::Shutdown => Ok(ResponseBody::ShuttingDown),
            RequestBody::Metrics => Ok(ResponseBody::MetricsReport(self.metrics_report())),
            RequestBody::Tail { count } => Ok(self.tail(*count)),
            RequestBody::Profile { svg, gas } => Ok(self.profile_report(*svg, *gas)),
        }
        .unwrap_or_else(|e| ResponseBody::Error(e.to_string()));
        let outcome = match &body {
            ResponseBody::Error(msg) => {
                self.telemetry.count("rpc.error.internal", 1);
                // The flight recording clips an outcome to its slot; the
                // log keeps the whole error.
                self.telemetry.log(
                    Level::Warn,
                    "slicerd.rpc",
                    format!("request failed: {msg}"),
                    vec![("rpc.kind", kind.into()), ("trace", trace_id.into())],
                );
                format!("error: {msg}")
            }
            _ => "ok".to_string(),
        };
        if span.is_recording() {
            span.attr("rpc.kind", kind);
            span.attr("outcome.error", matches!(body, ResponseBody::Error(_)));
        }
        drop(span);
        let duration_ns = self.telemetry.now_nanos().saturating_sub(start_ns);
        self.telemetry
            .observe_ns(request.body.metric(), duration_ns);
        if duration_ns >= self.slow_request_ns {
            self.telemetry.log(
                Level::Warn,
                "slicerd.rpc",
                "slow request",
                vec![
                    ("rpc.kind", kind.into()),
                    ("duration.ns", duration_ns.into()),
                    ("threshold.ns", self.slow_request_ns.into()),
                    ("trace", trace_id.into()),
                ],
            );
        }
        let end_ns = self.telemetry.now_nanos();
        let persist_err = self.flightrec.end(seq, duration_ns, &outcome);
        self.account_persist(end_ns, persist_err);
        self.telemetry.gauge("rpc.inflight", 0);
        Response { trace_id, body }
    }

    /// Accounts one request-boundary persist begun at `since_ns`: its
    /// latency goes to `flightrec.persist.ns`, a failure to
    /// [`Daemon::warn_persist`].
    fn account_persist(&self, since_ns: u64, err: Option<DaemonError>) {
        self.telemetry.observe_ns(
            "flightrec.persist.ns",
            self.telemetry.now_nanos().saturating_sub(since_ns),
        );
        if let Some(e) = err {
            self.warn_persist(&e);
        }
    }

    /// Logs a flight-recorder persist failure — the one fault the
    /// recorder never propagates into request handling.
    fn warn_persist(&self, e: &DaemonError) {
        self.telemetry.count("rpc.error.io", 1);
        self.telemetry.log(
            Level::Warn,
            "slicerd.flightrec",
            format!("flight recorder persist failed: {e}"),
            vec![],
        );
    }

    fn ingest(&mut self, records: &[(u64, u64)]) -> Result<ResponseBody, DaemonError> {
        let batch: Vec<(RecordId, u64)> = records
            .iter()
            .map(|&(id, value)| (RecordId::from_u64(id), value))
            .collect();
        let outcome = match self.instance.insert(&mut self.chain, &batch) {
            Ok(outcome) => outcome,
            Err(e) => {
                // The insert may have changed the live state before it
                // failed; no delta records that, so the next commit must
                // write the whole state.
                self.store.require_base();
                return Err(e.into());
            }
        };
        let (seed, instance) = (self.seed, &self.instance);
        self.generation = self.store.commit_delta(&Delta::from(outcome), || {
            Snapshot::capture(seed, &instance.owner, &instance.cloud)
        })?;
        self.telemetry.count("daemon.commits", 1);
        Ok(ResponseBody::Ingested {
            records: batch.len() as u64,
            generation: self.generation,
            digest: self.digest(),
        })
    }

    fn search(&mut self, query: &Query, payment: u128) -> Result<ResponseBody, DaemonError> {
        let outcome = self.instance.search(&mut self.chain, query, payment)?;
        Ok(ResponseBody::Found {
            ids: outcome
                .records
                .iter()
                .filter_map(RecordId::as_u64)
                .collect(),
            verified: outcome.verified,
            paid_cloud: outcome.paid_cloud,
            request_gas: outcome.request_gas,
            verify_gas: outcome.verify_gas,
            digest: self.digest(),
        })
    }

    fn verify(&mut self) -> Result<ResponseBody, DaemonError> {
        Ok(ResponseBody::Verified {
            chain_ok: self.chain.verify_chain(),
            height: self.chain.height(),
            digest: self.digest(),
        })
    }

    fn stat(&self) -> ResponseBody {
        let storage = self.instance.cloud.storage();
        ResponseBody::Stats(StatReply {
            index_entries: storage.index.len() as u64,
            primes: storage.primes.len() as u64,
            generation: self.generation,
            chain_height: self.chain.height(),
            digest: self.digest(),
        })
    }

    fn metrics_report(&self) -> MetricsReply {
        // Refresh transport gauges right before the snapshot so a
        // scrape always sees current byte counts, not the state at the
        // end of some earlier connection.
        self.telemetry.gauge("net.bytes_in", self.meter.bytes_in());
        self.telemetry
            .gauge("net.bytes_out", self.meter.bytes_out());
        self.telemetry.gauge("log.dropped", self.log_ring.dropped());
        // Telemetry-plane losses: stacks discarded at the aggregator's cap.
        self.telemetry
            .gauge("telemetry.events.dropped", self.profile.dropped_stacks());
        let snap = self.telemetry.snapshot();
        MetricsReply {
            uptime_ns: self.telemetry.now_nanos().saturating_sub(self.boot_ns),
            version: env!("CARGO_PKG_VERSION").to_string(),
            boot: match self.boot {
                Boot::Fresh => "fresh".to_string(),
                Boot::Restored(generation) => format!("restored:{generation}"),
            },
            generation: self.generation,
            counters: snap.counters().to_vec(),
            gauges: snap.gauges().to_vec(),
            histograms: snap
                .histograms()
                .iter()
                .map(|(name, h)| (name.clone(), h.into()))
                .collect(),
        }
    }

    fn profile_report(&self, svg: bool, gas: bool) -> ResponseBody {
        let profile = self.profile.snapshot();
        let mode = if gas {
            ProfileMode::Gas
        } else {
            ProfileMode::Wall
        };
        let mode_name = if gas { "gas" } else { "wall" };
        let rendered = if svg {
            profile.to_svg(mode, &format!("slicerd {mode_name} profile"))
        } else {
            profile.to_folded(mode)
        };
        ResponseBody::ProfileReport(ProfileReply {
            format: if svg { "svg" } else { "folded" }.to_string(),
            mode: mode_name.to_string(),
            rendered,
            total: profile.total(mode),
            stacks: profile.entries.len() as u64,
            dropped_stacks: profile.dropped_stacks,
        })
    }

    fn tail(&self, count: u64) -> ResponseBody {
        let n = usize::try_from(count).unwrap_or(usize::MAX);
        ResponseBody::LogTail {
            lines: self
                .log_ring
                .tail(n)
                .iter()
                .map(slicer_telemetry::LogRecord::to_json_line)
                .collect(),
            dropped: self.log_ring.dropped(),
        }
    }

    /// Serves connections sequentially until a `Shutdown` request
    /// arrives. A failed connection — or a failed accept — is logged
    /// and counted under the `rpc.error.*` taxonomy and the loop
    /// continues: one bad client never takes the daemon down.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] after `MAX_CONSECUTIVE_ACCEPT_FAILURES`
    /// accepts fail back-to-back (the listener is gone — nothing left
    /// to serve). The flight recorder is persisted with reason
    /// `"serve-error"` before bailing.
    pub fn serve(&mut self, listener: &Listener) -> Result<(), DaemonError> {
        let mut failed_accepts = 0u32;
        loop {
            let stream = match listener.accept() {
                Ok(stream) => {
                    failed_accepts = 0;
                    stream
                }
                Err(e) => {
                    failed_accepts += 1;
                    self.telemetry.count("rpc.error.io", 1);
                    self.telemetry.log(
                        Level::Error,
                        "slicerd.net",
                        format!("accept failed: {e}"),
                        vec![("consecutive", failed_accepts.into())],
                    );
                    if failed_accepts >= MAX_CONSECUTIVE_ACCEPT_FAILURES {
                        if let Err(persist) = self.flightrec.persist("serve-error") {
                            self.warn_persist(&persist);
                        }
                        return Err(e);
                    }
                    continue;
                }
            };
            self.telemetry.count("net.connections", 1);
            let conn_start_ns = self.telemetry.now_nanos();
            let served = self.serve_connection(MeteredStream::new(stream, self.meter.clone()));
            self.telemetry.observe_ns(
                "net.connection.lifetime.ns",
                self.telemetry.now_nanos().saturating_sub(conn_start_ns),
            );
            match served {
                Ok(true) => return Ok(()),
                Ok(false) => {}
                Err(e) => {
                    self.telemetry.count(error_counter(&e), 1);
                    self.telemetry.log(
                        Level::Warn,
                        "slicerd.net",
                        format!("connection error: {e}"),
                        vec![],
                    );
                }
            }
        }
    }

    /// Serves one connection until the peer closes it. Returns `true`
    /// when the peer requested shutdown. Oversized and undecodable
    /// frames are answered with a clean [`ResponseBody::Error`] (and
    /// counted under `rpc.error.oversize` / `rpc.error.decode`) instead
    /// of dropping the connection: the reader consumes both, so the
    /// stream stays framed.
    fn serve_connection(&mut self, mut stream: MeteredStream) -> Result<bool, DaemonError> {
        loop {
            let (counter, reason) = match read_message::<Request>(&mut stream)? {
                ReadOutcome::Eof => return Ok(false),
                ReadOutcome::Msg(request) => {
                    let response = self.handle(&request);
                    write_message(&mut stream, &response)?;
                    if matches!(request.body, RequestBody::Shutdown) {
                        return Ok(true);
                    }
                    continue;
                }
                ReadOutcome::Oversize { declared } => (
                    "rpc.error.oversize",
                    format!("frame too large: {declared} bytes exceeds cap {MAX_FRAME_LEN}"),
                ),
                ReadOutcome::Undecodable(msg) => {
                    ("rpc.error.decode", format!("undecodable request: {msg}"))
                }
            };
            self.telemetry.count(counter, 1);
            self.telemetry
                .log(Level::Warn, "slicerd.rpc", reason.clone(), vec![]);
            write_message(
                &mut stream,
                &Response {
                    trace_id: 0,
                    body: ResponseBody::Error(reason),
                },
            )?;
        }
    }
}

/// Maps a transport-level failure to its `rpc.error.*` taxonomy counter.
fn error_counter(e: &DaemonError) -> &'static str {
    match e {
        DaemonError::Io(_) => "rpc.error.io",
        DaemonError::Protocol(_) => "rpc.error.protocol",
        _ => "rpc.error.internal",
    }
}

/// The canonical accumulator digest of `instance` (fixed-width bytes).
fn digest_of(instance: &SlicerInstance) -> Vec<u8> {
    let width = instance.owner.config().accumulator.element_bytes();
    instance.owner.accumulator().to_bytes_be_padded(width)
}

/// Lowercase hex rendering for digests in error messages and logs.
pub fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("slicer-daemon-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cfg() -> DaemonConfig {
        DaemonConfig {
            seed: 11,
            value_bits: 8,
            ..DaemonConfig::default()
        }
    }

    #[test]
    fn fresh_boot_serves_ingest_search_verify_stat() {
        let dir = tmp("fresh");
        let mut daemon =
            Daemon::open(&dir, cfg(), TelemetryHandle::disabled(), Arc::default()).unwrap();
        assert_eq!(daemon.boot(), Boot::Fresh);

        let resp = daemon.handle(&Request {
            trace_id: 0,
            body: RequestBody::Ingest {
                records: vec![(1, 10), (2, 20), (3, 30)],
            },
        });
        let ResponseBody::Ingested {
            records,
            generation,
            ..
        } = resp.body
        else {
            panic!("want Ingested, got {:?}", resp.body);
        };
        assert_eq!(records, 3);
        assert_eq!(generation, 1);

        let resp = daemon.handle(&Request {
            trace_id: 42,
            body: RequestBody::Search {
                query: Query::less_than(25),
                payment: 1_000,
            },
        });
        let ResponseBody::Found { ids, verified, .. } = resp.body else {
            panic!("want Found, got {:?}", resp.body);
        };
        assert!(verified);
        assert_eq!(ids, vec![1, 2]);

        let resp = daemon.handle(&Request {
            trace_id: 0,
            body: RequestBody::Verify,
        });
        let ResponseBody::Verified {
            chain_ok, height, ..
        } = resp.body
        else {
            panic!("want Verified, got {:?}", resp.body);
        };
        assert!(chain_ok);
        assert!(height > 0);

        let resp = daemon.handle(&Request {
            trace_id: 0,
            body: RequestBody::Stat,
        });
        let ResponseBody::Stats(StatReply {
            index_entries,
            primes,
            ..
        }) = resp.body
        else {
            panic!("want Stats, got {:?}", resp.body);
        };
        // Each record contributes one slice label per covered keyword,
        // so the encrypted index strictly dominates the record count.
        assert!(index_entries >= 3, "got {index_entries}");
        assert!(primes >= 3, "got {primes}");
    }

    #[test]
    fn reopen_restores_identical_digest_without_rebuild() {
        let dir = tmp("reopen");
        let digest_before;
        {
            let mut daemon =
                Daemon::open(&dir, cfg(), TelemetryHandle::disabled(), Arc::default()).unwrap();
            daemon.handle(&Request {
                trace_id: 0,
                body: RequestBody::Ingest {
                    records: vec![(7, 70), (8, 80)],
                },
            });
            digest_before = daemon.digest();
        } // dropped without any clean shutdown — like a crash after commit

        let mut daemon =
            Daemon::open(&dir, cfg(), TelemetryHandle::disabled(), Arc::default()).unwrap();
        assert_eq!(daemon.boot(), Boot::Restored(1));
        assert_eq!(
            daemon.digest(),
            digest_before,
            "digest must be byte-identical"
        );

        let resp = daemon.handle(&Request {
            trace_id: 0,
            body: RequestBody::Search {
                query: Query::greater_than(75),
                payment: 500,
            },
        });
        let ResponseBody::Found { ids, verified, .. } = resp.body else {
            panic!("want Found, got {:?}", resp.body);
        };
        assert!(verified, "restored index must serve verifiable results");
        assert_eq!(ids, vec![8]);
    }

    #[test]
    fn ingests_commit_deltas_and_persist_reports_through_metrics() {
        use slicer_telemetry::{AttrValue, Event, LogicalClock, MemorySink, NullSink, Sink};
        let dir = tmp("deltas");
        let _ = std::fs::remove_dir_all(&dir);
        let live = |sink: Arc<dyn Sink>| {
            TelemetryHandle::with(Arc::new(LogicalClock::with_step(1_000)), sink)
        };
        let ingest = |daemon: &mut Daemon, records: Vec<(u64, u64)>| {
            daemon.handle(&Request {
                trace_id: 0,
                body: RequestBody::Ingest { records },
            })
        };
        let counter = |daemon: &Daemon, name: &str| daemon.telemetry.counter_value(name);

        let sink = Arc::new(MemorySink::new());
        let mut daemon = Daemon::open(&dir, cfg(), live(sink.clone()), Arc::default()).unwrap();
        // A base large enough that small deltas do not outgrow it.
        ingest(&mut daemon, (100..140).map(|id| (id, id)).collect());
        for id in 4..7 {
            ingest(&mut daemon, vec![(id, id * 10)]);
        }
        // A rejected ingest forces the next commit to be a base.
        ingest(&mut daemon, vec![(99, 9_999)]);
        ingest(&mut daemon, vec![(7, 70)]);
        assert_eq!(daemon.generation(), 5);
        assert_eq!(counter(&daemon, "persist.commits.base"), Some(2));
        assert_eq!(counter(&daemon, "persist.commits.delta"), Some(3));
        assert!(counter(&daemon, "persist.commit.bytes").unwrap_or(0) > 0);
        let digest = daemon.digest();
        ingest(&mut daemon, vec![(8, 80)]);
        assert_eq!(counter(&daemon, "persist.commits.delta"), Some(4));
        // One fsync sample per fsync the six commits report.
        let reported: u64 = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::SpanEnd { name, attrs, .. } if name == "persist.commit" => {
                    attrs.iter().find_map(|(key, value)| match value {
                        AttrValue::U64(n) if *key == "fsyncs" => Some(*n),
                        _ => None,
                    })
                }
                _ => None,
            })
            .sum();
        let snapshot = daemon.metrics_report().snapshot();
        let fsyncs = snapshot
            .histogram("persist.fsync.ns")
            .expect("fsync histogram");
        assert!(reported >= 6 * 4, "{reported}");
        assert_eq!(fsyncs.count, reported);
        let prometheus = snapshot.to_prometheus_text();
        for name in [
            "slicer_persist_commits_base 2",
            "slicer_persist_commits_delta 4",
            "slicer_persist_commit_bytes",
            "slicer_persist_commit_ns",
            "slicer_persist_fsync_ns",
            "slicer_persist_load_ns",
        ] {
            assert!(
                prometheus.contains(name),
                "{name} missing from {prometheus}"
            );
        }
        drop(daemon);

        // Tear generation 6's delta: the restart falls back to 5, says
        // why in the log, and counts the fallback.
        let victim = dir.join("seg-0000000006-0000.slc");
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
        let daemon = Daemon::open(&dir, cfg(), live(Arc::new(NullSink)), Arc::default()).unwrap();
        assert_eq!(daemon.boot(), Boot::Restored(5));
        assert_eq!(daemon.digest(), digest);
        assert_eq!(counter(&daemon, "persist.recovery.fallbacks"), Some(1));
        let log = daemon.log_ring.transcript();
        assert!(
            log.contains("falling back") && log.contains("seg-0000000006-0000.slc"),
            "{log}"
        );
    }

    #[test]
    fn domain_errors_become_error_responses_not_crashes() {
        let dir = tmp("err");
        let mut daemon =
            Daemon::open(&dir, cfg(), TelemetryHandle::disabled(), Arc::default()).unwrap();
        // Value 300 exceeds the 8-bit domain: the owner rejects it.
        let resp = daemon.handle(&Request {
            trace_id: 0,
            body: RequestBody::Ingest {
                records: vec![(1, 300)],
            },
        });
        assert!(matches!(resp.body, ResponseBody::Error(_)));
        // The daemon still serves afterwards.
        let resp = daemon.handle(&Request {
            trace_id: 0,
            body: RequestBody::Stat,
        });
        assert!(matches!(resp.body, ResponseBody::Stats(_)));
    }

    #[test]
    fn a_failed_request_logs_its_full_error_once() {
        use slicer_telemetry::{LogicalClock, NullSink};
        let dir = tmp("failed");
        let telemetry =
            TelemetryHandle::with(Arc::new(LogicalClock::with_step(1)), Arc::new(NullSink));
        let mut daemon = Daemon::open(&dir, cfg(), telemetry, Arc::default()).unwrap();
        let resp = daemon.handle(&Request {
            trace_id: 77,
            body: RequestBody::Ingest {
                records: vec![(1, 300)],
            },
        });
        let ResponseBody::Error(msg) = resp.body else {
            panic!("want Error, got {:?}", resp.body);
        };

        let ResponseBody::LogTail { lines, .. } = daemon.tail(50) else {
            panic!("want LogTail");
        };
        let failed: Vec<&String> = lines.iter().filter(|l| l.contains(&msg)).collect();
        assert_eq!(failed.len(), 1, "{lines:?}");
        for field in [
            r#""level":"warn""#,
            r#""target":"slicerd.rpc""#,
            r#""rpc.kind":"ingest""#,
            r#""trace":77"#,
        ] {
            assert!(failed[0].contains(field), "{field} missing: {}", failed[0]);
        }
        // The recording holds the error clipped to its slot.
        let rec = crate::flightrec::FlightRecording::load(daemon.flightrec.path()).unwrap();
        let outcome = &rec.requests[0].outcome;
        assert!(outcome.len() < msg.len(), "{outcome}");
        assert!(format!("error: {msg}").starts_with(outcome.as_str()));
    }

    #[test]
    fn requests_are_accounted_and_metrics_scrape_reflects_them() {
        use slicer_telemetry::{LogicalClock, NullSink};
        let dir = tmp("metrics");
        let telemetry =
            TelemetryHandle::with(Arc::new(LogicalClock::with_step(1_000)), Arc::new(NullSink));
        let mut daemon = Daemon::open(&dir, cfg(), telemetry.clone(), Arc::default()).unwrap();

        daemon.handle(&Request {
            trace_id: 0,
            body: RequestBody::Ingest {
                records: vec![(1, 10), (2, 20)],
            },
        });
        daemon.handle(&Request {
            trace_id: 0,
            body: RequestBody::Search {
                query: Query::less_than(15),
                payment: 100,
            },
        });
        // A domain failure lands in the internal-error bucket.
        daemon.handle(&Request {
            trace_id: 0,
            body: RequestBody::Ingest {
                records: vec![(9, 9_999)],
            },
        });

        let report = daemon.metrics_report();
        assert_eq!(report.boot, "fresh");
        assert_eq!(report.generation, 1);
        let snap = report.snapshot();
        // Metrics itself is not yet observed (the report is built
        // mid-request), so only the three handled requests count.
        assert_eq!(snap.counter("rpc.requests"), Some(3));
        assert_eq!(snap.counter("rpc.error.internal"), Some(1));
        let ingest = snap.histogram("rpc.ingest.ns").expect("ingest histogram");
        assert_eq!(ingest.count, 2);
        // One flight-recorder persist at each request boundary.
        let persists = snap
            .histogram("flightrec.persist.ns")
            .expect("flight-recorder persist histogram");
        assert_eq!(persists.count, 2 * 3);
    }

    #[test]
    fn tail_returns_json_log_lines_and_flightrec_names_requests() {
        use slicer_telemetry::{LogicalClock, NullSink};
        let dir = tmp("tail");
        let telemetry =
            TelemetryHandle::with(Arc::new(LogicalClock::with_step(1)), Arc::new(NullSink));
        let config = DaemonConfig {
            slow_request_ns: 0, // every request logs as slow
            ..cfg()
        };
        let mut daemon = Daemon::open(&dir, config, telemetry, Arc::default()).unwrap();
        daemon.handle(&Request {
            trace_id: 0,
            body: RequestBody::Stat,
        });

        let ResponseBody::LogTail { lines, dropped } = daemon.tail(10) else {
            panic!("want LogTail");
        };
        assert_eq!(dropped, 0);
        assert!(!lines.is_empty());
        for line in &lines {
            slicer_telemetry::json::parse(line).expect("valid JSON line");
        }
        assert!(
            lines.iter().any(|l| l.contains("slow request")),
            "{lines:?}"
        );

        // The flight recorder persisted the stat request with its
        // final outcome — and a fresh scrape request, begun but not
        // ended, shows up as in-flight on disk.
        let (_, err) = daemon.flightrec.begin(7, "metrics", 123);
        assert!(err.is_none());
        let rec = crate::flightrec::FlightRecording::load(daemon.flightrec.path()).unwrap();
        assert_eq!(rec.reason, "request-start");
        assert!(rec
            .requests
            .iter()
            .any(|r| r.kind == "stat" && r.outcome == "ok"));
        let in_flight = rec.in_flight().expect("one in-flight request");
        assert_eq!(in_flight.kind, "metrics");
    }

    #[test]
    fn flight_recording_is_bounded_by_its_ring_not_by_log_volume() {
        use slicer_telemetry::LogicalClock;
        let dir = tmp("flightrec-bound");
        // The aggregator is the handle's sink, as in slicerd, so the
        // recording carries a real wall profile.
        let profile = Arc::new(ProfileAggregator::new());
        let telemetry =
            TelemetryHandle::with(Arc::new(LogicalClock::with_step(1)), profile.clone());
        let config = DaemonConfig {
            slow_request_ns: 0, // every request logs a warn line
            ..cfg()
        };
        let mut daemon = Daemon::open(&dir, config, telemetry, profile).unwrap();
        for trace_id in 1..=300 {
            daemon.handle(&Request {
                trace_id,
                body: RequestBody::Stat,
            });
        }
        let ResponseBody::LogTail { lines, .. } = daemon.tail(300) else {
            panic!("want LogTail");
        };
        assert_eq!(
            lines.len(),
            slicer_telemetry::DEFAULT_LOG_RING,
            "the log ring is full"
        );

        let path = dir.join(FLIGHTREC_FILE);
        let size = std::fs::metadata(&path).unwrap().len();
        assert!(size < 16 * 1024, "flightrec.slc is {size} B");
        let rec = crate::flightrec::FlightRecording::load(&path).unwrap();
        assert_eq!(rec.requests.len(), FLIGHTREC_REQUESTS);
        assert_eq!(rec.next_seq, 301);
        let last = rec.requests.last().unwrap();
        assert_eq!((last.trace_id, last.kind.as_str()), (300, "stat"));
        assert_eq!(last.outcome, "ok");
        assert!(
            rec.profile_wall.contains("daemon.request"),
            "{}",
            rec.profile_wall
        );
    }

    #[test]
    fn request_boundaries_write_the_recording_in_place() {
        use std::os::unix::fs::MetadataExt;
        let dir = tmp("flightrec-inplace");
        let mut daemon =
            Daemon::open(&dir, cfg(), TelemetryHandle::enabled(), Arc::default()).unwrap();
        let stat = Request {
            trace_id: 0,
            body: RequestBody::Stat,
        };
        daemon.handle(&stat);
        let path = dir.join(FLIGHTREC_FILE);
        let inode = std::fs::metadata(&path).unwrap().ino();
        for _ in 1..200 {
            daemon.handle(&stat);
        }
        // No file was created, renamed or replaced after the first
        // persist: the same inode holds all 400 boundary writes.
        let meta = std::fs::metadata(&path).unwrap();
        assert_eq!(meta.ino(), inode);
        assert!(meta.len() < 16 * 1024, "flightrec.slc is {} B", meta.len());
        assert!(!dir.join("flightrec.slc.tmp").exists());
        let rec = crate::flightrec::FlightRecording::load(&path).unwrap();
        assert_eq!(rec.next_seq, 201);
        assert_eq!(rec.reason, "request-end");
    }

    #[test]
    fn profile_rpc_serves_stacks_that_reconcile_with_gas_counters() {
        use slicer_telemetry::LogicalClock;
        let dir = tmp("profile");
        // The aggregator is the handle's sink, as in slicerd.
        let profiled = |dir: &Path, profile: ProfileAggregator| {
            let profile = Arc::new(profile);
            let telemetry =
                TelemetryHandle::with(Arc::new(LogicalClock::with_step(100)), profile.clone());
            let mut daemon = Daemon::open(dir, cfg(), telemetry.clone(), profile).unwrap();
            daemon.handle(&Request {
                trace_id: 0,
                body: RequestBody::Ingest {
                    records: vec![(1, 10), (2, 20), (3, 30)],
                },
            });
            (daemon, telemetry)
        };
        let (mut daemon, telemetry) = profiled(&dir, ProfileAggregator::new());
        daemon.handle(&Request {
            trace_id: 0,
            body: RequestBody::Search {
                query: Query::less_than(25),
                payment: 1_000,
            },
        });

        // Folded wall profile: per-request spans fold under one
        // daemon.request root.
        let resp = daemon.handle(&Request {
            trace_id: 0,
            body: RequestBody::Profile {
                svg: false,
                gas: false,
            },
        });
        let ResponseBody::ProfileReport(ProfileReply {
            format,
            mode,
            rendered,
            total,
            stacks,
            ..
        }) = resp.body
        else {
            panic!("want ProfileReport, got {:?}", resp.body);
        };
        assert_eq!(format, "folded");
        assert_eq!(mode, "wall");
        assert!(stacks > 0);
        assert!(total > 0);
        assert!(
            rendered.lines().any(|l| l.starts_with("daemon.request;")),
            "{rendered}"
        );
        // The prover reports through the cloud's handle: witness work
        // folds under cloud.prove, and the first search builds the leaves.
        assert!(
            rendered
                .lines()
                .any(|l| l.contains("cloud.prove;accumulator.witness;accumulator.leaves ")),
            "{rendered}"
        );

        // Gas profile total reconciles exactly with the phase gas
        // counters (the span attrs carry the same settle/verify split).
        let resp = daemon.handle(&Request {
            trace_id: 0,
            body: RequestBody::Profile {
                svg: false,
                gas: true,
            },
        });
        let ResponseBody::ProfileReport(ProfileReply { total, .. }) = resp.body else {
            panic!("want ProfileReport");
        };
        let phase_gas: u64 = ["setup", "build", "token", "search", "verify", "settle"]
            .iter()
            .map(|p| {
                telemetry
                    .counter_value(&format!("phase.{p}.gas"))
                    .unwrap_or(0)
            })
            .sum();
        assert!(phase_gas > 0);
        assert_eq!(total, phase_gas, "gas profile must match phase counters");

        // SVG rendering: one declared `<svg>` document over the request root.
        let resp = daemon.handle(&Request {
            trace_id: 0,
            body: RequestBody::Profile {
                svg: true,
                gas: false,
            },
        });
        let ResponseBody::ProfileReport(ProfileReply {
            format, rendered, ..
        }) = resp.body
        else {
            panic!("want ProfileReport");
        };
        assert_eq!(format, "svg");
        assert!(rendered.starts_with("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<svg "));
        assert!(rendered.ends_with("</svg>\n"));
        assert!(rendered.contains("daemon.request"));

        // Nothing was dropped under the default cap; a one-stack cap
        // overflows on boot and ingest, and the scrape surfaces it.
        let dropped = |daemon: &Daemon| {
            let snap = daemon.metrics_report().snapshot();
            snap.gauge("telemetry.events.dropped").unwrap_or(0)
        };
        assert_eq!(dropped(&daemon), 0);
        let (capped, _) = profiled(&tmp("capped"), ProfileAggregator::with_max_stacks(1));
        assert!(dropped(&capped) > 0);
    }

    #[test]
    fn bad_value_bits_is_a_config_error() {
        let dir = tmp("bits");
        let bad = DaemonConfig {
            seed: 1,
            value_bits: 0,
            ..DaemonConfig::default()
        };
        assert!(matches!(
            Daemon::open(&dir, bad, TelemetryHandle::disabled(), Arc::default()),
            Err(DaemonError::Config(_))
        ));
    }
}
