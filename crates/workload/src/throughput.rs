//! Sustained-throughput benchmark: N seeded searchers driving a Zipf
//! query mix against a deployment, in-process or over the wire.
//!
//! The paper's evaluation reports single-search latency; this module
//! measures the serving story instead — how many verified searches per
//! second a deployment sustains and what the tail looks like. One
//! [`ThroughputSpec`] fully determines the dataset and every searcher's
//! query stream (same seed → same queries, byte for byte), so two runs
//! differ only in timing:
//!
//! * [`run_in_process`] drives a [`SlicerSystem`] directly. The protocol
//!   object requires `&mut` access (every search mutates the chain), so
//!   the N searchers are *logical*: their query streams interleave
//!   round-robin through one instance, which is exactly the serialized
//!   order a single-writer deployment imposes anyway.
//! * [`run_against_daemon`] opens one connection per searcher to a live
//!   `slicerd` and fans the searchers out over a [`slicer_par::Pool`],
//!   so wire framing, connection handling and daemon-side dispatch are
//!   all inside the measured window.
//!
//! Both paths produce a [`ThroughputReport`] whose [`Snapshot`] uses
//! the workspace bench-JSON schema — `examples/throughput_bench.rs`
//! writes it as `BENCH_throughput.json`, diffable by
//! `slicer-cli bench-diff` like every other committed baseline.

use crate::{sample_query_values, splitmix_stream, DatasetSpec, Distribution};
use slicer_core::{Query, RecordId, SlicerConfig, SlicerSystem};
use slicer_crypto::Rng;
use slicer_daemon::{DaemonClient, DaemonError, Endpoint};
use slicer_par::Pool;
use slicer_telemetry::{Clock, Metrics, MonotonicClock, Snapshot, TelemetryHandle};
use std::fmt;

/// Everything that determines a throughput run except the target.
#[derive(Debug, Clone)]
pub struct ThroughputSpec {
    /// Records in the synthetic dataset.
    pub records: usize,
    /// Value domain width in bits.
    pub value_bits: u8,
    /// Master seed: dataset, query values and operators all derive from
    /// it.
    pub seed: u64,
    /// Number of searchers (connections in daemon mode, interleaved
    /// streams in-process).
    pub searchers: usize,
    /// Queries each searcher issues.
    pub queries_per_searcher: usize,
    /// Zipf exponent of the query-value popularity skew (1.0 = classic
    /// Zipf; the paper's uniform mix is the 0.0 limit).
    pub zipf_exponent: f64,
    /// Escrow payment attached to every search.
    pub payment: u128,
}

impl Default for ThroughputSpec {
    fn default() -> Self {
        ThroughputSpec {
            records: 200,
            value_bits: 8,
            seed: 42,
            searchers: 4,
            queries_per_searcher: 8,
            zipf_exponent: 1.0,
            payment: 1_000,
        }
    }
}

impl ThroughputSpec {
    /// Total searches the run will issue.
    pub fn total_queries(&self) -> usize {
        self.searchers * self.queries_per_searcher
    }

    /// The synthetic dataset for this spec (Zipf-skewed values, so the
    /// query mix's popular values really are popular in the data too).
    pub fn dataset(&self) -> Vec<([u8; 16], u64)> {
        DatasetSpec {
            records: self.records,
            bits: self.value_bits,
            seed: self.seed,
            distribution: Distribution::Zipf {
                exponent: self.zipf_exponent,
            },
        }
        .generate()
    }

    /// The deterministic query stream of searcher `index`: values drawn
    /// from the dataset (whose Zipf skew shapes popularity), operators
    /// cycling eq/lt/gt per searcher.
    pub fn queries_for(&self, data: &[([u8; 16], u64)], index: usize) -> Vec<Query> {
        let seed = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1));
        let values = sample_query_values(data, self.queries_per_searcher, seed);
        let mut ops = splitmix_stream(seed ^ 0x5EED);
        values
            .into_iter()
            .map(|v| match ops.next_u64() % 3 {
                0 => Query::equal(v),
                1 => Query::less_than(v),
                _ => Query::greater_than(v),
            })
            .collect()
    }
}

/// One search's measurement.
#[derive(Debug, Clone, Copy)]
struct Sample {
    latency_ns: u64,
    gas: u64,
    verified: bool,
}

/// Aggregated outcome of a throughput run.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Searches issued.
    pub searches: u64,
    /// Searches whose on-chain verification passed.
    pub verified: u64,
    /// Wall-clock span of the measured window, nanoseconds.
    pub wall_ns: u64,
    /// 99th-percentile per-search latency, nanoseconds.
    pub p99_ns: u64,
    /// Mean gas (request + verify) per search.
    pub mean_gas: u64,
    /// The run's metrics in the shared bench-JSON schema.
    pub snapshot: Snapshot,
}

impl ThroughputReport {
    /// Sustained verified-search throughput over the measured window.
    pub fn searches_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.searches as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// The snapshot as bench JSON (the `BENCH_throughput.json` payload).
    pub fn to_json(&self) -> String {
        self.snapshot.to_json()
    }
}

impl fmt::Display for ThroughputReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "searches={} verified={} wall={:.3}s throughput={:.1}/s p99={:.3}ms gas/search={}",
            self.searches,
            self.verified,
            self.wall_ns as f64 / 1e9,
            self.searches_per_sec(),
            self.p99_ns as f64 / 1e6,
            self.mean_gas
        )
    }
}

/// A throughput-run failure.
#[derive(Debug)]
pub enum ThroughputError {
    /// The in-process protocol rejected a step.
    Protocol(String),
    /// The daemon transport or a remote search failed.
    Daemon(DaemonError),
}

impl fmt::Display for ThroughputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThroughputError::Protocol(msg) => write!(f, "throughput protocol error: {msg}"),
            ThroughputError::Daemon(e) => write!(f, "throughput daemon error: {e}"),
        }
    }
}

impl std::error::Error for ThroughputError {}

impl From<DaemonError> for ThroughputError {
    fn from(e: DaemonError) -> Self {
        ThroughputError::Daemon(e)
    }
}

/// Runs the spec against a fresh in-process [`SlicerSystem`].
///
/// Setup and build happen *before* the measured window; the window
/// covers searches only.
///
/// # Errors
///
/// [`ThroughputError::Protocol`] when setup, build or a search fails.
pub fn run_in_process(spec: &ThroughputSpec) -> Result<ThroughputReport, ThroughputError> {
    let data = spec.dataset();
    let db: Vec<(RecordId, u64)> = data.iter().map(|(id, v)| (RecordId(*id), *v)).collect();
    let mut system = SlicerSystem::try_setup_with(
        SlicerConfig::with_bits(spec.value_bits),
        spec.seed,
        TelemetryHandle::disabled(),
    )
    .map_err(|e| ThroughputError::Protocol(e.to_string()))?;
    system
        .build(&db)
        .map_err(|e| ThroughputError::Protocol(e.to_string()))?;

    let streams: Vec<Vec<Query>> = (0..spec.searchers)
        .map(|i| spec.queries_for(&data, i))
        .collect();

    let clock = MonotonicClock::new();
    let mut samples = Vec::with_capacity(spec.total_queries());
    let window_start = clock.now_nanos();
    // Round-robin across the logical searchers: query k of every
    // searcher before query k+1 of any, mirroring fair interleaving.
    for k in 0..spec.queries_per_searcher {
        for stream in &streams {
            let query = &stream[k];
            let t = clock.now_nanos();
            let outcome = system
                .search(query, spec.payment)
                .map_err(|e| ThroughputError::Protocol(e.to_string()))?;
            samples.push(Sample {
                latency_ns: clock.now_nanos() - t,
                gas: outcome.request_gas + outcome.verify_gas,
                verified: outcome.verified,
            });
        }
    }
    let wall_ns = clock.now_nanos() - window_start;
    Ok(summarize(spec, "in_process", &samples, wall_ns))
}

/// Runs the spec against a live `slicerd` at `endpoint`, one connection
/// per searcher, fanned out over `pool`.
///
/// The daemon must already hold the spec's dataset (use
/// [`ingest_into_daemon`]) — ingest stays outside the measured window.
///
/// # Errors
///
/// [`ThroughputError::Daemon`] when a connection or search fails.
pub fn run_against_daemon(
    spec: &ThroughputSpec,
    endpoint: &Endpoint,
    pool: &Pool,
) -> Result<ThroughputReport, ThroughputError> {
    let data = spec.dataset();
    let indices: Vec<usize> = (0..spec.searchers).collect();
    let clock = MonotonicClock::new();
    let window_start = clock.now_nanos();
    let per_searcher: Vec<Result<Vec<Sample>, DaemonError>> = pool.par_map(&indices, |&i| {
        let mut client = DaemonClient::connect(endpoint)?;
        let queries = spec.queries_for(&data, i);
        let mut out = Vec::with_capacity(queries.len());
        for query in queries {
            let t = clock.now_nanos();
            let reply = client.search(query, spec.payment)?;
            out.push(Sample {
                latency_ns: clock.now_nanos() - t,
                gas: reply.request_gas + reply.verify_gas,
                verified: reply.verified,
            });
        }
        Ok(out)
    });
    let wall_ns = clock.now_nanos() - window_start;
    let mut samples = Vec::with_capacity(spec.total_queries());
    for result in per_searcher {
        samples.extend(result?);
    }
    Ok(summarize(spec, "daemon", &samples, wall_ns))
}

/// Loads the spec's dataset into a live daemon (one ingest batch).
///
/// # Errors
///
/// Propagates transport and daemon-side failures.
pub fn ingest_into_daemon(spec: &ThroughputSpec, endpoint: &Endpoint) -> Result<u64, DaemonError> {
    let mut client = DaemonClient::connect(endpoint)?;
    let records: Vec<(u64, u64)> = spec
        .dataset()
        .iter()
        .enumerate()
        .map(|(i, (_, v))| (i as u64 + 1, *v))
        .collect();
    let (count, _, _) = client.ingest(records)?;
    Ok(count)
}

/// Folds raw samples into the report + bench-JSON snapshot.
fn summarize(
    spec: &ThroughputSpec,
    target: &str,
    samples: &[Sample],
    wall_ns: u64,
) -> ThroughputReport {
    let metrics = Metrics::new();
    let mut verified = 0u64;
    let mut total_gas = 0u64;
    for s in samples {
        metrics.observe("throughput.search.ns", s.latency_ns);
        if s.verified {
            verified += 1;
        }
        total_gas += s.gas;
    }
    let searches = samples.len() as u64;
    metrics.count("throughput.searches", searches);
    metrics.count("throughput.verified", verified);
    metrics.count("throughput.gas.total", total_gas);
    metrics.gauge("throughput.searchers", spec.searchers as u64);
    metrics.gauge("throughput.records", spec.records as u64);
    metrics.gauge("throughput.wall_ns", wall_ns);
    metrics.gauge(&format!("throughput.target.{target}"), 1);
    let snapshot = Snapshot::of(&metrics);
    let p99_ns = snapshot
        .histogram("throughput.search.ns")
        .map_or(0, |h| h.p99);
    ThroughputReport {
        searches,
        verified,
        wall_ns,
        p99_ns,
        mean_gas: if searches == 0 {
            0
        } else {
            total_gas / searches
        },
        snapshot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ThroughputSpec {
        ThroughputSpec {
            records: 24,
            value_bits: 8,
            seed: 7,
            searchers: 3,
            queries_per_searcher: 2,
            zipf_exponent: 1.0,
            payment: 1_000,
        }
    }

    #[test]
    fn query_streams_are_deterministic_and_distinct_per_searcher() {
        let spec = tiny();
        let data = spec.dataset();
        let a0 = spec.queries_for(&data, 0);
        let a0_again = spec.queries_for(&data, 0);
        let a1 = spec.queries_for(&data, 1);
        assert_eq!(format!("{a0:?}"), format!("{a0_again:?}"));
        assert_ne!(format!("{a0:?}"), format!("{a1:?}"));
        assert_eq!(a0.len(), spec.queries_per_searcher);
    }

    #[test]
    fn in_process_run_reports_verified_searches() {
        let spec = tiny();
        let report = run_in_process(&spec).expect("tiny run succeeds");
        assert_eq!(report.searches, spec.total_queries() as u64);
        assert_eq!(report.verified, report.searches, "all searches verify");
        assert!(report.wall_ns > 0);
        assert!(report.searches_per_sec() > 0.0);
        assert!(report.p99_ns > 0);
        assert!(report.mean_gas > 0);
        let json = report.to_json();
        assert!(json.contains("throughput.search.ns"));
        assert!(json.contains("\"throughput.searches\""));
        slicer_telemetry::json::parse(&json).expect("snapshot JSON is valid");
    }

    #[test]
    fn report_snapshot_diffs_clean_against_itself() {
        let report = run_in_process(&tiny()).expect("tiny run succeeds");
        let doc = slicer_testkit::parse_bench_json(&report.to_json()).expect("parses");
        assert!(slicer_testkit::diff(&doc, &doc, &slicer_testkit::DiffConfig::default()).ok());
    }
}
