//! A blocking client for the `slicerd` wire protocol.

use crate::error::DaemonError;
use crate::net::{Endpoint, Stream};
use crate::proto::{
    read_message, write_message, MetricsReply, ProfileReply, ReadOutcome, Request, RequestBody,
    Response, ResponseBody, StatReply,
};
use slicer_core::Query;

/// One connection to a running `slicerd`.
///
/// Each call sends one request frame and blocks for the response. The
/// client owns a trace-id counter seeded from its process id, so spans
/// from different CLI invocations land in distinct traces while every
/// request within one invocation is correlatable.
#[derive(Debug)]
pub struct DaemonClient {
    stream: Stream,
    next_trace: u64,
}

impl DaemonClient {
    /// Connects to a daemon at `endpoint`.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] when the connection fails.
    pub fn connect(endpoint: &Endpoint) -> Result<Self, DaemonError> {
        Ok(DaemonClient {
            stream: endpoint.connect()?,
            next_trace: u64::from(std::process::id()) << 20,
        })
    }

    fn call(&mut self, body: RequestBody) -> Result<ResponseBody, DaemonError> {
        self.next_trace = self.next_trace.wrapping_add(1);
        let request = Request {
            trace_id: self.next_trace,
            body,
        };
        write_message(&mut self.stream, &request)?;
        let response: Response = match read_message(&mut self.stream)? {
            ReadOutcome::Msg(response) => response,
            ReadOutcome::Eof => return Err(DaemonError::Io("daemon closed the connection".into())),
            ReadOutcome::Oversize { declared } => {
                return Err(DaemonError::Protocol(format!(
                    "incoming frame too large ({declared} bytes)"
                )))
            }
            ReadOutcome::Undecodable(msg) => return Err(DaemonError::Protocol(msg)),
        };
        match response.body {
            ResponseBody::Error(msg) => Err(DaemonError::Remote(msg)),
            body => Ok(body),
        }
    }

    /// Inserts `(record id, value)` pairs; the daemon commits a new
    /// generation before replying.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`DaemonError::Remote`] /
    /// [`DaemonError::Protocol`] on a daemon-side failure.
    pub fn ingest(&mut self, records: Vec<(u64, u64)>) -> Result<(u64, u64, Vec<u8>), DaemonError> {
        match self.call(RequestBody::Ingest { records })? {
            ResponseBody::Ingested {
                records,
                generation,
                digest,
            } => Ok((records, generation, digest)),
            other => Err(unexpected("Ingested", &other)),
        }
    }

    /// Runs one verifiable search.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`DaemonError::Remote`] /
    /// [`DaemonError::Protocol`] on a daemon-side failure.
    pub fn search(&mut self, query: Query, payment: u128) -> Result<SearchReply, DaemonError> {
        match self.call(RequestBody::Search { query, payment })? {
            ResponseBody::Found {
                ids,
                verified,
                paid_cloud,
                request_gas,
                verify_gas,
                digest,
            } => Ok(SearchReply {
                ids,
                verified,
                paid_cloud,
                request_gas,
                verify_gas,
                digest,
            }),
            other => Err(unexpected("Found", &other)),
        }
    }

    /// Verifies the daemon's chain: `(chain_ok, height, digest)`.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`DaemonError::Remote`] /
    /// [`DaemonError::Protocol`] on a daemon-side failure.
    pub fn verify(&mut self) -> Result<(bool, u64, Vec<u8>), DaemonError> {
        match self.call(RequestBody::Verify)? {
            ResponseBody::Verified {
                chain_ok,
                height,
                digest,
            } => Ok((chain_ok, height, digest)),
            other => Err(unexpected("Verified", &other)),
        }
    }

    /// Fetches store/index statistics.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`DaemonError::Remote`] /
    /// [`DaemonError::Protocol`] on a daemon-side failure.
    pub fn stat(&mut self) -> Result<StatReply, DaemonError> {
        match self.call(RequestBody::Stat)? {
            ResponseBody::Stats(stats) => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Scrapes the daemon's live metrics: the structured
    /// counter/gauge/histogram vectors, which
    /// [`MetricsReply::snapshot`] renders as Prometheus text or JSON.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`DaemonError::Remote`] /
    /// [`DaemonError::Protocol`] on a daemon-side failure.
    pub fn metrics(&mut self) -> Result<MetricsReply, DaemonError> {
        match self.call(RequestBody::Metrics)? {
            ResponseBody::MetricsReport(report) => Ok(report),
            other => Err(unexpected("MetricsReport", &other)),
        }
    }

    /// Fetches the last `count` structured-log records as JSON lines,
    /// plus how many older records the daemon's ring has evicted.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`DaemonError::Remote`] /
    /// [`DaemonError::Protocol`] on a daemon-side failure.
    pub fn tail(&mut self, count: u64) -> Result<(Vec<String>, u64), DaemonError> {
        match self.call(RequestBody::Tail { count })? {
            ResponseBody::LogTail { lines, dropped } => Ok((lines, dropped)),
            other => Err(unexpected("LogTail", &other)),
        }
    }

    /// Fetches a live profile from the daemon: folded stacks or a
    /// rendered SVG flamegraph, weighted by wall-time or gas.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`DaemonError::Remote`] /
    /// [`DaemonError::Protocol`] on a daemon-side failure.
    pub fn profile(&mut self, svg: bool, gas: bool) -> Result<ProfileReply, DaemonError> {
        match self.call(RequestBody::Profile { svg, gas })? {
            ResponseBody::ProfileReport(report) => Ok(report),
            other => Err(unexpected("ProfileReport", &other)),
        }
    }

    /// Asks the daemon to exit after acknowledging.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`DaemonError::Protocol`] on an unexpected
    /// reply.
    pub fn shutdown(&mut self) -> Result<(), DaemonError> {
        match self.call(RequestBody::Shutdown)? {
            ResponseBody::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

fn unexpected(want: &str, got: &ResponseBody) -> DaemonError {
    DaemonError::Protocol(format!("expected {want} response, got {got:?}"))
}

/// A [`DaemonClient::search`] result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReply {
    /// Decrypted matching record ids.
    pub ids: Vec<u64>,
    /// Whether on-chain verification passed.
    pub verified: bool,
    /// Whether the escrowed fee settled to the cloud.
    pub paid_cloud: bool,
    /// Gas spent registering the request.
    pub request_gas: u64,
    /// Gas spent on submission + verification.
    pub verify_gas: u64,
    /// Canonical accumulator digest the proof verified against.
    pub digest: Vec<u8>,
}
