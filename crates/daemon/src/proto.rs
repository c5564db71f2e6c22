//! The framed wire protocol `slicerd` speaks.
//!
//! Every message travels as one frame: a 4-byte big-endian `u32` length
//! prefix followed by exactly that many payload bytes, the payload being
//! a [`slicer_crypto::codec`] encoding of [`Request`] or [`Response`].
//! The length prefix is capped at [`MAX_FRAME_LEN`] so a corrupt or
//! hostile peer cannot make the daemon allocate unbounded memory.
//!
//! Requests carry the client's trace id; the daemon opens its per-request
//! telemetry root span *inside that trace* (via
//! `TelemetryHandle::span_in_trace`), so one search initiated by
//! `slicer-cli` produces a single distributed trace spanning both
//! processes. A trace id of 0 means "no trace": the daemon mints a fresh
//! one.

use crate::error::DaemonError;
use slicer_core::Query;
use slicer_crypto::codec::{from_bytes, to_bytes, CodecError, Decode, Encode, Reader};
use slicer_telemetry::Snapshot;
use std::io::{Read, Write};

/// Upper bound on a frame's payload length. Large enough for any real
/// response (an index chunk is a few MiB), small enough to bound the
/// allocation a corrupt length prefix can trigger.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// A client request: the caller's trace id plus the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The client-side trace id (0 = none; the daemon mints one).
    pub trace_id: u64,
    /// The requested operation.
    pub body: RequestBody,
}

slicer_crypto::impl_codec!(Request { trace_id, body });

/// The operations `slicerd` serves.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Insert `(record id, value)` pairs and commit a new generation.
    Ingest {
        /// The records to insert.
        records: Vec<(u64, u64)>,
    },
    /// Run one verifiable search, escrowing `payment` on the chain.
    Search {
        /// The numerical query.
        query: Query,
        /// The search fee the user escrows.
        payment: u128,
    },
    /// Verify the daemon's chain and report the on-chain digest.
    Verify,
    /// Report store/index statistics.
    Stat,
    /// Ask the daemon to stop accepting connections and exit.
    Shutdown,
    /// Scrape the daemon's metrics registry: counter/gauge/histogram
    /// listings and uptime/build info.
    Metrics,
    /// Fetch the last `count` structured log records as JSON lines.
    Tail {
        /// How many records to return (capped by the daemon's ring).
        count: u64,
    },
    /// Fetch the daemon's live accumulated collapsed-stack profile.
    Profile {
        /// Render an SVG flamegraph instead of folded text.
        svg: bool,
        /// Weight stacks by gas instead of wall nanoseconds.
        gas: bool,
    },
}

impl RequestBody {
    /// Short operation name, used as the `rpc.kind` attribute and in
    /// flight-recorder entries.
    pub fn kind(&self) -> &'static str {
        match self {
            RequestBody::Ingest { .. } => "ingest",
            RequestBody::Search { .. } => "search",
            RequestBody::Verify => "verify",
            RequestBody::Stat => "stat",
            RequestBody::Shutdown => "shutdown",
            RequestBody::Metrics => "metrics",
            RequestBody::Tail { .. } => "tail",
            RequestBody::Profile { .. } => "profile",
        }
    }

    /// Name of the per-operation latency histogram this request feeds —
    /// `'static` so the hot path never allocates a metric name.
    pub fn metric(&self) -> &'static str {
        match self {
            RequestBody::Ingest { .. } => "rpc.ingest.ns",
            RequestBody::Search { .. } => "rpc.search.ns",
            RequestBody::Verify => "rpc.verify.ns",
            RequestBody::Stat => "rpc.stat.ns",
            RequestBody::Shutdown => "rpc.shutdown.ns",
            RequestBody::Metrics => "rpc.metrics.ns",
            RequestBody::Tail { .. } => "rpc.tail.ns",
            RequestBody::Profile { .. } => "rpc.profile.ns",
        }
    }
}

impl Encode for RequestBody {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RequestBody::Ingest { records } => {
                0u32.encode(out);
                records.encode(out);
            }
            RequestBody::Search { query, payment } => {
                1u32.encode(out);
                query.encode(out);
                payment.encode(out);
            }
            RequestBody::Verify => 2u32.encode(out),
            RequestBody::Stat => 3u32.encode(out),
            RequestBody::Shutdown => 4u32.encode(out),
            RequestBody::Metrics => 5u32.encode(out),
            RequestBody::Tail { count } => {
                6u32.encode(out);
                count.encode(out);
            }
            RequestBody::Profile { svg, gas } => {
                7u32.encode(out);
                svg.encode(out);
                gas.encode(out);
            }
        }
    }
}

impl Decode for RequestBody {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u32::decode(reader)? {
            0 => Ok(RequestBody::Ingest {
                records: Vec::decode(reader)?,
            }),
            1 => Ok(RequestBody::Search {
                query: Query::decode(reader)?,
                payment: u128::decode(reader)?,
            }),
            2 => Ok(RequestBody::Verify),
            3 => Ok(RequestBody::Stat),
            4 => Ok(RequestBody::Shutdown),
            5 => Ok(RequestBody::Metrics),
            6 => Ok(RequestBody::Tail {
                count: u64::decode(reader)?,
            }),
            7 => Ok(RequestBody::Profile {
                svg: bool::decode(reader)?,
                gas: bool::decode(reader)?,
            }),
            v => Err(CodecError::msg(format!("invalid RequestBody variant {v}"))),
        }
    }
}

/// The daemon's reply; echoes the request's trace id.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The trace id the request carried (or the one the daemon minted).
    pub trace_id: u64,
    /// The operation's outcome.
    pub body: ResponseBody,
}

slicer_crypto::impl_codec!(Response { trace_id, body });

/// Outcomes of the operations in [`RequestBody`].
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// The operation failed; the daemon stays up.
    Error(String),
    /// Records ingested and a new generation sealed.
    Ingested {
        /// How many records the batch held.
        records: u64,
        /// The generation the commit sealed.
        generation: u64,
        /// Canonical accumulator digest after the insert.
        digest: Vec<u8>,
    },
    /// A verifiable search completed.
    Found {
        /// Decrypted matching record ids.
        ids: Vec<u64>,
        /// Whether on-chain verification passed.
        verified: bool,
        /// Whether the escrowed fee settled to the cloud.
        paid_cloud: bool,
        /// Gas spent registering the request.
        request_gas: u64,
        /// Gas spent on submission + verification.
        verify_gas: u64,
        /// Canonical accumulator digest the proof verified against.
        digest: Vec<u8>,
    },
    /// Chain verification report.
    Verified {
        /// Whether every block's hash chain checks out.
        chain_ok: bool,
        /// Current chain height.
        height: u64,
        /// Canonical accumulator digest.
        digest: Vec<u8>,
    },
    /// Store and index statistics.
    Stats(StatReply),
    /// The daemon acknowledges shutdown and will exit.
    ShuttingDown,
    /// A metrics scrape.
    MetricsReport(MetricsReply),
    /// The last N structured log records, one JSON line each.
    LogTail {
        /// JSON-encoded log records, oldest first.
        lines: Vec<String>,
        /// Records the daemon's ring has evicted so far.
        dropped: u64,
    },
    /// The live collapsed-stack profile, rendered as requested.
    ProfileReport(ProfileReply),
}

/// Store and index statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct StatReply {
    /// Entries in the encrypted index `I`.
    pub index_entries: u64,
    /// Primes in the list `X`.
    pub primes: u64,
    /// Last sealed on-disk generation (0 = nothing persisted yet).
    pub generation: u64,
    /// Current chain height.
    pub chain_height: u64,
    /// Canonical accumulator digest.
    pub digest: Vec<u8>,
}

slicer_crypto::impl_codec!(StatReply {
    index_entries,
    primes,
    generation,
    chain_height,
    digest
});

/// The live collapsed-stack profile, rendered as requested.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReply {
    /// `"folded"` or `"svg"` — what `rendered` holds.
    pub format: String,
    /// `"wall"` or `"gas"` — the weighting used.
    pub mode: String,
    /// The rendered document (folded text or SVG).
    pub rendered: String,
    /// Total weight across all stacks (ns or gas per `mode`).
    pub total: u64,
    /// Distinct stacks in the profile.
    pub stacks: u64,
    /// Stacks the aggregator discarded at its cap.
    pub dropped_stacks: u64,
}

slicer_crypto::impl_codec!(ProfileReply {
    format,
    mode,
    rendered,
    total,
    stacks,
    dropped_stacks
});

/// A metrics scrape: the structured registry, sent once. Clients render
/// it as Prometheus text or JSON themselves ([`MetricsReply::snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReply {
    /// Nanoseconds since the daemon's clock saw its boot reading.
    pub uptime_ns: u64,
    /// The daemon's crate version (build info).
    pub version: String,
    /// How the daemon booted: `"fresh"` or `"restored:<gen>"`.
    pub boot: String,
    /// Last sealed on-disk generation.
    pub generation: u64,
    /// Sorted `(name, value)` counter pairs.
    pub counters: Vec<(String, u64)>,
    /// Sorted `(name, value)` gauge pairs.
    pub gauges: Vec<(String, u64)>,
    /// Sorted `(name, summary)` histogram pairs.
    pub histograms: Vec<(String, WireHistogram)>,
}

slicer_crypto::impl_codec!(MetricsReply {
    uptime_ns,
    version,
    boot,
    generation,
    counters,
    gauges,
    histograms
});

impl MetricsReply {
    /// The scraped registry as a [`Snapshot`], ready for the Prometheus
    /// and JSON exporters.
    pub fn snapshot(&self) -> Snapshot {
        let histograms = self.histograms.iter().map(|(n, h)| (n.clone(), h.into()));
        Snapshot::from_parts(
            self.counters.clone(),
            self.gauges.clone(),
            histograms.collect(),
        )
    }
}

/// A histogram summary on the wire — mirrors
/// [`slicer_telemetry::HistogramSummary`], defined here so it can carry
/// this crate's codec impl (the telemetry crate knows nothing about the
/// wire format).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireHistogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

slicer_crypto::impl_codec!(WireHistogram {
    count,
    sum,
    min,
    max,
    p50,
    p90,
    p99
});

impl From<&slicer_telemetry::HistogramSummary> for WireHistogram {
    fn from(h: &slicer_telemetry::HistogramSummary) -> Self {
        WireHistogram {
            count: h.count,
            sum: h.sum,
            min: h.min,
            max: h.max,
            p50: h.p50,
            p90: h.p90,
            p99: h.p99,
        }
    }
}

impl From<&WireHistogram> for slicer_telemetry::HistogramSummary {
    fn from(h: &WireHistogram) -> Self {
        slicer_telemetry::HistogramSummary {
            count: h.count,
            sum: h.sum,
            min: h.min,
            max: h.max,
            p50: h.p50,
            p90: h.p90,
            p99: h.p99,
        }
    }
}

impl Encode for ResponseBody {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ResponseBody::Error(msg) => {
                0u32.encode(out);
                msg.encode(out);
            }
            ResponseBody::Ingested {
                records,
                generation,
                digest,
            } => {
                1u32.encode(out);
                records.encode(out);
                generation.encode(out);
                digest.encode(out);
            }
            ResponseBody::Found {
                ids,
                verified,
                paid_cloud,
                request_gas,
                verify_gas,
                digest,
            } => {
                2u32.encode(out);
                ids.encode(out);
                verified.encode(out);
                paid_cloud.encode(out);
                request_gas.encode(out);
                verify_gas.encode(out);
                digest.encode(out);
            }
            ResponseBody::Verified {
                chain_ok,
                height,
                digest,
            } => {
                3u32.encode(out);
                chain_ok.encode(out);
                height.encode(out);
                digest.encode(out);
            }
            ResponseBody::Stats(stats) => {
                4u32.encode(out);
                stats.encode(out);
            }
            ResponseBody::ShuttingDown => 5u32.encode(out),
            ResponseBody::MetricsReport(report) => {
                6u32.encode(out);
                report.encode(out);
            }
            ResponseBody::LogTail { lines, dropped } => {
                7u32.encode(out);
                lines.encode(out);
                dropped.encode(out);
            }
            ResponseBody::ProfileReport(report) => {
                8u32.encode(out);
                report.encode(out);
            }
        }
    }
}

impl Decode for ResponseBody {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u32::decode(reader)? {
            0 => Ok(ResponseBody::Error(String::decode(reader)?)),
            1 => Ok(ResponseBody::Ingested {
                records: u64::decode(reader)?,
                generation: u64::decode(reader)?,
                digest: Vec::decode(reader)?,
            }),
            2 => Ok(ResponseBody::Found {
                ids: Vec::decode(reader)?,
                verified: bool::decode(reader)?,
                paid_cloud: bool::decode(reader)?,
                request_gas: u64::decode(reader)?,
                verify_gas: u64::decode(reader)?,
                digest: Vec::decode(reader)?,
            }),
            3 => Ok(ResponseBody::Verified {
                chain_ok: bool::decode(reader)?,
                height: u64::decode(reader)?,
                digest: Vec::decode(reader)?,
            }),
            4 => Ok(ResponseBody::Stats(StatReply::decode(reader)?)),
            5 => Ok(ResponseBody::ShuttingDown),
            6 => Ok(ResponseBody::MetricsReport(MetricsReply::decode(reader)?)),
            7 => Ok(ResponseBody::LogTail {
                lines: Vec::decode(reader)?,
                dropped: u64::decode(reader)?,
            }),
            8 => Ok(ResponseBody::ProfileReport(ProfileReply::decode(reader)?)),
            v => Err(CodecError::msg(format!("invalid ResponseBody variant {v}"))),
        }
    }
}

/// Writes one length-prefixed message and flushes the stream.
///
/// # Errors
///
/// [`DaemonError::Protocol`] when the encoding exceeds [`MAX_FRAME_LEN`],
/// [`DaemonError::Io`] on socket failure.
pub fn write_message<T: Encode>(stream: &mut impl Write, message: &T) -> Result<(), DaemonError> {
    let payload = to_bytes(message)?;
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|l| *l <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            DaemonError::Protocol(format!(
                "outgoing frame too large ({} bytes)",
                payload.len()
            ))
        })?;
    stream.write_all(&len.to_be_bytes())?;
    stream.write_all(&payload)?;
    stream.flush()?;
    Ok(())
}

/// Reads one length-prefixed message. Returns `Ok(None)` on a clean EOF
/// at a frame boundary (the peer closed the connection).
///
/// # Errors
///
/// [`DaemonError::Protocol`] on an oversized frame or undecodable
/// payload, [`DaemonError::Io`] on socket failure or mid-frame EOF.
pub fn read_message<T: Decode>(stream: &mut impl Read) -> Result<Option<T>, DaemonError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    while let Some(unfilled) = len_bytes.get_mut(filled..).filter(|s| !s.is_empty()) {
        let n = stream.read(unfilled)?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(DaemonError::Io("eof inside frame length".into()));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(DaemonError::Protocol(format!(
            "incoming frame too large ({len} bytes)"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
    Ok(Some(from_bytes(&payload)?))
}

/// What [`read_message_lenient`] found on the stream.
#[derive(Debug)]
pub enum ReadOutcome<T> {
    /// Clean EOF at a frame boundary — the peer closed the connection.
    Eof,
    /// One well-formed message.
    Msg(T),
    /// The frame declared a payload above [`MAX_FRAME_LEN`]. The payload
    /// has been drained, so the stream is still framed and the caller
    /// can reply with an error and keep serving the connection.
    Oversize {
        /// The declared payload length.
        declared: u32,
    },
    /// A well-framed payload that does not decode. The frame has been
    /// consumed, so the stream stays framed.
    Undecodable(String),
}

/// Reads one length-prefixed message without giving up on the
/// connection for recoverable faults: an oversized frame is drained
/// (bounded, never buffered) and an undecodable payload is reported
/// instead of raised, so the serving loop can answer with a clean
/// [`ResponseBody::Error`] and keep the stream alive. Hard transport
/// faults (mid-frame EOF, socket errors) still raise.
///
/// # Errors
///
/// [`DaemonError::Io`] on socket failure or EOF inside a frame.
pub fn read_message_lenient<T: Decode>(
    stream: &mut impl Read,
) -> Result<ReadOutcome<T>, DaemonError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    while let Some(unfilled) = len_bytes.get_mut(filled..).filter(|s| !s.is_empty()) {
        let n = stream.read(unfilled)?;
        if n == 0 {
            if filled == 0 {
                return Ok(ReadOutcome::Eof);
            }
            return Err(DaemonError::Io("eof inside frame length".into()));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        // Consume the declared payload through a bounded copy into the
        // sink — no allocation proportional to the hostile length. A
        // short read (peer gave up mid-payload) surfaces on the next
        // frame read as EOF.
        std::io::copy(&mut stream.take(u64::from(len)), &mut std::io::sink())?;
        return Ok(ReadOutcome::Oversize { declared: len });
    }
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
    match from_bytes(&payload) {
        Ok(message) => Ok(ReadOutcome::Msg(message)),
        Err(e) => Ok(ReadOutcome::Undecodable(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes `value` to exactly the bytes `want` (hex), and round-trips
    /// it through one frame. A round trip alone would still pass if a
    /// field moved or a tag changed; the pinned bytes would not.
    fn check<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T, want: &str) {
        assert_eq!(crate::hex(&to_bytes(&value).unwrap()), want, "{value:?}");
        let mut wire = Vec::new();
        write_message(&mut wire, &value).unwrap();
        let mut cursor = wire.as_slice();
        let back: T = read_message(&mut cursor).unwrap().unwrap();
        assert_eq!(back, value);
        assert!(cursor.is_empty());
    }

    /// Every request variant with fixed field values, and its bytes.
    fn pinned_requests() -> [(RequestBody, &'static str); 8] {
        [
            (
                RequestBody::Ingest {
                    records: vec![(1, 10), (2, 20)],
                },
                "00000000020000000000000001000000000000000a0000000000000002000000000000001400000000000000",
            ),
            (
                RequestBody::Search {
                    query: Query::less_than(42),
                    payment: 1_000,
                },
                "0100000000000000000000002a0000000000000001000000e8030000000000000000000000000000",
            ),
            (RequestBody::Verify, "02000000"),
            (RequestBody::Stat, "03000000"),
            (RequestBody::Shutdown, "04000000"),
            (RequestBody::Metrics, "05000000"),
            (RequestBody::Tail { count: 50 }, "060000003200000000000000"),
            (
                RequestBody::Profile {
                    svg: true,
                    gas: false,
                },
                "070000000100",
            ),
        ]
    }

    #[test]
    fn requests_roundtrip_through_the_frame() {
        for (body, want) in pinned_requests() {
            check(body, want);
        }
        // The envelope: trace id first, then the body.
        let request = Request {
            trace_id: 0x0102,
            body: RequestBody::Stat,
        };
        check(request, "020100000000000003000000");
    }

    #[test]
    fn responses_roundtrip_through_the_frame() {
        let responses = [
            ResponseBody::Error("no".into()),
            ResponseBody::Ingested {
                records: 2,
                generation: 3,
                digest: vec![0xAA, 0xBB],
            },
            ResponseBody::Found {
                ids: vec![3, 1],
                verified: true,
                paid_cloud: false,
                request_gas: 11,
                verify_gas: 22,
                digest: vec![0xCD],
            },
            ResponseBody::Verified {
                chain_ok: true,
                height: 9,
                digest: vec![0xEF],
            },
            ResponseBody::Stats(StatReply {
                index_entries: 5,
                primes: 6,
                generation: 7,
                chain_height: 8,
                digest: vec![0x01, 0x02],
            }),
            ResponseBody::ShuttingDown,
            ResponseBody::MetricsReport(MetricsReply {
                uptime_ns: 12,
                version: "v".into(),
                boot: "fresh".into(),
                generation: 1,
                counters: vec![("c".into(), 2)],
                gauges: vec![("g".into(), 3)],
                histograms: vec![(
                    "h".into(),
                    WireHistogram {
                        count: 1,
                        sum: 2,
                        min: 3,
                        max: 4,
                        p50: 5,
                        p90: 6,
                        p99: 7,
                    },
                )],
            }),
            ResponseBody::LogTail {
                lines: vec!["{}".into()],
                dropped: 4,
            },
            ResponseBody::ProfileReport(ProfileReply {
                format: "folded".into(),
                mode: "gas".into(),
                rendered: "a 1\n".into(),
                total: 1,
                stacks: 1,
                dropped_stacks: 0,
            }),
        ];
        let want = [
            "0000000002000000000000006e6f",
            "01000000020000000000000003000000000000000200000000000000aabb",
            "0200000002000000000000000300000000000000010000000000000001000b0000000000000016000000000000000100000000000000cd",
            "030000000109000000000000000100000000000000ef",
            "04000000050000000000000006000000000000000700000000000000080000000000000002000000000000000102",
            "05000000",
            "060000000c00000000000000010000000000000076050000000000000066726573680100000000000000010000000000000001000000000000006302000000000000000100000000000000010000000000000067030000000000000001000000000000000100000000000000680100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000",
            "07000000010000000000000002000000000000007b7d0400000000000000",
            "080000000600000000000000666f6c646564030000000000000067617304000000000000006120310a010000000000000001000000000000000000000000000000",
        ];
        for (body, want) in responses.into_iter().zip(want) {
            check(body, want);
        }
        let response = Response {
            trace_id: u64::MAX,
            body: ResponseBody::ShuttingDown,
        };
        check(response, "ffffffffffffffff05000000");
    }

    #[test]
    fn kind_and_metric_names_cover_every_request() {
        for (body, _) in pinned_requests() {
            assert!(!body.kind().is_empty());
            assert_eq!(body.metric(), format!("rpc.{}.ns", body.kind()));
        }
    }

    #[test]
    fn lenient_reader_reports_instead_of_raising() {
        // Clean EOF.
        let empty: &[u8] = &[];
        assert!(matches!(
            read_message_lenient::<Request>(&mut { empty }).unwrap(),
            ReadOutcome::Eof
        ));

        // A good message still decodes.
        let mut wire = Vec::new();
        write_message(
            &mut wire,
            &Request {
                trace_id: 5,
                body: RequestBody::Stat,
            },
        )
        .unwrap();
        let ReadOutcome::Msg(req) = read_message_lenient::<Request>(&mut wire.as_slice()).unwrap()
        else {
            panic!("want Msg");
        };
        assert_eq!(req.trace_id, 5);

        // Oversize: declared length above the cap is reported with the
        // payload drained, and a following frame is still readable.
        let declared = MAX_FRAME_LEN + 1;
        let mut wire = (declared).to_be_bytes().to_vec();
        wire.extend(std::iter::repeat(0u8).take(declared as usize));
        write_message(
            &mut wire,
            &Request {
                trace_id: 6,
                body: RequestBody::Verify,
            },
        )
        .unwrap();
        let mut cursor = wire.as_slice();
        let ReadOutcome::Oversize { declared: got } =
            read_message_lenient::<Request>(&mut cursor).unwrap()
        else {
            panic!("want Oversize");
        };
        assert_eq!(got, declared);
        let ReadOutcome::Msg(next) = read_message_lenient::<Request>(&mut cursor).unwrap() else {
            panic!("the stream must stay framed after the drain");
        };
        assert_eq!(next.trace_id, 6);

        // Undecodable payload: consumed and reported, not raised.
        let payload = [0xFFu8; 3];
        let mut wire = (payload.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&payload);
        assert!(matches!(
            read_message_lenient::<Request>(&mut wire.as_slice()).unwrap(),
            ReadOutcome::Undecodable(_)
        ));
    }

    #[test]
    fn clean_eof_is_none_and_torn_frame_is_error() {
        let empty: &[u8] = &[];
        assert!(read_message::<Request>(&mut { empty }).unwrap().is_none());

        let mut wire = Vec::new();
        write_message(
            &mut wire,
            &Request {
                trace_id: 1,
                body: RequestBody::Stat,
            },
        )
        .unwrap();
        wire.truncate(wire.len() - 1);
        let err = read_message::<Request>(&mut wire.as_slice()).unwrap_err();
        assert!(matches!(err, DaemonError::Io(_)), "{err}");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let wire = u32::MAX.to_be_bytes();
        let err = read_message::<Request>(&mut wire.as_slice()).unwrap_err();
        assert!(matches!(err, DaemonError::Protocol(_)), "{err}");
    }

    #[test]
    fn undecodable_payload_is_a_protocol_error() {
        // A well-framed payload that is not a valid Request encoding.
        let payload = [0xFFu8; 3];
        let mut wire = Vec::new();
        wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        wire.extend_from_slice(&payload);
        let err = read_message::<Request>(&mut wire.as_slice()).unwrap_err();
        assert!(matches!(err, DaemonError::Protocol(_)), "{err}");
    }
}
