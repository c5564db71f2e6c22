//! # slicer-daemon
//!
//! `slicerd` — a long-lived serving daemon for one Slicer deployment —
//! plus the framed wire protocol it speaks and a blocking client.
//!
//! The paper's cloud server is a long-lived party; this crate makes it
//! one in practice. `slicerd` boots by restoring the last sealed
//! generation from a [`slicer_persist::SegmentStore`] (byte-identical
//! accumulator digest, no index rebuild — see `Daemon::open`), then
//! serves `ingest` / `search` / `verify` / `stat` over TCP or a
//! Unix-domain socket. Every ingest commits a new on-disk generation
//! before the daemon acknowledges, so a `kill -9` at any moment loses at
//! most the unacknowledged batch.
//!
//! Wire format (see [`proto`]): 4-byte big-endian length prefix, then a
//! [`slicer_crypto::codec`]-encoded [`Request`]/[`Response`]. Requests
//! carry a trace id the daemon adopts for its per-request root span, so
//! client and daemon telemetry stitch into one distributed trace.
//!
//! Binaries: `slicerd` (the daemon) and `slicer-cli` (the front-end).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod error;
mod flightrec;
mod net;
pub mod proto;
mod server;

pub use client::{DaemonClient, SearchReply};
pub use error::DaemonError;
pub use flightrec::{FlightRecord, FlightRecorder, FlightRecording, FLIGHTREC_FILE, IN_FLIGHT};
pub use net::{Endpoint, Listener, Meter, MeteredStream, Stream};
pub use proto::{
    MetricsReply, ProfileReply, ReadOutcome, Request, RequestBody, Response, ResponseBody,
    StatReply, WireHistogram, MAX_FRAME_LEN,
};
pub use server::{hex, instrumented_telemetry, Boot, Daemon, DaemonConfig, DEFAULT_EVENT_RING};
