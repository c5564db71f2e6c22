//! # slicer-telemetry
//!
//! Zero-dependency tracing, metrics and protocol-phase profiling for the
//! Slicer pipeline. The paper's evaluation is entirely quantitative (SORE
//! token cost, search latency vs. record count, per-operation gas), so the
//! reproduction needs a way to observe where time and gas go inside a
//! live run — this crate is that observability layer.
//!
//! Design constraints, in order:
//!
//! 1. **Hermetic** — std only, matching the workspace's zero-registry
//!    dependency policy.
//! 2. **Deterministic when asked** — the [`Clock`] behind span timing is
//!    injectable, so determinism tests drive a [`LogicalClock`] and
//!    same-seed telemetry transcripts are byte-identical. Telemetry never
//!    feeds back into protocol state, so enabling it cannot perturb
//!    protocol transcripts either.
//! 3. **Free when disabled** — [`TelemetryHandle::disabled`] is an
//!    `Option::None` behind the scenes: every operation is a branch on a
//!    niche-optimized pointer.
//! 4. **Injected, never ambient** — there is no process-global handle.
//!    Whoever owns a component installs the handle it reports through
//!    (`set_telemetry` on the actors, the pool, the segment store and
//!    the chain; a `&TelemetryHandle` argument on the batch prover), so
//!    two deployments in one process never see each other's recordings.
//!
//! # Architecture
//!
//! * [`Metrics`] — a registry of named counters, gauges and fixed-bucket
//!   latency histograms (power-of-two buckets, p50/p90/p99 summaries).
//! * [`TelemetryHandle`] — a cheaply clonable handle bundling a registry,
//!   a [`Clock`] and a [`Sink`]; [`TelemetryHandle::span`] returns a guard
//!   that records a latency observation when dropped.
//! * [`Sink`] — a pluggable event stream: [`MemorySink`] for tests,
//!   [`ProfileAggregator`] for a live flamegraph fold, [`NullSink`] when
//!   only the aggregated registry matters.
//! * Structured logs — [`TelemetryHandle::log`] emits leveled
//!   [`LogRecord`]s (same `'static`-keyed [`AttrValue`] fields as span
//!   attributes, timestamped on the handle's clock) to pluggable
//!   [`LogSink`]s: the ring-buffered [`MemoryLogSink`] for tests and the
//!   daemon's `Tail`/flight-recorder surface, [`WriterLogSink`] for
//!   stderr in text or JSON-lines form.
//! * [`Snapshot`] — a point-in-time copy of the registry, exportable as
//!   Prometheus text ([`Snapshot::to_prometheus_text`]) or JSON
//!   ([`Snapshot::to_json`]).
//! * Causal traces — every live span carries a [`SpanContext`]
//!   ([`TraceId`] + [`SpanId`], sequence-counter assigned so same-seed
//!   transcripts stay byte-identical) and parents implicitly on the
//!   innermost open span; [`Span::attr`] attaches structured key/value
//!   attributes, and [`chrome_trace`] renders a [`MemorySink`] event
//!   stream as a `chrome://tracing` / Perfetto document.
//!
//! # Examples
//!
//! ```
//! use slicer_telemetry::TelemetryHandle;
//!
//! let telemetry = TelemetryHandle::enabled();
//! {
//!     let _span = telemetry.span("sore.encrypt");
//!     // ... work ...
//! }
//! telemetry.count("sore.ciphertexts", 1);
//! let snap = telemetry.snapshot();
//! assert_eq!(snap.counter("sore.ciphertexts"), Some(1));
//! assert!(snap.to_json().contains("sore.encrypt"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod export;
mod handle;
pub mod json;
mod log;
mod metrics;
mod profile;
mod sink;
mod trace;

pub use clock::{Clock, LogicalClock, MonotonicClock};
pub use export::{HistogramSummary, Snapshot};
pub use handle::{Span, TelemetryHandle};
pub use log::{
    Level, LogFormat, LogRecord, LogSink, MemoryLogSink, WriterLogSink, DEFAULT_LOG_RING,
};
pub use metrics::{Histogram, Metrics, HISTOGRAM_BUCKETS};
pub use profile::{
    fold_events, Profile, ProfileAggregator, ProfileEntry, ProfileMode, DEFAULT_MAX_STACKS,
    GAS_ATTR,
};
pub use sink::{Event, MemorySink, NullSink, Sink};
pub use trace::{chrome_trace, AttrValue, Attrs, SpanContext, SpanId, TraceId};
