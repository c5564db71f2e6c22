//! The telemetry handle threaded through the protocol actors, and the
//! span guard it hands out.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::clock::{Clock, MonotonicClock};
use crate::export::Snapshot;
use crate::log::{Level, LogRecord, LogSink};
use crate::metrics::Metrics;
use crate::sink::{Event, NullSink, Sink};
use crate::trace::{AttrValue, Attrs, SpanContext, SpanId, TraceId};

/// Mutable logging configuration of a handle: the minimum level and the
/// installed sinks. Behind an `RwLock` because sinks are installed after
/// construction (the daemon adds its `Tail` ring once it knows its
/// config) while records flow from many clones concurrently.
#[derive(Debug)]
struct LogState {
    level: Level,
    sinks: Vec<Arc<dyn LogSink>>,
}

#[derive(Debug)]
struct Inner {
    metrics: Metrics,
    clock: Arc<dyn Clock>,
    sink: Arc<dyn Sink>,
    log: RwLock<LogState>,
    /// Next trace/span id. Sequence-counter assignment (no wall clock,
    /// no randomness) keeps same-seed transcripts byte-identical.
    /// Starts at 1; id 0 means "no trace".
    ids: AtomicU64,
    /// Open spans, innermost last. New spans parent on the top entry,
    /// which makes nesting implicit for LIFO scope guards without
    /// growing every protocol signature by a context parameter.
    stack: Mutex<Vec<SpanContext>>,
}

/// A cheaply clonable telemetry context: a [`Metrics`] registry plus the
/// [`Clock`] and [`Sink`] every recording goes through.
///
/// The disabled handle is `None` behind the scenes, so a disabled
/// recording is a single branch on a niche-optimized pointer — cheap
/// enough to leave instrumentation unconditionally in protocol code.
/// Clones share the same registry, clock, sink, id sequence and span
/// stack.
#[derive(Debug, Clone, Default)]
pub struct TelemetryHandle {
    inner: Option<Arc<Inner>>,
}

impl TelemetryHandle {
    /// A no-op handle: every operation returns immediately, spans are
    /// inert, snapshots are empty. This is the default everywhere.
    pub fn disabled() -> Self {
        TelemetryHandle { inner: None }
    }

    /// A live handle with real wall-clock timing and no event stream —
    /// the usual choice for profiling runs.
    pub fn enabled() -> Self {
        Self::with(Arc::new(MonotonicClock::new()), Arc::new(NullSink))
    }

    /// A live handle with an explicit clock and sink — determinism tests
    /// pass a [`LogicalClock`](crate::LogicalClock) and a
    /// [`MemorySink`](crate::MemorySink) here.
    pub fn with(clock: Arc<dyn Clock>, sink: Arc<dyn Sink>) -> Self {
        TelemetryHandle {
            inner: Some(Arc::new(Inner {
                metrics: Metrics::new(),
                clock,
                sink,
                log: RwLock::new(LogState {
                    level: Level::Info,
                    sinks: Vec::new(),
                }),
                ids: AtomicU64::new(1),
                stack: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Adds `delta` to counter `name` and emits a
    /// [`Event::Counter`] to the sink.
    pub fn count(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.count(name, delta);
            inner.sink.record(Event::Counter {
                name: name.to_string(),
                delta,
            });
        }
    }

    /// Sets gauge `name` to `value` and emits a [`Event::Gauge`] to the
    /// sink.
    pub fn gauge(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.gauge(name, value);
            inner.sink.record(Event::Gauge {
                name: name.to_string(),
                value,
            });
        }
    }

    /// Records `nanos` into histogram `name`. No sink event: callers of
    /// this method time with externally measured (wall-clock) durations,
    /// which must not leak into deterministic sink transcripts — spans
    /// are the event-producing timing path.
    pub fn observe_ns(&self, name: &str, nanos: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.observe(name, nanos);
        }
    }

    /// Opens a span named `name`, parented on the innermost open span of
    /// this handle (a root span of a fresh trace otherwise). Emits an
    /// [`Event::SpanStart`]; when the returned guard drops, the clock
    /// delta lands in histogram `{name}.ns` and an [`Event::SpanEnd`]
    /// carrying the span's attributes goes to the sink.
    ///
    /// On a disabled handle the guard is inert and nothing — id, name,
    /// attribute — is allocated.
    pub fn span(&self, name: &str) -> Span {
        let Some(inner) = self.inner.as_ref() else {
            return Span::disabled();
        };
        let id = SpanId(inner.ids.fetch_add(1, Ordering::Relaxed));
        let (ctx, parent) = {
            let mut stack = inner.stack.lock().expect("span stack poisoned");
            let parent = stack.last().copied();
            let ctx = SpanContext {
                trace: parent.map_or(TraceId(id.0), |p| p.trace),
                span: id,
            };
            stack.push(ctx);
            (ctx, parent)
        };
        let start_ns = inner.clock.now_nanos();
        inner.sink.record(Event::SpanStart {
            trace: ctx.trace,
            span: ctx.span,
            parent: parent.map(|p| p.span),
            name: name.to_string(),
            start_ns,
        });
        Span {
            inner: Some(SpanInner {
                handle: Arc::clone(inner),
                name: name.to_string(),
                start_ns,
                ctx,
                parent: parent.map(|p| p.span),
                attrs: Vec::new(),
            }),
        }
    }

    /// Opens a *root* span that adopts an externally supplied trace id
    /// instead of minting one — remote trace propagation: a daemon opens
    /// its per-request span with the trace id carried in the request
    /// envelope, so client- and server-side spans correlate into one
    /// trace. A zero trace id (the "no trace" sentinel) falls back to a
    /// fresh trace named by the span's own id, exactly like
    /// [`TelemetryHandle::span`] on an empty stack.
    ///
    /// Unlike [`TelemetryHandle::span`], the innermost open span is *not*
    /// used as parent: the remote caller is the logical parent, and its
    /// spans live in another process.
    pub fn span_in_trace(&self, name: &str, trace: TraceId) -> Span {
        let Some(inner) = self.inner.as_ref() else {
            return Span::disabled();
        };
        let id = SpanId(inner.ids.fetch_add(1, Ordering::Relaxed));
        let ctx = SpanContext {
            trace: if trace.0 == 0 { TraceId(id.0) } else { trace },
            span: id,
        };
        {
            let mut stack = inner.stack.lock().expect("span stack poisoned");
            stack.push(ctx);
        }
        let start_ns = inner.clock.now_nanos();
        inner.sink.record(Event::SpanStart {
            trace: ctx.trace,
            span: ctx.span,
            parent: None,
            name: name.to_string(),
            start_ns,
        });
        Span {
            inner: Some(SpanInner {
                handle: Arc::clone(inner),
                name: name.to_string(),
                start_ns,
                ctx,
                parent: None,
                attrs: Vec::new(),
            }),
        }
    }

    /// The innermost open span's context, if any.
    #[cfg(test)]
    fn current_span(&self) -> Option<SpanContext> {
        let inner = self.inner.as_ref()?;
        let stack = inner.stack.lock().expect("span stack poisoned");
        stack.last().copied()
    }

    /// The handle's clock, for callers that want protocol-side timing on
    /// the same timeline as the spans (and therefore deterministic under
    /// a [`LogicalClock`](crate::LogicalClock)). `None` when disabled.
    pub fn clock(&self) -> Option<Arc<dyn Clock>> {
        self.inner.as_ref().map(|i| Arc::clone(&i.clock))
    }

    /// The current clock reading, or 0 on a disabled handle.
    pub fn now_nanos(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_nanos())
    }

    /// A point-in-time copy of the registry (empty when disabled).
    pub fn snapshot(&self) -> Snapshot {
        self.inner
            .as_ref()
            .map_or_else(Snapshot::default, |i| Snapshot::of(&i.metrics))
    }

    /// Current value of counter `name`, if recorded.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.inner.as_ref()?.metrics.counter_value(name)
    }

    /// Installs a structured-log sink. Records at or above the current
    /// level fan out to every installed sink in installation order.
    pub fn add_log_sink(&self, sink: Arc<dyn LogSink>) {
        if let Some(inner) = &self.inner {
            match inner.log.write() {
                Ok(mut state) => state.sinks.push(sink),
                Err(poisoned) => poisoned.into_inner().sinks.push(sink),
            }
        }
    }

    /// Sets the minimum level a record needs to reach the sinks.
    /// Defaults to [`Level::Info`].
    pub fn set_log_level(&self, level: Level) {
        if let Some(inner) = &self.inner {
            match inner.log.write() {
                Ok(mut state) => state.level = level,
                Err(poisoned) => poisoned.into_inner().level = level,
            }
        }
    }

    /// Whether a record at `level` would reach at least one sink. Guard
    /// expensive message/field construction on this.
    #[cfg(test)]
    fn log_enabled(&self, level: Level) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        let state = match inner.log.read() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        };
        level >= state.level && !state.sinks.is_empty()
    }

    /// Emits a structured log record: timestamped on the handle's
    /// [`Clock`] (deterministic under a
    /// [`LogicalClock`](crate::LogicalClock)), leveled, targeted at a
    /// subsystem, with ordered `'static`-keyed fields. Dropped without
    /// reading the clock when disabled, below the level, or sink-less,
    /// so filtered logging cannot perturb a logical-clock timeline.
    pub fn log(
        &self,
        level: Level,
        target: &'static str,
        message: impl Into<String>,
        fields: Attrs,
    ) {
        let Some(inner) = &self.inner else {
            return;
        };
        let state = match inner.log.read() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        };
        if level < state.level || state.sinks.is_empty() {
            return;
        }
        let record = LogRecord {
            ts_ns: inner.clock.now_nanos(),
            level,
            target,
            message: message.into(),
            fields,
        };
        for sink in &state.sinks {
            sink.log(&record);
        }
    }
}

#[derive(Debug)]
struct SpanInner {
    handle: Arc<Inner>,
    name: String,
    start_ns: u64,
    ctx: SpanContext,
    parent: Option<SpanId>,
    attrs: Attrs,
}

/// Drop guard returned by [`TelemetryHandle::span`]. Records the elapsed
/// clock delta when dropped.
#[derive(Debug)]
#[must_use = "a span measures until it is dropped; binding it to _ drops it immediately"]
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// An inert span, identical to one from a disabled handle.
    pub(crate) const fn disabled() -> Self {
        Span { inner: None }
    }

    /// Whether this span reaches a sink. Guard expensive attribute
    /// construction (hex encoding, hashing) on this.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// The span's trace/span identity, or `None` when inert.
    pub fn ctx(&self) -> Option<SpanContext> {
        self.inner.as_ref().map(|s| s.ctx)
    }

    /// Attaches a structured attribute, carried on the
    /// [`Event::SpanEnd`]. No-op (and no allocation — conversion happens
    /// inside the branch) on an inert span.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(s) = self.inner.as_mut() {
            s.attrs.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(mut span) = self.inner.take() {
            let end = span.handle.clock.now_nanos();
            let duration_ns = end.saturating_sub(span.start_ns);
            let mut hist = String::with_capacity(span.name.len() + 3);
            hist.push_str(&span.name);
            hist.push_str(".ns");
            span.handle.metrics.observe(&hist, duration_ns);
            {
                let mut stack = span.handle.stack.lock().expect("span stack poisoned");
                // Remove our own entry (not blindly the top): a guard
                // dropped out of LIFO order must not unwind someone
                // else's parent context.
                if let Some(pos) = stack.iter().rposition(|c| c.span == span.ctx.span) {
                    stack.remove(pos);
                }
            }
            span.handle.sink.record(Event::SpanEnd {
                trace: span.ctx.trace,
                span: span.ctx.span,
                parent: span.parent,
                name: std::mem::take(&mut span.name),
                start_ns: span.start_ns,
                duration_ns,
                attrs: std::mem::take(&mut span.attrs),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LogicalClock;
    use crate::sink::MemorySink;

    #[test]
    fn disabled_handle_is_inert() {
        let t = TelemetryHandle::disabled();
        t.count("a", 1);
        t.gauge("b", 2);
        t.observe_ns("c", 3);
        let mut s = t.span("d");
        assert!(!s.is_recording());
        assert_eq!(s.ctx(), None);
        s.attr("k", 1u64);
        drop(s);
        assert_eq!(t.current_span(), None);
        assert!(t.clock().is_none());
        assert_eq!(t.snapshot(), Snapshot::default());
        assert_eq!(t.counter_value("a"), None);
    }

    #[test]
    fn span_records_clock_delta() {
        let sink = Arc::new(MemorySink::new());
        let t = TelemetryHandle::with(Arc::new(LogicalClock::with_step(10)), sink.clone() as _);
        let mut s = t.span("work");
        s.attr("items", 3u64);
        drop(s);
        let snap = t.snapshot();
        let h = snap.histogram("work.ns").unwrap();
        assert_eq!(h.count, 1);
        // LogicalClock: open reads 0, close reads 10 → duration 10.
        assert_eq!(h.sum, 10);
        let events = sink.events();
        assert_eq!(
            events,
            vec![
                Event::SpanStart {
                    trace: TraceId(1),
                    span: SpanId(1),
                    parent: None,
                    name: "work".into(),
                    start_ns: 0,
                },
                Event::SpanEnd {
                    trace: TraceId(1),
                    span: SpanId(1),
                    parent: None,
                    name: "work".into(),
                    start_ns: 0,
                    duration_ns: 10,
                    attrs: vec![("items", AttrValue::U64(3))],
                }
            ]
        );
    }

    #[test]
    fn spans_nest_and_ids_are_sequential() {
        let sink = Arc::new(MemorySink::new());
        let t = TelemetryHandle::with(Arc::new(LogicalClock::new()), sink.clone() as _);
        let outer = t.span("outer");
        let outer_ctx = outer.ctx().unwrap();
        assert_eq!(outer_ctx.trace, TraceId(1));
        assert_eq!(outer_ctx.span, SpanId(1));
        assert_eq!(t.current_span(), Some(outer_ctx));
        {
            let inner = t.span("inner");
            let inner_ctx = inner.ctx().unwrap();
            assert_eq!(inner_ctx.trace, TraceId(1), "child shares the trace");
            assert_eq!(inner_ctx.span, SpanId(2));
            assert_eq!(t.current_span(), Some(inner_ctx));
        }
        assert_eq!(t.current_span(), Some(outer_ctx));
        drop(outer);
        // A fresh root starts a fresh trace named by its own span id.
        let next = t.span("next");
        assert_eq!(
            next.ctx().unwrap(),
            SpanContext {
                trace: TraceId(3),
                span: SpanId(3)
            }
        );
        drop(next);
        let parents: Vec<Option<SpanId>> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::SpanEnd { parent, .. } => Some(*parent),
                _ => None,
            })
            .collect();
        assert_eq!(parents, vec![Some(SpanId(1)), None, None]);
    }

    #[test]
    fn out_of_order_drop_unwinds_only_itself() {
        let t = TelemetryHandle::enabled();
        let a = t.span("a");
        let b = t.span("b");
        let a_ctx = a.ctx().unwrap();
        drop(a); // dropped before its child closes
        assert_eq!(t.current_span(), Some(b.ctx().unwrap()));
        drop(b);
        assert_eq!(t.current_span(), None);
        assert_ne!(a_ctx.span, SpanId(0));
    }

    #[test]
    fn span_in_trace_adopts_remote_trace_id() {
        let sink = Arc::new(MemorySink::new());
        let t = TelemetryHandle::with(Arc::new(LogicalClock::new()), sink.clone() as _);
        let remote = TraceId(777);
        let s = t.span_in_trace("daemon.request", remote);
        let ctx = s.ctx().unwrap();
        assert_eq!(ctx.trace, remote);
        // Children nest under it and inherit the remote trace.
        let child = t.span("inner");
        assert_eq!(child.ctx().unwrap().trace, remote);
        drop(child);
        drop(s);
        // Zero is the "no trace" sentinel: fall back to a fresh trace.
        let fallback = t.span_in_trace("daemon.request", TraceId(0));
        let f = fallback.ctx().unwrap();
        assert_eq!(f.trace.0, f.span.0);
        drop(fallback);
    }

    #[test]
    fn counters_reach_registry_and_sink() {
        let sink = Arc::new(MemorySink::new());
        let t = TelemetryHandle::with(Arc::new(LogicalClock::new()), sink.clone() as _);
        t.count("hits", 2);
        t.count("hits", 3);
        t.gauge("size", 7);
        assert_eq!(t.counter_value("hits"), Some(5));
        assert_eq!(t.snapshot().gauge("size"), Some(7));
        assert_eq!(sink.len(), 3);
    }

    #[test]
    fn clones_share_one_registry_and_id_sequence() {
        let t = TelemetryHandle::enabled();
        let u = t.clone();
        t.count("shared", 1);
        u.count("shared", 1);
        assert_eq!(t.counter_value("shared"), Some(2));
        let outer = t.span("outer");
        let inner = u.span("inner");
        assert_eq!(
            inner.ctx().unwrap().trace,
            outer.ctx().unwrap().trace,
            "clones share the span stack, so nesting crosses clones"
        );
        drop(inner);
        drop(outer);
    }

    #[test]
    fn log_records_are_leveled_filtered_and_clock_stamped() {
        use crate::log::MemoryLogSink;

        let ring = Arc::new(MemoryLogSink::new());
        let t = TelemetryHandle::with(Arc::new(LogicalClock::with_step(10)), Arc::new(NullSink));
        // No sink installed yet: dropped, and the clock is not read.
        t.log(Level::Info, "t", "before sinks", vec![]);
        assert!(!t.log_enabled(Level::Error));
        t.add_log_sink(ring.clone() as _);
        assert!(t.log_enabled(Level::Info));
        assert!(!t.log_enabled(Level::Debug), "default level is info");

        t.log(Level::Debug, "t", "filtered", vec![]);
        t.log(Level::Info, "t", "first", vec![("n", AttrValue::U64(1))]);
        t.log(Level::Warn, "t", "second", vec![]);
        let records = ring.records();
        assert_eq!(records.len(), 2);
        // Filtered/sink-less calls never read the clock: the first real
        // record gets the first reading.
        assert_eq!(records[0].ts_ns, 0);
        assert_eq!(records[1].ts_ns, 10);
        assert_eq!(records[0].message, "first");
        assert_eq!(records[0].fields, vec![("n", AttrValue::U64(1))]);

        t.set_log_level(Level::Error);
        t.log(Level::Warn, "t", "now filtered", vec![]);
        assert_eq!(ring.len(), 2);
        t.set_log_level(Level::Debug);
        assert!(t.log_enabled(Level::Debug));

        // Disabled handles stay inert.
        let d = TelemetryHandle::disabled();
        d.add_log_sink(ring.clone() as _);
        d.log(Level::Error, "t", "nope", vec![]);
        assert!(!d.log_enabled(Level::Error));
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn log_sinks_are_shared_across_clones() {
        use crate::log::MemoryLogSink;

        let ring = Arc::new(MemoryLogSink::new());
        let t = TelemetryHandle::enabled();
        let u = t.clone();
        t.add_log_sink(ring.clone() as _);
        u.log(Level::Info, "t", "via clone", vec![]);
        assert_eq!(ring.len(), 1, "clone shares the installed sinks");
    }

    #[test]
    fn logical_clock_transcripts_are_byte_identical() {
        let run = || {
            let sink = Arc::new(MemorySink::new());
            let t = TelemetryHandle::with(Arc::new(LogicalClock::new()), sink.clone() as _);
            {
                let mut outer = t.span("outer");
                outer.attr("round", 1u64);
                drop(t.span("inner"));
                t.count("steps", 1);
            }
            sink.transcript()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(!a.is_empty());
        assert!(a.contains("\"type\":\"span_start\""));
        assert!(a.contains("\"attrs\":{\"round\":1}"));
    }
}
