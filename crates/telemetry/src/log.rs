//! Structured, leveled logging: the "what happened, in words" half of
//! the operations plane.
//!
//! Metrics aggregate and spans trace, but an operator tailing a daemon
//! needs discrete, human-meaningful records: "slow request", "connection
//! dropped", "restored generation 7". A [`LogRecord`] is that unit —
//! leveled, targeted at a subsystem, carrying the same `&'static
//! str`-keyed [`AttrValue`] fields spans use, and timestamped through
//! the handle's injectable [`Clock`](crate::Clock) so a
//! [`LogicalClock`](crate::LogicalClock) run produces byte-identical
//! log transcripts.
//!
//! Two encoders ship with the record: [`LogRecord::to_json_line`]
//! (RFC 8259-valid JSON lines, validated by [`crate::json::parse`] in
//! tests) for machines, and [`LogRecord::to_text`] for humans. Sinks are
//! pluggable: [`MemoryLogSink`] is a fixed-capacity ring for tests and
//! for the daemon's `Tail` endpoint / crash flight recorder;
//! [`WriterLogSink`] streams to stderr (or any writer) in either
//! encoding.

use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json;
use crate::trace::{write_attrs_json, Attrs};

/// Severity of a [`LogRecord`]. Orders naturally: `Debug < Info < Warn <
/// Error`, so a minimum-level filter is one comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Diagnostic detail, off by default.
    Debug,
    /// Normal operational events (boot, commit, shutdown).
    Info,
    /// Degraded-but-serving conditions (slow request, retried I/O).
    Warn,
    /// Failures worth paging over (corrupt frame, serve-loop error).
    Error,
}

impl Level {
    /// Lowercase name, as used in the JSON encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a level name (case-insensitive), for CLI flags.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Clock reading when the record was made (the handle's [`Clock`](crate::Clock)
    /// timeline — deterministic under a `LogicalClock`).
    pub ts_ns: u64,
    /// Severity.
    pub level: Level,
    /// Emitting subsystem, e.g. `"slicerd.rpc"`. `'static` so the
    /// disabled path never allocates for it.
    pub target: &'static str,
    /// Human-readable event description.
    pub message: String,
    /// Structured fields, in insertion order — same shape as span
    /// attributes.
    pub fields: Attrs,
}

impl LogRecord {
    /// The record as one RFC 8259-valid JSON object (no trailing
    /// newline): `{"ts_ns":..,"level":"..","target":"..","msg":"..",
    /// "fields":{..}}`.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(64 + self.message.len());
        s.push_str("{\"ts_ns\":");
        s.push_str(&self.ts_ns.to_string());
        s.push_str(",\"level\":\"");
        s.push_str(self.level.as_str());
        s.push_str("\",\"target\":");
        json::write_string(&mut s, self.target);
        s.push_str(",\"msg\":");
        json::write_string(&mut s, &self.message);
        s.push_str(",\"fields\":");
        write_attrs_json(&mut s, &self.fields);
        s.push('}');
        s
    }

    /// The record as one human-readable line (no trailing newline):
    /// `[         123ns] WARN  slicerd.rpc: slow request rpc.kind=search`.
    pub fn to_text(&self) -> String {
        let mut s = format!(
            "[{:>12}ns] {:<5} {}: {}",
            self.ts_ns,
            self.level.as_str().to_ascii_uppercase(),
            self.target,
            self.message
        );
        for (k, v) in &self.fields {
            s.push(' ');
            s.push_str(k);
            s.push('=');
            v.write_json(&mut s);
        }
        s
    }
}

/// Receives log records from a [`TelemetryHandle`](crate::TelemetryHandle).
pub trait LogSink: Send + Sync + fmt::Debug {
    /// Called once per record that passes the level filter, in program
    /// order.
    fn log(&self, record: &LogRecord);
}

/// A fixed-capacity ring of the most recent records.
///
/// This is the test sink, the backing store of the daemon's `Tail`
/// endpoint, and the log half of the crash flight recorder: bounded
/// memory, newest-wins, cheap to snapshot.
#[derive(Debug)]
pub struct MemoryLogSink {
    capacity: usize,
    ring: Mutex<VecDeque<LogRecord>>,
    /// Records evicted to make room (total - retained).
    dropped: AtomicU64,
}

/// Default ring capacity: enough context for a post-mortem without
/// unbounded growth.
pub const DEFAULT_LOG_RING: usize = 256;

impl Default for MemoryLogSink {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_LOG_RING)
    }
}

impl MemoryLogSink {
    /// A ring retaining the last [`DEFAULT_LOG_RING`] records.
    pub fn new() -> Self {
        Self::default()
    }

    /// A ring retaining the last `capacity` records (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        MemoryLogSink {
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, VecDeque<LogRecord>> {
        // Telemetry must never take the process down — recover from a
        // panicked writer instead of propagating the poison.
        match self.ring.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// A copy of every retained record, oldest first.
    pub fn records(&self) -> Vec<LogRecord> {
        self.locked().iter().cloned().collect()
    }

    /// The last `n` retained records, oldest first.
    pub fn tail(&self, n: usize) -> Vec<LogRecord> {
        let ring = self.locked();
        ring.iter()
            .skip(ring.len().saturating_sub(n))
            .cloned()
            .collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.locked().len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Every retained record as JSON lines — the canonical byte string
    /// determinism tests compare.
    pub fn transcript(&self) -> String {
        let mut out = String::new();
        for r in self.locked().iter() {
            out.push_str(&r.to_json_line());
            out.push('\n');
        }
        out
    }
}

impl LogSink for MemoryLogSink {
    fn log(&self, record: &LogRecord) {
        let mut ring = self.locked();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record.clone());
    }
}

/// How a [`WriterLogSink`] encodes records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// One [`LogRecord::to_text`] line per record.
    Text,
    /// One [`LogRecord::to_json_line`] object per record.
    JsonLines,
}

/// Streams records to a writer, one line each.
pub struct WriterLogSink<W: Write + Send> {
    writer: Mutex<W>,
    format: LogFormat,
}

impl<W: Write + Send> WriterLogSink<W> {
    /// Wraps `writer` with the given encoding.
    pub fn new(writer: W, format: LogFormat) -> Self {
        WriterLogSink {
            writer: Mutex::new(writer),
            format,
        }
    }
}

impl WriterLogSink<std::io::Stderr> {
    /// Human-readable lines to stderr — the daemon's default.
    pub fn stderr_text() -> Self {
        Self::new(std::io::stderr(), LogFormat::Text)
    }

    /// JSON lines to stderr, for log shippers.
    pub fn stderr_json() -> Self {
        Self::new(std::io::stderr(), LogFormat::JsonLines)
    }
}

impl<W: Write + Send> fmt::Debug for WriterLogSink<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WriterLogSink")
            .field("format", &self.format)
            .finish_non_exhaustive()
    }
}

impl<W: Write + Send> LogSink for WriterLogSink<W> {
    fn log(&self, record: &LogRecord) {
        let line = match self.format {
            LogFormat::Text => record.to_text(),
            LogFormat::JsonLines => record.to_json_line(),
        };
        let mut w = match self.writer.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        // Logging must never take the process down: ignore I/O errors.
        let _ = writeln!(w, "{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::AttrValue;

    fn rec(ts: u64, level: Level, msg: &str) -> LogRecord {
        LogRecord {
            ts_ns: ts,
            level,
            target: "test.target",
            message: msg.to_string(),
            fields: vec![
                ("count", AttrValue::U64(3)),
                ("name", AttrValue::Str("a\"b".into())),
                ("ok", AttrValue::Bool(true)),
            ],
        }
    }

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Debug < Level::Info);
        assert!(Level::Info < Level::Warn);
        assert!(Level::Warn < Level::Error);
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("info"), Some(Level::Info));
        assert_eq!(Level::parse("nope"), None);
        assert_eq!(Level::Error.to_string(), "error");
    }

    #[test]
    fn json_line_is_valid_and_escaped() {
        let line = rec(42, Level::Warn, "bad \"thing\"\nhappened").to_json_line();
        json::parse(&line).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{line}"));
        assert!(line.contains("\"ts_ns\":42"));
        assert!(line.contains("\"level\":\"warn\""));
        assert!(line.contains("\\\"thing\\\""));
        assert!(line.contains("\\n"));
        assert!(line.contains("\"fields\":{\"count\":3,"));
        assert!(line.contains("a\\\"b"), "field strings must be escaped");
    }

    #[test]
    fn text_line_is_readable() {
        let line = rec(1500, Level::Info, "committed").to_text();
        assert!(line.contains("INFO"));
        assert!(line.contains("test.target: committed"));
        assert!(line.contains("count=3"));
        assert!(line.contains("ok=true"));
    }

    #[test]
    fn memory_ring_evicts_oldest() {
        let sink = MemoryLogSink::with_capacity(3);
        for i in 0..5u64 {
            sink.log(&rec(i, Level::Info, &format!("m{i}")));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        let kept: Vec<u64> = sink.records().iter().map(|r| r.ts_ns).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        let tail: Vec<u64> = sink.tail(2).iter().map(|r| r.ts_ns).collect();
        assert_eq!(tail, vec![3, 4]);
        assert_eq!(sink.tail(99).len(), 3);
        assert!(!sink.is_empty());
    }

    #[test]
    fn transcript_is_json_lines() {
        let sink = MemoryLogSink::new();
        sink.log(&rec(1, Level::Info, "a"));
        sink.log(&rec(2, Level::Error, "b"));
        let t = sink.transcript();
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            json::parse(line).unwrap_or_else(|e| panic!("invalid JSON line: {e}\n{line}"));
        }
    }

    #[test]
    fn writer_sink_writes_both_formats() {
        for (format, needle) in [
            (LogFormat::Text, "INFO"),
            (LogFormat::JsonLines, "\"level\":\"info\""),
        ] {
            let sink = WriterLogSink::new(Vec::new(), format);
            sink.log(&rec(7, Level::Info, "x"));
            let buf = match sink.writer.into_inner() {
                Ok(b) => b,
                Err(p) => p.into_inner(),
            };
            let text = String::from_utf8(buf).expect("utf8");
            assert!(text.contains(needle), "{format:?}: {text}");
            assert!(text.ends_with('\n'));
        }
    }
}
