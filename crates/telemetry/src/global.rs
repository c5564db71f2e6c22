//! Process-global telemetry facade for leaf crates.
//!
//! The protocol actors (`DataOwner`, `CloudServer`, …) carry an injected
//! [`TelemetryHandle`], but the leaf crates expose pure functions
//! (SORE tuple generation, index lookups, witness-cache access) whose
//! signatures should not grow a telemetry parameter. Those call sites use
//! this facade instead: a process-wide handle installed by whoever owns
//! the run (e.g. the `repro` telemetry experiment), guarded by one relaxed
//! atomic load so the disabled path costs a predictable branch.
//!
//! The global handle is process state: parallel tests that install
//! different handles would observe each other. Tests that assert on
//! global counters should therefore install a fresh handle, read it, and
//! [`reset`] within one test function.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;

use crate::handle::TelemetryHandle;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: RwLock<TelemetryHandle> = RwLock::new(TelemetryHandle::const_disabled());

/// Installs `handle` as the process-global telemetry context.
pub fn set(handle: TelemetryHandle) {
    let enabled = handle.is_enabled();
    *GLOBAL.write().expect("global telemetry lock poisoned") = handle;
    ENABLED.store(enabled, Ordering::Release);
}

/// Replaces the global handle with a disabled one.
pub fn reset() {
    set(TelemetryHandle::disabled());
}

/// Whether a live handle is installed. One relaxed atomic load — the
/// fast path every facade call guards on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// A clone of the current global handle (disabled if none installed).
pub fn handle() -> TelemetryHandle {
    GLOBAL
        .read()
        .expect("global telemetry lock poisoned")
        .clone()
}

/// Adds `delta` to counter `name` on the global handle, if enabled.
pub fn count(name: &str, delta: u64) {
    if enabled() {
        GLOBAL
            .read()
            .expect("global telemetry lock poisoned")
            .count(name, delta);
    }
}

/// Sets gauge `name` to `value` on the global handle, if enabled.
pub fn gauge(name: &str, value: u64) {
    if enabled() {
        GLOBAL
            .read()
            .expect("global telemetry lock poisoned")
            .gauge(name, value);
    }
}

/// Opens a span on the global handle, if enabled; an inert guard
/// otherwise. The span parents on the global handle's innermost open
/// span, so leaf-crate work (chain transactions, witness batches) nests
/// under the protocol phase that caused it when the orchestrator
/// installed its own handle globally.
pub fn span(name: &str) -> crate::Span {
    if enabled() {
        GLOBAL
            .read()
            .expect("global telemetry lock poisoned")
            .span(name)
    } else {
        crate::Span::disabled()
    }
}

/// Emits a structured log record through the global handle, if enabled.
/// Same semantics as [`TelemetryHandle::log`]: level-filtered, dropped
/// when no log sink is installed.
pub fn log(
    level: crate::Level,
    target: &'static str,
    message: impl Into<String>,
    fields: crate::Attrs,
) {
    if enabled() {
        GLOBAL
            .read()
            .expect("global telemetry lock poisoned")
            .log(level, target, message, fields);
    }
}

/// Records `nanos` into histogram `name` on the global handle, if
/// enabled.
pub fn observe_ns(name: &str, nanos: u64) {
    if enabled() {
        GLOBAL
            .read()
            .expect("global telemetry lock poisoned")
            .observe_ns(name, nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test function: the global handle is process state, and cargo
    // runs tests in this binary concurrently.
    #[test]
    fn facade_lifecycle() {
        assert!(!enabled());
        count("early", 1); // dropped: nothing installed
        let inert = span("leaf.early");
        assert!(!inert.is_recording());
        drop(inert);

        let t = TelemetryHandle::enabled();
        set(t.clone());
        assert!(enabled());
        {
            let mut s = span("leaf.op");
            assert!(s.is_recording());
            s.attr("n", 1u64);
        }
        assert_eq!(t.snapshot().histogram("leaf.op.ns").unwrap().count, 1);
        count("leaf.hits", 2);
        count("leaf.hits", 3);
        gauge("leaf.size", 9);
        observe_ns("leaf.latency", 40);
        let ring = std::sync::Arc::new(crate::MemoryLogSink::new());
        t.add_log_sink(ring.clone() as _);
        log(crate::Level::Info, "leaf", "through facade", vec![]);
        assert_eq!(ring.len(), 1);
        assert_eq!(t.counter_value("leaf.hits"), Some(5));
        assert_eq!(t.snapshot().gauge("leaf.size"), Some(9));
        assert_eq!(t.snapshot().histogram("leaf.latency").unwrap().count, 1);
        assert_eq!(t.counter_value("early"), None);
        assert!(handle().is_enabled());

        reset();
        assert!(!enabled());
        count("leaf.hits", 100);
        assert_eq!(t.counter_value("leaf.hits"), Some(5), "post-reset drop");
    }
}
