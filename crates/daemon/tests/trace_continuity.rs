//! Cross-process trace continuity, end to end through the profiling
//! plane: a client opens its own root span, sends the daemon a request
//! carrying that span's trace id, and the daemon's adopted
//! `daemon.request` span must (a) graft under the client root in the
//! flamegraph fold and (b) land on the same Chrome-trace track
//! (`tid` = trace id) as the client span — one distributed trace, not
//! two disconnected ones.
//!
//! The test shares a single in-process telemetry handle between "client"
//! and daemon, which is exactly what the wire protocol reproduces across
//! real processes: the request's `trace_id` field is the only thing that
//! links the two sides, and it is the only thing this test relies on.

use slicer_core::Query;
use slicer_daemon::{Daemon, DaemonConfig, Request, RequestBody, ResponseBody};
use slicer_telemetry::{
    chrome_trace, Event, FanoutSink, LogicalClock, MemorySink, ProfileAggregator, ProfileMode,
    Sink, TelemetryHandle,
};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slicerd-trace-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn adopted_daemon_request_joins_the_client_trace() {
    let events = Arc::new(MemorySink::new());
    let profile = Arc::new(ProfileAggregator::new());
    let fanout = FanoutSink::new(vec![
        Arc::clone(&profile) as Arc<dyn Sink>,
        Arc::clone(&events) as Arc<dyn Sink>,
    ]);
    let telemetry = TelemetryHandle::with(Arc::new(LogicalClock::with_step(100)), Arc::new(fanout));

    let dir = temp_dir("adopt");
    let mut daemon = Daemon::open(
        &dir,
        DaemonConfig {
            seed: 11,
            value_bits: 8,
            ..DaemonConfig::default()
        },
        telemetry.clone(),
        Some(Arc::clone(&profile)),
        Some(Arc::clone(&events)),
    )
    .expect("fresh boot");

    // Plain request with no client-side trace: the daemon mints its own.
    let ingest = daemon.handle(&Request {
        trace_id: 0,
        body: RequestBody::Ingest {
            records: vec![(1, 10), (2, 20), (3, 30)],
        },
    });
    assert!(
        matches!(ingest.body, ResponseBody::Ingested { .. }),
        "ingest failed: {ingest:?}"
    );

    // The "CLI" side of the distributed trace: a client root span whose
    // trace id rides the request, exactly as DaemonClient sends it.
    let client_span = telemetry.span("cli.search");
    let ctx = client_span
        .ctx()
        .expect("recording handle yields a context");
    let client_trace = ctx.trace;
    let search = daemon.handle(&Request {
        trace_id: client_trace.0,
        body: RequestBody::Search {
            query: Query::less_than(25),
            payment: 1_000,
        },
    });
    match &search.body {
        ResponseBody::Found { verified, .. } => assert!(verified, "search must verify"),
        other => panic!("expected Found, got {other:?}"),
    }
    drop(client_span);

    // (a) Flamegraph continuity: the daemon's adopted request folds
    // *under* the client root — one stack, rooted at cli.search, with
    // the protocol's search span below the daemon dispatch frame.
    let folded = profile.snapshot().to_folded(ProfileMode::Wall);
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("cli.search;daemon.request;protocol.search")),
        "adopted request did not graft under the client root:\n{folded}"
    );
    // The plain ingest (trace_id 0) must NOT appear under the client.
    assert!(
        folded.lines().any(|l| l.starts_with("daemon.request;")),
        "daemon-minted ingest trace missing its own root:\n{folded}"
    );

    // (b) Chrome-trace continuity: client span and adopted daemon span
    // share the same track (tid = trace id) in the exported document.
    let recorded = events.events();
    let trace_of = |wanted: &str| -> Vec<u64> {
        recorded
            .iter()
            .filter_map(|e| match e {
                Event::SpanEnd { trace, name, .. } if name == wanted => Some(trace.0),
                _ => None,
            })
            .collect()
    };
    let client_traces = trace_of("cli.search");
    assert_eq!(client_traces, vec![client_trace.0]);
    let daemon_traces = trace_of("daemon.request");
    assert!(
        daemon_traces.contains(&client_trace.0),
        "no daemon.request span on the client trace: {daemon_traces:?}"
    );
    // And the two daemon requests really are on *different* tracks: the
    // ingest minted a fresh trace distinct from the client's.
    assert!(
        daemon_traces.iter().any(|t| *t != client_trace.0),
        "ingest unexpectedly joined the client trace: {daemon_traces:?}"
    );

    // The export itself stays a valid RFC 8259 document with both spans
    // on the shared tid.
    let doc = chrome_trace(&recorded);
    slicer_telemetry::json::parse(&doc).expect("chrome trace is valid JSON");
    let tid_marker = format!("\"tid\":{}", client_trace.0);
    let on_track = doc.matches(&tid_marker).count();
    assert!(
        on_track >= 2,
        "expected client + daemon spans on tid {}, found {on_track} in:\n{doc}",
        client_trace.0
    );

    let _ = std::fs::remove_dir_all(&dir);
}
