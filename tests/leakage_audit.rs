//! The leakage audit closes the Theorem 2 loop at runtime: an
//! instrumented run's trace transcript, read through span attributes
//! alone, must reveal exactly the declared `L^build`/`L^search`/`L^repeat`
//! profiles — nothing more, nothing less. These tests run the honest
//! protocol end-to-end against the auditor, then tamper with the
//! transcript to prove the auditor actually rejects over-leaky traces.

use slicer_chain::Blockchain;
use slicer_core::{
    LeakageAuditor, LeakageViolation, Query, RecordId, SlicerConfig, SlicerInstance,
};
use slicer_telemetry::{
    chrome_trace, json, AttrValue, Event, LogicalClock, MemorySink, SpanId, TelemetryHandle,
};
use std::sync::Arc;

fn db(n: u64) -> Vec<(RecordId, u64)> {
    (0..n)
        .map(|i| (RecordId::from_u64(i), (i * 37 + 11) % 256))
        .collect()
}

/// A full instrumented lifecycle: build, insert, three searches (one a
/// byte-identical repeat, exercising `L^repeat`).
fn instrumented_run() -> (SlicerInstance, Vec<Event>) {
    let sink = Arc::new(MemorySink::new());
    let handle = TelemetryHandle::with(Arc::new(LogicalClock::default()), sink.clone() as _);
    let mut chain = Blockchain::new();
    let mut inst =
        SlicerInstance::try_setup_with(SlicerConfig::test_8bit(), 0xA0D17, &mut chain, handle)
            .unwrap();
    inst.build(&mut chain, &db(24)).expect("in-domain build");
    inst.insert(
        &mut chain,
        &[(RecordId::from_u64(500), 42), (RecordId::from_u64(501), 7)],
    )
    .expect("in-domain insert");
    for q in [Query::less_than(100), Query::equal(42), Query::equal(42)] {
        inst.search(&mut chain, &q, 10).expect("search runs");
    }
    (inst, sink.events())
}

#[test]
fn honest_run_passes_the_audit() {
    let (inst, events) = instrumented_run();
    let auditor = LeakageAuditor::from_events(&events).expect("honest transcript parses");
    let report = auditor
        .verify(inst.declared_leakage())
        .expect("honest transcript matches declared leakage");
    assert_eq!(report.builds, 2, "one build + one insert shipment");
    assert_eq!(report.searches, 3);
    assert!(report.tokens > 0, "searches produced tokens");
    assert!(
        report.distinct_tokens < report.tokens,
        "the repeated query must fold into fewer distinct token identities"
    );
}

#[test]
fn search_outcome_carries_its_trace_id() {
    let sink = Arc::new(MemorySink::new());
    let handle = TelemetryHandle::with(Arc::new(LogicalClock::default()), sink.clone() as _);
    let mut chain = Blockchain::new();
    let mut inst =
        SlicerInstance::try_setup_with(SlicerConfig::test_8bit(), 0xA0D17, &mut chain, handle)
            .unwrap();
    inst.build(&mut chain, &db(24)).expect("in-domain build");
    let outcome = inst
        .search(&mut chain, &Query::less_than(100), 10)
        .expect("search runs");
    assert_ne!(
        outcome.trace_id, 0,
        "instrumented searches carry a trace id"
    );
    let found = sink.events().iter().any(|e| {
        matches!(e, Event::SpanEnd { trace, name, .. }
            if name == "protocol.search" && trace.0 == outcome.trace_id)
    });
    assert!(found, "the outcome's trace id names a protocol.search root");
}

#[test]
fn undeclared_attribute_is_rejected() {
    let (_inst, mut events) = instrumented_run();
    // An over-leaky instrumentation change: a token span that records a
    // per-record plaintext-derived value.
    let tampered = events.iter_mut().find_map(|e| match e {
        Event::SpanEnd { name, attrs, .. } if name == "cloud.token" => Some(attrs),
        _ => None,
    });
    tampered
        .expect("run contains token spans")
        .push(("record.value", AttrValue::U64(7)));
    match LeakageAuditor::from_events(&events) {
        Err(LeakageViolation::UndeclaredAttribute { span, key }) => {
            assert_eq!(span, "cloud.token");
            assert_eq!(key, "record.value");
        }
        other => panic!("expected UndeclaredAttribute, got {other:?}"),
    }
}

#[test]
fn value_dependent_span_count_is_rejected() {
    let (inst, mut events) = instrumented_run();
    // A value-dependent leak: one more token span than the query shape
    // warrants (e.g. a code path that probes the store once per match).
    let idx = events
        .iter()
        .position(|e| matches!(e, Event::SpanEnd { name, .. } if name == "cloud.token"))
        .expect("run contains token spans");
    let duplicate = events[idx].clone();
    events.insert(idx, duplicate);
    let auditor = LeakageAuditor::from_events(&events).expect("keys are all declared");
    match auditor.verify(inst.declared_leakage()) {
        Err(LeakageViolation::SearchMismatch { index, .. }) => assert_eq!(index, 0),
        other => panic!("expected SearchMismatch, got {other:?}"),
    }
}

#[test]
fn token_span_outside_any_search_is_rejected() {
    let (_inst, mut events) = instrumented_run();
    let mut stray = events
        .iter()
        .find(|e| matches!(e, Event::SpanEnd { name, .. } if name == "cloud.token"))
        .expect("run contains token spans")
        .clone();
    if let Event::SpanEnd { trace, .. } = &mut stray {
        trace.0 = 999_999;
    }
    events.push(stray);
    match LeakageAuditor::from_events(&events) {
        Err(LeakageViolation::OrphanTokenSpan { trace }) => assert_eq!(trace, 999_999),
        other => panic!("expected OrphanTokenSpan, got {other:?}"),
    }
}

#[test]
fn dropped_build_span_is_rejected() {
    let (inst, mut events) = instrumented_run();
    let idx = events
        .iter()
        .position(|e| matches!(e, Event::SpanEnd { name, .. } if name == "phase.build"))
        .expect("run contains build spans");
    events.remove(idx);
    let auditor = LeakageAuditor::from_events(&events).expect("keys are all declared");
    match auditor.verify(inst.declared_leakage()) {
        Err(LeakageViolation::BuildCountMismatch { observed, declared }) => {
            assert_eq!((observed, declared), (1, 2));
        }
        other => panic!("expected BuildCountMismatch, got {other:?}"),
    }
}

/// The six protocol phases of the paper's Fig. 2 pipeline, as span names.
const PHASES: [&str; 6] = [
    "phase.setup",
    "phase.build",
    "phase.token",
    "phase.search",
    "phase.verify",
    "phase.settle",
];

#[test]
fn chrome_trace_export_round_trips_with_all_phases() {
    let (_inst, events) = instrumented_run();
    let exported = chrome_trace(&events);
    json::parse(&exported).expect("chrome trace is valid RFC 8259 JSON");
    assert!(
        exported.contains("\"traceEvents\":["),
        "export must carry a traceEvents array"
    );
    for phase in PHASES {
        assert!(
            exported.contains(&format!("\"name\":\"{phase}\"")),
            "chrome trace is missing phase span {phase}"
        );
    }
}

#[test]
fn phase_spans_are_parents_of_protocol_work() {
    let (_inst, events) = instrumented_run();
    let span_end = |want: &str| {
        events.iter().find_map(|e| match e {
            Event::SpanEnd {
                span, parent, name, ..
            } if name == want => Some((*span, *parent)),
            _ => None,
        })
    };
    let (search_root, _) = span_end("protocol.search").expect("search root span");
    for child in [
        "phase.token",
        "phase.search",
        "phase.verify",
        "phase.settle",
    ] {
        let (_, parent) = span_end(child).expect("phase span present");
        assert_eq!(
            parent,
            Some(SpanId(search_root.0)),
            "{child} must be a child of protocol.search"
        );
    }
    // The cloud's per-token walk in turn nests under the search phase.
    let (search_phase, _) = span_end("phase.search").expect("search phase span");
    let respond_parent = span_end("cloud.respond").expect("cloud.respond span").1;
    assert_eq!(respond_parent, Some(SpanId(search_phase.0)));
}
