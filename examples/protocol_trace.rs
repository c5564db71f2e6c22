//! A guided walkthrough of the whole protocol on a toy database, run under
//! a live telemetry context: every phase of Fig. 1 (Setup, Build, Token,
//! Search, Verify, Settle) is profiled for wall time and gas, the gas is
//! attributed per [`slicer_chain::GasCategory`], the causal trace is
//! exported in Chrome trace-event format (load it at `chrome://tracing`
//! or <https://ui.perfetto.dev>), the observable access pattern is audited
//! against the declared leakage profiles, and the whole registry is
//! exported as Prometheus text and JSON (self-validated before printing).
//!
//! ```text
//! cargo run --release --example protocol_trace
//! ```

use slicer_chain::Blockchain;
use slicer_core::{
    DeclaredLeakage, LeakageAuditor, Query, RecordId, SearchOutcome, SlicerConfig, SlicerInstance,
};
use slicer_telemetry::{Event, MemorySink, MonotonicClock, TelemetryHandle};
use std::sync::Arc;

fn ms(ns: u64) -> String {
    format!("{:.3} ms", ns as f64 / 1e6)
}

fn main() {
    // One enabled handle serves the whole run: the chain and the
    // system's parties get it injected, so chain transactions, SORE
    // slicing, index extension and witness generation land in one
    // registry and event stream.
    let sink = Arc::new(MemorySink::new());
    let telemetry = TelemetryHandle::with(Arc::new(MonotonicClock::new()), sink.clone() as _);

    println!("── Setup + Build (Algorithms 1–2) ────────────────────────");
    let mut chain = Blockchain::new();
    chain.set_telemetry(telemetry.clone());
    let mut slicer =
        SlicerInstance::try_setup_with(SlicerConfig::test_8bit(), 7, &mut chain, telemetry.clone())
            .expect("chain accepts the deployment");
    let db: Vec<(RecordId, u64)> = (0u64..40)
        .map(|i| (RecordId::from_u64(i), (i * 13) % 256))
        .collect();
    // The leakage the run declares, from the protocol values each call
    // hands back; the audit at the end checks the trace against it.
    let mut declared = DeclaredLeakage::default();
    let built = slicer.build(&mut chain, &db).expect("8-bit domain");
    declared
        .record_build(&built.shipment)
        .expect("even shipment");
    let inserted = slicer
        .insert(&mut chain, &[(RecordId::from_u64(1_000), 5)])
        .expect("8-bit domain");
    declared
        .record_build(&inserted.shipment)
        .expect("even shipment");
    println!(
        "built {} records (+1 insert); {} index entries on the cloud",
        db.len(),
        slicer.cloud.storage().index.len()
    );

    println!("\n── Search / Verify / Settle (Algorithms 3–5) ─────────────");
    let query = Query::less_than(60);
    let mut results = Vec::new();
    let outcome: SearchOutcome = slicer
        .search_with(&mut chain, &query, 1_000, |honest| {
            results.clone_from(&honest.results);
            honest
        })
        .expect("honest run");
    declared.record_search(&results);
    assert!(outcome.verified, "honest searches verify on chain");
    let mut got: Vec<u64> = outcome
        .records
        .iter()
        .map(|r| r.as_u64().unwrap())
        .collect();
    got.sort_unstable();
    println!(
        "query `value < 60` → {} verified record(s), cloud paid: {}",
        got.len(),
        outcome.paid_cloud
    );

    // ── Per-phase profile ──────────────────────────────────────────────
    // Setup and Build are per-deployment phases living in the registry;
    // the four per-search phases also ride on the outcome itself.
    println!("\n── Phase profile ─────────────────────────────────────────");
    let snapshot = telemetry.snapshot();
    println!("{:<10} {:>14} {:>14}", "phase", "wall (mean)", "gas");
    for phase in ["setup", "build", "token", "search", "verify", "settle"] {
        let hist = snapshot
            .histogram(&format!("phase.{phase}.ns"))
            .expect("every phase ran");
        let gas = snapshot
            .counter(&format!("phase.{phase}.gas"))
            .expect("every phase metered");
        println!("{phase:<10} {:>14} {gas:>14}", ms(hist.mean()));
    }
    println!(
        "search outcome totals: wall {} | gas {}",
        ms(outcome.profile.total_wall().as_nanos() as u64),
        outcome.profile.total_gas()
    );
    assert_eq!(
        outcome.profile.total_gas(),
        outcome.request_gas + outcome.verify_gas,
        "phase gas reconciles with the tx receipts"
    );

    println!("\n── Gas by category (request + submit txs) ────────────────");
    for (name, gas) in outcome.profile.gas.entries() {
        if gas > 0 {
            println!("{name:<14} {gas:>12}");
        }
    }
    assert_eq!(outcome.profile.gas.total(), outcome.profile.total_gas());

    println!("\n── Prometheus export (phase series) ──────────────────────");
    for line in snapshot
        .to_prometheus_text()
        .lines()
        .filter(|l| l.contains("phase_"))
        .take(12)
    {
        println!("{line}");
    }

    // ── JSON export, self-validated ────────────────────────────────────
    let json = snapshot.to_json();
    slicer_telemetry::json::parse(&json).expect("exporter output is valid JSON");
    for phase in ["setup", "build", "token", "search", "verify", "settle"] {
        assert!(
            json.contains(&format!("phase.{phase}.ns")),
            "JSON export covers phase {phase}"
        );
    }
    println!(
        "\nJSON export: {} bytes, all six phases present",
        json.len()
    );
    println!("TELEMETRY JSON OK");

    // ── Causal trace: Chrome trace-event export, self-validated ────────
    let events = sink.events();
    let chrome = slicer_telemetry::chrome_trace(&events);
    slicer_telemetry::json::parse(&chrome).expect("chrome trace is valid JSON");
    let span_end = |want: &str| {
        events.iter().find_map(|e| match e {
            Event::SpanEnd {
                span, parent, name, ..
            } if name == want => Some((*span, *parent)),
            _ => None,
        })
    };
    // The six protocol phases must be present as *parent* spans: the four
    // per-search phases hang off the protocol.search root, and the cloud's
    // work in turn nests under phase.search.
    let (search_root, _) = span_end("protocol.search").expect("search root span");
    for child in [
        "phase.token",
        "phase.search",
        "phase.verify",
        "phase.settle",
    ] {
        let (_, parent) = span_end(child).expect("phase span recorded");
        assert_eq!(
            parent.map(|p| p.0),
            Some(search_root.0),
            "{child} must be a child of protocol.search"
        );
    }
    for root in ["phase.setup", "phase.build"] {
        let (_, parent) = span_end(root).expect("phase span recorded");
        assert!(parent.is_none(), "{root} is a trace root");
    }
    let (search_phase, _) = span_end("phase.search").expect("search phase span");
    let (_, respond_parent) = span_end("cloud.respond").expect("cloud.respond span");
    assert_eq!(respond_parent.map(|p| p.0), Some(search_phase.0));
    println!(
        "\nChrome trace: {} bytes, {} events — open at chrome://tracing",
        chrome.len(),
        events.len()
    );
    println!("CHROME TRACE OK");

    // ── Leakage audit: the trace reveals exactly Theorem 2's profiles ──
    let auditor = LeakageAuditor::from_events(&events).expect("transcript parses");
    let report = auditor
        .verify(&declared)
        .expect("observed access pattern matches declared leakage");
    println!(
        "Leakage audit: {} build(s), {} search(es), {} token(s) ({} distinct)",
        report.builds, report.searches, report.tokens, report.distinct_tokens
    );
    println!("LEAKAGE AUDIT OK");
}
