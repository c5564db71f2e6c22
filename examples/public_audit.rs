//! Public verifiability in action: a third-party auditor who holds **no
//! keys at all** replays the chain — verifying the hash chain, reading the
//! contract's settlement events and recomputing gas totals — and learns
//! exactly who was paid for which request, and nothing about the data.
//!
//! ```text
//! cargo run --release --example public_audit
//! ```

use slicer_chain::Blockchain;
use slicer_core::{malicious, Query, RecordId, SlicerConfig, SlicerInstance};
use slicer_telemetry::TelemetryHandle;

fn main() {
    let mut chain = Blockchain::new();
    let mut slicer = SlicerInstance::try_setup_with(
        SlicerConfig::test_8bit(),
        555,
        &mut chain,
        TelemetryHandle::disabled(),
    )
    .expect("chain accepts the deployment");
    let db: Vec<(RecordId, u64)> = (0u64..80)
        .map(|i| (RecordId::from_u64(i), (i * 17) % 256))
        .collect();
    slicer.build(&mut chain, &db).expect("8-bit domain");

    // A few searches: two honest, one cheating cloud.
    slicer
        .search(&mut chain, &Query::less_than(64), 100)
        .expect("chain ok");
    slicer
        .search_with(
            &mut chain,
            &Query::less_than(200),
            100,
            malicious::drop_record,
        )
        .expect("chain ok");
    slicer
        .search(&mut chain, &Query::equal(17), 100)
        .expect("chain ok");

    // ── The auditor's view: only public chain data from here on. ──
    // 1. Chain integrity.
    assert!(chain.verify_chain());
    println!(
        "auditor: hash chain verified over {} blocks",
        chain.height()
    );

    // 2. Accumulator freshness events.
    let updates = chain.logs_by_topic("AccumulatorUpdated");
    println!(
        "auditor: {} accumulator update(s) by the owner",
        updates.len()
    );
    assert_eq!(updates.len(), 1, "one build in this scenario");

    // 3. Settlement outcomes: request id → paid or refunded.
    let settlements = chain.logs_by_topic("Settled");
    assert_eq!(settlements.len(), 3);
    let mut paid = 0;
    let mut refunded = 0;
    for (i, log) in settlements.iter().enumerate() {
        let ok = *log.data.last().expect("outcome byte") == 1;
        println!(
            "auditor: request #{i} settled — {}",
            if ok { "cloud paid" } else { "user refunded" }
        );
        if ok {
            paid += 1;
        } else {
            refunded += 1;
        }
    }
    assert_eq!((paid, refunded), (2, 1));

    // 4. Requests registered vs settled must balance.
    let requests = chain.logs_by_topic("SearchRequested");
    assert_eq!(requests.len(), settlements.len());
    println!(
        "auditor: {} request(s), {} settlement(s) — books balance ✓",
        requests.len(),
        settlements.len()
    );

    // 5. Gas accounting from receipts alone.
    let total_gas: u64 = chain
        .blocks()
        .iter()
        .flat_map(|b| &b.receipts)
        .map(|r| r.gas_used)
        .sum();
    println!("auditor: total gas consumed on chain: {total_gas}");

    // The auditor saw outcomes and costs — but never a plaintext value,
    // record id, or key. That is the public-verifiability property of
    // Table I, observed end to end.
    println!("audit complete: no key material was needed ✓");
}
